//! `CodecSpec::encode_with_feedback` against the four-call sequence it
//! replaced — compensate, encode, self-decode, absorb — which lives on
//! here as the reference.

use fedrlnas_codec::{Codec, CodecSpec, EncodeScratch};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Adds the residual's slots for the supernet-flat `(offset, len)` ranges
/// onto `update` (the concatenation of those ranges, in order).
fn compensate(update: &mut [f32], residual: &[f32], ranges: &[(usize, usize)]) {
    let mut cursor = 0;
    for &(offset, len) in ranges {
        for i in 0..len {
            update[cursor + i] += residual[offset + i];
        }
        cursor += len;
    }
    assert_eq!(cursor, update.len(), "ranges must tile the update exactly");
}

/// `residual[range] = compensated − decoded` for every covered slot.
fn absorb_residual(
    residual: &mut [f32],
    compensated: &[f32],
    decoded: &[f32],
    ranges: &[(usize, usize)],
) {
    let mut cursor = 0;
    for &(offset, len) in ranges {
        for i in 0..len {
            residual[offset + i] = compensated[cursor + i] - decoded[cursor + i];
        }
        cursor += len;
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn feedback_round_trip_matches_the_four_call_sequence(
        rounds in pvec(pvec(-50.0f32..50.0, 1..120), 2..=2),
        gaps in pvec(0usize..7, 4..=4),
        start in pvec(-1.0f32..1.0, 0..64),
        k_frac in 0.01f32..=1.0,
    ) {
        // two consecutive rounds share one residual and one scratch, like
        // a worker's (or the in-process server's) do
        for spec in [
            CodecSpec::Fp32,
            CodecSpec::Fp16,
            CodecSpec::Int8,
            CodecSpec::TopK { k_frac },
        ] {
            let longest = rounds.iter().map(Vec::len).max().unwrap();
            let mut residual = start.clone();
            residual.resize(longest + gaps.iter().sum::<usize>(), 0.0);
            let mut reference = residual.clone();
            let mut scratch = EncodeScratch::default();
            let (mut coded, mut decoded) = (Vec::new(), Vec::new());
            for raw in &rounds {
                // four ranges tiling the update, gaps between them
                let mut ranges = Vec::new();
                let (mut offset, mut left) = (0, raw.len());
                for (i, gap) in gaps.iter().enumerate() {
                    let len = if i == 3 { left } else { left / 2 };
                    ranges.push((offset + gap, len));
                    offset += gap + len;
                    left -= len;
                }
                let mut update = raw.clone();
                spec.encode_with_feedback(
                    &mut update,
                    &mut residual,
                    &ranges,
                    &mut scratch,
                    &mut coded,
                    &mut decoded,
                );
                let mut want = raw.clone();
                compensate(&mut want, &reference, &ranges);
                let want_coded = spec.encode(&want);
                let want_decoded = spec.decode(&want_coded, want.len()).unwrap();
                absorb_residual(&mut reference, &want, &want_decoded, &ranges);
                prop_assert_eq!(bits(&update), bits(&want), "{} compensated", spec);
                prop_assert_eq!(&coded, &want_coded, "{} coded", spec);
                prop_assert_eq!(bits(&decoded), bits(&want_decoded), "{} decoded", spec);
                prop_assert_eq!(bits(&residual), bits(&reference), "{} residual", spec);
            }
        }
    }
}
