//! Frozen bits of the round accumulator: every rule the `--aggregator`
//! language names, over a fixed set of sparse updates with uneven,
//! overlapping coverage and over a second, two-update set. The updates come
//! from a formula, not a random generator, so each digest depends on the
//! rule's arithmetic order alone. Any change to the order the accumulator
//! folds, sorts, selects or clips moves a digest.

use fedrlnas_fed::{AggregatorConfig, SparseUpdate, StreamingAccumulator};

const THETA: usize = 48;

/// Element `i` of stream `stream`: a Weyl sequence in `[-4, 4)`.
fn wave(i: usize, stream: u32) -> f32 {
    let x = (i as u32)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(stream.wrapping_mul(0x85EB_CA6B));
    ((x >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 8.0
}

/// Update `u` covers up to three ascending slots of uneven length; the
/// slots of different updates overlap, and update 5 covers nothing.
fn update(u: usize) -> SparseUpdate {
    let mut ranges = Vec::new();
    if u != 5 {
        let mut off = (u * 7) % 11;
        for r in 0..1 + u % 3 {
            let len = 1 + (u * 5 + r * 3) % 13;
            if off + len > THETA {
                break;
            }
            ranges.push((off, len));
            off += len + 1 + (u + r) % 4;
        }
    }
    let total = ranges.iter().map(|&(_, l)| l).sum();
    let values = (0..total).map(|i| wave(i, u as u32)).collect();
    SparseUpdate { ranges, values }
}

/// FNV-1a over the bits of everything fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.0 ^= u64::from(v.to_bits());
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn accumulate(rule: &str, updates: &[SparseUpdate]) -> Vec<f32> {
    let config = AggregatorConfig::parse(rule).expect("valid rule");
    let mut acc = StreamingAccumulator::new(&config, THETA);
    for u in updates {
        acc.push(u.clone());
    }
    acc.finish()
}

const RULES: [&str; 6] = [
    "mean",
    "clip:3",
    "median",
    "trimmed:1",
    "krum:3",
    "clip:3+median",
];

/// `DIGESTS[rule]`, in the order of [`RULES`].
const DIGESTS: [u64; 6] = [
    0xd912dd6b5e0a503b,
    0x2a02e4a828804c66,
    0x8aa47e9c18aba5d5,
    0xdb9c18af9c368fd8,
    0x14cc9fc00ccaf213,
    0x759808e0ac27e96e,
];

#[test]
fn the_accumulator_keeps_its_bits() {
    let many: Vec<SparseUpdate> = (0..11).map(update).collect();
    let two: Vec<SparseUpdate> = (11..13).map(update).collect();
    let mut got = [0u64; 6];
    for (r, rule) in RULES.iter().enumerate() {
        let mut digest = Digest::new();
        digest.floats(&accumulate(rule, &many));
        digest.floats(&accumulate(rule, &two));
        got[r] = digest.0;
    }
    assert_eq!(got, DIGESTS, "{got:#018x?}");
}
