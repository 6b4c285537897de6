//! Property and corruption tests for the wire format: random messages
//! round-trip bit-exactly; corrupt frames map to typed errors, never
//! panics.

use fedrlnas_darts::{ArchMask, NUM_OPS};
use fedrlnas_rpc::wire::{
    coded_upload_frame_len, crc32, decode, decode_download, download_frame_len, encode,
    upload_frame_len, Message, WireError, FRAME_OVERHEAD, HEADER_LEN, VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn mask_strategy() -> impl Strategy<Value = ArchMask> {
    (1usize..12).prop_flat_map(|edges| {
        (vec(0usize..NUM_OPS, edges), vec(0usize..NUM_OPS, edges))
            .prop_map(|(n, r)| ArchMask::new(n, r))
    })
}

fn f32s(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    vec(-1e6f32..1e6f32, 0..max_len)
}

fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(0u8..=255u8, 0..max_len)
}

/// Valid (tag, param) pairs for the four codecs.
fn codec_fields() -> impl Strategy<Value = (u8, f32)> {
    (0u8..4, 1u32..=100u32).prop_map(|(tag, frac)| {
        if tag == 3 {
            (tag, frac as f32 / 100.0)
        } else {
            (tag, 0.0)
        }
    })
}

/// Every control-plane message (wire types 7–15), with
/// arbitrary ids, state codes, and payload bodies.
fn control_strategy() -> impl Strategy<Value = Message> {
    (
        0usize..9,
        0u64..u64::MAX,
        0u8..=255u8,
        bytes(256),
        vec((0u64..u64::MAX, 0u8..=255u8), 0..32),
    )
        .prop_map(|(variant, job_id, state, payload, jobs)| match variant {
            0 => Message::SubmitJob { spec: payload },
            1 => Message::JobStatus { job_id },
            2 => Message::PauseJob { job_id },
            3 => Message::ResumeJob { job_id },
            4 => Message::CancelJob { job_id },
            5 => Message::ListJobs,
            6 => Message::StatsDump { job_id },
            7 => Message::JobReply {
                job_id,
                state,
                detail: payload,
            },
            _ => Message::JobList { jobs },
        })
}

/// The borrowed download reader and `decode` must say the same thing
/// about `frame`: the same download (compared by `f32` bits), the same
/// error, or — for a sound frame of another type — "not mine".
fn assert_download_reader_agrees(frame: &[u8]) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    match (decode_download(frame), decode(frame)) {
        (Err(borrowed), Err(owned)) => assert_eq!(borrowed, owned),
        (
            Ok(Some(d)),
            Ok(Message::DownloadSubmodel {
                round,
                seed_base,
                mask,
                weights,
                buffers,
                alpha,
                codec: None,
            }),
        ) => {
            assert_eq!((d.round, d.seed_base, &d.mask), (round, seed_base, &mask));
            assert_eq!(d.codec, None);
            assert_eq!(d.weights.len(), weights.len());
            assert_eq!(bits(&d.weights.to_vec()), bits(&weights));
            assert_eq!(bits(&d.buffers.to_vec()), bits(&buffers));
            assert_eq!(bits(&d.alpha), bits(&alpha));
            // read front to back in pieces, as a worker fills its tensors
            let mut run = d.weights;
            let mut filled = vec![0.0f32; weights.len()];
            let (head, tail) = filled.split_at_mut(weights.len() / 3);
            run.fill(head);
            run.fill(tail);
            assert!(run.is_empty());
            assert_eq!(bits(&filled), bits(&weights));
        }
        (
            Ok(Some(d)),
            Ok(Message::DownloadSubmodel {
                round,
                seed_base,
                mask,
                weights,
                buffers,
                alpha,
                codec: Some((codec_tag, codec_param)),
            }),
        ) => {
            assert_eq!((d.round, d.seed_base, &d.mask), (round, seed_base, &mask));
            let (tag, param) = d.codec.expect("a coded download names its codec");
            assert_eq!((tag, param.to_bits()), (codec_tag, codec_param.to_bits()));
            assert_eq!(bits(&d.weights.to_vec()), bits(&weights));
            assert_eq!(bits(&d.buffers.to_vec()), bits(&buffers));
            assert_eq!(bits(&d.alpha), bits(&alpha));
        }
        (Ok(None), owned) => assert!(
            !matches!(owned, Ok(Message::DownloadSubmodel { .. })),
            "the reader passed on a download"
        ),
        (borrowed, owned) => panic!("reader {borrowed:?} but decode {owned:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip, truncate anywhere, flip any bit — with and without the
    /// CRC re-sealed over the damage, so the payload checks behind the
    /// checksum are compared too.
    #[test]
    fn borrowed_download_reader_accepts_and_rejects_what_decode_does(
        mask in mask_strategy(),
        weights in f32s(96),
        buffers in f32s(24),
        alpha in f32s(24),
        coded in 0usize..2,
        codec in codec_fields(),
        cut in 0usize..10_000,
        pos in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let codec = (coded == 1).then_some(codec);
        let msg =
            Message::DownloadSubmodel { round: 9, seed_base: 4, mask, weights, buffers, alpha, codec };
        let frame = encode(&msg);
        assert_download_reader_agrees(&frame);
        prop_assert!(decode_download(&frame).expect("sound frame").is_some());
        assert_download_reader_agrees(&frame[..cut % frame.len()]);
        let mut flipped = frame.clone();
        flipped[pos % frame.len()] ^= 1 << bit;
        assert_download_reader_agrees(&flipped);
        let end = flipped.len() - 4;
        let crc = crc32(&flipped[HEADER_LEN..end]);
        flipped[end..].copy_from_slice(&crc.to_le_bytes());
        assert_download_reader_agrees(&flipped);
        // and a sound frame that is not a download is left to `decode`
        let ack = encode(&Message::Ack { round: 9 });
        prop_assert_eq!(decode_download(&ack), Ok(None));
    }

    #[test]
    fn download_round_trips(
        round in 0u64..u64::MAX,
        seed_base in 0u64..u64::MAX,
        mask in mask_strategy(),
        weights in f32s(256),
        buffers in f32s(64),
        alpha in f32s(64),
    ) {
        let edges = mask.num_edges();
        let msg = Message::DownloadSubmodel {
            round, seed_base, mask,
            weights: weights.clone(),
            buffers: buffers.clone(),
            alpha: alpha.clone(),
            codec: None,
        };
        let frame = encode(&msg);
        prop_assert_eq!(
            frame.len(),
            download_frame_len(edges, weights.len(), buffers.len(), alpha.len(), false)
        );
        prop_assert_eq!(decode(&frame).expect("round trip"), msg);
    }

    #[test]
    fn upload_round_trips(
        round in 0u64..u64::MAX,
        participant in 0u32..u32::MAX,
        delta_w in f32s(256),
        delta_alpha in f32s(64),
        reward in 0.0f32..1.0f32,
        loss in 0.0f32..20.0f32,
    ) {
        let msg = Message::UploadUpdate {
            round, participant,
            delta_w: delta_w.clone(),
            delta_alpha: delta_alpha.clone(),
            reward, loss,
        };
        let frame = encode(&msg);
        prop_assert_eq!(frame.len(), upload_frame_len(delta_w.len(), delta_alpha.len()));
        prop_assert_eq!(decode(&frame).expect("round trip"), msg);
    }

    #[test]
    fn ack_and_heartbeat_round_trip(round in 0u64..u64::MAX, participant in 0u32..u32::MAX) {
        for msg in [Message::Ack { round }, Message::Heartbeat { participant }] {
            prop_assert_eq!(decode(&encode(&msg)).expect("round trip"), msg);
        }
    }

    #[test]
    fn coded_download_round_trips(
        round in 0u64..u64::MAX,
        seed_base in 0u64..u64::MAX,
        mask in mask_strategy(),
        weights in f32s(128),
        buffers in f32s(32),
        alpha in f32s(32),
        codec in codec_fields(),
    ) {
        let edges = mask.num_edges();
        let msg = Message::DownloadSubmodel {
            round, seed_base, mask,
            weights: weights.clone(),
            buffers: buffers.clone(),
            alpha: alpha.clone(),
            codec: Some(codec),
        };
        let frame = encode(&msg);
        prop_assert_eq!(
            frame.len(),
            download_frame_len(edges, weights.len(), buffers.len(), alpha.len(), true)
        );
        prop_assert_eq!(decode(&frame).expect("round trip"), msg);
    }

    #[test]
    fn coded_upload_round_trips(
        round in 0u64..u64::MAX,
        participant in 0u32..u32::MAX,
        coded in bytes(512),
        delta_alpha in f32s(32),
        reward in 0.0f32..1.0f32,
        loss in 0.0f32..20.0f32,
        codec in codec_fields(),
        orig_len in 0u32..100_000u32,
    ) {
        let msg = Message::UploadUpdateCoded {
            round, participant,
            codec_tag: codec.0,
            codec_param: codec.1,
            orig_len,
            coded: coded.clone(),
            delta_alpha: delta_alpha.clone(),
            reward, loss,
        };
        let frame = encode(&msg);
        prop_assert_eq!(frame.len(), coded_upload_frame_len(coded.len(), delta_alpha.len()));
        prop_assert_eq!(decode(&frame).expect("round trip"), msg);
    }

    #[test]
    fn control_messages_round_trip(msg in control_strategy()) {
        prop_assert_eq!(decode(&encode(&msg)).expect("round trip"), msg);
    }

    #[test]
    fn truncating_a_control_frame_anywhere_is_a_typed_error(
        msg in control_strategy(),
        cut in 0usize..10_000,
    ) {
        let frame = encode(&msg);
        let cut = cut % frame.len();
        match decode(&frame[..cut]) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > cut);
            }
            other => panic!("truncated control frame decoded as {other:?}"),
        }
    }

    #[test]
    fn flipping_any_bit_of_a_control_frame_never_panics(
        msg in control_strategy(),
        pos in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let mut frame = encode(&msg);
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        let result = decode(&frame);
        if pos >= HEADER_LEN && pos < frame.len() - 4 {
            prop_assert!(
                matches!(result, Err(WireError::ChecksumMismatch { .. })),
                "payload corruption must fail the checksum, got {:?}",
                result
            );
        } else {
            // Header bytes are outside the CRC: a type-byte flip may alias
            // to a *different* valid control message (several share the
            // bare-`job_id` payload shape), but never to the original.
            prop_assert!(
                result != Ok(msg),
                "corrupt control frame decoded as the original message"
            );
        }
    }

    #[test]
    fn truncating_a_coded_upload_anywhere_is_a_typed_error(
        coded in bytes(128),
        delta_alpha in f32s(16),
        cut in 0usize..10_000,
    ) {
        let frame = encode(&Message::UploadUpdateCoded {
            round: 5, participant: 2,
            codec_tag: 3, codec_param: 0.25,
            orig_len: 64,
            coded, delta_alpha,
            reward: 0.5, loss: 1.0,
        });
        let cut = cut % frame.len();
        match decode(&frame[..cut]) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > cut);
            }
            other => panic!("truncated coded frame decoded as {other:?}"),
        }
    }

    #[test]
    fn flipping_any_bit_of_a_coded_upload_never_panics(
        coded in bytes(96),
        pos in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let mut frame = encode(&Message::UploadUpdateCoded {
            round: 7, participant: 3,
            codec_tag: 1, codec_param: 0.0,
            orig_len: 48,
            coded, delta_alpha: vec![0.5, -0.5],
            reward: 0.5, loss: 1.0,
        });
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        let result = decode(&frame);
        if pos >= HEADER_LEN && pos < frame.len() - 4 {
            prop_assert!(
                matches!(result, Err(WireError::ChecksumMismatch { .. })),
                "payload corruption must fail the checksum, got {:?}",
                result
            );
        } else {
            prop_assert!(result.is_err(), "corrupt coded frame decoded successfully");
        }
    }

    #[test]
    fn truncation_at_any_prefix_is_a_typed_error(
        mask in mask_strategy(),
        weights in f32s(32),
        cut in 0usize..1000,
    ) {
        let frame = encode(&Message::DownloadSubmodel {
            round: 1, seed_base: 2, mask,
            weights, buffers: vec![], alpha: vec![0.0; 8], codec: None,
        });
        let cut = cut % frame.len();
        match decode(&frame[..cut]) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > cut);
            }
            other => panic!("truncated frame decoded as {other:?}"),
        }
    }

    #[test]
    fn flipping_any_byte_never_panics(
        delta_w in f32s(64),
        pos in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let mut frame = encode(&Message::UploadUpdate {
            round: 3, participant: 1,
            delta_w, delta_alpha: vec![1.0, 2.0],
            reward: 0.5, loss: 1.0,
        });
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        // any outcome is fine except a panic; a flip inside the payload
        // must be caught by the CRC
        let result = decode(&frame);
        if pos >= HEADER_LEN && pos < frame.len() - 4 {
            prop_assert!(
                matches!(result, Err(WireError::ChecksumMismatch { .. })),
                "payload corruption must fail the checksum, got {:?}",
                result
            );
        } else {
            prop_assert!(result.is_err(), "corrupt frame decoded successfully");
        }
    }
}

#[test]
fn flipped_crc_byte_is_checksum_mismatch() {
    let mut frame = encode(&Message::Ack { round: 9 });
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    assert!(matches!(
        decode(&frame),
        Err(WireError::ChecksumMismatch { .. })
    ));
}

#[test]
fn wrong_version_is_typed() {
    let mut frame = encode(&Message::Ack { round: 9 });
    frame[4] = 99;
    assert_eq!(decode(&frame), Err(WireError::UnsupportedVersion(99)));
}

#[test]
fn wrong_magic_is_typed() {
    let mut frame = encode(&Message::Ack { round: 9 });
    frame[0] = b'X';
    assert!(matches!(decode(&frame), Err(WireError::BadMagic(_))));
}

#[test]
fn unknown_type_is_typed() {
    let mut frame = encode(&Message::Heartbeat { participant: 0 });
    frame[5] = 200;
    assert_eq!(decode(&frame), Err(WireError::UnknownType(200)));
}

#[test]
fn trailing_bytes_are_malformed() {
    let mut frame = encode(&Message::Ack { round: 1 });
    frame.push(0);
    assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
}

#[test]
fn huge_declared_payload_does_not_allocate() {
    // header promising a 4 GiB payload on a tiny frame must fail fast as
    // truncated, not attempt the allocation
    let mut frame = Vec::new();
    frame.extend_from_slice(b"FRLN");
    frame.push(VERSION);
    frame.push(2); // upload
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]);
    match decode(&frame) {
        Err(WireError::Truncated { needed, got }) => {
            assert_eq!(needed, FRAME_OVERHEAD + u32::MAX as usize);
            assert_eq!(got, frame.len());
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn corrupt_interior_length_field_is_typed() {
    // declare more f32s than the payload holds: the inner reader must
    // report truncation before allocating
    let msg = Message::UploadUpdate {
        round: 1,
        participant: 2,
        delta_w: vec![1.0, 2.0, 3.0],
        delta_alpha: vec![],
        reward: 0.1,
        loss: 0.2,
    };
    let mut frame = encode(&msg);
    // delta_w length prefix sits after round (8) + participant (4)
    let len_at = HEADER_LEN + 12;
    frame[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // re-seal the CRC so only the length lies
    let end = frame.len() - 4;
    let crc = crc32(&frame[HEADER_LEN..end]);
    frame[end..].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode(&frame),
        Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_))
    ));
}
