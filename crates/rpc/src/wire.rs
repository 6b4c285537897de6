//! Versioned, length-prefixed binary wire format.
//!
//! Every frame is:
//!
//! ```text
//! +-------+---------+----------+-------------+----------+----------+
//! | magic | version | msg type | payload len | payload  | CRC32    |
//! | 4 B   | 1 B     | 1 B      | 4 B LE      | len B    | 4 B LE   |
//! +-------+---------+----------+-------------+----------+----------+
//! ```
//!
//! The CRC covers the payload only (the header is validated field by
//! field). Tensors travel as raw little-endian `f32` runs prefixed by a
//! `u32` element count; architecture masks as one byte per edge. Payload
//! fields are read and written through [`fedrlnas_core::record`], the
//! bounded field layer the checkpoint, the job spec and the job store
//! share. Decoding is total: any malformed input maps to a typed
//! [`WireError`], never a panic, and no allocation is sized from untrusted
//! lengths before the frame's byte count has been checked against them.

use fedrlnas_core::record::{self, put_bytes, put_f32_ranges, put_f32s, put_mask, Count, Reader};
use fedrlnas_darts::ArchMask;

/// The frame trailer's checksum: the workspace's one CRC-32.
pub use fedrlnas_core::crc32;
/// A run of `f32`s borrowed from a frame.
pub use fedrlnas_core::record::F32Run;

/// Frame magic: `b"FRLN"`.
pub const MAGIC: [u8; 4] = *b"FRLN";
/// Highest protocol version this build speaks. Version 1 carries the
/// four legacy message types; version 2 adds the codec-aware
/// download/upload pair and the search-service control plane
/// (submit/status/pause/resume/cancel/list/stats and their replies).
/// Legacy messages still encode as version-1 frames byte-for-byte, so an
/// `fp32` deployment is wire-identical to a pre-codec fleet and old peers
/// interoperate until a v2-only frame — which they refuse with a clean
/// [`WireError::UnsupportedVersion`] — reaches them.
pub const VERSION: u8 = 2;
/// Oldest protocol version this build still decodes.
pub const MIN_VERSION: u8 = 1;
/// Bytes before the payload: magic + version + type + payload length.
pub const HEADER_LEN: usize = 10;
/// Bytes after the payload: the CRC32 trailer.
pub const TRAILER_LEN: usize = 4;
/// Total framing overhead added to every payload.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + TRAILER_LEN;
/// Every count in a payload is a `u32`.
const COUNT: Count = Count::U32;

/// Typed decode failure. Every corrupt, truncated or hostile input maps
/// here — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The message-type byte is not a known [`Message`] discriminant.
    UnknownType(u8),
    /// The input ended before the structure it promised. For the
    /// envelope (header, declared length, trailer), `needed` is the end
    /// offset in the frame and `got` the frame's length; for a field
    /// inside the payload, both count from the payload's first byte.
    Truncated {
        /// End offset of the field that did not fit.
        needed: usize,
        /// Length of the buffer it was read from.
        got: usize,
    },
    /// The payload checksum did not match the trailer.
    ChecksumMismatch {
        /// CRC32 carried in the trailer.
        expected: u32,
        /// CRC32 recomputed over the received payload.
        got: u32,
    },
    /// The payload parsed but its contents are invalid (op index out of
    /// range, trailing bytes, length fields disagreeing with the frame).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:08x}, payload is {got:08x}"
                )
            }
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<record::Error> for WireError {
    fn from(e: record::Error) -> Self {
        match e {
            record::Error::Truncated { needed, got } => WireError::Truncated { needed, got },
            record::Error::Malformed(why) => WireError::Malformed(why),
        }
    }
}

/// Everything that crosses the federation wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → participant: the sub-model to train this round.
    DownloadSubmodel {
        /// Round the sub-model belongs to.
        round: u64,
        /// Base seed; the worker derives its private RNG stream from this.
        seed_base: u64,
        /// Architecture the participant must instantiate.
        mask: ArchMask,
        /// Flat sub-model weights in structural visit order.
        weights: Vec<f32>,
        /// Flat BatchNorm running statistics in structural visit order.
        buffers: Vec<f32>,
        /// Current controller logits.
        alpha: Vec<f32>,
    },
    /// Participant → server: the completed local update.
    UploadUpdate {
        /// Round the update was computed in.
        round: u64,
        /// Reporting participant id.
        participant: u32,
        /// Flat weight gradients in structural visit order.
        delta_w: Vec<f32>,
        /// Participant-computed `∇α log p(g)`.
        delta_alpha: Vec<f32>,
        /// REINFORCE reward (training accuracy).
        reward: f32,
        /// Mean local training loss.
        loss: f32,
    },
    /// Bare acknowledgement of a round.
    Ack {
        /// Acknowledged round.
        round: u64,
    },
    /// Liveness probe / connection handshake carrying the sender's id.
    Heartbeat {
        /// Sending participant id.
        participant: u32,
    },
    /// Server → participant, protocol v2: a sub-model plus the codec the
    /// participant must apply to its uploaded weight update. The payload
    /// is the legacy [`Message::DownloadSubmodel`] payload with the codec
    /// instruction appended, so the tensor layout is shared.
    DownloadSubmodelCoded {
        /// Round the sub-model belongs to.
        round: u64,
        /// Base seed; the worker derives its private RNG stream from this.
        seed_base: u64,
        /// Architecture the participant must instantiate.
        mask: ArchMask,
        /// Flat sub-model weights in structural visit order.
        weights: Vec<f32>,
        /// Flat BatchNorm running statistics in structural visit order.
        buffers: Vec<f32>,
        /// Current controller logits.
        alpha: Vec<f32>,
        /// Codec discriminant (`fedrlnas_codec::CodecSpec::tag`).
        codec_tag: u8,
        /// Codec parameter (`k_frac` for top-k, `0.0` otherwise).
        codec_param: f32,
    },
    /// Client → server, protocol v2 control plane: submit a new search
    /// job. The spec is an opaque blob owned by the service layer (the
    /// wire carries it like a codec run: length-checked before any
    /// allocation, never interpreted here).
    SubmitJob {
        /// Serialized job spec (`fedrlnas-service` encoding).
        spec: Vec<u8>,
    },
    /// Client → server control plane: query one job's state and progress.
    JobStatus {
        /// Queried job.
        job_id: u64,
    },
    /// Client → server control plane: pause a queued or running job. The
    /// scheduler stops giving it rounds; its state stays checkpointed.
    PauseJob {
        /// Paused job.
        job_id: u64,
    },
    /// Client → server control plane: resume a paused job.
    ResumeJob {
        /// Resumed job.
        job_id: u64,
    },
    /// Client → server control plane: cancel a job. Terminal; the job's
    /// last checkpoint segment is kept for post-mortem inspection.
    CancelJob {
        /// Cancelled job.
        job_id: u64,
    },
    /// Client → server control plane: list every job the server knows.
    ListJobs,
    /// Client → server control plane: dump one job's communication
    /// statistics as JSON (the same serialization the CLI's
    /// `--stats-json` flag writes).
    StatsDump {
        /// Queried job.
        job_id: u64,
    },
    /// Server → client control plane: the reply to every per-job request.
    /// `state` is the service layer's job-state code; `detail` carries a
    /// request-specific UTF-8 body (status JSON, stats JSON, or an error
    /// message when `state` is the error marker `0xFF`).
    JobReply {
        /// Job the reply concerns (the assigned id for a submit).
        job_id: u64,
        /// Job-state code, or `0xFF` for a request-level error.
        state: u8,
        /// Request-specific UTF-8 body.
        detail: Vec<u8>,
    },
    /// Server → client control plane: the reply to [`Message::ListJobs`] —
    /// `(job id, state code)` per job, ascending by id.
    JobList {
        /// `(job id, state code)` pairs, ascending by id.
        jobs: Vec<(u64, u8)>,
    },
    /// Participant → server, protocol v2: a local update whose weight
    /// gradients travel as an opaque codec byte run. The wire layer does
    /// **not** decode the run — the engine does, against an expected
    /// length it tracked itself, so a hostile `orig_len` can never size an
    /// allocation.
    UploadUpdateCoded {
        /// Round the update was computed in.
        round: u64,
        /// Reporting participant id.
        participant: u32,
        /// Codec discriminant the run was encoded with.
        codec_tag: u8,
        /// Codec parameter (`k_frac` for top-k, `0.0` otherwise).
        codec_param: f32,
        /// Element count of the original gradient, as *claimed* by the
        /// sender. Advisory only; the engine validates it against its own
        /// per-round bookkeeping before any decode.
        orig_len: u32,
        /// Encoded weight-gradient bytes.
        coded: Vec<u8>,
        /// Participant-computed `∇α log p(g)` (always fp32).
        delta_alpha: Vec<f32>,
        /// REINFORCE reward (training accuracy).
        reward: f32,
        /// Mean local training loss.
        loss: f32,
    },
}

const TYPE_DOWNLOAD: u8 = 1;
const TYPE_UPLOAD: u8 = 2;
const TYPE_ACK: u8 = 3;
const TYPE_HEARTBEAT: u8 = 4;
const TYPE_DOWNLOAD_CODED: u8 = 5;
const TYPE_UPLOAD_CODED: u8 = 6;
const TYPE_SUBMIT_JOB: u8 = 7;
const TYPE_JOB_STATUS: u8 = 8;
const TYPE_PAUSE_JOB: u8 = 9;
const TYPE_RESUME_JOB: u8 = 10;
const TYPE_CANCEL_JOB: u8 = 11;
const TYPE_LIST_JOBS: u8 = 12;
const TYPE_STATS_DUMP: u8 = 13;
const TYPE_JOB_REPLY: u8 = 14;
const TYPE_JOB_LIST: u8 = 15;

/// Codec tags above this value are not a registered codec
/// (`fedrlnas_codec::CodecId` has four entries); the wire layer rejects
/// them as malformed without consulting the codec crate.
const MAX_CODEC_TAG: u8 = 3;

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::DownloadSubmodel { .. } => TYPE_DOWNLOAD,
            Message::UploadUpdate { .. } => TYPE_UPLOAD,
            Message::Ack { .. } => TYPE_ACK,
            Message::Heartbeat { .. } => TYPE_HEARTBEAT,
            Message::DownloadSubmodelCoded { .. } => TYPE_DOWNLOAD_CODED,
            Message::UploadUpdateCoded { .. } => TYPE_UPLOAD_CODED,
            Message::SubmitJob { .. } => TYPE_SUBMIT_JOB,
            Message::JobStatus { .. } => TYPE_JOB_STATUS,
            Message::PauseJob { .. } => TYPE_PAUSE_JOB,
            Message::ResumeJob { .. } => TYPE_RESUME_JOB,
            Message::CancelJob { .. } => TYPE_CANCEL_JOB,
            Message::ListJobs => TYPE_LIST_JOBS,
            Message::StatsDump { .. } => TYPE_STATS_DUMP,
            Message::JobReply { .. } => TYPE_JOB_REPLY,
            Message::JobList { .. } => TYPE_JOB_LIST,
        }
    }

    /// Lowest protocol version that can carry this message; the encoder
    /// stamps it into the frame so legacy traffic stays byte-identical.
    fn version_byte(&self) -> u8 {
        match self {
            Message::DownloadSubmodel { .. }
            | Message::UploadUpdate { .. }
            | Message::Ack { .. }
            | Message::Heartbeat { .. } => 1,
            _ => 2,
        }
    }
}

/// The one range that covers all of `values`.
fn whole(values: &[f32]) -> std::iter::Once<(usize, usize)> {
    std::iter::once((0, values.len()))
}

/// The payload of either download flavour (`coded` says which), its two
/// big `f32` runs borrowed from the frame.
fn read_download<'a>(r: &mut Reader<'a>, coded: bool) -> Result<DownloadRef<'a>, WireError> {
    let round = r.u64()?;
    let seed_base = r.u64()?;
    let mask = r.mask(COUNT)?;
    let weights = r.f32_run(COUNT)?;
    let buffers = r.f32_run(COUNT)?;
    let alpha = r.f32s(COUNT)?;
    let codec = if coded {
        let tag = r.u8()?;
        if tag > MAX_CODEC_TAG {
            return Err(WireError::Malformed("unknown codec tag"));
        }
        Some((tag, r.f32()?))
    } else {
        None
    };
    Ok(DownloadRef {
        round,
        seed_base,
        mask,
        weights,
        buffers,
        alpha,
        codec,
    })
}

/// The payload of either download flavour, appended in wire order: the
/// coded one ends in its codec's `(tag, param)` pair. Weights and buffers
/// are each the concatenation of `(offset, len)` ranges of a flat vector.
#[allow(clippy::too_many_arguments)]
fn put_download(
    out: &mut Vec<u8>,
    round: u64,
    seed_base: u64,
    mask: &ArchMask,
    theta: &[f32],
    param_ranges: impl Iterator<Item = (usize, usize)> + Clone,
    buffers: &[f32],
    buffer_ranges: impl Iterator<Item = (usize, usize)> + Clone,
    alpha: &[f32],
    codec: Option<(u8, f32)>,
) {
    let edges = mask.num_edges();
    let floats: usize = param_ranges
        .clone()
        .chain(buffer_ranges.clone())
        .map(|(_, len)| len)
        .sum();
    out.reserve(24 + 2 * edges + 4 * (floats + alpha.len()) + 12);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&seed_base.to_le_bytes());
    put_mask(out, COUNT, mask);
    put_f32_ranges(out, COUNT, theta, param_ranges);
    put_f32_ranges(out, COUNT, buffers, buffer_ranges);
    put_f32s(out, COUNT, alpha);
    if let Some((tag, param)) = codec {
        out.push(tag);
        out.extend_from_slice(&param.to_le_bytes());
    }
}

/// The payload of a coded upload, appended in wire order.
#[allow(clippy::too_many_arguments)]
fn put_upload_coded(
    out: &mut Vec<u8>,
    round: u64,
    participant: u32,
    codec_tag: u8,
    codec_param: f32,
    orig_len: u32,
    coded: &[u8],
    delta_alpha: &[f32],
    reward: f32,
    loss: f32,
) {
    out.reserve(8 + 4 + 1 + 4 + 4 + 4 + coded.len() + 4 * delta_alpha.len() + 12);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&participant.to_le_bytes());
    out.push(codec_tag);
    out.extend_from_slice(&codec_param.to_le_bytes());
    out.extend_from_slice(&orig_len.to_le_bytes());
    put_bytes(out, COUNT, coded);
    put_f32s(out, COUNT, delta_alpha);
    out.extend_from_slice(&reward.to_le_bytes());
    out.extend_from_slice(&loss.to_le_bytes());
}

fn encode_payload_into(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::DownloadSubmodel {
            round,
            seed_base,
            mask,
            weights,
            buffers,
            alpha,
        } => put_download(
            out,
            *round,
            *seed_base,
            mask,
            weights,
            whole(weights),
            buffers,
            whole(buffers),
            alpha,
            None,
        ),
        Message::UploadUpdate {
            round,
            participant,
            delta_w,
            delta_alpha,
            reward,
            loss,
        } => {
            out.reserve(20 + 4 * (delta_w.len() + delta_alpha.len()) + 8);
            out.extend_from_slice(&round.to_le_bytes());
            out.extend_from_slice(&participant.to_le_bytes());
            put_f32s(out, COUNT, delta_w);
            put_f32s(out, COUNT, delta_alpha);
            out.extend_from_slice(&reward.to_le_bytes());
            out.extend_from_slice(&loss.to_le_bytes());
        }
        Message::Ack { round } => out.extend_from_slice(&round.to_le_bytes()),
        Message::Heartbeat { participant } => out.extend_from_slice(&participant.to_le_bytes()),
        Message::DownloadSubmodelCoded {
            round,
            seed_base,
            mask,
            weights,
            buffers,
            alpha,
            codec_tag,
            codec_param,
        } => put_download(
            out,
            *round,
            *seed_base,
            mask,
            weights,
            whole(weights),
            buffers,
            whole(buffers),
            alpha,
            Some((*codec_tag, *codec_param)),
        ),
        Message::UploadUpdateCoded {
            round,
            participant,
            codec_tag,
            codec_param,
            orig_len,
            coded,
            delta_alpha,
            reward,
            loss,
        } => put_upload_coded(
            out,
            *round,
            *participant,
            *codec_tag,
            *codec_param,
            *orig_len,
            coded,
            delta_alpha,
            *reward,
            *loss,
        ),
        Message::SubmitJob { spec } => put_bytes(out, COUNT, spec),
        Message::JobStatus { job_id }
        | Message::PauseJob { job_id }
        | Message::ResumeJob { job_id }
        | Message::CancelJob { job_id }
        | Message::StatsDump { job_id } => out.extend_from_slice(&job_id.to_le_bytes()),
        Message::ListJobs => {}
        Message::JobReply {
            job_id,
            state,
            detail,
        } => {
            out.reserve(8 + 1 + 4 + detail.len());
            out.extend_from_slice(&job_id.to_le_bytes());
            out.push(*state);
            put_bytes(out, COUNT, detail);
        }
        Message::JobList { jobs } => {
            out.reserve(4 + 9 * jobs.len());
            out.extend_from_slice(&(jobs.len() as u32).to_le_bytes());
            for (job_id, state) in jobs {
                out.extend_from_slice(&job_id.to_le_bytes());
                out.push(*state);
            }
        }
    }
}

/// A v2-only message type inside a v1 frame is refused.
fn check_version(version: u8, msg_type: u8) -> Result<(), WireError> {
    if matches!(msg_type, TYPE_DOWNLOAD_CODED | TYPE_UPLOAD_CODED) && version < 2 {
        return Err(WireError::Malformed("coded message needs protocol v2"));
    }
    if (TYPE_SUBMIT_JOB..=TYPE_JOB_LIST).contains(&msg_type) && version < 2 {
        return Err(WireError::Malformed("control message needs protocol v2"));
    }
    Ok(())
}

fn decode_payload(version: u8, msg_type: u8, payload: &[u8]) -> Result<Message, WireError> {
    check_version(version, msg_type)?;
    let mut r = Reader::new(payload);
    let msg = match msg_type {
        TYPE_DOWNLOAD | TYPE_DOWNLOAD_CODED => {
            read_download(&mut r, msg_type == TYPE_DOWNLOAD_CODED)?.into_message()
        }
        TYPE_UPLOAD => {
            let round = r.u64()?;
            let participant = r.u32()?;
            let delta_w = r.f32s(COUNT)?;
            let delta_alpha = r.f32s(COUNT)?;
            let reward = r.f32()?;
            let loss = r.f32()?;
            Message::UploadUpdate {
                round,
                participant,
                delta_w,
                delta_alpha,
                reward,
                loss,
            }
        }
        TYPE_ACK => Message::Ack { round: r.u64()? },
        TYPE_HEARTBEAT => Message::Heartbeat {
            participant: r.u32()?,
        },
        TYPE_UPLOAD_CODED => {
            let round = r.u64()?;
            let participant = r.u32()?;
            let codec_tag = r.u8()?;
            if codec_tag > MAX_CODEC_TAG {
                return Err(WireError::Malformed("unknown codec tag"));
            }
            let codec_param = r.f32()?;
            let orig_len = r.u32()?;
            let coded = r.byte_run(COUNT)?.to_vec();
            let delta_alpha = r.f32s(COUNT)?;
            let reward = r.f32()?;
            let loss = r.f32()?;
            Message::UploadUpdateCoded {
                round,
                participant,
                codec_tag,
                codec_param,
                orig_len,
                coded,
                delta_alpha,
                reward,
                loss,
            }
        }
        TYPE_SUBMIT_JOB => Message::SubmitJob {
            spec: r.byte_run(COUNT)?.to_vec(),
        },
        TYPE_JOB_STATUS => Message::JobStatus { job_id: r.u64()? },
        TYPE_PAUSE_JOB => Message::PauseJob { job_id: r.u64()? },
        TYPE_RESUME_JOB => Message::ResumeJob { job_id: r.u64()? },
        TYPE_CANCEL_JOB => Message::CancelJob { job_id: r.u64()? },
        TYPE_LIST_JOBS => Message::ListJobs,
        TYPE_STATS_DUMP => Message::StatsDump { job_id: r.u64()? },
        TYPE_JOB_REPLY => Message::JobReply {
            job_id: r.u64()?,
            state: r.u8()?,
            detail: r.byte_run(COUNT)?.to_vec(),
        },
        TYPE_JOB_LIST => {
            let count = r.count_u32(9)?; // (job id u64, state u8) pairs
            let mut jobs = Vec::with_capacity(count);
            for _ in 0..count {
                jobs.push((r.u64()?, r.u8()?));
            }
            Message::JobList { jobs }
        }
        other => return Err(WireError::UnknownType(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Encodes a message into one complete frame. The version byte is the
/// *lowest* protocol that can carry the message — legacy messages stay
/// byte-identical to what a version-1 build emits.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_into(msg, &mut frame);
    frame
}

/// [`encode`] into a caller-owned buffer (cleared first, grow-only
/// capacity) — byte-identical output, zero steady-state allocations when
/// the buffer is reused across rounds. The payload is written directly
/// into the frame and the length field patched afterwards, so no
/// intermediate payload vector exists either.
pub fn encode_into(msg: &Message, frame: &mut Vec<u8>) {
    seal_into(frame, msg.version_byte(), msg.type_byte(), |out| {
        encode_payload_into(msg, out)
    });
}

/// Writes one frame into `frame` (cleared first): the header, the payload
/// `put` appends in place, then the patched length field and the payload's
/// CRC — the one envelope every encoder shares.
fn seal_into(frame: &mut Vec<u8>, version: u8, msg_type: u8, put: impl FnOnce(&mut Vec<u8>)) {
    frame.clear();
    frame.extend_from_slice(&MAGIC);
    frame.push(version);
    frame.push(msg_type);
    frame.extend_from_slice(&[0u8; 4]); // payload length, patched below
    put(frame);
    let payload_len = frame.len() - HEADER_LEN;
    frame[6..10].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&frame[HEADER_LEN..]);
    frame.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes a download frame directly from borrowed payload slices into a
/// reusable buffer — byte-identical to [`encode_into`] with the
/// corresponding [`Message`], but without building the message (which
/// owns its vectors) first. `codec: None` emits the legacy v1
/// [`Message::DownloadSubmodel`]; `Some((tag, param))` the v2
/// [`Message::DownloadSubmodelCoded`].
#[allow(clippy::too_many_arguments)]
pub fn encode_download_into(
    frame: &mut Vec<u8>,
    round: u64,
    seed_base: u64,
    mask: &ArchMask,
    weights: &[f32],
    buffers: &[f32],
    alpha: &[f32],
    codec: Option<(u8, f32)>,
) {
    encode_download_ranges_into(
        frame,
        round,
        seed_base,
        mask,
        weights,
        whole(weights),
        buffers,
        whole(buffers),
        alpha,
        codec,
    );
}

/// [`encode_download_into`] with the weights and the buffers each given
/// as `(offset, len)` ranges of a larger flat vector, copied into the
/// frame in range order — the frame [`encode_download_into`] writes for
/// their concatenations, without materialising either. This is the
/// server's per-round hot path: it fills a participant's frame straight
/// from the supernet's flat θ, and with a grow-only `frame` the whole
/// encode is allocation-free at steady state.
///
/// # Panics
///
/// Panics if a range reaches outside its flat vector.
#[allow(clippy::too_many_arguments)]
pub fn encode_download_ranges_into(
    frame: &mut Vec<u8>,
    round: u64,
    seed_base: u64,
    mask: &ArchMask,
    theta: &[f32],
    param_ranges: impl Iterator<Item = (usize, usize)> + Clone,
    buffers: &[f32],
    buffer_ranges: impl Iterator<Item = (usize, usize)> + Clone,
    alpha: &[f32],
    codec: Option<(u8, f32)>,
) {
    let (version, msg_type) = match codec {
        None => (1, TYPE_DOWNLOAD),
        Some(_) => (2, TYPE_DOWNLOAD_CODED),
    };
    seal_into(frame, version, msg_type, |out| {
        put_download(
            out,
            round,
            seed_base,
            mask,
            theta,
            param_ranges,
            buffers,
            buffer_ranges,
            alpha,
            codec,
        )
    });
}

/// Encodes a v2 coded-upload frame from a borrowed byte run —
/// byte-identical to [`encode_into`] with the corresponding
/// [`Message::UploadUpdateCoded`], but the coded bytes are borrowed, so
/// the worker hot path can reuse its codec output buffer instead of
/// moving a fresh vector into a message.
#[allow(clippy::too_many_arguments)]
pub fn encode_upload_coded_into(
    frame: &mut Vec<u8>,
    round: u64,
    participant: u32,
    codec_tag: u8,
    codec_param: f32,
    orig_len: u32,
    coded: &[u8],
    delta_alpha: &[f32],
    reward: f32,
    loss: f32,
) {
    seal_into(frame, 2, TYPE_UPLOAD_CODED, |out| {
        put_upload_coded(
            out,
            round,
            participant,
            codec_tag,
            codec_param,
            orig_len,
            coded,
            delta_alpha,
            reward,
            loss,
        )
    });
}

/// Decodes one complete frame. The input must be exactly one frame —
/// trailing bytes are an error (stream transports split frames before
/// calling this).
pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
    let (version, msg_type, payload) = open_frame(frame)?;
    decode_payload(version, msg_type, payload)
}

/// A sub-model download read where it lies in its frame: the scalar
/// fields and the (small) mask and α are copied out, the two big `f32`
/// runs stay borrowed, so a worker fills its sub-model from the frame's
/// bytes without a `Vec<f32>` in between.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadRef<'a> {
    /// Round the sub-model belongs to.
    pub round: u64,
    /// Base seed; the worker derives its private RNG stream from this.
    pub seed_base: u64,
    /// Architecture the participant must instantiate.
    pub mask: ArchMask,
    /// Flat sub-model weights in structural visit order.
    pub weights: F32Run<'a>,
    /// Flat BatchNorm running statistics in structural visit order.
    pub buffers: F32Run<'a>,
    /// Current controller logits.
    pub alpha: Vec<f32>,
    /// `(tag, param)` of the codec the upload must use — `Some` exactly
    /// for a [`Message::DownloadSubmodelCoded`] frame.
    pub codec: Option<(u8, f32)>,
}

impl DownloadRef<'_> {
    fn into_message(self) -> Message {
        let (weights, buffers) = (self.weights.to_vec(), self.buffers.to_vec());
        match self.codec {
            None => Message::DownloadSubmodel {
                round: self.round,
                seed_base: self.seed_base,
                mask: self.mask,
                weights,
                buffers,
                alpha: self.alpha,
            },
            Some((codec_tag, codec_param)) => Message::DownloadSubmodelCoded {
                round: self.round,
                seed_base: self.seed_base,
                mask: self.mask,
                weights,
                buffers,
                alpha: self.alpha,
                codec_tag,
                codec_param,
            },
        }
    }
}

/// [`decode`] for the one message a worker receives a thousand times a
/// round: `Ok(Some(_))` exactly when [`decode`] yields a
/// [`Message::DownloadSubmodel`] or [`Message::DownloadSubmodelCoded`]
/// (same fields, same `f32` bits), the same [`WireError`] when a frame of
/// either download type is refused, and `Ok(None)` for a sound envelope of
/// any other type — the caller hands that to [`decode`]. Magic, version,
/// length, CRC and payload shape are checked by the code [`decode`] runs.
pub fn decode_download(frame: &[u8]) -> Result<Option<DownloadRef<'_>>, WireError> {
    let (version, msg_type, payload) = open_frame(frame)?;
    if !matches!(msg_type, TYPE_DOWNLOAD | TYPE_DOWNLOAD_CODED) {
        return Ok(None);
    }
    check_version(version, msg_type)?;
    let mut r = Reader::new(payload);
    let down = read_download(&mut r, msg_type == TYPE_DOWNLOAD_CODED)?;
    r.finish()?;
    Ok(Some(down))
}

/// Checks a frame's envelope — magic, version, declared against actual
/// length, payload CRC — and returns `(version, message type, payload)`.
fn open_frame(frame: &[u8]) -> Result<(u8, u8, &[u8]), WireError> {
    let mut r = Reader::new(frame);
    let magic: [u8; 4] = r.take(4)?.try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version));
    }
    let msg_type = r.u8()?;
    let payload_len = r.u32()? as usize;
    let total = FRAME_OVERHEAD
        .checked_add(payload_len)
        .ok_or(WireError::Malformed("payload length overflow"))?;
    if frame.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: frame.len(),
        });
    }
    if frame.len() > total {
        return Err(WireError::Malformed("trailing bytes after frame"));
    }
    let payload = r.take(payload_len)?;
    let expected = r.u32()?;
    let got = crc32(payload);
    if expected != got {
        return Err(WireError::ChecksumMismatch { expected, got });
    }
    Ok((version, msg_type, payload))
}

/// Frame length needed by the header to be complete, if the header itself
/// is complete. Stream transports use this to split a byte stream into
/// frames without copying.
pub fn frame_len(header: &[u8]) -> Option<usize> {
    if header.len() < HEADER_LEN {
        return None;
    }
    let payload_len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    FRAME_OVERHEAD.checked_add(payload_len)
}

/// Exact encoded frame size of a [`Message::DownloadSubmodel`] with the
/// given shape, without building it. The legacy size accounting
/// (`param_count × 4`) must match this within the fixed overhead — tested
/// in the rpc integration suite.
pub fn download_frame_len(edges: usize, weights: usize, buffers: usize, alpha: usize) -> usize {
    FRAME_OVERHEAD + 8 + 8 + 4 + 2 * edges + 3 * 4 + 4 * (weights + buffers + alpha)
}

/// Exact encoded frame size of a [`Message::UploadUpdate`] with the given
/// shape.
pub fn upload_frame_len(delta_w: usize, delta_alpha: usize) -> usize {
    FRAME_OVERHEAD + 8 + 4 + 2 * 4 + 4 * (delta_w + delta_alpha) + 4 + 4
}

/// Exact encoded frame size of a [`Message::DownloadSubmodelCoded`]: the
/// legacy download frame plus the codec tag and parameter.
pub fn coded_download_frame_len(
    edges: usize,
    weights: usize,
    buffers: usize,
    alpha: usize,
) -> usize {
    download_frame_len(edges, weights, buffers, alpha) + 1 + 4
}

/// Exact encoded frame size of a [`Message::UploadUpdateCoded`] whose
/// codec run is `coded_len` bytes.
pub fn coded_upload_frame_len(coded_len: usize, delta_alpha: usize) -> usize {
    FRAME_OVERHEAD + 8 + 4 + 1 + 4 + 4 + 4 + coded_len + 4 + 4 * delta_alpha + 4 + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::NUM_OPS;

    fn sample_download() -> Message {
        Message::DownloadSubmodel {
            round: 7,
            seed_base: 0xDEAD_BEEF,
            mask: ArchMask::new(vec![0, 3, 7, 1], vec![2, 2, 5, 6]),
            weights: vec![1.0, -2.5, 3.25],
            buffers: vec![0.5, 0.125],
            alpha: vec![0.0; 8],
        }
    }

    #[test]
    fn round_trips_every_type() {
        let msgs = [
            sample_download(),
            Message::UploadUpdate {
                round: 7,
                participant: 3,
                delta_w: vec![0.1, 0.2],
                delta_alpha: vec![-0.5],
                reward: 0.75,
                loss: 1.5,
            },
            Message::Ack { round: 42 },
            Message::Heartbeat { participant: 9 },
        ];
        for msg in msgs {
            let frame = encode(&msg);
            assert_eq!(decode(&frame).expect("round trip"), msg);
        }
    }

    #[test]
    fn predicted_lengths_match_encoded() {
        let frame = encode(&sample_download());
        assert_eq!(frame.len(), download_frame_len(4, 3, 2, 8));
        let up = encode(&Message::UploadUpdate {
            round: 1,
            participant: 0,
            delta_w: vec![0.0; 5],
            delta_alpha: vec![0.0; 3],
            reward: 0.0,
            loss: 0.0,
        });
        assert_eq!(up.len(), upload_frame_len(5, 3));
    }

    /// A download frame as the commit before the slicing-by-8 CRC wrote
    /// it: it must still decode, and the same message must still encode
    /// to the same bytes — the trailer is the same CRC-32, only computed
    /// faster.
    #[test]
    fn frame_written_before_the_fast_crc_is_unchanged() {
        let frozen: Vec<u8> = {
            let hex = concat!(
                "46524c4e0101480000000300000000000000edfe000000000000020000000107",
                "0003050000000000003f0000a0bf00004040000000006f12833a020000000000",
                "00000000803f020000000000003e000000bf20b2a480",
            );
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                .collect()
        };
        let msg = Message::DownloadSubmodel {
            round: 3,
            seed_base: 0xFEED,
            mask: ArchMask::new(vec![1, 7], vec![0, 3]),
            weights: vec![0.5, -1.25, 3.0, 0.0, 1e-3],
            buffers: vec![0.0, 1.0],
            alpha: vec![0.125, -0.5],
        };
        assert_eq!(decode(&frozen).expect("frozen frame decodes"), msg);
        assert_eq!(encode(&msg), frozen);
    }

    /// A download frame long enough for the carry-less-multiply CRC to fold
    /// (and to leave it a tail under 16 bytes) carries the trailer the
    /// table CRC wrote before that fold existed.
    #[test]
    fn long_frame_trailer_written_before_the_folded_crc_is_unchanged() {
        let msg = Message::DownloadSubmodel {
            round: 11,
            seed_base: 0x0123_4567_89AB_CDEF,
            mask: ArchMask::new(vec![1, 7, 3, 0], vec![2, 5, 6, 4]),
            weights: (0..301)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.0625)
                .collect(),
            buffers: (0..9).map(|i| i as f32 * 0.5).collect(),
            alpha: (0..14)
                .map(|i| ((i * 5 % 7) as f32 - 3.0) * 0.125)
                .collect(),
        };
        let frame = encode(&msg);
        let payload = frame.len() - HEADER_LEN - TRAILER_LEN;
        assert!(
            payload >= 1024 && !payload.is_multiple_of(16),
            "payload {payload} B"
        );
        let trailer = u32::from_le_bytes(frame[frame.len() - 4..].try_into().expect("4 B"));
        assert_eq!(trailer, 0x1922_8048, "payload {payload} B");
        assert_eq!(decode(&frame).expect("frame decodes"), msg);
    }

    #[test]
    fn crc_known_vector() {
        // IEEE CRC-32 of "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn rejects_out_of_range_op() {
        let mut frame = encode(&sample_download());
        // first op byte sits right after round + seed + edge count
        let op_at = HEADER_LEN + 8 + 8 + 4;
        frame[op_at] = NUM_OPS as u8;
        // fix the checksum so only the op index is wrong
        let len = frame.len();
        let crc = crc32(&frame[HEADER_LEN..len - TRAILER_LEN]);
        frame[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode(&frame),
            Err(WireError::Malformed("op index out of range"))
        );
    }

    #[test]
    fn frame_len_reads_header() {
        let frame = encode(&Message::Ack { round: 1 });
        assert_eq!(frame_len(&frame), Some(frame.len()));
        assert_eq!(frame_len(&frame[..HEADER_LEN - 1]), None);
    }

    fn sample_coded_upload() -> Message {
        Message::UploadUpdateCoded {
            round: 11,
            participant: 2,
            codec_tag: 3,
            codec_param: 0.1,
            orig_len: 6,
            coded: vec![4, 0, 0, 0, 0xAB, 0xCD],
            delta_alpha: vec![0.5, -0.5],
            reward: 0.25,
            loss: 2.0,
        }
    }

    #[test]
    fn coded_messages_round_trip_as_version_2() {
        let down = Message::DownloadSubmodelCoded {
            round: 7,
            seed_base: 1,
            mask: ArchMask::new(vec![0, 3, 7, 1], vec![2, 2, 5, 6]),
            weights: vec![1.0, -2.5],
            buffers: vec![0.5],
            alpha: vec![0.0; 4],
            codec_tag: 2,
            codec_param: 0.0,
        };
        for msg in [down, sample_coded_upload()] {
            let frame = encode(&msg);
            assert_eq!(frame[4], 2, "coded frames carry version 2");
            assert_eq!(decode(&frame).expect("round trip"), msg);
        }
    }

    #[test]
    fn legacy_messages_still_encode_as_version_1() {
        for msg in [
            sample_download(),
            Message::Ack { round: 9 },
            Message::Heartbeat { participant: 1 },
        ] {
            assert_eq!(encode(&msg)[4], 1, "legacy traffic must stay v1");
        }
    }

    #[test]
    fn coded_predicted_lengths_match_encoded() {
        let down = Message::DownloadSubmodelCoded {
            round: 0,
            seed_base: 0,
            mask: ArchMask::new(vec![0, 1, 2, 3], vec![4, 5, 6, 7]),
            weights: vec![0.0; 3],
            buffers: vec![0.0; 2],
            alpha: vec![0.0; 8],
            codec_tag: 0,
            codec_param: 0.0,
        };
        assert_eq!(encode(&down).len(), coded_download_frame_len(4, 3, 2, 8));
        let up = sample_coded_upload();
        let coded_len = match &up {
            Message::UploadUpdateCoded { coded, .. } => coded.len(),
            _ => unreachable!(),
        };
        assert_eq!(encode(&up).len(), coded_upload_frame_len(coded_len, 2));
    }

    #[test]
    fn borrowed_slice_encoders_match_message_encoders_byte_for_byte() {
        let mask = ArchMask::new(vec![0, 3, 7, 1], vec![2, 2, 5, 6]);
        let (weights, buffers, alpha) = (vec![1.0, -2.5, 3.25], vec![0.5, 0.125], vec![0.0f32; 8]);
        let mut frame = vec![0xFFu8; 3]; // stale content must be cleared
        encode_download_into(
            &mut frame,
            7,
            0xDEAD_BEEF,
            &mask,
            &weights,
            &buffers,
            &alpha,
            None,
        );
        assert_eq!(frame, encode(&sample_download()));
        encode_download_into(
            &mut frame,
            7,
            0xDEAD_BEEF,
            &mask,
            &weights,
            &buffers,
            &alpha,
            Some((2, 0.25)),
        );
        let coded_msg = Message::DownloadSubmodelCoded {
            round: 7,
            seed_base: 0xDEAD_BEEF,
            mask: mask.clone(),
            weights,
            buffers,
            alpha,
            codec_tag: 2,
            codec_param: 0.25,
        };
        assert_eq!(frame, encode(&coded_msg));
        encode_upload_coded_into(
            &mut frame,
            11,
            2,
            3,
            0.1,
            6,
            &[4, 0, 0, 0, 0xAB, 0xCD],
            &[0.5, -0.5],
            0.25,
            2.0,
        );
        assert_eq!(frame, encode(&sample_coded_upload()));
    }

    #[test]
    fn control_messages_round_trip_as_version_2() {
        let msgs = [
            Message::SubmitJob {
                spec: vec![1, 2, 3, 4, 5],
            },
            Message::JobStatus { job_id: 7 },
            Message::PauseJob { job_id: u64::MAX },
            Message::ResumeJob { job_id: 0 },
            Message::CancelJob { job_id: 9 },
            Message::ListJobs,
            Message::StatsDump { job_id: 3 },
            Message::JobReply {
                job_id: 7,
                state: 2,
                detail: b"{\"rounds\":4}".to_vec(),
            },
            Message::JobList {
                jobs: vec![(1, 0), (2, 3), (u64::MAX, 0xFF)],
            },
        ];
        for msg in msgs {
            let frame = encode(&msg);
            assert_eq!(frame[4], 2, "control frames carry version 2");
            assert_eq!(decode(&frame).expect("round trip"), msg);
        }
    }

    #[test]
    fn control_frame_downgraded_to_v1_is_rejected() {
        let mut frame = encode(&Message::ListJobs);
        frame[4] = 1;
        assert_eq!(
            decode(&frame),
            Err(WireError::Malformed("control message needs protocol v2"))
        );
    }

    #[test]
    fn hostile_job_list_length_fails_before_allocation() {
        let mut frame = encode(&Message::JobList {
            jobs: vec![(1, 0), (2, 1)],
        });
        frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = frame.len();
        let crc = crc32(&frame[HEADER_LEN..len - TRAILER_LEN]);
        frame[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn coded_frame_downgraded_to_v1_is_rejected() {
        let mut frame = encode(&sample_coded_upload());
        frame[4] = 1;
        assert_eq!(
            decode(&frame),
            Err(WireError::Malformed("coded message needs protocol v2"))
        );
    }

    #[test]
    fn future_version_is_unsupported() {
        let mut frame = encode(&Message::Ack { round: 1 });
        frame[4] = 3;
        assert_eq!(decode(&frame), Err(WireError::UnsupportedVersion(3)));
        frame[4] = 0;
        assert_eq!(decode(&frame), Err(WireError::UnsupportedVersion(0)));
    }

    #[test]
    fn hostile_codec_fields_are_typed_errors() {
        // out-of-range codec tag
        let mut msg = sample_coded_upload();
        if let Message::UploadUpdateCoded { codec_tag, .. } = &mut msg {
            *codec_tag = 3;
        }
        let mut frame = encode(&msg);
        let tag_at = HEADER_LEN + 8 + 4;
        frame[tag_at] = 200;
        let len = frame.len();
        let crc = crc32(&frame[HEADER_LEN..len - TRAILER_LEN]);
        frame[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode(&frame),
            Err(WireError::Malformed("unknown codec tag"))
        );

        // a huge coded-run length must fail before any allocation
        let mut frame = encode(&sample_coded_upload());
        let run_len_at = HEADER_LEN + 8 + 4 + 1 + 4 + 4;
        frame[run_len_at..run_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = frame.len();
        let crc = crc32(&frame[HEADER_LEN..len - TRAILER_LEN]);
        frame[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::Truncated { .. })));
    }
}
