//! Tensor-update compression codecs for the federated wire.
//!
//! Every round each participant uploads a weight-gradient vector sized to
//! its sub-model. On slow 4G links that upload dominates round latency, so
//! this crate provides lossy-but-error-compensated encodings of f32 runs:
//!
//! | codec | encoded size (n floats) | error bound |
//! |---|---|---|
//! | [`CodecSpec::Fp32`] | `4·n` | exact (bit-identical) |
//! | [`CodecSpec::Fp16`] | `2·n` | relative ~2⁻¹¹, saturates at ±65504 |
//! | [`CodecSpec::Int8`] | `n + 4·⌈n/256⌉` | ≤ `max|chunk| / 254` per value |
//! | [`CodecSpec::TopK`]  | `4 + 8·k`, `k = ⌈f·n⌉` | zeros all but the k largest magnitudes |
//!
//! Lossy codecs are paired with **error feedback**: the encoding error of
//! round `t` is stored in a per-participant residual vector (in supernet-flat
//! coordinates) and added onto the raw update of round `t+1` *before* it is
//! encoded, so quantization/sparsification error accumulates into later
//! uploads instead of being lost ([`CodecSpec::encode_with_feedback`]).
//!
//! Decoding is **total**: truncation, hostile length fields and malformed
//! chunk scales map to typed [`CodecError`]s, and no allocation is ever
//! sized from an untrusted length — the caller passes the expected element
//! count (known from the sub-model it shipped) and everything else is
//! validated against the actual byte run.

#![warn(missing_docs)]

use std::fmt;

/// Number of values sharing one quantization scale in the [`CodecSpec::Int8`]
/// encoding. Small enough that one outlier only coarsens its own chunk.
pub const INT8_CHUNK: usize = 256;

/// Default sparsity fraction used when `topk` is selected without an
/// explicit `k_frac` (and by the bandwidth-aware `auto` policy).
pub const DEFAULT_TOPK_FRAC: f32 = 0.1;

/// Typed decoding failures. Encoding is infallible; decoding never panics
/// and never allocates from a length the byte run does not back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The byte run ended before the declared content.
    Truncated {
        /// Bytes required to honour the declared lengths.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The byte run is internally inconsistent (bad index order, hostile
    /// counts, non-finite chunk scale, trailing bytes, ...).
    Malformed(&'static str),
    /// The decoded element count cannot match what the caller expects.
    LengthMismatch {
        /// Element count the caller shipped and expects back.
        expected: usize,
        /// Element count the byte run actually encodes.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "codec payload truncated: need {needed} bytes, got {got}")
            }
            CodecError::Malformed(what) => write!(f, "malformed codec payload: {what}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "codec length mismatch: expected {expected} values, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Grow-only scratch state reused across encodes so the steady-state hot
/// path performs no allocations. The top-k selector keeps its index
/// permutation here; the other codecs need no scratch. A fresh default
/// scratch is always valid — reuse is purely a performance concern and
/// never changes encoder output.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Packed `(magnitude, index)` keys for the top-k partial selection.
    keys: Vec<u64>,
}

impl EncodeScratch {
    /// Current key-buffer capacity, in elements. Lets callers that track
    /// grow-only buffer reuse observe whether an encode grew the scratch.
    pub fn capacity(&self) -> usize {
        self.keys.capacity()
    }
}

/// Stable codec identities, used as wire tags and as indices into the
/// per-codec frame counters of the communication stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Identity encoding, raw little-endian f32 runs.
    Fp32 = 0,
    /// IEEE 754 binary16 with round-to-nearest-even and saturation.
    Fp16 = 1,
    /// Per-chunk absmax int8 quantization.
    Int8 = 2,
    /// Top-k magnitude sparsification.
    TopK = 3,
}

impl CodecId {
    /// All codec identities, in tag order.
    pub const ALL: [CodecId; 4] = [CodecId::Fp32, CodecId::Fp16, CodecId::Int8, CodecId::TopK];

    /// Index into per-codec counter arrays (same as the wire tag).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lower-case name (`fp32`, `fp16`, `int8`, `topk`).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Fp32 => "fp32",
            CodecId::Fp16 => "fp16",
            CodecId::Int8 => "int8",
            CodecId::TopK => "topk",
        }
    }
}

/// A fully-specified encoding choice — what actually gets applied to one
/// upload. [`CodecConfig`] decides *which* spec a participant uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecSpec {
    /// Identity: raw little-endian f32, byte-identical to the legacy wire.
    Fp32,
    /// Half precision: 2 bytes per value, round-to-nearest-even,
    /// saturating at ±65504 (never produces Inf from finite input).
    Fp16,
    /// Int8 with one f32 absmax scale per [`INT8_CHUNK`]-value chunk.
    Int8,
    /// Keep only the `⌈k_frac·n⌉` largest-magnitude values (index/value
    /// pairs); everything else decodes to zero.
    TopK {
        /// Fraction of coordinates kept, in `(0, 1]`.
        k_frac: f32,
    },
}

impl CodecSpec {
    /// Wire tag of this spec (equals [`CodecId::index`]).
    pub fn tag(&self) -> u8 {
        self.id() as u8
    }

    /// The scalar parameter carried next to the tag on the wire
    /// (`k_frac` for top-k, `0.0` otherwise).
    pub fn param(&self) -> f32 {
        match self {
            CodecSpec::TopK { k_frac } => *k_frac,
            _ => 0.0,
        }
    }

    /// Rebuilds a spec from its wire `(tag, param)` pair, validating both.
    pub fn from_tag_param(tag: u8, param: f32) -> Option<CodecSpec> {
        let spec = match tag {
            0 => CodecSpec::Fp32,
            1 => CodecSpec::Fp16,
            2 => CodecSpec::Int8,
            3 => CodecSpec::TopK { k_frac: param },
            _ => return None,
        };
        if tag != 3 && param != 0.0 {
            return None;
        }
        spec.validate().ok()?;
        Some(spec)
    }

    /// Checks parameter ranges (`k_frac ∈ (0, 1]` and finite).
    pub fn validate(&self) -> Result<(), String> {
        if let CodecSpec::TopK { k_frac } = self {
            if !k_frac.is_finite() || *k_frac <= 0.0 || *k_frac > 1.0 {
                return Err(format!("topk fraction must be in (0, 1], got {k_frac}"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecSpec::TopK { k_frac } => write!(f, "topk:{k_frac}"),
            other => f.write_str(other.id().name()),
        }
    }
}

impl CodecSpec {
    /// Stable numeric identity of this spec's codec (wire tag / stats
    /// index).
    pub fn id(&self) -> CodecId {
        match self {
            CodecSpec::Fp32 => CodecId::Fp32,
            CodecSpec::Fp16 => CodecId::Fp16,
            CodecSpec::Int8 => CodecId::Int8,
            CodecSpec::TopK { .. } => CodecId::TopK,
        }
    }

    /// Encodes `values` into a self-contained byte run.
    pub fn encode(&self, values: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(values, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Decodes a byte run produced by [`CodecSpec::encode`] back into
    /// exactly `expected_len` values. `expected_len` must come from a
    /// trusted source (the sub-model the caller shipped), never from the
    /// wire.
    pub fn decode(&self, bytes: &[u8], expected_len: usize) -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(bytes, expected_len, &mut out)?;
        Ok(out)
    }

    /// [`CodecSpec::encode`] into a caller-owned output buffer, reusing
    /// `scratch` across calls. The buffer is cleared first; its capacity
    /// is grow-only, so a steady-state round loop encodes with zero
    /// allocations. Output bytes are identical to [`CodecSpec::encode`].
    pub fn encode_into(&self, values: &[f32], scratch: &mut EncodeScratch, out: &mut Vec<u8>) {
        out.clear();
        match self {
            CodecSpec::Fp32 => encode_fp32_into(values, out),
            CodecSpec::Fp16 => encode_fp16_into(values, out),
            CodecSpec::Int8 => encode_int8_into(values, out),
            CodecSpec::TopK { k_frac } => encode_topk_into(values, *k_frac, scratch, out),
        }
    }

    /// [`CodecSpec::decode`] into a caller-owned output buffer (cleared first,
    /// grow-only capacity). Unlike handing out a fresh `Vec`, this prices
    /// in the dense re-materialization — the whole buffer is rewritten,
    /// including the zeros a sparse codec implies.
    pub fn decode_into(
        &self,
        bytes: &[u8],
        expected_len: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), CodecError> {
        out.clear();
        match self {
            CodecSpec::Fp32 => decode_fp32_into(bytes, expected_len, out),
            CodecSpec::Fp16 => decode_fp16_into(bytes, expected_len, out),
            CodecSpec::Int8 => decode_int8_into(bytes, expected_len, out),
            CodecSpec::TopK { .. } => decode_topk_into(bytes, expected_len, out),
        }
    }
}

/// How the runtime chooses a codec for each participant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecConfig {
    /// Every participant uses the same spec every round.
    Fixed(CodecSpec),
    /// The codec is selected per participant per round from that round's
    /// sampled bandwidth (`fedrlnas_netsim::select_codec`) — a pure
    /// function of the seeded traces, so runs stay deterministic.
    Auto,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig::Fixed(CodecSpec::Fp32)
    }
}

impl CodecConfig {
    /// Parses `fp32 | fp16 | int8 | topk[:<frac>] | auto` (the CLI syntax).
    pub fn parse(text: &str) -> Result<CodecConfig, String> {
        let text = text.trim();
        let config = match text {
            "fp32" => CodecConfig::Fixed(CodecSpec::Fp32),
            "fp16" => CodecConfig::Fixed(CodecSpec::Fp16),
            "int8" => CodecConfig::Fixed(CodecSpec::Int8),
            "topk" => CodecConfig::Fixed(CodecSpec::TopK {
                k_frac: DEFAULT_TOPK_FRAC,
            }),
            "auto" => CodecConfig::Auto,
            other => {
                if let Some(frac) = other.strip_prefix("topk:") {
                    let k_frac: f32 = frac
                        .parse()
                        .map_err(|_| format!("bad topk fraction {frac:?}"))?;
                    CodecConfig::Fixed(CodecSpec::TopK { k_frac })
                } else {
                    return Err(format!(
                        "unknown codec {other:?} (expected fp32|fp16|int8|topk:<f>|auto)"
                    ));
                }
            }
        };
        config.validate()?;
        Ok(config)
    }

    /// True only for the default identity configuration, which keeps the
    /// wire traffic byte-identical to the legacy (pre-codec) protocol.
    pub fn is_fp32(&self) -> bool {
        matches!(self, CodecConfig::Fixed(CodecSpec::Fp32))
    }

    /// Checks parameter ranges of the fixed spec, if any.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            CodecConfig::Fixed(spec) => spec.validate(),
            CodecConfig::Auto => Ok(()),
        }
    }
}

impl fmt::Display for CodecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecConfig::Fixed(spec) => spec.fmt(f),
            CodecConfig::Auto => f.write_str("auto"),
        }
    }
}

// ---------------------------------------------------------------------------
// fp32 (identity)
// ---------------------------------------------------------------------------

fn encode_fp32_into(values: &[f32], out: &mut Vec<u8>) {
    out.resize(values.len() * 4, 0);
    // byte-for-byte the little-endian run; the chunked copy lowers to a
    // straight memcpy on little-endian targets
    for (v, o) in values.iter().zip(out.chunks_exact_mut(4)) {
        o.copy_from_slice(&v.to_le_bytes());
    }
}

fn decode_fp32_into(
    bytes: &[u8],
    expected_len: usize,
    out: &mut Vec<f32>,
) -> Result<(), CodecError> {
    let needed = expected_len * 4;
    if bytes.len() != needed {
        if bytes.len() < needed {
            return Err(CodecError::Truncated {
                needed,
                got: bytes.len(),
            });
        }
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            got: bytes.len() / 4,
        });
    }
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fp16 — hand-rolled IEEE binary16 conversion (no `half` crate available)
// ---------------------------------------------------------------------------

/// Converts an f32 to IEEE binary16 bits with round-to-nearest-even.
/// Finite values beyond the f16 range saturate to ±65504 instead of
/// overflowing to infinity; NaN maps to a quiet NaN.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf stays Inf, NaN becomes a quiet NaN
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00
        };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7BFF; // saturate to max finite f16
    }
    if unbiased >= -14 {
        // normal half
        let mut e = (unbiased + 15) as u32;
        let mut m = mant >> 13;
        let rest = mant & 0x1FFF;
        if rest > 0x1000 || (rest == 0x1000 && (m & 1) == 1) {
            m += 1;
            if m == 0x400 {
                m = 0;
                e += 1;
                if e >= 31 {
                    return sign | 0x7BFF; // rounding crossed into overflow
                }
            }
        }
        return sign | ((e as u16) << 10) | (m as u16);
    }
    if unbiased >= -25 {
        // subnormal half: value = m_full · 2^(unbiased-23), target unit 2^-24
        let m_full = 0x0080_0000u32 | mant;
        let shift = (-unbiased - 1) as u32; // 15..=24 drop bits
        let m = m_full >> shift;
        let rest = m_full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let m = if rest > half || (rest == half && (m & 1) == 1) {
            m + 1
        } else {
            m
        };
        // m may round up to 0x400 == the smallest normal; the bit pattern
        // composes correctly either way
        return sign | (m as u16);
    }
    sign // underflows to signed zero
}

/// Converts IEEE binary16 bits back to f32 (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1F;
    let mant = (h & 0x3FF) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // subnormal: normalize into an f32 exponent
            let mut e: i32 = 127 - 14;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((m & 0x3FF) << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else {
        sign | ((exp as u32 + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

#[inline(always)]
fn encode_fp16_scalar(values: &[f32], out: &mut [u8]) {
    for (v, o) in values.iter().zip(out.chunks_exact_mut(2)) {
        o.copy_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
    }
}

/// F16C-accelerated convert. `VCVTPS2PH` performs round-to-nearest-even
/// exactly like [`f32_to_f16_bits`] on every lane whose result is finite
/// (including output subnormals), but it overflows to infinity and keeps
/// NaN payloads, where this crate saturates to ±65504 and canonicalises
/// NaN. Both divergent cases — and only those — produce an all-ones f16
/// exponent, so the wrapper detects such lanes with one compare and redoes
/// just them through the scalar reference, keeping output byte-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c,avx")]
unsafe fn encode_fp16_f16c(values: &[f32], out: &mut [u8]) {
    use std::arch::x86_64::*;
    let chunks = values.len() / 8;
    let exp_mask = _mm_set1_epi16(0x7C00);
    for c in 0..chunks {
        let src = values.as_ptr().add(c * 8);
        let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(src));
        _mm_storeu_si128(out.as_mut_ptr().add(c * 16) as *mut __m128i, h);
        let special = _mm_cmpeq_epi16(_mm_and_si128(h, exp_mask), exp_mask);
        let mask = _mm_movemask_epi8(special);
        if mask != 0 {
            for lane in 0..8 {
                if mask & (0b11 << (lane * 2)) != 0 {
                    let bits = f32_to_f16_bits(*src.add(lane)).to_le_bytes();
                    out[c * 16 + lane * 2] = bits[0];
                    out[c * 16 + lane * 2 + 1] = bits[1];
                }
            }
        }
    }
    let done = chunks * 8;
    encode_fp16_scalar(&values[done..], &mut out[done * 2..]);
}

fn encode_fp16_into(values: &[f32], out: &mut Vec<u8>) {
    out.resize(values.len() * 2, 0);
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("f16c") && is_x86_feature_detected!("avx") {
            // SAFETY: both features were just detected at runtime
            unsafe { encode_fp16_f16c(values, out) };
            return;
        }
    }
    encode_fp16_scalar(values, out);
}

// decode stays scalar: f16→f32 widening is exact and already runs at
// memory speed, and `VCVTPH2PS` would quiet signalling-NaN payloads where
// [`f16_bits_to_f32`] preserves them bit-for-bit
fn decode_fp16_into(
    bytes: &[u8],
    expected_len: usize,
    out: &mut Vec<f32>,
) -> Result<(), CodecError> {
    let needed = expected_len * 2;
    if bytes.len() != needed {
        if bytes.len() < needed {
            return Err(CodecError::Truncated {
                needed,
                got: bytes.len(),
            });
        }
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            got: bytes.len() / 2,
        });
    }
    out.extend(
        bytes
            .chunks_exact(2)
            .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]))),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// int8 — per-chunk absmax quantization
// ---------------------------------------------------------------------------

fn int8_encoded_len(n: usize) -> usize {
    n + n.div_ceil(INT8_CHUNK) * 4
}

/// Chunk absmax with eight independent accumulators so the reduction has
/// instruction-level parallelism (and vectorizes). Bit-identical to the
/// sequential fold: all inputs are `abs()` (non-negative or NaN), `max`
/// over non-negatives is associative and commutative, and `f32::max`
/// treats NaN as the identity in either argument order.
#[inline(always)]
fn chunk_absmax(chunk: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut lanes = chunk.chunks_exact(8);
    for block in lanes.by_ref() {
        for (a, v) in acc.iter_mut().zip(block) {
            *a = a.max(v.abs());
        }
    }
    let mut m = acc.iter().fold(0.0f32, |m, a| m.max(*a));
    for v in lanes.remainder() {
        m = m.max(v.abs());
    }
    m
}

// the scalar quantizer IS the format definition — the SIMD path below is
// proven byte-identical to this expression by the proptests
#[inline(always)]
fn quantize_chunk_scalar(chunk: &[f32], scale: f32, dst: &mut [u8]) {
    for (v, d) in chunk.iter().zip(dst.iter_mut()) {
        *d = (v / scale).round().clamp(-127.0, 127.0) as i8 as u8;
    }
}

/// AVX2 quantize pass. `f32::round` is half-away-from-zero, which has no
/// single-instruction x86 form, so each lane is rounded to-nearest-even
/// (`vroundps`) and ties where that went *toward* zero — exactly the lanes
/// with `t - r == ±0.5` of the same sign as `t` — are pushed one further
/// out. `t - r` is exact (Sterbenz: ties only exist below 2²³ and `r` is
/// within a factor of two of `t`), so the fixup is exact too. NaN lanes
/// are zeroed before the clamp to match the scalar `NaN as i8 == 0` path;
/// ±Inf survives the subtraction as ±Inf and clamps to ±127 like scalar.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_chunk_avx2(chunk: &[f32], scale: f32, dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let vscale = _mm256_set1_ps(scale);
    let half = _mm256_set1_ps(0.5);
    let neg_half = _mm256_set1_ps(-0.5);
    let one = _mm256_set1_ps(1.0);
    let zero = _mm256_setzero_ps();
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    let n = chunk.len() / 8 * 8;
    let mut i = 0;
    while i < n {
        let t = _mm256_div_ps(_mm256_loadu_ps(chunk.as_ptr().add(i)), vscale);
        let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(t);
        let diff = _mm256_sub_ps(t, r);
        let up = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_EQ_OQ>(diff, half),
            _mm256_cmp_ps::<_CMP_GT_OQ>(t, zero),
        );
        let down = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_EQ_OQ>(diff, neg_half),
            _mm256_cmp_ps::<_CMP_LT_OQ>(t, zero),
        );
        let r = _mm256_add_ps(r, _mm256_and_ps(up, one));
        let r = _mm256_sub_ps(r, _mm256_and_ps(down, one));
        // zero NaN lanes (unordered self-compare), clamp the rest
        let r = _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(r, r));
        let r = _mm256_max_ps(lo, _mm256_min_ps(r, hi));
        // integral and in [-127, 127]: the i32 convert is exact, and the
        // two saturating packs narrow 8×i32 → 8×i8 without changing values
        let q = _mm256_cvtps_epi32(r);
        let p16 = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        let p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(dst.as_mut_ptr().add(i) as *mut __m128i, p8);
        i += 8;
    }
    quantize_chunk_scalar(&chunk[n..], scale, &mut dst[n..]);
}

fn quantize_chunk(chunk: &[f32], scale: f32, dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 was just detected at runtime
            unsafe { quantize_chunk_avx2(chunk, scale, dst) };
            return;
        }
    }
    quantize_chunk_scalar(chunk, scale, dst);
}

fn encode_int8_into(values: &[f32], out: &mut Vec<u8>) {
    out.resize(int8_encoded_len(values.len()), 0);
    let mut at = 0;
    for chunk in values.chunks(INT8_CHUNK) {
        let absmax = chunk_absmax(chunk);
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 0.0 };
        out[at..at + 4].copy_from_slice(&scale.to_le_bytes());
        at += 4;
        let dst = &mut out[at..at + chunk.len()];
        if scale > 0.0 {
            quantize_chunk(chunk, scale, dst);
        } else {
            dst.fill(0);
        }
        at += chunk.len();
    }
}

fn decode_int8_into(
    bytes: &[u8],
    expected_len: usize,
    out: &mut Vec<f32>,
) -> Result<(), CodecError> {
    let needed = int8_encoded_len(expected_len);
    if bytes.len() != needed {
        if bytes.len() < needed {
            return Err(CodecError::Truncated {
                needed,
                got: bytes.len(),
            });
        }
        return Err(CodecError::Malformed("int8 run longer than declared"));
    }
    out.reserve(expected_len);
    let mut at = 0;
    while out.len() < expected_len {
        let scale = f32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        at += 4;
        if !scale.is_finite() || scale < 0.0 {
            return Err(CodecError::Malformed("non-finite or negative int8 scale"));
        }
        let take = (expected_len - out.len()).min(INT8_CHUNK);
        out.extend(bytes[at..at + take].iter().map(|&b| b as i8 as f32 * scale));
        at += take;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// top-k — magnitude sparsification
// ---------------------------------------------------------------------------

/// Number of coordinates a top-k encoding of `n` values keeps for the
/// given fraction: `⌈k_frac·n⌉`, clamped to `[1, n]` (0 for empty input).
pub fn topk_count(n: usize, k_frac: f32) -> usize {
    if n == 0 {
        return 0;
    }
    let k = (k_frac as f64 * n as f64).ceil() as usize;
    k.clamp(1, n)
}

// The legacy selection order is magnitude descending, index ascending on
// ties (`|v[b]|.total_cmp(|v[a]|).then(a.cmp(&b))`) — a *strict* total
// order. Pack each candidate into one u64 key, `abs_bits << 32 | !index`:
// `total_cmp` on non-negative floats (abs clears the sign bit) is exactly
// unsigned integer order of their bit patterns — NaN magnitudes included —
// and the complemented index breaks magnitude ties toward smaller indices.
// Key order is therefore strictly monotone in the legacy comparator order,
// so partial-selecting the k largest keys keeps exactly the set a full
// sort would keep, the native u64 compares run branch-predictably with no
// gather, and after re-sorting the kept indices ascending the wire bytes
// are byte-identical to the legacy sort-based encoder.
fn encode_topk_into(values: &[f32], k_frac: f32, scratch: &mut EncodeScratch, out: &mut Vec<u8>) {
    let n = values.len();
    let k = topk_count(n, k_frac);
    out.resize(4 + k * 8, 0);
    out[..4].copy_from_slice(&(k as u32).to_le_bytes());
    if k == 0 {
        return;
    }
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (((v.to_bits() & 0x7FFF_FFFF) as u64) << 32) | (!(i as u32)) as u64),
    );
    if k < n {
        // O(n) partial selection instead of the legacy O(n log n) full
        // sort: everything from position n-k up is a top-k key
        keys.select_nth_unstable(n - k);
    }
    let kept = &mut keys[n - k..];
    // unpack to plain indices and sort: strictly increasing on the wire
    for key in kept.iter_mut() {
        *key = !(*key as u32) as u64;
    }
    kept.sort_unstable();
    for (&idx, o) in kept.iter().zip(out[4..].chunks_exact_mut(8)) {
        o[..4].copy_from_slice(&(idx as u32).to_le_bytes());
        o[4..].copy_from_slice(&values[idx as usize].to_le_bytes());
    }
}

fn decode_topk_into(
    bytes: &[u8],
    expected_len: usize,
    out: &mut Vec<f32>,
) -> Result<(), CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated {
            needed: 4,
            got: bytes.len(),
        });
    }
    let k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if k > expected_len {
        return Err(CodecError::Malformed("topk count exceeds tensor length"));
    }
    let needed = 4 + k * 8;
    if bytes.len() != needed {
        if bytes.len() < needed {
            return Err(CodecError::Truncated {
                needed,
                got: bytes.len(),
            });
        }
        return Err(CodecError::Malformed("topk run longer than declared"));
    }
    // dense output sized from the *trusted* expected_len, never from k
    out.resize(expected_len, 0.0);
    let mut prev: Option<u32> = None;
    for pair in bytes[4..].chunks_exact(8) {
        let idx = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
        if (idx as usize) >= expected_len {
            return Err(CodecError::Malformed("topk index out of range"));
        }
        if let Some(p) = prev {
            if idx <= p {
                return Err(CodecError::Malformed(
                    "topk indices not strictly increasing",
                ));
            }
        }
        prev = Some(idx);
        out[idx as usize] = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// error feedback
// ---------------------------------------------------------------------------

impl CodecSpec {
    /// One error-compensated upload, participant side: folds `residual`
    /// (supernet-flat) into `update` (the concatenation of the `(offset,
    /// len)` `ranges`, in order), encodes the compensated update into
    /// `coded`, decodes that into `decoded` — exactly what the receiver
    /// will reconstruct — and stores what the encoding lost back into the
    /// covered `residual` slots (the others keep their accumulated error).
    /// The worker ships `coded`; the in-process server hands `decoded`
    /// downstream; both run this one function, which is why they agree bit
    /// for bit. `scratch`, `coded` and `decoded` are caller-owned and
    /// grow-only.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` do not tile `update` or reach past `residual`.
    pub fn encode_with_feedback(
        &self,
        update: &mut [f32],
        residual: &mut [f32],
        ranges: &[(usize, usize)],
        scratch: &mut EncodeScratch,
        coded: &mut Vec<u8>,
        decoded: &mut Vec<f32>,
    ) {
        let covered: usize = ranges.iter().map(|&(_, len)| len).sum();
        assert_eq!(covered, update.len(), "ranges must tile the update");
        let mut cursor = 0;
        for &(offset, len) in ranges {
            let slots = &residual[offset..offset + len];
            for (u, r) in update[cursor..cursor + len].iter_mut().zip(slots) {
                *u += r;
            }
            cursor += len;
        }
        self.encode_into(update, scratch, coded);
        self.decode_into(coded, update.len(), decoded)
            .expect("a codec must decode its own encoding");
        let mut cursor = 0;
        for &(offset, len) in ranges {
            let sent = update[cursor..cursor + len].iter().zip(&decoded[cursor..]);
            for (r, (u, d)) in residual[offset..offset + len].iter_mut().zip(sent) {
                *r = u - d;
            }
            cursor += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    #[test]
    fn fp32_round_trip_is_identity() {
        let values = vec![0.0, -1.5, f32::MIN_POSITIVE, 3.25e7, -0.0];
        let spec = CodecSpec::Fp32;
        let bytes = spec.encode(&values);
        assert_eq!(bytes.len(), values.len() * 4);
        let back = spec.decode(&bytes, values.len()).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f16_known_values_round_trip() {
        for &(x, bits) in &[
            (0.0f32, 0x0000u16),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (0.5, 0x3800),
            (65504.0, 0x7BFF),
            (6.103_515_6e-5, 0x0400), // smallest normal
            (5.960_464_5e-8, 0x0001), // smallest subnormal
        ] {
            assert_eq!(f32_to_f16_bits(x), bits, "encoding {x}");
            assert_eq!(f16_bits_to_f32(bits), x, "decoding {bits:#06x}");
        }
        // saturation instead of overflow
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0e9)), 65504.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1.0e9)), -65504.0);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn int8_zero_chunk_is_exact() {
        let spec = CodecSpec::Int8;
        let zeros = vec![0.0f32; 300];
        let back = spec.decode(&spec.encode(&zeros), 300).unwrap();
        assert_eq!(back, zeros);
    }

    #[test]
    fn topk_keeps_exactly_the_largest_magnitudes() {
        let values = vec![0.1, -5.0, 0.0, 2.0, -0.3, 4.0, 0.2, -1.0, 0.05, 0.6];
        let spec = CodecSpec::TopK { k_frac: 0.25 };
        let back = spec.decode(&spec.encode(&values), values.len()).unwrap();
        // k = ceil(0.25 * 10) = 3 → keeps -5.0, 4.0, 2.0 at their positions
        let expected = vec![0.0, -5.0, 0.0, 2.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(back, expected);
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let values = vec![1.0f32; 8];
        let spec = CodecSpec::TopK { k_frac: 0.25 };
        let back = spec.decode(&spec.encode(&values), 8).unwrap();
        assert_eq!(back, vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn decode_rejects_hostile_lengths_without_allocating() {
        let topk = CodecSpec::TopK { k_frac: 0.5 };
        // a topk run declaring u32::MAX entries on 12 bytes must fail fast
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            topk.decode(&bytes, 16),
            Err(CodecError::Malformed(_))
        ));
        // k within range but bytes missing → truncated
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            topk.decode(&bytes, 16),
            Err(CodecError::Truncated { .. })
        ));
        // out-of-range index and non-increasing order are malformed
        let good = topk.encode(&[1.0, 2.0, 3.0, 4.0]);
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            topk.decode(&bad, 4),
            Err(CodecError::Malformed(_))
        ));
        let mut bad = good;
        bad[12..16].copy_from_slice(&0u32.to_le_bytes()); // duplicate index 0
        assert!(matches!(
            topk.decode(&bad, 4),
            Err(CodecError::Malformed(_))
        ));
        // int8: non-finite scale
        let mut bytes = f32::NAN.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1u8; 3]);
        assert!(matches!(
            CodecSpec::Int8.decode(&bytes, 3),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn parse_display_round_trips() {
        for text in ["fp32", "fp16", "int8", "topk:0.1", "topk:0.25", "auto"] {
            let config = CodecConfig::parse(text).unwrap();
            assert_eq!(config.to_string(), text);
            assert_eq!(CodecConfig::parse(&config.to_string()).unwrap(), config);
        }
        assert_eq!(
            CodecConfig::parse("topk").unwrap(),
            CodecConfig::Fixed(CodecSpec::TopK {
                k_frac: DEFAULT_TOPK_FRAC
            })
        );
        assert!(CodecConfig::parse("topk:0").is_err());
        assert!(CodecConfig::parse("topk:1.5").is_err());
        assert!(CodecConfig::parse("gzip").is_err());
        assert!(CodecConfig::default().is_fp32());
    }

    #[test]
    fn tag_param_round_trips_and_rejects_bad_pairs() {
        for spec in [
            CodecSpec::Fp32,
            CodecSpec::Fp16,
            CodecSpec::Int8,
            CodecSpec::TopK { k_frac: 0.05 },
        ] {
            assert_eq!(
                CodecSpec::from_tag_param(spec.tag(), spec.param()),
                Some(spec)
            );
        }
        assert_eq!(CodecSpec::from_tag_param(7, 0.0), None);
        assert_eq!(CodecSpec::from_tag_param(0, 0.5), None); // param on fp32
        assert_eq!(CodecSpec::from_tag_param(3, 0.0), None); // zero k_frac
        assert_eq!(CodecSpec::from_tag_param(3, f32::NAN), None);
    }

    #[test]
    fn error_feedback_recovers_the_dropped_mass() {
        // uploading the same raw update twice under top-k with error
        // feedback must deliver (in total) more mass than without it
        let raw = vec![1.0f32, -0.5, 0.25, -0.125, 0.0625, 0.03125, 0.2, -0.9];
        let ranges = vec![(0usize, raw.len())];
        let spec = CodecSpec::TopK { k_frac: 0.25 };
        let mut residual = vec![0.0f32; raw.len()];
        let mut delivered = vec![0.0f32; raw.len()];
        let (mut scratch, mut coded, mut decoded) = Default::default();
        for _ in 0..8 {
            let mut update = raw.clone();
            spec.encode_with_feedback(
                &mut update,
                &mut residual,
                &ranges,
                &mut scratch,
                &mut coded,
                &mut decoded,
            );
            for (d, v) in delivered.iter_mut().zip(&decoded) {
                *d += v;
            }
        }
        // after T rounds the total delivered mass approaches T·raw on every
        // coordinate: |delivered - 8·raw| stays bounded by the single-round
        // truncation error, so even the smallest coordinate gets through
        for (d, r) in delivered.iter().zip(&raw) {
            let target = 8.0 * r;
            assert!(
                (d - target).abs() <= 1.0 + 1e-5,
                "coordinate mass lost: delivered {d}, want ≈ {target}"
            );
        }
    }

    // ---- legacy reference encoders (pre-optimization implementations) ----
    // the hot paths must stay byte-identical to these

    fn reference_encode_fp16(values: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 2);
        for v in values {
            out.extend_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
        }
        out
    }

    fn reference_encode_int8(values: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(int8_encoded_len(values.len()));
        for chunk in values.chunks(INT8_CHUNK) {
            let absmax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if absmax > 0.0 { absmax / 127.0 } else { 0.0 };
            out.extend_from_slice(&scale.to_le_bytes());
            for v in chunk {
                let q = if scale > 0.0 {
                    (v / scale).round().clamp(-127.0, 127.0) as i8
                } else {
                    0
                };
                out.push(q as u8);
            }
        }
        out
    }

    fn reference_encode_topk(values: &[f32], k_frac: f32) -> Vec<u8> {
        let k = topk_count(values.len(), k_frac);
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            values[b as usize]
                .abs()
                .total_cmp(&values[a as usize].abs())
                .then(a.cmp(&b))
        });
        let mut kept: Vec<u32> = order[..k].to_vec();
        kept.sort_unstable();
        let mut out = Vec::with_capacity(4 + k * 8);
        out.extend_from_slice(&(k as u32).to_le_bytes());
        for idx in kept {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&values[idx as usize].to_le_bytes());
        }
        out
    }

    #[test]
    fn int8_quantizer_edge_values_match_reference() {
        // absmax 127 pins the chunk scale to exactly 1.0, so each value IS
        // the quantizer input: exact halves (both tie directions of
        // round-to-nearest-even), the just-below-half f32, and non-finites
        let values = vec![
            127.0f32,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            3.5,
            -3.5,
            0.49999997,
            -0.49999997,
            0.500_000_06, // 0.5 + 2^-24, the f32 just above the half
            f32::NAN,
            -0.0,
            126.5,
            -126.5,
        ];
        assert_eq!(
            CodecSpec::Int8.encode(&values),
            reference_encode_int8(&values)
        );
        // and the halves really do round away from zero on the wire
        let bytes = CodecSpec::Int8.encode(&values);
        let quants: Vec<i8> = bytes[4..].iter().map(|&b| b as i8).collect();
        assert_eq!(
            quants,
            vec![127, 1, -1, 2, -2, 3, -3, 4, -4, 0, 0, 1, 0, 0, 127, -127]
        );
        // non-finite inputs poison the chunk scale identically to the
        // reference (Inf absmax → everything finite quantizes to 0)
        let hostile = vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0, -64.0];
        assert_eq!(
            CodecSpec::Int8.encode(&hostile),
            reference_encode_int8(&hostile)
        );
    }

    #[test]
    fn topk_full_fraction_keeps_everything_in_index_order() {
        let values = vec![3.0f32, -1.0, 0.0, 2.0, 2.0];
        let spec = CodecSpec::TopK { k_frac: 1.0 };
        assert_eq!(spec.encode(&values), reference_encode_topk(&values, 1.0));
        let back = spec.decode(&spec.encode(&values), values.len()).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn encode_into_reuses_buffers_without_leaking_state() {
        // a large encode followed by a small one through the same scratch
        // and output buffer must match fresh single-use encodes exactly
        let big: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let small = vec![5.0f32, -1.0, 0.25];
        for spec in [
            CodecSpec::Fp32,
            CodecSpec::Fp16,
            CodecSpec::Int8,
            CodecSpec::TopK { k_frac: 0.3 },
        ] {
            let mut scratch = EncodeScratch::default();
            let mut buf = Vec::new();
            spec.encode_into(&big, &mut scratch, &mut buf);
            assert_eq!(buf, spec.encode(&big), "{spec} big");
            spec.encode_into(&small, &mut scratch, &mut buf);
            assert_eq!(buf, spec.encode(&small), "{spec} small after big");
            // decode side: reused dense buffer, shrink after grow
            let mut dense = Vec::new();
            spec.decode_into(&spec.encode(&big), big.len(), &mut dense)
                .unwrap();
            assert_eq!(dense, spec.decode(&spec.encode(&big), big.len()).unwrap());
            spec.decode_into(&spec.encode(&small), small.len(), &mut dense)
                .unwrap();
            assert_eq!(
                dense,
                spec.decode(&spec.encode(&small), small.len()).unwrap()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fp16_encoder_matches_reference_on_arbitrary_bits(
            values in pvec((0u32..=u32::MAX).prop_map(f32::from_bits), 0..300),
        ) {
            // exercises the F16C path (when available) against the scalar
            // definition over the full bit space: normals, subnormals,
            // overflow-saturation, Inf, and NaN payloads
            prop_assert_eq!(CodecSpec::Fp16.encode(&values), reference_encode_fp16(&values));
        }

        #[test]
        fn int8_encoder_matches_reference(
            // mixed distribution: smooth floats, exact halves (both tie
            // directions), non-finites, and raw bit patterns
            values in pvec(
                (0u8..4, -100.0f32..100.0, -200i32..200, 0u32..=u32::MAX).prop_map(
                    |(sel, smooth, half, bits)| match sel {
                        0 => smooth,
                        1 => half as f32 / 2.0,
                        2 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(bits % 3) as usize],
                        _ => f32::from_bits(bits),
                    },
                ),
                0..600,
            ),
        ) {
            prop_assert_eq!(CodecSpec::Int8.encode(&values), reference_encode_int8(&values));
        }

        #[test]
        fn topk_encoder_matches_sort_based_reference(
            values in pvec(-100.0f32..100.0, 1..400),
            k_frac in 0.004f32..=1.0,
        ) {
            let spec = CodecSpec::TopK { k_frac };
            prop_assert_eq!(spec.encode(&values), reference_encode_topk(&values, k_frac));
        }

        #[test]
        fn topk_encoder_matches_reference_under_heavy_ties(
            values in pvec(
                (0u8..5).prop_map(|s| [0.0f32, -0.0, 1.0, -1.0, 2.0][s as usize]),
                1..200,
            ),
            k_frac in 0.004f32..=1.0,
        ) {
            // magnitude ties force the index tie-break everywhere; the
            // partial selection must keep exactly the sort's prefix set
            let spec = CodecSpec::TopK { k_frac };
            prop_assert_eq!(spec.encode(&values), reference_encode_topk(&values, k_frac));
        }

        #[test]
        fn fp32_round_trip_bits(
            values in pvec((0u32..=u32::MAX).prop_map(f32::from_bits), 0..200),
        ) {
            let spec = CodecSpec::Fp32;
            let back = spec.decode(&spec.encode(&values), values.len()).unwrap();
            let a: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn fp16_error_is_bounded(values in pvec(-1e4f32..1e4f32, 0..200)) {
            let spec = CodecSpec::Fp16;
            let bytes = spec.encode(&values);
            prop_assert_eq!(bytes.len(), values.len() * 2);
            let back = spec.decode(&bytes, values.len()).unwrap();
            for (v, d) in values.iter().zip(&back) {
                // half precision: 11 significand bits → rel error ≤ 2^-11
                let tol = v.abs() * 4.9e-4 + 6.0e-8;
                prop_assert!((v - d).abs() <= tol, "{v} decoded as {d}");
            }
        }

        #[test]
        fn int8_error_is_bounded_per_chunk(values in pvec(-50.0f32..50.0, 1..600)) {
            let spec = CodecSpec::Int8;
            let bytes = spec.encode(&values);
            prop_assert_eq!(bytes.len(), int8_encoded_len(values.len()));
            let back = spec.decode(&bytes, values.len()).unwrap();
            for (chunk, dchunk) in values.chunks(INT8_CHUNK).zip(back.chunks(INT8_CHUNK)) {
                let absmax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let bound = absmax / 254.0 + 1e-6; // half a quantization step
                for (v, d) in chunk.iter().zip(dchunk) {
                    prop_assert!((v - d).abs() <= bound, "{v} decoded as {d} (bound {bound})");
                }
            }
        }

        #[test]
        fn topk_recovers_exact_support(
            values in pvec(-100.0f32..100.0, 1..300),
            k_frac in 0.01f32..1.0,
        ) {
            let spec = CodecSpec::TopK { k_frac };
            let back = spec.decode(&spec.encode(&values), values.len()).unwrap();
            let k = topk_count(values.len(), k_frac);
            let kept = back.iter().filter(|v| **v != 0.0).count();
            prop_assert!(kept <= k);
            // kept coordinates are bit-exact; dropped ones are zero and no
            // dropped magnitude strictly exceeds a kept one
            let min_kept = back
                .iter()
                .zip(&values)
                .filter(|(d, _)| **d != 0.0)
                .map(|(_, v)| v.abs())
                .fold(f32::INFINITY, f32::min);
            for (d, v) in back.iter().zip(&values) {
                if *d != 0.0 {
                    prop_assert_eq!(d.to_bits(), v.to_bits());
                } else {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }

        #[test]
        fn corrupt_codec_payloads_never_panic(
            bytes in pvec(0u8..=u8::MAX, 0..260),
            expected_len in 0usize..128,
        ) {
            for spec in [
                CodecSpec::Fp32,
                CodecSpec::Fp16,
                CodecSpec::Int8,
                CodecSpec::TopK { k_frac: 0.5 },
            ] {
                let _ = spec.decode(&bytes, expected_len); // any Result is fine
            }
        }

        #[test]
        fn truncating_any_valid_payload_is_a_typed_error(
            values in pvec(-10.0f32..10.0, 1..200),
            frac in 0.0f64..1.0,
        ) {
            for spec in [
                CodecSpec::Fp16,
                CodecSpec::Int8,
                CodecSpec::TopK { k_frac: 0.3 },
            ] {
                let bytes = spec.encode(&values);
                let cut = ((bytes.len() as f64) * frac) as usize;
                let cut = cut.min(bytes.len() - 1);
                prop_assert!(spec.decode(&bytes[..cut], values.len()).is_err());
            }
        }
    }
}
