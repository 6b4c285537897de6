//! The workspace's one CRC-32: checkpoint trailers here, wire-frame
//! trailers in `fedrlnas-rpc` (which re-exports [`crc32`]) and job-store
//! records in `fedrlnas-service` all call this function, so they cannot
//! drift apart.
//!
//! Two bodies compute it, picked once per process by [`select`]: the
//! portable slicing-by-8 loop, and on x86-64 with `pclmulqdq` a fold by
//! carry-less multiplication (Intel, "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction") that hands inputs under
//! [`FOLD_MIN`] bytes and its tail under 16 bytes to the portable loop.
//! Both compute the same checksum of the same bytes.

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table of the reflected IEEE polynomial, and `TABLES[k][i]` is the CRC
/// state after byte `i` followed by `k` zero bytes — so eight bytes fold
/// into the state with eight independent lookups instead of eight
/// dependent ones.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A CRC body: the running state (before the final inversion) and the
/// next bytes in, the state after them out.
///
/// # Safety
///
/// The CPU has every feature the body is compiled for: none for the
/// portable body, `pclmulqdq` and `sse4.1` for the fold.
type Body = unsafe fn(u32, &[u8]) -> u32;

/// CRC-32 (IEEE 802.3 polynomial) of `data`, on the body `select` chose
/// (cached for the process).
pub fn crc32(data: &[u8]) -> u32 {
    static BODY: std::sync::OnceLock<Body> = std::sync::OnceLock::new();
    let body = *BODY.get_or_init(select);
    // SAFETY: `body` is the portable loop or the fold, whose CPU features
    // `select` detected before returning it.
    !unsafe { body(!0, data) }
}

/// The body this CPU runs.
fn select() -> Body {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return update_fold;
        }
    }
    update_portable
}

/// The portable body: eight bytes per step, then a byte-wise tail.
fn update_portable(mut c: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        // the upper four bytes do not depend on the running state, so
        // their lookups fold first and only a two-level XOR of the lower
        // four sits on the step-to-step dependency chain (measured a third
        // faster than one flat eight-way XOR)
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let ahead = TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        c = (TABLES[7][(lo & 0xFF) as usize] ^ TABLES[6][((lo >> 8) & 0xFF) as usize])
            ^ (TABLES[5][((lo >> 16) & 0xFF) as usize] ^ TABLES[4][(lo >> 24) as usize])
            ^ ahead;
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Inputs shorter than this go to the portable body whole: the fold
/// starts from four 16-byte blocks.
const FOLD_MIN: usize = 64;

/// Fold constants of the reflected polynomial, each `x^k mod P` for the
/// distance it folds across, bit-reflected and shifted left by one. The
/// pairs are `(low, high)` halves of one 128-bit operand.
#[cfg(target_arch = "x86_64")]
mod fold_k {
    /// Across 512 bits: `x^(4*128+32)` and `x^(4*128-32)` mod P.
    pub const K1K2: (i64, i64) = (0x01_5444_2bd4, 0x01_c6e4_1596);
    /// Across 128 bits: `x^(128+32)` and `x^(128-32)` mod P.
    pub const K3K4: (i64, i64) = (0x01_7519_97d0, 0x00_ccaa_009e);
    /// Across 64 bits: `x^64` mod P.
    pub const K5: i64 = 0x01_63cd_6124;
    /// Barrett reduction: P itself and `floor(x^64 / P)`.
    pub const P_MU: (i64, i64) = (0x01_db71_0641, 0x01_f701_1641);
}

/// The fold body: 64 bytes a step into four 128-bit accumulators, which
/// then fold into one; the remaining 16-byte blocks one at a time; then
/// 128 → 64 → 32 bits by Barrett reduction. Inputs under [`FOLD_MIN`]
/// bytes and the tail under 16 bytes go through [`update_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn update_fold(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    if data.len() < FOLD_MIN {
        return update_portable(state, data);
    }
    let (bulk, tail) = data.split_at(data.len() & !15);
    let (quads, singles) = bulk.split_at(bulk.len() & !63);
    let block = |b: &[u8]| {
        let v = u128::from_le_bytes(b.try_into().expect("16-byte block"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    };
    let pair = |(lo, hi): (i64, i64)| _mm_set_epi64x(hi, lo);

    let mut quads = quads.chunks_exact(64);
    let first = quads.next().expect("at least FOLD_MIN bytes");
    let mut acc: [__m128i; 4] = std::array::from_fn(|i| block(&first[16 * i..16 * i + 16]));
    acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
    let k1k2 = pair(fold_k::K1K2);
    for quad in quads {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = fold_16(*a, k1k2, block(&quad[16 * i..16 * i + 16]));
        }
    }
    let k3k4 = pair(fold_k::K3K4);
    let [a0, a1, a2, a3] = acc;
    let mut x = fold_16(fold_16(fold_16(a0, k3k4, a1), k3k4, a2), k3k4, a3);
    for single in singles.chunks_exact(16) {
        x = fold_16(x, k3k4, block(single));
    }

    // 128 → 64 bits: the low half moves up across 64 bits, then the low 32
    // bits of what remains across 32.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
    let k5 = _mm_set_epi64x(0, fold_k::K5);
    x = _mm_xor_si128(
        _mm_srli_si128(x, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
    );
    // 64 → 32 bits by Barrett reduction.
    let p_mu = pair(fold_k::P_MU);
    let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
    let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), p_mu, 0x00);
    let state = _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32;

    update_portable(state, tail)
}

/// `acc` carried along the message across the distance `k` folds (its
/// low half by `k`'s low half, its high half by the high half), plus
/// `next`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn fold_16(
    acc: std::arch::x86_64::__m128i,
    k: std::arch::x86_64::__m128i,
    next: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let lo = _mm_clmulepi64_si128(acc, k, 0x00);
    let hi = _mm_clmulepi64_si128(acc, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    /// The byte-at-a-time loop [`crc32`] was before slicing-by-8, kept as
    /// the reference, from any running state.
    fn update_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        !update_bytewise(!0, data)
    }

    /// Every body this CPU can run — the portable one first — so each is
    /// checked against the reference whichever of them [`select`] prefers.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut all: Vec<(&'static str, Body)> = vec![("portable", update_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
            {
                all.push(("fold", update_fold));
            }
        }
        all
    }

    /// `body` from `state` over `data`, checked against the reference.
    fn check(name: &str, body: Body, state: u32, data: &[u8], what: &str) {
        // SAFETY: `bodies` lists the fold only on a CPU with its features.
        let got = unsafe { body(state, data) };
        assert_eq!(got, update_bytewise(state, data), "{name}: {what}");
    }

    #[test]
    fn standard_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn matches_bytewise_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let mut buf = vec![0u8; 1024 + 16];
        rng.fill_bytes(&mut buf);
        for (name, body) in bodies() {
            for start in 0..16 {
                for len in 0..=1024 {
                    let data = &buf[start..start + len];
                    check(name, body, !0, data, &format!("start {start}, len {len}"));
                }
            }
        }
    }

    #[test]
    fn matches_bytewise_on_random_buffers() {
        let mut rng = StdRng::seed_from_u64(0xC4C32);
        let bodies = bodies();
        for i in 0..256 {
            let len = rng.gen_range(0..=64 * 1024);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            for &(name, body) in &bodies {
                check(name, body, !0, &data, &format!("buffer {i}, len {len}"));
            }
            assert_eq!(crc32(&data), crc32_bytewise(&data), "buffer {i}, len {len}");
        }
    }

    /// A body handed a state mid-message must carry it through the bulk
    /// into the tail: any starting state, any split of one buffer in two.
    #[test]
    fn carries_any_starting_state() {
        let mut rng = StdRng::seed_from_u64(0x57A7E);
        let mut buf = vec![0u8; 4096];
        rng.fill_bytes(&mut buf);
        for (name, body) in bodies() {
            for i in 0..512 {
                let state = rng.next_u32();
                let len = rng.gen_range(0..=buf.len());
                let what = format!("state {state:#x}, len {len}");
                check(name, body, state, &buf[..len], &what);
                let cut = rng.gen_range(0..=len);
                // SAFETY: `bodies` lists the fold only on a CPU with its features.
                let split = unsafe { body(body(!0, &buf[..cut]), &buf[cut..len]) };
                assert_eq!(
                    !split,
                    crc32_bytewise(&buf[..len]),
                    "{name}: split {i} at {cut} of {len}"
                );
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn selects_the_fold_where_the_cpu_has_it() {
        let fold = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        let want: Body = if fold { update_fold } else { update_portable };
        assert!(
            std::ptr::fn_addr_eq(select(), want),
            "fold available: {fold}"
        );
    }
}
