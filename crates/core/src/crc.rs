//! The workspace's one CRC-32: checkpoint trailers here, wire-frame
//! trailers in `fedrlnas-rpc` (which re-exports [`crc32`]) and job-store
//! records in `fedrlnas-service` all call this function, so they cannot
//! drift apart.

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

/// CRC-32 (IEEE 802.3 polynomial) of `data`: eight bytes per step, then a
/// byte-wise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
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
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    /// The byte-at-a-time loop [`crc32`] was before slicing-by-8, kept as
    /// the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn standard_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn matches_bytewise_at_every_short_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let mut buf = [0u8; 80];
        rng.fill_bytes(&mut buf);
        for start in 0..8 {
            for len in 0..=71 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_bytewise_on_random_buffers() {
        let mut rng = StdRng::seed_from_u64(0xC4C32);
        for i in 0..256 {
            let len = rng.gen_range(0..=64 * 1024);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "buffer {i}, len {len}");
        }
    }
}
