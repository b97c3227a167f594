//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The workspace's durability features — the run journal's per-record
//! frames and the `.jxc` per-block checksums — need one shared, stable
//! checksum so a reader can tell "this record/block arrived intact" from
//! "the process died mid-write". CRC-32 is the right tool for that
//! threat model: it detects torn writes and bit rot, not adversaries.
//! The implementation is the reflected table-driven one, sliced by 8
//! (one 8-byte word per step through eight tables), with the tables
//! generated at compile time so the crate stays dependency-free.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// and `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold one 8-byte word.
const TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` with the conventional `0xFFFF_FFFF` pre/post
/// conditioning — the same value `crc32(1)` in zlib or `zlib.crc32` in
/// Python would produce.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Folds `bytes` into a running (pre-conditioned) CRC state. Start from
/// `0xFFFF_FFFF`, fold each fragment, and finish with `^ 0xFFFF_FFFF`
/// to checksum data that arrives in pieces.
///
/// Slicing-by-8: eight bytes per step through the eight tables, then the
/// remainder one byte at a time.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time reference the sliced, table-driven loop must
    /// agree with; it shares no table with the code under test.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Reference values from the canonical IEEE CRC-32 ("check" value
        // for "123456789" is 0xCBF43926).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"chunk-commit journal record payload";
        for split in 0..data.len() {
            let mut state = 0xFFFF_FFFF;
            state = crc32_update(state, &data[..split]);
            state = crc32_update(state, &data[split..]);
            assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"some record";
        let good = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() * 8 {
            copy[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&copy), good, "flip at bit {i} undetected");
            copy[i / 8] ^= 1 << (i % 8);
        }
    }

    proptest! {
        #[test]
        fn slicing_matches_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..300)
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }

        #[test]
        fn incremental_at_any_splits_matches_one_shot(
            data in prop::collection::vec(any::<u8>(), 0..300),
            mut splits in prop::collection::vec(0usize..300, 0..5),
        ) {
            splits.iter_mut().for_each(|s| *s %= data.len() + 1);
            splits.sort_unstable();
            let mut state = 0xFFFF_FFFF;
            let mut from = 0;
            for &at in &splits {
                state = crc32_update(state, &data[from..at]);
                from = at;
            }
            state = crc32_update(state, &data[from..]);
            prop_assert_eq!(state ^ 0xFFFF_FFFF, crc32(&data));
        }
    }
}
