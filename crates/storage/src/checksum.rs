//! CRC-32 page checksums.
//!
//! The buffer pool stamps a checksum for every page it flushes and verifies
//! it on every physical fetch, so silent disk corruption (torn writes, bit
//! flips) surfaces as a typed [`evopt_common::EvoptError::Corruption`]
//! instead of propagating garbage tuples into query results.
//!
//! This is the standard CRC-32 (IEEE 802.3, reflected, polynomial
//! 0xEDB88320) implemented table-driven (slicing-by-8) — self-contained so the workspace
//! stays free of external dependencies.

/// Lookup tables for the reflected polynomial, built at compile time.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets [`crc32`] fold
/// eight input bytes per step ("slicing-by-8") instead of one.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 (IEEE) of `data`.
///
/// Eight bytes per step: the byte-at-a-time loop is one dependent table
/// load per byte (≈ 3 ns/byte here, 12 µs a page), and the log checksums
/// every record it writes, a page's full image included.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// The byte-at-a-time definition, kept as the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..4200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..70).chain([511, 512, 513, 4095, 4096, 4097]) {
            for start in 0..9 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len} start {start}"
                );
            }
        }
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_single_bit_flip() {
        let base = vec![0x5Au8; 512];
        let clean = crc32(&base);
        for byte in [0usize, 1, 255, 511] {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn sensitive_to_truncation_style_damage() {
        // A torn write persists a prefix and leaves a stale suffix; the
        // checksum of the intended bytes must not match the torn bytes.
        let intended = vec![0xABu8; 4096];
        let mut torn = intended.clone();
        for b in torn.iter_mut().skip(1024) {
            *b = 0;
        }
        assert_ne!(crc32(&intended), crc32(&torn));
    }
}
