//! CRC-16-CCITT over packet words.
//!
//! Arctic verifies message correctness "at every router stage and at the
//! network endpoints using CRC" (§2.2). We implement CRC-16-CCITT (polynomial
//! 0x1021, init 0xFFFF) over the header and payload words; routers check
//! it at each stage, and the endpoint exposes the result as the 1-bit
//! status the software layer checks.
//!
//! A [`crate::packet::Packet`] computes it when built and after each
//! injected bit flip, and a stage reuses that. The kernel folds two 32-bit
//! words per step through eight 256-entry tables ("slice-by-8", 4 KB).
//! The CRC is linear over GF(2): the register after n more bytes equals
//! the CRC, from a zero register, of those bytes with the old 16-bit
//! register XORed into the leading two. `TABLES[k][b]` is the
//! zero-register CRC of byte `b` followed by `k` zero bytes, so the
//! lookups for the bytes of one step — each byte in the table for the
//! number of bytes that follow it in the step — XOR together to the new
//! register. Only two of the eight lookups depend on the previous step.

const POLY: u16 = 0x1021;
/// The CRC register before the first word.
pub const INIT: u16 = 0xFFFF;

const TABLES: [[u16; 256]; 8] = build_tables();

const fn build_tables() -> [[u16; 256]; 8] {
    let mut t = [[0u16; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // One byte through the bitwise definition, register initially zero.
        let mut crc = (b as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    // Appending a zero byte is one table-driven byte step.
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// XOR of the table entries for the four bytes of `x`, the last byte
/// being followed by `trailing` zero bytes.
#[inline]
fn fold4(x: u32, trailing: usize) -> u16 {
    TABLES[trailing + 3][(x >> 24) as usize]
        ^ TABLES[trailing + 2][(x >> 16 & 0xFF) as usize]
        ^ TABLES[trailing + 1][(x >> 8 & 0xFF) as usize]
        ^ TABLES[trailing][(x & 0xFF) as usize]
}

/// Fold one 32-bit word (big-endian byte order, matching how the link
/// serializes words onto the wire) into a running CRC.
#[inline]
pub fn crc16_word(crc: u16, w: u32) -> u16 {
    fold4(w ^ (crc as u32) << 16, 0)
}

/// Fold a run of words into a running CRC, two words per step.
#[inline]
pub fn crc16_update(crc: u16, words: &[u32]) -> u16 {
    let mut pairs = words.chunks_exact(2);
    let crc = pairs.by_ref().fold(crc, |crc, p| {
        fold4(p[0] ^ (crc as u32) << 16, 4) ^ fold4(p[1], 0)
    });
    pairs
        .remainder()
        .iter()
        .fold(crc, |crc, &w| crc16_word(crc, w))
}

/// CRC-16-CCITT over 32-bit words.
pub fn crc16_words(words: &[u32]) -> u16 {
    crc16_update(INIT, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyades_des::rng::SplitMix64;

    /// The bit-at-a-time definition the tables are checked against.
    fn crc16_bytes_from(init: u16, bytes: impl IntoIterator<Item = u8>) -> u16 {
        let mut crc = init;
        for b in bytes {
            crc ^= (b as u16) << 8;
            for _ in 0..8 {
                if crc & 0x8000 != 0 {
                    crc = (crc << 1) ^ POLY;
                } else {
                    crc <<= 1;
                }
            }
        }
        crc
    }

    fn crc16_bytes(bytes: impl IntoIterator<Item = u8>) -> u16 {
        crc16_bytes_from(INIT, bytes)
    }

    #[test]
    fn known_vector() {
        // CRC-16-CCITT("123456789") with init 0xFFFF is the classic 0x29B1.
        let crc = crc16_bytes(*b"123456789");
        assert_eq!(crc, 0x29B1);
        // The table kernel over the first eight bytes, the reference over
        // the ninth: same vector.
        let head = crc16_words(&[0x3132_3334, 0x3536_3738]);
        assert_eq!(crc16_bytes_from(head, [b'9']), 0x29B1);
    }

    #[test]
    fn empty_is_init() {
        assert_eq!(crc16_bytes(std::iter::empty()), INIT);
        assert_eq!(crc16_words(&[]), INIT);
    }

    #[test]
    fn table_matches_bitwise_reference_for_every_length() {
        let mut rng = SplitMix64::new(1999);
        for len in 0..=24usize {
            for _ in 0..64 {
                let words: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
                let reference = crc16_bytes(words.iter().flat_map(|w| w.to_be_bytes()));
                assert_eq!(crc16_words(&words), reference, "{len} words: {words:x?}");
            }
        }
    }

    #[test]
    fn steps_match_reference_from_every_register_state() {
        let mut rng = SplitMix64::new(2000);
        for crc in 0..=u16::MAX {
            let (w, w2) = (rng.next_u64() as u32, rng.next_u64() as u32);
            let after_one = crc16_bytes_from(crc, w.to_be_bytes());
            assert_eq!(
                crc16_word(crc, w),
                after_one,
                "state {crc:#06x} word {w:#010x}"
            );
            assert_eq!(
                crc16_update(crc, &[w, w2]),
                crc16_bytes_from(after_one, w2.to_be_bytes()),
                "state {crc:#06x} words {w:#010x} {w2:#010x}"
            );
        }
    }

    #[test]
    fn word_and_byte_agree() {
        let words = [0x0102_0304u32, 0x0506_0708];
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(crc16_words(&words), crc16_bytes(bytes));
    }

    #[test]
    fn detects_single_bit_flips() {
        let words = [0xDEAD_BEEFu32, 0x1234_5678, 0x0000_0001];
        let good = crc16_words(&words);
        for wi in 0..words.len() {
            for bit in 0..32 {
                let mut corrupted = words;
                corrupted[wi] ^= 1 << bit;
                assert_ne!(
                    crc16_words(&corrupted),
                    good,
                    "flip of word {wi} bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn detects_burst_errors_up_to_16_bits() {
        // CRC-16 detects all burst errors of length <= 16.
        let words = [0xCAFE_F00Du32, 0xAAAA_5555];
        let good = crc16_words(&words);
        for start in 0..48 {
            for len in 1..=16u32 {
                if start + len > 64 {
                    continue;
                }
                let mask: u64 = (((1u128 << len) - 1) << start) as u64;
                let mut v = ((words[0] as u64) << 32) | words[1] as u64;
                v ^= mask;
                let corrupted = [(v >> 32) as u32, v as u32];
                assert_ne!(crc16_words(&corrupted), good);
            }
        }
    }
}
