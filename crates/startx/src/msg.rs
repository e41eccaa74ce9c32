//! Byte/word packing and bulk-transfer segmentation helpers.
//!
//! StarT-X messages carry 2–22 32-bit payload words. Bulk (VI-mode)
//! transfers are segmented by the DMA engine into maximum-size packets.

use hyades_arctic::packet::{Packet, Priority, MAX_PAYLOAD_WORDS};

/// Maximum payload bytes per Arctic packet.
pub const MAX_PACKET_PAYLOAD_BYTES: usize = MAX_PAYLOAD_WORDS * 4;

/// Pack a byte slice into 32-bit payload words (big-endian), zero-padded to
/// a word boundary.
pub fn words_from_bytes(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_be_bytes(w)
        })
        .collect()
}

/// Unpack payload words into `len` bytes (inverse of [`words_from_bytes`]).
pub fn bytes_from_words(words: &[u32], len: usize) -> Vec<u8> {
    let mut out: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
    assert!(
        out.len() >= len,
        "word buffer shorter than requested length"
    );
    out.truncate(len);
    out
}

/// Split a transfer of `len` bytes into per-packet payload sizes, all
/// maximal except the last.
pub fn segment(len: u64) -> Vec<u64> {
    if len == 0 {
        return vec![];
    }
    let full = len / MAX_PACKET_PAYLOAD_BYTES as u64;
    let rem = len % MAX_PACKET_PAYLOAD_BYTES as u64;
    let mut v = vec![MAX_PACKET_PAYLOAD_BYTES as u64; full as usize];
    if rem > 0 {
        v.push(rem);
    }
    v
}

/// Number of packets a transfer of `len` bytes needs.
pub fn packet_count(len: u64) -> u64 {
    len.div_ceil(MAX_PACKET_PAYLOAD_BYTES as u64)
}

/// Payload bytes of packet `seq` of a `len`-byte transfer: `segment(len)[seq]`
/// without the list.
pub fn packet_bytes(len: u64, seq: u32) -> u64 {
    (len - u64::from(seq) * MAX_PACKET_PAYLOAD_BYTES as u64).min(MAX_PACKET_PAYLOAD_BYTES as u64)
}

/// Build a data packet carrying `payload_bytes` of opaque bulk data (the
/// simulation tracks lengths, not content, for bulk transfers; the sequence
/// number travels in the first payload word for reordering checks).
pub fn bulk_packet(src: u16, dst: u16, tag: u16, seq: u32, payload_bytes: u64) -> Packet {
    let words = (payload_bytes as usize).div_ceil(4).max(2);
    let mut payload = vec![0u32; words];
    payload[0] = seq;
    Packet::new(src, dst, Priority::Low, tag, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_word_roundtrip() {
        let data: Vec<u8> = (0..23).collect();
        let words = words_from_bytes(&data);
        assert_eq!(words.len(), 6);
        assert_eq!(bytes_from_words(&words, 23), data);
    }

    #[test]
    fn empty_roundtrip() {
        assert!(words_from_bytes(&[]).is_empty());
        assert!(bytes_from_words(&[], 0).is_empty());
    }

    #[test]
    fn segmentation_exact_and_remainder() {
        assert_eq!(segment(0), Vec::<u64>::new());
        assert_eq!(segment(88), vec![88]);
        assert_eq!(segment(176), vec![88, 88]);
        assert_eq!(segment(100), vec![88, 12]);
        assert_eq!(packet_count(0), 0);
        assert_eq!(packet_count(1), 1);
        assert_eq!(packet_count(88), 1);
        assert_eq!(packet_count(89), 2);
        // 1 KB needs ceil(1024/88) = 12 packets.
        assert_eq!(packet_count(1024), 12);
    }

    #[test]
    fn segments_sum_to_length() {
        for len in [1u64, 87, 88, 89, 1024, 131072] {
            let packets = segment(len);
            assert_eq!(packets.iter().sum::<u64>(), len);
            assert_eq!(packets.len() as u64, packet_count(len));
            for (seq, &bytes) in packets.iter().enumerate() {
                assert_eq!(packet_bytes(len, seq as u32), bytes);
            }
        }
    }

    #[test]
    fn bulk_packet_shape() {
        let p = bulk_packet(1, 2, 9, 42, 88);
        assert_eq!(p.payload.len(), 22);
        assert_eq!(p.payload[0], 42);
        let small = bulk_packet(1, 2, 9, 7, 3);
        assert_eq!(small.payload.len(), 2); // padded to the minimum
    }
}
