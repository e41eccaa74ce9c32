//! The Arctic packet: format, routing fields, and wire accounting.
//!
//! Figure 1(b) of the paper gives the StarT-X message format carried by
//! Arctic: two 32-bit header words — a route word (priority, 16-bit
//! down-route, up-route / random-uproute) and a tag word (11-bit user tag,
//! 5-bit size) — followed by a payload of 2 to 22 32-bit words.

use crate::crc::{crc16_update, INIT};
use hyades_telemetry as telemetry;
use std::ops::Deref;

/// Minimum payload size in 32-bit words.
pub const MIN_PAYLOAD_WORDS: usize = 2;
/// Maximum payload size in 32-bit words.
pub const MAX_PAYLOAD_WORDS: usize = 22;
/// Header size in 32-bit words.
pub const HEADER_WORDS: usize = 2;

/// Arctic recognises two message priorities; a high-priority message cannot
/// be blocked by low-priority messages (§2.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum Priority {
    Low,
    High,
}

/// How the sender fills the up-route bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpRoute {
    /// Deterministic ascent selected by the source address bits
    /// (`port at level l = (src >> l) & 1`). Every source ascends through
    /// edge-disjoint up-links, which makes the full fat-tree non-blocking
    /// for permutation traffic, and the fixed path per (src, dst) pair
    /// preserves Arctic's FIFO guarantee for messages "sent between two
    /// nodes along the same path". This is the mode the GCM communication
    /// library uses.
    SourceSpread,
    /// The header's "random uproute" feature: each packet picks uniformly
    /// random up-ports for load balancing (no ordering guarantee between
    /// packets of the same pair).
    Random,
}

/// A packet's payload words, read-only: nothing hands out mutable access,
/// so [`Packet::flip_bit`] is the one way to change one after
/// [`Packet::new`].
#[derive(Clone, Debug)]
pub struct Words(Box<[u32]>);

impl Deref for Words {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

/// A packet in flight through the fabric.
#[derive(Clone, Debug)]
pub struct Packet {
    pub priority: Priority,
    pub src: u16,
    pub dst: u16,
    /// Up-route selection bits: bit `l` selects the up-port used when
    /// ascending from level `l`. Filled by the injecting endpoint.
    pub uproute_bits: u16,
    /// 11-bit user tag (protocol-level discriminator).
    pub usr_tag: u16,
    /// Payload words (2..=22).
    pub payload: Words,
    /// Up-hops remaining before the packet turns around and descends.
    /// Routing scratch state maintained by the fabric (not covered by the
    /// CRC; it is derived from `src`/`dst` at injection).
    pub up_remaining: u8,
    /// CRC computed at injection; compared at each stage.
    pub crc: u16,
    /// Set if any stage detected a CRC mismatch: the endpoint's 1-bit
    /// status. Software treats this as a catastrophic network failure.
    pub corrupted: bool,
    /// The last CRC computed and the masked header words it covered; the
    /// one payload write, [`Packet::flip_bit`], recomputes it. Two fields,
    /// not a tuple, whose padding would make the packet 48 bytes, not 40.
    memo_header: [u32; 2],
    memo_crc: u16,
}

impl Packet {
    /// Build a packet, padding the payload to the 2-word minimum. Panics if
    /// the payload exceeds 22 words — larger transfers must be segmented by
    /// the NIU.
    pub fn new(
        src: u16,
        dst: u16,
        priority: Priority,
        usr_tag: u16,
        mut payload: Vec<u32>,
    ) -> Self {
        assert!(
            payload.len() <= MAX_PAYLOAD_WORDS,
            "payload of {} words exceeds Arctic maximum of {MAX_PAYLOAD_WORDS}",
            payload.len()
        );
        while payload.len() < MIN_PAYLOAD_WORDS {
            payload.push(0);
        }
        let mut pkt = Packet {
            priority,
            src,
            dst,
            uproute_bits: 0,
            usr_tag: usr_tag & 0x7FF,
            payload: Words(payload.into_boxed_slice()),
            up_remaining: 0,
            crc: 0,
            corrupted: false,
            memo_header: [0; 2],
            memo_crc: 0,
        };
        pkt.remember();
        pkt.crc = pkt.memo_crc;
        pkt
    }

    /// The two header words of the wire format.
    pub fn header_words(&self) -> [u32; 2] {
        let route = ((self.priority == Priority::High) as u32) << 31
            | (self.dst as u32) << 14
            | (self.uproute_bits as u32 & 0x3FFF);
        let tag = (self.usr_tag as u32) << 5 | (self.payload.len() as u32 & 0x1F);
        [route, tag]
    }

    /// The header words the CRC covers. The CRC intentionally excludes
    /// the up-route bits (they are rewritten per-path when the
    /// random-uproute feature is used): we mask them out of the route word.
    fn covered_header(&self) -> [u32; 2] {
        let [route, tag] = self.header_words();
        [route & !0x3FFF, tag]
    }

    /// CRC over header and payload, computed in full every call (counted
    /// as `arctic.packet` `crc_computations`).
    pub fn compute_crc(&self) -> u16 {
        telemetry::count("arctic.packet", "crc_computations", 1);
        crc16_update(crc16_update(INIT, &self.covered_header()), &self.payload)
    }

    /// Recompute the CRC and remember it with the header words it covers.
    fn remember(&mut self) {
        self.memo_header = self.covered_header();
        self.memo_crc = self.compute_crc();
    }

    /// Verify the CRC; marks (and reports) corruption. The remembered CRC
    /// is reused only while the covered header words are unchanged.
    pub fn verify(&mut self) -> bool {
        if self.covered_header() != self.memo_header {
            self.remember();
        }
        if self.memo_crc != self.crc {
            self.corrupted = true;
        }
        !self.corrupted
    }

    /// Flip one payload bit (a link fault) and recompute the remembered CRC.
    pub fn flip_bit(&mut self, word: usize, bit: u32) {
        self.payload.0[word] ^= 1 << bit;
        self.remember();
    }

    /// Bytes this packet occupies on a link: header + payload words.
    pub fn wire_bytes(&self) -> u64 {
        ((HEADER_WORDS + self.payload.len()) * 4) as u64
    }

    /// Payload bytes (the quantity user-visible bandwidth counts).
    pub fn payload_bytes(&self) -> u64 {
        (self.payload.len() * 4) as u64
    }
}

/// Pack an 8-byte value into the 2-word minimum payload.
pub fn words_from_u64(v: u64) -> Vec<u32> {
    vec![(v >> 32) as u32, v as u32]
}

/// Reassemble an 8-byte value from the first two payload words.
pub fn u64_from_words(words: &[u32]) -> u64 {
    ((words[0] as u64) << 32) | words[1] as u64
}

/// Pack an `f64` (e.g. a global-sum operand) into payload words.
pub fn words_from_f64(v: f64) -> Vec<u32> {
    words_from_u64(v.to_bits())
}

/// Reassemble an `f64` from the first two payload words.
pub fn f64_from_words(words: &[u32]) -> f64 {
    f64::from_bits(u64_from_words(words))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_padded_to_minimum() {
        let p = Packet::new(0, 1, Priority::High, 3, vec![]);
        assert_eq!(p.payload.len(), MIN_PAYLOAD_WORDS);
        assert_eq!(p.wire_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds Arctic maximum")]
    fn oversized_payload_rejected() {
        Packet::new(0, 1, Priority::Low, 0, vec![0; 23]);
    }

    #[test]
    fn max_packet_is_96_bytes() {
        let p = Packet::new(0, 1, Priority::Low, 0, vec![7; 22]);
        assert_eq!(p.wire_bytes(), 96);
        assert_eq!(p.payload_bytes(), 88);
    }

    #[test]
    fn crc_roundtrip_and_corruption() {
        let mut p = Packet::new(3, 9, Priority::High, 0x7FF, vec![1, 2, 3]);
        assert!(p.verify());
        p.flip_bit(1, 15);
        assert!(!p.verify());
        assert!(p.corrupted);
    }

    /// `TxPort` queues packets by value, tens of thousands at once in a
    /// saturated fabric: the CRC memo must not make each one larger.
    #[test]
    fn packet_with_its_crc_memo_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Packet>(), 40);
    }

    #[test]
    fn crc_ignores_uproute_bits() {
        let mut p = Packet::new(3, 9, Priority::High, 5, vec![1, 2]);
        p.uproute_bits = 0x2AAA;
        assert!(p.verify(), "random uproute must not invalidate the CRC");
    }

    #[test]
    fn header_word_encoding() {
        let mut p = Packet::new(2, 0x1234, Priority::High, 0x155, vec![0; 4]);
        p.uproute_bits = 0x5;
        let [route, tag] = p.header_words();
        assert_eq!(route >> 31, 1);
        assert_eq!((route >> 14) & 0xFFFF, 0x1234);
        assert_eq!(route & 0x3FFF, 0x5);
        assert_eq!(tag >> 5, 0x155);
        assert_eq!(tag & 0x1F, 4);
    }

    #[test]
    fn value_packing_roundtrips() {
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(u64_from_words(&words_from_u64(v)), v);
        }
        for f in [0.0f64, -1.5, std::f64::consts::PI, f64::MAX] {
            assert_eq!(f64_from_words(&words_from_f64(f)), f);
        }
    }

    #[test]
    fn tag_is_masked_to_11_bits() {
        let p = Packet::new(0, 1, Priority::Low, 0xFFFF, vec![0; 2]);
        assert_eq!(p.usr_tag, 0x7FF);
    }
}
