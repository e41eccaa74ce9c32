//! # hyades-arctic — the Arctic Switch Fabric, simulated
//!
//! A packet-level model of the Arctic Switch Fabric (Boughton 1994, 1997),
//! the system-area network of the Hyades cluster in *"A Personal
//! Supercomputer for Climate Research"* (SC'99, §2.2).
//!
//! The simulated fabric reproduces the properties the paper's communication
//! library depends on:
//!
//! * **Fat-tree topology** built from 4×4 Arctic routers (2 down-ports,
//!   2 up-ports), a 2-ary n-tree supporting `N = 2^n` endpoints with full
//!   bisection bandwidth (`2 × N × 150 MByte/s` counting both directions).
//! * **150 MByte/s links** in each direction, with wormhole-style cut-through
//!   switching: each router stage adds a fall-through latency of **0.15 µs**
//!   while packet serialization overlaps across stages.
//! * **Two message priorities**: a high-priority packet is never blocked
//!   behind queued low-priority packets at an output port.
//! * **FIFO ordering** of packets sent between two nodes along the same
//!   path; the up-route selection can be deterministic (hashed, the mode the
//!   communication library uses to obtain ordering) or random (the header's
//!   "random uproute" feature, for load balancing).
//! * **CRC verification at every router stage** and at the endpoints; the
//!   software layer only checks a 1-bit status word. A fault-injection hook
//!   exercises this path in tests.
//!
//! The paper's packet format (Figure 1b) is carried faithfully: two 32-bit
//! header words followed by a payload of 2–22 32-bit words.

// Library code reports failure instead of panicking; a panic that
// cannot happen carries a reasoned `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod crc;
pub mod fault;
pub mod network;
pub mod observatory;
pub mod packet;
pub mod router;
pub mod topology;
pub mod workload;

pub use network::{ArcticConfig, ArcticNetwork, Delivered};
pub use observatory::{FabricReport, Hotspot, LinkSummary, Observatory, ObservatoryConfig};
pub use packet::{Packet, Priority, MAX_PAYLOAD_WORDS, MIN_PAYLOAD_WORDS};
pub use topology::FatTree;
