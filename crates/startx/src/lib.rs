//! # hyades-startx — the StarT-X network interface unit, simulated
//!
//! Models the StarT-X PCI NIU of the Hyades cluster (SC'99, §2.3; Hoe,
//! *Hot Interconnects VI*, 1998) and the host PCI environment it plugs into
//! (§2.1). StarT-X implements its message-passing mechanisms entirely in
//! hardware; its performance is governed by the host's 32-bit 33-MHz PCI
//! characteristics, which is exactly how this model charges time:
//!
//! * **PIO mode** ([`pio`]) — a FIFO network abstraction in the CM-5 style.
//!   Sending and receiving cost uncached memory-mapped register accesses:
//!   0.18 µs per back-to-back 8-byte write, 0.93 µs per 8-byte read (§2.1).
//!   Summing those access costs reproduces the paper's estimated overheads
//!   (0.36 µs send / 1.86 µs receive for an 8-byte message) and, with the
//!   small measured software overhead added, the LogP table of Figure 2.
//! * **VI mode** ([`vi`]) — cacheable virtual queues extended into host
//!   memory by DMA. A bulk transfer pays a one-time ~8.6 µs negotiation and
//!   then streams at the 110 MByte/s PCI payload limit, giving the perceived
//!   bandwidth curve of Figure 7. The transfer is simulated once, as one
//!   leg of the §4.1 exchange ([`vi::ExchangeNode`]): Figure 7 times a
//!   single leg, and `hyades-comms` pairs the exchange's legs.
//! * **Protocol nodes** ([`node`], [`recovery`]) — the communication graph
//!   each node runs (the one `hyades-comms` proves), the fabric endpoint,
//!   guarded wait, run harness and recovery counters that the VI leg and
//!   the global sums of `hyades-comms` share.
//! * **LogP harness** ([`logp`]) — ping-pong and overhead microbenchmarks
//!   run on the simulated fabric, regenerating Figure 2.

pub mod host;
pub mod logp;
pub mod msg;
pub mod node;
pub mod pio;
pub mod recovery;
pub mod vi;

pub use host::HostParams;
