//! # hyades-cluster — the Hyades cluster and its comparators
//!
//! Models the machines of the SC'99 paper's evaluation:
//!
//! * [`interconnect`] — the analytic primitive-cost interface the
//!   performance model consumes: the cost of a global sum, a halo exchange,
//!   a barrier, and a point-to-point leg on a given interconnect.
//! * [`ethernet`] — Fast Ethernet, Gigabit Ethernet (MPI) and HPVM/Myrinet
//!   baseline interconnect models, calibrated to the paper's stand-alone
//!   benchmark measurements (Figure 12 and §6). These are comparator
//!   models: the paper measured them on real hardware we cannot obtain, so
//!   the primitive costs are taken from the paper's own table and the
//!   derived quantities (Pfpp, crossovers) are recomputed from them.
//! * [`ethernet_sim`] — a packet-level store-and-forward Ethernet switch
//!   carrying the same `telemetry::sampler` hooks as the Arctic fabric,
//!   so the Arctic-vs-Ethernet contrast is observable per-port rather
//!   than only asserted from the paper's tables.
//! * [`machines`] — the vector supercomputers of Figure 10 (Cray Y-MP,
//!   Cray C90, NEC SX-4) as sustained-rate comparator models.

// Library code reports failure instead of panicking; a panic that
// cannot happen carries a reasoned `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod ethernet;
pub mod ethernet_sim;
pub mod interconnect;
pub mod machines;

pub use interconnect::{ExchangeShape, Interconnect};
