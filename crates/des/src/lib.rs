//! # hyades-des — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) engine used to model
//! the hardware substrate of the Hyades cluster from *"A Personal
//! Supercomputer for Climate Research"* (SC'99): the Arctic Switch Fabric,
//! the StarT-X network interface, and the communication protocols built on
//! them.
//!
//! The engine is deliberately simple:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond timestamps, so that
//!   every run is exactly reproducible (no floating-point drift in event
//!   ordering).
//! * [`Simulator`] — a sorted pending-event list dispatching events to
//!   registered [`Actor`]s. Equal times dispatch in the order they were
//!   scheduled, so execution order is fully deterministic.
//! * [`rng::SplitMix64`] — a tiny deterministic RNG for components that need
//!   randomized decisions (e.g. Arctic's random up-route selection).
//! * [`stats`] — online statistics and log-scale histograms used by the
//!   measurement harnesses.
//! * [`fault`] — seeded fault plans (link corrupt/drop windows, NIU
//!   stalls, rank crashes) and the retry policy, on the same clock.
//!
//! The engine makes no attempt at parallel simulation: the simulated
//! workloads are microbenchmarks (micro- to millisecond scale), and full
//! application runs are charged analytically from the microbenchmark results
//! — the same methodology the paper itself uses (stand-alone benchmarks feed
//! an analytical performance model).

// Library code reports failure instead of panicking; a panic that
// cannot happen carries a reasoned `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod actor;
pub mod event;
pub mod fault;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use actor::{Actor, ActorId, AsAny, Ctx};
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
