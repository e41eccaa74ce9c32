//! # hyades-comms — application-specific communication primitives
//!
//! The software heart of the SC'99 paper (§4): two primitives tailored to
//! the MIT GCM's communication pattern, implemented in "less than one
//! man-month" and credited with unlocking fine-grain parallel execution on
//! commodity hardware.
//!
//! * [`gsum`] — the **optimized global sum** (§4.2): an `N·log2 N`-message
//!   butterfly that computes `N` reductions concurrently, minimizing
//!   latency at the expense of message count. Measured on the simulated
//!   fabric it reproduces the paper's `4.67·log2 N − 0.95` µs fit.
//! * [`exchange`] — the **optimized exchange** (§4.1): brings tile halo
//!   regions into a consistent state with two sequential VI-mode transfers
//!   per neighbor pair (a single transfer saturates PCI). This crate
//!   pairs the legs into the graph the nodes run; each leg *is* the one
//!   simulated VI transfer,
//!   `hyades_startx::vi::ExchangeNode` (chunked staging copies overlapped
//!   with DMA, an 8.6 µs negotiation, go-back-N recovery), the transfer
//!   whose bandwidth is Figure 7.
//! * [`barrier`] — a butterfly barrier, used for the HPVM comparison (§6).
//! * [`mixmode`] — the mixed-mode SMP scheme (§4.1–4.2): one processor per
//!   SMP is the *communication master* owning the NIU; slaves post requests
//!   through shared-memory semaphores.
//! * [`world`] — the `CommWorld` abstraction the GCM runs against, with a
//!   serial backend and a real multi-threaded backend (`std::sync::mpsc`
//!   channels + shared-memory reductions).
//! * [`schedule`] — `schedule::verify`, which proves the exchange and
//!   global-sum graphs deadlock-free and tag-unique: the very graphs
//!   (`hyades_startx::node::CommGraph`) their simulated nodes run.
//! * [`mpistart`] — the general-purpose MPI layer comparison (§6): the
//!   same algorithms through a portable library's per-message costs,
//!   quantifying the "generality tax" the custom primitives avoid.
//! * [`measured`] — runs the simulation microbenchmarks and fits a
//!   [`hyades_cluster::interconnect::PrimitiveModel`] for Arctic, the
//!   "stand-alone benchmark" step of the paper's methodology.

pub mod barrier;
pub mod exchange;
pub mod gsum;
pub mod measured;
pub mod mixmode;
pub mod mpistart;
pub mod schedule;
pub mod timed;
pub mod world;

pub use hyades_startx::recovery::RecoveryCounters;

pub use timed::TimedWorld;
pub use world::{CommWorld, SerialWorld, ThreadWorld};
