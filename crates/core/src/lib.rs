//! # hyades — a personal supercomputer for climate research, reproduced
//!
//! The facade crate of the workspace: high-level scenario builders plus an
//! [`experiments`] registry with one entry per table and figure of the
//! SC'99 paper. Each experiment runs against the simulated hardware
//! (`hyades-arctic` / `hyades-startx`), the communication library
//! (`hyades-comms`), the Rust MIT GCM (`hyades-gcm`), and the analytical
//! performance model ([`perf`]), and renders a plain-text report
//! comparing the paper's published numbers with the values this
//! reproduction measures.
//!
//! ```
//! // Regenerate Figure 2 (LogP characteristics of PIO messaging):
//! let report = hyades::experiments::fig2::run();
//! assert!(report.contains("RTT/2"));
//! ```

pub mod charging;
pub mod experiments;
pub mod perf;
pub mod scenario;
pub mod tour;

pub use hyades_arctic as arctic;
pub use hyades_cluster as cluster;
pub use hyades_comms as comms;
pub use hyades_des as des;
pub use hyades_des::fault;
pub use hyades_gcm as gcm;
pub use hyades_startx as startx;
pub use hyades_telemetry as telemetry;
