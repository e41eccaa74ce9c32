//! # The analytical performance model (§5.2–5.4)
//!
//! The paper decomposes a GCM time step into the PS and DS phases and
//! models each as compute time (flops ÷ sustained rate) plus communication
//! time (exchange and global-sum primitive costs):
//!
//! ```text
//! t_ps  = Nps·nxyz/Fps + 5·t_exch_xyz                      (4–6)
//! t_ds  = Nds·nxy /Fds + 2·t_exch_xy + 2·t_gsum            (7–10)
//! T_run = Nt·t_ps + Nt·Ni·t_ds                             (11)
//! ```
//!
//! and defines **Potential Floating-Point Performance** — the
//! per-processor rate the application would reach if computation were
//! free — to quantify how much interconnect a configuration needs:
//!
//! ```text
//! Pfpp_ps = Nps·nxyz / (5·t_exch_xyz)                      (14)
//! Pfpp_ds = Nds·nxy  / (2·t_gsum + 2·t_exch_xy)            (15)
//! ```
//!
//! [`params`] carries Figure 11's measured parameters, [`model`] the
//! equations, [`pfpp`] the metric and Figure 12's analysis, [`fit`] the
//! least-squares helper behind the paper's `4.67·log2 N − 0.95` global-sum
//! fit, [`validate`] the §5.3 prediction-vs-observation comparison,
//! [`phases`] the per-term model-vs-measured comparison fed by telemetry
//! from instrumented runs, [`slack`] the model-predicted vs observed
//! critical-path residual, and [`report`] plain-text table rendering.

pub mod fit;
pub mod model;
pub mod params;
pub mod pfpp;
pub mod phases;
pub mod queueing;
pub mod report;
pub mod slack;
pub mod validate;

pub use model::PerfModel;
pub use params::{DsParams, PsParams};
