//! # hyades-telemetry — the Hyades flight recorder
//!
//! A deterministic, zero-cost-when-disabled instrumentation layer threaded
//! through every tier of the reproduction: the Arctic router pipeline, the
//! StarT-X NIU, the comms primitives (`exchange` / `global sum` / barrier),
//! and the GCM driver's PS/DS phase boundaries.
//!
//! The paper's argument (§5–§6) rests on decomposing the GCM into PS/DS
//! phases and comparing *measured* primitive latencies against an
//! *analytical* model. This crate records where simulated time actually
//! goes, so that the comparison is a continuously-checkable artifact
//! rather than a one-off table.
//!
//! Design rules:
//!
//! * **Simulated time only.** Every span is stamped with [`SimTime`] /
//!   [`SimDuration`]; wall-clock types are banned here by `hyades-lint`'s
//!   `instant-wallclock` rule. Exports are therefore bit-identical across
//!   double runs with the same seed (enforced by `tests/determinism.rs`).
//! * **Zero cost when disabled.** Every recording entry point is
//!   `#[inline]` and begins with a single `thread_local` [`Cell`] load
//!   (the same idiom as `gcm::flops`). `hbench` measures the cost: its
//!   `coupled_serial` workload runs with the recorder compiled in and off,
//!   `cluster_tour` with it on.
//! * **Per-rank, merged at end of run.** State is thread-local; each rank
//!   of a `ThreadWorld` run enables its own recorder and returns a
//!   [`RankTelemetry`], merged in rank order into a [`RunTelemetry`] —
//!   no locks, no cross-thread ordering hazards.
//!
//! Two exporters: [`RunTelemetry::chrome_trace_json`] (loadable in
//! `chrome://tracing` / Perfetto) and [`RunTelemetry::text_summary`]
//! (a deterministic text report).
//!
//! [`Cell`]: std::cell::Cell
//! [`SimTime`]: hyades_des::SimTime
//! [`SimDuration`]: hyades_des::SimDuration

pub mod artifact;
pub mod commlog;
pub mod critpath;
pub mod diag;
pub mod export;
pub mod flight;
pub mod matcher;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod sampler;

pub use artifact::{write_artifacts_to_dir, Artifact, ArtifactKind, Exporter, Prebuilt};
pub use critpath::{CritPath, CritPathError};
pub use diag::{DiagRow, DiagSeries};
pub use export::{flows_from_stamped, FlowEvent, RunTelemetry};
pub use prom::PromText;
pub use recorder::{
    charge_comm, charge_flops, count, current_phase, disable, enable, enabled, observe,
    observe_duration_us, observe_hist, phase_totals, record_span, set_phase, Phase, PhaseTotals,
    RankTelemetry, SpanRecord, DES_PID, FDS_MFLOPS, FPS_MFLOPS, GCM_PID,
};
pub use registry::Registry;
pub use sampler::{SampleSet, SampleTick, SamplerActor, Series};
