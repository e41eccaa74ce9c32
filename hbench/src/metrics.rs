//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, and every per-layer metric with its unit, direction and
//! whether it is *exact* (a simulated-time or counted value that repeats
//! bit-for-bit, compared for equality rather than by ratio).
//!
//! `BENCHMARK.json` at the repository root carries the same lists for
//! the driver; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and, in one line, why it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads, in the order `hbench all` runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "coupled_serial",
        why: "64x32 coupled atmosphere-ocean pair, 64 steps on SerialWorld: the researcher's run; gcm kernels, physics, CG solver and coupler do all the work in cache, every other layer idle",
    },
    WorkloadDef {
        name: "ocean_1deg",
        why: "360x160x15 ocean, 2 steps: the same gcm layer with 864000 cells, beyond L2 and solver-dominated (600+ CG iterations a step), so a kernel change that wins in cache and loses on bandwidth shows",
    },
    WorkloadDef {
        name: "cluster_tour",
        why: "the four core::tour runs plus artifact export on 8x4 tiles: comms worlds, telemetry, fault, perf and resilient stepping dominate and gcm kernels do almost nothing (bypass for kernel work)",
    },
    WorkloadDef {
        name: "fabric_saturated",
        why: "three long 16-endpoint Arctic simulations run to drain (bit-reverse 0.8, uniform 0.5, neighbour 0.9; 360k packets): the des + arctic hot path with construction cost amortised to nothing",
    },
    WorkloadDef {
        name: "comm_primitives",
        why: "2000 tiny simulations (exchange, gsum, barrier, faulty retries, StarT-X VI and LogP): the same des/arctic layers where Simulator::new + ArcticNetwork::build dominate (bypass for hot-path work)",
    },
    WorkloadDef {
        name: "lint_tree",
        why: "4 full hyades-lint passes over the live tree: the developer's gate, no other layer runs; the seed generates nothing here and lint.lines exposes input drift",
    },
];

/// An end-to-end metric and the share of the baseline's median by which
/// it may worsen before `compare` calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric. The part of the name before the first `.` is the
/// layer (a crate of the workspace, or `bench` for the harness itself).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// A counted or simulated value that repeats exactly; fewer is better
/// (less work, fewer faults, a smaller residual) unless noted.
const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn exact_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // gcm — in-run
    exact_up("gcm.steps", "count"),
    exact_up("gcm.cell_steps", "count"),
    rate("gcm.cell_steps_per_s", "1/s"),
    rate("gcm.sdpd", "d/d"),
    rate("gcm.mflops", "Mflop/s"),
    exact("gcm.cg_iters", "count"),
    rate("gcm.cg_iters_per_s", "1/s"),
    cost("gcm.step_p50_ms", "ms"),
    cost("gcm.step_p90_ms", "ms"),
    cost("gcm.step_self_s", "s"),
    exact("gcm.unconverged_steps", "count"),
    exact("gcm.nonfinite_steps", "count"),
    exact("gcm.nps", "flop/cell"),
    exact("gcm.nds", "flop/col"),
    // gcm — stand-alone probes on the workload's own tile and state
    rate("gcm.k_momentum_cells_per_s", "1/s"),
    rate("gcm.k_tracer_cells_per_s", "1/s"),
    rate("gcm.k_hydrostatic_cells_per_s", "1/s"),
    rate("gcm.k_forcing_cells_per_s", "1/s"),
    rate("gcm.k_timestep_cells_per_s", "1/s"),
    rate("gcm.k_elliptic_cols_per_s", "1/s"),
    rate("gcm.k_cg_iters_per_s", "1/s"),
    rate("gcm.k_halo3_per_s", "1/s"),
    rate("gcm.fps_mflops", "Mflop/s"),
    rate("gcm.fds_mflops", "Mflop/s"),
    cost("gcm.coupler_bc_us", "us"),
    rate("gcm.checkpoint_mb_per_s", "MB/s"),
    // gcm — horizon canary (paper grid at its default configuration)
    exact_up("gcm.paper_grid_finite_steps", "count"),
    exact_up("gcm.paper_grid_converged_steps", "count"),
    // comms — the decorator around the GCM's communicator
    exact("comms.world_exchange_calls", "count"),
    cost("comms.world_exchange_s", "s"),
    exact("comms.world_gsum_calls", "count"),
    cost("comms.world_gsum_s", "s"),
    // comms — DES primitives
    rate("comms.exchange_per_s", "1/s"),
    rate("comms.gsum_per_s", "1/s"),
    rate("comms.gsum_tree_per_s", "1/s"),
    rate("comms.barrier_per_s", "1/s"),
    rate("comms.mpi_allreduce_per_s", "1/s"),
    rate("comms.exchange_faulty_per_s", "1/s"),
    rate("comms.gsum_faulty_per_s", "1/s"),
    exact("comms.retries", "count"),
    exact("comms.backoff_waits", "count"),
    exact("comms.exchange_4x4_4096_us", "us"),
    exact("comms.gsum_16_us", "us"),
    // comms — functional worlds
    rate("comms.thread_exchange_per_s", "1/s"),
    rate("comms.thread_gsum_per_s", "1/s"),
    cost("comms.timed_ns_per_op", "ns"),
    // des
    exact("des.events", "count"),
    rate("des.events_per_s", "1/s"),
    cost("des.ns_per_event", "ns"),
    rate("des.dispatch_per_s", "1/s"),
    // arctic
    exact_up("arctic.packets", "count"),
    rate("arctic.packets_per_s", "1/s"),
    exact("arctic.stage_crossings", "count"),
    cost("arctic.build_us", "us"),
    cost("arctic.bitrev_s", "s"),
    cost("arctic.uniform_s", "s"),
    cost("arctic.nn_s", "s"),
    cost("arctic.observed_ratio", "ratio"),
    exact("arctic.bitrev_latency_mean_us", "us"),
    exact("arctic.uniform_latency_mean_us", "us"),
    exact_up("arctic.nn_mbyte_per_s", "MB/s"),
    exact("arctic.crc_failures", "count"),
    // startx
    rate("startx.vi_transfers_per_s", "1/s"),
    rate("startx.logp_rows_per_s", "1/s"),
    exact("startx.pio_rtt_half_us", "us"),
    exact_up("startx.vi_peak_mbyte_per_s", "MB/s"),
    // cluster
    rate("cluster.model_calls_per_s", "1/s"),
    rate("cluster.ether_frames_per_s", "1/s"),
    // core, telemetry, perf, fault — the tour
    cost("core.tour_s", "s"),
    cost("core.diag_s", "s"),
    cost("core.critpath_s", "s"),
    cost("core.resilient_s", "s"),
    cost("telemetry.export_s", "s"),
    exact("telemetry.spans", "count"),
    exact("telemetry.chrome_bytes", "B"),
    exact("telemetry.bundle_bytes", "B"),
    exact("telemetry.critpath_residual", "ratio"),
    exact("telemetry.critpath_msgs", "count"),
    exact("perf.model_residual", "ratio"),
    exact("perf.step_residual", "ratio"),
    exact("fault.restarts", "count"),
    exact("fault.replayed_steps", "count"),
    exact("fault.retries", "count"),
    exact("fault.backoff_waits", "count"),
    // lint
    exact("lint.files", "count"),
    exact("lint.lines", "count"),
    exact("lint.functions", "count"),
    rate("lint.lines_per_s", "1/s"),
    cost("lint.collect_s", "s"),
    cost("lint.flow_s", "s"),
    cost("lint.uniform_s", "s"),
    cost("lint.rules_s", "s"),
    exact("lint.flow_edges", "count"),
    exact("lint.uniform_edges", "count"),
    exact("lint.violations", "count"),
    // bench — the harness
    cost("bench.trace_overhead", "ratio"),
    cost("bench.cpu_s", "s"),
    cost("bench.rep_iqr", "ratio"),
    rate("bench.triad_gb_per_s", "GB/s"),
];

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// The contract file at the repository root, generated from the tables
/// above (`hbench spec > BENCHMARK.json`).
pub fn spec() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"hbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"hbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                    d.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

/// Per-layer readings of one traced run. Every name of [`PER_LAYER`] is
/// present; a layer the workload does not drive reads 0.
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|d| (d.name, 0.0)).collect())
    }
}

impl LayerMetrics {
    /// Record `value` under `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("`{name}` is not a per-layer metric of this benchmark"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `count / seconds`, 0 when no time was recorded (tracing off).
pub fn per_second(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(END_TO_END.iter().map(|d| (d.name, d.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is `hbench spec`, verbatim.
    #[test]
    fn benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            spec(),
            "regenerate with `hbench spec > BENCHMARK.json`"
        );
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_metric_names_are_rejected() {
        LayerMetrics::default().set("gcm.typo", 1.0);
    }
}
