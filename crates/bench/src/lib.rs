//! # hyades-bench — figure benches and the JSON reader
//!
//! Criterion benches regenerating each table/figure of the paper (the
//! reported values are the *simulated* quantities), plus ablation studies
//! of the design decisions DESIGN.md calls out, and the `export_figures`
//! bin. `examples/reproduce_all.rs` at the workspace root prints every
//! experiment's table in one run.
//!
//! Host times are not taken here: `hbench/` (the package behind
//! `BENCHMARK.json`) is the repository's one benchmark, and correctness
//! gates live in `cargo test`. [`diff`] keeps the flattening JSON reader
//! `hbench` imports.

pub mod diff;

/// Shared tiny-config builders for kernel benchmarks.
pub mod setup {
    use hyades_gcm::config::ModelConfig;
    use hyades_gcm::decomp::Decomp;
    use hyades_gcm::driver::Model;

    /// A paper-shaped (32×32×5 tile) single-rank model.
    pub fn tile_model() -> Model {
        let d = Decomp::blocks(32, 32, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(32, 32, 5, d);
        Model::new(cfg, 0)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tile_model_is_paper_shaped() {
        let m = super::setup::tile_model();
        assert_eq!(m.tile.nx * m.tile.ny * m.cfg.grid.nz, 5120);
        assert_eq!(m.tile.halo, 3);
    }
}
