//! High-level scenario builders: the entry points the examples use.

use hyades_gcm::config::ModelConfig;
use hyades_gcm::coupler::CoupledModel;
use hyades_gcm::decomp::Decomp;
use hyades_gcm::driver::Model;
use hyades_gcm::grid::{stretched_levels, Grid};

/// The paper's coupled configuration at 2.8125° (atmosphere: 5 levels,
/// ocean: 15 levels with idealized continents), as a single-rank
/// functional run. `couple_every` steps between boundary exchanges.
pub fn paper_coupled_scenario(couple_every: u64) -> CoupledModel {
    let d = Decomp::blocks(128, 64, 1, 1, 3);
    let atmos = Model::new(ModelConfig::atmosphere_2p8125(d), 0);
    let ocean = Model::new(ModelConfig::ocean_2p8125(d), 0);
    CoupledModel::new(atmos, ocean, couple_every)
}

/// A reduced-size coupled scenario for fast demonstrations and tests:
/// `nx × ny` grid, shorter time steps, same physics.
pub fn small_coupled_scenario(nx: usize, ny: usize, couple_every: u64) -> CoupledModel {
    let d = Decomp::blocks(nx, ny, 1, 1, 3);
    let mut acfg = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
    acfg.grid = Grid::global(nx, ny, 5, 78.75, vec![2.0e4; 5]);
    acfg.decomp = d;
    let mut ocfg = ModelConfig::ocean_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
    ocfg.grid = Grid::global(nx, ny, 15, 78.75, stretched_levels(15, 4000.0));
    ocfg.decomp = d;
    ocfg.continents = true;
    let atmos = Model::new(acfg, 0);
    let ocean = Model::new(ocfg, 0);
    CoupledModel::new(atmos, ocean, couple_every)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyades_comms::SerialWorld;

    #[test]
    fn small_coupled_scenario_steps() {
        let mut c = small_coupled_scenario(16, 8, 2);
        let mut wa = SerialWorld;
        let mut wo = SerialWorld;
        for _ in 0..4 {
            let (sa, so) = c.step(&mut wa, &mut wo);
            assert!(sa.cg_converged && so.cg_converged);
        }
        assert!(c.atmos.state.is_finite() && c.ocean.state.is_finite());
    }
}
