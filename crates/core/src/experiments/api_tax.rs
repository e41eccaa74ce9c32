//! E11 — §6: the cost of API generality (MPI-StarT vs custom primitives).
//!
//! "The Hyades cluster does have general-purpose, high-level programming
//! interfaces, like MPI-StarT and Cilk … However, in an
//! application-specific cluster, there is little reason to give up any
//! performance for an API that is more general than required."
//! This experiment puts a number on "any performance".

use crate::perf::model::paper_atmosphere;
use crate::perf::pfpp::pfpp_ds;
use crate::perf::report::Table;
use hyades_cluster::interconnect::{arctic_paper, ExchangeShape, Interconnect};
use hyades_comms::mpistart::{mpistart_model, reduction_tax};

pub fn run() -> String {
    let mut t = Table::new(&["N-way reduction", "custom (us)", "MPI-StarT (us)", "tax"]);
    for n in [2u16, 4, 8, 16] {
        let (custom, mpi) = reduction_tax(n);
        t.row(&[
            n.to_string(),
            format!("{custom:.1}"),
            format!("{mpi:.1}"),
            format!("{:.1}x", mpi / custom),
        ]);
    }
    // Application-level consequence: Pfpp_ds through each API.
    let base = paper_atmosphere();
    let custom_model = base.on_interconnect(&arctic_paper(), 5, 8);
    let mpi_model = base.on_interconnect(&mpistart_model(), 5, 8);
    let ds = ExchangeShape::square_tile(32, 1, 1, 8);
    format!(
        "E11 Section 6: the generality tax (same fabric, different API)\n\n{}\n\
         DS-phase exchange (2-D field): custom {:.0} us vs MPI {:.0} us\n\
         Pfpp_ds through the custom primitives: {:.0} MF/s\n\
         Pfpp_ds through MPI-StarT:            {:.0} MF/s\n\
         The custom library keeps the application compute-bound (Pfpp_ds > 60);\n\
         a general-purpose API on the *same hardware* gives most of that back.\n\
         (The primitives took \"less than one man-month\" to write — the paper's\n\
         trade.)\n",
        t.render(),
        arctic_paper().exchange_time(&ds).as_us_f64(),
        mpistart_model().exchange_time(&ds).as_us_f64(),
        pfpp_ds(&custom_model),
        pfpp_ds(&mpi_model),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpi_halves_or_worse_the_fine_grain_headroom() {
        let base = paper_atmosphere();
        let custom = pfpp_ds(&base.on_interconnect(&arctic_paper(), 5, 8));
        let mpi = pfpp_ds(&base.on_interconnect(&mpistart_model(), 5, 8));
        assert!(mpi < 0.55 * custom, "custom {custom} vs mpi {mpi}");
        // Custom clears the 60 MF/s bar…
        assert!(custom > 60.0);
        // …MPI on the same fabric is marginal-to-failing.
        assert!(mpi < 80.0);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("generality tax"));
        assert!(r.contains("man-month"));
    }
}
