//! Comparator machines of Figure 10.
//!
//! Figure 10 compares the sustained performance of the coarse-resolution
//! ocean isomorph across contemporary vector supercomputers and Hyades.
//! The vector machines are comparator data: we model each as a peak rate ×
//! a vector efficiency on the GCM kernel, with the sustained values pinned
//! to the paper's measurements. The Hyades rows, by contrast, are
//! *computed* by this reproduction from the performance model
//! (`hyades::perf`), not copied.

/// A vector supercomputer entry.
#[derive(Clone, Debug)]
pub struct VectorMachine {
    pub name: &'static str,
    pub processors: u32,
    /// Architectural peak per processor, MFlop/s.
    pub peak_mflops_per_proc: f64,
    /// Sustained MFlop/s on the GCM ocean isomorph (paper's Figure 10).
    pub sustained_mflops: f64,
}

impl VectorMachine {
    /// Fraction of peak the GCM kernel sustains.
    pub fn efficiency(&self) -> f64 {
        self.sustained_mflops / (self.peak_mflops_per_proc * self.processors as f64)
    }
}

/// The vector-machine rows of Figure 10.
///
/// Peak rates: Cray Y-MP 333 MFlop/s per CPU, Cray C90 ~1 GFlop/s per CPU,
/// NEC SX-4 2 GFlop/s per CPU. Note the paper's Y-MP single-processor
/// figure (0.4 GFlop/s) nominally exceeds the Y-MP peak — we preserve the
/// published value and surface the anomaly via `efficiency() > 1`.
pub fn figure10_vector_rows() -> Vec<VectorMachine> {
    vec![
        VectorMachine {
            name: "Cray Y-MP",
            processors: 1,
            peak_mflops_per_proc: 333.0,
            sustained_mflops: 400.0,
        },
        VectorMachine {
            name: "Cray Y-MP",
            processors: 4,
            peak_mflops_per_proc: 333.0,
            sustained_mflops: 1_500.0,
        },
        VectorMachine {
            name: "Cray C90",
            processors: 1,
            peak_mflops_per_proc: 1_000.0,
            sustained_mflops: 600.0,
        },
        VectorMachine {
            name: "Cray C90",
            processors: 4,
            peak_mflops_per_proc: 1_000.0,
            sustained_mflops: 2_200.0,
        },
        VectorMachine {
            name: "NEC SX-4",
            processors: 1,
            peak_mflops_per_proc: 2_000.0,
            sustained_mflops: 700.0,
        },
        VectorMachine {
            name: "NEC SX-4",
            processors: 4,
            peak_mflops_per_proc: 2_000.0,
            sustained_mflops: 2_700.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contents() {
        let rows = figure10_vector_rows();
        assert_eq!(rows.len(), 6);
        let c90_4 = rows
            .iter()
            .find(|r| r.name == "Cray C90" && r.processors == 4)
            .unwrap();
        assert_eq!(c90_4.sustained_mflops, 2_200.0);
    }

    #[test]
    fn multi_processor_scaling_is_sublinear() {
        let rows = figure10_vector_rows();
        for name in ["Cray Y-MP", "Cray C90", "NEC SX-4"] {
            let one = rows
                .iter()
                .find(|r| r.name == name && r.processors == 1)
                .unwrap();
            let four = rows
                .iter()
                .find(|r| r.name == name && r.processors == 4)
                .unwrap();
            let speedup = four.sustained_mflops / one.sustained_mflops;
            assert!(
                speedup > 3.0 && speedup <= 4.0,
                "{name}: 4-proc speedup {speedup}"
            );
        }
    }

    #[test]
    fn efficiencies_reasonable_except_ymp_anomaly() {
        for r in figure10_vector_rows() {
            if r.name == "Cray Y-MP" {
                // Published sustained exceeds nominal peak; documented.
                assert!(r.efficiency() > 1.0);
            } else {
                assert!(
                    (0.2..0.8).contains(&r.efficiency()),
                    "{}: {}",
                    r.name,
                    r.efficiency()
                );
            }
        }
    }
}
