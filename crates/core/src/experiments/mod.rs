//! The experiment registry: one entry per table/figure of the paper, and
//! the one regenerator of every paper number. [`bundle`] hands the reports
//! and the figures' point data to the `Exporter` path;
//! `examples/reproduce_all.rs` is its command line.
//!
//! | id | artefact | module |
//! |----|----------|--------|
//! | E1 | Figure 2 — LogP of PIO messaging | [`fig2`] |
//! | E2 | Figure 7 — VI bandwidth vs block size | [`fig7`] |
//! | E3 | §4.2 — global-sum latencies + fit | [`gsum`] |
//! | E4 | Figure 10 — platform comparison | [`fig10`] |
//! | E5 | Figure 11 — performance-model parameters | [`fig11`] |
//! | E6 | §5.3 — model validation | [`sec53`] |
//! | E7 | Figure 12 — Pfpp by interconnect | [`fig12`] |
//! | E8 | §6 — HPVM comparison | [`hpvm`] |
//! | E9 | Figure 9 — model output maps | [`fig9`] |
//! | E10 | §6 — century-in-two-weeks throughput | [`century`] |
//! | E11 | §6 — generality tax (MPI vs custom) | [`api_tax`] |
//! | E12 | §2.2 — routing under adversarial traffic | [`routing`] |
//! | E13 | §1/§6 — price-performance economics | [`economics`] |
//! | E14 | §5.3 extended — model-vs-measured phase profiling | [`profiling`] |
//! | E15 | §2.2/§6 — fabric observatory: per-link telemetry under congestion | [`observatory`] |
//! | E16 | §4 — schedule proof + happens-before audit | [`schedcheck`] |
//! | E17 | §4/§5 — interprocedural determinism proof of the artefact surface | [`detflow`] |
//! | E18 | §5/§6 — GCM run-health observatory over a coupled run | [`runhealth`] |
//! | E19 | §5/§6 — cross-rank critical path of a coupled step | [`critpath`] |
//! | E20 | §3/§5 — static SPMD collective-uniformity proof | [`spmd`] |
//! | E21 | §2.2/§4/§6 — fault injection and recovery | [`recovery`] |

pub mod api_tax;
pub mod century;
pub mod critpath;
pub mod detflow;
pub mod economics;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig7;
pub mod fig9;
pub mod gsum;
pub mod hpvm;
pub mod observatory;
pub mod profiling;
pub mod recovery;
pub mod routing;
pub mod runhealth;
pub mod schedcheck;
pub mod sec53;
pub mod spmd;

use hyades_telemetry::{Artifact, ArtifactKind, Prebuilt};

/// A registered experiment.
pub struct Experiment {
    pub id: &'static str,
    pub paper_artefact: &'static str,
    /// The report: tables with paper values alongside.
    pub run: fn() -> String,
    /// The figure's point data, where the experiment measures a curve or
    /// a table worth plotting.
    pub csv: Option<fn() -> String>,
}

/// Run the experiments named in `ids` (every one when `ids` is empty; an
/// id the registry lacks selects nothing) and hand their artifacts over
/// in registry order: `<id>.txt`, the headed report, then `<id>.csv`
/// where the experiment has point data.
pub fn bundle(ids: &[&str]) -> Prebuilt {
    let mut artifacts = Vec::new();
    for exp in all() {
        if ids.is_empty() || ids.contains(&exp.id) {
            let report = format!("[{}] {}\n\n{}", exp.id, exp.paper_artefact, (exp.run)());
            artifacts.push(Artifact::new(exp.id, ArtifactKind::Text, report));
            if let Some(csv) = exp.csv {
                artifacts.push(Artifact::new(exp.id, ArtifactKind::Csv, csv()));
            }
        }
    }
    Prebuilt::new(artifacts)
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            paper_artefact: "Figure 2: LogP characteristics of PIO message passing",
            run: fig2::run,
            csv: Some(fig2::csv),
        },
        Experiment {
            id: "E2",
            paper_artefact: "Figure 7: transfer bandwidth as a function of block size",
            run: fig7::run,
            csv: Some(fig7::csv),
        },
        Experiment {
            id: "E3",
            paper_artefact: "Section 4.2: global sum latencies and least-squares fit",
            run: gsum::run,
            csv: Some(gsum::csv),
        },
        Experiment {
            id: "E4",
            paper_artefact: "Figure 10: sustained performance across platforms",
            run: fig10::run,
            csv: None,
        },
        Experiment {
            id: "E5",
            paper_artefact: "Figure 11: performance model parameters",
            run: fig11::run,
            csv: None,
        },
        Experiment {
            id: "E6",
            paper_artefact: "Section 5.3: validation of the performance model",
            run: sec53::run,
            csv: None,
        },
        Experiment {
            id: "E7",
            paper_artefact: "Figure 12: Potential Floating-Point Performance",
            run: fig12::run,
            csv: Some(fig12::csv),
        },
        Experiment {
            id: "E8",
            paper_artefact: "Section 6: HPVM/Myrinet comparison",
            run: hpvm::run,
            csv: None,
        },
        Experiment {
            id: "E9",
            paper_artefact: "Figure 9: model output (currents and winds)",
            run: fig9::run,
            csv: None,
        },
        Experiment {
            id: "E10",
            paper_artefact: "Section 6: century-long coupled simulation in two weeks",
            run: century::run,
            csv: None,
        },
        Experiment {
            id: "E11",
            paper_artefact: "Section 6: generality tax (MPI-StarT vs custom primitives)",
            run: api_tax::run,
            csv: None,
        },
        Experiment {
            id: "E12",
            paper_artefact: "Section 2.2: fabric routing under adversarial traffic",
            run: routing::run,
            csv: Some(routing::csv),
        },
        Experiment {
            id: "E13",
            paper_artefact: "Sections 1/2/6: price-performance of a personal supercomputer",
            run: economics::run,
            csv: None,
        },
        Experiment {
            id: "E14",
            paper_artefact: "Section 5.3 extended: model-vs-measured phase profiling",
            run: profiling::run,
            csv: None,
        },
        Experiment {
            id: "E15",
            paper_artefact:
                "Sections 2.2/6: fabric observatory, per-link telemetry under congestion",
            run: observatory::run,
            csv: None,
        },
        Experiment {
            id: "E16",
            paper_artefact: "Section 4: communication schedule proof and happens-before audit",
            run: schedcheck::run,
            csv: None,
        },
        Experiment {
            id: "E17",
            paper_artefact:
                "Sections 4/5: interprocedural determinism proof of the artefact surface",
            run: detflow::run,
            csv: None,
        },
        Experiment {
            id: "E18",
            paper_artefact: "Sections 5/6: GCM run-health observatory over a coupled run",
            run: runhealth::run,
            csv: None,
        },
        Experiment {
            id: "E19",
            paper_artefact: "Sections 5/6: cross-rank critical path of a coupled step",
            run: critpath::run,
            csv: None,
        },
        Experiment {
            id: "E20",
            paper_artefact: "Sections 3/5: static SPMD collective-uniformity proof",
            run: spmd::run,
            csv: None,
        },
        Experiment {
            id: "E21",
            paper_artefact:
                "Sections 2.2/4/6: fault injection and recovery (retransmit + checkpoint/rollback)",
            run: recovery::run,
            csv: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_is_complete() {
        let all = super::all();
        assert_eq!(all.len(), 21);
        let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
                "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21"
            ]
        );
    }
}
