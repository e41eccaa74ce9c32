//! `hbench compare A.json B.json`: apply the bounds to two result sets.
//!
//! One row per workload × end-to-end metric: both values, the ratio with
//! its base, the bound, and a verdict. Exact per-layer values are compared
//! for equality and listed when they differ. The model is only ever
//! compared with itself — two commits, or two runs of one commit.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use hyades_bench::diff::{flatten_json, Val};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread within a set is wider than the bound and the two sets'
    /// ranges overlap: the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the summary of the
/// samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub samples: Summary,
}

/// By how much `b` is worse than `a`, as a share of `a`'s value
/// (negative when better).
pub fn worsening(a: &Reading, b: &Reading, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    delta / a.value.abs()
}

/// Judge candidate `b` against base `a`. With a spread inside the bound
/// the reported values decide. With a wider spread only disjoint ranges
/// decide: every sample of `b` better than every sample of `a` is ok,
/// every sample worse and the values apart by more than the bound is a
/// regression, anything else is unresolved.
pub fn judge(a: &Reading, b: &Reading, better: Better, bound: f64) -> Verdict {
    let worse = worsening(a, b, better);
    let (a, b) = (&a.samples, &b.samples);
    let spread = a.rel_iqr().max(b.rel_iqr());
    if spread <= bound {
        return if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let (b_all_better, b_all_worse) = match better {
        Better::Lower => (b.max < a.min, b.min > a.max),
        Better::Higher => (b.min > a.max, b.max < a.min),
    };
    if b_all_better {
        Verdict::Ok
    } else if b_all_worse && worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

type Flat = BTreeMap<String, Val>;

fn num(flat: &Flat, key: &str) -> Result<f64, String> {
    match flat.get(key) {
        Some(Val::Num(n)) => Ok(*n),
        other => Err(format!("{key}: expected a number, found {other:?}")),
    }
}

fn reading(flat: &Flat, prefix: &str) -> Result<Reading, String> {
    let f = |field: &str| num(flat, &format!("{prefix}.{field}"));
    Ok(Reading {
        value: f("value")?,
        samples: Summary {
            n: f("n")? as usize,
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
        },
    })
}

/// Compare two `results.json` documents; returns the report and whether
/// nothing regressed.
pub fn compare(a_src: &str, b_src: &str) -> Result<(String, bool), String> {
    let (a, b) = (flatten_json(a_src)?, flatten_json(b_src)?);
    let mut out = String::new();
    let mut regressed = 0;
    let _ = writeln!(
        out,
        "{:<17} {:<12} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for w in WORKLOADS {
        let run = format!("workloads.{}.untraced", w.name);
        for d in END_TO_END {
            let key = format!("{run}.end_to_end.{}", d.name);
            let (sa, sb) = (reading(&a, &key)?, reading(&b, &key)?);
            let v = judge(&sa, &sb, d.better, d.bound);
            regressed += usize::from(v == Verdict::Regressed);
            let _ = writeln!(
                out,
                "{:<17} {:<12} {:>12.6} {:>12.6} {:>9.4} {:>6.2}  {}",
                w.name,
                d.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                d.bound,
                v.as_str()
            );
        }
        // Failed output checks: bound 0, any rise fails.
        let frac = |f: &Flat| -> Result<f64, String> {
            Ok(num(f, &format!("{run}.failed"))? / num(f, &format!("{run}.attempted"))?)
        };
        let (fa, fb) = (frac(&a)?, frac(&b)?);
        let v = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed += usize::from(v == Verdict::Regressed);
        let _ = writeln!(
            out,
            "{:<17} {:<12} {:>12.6} {:>12.6} {:>9} {:>6.2}  {}",
            w.name,
            "failed_frac",
            fa,
            fb,
            "-",
            0.0,
            v.as_str()
        );
    }
    let mut differing = 0;
    for w in WORKLOADS {
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let key = format!("workloads.{}.traced.per_layer.{}.value", w.name, d.name);
            let (va, vb) = (num(&a, &key)?, num(&b, &key)?);
            if va.to_bits() != vb.to_bits() {
                differing += 1;
                let _ = writeln!(
                    out,
                    "exact value differs: {:<17} {:<34} A {va} B {vb} [{}]",
                    w.name, d.name, d.unit
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{regressed} regressed, {differing} exact value(s) differ"
    );
    Ok((out, regressed == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A median-valued reading of the given samples.
    fn reading(samples: &[f64]) -> Reading {
        let samples = Summary::of(samples);
        Reading {
            value: samples.median,
            samples,
        }
    }

    fn tight(median: f64) -> Reading {
        reading(&[median * 0.99, median, median * 1.01])
    }

    #[test]
    fn values_decide_when_the_spread_is_inside_the_bound() {
        let a = tight(1.0);
        assert_eq!(judge(&a, &tight(1.05), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &tight(0.5), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&a, &tight(1.2), Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Direction matters: a lower rate is the regression.
        assert_eq!(
            judge(&a, &tight(0.8), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &tight(1.2), Better::Higher, 0.10), Verdict::Ok);
        assert!((worsening(&a, &tight(1.2), Better::Lower) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_the_ranges_are_disjoint() {
        let noisy = reading(&[0.8, 1.0, 1.3]);
        assert!(noisy.samples.rel_iqr() > 0.10);
        // Overlapping ranges: noise, whichever way the medians point.
        assert_eq!(
            judge(&noisy, &tight(1.2), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &tight(0.9), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every reading of B better than every reading of A.
        assert_eq!(judge(&noisy, &tight(0.5), Better::Lower, 0.10), Verdict::Ok);
        // Every reading worse, medians apart by more than the bound.
        assert_eq!(
            judge(&noisy, &tight(2.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
    }
}
