//! Rendering one run: the human-readable table, the driver's one-line
//! JSON result, and the detailed document `hbench all` collects into
//! `results.json`.

use crate::harness::RunResult;
use crate::metrics::{LayerMetrics, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::fmt::Write as _;

/// A JSON number with all its digits; JSON has no NaN or infinity, and a
/// benchmark that produced one has failed, so they render as `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The reported value of each end-to-end metric of `r` with the samples'
/// summary behind it, in table order. `wall_s` is the fastest
/// repetition: the job is deterministic and on a shared host
/// interference only ever adds time, so the minimum is the reading that
/// repeats; `setup_s` is the median of the set-ups.
fn end_to_end(r: &RunResult) -> [(f64, Summary); 3] {
    let rss = Summary::single(r.peak_rss_mb);
    [
        (r.wall.min, r.wall),
        (r.setup.median, r.setup),
        (rss.median, rss),
    ]
}

/// Every layer metric must have been a finite number for a run to count
/// as correct, on top of zero failed checks.
pub fn is_correct(r: &RunResult) -> bool {
    r.failed == 0
        && r.attempted > 0
        && end_to_end(r).iter().all(|(v, _)| v.is_finite())
        && r.layers
            .iter()
            .all(|m| PER_LAYER.iter().all(|d| m.get(d.name).is_finite()))
}

fn head(r: &RunResult) -> String {
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}",
        is_correct(r),
        r.attempted,
        r.failed
    )
}

fn layer_rows(m: &LayerMetrics, row: impl Fn(&crate::metrics::PerLayer, f64) -> String) -> String {
    PER_LAYER
        .iter()
        .map(|d| row(d, m.get(d.name)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being the end-to-end ones of an
/// untraced run or the per-layer ones of a traced run.
pub fn driver_line(r: &RunResult) -> String {
    let metrics = match &r.layers {
        Some(m) => layer_rows(m, |d, v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(v),
                d.unit
            )
        }),
        None => END_TO_END
            .iter()
            .zip(end_to_end(r))
            .map(|(d, (v, _))| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    number(v),
                    d.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    };
    format!("{{{}, \"metrics\": {{{metrics}}}}}", head(r))
}

/// The detailed document of one run: the end-to-end metrics with their
/// spread (always — a traced run's are informative only), and the
/// per-layer metrics with their exactness flag when traced.
pub fn detail_json(r: &RunResult) -> String {
    let e2e = END_TO_END
        .iter()
        .zip(end_to_end(r))
        .map(|(d, (v, s))| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                d.name,
                number(v),
                d.unit,
                number(s.median),
                number(s.q1),
                number(s.q3),
                number(s.min),
                number(s.max),
                s.n
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let layers = r.layers.as_ref().map_or(String::new(), |m| {
        layer_rows(m, |d, v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"exact\": {}}}",
                d.name,
                number(v),
                d.unit,
                d.exact
            )
        })
    });
    format!(
        "{{{}, \"end_to_end\": {{{e2e}}}, \"per_layer\": {{{layers}}}}}",
        head(r)
    )
}

/// Every metric by name with its unit, for a person.
pub fn human(name: &str, seed: u64, r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workload {name}  seed {seed}  checks {}/{} failed  ops_attempted {}  ops_failed {}",
        r.failed, r.attempted, r.attempted, r.failed
    );
    for (d, (v, q)) in END_TO_END.iter().zip(end_to_end(r)) {
        let _ = writeln!(
            s,
            "  {:<34} {:>16.6} {:<8} median {:.6}  q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {}",
            d.name, v, d.unit, q.median, q.q1, q.q3, q.min, q.max, q.n
        );
    }
    let reps: Vec<String> = r.reps.iter().map(|t| format!("{t:.4}")).collect();
    let _ = writeln!(s, "  untraced repetitions (s): {}", reps.join(" "));
    if let Some(m) = &r.layers {
        for d in PER_LAYER {
            let v = m.get(d.name);
            if v != 0.0 {
                let tag = if d.exact { "exact" } else { "" };
                let _ = writeln!(s, "  {:<34} {:>16.6} {:<8} {tag}", d.name, v, d.unit);
            }
        }
        if let Some(p) = &r.trace_file {
            let _ = writeln!(s, "  trace: {}", p.display());
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(layers: Option<LayerMetrics>, failed: u64) -> RunResult {
        RunResult {
            attempted: 10,
            failed,
            wall: Summary::of(&[1.0, 1.25, 1.5]),
            reps: vec![1.0, 1.25, 1.5],
            setup: Summary::of(&[2.0, 2.5, 3.0]),
            peak_rss_mb: 40.5,
            layers,
            trace_file: None,
        }
    }

    #[test]
    fn untraced_line_has_exactly_the_end_to_end_metrics() {
        let line = driver_line(&result(None, 0));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 40.5, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn traced_line_names_every_per_layer_metric_and_no_other() {
        let mut m = LayerMetrics::default();
        m.set("gcm.sdpd", 1234.5);
        let r = result(Some(m), 0);
        let flat = hyades_bench::diff::flatten_json(&driver_line(&r)).unwrap();
        for d in PER_LAYER {
            assert!(
                flat.contains_key(&format!("metrics.{}.value", d.name)),
                "{}",
                d.name
            );
        }
        assert!(!flat.contains_key("metrics.wall_s.value"));
        // 3 head keys + value and unit per metric.
        assert_eq!(flat.len(), 3 + 2 * PER_LAYER.len());
        // The detailed document carries both groups.
        let flat = hyades_bench::diff::flatten_json(&detail_json(&r)).unwrap();
        assert!(flat.contains_key("end_to_end.wall_s.q3"));
        assert!(flat.contains_key("per_layer.gcm.nps.exact"));
    }

    #[test]
    fn failures_and_non_finite_readings_are_not_correct() {
        assert!(!is_correct(&result(None, 1)));
        let mut m = LayerMetrics::default();
        m.set("des.ns_per_event", f64::NAN);
        let r = result(Some(m), 0);
        assert!(!is_correct(&r));
        assert!(driver_line(&r).contains("\"des.ns_per_event\": {\"value\": null"));
    }
}
