//! End-of-run aggregation and exporters.
//!
//! [`RunTelemetry`] pools per-rank recordings (merged in rank order, so
//! the result is deterministic) and renders them two ways:
//!
//! * [`chrome_trace_json`](RunTelemetry::chrome_trace_json) — Chrome
//!   trace-event JSON ("X" complete events), loadable in
//!   `chrome://tracing` or Perfetto. Hand-rolled: the format is four
//!   fields per event.
//!   Timestamps are microseconds derived *exactly* from the integer
//!   picosecond clock (`ps / 10^6` with six fixed decimals), so the
//!   bytes are reproducible.
//! * [`text_summary`](RunTelemetry::text_summary) — a deterministic text
//!   report: phase totals, span series, counters, statistics, histogram
//!   quantiles.
//!
//! Both outputs are byte-identical across double runs with the same seed
//! (asserted by `tests/determinism.rs`).

use crate::commlog::Stamped;
use crate::matcher;
use crate::recorder::{PhaseTotals, RankTelemetry, DES_PID, GCM_PID};
use crate::registry::Registry;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

/// One matched send→recv pair rendered as a Chrome flow (`ph:"s"` start
/// on the sender's track, `ph:"f"` finish on the receiver's), so the
/// cross-rank dependency arrows are visible in a trace viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    pub src: usize,
    pub dst: usize,
    /// Sender-side timestamp (op start on the sender's charged clock).
    pub send_ps: u64,
    /// Receiver-side timestamp (op end on the receiver's charged clock).
    pub recv_ps: u64,
    pub words: usize,
}

/// Build flow events from stamped per-rank comm logs by matching sends
/// to receives with the vector-clock replay. Unmatchable logs (a real
/// ordering bug) yield no flows rather than a poisoned trace.
pub fn flows_from_stamped(logs: &[Vec<Stamped>]) -> Vec<FlowEvent> {
    let bare: Vec<Vec<_>> = logs
        .iter()
        .map(|l| l.iter().map(|s| s.ev).collect())
        .collect();
    matcher::replay(&bare).map_or_else(|_| Vec::new(), |run| matched_flows(logs, &run))
}

/// The flow events of the messages `run` matched in `logs` (the replay of
/// their bare events).
pub(crate) fn matched_flows(logs: &[Vec<Stamped>], run: &matcher::MatchedRun) -> Vec<FlowEvent> {
    run.messages
        .iter()
        .map(|m| {
            let send = &logs[m.src][m.send_idx];
            let recv = &logs[m.dst][m.recv_idx];
            FlowEvent {
                src: m.src,
                dst: m.dst,
                // The send is posted at the op's start (the charged span
                // covers the whole primitive); the message lands when
                // the receiver's op completes.
                send_ps: send.at_ps.saturating_sub(send.cost_ps),
                recv_ps: recv.at_ps,
                words: m.words,
            }
        })
        .collect()
}

/// A whole run's telemetry: one [`RankTelemetry`] per rank, in rank
/// order, plus optional cross-rank flow events.
#[derive(Debug, Default)]
pub struct RunTelemetry {
    pub ranks: Vec<RankTelemetry>,
    pub flows: Vec<FlowEvent>,
}

impl RunTelemetry {
    pub fn from_ranks(ranks: Vec<RankTelemetry>) -> RunTelemetry {
        RunTelemetry {
            ranks,
            flows: Vec::new(),
        }
    }

    pub fn single(rank: RankTelemetry) -> RunTelemetry {
        RunTelemetry {
            ranks: vec![rank],
            flows: Vec::new(),
        }
    }

    /// Attach cross-rank flow events (see [`flows_from_stamped`]).
    pub fn set_flows(&mut self, flows: Vec<FlowEvent>) {
        self.flows = flows;
    }

    /// All rank registries pooled (counters summed, stats/histograms
    /// merged).
    pub fn merged_registry(&self) -> Registry {
        let mut out = Registry::new();
        for r in &self.ranks {
            out.merge(&r.registry);
        }
        out
    }

    /// Phase totals summed across ranks.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut out = PhaseTotals::default();
        for r in &self.ranks {
            out.merge(&r.phases);
        }
        out
    }

    /// Total number of spans across ranks.
    pub fn span_count(&self) -> usize {
        self.ranks.iter().map(|r| r.spans.len()).sum()
    }

    /// Chrome trace-event JSON (see module docs).
    pub fn chrome_trace_json(&self) -> String {
        // Sized for the events up front (a span renders to about 100
        // bytes, a flow to two events of that size), so that a trace of
        // megabytes is not grown by doubling and copying.
        let mut out =
            String::with_capacity(1024 + 128 * (self.span_count() + 2 * self.flows.len()));
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;

        // Metadata: name the two processes and every track that appears.
        let mut tracks: BTreeSet<(u32, u64)> = BTreeSet::new();
        for r in &self.ranks {
            for s in &r.spans {
                tracks.insert((s.pid, s.tid));
            }
        }
        let pids: BTreeSet<u32> = tracks.iter().map(|&(p, _)| p).collect();
        for pid in pids {
            let pname = match pid {
                GCM_PID => "gcm charged timeline",
                DES_PID => "des event timeline",
                _ => "telemetry",
            };
            comma(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                Escaped(pname)
            );
        }
        for &(pid, tid) in &tracks {
            let kind = if pid == GCM_PID { "rank" } else { "actor" };
            comma(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{kind} {tid}\"}}}}",
            );
        }

        // Complete ("X") events, in rank order then recording order.
        for r in &self.ranks {
            for s in &r.spans {
                comma(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":{},\"tid\":{}}}",
                    Escaped(s.name),
                    Escaped(s.cat),
                    Us(s.start.as_ps()),
                    Us(s.dur.as_ps()),
                    s.pid,
                    s.tid
                );
            }
        }

        // Flow events: one "s" (start, sender track) / "f" (finish,
        // receiver track) pair per matched message, on the GCM charged
        // timeline. `bp:"e"` binds the finish to the enclosing slice.
        for (id, fl) in self.flows.iter().enumerate() {
            comma(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"msg {} words\",\"cat\":\"comm\",\"ph\":\"s\",\"id\":{},\
                 \"ts\":{},\"pid\":{},\"tid\":{}}}",
                fl.words,
                id,
                Us(fl.send_ps),
                GCM_PID,
                fl.src
            );
            comma(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"msg {} words\",\"cat\":\"comm\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                fl.words,
                id,
                Us(fl.recv_ps),
                GCM_PID,
                fl.dst
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Deterministic text report (see module docs).
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "hyades telemetry summary");
        let _ = writeln!(out, "========================");
        let _ = writeln!(
            out,
            "ranks: {}  spans: {}",
            self.ranks.len(),
            self.span_count()
        );

        let p = self.phase_totals();
        let _ = writeln!(out, "\n[phase totals, summed over ranks]");
        for (name, d) in [
            ("ps.compute", p.ps_compute),
            ("ps.comm", p.ps_comm),
            ("ds.compute", p.ds_compute),
            ("ds.comm", p.ds_comm),
            ("outside.comm", p.outside_comm),
        ] {
            let _ = writeln!(out, "  {name:<14} {:>16.3} us", d.as_us_f64());
        }

        // Span series pooled over ranks, keyed (cat, name).
        let mut series: std::collections::BTreeMap<(&str, &str), (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for r in &self.ranks {
            for s in &r.spans {
                let e = series.entry((s.cat, s.name)).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += s.dur.as_ps();
                e.2 = e.2.max(s.dur.as_ps());
            }
        }
        let _ = writeln!(out, "\n[span series]");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>14} {:>12} {:>12}",
            "cat/name", "count", "total_us", "mean_us", "max_us"
        );
        for ((cat, name), (count, total_ps, max_ps)) in &series {
            let label = format!("{cat}/{name}");
            let total_us = *total_ps as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {label:<28} {count:>8} {total_us:>14.3} {:>12.3} {:>12.3}",
                total_us / *count as f64,
                *max_ps as f64 / 1e6,
            );
        }

        let reg = self.merged_registry();
        let _ = writeln!(out, "\n[counters]");
        for ((component, metric), v) in reg.iter_counters() {
            let _ = writeln!(out, "  {:<36} {v:>16}", format!("{component}.{metric}"));
        }
        let _ = writeln!(out, "\n[stats]");
        for ((component, metric), s) in reg.iter_stats() {
            let _ = writeln!(
                out,
                "  {:<36} n={:<8} mean={:<14.3} min={:<14.3} max={:<14.3}",
                format!("{component}.{metric}"),
                s.count(),
                s.mean(),
                s.min(),
                s.max()
            );
        }
        let _ = writeln!(out, "\n[histograms]");
        for ((component, metric), h) in reg.iter_hists() {
            let _ = writeln!(
                out,
                "  {:<36} n={:<8} p50<={:<12} p90<={:<12} p99<={}",
                format!("{component}.{metric}"),
                h.total(),
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
        out
    }
}

fn comma(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Integer picoseconds rendered as exact microseconds (a JSON number).
/// It writes no padding: render it `to_string()` under a width.
pub(crate) struct Us(pub(crate) u64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

/// A string rendered with JSON escaping, straight into the output.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// JSON string escaping for every exporter in the stack (the strings are
/// static labels, but be safe about quotes, backslashes, and control
/// characters). Uses the same shorthand escapes as `prom.rs`'s label
/// escaping (`\n`, `\r`, `\t`) so the exporters render identical labels;
/// other control characters fall back to `\u00xx`.
pub fn escape(s: &str) -> String {
    Escaped(s).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{self, Phase};
    use hyades_des::{SimDuration, SimTime};

    fn sample_run() -> RunTelemetry {
        recorder::enable(0);
        recorder::set_phase(Phase::Ps);
        recorder::charge_flops(Phase::Ps, 5_000_000);
        recorder::charge_comm("exchange", SimDuration::from_us(10));
        recorder::set_phase(Phase::Ds);
        recorder::charge_comm("gsum", SimDuration::from_us_f64(4.5));
        recorder::record_span(
            7,
            "arctic",
            "router.tx",
            SimTime::from_us_f64(1.25),
            SimDuration::from_ns(600),
        );
        recorder::count("arctic.router", "packets", 3);
        recorder::observe_hist("startx.vi", "bytes", 1024);
        RunTelemetry::single(recorder::disable().unwrap())
    }

    #[test]
    fn chrome_json_is_wellformed_and_exact() {
        let run = sample_run();
        let json = run.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
        // Balanced braces/brackets (no string content interferes: labels
        // are identifiers).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Exact decimal microseconds from integer picoseconds.
        assert!(json.contains("\"ts\":1.250000"), "{json}");
        assert!(json.contains("\"dur\":0.600000"), "{json}");
        // Both process timelines and the named tracks are present.
        assert!(json.contains("gcm charged timeline"));
        assert!(json.contains("des event timeline"));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"actor 7\""));
        assert!(json.contains("\"name\":\"exchange\""));
    }

    #[test]
    fn text_summary_sections_render() {
        let run = sample_run();
        let s = run.text_summary();
        assert!(s.contains("[phase totals"));
        assert!(s.contains("ps.compute"));
        assert!(s.contains("[span series]"));
        assert!(s.contains("comm/exchange"));
        assert!(s.contains("arctic.router.packets"));
        assert!(s.contains("startx.vi.bytes"));
        assert!(s.contains("p99<="));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_run();
        let b = sample_run();
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.text_summary(), b.text_summary());
    }

    #[test]
    fn merged_registry_pools_ranks() {
        let mut ranks = Vec::new();
        for rank in 0..2 {
            recorder::enable(rank);
            recorder::count("c", "n", 2);
            ranks.push(recorder::disable().unwrap());
        }
        let run = RunTelemetry::from_ranks(ranks);
        assert_eq!(run.merged_registry().counter("c", "n"), 4);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        // Shorthand escapes, matching prom.rs's label escaping.
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("x\r\ty"), "x\\r\\ty");
        assert_eq!(escape("x\u{1}y"), "x\\u0001y");
        // Escapes beside multi-byte characters, which pass through.
        assert_eq!(escape("\"µs\u{1f}é\\"), "\\\"µs\\u001fé\\\\");
    }

    #[test]
    fn flow_events_render_as_s_f_pairs() {
        use crate::commlog::{CommEvent, Stamped};
        use crate::recorder::Phase;
        let stamp = |ev, at_ps, cost_ps| Stamped {
            ev,
            at_ps,
            cost_ps,
            op: 1,
            step: 1,
            phase: Phase::Ps,
        };
        let logs = vec![
            vec![
                stamp(CommEvent::Send { to: 1, words: 16 }, 500, 200),
                stamp(CommEvent::Recv { from: 1, words: 16 }, 500, 200),
            ],
            vec![
                stamp(CommEvent::Send { to: 0, words: 16 }, 700, 250),
                stamp(CommEvent::Recv { from: 0, words: 16 }, 700, 250),
            ],
        ];
        let flows = flows_from_stamped(&logs);
        assert_eq!(flows.len(), 2);
        // Rank 0's send leaves at its op start (500-200=300) and lands
        // at rank 1's op end (700).
        let f01 = flows.iter().find(|f| f.src == 0).unwrap();
        assert_eq!((f01.send_ps, f01.recv_ps, f01.words), (300, 700, 16));

        let mut run = sample_run();
        run.set_flows(flows);
        let json = run.chrome_trace_json();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "{json}");
        assert!(json.contains("\"name\":\"msg 16 words\""), "{json}");
        // Each flow id appears exactly twice (one s, one f).
        assert_eq!(json.matches("\"id\":0,").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn unmatchable_logs_yield_no_flows() {
        use crate::commlog::{CommEvent, Stamped};
        use crate::recorder::Phase;
        let logs = vec![vec![Stamped {
            ev: CommEvent::Recv { from: 1, words: 1 },
            at_ps: 10,
            cost_ps: 5,
            op: 1,
            step: 1,
            phase: Phase::Ps,
        }]];
        assert!(flows_from_stamped(&logs).is_empty());
    }

    #[test]
    fn us_renders_exact_picoseconds() {
        assert_eq!(Us(0).to_string(), "0.000000");
        assert_eq!(Us(1_250_000).to_string(), "1.250000");
        assert_eq!(Us(600).to_string(), "0.000600");
        assert_eq!(Us(12_345_678_901).to_string(), "12345.678901");
    }
}
