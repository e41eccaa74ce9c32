//! Host-time spans recorded from outside the program.
//!
//! The harness opens a span around each call into a layer's public
//! function; nothing inside the crates under test is instrumented. Spans
//! stay in memory and are written once, at exit, as Chrome trace events.
//! A layer's self time is its span minus the spans it directly contains.
//!
//! Inside a GCM step the only boundary visible from outside is the
//! communicator, so traced runs hand the model a [`TracedWorld`] — a
//! `CommWorld` decorator that forwards every method unchanged and wraps
//! it in a span. Untraced runs use the bare world.

use hyades_comms::CommWorld;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval of host time spent below a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (the shared identifier).
    pub rep: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus their direct children.
    pub self_ns: u64,
}

/// [`Totals`] of one span name averaged over the recorded repetitions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerRep {
    pub calls: f64,
    /// Seconds inside the spans, children included.
    pub total_s: f64,
    /// Seconds inside the spans, direct children excluded.
    pub self_s: f64,
}

struct Inner {
    on: bool,
    rep: u32,
    /// Repetitions started with recording on.
    recorded_reps: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder. Interior mutability lets the two communicators of
/// a coupled pair share one recorder; the harness is single-threaded.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder that is switched off: `begin`/`end` cost one branch.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                on: false,
                rep: 0,
                recorded_reps: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Switch recording on or off for the repetition about to run.
    pub fn start_rep(&self, rep: u32, on: bool) {
        let mut t = self.inner.borrow_mut();
        assert!(t.open.is_empty(), "repetition started inside an open span");
        t.rep = rep;
        t.on = on;
        t.recorded_reps += u32::from(on);
    }

    pub fn is_on(&self) -> bool {
        self.inner.borrow().on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str) -> SpanId {
        let mut t = self.inner.borrow_mut();
        if !t.on {
            return SpanId(None);
        }
        let idx = t.spans.len();
        let (parent, rep) = (t.open.last().copied(), t.rep);
        t.open.push(idx);
        let start_ns = self.now_ns();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
        });
        SpanId(Some(idx))
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let Some(idx) = id.0 else { return };
        let mut t = self.inner.borrow_mut();
        assert_eq!(t.open.pop(), Some(idx), "spans must close innermost first");
        t.spans[idx].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    #[cfg(test)]
    fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let t = self.inner.borrow();
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Calls, inclusive time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals_of(&self.inner.borrow().spans)
    }

    /// Totals for one name (zero when it never ran).
    pub fn total(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// One name's totals per recorded repetition (zero when tracing
    /// never ran).
    pub fn per_rep(&self, name: &str) -> PerRep {
        let reps = f64::from(self.inner.borrow().recorded_reps.max(1));
        let t = self.total(name);
        PerRep {
            calls: t.calls as f64 / reps,
            total_s: t.total_ns as f64 * 1e-9 / reps,
            self_s: t.self_ns as f64 * 1e-9 / reps,
        }
    }

    /// The spans of the first recorded repetition as Chrome trace events
    /// (`chrome://tracing`, Perfetto): complete (`X`) events in
    /// microseconds, the span's and its parent's index in `args`.
    /// Repetitions are the same job, so one of them is the picture; the
    /// totals above still cover all of them.
    pub fn chrome_json(&self) -> String {
        let t = self.inner.borrow();
        let first = t.spans.first().map_or(0, |s| s.rep);
        let shown = t.spans.iter().take_while(|s| s.rep == first);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in shown.enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name totals with self time = duration − direct children.
pub fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(*kids);
    }
    out
}

/// Span names the decorator records.
pub const SPAN_EXCHANGE: &str = "comms.world_exchange";
pub const SPAN_GSUM: &str = "comms.world_gsum";
pub const SPAN_OTHER: &str = "comms.world_other";

/// `CommWorld` decorator: every method forwards to `inner` unchanged,
/// inside a span. Reductions of every flavour count as `gsum`.
pub struct TracedWorld<'a, W: CommWorld> {
    pub inner: W,
    pub tracer: &'a Tracer,
}

impl<W: CommWorld> CommWorld for TracedWorld<'_, W> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_EXCHANGE, || w.exchange(outgoing))
    }
    fn global_sum(&mut self, x: f64) -> f64 {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_GSUM, || w.global_sum(x))
    }
    fn global_sum_vec(&mut self, xs: &mut [f64]) {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_GSUM, || w.global_sum_vec(xs))
    }
    fn global_max(&mut self, x: f64) -> f64 {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_GSUM, || w.global_max(x))
    }
    fn global_min(&mut self, x: f64) -> f64 {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_GSUM, || w.global_min(x))
    }
    fn global_argmax(&mut self, value: f64, tag: u64) -> (f64, u64) {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_GSUM, || w.global_argmax(value, tag))
    }
    fn global_argmin(&mut self, value: f64, tag: u64) -> (f64, u64) {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_GSUM, || w.global_argmin(value, tag))
    }
    fn barrier(&mut self) {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_OTHER, || w.barrier())
    }
    fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let (tr, w) = (self.tracer, &mut self.inner);
        tr.span(SPAN_OTHER, || w.gather(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // step [0,100) ⊃ solve [10,70) ⊃ {gsum [20,30), gsum [40,55)};
        // step ⊃ halo [80,90). Grandchildren are charged to `solve` only.
        let spans = vec![
            span("step", 0, 100, None),
            span("solve", 10, 70, Some(0)),
            span("gsum", 20, 30, Some(1)),
            span("gsum", 40, 55, Some(1)),
            span("halo", 80, 90, Some(0)),
        ];
        let t = totals_of(&spans);
        assert_eq!(t["step"].self_ns, 100 - 60 - 10);
        assert_eq!(t["solve"].self_ns, 60 - 10 - 15);
        assert_eq!(
            t["gsum"],
            Totals {
                calls: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(t["halo"].self_ns, 10);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_records_parents_and_reps_only_while_on() {
        let tr = Tracer::new();
        tr.span("ignored", || ());
        assert_eq!(tr.span_count(), 0);
        tr.start_rep(3, true);
        tr.span("outer", || {
            tr.span("inner", || ());
            tr.span("inner", || ());
        });
        tr.start_rep(4, false);
        tr.span("ignored", || ());
        assert_eq!(tr.span_count(), 3);
        let t = tr.totals();
        assert_eq!(t["inner"].calls, 2);
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        // A later repetition is counted in the totals, not drawn.
        tr.start_rep(5, true);
        tr.span("outer", || ());
        assert_eq!(tr.totals()["outer"].calls, 2);
        assert_eq!(tr.per_rep("outer").calls, 1.0);
        assert_eq!(tr.per_rep("inner").calls, 1.0);
        let json = tr.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"parent\":0").count(), 2);
        assert!(json.contains("\"tid\":3") && !json.contains("\"tid\":5"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let tr = Tracer::new();
        tr.start_rep(0, true);
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}
