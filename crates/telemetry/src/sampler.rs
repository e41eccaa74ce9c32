//! Fixed-interval time-series sampling for simulated fabrics.
//!
//! The span recorder ([`crate::recorder`]) captures *events*; this module
//! captures *state over time*: queue occupancy, link utilization, and any
//! other quantity a simulated component can read off itself at an instant.
//! A [`SamplerActor`] placed in the DES broadcasts a [`SampleTick`] to its
//! subscribed actors at a fixed simulated interval; each subscriber
//! answers by calling [`record`] with its current readings, which land in
//! a thread-local [`SampleSet`] keyed by `(component, entity, metric)`.
//!
//! Design rules match the rest of the crate:
//!
//! * **Zero cost when disabled.** [`record`] starts with a single
//!   thread-local [`Cell`] load; components also use [`installed`] to gate
//!   any label formatting or per-flow accounting they keep solely for the
//!   observatory.
//! * **Deterministic.** Ticks are ordinary DES events (fixed interval,
//!   deterministic tie-breaking) and every quantile is computed by
//!   total-order sort — two same-seed runs record bit-identical series.
//!
//! [`Cell`]: std::cell::Cell

use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Broadcast to every subscribed actor once per sampling interval.
/// Subscribers respond by calling [`record`] with their current state.
pub struct SampleTick;

/// Internal self-event driving the tick loop.
struct Tick;

/// Identifies one time series: a component namespace (`"arctic.link"`),
/// an entity within it (`"l0.w3.p2"`), and the sampled metric (`"occ"`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    pub component: &'static str,
    pub entity: String,
    pub metric: &'static str,
}

/// One sampled time series.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// `(tick time, value)` in tick order.
    pub points: Vec<(SimTime, f64)>,
}

impl Series {
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arithmetic mean of the sampled values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Largest sampled value (0 when empty).
    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
            .max(f64::NEG_INFINITY)
    }

    /// Exact value quantile (`q` in 0..=1) by total-order sort;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut vals: Vec<f64> = self.points.iter().map(|&(_, v)| v).collect();
        vals.sort_by(f64::total_cmp);
        let n = vals.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        vals[rank.max(1) - 1]
    }

    /// 99th-percentile sampled value.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Everything recorded between [`install`] and [`take`].
#[derive(Clone, Debug)]
pub struct SampleSet {
    /// The configured sampling interval.
    pub interval: SimDuration,
    series: BTreeMap<SeriesKey, Series>,
}

impl SampleSet {
    fn new(interval: SimDuration) -> SampleSet {
        SampleSet {
            interval,
            series: BTreeMap::new(),
        }
    }

    fn record(
        &mut self,
        component: &'static str,
        entity: &str,
        metric: &'static str,
        at: SimTime,
        value: f64,
    ) {
        self.series
            .entry(SeriesKey {
                component,
                entity: entity.to_string(),
                metric,
            })
            .or_default()
            .points
            .push((at, value));
    }

    /// Look up one series.
    pub fn get(&self, component: &str, entity: &str, metric: &str) -> Option<&Series> {
        self.series
            .iter()
            .find(|(k, _)| k.component == component && k.entity == entity && k.metric == metric)
            .map(|(_, s)| s)
    }
}

thread_local! {
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
    static STORE: RefCell<Option<SampleSet>> = const { RefCell::new(None) };
}

/// Begin collecting samples on this thread. Replaces any prior set.
pub fn install(interval: SimDuration) {
    STORE.with(|s| *s.borrow_mut() = Some(SampleSet::new(interval)));
    INSTALLED.with(|i| i.set(true));
}

/// Is a sample store installed on this thread? Components use this to
/// gate observatory-only bookkeeping (label formatting, per-flow counts).
#[inline]
pub fn installed() -> bool {
    INSTALLED.with(|i| i.get())
}

/// Record one sample; a no-op unless [`install`]ed.
#[inline]
pub fn record(
    component: &'static str,
    entity: &str,
    metric: &'static str,
    at: SimTime,
    value: f64,
) {
    if !installed() {
        return;
    }
    STORE.with(|s| {
        if let Some(set) = s.borrow_mut().as_mut() {
            set.record(component, entity, metric, at, value);
        }
    });
}

/// Stop collecting and hand the samples back.
pub fn take() -> Option<SampleSet> {
    INSTALLED.with(|i| i.set(false));
    STORE.with(|s| s.borrow_mut().take())
}

/// The fixed-interval sampling actor: broadcasts [`SampleTick`] to its
/// subscribers every `interval` of simulated time until `until`
/// (inclusive). Being an ordinary actor keeps sampling inside the
/// deterministic event order, and letting it expire keeps `sim.run()`
/// able to drain.
pub struct SamplerActor {
    targets: Vec<ActorId>,
    interval: SimDuration,
    until: SimTime,
    /// Ticks broadcast so far.
    pub ticks: u64,
}

impl SamplerActor {
    /// Register the sampler and schedule its first tick one interval in.
    pub fn start(
        sim: &mut Simulator,
        targets: Vec<ActorId>,
        interval: SimDuration,
        until: SimTime,
    ) -> ActorId {
        assert!(
            interval > SimDuration::ZERO,
            "sampling interval must be positive"
        );
        let id = sim.add_actor(SamplerActor {
            targets,
            interval,
            until,
            ticks: 0,
        });
        sim.schedule(SimTime::ZERO + interval, id, Tick);
        id
    }
}

impl Actor for SamplerActor {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        if ev.downcast::<Tick>().is_err() {
            return;
        }
        self.ticks += 1;
        for &t in &self.targets {
            ctx.send_now(t, SampleTick);
        }
        if ctx.now() + self.interval <= self.until {
            ctx.wake_after(self.interval, Tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_noop_without_install() {
        assert!(!installed());
        record("c", "e", "m", SimTime::ZERO, 1.0);
        assert!(take().is_none());
    }

    #[test]
    fn installed_store_collects_ordered_series() {
        install(SimDuration::from_us(5));
        record(
            "arctic.link",
            "l0.w1.p2",
            "occ",
            SimTime::from_us_f64(5.0),
            3.0,
        );
        record(
            "arctic.link",
            "l0.w0.p2",
            "occ",
            SimTime::from_us_f64(5.0),
            1.0,
        );
        record(
            "arctic.link",
            "l0.w1.p2",
            "occ",
            SimTime::from_us_f64(10.0),
            5.0,
        );
        let set = take().expect("installed");
        assert!(!installed());
        let s = set.get("arctic.link", "l0.w1.p2", "occ").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(set.get("arctic.link", "l0.w0.p2", "occ").unwrap().len(), 1);
        assert!(set.get("arctic.link", "l0.w0.p2", "busy_us").is_none());
    }

    #[test]
    fn series_quantiles_are_exact() {
        let mut s = Series::default();
        for v in 1..=100 {
            s.points.push((SimTime::ZERO, v as f64));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Series::default().p99(), 0.0);
    }

    /// A target that records its tick count as a sample.
    struct Probe {
        seen: u64,
    }
    impl Actor for Probe {
        fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
            if ev.downcast::<SampleTick>().is_ok() {
                self.seen += 1;
                record("test", "probe", "seen", ctx.now(), self.seen as f64);
            }
        }
    }

    #[test]
    fn sampler_actor_ticks_at_fixed_interval_and_expires() {
        install(SimDuration::from_us(10));
        let mut sim = Simulator::new();
        let p = sim.add_actor(Probe { seen: 0 });
        let id = SamplerActor::start(
            &mut sim,
            vec![p],
            SimDuration::from_us(10),
            SimTime::from_us_f64(55.0),
        );
        sim.run();
        // Ticks at 10, 20, 30, 40, 50 us; the queue then drains.
        assert_eq!(sim.actor::<SamplerActor>(id).ticks, 5);
        assert_eq!(sim.actor::<Probe>(p).seen, 5);
        let set = take().expect("installed");
        let s = set.get("test", "probe", "seen").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.points[0].0, SimTime::from_us_f64(10.0));
        assert_eq!(s.points[4].0, SimTime::from_us_f64(50.0));
    }
}
