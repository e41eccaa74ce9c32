//! Per-component metric registry.
//!
//! A keyed collection of the `hyades_des::stats` primitives — counters,
//! Welford online statistics, and log₂ histograms — indexed by
//! `(component, metric)` name pairs. `BTreeMap` keys give deterministic
//! iteration order for exporters, and every metric kind supports `merge`
//! so per-rank registries can be pooled at end of run.

use hyades_des::stats::{Log2Histogram, OnlineStats};
use hyades_des::SimDuration;
use std::collections::BTreeMap;

type Key = (&'static str, &'static str);

/// Metric store for one rank (or one merged run).
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    stats: BTreeMap<Key, OnlineStats>,
    hists: BTreeMap<Key, Log2Histogram>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Bump a monotonic counter.
    pub fn add_count(&mut self, component: &'static str, metric: &'static str, delta: u64) {
        *self.counters.entry((component, metric)).or_insert(0) += delta;
    }

    /// Record one sample into an online-statistics series.
    pub fn observe(&mut self, component: &'static str, metric: &'static str, value: f64) {
        self.stats
            .entry((component, metric))
            .or_default()
            .push(value);
    }

    /// Record a duration sample (stored in microseconds).
    pub fn observe_duration_us(
        &mut self,
        component: &'static str,
        metric: &'static str,
        d: SimDuration,
    ) {
        self.observe(component, metric, d.as_us_f64());
    }

    /// Record one sample into a log₂ histogram.
    pub fn observe_hist(&mut self, component: &'static str, metric: &'static str, value: u64) {
        self.hists
            .entry((component, metric))
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, component: &str, metric: &str) -> u64 {
        self.counters
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Online statistics for a series, if any samples were recorded.
    pub fn stat(&self, component: &str, metric: &str) -> Option<&OnlineStats> {
        self.stats
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, s)| s)
    }

    /// Histogram for a series, if any samples were recorded.
    pub fn hist(&self, component: &str, metric: &str) -> Option<&Log2Histogram> {
        self.hists
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, h)| h)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.stats.is_empty() && self.hists.is_empty()
    }

    /// Pool another registry into this one (rank merge).
    pub fn merge(&mut self, other: &Registry) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, s) in &other.stats {
            self.stats.entry(k).or_default().merge(s);
        }
        for (&k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }

    /// Counters in deterministic `(component, metric)` order.
    pub fn iter_counters(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Statistics series in deterministic `(component, metric)` order.
    pub fn iter_stats(&self) -> impl Iterator<Item = (Key, &OnlineStats)> + '_ {
        self.stats.iter().map(|(&k, s)| (k, s))
    }

    /// Histograms in deterministic `(component, metric)` order.
    pub fn iter_hists(&self) -> impl Iterator<Item = (Key, &Log2Histogram)> + '_ {
        self.hists.iter().map(|(&k, h)| (k, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        r.add_count("arctic.router", "packets", 3);
        r.add_count("arctic.router", "packets", 2);
        assert_eq!(r.counter("arctic.router", "packets"), 5);
        assert_eq!(r.counter("arctic.router", "nope"), 0);
        assert!(!r.is_empty());
    }

    #[test]
    fn stats_and_hists_record() {
        let mut r = Registry::new();
        r.observe("comms.gsum", "latency_us", 4.0);
        r.observe("comms.gsum", "latency_us", 6.0);
        r.observe_duration_us("comms.gsum", "span_us", SimDuration::from_us(8));
        r.observe_hist("startx.vi", "bytes", 1024);
        let s = r.stat("comms.gsum", "latency_us").unwrap();
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(r.hist("startx.vi", "bytes").unwrap().total(), 1);
        assert!(r.stat("comms.gsum", "missing").is_none());
        assert!(r.hist("comms.gsum", "missing").is_none());
    }

    #[test]
    fn merge_pools_all_metric_kinds() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add_count("c", "n", 1);
        b.add_count("c", "n", 2);
        b.add_count("c", "only_b", 7);
        a.observe("c", "x", 1.0);
        b.observe("c", "x", 3.0);
        a.observe_hist("c", "h", 4);
        b.observe_hist("c", "h", 5);
        a.merge(&b);
        assert_eq!(a.counter("c", "n"), 3);
        assert_eq!(a.counter("c", "only_b"), 7);
        let s = a.stat("c", "x").unwrap();
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.hist("c", "h").unwrap().total(), 2);
    }

    #[test]
    fn iteration_order_is_sorted() {
        let mut r = Registry::new();
        r.add_count("z", "b", 1);
        r.add_count("a", "y", 1);
        r.add_count("a", "x", 1);
        let keys: Vec<_> = r.iter_counters().map(|(k, _)| k).collect();
        assert_eq!(keys, [("a", "x"), ("a", "y"), ("z", "b")]);
    }
}
