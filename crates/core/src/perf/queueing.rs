//! The job-queue argument (§6).
//!
//! "Big supercomputers, however, are typically shared resources where the
//! CPU time can often be 'dwarfed' by the amount of time spent in the job
//! queue. In contrast, the affordability of our cluster makes it possible
//! to build a system that can be dedicated to a single research endeavor
//! such that the turn-around time is simply the CPU time."
//!
//! This module makes the claim quantitative with the standard M/G/1
//! machinery: at utilization ρ, the expected wait of a newly submitted job
//! behind the queue is `W = ρ·E[S]·(1+cv²)/(2(1−ρ))` (Pollaczek–Khinchine),
//! so a shared machine at healthy 80–90 % utilization multiplies
//! turn-around by factors the dedicated cluster never pays.

/// A shared machine's queue, M/G/1 with mean service time `mean_service`
/// (hours) and service-time coefficient of variation `cv` (1 for
/// exponential; >1 for the heavy-tailed mixes real centers see).
#[derive(Clone, Copy, Debug)]
pub struct SharedQueue {
    pub utilization: f64,
    pub mean_service_hours: f64,
    pub service_cv: f64,
}

impl SharedQueue {
    pub fn new(utilization: f64, mean_service_hours: f64, service_cv: f64) -> SharedQueue {
        assert!((0.0..1.0).contains(&utilization), "need 0 <= rho < 1");
        assert!(mean_service_hours > 0.0 && service_cv >= 0.0);
        SharedQueue {
            utilization,
            mean_service_hours,
            service_cv,
        }
    }

    /// Mean wait in queue (hours), Pollaczek–Khinchine.
    pub fn mean_wait_hours(&self) -> f64 {
        let rho = self.utilization;
        let cv2 = self.service_cv * self.service_cv;
        rho * self.mean_service_hours * (1.0 + cv2) / (2.0 * (1.0 - rho))
    }

    /// Mean turn-around (hours) for a job needing `cpu_hours` of service.
    pub fn turnaround_hours(&self, cpu_hours: f64) -> f64 {
        self.mean_wait_hours() + cpu_hours
    }
}

/// Mean number *waiting in queue* at an M/M/1 link at utilization ρ:
/// `Lq = ρ²/(1−ρ)`. The Poisson-arrival, exponential-service reference
/// point for a network link.
pub fn mm1_mean_queue(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 <= rho < 1");
    rho * rho / (1.0 - rho)
}

/// Mean number waiting in queue at an M/D/1 link: `Lq = ρ²/(2(1−ρ))`,
/// half the M/M/1 figure because deterministic service has cv = 0
/// (P–K with cv² = 0).
///
/// This is the right analytical comparator for the Arctic fabric under
/// the synthetic workloads: `workload::run_traffic` injects *fixed-size*
/// 96-byte packets, so link service time is deterministic. Note the
/// remaining systematic bias when cross-checking against the fabric
/// observatory's *sampled* occupancy (see `tests/observatory.rs`):
///
/// * Arrivals at an interior fabric link are not Poisson — each source
///   is a paced stream with ±25 % jitter, smoother than Poisson
///   (cₐ² < 1), which *lowers* true occupancy below M/D/1;
/// * the sampler reads the queue at fixed ticks (time-average), while
///   Lq is also a time-average — no bias there — but the 0.15 µs
///   fall-through holds each packet out of service briefly, which
///   *raises* measured occupancy slightly at high load.
///
/// Empirically the sampled mean occupancy lands between `md1_mean_queue`
/// and `mm1_mean_queue` at moderate load; the cross-check test pins that
/// bracket rather than pretending either model is exact.
pub fn md1_mean_queue(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 <= rho < 1");
    rho * rho / (2.0 * (1.0 - rho))
}

/// Turn-around for a campaign of `n_jobs` *sequential* jobs (each depends
/// on the last — the shape of exploratory science): the queue wait is paid
/// per submission on the shared machine and never on the dedicated one.
pub fn campaign_hours(queue: Option<&SharedQueue>, n_jobs: u32, cpu_hours_each: f64) -> f64 {
    match queue {
        None => n_jobs as f64 * cpu_hours_each,
        Some(q) => n_jobs as f64 * q.turnaround_hours(cpu_hours_each),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_means_no_wait() {
        let q = SharedQueue::new(0.0, 3.0, 1.0);
        assert_eq!(q.mean_wait_hours(), 0.0);
    }

    #[test]
    fn wait_diverges_near_saturation() {
        let lo = SharedQueue::new(0.5, 3.0, 1.0);
        let hi = SharedQueue::new(0.9, 3.0, 1.0);
        let vhi = SharedQueue::new(0.98, 3.0, 1.0);
        assert!(hi.mean_wait_hours() > 3.0 * lo.mean_wait_hours());
        assert!(vhi.mean_wait_hours() > 4.0 * hi.mean_wait_hours());
    }

    #[test]
    fn paper_scenario_queue_dwarfs_cpu_time() {
        // A 3-hour climate job (the §5.3 year) on a shared vector machine
        // at 85% utilization with a realistic heavy-tailed job mix
        // (cv = 1.5, 3-hour mean service): the queue wait alone is ~4x
        // the CPU time.
        let q = SharedQueue::new(0.85, 3.0, 1.5);
        let f = q.turnaround_hours(3.0) / 3.0;
        assert!(f > 3.0, "turn-around / CPU time {f}");
        // The dedicated cluster's factor is identically 1.
        assert_eq!(campaign_hours(None, 1, 3.0), 3.0);
    }

    #[test]
    fn sequential_campaigns_amplify_the_gap() {
        // 20 dependent experiments of 3 CPU-hours each: under two weeks
        // dedicated; months when every submission waits out an 85%-loaded
        // queue.
        let q = SharedQueue::new(0.85, 3.0, 1.5);
        let dedicated = campaign_hours(None, 20, 3.0);
        let shared = campaign_hours(Some(&q), 20, 3.0);
        assert_eq!(dedicated, 60.0);
        assert!(shared / dedicated > 3.0, "{shared} vs {dedicated}");
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn saturation_rejected() {
        SharedQueue::new(1.0, 1.0, 1.0);
    }

    #[test]
    fn link_occupancy_models_agree_with_pk() {
        // M/D/1 is exactly half of M/M/1 (cv² = 0 vs 1), and both vanish
        // as rho -> 0 and diverge as rho -> 1.
        for rho in [0.1, 0.5, 0.8, 0.95] {
            assert!((md1_mean_queue(rho) - mm1_mean_queue(rho) / 2.0).abs() < 1e-12);
        }
        assert!(mm1_mean_queue(0.0) == 0.0);
        assert!(mm1_mean_queue(0.99) > 90.0);
        assert!(md1_mean_queue(0.6) > md1_mean_queue(0.3));
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn link_occupancy_rejects_saturation() {
        mm1_mean_queue(1.0);
    }
}
