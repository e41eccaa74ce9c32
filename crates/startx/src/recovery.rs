//! Shared bookkeeping for the CRC-triggered retransmit protocols.
//!
//! The exchange (§4.1) and global-sum (§4.2) state machines both gained
//! recovery legs in the fault-injection subsystem: corrupted packets are
//! discarded at delivery (the CRC's 1-bit status word), dropped packets
//! are recovered by sender-side timeouts with capped exponential backoff
//! ([`Guard`](crate::node::Guard)), and every recovery action is counted
//! here *and* in the `comms.retry` telemetry registry group so a run
//! manifest shows exactly how the protocol earned its completion.

use hyades_telemetry as telemetry;

/// Counters for one node's recovery activity. Summed across nodes by the
/// `measure_*_faulty` harnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Timeout firings (each one is a backoff wait charged to sim time).
    pub timeouts: u64,
    /// REQ resends after a missing ACK (exchange).
    pub req_resends: u64,
    /// PROBE legs sent from a DONE-less WaitDone (exchange).
    pub probes: u64,
    /// ACK resends answering a duplicate REQ (exchange).
    pub acks_resent: u64,
    /// DONE resends answering a PROBE for a completed leg (exchange).
    pub dones_resent: u64,
    /// Go-back-N stream rewinds triggered by RETRY (exchange).
    pub data_rewinds: u64,
    /// Value resends answering a RETRY (gsum).
    pub value_resends: u64,
    /// RETRY legs sent (NAK on corrupt arrival or timeout).
    pub retries: u64,
    /// Corrupted packets discarded at delivery.
    pub corrupt_discarded: u64,
    /// Stale/duplicate packets ignored by the dedup rules.
    pub stale_ignored: u64,
}

impl RecoveryCounters {
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.timeouts += other.timeouts;
        self.req_resends += other.req_resends;
        self.probes += other.probes;
        self.acks_resent += other.acks_resent;
        self.dones_resent += other.dones_resent;
        self.data_rewinds += other.data_rewinds;
        self.value_resends += other.value_resends;
        self.retries += other.retries;
        self.corrupt_discarded += other.corrupt_discarded;
        self.stale_ignored += other.stale_ignored;
    }

    /// Total retransmitted messages (what the tour's `recovery.json`
    /// reports as `retries`).
    pub fn total_retransmits(&self) -> u64 {
        self.req_resends
            + self.probes
            + self.acks_resent
            + self.dones_resent
            + self.data_rewinds
            + self.value_resends
            + self.retries
    }

    /// Bump a counter and mirror it into the `comms.retry` registry group.
    pub fn bump(&mut self, what: RecoveryEvent) {
        let (slot, name): (&mut u64, &str) = match what {
            RecoveryEvent::Timeout => (&mut self.timeouts, "timeouts"),
            RecoveryEvent::ReqResend => (&mut self.req_resends, "req_resends"),
            RecoveryEvent::Probe => (&mut self.probes, "probes"),
            RecoveryEvent::AckResend => (&mut self.acks_resent, "acks_resent"),
            RecoveryEvent::DoneResend => (&mut self.dones_resent, "dones_resent"),
            RecoveryEvent::DataRewind => (&mut self.data_rewinds, "data_rewinds"),
            RecoveryEvent::ValueResend => (&mut self.value_resends, "value_resends"),
            RecoveryEvent::Retry => (&mut self.retries, "retries"),
            RecoveryEvent::CorruptDiscard => (&mut self.corrupt_discarded, "corrupt_discarded"),
            RecoveryEvent::StaleIgnored => (&mut self.stale_ignored, "stale_ignored"),
        };
        *slot += 1;
        telemetry::count("comms.retry", name, 1);
    }
}

/// One recovery action, as [`RecoveryCounters::bump`] counts it.
#[derive(Clone, Copy, Debug)]
pub enum RecoveryEvent {
    Timeout,
    ReqResend,
    Probe,
    AckResend,
    DoneResend,
    DataRewind,
    ValueResend,
    Retry,
    CorruptDiscard,
    StaleIgnored,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_total() {
        let mut a = RecoveryCounters {
            req_resends: 2,
            retries: 3,
            corrupt_discarded: 5,
            ..RecoveryCounters::default()
        };
        let b = RecoveryCounters {
            probes: 1,
            data_rewinds: 4,
            ..RecoveryCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.total_retransmits(), 2 + 3 + 1 + 4);
        assert_eq!(a.corrupt_discarded, 5);
    }
}
