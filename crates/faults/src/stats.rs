//! Injection and degradation counters.

use serde::{Deserialize, Serialize};

/// Counters for fault injection and graceful degradation, kept by the
/// cloud's fault injector. The cloud's `faults_injected`,
/// `faults_transient_errors`, `faults_crashes` and
/// `faults_purged_instances` metrics are read from these fields.
///
/// Conservation law (external requests only): every submitted request
/// lands in exactly one terminal bucket, so
/// `shed + completed + failed + cancelled == submitted`, and each request
/// absorbs at most one injection, so `injected <= submitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// External requests offered to the cloud while faults were installed.
    pub submitted: u64,
    /// Fault events that hit a request (transient + crash + shed).
    pub injected: u64,
    /// Requests rejected at the front end with a provider-style error.
    pub transient_errors: u64,
    /// Executions killed mid-flight (instance died, client saw a 500).
    pub crashes: u64,
    /// Requests refused by admission control with a 503.
    pub shed: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that completed with an error (transient or crash).
    pub failed: u64,
    /// Requests cancelled by the client before resolution.
    pub cancelled: u64,
    /// Idle instances reaped by purge-storm events.
    pub purged_instances: u64,
    /// Purge-storm events fired.
    pub storms: u64,
    /// Instance boots deferred by a capacity-outage window.
    pub outage_deferrals: u64,
    /// Busy milliseconds thrown away by crashes (work done, result lost).
    pub wasted_busy_ms: f64,
}

impl FaultStats {
    /// Fraction of resolved requests that succeeded:
    /// `completed / (completed + failed + shed)`. Cancelled requests are
    /// excluded (the client walked away; the cloud didn't fail them).
    /// Returns 1.0 when nothing has resolved yet.
    pub fn availability(&self) -> f64 {
        let denom = self.completed + self.failed + self.shed;
        if denom == 0 {
            1.0
        } else {
            self.completed as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_of_empty_stats_is_one() {
        assert_eq!(FaultStats::default().availability(), 1.0);
    }

    #[test]
    fn availability_counts_shed_and_failed_against_goodput() {
        let stats = FaultStats {
            completed: 90,
            failed: 5,
            shed: 5,
            cancelled: 17, // excluded from the denominator
            ..FaultStats::default()
        };
        assert!((stats.availability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let stats = FaultStats {
            submitted: 100,
            injected: 10,
            transient_errors: 4,
            crashes: 3,
            shed: 3,
            completed: 90,
            failed: 7,
            cancelled: 0,
            purged_instances: 12,
            storms: 2,
            outage_deferrals: 5,
            wasted_busy_ms: 123.5,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: FaultStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
