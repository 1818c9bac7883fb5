//! The cluster scheduler: spawn pacing and scale-out decisions.
//!
//! [`SpawnGovernor`] paces instance spawns at the provider's sustained
//! rate, with burst capacity and an optional adaptive boost under large
//! backlogs (paper §VI-D2 infers such load adaptation from Google's
//! burst-500 behaviour). [`bootstrap_spawns`] and [`periodic_step`] size
//! the periodic controller's scale-out from the current function state.

use simkit::ratelimit::TokenBucket;
use simkit::time::SimTime;

use crate::config::ScalingConfig;

/// Paces instance spawns.
#[derive(Debug)]
pub struct SpawnGovernor {
    bucket: TokenBucket,
    boosted: Option<TokenBucket>,
    threshold: u32,
    pending: u32,
}

impl SpawnGovernor {
    /// Creates a governor from the provider's scaling configuration.
    pub fn new(cfg: &ScalingConfig) -> SpawnGovernor {
        let boosted = (cfg.adaptive_spawn_threshold > 0).then(|| {
            TokenBucket::new(cfg.spawn_burst, cfg.spawn_rate_per_sec * cfg.adaptive_spawn_mult)
        });
        SpawnGovernor {
            bucket: TokenBucket::new(cfg.spawn_burst, cfg.spawn_rate_per_sec),
            boosted,
            threshold: cfg.adaptive_spawn_threshold,
            pending: 0,
        }
    }

    /// Reserves one spawn slot requested at `now`; returns when the spawn
    /// may start. Call [`SpawnGovernor::spawn_started`] when the boot
    /// actually begins so the backlog count stays accurate.
    pub fn reserve(&mut self, now: SimTime) -> SimTime {
        self.pending += 1;
        let use_boost = self.threshold > 0 && self.pending >= self.threshold;
        match (&mut self.boosted, use_boost) {
            (Some(fast), true) => {
                // Keep the normal bucket drained in step so a later fall
                // back to it does not grant a stale burst.
                let _ = self.bucket.acquire_at(now, 1.0);
                fast.acquire_at(now, 1.0)
            }
            _ => {
                if let Some(fast) = &mut self.boosted {
                    let _ = fast.acquire_at(now, 1.0);
                }
                self.bucket.acquire_at(now, 1.0)
            }
        }
    }

    /// Marks a reserved spawn as started (boot beginning).
    pub fn spawn_started(&mut self) {
        self.pending = self.pending.saturating_sub(1);
    }

    /// Current reserved-but-not-started backlog.
    pub fn pending(&self) -> u32 {
        self.pending
    }
}

/// A snapshot of one function's capacity state used for scaling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySnapshot {
    /// Requests waiting in the function's pending queue.
    pub queued: u32,
    /// Instances currently executing a request.
    pub busy: u32,
    /// Instances idle and ready.
    pub idle: u32,
    /// Instances currently booting.
    pub booting: u32,
}

impl CapacitySnapshot {
    /// Total live + in-progress instances.
    pub fn total_instances(&self) -> u32 {
        self.busy + self.idle + self.booting
    }
}

/// Instances the periodic controller spawns on a queue change: one
/// bootstrap instance when the function has queued work and no capacity
/// at all. Growth happens on scale ticks ([`periodic_step`]); committed-
/// assignment policies spawn inline at enqueue time and never get here.
pub fn bootstrap_spawns(snap: CapacitySnapshot) -> u32 {
    u32::from(snap.total_instances() == 0 && snap.queued > 0)
}

/// Instances to add on one periodic scale tick (Azure-style controller):
/// `step` while a backlog exists, 0 otherwise.
pub fn periodic_step(step: u32, snap: CapacitySnapshot) -> u32 {
    if snap.queued > 0 {
        step
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScalePolicy;
    use simkit::dist::Dist;

    fn scaling(policy: ScalePolicy) -> ScalingConfig {
        ScalingConfig {
            policy,
            decision_ms: Dist::constant(1.0),
            spawn_rate_per_sec: 10.0,
            spawn_burst: 2.0,
            adaptive_spawn_threshold: 0,
            adaptive_spawn_mult: 1.0,
        }
    }

    #[test]
    fn governor_paces_at_rate() {
        let mut gov = SpawnGovernor::new(&scaling(ScalePolicy::PerRequest));
        let t0 = SimTime::ZERO;
        // Burst of 2 goes immediately, then 10/s pacing.
        assert_eq!(gov.reserve(t0), t0);
        assert_eq!(gov.reserve(t0), t0);
        assert_eq!(gov.reserve(t0), SimTime::from_millis(100.0));
        assert_eq!(gov.reserve(t0), SimTime::from_millis(200.0));
    }

    #[test]
    fn governor_boosts_over_threshold() {
        let mut cfg = scaling(ScalePolicy::PerRequest);
        cfg.adaptive_spawn_threshold = 3;
        cfg.adaptive_spawn_mult = 10.0;
        cfg.spawn_burst = 1.0;
        let mut gov = SpawnGovernor::new(&cfg);
        let t0 = SimTime::ZERO;
        let t1 = gov.reserve(t0); // pending 1, normal: burst token
        let t2 = gov.reserve(t0); // pending 2, normal: 100ms
        let t3 = gov.reserve(t0); // pending 3 >= threshold, boosted 100/s
        let t4 = gov.reserve(t0);
        assert_eq!(t1, t0);
        assert_eq!(t2, SimTime::from_millis(100.0));
        assert!(t3 < SimTime::from_millis(100.0), "boosted spawn was {t3}");
        assert!(t4 <= SimTime::from_millis(100.0), "boosted spawn was {t4}");
    }

    #[test]
    fn pending_tracks_started_spawns() {
        let mut gov = SpawnGovernor::new(&scaling(ScalePolicy::PerRequest));
        gov.reserve(SimTime::ZERO);
        gov.reserve(SimTime::ZERO);
        assert_eq!(gov.pending(), 2);
        gov.spawn_started();
        assert_eq!(gov.pending(), 1);
    }

    fn snap(queued: u32, busy: u32, idle: u32, booting: u32) -> CapacitySnapshot {
        CapacitySnapshot { queued, busy, idle, booting }
    }

    #[test]
    fn periodic_only_bootstraps() {
        assert_eq!(bootstrap_spawns(snap(50, 0, 0, 0)), 1);
        assert_eq!(bootstrap_spawns(snap(50, 0, 0, 1)), 0);
        assert_eq!(bootstrap_spawns(snap(50, 1, 0, 0)), 0);
    }

    #[test]
    fn periodic_step_adds_while_backlogged() {
        assert_eq!(periodic_step(2, snap(10, 1, 0, 0)), 2);
        assert_eq!(periodic_step(2, snap(0, 1, 0, 0)), 0);
    }

    #[test]
    fn capacity_snapshot_totals() {
        assert_eq!(snap(9, 1, 2, 3).total_instances(), 6);
    }
}
