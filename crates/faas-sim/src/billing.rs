//! Resource accounting: the cost side of the latency/cost trade-off.
//!
//! Serverless billing is pay-per-use (GB-seconds of busy instances, §II-A)
//! while the *provider's* cost follows instance lifetime. Obs 7 frames
//! scheduling policy as a balance between request completion time and the
//! number of active instances; [`ResourceUsage`] quantifies that second
//! axis so experiments (and the ablation harness) can report both.

/// Accumulated resource usage of one function's fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceUsage {
    /// Total instance lifetime (boot completion → reap/now), seconds.
    /// Tracks the provider's capacity cost.
    pub instance_seconds: f64,
    /// Total busy time across instances, seconds. Tracks the user's
    /// pay-per-use bill (× memory = GB-seconds).
    pub busy_seconds: f64,
    /// Instances spawned.
    pub spawns: u64,
    /// Requests served.
    pub requests: u64,
}

impl ResourceUsage {
    /// Fleet utilisation: busy time over lifetime (0 when no lifetime).
    pub fn utilization(&self) -> f64 {
        if self.instance_seconds > 0.0 {
            self.busy_seconds / self.instance_seconds
        } else {
            0.0
        }
    }

    /// Billed compute per request, milliseconds (0 when no requests).
    pub fn busy_ms_per_request(&self) -> f64 {
        if self.requests > 0 {
            self.busy_seconds * 1000.0 / self.requests as f64
        } else {
            0.0
        }
    }
}
