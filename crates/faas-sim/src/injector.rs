//! Fault injection: the installed fault plan, its random stream and its
//! counters.
//!
//! [`FaultInjector`] answers the cloud's injection questions — a
//! transient roll, a crash roll, the shed limit, the outage clamp, the
//! inflation factor and the storm gap — and books each injection where it
//! decides it. Until a plan is installed it holds an inert one: nothing
//! draws, clamps or counts, and every factor is 1, so a faults-off run is
//! byte-identical to one without an injector.

use simkit::dist::Dist;
use simkit::rng::Rng;
use simkit::time::SimTime;

use faults::{FaultPlan, FaultStats};

/// See the module docs.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    /// Inert until [`FaultInjector::install`] replaces it.
    plan: FaultPlan,
    /// Forked unconditionally (forking does not advance the parent) and
    /// drawn only by the plan's injections.
    rng: Rng,
    stats: FaultStats,
    /// Admission-control refusals, counted at the decision (see
    /// `metric::FAULTS_SHED`).
    shed_decisions: u64,
}

impl FaultInjector {
    pub(crate) fn new(rng: Rng) -> FaultInjector {
        FaultInjector {
            plan: FaultPlan::default(),
            rng,
            stats: FaultStats::default(),
            shed_decisions: 0,
        }
    }

    /// Installs `plan` unless it is inert. Returns when its first purge
    /// storm fires, if it has storms.
    pub(crate) fn install(&mut self, plan: FaultPlan) -> Option<SimTime> {
        if plan.is_inert() {
            return None;
        }
        self.plan = plan;
        let storm = self.plan.storm?;
        Some(SimTime::from_millis(storm.start_ms + self.storm_gap_ms()))
    }

    pub(crate) fn installed(&self) -> bool {
        !self.plan.is_inert()
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    pub(crate) fn shed_decisions(&self) -> u64 {
        self.shed_decisions
    }

    /// Rolls each transient source for an arriving external request, in
    /// spec order; returns the first hit's status code.
    pub(crate) fn transient(&mut self) -> Option<u16> {
        let rng = &mut self.rng;
        let code = self.plan.transients.iter().find(|t| rng.bernoulli(t.p))?.code;
        self.stats.injected += 1;
        self.stats.transient_errors += 1;
        Some(code)
    }

    /// Rolls a crash of an external execution busy for `busy_ms`; a hit
    /// books that time as wasted.
    pub(crate) fn crash(&mut self, busy_ms: f64) -> bool {
        let p = self.plan.crash_p;
        if !(p > 0.0 && self.rng.bernoulli(p)) {
            return false;
        }
        self.stats.injected += 1;
        self.stats.crashes += 1;
        self.stats.wasted_busy_ms += busy_ms;
        true
    }

    /// Whether admission control refuses an external request arriving at
    /// a queue `depth` deep. Draws nothing.
    pub(crate) fn sheds(&mut self, depth: u32) -> bool {
        if self.plan.shed_limit.is_none_or(|limit| depth < limit) {
            return false;
        }
        self.stats.injected += 1;
        self.shed_decisions += 1;
        true
    }

    /// Holds a boot finishing at `ready_at` inside a capacity outage until
    /// the outage ends. Draws nothing.
    pub(crate) fn outage_clamp(&mut self, ready_at: SimTime) -> SimTime {
        match self.plan.outage_release_ms((ready_at - SimTime::ZERO).as_millis()) {
            Some(release_ms) => {
                self.stats.outage_deferrals += 1;
                SimTime::from_millis(release_ms)
            }
            None => ready_at,
        }
    }

    /// Network inflation factor at `at` (1 outside every window).
    pub(crate) fn inflation(&self, at: SimTime) -> f64 {
        self.plan.inflation_factor((at - SimTime::ZERO).as_millis())
    }

    /// Books a purge storm that killed `purged` idle instances.
    pub(crate) fn storm(&mut self, purged: u64) {
        self.stats.storms += 1;
        self.stats.purged_instances += purged;
    }

    /// Draws the exponential gap to the next purge storm, ms.
    pub(crate) fn storm_gap_ms(&mut self) -> f64 {
        let storm = self.plan.storm.expect("purge storms without a storm plan");
        -storm.mean_gap_ms * self.rng.next_f64_open().ln()
    }

    /// Draws a provider error's return propagation from the fault stream,
    /// leaving the baseline network stream untouched.
    pub(crate) fn error_return_ms(&mut self, prop_delay_ms: &Dist) -> f64 {
        prop_delay_ms.sample(&mut self.rng)
    }

    /// Books an external submission.
    pub(crate) fn submitted(&mut self) {
        if let Some(stats) = self.tally() {
            stats.submitted += 1;
        }
    }

    /// Books an external cancellation, one of the terminal buckets.
    pub(crate) fn cancelled(&mut self) {
        if let Some(stats) = self.tally() {
            stats.cancelled += 1;
        }
    }

    /// Books an external request's other terminal bucket at completion.
    pub(crate) fn resolved(&mut self, shed: bool, failed: bool) {
        if let Some(stats) = self.tally() {
            match (shed, failed) {
                (true, _) => stats.shed += 1,
                (false, true) => stats.failed += 1,
                (false, false) => stats.completed += 1,
            }
        }
    }

    /// The request-accounting counters, kept only while a plan is
    /// installed so that a faults-off run reports all-zero stats.
    fn tally(&mut self) -> Option<&mut FaultStats> {
        self.installed().then_some(&mut self.stats)
    }
}
