//! The client: provider-agnostic load generation and measurement.
//!
//! Mirrors STeLLAR's client (§IV): invokes the endpoints produced by the
//! deployer in round-robin order on a workload's arrival process,
//! optionally issuing `burst_size` simultaneous requests per round, and
//! collects per-request latency samples plus the intra-function transfer
//! timestamps.
//!
//! Every run goes through one drive loop, [`run_workload_spec`]: open or
//! closed loop, with or without a tail-tolerance policy. It advances the
//! cloud in bounded steps and feeds one measurement sink; the
//! [`MeasureSpec`] picks only the quantile engine and whether sample
//! vectors are retained, never the simulated run.
//!
//! # Tail-tolerance policies
//!
//! When a [`RuntimeConfig`] carries a [`policy::PolicySpec`], every
//! *logical* request owns a [`policy::Composite`] state machine that may
//! launch duplicate attempts (hedges, tied copies, retries), cancel
//! in-flight attempts, or abandon the request at a deadline. The first
//! successful attempt is the logical request's latency sample;
//! everything else the policy launched is accounted as wasted work in
//! [`policy::PolicyStats`], never in the latency aggregates.
//!
//! The only randomness a policy adds beyond the arrival process is the
//! jitter stream, a dedicated `fork("policy")` of the cell seed, drawn
//! once per delivered timer wake-up — so a given `(spec, seed)` pair
//! replays bit-identically regardless of queue backend or sweep thread
//! count. Each step ends at the earliest of the next arrival, the
//! earliest armed timer, or a bounded slice. Completions drained at that
//! boundary are processed before timers due at it — a win at `t` beats a
//! hedge or abandon timer at `t`, matching how a real client's response
//! handler races its own timeout wheel. Cancellations issued at `t` take
//! effect at the cloud's next event boundary, so an attempt that has not
//! completed by `t` never produces a completion afterwards.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use faas_sim::cloud::CloudSim;
use faas_sim::request::{Completion, TransferSample};
use faas_sim::types::{FunctionId, RequestId};
use policy::machine::{Action, Actions, PolicyEvent};
use policy::{Composite, PolicyMachine, PolicySpec, PolicyStats};
use simkit::rng::Rng;
use simkit::time::SimTime;
use stats::percentile::RunningQuantile;
use stats::sketch::{LatencyAgg, QuantileMode};
use workload::arrival::ArrivalProcess;
use workload::spec::{ModeSpec, WorkloadSpec};
use workload::stats::{LoadRecorder, OfferedLoad};

use crate::config::{workload_from_iat, RuntimeConfig};
use crate::deployer::Deployment;

/// How the client measures a run: which quantile machinery to use and
/// whether to retain per-request sample vectors.
///
/// The default (`Exact` + `keep_samples`) is what every figure pipeline
/// relies on: full completion vectors, exact percentiles. Large runs
/// switch to [`QuantileMode::Sketch`] without `keep_samples`, which folds
/// each slice's completions into a [`LatencyAgg`] and drops them — peak
/// latency storage is the sketch, not a `Vec<f64>` of every request.
/// Either way the drive loop runs identically, so the simulated run
/// (event sequence, duration, slab occupancy) does not depend on the
/// spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Quantile machinery for summaries.
    pub quantile: QuantileMode,
    /// Whether to retain per-completion vectors (required by the CDF,
    /// breakdown and figure pipelines).
    pub keep_samples: bool,
}

impl Default for MeasureSpec {
    fn default() -> Self {
        MeasureSpec { quantile: QuantileMode::Exact, keep_samples: true }
    }
}

impl MeasureSpec {
    /// Exact percentiles over retained samples (the default).
    pub fn exact() -> MeasureSpec {
        MeasureSpec::default()
    }

    /// Streaming sketch quantiles, samples not retained — O(sketch)
    /// memory however many invocations run.
    pub fn sketch() -> MeasureSpec {
        MeasureSpec { quantile: QuantileMode::Sketch, keep_samples: false }
    }

    /// Overrides sample retention (e.g. sketch quantiles but keep vectors
    /// for a CDF plot).
    pub fn with_keep_samples(mut self, keep: bool) -> MeasureSpec {
        self.keep_samples = keep;
        self
    }

    /// Validates the combination: exact quantiles require the samples
    /// they are computed from.
    pub fn validate(&self) -> Result<(), String> {
        if self.quantile == QuantileMode::Exact && !self.keep_samples {
            return Err("exact quantiles require keep_samples (use sketch mode to drop samples)"
                .to_string());
        }
        Ok(())
    }
}

/// Everything the client measured in one run.
///
/// Sample vectors (`completions`, `warmup_completions`, `transfers`) are
/// populated only when the run's [`MeasureSpec`] keeps samples; the
/// aggregate fields are always populated and are the only O(1)-per-run
/// representation on streaming runs.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completions from measured rounds, in completion order (empty on
    /// streaming runs).
    pub completions: Vec<Completion>,
    /// Completions from warm-up rounds (excluded from statistics; empty on
    /// streaming runs).
    pub warmup_completions: Vec<Completion>,
    /// Cross-function transfer samples from measured rounds (empty on
    /// streaming runs).
    pub transfers: Vec<TransferSample>,
    /// Streaming aggregate over measured end-to-end latencies, ms.
    pub latency_agg: LatencyAgg,
    /// Streaming aggregate over measured transfer times, ms.
    pub transfer_agg: LatencyAgg,
    /// Measured completions observed (equals `completions.len()` when
    /// samples are kept).
    pub measured_count: u64,
    /// Warm-up completions observed.
    pub warmup_count: u64,
    /// Measured completions that waited on a cold start.
    pub cold_count: u64,
    /// Simulated duration of the whole run: from its start to the step
    /// boundary at which the drive loop resolved the last request (up to
    /// one slice past the last completion in open loop; exactly at it in
    /// closed loop, which stops at every completion).
    pub duration: SimTime,
    /// Realized offered-load summary of the arrivals the run submitted.
    /// Always `Some`: every run goes through the one drive loop, IAT runs
    /// included (they run as their lifted spec).
    pub offered: Option<OfferedLoad>,
    /// Tail-tolerance policy accounting. Populated only when the run's
    /// [`RuntimeConfig`](crate::config::RuntimeConfig) carried a policy;
    /// `None` on plain runs.
    pub policy: Option<policy::PolicyStats>,
    /// Fault-injection and degradation accounting. Populated only when
    /// the run's [`RuntimeConfig`](crate::config::RuntimeConfig) carried
    /// a (non-inert) fault spec; `None` on faults-off runs.
    pub faults: Option<faults::FaultStats>,
}

impl RunResult {
    /// End-to-end latencies of measured completions, ms. Empty on
    /// streaming runs — use [`RunResult::latency_agg`] there.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.completions.iter().map(Completion::latency_ms).collect()
    }

    /// Effective transfer times of measured transfer samples, ms. Empty on
    /// streaming runs — use [`RunResult::transfer_agg`] there.
    pub fn transfer_ms(&self) -> Vec<f64> {
        self.transfers.iter().map(TransferSample::transfer_ms).collect()
    }

    /// Fraction of measured completions that waited on a cold start.
    pub fn cold_fraction(&self) -> f64 {
        if self.measured_count == 0 {
            return 0.0;
        }
        self.cold_count as f64 / self.measured_count as f64
    }

    /// Goodput of the run: fraction of fault-terminal requests that
    /// completed successfully ([`faults::FaultStats::availability`]).
    /// 1.0 on faults-off runs.
    pub fn goodput(&self) -> f64 {
        self.faults.as_ref().map_or(1.0, faults::FaultStats::availability)
    }
}

/// Errors from a client run.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The runtime configuration failed validation.
    InvalidConfig(String),
    /// The deployment has no endpoints.
    EmptyDeployment,
    /// Requests stopped completing while some were outstanding.
    IncompleteRun {
        /// Completions received.
        received: usize,
        /// Completions expected.
        expected: usize,
        /// The measured completions that did arrive, for post-mortem
        /// debugging; empty when the run kept no samples.
        completions: Vec<Completion>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::InvalidConfig(msg) => write!(f, "invalid runtime config: {msg}"),
            ClientError::EmptyDeployment => write!(f, "deployment has no endpoints"),
            ClientError::IncompleteRun { received, expected, .. } => {
                write!(f, "run incomplete: {received}/{expected} completions")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Drives the workload described by `cfg` against `deployment` on
/// `cloud`, starting at the cloud's current time.
///
/// Rounds arrive on `cfg.workload`'s process, or at the configured IAT
/// when no workload is attached; each round sends `cfg.burst_size`
/// simultaneous requests to one endpoint, cycling through endpoints
/// round-robin (§IV/§V). The first `cfg.warmup_rounds` rounds are
/// collected separately and excluded from statistics. Requests are
/// tagged with their round number.
///
/// # Errors
///
/// Returns [`ClientError`] for invalid configs, empty deployments, or if
/// requests stop completing while some are outstanding (see
/// [`run_workload_spec`]).
pub fn run_workload(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    seed: u64,
) -> Result<RunResult, ClientError> {
    run_workload_with(cloud, deployment, cfg, seed, &MeasureSpec::default())
}

/// [`run_workload`] with an explicit [`MeasureSpec`].
///
/// Runs [`run_workload_spec`] on `cfg.workload`, or, when the config
/// carries only an IAT, on that IAT lifted into the equivalent open-loop
/// spec (`config::workload_from_iat`). An IAT is sugar for that spec, so
/// it is driven exactly like one: the first round arrives one gap after
/// the start, gaps are drawn from the `fork("workload-gaps")` stream of
/// `seed`, a policy in `cfg` applies, and the result reports its offered
/// load. The measure mode changes only the quantile engine and whether
/// vectors are retained — never the simulated run itself.
///
/// # Errors
///
/// Returns [`ClientError`] for invalid configs or specs, empty
/// deployments, or if requests stop completing while some are
/// outstanding (see [`run_workload_spec`]). The
/// [`ClientError::IncompleteRun`] post-mortem vector holds the measured
/// completions received when samples are kept, and is empty otherwise.
pub fn run_workload_with(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    seed: u64,
    measure: &MeasureSpec,
) -> Result<RunResult, ClientError> {
    let lifted;
    let spec = match &cfg.workload {
        Some(spec) => spec,
        None => {
            lifted = workload_from_iat(&cfg.iat);
            &lifted
        }
    };
    run_workload_spec(cloud, deployment, cfg, spec, seed, measure)
}

/// The run's measurement sink: sorts each completion into warm-up,
/// measured or provider error and each transfer into kept or dropped,
/// folds them into the streaming aggregates, and retains the sample
/// vectors only when the [`MeasureSpec`] keeps samples.
struct Collector {
    keep: bool,
    warmup_tag: u64,
    completions: Vec<Completion>,
    warmup_completions: Vec<Completion>,
    transfers: Vec<TransferSample>,
    latency_agg: LatencyAgg,
    transfer_agg: LatencyAgg,
    measured_count: u64,
    warmup_count: u64,
    cold_count: u64,
}

impl Collector {
    fn new(measure: &MeasureSpec, warmup_tag: u64) -> Collector {
        Collector {
            keep: measure.keep_samples,
            warmup_tag,
            completions: Vec::new(),
            warmup_completions: Vec::new(),
            transfers: Vec::new(),
            latency_agg: LatencyAgg::with_mode(measure.quantile),
            transfer_agg: LatencyAgg::with_mode(measure.quantile),
            measured_count: 0,
            warmup_count: 0,
            cold_count: 0,
        }
    }

    fn absorb(&mut self, c: Completion) {
        if !c.is_ok() {
            // Provider error: resolves its request, never a sample.
            return;
        }
        if c.tag < self.warmup_tag {
            self.warmup_count += 1;
            if self.keep {
                self.warmup_completions.push(c);
            }
            return;
        }
        self.measured_count += 1;
        if c.cold {
            self.cold_count += 1;
        }
        self.latency_agg.record(c.latency_ms());
        if self.keep {
            self.completions.push(c);
        }
    }

    fn absorb_transfer(&mut self, tr: TransferSample) {
        if tr.parent_tag < self.warmup_tag {
            return;
        }
        self.transfer_agg.record(tr.transfer_ms());
        if self.keep {
            self.transfers.push(tr);
        }
    }

    /// The run's result, or [`ClientError::IncompleteRun`] (carrying the
    /// kept completions) when fewer than `expected` requests resolved.
    fn finish(
        self,
        resolved: u64,
        expected: u64,
        duration: SimTime,
        offered: OfferedLoad,
    ) -> Result<RunResult, ClientError> {
        if resolved < expected {
            return Err(ClientError::IncompleteRun {
                received: resolved as usize,
                expected: expected as usize,
                completions: self.completions,
            });
        }
        Ok(RunResult {
            completions: self.completions,
            warmup_completions: self.warmup_completions,
            transfers: self.transfers,
            latency_agg: self.latency_agg,
            transfer_agg: self.transfer_agg,
            measured_count: self.measured_count,
            warmup_count: self.warmup_count,
            cold_count: self.cold_count,
            duration,
            offered: Some(offered),
            policy: None,
            faults: None,
        })
    }
}

/// How far ahead an open-loop run without a policy submits, and how far
/// it advances per step once every arrival is out: 10 s.
const AHEAD_SLICE: SimTime = SimTime::from_nanos(10_000_000_000);

/// Advance-at-most step of every other run, 1 s.
const SLICE: SimTime = SimTime::from_nanos(1_000_000_000);

/// Simulated time with requests outstanding but nothing completing (and
/// no policy timer firing) after which a run gives up as incomplete,
/// counted from the last arrival instant at the earliest: a request
/// submitted ahead cannot stall before it arrives.
const STALL: SimTime = SimTime::from_nanos(3_600_000_000_000);

/// Winner samples needed before an online quantile threshold activates.
/// Below this the estimate is too noisy to hedge on; machines treat a
/// NaN estimate as "do not fire".
const ESTIMATE_WARMUP: usize = 20;

/// The next gap of `process`, or `None` once a finite process runs dry.
fn next_gap(process: &mut dyn ArrivalProcess, rng: &mut Rng) -> Option<SimTime> {
    let gap = process.next_gap_ms(rng);
    gap.is_finite().then(|| SimTime::from_millis(gap))
}

/// Drives a [`WorkloadSpec`] against `deployment` on `cloud`.
///
/// The one client drive loop every run goes through ([`run_workload`]
/// lifts an IAT-only config into a spec and calls it). The arrival
/// process comes from `spec` rather than `cfg.iat`, and the spec's mode
/// selects between open-loop (arrivals submitted on the process's schedule
/// regardless of completions) and closed-loop (a fixed number of virtual
/// users, each issuing its next request one think-time gap after its
/// previous request resolved). A policy in `cfg` runs every logical
/// request through its state machine in either mode; without one, a
/// completion resolves its request directly.
///
/// `cfg.warmup_rounds` initial arrivals are warm-up, `cfg.samples`
/// arrivals are measured, requests are tagged with their arrival index,
/// and the run starts at the cloud's current time. The first open-loop
/// arrival happens one gap after the start (so trace replays land on
/// their recorded timestamps), and endpoint routing follows the process's
/// source index when the process is multi-source (e.g.
/// [`workload::arrival::Superpose`]) and round-robin otherwise. Each
/// arrival issues `cfg.burst_size` simultaneous requests; closed-loop
/// mode and policies require `burst_size == 1`.
///
/// Without a policy, open-loop arrivals are submitted a 10 s slice ahead;
/// pending state stays O(slice + active requests) however long the run.
/// With a policy an arrival's `Issued` event reads the online estimate,
/// so every arrival is a boundary of its own. Either way each submission
/// draws its propagation delay from the cloud's submission stream (see
/// [`CloudSim::submit`]), so a policy that never acts replays the run
/// without one request for request. A closed-loop run stops at each
/// completion, so a user's think time starts at its response, not at the
/// next slice. Gap draws come from a dedicated `fork("workload-gaps")`
/// stream of `seed`, making a given spec's schedule reproducible across
/// queue backends and thread counts.
///
/// The result's [`RunResult::offered`] summarizes the load actually
/// submitted. Finite processes (e.g. trace replay) may exhaust before
/// `warmup + samples` arrivals; the run then measures what the process
/// supplied.
///
/// # Errors
///
/// Returns [`ClientError`] for invalid configs or specs, empty
/// deployments, or if requests stop completing for an hour of simulated
/// time while some are outstanding.
pub fn run_workload_spec(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    spec: &WorkloadSpec,
    seed: u64,
    measure: &MeasureSpec,
) -> Result<RunResult, ClientError> {
    cfg.validate().map_err(ClientError::InvalidConfig)?;
    measure.validate().map_err(ClientError::InvalidConfig)?;
    spec.validate().map_err(ClientError::InvalidConfig)?;
    if deployment.is_empty() {
        return Err(ClientError::EmptyDeployment);
    }
    let users = match spec.mode {
        ModeSpec::Open => None,
        ModeSpec::Closed { .. } if cfg.burst_size != 1 => {
            return Err(ClientError::InvalidConfig(
                "closed-loop workloads require burst_size 1".to_string(),
            ));
        }
        ModeSpec::Closed { concurrency } => Some(u64::from(concurrency)),
    };
    let closed = users.is_some();
    let mut process = spec.build(seed);
    let process = process.as_mut();
    let rng = &mut Rng::seed_from(seed).fork("workload-gaps");

    let start = cloud.now();
    let mut total = u64::from(cfg.warmup_rounds + cfg.measured_rounds());
    if let Some(remaining) = process.remaining() {
        total = total.min(remaining);
    }
    let burst = u64::from(cfg.burst_size);
    let multi_source = process.sources() > 1;
    let mut policy = cfg.policy.as_ref().map(|p| Policy::new(p, seed, total, cloud));
    let ahead = policy.is_none() && !closed;
    let slice = if ahead { AHEAD_SLICE } else { SLICE };
    cloud.reserve_event_hint((total * burst) as usize);

    let mut collector = Collector::new(measure, u64::from(cfg.warmup_rounds));
    let mut recorder = LoadRecorder::default();
    // Closed-loop arrivals are decided in completion order, not time
    // order, so their instants transit a min-heap (bounded by the user
    // count) and are recorded once the clock passes them; open-loop
    // arrivals are monotone and recorded as issued.
    let mut record_heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut comp_buf: Vec<Completion> = Vec::new();
    let mut trans_buf: Vec<TransferSample> = Vec::new();
    // Arrivals issued (the next tag), requests the run waits on
    // (physical without a policy, logical with one) and those resolved.
    let (mut arrivals, mut awaited, mut resolved) = (0u64, 0u64, 0u64);
    // Whether no arrival remains: the count is reached or a finite
    // process ran out.
    let mut dry = total == 0;
    // Next open-loop arrival, drawn one ahead of its submission.
    let mut next_arrival = start;
    let mut last_issue = start;
    let mut last_progress = start;

    macro_rules! issue {
        ($at:expr, $source:expr) => {{
            let at: SimTime = $at;
            let function = deployment.endpoints[$source % deployment.len()].function;
            match policy.as_mut() {
                Some(p) => {
                    p.issue(cloud, function, arrivals, at);
                    awaited += 1;
                }
                None => {
                    for _ in 0..burst {
                        cloud.submit(function, arrivals, at);
                    }
                    awaited += burst;
                }
            }
            arrivals += 1;
            dry |= arrivals == total;
            last_issue = last_issue.max(at);
            if closed {
                record_heap.push(Reverse(at.as_nanos()));
            } else {
                recorder.record(at.as_millis());
            }
        }};
    }
    macro_rules! issue_next_arrival {
        () => {{
            let source = if multi_source { process.source() } else { arrivals as usize };
            issue!(next_arrival, source);
            if !dry {
                match next_gap(process, rng) {
                    Some(gap) => next_arrival += gap,
                    None => dry = true,
                }
            }
        }};
    }

    if let Some(users) = users {
        // Thundering herd: all users fire at the start, which is what a
        // freshly started closed-loop client does.
        for _ in 0..users.min(total) {
            issue!(start, arrivals as usize);
        }
    } else if !dry {
        match next_gap(process, rng) {
            Some(gap) => next_arrival += gap,
            None => dry = true,
        }
    }

    while !(dry && resolved >= awaited) {
        // Advance to the earliest interesting instant: the next open-loop
        // arrival (the last of a slice's worth without a policy), the
        // earliest policy timer, or at most one slice.
        let now = cloud.now();
        let mut next = now + slice;
        if let Some(timer) = policy.as_ref().and_then(Policy::next_timer) {
            next = next.min(timer.max(now));
        }
        if !closed && !dry {
            if ahead {
                // A slice's worth of arrivals, through the first one past
                // the slice end; the step then runs to the last of them.
                let slice_end = now.max(last_issue) + slice;
                while !dry && last_issue <= slice_end {
                    issue_next_arrival!();
                }
                next = last_issue.max(now);
            } else {
                next = next.min(next_arrival);
                while !dry && next_arrival <= next {
                    issue_next_arrival!();
                }
            }
        }
        if closed {
            cloud.run_until_completion(next);
        } else {
            cloud.run_until(next);
        }

        // Completions first: a response at the boundary beats any policy
        // timer due at it.
        let now = cloud.now();
        let before = resolved;
        cloud.drain_completions_into(&mut comp_buf);
        cloud.drain_transfers_into(&mut trans_buf);
        let mut progressed = !comp_buf.is_empty();
        for c in comp_buf.drain(..) {
            match policy.as_mut() {
                Some(p) => p.complete(cloud, c, now, &mut collector),
                None => {
                    resolved += 1;
                    collector.absorb(c);
                }
            }
        }
        for tr in trans_buf.drain(..) {
            collector.absorb_transfer(tr);
        }
        if let Some(p) = policy.as_mut() {
            progressed |= p.fire_timers(cloud, now);
            resolved = p.resolved;
        }

        if closed {
            // Every request resolved at `now` frees its user for one
            // think gap: one per *logical* resolution, never per physical
            // attempt, so a winning hedge cannot double-credit think time
            // (the coordinated-omission hazard).
            for _ in before..resolved {
                if dry {
                    break;
                }
                match next_gap(process, rng) {
                    Some(gap) => issue!(now + gap, arrivals as usize),
                    None => dry = true,
                }
            }
            while let Some(&Reverse(ns)) = record_heap.peek() {
                if ns > now.as_nanos() {
                    break;
                }
                record_heap.pop();
                recorder.record(ns as f64 / 1e6);
            }
        }

        if progressed || resolved >= awaited {
            last_progress = now;
        } else if now >= last_progress.max(last_issue) + STALL {
            break;
        }
    }

    if policy.is_some() {
        // Settle cancellations issued at the final boundary so the
        // wasted-work accounting sees them.
        cloud.run_until(cloud.now());
    }
    while let Some(Reverse(ns)) = record_heap.pop() {
        recorder.record(ns as f64 / 1e6);
    }
    let duration = cloud.now() - start;
    let mut result = collector.finish(resolved, awaited, duration, recorder.finish())?;
    result.policy = policy.map(|p| p.finish(cloud));
    Ok(result)
}

/// One physical attempt of a logical request.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    rid: RequestId,
    done: bool,
    cancelled: bool,
}

/// Per-logical-request policy state. Pooled and reused via a free list
/// so the steady-state hot path allocates nothing.
struct Slot {
    tag: u64,
    function: FunctionId,
    machine: Composite,
    attempts: Vec<Attempt>,
    outstanding: u32,
    /// Timer-heap entries still pending for this occupancy of the slot.
    /// When this hits zero with no outstanding attempts and no win, the
    /// machine can never act again — the logical request is lost.
    pending_timers: u32,
    won: bool,
    abandoned: bool,
}

impl Slot {
    /// Cancels every attempt still in flight; returns how many.
    fn cancel_outstanding(&mut self, cloud: &mut CloudSim) -> u64 {
        let mut cancelled = 0;
        for attempt in self.attempts.iter_mut().filter(|a| !a.done && !a.cancelled) {
            cloud.cancel(attempt.rid);
            attempt.cancelled = true;
            self.outstanding -= 1;
            cancelled += 1;
        }
        cancelled
    }
}

/// Instance time a completed attempt kept busy, ms.
fn busy_ms(c: &Completion) -> f64 {
    let b = &c.breakdown;
    b.steer_ms + b.handling_ms + b.payload_get_ms + b.exec_ms + b.chain_ms
}

/// The tail-tolerance side of a policy run: one [`Composite`] machine per
/// in-flight logical request, the armed timers, the online latency
/// estimate and the [`PolicyStats`] accounting (see the module docs).
struct Policy<'a> {
    spec: &'a PolicySpec,
    slots: Vec<Slot>,
    free: Vec<usize>,
    by_tag: HashMap<u64, usize>,
    /// Armed timers: (fire instant ns, logical tag). Stale entries (slot
    /// already resolved and freed) are skipped on delivery.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    actions: Actions,
    /// The exact quantile of every winner so far, read on each arrival:
    /// O(log n) per winner and O(1) per read, 8 B per winner (reserved up
    /// front from the known request count).
    estimate: Option<RunningQuantile>,
    jitter: Rng,
    stats: PolicyStats,
    cancel_base_ms: f64,
    /// Logical requests resolved: won, abandoned or failed for good.
    resolved: u64,
}

impl<'a> Policy<'a> {
    fn new(spec: &'a PolicySpec, seed: u64, total: u64, cloud: &CloudSim) -> Policy<'a> {
        Policy {
            spec,
            slots: Vec::new(),
            free: Vec::new(),
            by_tag: HashMap::new(),
            timers: BinaryHeap::new(),
            actions: Actions::new(),
            estimate: spec
                .online_quantile()
                .map(|q| RunningQuantile::with_capacity(q, total as usize)),
            jitter: Rng::seed_from(seed).fork("policy"),
            stats: PolicyStats::default(),
            cancel_base_ms: cloud.cancel_stats().wasted_busy_ms,
            resolved: 0,
        }
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.timers.peek().map(|&Reverse((ns, _))| SimTime::from_nanos(ns))
    }

    /// Issues logical request `tag` at `at` (>= the cloud's clock):
    /// submits its primary attempt and runs the machine's `Issued` event,
    /// which may launch tied copies or arm timers.
    fn issue(&mut self, cloud: &mut CloudSim, function: FunctionId, tag: u64, at: SimTime) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                tag,
                function,
                machine: self.spec.build(),
                attempts: Vec::new(),
                outstanding: 0,
                pending_timers: 0,
                won: false,
                abandoned: false,
            });
            self.slots.len() - 1
        });
        self.by_tag.insert(tag, idx);
        let rid = cloud.submit(function, tag, at);
        let slot = &mut self.slots[idx];
        slot.tag = tag;
        slot.function = function;
        slot.machine.reset();
        slot.attempts.clear();
        slot.attempts.push(Attempt { rid, done: false, cancelled: false });
        slot.outstanding = 1;
        slot.pending_timers = 0;
        slot.won = false;
        slot.abandoned = false;
        self.stats.logical += 1;
        let estimate_ms = match &self.estimate {
            Some(e) if e.count() >= ESTIMATE_WARMUP => e.value(),
            _ => f64::NAN,
        };
        self.deliver(cloud, idx, at, PolicyEvent::Issued { now_ms: at.as_millis(), estimate_ms });
    }

    /// Delivers `event` to slot `idx`'s machine and applies the actions
    /// it emits, with `at` as the current instant (attempt launches
    /// happen at `at`).
    fn deliver(&mut self, cloud: &mut CloudSim, idx: usize, at: SimTime, event: PolicyEvent) {
        let mut actions = std::mem::take(&mut self.actions);
        actions.clear();
        let slot = &mut self.slots[idx];
        slot.machine.on_event(event, &mut actions);
        for action in &actions {
            match *action {
                Action::Arm { at_ms } => {
                    let fire = SimTime::from_millis(at_ms).max(at);
                    self.timers.push(Reverse((fire.as_nanos(), slot.tag)));
                    slot.pending_timers += 1;
                }
                Action::Launch => {
                    let rid = cloud.submit(slot.function, slot.tag, at);
                    slot.attempts.push(Attempt { rid, done: false, cancelled: false });
                    slot.outstanding += 1;
                    self.stats.extra_launches += 1;
                }
                Action::CancelOutstanding => self.stats.cancels += slot.cancel_outstanding(cloud),
                Action::Abandon => {
                    if !slot.abandoned && !slot.won {
                        slot.abandoned = true;
                        self.stats.cancels += slot.cancel_outstanding(cloud);
                        self.stats.abandoned += 1;
                        self.resolved += 1;
                    }
                }
            }
        }
        self.actions = actions;
        self.maybe_free(idx);
    }

    /// Returns a resolved slot with no outstanding attempts to the pool.
    fn maybe_free(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        if (slot.won || slot.abandoned) && slot.outstanding == 0 {
            self.by_tag.remove(&slot.tag);
            self.free.push(idx);
        }
    }

    /// Resolves a logical request whose machine can never act again:
    /// every attempt failed (or was cancelled), nothing is outstanding,
    /// and no retry/abandon timer remains armed. Without this check a
    /// run whose final attempt returns a provider error would stall.
    fn check_dead_end(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if !slot.won && !slot.abandoned && slot.outstanding == 0 && slot.pending_timers == 0 {
            slot.abandoned = true;
            self.stats.failed_logical += 1;
            self.resolved += 1;
            self.maybe_free(idx);
        }
    }

    /// Routes one drained completion to its logical request: the first
    /// success wins (and goes to `collector`), later ones are duplicates,
    /// and a provider error lets the machine retry or hedge.
    fn complete(
        &mut self,
        cloud: &mut CloudSim,
        c: Completion,
        now: SimTime,
        collector: &mut Collector,
    ) {
        let Some(&idx) = self.by_tag.get(&c.tag) else {
            // A failed attempt of an already-resolved request has its
            // wasted work booked cloud-side in `FaultStats`. A success
            // is a duplicate whose cancel came too late: the request
            // resolved earlier in this very batch.
            if c.is_ok() {
                self.stats.duplicate_successes += 1;
                self.stats.wasted_busy_ms += busy_ms(&c);
            }
            return;
        };
        let now_ms = now.as_millis();
        let slot = &mut self.slots[idx];
        if let Some(attempt) = slot.attempts.iter_mut().find(|a| a.rid == c.id) {
            attempt.done = true;
            if !attempt.cancelled {
                slot.outstanding -= 1;
            }
        }
        if !c.is_ok() {
            // Provider error: never a win, never a latency sample. The
            // machine may retry (after backoff) or hedge immediately; if
            // it has nothing left, the logical request resolves as failed.
            self.stats.failures += 1;
            self.deliver(cloud, idx, now, PolicyEvent::Failed { now_ms });
            self.check_dead_end(idx);
            return;
        }
        let first = !slot.won;
        if first {
            slot.won = true;
            self.stats.used_busy_ms += busy_ms(&c);
            if let Some(e) = self.estimate.as_mut() {
                e.record(c.latency_ms());
            }
            collector.absorb(c);
            self.resolved += 1;
        } else {
            self.stats.duplicate_successes += 1;
            self.stats.wasted_busy_ms += busy_ms(&c);
        }
        self.deliver(cloud, idx, now, PolicyEvent::Done { now_ms, first });
    }

    /// Delivers every timer due by `now`; returns whether any was due.
    /// Each machine checks its own next-wake time, so spurious
    /// deliveries are inert.
    fn fire_timers(&mut self, cloud: &mut CloudSim, now: SimTime) -> bool {
        let mut fired = false;
        while let Some(&Reverse((ns, tag))) = self.timers.peek() {
            if ns > now.as_nanos() {
                break;
            }
            self.timers.pop();
            fired = true;
            let Some(&idx) = self.by_tag.get(&tag) else { continue };
            self.slots[idx].pending_timers -= 1;
            let jitter = self.jitter.next_f64();
            self.deliver(cloud, idx, now, PolicyEvent::Wake { now_ms: now.as_millis(), jitter });
            self.check_dead_end(idx);
        }
        fired
    }

    /// The run's accounting, with the instance time cancelled attempts
    /// burned during it.
    fn finish(self, cloud: &CloudSim) -> PolicyStats {
        let mut stats = self.stats;
        stats.wasted_busy_ms += cloud.cancel_stats().wasted_busy_ms - self.cancel_base_ms;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChainConfig, IatSpec, StaticConfig, StaticFunction};
    use crate::deployer::deploy;
    use faas_sim::testutil::test_provider;
    use faas_sim::types::TransferMode;
    use policy::spec::ThresholdSpec;

    fn setup(static_cfg: &StaticConfig, runtime_cfg: &RuntimeConfig) -> (CloudSim, Deployment) {
        let mut cloud = CloudSim::new(test_provider(), 7);
        let d = deploy(&mut cloud, static_cfg, runtime_cfg).unwrap();
        (cloud, d)
    }

    #[test]
    fn collects_exactly_the_requested_samples() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 50);
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        assert_eq!(result.completions.len(), 50);
        assert!(result.warmup_completions.is_empty());
        assert_eq!(result.latencies_ms().len(), 50);
    }

    #[test]
    fn warmup_rounds_are_partitioned_out() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 20);
        cfg.warmup_rounds = 5;
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        assert_eq!(result.completions.len(), 20);
        assert_eq!(result.warmup_completions.len(), 5);
        // The cold start happened in warm-up; measured samples are warm.
        assert_eq!(result.cold_fraction(), 0.0);
    }

    #[test]
    fn bursts_issue_simultaneous_requests() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 10_000.0 }, 100);
        cfg.burst_size = 50;
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        assert_eq!(result.completions.len(), 100);
        // Two rounds: tags 0 and 1, 50 requests each.
        let round0 = result.completions.iter().filter(|c| c.tag == 0).count();
        assert_eq!(round0, 50);
    }

    #[test]
    fn round_robin_spreads_rounds_over_endpoints() {
        let static_cfg =
            StaticConfig { functions: vec![StaticFunction::python_zip("f").with_replicas(4)] };
        let cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 100.0 }, 8);
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        // 8 rounds over 4 endpoints: each function invoked exactly twice.
        for e in &d.endpoints {
            let count = result.completions.iter().filter(|c| c.function == e.function).count();
            assert_eq!(count, 2, "endpoint {}", e.name);
        }
    }

    #[test]
    fn chain_transfers_are_collected() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] };
        let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 10);
        cfg.warmup_rounds = 2;
        cfg.chain =
            Some(ChainConfig { length: 2, mode: TransferMode::Storage, payload_bytes: 1_000_000 });
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        assert_eq!(result.completions.len(), 10);
        assert_eq!(result.transfers.len(), 10, "one transfer per measured round");
        assert!(result.transfer_ms().iter().all(|&ms| ms > 0.0));
    }

    #[test]
    fn empty_deployment_is_an_error() {
        let mut cloud = CloudSim::new(test_provider(), 1);
        let cfg = RuntimeConfig::single(IatSpec::short(), 10);
        let d = Deployment { endpoints: vec![] };
        assert_eq!(
            run_workload(&mut cloud, &d, &cfg, 1).unwrap_err(),
            ClientError::EmptyDeployment
        );
    }

    #[test]
    fn poisson_iat_works() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cfg = RuntimeConfig::single(IatSpec::Exponential { mean_ms: 500.0 }, 30);
        cfg.warmup_rounds = 1;
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        assert_eq!(result.completions.len(), 30);
    }

    #[test]
    fn iat_streaming_matches_keep_samples_run() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cfg = RuntimeConfig::single(IatSpec::Exponential { mean_ms: 50.0 }, 400);
        cfg.warmup_rounds = 10;
        let (mut cloud_a, d_a) = setup(&static_cfg, &cfg);
        let exact = run_workload(&mut cloud_a, &d_a, &cfg, 9).unwrap();
        let (mut cloud_b, d_b) = setup(&static_cfg, &cfg);
        let streaming =
            run_workload_with(&mut cloud_b, &d_b, &cfg, 9, &MeasureSpec::sketch()).unwrap();

        assert!(streaming.completions.is_empty(), "streaming keeps no samples");
        assert_eq!(streaming.measured_count, exact.completions.len() as u64);
        assert_eq!(streaming.warmup_count, exact.warmup_completions.len() as u64);
        assert_eq!(streaming.cold_fraction(), exact.cold_fraction());
        // The measure mode must not change the simulated run: same end
        // instant, same request-slab occupancy.
        assert_eq!(streaming.duration, exact.duration);
        assert_eq!(cloud_b.request_slab_stats(), cloud_a.request_slab_stats());
        // Both modes aggregate the identical completion sequence, so the
        // moment sums agree bit for bit.
        let mut agg = streaming.latency_agg.clone();
        assert_eq!(agg.count(), 400);
        assert_eq!(agg.mean(), {
            let lat = exact.latencies_ms();
            lat.iter().sum::<f64>() / lat.len() as f64
        });
        // Below the sketch threshold the quantiles are exact too.
        assert_eq!(agg.quantile(0.5), stats::percentile(&exact.latencies_ms(), 0.5));
    }

    #[test]
    fn streaming_transfers_are_aggregated() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] };
        let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 10);
        cfg.warmup_rounds = 2;
        cfg.chain =
            Some(ChainConfig { length: 2, mode: TransferMode::Storage, payload_bytes: 1_000_000 });
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result = run_workload_with(&mut cloud, &d, &cfg, 1, &MeasureSpec::sketch()).unwrap();
        assert!(result.transfers.is_empty());
        assert_eq!(result.transfer_agg.count(), 10, "one transfer per measured round");
        let mut agg = result.transfer_agg.clone();
        assert!(agg.quantile(0.5) > 0.0);
    }

    #[test]
    fn exact_mode_without_samples_is_rejected() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let cfg = RuntimeConfig::single(IatSpec::short(), 10);
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let spec = MeasureSpec::exact().with_keep_samples(false);
        let err = run_workload_with(&mut cloud, &d, &cfg, 1, &spec).unwrap_err();
        assert!(matches!(err, ClientError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let cfg = RuntimeConfig::single(IatSpec::Exponential { mean_ms: 200.0 }, 25);
        let run = |seed: u64| {
            let (mut cloud, d) = setup(&static_cfg, &cfg);
            run_workload(&mut cloud, &d, &cfg, seed).unwrap().latencies_ms()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    fn spec_setup(samples: u32) -> (StaticConfig, RuntimeConfig) {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cfg = RuntimeConfig::single(IatSpec::short(), samples);
        cfg.warmup_rounds = 5;
        (static_cfg, cfg)
    }

    #[test]
    fn spec_open_loop_collects_requested_samples_and_offered_load() {
        let (static_cfg, cfg) = spec_setup(60);
        let spec =
            WorkloadSpec::from_json(r#"{"arrival": {"kind": "exponential", "mean_ms": 80.0}}"#)
                .unwrap();
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 11, &MeasureSpec::exact()).unwrap();
        assert_eq!(result.completions.len(), 60);
        assert_eq!(result.warmup_completions.len(), 5);
        let offered = result.offered.expect("spec runs report offered load");
        assert_eq!(offered.arrivals, 65);
        assert!(offered.mean_rate_per_s > 0.0);
    }

    #[test]
    fn spec_run_is_deterministic_and_seed_sensitive() {
        let (static_cfg, cfg) = spec_setup(40);
        let spec = WorkloadSpec::preset("mmpp-burst").unwrap();
        let run = |seed: u64| {
            let (mut cloud, d) = setup(&static_cfg, &cfg);
            run_workload_spec(&mut cloud, &d, &cfg, &spec, seed, &MeasureSpec::exact())
                .unwrap()
                .latencies_ms()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn spec_streaming_matches_keep_samples_run() {
        let (static_cfg, cfg) = spec_setup(200);
        let spec = WorkloadSpec::preset("mmpp-burst").unwrap();
        let (mut cloud_a, d_a) = setup(&static_cfg, &cfg);
        let exact =
            run_workload_spec(&mut cloud_a, &d_a, &cfg, &spec, 13, &MeasureSpec::exact()).unwrap();
        let (mut cloud_b, d_b) = setup(&static_cfg, &cfg);
        let streaming =
            run_workload_spec(&mut cloud_b, &d_b, &cfg, &spec, 13, &MeasureSpec::sketch()).unwrap();
        assert_eq!(streaming.measured_count, exact.completions.len() as u64);
        assert_eq!(streaming.warmup_count, exact.warmup_completions.len() as u64);
        let mut agg = streaming.latency_agg.clone();
        assert_eq!(agg.mean(), {
            let lat = exact.latencies_ms();
            lat.iter().sum::<f64>() / lat.len() as f64
        });
        assert_eq!(agg.quantile(0.5), stats::percentile(&exact.latencies_ms(), 0.5));
        assert_eq!(streaming.offered, exact.offered, "same schedule either way");
        assert_eq!(streaming.duration, exact.duration);
        assert_eq!(cloud_b.request_slab_stats(), cloud_a.request_slab_stats());
    }

    #[test]
    fn spec_closed_loop_bounds_outstanding_requests() {
        let (static_cfg, mut cfg) = spec_setup(50);
        cfg.warmup_rounds = 0;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "fixed", "ms": 20.0}, "mode": {"mode": "closed", "concurrency": 4}}"#,
        )
        .unwrap();
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 21, &MeasureSpec::exact()).unwrap();
        assert_eq!(result.completions.len(), 50);
        // Closed loop: never more than `concurrency` requests in flight.
        // Verify via issue/completion interleaving: sort events by time and
        // track the high-water mark of outstanding requests.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for c in &result.completions {
            events.push((c.issued_at.as_nanos(), 1));
            events.push((c.completed_at.as_nanos(), -1));
        }
        events.sort();
        let mut outstanding = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            outstanding += delta;
            peak = peak.max(outstanding);
        }
        assert!(peak <= 4, "outstanding peaked at {peak}");
        assert!(result.offered.unwrap().arrivals == 50);
    }

    #[test]
    fn incomplete_run_returns_the_kept_completions() {
        // Requests overlap (3 s executions every second), so each new one
        // needs a fresh instance; an outage from 3.5 s defers every later
        // boot for ten hours, past the stall limit. Requests served by
        // the first instances complete, the rest never do, with or
        // without a (never-firing) policy.
        let hedge =
            PolicySpec::Hedge { threshold: ThresholdSpec::Static { ms: 1e9 }, max_hedges: 1 };
        for policy in [None, Some(hedge)] {
            let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 20);
            cfg.exec_ms = 3000.0;
            cfg.policy = policy.clone();
            let (mut cloud, d) = policy_setup(&cfg);
            cloud.install_faults(
                faults::FaultSpec::Outage { start_ms: 3500.0, duration_ms: 36_000_000.0 }.build(),
            );
            let err = run_workload(&mut cloud, &d, &cfg, 1).unwrap_err();
            let ClientError::IncompleteRun { received, expected, completions } = err else {
                panic!("{policy:?}: expected an incomplete run, got {err:?}");
            };
            assert_eq!(expected, 20, "{policy:?}");
            assert!(received > 0 && received < expected, "{policy:?}: {received}/{expected}");
            assert_eq!(completions.len(), received, "{policy:?}: the kept completions come back");
        }
    }

    #[test]
    fn gaps_longer_than_the_stall_limit_are_not_stalls() {
        // Two hours between rounds, with and without a policy: a request
        // submitted ahead, or an idle client, is not a stalled run.
        for policy in [None, Some(PolicySpec::Deadline { deadline_ms: 60_000.0 })] {
            let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 7_200_000.0 }, 3);
            cfg.policy = policy.clone();
            let (mut cloud, d) = policy_setup(&cfg);
            let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
            assert_eq!(result.completions.len(), 3, "{policy:?}");
        }
    }

    #[test]
    fn spec_closed_loop_rejects_bursts() {
        let (static_cfg, mut cfg) = spec_setup(10);
        cfg.burst_size = 4;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "fixed", "ms": 20.0}, "mode": {"mode": "closed", "concurrency": 2}}"#,
        )
        .unwrap();
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let err =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 1, &MeasureSpec::exact()).unwrap_err();
        assert!(matches!(err, ClientError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn spec_trace_replay_exhaustion_measures_what_the_trace_supplied() {
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        // Ask for far more samples than a short trace horizon can supply.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 100_000);
        cfg.warmup_rounds = 0;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "trace_replay", "functions": 3, "horizon_ms": 30000.0, "trace_window_ms": 60000.0}}"#,
        )
        .unwrap();
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 17, &MeasureSpec::exact()).unwrap();
        assert!(result.measured_count > 0, "trace produced arrivals");
        assert!(
            result.measured_count < 100_000,
            "finite trace cannot supply the full request count"
        );
        assert_eq!(result.offered.unwrap().arrivals, result.measured_count);
    }

    #[test]
    fn spec_superpose_routes_sources_to_endpoints() {
        let static_cfg =
            StaticConfig { functions: vec![StaticFunction::python_zip("f").with_replicas(2)] };
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 80);
        cfg.warmup_rounds = 0;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "superpose", "parts": [
                {"arrival": {"kind": "fixed", "ms": 50.0}},
                {"arrival": {"kind": "exponential", "mean_ms": 50.0}}
            ]}}"#,
        )
        .unwrap();
        let (mut cloud, d) = setup(&static_cfg, &cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &spec, 19, &MeasureSpec::exact()).unwrap();
        assert_eq!(result.completions.len(), 80);
        // Both tenants' endpoints saw traffic.
        for e in &d.endpoints {
            let count = result.completions.iter().filter(|c| c.function == e.function).count();
            assert!(count > 0, "endpoint {} starved", e.name);
        }
    }

    fn policy_setup(cfg: &RuntimeConfig) -> (CloudSim, Deployment) {
        setup(&StaticConfig { functions: vec![StaticFunction::python_zip("f")] }, cfg)
    }

    fn open_spec() -> WorkloadSpec {
        WorkloadSpec::from_json(r#"{"arrival": {"kind": "exponential", "mean_ms": 400.0}}"#)
            .unwrap()
    }

    #[test]
    fn iat_config_with_a_policy_runs_the_policy() {
        let cfg = RuntimeConfig::single(IatSpec::short(), 10)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        let (mut cloud, d) = policy_setup(&cfg);
        let result = run_workload(&mut cloud, &d, &cfg, 1).unwrap();
        let stats = result.policy.expect("an IAT run with a policy reports policy stats");
        assert_eq!(stats.logical, 10);
    }

    #[test]
    fn hedge_fires_on_every_slow_request_and_loses_to_the_primary() {
        // 300 ms execution means every request exceeds a 200 ms static
        // hedge threshold; the hedge starts 200 ms behind and can never
        // win, so it is cancelled mid-flight every time.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 40)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 2;
        cfg.exec_ms = 300.0;
        let (mut cloud, d) = policy_setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 3, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 40);
        let stats = result.policy.expect("policy runs report stats");
        assert_eq!(stats.logical, 42);
        assert_eq!(stats.extra_launches, 42, "every request hedged");
        assert!(stats.cancels >= 42, "every hedge was cancelled");
        assert_eq!(stats.abandoned, 0);
        assert!(stats.wasted_busy_ms > 0.0, "cancelled hedges burned instance time");
        assert!(stats.used_busy_ms > stats.wasted_busy_ms, "winners ran to completion");
        // Latency samples come from winners only: ~340 ms, not 540.
        for ms in result.latencies_ms() {
            assert!(ms < 520.0, "hedge must not pollute samples, got {ms}");
        }
    }

    #[test]
    fn fast_requests_never_hedge() {
        // Threshold above even the cold-start latency (~280 ms on the
        // test provider), so no request in the run crosses it.
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 30).with_policy(PolicySpec::Hedge {
            threshold: ThresholdSpec::Static { ms: 500.0 },
            max_hedges: 1,
        });
        cfg.warmup_rounds = 2;
        let (mut cloud, d) = policy_setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 5, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 30);
        let stats = result.policy.unwrap();
        assert_eq!(stats.extra_launches, 0, "warm 40 ms requests stay under 200 ms");
        assert_eq!(stats.cancels, 0);
        assert_eq!(stats.duplicate_successes, 0);
        assert_eq!(stats.wasted_busy_ms, 0.0);
    }

    #[test]
    fn deadline_abandons_requests_that_cannot_finish() {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 10)
            .with_policy(PolicySpec::Deadline { deadline_ms: 100.0 });
        cfg.exec_ms = 500.0; // every request takes ~540 ms > 100 ms
        let (mut cloud, d) = policy_setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 9, &MeasureSpec::exact())
                .unwrap();
        let stats = result.policy.unwrap();
        assert_eq!(stats.abandoned, 10, "no request can meet the deadline");
        assert_eq!(result.completions.len(), 0, "abandoned requests produce no samples");
        assert_eq!(result.measured_count, 0);
        assert!(stats.wasted_busy_ms > 0.0, "abandoned work is accounted as waste");
    }

    #[test]
    fn tied_requests_duplicate_and_keep_one_sample_per_arrival() {
        let mut cfg =
            RuntimeConfig::single(IatSpec::short(), 25).with_policy(PolicySpec::Tied { copies: 2 });
        cfg.warmup_rounds = 5;
        let (mut cloud, d) = policy_setup(&cfg);
        let result =
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), 13, &MeasureSpec::exact())
                .unwrap();
        assert_eq!(result.completions.len(), 25, "one sample per logical request");
        assert_eq!(result.warmup_completions.len(), 5);
        let stats = result.policy.unwrap();
        assert_eq!(stats.extra_launches, 30, "one tied copy per arrival");
        // Warm tied copies finish within the same slice as the winner:
        // the winner's cancel is issued after the loser already
        // completed, so every loser is a futile cancel plus a duplicate
        // success.
        assert_eq!(stats.cancels, 30, "every loser gets a (possibly futile) cancel");
        assert!(
            stats.duplicate_successes >= 1,
            "same-slice losers complete before their cancel lands: {stats:?}"
        );
        assert!(stats.wasted_busy_ms > 0.0);
    }

    #[test]
    fn closed_loop_thinks_once_per_logical_request() {
        // The coordinated-omission regression: a second physical
        // completion must not credit an extra think-time gap. One gap is
        // sampled per logical resolution, so offered arrivals equal the
        // requested total even when every request launches two attempts
        // (tied-2), or when failed attempts complete and are retried.
        let total = 30u32;
        let spec = WorkloadSpec::from_json(
            r#"{"arrival": {"kind": "fixed", "ms": 50.0},
                "mode": {"mode": "closed", "concurrency": 4}}"#,
        )
        .unwrap();
        for (policy, faults) in [
            (PolicySpec::Tied { copies: 2 }, None),
            (
                PolicySpec::preset("retry-backoff").unwrap(),
                Some(faults::FaultSpec::Transient { code: 503, p: 0.3 }),
            ),
        ] {
            let mut cfg = RuntimeConfig::single(IatSpec::short(), total).with_policy(policy);
            cfg.warmup_rounds = 0;
            let (mut cloud, d) = policy_setup(&cfg);
            if let Some(f) = &faults {
                cloud.install_faults(f.build());
            }
            let result =
                run_workload_spec(&mut cloud, &d, &cfg, &spec, 21, &MeasureSpec::exact()).unwrap();
            let stats = result.policy.unwrap();
            assert_eq!(
                result.offered.expect("policy runs report offered load").arrivals,
                u64::from(total),
                "one arrival per logical request, never per physical attempt: {stats:?}"
            );
            assert_eq!(stats.logical, u64::from(total));
            if faults.is_none() {
                assert_eq!(result.completions.len(), total as usize);
                assert_eq!(stats.extra_launches, u64::from(total), "tied-2 doubles every request");
                // The run stops at the winner's response, so every loser
                // is cancelled then, mid-flight or futilely.
                assert_eq!(stats.cancels, u64::from(total));
                assert!(stats.wasted_busy_ms > 0.0, "{stats:?}");
            } else {
                assert!(stats.failures > 0, "failed attempts completed: {stats:?}");
                assert!(stats.extra_launches > 0, "and were retried: {stats:?}");
            }
        }
    }

    #[test]
    fn policy_run_is_deterministic_and_seed_sensitive() {
        let mut cfg =
            RuntimeConfig::single(IatSpec::short(), 30).with_policy(PolicySpec::Compose {
                parts: vec![
                    PolicySpec::Hedge {
                        threshold: ThresholdSpec::Static { ms: 150.0 },
                        max_hedges: 1,
                    },
                    PolicySpec::Deadline { deadline_ms: 5_000.0 },
                ],
            });
        cfg.warmup_rounds = 3;
        cfg.exec_ms = 120.0;
        let run = |seed: u64| {
            let (mut cloud, d) = policy_setup(&cfg);
            run_workload_spec(&mut cloud, &d, &cfg, &open_spec(), seed, &MeasureSpec::exact())
                .unwrap()
                .latencies_ms()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn streaming_policy_run_matches_keep_samples_run() {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 60)
            .with_policy(PolicySpec::preset("hedge-200ms").unwrap());
        cfg.warmup_rounds = 5;
        cfg.exec_ms = 250.0;
        let (mut cloud_a, d_a) = policy_setup(&cfg);
        let exact =
            run_workload_spec(&mut cloud_a, &d_a, &cfg, &open_spec(), 17, &MeasureSpec::exact())
                .unwrap();
        let (mut cloud_b, d_b) = policy_setup(&cfg);
        let streaming =
            run_workload_spec(&mut cloud_b, &d_b, &cfg, &open_spec(), 17, &MeasureSpec::sketch())
                .unwrap();
        assert_eq!(streaming.measured_count, exact.completions.len() as u64);
        assert_eq!(streaming.policy, exact.policy, "accounting is measure-independent");
        let agg = streaming.latency_agg.clone();
        let lat = exact.latencies_ms();
        assert_eq!(agg.mean(), lat.iter().sum::<f64>() / lat.len() as f64);
        assert_eq!(streaming.duration, exact.duration);
        assert_eq!(cloud_b.request_slab_stats(), cloud_a.request_slab_stats());
    }
}
