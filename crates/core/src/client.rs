//! The client: provider-agnostic load generation and measurement.
//!
//! Mirrors STeLLAR's client (§IV): invokes the endpoints produced by the
//! deployer in round-robin order at the configured inter-arrival time,
//! optionally issuing `burst_size` simultaneous requests per round, and
//! collects per-request latency samples plus the intra-function transfer
//! timestamps.
//!
//! Every driver submits and drains in bounded time slices and feeds one
//! measurement sink; the [`MeasureSpec`] picks only the quantile engine
//! and whether sample vectors are retained, never the simulated run.

use faas_sim::cloud::CloudSim;
use faas_sim::request::{Completion, TransferSample};
use simkit::rng::Rng;
use simkit::time::SimTime;
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
/// Either way the drivers run the identical slice loop, so the simulated
/// run (event sequence, duration, slab occupancy) does not depend on the
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
    /// Simulated duration of the whole run: from its start to the slice
    /// boundary at which the driver drained the last completion (so it
    /// overshoots the last completion by up to one drain slice).
    pub duration: SimTime,
    /// Realized offered-load summary of the arrivals the run submitted.
    /// Every driver populates it, IAT runs included (they run as their
    /// lifted spec).
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
    /// Not all requests completed within the simulation horizon.
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
/// requests fail to complete within a generous horizon (which would
/// indicate a simulator bug).
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
/// deployments, or if requests fail to complete within a generous horizon
/// (which would indicate a simulator bug). The
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

/// The run's measurement sink, shared by every driver: sorts each
/// completion into warm-up, measured or provider error and each transfer
/// into kept or dropped, folds them into the streaming aggregates, and
/// retains the sample vectors only when the [`MeasureSpec`] keeps
/// samples.
pub(crate) struct Collector {
    keep: bool,
    warmup_tag: u64,
    completions: Vec<Completion>,
    warmup_completions: Vec<Completion>,
    transfers: Vec<TransferSample>,
    comp_buf: Vec<Completion>,
    trans_buf: Vec<TransferSample>,
    latency_agg: LatencyAgg,
    transfer_agg: LatencyAgg,
    received: usize,
    measured_count: u64,
    warmup_count: u64,
    cold_count: u64,
}

impl Collector {
    pub(crate) fn new(measure: &MeasureSpec, warmup_tag: u64) -> Collector {
        Collector {
            keep: measure.keep_samples,
            warmup_tag,
            completions: Vec::new(),
            warmup_completions: Vec::new(),
            transfers: Vec::new(),
            comp_buf: Vec::new(),
            trans_buf: Vec::new(),
            latency_agg: LatencyAgg::with_mode(measure.quantile),
            transfer_agg: LatencyAgg::with_mode(measure.quantile),
            received: 0,
            measured_count: 0,
            warmup_count: 0,
            cold_count: 0,
        }
    }

    pub(crate) fn absorb(&mut self, c: Completion) {
        self.received += 1;
        if !c.is_ok() {
            // Provider error: counts toward run termination, never
            // toward samples or aggregates.
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

    pub(crate) fn absorb_transfer(&mut self, tr: TransferSample) {
        if tr.parent_tag < self.warmup_tag {
            return;
        }
        self.transfer_agg.record(tr.transfer_ms());
        if self.keep {
            self.transfers.push(tr);
        }
    }

    /// Drains the cloud's completion/transfer buffers into this
    /// collector.
    fn drain(&mut self, cloud: &mut CloudSim) {
        cloud.drain_completions_into(&mut self.comp_buf);
        cloud.drain_transfers_into(&mut self.trans_buf);
        // Swap the buffers out so `absorb` can borrow `self`; putting
        // them back keeps their capacity for the next slice.
        let mut comp_buf = std::mem::take(&mut self.comp_buf);
        for c in comp_buf.drain(..) {
            self.absorb(c);
        }
        self.comp_buf = comp_buf;
        let mut trans_buf = std::mem::take(&mut self.trans_buf);
        for tr in trans_buf.drain(..) {
            self.absorb_transfer(tr);
        }
        self.trans_buf = trans_buf;
    }

    pub(crate) fn finish(
        self,
        expected: usize,
        duration: SimTime,
        offered: Option<OfferedLoad>,
    ) -> Result<RunResult, ClientError> {
        if self.received < expected {
            return Err(ClientError::IncompleteRun {
                received: self.received,
                expected,
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
            offered,
            policy: None,
            faults: None,
        })
    }
}

/// Drives a [`WorkloadSpec`] against `deployment` on `cloud`.
///
/// The one client driver every run goes through ([`run_workload`] lifts
/// an IAT-only config into a spec and calls it). The arrival process
/// comes from `spec` rather than `cfg.iat`, and the spec's mode selects
/// between open-loop (arrivals submitted on the process's schedule
/// regardless of completions) and closed-loop (a fixed number of virtual
/// users, each issuing its next request one think-time gap after its
/// previous completion). A policy in `cfg` runs every logical request
/// through its state machine in either mode.
///
/// `cfg.warmup_rounds` initial arrivals are warm-up, `cfg.samples`
/// arrivals are measured, requests are tagged with their arrival index,
/// and the run starts at the cloud's current time. The first open-loop
/// arrival happens one gap after the start (so trace replays land on
/// their recorded timestamps), and endpoint routing follows the process's
/// source index when the process is multi-source (e.g.
/// [`workload::arrival::Superpose`]) and round-robin otherwise. In
/// open-loop mode each arrival issues `cfg.burst_size` simultaneous
/// requests; closed-loop mode requires `burst_size == 1`.
///
/// Arrivals are generated and submitted inside bounded time slices under a
/// submission window, so pending state stays O(slice + active requests)
/// however long the run. Gap draws come from a dedicated
/// `fork("workload-gaps")` stream of `seed`, making a given spec's
/// schedule reproducible across queue backends and thread counts.
///
/// The result's [`RunResult::offered`] summarizes the load actually
/// submitted. Finite processes (e.g. trace replay) may exhaust before
/// `warmup + samples` arrivals; the run then measures what the process
/// supplied.
///
/// # Errors
///
/// Returns [`ClientError`] for invalid configs or specs, empty
/// deployments, or if requests fail to complete within a generous horizon.
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
    let mut process = spec.build(seed);
    let mut rng = Rng::seed_from(seed).fork("workload-gaps");
    if let Some(pspec) = &cfg.policy {
        let mode = match spec.mode {
            ModeSpec::Open => crate::policy_driver::DriveMode::Open,
            ModeSpec::Closed { concurrency } => {
                crate::policy_driver::DriveMode::Closed { concurrency }
            }
        };
        return crate::policy_driver::drive_with_policy(
            cloud,
            deployment,
            cfg,
            process.as_mut(),
            &mut rng,
            measure,
            pspec,
            seed,
            mode,
        );
    }
    match spec.mode {
        ModeSpec::Open => open_loop(cloud, deployment, cfg, process.as_mut(), &mut rng, measure),
        ModeSpec::Closed { concurrency } => {
            if cfg.burst_size != 1 {
                return Err(ClientError::InvalidConfig(
                    "closed-loop workloads require burst_size 1".to_string(),
                ));
            }
            closed_loop(cloud, deployment, cfg, process.as_mut(), &mut rng, measure, concurrency)
        }
    }
}

/// Open-loop driver: arrivals follow the process's schedule, independent
/// of completions.
fn open_loop(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    process: &mut dyn ArrivalProcess,
    rng: &mut Rng,
    measure: &MeasureSpec,
) -> Result<RunResult, ClientError> {
    let start = cloud.now();
    let mut total_arrivals = u64::from(cfg.warmup_rounds + cfg.measured_rounds());
    if let Some(remaining) = process.remaining() {
        total_arrivals = total_arrivals.min(remaining);
    }
    let burst = u64::from(cfg.burst_size);
    let planned = (total_arrivals * burst) as usize;
    let multi_source = process.sources() > 1;
    cloud.reserve_event_hint(planned);
    cloud.open_submission_window(planned);

    let mut collector = Collector::new(measure, u64::from(cfg.warmup_rounds));
    let mut recorder = LoadRecorder::default();
    let mut issued = 0u64;
    let mut t = start;
    let mut last_issue = start;
    // Bounded-slice submission: generate and submit up to a slice's worth
    // of arrivals, advance the simulation to the last issue time, drain,
    // repeat. The slice is time-based so a burst does not blow up pending
    // state beyond what the process itself offers in one slice.
    const SLICE: SimTime = SimTime::from_nanos(10_000_000_000); // 10 s
    let mut exhausted = false;
    while !exhausted && issued < total_arrivals {
        let slice_end = cloud.now().max(t) + SLICE;
        while issued < total_arrivals && t <= slice_end {
            let gap = process.next_gap_ms(rng);
            if !gap.is_finite() {
                exhausted = true;
                break;
            }
            t += SimTime::from_millis(gap);
            let source = if multi_source { process.source() } else { issued as usize };
            let endpoint = &deployment.endpoints[source % deployment.len()];
            for _ in 0..burst {
                cloud.submit(endpoint.function, issued, t);
            }
            recorder.record(t.as_millis());
            last_issue = t;
            issued += 1;
        }
        cloud.run_until(last_issue.max(cloud.now()));
        collector.drain(cloud);
    }
    cloud.close_submission_window();
    let expected = (issued * burst) as usize;

    // Drain the tail: a generous horizon with bounded extensions (bursts
    // can queue for minutes on slow scale-out policies, chains and 1 GB
    // transfers take tens of seconds), advancing in slices so completion
    // buffers stay small.
    let mut horizon = last_issue + SimTime::from_secs(300.0);
    'drive: for _ in 0..20 {
        while cloud.now() < horizon {
            let next = (cloud.now() + SLICE).min(horizon);
            cloud.run_until(next);
            collector.drain(cloud);
            if collector.received >= expected {
                break 'drive;
            }
        }
        horizon += SimTime::from_secs(600.0);
    }
    let duration = cloud.now() - start;
    collector.finish(expected, duration, Some(recorder.finish()))
}

/// Closed-loop driver: `concurrency` virtual users. Each user submits,
/// waits for its completion, thinks for one arrival-process gap, and
/// submits again. Outstanding requests never exceed `concurrency`.
fn closed_loop(
    cloud: &mut CloudSim,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    process: &mut dyn ArrivalProcess,
    rng: &mut Rng,
    measure: &MeasureSpec,
    concurrency: u32,
) -> Result<RunResult, ClientError> {
    let start = cloud.now();
    let mut total = u64::from(cfg.warmup_rounds + cfg.measured_rounds());
    if let Some(remaining) = process.remaining() {
        total = total.min(remaining);
    }
    cloud.reserve_event_hint(total as usize);
    cloud.open_submission_window(total as usize);

    let mut collector = Collector::new(measure, u64::from(cfg.warmup_rounds));
    let mut recorder = LoadRecorder::default();
    // Submissions are decided in completion order, not time order, so
    // their instants go through a min-heap (bounded by `concurrency`) and
    // are recorded once the clock passes them — every later submission is
    // clamped to at least the current slice boundary, so a flushed prefix
    // is final.
    let mut record_heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>> =
        std::collections::BinaryHeap::new();
    let mut issued = 0u64;
    let mut exhausted = false;

    // All users fire their first request at the start (a thundering herd,
    // which is what a freshly started closed-loop client does).
    let initial = u64::from(concurrency).min(total);
    for _ in 0..initial {
        let endpoint = &deployment.endpoints[issued as usize % deployment.len()];
        cloud.submit(endpoint.function, issued, start);
        record_heap.push(std::cmp::Reverse(start.as_nanos()));
        issued += 1;
    }

    // Advance in one-second slices; every drained completion frees a user,
    // who thinks for one gap and then submits the next request. If the
    // simulation makes no progress for a long stretch, bail out with an
    // incomplete-run error rather than spinning forever.
    const SLICE: SimTime = SimTime::from_nanos(1_000_000_000); // 1 s
    const STALL_LIMIT: u32 = 3_600;
    let mut stall = 0u32;
    while collector.received < issued as usize || (issued < total && !exhausted) {
        let next = cloud.now() + SLICE;
        cloud.run_until(next);
        cloud.drain_completions_into(&mut collector.comp_buf);
        cloud.drain_transfers_into(&mut collector.trans_buf);
        let progressed = !collector.comp_buf.is_empty();
        let comp_buf = std::mem::take(&mut collector.comp_buf);
        for c in comp_buf {
            if issued < total && !exhausted {
                let gap = process.next_gap_ms(rng);
                if gap.is_finite() {
                    let at = (c.completed_at + SimTime::from_millis(gap)).max(cloud.now());
                    let endpoint = &deployment.endpoints[issued as usize % deployment.len()];
                    cloud.submit(endpoint.function, issued, at);
                    record_heap.push(std::cmp::Reverse(at.as_nanos()));
                    issued += 1;
                } else {
                    exhausted = true;
                }
            }
            collector.absorb(c);
        }
        let trans_buf = std::mem::take(&mut collector.trans_buf);
        for tr in trans_buf {
            collector.absorb_transfer(tr);
        }
        let now_ns = cloud.now().as_nanos();
        while let Some(&std::cmp::Reverse(ns)) = record_heap.peek() {
            if ns > now_ns {
                break;
            }
            record_heap.pop();
            recorder.record(ns as f64 / 1e6);
        }
        if progressed {
            stall = 0;
        } else {
            stall += 1;
            if stall >= STALL_LIMIT {
                break;
            }
        }
    }
    while let Some(std::cmp::Reverse(ns)) = record_heap.pop() {
        recorder.record(ns as f64 / 1e6);
    }
    cloud.close_submission_window();
    let duration = cloud.now() - start;
    collector.finish(issued as usize, duration, Some(recorder.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChainConfig, IatSpec, StaticConfig, StaticFunction};
    use crate::deployer::deploy;
    use faas_sim::testutil::test_provider;
    use faas_sim::types::TransferMode;

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
}
