//! The four workloads, how one run of each executes, and the untraced
//! measurement that yields the end-to-end metrics.
//!
//! Every workload is an open loop in simulated time: the client submits
//! each arrival at its simulated instant, so there is no host-side
//! generator to run late. Sizes are fixed request counts; `scale` shrinks
//! them for the correctness gate (1/20) and the in-file smoke tests.

use std::time::Instant;

use faas_sim::config::ProviderConfig;
use providers::paper::{self, ProviderKind};
use providers::profiles::{aws_like, azure_like, config_for};
use simkit::engine::QueueKind;
use simkit::rng::Rng;
use stellar_core::client::{MeasureSpec, RunResult};
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::{Experiment, Outcome};
use stellar_core::protocols::{LONG_IAT_MS, SHORT_IAT_MS};
use stellar_core::runner::{Scenario, SweepGrid, SweepReport, SweepRunner};
use workload::spec::{ArrivalSpec, ModeSpec, WorkloadSpec};

use crate::metrics::{median, peak_rss_mb, Digest, Gate, Report, Values, END_TO_END};

/// Sweep workers of `campaign`: a constant, not the host's parallelism,
/// so the workload means the same thing on every machine.
const CAMPAIGN_WORKERS: usize = 2;

/// Seeds per campaign scenario: `s, s+1, s+2, s+3`.
const CAMPAIGN_SEEDS: u64 = 4;

/// Trace functions replayed by `fleet`, one deployed function each.
const FLEET_FUNCTIONS: u32 = 5_000;

/// `fleet` replays one hour of trace against a one-hour count window.
const FLEET_HOUR_MS: f64 = 3_600_000.0;

/// Requests `fleet` simulates: the first this many arrivals of the hour.
const FLEET_REQUESTS: u32 = 1_000_000;

/// Hourly trace volume `fleet` aims for. The synthetic popularity
/// distribution is Pareto with tail index 1/1.2 (infinite mean): over 20
/// seeds one hour held 0.8M to 22.4M arrivals. Picking the candidate trace
/// closest to this volume keeps trace build time and memory comparable
/// across seeds; it sits above `FLEET_REQUESTS` so the request cap binds.
const FLEET_VOLUME: f64 = 1_250_000.0;

/// Candidate traces drawn per `fleet` seed. A fixed count keeps the
/// search's cost, which is part of `setup_s`, the same for every seed.
const FLEET_CANDIDATES: usize = 12;

/// A candidate's volume is estimated from a replay of this fraction of
/// the hour.
const FLEET_PROBE_FRACTION: f64 = 0.001;

const BURST_REQUESTS: u32 = 1_000_000;
const HEDGED_REQUESTS: u32 = 250_000;
const WARMUP: u32 = 5;

/// Seeds of the accuracy probe behind `paper_err_pct`. They are fixed,
/// not drawn from `--seed`: with the paper's 3000 samples per row the
/// metric's seed-to-seed spread (29% of its median over 4 seeds) is far
/// wider than any useful bound, while fixed inputs make it move only when
/// simulated latencies change.
const ACCURACY_SEEDS: u64 = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Fleet,
    Burst,
    Hedged,
    Campaign,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Fleet, Workload::Burst, Workload::Hedged, Workload::Campaign];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Burst => "burst",
            Workload::Hedged => "hedged",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sweep workers the workload runs with.
    pub fn workers(self) -> usize {
        if self == Workload::Campaign {
            CAMPAIGN_WORKERS
        } else {
            1
        }
    }

    /// The providers whose Fig 3 rows `paper_err_pct` covers: the ones the
    /// workload simulates, all three for `campaign`.
    fn accuracy_providers(self) -> &'static [ProviderKind] {
        match self {
            Workload::Fleet | Workload::Burst => &[ProviderKind::Aws],
            Workload::Hedged => &[ProviderKind::Azure],
            Workload::Campaign => &ProviderKind::ALL,
        }
    }

    /// Host seconds one iteration (set-up and measured run) takes on the
    /// reference machine (a 2-vCPU KVM guest on a Xeon host).
    fn nominal_s(self) -> f64 {
        match self {
            Workload::Fleet => 3.2,
            Workload::Burst => 2.8,
            Workload::Hedged => 2.4,
            Workload::Campaign => 4.0,
        }
    }

    /// Iterations a `seconds`-long measured phase runs: fixed by
    /// `seconds`, not by how fast this host happens to be, so every run
    /// (and both commits of a comparison) measures the same work.
    fn iterations(self, seconds: f64) -> usize {
        ((seconds / self.nominal_s()).round() as usize).max(1)
    }

    /// Builds the workload's inputs from `seed`: a one-cell grid for the
    /// single-experiment workloads, the 72-cell grid for `campaign`.
    pub fn plan(self, seed: u64, scale: f64) -> SweepGrid {
        let single = |scenario: Scenario, seed| SweepGrid::new(vec![scenario], vec![seed]);
        match self {
            Workload::Fleet => {
                // Below 1/20 scale (smoke tests only) the trace shrinks too,
                // and the volume search, calibrated for the full trace, is off.
                let functions = (f64::from(FLEET_FUNCTIONS) * (scale * 20.0).min(1.0)).ceil();
                let functions = functions as u32;
                let seed = if functions == FLEET_FUNCTIONS { fleet_trace_seed(seed) } else { seed };
                let scenario = Scenario::new("fleet", aws_like())
                    .functions(StaticConfig {
                        functions: vec![
                            StaticFunction::python_zip("fleet").with_replicas(functions)
                        ],
                    })
                    .workload(RuntimeConfig::single(
                        IatSpec::short(),
                        scaled(FLEET_REQUESTS, scale),
                    ))
                    .arrival(fleet_trace(functions, FLEET_HOUR_MS));
                single(scenario, seed)
            }
            Workload::Burst => {
                let scenario = one_function("burst", aws_like(), scaled(BURST_REQUESTS, scale))
                    .arrival(WorkloadSpec::preset("multi-tenant").expect("preset exists"));
                single(scenario, seed)
            }
            Workload::Hedged => {
                let scenario = one_function("hedged", azure_like(), scaled(HEDGED_REQUESTS, scale))
                    .arrival(WorkloadSpec::preset("mmpp-burst").expect("preset exists"))
                    .policy(policy::PolicySpec::preset("hedge-p95").expect("preset exists"))
                    .faults(faults::FaultSpec::preset("throttle-5pct").expect("preset exists"));
                single(scenario, seed)
            }
            Workload::Campaign => {
                let mut scenarios = Vec::new();
                for kind in ProviderKind::ALL {
                    scenarios.extend(campaign_scenarios(kind, scale));
                }
                SweepGrid::new(
                    scenarios,
                    (0..CAMPAIGN_SEEDS).map(|i| seed.wrapping_add(i)).collect(),
                )
            }
        }
    }
}

fn scaled(n: u32, scale: f64) -> u32 {
    ((f64::from(n) * scale).ceil() as u32).max(1)
}

fn one_function(name: &str, provider: ProviderConfig, samples: u32) -> Scenario {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = WARMUP;
    Scenario::new(name, provider)
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip(name)] })
        .workload(runtime)
}

fn fleet_trace(functions: u32, horizon_ms: f64) -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalSpec::TraceReplay { functions, horizon_ms, trace_window_ms: FLEET_HOUR_MS },
        mode: ModeSpec::Open,
    }
}

/// Of [`FLEET_CANDIDATES`] seeds drawn from `seed`, the one whose
/// synthetic hour is closest to [`FLEET_VOLUME`].
fn fleet_trace_seed(seed: u64) -> u64 {
    let probe = fleet_trace(FLEET_FUNCTIONS, FLEET_HOUR_MS * FLEET_PROBE_FRACTION);
    let mut candidates = Rng::seed_from(seed).fork("fleet-trace");
    let distance = |candidate: u64| {
        let arrivals = probe.build(candidate).remaining().expect("trace replay is finite");
        (arrivals as f64 / FLEET_PROBE_FRACTION - FLEET_VOLUME).abs()
    };
    (0..FLEET_CANDIDATES)
        .map(|_| candidates.next_u64())
        .map(|candidate| (distance(candidate), candidate))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, candidate)| candidate)
        .expect("FLEET_CANDIDATES > 0")
}

/// The Fig 3 warm and cold protocols (`warm_invocations`,
/// `cold_invocations` with 100 replicas) as scenarios, 3000 samples each.
fn fig3_scenarios(kind: ProviderKind, scale: f64) -> [Scenario; 2] {
    let p = kind.label();
    let mut warm = RuntimeConfig::single(IatSpec::Fixed { ms: SHORT_IAT_MS }, scaled(3000, scale));
    warm.warmup_rounds = 1;
    // Round-robin over 100 replicas keeps each at the long IAT.
    let cold =
        RuntimeConfig::single(IatSpec::Fixed { ms: LONG_IAT_MS / 100.0 }, scaled(3000, scale));
    [
        Scenario::new(format!("{p}/fig3-warm"), config_for(kind))
            .functions(StaticConfig { functions: vec![StaticFunction::python_zip("warm")] })
            .workload(warm),
        Scenario::new(format!("{p}/fig3-cold"), config_for(kind))
            .functions(StaticConfig {
                functions: vec![StaticFunction::python_zip("cold").with_replicas(100)],
            })
            .workload(cold),
    ]
}

/// One provider's six campaign scenarios: Fig 3 warm and cold, a hedged
/// Poisson stream, a throttled MMPP stream and two DAG applications.
fn campaign_scenarios(kind: ProviderKind, scale: f64) -> Vec<Scenario> {
    let p = kind.label();
    let stream =
        |label: String, samples| one_function(&label, config_for(kind), scaled(samples, scale));
    let mut scenarios = fig3_scenarios(kind, scale).to_vec();
    scenarios.push(
        stream(format!("{p}/poisson+hedge-p95"), 20_000)
            .arrival(WorkloadSpec::preset("poisson").expect("preset exists"))
            .policy(policy::PolicySpec::preset("hedge-p95").expect("preset exists")),
    );
    scenarios.push(
        stream(format!("{p}/mmpp-burst~throttle-5pct"), 20_000)
            .arrival(WorkloadSpec::preset("mmpp-burst").expect("preset exists"))
            .faults(faults::FaultSpec::preset("throttle-5pct").expect("preset exists")),
    );
    scenarios.push(stream(format!("{p}@scatter-gather"), 5_000).app(appsuite::scatter_gather()));
    scenarios.push(stream(format!("{p}@map-reduce"), 5_000).app(appsuite::map_reduce()));
    scenarios
}

/// The experiment one cell runs: sketch quantiles, no retained samples.
pub fn experiment(scenario: &Scenario, seed: u64, queue: QueueKind) -> Experiment {
    let mut experiment = Experiment::new(scenario.provider.clone())
        .functions(scenario.static_cfg.clone())
        .workload(scenario.runtime_cfg.clone())
        .seed(seed)
        .queue(queue)
        .measure(MeasureSpec::sketch());
    if let Some(dag) = &scenario.dag {
        experiment = experiment.app(dag.clone());
    }
    experiment
}

/// The result of one run of a workload.
#[derive(Debug)]
pub enum Output {
    Single(Box<Outcome>),
    Campaign(SweepReport),
}

/// Runs `grid` once: through `Experiment::run` for a one-cell grid,
/// through `SweepRunner::run` with `workers` workers otherwise.
pub fn execute(
    workload: Workload,
    grid: &SweepGrid,
    queue: QueueKind,
    workers: usize,
) -> Result<Output, String> {
    if workload == Workload::Campaign {
        let runner = SweepRunner::new(workers).queue(queue).measure(MeasureSpec::sketch());
        return Ok(Output::Campaign(runner.run(grid)));
    }
    let outcome = experiment(&grid.scenarios[0], grid.seeds[0], queue).run();
    outcome.map(|o| Output::Single(Box::new(o))).map_err(|e| e.to_string())
}

impl Output {
    /// Measured client requests (latency samples) simulated.
    pub fn measured(&self) -> u64 {
        match self {
            Output::Single(outcome) => outcome.result.measured_count,
            Output::Campaign(report) => report.latency_agg.count(),
        }
    }

    /// FNV-1a digest over the simulated statistics.
    pub fn digest(&self) -> u64 {
        match self {
            Output::Single(outcome) => {
                let join_amp = outcome.dag.as_ref().map_or(0.0, |d| d.straggler_amplification);
                digest_run(&outcome.result, join_amp)
            }
            Output::Campaign(report) => {
                let mut d = Digest::default();
                digest_agg(&mut d, &report.latency_agg);
                d.bytes(report.to_csv_app().as_bytes());
                d.finish()
            }
        }
    }

    /// Records the conservation check of this run of `grid` in `gate`.
    pub fn check(&self, grid: &SweepGrid, gate: &mut Gate, what: &str) {
        match self {
            Output::Single(outcome) => {
                gate.check(what, conservation(&outcome.result, &grid.scenarios[0].runtime_cfg))
            }
            Output::Campaign(report) => gate.cells(what, report.rows.len(), report.failed_count()),
        }
    }
}

fn digest_agg(d: &mut Digest, agg: &stats::sketch::LatencyAgg) {
    let mut agg = agg.clone();
    d.bytes(&agg.count().to_le_bytes());
    for q in [0.5, 0.99, 0.999] {
        d.f64(if agg.is_empty() { 0.0 } else { agg.quantile(q) });
    }
}

/// Digest of one experiment's statistics: count, p50, p99, p99.9, cold
/// fraction, goodput, hedge rate and join amplification.
pub fn digest_run(result: &RunResult, join_amp: f64) -> u64 {
    let mut d = Digest::default();
    digest_agg(&mut d, &result.latency_agg);
    d.f64(result.cold_fraction());
    d.f64(result.goodput());
    d.f64(result.policy.as_ref().map_or(0.0, policy::PolicyStats::hedge_fire_rate));
    d.f64(join_amp);
    d.finish()
}

/// Every arrival resolves exactly once: measured (or warm-up) sample,
/// provider error, shed, or a logical request the policy gave up on.
/// Spec-driven runs record their arrivals; fixed-IAT runs issue every
/// round of `runtime`.
pub fn conservation(result: &RunResult, runtime: &RuntimeConfig) -> Result<(), String> {
    let rounds = u64::from(runtime.warmup_rounds + runtime.measured_rounds());
    let arrivals =
        result.offered.as_ref().map_or(rounds * u64::from(runtime.burst_size), |o| o.arrivals);
    let mut lost = 0;
    if let Some(p) = &result.policy {
        if p.logical != arrivals {
            return Err(format!("{} logical requests for {arrivals} arrivals", p.logical));
        }
        lost += p.abandoned + p.failed_logical;
    } else if let Some(f) = &result.faults {
        lost += f.failed + f.shed;
    }
    let resolved = result.measured_count + result.warmup_count + lost;
    if resolved != arrivals {
        return Err(format!(
            "measured {} + warm-up {} + failed/shed {lost} != arrivals {arrivals}",
            result.measured_count, result.warmup_count
        ));
    }
    if let Some(f) = &result.faults {
        let terminal = f.completed + f.failed + f.shed + f.cancelled;
        if terminal != f.submitted {
            return Err(format!("{terminal} terminal attempts for {} submitted", f.submitted));
        }
        if let Some(p) = &result.policy {
            if f.submitted != p.logical + p.extra_launches {
                return Err(format!(
                    "{} attempts submitted, policy launched {}",
                    f.submitted,
                    p.logical + p.extra_launches
                ));
            }
        }
    }
    Ok(())
}

/// Mean of |measured/paper − 1| × 100 over the Fig 3 rows of `kinds`
/// (warm/cold × median/p99 per provider), each row averaged over the
/// report's seeds.
fn paper_error_pct(report: &SweepReport, kinds: &[ProviderKind]) -> Result<f64, String> {
    let rows = |label: String| -> Result<(f64, f64), String> {
        let cells: Vec<_> = report.rows.iter().filter(|r| r.scenario == label).collect();
        if cells.is_empty() {
            return Err(format!("no {label} cells"));
        }
        let mut sum = (0.0, 0.0);
        for cell in &cells {
            let stats = cell.result.as_ref().map_err(|e| format!("{label}: {e}"))?;
            sum.0 += stats.median_ms;
            sum.1 += stats.p99_ms;
        }
        Ok((sum.0 / cells.len() as f64, sum.1 / cells.len() as f64))
    };
    let err = |measured: f64, reference: f64| (measured / reference - 1.0).abs() * 100.0;
    let mut errors = Vec::new();
    for &kind in kinds {
        let rtt = kind.prop_one_way_ms() * 2.0;
        let (median, p99) = paper::warm_internal_ms(kind);
        let warm = rows(format!("{}/fig3-warm", kind.label()))?;
        errors.extend([err(warm.0, median + rtt), err(warm.1, p99 + rtt)]);
        let (median, tmr) = paper::cold_observed_ms(kind);
        let cold = rows(format!("{}/fig3-cold", kind.label()))?;
        errors.extend([err(cold.0, median), err(cold.1, median * tmr)]);
    }
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}

/// `paper_err_pct` from the Fig 3 cells of the workload's providers over
/// [`ACCURACY_SEEDS`] fixed seeds, outside the measured phase.
fn accuracy_pct(workload: Workload, scale: f64, gate: &mut Gate) -> Result<f64, String> {
    let kinds = workload.accuracy_providers();
    let scenarios = kinds.iter().flat_map(|&k| fig3_scenarios(k, scale)).collect();
    let grid = SweepGrid::new(scenarios, (1..=ACCURACY_SEEDS).collect());
    let runner = SweepRunner::new(workload.workers()).measure(MeasureSpec::sketch());
    let report = runner.run(&grid);
    gate.cells("accuracy probe", report.rows.len(), report.failed_count());
    paper_error_pct(&report, kinds)
}

/// A 1/20-size copy of the workload must digest identically on the
/// adaptive queue and the binary heap; `campaign`'s CSV must also be
/// byte-identical at 1 and 2 workers.
fn determinism_gate(workload: Workload, seed: u64, scale: f64, gate: &mut Gate) {
    let grid = workload.plan(seed, scale / 20.0);
    let workers = workload.workers();
    let run = |queue, workers, gate: &mut Gate| match execute(workload, &grid, queue, workers) {
        Ok(output) => {
            output.check(&grid, gate, "gate: 1/20-size conservation");
            Some(output)
        }
        Err(e) => {
            gate.check("gate: 1/20-size run", Err(e));
            None
        }
    };
    let adaptive = run(QueueKind::Adaptive, workers, gate);
    let heap = run(QueueKind::BinaryHeap, workers, gate);
    if let (Some(a), Some(b)) = (&adaptive, &heap) {
        let (da, db) = (a.digest(), b.digest());
        let same =
            if da == db { Ok(()) } else { Err(format!("adaptive {da:016x} vs heap {db:016x}")) };
        gate.check("gate: queue-backend determinism", same);
    }
    if let Some(Output::Campaign(two)) = &adaptive {
        if let Some(Output::Campaign(one)) = run(QueueKind::Adaptive, 1, gate) {
            let same = if one.to_csv_app() == two.to_csv_app() {
                Ok(())
            } else {
                Err("to_csv_app differs between 1 and 2 workers".to_string())
            };
            gate.check("gate: worker-count determinism", same);
        }
    }
}

/// The seeds of a run's iterations: `seed` itself, then a stream drawn
/// from it.
fn iteration_seeds(seed: u64, iterations: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from(seed).fork("iterations");
    std::iter::once(seed)
        .chain(std::iter::repeat_with(|| rng.next_u64()))
        .take(iterations)
        .collect()
}

/// Host times and results of the measured phase.
#[derive(Debug)]
pub struct Measured {
    /// Set-up seconds of each iteration: the correctness gate on a 1/20
    /// copy of its inputs, then building the inputs.
    pub setups: Vec<f64>,
    /// Wall seconds of each iteration.
    pub walls: Vec<f64>,
    /// Measured requests per wall second of each iteration.
    pub rates: Vec<f64>,
    /// Simulation digest of each iteration.
    pub digests: Vec<u64>,
    /// The first iteration's inputs (seeded by `seed` itself).
    pub grid: SweepGrid,
    /// `campaign`'s first report.
    pub report: Option<SweepReport>,
}

impl Measured {
    /// One digest over every iteration's.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for digest in &self.digests {
            d.bytes(&digest.to_le_bytes());
        }
        d.finish()
    }
}

/// The measured phase: `workload.iterations(seconds)` iterations, each with
/// its own seed. An iteration's set-up (timed as `setup_s`) runs the
/// determinism gate on a 1/20 copy of its inputs and builds the inputs;
/// its run (timed as `wall_s`) simulates them once. The conservation check
/// runs outside both timed regions.
pub fn measure_runs(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    gate: &mut Gate,
) -> Measured {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    for iteration_seed in iteration_seeds(seed, workload.iterations(seconds)) {
        let t = Instant::now();
        determinism_gate(workload, iteration_seed, scale, gate);
        let grid = workload.plan(iteration_seed, scale);
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let output = execute(workload, &grid, QueueKind::Adaptive, workload.workers());
        let wall = t.elapsed().as_secs_f64();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                gate.check("measured run", Err(e));
                continue;
            }
        };
        output.check(&grid, gate, "measured run: conservation");
        eprintln!(
            "iteration seed {iteration_seed} setup_s {:.3e} wall_s {wall:.4} measured {}",
            setups.last().expect("pushed above"),
            output.measured()
        );
        digests.push(output.digest());
        walls.push(wall);
        rates.push(output.measured() as f64 / wall);
        if first.is_none() {
            let report = match output {
                Output::Campaign(report) => Some(report),
                Output::Single(_) => None,
            };
            first = Some((grid, report));
        }
    }
    let (grid, report) = first.unwrap_or_else(|| (workload.plan(seed, scale), None));
    Measured { setups, walls, rates, digests, grid, report }
}

/// An untraced run: the measured phase (with the correctness gate in each
/// iteration's set-up) and the accuracy probe, reported as the end-to-end
/// metrics.
pub fn measure(workload: Workload, seed: u64, seconds: f64, scale: f64) -> Report {
    let mut gate = Gate::default();
    let measured = measure_runs(workload, seed, seconds, scale, &mut gate);
    let mut values = Values::default();
    match accuracy_pct(workload, scale, &mut gate) {
        Ok(pct) => values.set("paper_err_pct", pct),
        Err(e) => gate.check("paper_err_pct", Err(e)),
    }
    values.set("setup_s", median(&measured.setups));
    // Host contention only ever adds time: on a shared 2-vCPU guest the
    // fastest iteration moved less between runs than the median did (see
    // README.md, "Steadiness").
    values.set("wall_s", measured.walls.iter().copied().fold(f64::INFINITY, f64::min));
    values.set("sim_req_per_s", measured.rates.iter().copied().fold(0.0, f64::max));
    match peak_rss_mb() {
        Ok(mb) => values.set("peak_rss_mb", mb),
        Err(e) => gate.check("peak_rss_mb", Err(e)),
    }
    Report { values, defs: END_TO_END, gate, digest: measured.digest() }
}
