//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The benchmark times each layer from outside, around the public calls
//! into it, and reads the layers' own counters:
//!
//! * an untraced reference (the measured phase of an untraced run) gives
//!   the denominator of `trace.overhead`, and for `campaign` a serial
//!   `Experiment::run` pass gives per-cell times;
//! * a traced pass re-runs every cell through the same public pipeline
//!   `Experiment::run` uses (`CloudSim` + `deployer::deploy` or
//!   `deploy_dag` + the client driver) with span tracing and the per-event
//!   profiler on, timing deploy and drive separately; its statistics must
//!   equal the untraced ones, which checks that tracing perturbs nothing;
//! * micro-measurements time single layers in isolation: a hold model on
//!   the event queue, `WorkloadSpec::build` and gap draws, and
//!   `LatencyAgg::record`/`merge`.

use std::hint::black_box;
use std::time::Instant;

use faas_sim::cloud::{metric, CloudSim};
use faults::FaultStats;
use policy::PolicyStats;
use simkit::dist::Dist;
use simkit::engine::{Model, QueueKind, Scheduler, Simulation};
use simkit::metrics::Metrics;
use simkit::rng::Rng;
use simkit::time::SimTime;
use stats::sketch::{LatencyAgg, QuantileMode};
use stellar_core::client::{self, MeasureSpec, RunResult};
use stellar_core::deployer::{self, Deployment, Endpoint};
use stellar_core::runner::{Scenario, SweepGrid};

use crate::metrics::{median, Gate, Report, Values, PER_LAYER, PROFILED_CLASSES, SPAN_COMPONENTS};
use crate::workloads::{conservation, digest_run, execute, experiment, measure_runs, Workload};

/// Spans kept per traced cell (the newest ones: ring-sampled).
const SPAN_RING: usize = 1 << 16;

/// Longest event delay of the hold model, ns.
const HOLD_SPAN_NS: u64 = 2_000_000;

/// The cells of `grid` in cell-index order.
fn cells(grid: &SweepGrid) -> impl Iterator<Item = (&Scenario, u64)> {
    grid.scenarios.iter().flat_map(move |s| grid.seeds.iter().map(move |&seed| (s, seed)))
}

/// One cell run through the traced pipeline.
struct TracedCell {
    wall_s: f64,
    deploy_s: f64,
    run_s: f64,
    metrics: Metrics,
    promotions: u64,
    spans: Vec<simkit::trace::SpanRecord>,
    result: RunResult,
    join_amp: Option<f64>,
}

/// `Experiment::run`'s pipeline with tracing and profiling on and each
/// layer call timed.
fn traced_cell(scenario: &Scenario, seed: u64) -> Result<TracedCell, String> {
    let start = Instant::now();
    let runtime = &scenario.runtime_cfg;
    let mut cloud = CloudSim::with_queue(scenario.provider.clone(), seed, QueueKind::Adaptive);
    cloud.enable_tracing(SPAN_RING);
    cloud.enable_event_profiling();
    let t = Instant::now();
    let deployment = match &scenario.dag {
        Some(spec) => {
            let plan = spec.compile()?;
            runtime.validate()?;
            let dep = cloud.deploy_dag(&plan).map_err(|e| e.to_string())?;
            let url = format!("https://{}.sim/{}", cloud.config().name, plan.name);
            Deployment { endpoints: vec![Endpoint { url, function: dep.root, name: plan.name }] }
        }
        None => deployer::deploy(&mut cloud, &scenario.static_cfg, runtime)
            .map_err(|e| e.to_string())?,
    };
    let deploy_s = t.elapsed().as_secs_f64();
    if let Some(spec) = &runtime.faults {
        cloud.install_faults(spec.build());
    }
    let measure = MeasureSpec::sketch();
    let t = Instant::now();
    let mut result = match &runtime.workload {
        Some(spec) => {
            client::run_workload_spec(&mut cloud, &deployment, runtime, spec, seed, &measure)
        }
        None => client::run_workload_with(&mut cloud, &deployment, runtime, seed, &measure),
    }
    .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    // `Experiment::run` summarises the aggregate before handing it on,
    // which compacts the sketch; do the same so merged states compare.
    if !result.latency_agg.is_empty() {
        result.latency_agg.summary();
    }
    if cloud.faults_installed() {
        result.faults = Some(cloud.fault_stats());
    }
    let join_amp = scenario
        .dag
        .as_ref()
        .map(|_| cloud.dag_join_stats().iter().map(|j| j.amplification).fold(0.0, f64::max));
    let spans = cloud.drain_spans();
    cloud.record_queue_metrics();
    cloud.record_profile_metrics();
    let promotions = cloud.promotions();
    let metrics = cloud.metrics().clone();
    let wall_s = start.elapsed().as_secs_f64();
    Ok(TracedCell { wall_s, deploy_s, run_s, metrics, promotions, spans, result, join_amp })
}

/// Layer totals over the traced cells.
#[derive(Default)]
struct Totals {
    metrics: Metrics,
    high_water: u64,
    promotions: u64,
    span_ms: [f64; SPAN_COMPONENTS.len()],
    span_n: [u64; SPAN_COMPONENTS.len()],
    wall_s: f64,
    deploy_s: f64,
    run_s: f64,
    arrivals: u64,
    measured: u64,
    policy: Option<PolicyStats>,
    faults: Option<FaultStats>,
    join_amps: Vec<f64>,
    aggs: Vec<LatencyAgg>,
}

impl Totals {
    fn add(&mut self, cell: TracedCell) {
        self.metrics.merge(&cell.metrics);
        self.high_water =
            self.high_water.max(cell.metrics.counter(metric::REQUEST_SLOTS_HIGH_WATER));
        self.promotions += cell.promotions;
        for span in &cell.spans {
            if let Some(i) = SPAN_COMPONENTS.iter().position(|c| *c == span.component) {
                self.span_ms[i] += span.duration_ms();
                self.span_n[i] += 1;
            }
        }
        self.wall_s += cell.wall_s;
        self.deploy_s += cell.deploy_s;
        self.run_s += cell.run_s;
        let r = &cell.result;
        self.arrivals +=
            r.offered.as_ref().map_or(r.measured_count + r.warmup_count, |o| o.arrivals);
        self.measured += r.measured_count;
        if let Some(p) = &r.policy {
            let t = self.policy.get_or_insert_with(PolicyStats::default);
            t.logical += p.logical;
            t.extra_launches += p.extra_launches;
            t.abandoned += p.abandoned;
            t.failed_logical += p.failed_logical;
            t.used_busy_ms += p.used_busy_ms;
            t.wasted_busy_ms += p.wasted_busy_ms;
        }
        if let Some(f) = &r.faults {
            let t = self.faults.get_or_insert_with(FaultStats::default);
            t.injected += f.injected;
            t.completed += f.completed;
            t.failed += f.failed;
            t.shed += f.shed;
        }
        self.join_amps.extend(cell.join_amp);
        self.aggs.push(cell.result.latency_agg);
    }
}

/// The declared per-layer name equal to `name`.
fn declared(name: &str) -> &'static str {
    PER_LAYER.iter().find(|d| d.name == name).map(|d| d.name).expect("per-layer metric declared")
}

/// A traced run of `workload`, reported as the per-layer metrics.
pub fn trace(workload: Workload, seed: u64, seconds: f64, scale: f64) -> Report {
    let mut gate = Gate::default();
    let measured = measure_runs(workload, seed, seconds, scale, &mut gate);
    // The traced pass re-runs the first iteration, whose inputs come from
    // `seed` itself; its untraced wall time is the reference.
    let grid = &measured.grid;
    let mut wall = measured.walls.first().copied().unwrap_or(0.0);
    let untraced_digest = measured.digests.first().copied().unwrap_or(0);

    // Untraced per-cell host times: a serial pass for the campaign, the
    // reference run itself for a single experiment.
    let cell_s: Vec<f64> = match workload {
        Workload::Campaign => {
            let cell_s = cells(grid)
                .map(|(scenario, seed)| {
                    let t = Instant::now();
                    let outcome = experiment(scenario, seed, QueueKind::Adaptive).run();
                    let s = t.elapsed().as_secs_f64();
                    let ok = outcome
                        .map_err(|e| e.to_string())
                        .and_then(|o| conservation(&o.result, &scenario.runtime_cfg));
                    gate.check("serial pass", ok);
                    s
                })
                .collect();
            // Host speed drifts over tens of seconds: time the parallel run
            // the serial pass is compared with right after it.
            let t = Instant::now();
            let parallel = execute(workload, grid, QueueKind::Adaptive, workload.workers());
            wall = t.elapsed().as_secs_f64();
            match parallel {
                Ok(output) => output.check(grid, &mut gate, "parallel rerun"),
                Err(e) => gate.check("parallel rerun", Err(e)),
            }
            cell_s
        }
        _ => vec![wall],
    };

    let mut totals = Totals::default();
    for (i, (scenario, seed)) in cells(grid).enumerate() {
        let cell = match traced_cell(scenario, seed) {
            Ok(cell) => cell,
            Err(e) => {
                gate.check("traced pass", Err(e));
                continue;
            }
        };
        let conserved = conservation(&cell.result, &scenario.runtime_cfg);
        gate.check("traced pass: conservation", conserved);
        let same = match &measured.report {
            Some(report) => {
                let traced = cell.result.latency_agg.clone().summary();
                match &report.rows[i].result {
                    Ok(s)
                        if s.count == traced.count
                            && s.median_ms == traced.median
                            && s.p99_ms == traced.tail =>
                    {
                        Ok(())
                    }
                    other => Err(format!("cell {i}: traced {traced:?} vs untraced {other:?}")),
                }
            }
            None => {
                let digest = digest_run(&cell.result, cell.join_amp.unwrap_or(0.0));
                if digest == untraced_digest {
                    Ok(())
                } else {
                    Err(format!("traced {digest:016x} vs untraced {untraced_digest:016x}"))
                }
            }
        };
        gate.check("traced pass: same statistics as untraced", same);
        totals.add(cell);
    }

    let mut v = Values::default();
    let m = &totals.metrics;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let loop_ns = m.counter(metric::PROFILE_LOOP_NS) as f64;
    let events: u64 = metric::PROFILE_COUNT.iter().map(|n| m.counter(n)).sum();
    let class_ns: u64 = metric::PROFILE_NS.iter().map(|n| m.counter(n)).sum();
    v.set("faas-sim.loop_s", loop_ns / 1e9);
    v.set("faas-sim.events", events as f64);
    v.set("faas-sim.ns_per_event", ratio(loop_ns, events as f64));
    v.set("faas-sim.profile_coverage", ratio(class_ns as f64, loop_ns));
    for class in PROFILED_CLASSES {
        let ns = m.counter(&format!("profile_ns_{class}")) as f64;
        let count = m.counter(&format!("profile_count_{class}")) as f64;
        v.set(declared(&format!("faas-sim.{class}_ns")), ratio(ns, count));
    }
    v.set("faas-sim.instances_spawned", m.counter(metric::INSTANCES_SPAWNED) as f64);
    v.set("faas-sim.request_slots_high_water", totals.high_water as f64);
    v.set("faas-sim.cold_starts", m.counter(metric::COLD_STARTS) as f64);
    let hits = m.counter(metric::IMAGE_CACHE_HITS) as f64;
    v.set(
        "faas-sim.image_cache_hit_ratio",
        ratio(hits, hits + m.counter(metric::IMAGE_CACHE_MISSES) as f64),
    );
    v.set("faas-sim.requests_cancelled", m.counter(metric::REQUESTS_CANCELLED) as f64);
    for (i, component) in SPAN_COMPONENTS.iter().enumerate() {
        let name = declared(&format!("faas-sim.span.{component}_ms"));
        v.set(name, ratio(totals.span_ms[i], totals.span_n[i] as f64));
    }

    v.set("simkit.promotions", totals.promotions as f64);
    v.set("simkit.calqueue_rebuilds", m.counter(metric::CALQUEUE_REBUILDS) as f64);
    v.set("simkit.calqueue_hunt_fallbacks", m.counter(metric::CALQUEUE_HUNT_FALLBACKS) as f64);
    v.set(
        "simkit.calqueue_overcrowd_rebuilds",
        m.counter(metric::CALQUEUE_OVERCROWD_REBUILDS) as f64,
    );
    let queue = if totals.promotions > 0 { QueueKind::Calendar } else { QueueKind::BinaryHeap };
    let hold = hold_ns(totals.high_water.max(1), (events / 4).clamp(10_000, 2_000_000), queue);
    v.set("simkit.hold_ns", hold);
    v.set("simkit.share", ratio(hold * events as f64, loop_ns));

    let (build_s, gap_ns) = workload_micro(grid);
    v.set("workload.build_s", build_s);
    v.set("workload.gap_ns", gap_ns);
    v.set("workload.arrivals", totals.arrivals as f64);

    let workers = workload.workers() as f64;
    let cell_sum: f64 = cell_s.iter().sum();
    let cell_max = cell_s.iter().copied().fold(0.0, f64::max);
    v.set("core.deploy_s", totals.deploy_s);
    v.set("core.driver_self_s", totals.run_s - loop_ns / 1e9);
    v.set("core.cells", cell_s.len() as f64);
    v.set("core.cell_s_p50", median(&cell_s));
    v.set("core.cell_s_max", cell_max);
    v.set("core.parallel_eff", ratio(cell_sum, workers * wall));
    v.set("core.makespan_tail_s", wall - cell_sum / workers);

    let p = totals.policy.unwrap_or_default();
    let winners = p.logical.saturating_sub(p.abandoned + p.failed_logical) as f64;
    let launched = (p.logical + p.extra_launches) as f64;
    v.set("policy.attempts_per_req", p.retry_amplification());
    v.set("policy.hedge_rate", p.hedge_fire_rate());
    v.set("policy.wasted_fraction", p.wasted_fraction());
    v.set("policy.useful_attempt_ratio", if launched > 0.0 { winners / launched } else { 1.0 });
    let f = totals.faults.unwrap_or_default();
    v.set("faults.injected", f.injected as f64);
    v.set("faults.availability", f.availability());

    let mut merged = LatencyAgg::with_mode(QuantileMode::Sketch);
    let t = Instant::now();
    for agg in &totals.aggs {
        merged.merge(agg);
    }
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(report) = &measured.report {
        let same = if merged == report.latency_agg {
            Ok(())
        } else {
            Err("merged traced aggregates differ from the sweep's".to_string())
        };
        gate.check("traced pass: merged aggregate", same);
    }
    v.set("stats.merge_ms", if totals.aggs.len() > 1 { merge_ms } else { 0.0 });
    v.set("stats.record_ns", record_ns(&mut merged, totals.measured, seed));

    v.set("dag.joins_fired", m.counter(metric::JOINS_FIRED) as f64);
    v.set("dag.join_stragglers", m.counter(metric::JOIN_STRAGGLERS) as f64);
    let amps = &totals.join_amps;
    v.set("dag.straggler_amp", ratio(amps.iter().sum(), amps.len() as f64));
    v.set("trace.overhead", ratio(totals.wall_s, cell_sum));

    Report { values: v, defs: PER_LAYER, gate, digest: measured.digest() }
}

/// A trivial model whose every event reschedules itself a pseudo-random
/// delay ahead, so the pending set stays at its initial size: the classic
/// hold benchmark for event queues.
struct Hold(u64);

impl Model for Hold {
    type Event = ();

    fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        sched.schedule_in(now, SimTime::from_nanos(1 + self.0 % HOLD_SPAN_NS), ());
    }
}

/// Host ns per schedule+pop pair with `pending` events outstanding,
/// driven through `Simulation::run_until` for at least `events` events.
fn hold_ns(pending: u64, events: u64, queue: QueueKind) -> f64 {
    let mut sim = Simulation::with_queue(Hold(0x9e37_79b9_7f4a_7c15), queue);
    let mut rng = Rng::seed_from(pending).fork("hold");
    for _ in 0..pending {
        sim.schedule_at(SimTime::from_nanos(rng.next_u64() % HOLD_SPAN_NS), ());
    }
    let t = Instant::now();
    while sim.processed() < events {
        let horizon = sim.now() + SimTime::from_nanos(HOLD_SPAN_NS);
        sim.run_until(horizon);
    }
    t.elapsed().as_nanos() as f64 / sim.processed() as f64
}

/// Seconds spent in `WorkloadSpec::build` over the grid's spec-driven
/// cells, and host ns per arrival-gap draw replaying as many gaps as each
/// cell offers.
fn workload_micro(grid: &SweepGrid) -> (f64, f64) {
    let (mut build_s, mut draw_s, mut draws) = (0.0, 0.0, 0u64);
    for (scenario, seed) in cells(grid) {
        let Some(spec) = &scenario.runtime_cfg.workload else { continue };
        let t = Instant::now();
        let mut process = spec.build(seed);
        build_s += t.elapsed().as_secs_f64();
        let runtime = &scenario.runtime_cfg;
        let offered = u64::from(runtime.samples + runtime.warmup_rounds);
        let n = process.remaining().map_or(offered, |r| r.min(offered));
        let mut rng = Rng::seed_from(seed).fork("workload-gaps");
        let t = Instant::now();
        let mut sum = 0.0;
        for _ in 0..n {
            sum += process.next_gap_ms(&mut rng);
        }
        black_box(sum);
        draw_s += t.elapsed().as_secs_f64();
        draws += n;
    }
    (build_s, if draws > 0 { draw_s * 1e9 / draws as f64 } else { 0.0 })
}

/// Host ns per `LatencyAgg::record` in sketch mode over as many samples
/// as the run measured (1k to 2M), log-normal with the run's p50 and p99.
fn record_ns(observed: &mut LatencyAgg, measured: u64, seed: u64) -> f64 {
    let (p50, p99) = if observed.is_empty() {
        (1.0, 2.0)
    } else {
        (observed.quantile(0.5), observed.quantile(0.99))
    };
    let dist = Dist::lognormal_median_p99(p50, p99.max(p50 * 1.01));
    let mut rng = Rng::seed_from(seed).fork("record-input");
    let samples: Vec<f64> =
        (0..measured.clamp(1_000, 2_000_000)).map(|_| dist.sample(&mut rng)).collect();
    let mut agg = LatencyAgg::with_mode(QuantileMode::Sketch);
    let t = Instant::now();
    for &x in &samples {
        agg.record(black_box(x));
    }
    black_box(&agg);
    t.elapsed().as_nanos() as f64 / samples.len() as f64
}
