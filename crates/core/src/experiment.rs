//! One-call experiments: provider + static config + runtime config → stats.
//!
//! [`Experiment`] wraps the deploy→drive→measure pipeline behind a builder
//! so that benchmark code (and downstream users) can express a paper
//! experiment in a few lines.

use faas_sim::cloud::{CloudSim, DagDeployment, DeployError};
use faas_sim::config::ProviderConfig;
use faas_sim::dag::{DagPlan, DagSpec};
use simkit::engine::QueueKind;
use simkit::metrics::Metrics;
use simkit::trace::SpanRecord;
use stats::Summary;

use crate::client::{run_workload_with, ClientError, MeasureSpec, RunResult};
use crate::config::{RuntimeConfig, StaticConfig};
use crate::deployer::{deploy, Deployment, Endpoint};
use crate::runner::Scenario;

/// Errors from running an experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// Deployment failed.
    Deploy(faas_sim::cloud::DeployError),
    /// The client run failed.
    Client(ClientError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Deploy(e) => write!(f, "deploy: {e}"),
            ExperimentError::Client(e) => write!(f, "client: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<faas_sim::cloud::DeployError> for ExperimentError {
    fn from(e: faas_sim::cloud::DeployError) -> Self {
        ExperimentError::Deploy(e)
    }
}

impl From<ClientError> for ExperimentError {
    fn from(e: ClientError) -> Self {
        ExperimentError::Client(e)
    }
}

/// A [`Scenario`] run at a seed, with how it is measured and simulated.
///
/// # Examples
///
/// ```
/// use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
/// use stellar_core::experiment::Experiment;
/// use faas_sim::testutil::test_provider;
///
/// let outcome = Experiment::new(test_provider())
///     .functions(StaticConfig { functions: vec![StaticFunction::python_zip("probe")] })
///     .workload(RuntimeConfig::single(IatSpec::short(), 100))
///     .seed(7)
///     .run()
///     .unwrap();
/// assert_eq!(outcome.result.completions.len(), 100);
/// assert!(outcome.summary.median > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    scenario: Scenario,
    seed: u64,
    trace_capacity: Option<usize>,
    measure: MeasureSpec,
    queue: QueueKind,
    profile_events: bool,
}

/// Latency breakdown of one workflow stage (DAG node), over every
/// successful invocation of the stage (warm-up rounds included — stages
/// run once per workflow traversal, not once per measured sample; see
/// [`CloudSim::stage_stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Node name from the [`DagSpec`].
    pub name: String,
    /// Successful stage invocations observed.
    pub count: u64,
    /// Median stage latency, ms. A stage's latency excludes its
    /// downstream round trip (`total − chain`), so stages don't
    /// double-count their subtrees.
    pub median_ms: f64,
    /// 99th-percentile stage latency, ms.
    pub p99_ms: f64,
}

/// Straggler accounting of one join stage.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// Join node name from the [`DagSpec`].
    pub stage: String,
    /// Barrier firings.
    pub fired: u64,
    /// Branches that arrived after their barrier fired (k-of-n joins).
    pub stragglers: u64,
    /// p99 of individual branch latencies, ms.
    pub branch_p99_ms: f64,
    /// p99 of barrier-fire latencies (max over counted branches), ms.
    pub join_p99_ms: f64,
    /// `join_p99_ms / branch_p99_ms`: tail-at-scale amplification.
    pub amplification: f64,
}

/// Per-stage and join statistics of a workflow run (see
/// [`Experiment::app`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DagRunStats {
    /// Workflow name.
    pub app: String,
    /// One entry per stage, in plan-node order.
    pub stages: Vec<StageStats>,
    /// One entry per join stage, in plan-node order.
    pub joins: Vec<JoinReport>,
    /// Worst join amplification across the workflow (`0` without joins):
    /// the headline straggler metric.
    pub straggler_amplification: f64,
}

/// What an experiment produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Raw client measurements.
    pub result: RunResult,
    /// Summary statistics over the measured end-to-end latencies, ms.
    pub summary: Summary,
    /// Summary over transfer times, ms; `None` when no edge carried a
    /// payload (no chain or workflow deployed).
    pub transfer_summary: Option<Summary>,
    /// Spans captured by the trace ring; empty unless
    /// [`Experiment::trace`] enabled tracing.
    pub spans: Vec<SpanRecord>,
    /// Lifecycle counters maintained by the cloud (always on).
    pub metrics: Metrics,
    /// Per-stage breakdown and straggler accounting; `None` unless the
    /// experiment ran an application workflow ([`Experiment::app`]).
    pub dag: Option<DagRunStats>,
}

impl Outcome {
    /// Measured end-to-end latencies, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.result.latencies_ms()
    }
}

impl From<Scenario> for Experiment {
    /// Runs `scenario` at seed 0, untraced and unprofiled, with the
    /// default measurement and queue backend.
    fn from(scenario: Scenario) -> Experiment {
        Experiment {
            scenario,
            seed: 0,
            trace_capacity: None,
            measure: MeasureSpec::default(),
            queue: QueueKind::default(),
            profile_events: false,
        }
    }
}

impl Experiment {
    /// Starts building an experiment against `provider` with
    /// [`Scenario::new`]'s defaults at seed 0.
    pub fn new(provider: ProviderConfig) -> Experiment {
        Experiment::from(Scenario::new(provider.name.clone(), provider))
    }

    /// Runs an application workflow instead of the static function set:
    /// `spec` is compiled, deployed as one function per node, and the
    /// workload drives the workflow's root. Per-stage latency and
    /// straggler statistics land in [`Outcome::dag`]. Mutually exclusive
    /// with a legacy chain configuration; node execution-time models
    /// override the runtime `exec_ms`.
    pub fn app(mut self, spec: DagSpec) -> Experiment {
        self.scenario.dag = Some(spec);
        self
    }

    /// Sets the static (deployer) configuration.
    pub fn functions(mut self, cfg: StaticConfig) -> Experiment {
        self.scenario.static_cfg = cfg;
        self
    }

    /// Sets the runtime (client) configuration.
    pub fn workload(mut self, cfg: RuntimeConfig) -> Experiment {
        self.scenario.runtime_cfg = cfg;
        self
    }

    /// Sets the deterministic seed (both cloud and client streams).
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.seed = seed;
        self
    }

    /// Enables invocation tracing into a ring of `capacity` spans; the
    /// captured spans land in [`Outcome::spans`]. Tracing draws no
    /// randomness, so results are identical with or without it.
    pub fn trace(mut self, capacity: usize) -> Experiment {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Sets how the run is measured (quantile machinery, sample
    /// retention). [`MeasureSpec::sketch`] makes million-invocation runs
    /// stream through O(sketch)-sized aggregates instead of holding every
    /// latency.
    pub fn measure(mut self, measure: MeasureSpec) -> Experiment {
        self.measure = measure;
        self
    }

    /// Selects the event-queue backend (default: adaptive — binary heap
    /// promoting to the calendar queue past a pending-set threshold).
    /// Purely a performance knob — results are bit-identical across
    /// backends.
    pub fn queue(mut self, queue: QueueKind) -> Experiment {
        self.queue = queue;
        self
    }

    /// Enables per-event cost profiling: every event dispatch is timed
    /// and bucketed by event class, and the totals land in
    /// [`Outcome::metrics`] under the `faas_sim::cloud::metric::PROFILE_*`
    /// names. Profiling observes wall-clock time only, so results stay
    /// bit-identical to an unprofiled run.
    pub fn profile_events(mut self, on: bool) -> Experiment {
        self.profile_events = on;
        self
    }

    /// Deploys, drives the workload and summarises.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] on deploy or client failure.
    pub fn run(&self) -> Result<Outcome, ExperimentError> {
        let Scenario { provider, static_cfg, runtime_cfg, dag, .. } = &self.scenario;
        let mut cloud = CloudSim::with_queue(provider.clone(), self.seed, self.queue);
        if let Some(capacity) = self.trace_capacity {
            cloud.enable_tracing(capacity);
        }
        if self.profile_events {
            cloud.enable_event_profiling();
        }
        let dag_plan = match dag {
            Some(spec) => {
                if runtime_cfg.chain.is_some() {
                    return Err(ExperimentError::Deploy(DeployError::InvalidSpec(
                        "an application workflow and a legacy chain are mutually exclusive"
                            .to_string(),
                    )));
                }
                Some(spec.compile().map_err(DeployError::InvalidSpec)?)
            }
            None => None,
        };
        let (deployment, dag_deployment) = match &dag_plan {
            Some(plan) => {
                runtime_cfg.validate().map_err(DeployError::InvalidSpec)?;
                let dep = cloud.deploy_dag(plan)?;
                let endpoint = Endpoint {
                    url: format!("https://{}.sim/{}", cloud.config().name, plan.name),
                    function: dep.root,
                    name: plan.name.clone(),
                };
                (Deployment { endpoints: vec![endpoint] }, Some(dep))
            }
            None => (deploy(&mut cloud, static_cfg, runtime_cfg)?, None),
        };
        // Install the fault schedule (if any) before submitting work.
        // Inert specs compile to inert plans, which the cloud skips —
        // so a `faults: none` run stays byte-identical to a faults-off
        // one.
        if let Some(spec) = &runtime_cfg.faults {
            cloud.install_faults(spec.build());
        }
        let mut result =
            run_workload_with(&mut cloud, &deployment, runtime_cfg, self.seed, &self.measure)?;
        // Both modes summarise through the same aggregate: in exact mode
        // the aggregate's buffer holds every sample and `summary()`
        // delegates to the sorted exact path, so the output is
        // bit-identical with the legacy sort-the-samples code.
        // A run whose every request failed (a fault schedule can inject
        // errors at probability 1) has no latency samples; that is a
        // valid outcome, not a panic.
        let summary = if result.latency_agg.is_empty() {
            stats::summary::Summary::empty()
        } else {
            result.latency_agg.summary()
        };
        let transfer_summary =
            if result.transfer_agg.is_empty() { None } else { Some(result.transfer_agg.summary()) };
        if cloud.faults_installed() {
            result.faults = Some(cloud.fault_stats());
        }
        let dag = match (&dag_plan, &dag_deployment) {
            (Some(plan), Some(dep)) => Some(dag_run_stats(&cloud, plan, dep)),
            _ => None,
        };
        let spans = cloud.drain_spans();
        // Fold end-of-run slab and event-queue counters into the metrics
        // registry so reports can audit memory behaviour; likewise the
        // per-event cost profile when profiling was on.
        cloud.record_queue_metrics();
        cloud.record_profile_metrics();
        let metrics = cloud.metrics();
        Ok(Outcome { result, summary, transfer_summary, spans, metrics, dag })
    }
}

/// Names the cloud's per-node stage and join statistics of a workflow
/// run after the plan's nodes.
fn dag_run_stats(cloud: &CloudSim, plan: &DagPlan, dep: &DagDeployment) -> DagRunStats {
    let nodes = || plan.nodes.iter().zip(&dep.functions);
    let stages = nodes()
        .map(|(node, &fid)| {
            let stage = cloud.stage_stats(fid).expect("every workflow node has a record");
            StageStats {
                name: node.name.clone(),
                count: stage.count,
                median_ms: stage.median_ms,
                p99_ms: stage.p99_ms,
            }
        })
        .collect();
    let joins: Vec<JoinReport> = nodes()
        .filter_map(|(node, &fid)| {
            cloud.join_stats(fid).map(|j| JoinReport {
                stage: node.name.clone(),
                fired: j.fired,
                stragglers: j.stragglers,
                branch_p99_ms: j.branch_p99_ms,
                join_p99_ms: j.join_p99_ms,
                amplification: j.amplification,
            })
        })
        .collect();
    let straggler_amplification = joins.iter().map(|j| j.amplification).fold(0.0, f64::max);
    DagRunStats { app: plan.name.clone(), stages, joins, straggler_amplification }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChainConfig, IatSpec, StaticFunction};
    use faas_sim::testutil::test_provider;
    use faas_sim::types::TransferMode;

    #[test]
    fn default_experiment_runs() {
        let outcome = Experiment::new(test_provider()).seed(1).run().unwrap();
        assert_eq!(outcome.summary.count, 100);
        assert!(outcome.transfer_summary.is_none());
    }

    #[test]
    fn chain_experiment_summarises_transfers() {
        let mut runtime = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 20);
        runtime.warmup_rounds = 2;
        runtime.chain =
            Some(ChainConfig { length: 2, mode: TransferMode::Inline, payload_bytes: 1_000_000 });
        let outcome = Experiment::new(test_provider())
            .functions(StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] })
            .workload(runtime)
            .seed(2)
            .run()
            .unwrap();
        let ts = outcome.transfer_summary.expect("transfers summarised");
        assert_eq!(ts.count, 20);
        // 1 MB at 100 MB/s inline = 10ms wire + warm overhead.
        assert!(ts.median > 10.0 && ts.median < 60.0, "median {}", ts.median);
    }

    #[test]
    fn tracing_captures_spans_without_changing_results() {
        let base = Experiment::new(test_provider()).seed(5);
        let plain = base.clone().run().unwrap();
        let traced = base.trace(100_000).run().unwrap();
        assert_eq!(plain.latencies_ms(), traced.latencies_ms());
        assert!(plain.spans.is_empty(), "tracing is off by default");
        assert!(!traced.spans.is_empty());
        let total =
            (traced.result.completions.len() + traced.result.warmup_completions.len()) as u64;
        assert_eq!(traced.metrics.counter(faas_sim::cloud::metric::REQUESTS_COMPLETED), total);
    }

    #[test]
    fn event_profiling_fills_cost_metrics_without_changing_results() {
        use faas_sim::cloud::metric;
        let base = Experiment::new(test_provider()).seed(6);
        let plain = base.clone().run().unwrap();
        let profiled = base.profile_events(true).run().unwrap();
        assert_eq!(plain.latencies_ms(), profiled.latencies_ms(), "profiling must not perturb");
        assert_eq!(plain.metrics.counter(metric::PROFILE_LOOP_NS), 0, "off by default");
        assert!(profiled.metrics.counter(metric::PROFILE_LOOP_NS) > 0);
        let events: u64 = metric::PROFILE_COUNT.iter().map(|n| profiled.metrics.counter(n)).sum();
        assert!(events >= 100, "every dispatched event is counted, got {events}");
        // Telescoping timestamps: the per-class cost sum cannot exceed the
        // measured loop wall time.
        let ns: u64 = metric::PROFILE_NS.iter().map(|n| profiled.metrics.counter(n)).sum();
        assert!(ns <= profiled.metrics.counter(metric::PROFILE_LOOP_NS));
    }

    #[test]
    fn seed_controls_reproducibility() {
        let latencies =
            |seed| Experiment::new(test_provider()).seed(seed).run().unwrap().latencies_ms();
        assert_eq!(latencies(3), latencies(3));
    }

    #[test]
    fn workload_spec_routes_through_spec_driver() {
        let mut runtime = RuntimeConfig::single(IatSpec::short(), 60);
        runtime.warmup_rounds = 5;
        runtime = runtime.with_workload(workload::WorkloadSpec::preset("mmpp-burst").unwrap());
        let outcome = Experiment::new(test_provider()).workload(runtime).seed(4).run().unwrap();
        assert_eq!(outcome.summary.count, 60);
        let offered = outcome.result.offered.expect("spec runs report offered load");
        assert_eq!(offered.arrivals, 65);
        assert!(offered.iat_cv > 1.0, "MMPP is overdispersed, cv {}", offered.iat_cv);
        // Slab counters were folded into the metrics registry.
        assert!(outcome.metrics.counter(faas_sim::cloud::metric::REQUEST_SLOTS_ALLOCATED) > 0);
        assert!(
            outcome.metrics.counter(faas_sim::cloud::metric::REQUEST_SLOTS_HIGH_WATER) <= 65,
            "high water bounded by total requests"
        );
    }

    #[test]
    fn policy_without_workload_lifts_the_iat_into_a_spec_run() {
        let mut runtime = RuntimeConfig::single(IatSpec::Exponential { mean_ms: 400.0 }, 40)
            .with_policy(policy::PolicySpec::preset("hedge-200ms").unwrap());
        runtime.warmup_rounds = 2;
        runtime.exec_ms = 300.0;
        let outcome = Experiment::new(test_provider()).workload(runtime).seed(8).run().unwrap();
        assert_eq!(outcome.summary.count, 40);
        assert!(outcome.result.offered.is_some(), "lifted IAT runs on the spec driver");
        let stats = outcome.result.policy.expect("policy stats surface through Outcome");
        assert_eq!(stats.extra_launches, 42, "300 ms execution hedges every request");
    }

    /// The `none` and policy arms of a comparison see one arrival train,
    /// and a policy that never acts replays the `none` arm request for
    /// request: every submission draws its propagation delay from the
    /// cloud's submission stream, policy or not.
    #[test]
    fn policy_arms_of_an_iat_config_share_one_arrival_train() {
        let mut runtime = RuntimeConfig::single(IatSpec::Exponential { mean_ms: 400.0 }, 40);
        runtime.warmup_rounds = 2;
        let offered = |runtime: RuntimeConfig| {
            let outcome = Experiment::new(test_provider()).workload(runtime).seed(8).run().unwrap();
            outcome.result.offered.expect("every open-loop run reports offered load")
        };
        let plain = offered(runtime.clone());
        let hedged = offered(runtime.with_policy(policy::PolicySpec::preset("hedge-p95").unwrap()));
        assert_eq!(plain.arrivals, hedged.arrivals);
        for (a, b) in [
            (plain.mean_rate_per_s, hedged.mean_rate_per_s),
            (plain.iat_cv, hedged.iat_cv),
            (plain.peak_to_mean, hedged.peak_to_mean),
            (plain.fano, hedged.fano),
            (plain.window_ms, hedged.window_ms),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{plain:?} vs {hedged:?}");
        }

        // A jittered propagation delay, so the arms would diverge if a
        // submission's draw depended on what the cloud drew before it.
        let mut provider = test_provider();
        provider.network.prop_delay_ms = simkit::dist::Dist::lognormal_median_p99(10.0, 40.0);
        let mut runtime = RuntimeConfig::single(IatSpec::short(), 400);
        runtime.warmup_rounds = 10;
        runtime.workload = workload::spec::WorkloadSpec::preset("mmpp-burst");
        let latencies = |runtime: RuntimeConfig| {
            let outcome =
                Experiment::new(provider.clone()).workload(runtime).seed(3).run().unwrap();
            let mut done: Vec<(u64, u64)> = outcome
                .result
                .completions
                .iter()
                .map(|c| (c.tag, c.latency_ms().to_bits()))
                .collect();
            done.sort_unstable();
            done
        };
        let none = latencies(runtime.clone());
        assert_eq!(none.len(), 400);
        let never_acting = [
            policy::PolicySpec::Hedge {
                threshold: policy::ThresholdSpec::Static { ms: 1e12 },
                max_hedges: 1,
            },
            policy::PolicySpec::Deadline { deadline_ms: 1e12 },
        ];
        for spec in never_acting {
            let label = format!("{spec:?}");
            let got = latencies(runtime.clone().with_policy(spec));
            let first_diff = got.iter().zip(&none).position(|(a, b)| a != b);
            assert_eq!((got.len(), first_diff), (none.len(), None), "{label}: first moved request");
        }
    }

    #[test]
    fn deploy_errors_propagate() {
        let mut runtime = RuntimeConfig::single(IatSpec::short(), 10);
        runtime.chain =
            Some(ChainConfig { length: 2, mode: TransferMode::Inline, payload_bytes: 100_000_000 });
        let err = Experiment::new(test_provider()).workload(runtime).run().unwrap_err();
        assert!(matches!(err, ExperimentError::Deploy(_)));
    }

    fn fan_two() -> faas_sim::dag::DagSpec {
        use faas_sim::dag::{DagNodeSpec, DagSpec};
        use simkit::dist::Dist;
        DagSpec::new("fan2")
            .node(DagNodeSpec::new("start").exec_ms(Dist::constant(5.0)))
            .node(DagNodeSpec::new("w0").exec_ms(Dist::constant(20.0)))
            .node(DagNodeSpec::new("w1").exec_ms(Dist::constant(40.0)))
            .node(DagNodeSpec::new("join").exec_ms(Dist::constant(5.0)))
            .edge("start", "w0", TransferMode::Inline, Dist::constant(1024.0))
            .edge("start", "w1", TransferMode::Inline, Dist::constant(1024.0))
            .edge("w0", "join", TransferMode::Inline, Dist::constant(512.0))
            .edge("w1", "join", TransferMode::Inline, Dist::constant(512.0))
    }

    #[test]
    fn app_experiment_reports_stage_breakdown() {
        let mut runtime = RuntimeConfig::single(IatSpec::Fixed { ms: 500.0 }, 20);
        runtime.warmup_rounds = 2;
        let outcome = Experiment::new(test_provider())
            .app(fan_two())
            .workload(runtime)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(outcome.summary.count, 20);
        let dag = outcome.dag.expect("app runs report per-stage statistics");
        assert_eq!(dag.app, "fan2");
        assert_eq!(dag.stages.len(), 4);
        for stage in &dag.stages {
            assert_eq!(stage.count, 22, "{}: warm-up rounds traverse the DAG too", stage.name);
            assert!(stage.median_ms > 0.0);
            assert!(stage.p99_ms >= stage.median_ms);
        }
        assert_eq!(dag.joins.len(), 1);
        assert_eq!(dag.joins[0].stage, "join");
        assert_eq!(dag.joins[0].fired, 22);
        assert_eq!(dag.joins[0].stragglers, 0, "all-of-n joins have no stragglers");
        assert!(
            dag.straggler_amplification >= 1.0,
            "an all-of-n join waits on its slowest branch: {}",
            dag.straggler_amplification
        );
    }

    /// Sketch mode retains no client samples; stage statistics come from
    /// the cloud either way, so every stage, root included, reports the
    /// same statistics as the exact run — with and without a policy.
    #[test]
    fn sketch_app_experiment_reports_stage_breakdown() {
        let run = |measure, samples, app, policy: Option<&str>| {
            let mut runtime = RuntimeConfig::single(IatSpec::Fixed { ms: 500.0 }, samples);
            runtime.warmup_rounds = 2;
            if let Some(name) = policy {
                runtime = runtime.with_policy(policy::PolicySpec::preset(name).unwrap());
            }
            Experiment::new(test_provider())
                .app(app)
                .workload(runtime)
                .seed(3)
                .measure(measure)
                .run()
                .unwrap()
        };
        let sketch = run(MeasureSpec::sketch(), 20, fan_two(), None);
        assert!(sketch.result.completions.is_empty(), "sketch mode retains no samples");
        assert_eq!(sketch.summary.count, 20);
        let dag = sketch.dag.expect("app runs report per-stage statistics");
        assert_eq!(dag.stages.len(), 4);
        for stage in &dag.stages {
            assert_eq!(stage.count, 22, "{}: warm-up rounds traverse the DAG too", stage.name);
            assert!(stage.median_ms > 0.0);
            assert!(stage.p99_ms >= stage.median_ms);
        }
        let exact = run(MeasureSpec::exact(), 20, fan_two(), None).dag.unwrap();
        assert_eq!(dag.stages, exact.stages, "stage statistics must not depend on retention");
        assert_eq!(dag.joins.len(), 1);
        assert_eq!(dag.joins[0].fired, 22);

        // Under a policy the root stage counts every successful root
        // attempt — each winner plus each duplicate success — in both
        // modes, not one retained winner per logical request.
        let mut slow_branch = fan_two();
        slow_branch.nodes[2].exec_ms = simkit::dist::Dist::lognormal_median_p99(40.0, 200.0);
        let hedged = |measure| run(measure, 60, slow_branch.clone(), Some("hedge-p95"));
        let (sketch, exact) = (hedged(MeasureSpec::sketch()), hedged(MeasureSpec::exact()));
        let policy = exact.result.policy.expect("policy stats surface through Outcome");
        assert!(policy.duplicate_successes > 0, "the hedge must fire: {policy:?}");
        let (sketch, exact) = (sketch.dag.unwrap(), exact.dag.unwrap());
        assert_eq!(sketch, exact, "stage statistics must not depend on retention");
        assert_eq!(exact.stages[0].count, policy.logical + policy.duplicate_successes);
    }

    #[test]
    fn app_runs_are_reproducible_and_queue_independent() {
        use simkit::engine::QueueKind;
        let run = |queue| {
            Experiment::new(test_provider())
                .app(fan_two())
                .workload(RuntimeConfig::single(IatSpec::short(), 30))
                .seed(9)
                .queue(queue)
                .run()
                .unwrap()
                .latencies_ms()
        };
        assert_eq!(run(QueueKind::BinaryHeap), run(QueueKind::BinaryHeap));
        assert_eq!(run(QueueKind::BinaryHeap), run(QueueKind::Calendar));
    }

    #[test]
    fn app_and_chain_are_mutually_exclusive() {
        let mut runtime = RuntimeConfig::single(IatSpec::short(), 10);
        runtime.chain =
            Some(ChainConfig { length: 2, mode: TransferMode::Inline, payload_bytes: 1_000 });
        let err =
            Experiment::new(test_provider()).app(fan_two()).workload(runtime).run().unwrap_err();
        assert!(matches!(err, ExperimentError::Deploy(_)), "got {err}");
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn invalid_app_spec_is_a_deploy_error() {
        use faas_sim::dag::{DagNodeSpec, DagSpec};
        use simkit::dist::Dist;
        let cyclic = DagSpec::new("bad")
            .node(DagNodeSpec::new("root"))
            .node(DagNodeSpec::new("a"))
            .node(DagNodeSpec::new("b"))
            .edge("root", "a", TransferMode::Inline, Dist::constant(1024.0))
            .edge("a", "b", TransferMode::Inline, Dist::constant(1024.0))
            .edge("b", "a", TransferMode::Inline, Dist::constant(1024.0));
        let err = Experiment::new(test_provider()).app(cyclic).run().unwrap_err();
        assert!(err.to_string().contains("cycle"), "got {err}");
    }
}
