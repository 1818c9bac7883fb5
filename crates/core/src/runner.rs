//! Parallel experiment grid execution.
//!
//! The paper's methodology (§V) sweeps burst sizes × payload sizes ×
//! providers × IATs — an embarrassingly parallel grid of independent
//! `(scenario, seed)` cells. [`SweepRunner`] executes such a grid on one
//! bounded pool of `std::thread::scope` workers ([`SweepRunner::map`]),
//! the pool every multi-cell paper artifact in the bench harness also runs
//! its cells on, while preserving the determinism contract the rest of
//! the stack guarantees:
//!
//! * **Bounded workers** — at most `min(threads, cells)` workers start,
//!   `threads` defaulting to the machine's available parallelism.
//! * **Work stealing** — workers claim cells from a shared atomic cursor,
//!   so a slow cell (a long cold-start sweep, say) never idles the pool.
//! * **Deterministic merge** — results are keyed by cell index and merged
//!   in index order, so the report is byte-identical regardless of worker
//!   count or completion interleaving.
//! * **Panic isolation** — each [`SweepRunner::run`] cell runs under
//!   `catch_unwind`; a failing cell becomes an error row instead of
//!   killing the sweep. A bare [`SweepRunner::map`] propagates a cell's
//!   panic to its caller.
//! * **Progress counters** — the merged [`simkit::metrics::Metrics`]
//!   registry carries `sweep_cells_*` counters plus the summed lifecycle
//!   counters of every successful cell.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use faas_sim::config::ProviderConfig;
use simkit::engine::QueueKind;
use simkit::metrics::Metrics;
use stats::sketch::LatencyAgg;
use stats::Summary;

use crate::client::MeasureSpec;
use crate::config::{RuntimeConfig, StaticConfig};
use crate::experiment::{Experiment, Outcome};

/// Counter names published by the sweep runner.
pub mod counter {
    /// Cells in the grid.
    pub const CELLS_TOTAL: &str = "sweep_cells_total";
    /// Cells that produced a summary.
    pub const CELLS_OK: &str = "sweep_cells_ok";
    /// Cells that errored or panicked.
    pub const CELLS_FAILED: &str = "sweep_cells_failed";
}

/// One named experiment configuration; crossed with every seed in a
/// [`SweepGrid`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label used in report rows (e.g. the provider name).
    pub label: String,
    /// Provider profile the cell simulates.
    pub provider: ProviderConfig,
    /// Deployer configuration.
    pub static_cfg: StaticConfig,
    /// Client workload configuration.
    pub runtime_cfg: RuntimeConfig,
    /// Application workflow; `None` runs the static function set.
    pub dag: Option<faas_sim::dag::DagSpec>,
}

impl Scenario {
    /// The default scenario: one Python ZIP function, 100 single
    /// invocations at the short IAT. [`Experiment::new`] starts from it.
    pub fn new<S: Into<String>>(label: S, provider: ProviderConfig) -> Scenario {
        Scenario {
            label: label.into(),
            provider,
            static_cfg: StaticConfig {
                functions: vec![crate::config::StaticFunction::python_zip("fn")],
            },
            runtime_cfg: RuntimeConfig::single(crate::config::IatSpec::short(), 100),
            dag: None,
        }
    }

    /// Attaches an application workflow (consuming): the cell deploys
    /// `spec`'s DAG and drives its root instead of the static function
    /// set (see [`Experiment::app`]).
    pub fn app(mut self, spec: faas_sim::dag::DagSpec) -> Scenario {
        self.dag = Some(spec);
        self
    }

    /// Replaces the static (deployer) configuration.
    pub fn functions(mut self, cfg: StaticConfig) -> Scenario {
        self.static_cfg = cfg;
        self
    }

    /// Replaces the runtime (client) configuration.
    pub fn workload(mut self, cfg: RuntimeConfig) -> Scenario {
        self.runtime_cfg = cfg;
        self
    }

    /// Attaches a workload model to the scenario's runtime configuration
    /// (consuming): the cell runs `spec`'s arrival process and loop mode
    /// instead of the configured IAT.
    pub fn arrival(mut self, spec: workload::WorkloadSpec) -> Scenario {
        self.runtime_cfg.workload = Some(spec);
        self
    }

    /// Attaches a tail-tolerance policy to the scenario's runtime
    /// configuration (consuming): every logical request in the cell is
    /// driven by the policy's state machine.
    pub fn policy(mut self, spec: policy::PolicySpec) -> Scenario {
        self.runtime_cfg.policy = Some(spec);
        self
    }

    /// Attaches a fault-injection schedule to the scenario's runtime
    /// configuration (consuming): the cell's cloud injects provider
    /// errors, crashes, purge storms, outages and brownouts per `spec`.
    pub fn faults(mut self, spec: faults::FaultSpec) -> Scenario {
        self.runtime_cfg.faults = Some(spec);
        self
    }
}

/// A scenarios × seeds experiment grid, laid out scenario-major: cell
/// `i` is `(scenarios[i / seeds.len()], seeds[i % seeds.len()])`.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// The scenarios (rows of the grid).
    pub scenarios: Vec<Scenario>,
    /// The seeds (columns of the grid).
    pub seeds: Vec<u64>,
}

impl SweepGrid {
    /// Builds a grid from scenarios and seeds.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    pub fn new(scenarios: Vec<Scenario>, seeds: Vec<u64>) -> SweepGrid {
        assert!(!scenarios.is_empty(), "sweep grid needs at least one scenario");
        assert!(!seeds.is_empty(), "sweep grid needs at least one seed");
        SweepGrid { scenarios, seeds }
    }

    /// Number of cells (scenarios × seeds).
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// Whether the grid has no cells (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell(&self, index: usize) -> (&Scenario, u64) {
        (&self.scenarios[index / self.seeds.len()], self.seeds[index % self.seeds.len()])
    }

    /// Builds a grid with the workload model as an explicit sweep axis:
    /// every scenario is crossed with every named workload, producing
    /// `scenarios × workloads × seeds` cells labelled
    /// `"{scenario}/{workload}"`.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty.
    pub fn cross_workloads(
        scenarios: Vec<Scenario>,
        workloads: &[(impl AsRef<str>, workload::WorkloadSpec)],
        seeds: Vec<u64>,
    ) -> SweepGrid {
        cross(scenarios, workloads, '/', "workload", seeds, |c, spec| {
            c.runtime_cfg.workload = Some(spec)
        })
    }

    /// Builds a grid with the application workflow as an explicit sweep
    /// axis: every scenario is crossed with every named app, producing
    /// `scenarios × apps × seeds` cells labelled `"{scenario}@{app}"`.
    /// A `None` app is the static-function baseline, labelled
    /// `"{scenario}@none"`.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty.
    pub fn cross_apps(
        scenarios: Vec<Scenario>,
        apps: &[(impl AsRef<str>, Option<faas_sim::dag::DagSpec>)],
        seeds: Vec<u64>,
    ) -> SweepGrid {
        cross(scenarios, apps, '@', "app", seeds, |c, spec| c.dag = spec)
    }

    /// Builds a grid with the tail-tolerance policy as an explicit sweep
    /// axis: every scenario is crossed with every named policy, producing
    /// `scenarios × policies × seeds` cells labelled
    /// `"{scenario}+{policy}"`. A `None` policy is the unmodified
    /// baseline, labelled `"{scenario}+none"`.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty.
    pub fn cross_policies(
        scenarios: Vec<Scenario>,
        policies: &[(impl AsRef<str>, Option<policy::PolicySpec>)],
        seeds: Vec<u64>,
    ) -> SweepGrid {
        cross(scenarios, policies, '+', "policy", seeds, |c, spec| c.runtime_cfg.policy = spec)
    }

    /// Builds a grid with the fault schedule as an explicit sweep axis:
    /// every scenario is crossed with every named fault spec, producing
    /// `scenarios × faults × seeds` cells labelled
    /// `"{scenario}~{faults}"`. A `None` spec is the unperturbed
    /// baseline, labelled `"{scenario}~none"`.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty.
    pub fn cross_faults(
        scenarios: Vec<Scenario>,
        faults: &[(impl AsRef<str>, Option<faults::FaultSpec>)],
        seeds: Vec<u64>,
    ) -> SweepGrid {
        cross(scenarios, faults, '~', "fault schedule", seeds, |c, spec| {
            c.runtime_cfg.faults = spec
        })
    }
}

/// Crosses every scenario with every named value of one axis,
/// scenario-major: each cell is labelled `"{scenario}{sep}{name}"` and
/// gets its value through `set`.
fn cross<T: Clone>(
    scenarios: Vec<Scenario>,
    axis: &[(impl AsRef<str>, T)],
    sep: char,
    what: &str,
    seeds: Vec<u64>,
    set: impl Fn(&mut Scenario, T),
) -> SweepGrid {
    assert!(!axis.is_empty(), "sweep grid needs at least one {what}");
    let mut crossed = Vec::with_capacity(scenarios.len() * axis.len());
    for s in &scenarios {
        for (name, value) in axis {
            let mut cell = s.clone();
            cell.label = format!("{}{sep}{}", s.label, name.as_ref());
            set(&mut cell, value.clone());
            crossed.push(cell);
        }
    }
    SweepGrid::new(crossed, seeds)
}

/// Tail-tolerance outcomes a policy-driven cell adds to its row.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCellStats {
    /// 99.9th percentile end-to-end latency of winners, ms.
    pub p999_ms: f64,
    /// Extra attempts launched per logical request.
    pub hedge_rate: f64,
    /// Fraction of consumed instance time thrown away, in `[0, 1]`.
    pub wasted_fraction: f64,
    /// Attempts that completed after their request was already won.
    pub duplicate_successes: u64,
    /// Logical requests abandoned by a deadline.
    pub abandoned: u64,
}

/// The statistics a successful cell contributes to the report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Measured samples.
    pub count: usize,
    /// Median end-to-end latency, ms.
    pub median_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile (the paper's tail), ms.
    pub p99_ms: f64,
    /// Tail-to-median ratio.
    pub tmr: f64,
    /// Fraction of measured completions that waited on a cold start.
    pub cold_fraction: f64,
    /// Policy outcomes; `None` unless the cell ran a tail-tolerance
    /// policy.
    pub policy: Option<PolicyCellStats>,
    /// Attempts issued per logical request, ≥ 1.0
    /// ([`policy::PolicyStats::retry_amplification`]); `None` unless the
    /// cell ran a policy.
    pub retry_amp: Option<f64>,
    /// Fraction of fault-terminal requests that completed successfully
    /// ([`faults::FaultStats::availability`]); `None` unless the cell
    /// ran a fault schedule.
    pub goodput: Option<f64>,
    /// Worst join-p99 amplification across the cell's workflow
    /// ([`crate::experiment::DagRunStats::straggler_amplification`]);
    /// `None` unless the cell ran an application workflow.
    pub join_amp: Option<f64>,
}

impl CellStats {
    fn from_outcome(outcome: &Outcome) -> CellStats {
        let Summary { count, median, p95, tail, tmr, .. } = outcome.summary;
        let policy = outcome.result.policy.as_ref().map(|stats| {
            // One quantile path for every mode: the aggregate is exact
            // whenever samples are retained, so this matches the old
            // sort-the-samples branch bit for bit there.
            let p999_ms = outcome.result.latency_agg.clone().quantile(0.999);
            PolicyCellStats {
                p999_ms,
                hedge_rate: stats.hedge_fire_rate(),
                wasted_fraction: stats.wasted_fraction(),
                duplicate_successes: stats.duplicate_successes,
                abandoned: stats.abandoned,
            }
        });
        CellStats {
            count,
            median_ms: median,
            p95_ms: p95,
            p99_ms: tail,
            tmr,
            cold_fraction: outcome.result.cold_fraction(),
            policy,
            retry_amp: outcome.result.policy.as_ref().map(policy::PolicyStats::retry_amplification),
            goodput: outcome.result.faults.as_ref().map(faults::FaultStats::availability),
            join_amp: outcome.dag.as_ref().map(|d| d.straggler_amplification),
        }
    }
}

/// One merged result row: a cell either summarised or failed.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Cell index in grid order.
    pub index: usize,
    /// Label of the cell's scenario.
    pub scenario: String,
    /// Seed of the cell.
    pub seed: u64,
    /// Summary statistics, or the failure message (experiment errors and
    /// caught panics both land here).
    pub result: Result<CellStats, String>,
}

/// The merged output of a sweep: rows in cell-index order plus aggregated
/// counters.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One row per cell, in grid order.
    pub rows: Vec<CellRow>,
    /// `sweep_cells_*` progress counters followed by the summed lifecycle
    /// counters of every successful cell, merged in cell order.
    pub metrics: Metrics,
    /// Grid-wide latency aggregate: every successful cell's measured
    /// latencies merged in cell-index order. Because the merge order is
    /// fixed by the grid (not by completion interleaving), this is
    /// byte-identical across worker-thread counts.
    pub latency_agg: LatencyAgg,
}

impl SweepReport {
    /// Rows that produced statistics.
    pub fn ok_count(&self) -> usize {
        self.rows.iter().filter(|r| r.result.is_ok()).count()
    }

    /// Rows that failed (error or panic).
    pub fn failed_count(&self) -> usize {
        self.rows.len() - self.ok_count()
    }

    /// Renders the report as CSV, one row per cell in grid order. The
    /// output depends only on the grid (not on worker count), so it is
    /// byte-identical across thread configurations.
    pub fn to_csv(&self) -> String {
        self.csv(Columns::Base)
    }

    /// [`SweepReport::to_csv`] plus the policy columns (p99.9, hedge
    /// rate, wasted-work fraction, duplicate successes, abandons) and the
    /// robustness columns (retry amplification, goodput). Cells without a
    /// policy (or fault schedule) leave the corresponding columns empty.
    /// The base CSV is kept separate so existing pipelines keep parsing
    /// byte-identical output.
    pub fn to_csv_extended(&self) -> String {
        self.csv(Columns::Extended)
    }

    /// [`SweepReport::to_csv_extended`] plus the application column
    /// (`join_amp`, the cell's worst straggler amplification). Cells
    /// without a workflow leave it empty. Kept separate so the extended
    /// layout stays frozen for existing pipelines.
    pub fn to_csv_app(&self) -> String {
        self.csv(Columns::App)
    }

    /// The one CSV writer: the base columns, then each column group up to
    /// `columns`, then `error`. An empty optional value leaves its field
    /// empty; an error row leaves every statistics field empty.
    fn csv(&self, columns: Columns) -> String {
        let mut out = String::from(
            "cell,scenario,seed,status,samples,median_ms,p95_ms,p99_ms,tmr,cold_fraction,",
        );
        if columns >= Columns::Extended {
            out.push_str(
                "p999_ms,hedge_rate,wasted_fraction,duplicate_successes,abandoned,retry_amp,\
                 goodput,",
            );
        }
        if columns >= Columns::App {
            out.push_str("join_amp,");
        }
        out.push_str("error\n");
        let optional = |out: &mut String, value: Option<String>| {
            out.push_str(value.as_deref().unwrap_or(""));
            out.push(',');
        };
        for row in &self.rows {
            out.push_str(&format!("{},{},{},", row.index, csv_field(&row.scenario), row.seed));
            let s = match &row.result {
                Ok(s) => s,
                Err(msg) => {
                    let empty = match columns {
                        Columns::Base => 6,
                        Columns::Extended => 13,
                        Columns::App => 14,
                    };
                    out.push_str(&format!("error{},{}\n", ",".repeat(empty), csv_field(msg)));
                    continue;
                }
            };
            out.push_str(&format!(
                "ok,{},{:.3},{:.3},{:.3},{:.3},{:.4},",
                s.count, s.median_ms, s.p95_ms, s.p99_ms, s.tmr, s.cold_fraction,
            ));
            if columns >= Columns::Extended {
                match &s.policy {
                    Some(p) => out.push_str(&format!(
                        "{:.3},{:.4},{:.4},{},{},",
                        p.p999_ms,
                        p.hedge_rate,
                        p.wasted_fraction,
                        p.duplicate_successes,
                        p.abandoned,
                    )),
                    None => out.push_str(",,,,,"),
                }
                optional(&mut out, s.retry_amp.map(|amp| format!("{amp:.3}")));
                optional(&mut out, s.goodput.map(|g| format!("{g:.4}")));
            }
            if columns >= Columns::App {
                optional(&mut out, s.join_amp.map(|amp| format!("{amp:.3}")));
            }
            out.push('\n');
        }
        out
    }
}

/// Column groups of a sweep CSV, each a superset of the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Columns {
    /// Counts, latency quantiles, tail-to-median ratio, cold fraction.
    Base,
    /// Plus the policy and robustness columns.
    Extended,
    /// Plus the application column.
    App,
}

/// RFC 4180 field escaping: fields containing a comma, double quote or
/// line break are wrapped in double quotes, with internal quotes
/// doubled. Plain fields pass through unchanged, keeping the frozen
/// byte layout of existing reports.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

/// Executes a [`SweepGrid`], or any list of independent cells, on a
/// bounded pool of scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
    queue: QueueKind,
    measure: MeasureSpec,
    profile_events: bool,
}

impl SweepRunner {
    /// A runner with the given worker count; `0` selects the machine's
    /// available parallelism. Cells use the default queue backend and
    /// measurement spec unless overridden.
    pub fn new(threads: usize) -> SweepRunner {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        SweepRunner {
            threads,
            queue: QueueKind::default(),
            measure: MeasureSpec::default(),
            profile_events: false,
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selects the event-queue backend every cell simulates on.
    pub fn queue(mut self, queue: QueueKind) -> SweepRunner {
        self.queue = queue;
        self
    }

    /// Sets how every cell is measured; [`MeasureSpec::sketch`] keeps
    /// large sweeps at O(sketch) latency storage per cell.
    pub fn measure(mut self, measure: MeasureSpec) -> SweepRunner {
        self.measure = measure;
        self
    }

    /// Enables per-event cost profiling in every cell; the per-class
    /// totals merge across cells into [`SweepReport::metrics`] under the
    /// `faas_sim::cloud::metric::PROFILE_*` names. Observational only —
    /// cell results are bit-identical either way.
    pub fn profile_events(mut self, on: bool) -> SweepRunner {
        self.profile_events = on;
        self
    }

    /// Runs every cell of `grid` on [`SweepRunner::map`] and merges the
    /// results in cell-index order. A panicking cell is isolated into an
    /// error row.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        let indices: Vec<usize> = (0..grid.len()).collect();
        let cells = self.map(&indices, |&index| self.run_cell(grid, index));
        let mut rows = Vec::with_capacity(cells.len());
        let mut metrics = Metrics::new();
        let mut latency_agg = LatencyAgg::with_mode(self.measure.quantile);
        metrics.add(counter::CELLS_TOTAL, cells.len() as u64);
        metrics.add(counter::CELLS_OK, 0);
        metrics.add(counter::CELLS_FAILED, 0);
        for (row, cell_metrics, cell_agg) in cells {
            metrics.inc(if row.result.is_ok() { counter::CELLS_OK } else { counter::CELLS_FAILED });
            metrics.merge(&cell_metrics);
            if let Some(agg) = &cell_agg {
                latency_agg.merge(agg);
            }
            rows.push(row);
        }
        SweepReport { rows, metrics, latency_agg }
    }

    /// Applies `f` to every cell on the pool and returns the results in
    /// cell order, whatever the worker count or completion interleaving.
    /// At most `min(threads, cells.len())` scoped workers start; each
    /// claims the next unclaimed cell from a shared atomic cursor, so a
    /// slow cell never idles the others. A panicking cell panics this
    /// call once every worker has stopped.
    pub fn map<C: Sync, T: Send>(&self, cells: &[C], f: impl Fn(&C) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(cells.len()) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(index) else { break };
                    *slots[index].lock().expect("sweep slot poisoned") = Some(f(cell));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("sweep slot poisoned").expect("cell never ran"))
            .collect()
    }

    /// Runs one grid cell under `catch_unwind`, so an experiment error or
    /// a panic becomes the cell's error row.
    fn run_cell(&self, grid: &SweepGrid, index: usize) -> CellResult {
        let (scenario, seed) = grid.cell(index);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Experiment::from(scenario.clone())
                .seed(seed)
                .queue(self.queue)
                .measure(self.measure)
                .profile_events(self.profile_events)
                .run()
        }));
        let (result, metrics, agg) = match outcome {
            Ok(Ok(outcome)) => (
                Ok(CellStats::from_outcome(&outcome)),
                outcome.metrics,
                Some(outcome.result.latency_agg),
            ),
            Ok(Err(e)) => (Err(e.to_string()), Metrics::new(), None),
            Err(payload) => {
                (Err(format!("panic: {}", panic_message(&payload))), Metrics::new(), None)
            }
        };
        (CellRow { index, scenario: scenario.label.clone(), seed, result }, metrics, agg)
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new(0)
    }
}

/// What one sweep cell hands back for merging: its CSV row, lifecycle
/// counters, and (in sketch mode) the cell's latency aggregate.
type CellResult = (CellRow, Metrics, Option<LatencyAgg>);

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IatSpec;
    use faas_sim::testutil::test_provider;

    fn small_grid() -> SweepGrid {
        let scenarios = ["a", "b"]
            .iter()
            .map(|label| {
                Scenario::new(*label, test_provider())
                    .workload(RuntimeConfig::single(IatSpec::short(), 30))
            })
            .collect();
        SweepGrid::new(scenarios, vec![1, 2, 3])
    }

    #[test]
    fn runs_every_cell_in_grid_order() {
        let report = SweepRunner::new(2).run(&small_grid());
        assert_eq!(report.rows.len(), 6);
        assert_eq!(report.ok_count(), 6);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.index, i);
        }
        assert_eq!(report.rows[0].scenario, "a");
        assert_eq!(report.rows[0].seed, 1);
        assert_eq!(report.rows[5].scenario, "b");
        assert_eq!(report.rows[5].seed, 3);
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let grid = small_grid();
        let csv1 = SweepRunner::new(1).run(&grid).to_csv();
        let csv4 = SweepRunner::new(4).run(&grid).to_csv();
        assert_eq!(csv1, csv4, "merge order must not depend on worker count");
    }

    #[test]
    fn sketch_mode_reports_identical_across_thread_counts() {
        let grid = small_grid();
        let run = |threads| SweepRunner::new(threads).measure(MeasureSpec::sketch()).run(&grid);
        let r1 = run(1);
        let r4 = run(4);
        assert_eq!(r1.to_csv(), r4.to_csv());
        // The merged aggregate (sketch state included) must also be
        // bit-identical: cells merge in index order, not completion order.
        assert_eq!(r1.latency_agg, r4.latency_agg);
        assert_eq!(r1.latency_agg.count(), 6 * 30);
    }

    #[test]
    fn queue_backend_does_not_change_results() {
        let grid = small_grid();
        let heap = SweepRunner::new(2).queue(QueueKind::BinaryHeap).run(&grid).to_csv();
        let calendar = SweepRunner::new(2).queue(QueueKind::Calendar).run(&grid).to_csv();
        assert_eq!(heap, calendar);
    }

    #[test]
    fn merged_aggregate_covers_successful_cells() {
        let report = SweepRunner::new(2).run(&small_grid());
        assert_eq!(report.latency_agg.count(), 6 * 30);
        let mut agg = report.latency_agg.clone();
        assert!(agg.quantile(0.5) > 0.0);
    }

    #[test]
    fn metrics_carry_progress_and_merged_lifecycle_counters() {
        let report = SweepRunner::new(3).run(&small_grid());
        assert_eq!(report.metrics.counter(counter::CELLS_TOTAL), 6);
        assert_eq!(report.metrics.counter(counter::CELLS_OK), 6);
        assert_eq!(report.metrics.counter(counter::CELLS_FAILED), 0);
        // 6 cells × 30 requests each.
        assert_eq!(report.metrics.counter(faas_sim::cloud::metric::REQUESTS_SUBMITTED), 180);
    }

    #[test]
    fn experiment_errors_become_error_rows() {
        // Zero samples fails RuntimeConfig validation inside the cell.
        let bad = Scenario::new("bad", test_provider())
            .workload(RuntimeConfig::single(IatSpec::short(), 0));
        let good = Scenario::new("good", test_provider())
            .workload(RuntimeConfig::single(IatSpec::short(), 20));
        let grid = SweepGrid::new(vec![bad, good], vec![7]);
        let report = SweepRunner::new(2).run(&grid);
        assert_eq!(report.ok_count(), 1);
        assert_eq!(report.failed_count(), 1);
        let err = report.rows[0].result.as_ref().unwrap_err();
        assert!(err.contains("invalid"), "unexpected error: {err}");
        assert_eq!(report.metrics.counter(counter::CELLS_FAILED), 1);
    }

    #[test]
    fn panicking_cell_is_isolated_into_an_error_row() {
        // An invalid provider config panics inside CloudSim::new; the
        // sweep must keep going and report the panic message.
        let mut broken = test_provider();
        broken.limits.max_instances_per_function = 0;
        let grid = SweepGrid::new(
            vec![
                Scenario::new("broken", broken),
                Scenario::new("ok", test_provider())
                    .workload(RuntimeConfig::single(IatSpec::short(), 20)),
            ],
            vec![1, 2],
        );
        let report = SweepRunner::new(2).run(&grid);
        assert_eq!(report.failed_count(), 2);
        assert_eq!(report.ok_count(), 2);
        let err = report.rows[0].result.as_ref().unwrap_err();
        assert!(err.starts_with("panic:"), "unexpected error: {err}");
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let grid = SweepGrid::new(
            vec![Scenario::new("one", test_provider())
                .workload(RuntimeConfig::single(IatSpec::short(), 10))],
            vec![9],
        );
        let report = SweepRunner::new(16).run(&grid);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.ok_count(), 1);
    }

    #[test]
    fn map_returns_results_in_input_order_under_uneven_cells() {
        // Early cells sleep longest, so completion order is roughly the
        // reverse of input order; the output must still be input order.
        let cells: Vec<u64> = (0..12).collect();
        for threads in [1, 2, 8] {
            let out = SweepRunner::new(threads).map(&cells, |&i| {
                std::thread::sleep(std::time::Duration::from_millis((12 - i) % 5));
                i * i
            });
            let expected: Vec<u64> = cells.iter().map(|i| i * i).collect();
            assert_eq!(out, expected, "{threads} workers");
        }
    }

    #[test]
    fn map_never_runs_more_cells_at_once_than_threads() {
        use std::collections::HashSet;
        for (threads, cells) in [(1, 6), (2, 8), (3, 9), (8, 3)] {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let workers = Mutex::new(HashSet::new());
            let inputs: Vec<usize> = (0..cells).collect();
            SweepRunner::new(threads).map(&inputs, |_| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                workers.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
            let peak = peak.into_inner();
            assert!(peak >= 1 && peak <= threads, "{threads} threads ran {peak} cells at once");
            let started = workers.into_inner().unwrap().len();
            assert!(started <= threads.min(cells), "{started} workers for {cells} cells");
        }
    }

    #[test]
    fn map_over_no_cells_is_empty() {
        let out = SweepRunner::new(4).map(&[] as &[u8], |&c| c);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic]
    fn map_propagates_a_cell_panic() {
        SweepRunner::new(2).map(&[1, 2, 3], |&c| {
            assert_ne!(c, 2, "cell 2 fails");
            c
        });
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_axis_panics() {
        SweepGrid::new(vec![Scenario::new("a", test_provider())], vec![]);
    }

    fn workload_grid() -> SweepGrid {
        let base = Scenario::new("base", test_provider())
            .workload(RuntimeConfig::single(IatSpec::short(), 25));
        SweepGrid::cross_workloads(
            vec![base],
            &[
                ("poisson", workload::WorkloadSpec::preset("poisson").unwrap()),
                ("mmpp", workload::WorkloadSpec::preset("mmpp-burst").unwrap()),
            ],
            vec![1, 2],
        )
    }

    #[test]
    fn workload_axis_crosses_scenarios_and_labels_cells() {
        let grid = workload_grid();
        assert_eq!(grid.scenarios.len(), 2);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid.scenarios[0].label, "base/poisson");
        assert_eq!(grid.scenarios[1].label, "base/mmpp");
        let report = SweepRunner::new(2).run(&grid);
        assert_eq!(report.ok_count(), 4);
        assert!(report.to_csv().contains("base/mmpp"));
    }

    #[test]
    fn workload_sweep_is_identical_across_thread_counts() {
        let grid = workload_grid();
        let csv1 = SweepRunner::new(1).run(&grid).to_csv();
        let csv4 = SweepRunner::new(4).run(&grid).to_csv();
        assert_eq!(csv1, csv4);
    }

    fn policy_grid() -> SweepGrid {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 25);
        cfg.exec_ms = 300.0;
        let base = Scenario::new("base", test_provider()).workload(cfg);
        SweepGrid::cross_policies(
            vec![base],
            &[
                ("none", None),
                ("hedge-200ms", Some(policy::PolicySpec::preset("hedge-200ms").unwrap())),
            ],
            vec![1, 2],
        )
    }

    #[test]
    fn policy_axis_crosses_scenarios_and_labels_cells() {
        let grid = policy_grid();
        assert_eq!(grid.scenarios.len(), 2);
        assert_eq!(grid.scenarios[0].label, "base+none");
        assert_eq!(grid.scenarios[1].label, "base+hedge-200ms");
        assert!(grid.scenarios[0].runtime_cfg.policy.is_none());
        let report = SweepRunner::new(2).run(&grid);
        assert_eq!(report.ok_count(), 4);
        // Baseline rows leave the policy columns empty; hedged rows
        // populate them.
        let baseline = report.rows[0].result.as_ref().expect("baseline cell ran");
        assert!(baseline.policy.is_none());
        let hedged = report.rows[2].result.as_ref().expect("hedged cell ran");
        let p = hedged.policy.as_ref().expect("hedged rows carry policy stats");
        assert!(p.hedge_rate > 0.9, "300 ms execution hedges every request");
        assert!(p.wasted_fraction > 0.0);
    }

    #[test]
    fn extended_csv_adds_policy_columns_without_touching_base_csv() {
        let grid = policy_grid();
        let report = SweepRunner::new(2).run(&grid);
        let base = report.to_csv();
        assert!(base.starts_with(
            "cell,scenario,seed,status,samples,median_ms,p95_ms,p99_ms,tmr,cold_fraction,error\n"
        ));
        let extended = report.to_csv_extended();
        assert!(extended.contains("p999_ms,hedge_rate,wasted_fraction"));
        assert!(extended.contains("abandoned,retry_amp,goodput,error"));
        assert!(extended.contains("base+hedge-200ms"));
        // The baseline row ends with empty policy + robustness columns
        // (5 policy fields, retry_amp, goodput, error).
        let baseline_row = extended.lines().nth(1).unwrap();
        assert!(baseline_row.ends_with(",,,,,,,"), "baseline row: {baseline_row}");
        // Hedged rows populate retry_amp but leave goodput empty
        // (policy without faults).
        let hedged_row = extended.lines().nth(3).unwrap();
        assert!(hedged_row.contains("base+hedge-200ms"));
        assert!(hedged_row.ends_with(","), "error column empty: {hedged_row}");
        let fields: Vec<&str> = hedged_row.split(',').collect();
        assert_eq!(fields.len(), 18, "hedged row: {hedged_row}");
        let retry_amp: f64 = fields[15].parse().expect("retry_amp populated");
        assert!(retry_amp > 1.0, "every request hedges: {retry_amp}");
        assert!(fields[16].is_empty(), "goodput empty without faults");
    }

    #[test]
    fn error_messages_with_commas_and_quotes_are_csv_escaped() {
        // A panic message carrying the CSV delimiter, quotes and a line
        // break must stay one (quoted) field, not shift columns.
        let report = SweepReport {
            rows: vec![CellRow {
                index: 0,
                scenario: "s".to_string(),
                seed: 7,
                result: Err(
                    "index out of bounds: the len is 2, but the index is \"3\"\nhint".to_string()
                ),
            }],
            metrics: Metrics::new(),
            latency_agg: LatencyAgg::with_mode(stats::sketch::QuantileMode::Exact),
        };
        let escaped = "\"index out of bounds: the len is 2, but the index is \"\"3\"\"\nhint\"";
        let base = report.to_csv();
        assert!(base.contains(escaped), "base csv: {base}");
        assert!(base.contains(&format!("0,s,7,error,,,,,,,{escaped}\n")));
        let extended = report.to_csv_extended();
        assert!(
            extended.contains(&format!("0,s,7,error,,,,,,,,,,,,,,{escaped}\n")),
            "extended csv: {extended}"
        );
        // Plain messages stay unquoted, preserving the frozen layout.
        let plain = SweepReport {
            rows: vec![CellRow {
                index: 0,
                scenario: "s".to_string(),
                seed: 7,
                result: Err("boom".to_string()),
            }],
            metrics: Metrics::new(),
            latency_agg: LatencyAgg::with_mode(stats::sketch::QuantileMode::Exact),
        };
        assert!(plain.to_csv().contains("0,s,7,error,,,,,,,boom\n"));
    }

    #[test]
    fn policy_sweep_is_identical_across_thread_counts() {
        let grid = policy_grid();
        let run = |threads| SweepRunner::new(threads).run(&grid);
        let r1 = run(1);
        let r8 = run(8);
        assert_eq!(r1.to_csv(), r8.to_csv());
        assert_eq!(r1.to_csv_extended(), r8.to_csv_extended());
    }

    fn fault_grid() -> SweepGrid {
        let base = Scenario::new("base", test_provider())
            .workload(RuntimeConfig::single(IatSpec::short(), 40));
        SweepGrid::cross_faults(
            vec![base],
            &[
                ("none", None),
                ("throttle", Some(faults::FaultSpec::preset("throttle-5pct").unwrap())),
            ],
            vec![1, 2],
        )
    }

    #[test]
    fn fault_axis_crosses_scenarios_and_labels_cells() {
        let grid = fault_grid();
        assert_eq!(grid.scenarios.len(), 2);
        assert_eq!(grid.scenarios[0].label, "base~none");
        assert_eq!(grid.scenarios[1].label, "base~throttle");
        assert!(grid.scenarios[0].runtime_cfg.faults.is_none());
        let report = SweepRunner::new(2).run(&grid);
        assert_eq!(report.ok_count(), 4);
        // Baseline rows leave the goodput column empty; throttled rows
        // populate it.
        let baseline = report.rows[0].result.as_ref().expect("baseline cell ran");
        assert!(baseline.goodput.is_none());
        let throttled = report.rows[2].result.as_ref().expect("throttled cell ran");
        let goodput = throttled.goodput.expect("fault cells report goodput");
        assert!(goodput < 1.0, "5% throttle over 40+40 requests errs at least once: {goodput}");
        assert!(goodput > 0.5, "goodput stays near 0.95: {goodput}");
        assert!(
            throttled.count < baseline.count,
            "errored requests are not latency samples ({} vs {})",
            throttled.count,
            baseline.count
        );
    }

    fn app_grid() -> SweepGrid {
        use faas_sim::dag::{DagNodeSpec, DagSpec};
        use faas_sim::types::TransferMode;
        use simkit::dist::Dist;
        let fan = DagSpec::new("fan2")
            .node(DagNodeSpec::new("start").exec_ms(Dist::constant(5.0)))
            .node(DagNodeSpec::new("w0").exec_ms(Dist::constant(20.0)))
            .node(DagNodeSpec::new("w1").exec_ms(Dist::constant(40.0)))
            .node(DagNodeSpec::new("join").exec_ms(Dist::constant(5.0)))
            .edge("start", "w0", TransferMode::Inline, Dist::constant(1024.0))
            .edge("start", "w1", TransferMode::Inline, Dist::constant(1024.0))
            .edge("w0", "join", TransferMode::Inline, Dist::constant(512.0))
            .edge("w1", "join", TransferMode::Inline, Dist::constant(512.0));
        let base = Scenario::new("base", test_provider())
            .workload(RuntimeConfig::single(IatSpec::short(), 25));
        SweepGrid::cross_apps(vec![base], &[("none", None), ("fan2", Some(fan))], vec![1, 2])
    }

    #[test]
    fn app_axis_crosses_scenarios_and_labels_cells() {
        let grid = app_grid();
        assert_eq!(grid.scenarios.len(), 2);
        assert_eq!(grid.scenarios[0].label, "base@none");
        assert_eq!(grid.scenarios[1].label, "base@fan2");
        assert!(grid.scenarios[0].dag.is_none());
        let report = SweepRunner::new(2).run(&grid);
        assert_eq!(report.ok_count(), 4);
        let baseline = report.rows[0].result.as_ref().expect("baseline cell ran");
        assert!(baseline.join_amp.is_none());
        let app = report.rows[2].result.as_ref().expect("app cell ran");
        let amp = app.join_amp.expect("app cells report straggler amplification");
        assert!(amp >= 1.0, "all-of-n join amplifies the branch tail: {amp}");
    }

    #[test]
    fn app_csv_adds_join_amp_without_touching_frozen_layouts() {
        let grid = app_grid();
        let report = SweepRunner::new(2).run(&grid);
        let extended = report.to_csv_extended();
        assert!(extended.starts_with(
            "cell,scenario,seed,status,samples,median_ms,p95_ms,p99_ms,tmr,cold_fraction,\
             p999_ms,hedge_rate,wasted_fraction,duplicate_successes,abandoned,retry_amp,goodput,\
             error\n"
        ));
        let app_csv = report.to_csv_app();
        assert!(app_csv.contains("goodput,join_amp,error"));
        let baseline_row = app_csv.lines().nth(1).unwrap();
        assert!(baseline_row.contains("base@none"));
        let fields: Vec<&str> = baseline_row.split(',').collect();
        assert_eq!(fields.len(), 19, "baseline row: {baseline_row}");
        assert!(fields[17].is_empty(), "baseline leaves join_amp empty");
        let app_row = app_csv.lines().nth(3).unwrap();
        assert!(app_row.contains("base@fan2"));
        let fields: Vec<&str> = app_row.split(',').collect();
        let amp: f64 = fields[17].parse().expect("join_amp populated");
        assert!(amp >= 1.0, "app row: {app_row}");
    }

    #[test]
    fn app_sweep_is_identical_across_thread_counts() {
        let grid = app_grid();
        let run = |threads| SweepRunner::new(threads).run(&grid);
        let r1 = run(1);
        let r8 = run(8);
        assert_eq!(r1.to_csv(), r8.to_csv());
        assert_eq!(r1.to_csv_app(), r8.to_csv_app());
    }

    #[test]
    fn fault_sweep_is_identical_across_thread_counts_and_backends() {
        let grid = fault_grid();
        let run = |threads| SweepRunner::new(threads).run(&grid);
        let r1 = run(1);
        let r8 = run(8);
        assert_eq!(r1.to_csv(), r8.to_csv());
        assert_eq!(r1.to_csv_extended(), r8.to_csv_extended());
        let heap = SweepRunner::new(2).queue(QueueKind::BinaryHeap).run(&grid).to_csv_extended();
        let cal = SweepRunner::new(2).queue(QueueKind::Calendar).run(&grid).to_csv_extended();
        assert_eq!(heap, cal, "fault draws come from a dedicated stream");
    }
}
