//! Command execution.

use std::fmt;

use faas_sim::config::ProviderConfig;
use providers::paper::ProviderKind;
use providers::profiles::config_for;
use stats::sketch::QuantileMode;
use stats::svg::{SvgPlot, SvgSeries};
use stellar_core::breakdown::BreakdownAnalysis;
use stellar_core::client::MeasureSpec;
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig};
use stellar_core::experiment::Experiment;
use stellar_core::runner::{Scenario, SweepGrid, SweepRunner};
use stellar_core::traceio;
use stellar_core::visualize::{export_cdf_csv, render_cdf, Series};

use crate::args::{Command, RunOptions, ScenarioOptions, SweepOptions, USAGE};

/// CLI failures (all user-facing).
#[derive(Debug)]
pub enum CliError {
    /// File IO problem.
    Io(String, std::io::Error),
    /// Configuration parse/validation problem.
    Config(String),
    /// Experiment failure.
    Experiment(stellar_core::experiment::ExperimentError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Config(msg) => write!(f, "configuration error: {msg}"),
            CliError::Experiment(e) => write!(f, "experiment failed: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))
}

fn resolve_provider(name_or_path: &str) -> Result<ProviderConfig, CliError> {
    for kind in ProviderKind::ALL {
        if config_for(kind).name == name_or_path
            || kind.label() == name_or_path
            || format!("{}-like", kind.label()) == name_or_path
        {
            return Ok(config_for(kind));
        }
    }
    // Otherwise treat it as a path to a provider-config JSON.
    let text = read(name_or_path)?;
    let cfg: ProviderConfig = serde_json::from_str(&text)
        .map_err(|e| CliError::Config(format!("{name_or_path}: {e}")))?;
    cfg.validate().map_err(CliError::Config)?;
    Ok(cfg)
}

/// Resolves a spec entry: a preset name, otherwise a path to a spec JSON
/// that `from_json` parses.
fn resolve_spec<T>(
    name_or_path: &str,
    preset: impl Fn(&str) -> Option<T>,
    from_json: impl Fn(&str) -> Result<T, String>,
) -> Result<T, CliError> {
    if let Some(spec) = preset(name_or_path) {
        return Ok(spec);
    }
    let text = read(name_or_path)?;
    from_json(&text).map_err(|e| CliError::Config(format!("{name_or_path}: {e}")))
}

/// [`resolve_spec`] for an optional axis, where `none` is the baseline.
fn resolve_optional<T>(
    name_or_path: &str,
    preset: impl Fn(&str) -> Option<T>,
    from_json: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, CliError> {
    if name_or_path == "none" {
        return Ok(None);
    }
    resolve_spec(name_or_path, preset, from_json).map(Some)
}

fn resolve_workload(name_or_path: &str) -> Result<workload::WorkloadSpec, CliError> {
    resolve_spec(name_or_path, workload::WorkloadSpec::preset, workload::WorkloadSpec::from_json)
}

/// Resolves a `--policy` entry: `none` is the unmodified baseline.
fn resolve_policy(name_or_path: &str) -> Result<Option<policy::PolicySpec>, CliError> {
    resolve_optional(name_or_path, policy::PolicySpec::preset, policy::PolicySpec::from_json)
}

/// Resolves a `--faults` entry: `none` is the fault-free baseline.
fn resolve_faults(name_or_path: &str) -> Result<Option<faults::FaultSpec>, CliError> {
    resolve_optional(name_or_path, faults::FaultSpec::preset, faults::FaultSpec::from_json)
}

/// Resolves an `--app` entry: `none` is the single-function baseline,
/// and besides a preset name or a file path it may be an inline
/// DAG-spec JSON object.
fn resolve_app(name_or_path: &str) -> Result<Option<faas_sim::dag::DagSpec>, CliError> {
    if name_or_path.trim_start().starts_with('{') {
        return appsuite::from_json(name_or_path).map(Some).map_err(CliError::Config);
    }
    resolve_optional(name_or_path, appsuite::preset, appsuite::from_json)
}

/// Resolves every entry of one sweep axis in order, each beside its
/// short label: `none`, the preset name, or the file stem of a spec path.
fn sweep_axis<T, P>(
    names: &[String],
    preset: impl Fn(&str) -> Option<P>,
    resolve: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Vec<(String, T)>, CliError> {
    names
        .iter()
        .map(|name| {
            let label = if name == "none" || preset(name).is_some() {
                name.clone()
            } else {
                std::path::Path::new(name)
                    .file_stem()
                    .map_or_else(|| name.clone(), |s| s.to_string_lossy().into_owned())
            };
            Ok((label, resolve(name)?))
        })
        .collect()
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for IO, configuration or experiment failures.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Providers => {
            let mut out = String::from("built-in provider profiles:\n");
            for kind in ProviderKind::ALL {
                let cfg = config_for(kind);
                out.push_str(&format!(
                    "  {:<12} policy={:?} prop_rtt={:.0}ms\n",
                    cfg.name,
                    policy_label(&cfg),
                    kind.prop_one_way_ms() * 2.0,
                ));
            }
            Ok(out)
        }
        Command::DumpProvider(name) => {
            let cfg = resolve_provider(name)?;
            serde_json::to_string_pretty(&cfg).map_err(|e| CliError::Config(e.to_string()))
        }
        Command::SampleConfig => Ok(sample_config()),
        Command::Run(opts) => run(opts),
        Command::Sweep(opts) => sweep(opts),
    }
}

fn policy_label(cfg: &ProviderConfig) -> &'static str {
    use faas_sim::config::ScalePolicy::*;
    match cfg.scaling.policy {
        PerRequest => "per-request",
        TargetConcurrency { .. } => "target-concurrency",
        Periodic { .. } => "periodic",
        CostAware { .. } => "cost-aware",
    }
}

/// Resolves the scenario flags into the grid they describe, crossed with
/// `seeds`: one scenario per provider, then each requested axis crosses
/// the scenarios the previous ones produced, apps innermost, so labels
/// read "{provider}@{app}/{workload}+{policy}~{fault}". `run` passes one
/// value per axis and one seed, so its grid is a single cell. `warmup`
/// applies to the default runtime config only.
fn resolve_grid(
    opts: &ScenarioOptions,
    warmup: u32,
    seeds: Vec<u64>,
) -> Result<SweepGrid, CliError> {
    let static_cfg = match &opts.static_path {
        Some(path) => Some(StaticConfig::from_json(&read(path)?).map_err(CliError::Config)?),
        None => None,
    };
    let runtime_cfg = match &opts.runtime_path {
        Some(path) => RuntimeConfig::from_json(&read(path)?).map_err(CliError::Config)?,
        None => RuntimeConfig {
            warmup_rounds: warmup,
            ..RuntimeConfig::single(IatSpec::short(), opts.samples)
        },
    };
    let mut scenarios = opts
        .providers
        .iter()
        .map(|name| {
            let provider = resolve_provider(name)?;
            let mut scenario =
                Scenario::new(provider.name.clone(), provider).workload(runtime_cfg.clone());
            if let Some(cfg) = &static_cfg {
                scenario = scenario.functions(cfg.clone());
            }
            Ok(scenario)
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    let apps = sweep_axis(&opts.apps, appsuite::preset, resolve_app)?;
    let workloads = sweep_axis(&opts.workloads, workload::WorkloadSpec::preset, resolve_workload)?;
    let policies = sweep_axis(&opts.policies, policy::PolicySpec::preset, resolve_policy)?;
    let faults = sweep_axis(&opts.faults, faults::FaultSpec::preset, resolve_faults)?;
    if !apps.is_empty() {
        scenarios = SweepGrid::cross_apps(scenarios, &apps, seeds.clone()).scenarios;
    }
    if !workloads.is_empty() {
        scenarios = SweepGrid::cross_workloads(scenarios, &workloads, seeds.clone()).scenarios;
    }
    if !policies.is_empty() {
        scenarios = SweepGrid::cross_policies(scenarios, &policies, seeds.clone()).scenarios;
    }
    if !faults.is_empty() {
        scenarios = SweepGrid::cross_faults(scenarios, &faults, seeds.clone()).scenarios;
    }
    Ok(SweepGrid::new(scenarios, seeds))
}

/// How `mode` measures a run; sketch mode retains raw samples only when
/// `keep_samples`.
fn measure(mode: QuantileMode, keep_samples: bool) -> MeasureSpec {
    match mode {
        QuantileMode::Exact => MeasureSpec::exact(),
        QuantileMode::Sketch => MeasureSpec::sketch().with_keep_samples(keep_samples),
    }
}

fn run(opts: &RunOptions) -> Result<String, CliError> {
    let grid = resolve_grid(&opts.scenario, opts.warmup, vec![opts.seed])?;
    let scenario = grid.scenarios.into_iter().next().expect("run flags resolve to one cell");
    let provider_name = scenario.provider.name.clone();
    // The CDF, CSV and SVG figures all render from the streamed
    // aggregate; only the per-component breakdown still needs the raw
    // completion vectors, so sketch mode retains them just for it.
    let mut experiment = Experiment::from(scenario)
        .seed(opts.seed)
        .measure(measure(opts.scenario.quantile_mode, opts.breakdown))
        .profile_events(opts.scenario.profile_events);
    if opts.trace.is_some() {
        experiment = experiment.trace(opts.trace_capacity);
    }
    let outcome = experiment.run().map_err(CliError::Experiment)?;

    let mut out = String::new();
    out.push_str(&format!("provider {provider_name}, seed {}: {}\n", opts.seed, outcome.summary));
    out.push_str(&format!("cold-start fraction: {:.1}%\n", outcome.result.cold_fraction() * 100.0));
    // Every run reports the load it actually offered: an IAT-only config
    // runs as its lifted open-loop spec, so it gets this line too.
    if let Some(offered) = &outcome.result.offered {
        out.push_str(&format!(
            "offered load: {} arrivals, {:.2}/s mean, IAT CV {:.2}, \
             peak/mean {:.2}, Fano {:.2}\n",
            offered.arrivals,
            offered.mean_rate_per_s,
            offered.iat_cv,
            offered.peak_to_mean,
            offered.fano,
        ));
    }
    if let Some(ts) = &outcome.transfer_summary {
        out.push_str(&format!("transfers: {ts}\n"));
    }
    // Policy-driven runs report what the policy did and what it cost; a
    // run without --policy prints exactly the lines it always did.
    if let Some(p) = &outcome.result.policy {
        out.push_str(&format!(
            "policy: {} logical requests, {} extra launches ({:.2}/req), \
             {} cancels, {} duplicate successes, {} abandoned\n",
            p.logical,
            p.extra_launches,
            p.hedge_fire_rate(),
            p.cancels,
            p.duplicate_successes,
            p.abandoned,
        ));
        out.push_str(&format!(
            "wasted work: {:.1} ms of {:.1} ms busy time ({:.1}%)\n",
            p.wasted_busy_ms,
            p.used_busy_ms + p.wasted_busy_ms,
            p.wasted_fraction() * 100.0,
        ));
    }
    // Fault-injected runs report what the faults did to the offered load;
    // a run without --faults prints exactly the lines it always did.
    if let Some(f) = &outcome.result.faults {
        out.push_str(&format!(
            "faults: {} of {} requests hit ({} transient, {} crashes, {} shed), \
             {} purged instances, {} deferred boots\n",
            f.injected,
            f.submitted,
            f.transient_errors,
            f.crashes,
            f.shed,
            f.purged_instances,
            f.outage_deferrals,
        ));
        out.push_str(&format!(
            "degradation: availability {:.2}%, {} failed, {} completed, \
             {:.1} ms busy time wasted by crashes\n",
            f.availability() * 100.0,
            f.failed + f.shed,
            f.completed,
            f.wasted_busy_ms,
        ));
        if let Some(p) = &outcome.result.policy {
            out.push_str(&format!(
                "retry amplification: {:.3} attempts per logical request\n",
                p.retry_amplification(),
            ));
        }
    }
    // Workflow runs report the per-stage latency breakdown and the join
    // straggler accounting; a run without --app prints exactly the lines
    // it always did.
    if let Some(d) = &outcome.dag {
        out.push_str(&format!(
            "application {}: {} stages, straggler amplification {:.2}x\n",
            d.app,
            d.stages.len(),
            d.straggler_amplification,
        ));
        out.push_str(&format!(
            "  {:<20} {:>8} {:>12} {:>12}\n",
            "stage", "count", "median_ms", "p99_ms"
        ));
        for s in &d.stages {
            out.push_str(&format!(
                "  {:<20} {:>8} {:>12.3} {:>12.3}\n",
                s.name, s.count, s.median_ms, s.p99_ms,
            ));
        }
        for j in &d.joins {
            out.push_str(&format!(
                "  join {}: fired {}, stragglers {}, branch p99 {:.3} ms, \
                 join p99 {:.3} ms, amplification {:.2}x\n",
                j.stage, j.fired, j.stragglers, j.branch_p99_ms, j.join_p99_ms, j.amplification,
            ));
        }
    }
    if opts.scenario.profile_events {
        out.push_str(&render_event_profile(&outcome.metrics));
    }
    if opts.cdf {
        out.push('\n');
        out.push_str(&render_cdf("end-to-end latency (ms)", &outcome.result.latency_agg));
    }
    if opts.breakdown {
        out.push('\n');
        out.push_str(&BreakdownAnalysis::compute(&outcome.result.completions).render());
    }
    if let Some(path) = &opts.csv {
        let csv = export_cdf_csv(
            &[Series::from_agg(provider_name.clone(), outcome.result.latency_agg.clone())],
            101,
        );
        std::fs::write(path, csv).map_err(|e| CliError::Io(path.clone(), e))?;
        out.push_str(&format!("wrote quantile CSV to {path}\n"));
    }
    if let Some(path) = &opts.svg {
        let svg = SvgPlot::cdf(format!("{provider_name} end-to-end latency")).render(&[
            SvgSeries::from_sketch(provider_name, outcome.result.latency_agg.sketch().clone()),
        ]);
        std::fs::write(path, svg).map_err(|e| CliError::Io(path.clone(), e))?;
        out.push_str(&format!("wrote SVG CDF to {path}\n"));
    }
    if let Some(path) = &opts.trace {
        let (label, export) = if path.ends_with(".csv") {
            ("csv", traceio::to_csv(&outcome.spans))
        } else {
            ("jsonl", traceio::to_jsonl(&outcome.spans))
        };
        std::fs::write(path, &export).map_err(|e| CliError::Io(path.clone(), e))?;
        out.push_str(&format!(
            "wrote {} spans to {path} ({label}, digest {:016x})\n",
            outcome.spans.len(),
            traceio::digest64(&export),
        ));
    }
    Ok(out)
}

fn sweep(opts: &SweepOptions) -> Result<String, CliError> {
    let seeds: Vec<u64> = (opts.base_seed..opts.base_seed + opts.seeds).collect();
    let grid = resolve_grid(&opts.scenario, 0, seeds)?;
    let scenario = &opts.scenario;
    let report = SweepRunner::new(opts.threads)
        .measure(measure(scenario.quantile_mode, false))
        .profile_events(scenario.profile_events)
        .run(&grid);

    // The summary deliberately omits the worker count: the report must be
    // byte-identical however the sweep was parallelised.
    let mut axes = format!("{} providers", scenario.providers.len());
    if !scenario.apps.is_empty() {
        axes.push_str(&format!(" x {} apps", scenario.apps.len()));
    }
    if !scenario.workloads.is_empty() {
        axes.push_str(&format!(" x {} workloads", scenario.workloads.len()));
    }
    if !scenario.policies.is_empty() {
        axes.push_str(&format!(" x {} policies", scenario.policies.len()));
    }
    if !scenario.faults.is_empty() {
        axes.push_str(&format!(" x {} fault models", scenario.faults.len()));
    }
    axes.push_str(&format!(" x {} seeds", opts.seeds));
    let mut out = format!(
        "sweep: {axes} = {} cells ({} ok, {} failed)\n",
        grid.len(),
        report.ok_count(),
        report.failed_count(),
    );
    out.push_str(&format!(
        "requests: {} submitted, {} completed, {} cold starts\n",
        report.metrics.counter(faas_sim::cloud::metric::REQUESTS_SUBMITTED),
        report.metrics.counter(faas_sim::cloud::metric::REQUESTS_COMPLETED),
        report.metrics.counter(faas_sim::cloud::metric::COLD_STARTS),
    ));
    if scenario.profile_events {
        out.push_str(&render_event_profile(&report.metrics));
    }
    // App sweeps get the app CSV (extended columns plus join_amp); policy
    // and fault sweeps get the extended CSV (policy outcome,
    // retry-amplification and goodput columns); plain sweeps keep today's
    // byte-identical base CSV.
    let csv = if !scenario.apps.is_empty() {
        report.to_csv_app()
    } else if scenario.policies.is_empty() && scenario.faults.is_empty() {
        report.to_csv()
    } else {
        report.to_csv_extended()
    };
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| CliError::Io(path.clone(), e))?;
            out.push_str(&format!("wrote report CSV to {path}\n"));
        }
        None => {
            out.push('\n');
            out.push_str(&csv);
        }
    }
    Ok(out)
}

/// Renders the per-event-class cost table from the profile counters that
/// [`Experiment`] (or the sweep runner) folded into the metrics registry.
/// The trailing `profile coverage:` line is machine-parseable: per-class
/// dispatch time should account for nearly all of the event-loop wall
/// time, so CI can assert the profiler is neither dropping events nor
/// double-counting.
fn render_event_profile(metrics: &simkit::metrics::Metrics) -> String {
    use faas_sim::cloud::metric::{PROFILE_COUNT, PROFILE_LOOP_NS, PROFILE_NS};
    let loop_ns = metrics.counter(PROFILE_LOOP_NS);
    let mut rows = Vec::new();
    let mut total_count = 0u64;
    let mut total_ns = 0u64;
    for (&count_name, &ns_name) in PROFILE_COUNT.iter().zip(PROFILE_NS.iter()) {
        let count = metrics.counter(count_name);
        if count == 0 {
            continue;
        }
        let ns = metrics.counter(ns_name);
        total_count += count;
        total_ns += ns;
        let class = ns_name.strip_prefix("profile_ns_").unwrap_or(ns_name);
        rows.push((class, count, ns));
    }
    // Most expensive class first; the table is for finding hot spots.
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let mut out = String::from("\nper-event cost (dispatch wall time by event class):\n");
    out.push_str(&format!(
        "  {:<16} {:>12} {:>12} {:>10} {:>7}\n",
        "class", "events", "total_ms", "ns/event", "share"
    ));
    for (class, count, ns) in rows {
        let share = if total_ns == 0 { 0.0 } else { ns as f64 / total_ns as f64 * 100.0 };
        out.push_str(&format!(
            "  {:<16} {:>12} {:>12.3} {:>10.0} {:>6.1}%\n",
            class,
            count,
            ns as f64 / 1e6,
            ns as f64 / count as f64,
            share,
        ));
    }
    out.push_str(&format!(
        "  {:<16} {:>12} {:>12.3}\n",
        "total",
        total_count,
        total_ns as f64 / 1e6,
    ));
    // With no timed dispatches there is nothing to cover; report 100% so
    // the CI bound (90-110%) treats an empty run as healthy.
    let coverage = if loop_ns == 0 { 100.0 } else { total_ns as f64 / loop_ns as f64 * 100.0 };
    out.push_str(&format!(
        "profile coverage: {coverage:.1}% of {:.3} ms event-loop wall time\n",
        loop_ns as f64 / 1e6,
    ));
    out
}

fn sample_config() -> String {
    let static_json = r#"{
  "functions": [
    { "name": "api", "runtime": "python3", "deployment": "zip",
      "memory_mb": 2048, "replicas": 4 }
  ]
}"#;
    let runtime_json = r#"{
  "iat": { "kind": "fixed", "ms": 3000.0 },
  "burst_size": 1,
  "samples": 3000,
  "warmup_rounds": 2,
  "exec_ms": 0.0
}"#;
    format!(
        "# static configuration (save as fns.json):\n{static_json}\n\n\
         # runtime configuration (save as load.json):\n{runtime_json}\n\n\
         # then: stellar run --static fns.json --runtime load.json --cdf\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("stellar-cli-test-{name}"));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Parses and executes one command line.
    fn cli(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        execute(&crate::args::parse_args(&args).expect("a valid command line"))
    }

    /// A one-function Go static config and a 40-sample fixed-IAT runtime
    /// config, written under `tag`.
    fn go_configs(tag: &str) -> (String, String) {
        let static_path = write_temp(
            &format!("{tag}-static.json"),
            r#"{"functions": [{"name": "f", "runtime": "go", "deployment": "zip", "memory_mb": 2048}]}"#,
        );
        let runtime_path = write_temp(
            &format!("{tag}-runtime.json"),
            r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 40, "warmup_rounds": 1}"#,
        );
        (static_path, runtime_path)
    }

    #[test]
    fn help_and_providers_and_dump() {
        assert!(execute(&Command::Help).unwrap().contains("USAGE"));
        let providers = execute(&Command::Providers).unwrap();
        assert!(providers.contains("aws-like"));
        assert!(providers.contains("per-request"));
        let dump = execute(&Command::DumpProvider("azure-like".into())).unwrap();
        assert!(dump.contains("\"periodic\""));
        assert!(execute(&Command::DumpProvider("nope".into())).is_err());
    }

    #[test]
    fn sample_config_round_trips() {
        let text = execute(&Command::SampleConfig).unwrap();
        let static_part = text
            .split("# static configuration (save as fns.json):\n")
            .nth(1)
            .unwrap()
            .split("\n\n#")
            .next()
            .unwrap();
        assert!(StaticConfig::from_json(static_part).is_ok());
    }

    #[test]
    fn run_end_to_end_with_exports() {
        let (static_path, runtime_path) = go_configs("exports");
        let csv_path = write_temp("out.csv", "");
        let svg_path = write_temp("out.svg", "");
        let out = cli(&[
            "run",
            "--static",
            &static_path,
            "--runtime",
            &runtime_path,
            "--provider",
            "google-like",
            "--seed",
            "3",
            "--breakdown",
            "--cdf",
            "--csv",
            &csv_path,
            "--svg",
            &svg_path,
        ])
        .unwrap();
        assert!(out.contains("provider google-like"));
        assert!(out.contains("per-component attribution"));
        assert!(out.contains("median"));
        let csv = std::fs::read_to_string(csv_path).unwrap();
        assert!(csv.starts_with("series,quantile,latency_ms"));
        let svg = std::fs::read_to_string(svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn run_sketch_mode_streams_without_samples() {
        let (static_path, runtime_path) = go_configs("sketch");
        let base = ["run", "--static", &static_path, "--runtime", &runtime_path, "--seed", "3"];
        let sketch = |extra: &[&str]| {
            cli(&[&base[..], &["--quantile-mode", "sketch"], extra].concat()).unwrap()
        };
        let out = sketch(&[]);
        assert!(out.contains("provider aws-like"), "{out}");
        assert!(out.contains("median"), "{out}");
        assert!(out.contains("cold-start fraction"), "{out}");

        // The CDF renders straight from the streamed aggregate — no
        // sample retention needed even in sketch mode.
        let with_cdf = sketch(&["--cdf"]);
        assert!(with_cdf.contains("end-to-end latency"), "{with_cdf}");
    }

    #[test]
    fn run_profile_events_prints_cost_table_without_changing_results() {
        let base =
            ["run", "--workload", "poisson", "--samples", "40", "--warmup", "2", "--seed", "9"];
        let plain = cli(&base).unwrap();
        assert!(!plain.contains("per-event cost"), "{plain}");

        let profiled = cli(&[&base[..], &["--profile-events"]].concat()).unwrap();
        assert!(profiled.contains("per-event cost"), "{profiled}");
        assert!(profiled.contains("profile coverage:"), "{profiled}");
        assert!(profiled.contains("frontend_arrive"), "{profiled}");
        // Profiling observes; every result line must be unchanged.
        assert!(profiled.starts_with(&plain), "profiling must only append:\n{profiled}");

        // The sweep path aggregates the same counters across cells.
        let sweep = cli(&[
            "sweep",
            "--providers",
            "aws-like",
            "--seeds",
            "2",
            "--samples",
            "20",
            "--threads",
            "1",
            "--profile-events",
        ])
        .unwrap();
        assert!(sweep.contains("per-event cost"), "{sweep}");
        assert!(sweep.contains("profile coverage:"), "{sweep}");
    }

    #[test]
    fn trace_exports_jsonl_and_csv() {
        let runtime_path = write_temp(
            "trace-runtime.json",
            r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 10, "warmup_rounds": 1}"#,
        );
        let base = ["run", "--runtime", &runtime_path, "--seed", "7", "--trace-capacity", "4096"];
        let jsonl_path = write_temp("trace-out.jsonl", "");
        let msg = cli(&[&base[..], &["--trace", &jsonl_path]].concat()).unwrap();
        assert!(msg.starts_with("provider aws-like, seed 7: n=10"), "summary first: {msg}");
        assert!(msg.contains(&format!("spans to {jsonl_path} (jsonl, digest ")), "{msg}");
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.lines().count() > 10, "one span per line");
        assert!(jsonl.lines().all(|l| l.starts_with("{\"span_id\":")));
        assert!(jsonl.contains("\"component\":\"request\""));
        assert!(jsonl.contains("\"component\":\"execution\""));

        // The format follows the file name.
        let csv_path = write_temp("trace-out.csv", "");
        let msg = cli(&[&base[..], &["--trace", &csv_path]].concat()).unwrap();
        assert!(msg.contains("(csv, digest "), "{msg}");
        let csv = std::fs::read_to_string(csv_path).unwrap();
        assert!(csv.starts_with("span_id,parent,request,component,start_ns,end_ns"));

        // Tracing observes: the summary lines match an untraced run.
        let plain = cli(&base).unwrap();
        assert!(msg.starts_with(&plain), "tracing must only append:\n{msg}");
    }

    /// The default `run` cell (one Python ZIP function, 100 requests at the
    /// 3 s IAT, aws-like) at seed 42 exports pinned spans in both formats.
    #[test]
    fn run_trace_digests_are_pinned() {
        for (ext, digest) in [("csv", "17fe525c870311c7"), ("jsonl", "77601a0b0a6e89f1")] {
            let path = write_temp(&format!("trace-pinned.{ext}"), "");
            let msg = cli(&["run", "--seed", "42", "--trace", &path]).unwrap();
            let want = format!("wrote 1100 spans to {path} ({ext}, digest {digest})\n");
            assert!(msg.ends_with(&want), "{msg}");
        }
        let path = write_temp("trace-ring.csv", "");
        let msg = cli(&["run", "--seed", "42", "--trace", &path, "--trace-capacity", "10"]);
        assert!(msg.unwrap().contains("wrote 10 spans"), "the ring keeps the newest spans");
    }

    /// `run` is the one-cell sweep: both resolve the same cell and report
    /// the same median and p99 (at the CSV's three decimals).
    #[test]
    fn run_matches_the_one_cell_sweep() {
        let static_path = write_temp(
            "one-cell-static.json",
            r#"{"functions": [{"name": "fn", "runtime": "python3", "deployment": "zip", "memory_mb": 2048}]}"#,
        );
        let runtime_path = write_temp(
            "one-cell-runtime.json",
            r#"{"iat": {"kind": "fixed", "ms": 3000.0}, "samples": 500}"#,
        );
        let cell = ["--seeds", "1", "--base-seed", "3", "--samples", "500"];
        for axes in [&[][..], &["--workload", "poisson", "--policy", "hedge-p95"]] {
            let run = ["run", "--static", &static_path, "--runtime", &runtime_path, "--seed", "3"];
            let run = cli(&[&run[..], axes].concat()).unwrap();
            let sweep = cli(&[&["sweep", "--providers", "aws-like"][..], &cell, axes].concat());
            let sweep = sweep.unwrap();
            let row: Vec<&str> = sweep.lines().last().unwrap().split(',').collect();
            let (median, p99): (f64, f64) = (row[5].parse().unwrap(), row[7].parse().unwrap());
            let expect = format!("median={median:.2} p99={p99:.2} ");
            assert!(run.contains(&expect), "run:\n{run}\nsweep:\n{sweep}");
        }
    }

    #[test]
    fn run_app_accepts_an_inline_dag_json() {
        // The object holds commas, so `run` must not split the value.
        let inline = r#"{"name": "inline2", "nodes": [{"name": "a"}, {"name": "b"}],
            "edges": [{"from": "a", "to": "b", "mode": "inline"}]}"#;
        let out = cli(&["run", "--app", inline, "--samples", "30", "--seed", "2"]).unwrap();
        assert!(out.contains("application inline2: 2 stages"), "{out}");
        assert!(out.contains("provider aws-like, seed 2: n=30 "), "{out}");
        let bad = cli(&["run", "--app", r#"{"name": "x", "nodes": []}"#]).unwrap_err();
        assert!(matches!(bad, CliError::Config(_)), "{bad}");
    }

    #[test]
    fn sweep_output_is_byte_identical_across_thread_counts() {
        // 3 providers x 4 seeds = 12 cells; the merged report (summary +
        // CSV) must not depend on how many workers executed the grid.
        let base = ["sweep", "--seeds", "4", "--samples", "40"];
        let serial = cli(&[&base[..], &["--threads", "1"]].concat()).unwrap();
        let threaded = cli(&[&base[..], &["--threads", "4"]].concat()).unwrap();
        assert_eq!(serial, threaded, "sweep output must not depend on worker count");
        assert!(serial.contains("3 providers x 4 seeds = 12 cells (12 ok, 0 failed)"));
        assert!(serial.contains("cell,scenario,seed,status"));
        assert!(serial.contains("0,aws-like,0,ok,40,"));
        assert!(serial.contains("11,azure-like,3,ok,40,"));

        // Sketch mode streams through aggregates; below the exact-mode
        // threshold its quantiles (and therefore the CSV) match exactly.
        let sketch = cli(&[&base[..], &["--threads", "1", "--quantile-mode", "sketch"]].concat());
        assert_eq!(serial, sketch.unwrap(), "small sketch-mode sweeps stay exact");
    }

    #[test]
    fn sweep_writes_csv_report_to_file() {
        let out_path = write_temp("sweep-report.csv", "");
        let runtime_path = write_temp(
            "sweep-runtime.json",
            r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 10, "warmup_rounds": 1}"#,
        );
        let msg = cli(&[
            "sweep",
            "--runtime",
            &runtime_path,
            "--providers",
            "aws-like",
            "--seeds",
            "2",
            "--base-seed",
            "5",
            "--out",
            &out_path,
        ])
        .unwrap();
        assert!(msg.contains("wrote report CSV"), "{msg}");
        let csv = std::fs::read_to_string(out_path).unwrap();
        assert!(csv.starts_with("cell,scenario,seed,status"));
        assert_eq!(csv.lines().count(), 3, "header plus one row per cell");
        assert!(csv.contains("0,aws-like,5,ok,10,"));
    }

    #[test]
    fn run_reports_config_errors() {
        let static_path = write_temp("bad-static.json", r#"{"functions": []}"#);
        let runtime_path = write_temp(
            "ok-runtime.json",
            r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 5}"#,
        );
        let err = cli(&["run", "--static", &static_path, "--runtime", &runtime_path]).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
    }

    #[test]
    fn missing_files_error() {
        let err =
            cli(&["run", "--static", "/nonexistent/s.json", "--runtime", "/nonexistent/r.json"]);
        assert!(matches!(err.unwrap_err(), CliError::Io(..)));
    }

    #[test]
    fn provider_from_json_file() {
        let cfg = config_for(ProviderKind::Aws);
        let path = write_temp("provider.json", &serde_json::to_string(&cfg).unwrap());
        let resolved = resolve_provider(&path).unwrap();
        assert_eq!(resolved.name, "aws-like");
    }

    #[test]
    fn run_with_workload_preset_reports_offered_load() {
        let out = cli(&[
            "run",
            "--workload",
            "mmpp-burst",
            "--samples",
            "60",
            "--warmup",
            "5",
            "--seed",
            "11",
        ])
        .unwrap();
        assert!(out.contains("provider aws-like"), "{out}");
        assert!(out.contains("offered load: 65 arrivals"), "{out}");
        assert!(out.contains("Fano"), "{out}");
    }

    #[test]
    fn run_with_workload_file_resolves_spec_json() {
        let spec_path = write_temp(
            "workload-spec.json",
            r#"{"arrival": {"kind": "exponential", "mean_ms": 100.0}}"#,
        );
        let out =
            cli(&["run", "--workload", &spec_path, "--samples", "30", "--seed", "2"]).unwrap();
        assert!(out.contains("offered load: 30 arrivals"), "{out}");
        assert!(cli(&["run", "--workload", "no-such-preset-or-file", "--samples", "10"]).is_err());
    }

    #[test]
    fn sweep_workload_axis_is_byte_identical_across_threads() {
        let base = [
            "sweep",
            "--providers",
            "aws-like,azure-like",
            "--seeds",
            "2",
            "--samples",
            "25",
            "--workload",
            "poisson,mmpp-burst",
        ];
        let serial = cli(&[&base[..], &["--threads", "1"]].concat()).unwrap();
        let threaded = cli(&[&base[..], &["--threads", "4"]].concat()).unwrap();
        assert_eq!(serial, threaded, "workload sweep must not depend on worker count");
        assert!(serial.contains("2 providers x 2 workloads x 2 seeds = 8 cells (8 ok, 0 failed)"));
        assert!(serial.contains("aws-like/mmpp-burst"), "{serial}");
        assert!(serial.contains("azure-like/poisson"), "{serial}");
    }

    /// `run --workload poisson --samples <samples> --warmup 2 --seed 5`
    /// plus `extra`.
    fn poisson_run(samples: &str, extra: &[&str]) -> Result<String, CliError> {
        let base = ["run", "--workload", "poisson", "--samples", samples, "--warmup", "2"];
        cli(&[&base[..], &["--seed", "5"], extra].concat())
    }

    #[test]
    fn run_with_policy_reports_policy_lines_and_none_is_baseline() {
        let plain = poisson_run("30", &[]).unwrap();
        assert!(!plain.contains("policy:"), "{plain}");

        // `--policy none` is the baseline: byte-identical to no flag.
        let none = poisson_run("30", &["--policy", "none"]).unwrap();
        assert_eq!(plain, none, "--policy none must not change the run");

        let tied = poisson_run("30", &["--policy", "tied-2"]).unwrap();
        assert!(tied.contains("policy: 32 logical requests, 32 extra launches"), "{tied}");
        assert!(tied.contains("wasted work:"), "{tied}");

        // Unknown preset that is not a file errors cleanly.
        assert!(poisson_run("30", &["--policy", "no-such-policy"]).is_err());
    }

    /// `sweep --providers aws-like --seeds 2 --samples <samples>` plus
    /// `extra`, at 1 and at 4 worker threads.
    fn sweep_both_ways(samples: &str, extra: &[&str]) -> (String, String) {
        let base = ["sweep", "--providers", "aws-like", "--seeds", "2", "--samples", samples];
        let run = |threads| cli(&[&base[..], extra, &["--threads", threads]].concat()).unwrap();
        (run("1"), run("4"))
    }

    #[test]
    fn sweep_policy_axis_is_byte_identical_across_threads() {
        let (serial, threaded) = sweep_both_ways("25", &["--policy", "none,tied-2"]);
        assert_eq!(serial, threaded, "policy sweep must not depend on worker count");
        assert!(serial.contains("1 providers x 2 policies x 2 seeds = 4 cells (4 ok, 0 failed)"));
        assert!(serial.contains("p999_ms,hedge_rate,wasted_fraction"), "{serial}");
        assert!(serial.contains("aws-like+none"), "{serial}");
        assert!(serial.contains("aws-like+tied-2"), "{serial}");

        // Policies compose with the workload axis.
        let (both, _) =
            sweep_both_ways("25", &["--policy", "none,tied-2", "--workload", "poisson"]);
        assert!(both.contains("1 providers x 1 workloads x 2 policies x 2 seeds"), "{both}");
        assert!(both.contains("aws-like/poisson+tied-2"), "{both}");
    }

    #[test]
    fn run_with_faults_reports_fault_lines_and_none_is_baseline() {
        let plain = poisson_run("60", &[]).unwrap();
        assert!(!plain.contains("faults:"), "{plain}");

        // `--faults none` is the baseline: byte-identical to no flag.
        let none = poisson_run("60", &["--faults", "none"]).unwrap();
        assert_eq!(plain, none, "--faults none must not change the run");

        let throttled = poisson_run("60", &["--faults", "throttle-5pct"]).unwrap();
        assert!(throttled.contains("faults:"), "{throttled}");
        assert!(throttled.contains("degradation: availability"), "{throttled}");

        // Retrying policies report their amplification under faults.
        let retried =
            poisson_run("60", &["--faults", "throttle-5pct", "--policy", "retry-backoff"]).unwrap();
        assert!(retried.contains("retry amplification:"), "{retried}");

        // Unknown preset that is not a file errors cleanly.
        assert!(poisson_run("60", &["--faults", "no-such-fault-model"]).is_err());
    }

    #[test]
    fn sweep_faults_axis_is_byte_identical_across_threads() {
        let (serial, threaded) = sweep_both_ways("25", &["--faults", "none,throttle-5pct"]);
        assert_eq!(serial, threaded, "fault sweep must not depend on worker count");
        assert!(
            serial.contains("1 providers x 2 fault models x 2 seeds = 4 cells (4 ok, 0 failed)"),
            "{serial}"
        );
        assert!(serial.contains("retry_amp,goodput"), "{serial}");
        assert!(serial.contains("aws-like~none"), "{serial}");
        assert!(serial.contains("aws-like~throttle-5pct"), "{serial}");

        // Faults compose with the policy axis: "{provider}+{policy}~{fault}".
        let (both, _) =
            sweep_both_ways("25", &["--faults", "none,throttle-5pct", "--policy", "tied-2"]);
        assert!(both.contains("1 providers x 1 policies x 2 fault models x 2 seeds"), "{both}");
        assert!(both.contains("aws-like+tied-2~throttle-5pct"), "{both}");
    }

    #[test]
    fn run_with_app_reports_stage_breakdown_and_none_is_baseline() {
        let plain = poisson_run("30", &[]).unwrap();
        assert!(!plain.contains("application"), "{plain}");

        // `--app none` is the baseline: byte-identical to no flag.
        let none = poisson_run("30", &["--app", "none"]).unwrap();
        assert_eq!(plain, none, "--app none must not change the run");

        let fan = poisson_run("30", &["--app", "scatter-gather"]).unwrap();
        assert!(fan.contains("application scatter-gather"), "{fan}");
        assert!(fan.contains("straggler amplification"), "{fan}");
        assert!(fan.contains("join gather:"), "{fan}");
        assert!(fan.contains("median_ms"), "{fan}");

        // Every preset resolves; an unknown name that is not a file errors.
        for name in appsuite::preset_names() {
            assert!(resolve_app(name).unwrap().is_some(), "{name} must resolve");
        }
        assert!(poisson_run("30", &["--app", "no-such-app"]).is_err());
    }

    #[test]
    fn sweep_app_axis_is_byte_identical_across_threads() {
        let (serial, threaded) = sweep_both_ways("20", &["--app", "none,thumbnail"]);
        assert_eq!(serial, threaded, "app sweep must not depend on worker count");
        assert!(
            serial.contains("1 providers x 2 apps x 2 seeds = 4 cells (4 ok, 0 failed)"),
            "{serial}"
        );
        assert!(serial.contains("join_amp"), "{serial}");
        assert!(serial.contains("aws-like@none"), "{serial}");
        assert!(serial.contains("aws-like@thumbnail"), "{serial}");

        // Apps compose with the workload axis: "{provider}@{app}/{workload}".
        let (both, _) =
            sweep_both_ways("20", &["--app", "none,thumbnail", "--workload", "poisson"]);
        assert!(both.contains("1 providers x 2 apps x 1 workloads x 2 seeds"), "{both}");
        assert!(both.contains("aws-like@thumbnail/poisson"), "{both}");
    }
}
