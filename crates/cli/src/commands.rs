//! Command execution.

use std::fmt;

use faas_sim::config::ProviderConfig;
use providers::paper::ProviderKind;
use providers::profiles::config_for;
use stats::sketch::QuantileMode;
use stats::svg::{SvgPlot, SvgSeries};
use stellar_core::breakdown::BreakdownAnalysis;
use stellar_core::client::MeasureSpec;
use stellar_core::config::{RuntimeConfig, StaticConfig};
use stellar_core::experiment::Experiment;
use stellar_core::runner::{Scenario, SweepGrid, SweepRunner};
use stellar_core::traceio;
use stellar_core::visualize::{export_cdf_csv, render_cdf, Series};

use crate::args::{Command, RunOptions, SweepOptions, TraceFormat, TraceOptions, USAGE};

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
        Command::Trace(opts) => trace(opts),
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

fn run(opts: &RunOptions) -> Result<String, CliError> {
    let static_cfg = match &opts.static_path {
        Some(path) => StaticConfig::from_json(&read(path)?).map_err(CliError::Config)?,
        None => {
            StaticConfig { functions: vec![stellar_core::config::StaticFunction::python_zip("fn")] }
        }
    };
    let mut runtime_cfg = match &opts.runtime_path {
        Some(path) => RuntimeConfig::from_json(&read(path)?).map_err(CliError::Config)?,
        None => {
            let mut cfg =
                RuntimeConfig::single(stellar_core::config::IatSpec::short(), opts.samples);
            cfg.warmup_rounds = opts.warmup;
            cfg
        }
    };
    if let Some(name) = &opts.workload {
        runtime_cfg.workload = Some(resolve_workload(name)?);
    }
    if let Some(name) = &opts.policy {
        runtime_cfg.policy = resolve_policy(name)?;
    }
    if let Some(name) = &opts.faults {
        runtime_cfg.faults = resolve_faults(name)?;
    }
    let app_spec = match &opts.app {
        Some(name) => resolve_app(name)?,
        None => None,
    };
    let provider = resolve_provider(&opts.provider)?;
    let provider_name = provider.name.clone();

    // The CDF, CSV and SVG figures all render from the streamed
    // aggregate; only the per-component breakdown still needs the raw
    // completion vectors, so sketch mode retains them just for it.
    let needs_samples = opts.breakdown;
    let measure = match opts.quantile_mode {
        QuantileMode::Exact => MeasureSpec::exact(),
        QuantileMode::Sketch => MeasureSpec::sketch().with_keep_samples(needs_samples),
    };
    let mut experiment = Experiment::new(provider)
        .functions(static_cfg)
        .workload(runtime_cfg)
        .seed(opts.seed)
        .measure(measure)
        .profile_events(opts.profile_events);
    if let Some(spec) = app_spec {
        experiment = experiment.app(spec);
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
    if opts.profile_events {
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
    Ok(out)
}

fn sweep(opts: &SweepOptions) -> Result<String, CliError> {
    let static_cfg = match &opts.static_path {
        Some(path) => Some(StaticConfig::from_json(&read(path)?).map_err(CliError::Config)?),
        None => None,
    };
    let runtime_cfg = match &opts.runtime_path {
        Some(path) => RuntimeConfig::from_json(&read(path)?).map_err(CliError::Config)?,
        None => RuntimeConfig::single(stellar_core::config::IatSpec::short(), opts.samples),
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
    let seeds: Vec<u64> = (opts.base_seed..opts.base_seed + opts.seeds).collect();
    // Each requested axis crosses the scenarios the previous ones
    // produced, apps innermost, so labels read
    // "{provider}@{app}/{workload}+{policy}~{fault}".
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
    let grid = SweepGrid::new(scenarios, seeds);
    let cells = grid.len();
    let measure = match opts.quantile_mode {
        QuantileMode::Exact => MeasureSpec::exact(),
        QuantileMode::Sketch => MeasureSpec::sketch(),
    };
    let report = SweepRunner::new(opts.threads)
        .measure(measure)
        .profile_events(opts.profile_events)
        .run(&grid);

    // The summary deliberately omits the worker count: the report must be
    // byte-identical however the sweep was parallelised.
    let mut axes = format!("{} providers", opts.providers.len());
    if !opts.apps.is_empty() {
        axes.push_str(&format!(" x {} apps", opts.apps.len()));
    }
    if !opts.workloads.is_empty() {
        axes.push_str(&format!(" x {} workloads", opts.workloads.len()));
    }
    if !opts.policies.is_empty() {
        axes.push_str(&format!(" x {} policies", opts.policies.len()));
    }
    if !opts.faults.is_empty() {
        axes.push_str(&format!(" x {} fault models", opts.faults.len()));
    }
    axes.push_str(&format!(" x {} seeds", opts.seeds));
    let mut out = format!(
        "sweep: {axes} = {} cells ({} ok, {} failed)\n",
        cells,
        report.ok_count(),
        report.failed_count(),
    );
    out.push_str(&format!(
        "requests: {} submitted, {} completed, {} cold starts\n",
        report.metrics.counter(faas_sim::cloud::metric::REQUESTS_SUBMITTED),
        report.metrics.counter(faas_sim::cloud::metric::REQUESTS_COMPLETED),
        report.metrics.counter(faas_sim::cloud::metric::COLD_STARTS),
    ));
    if opts.profile_events {
        out.push_str(&render_event_profile(&report.metrics));
    }
    // App sweeps get the app CSV (extended columns plus join_amp); policy
    // and fault sweeps get the extended CSV (policy outcome,
    // retry-amplification and goodput columns); plain sweeps keep today's
    // byte-identical base CSV.
    let csv = if !opts.apps.is_empty() {
        report.to_csv_app()
    } else if opts.policies.is_empty() && opts.faults.is_empty() {
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

fn trace(opts: &TraceOptions) -> Result<String, CliError> {
    let provider = resolve_provider(&opts.provider)?;
    let provider_name = provider.name.clone();
    let mut experiment = Experiment::new(provider).seed(opts.seed).trace(opts.capacity);
    if let Some(path) = &opts.static_path {
        experiment =
            experiment.functions(StaticConfig::from_json(&read(path)?).map_err(CliError::Config)?);
    }
    if let Some(path) = &opts.runtime_path {
        experiment =
            experiment.workload(RuntimeConfig::from_json(&read(path)?).map_err(CliError::Config)?);
    }
    let outcome = experiment.run().map_err(CliError::Experiment)?;
    let (label, export) = match opts.format {
        TraceFormat::Jsonl => ("jsonl", traceio::to_jsonl(&outcome.spans)),
        TraceFormat::Csv => ("csv", traceio::to_csv(&outcome.spans)),
    };
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &export).map_err(|e| CliError::Io(path.clone(), e))?;
            Ok(format!(
                "provider {provider_name}, seed {}: wrote {} spans to {path} \
                 ({label}, digest {:016x})\n",
                opts.seed,
                outcome.spans.len(),
                traceio::digest64(&export),
            ))
        }
        None => Ok(export),
    }
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
        let static_path = write_temp(
            "static.json",
            r#"{"functions": [{"name": "f", "runtime": "go", "deployment": "zip", "memory_mb": 2048}]}"#,
        );
        let runtime_path = write_temp(
            "runtime.json",
            r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 40, "warmup_rounds": 1}"#,
        );
        let csv_path = write_temp("out.csv", "");
        let svg_path = write_temp("out.svg", "");
        let opts = RunOptions {
            static_path: Some(static_path),
            runtime_path: Some(runtime_path),
            workload: None,
            policy: None,
            faults: None,
            app: None,
            samples: 100,
            warmup: 0,
            provider: "google-like".into(),
            seed: 3,
            breakdown: true,
            cdf: true,
            csv: Some(csv_path.clone()),
            svg: Some(svg_path.clone()),
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let out = execute(&Command::Run(opts)).unwrap();
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
        let static_path = write_temp(
            "sketch-static.json",
            r#"{"functions": [{"name": "f", "runtime": "go", "deployment": "zip", "memory_mb": 2048}]}"#,
        );
        let runtime_path = write_temp(
            "sketch-runtime.json",
            r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 40, "warmup_rounds": 1}"#,
        );
        let opts = RunOptions {
            static_path: Some(static_path),
            runtime_path: Some(runtime_path),
            workload: None,
            policy: None,
            faults: None,
            app: None,
            samples: 100,
            warmup: 0,
            provider: "aws-like".into(),
            seed: 3,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Sketch,
            profile_events: false,
        };
        let out = execute(&Command::Run(opts.clone())).unwrap();
        assert!(out.contains("provider aws-like"), "{out}");
        assert!(out.contains("median"), "{out}");
        assert!(out.contains("cold-start fraction"), "{out}");

        // The CDF renders straight from the streamed aggregate — no
        // sample retention needed even in sketch mode.
        let with_cdf = execute(&Command::Run(RunOptions { cdf: true, ..opts })).unwrap();
        assert!(with_cdf.contains("end-to-end latency"), "{with_cdf}");
    }

    #[test]
    fn run_profile_events_prints_cost_table_without_changing_results() {
        let base = RunOptions {
            static_path: None,
            runtime_path: None,
            workload: Some("poisson".into()),
            policy: None,
            faults: None,
            app: None,
            samples: 40,
            warmup: 2,
            provider: "aws-like".into(),
            seed: 9,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let plain = execute(&Command::Run(base.clone())).unwrap();
        assert!(!plain.contains("per-event cost"), "{plain}");

        let profiled = execute(&Command::Run(RunOptions { profile_events: true, ..base })).unwrap();
        assert!(profiled.contains("per-event cost"), "{profiled}");
        assert!(profiled.contains("profile coverage:"), "{profiled}");
        assert!(profiled.contains("frontend_arrive"), "{profiled}");
        // Profiling observes; every result line must be unchanged.
        assert!(profiled.starts_with(&plain), "profiling must only append:\n{profiled}");

        // The sweep path aggregates the same counters across cells.
        let sweep = execute(&Command::Sweep(SweepOptions {
            static_path: None,
            runtime_path: None,
            providers: vec!["aws-like".into()],
            seeds: 2,
            base_seed: 0,
            samples: 20,
            workloads: vec![],
            policies: vec![],
            faults: vec![],
            apps: vec![],
            threads: 1,
            out: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: true,
        }))
        .unwrap();
        assert!(sweep.contains("per-event cost"), "{sweep}");
        assert!(sweep.contains("profile coverage:"), "{sweep}");
    }

    #[test]
    fn trace_exports_jsonl_and_csv() {
        let base = TraceOptions {
            static_path: None,
            runtime_path: Some(write_temp(
                "trace-runtime.json",
                r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 10, "warmup_rounds": 1}"#,
            )),
            provider: "aws-like".into(),
            seed: 7,
            format: TraceFormat::Jsonl,
            out: None,
            capacity: 4096,
        };
        let jsonl = execute(&Command::Trace(base.clone())).unwrap();
        assert!(jsonl.lines().count() > 10, "one span per line");
        assert!(jsonl.lines().all(|l| l.starts_with("{\"span_id\":")));
        assert!(jsonl.contains("\"component\":\"request\""));
        assert!(jsonl.contains("\"component\":\"execution\""));

        let out_path = write_temp("trace-out.csv", "");
        let opts = TraceOptions { format: TraceFormat::Csv, out: Some(out_path.clone()), ..base };
        let msg = execute(&Command::Trace(opts)).unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        assert!(msg.contains("digest"));
        let csv = std::fs::read_to_string(out_path).unwrap();
        assert!(csv.starts_with("span_id,parent,request,component,start_ns,end_ns"));
    }

    #[test]
    fn sweep_output_is_byte_identical_across_thread_counts() {
        // 3 providers x 4 seeds = 12 cells; the merged report (summary +
        // CSV) must not depend on how many workers executed the grid.
        let base = SweepOptions {
            static_path: None,
            runtime_path: None,
            providers: vec!["aws-like".into(), "google-like".into(), "azure-like".into()],
            seeds: 4,
            base_seed: 0,
            samples: 40,
            workloads: vec![],
            policies: vec![],
            faults: vec![],
            apps: vec![],
            threads: 1,
            out: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let serial = execute(&Command::Sweep(base.clone())).unwrap();
        let threaded =
            execute(&Command::Sweep(SweepOptions { threads: 4, ..base.clone() })).unwrap();
        assert_eq!(serial, threaded, "sweep output must not depend on worker count");
        assert!(serial.contains("3 providers x 4 seeds = 12 cells (12 ok, 0 failed)"));
        assert!(serial.contains("cell,scenario,seed,status"));
        assert!(serial.contains("0,aws-like,0,ok,40,"));
        assert!(serial.contains("11,azure-like,3,ok,40,"));

        // Sketch mode streams through aggregates; below the exact-mode
        // threshold its quantiles (and therefore the CSV) match exactly.
        let sketch =
            execute(&Command::Sweep(SweepOptions { quantile_mode: QuantileMode::Sketch, ..base }))
                .unwrap();
        assert_eq!(serial, sketch, "small sketch-mode sweeps stay exact");
    }

    #[test]
    fn sweep_writes_csv_report_to_file() {
        let out_path = write_temp("sweep-report.csv", "");
        let opts = SweepOptions {
            static_path: None,
            runtime_path: Some(write_temp(
                "sweep-runtime.json",
                r#"{"iat": {"kind": "fixed", "ms": 1000.0}, "samples": 10, "warmup_rounds": 1}"#,
            )),
            providers: vec!["aws-like".into()],
            seeds: 2,
            base_seed: 5,
            samples: 100,
            workloads: vec![],
            policies: vec![],
            faults: vec![],
            apps: vec![],
            threads: 0,
            out: Some(out_path.clone()),
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let msg = execute(&Command::Sweep(opts)).unwrap();
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
        let opts = RunOptions {
            static_path: Some(static_path),
            runtime_path: Some(runtime_path),
            workload: None,
            policy: None,
            faults: None,
            app: None,
            samples: 100,
            warmup: 0,
            provider: "aws-like".into(),
            seed: 0,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let err = execute(&Command::Run(opts)).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err}");
    }

    #[test]
    fn missing_files_error() {
        let opts = RunOptions {
            static_path: Some("/nonexistent/s.json".into()),
            runtime_path: Some("/nonexistent/r.json".into()),
            workload: None,
            policy: None,
            faults: None,
            app: None,
            samples: 100,
            warmup: 0,
            provider: "aws-like".into(),
            seed: 0,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        assert!(matches!(execute(&Command::Run(opts)).unwrap_err(), CliError::Io(..)));
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
        let opts = RunOptions {
            static_path: None,
            runtime_path: None,
            workload: Some("mmpp-burst".into()),
            policy: None,
            faults: None,
            app: None,
            samples: 60,
            warmup: 5,
            provider: "aws-like".into(),
            seed: 11,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let out = execute(&Command::Run(opts)).unwrap();
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
        let opts = RunOptions {
            static_path: None,
            runtime_path: None,
            workload: Some(spec_path),
            policy: None,
            faults: None,
            app: None,
            samples: 30,
            warmup: 0,
            provider: "aws-like".into(),
            seed: 2,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let out = execute(&Command::Run(opts)).unwrap();
        assert!(out.contains("offered load: 30 arrivals"), "{out}");
        assert!(execute(&Command::Run(RunOptions {
            workload: Some("no-such-preset-or-file".into()),
            static_path: None,
            runtime_path: None,
            policy: None,
            faults: None,
            app: None,
            samples: 10,
            warmup: 0,
            provider: "aws-like".into(),
            seed: 0,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        }))
        .is_err());
    }

    #[test]
    fn sweep_workload_axis_is_byte_identical_across_threads() {
        let base = SweepOptions {
            static_path: None,
            runtime_path: None,
            providers: vec!["aws-like".into(), "azure-like".into()],
            seeds: 2,
            base_seed: 0,
            samples: 25,
            workloads: vec!["poisson".into(), "mmpp-burst".into()],
            policies: vec![],
            faults: vec![],
            apps: vec![],
            threads: 1,
            out: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let serial = execute(&Command::Sweep(base.clone())).unwrap();
        let threaded =
            execute(&Command::Sweep(SweepOptions { threads: 4, ..base.clone() })).unwrap();
        assert_eq!(serial, threaded, "workload sweep must not depend on worker count");
        assert!(serial.contains("2 providers x 2 workloads x 2 seeds = 8 cells (8 ok, 0 failed)"));
        assert!(serial.contains("aws-like/mmpp-burst"), "{serial}");
        assert!(serial.contains("azure-like/poisson"), "{serial}");
    }

    #[test]
    fn run_with_policy_reports_policy_lines_and_none_is_baseline() {
        let base = RunOptions {
            static_path: None,
            runtime_path: None,
            workload: Some("poisson".into()),
            policy: None,
            faults: None,
            app: None,
            samples: 30,
            warmup: 2,
            provider: "aws-like".into(),
            seed: 5,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let plain = execute(&Command::Run(base.clone())).unwrap();
        assert!(!plain.contains("policy:"), "{plain}");

        // `--policy none` is the baseline: byte-identical to no flag.
        let none =
            execute(&Command::Run(RunOptions { policy: Some("none".into()), ..base.clone() }))
                .unwrap();
        assert_eq!(plain, none, "--policy none must not change the run");

        let tied =
            execute(&Command::Run(RunOptions { policy: Some("tied-2".into()), ..base.clone() }))
                .unwrap();
        assert!(tied.contains("policy: 32 logical requests, 32 extra launches"), "{tied}");
        assert!(tied.contains("wasted work:"), "{tied}");

        // Unknown preset that is not a file errors cleanly.
        assert!(execute(&Command::Run(RunOptions {
            policy: Some("no-such-policy".into()),
            ..base
        }))
        .is_err());
    }

    #[test]
    fn sweep_policy_axis_is_byte_identical_across_threads() {
        let base = SweepOptions {
            static_path: None,
            runtime_path: None,
            providers: vec!["aws-like".into()],
            seeds: 2,
            base_seed: 0,
            samples: 25,
            workloads: vec![],
            policies: vec!["none".into(), "tied-2".into()],
            faults: vec![],
            apps: vec![],
            threads: 1,
            out: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let serial = execute(&Command::Sweep(base.clone())).unwrap();
        let threaded =
            execute(&Command::Sweep(SweepOptions { threads: 4, ..base.clone() })).unwrap();
        assert_eq!(serial, threaded, "policy sweep must not depend on worker count");
        assert!(serial.contains("1 providers x 2 policies x 2 seeds = 4 cells (4 ok, 0 failed)"));
        assert!(serial.contains("p999_ms,hedge_rate,wasted_fraction"), "{serial}");
        assert!(serial.contains("aws-like+none"), "{serial}");
        assert!(serial.contains("aws-like+tied-2"), "{serial}");

        // Policies compose with the workload axis.
        let both =
            execute(&Command::Sweep(SweepOptions { workloads: vec!["poisson".into()], ..base }))
                .unwrap();
        assert!(both.contains("1 providers x 1 workloads x 2 policies x 2 seeds"), "{both}");
        assert!(both.contains("aws-like/poisson+tied-2"), "{both}");
    }

    #[test]
    fn run_with_faults_reports_fault_lines_and_none_is_baseline() {
        let base = RunOptions {
            static_path: None,
            runtime_path: None,
            workload: Some("poisson".into()),
            policy: None,
            faults: None,
            app: None,
            samples: 60,
            warmup: 2,
            provider: "aws-like".into(),
            seed: 5,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let plain = execute(&Command::Run(base.clone())).unwrap();
        assert!(!plain.contains("faults:"), "{plain}");

        // `--faults none` is the baseline: byte-identical to no flag.
        let none =
            execute(&Command::Run(RunOptions { faults: Some("none".into()), ..base.clone() }))
                .unwrap();
        assert_eq!(plain, none, "--faults none must not change the run");

        let throttled = execute(&Command::Run(RunOptions {
            faults: Some("throttle-5pct".into()),
            ..base.clone()
        }))
        .unwrap();
        assert!(throttled.contains("faults:"), "{throttled}");
        assert!(throttled.contains("degradation: availability"), "{throttled}");

        // Retrying policies report their amplification under faults.
        let retried = execute(&Command::Run(RunOptions {
            faults: Some("throttle-5pct".into()),
            policy: Some("retry-backoff".into()),
            ..base.clone()
        }))
        .unwrap();
        assert!(retried.contains("retry amplification:"), "{retried}");

        // Unknown preset that is not a file errors cleanly.
        assert!(execute(&Command::Run(RunOptions {
            faults: Some("no-such-fault-model".into()),
            ..base
        }))
        .is_err());
    }

    #[test]
    fn sweep_faults_axis_is_byte_identical_across_threads() {
        let base = SweepOptions {
            static_path: None,
            runtime_path: None,
            providers: vec!["aws-like".into()],
            seeds: 2,
            base_seed: 0,
            samples: 25,
            workloads: vec![],
            policies: vec![],
            faults: vec!["none".into(), "throttle-5pct".into()],
            apps: vec![],
            threads: 1,
            out: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let serial = execute(&Command::Sweep(base.clone())).unwrap();
        let threaded =
            execute(&Command::Sweep(SweepOptions { threads: 4, ..base.clone() })).unwrap();
        assert_eq!(serial, threaded, "fault sweep must not depend on worker count");
        assert!(
            serial.contains("1 providers x 2 fault models x 2 seeds = 4 cells (4 ok, 0 failed)"),
            "{serial}"
        );
        assert!(serial.contains("retry_amp,goodput"), "{serial}");
        assert!(serial.contains("aws-like~none"), "{serial}");
        assert!(serial.contains("aws-like~throttle-5pct"), "{serial}");

        // Faults compose with the policy axis: "{provider}+{policy}~{fault}".
        let both =
            execute(&Command::Sweep(SweepOptions { policies: vec!["tied-2".into()], ..base }))
                .unwrap();
        assert!(both.contains("1 providers x 1 policies x 2 fault models x 2 seeds"), "{both}");
        assert!(both.contains("aws-like+tied-2~throttle-5pct"), "{both}");
    }

    #[test]
    fn run_with_app_reports_stage_breakdown_and_none_is_baseline() {
        let base = RunOptions {
            static_path: None,
            runtime_path: None,
            workload: Some("poisson".into()),
            policy: None,
            faults: None,
            app: None,
            samples: 30,
            warmup: 2,
            provider: "aws-like".into(),
            seed: 5,
            breakdown: false,
            cdf: false,
            csv: None,
            svg: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let plain = execute(&Command::Run(base.clone())).unwrap();
        assert!(!plain.contains("application"), "{plain}");

        // `--app none` is the baseline: byte-identical to no flag.
        let none = execute(&Command::Run(RunOptions { app: Some("none".into()), ..base.clone() }))
            .unwrap();
        assert_eq!(plain, none, "--app none must not change the run");

        let fan = execute(&Command::Run(RunOptions {
            app: Some("scatter-gather".into()),
            ..base.clone()
        }))
        .unwrap();
        assert!(fan.contains("application scatter-gather"), "{fan}");
        assert!(fan.contains("straggler amplification"), "{fan}");
        assert!(fan.contains("join gather:"), "{fan}");
        assert!(fan.contains("median_ms"), "{fan}");

        // Every preset resolves; an unknown name that is not a file errors.
        for name in appsuite::preset_names() {
            assert!(resolve_app(name).unwrap().is_some(), "{name} must resolve");
        }
        assert!(
            execute(&Command::Run(RunOptions { app: Some("no-such-app".into()), ..base })).is_err()
        );
    }

    #[test]
    fn sweep_app_axis_is_byte_identical_across_threads() {
        let base = SweepOptions {
            static_path: None,
            runtime_path: None,
            providers: vec!["aws-like".into()],
            seeds: 2,
            base_seed: 0,
            samples: 20,
            workloads: vec![],
            policies: vec![],
            faults: vec![],
            apps: vec!["none".into(), "thumbnail".into()],
            threads: 1,
            out: None,
            quantile_mode: QuantileMode::Exact,
            profile_events: false,
        };
        let serial = execute(&Command::Sweep(base.clone())).unwrap();
        let threaded =
            execute(&Command::Sweep(SweepOptions { threads: 4, ..base.clone() })).unwrap();
        assert_eq!(serial, threaded, "app sweep must not depend on worker count");
        assert!(
            serial.contains("1 providers x 2 apps x 2 seeds = 4 cells (4 ok, 0 failed)"),
            "{serial}"
        );
        assert!(serial.contains("join_amp"), "{serial}");
        assert!(serial.contains("aws-like@none"), "{serial}");
        assert!(serial.contains("aws-like@thumbnail"), "{serial}");

        // Apps compose with the workload axis: "{provider}@{app}/{workload}".
        let both =
            execute(&Command::Sweep(SweepOptions { workloads: vec!["poisson".into()], ..base }))
                .unwrap();
        assert!(both.contains("1 providers x 2 apps x 1 workloads x 2 seeds"), "{both}");
        assert!(both.contains("aws-like@thumbnail/poisson"), "{both}");
    }
}
