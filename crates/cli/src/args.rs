//! Command-line argument parsing (dependency-free).

use stats::sketch::QuantileMode;

/// Options of `stellar run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Path to the static function configuration JSON (default single
    /// function when omitted; requires `--workload`).
    pub static_path: Option<String>,
    /// Path to the runtime (client) configuration JSON (defaults derived
    /// from `--samples`/`--warmup` when omitted; requires `--workload`).
    pub runtime_path: Option<String>,
    /// Workload model: a preset name (`mmpp-burst`, `trace-replay`, …) or
    /// a path to a workload-spec JSON. Supersedes the runtime config's
    /// IAT.
    pub workload: Option<String>,
    /// Tail-tolerance policy: a preset name (`hedge-p95`, `tied-2`, …),
    /// a path to a policy-spec JSON, or `none` for the unmodified
    /// baseline.
    pub policy: Option<String>,
    /// Fault model: a preset name (`throttle-5pct`, `outage-10s`, …), a
    /// path to a fault-spec JSON, or `none` for the fault-free baseline.
    pub faults: Option<String>,
    /// Application workflow: a preset name (`web-api`, `thumbnail`,
    /// `video`, …), a path to a DAG-spec JSON, or `none` for the legacy
    /// single-function baseline. Replaces the static function set with
    /// the workflow's DAG.
    pub app: Option<String>,
    /// Measured samples when `--runtime` is omitted.
    pub samples: u32,
    /// Warm-up arrivals when `--runtime` is omitted.
    pub warmup: u32,
    /// Provider: a built-in name (`aws-like`, `google-like`,
    /// `azure-like`) or a path to a provider-config JSON.
    pub provider: String,
    /// Deterministic seed.
    pub seed: u64,
    /// Print the per-component breakdown table.
    pub breakdown: bool,
    /// Print an ASCII CDF.
    pub cdf: bool,
    /// Write quantile CSV to this path.
    pub csv: Option<String>,
    /// Write an SVG CDF to this path.
    pub svg: Option<String>,
    /// Quantile machinery: exact sorting or streaming sketches.
    pub quantile_mode: QuantileMode,
    /// Time every event dispatch and print a per-event-class cost table
    /// (observational: results are bit-identical with or without it).
    pub profile_events: bool,
}

/// Export format of `stellar trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per span per line.
    Jsonl,
    /// CSV with a header row.
    Csv,
}

/// Options of `stellar trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// Path to the static function configuration JSON (default workload
    /// when omitted).
    pub static_path: Option<String>,
    /// Path to the runtime (client) configuration JSON (default workload
    /// when omitted).
    pub runtime_path: Option<String>,
    /// Provider: built-in name or provider-config JSON path.
    pub provider: String,
    /// Deterministic seed.
    pub seed: u64,
    /// Export format.
    pub format: TraceFormat,
    /// Output file; stdout when omitted.
    pub out: Option<String>,
    /// Trace ring capacity (oldest spans dropped beyond it).
    pub capacity: usize,
}

/// Options of `stellar sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Path to the static function configuration JSON (default workload
    /// when omitted).
    pub static_path: Option<String>,
    /// Path to the runtime (client) configuration JSON (default workload
    /// when omitted).
    pub runtime_path: Option<String>,
    /// Providers to sweep: built-in names or provider-config JSON paths.
    pub providers: Vec<String>,
    /// Number of seeds per provider.
    pub seeds: u64,
    /// First seed; the sweep uses `base_seed..base_seed + seeds`.
    pub base_seed: u64,
    /// Samples per cell when `--runtime` is omitted.
    pub samples: u32,
    /// Workload models to sweep as an extra grid axis: preset names or
    /// workload-spec JSON paths. Empty = no workload axis (cells run the
    /// runtime config as given).
    pub workloads: Vec<String>,
    /// Tail-tolerance policies swept as an extra grid axis: preset
    /// names, policy-spec JSON paths, or `none` for the baseline. Empty
    /// = no policy axis (and byte-identical legacy output).
    pub policies: Vec<String>,
    /// Fault models swept as an extra grid axis: preset names, fault-spec
    /// JSON paths, or `none` for the fault-free baseline. Empty = no
    /// fault axis (and byte-identical legacy output).
    pub faults: Vec<String>,
    /// Application workflows swept as an extra grid axis: preset names,
    /// DAG-spec JSON paths, or `none` for the single-function baseline.
    /// Empty = no app axis (and byte-identical legacy output).
    pub apps: Vec<String>,
    /// Worker threads; 0 selects the machine's parallelism.
    pub threads: usize,
    /// Write the CSV report here instead of stdout.
    pub out: Option<String>,
    /// Quantile machinery: exact sorting or streaming sketches.
    pub quantile_mode: QuantileMode,
    /// Time every event dispatch and print a per-event-class cost table
    /// aggregated over all cells (observational; results are identical).
    pub profile_events: bool,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `stellar run …`
    Run(RunOptions),
    /// `stellar sweep …`
    Sweep(SweepOptions),
    /// `stellar trace …`
    Trace(TraceOptions),
    /// `stellar providers`
    Providers,
    /// `stellar dump-provider <name>`
    DumpProvider(String),
    /// `stellar sample-config`
    SampleConfig,
    /// `stellar help` / no args / `--help`.
    Help,
}

fn parse_quantile_mode(s: &str) -> Result<QuantileMode, String> {
    QuantileMode::parse(s)
        .ok_or_else(|| format!("--quantile-mode must be exact or sketch, got {s}"))
}

/// Splits a comma-separated list flag value, dropping empty entries; a
/// list left empty is an error naming `flag` and the `what` it needs.
fn comma_list(raw: &str, flag: &str, what: &str) -> Result<Vec<String>, String> {
    let list: Vec<String> = raw.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
    if list.is_empty() {
        return Err(format!("{flag} needs at least one {what}"));
    }
    Ok(list)
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a usage-style message for unknown commands, unknown flags or
/// missing flag values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "providers" => Ok(Command::Providers),
        "sample-config" => Ok(Command::SampleConfig),
        "dump-provider" => {
            let name = it.next().ok_or("dump-provider needs a profile name")?;
            Ok(Command::DumpProvider(name.clone()))
        }
        "run" => {
            let mut static_path = None;
            let mut runtime_path = None;
            let mut workload = None;
            let mut policy = None;
            let mut faults = None;
            let mut app = None;
            let mut samples = 100u32;
            let mut warmup = 0u32;
            let mut provider = "aws-like".to_string();
            let mut seed = 0u64;
            let mut breakdown = false;
            let mut cdf = false;
            let mut csv = None;
            let mut svg = None;
            let mut quantile_mode = QuantileMode::default();
            let mut profile_events = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--static" => static_path = Some(value("--static")?),
                    "--runtime" => runtime_path = Some(value("--runtime")?),
                    "--workload" => workload = Some(value("--workload")?),
                    "--policy" => policy = Some(value("--policy")?),
                    "--faults" => faults = Some(value("--faults")?),
                    "--app" => app = Some(value("--app")?),
                    "--samples" => {
                        samples =
                            value("--samples")?.parse().map_err(|e| format!("--samples: {e}"))?;
                        if samples == 0 {
                            return Err("--samples must be positive".to_string());
                        }
                    }
                    "--warmup" => {
                        warmup =
                            value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
                    }
                    "--provider" => provider = value("--provider")?,
                    "--seed" => {
                        seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                    }
                    "--breakdown" => breakdown = true,
                    "--cdf" => cdf = true,
                    "--csv" => csv = Some(value("--csv")?),
                    "--svg" => svg = Some(value("--svg")?),
                    "--quantile-mode" => {
                        quantile_mode = parse_quantile_mode(&value("--quantile-mode")?)?;
                    }
                    "--profile-events" => profile_events = true,
                    other => return Err(format!("unknown flag: {other}")),
                }
            }
            if workload.is_none()
                && app.is_none()
                && (static_path.is_none() || runtime_path.is_none())
            {
                return Err(
                    "run needs --static <file> and --runtime <file>, or --workload <file|preset>, \
                     or --app <file|preset>"
                        .to_string(),
                );
            }
            Ok(Command::Run(RunOptions {
                static_path,
                runtime_path,
                workload,
                policy,
                faults,
                app,
                samples,
                warmup,
                provider,
                seed,
                breakdown,
                cdf,
                csv,
                svg,
                quantile_mode,
                profile_events,
            }))
        }
        "sweep" => {
            let mut static_path = None;
            let mut runtime_path = None;
            let mut providers =
                vec!["aws-like".to_string(), "google-like".to_string(), "azure-like".to_string()];
            let mut seeds = 4u64;
            let mut base_seed = 0u64;
            let mut samples = 100u32;
            let mut workloads: Vec<String> = Vec::new();
            let mut policies: Vec<String> = Vec::new();
            let mut faults: Vec<String> = Vec::new();
            let mut apps: Vec<String> = Vec::new();
            let mut threads = 0usize;
            let mut out = None;
            let mut quantile_mode = QuantileMode::default();
            let mut profile_events = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--static" => static_path = Some(value("--static")?),
                    "--runtime" => runtime_path = Some(value("--runtime")?),
                    "--providers" => {
                        providers = comma_list(&value("--providers")?, "--providers", "name")?
                    }
                    "--seeds" => {
                        seeds = value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?;
                        if seeds == 0 {
                            return Err("--seeds must be positive".to_string());
                        }
                    }
                    "--base-seed" => {
                        base_seed = value("--base-seed")?
                            .parse()
                            .map_err(|e| format!("--base-seed: {e}"))?;
                    }
                    "--samples" => {
                        samples =
                            value("--samples")?.parse().map_err(|e| format!("--samples: {e}"))?;
                        if samples == 0 {
                            return Err("--samples must be positive".to_string());
                        }
                    }
                    "--threads" => {
                        threads =
                            value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                    }
                    "--workload" | "--workloads" => {
                        workloads = comma_list(&value("--workload")?, "--workload", "name or file")?
                    }
                    "--policy" | "--policies" => {
                        policies = comma_list(&value("--policy")?, "--policy", "name or file")?
                    }
                    "--faults" => {
                        faults = comma_list(&value("--faults")?, "--faults", "name or file")?
                    }
                    "--app" | "--apps" => {
                        apps = comma_list(&value("--app")?, "--app", "name or file")?
                    }
                    "--out" => out = Some(value("--out")?),
                    "--quantile-mode" => {
                        quantile_mode = parse_quantile_mode(&value("--quantile-mode")?)?;
                    }
                    "--profile-events" => profile_events = true,
                    other => return Err(format!("unknown flag: {other}")),
                }
            }
            // The sweep runs seeds `base_seed..base_seed + seeds`.
            if base_seed.checked_add(seeds).is_none() {
                return Err(format!(
                    "--base-seed {base_seed} plus --seeds {seeds} overflows the seed range \
                     (their sum must be at most {})",
                    u64::MAX
                ));
            }
            Ok(Command::Sweep(SweepOptions {
                static_path,
                runtime_path,
                providers,
                seeds,
                base_seed,
                samples,
                workloads,
                policies,
                faults,
                apps,
                threads,
                out,
                quantile_mode,
                profile_events,
            }))
        }
        "trace" => {
            let mut static_path = None;
            let mut runtime_path = None;
            let mut provider = "aws-like".to_string();
            let mut seed = 0u64;
            let mut format = TraceFormat::Jsonl;
            let mut out = None;
            let mut capacity = 1 << 20;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--static" => static_path = Some(value("--static")?),
                    "--runtime" => runtime_path = Some(value("--runtime")?),
                    "--provider" => provider = value("--provider")?,
                    "--seed" => {
                        seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                    }
                    "--format" => {
                        format = match value("--format")?.as_str() {
                            "jsonl" => TraceFormat::Jsonl,
                            "csv" => TraceFormat::Csv,
                            other => {
                                return Err(format!("--format must be jsonl or csv, got {other}"))
                            }
                        };
                    }
                    "--out" => out = Some(value("--out")?),
                    "--capacity" => {
                        capacity =
                            value("--capacity")?.parse().map_err(|e| format!("--capacity: {e}"))?;
                        if capacity == 0 {
                            return Err("--capacity must be positive".to_string());
                        }
                    }
                    other => return Err(format!("unknown flag: {other}")),
                }
            }
            Ok(Command::Trace(TraceOptions {
                static_path,
                runtime_path,
                provider,
                seed,
                format,
                out,
                capacity,
            }))
        }
        other => Err(format!("unknown command: {other} (try `stellar help`)")),
    }
}

/// The help text.
pub const USAGE: &str = "\
STeLLAR — Serverless Tail-Latency Analyzer (simulation-backed reproduction)

USAGE:
    stellar run --static <fns.json> --runtime <load.json> [OPTIONS]
    stellar run --workload <preset|file> [OPTIONS]
    stellar sweep [OPTIONS]
    stellar trace [OPTIONS]
    stellar providers
    stellar dump-provider <aws-like|google-like|azure-like>
    stellar sample-config
    stellar help

RUN OPTIONS:
    --workload <name|file>   workload model: a preset (poisson, mmpp-burst,
                             diurnal, trace-replay, closed-loop,
                             multi-tenant) or a workload-spec JSON;
                             supersedes the runtime config's IAT and makes
                             --static/--runtime optional
    --policy <name|file>     tail-tolerance policy: a preset (hedge-p95,
                             hedge-p99, hedge-200ms, retry-backoff,
                             deadline-2s, tied-2, hedge-deadline), a
                             policy-spec JSON, or none (baseline)
    --faults <name|file>     fault model: a preset (throttle-5pct,
                             crash-2pct, purge-storm, outage-10s,
                             brownout-2x, shed-64, outage-throttle), a
                             fault-spec JSON, or none (fault-free)
    --app <name|file>        application workflow: a preset (web-api,
                             thumbnail, ml-inference, video, map-reduce,
                             scatter-gather), a DAG-spec JSON, or none
                             (single-function baseline); replaces the
                             static function set, makes --static/--runtime
                             optional, and prints a per-stage breakdown
                             with join straggler amplification
    --samples <n>            measured arrivals without --runtime
                             [default: 100]
    --warmup <n>             warm-up arrivals without --runtime [default: 0]
    --provider <name|file>   built-in profile or provider-config JSON
                             [default: aws-like]
    --seed <n>               deterministic seed [default: 0]
    --breakdown              print per-component latency attribution
    --cdf                    print an ASCII CDF of end-to-end latency
    --csv <file>             write quantile CSV
    --svg <file>             write an SVG CDF plot
    --quantile-mode <mode>   exact (sort all samples) or sketch (stream
                             through t-digests; constant memory)
                             [default: exact]
    --profile-events         time every event dispatch and print a
                             per-event-class cost table (observational:
                             results are bit-identical)

SWEEP OPTIONS:
    --static <file>          static function config [default: one function]
    --runtime <file>         runtime config [default: --samples invocations]
    --providers <a,b,c>      comma-separated profiles or config paths
                             [default: aws-like,google-like,azure-like]
    --seeds <n>              seeds per provider [default: 4]
    --base-seed <n>          first seed [default: 0]
    --samples <n>            samples per cell without --runtime [default: 100]
    --workload <a,b,c>       workload models swept as an extra grid axis:
                             comma-separated presets or spec JSON paths
    --policy <a,b,c>         tail-tolerance policies swept as an extra grid
                             axis: comma-separated presets, spec JSON paths
                             or none; adds policy columns to the CSV
    --faults <a,b,c>         fault models swept as an extra grid axis:
                             comma-separated presets, spec JSON paths or
                             none; adds retry_amp/goodput columns to the CSV
    --app <a,b,c>            application workflows swept as an extra grid
                             axis: comma-separated presets, DAG-spec JSON
                             paths or none; adds a join_amp column to the
                             CSV (labels: provider@app)
    --threads <n>            worker threads, 0 = all cores [default: 0]
    --out <file>             write the CSV report here instead of stdout
    --quantile-mode <mode>   exact or sketch; sketch keeps million-sample
                             sweeps in constant memory [default: exact]
    --profile-events         per-event-class cost table aggregated over
                             all cells (observational)

TRACE OPTIONS:
    --static <file>          static function config [default: one function]
    --runtime <file>         runtime config [default: 100 invocations]
    --provider <name|file>   as for run [default: aws-like]
    --seed <n>               deterministic seed [default: 0]
    --format <jsonl|csv>     export format [default: jsonl]
    --out <file>             write the export here instead of stdout
    --capacity <n>           span ring capacity [default: 1048576]
";

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_all_flags() {
        let cmd = parse_args(&strs(&[
            "run",
            "--static",
            "s.json",
            "--runtime",
            "r.json",
            "--provider",
            "google-like",
            "--seed",
            "9",
            "--breakdown",
            "--cdf",
            "--csv",
            "out.csv",
            "--svg",
            "out.svg",
            "--quantile-mode",
            "sketch",
            "--profile-events",
        ]))
        .unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.static_path.as_deref(), Some("s.json"));
        assert_eq!(opts.runtime_path.as_deref(), Some("r.json"));
        assert_eq!(opts.workload, None);
        assert_eq!(opts.policy, None);
        assert_eq!(opts.provider, "google-like");
        assert_eq!(opts.seed, 9);
        assert!(opts.breakdown && opts.cdf);
        assert_eq!(opts.csv.as_deref(), Some("out.csv"));
        assert_eq!(opts.svg.as_deref(), Some("out.svg"));
        assert_eq!(opts.quantile_mode, QuantileMode::Sketch);
        assert!(opts.profile_events);
    }

    #[test]
    fn run_defaults() {
        let cmd = parse_args(&strs(&["run", "--static", "s.json", "--runtime", "r.json"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.provider, "aws-like");
        assert_eq!(opts.seed, 0);
        assert!(!opts.breakdown && !opts.cdf);
        assert_eq!(opts.quantile_mode, QuantileMode::Exact);
        assert!(!opts.profile_events);
    }

    #[test]
    fn bad_quantile_mode_errors() {
        let base = ["run", "--static", "a", "--runtime", "b"];
        let with = |flag: &str, v: &str| {
            let mut args = base.to_vec();
            args.extend([flag, v]);
            parse_args(&strs(&args))
        };
        assert!(with("--quantile-mode", "histogram").is_err());
        assert!(parse_args(&strs(&["sweep", "--quantile-mode", "histogram"])).is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse_args(&strs(&["run", "--static", "s.json"])).is_err());
        assert!(parse_args(&strs(&["run"])).is_err());
        assert!(parse_args(&strs(&["run", "--static"])).is_err());
    }

    #[test]
    fn workload_flag_makes_configs_optional() {
        let cmd = parse_args(&strs(&[
            "run",
            "--workload",
            "mmpp-burst",
            "--samples",
            "500",
            "--warmup",
            "20",
        ]))
        .unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.workload.as_deref(), Some("mmpp-burst"));
        assert_eq!(opts.static_path, None);
        assert_eq!(opts.runtime_path, None);
        assert_eq!(opts.samples, 500);
        assert_eq!(opts.warmup, 20);
        assert!(parse_args(&strs(&["run", "--workload", "x", "--samples", "0"])).is_err());
    }

    #[test]
    fn sweep_workload_axis_parses_comma_separated() {
        let cmd = parse_args(&strs(&["sweep", "--workload", "poisson,mmpp-burst"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.workloads, ["poisson", "mmpp-burst"]);
        assert!(parse_args(&strs(&["sweep", "--workload", ""])).is_err());
    }

    #[test]
    fn run_policy_flag_parses() {
        let cmd =
            parse_args(&strs(&["run", "--workload", "poisson", "--policy", "hedge-p95"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.policy.as_deref(), Some("hedge-p95"));
        assert!(parse_args(&strs(&["run", "--workload", "poisson", "--policy"])).is_err());
    }

    #[test]
    fn sweep_policy_axis_parses_comma_separated() {
        let cmd = parse_args(&strs(&["sweep", "--policy", "none,hedge-p95,tied-2"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.policies, ["none", "hedge-p95", "tied-2"]);
        assert!(parse_args(&strs(&["sweep", "--policies", "none"])).is_ok(), "plural alias");
        assert!(parse_args(&strs(&["sweep", "--policy", ""])).is_err());
    }

    #[test]
    fn run_faults_flag_parses() {
        let cmd =
            parse_args(&strs(&["run", "--workload", "poisson", "--faults", "outage-10s"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.faults.as_deref(), Some("outage-10s"));
        assert!(parse_args(&strs(&["run", "--workload", "poisson", "--faults"])).is_err());
    }

    #[test]
    fn sweep_faults_axis_parses_comma_separated() {
        let cmd =
            parse_args(&strs(&["sweep", "--faults", "none,throttle-5pct,outage-10s"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.faults, ["none", "throttle-5pct", "outage-10s"]);
        assert!(parse_args(&strs(&["sweep", "--faults", ""])).is_err());
    }

    #[test]
    fn run_app_flag_parses_and_relaxes_configs() {
        let cmd = parse_args(&strs(&["run", "--app", "video", "--samples", "30"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.app.as_deref(), Some("video"));
        assert_eq!(opts.static_path, None);
        assert_eq!(opts.runtime_path, None);
        assert_eq!(opts.samples, 30);
        assert!(parse_args(&strs(&["run", "--app"])).is_err());
    }

    #[test]
    fn sweep_app_axis_parses_comma_separated() {
        let cmd = parse_args(&strs(&["sweep", "--app", "none,web-api,video"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.apps, ["none", "web-api", "video"]);
        assert!(parse_args(&strs(&["sweep", "--apps", "thumbnail"])).is_ok(), "plural alias");
        assert!(parse_args(&strs(&["sweep", "--app", ""])).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(parse_args(&strs(&["run", "--static", "a", "--runtime", "b", "--bogus"])).is_err());
        assert!(parse_args(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn simple_commands() {
        assert_eq!(parse_args(&strs(&["providers"])).unwrap(), Command::Providers);
        assert_eq!(
            parse_args(&strs(&["dump-provider", "azure-like"])).unwrap(),
            Command::DumpProvider("azure-like".into())
        );
        assert_eq!(parse_args(&strs(&["sample-config"])).unwrap(), Command::SampleConfig);
        assert_eq!(parse_args(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_sweep_with_all_flags() {
        let cmd = parse_args(&strs(&[
            "sweep",
            "--static",
            "s.json",
            "--runtime",
            "r.json",
            "--providers",
            "aws-like,azure-like",
            "--seeds",
            "6",
            "--base-seed",
            "100",
            "--samples",
            "50",
            "--threads",
            "8",
            "--out",
            "report.csv",
            "--quantile-mode",
            "sketch",
            "--profile-events",
        ]))
        .unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.static_path.as_deref(), Some("s.json"));
        assert_eq!(opts.runtime_path.as_deref(), Some("r.json"));
        assert_eq!(opts.providers, ["aws-like", "azure-like"]);
        assert_eq!(opts.seeds, 6);
        assert_eq!(opts.base_seed, 100);
        assert_eq!(opts.samples, 50);
        assert_eq!(opts.workloads, Vec::<String>::new());
        assert_eq!(opts.policies, Vec::<String>::new());
        assert_eq!(opts.faults, Vec::<String>::new());
        assert_eq!(opts.apps, Vec::<String>::new());
        assert_eq!(opts.threads, 8);
        assert_eq!(opts.out.as_deref(), Some("report.csv"));
        assert_eq!(opts.quantile_mode, QuantileMode::Sketch);
        assert!(opts.profile_events);
    }

    #[test]
    fn sweep_defaults_and_errors() {
        let Command::Sweep(opts) = parse_args(&strs(&["sweep"])).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(opts.providers, ["aws-like", "google-like", "azure-like"]);
        assert_eq!(opts.seeds, 4);
        assert_eq!(opts.base_seed, 0);
        assert_eq!(opts.samples, 100);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.out, None);
        assert_eq!(opts.quantile_mode, QuantileMode::Exact);
        assert!(!opts.profile_events);
        assert!(parse_args(&strs(&["sweep", "--seeds", "0"])).is_err());
        let overflow = strs(&["sweep", "--base-seed", "18446744073709551615", "--seeds", "2"]);
        assert!(parse_args(&overflow).unwrap_err().contains("overflows the seed range"));
        let last = strs(&["sweep", "--base-seed", "18446744073709551613", "--seeds", "2"]);
        assert!(parse_args(&last).is_ok(), "a range ending at u64::MAX is representable");
        assert!(parse_args(&strs(&["sweep", "--samples", "0"])).is_err());
        assert!(parse_args(&strs(&["sweep", "--providers", ""])).is_err());
        assert!(parse_args(&strs(&["sweep", "--bogus"])).is_err());
    }

    #[test]
    fn parses_trace_with_all_flags() {
        let cmd = parse_args(&strs(&[
            "trace",
            "--static",
            "s.json",
            "--runtime",
            "r.json",
            "--provider",
            "azure-like",
            "--seed",
            "4",
            "--format",
            "csv",
            "--out",
            "trace.csv",
            "--capacity",
            "512",
        ]))
        .unwrap();
        let Command::Trace(opts) = cmd else { panic!("expected trace") };
        assert_eq!(opts.static_path.as_deref(), Some("s.json"));
        assert_eq!(opts.runtime_path.as_deref(), Some("r.json"));
        assert_eq!(opts.provider, "azure-like");
        assert_eq!(opts.seed, 4);
        assert_eq!(opts.format, TraceFormat::Csv);
        assert_eq!(opts.out.as_deref(), Some("trace.csv"));
        assert_eq!(opts.capacity, 512);
    }

    #[test]
    fn trace_defaults_and_errors() {
        let Command::Trace(opts) = parse_args(&strs(&["trace"])).unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(opts.static_path, None);
        assert_eq!(opts.provider, "aws-like");
        assert_eq!(opts.format, TraceFormat::Jsonl);
        assert_eq!(opts.out, None);
        assert_eq!(opts.capacity, 1 << 20);
        assert!(parse_args(&strs(&["trace", "--format", "xml"])).is_err());
        assert!(parse_args(&strs(&["trace", "--capacity", "0"])).is_err());
        assert!(parse_args(&strs(&["trace", "--bogus"])).is_err());
    }

    #[test]
    fn bad_seed_errors() {
        assert!(parse_args(&strs(&[
            "run",
            "--static",
            "a",
            "--runtime",
            "b",
            "--seed",
            "not-a-number"
        ]))
        .is_err());
    }
}
