//! Command-line argument parsing (dependency-free).

use std::str::FromStr;

use stats::sketch::QuantileMode;

/// The scenario flags `run` and `sweep` share: one experiment description
/// that `commands` resolves into grid cells. `sweep` splits each list
/// flag at commas into a grid axis; `run` takes each value verbatim (an
/// inline DAG JSON holds commas), so it resolves to a single cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOptions {
    /// Path to the static function configuration JSON; one Python ZIP
    /// function when omitted.
    pub static_path: Option<String>,
    /// Path to the runtime (client) configuration JSON; `samples` single
    /// invocations at the short IAT when omitted.
    pub runtime_path: Option<String>,
    /// Providers: built-in names (`aws-like`, `google-like`,
    /// `azure-like`) or provider-config JSON paths.
    pub providers: Vec<String>,
    /// Measured samples per cell when `--runtime` is omitted.
    pub samples: u32,
    /// Workload models: preset names (`mmpp-burst`, `trace-replay`, …) or
    /// workload-spec JSON paths, superseding the runtime config's IAT.
    /// Empty = no workload axis.
    pub workloads: Vec<String>,
    /// Tail-tolerance policies: preset names (`hedge-p95`, `tied-2`, …),
    /// policy-spec JSON paths, or `none` for the unmodified baseline.
    /// Empty = no policy axis (and byte-identical legacy output).
    pub policies: Vec<String>,
    /// Fault models: preset names (`throttle-5pct`, `outage-10s`, …),
    /// fault-spec JSON paths, or `none` for the fault-free baseline.
    /// Empty = no fault axis (and byte-identical legacy output).
    pub faults: Vec<String>,
    /// Application workflows: preset names (`web-api`, `video`, …),
    /// DAG-spec JSON paths or inline objects, or `none` for the
    /// single-function baseline; a workflow replaces the static function
    /// set. Empty = no app axis (and byte-identical legacy output).
    pub apps: Vec<String>,
    /// Quantile machinery: exact sorting or streaming sketches.
    pub quantile_mode: QuantileMode,
    /// Time every event dispatch and print a per-event-class cost table
    /// (observational: results are bit-identical with or without it).
    pub profile_events: bool,
}

impl ScenarioOptions {
    fn new(providers: &[&str]) -> ScenarioOptions {
        ScenarioOptions {
            static_path: None,
            runtime_path: None,
            providers: providers.iter().map(|p| p.to_string()).collect(),
            samples: 100,
            workloads: Vec::new(),
            policies: Vec::new(),
            faults: Vec::new(),
            apps: Vec::new(),
            quantile_mode: QuantileMode::default(),
            profile_events: false,
        }
    }

    /// Consumes `flag` (and its value) if it is a scenario flag, returning
    /// whether it was. `axes` selects `sweep`'s spelling: plural aliases
    /// and comma-separated lists.
    fn parse(&mut self, flag: &str, flags: &mut Flags<'_>, axes: bool) -> Result<bool, String> {
        match (flag, axes) {
            ("--static", _) => self.static_path = Some(flags.value(flag)?),
            ("--runtime", _) => self.runtime_path = Some(flags.value(flag)?),
            ("--samples", _) => self.samples = flags.positive(flag)?,
            ("--quantile-mode", _) => {
                let mode = flags.value(flag)?;
                self.quantile_mode = QuantileMode::parse(&mode).ok_or_else(|| {
                    format!("--quantile-mode must be exact or sketch, got {mode}")
                })?;
            }
            ("--profile-events", _) => self.profile_events = true,
            ("--provider", false) | ("--providers", true) => {
                self.providers = flags.list(flag, axes)?;
            }
            ("--workload", _) | ("--workloads", true) => self.workloads = flags.list(flag, axes)?,
            ("--policy", _) | ("--policies", true) => self.policies = flags.list(flag, axes)?,
            ("--faults", _) => self.faults = flags.list(flag, axes)?,
            ("--app", _) | ("--apps", true) => self.apps = flags.list(flag, axes)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options of `stellar run`: one scenario cell at one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// The scenario; every axis holds at most one value.
    pub scenario: ScenarioOptions,
    /// Warm-up arrivals when `--runtime` is omitted.
    pub warmup: u32,
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
    /// Write the run's spans here: CSV when the name ends in `.csv`,
    /// JSONL otherwise.
    pub trace: Option<String>,
    /// Span ring capacity with `--trace` (oldest spans dropped beyond it).
    pub trace_capacity: usize,
}

/// Options of `stellar sweep`: the scenario grid crossed with seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// The scenario grid; each non-empty list is one axis.
    pub scenario: ScenarioOptions,
    /// Number of seeds per scenario.
    pub seeds: u64,
    /// First seed; the sweep uses `base_seed..base_seed + seeds`.
    pub base_seed: u64,
    /// Worker threads; 0 selects the machine's parallelism.
    pub threads: usize,
    /// Write the CSV report here instead of stdout.
    pub out: Option<String>,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `stellar run …`
    Run(RunOptions),
    /// `stellar sweep …`
    Sweep(SweepOptions),
    /// `stellar providers`
    Providers,
    /// `stellar dump-provider <name>`
    DumpProvider(String),
    /// `stellar sample-config`
    SampleConfig,
    /// `stellar help` / no args / `--help`.
    Help,
}

/// The remaining arguments of one command, read flag by flag.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Iterator for Flags<'a> {
    type Item = &'a String;

    fn next(&mut self) -> Option<&'a String> {
        self.0.next()
    }
}

impl Flags<'_> {
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of a scenario list flag: split at commas when `split`
    /// (empty entries dropped, an empty list refused), else verbatim.
    fn list(&mut self, flag: &str, split: bool) -> Result<Vec<String>, String> {
        let value = self.value(flag)?;
        if !split {
            return Ok(vec![value]);
        }
        let list: Vec<String> =
            value.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
        if list.is_empty() {
            return Err(format!("{flag} needs at least one name or file"));
        }
        Ok(list)
    }

    fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    }

    fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let n = self.number(flag)?;
        if n == T::default() {
            return Err(format!("{flag} must be positive"));
        }
        Ok(n)
    }
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a usage-style message for unknown commands, unknown flags or
/// missing flag values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut flags = Flags(args.iter());
    let Some(cmd) = flags.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "providers" => Ok(Command::Providers),
        "sample-config" => Ok(Command::SampleConfig),
        "dump-provider" => {
            let name = flags.next().ok_or("dump-provider needs a profile name")?;
            Ok(Command::DumpProvider(name.clone()))
        }
        "run" => {
            let mut opts = RunOptions {
                scenario: ScenarioOptions::new(&["aws-like"]),
                warmup: 0,
                seed: 0,
                breakdown: false,
                cdf: false,
                csv: None,
                svg: None,
                trace: None,
                trace_capacity: 1 << 20,
            };
            while let Some(flag) = flags.next() {
                if opts.scenario.parse(flag, &mut flags, false)? {
                    continue;
                }
                match flag.as_str() {
                    "--warmup" => opts.warmup = flags.number(flag)?,
                    "--seed" => opts.seed = flags.number(flag)?,
                    "--breakdown" => opts.breakdown = true,
                    "--cdf" => opts.cdf = true,
                    "--csv" => opts.csv = Some(flags.value(flag)?),
                    "--svg" => opts.svg = Some(flags.value(flag)?),
                    "--trace" => opts.trace = Some(flags.value(flag)?),
                    "--trace-capacity" => opts.trace_capacity = flags.positive(flag)?,
                    other => return Err(format!("unknown flag: {other}")),
                }
            }
            Ok(Command::Run(opts))
        }
        "sweep" => {
            let mut opts = SweepOptions {
                scenario: ScenarioOptions::new(&["aws-like", "google-like", "azure-like"]),
                seeds: 4,
                base_seed: 0,
                threads: 0,
                out: None,
            };
            while let Some(flag) = flags.next() {
                if opts.scenario.parse(flag, &mut flags, true)? {
                    continue;
                }
                match flag.as_str() {
                    "--seeds" => opts.seeds = flags.positive(flag)?,
                    "--base-seed" => opts.base_seed = flags.number(flag)?,
                    "--threads" => opts.threads = flags.number(flag)?,
                    "--out" => opts.out = Some(flags.value(flag)?),
                    other => return Err(format!("unknown flag: {other}")),
                }
            }
            // The sweep runs seeds `base_seed..base_seed + seeds`.
            if opts.base_seed.checked_add(opts.seeds).is_none() {
                return Err(format!(
                    "--base-seed {} plus --seeds {} overflows the seed range \
                     (their sum must be at most {})",
                    opts.base_seed,
                    opts.seeds,
                    u64::MAX
                ));
            }
            Ok(Command::Sweep(opts))
        }
        other => Err(format!("unknown command: {other} (try `stellar help`)")),
    }
}

/// The help text.
pub const USAGE: &str = "\
STeLLAR — Serverless Tail-Latency Analyzer (simulation-backed reproduction)

USAGE:
    stellar run [SCENARIO] [RUN OPTIONS]
    stellar sweep [SCENARIO] [SWEEP OPTIONS]
    stellar providers
    stellar dump-provider <aws-like|google-like|azure-like>
    stellar sample-config
    stellar help

SCENARIO (shared by run and sweep; sweep takes comma-separated lists for
the provider, workload, policy, fault and app flags and crosses them into
a grid, run takes one value each, verbatim):
    --static <file>          static function config [default: one Python
                             ZIP function]
    --runtime <file>         runtime config [default: --samples invocations
                             at a 3 s IAT]
    --provider <name|file>   run: built-in profile or provider-config JSON
                             [default: aws-like]
    --providers <a,b,c>      sweep: profiles or config paths
                             [default: aws-like,google-like,azure-like]
    --samples <n>            measured arrivals without --runtime
                             [default: 100]
    --workload <name|file>   workload model: a preset (poisson, mmpp-burst,
                             diurnal, trace-replay, closed-loop,
                             multi-tenant) or a workload-spec JSON;
                             supersedes the runtime config's IAT
    --policy <name|file>     tail-tolerance policy: a preset (hedge-p95,
                             hedge-p99, hedge-200ms, retry-backoff,
                             deadline-2s, tied-2, hedge-deadline), a
                             policy-spec JSON, or none (baseline); adds
                             policy columns to a sweep CSV
    --faults <name|file>     fault model: a preset (throttle-5pct,
                             crash-2pct, purge-storm, outage-10s,
                             brownout-2x, shed-64, outage-throttle), a
                             fault-spec JSON, or none (fault-free); adds
                             retry_amp/goodput columns to a sweep CSV
    --app <name|file|json>   application workflow: a preset (web-api,
                             thumbnail, ml-inference, video, map-reduce,
                             scatter-gather), a DAG-spec JSON file or
                             inline object, or none (single-function
                             baseline); replaces the static function set,
                             prints a per-stage breakdown with join
                             straggler amplification, and adds a join_amp
                             column to a sweep CSV (labels: provider@app)
    --quantile-mode <mode>   exact (sort all samples) or sketch (stream
                             through t-digests; constant memory)
                             [default: exact]
    --profile-events         time every event dispatch and print a
                             per-event-class cost table (observational:
                             results are bit-identical)

RUN OPTIONS:
    --warmup <n>             warm-up arrivals without --runtime [default: 0]
    --seed <n>               deterministic seed [default: 0]
    --breakdown              print per-component latency attribution
    --cdf                    print an ASCII CDF of end-to-end latency
    --csv <file>             write quantile CSV
    --svg <file>             write an SVG CDF plot
    --trace <file>           write the run's spans: CSV if the name ends in
                             .csv, JSONL otherwise (/dev/stdout works)
    --trace-capacity <n>     span ring capacity [default: 1048576]

SWEEP OPTIONS:
    --seeds <n>              seeds per scenario [default: 4]
    --base-seed <n>          first seed [default: 0]
    --threads <n>            worker threads, 0 = all cores [default: 0]
    --out <file>             write the CSV report here instead of stdout
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
        assert_eq!(opts.scenario.static_path.as_deref(), Some("s.json"));
        assert_eq!(opts.scenario.runtime_path.as_deref(), Some("r.json"));
        assert!(opts.scenario.workloads.is_empty());
        assert!(opts.scenario.policies.is_empty());
        assert_eq!(opts.scenario.providers, ["google-like"]);
        assert_eq!(opts.seed, 9);
        assert!(opts.breakdown && opts.cdf);
        assert_eq!(opts.csv.as_deref(), Some("out.csv"));
        assert_eq!(opts.svg.as_deref(), Some("out.svg"));
        assert_eq!(opts.scenario.quantile_mode, QuantileMode::Sketch);
        assert!(opts.scenario.profile_events);
    }

    #[test]
    fn run_defaults() {
        let cmd = parse_args(&strs(&["run", "--static", "s.json", "--runtime", "r.json"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.scenario.providers, ["aws-like"]);
        assert_eq!(opts.seed, 0);
        assert!(!opts.breakdown && !opts.cdf);
        assert_eq!(opts.scenario.quantile_mode, QuantileMode::Exact);
        assert!(!opts.scenario.profile_events);
        assert_eq!(opts.trace, None);
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
        assert_eq!(opts.scenario.workloads, ["mmpp-burst"]);
        assert_eq!(opts.scenario.static_path, None);
        assert_eq!(opts.scenario.runtime_path, None);
        assert_eq!(opts.scenario.samples, 500);
        assert_eq!(opts.warmup, 20);
        assert!(parse_args(&strs(&["run", "--workload", "x", "--samples", "0"])).is_err());
    }

    #[test]
    fn sweep_workload_axis_parses_comma_separated() {
        let cmd = parse_args(&strs(&["sweep", "--workload", "poisson,mmpp-burst"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.scenario.workloads, ["poisson", "mmpp-burst"]);
        assert!(parse_args(&strs(&["sweep", "--workload", ""])).is_err());
    }

    #[test]
    fn run_policy_flag_parses() {
        let cmd =
            parse_args(&strs(&["run", "--workload", "poisson", "--policy", "hedge-p95"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.scenario.policies, ["hedge-p95"]);
        assert!(parse_args(&strs(&["run", "--workload", "poisson", "--policy"])).is_err());
    }

    #[test]
    fn sweep_policy_axis_parses_comma_separated() {
        let cmd = parse_args(&strs(&["sweep", "--policy", "none,hedge-p95,tied-2"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.scenario.policies, ["none", "hedge-p95", "tied-2"]);
        assert!(parse_args(&strs(&["sweep", "--policies", "none"])).is_ok(), "plural alias");
        assert!(parse_args(&strs(&["sweep", "--policy", ""])).is_err());
    }

    #[test]
    fn run_faults_flag_parses() {
        let cmd =
            parse_args(&strs(&["run", "--workload", "poisson", "--faults", "outage-10s"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.scenario.faults, ["outage-10s"]);
        assert!(parse_args(&strs(&["run", "--workload", "poisson", "--faults"])).is_err());
    }

    #[test]
    fn sweep_faults_axis_parses_comma_separated() {
        let cmd =
            parse_args(&strs(&["sweep", "--faults", "none,throttle-5pct,outage-10s"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.scenario.faults, ["none", "throttle-5pct", "outage-10s"]);
        assert!(parse_args(&strs(&["sweep", "--faults", ""])).is_err());
    }

    #[test]
    fn run_app_flag_parses_and_relaxes_configs() {
        let cmd = parse_args(&strs(&["run", "--app", "video", "--samples", "30"])).unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.scenario.apps, ["video"]);
        assert_eq!(opts.scenario.static_path, None);
        assert_eq!(opts.scenario.runtime_path, None);
        assert_eq!(opts.scenario.samples, 30);
        assert!(parse_args(&strs(&["run", "--app"])).is_err());
    }

    #[test]
    fn sweep_app_axis_parses_comma_separated() {
        let cmd = parse_args(&strs(&["sweep", "--app", "none,web-api,video"])).unwrap();
        let Command::Sweep(opts) = cmd else { panic!("expected sweep") };
        assert_eq!(opts.scenario.apps, ["none", "web-api", "video"]);
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
        let scenario = &opts.scenario;
        assert_eq!(scenario.static_path.as_deref(), Some("s.json"));
        assert_eq!(scenario.runtime_path.as_deref(), Some("r.json"));
        assert_eq!(scenario.providers, ["aws-like", "azure-like"]);
        assert_eq!(opts.seeds, 6);
        assert_eq!(opts.base_seed, 100);
        assert_eq!(scenario.samples, 50);
        assert_eq!(scenario.workloads, Vec::<String>::new());
        assert_eq!(scenario.policies, Vec::<String>::new());
        assert_eq!(scenario.faults, Vec::<String>::new());
        assert_eq!(scenario.apps, Vec::<String>::new());
        assert_eq!(opts.threads, 8);
        assert_eq!(opts.out.as_deref(), Some("report.csv"));
        assert_eq!(scenario.quantile_mode, QuantileMode::Sketch);
        assert!(scenario.profile_events);
    }

    #[test]
    fn sweep_defaults_and_errors() {
        let Command::Sweep(opts) = parse_args(&strs(&["sweep"])).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(opts.scenario.providers, ["aws-like", "google-like", "azure-like"]);
        assert_eq!(opts.seeds, 4);
        assert_eq!(opts.base_seed, 0);
        assert_eq!(opts.scenario.samples, 100);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.out, None);
        assert_eq!(opts.scenario.quantile_mode, QuantileMode::Exact);
        assert!(!opts.scenario.profile_events);
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
            "run",
            "--static",
            "s.json",
            "--runtime",
            "r.json",
            "--provider",
            "azure-like",
            "--seed",
            "4",
            "--trace",
            "trace.csv",
            "--trace-capacity",
            "512",
        ]))
        .unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.scenario.static_path.as_deref(), Some("s.json"));
        assert_eq!(opts.scenario.runtime_path.as_deref(), Some("r.json"));
        assert_eq!(opts.scenario.providers, ["azure-like"]);
        assert_eq!(opts.seed, 4);
        assert_eq!(opts.trace.as_deref(), Some("trace.csv"));
        assert_eq!(opts.trace_capacity, 512);
    }

    #[test]
    fn trace_defaults_and_errors() {
        let Command::Run(opts) = parse_args(&strs(&["run"])).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(opts.scenario.static_path, None);
        assert_eq!(opts.scenario.providers, ["aws-like"]);
        assert_eq!(opts.trace, None);
        assert_eq!(opts.trace_capacity, 1 << 20);
        assert!(parse_args(&strs(&["run", "--trace"])).is_err());
        assert!(parse_args(&strs(&["run", "--trace-capacity", "0"])).is_err());
        assert!(parse_args(&strs(&["run", "--format", "csv"])).is_err());
        assert!(parse_args(&strs(&["trace"])).is_err(), "span export is `run --trace`");
    }

    /// `run` takes every scenario value verbatim, commas included, and
    /// keeps its singular spellings; `sweep` splits lists at commas.
    #[test]
    fn run_takes_scenario_values_verbatim() {
        let cmd = parse_args(&strs(&["run", "--workload", "a,b", "--app", "{\"x\": 1, \"y\": 2}"]));
        let Command::Run(opts) = cmd.unwrap() else { panic!("expected run") };
        assert_eq!(opts.scenario.workloads, ["a,b"]);
        assert_eq!(opts.scenario.apps, ["{\"x\": 1, \"y\": 2}"]);
        assert!(parse_args(&strs(&["run", "--providers", "aws-like"])).is_err());
        assert!(parse_args(&strs(&["run", "--policies", "none"])).is_err());
        assert!(parse_args(&strs(&["sweep", "--provider", "aws-like"])).is_err());
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
