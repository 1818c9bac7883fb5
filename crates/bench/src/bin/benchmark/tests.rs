//! The benchmark's own tests: metric-name hygiene, the metric tables
//! against `BENCHMARK.json`, argument parsing, and a 1/1000-size smoke run
//! of every workload in both modes.

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stability::quartiles;
use crate::workloads::Workload;
use crate::{layers, parse_args, workloads, Args};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Smoke-run size: keeps debug-build `cargo test` within seconds.
const SMOKE_SCALE: f64 = 0.001;

/// A minimal JSON reader, enough for `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = JsonParser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut kv = Vec::new();
                while self.peek() != b'}' {
                    if !kv.is_empty() {
                        self.eat(b',');
                    }
                    let Json::Str(k) = self.value() else { panic!("object key is not a string") };
                    self.eat(b':');
                    kv.push((k, self.value()));
                }
                self.eat(b'}');
                Json::Obj(kv)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used in BENCHMARK.json");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad token {num}"))),
                }
            }
        }
    }
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.name)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for name in &names {
        assert!(well_formed_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate names");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(def.unit.len() <= 16, "{}", def.unit);
        assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        assert!(def.better == "lower" || def.better == "higher", "{}", def.name);
    }
}

#[test]
fn metric_counts_are_within_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s declared");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let largest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    for def in END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
    }
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
}

fn assert_declared(json: &Json, defs: &[Def], with_bound: bool) {
    let entries = json.items();
    assert_eq!(entries.len(), defs.len(), "declared vs emitted count");
    for (entry, def) in entries.iter().zip(defs) {
        let mut keys = vec!["name", "unit", "better"];
        if with_bound {
            keys.push("bound");
        }
        assert_eq!(entry.keys(), keys, "{}", def.name);
        assert_eq!(entry.get("name").str(), def.name);
        assert_eq!(entry.get("unit").str(), def.unit, "{}", def.name);
        assert_eq!(entry.get("better").str(), def.better, "{}", def.name);
        if with_bound {
            assert_eq!(Some(entry.get("bound").num()), def.bound, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let json = Json::parse(BENCHMARK_JSON);
    assert_eq!(
        json.keys(),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    assert_declared(json.get("end_to_end"), END_TO_END, true);
    assert_declared(json.get("per_layer"), PER_LAYER, false);
    let workloads: Vec<&str> =
        json.get("workloads").items().iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let paths: Vec<&str> = json.get("paths").items().iter().map(Json::str).collect();
    assert_eq!(paths, ["crates/bench/src/bin/benchmark"]);
    let command: Vec<&str> = json.get("command").items().iter().map(Json::str).collect();
    // The workspace's own bin, so it builds with the workspace's profile
    // and lockfile.
    assert!(command.windows(2).any(|w| w == ["-p", "stellar-bench"]), "{command:?}");
    assert!(command.windows(2).any(|w| w == ["--bin", "benchmark"]), "{command:?}");
    let seconds = json.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn arguments_parse_with_and_without_trace_values() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    assert_eq!(
        args("--workload burst --seed 7 --seconds 3 --trace 0"),
        Ok(Args {
            workload: Some(Workload::Burst),
            seed: Some(7),
            seconds: 3.0,
            trace: false,
            runs: None
        })
    );
    assert!(args("--workload campaign --trace 1").unwrap().trace);
    assert!(args("--trace --workload fleet").unwrap().trace);
    assert_eq!(args("--workload hedged").unwrap().seed, None, "default seed");
    assert_eq!(args("--runs 5").unwrap().runs, Some(5));
    assert_eq!(args("--runs 5 --seed 3").unwrap().seed, Some(3));
    assert!(args("--workload nope").is_err());
    assert!(args("--seed 3").is_err(), "needs a workload or --runs");
    assert!(args("--workload fleet --seconds -1").is_err());
    assert!(args("--workload fleet --bogus").is_err());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

#[test]
fn every_workload_passes_its_checks_and_emits_the_end_to_end_metrics() {
    for workload in Workload::ALL {
        let report = workloads::measure(workload, 1, 0.0, SMOKE_SCALE);
        assert_eq!(report.gate.failures, Vec::<String>::new(), "{}", workload.name());
        assert!(report.gate.attempted > 0);
        let values = report.values.resolve(END_TO_END).expect("every end-to-end metric");
        for (def, value) in values {
            assert!(value > 0.0, "{} {} = {value}", workload.name(), def.name);
        }
    }
}

#[test]
fn every_workload_emits_the_per_layer_metrics() {
    for workload in Workload::ALL {
        let report = layers::trace(workload, 1, 0.0, SMOKE_SCALE);
        assert_eq!(report.gate.failures, Vec::<String>::new(), "{}", workload.name());
        report.values.resolve(PER_LAYER).expect("every per-layer metric");
    }
}

#[test]
fn the_conservation_check_catches_a_lost_request() {
    // A policy + fault run (hedged) and a fixed-IAT run (a Fig 3 cell).
    let hedged = Workload::Hedged.plan(2, SMOKE_SCALE);
    let campaign = Workload::Campaign.plan(2, SMOKE_SCALE);
    for scenario in [&hedged.scenarios[0], &campaign.scenarios[0]] {
        let mut outcome =
            workloads::experiment(scenario, 2, Default::default()).run().expect("smoke run");
        let runtime = &scenario.runtime_cfg;
        assert_eq!(workloads::conservation(&outcome.result, runtime), Ok(()), "{}", scenario.label);
        outcome.result.measured_count -= 1;
        assert!(workloads::conservation(&outcome.result, runtime).is_err(), "{}", scenario.label);
    }
}

#[test]
fn a_seed_fixes_the_simulation() {
    let digest = |seed| {
        let grid = Workload::Hedged.plan(seed, SMOKE_SCALE);
        workloads::execute(Workload::Hedged, &grid, Default::default(), 1)
            .expect("smoke run")
            .digest()
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}
