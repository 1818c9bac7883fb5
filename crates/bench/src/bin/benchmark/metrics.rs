//! Metric definitions, the correctness gate, and the result printer.
//!
//! The two tables here are the benchmark's contract with `BENCHMARK.json`:
//! a test checks both directions (every emitted metric is declared, every
//! declared metric is emitted).

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better, bound: None }
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("sim_req_per_s", "req/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("paper_err_pct", "%", "lower", 0.15),
];

/// Event classes whose per-event cost is reported (`faas-sim.<class>_ns`).
/// The profiler's telemetry and fault-storm classes never fire in these
/// workloads and are left out.
pub const PROFILED_CLASSES: [&str; 11] = [
    "frontend_arrive",
    "routing_done",
    "enqueued",
    "boot_complete",
    "compute_done",
    "exec_done",
    "completed",
    "cancel",
    "reap_check",
    "scale_tick",
    "join_arrive",
];

/// The twelve simulated lifecycle components of the paper's Fig 1, as
/// span tags (`faas-sim.span.<component>_ms`).
pub const SPAN_COMPONENTS: [&str; 12] = [
    "propagation",
    "frontend",
    "routing",
    "dispatch_wait",
    "inline_transfer",
    "queue_wait",
    "steer",
    "handling",
    "payload_get",
    "execution",
    "chain",
    "response",
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    layer("faas-sim.loop_s", "s", "lower"),
    layer("faas-sim.events", "count", "lower"),
    layer("faas-sim.ns_per_event", "ns", "lower"),
    layer("faas-sim.profile_coverage", "ratio", "higher"),
    layer("faas-sim.frontend_arrive_ns", "ns", "lower"),
    layer("faas-sim.routing_done_ns", "ns", "lower"),
    layer("faas-sim.enqueued_ns", "ns", "lower"),
    layer("faas-sim.boot_complete_ns", "ns", "lower"),
    layer("faas-sim.compute_done_ns", "ns", "lower"),
    layer("faas-sim.exec_done_ns", "ns", "lower"),
    layer("faas-sim.completed_ns", "ns", "lower"),
    layer("faas-sim.cancel_ns", "ns", "lower"),
    layer("faas-sim.reap_check_ns", "ns", "lower"),
    layer("faas-sim.scale_tick_ns", "ns", "lower"),
    layer("faas-sim.join_arrive_ns", "ns", "lower"),
    layer("faas-sim.instances_spawned", "count", "lower"),
    layer("faas-sim.request_slots_high_water", "count", "lower"),
    layer("faas-sim.cold_starts", "count", "lower"),
    layer("faas-sim.image_cache_hit_ratio", "ratio", "higher"),
    layer("faas-sim.requests_cancelled", "count", "lower"),
    layer("faas-sim.span.propagation_ms", "ms", "lower"),
    layer("faas-sim.span.frontend_ms", "ms", "lower"),
    layer("faas-sim.span.routing_ms", "ms", "lower"),
    layer("faas-sim.span.dispatch_wait_ms", "ms", "lower"),
    layer("faas-sim.span.inline_transfer_ms", "ms", "lower"),
    layer("faas-sim.span.queue_wait_ms", "ms", "lower"),
    layer("faas-sim.span.steer_ms", "ms", "lower"),
    layer("faas-sim.span.handling_ms", "ms", "lower"),
    layer("faas-sim.span.payload_get_ms", "ms", "lower"),
    layer("faas-sim.span.execution_ms", "ms", "lower"),
    layer("faas-sim.span.chain_ms", "ms", "lower"),
    layer("faas-sim.span.response_ms", "ms", "lower"),
    layer("simkit.promotions", "count", "lower"),
    layer("simkit.calqueue_rebuilds", "count", "lower"),
    layer("simkit.calqueue_hunt_fallbacks", "count", "lower"),
    layer("simkit.calqueue_overcrowd_rebuilds", "count", "lower"),
    layer("simkit.hold_ns", "ns", "lower"),
    layer("simkit.share", "ratio", "lower"),
    layer("workload.build_s", "s", "lower"),
    layer("workload.gap_ns", "ns", "lower"),
    layer("workload.arrivals", "count", "higher"),
    layer("core.deploy_s", "s", "lower"),
    layer("core.driver_self_s", "s", "lower"),
    layer("core.cells", "count", "higher"),
    layer("core.cell_s_p50", "s", "lower"),
    layer("core.cell_s_max", "s", "lower"),
    layer("core.parallel_eff", "ratio", "higher"),
    layer("core.makespan_tail_s", "s", "lower"),
    layer("policy.attempts_per_req", "ratio", "lower"),
    layer("policy.hedge_rate", "ratio", "lower"),
    layer("policy.wasted_fraction", "ratio", "lower"),
    layer("policy.useful_attempt_ratio", "ratio", "higher"),
    layer("faults.injected", "count", "lower"),
    layer("faults.availability", "ratio", "higher"),
    layer("stats.record_ns", "ns", "lower"),
    layer("stats.merge_ms", "ms", "lower"),
    layer("dag.joins_fired", "count", "higher"),
    layer("dag.join_stragglers", "count", "lower"),
    layer("dag.straggler_amp", "ratio", "lower"),
    layer("trace.overhead", "ratio", "lower"),
];

/// Counts checks and failures; every failure is kept with its mismatch
/// message. `failed / attempted` is the run's error fraction.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one checked item (a run or a comparison).
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.note(what, e);
        }
    }

    /// Records `cells` sweep cells, `failed` of which errored or panicked.
    pub fn cells(&mut self, what: &str, cells: usize, failed: usize) {
        self.attempted += cells as u64;
        if failed > 0 {
            self.failed += failed as u64;
            self.note(what, format!("{failed} of {cells} cells failed"));
        }
    }

    fn note(&mut self, what: &str, message: String) {
        let line = format!("{what}: {message}");
        eprintln!("CHECK FAILED {line}");
        self.failures.push(line);
    }
}

/// Named metric values collected by one run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The values in `defs` order, or the first mismatch: a declared
    /// metric missing, an undeclared one present, or a non-finite value.
    pub fn resolve(&self, defs: &[Def]) -> Result<Vec<(Def, f64)>, String> {
        if let Some(extra) = self.0.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
            return Err(format!("undeclared metric {extra}"));
        }
        defs.iter()
            .map(|def| match self.0.get(def.name) {
                Some(v) if v.is_finite() => Ok((*def, *v)),
                Some(v) => Err(format!("{} is not finite: {v}", def.name)),
                None => Err(format!("missing metric {}", def.name)),
            })
            .collect()
    }
}

/// What one benchmark process reports.
#[derive(Debug)]
pub struct Report {
    pub values: Values,
    pub defs: &'static [Def],
    pub gate: Gate,
    pub digest: u64,
}

impl Report {
    /// Prints one `name value unit` line per metric, the simulation
    /// digest, and (last) the JSON result line. Returns whether every
    /// check passed.
    pub fn print(mut self) -> bool {
        let resolved = match self.values.resolve(self.defs) {
            Ok(resolved) => resolved,
            Err(e) => {
                self.gate.check("metric table", Err(e));
                Vec::new()
            }
        };
        for (def, value) in &resolved {
            println!("{} {} {}", def.name, value, def.unit);
        }
        println!("sim_digest {:016x}", self.digest);
        let metrics: Vec<String> = resolved
            .iter()
            .map(|(def, value)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", def.name, value, def.unit)
            })
            .collect();
        let correct = self.gate.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.attempted.max(1),
            self.gate.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// FNV-1a over the simulated statistics of a run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}
