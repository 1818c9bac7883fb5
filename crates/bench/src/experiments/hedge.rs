//! The hedging frontier: tail improvement bought per unit of wasted
//! work. Request hedging is the classic tail-tolerance technique for
//! exactly the serverless pathologies the paper measures — cold starts
//! and burst queueing inflate a small fraction of requests by an order
//! of magnitude, so re-issuing a straggler to a (likely idle) second
//! instance trades duplicate compute for a shorter tail. This artifact
//! sweeps hedge aggressiveness (quantile threshold q ∈ {0.90, 0.95,
//! 0.99}) against a no-policy baseline, per provider, under both a
//! Poisson stream and the rate-matched MMPP burst train of
//! [`crate::experiments::mmpp`], and reports p50/p99/p999 next to the
//! hedge-fire rate and the wasted-work fraction: the frontier a tail
//! SLO buys along.

use policy::{PolicySpec, ThresholdSpec};
use providers::paper::ProviderKind;
use providers::profiles::config_for;
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::{Experiment, Outcome};
use stellar_core::runner::SweepRunner;

use crate::experiments::mmpp::Shape;
use crate::report::{Report, BASE_SEED};

/// Function execution time, ms — matched to the MMPP amplification
/// experiment so the burst regime carries over.
pub const EXEC_MS: f64 = 100.0;

/// The policy axis: baseline plus three hedge aggressiveness levels.
/// Quantile thresholds are estimated online from the run's own winner
/// latencies, exactly as a real tail-tolerant client would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgePolicy {
    /// No policy: every arrival is a single attempt.
    None,
    /// Hedge once when an attempt outlives the observed p90.
    P90,
    /// Hedge once past the observed p95.
    P95,
    /// Hedge once past the observed p99.
    P99,
}

impl HedgePolicy {
    /// All policies, baseline first.
    pub const ALL: [HedgePolicy; 4] =
        [HedgePolicy::None, HedgePolicy::P90, HedgePolicy::P95, HedgePolicy::P99];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            HedgePolicy::None => "none",
            HedgePolicy::P90 => "hedge-p90",
            HedgePolicy::P95 => "hedge-p95",
            HedgePolicy::P99 => "hedge-p99",
        }
    }

    /// The policy spec, `None` for the baseline.
    pub fn spec(self) -> Option<PolicySpec> {
        let q = match self {
            HedgePolicy::None => return None,
            HedgePolicy::P90 => 0.90,
            HedgePolicy::P95 => 0.95,
            HedgePolicy::P99 => 0.99,
        };
        Some(PolicySpec::Hedge { threshold: ThresholdSpec::Quantile { q }, max_hedges: 1 })
    }
}

/// Measured data: one outcome per (provider, arrival shape, policy).
#[derive(Debug)]
pub struct HedgeFrontier {
    /// The grid cells, provider-major, shape-then-policy minor.
    pub cells: Vec<(ProviderKind, Shape, HedgePolicy, Outcome)>,
}

fn run_cell(kind: ProviderKind, shape: Shape, policy: HedgePolicy, samples: u32) -> Outcome {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = 5;
    runtime.exec_ms = EXEC_MS;
    let mut runtime = runtime.with_workload(shape.spec());
    runtime.policy = policy.spec();
    Experiment::new(config_for(kind))
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("hedge")] })
        .workload(runtime)
        // Same seed across the policy axis: every policy faces the same
        // arrival train, so differences are the policy's doing.
        .seed(BASE_SEED + 110 + shape as u64)
        .run()
        .expect("hedge frontier run")
}

/// Runs the provider × shape × policy grid in parallel.
pub fn measure(samples: u32) -> HedgeFrontier {
    let cells: Vec<(ProviderKind, Shape, HedgePolicy)> = ProviderKind::ALL
        .iter()
        .flat_map(|&kind| Shape::ALL.into_iter().map(move |s| (kind, s)))
        .flat_map(|(kind, shape)| HedgePolicy::ALL.into_iter().map(move |p| (kind, shape, p)))
        .collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, shape, policy)| {
        (kind, shape, policy, run_cell(kind, shape, policy, samples))
    });
    HedgeFrontier { cells }
}

impl HedgeFrontier {
    /// The outcome for one cell.
    pub fn cell(&self, kind: ProviderKind, shape: Shape, policy: HedgePolicy) -> Option<&Outcome> {
        self.cells
            .iter()
            .find(|(k, s, p, _)| *k == kind && *s == shape && *p == policy)
            .map(|(_, _, _, o)| o)
    }

    /// p99 under `policy` relative to the no-policy baseline (same
    /// provider, same arrival train): below 1.0 means the hedge helped.
    pub fn p99_ratio(&self, kind: ProviderKind, shape: Shape, policy: HedgePolicy) -> Option<f64> {
        let hedged = self.cell(kind, shape, policy)?.summary.tail;
        let base = self.cell(kind, shape, HedgePolicy::None)?.summary.tail;
        (base > 0.0).then(|| hedged / base)
    }

    /// Renders the frontier table plus per-provider MMPP headlines.
    pub fn report(&self) -> Report {
        let mut table = stats::table::TextTable::new(vec![
            "series",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "hedges/req",
            "wasted%",
            "dups",
            "abandoned",
        ]);
        for (kind, shape, policy, outcome) in &self.cells {
            let s = &outcome.summary;
            // Same quantile engine as every other figure (exact here, the
            // cells retain their samples and stay below the threshold).
            let p999 = outcome.result.latency_agg.clone().quantile(0.999);
            let (rate, wasted, dups, abandoned) = match &outcome.result.policy {
                Some(p) => (
                    format!("{:.3}", p.hedge_fire_rate()),
                    format!("{:.1}", p.wasted_fraction() * 100.0),
                    format!("{}", p.duplicate_successes),
                    format!("{}", p.abandoned),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            table.row(vec![
                format!("{kind} {} {}", shape.label(), policy.label()),
                stats::table::fmt_latency(s.median),
                stats::table::fmt_latency(s.tail),
                stats::table::fmt_latency(p999),
                rate,
                wasted,
                dups,
                abandoned,
            ]);
        }
        let mut body = table.render();
        body.push('\n');
        for kind in ProviderKind::ALL {
            if let (Some(ratio), Some(outcome)) = (
                self.p99_ratio(kind, Shape::Mmpp, HedgePolicy::P95),
                self.cell(kind, Shape::Mmpp, HedgePolicy::P95),
            ) {
                let p = outcome.result.policy.as_ref().expect("policy cell carries stats");
                body.push_str(&format!(
                    "{kind}: hedge-p95 under MMPP bursts — p99 {:.0}% of baseline at \
                     {:.1}% wasted work ({:.1} hedges per 100 requests)\n",
                    ratio * 100.0,
                    p.wasted_fraction() * 100.0,
                    p.hedge_fire_rate() * 100.0,
                ));
            }
        }
        Report {
            id: "hedge",
            title: "Hedging frontier: tail latency vs wasted work per provider",
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_reports_policy_costs_and_structure() {
        let data = measure(600);
        assert_eq!(data.cells.len(), 3 * 2 * 4, "provider x shape x policy grid");
        for kind in ProviderKind::ALL {
            for shape in Shape::ALL {
                let base = data.cell(kind, shape, HedgePolicy::None).unwrap();
                assert!(base.result.policy.is_none(), "baseline carries no policy stats");
                for policy in [HedgePolicy::P90, HedgePolicy::P95, HedgePolicy::P99] {
                    let cell = data.cell(kind, shape, policy).unwrap();
                    let p = cell.result.policy.as_ref().expect("hedged cell has stats");
                    assert_eq!(p.logical, 605, "{kind} {shape:?} {policy:?}");
                    assert!(
                        p.extra_launches <= p.logical,
                        "single hedge caps extras at one per request"
                    );
                    let wasted = p.wasted_fraction();
                    assert!((0.0..1.0).contains(&wasted), "{kind} {shape:?} wasted {wasted}");
                    // Same arrival train: hedging must not abandon work.
                    assert_eq!(p.abandoned, 0);
                    assert_eq!(cell.summary.count, base.summary.count, "one sample per arrival");
                }
                // A more aggressive threshold hedges at least as often.
                let p90 = data.cell(kind, shape, HedgePolicy::P90).unwrap();
                let p99 = data.cell(kind, shape, HedgePolicy::P99).unwrap();
                let (r90, r99) = (
                    p90.result.policy.as_ref().unwrap().hedge_fire_rate(),
                    p99.result.policy.as_ref().unwrap().hedge_fire_rate(),
                );
                assert!(r90 >= r99, "{kind} {shape:?}: p90 rate {r90} < p99 rate {r99}");
            }
        }
        let report = data.report().render();
        assert!(report.contains("hedge-p95"), "{report}");
        assert!(report.contains("wasted work"), "{report}");
    }
}
