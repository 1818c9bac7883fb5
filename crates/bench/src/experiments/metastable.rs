//! Retry storms and metastable failure under a capacity outage — the
//! robustness analogue of the hedging frontier. A keepalive purge at
//! t = 30 s empties the warm pool while a capacity outage holds every
//! replacement boot until t = 60 s: demand keeps arriving, nothing can
//! serve it, and what happens next depends entirely on the client's
//! retry discipline. A naive retry loop (tight timeout, no backoff)
//! re-issues every stuck request over and over, multiplying the offered
//! load exactly when capacity is zero — the retry-storm ingredient of a
//! metastable failure. Exponential backoff spreads those re-issues past
//! the window; cloud-side load shedding (admission control) caps the
//! backlog instead, failing the excess fast and keeping the queue — and
//! the recovery — bounded at the cost of availability. The artifact runs
//! the outage under both a Poisson stream and the rate-matched MMPP burst
//! train and reports retry amplification, goodput and the tail for each
//! discipline; BENCH_5.json pins the headline inequality (naive
//! amplification ≥ backoff amplification).

use faults::FaultSpec;
use policy::PolicySpec;
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

/// Outage window start, ms: late enough that the warm pool and the
/// retry machines' latency views are in steady state.
pub const OUTAGE_START_MS: f64 = 30_000.0;

/// Outage window length, ms: ~60 stuck arrivals at the 2 req/s mean
/// rate covering ~3 MMPP burst cycles, long enough for a tight retry loop to exhaust its budget many
/// requests over.
pub const OUTAGE_MS: f64 = 30_000.0;

/// Admission-control queue limit for the shedding arm.
pub const SHED_LIMIT: u32 = 32;

/// Retry budget shared by every retrying arm, so the arms differ only
/// in *when* they re-issue, never in how many times they may.
pub const MAX_RETRIES: u32 = 4;

/// The fault schedule every arm faces: a keepalive purge storm from the
/// outage onset (the warm pool dies and keeps dying) under a capacity
/// outage (no replacement boots until the window closes).
fn outage() -> FaultSpec {
    FaultSpec::Compose {
        parts: vec![
            FaultSpec::PurgeStorm { mean_gap_ms: 5_000.0, start_ms: OUTAGE_START_MS },
            FaultSpec::Outage { start_ms: OUTAGE_START_MS, duration_ms: OUTAGE_MS },
        ],
    }
}

/// The mitigation axis: what the client (and the cloud) does about
/// requests stuck in the outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// No retries: stuck requests wait the outage out. The impact
    /// baseline.
    None,
    /// Tight retry loop: 1 s timeout, no backoff. The storm.
    Naive,
    /// Same budget, exponential backoff (1 s base, ×3): re-issues spread
    /// past the window.
    Backoff,
    /// The naive client again, but the cloud sheds at
    /// [`SHED_LIMIT`] queued requests: graceful degradation.
    NaiveShed,
}

impl Mitigation {
    /// All arms, baseline first.
    pub const ALL: [Mitigation; 4] =
        [Mitigation::None, Mitigation::Naive, Mitigation::Backoff, Mitigation::NaiveShed];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::None => "no-retry",
            Mitigation::Naive => "retry-naive",
            Mitigation::Backoff => "retry-backoff",
            Mitigation::NaiveShed => "retry-naive+shed",
        }
    }

    /// The client-side policy, `None` for the impact baseline.
    pub fn policy(self) -> Option<PolicySpec> {
        let naive = PolicySpec::Retry {
            timeout_ms: 1_000.0,
            base_backoff_ms: 1.0,
            factor: 1.0,
            jitter_frac: 0.0,
            max_retries: MAX_RETRIES,
        };
        match self {
            Mitigation::None => None,
            Mitigation::Naive | Mitigation::NaiveShed => Some(naive),
            Mitigation::Backoff => Some(PolicySpec::Retry {
                timeout_ms: 1_000.0,
                base_backoff_ms: 1_000.0,
                factor: 3.0,
                jitter_frac: 0.0,
                max_retries: MAX_RETRIES,
            }),
        }
    }

    /// The fault schedule (the shedding arm adds admission control to
    /// the shared outage).
    pub fn faults(self) -> FaultSpec {
        match self {
            Mitigation::NaiveShed => FaultSpec::Compose {
                parts: vec![outage(), FaultSpec::Shed { queue_limit: SHED_LIMIT }],
            },
            _ => outage(),
        }
    }
}

/// Measured data: one outcome per (arrival shape, mitigation).
#[derive(Debug)]
pub struct MetastableStorm {
    /// The grid cells, shape-major, mitigation minor.
    pub cells: Vec<(Shape, Mitigation, Outcome)>,
}

fn run_cell(shape: Shape, mitigation: Mitigation, samples: u32) -> Outcome {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = 5;
    runtime.exec_ms = EXEC_MS;
    let mut runtime = runtime.with_workload(shape.spec());
    runtime.policy = mitigation.policy();
    runtime.faults = Some(mitigation.faults());
    Experiment::new(config_for(ProviderKind::Aws))
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("storm")] })
        .workload(runtime)
        // Same seed across the mitigation axis: every arm faces the same
        // arrival train and the same fault schedule, so differences are
        // the mitigation's doing.
        .seed(BASE_SEED + 130 + shape as u64)
        .run()
        .expect("metastable storm run")
}

/// Runs the shape × mitigation grid in parallel.
pub fn measure(samples: u32) -> MetastableStorm {
    let cells: Vec<(Shape, Mitigation)> = Shape::ALL
        .into_iter()
        .flat_map(|s| Mitigation::ALL.into_iter().map(move |m| (s, m)))
        .collect();
    let cells = SweepRunner::default().map(&cells, |&(shape, mitigation)| {
        (shape, mitigation, run_cell(shape, mitigation, samples))
    });
    MetastableStorm { cells }
}

impl MetastableStorm {
    /// The outcome for one cell.
    pub fn cell(&self, shape: Shape, mitigation: Mitigation) -> Option<&Outcome> {
        self.cells.iter().find(|(s, m, _)| *s == shape && *m == mitigation).map(|(_, _, o)| o)
    }

    /// Retry amplification (attempts per logical request) for one cell;
    /// `None` for the no-retry baseline.
    pub fn amplification(&self, shape: Shape, mitigation: Mitigation) -> Option<f64> {
        self.cell(shape, mitigation)?
            .result
            .policy
            .as_ref()
            .map(policy::PolicyStats::retry_amplification)
    }

    /// Goodput (availability) for one cell.
    pub fn goodput(&self, shape: Shape, mitigation: Mitigation) -> Option<f64> {
        self.cell(shape, mitigation)?.result.faults.as_ref().map(faults::FaultStats::availability)
    }

    /// Renders the storm table plus per-shape headlines.
    pub fn report(&self) -> Report {
        let mut table = stats::table::TextTable::new(vec![
            "series",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "attempts/req",
            "goodput%",
            "shed",
            "failed",
            "purged",
            "deferred",
            "wasted_ms",
        ]);
        for (shape, mitigation, outcome) in &self.cells {
            let s = &outcome.summary;
            let p999 = outcome.result.latency_agg.clone().quantile(0.999);
            let amp = match &outcome.result.policy {
                Some(p) => format!("{:.3}", p.retry_amplification()),
                None => "-".into(),
            };
            let f = outcome.result.faults.as_ref().expect("every cell runs under faults");
            table.row(vec![
                format!("{} {}", shape.label(), mitigation.label()),
                stats::table::fmt_latency(s.median),
                stats::table::fmt_latency(s.tail),
                stats::table::fmt_latency(p999),
                amp,
                format!("{:.1}", f.availability() * 100.0),
                format!("{}", f.shed),
                format!("{}", f.failed),
                format!("{}", f.purged_instances),
                format!("{}", f.outage_deferrals),
                format!("{:.0}", f.wasted_busy_ms),
            ]);
        }
        let mut body = table.render();
        body.push('\n');
        for shape in Shape::ALL {
            if let (Some(naive), Some(backoff), Some(shed_g)) = (
                self.amplification(shape, Mitigation::Naive),
                self.amplification(shape, Mitigation::Backoff),
                self.goodput(shape, Mitigation::NaiveShed),
            ) {
                body.push_str(&format!(
                    "{}: naive retries offered {:.2}x the load of backoff ({:.3} vs {:.3} \
                     attempts/req) during the outage; shedding held goodput at {:.1}% with \
                     the queue capped at {}\n",
                    shape.label(),
                    naive / backoff,
                    naive,
                    backoff,
                    shed_g * 100.0,
                    SHED_LIMIT,
                ));
            }
        }
        Report {
            id: "metastable",
            title: "Retry storms under a capacity outage: amplification vs backoff and shedding",
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_storm_is_tamed_by_backoff_and_bounded_by_shedding() {
        let data = measure(600);
        assert_eq!(data.cells.len(), 2 * 4, "shape x mitigation grid");
        for shape in Shape::ALL {
            let base = data.cell(shape, Mitigation::None).unwrap();
            assert!(base.result.policy.is_none(), "baseline carries no policy stats");
            let f = base.result.faults.as_ref().expect("baseline runs under the outage");
            assert!(f.purged_instances > 0, "{shape:?}: the storm must reap the warm pool");
            assert!(f.outage_deferrals > 0, "{shape:?}: the outage must defer boots");

            // The storm: a tight retry loop re-issues stuck requests, a
            // backoff loop with the same budget re-issues fewer times.
            let naive = data.amplification(shape, Mitigation::Naive).unwrap();
            let backoff = data.amplification(shape, Mitigation::Backoff).unwrap();
            assert!(naive > 1.01, "{shape:?}: outage must trigger retries, amp {naive}");
            assert!(
                naive >= backoff,
                "{shape:?}: backoff must not out-amplify the naive loop ({naive} vs {backoff})"
            );

            // Graceful degradation: admission control sheds the excess
            // with explicit errors, trading availability for a bounded
            // backlog.
            let shed_cell = data.cell(shape, Mitigation::NaiveShed).unwrap();
            let fs = shed_cell.result.faults.as_ref().unwrap();
            assert!(fs.shed > 0, "{shape:?}: the naive storm must overrun the queue limit");
            let goodput = data.goodput(shape, Mitigation::NaiveShed).unwrap();
            assert!(goodput < 1.0, "{shape:?}: shedding costs availability, got {goodput}");
            assert!(goodput > 0.5, "{shape:?}: shedding must stay partial, got {goodput}");
        }
        let report = data.report().render();
        assert!(report.contains("retry-naive+shed"), "{report}");
        assert!(report.contains("attempts/req"), "{report}");
    }
}
