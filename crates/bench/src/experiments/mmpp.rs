//! MMPP burst trains vs a rate-matched Poisson baseline: the stochastic
//! generalization of Fig 9's burst-size knob. Both workloads offer the
//! same mean load (2 req/s); the MMPP packs it into ~20-request bursts,
//! so the queueing separation between scheduling policies (§VI-D3, Obs 7)
//! reappears without ever setting `burst_size`.

use providers::paper::ProviderKind;
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::{Experiment, Outcome};
use stellar_core::runner::SweepRunner;
use workload::spec::{ArrivalSpec, WorkloadSpec};

use crate::report::{Report, BASE_SEED};

/// Function execution time, ms. At the 2 req/s mean rate this is 0.2
/// busy-instance equivalents — far below saturation — while an MMPP burst
/// (40 req/s) transiently demands 4: the regime where burstiness, not
/// mean load, sets the tail.
pub const EXEC_MS: f64 = 100.0;

/// Mean inter-arrival time both workloads are matched to, ms.
pub const MEAN_IAT_MS: f64 = 500.0;

/// The two arrival shapes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Rate-matched Poisson baseline (CV 1, Fano 1).
    Poisson,
    /// Two-state MMPP burst train at the same mean rate.
    Mmpp,
}

impl Shape {
    /// All shapes, baseline first.
    pub const ALL: [Shape; 2] = [Shape::Poisson, Shape::Mmpp];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Shape::Poisson => "poisson",
            Shape::Mmpp => "mmpp",
        }
    }

    /// The workload spec for this shape. Both have mean rate
    /// 1000 / [`MEAN_IAT_MS`] per second: the MMPP packs all its
    /// arrivals into 40/s bursts with a mean 500 ms dwell, silent
    /// otherwise — 40·0.5 arrivals per mean 10 s cycle = 2/s.
    pub fn spec(self) -> WorkloadSpec {
        let arrival = match self {
            Shape::Poisson => ArrivalSpec::Exponential { mean_ms: MEAN_IAT_MS },
            Shape::Mmpp => ArrivalSpec::Mmpp {
                on_mean_ms: 500.0,
                off_mean_ms: 9_500.0,
                on_rate_per_s: 40.0,
                off_rate_per_s: 0.0,
            },
        };
        WorkloadSpec { arrival, mode: workload::spec::ModeSpec::Open }
    }
}

/// Measured data: one outcome per (provider, arrival shape).
#[derive(Debug)]
pub struct MmppAmplification {
    /// The grid cells, provider-major.
    pub cells: Vec<(ProviderKind, Shape, Outcome)>,
}

fn run_cell(kind: ProviderKind, shape: Shape, samples: u32) -> Outcome {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = 5;
    runtime.exec_ms = EXEC_MS;
    let runtime = runtime.with_workload(shape.spec());
    Experiment::new(config_for(kind))
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("amp")] })
        .workload(runtime)
        .seed(BASE_SEED + 90 + shape as u64)
        .run()
        .expect("mmpp amplification run")
}

/// Runs the provider × shape grid in parallel.
pub fn measure(samples: u32) -> MmppAmplification {
    let cells: Vec<(ProviderKind, Shape)> = ProviderKind::ALL
        .iter()
        .flat_map(|&kind| Shape::ALL.into_iter().map(move |s| (kind, s)))
        .collect();
    let cells = SweepRunner::default()
        .map(&cells, |&(kind, shape)| (kind, shape, run_cell(kind, shape, samples)));
    MmppAmplification { cells }
}

impl MmppAmplification {
    /// The outcome for one cell.
    pub fn cell(&self, kind: ProviderKind, shape: Shape) -> Option<&Outcome> {
        self.cells.iter().find(|(k, s, _)| *k == kind && *s == shape).map(|(_, _, o)| o)
    }

    /// Latency summary for one cell.
    pub fn summary(&self, kind: ProviderKind, shape: Shape) -> Option<Summary> {
        self.cell(kind, shape).map(|o| o.summary.clone())
    }

    /// p99 under MMPP over p99 under the rate-matched Poisson stream.
    pub fn amplification(&self, kind: ProviderKind) -> Option<f64> {
        let mmpp = self.summary(kind, Shape::Mmpp)?;
        let poisson = self.summary(kind, Shape::Poisson)?;
        (poisson.tail > 0.0).then(|| mmpp.tail / poisson.tail)
    }

    /// Renders the report: per-cell latency next to the realized load
    /// that produced it, plus the per-provider amplification factors.
    pub fn report(&self) -> Report {
        let mut table = stats::table::TextTable::new(vec![
            "series",
            "med_ms",
            "p99_ms",
            "tmr",
            "rate/s",
            "iat_cv",
            "peak/mean",
            "fano",
        ]);
        for (kind, shape, outcome) in &self.cells {
            let s = &outcome.summary;
            let offered = outcome.result.offered.expect("spec runs report offered load");
            table.row(vec![
                format!("{kind} {}", shape.label()),
                stats::table::fmt_latency(s.median),
                stats::table::fmt_latency(s.tail),
                stats::table::fmt_ratio(s.tmr),
                format!("{:.1}", offered.mean_rate_per_s),
                format!("{:.2}", offered.iat_cv),
                format!("{:.2}", offered.peak_to_mean),
                format!("{:.2}", offered.fano),
            ]);
        }
        let mut body = table.render();
        body.push('\n');
        for kind in ProviderKind::ALL {
            if let Some(amp) = self.amplification(kind) {
                body.push_str(&format!(
                    "{kind}: p99 amplification under MMPP ≈ {amp:.1}x the Poisson baseline\n"
                ));
            }
        }
        Report {
            id: "mmpp",
            title: "Queueing amplification under MMPP bursts (rate-matched to Poisson)",
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmpp_is_overdispersed_and_amplifies_queueing_tails() {
        let data = measure(500);
        for kind in ProviderKind::ALL {
            let poisson = data.cell(kind, Shape::Poisson).unwrap().result.offered.expect("offered");
            let mmpp = data.cell(kind, Shape::Mmpp).unwrap().result.offered.expect("offered");
            // Rate-matched inputs, very different shapes.
            assert!(
                (poisson.mean_rate_per_s - mmpp.mean_rate_per_s).abs()
                    < 0.5 * poisson.mean_rate_per_s,
                "{kind}: rates {} vs {}",
                poisson.mean_rate_per_s,
                mmpp.mean_rate_per_s
            );
            assert!((poisson.iat_cv - 1.0).abs() < 0.25, "{kind}: poisson cv {}", poisson.iat_cv);
            assert!(mmpp.iat_cv > 1.3, "{kind}: mmpp cv {}", mmpp.iat_cv);
            assert!(mmpp.fano > poisson.fano, "{kind}: fano {} vs {}", mmpp.fano, poisson.fano);
        }
        // Queue-at-instance policies turn burstiness into tail latency;
        // the effect is strongest for the deep-queueing provider (Obs 7).
        let azure = data.amplification(ProviderKind::Azure).unwrap();
        assert!(azure > 1.5, "azure amplification {azure}");
        let report = data.report().render();
        assert!(report.contains("amplification"));
        assert!(report.contains("iat_cv"));
    }
}
