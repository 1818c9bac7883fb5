//! Fig 3: latency distributions for warm (short-IAT) and cold (long-IAT)
//! invocations across the three providers (§VI-A, §VI-B1).

use providers::paper::{self, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::{cold_invocations, warm_invocations, ColdSetup};
use stellar_core::runner::SweepRunner;
use stellar_core::visualize::{render_comparison, Series};

use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// Measured data behind Fig 3.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Per-provider warm latency samples (Fig 3a).
    pub warm: Vec<(ProviderKind, Vec<f64>)>,
    /// Per-provider cold latency samples (Fig 3b).
    pub cold: Vec<(ProviderKind, Vec<f64>)>,
}

/// Runs both halves of Fig 3 (providers in parallel).
pub fn measure(samples: u32) -> Fig3 {
    let (warm, cold) = SweepRunner::default()
        .map(&ProviderKind::ALL, |&kind| {
            let w = warm_invocations(config_for(kind), samples, BASE_SEED + 1)
                .expect("warm run")
                .latencies_ms();
            let c = cold_invocations(
                config_for(kind),
                ColdSetup::baseline(),
                samples,
                100,
                BASE_SEED + 2,
            )
            .expect("cold run")
            .latencies_ms();
            ((kind, w), (kind, c))
        })
        .into_iter()
        .unzip();
    Fig3 { warm, cold }
}

impl Fig3 {
    /// Paper-vs-measured comparison rows (warm then cold).
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut rows = Vec::new();
        for (kind, samples) in &self.warm {
            let (med, p99) = paper::warm_internal_ms(*kind);
            let rtt = kind.prop_one_way_ms() * 2.0;
            rows.push(Comparison::from_summary(
                format!("warm {kind}"),
                &Summary::from_samples(samples),
                med + rtt,
                p99 + rtt,
            ));
        }
        for (kind, samples) in &self.cold {
            let (med, tmr) = paper::cold_observed_ms(*kind);
            rows.push(Comparison::from_summary(
                format!("cold {kind}"),
                &Summary::from_samples(samples),
                med,
                med * tmr,
            ));
        }
        rows
    }

    /// Renders the report: comparison table plus per-series stat lines.
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        body.push('\n');
        let series: Vec<Series> = self
            .warm
            .iter()
            .map(|(k, s)| Series::new(format!("warm-{k}"), s.clone()))
            .chain(self.cold.iter().map(|(k, s)| Series::new(format!("cold-{k}"), s.clone())))
            .collect();
        body.push_str(&render_comparison(&series));
        Report { id: "fig3", title: "Warm and cold invocation latency distributions", body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shapes() {
        let data = measure(300);
        assert_eq!(data.warm.len(), 3);
        assert_eq!(data.cold.len(), 3);
        for (kind, samples) in &data.warm {
            assert_eq!(samples.len(), 300, "{kind}");
        }
        // Cold is an order of magnitude above warm for every provider.
        for ((k, w), (_, c)) in data.warm.iter().zip(&data.cold) {
            let wm = stats::percentile::median(w);
            let cm = stats::percentile::median(c);
            assert!(cm > 5.0 * wm, "{k}: warm {wm:.0} cold {cm:.0}");
        }
        let report = data.report();
        assert!(report.render().contains("warm aws"));
    }
}
