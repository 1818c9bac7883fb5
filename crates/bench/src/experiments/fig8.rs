//! Fig 8: latency CDFs for bursts arriving with short and long IATs at
//! different burst sizes (§VI-D1, §VI-D2).

use providers::paper::{self, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::{bursty_invocations, BurstIat};
use stellar_core::runner::SweepRunner;

use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// Burst sizes swept (1 = individual invocations, as in Fig 3).
pub const BURSTS: [u32; 4] = [1, 100, 300, 500];

/// Replica count for long-IAT bursts: 3 functions × 10 rounds reproduces
/// the paper's 30 bursts per configuration.
pub const LONG_REPLICAS: u32 = 3;

/// Measured data: `(provider, iat, burst, samples)`.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One cell per (provider, regime, burst size).
    pub cells: Vec<(ProviderKind, BurstIat, u32, Vec<f64>)>,
}

/// Runs the full grid (3 providers × 2 regimes × burst sizes) in parallel.
pub fn measure(samples: u32) -> Fig8 {
    let cells: Vec<(ProviderKind, BurstIat, u32)> = ProviderKind::ALL
        .iter()
        .flat_map(|&kind| {
            [BurstIat::Short, BurstIat::Long]
                .into_iter()
                .flat_map(move |iat| BURSTS.iter().map(move |&b| (kind, iat, b)))
        })
        .collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, iat, burst)| {
        // Keep round counts sensible: at least 10 rounds per
        // configuration, at most `samples` per cell for burst 1.
        let n = samples.max(burst * 10);
        let out = bursty_invocations(
            config_for(kind),
            iat,
            burst,
            0.0,
            n,
            LONG_REPLICAS,
            BASE_SEED + 40 + burst as u64,
        )
        .expect("burst run");
        (kind, iat, burst, out.latencies_ms())
    });
    Fig8 { cells }
}

impl Fig8 {
    /// Summary for one cell.
    pub fn summary(&self, kind: ProviderKind, iat: BurstIat, burst: u32) -> Option<Summary> {
        self.cells
            .iter()
            .find(|(k, i, b, _)| *k == kind && *i == iat && *b == burst)
            .map(|(_, _, _, s)| Summary::from_samples(s))
    }

    /// Paper-vs-measured rows. The paper gives explicit values for
    /// Google's long-IAT bursts and Table I ratios at burst 100.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut rows = Vec::new();
        for (kind, iat, burst, samples) in &self.cells {
            let base = paper::warm_base_observed_ms(*kind);
            let (pm, pt) = match (iat, *burst) {
                (BurstIat::Short, 100) => {
                    // Table I "Bursty warm" row.
                    let (mr, tr) = match kind {
                        ProviderKind::Aws => (2.0, 11.0),
                        ProviderKind::Google => (3.0, 5.0),
                        ProviderKind::Azure => (5.0, 41.0),
                    };
                    (mr * base, tr * base)
                }
                (BurstIat::Short, 500) if *kind == ProviderKind::Azure => {
                    // §VI-D1: 33.4× median, 98.5× tail.
                    (33.4 * base, 98.5 * base)
                }
                (BurstIat::Long, 100) => {
                    let (mr, tr) = match kind {
                        ProviderKind::Aws => (6.0, 12.0),
                        ProviderKind::Google => (59.0, 100.0),
                        ProviderKind::Azure => (41.0, 58.0),
                    };
                    (mr * base, tr * base)
                }
                (BurstIat::Long, 1) => {
                    let (m, tmr) = paper::cold_observed_ms(*kind);
                    (m, m * tmr)
                }
                _ => (f64::NAN, f64::NAN),
            };
            let regime = match iat {
                BurstIat::Short => "short",
                BurstIat::Long => "long",
            };
            rows.push(Comparison::from_summary(
                format!("{kind} {regime} b{burst}"),
                &Summary::from_samples(samples),
                pm,
                pt,
            ));
        }
        rows
    }

    /// Renders the report with the headline shape facts.
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        body.push('\n');
        // Shape callouts from §VI-D.
        if let (Some(a1), Some(a100)) = (
            self.summary(ProviderKind::Aws, BurstIat::Long, 1),
            self.summary(ProviderKind::Aws, BurstIat::Long, 100),
        ) {
            body.push_str(&format!(
                "aws long-IAT: burst100/burst1 median = {:.2}x (paper 1/1.8x = 0.56x: bursts get FASTER)\n",
                a100.median / a1.median
            ));
        }
        if let (Some(g100), Some(g500)) = (
            self.summary(ProviderKind::Google, BurstIat::Short, 100),
            self.summary(ProviderKind::Google, BurstIat::Short, 500),
        ) {
            body.push_str(&format!(
                "google short-IAT: |median(500)-median(100)| = {:.0} ms (paper: within 15 ms)\n",
                (g500.median - g100.median).abs()
            ));
        }
        if let (Some(z1), Some(z500)) = (
            self.summary(ProviderKind::Azure, BurstIat::Short, 1),
            self.summary(ProviderKind::Azure, BurstIat::Short, 500),
        ) {
            body.push_str(&format!(
                "azure short-IAT: burst500/burst1 median = {:.1}x (paper 33.4x)\n",
                z500.median / z1.median
            ));
        }
        Report { id: "fig8", title: "Burst latency CDFs for short and long IATs", body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_shape_facts() {
        let data = measure(600);
        // Azure explodes with burst size under short IAT.
        let z1 = data.summary(ProviderKind::Azure, BurstIat::Short, 1).unwrap();
        let z500 = data.summary(ProviderKind::Azure, BurstIat::Short, 500).unwrap();
        assert!(z500.median > 15.0 * z1.median, "azure {:.0} -> {:.0}", z1.median, z500.median);
        // AWS long-IAT bursts are faster than individual colds.
        let a1 = data.summary(ProviderKind::Aws, BurstIat::Long, 1).unwrap();
        let a100 = data.summary(ProviderKind::Aws, BurstIat::Long, 100).unwrap();
        assert!(a100.median < a1.median);
        // Google long-IAT bursts are slower than individual colds.
        let g1 = data.summary(ProviderKind::Google, BurstIat::Long, 1).unwrap();
        let g100 = data.summary(ProviderKind::Google, BurstIat::Long, 100).unwrap();
        assert!(g100.median > g1.median);
        assert!(data.report().render().contains("FASTER"));
    }
}
