//! Fig 4: cold-start latency as a function of the extra random-content
//! file added to the function image (§VI-B2).

use faas_sim::types::{DeploymentMethod, Runtime};
use providers::paper::{self, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::{cold_invocations, ColdSetup};
use stellar_core::runner::SweepRunner;

use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// The extra-file sizes the paper sweeps.
pub const SIZES_MB: [f64; 2] = [10.0, 100.0];

/// Measured data behind Fig 4: `(provider, extra_mb, samples)`.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One cell per (provider, size).
    pub cells: Vec<(ProviderKind, f64, Vec<f64>)>,
}

/// Runs the sweep (providers in parallel, Go + ZIP as in the paper).
pub fn measure(samples: u32) -> Fig4 {
    let cells: Vec<(ProviderKind, f64)> = ProviderKind::ALL
        .iter()
        .flat_map(|&kind| SIZES_MB.iter().map(move |&mb| (kind, mb)))
        .collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, mb)| {
        let setup = ColdSetup {
            runtime: Runtime::Go,
            deployment: DeploymentMethod::Zip,
            extra_image_mb: mb,
        };
        let out =
            cold_invocations(config_for(kind), setup, samples, 100, BASE_SEED + 3 + mb as u64)
                .expect("image-size run");
        (kind, mb, out.latencies_ms())
    });
    Fig4 { cells }
}

impl Fig4 {
    /// Summary of one cell.
    pub fn summary(&self, kind: ProviderKind, mb: f64) -> Option<Summary> {
        self.cells
            .iter()
            .find(|(k, m, _)| *k == kind && *m == mb)
            .map(|(_, _, samples)| Summary::from_samples(samples))
    }

    /// Median sensitivity: `median(100MB) / median(10MB)` per provider.
    pub fn sensitivity(&self, kind: ProviderKind) -> Option<f64> {
        let m10 = self.summary(kind, 10.0)?.median;
        let m100 = self.summary(kind, 100.0)?.median;
        Some(m100 / m10)
    }

    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut rows = Vec::new();
        for (kind, mb, samples) in &self.cells {
            let (m10, m100, t100) = paper::image_size_observed_ms(*kind);
            let (pm, pt) = if *mb == 10.0 { (m10, f64::NAN) } else { (m100, t100) };
            rows.push(Comparison::from_summary(
                format!("{kind} +{mb}MB"),
                &Summary::from_samples(samples),
                pm,
                pt,
            ));
        }
        rows
    }

    /// Renders the report including the sensitivity line the paper calls
    /// out (Google flat; AWS/Azure steep).
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        body.push('\n');
        for kind in ProviderKind::ALL {
            if let Some(s) = self.sensitivity(kind) {
                body.push_str(&format!("{kind}: median(100MB)/median(10MB) = {s:.2}x\n"));
            }
        }
        Report { id: "fig4", title: "Cold-start latency vs. function image size", body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_flat_aws_azure_steep() {
        let data = measure(400);
        assert_eq!(data.cells.len(), 6);
        let google = data.sensitivity(ProviderKind::Google).unwrap();
        let aws = data.sensitivity(ProviderKind::Aws).unwrap();
        let azure = data.sensitivity(ProviderKind::Azure).unwrap();
        assert!(google < 1.2, "google sensitivity {google:.2}");
        assert!(aws > 2.0, "aws sensitivity {aws:.2}");
        assert!(azure > 1.8, "azure sensitivity {azure:.2}");
        assert!(data.report().render().contains("median(100MB)"));
    }
}
