//! Fig 9: scheduling-policy implications — 1-second functions, long IAT,
//! burst sizes 1 and 100 (§VI-D3, Obs 7).

use providers::paper::{self, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::{bursty_invocations, BurstIat};
use stellar_core::runner::SweepRunner;

use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// The function execution time the paper fixes (median Azure-trace
/// function, §VI-D3).
pub const EXEC_MS: f64 = 1000.0;

/// Measured data: `(provider, burst, samples)`.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One cell per (provider, burst size).
    pub cells: Vec<(ProviderKind, u32, Vec<f64>)>,
}

/// Runs the four-cell grid in parallel.
pub fn measure(samples: u32) -> Fig9 {
    let cells: Vec<(ProviderKind, u32)> = ProviderKind::ALL
        .iter()
        .flat_map(|&kind| [1u32, 100].into_iter().map(move |b| (kind, b)))
        .collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, burst)| {
        let n = samples.max(burst * 10);
        let out = bursty_invocations(
            config_for(kind),
            BurstIat::Long,
            burst,
            EXEC_MS,
            n,
            3,
            BASE_SEED + 50 + burst as u64,
        )
        .expect("fig9 run");
        (kind, burst, out.latencies_ms())
    });
    Fig9 { cells }
}

impl Fig9 {
    /// Summary for one cell.
    pub fn summary(&self, kind: ProviderKind, burst: u32) -> Option<Summary> {
        self.cells
            .iter()
            .find(|(k, b, _)| *k == kind && *b == burst)
            .map(|(_, _, s)| Summary::from_samples(s))
    }

    /// Paper-vs-measured rows (burst 100 values quoted in §VI-D3).
    pub fn comparisons(&self) -> Vec<Comparison> {
        self.cells
            .iter()
            .map(|(kind, burst, samples)| {
                let (pm, pt) = if *burst == 100 {
                    paper::fig9_burst100_ms(*kind)
                } else {
                    (f64::NAN, f64::NAN)
                };
                Comparison::from_summary(
                    format!("{kind} exec1s b{burst}"),
                    &Summary::from_samples(samples),
                    pm,
                    pt,
                )
            })
            .collect()
    }

    /// Renders the report with the queue-depth interpretation the paper
    /// draws from these numbers.
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        body.push('\n');
        for kind in ProviderKind::ALL {
            if let Some(s) = self.summary(kind, 100) {
                // Max requests that waited behind others ~ p99 minus the
                // cold start, in units of the 1 s execution.
                let depth = ((s.tail - 1000.0) / 1000.0).max(0.0);
                body.push_str(&format!(
                    "{kind}: implied p99 queue depth ≈ {depth:.1} executions\n"
                ));
            }
        }
        Report {
            id: "fig9",
            title: "Scheduling policy under 1 s functions (queue-at-instance)",
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_separation_is_orders_of_magnitude() {
        let data = measure(600);
        let aws = data.summary(ProviderKind::Aws, 100).unwrap();
        let google = data.summary(ProviderKind::Google, 100).unwrap();
        let azure = data.summary(ProviderKind::Azure, 100).unwrap();
        // AWS: nobody queues; everything within ~cold + 1 exec.
        assert!(aws.tail < 3000.0, "aws p99 {}", aws.tail);
        // Google: bounded queueing (≤4).
        assert!(google.median > aws.median);
        assert!(google.tail < 9000.0, "google p99 {}", google.tail);
        // Azure: deep queueing, tens of seconds.
        assert!(azure.median > 10_000.0, "azure median {}", azure.median);
        assert!(azure.tail > 20_000.0, "azure p99 {}", azure.tail);
        // Burst-1 curves are close to each other vs the burst-100 spread.
        let aws1 = data.summary(ProviderKind::Aws, 1).unwrap();
        let azure1 = data.summary(ProviderKind::Azure, 1).unwrap();
        assert!(azure1.median / aws1.median < 3.0, "no queuing potential at burst 1");
        assert!(data.report().render().contains("queue depth"));
    }
}
