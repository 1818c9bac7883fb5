//! Fig 6: inline data-transfer latency as a function of payload size
//! (§VI-C1). AWS and Google only (Azure had no Go runtime in the paper).

use faas_sim::types::{TransferMode, KB, MB};
use providers::paper::{self, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::transfer_chain;
use stellar_core::runner::SweepRunner;

use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// Payload sweep (bytes): 1 KB to 4 MB as plotted, capped by each
/// provider's request size limit.
pub const SIZES: [u64; 5] = [KB, 10 * KB, 100 * KB, MB, 4 * MB];

/// Providers swept. The paper only measures AWS and Google (Azure had no
/// Go runtime, §VI-C fn.6); the azure-like rows are simulator predictions
/// and render with `-` in the paper columns.
pub const PROVIDERS: [ProviderKind; 3] =
    [ProviderKind::Aws, ProviderKind::Google, ProviderKind::Azure];

/// The providers with paper-reported numbers.
pub const PAPER_PROVIDERS: [ProviderKind; 2] = [ProviderKind::Aws, ProviderKind::Google];

/// Measured data: `(provider, payload_bytes, transfer samples ms)`.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// One cell per (provider, size).
    pub cells: Vec<(ProviderKind, u64, Vec<f64>)>,
}

/// Runs the sweep in parallel.
pub fn measure(samples: u32) -> Fig6 {
    let cells: Vec<(ProviderKind, u64)> =
        PROVIDERS.iter().flat_map(|&kind| SIZES.iter().map(move |&bytes| (kind, bytes))).collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, bytes)| {
        let out =
            transfer_chain(config_for(kind), TransferMode::Inline, bytes, samples, BASE_SEED + 20)
                .expect("inline transfer run");
        (kind, bytes, out.result.transfer_ms())
    });
    Fig6 { cells }
}

impl Fig6 {
    /// Summary for one cell.
    pub fn summary(&self, kind: ProviderKind, bytes: u64) -> Option<Summary> {
        self.cells
            .iter()
            .find(|(k, b, _)| *k == kind && *b == bytes)
            .map(|(_, _, s)| Summary::from_samples(s))
    }

    /// Effective bandwidth in Mb/s at `bytes` (payload / median).
    pub fn effective_bandwidth_mbit(&self, kind: ProviderKind, bytes: u64) -> Option<f64> {
        let median_ms = self.summary(kind, bytes)?.median;
        Some(bytes as f64 * 8.0 / 1e6 / (median_ms / 1000.0))
    }

    /// Paper-vs-measured rows (paper values where Fig 6 reports them).
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut rows = Vec::new();
        for (kind, bytes, samples) in &self.cells {
            let paper_med = paper::inline_transfer_points(*kind)
                .iter()
                .find(|(b, _)| b == bytes)
                .map_or(f64::NAN, |&(_, m)| m);
            let paper_p99 =
                if *bytes == MB { paper_med * paper::inline_tmr_1mb(*kind) } else { f64::NAN };
            rows.push(Comparison::from_summary(
                format!("{kind} inline {}", fmt_bytes(*bytes)),
                &Summary::from_samples(samples),
                paper_med,
                paper_p99,
            ));
        }
        rows
    }

    /// Renders the report with the effective-bandwidth line (§VI-C1:
    /// 264 / 152 Mb/s).
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        body.push('\n');
        for kind in PROVIDERS {
            if let Some(bw) = self.effective_bandwidth_mbit(kind, 4 * MB) {
                let target = match kind {
                    ProviderKind::Aws => 264.0,
                    ProviderKind::Google => 152.0,
                    ProviderKind::Azure => f64::NAN,
                };
                body.push_str(&format!(
                    "{kind}: effective inline bandwidth at 4MB = {bw:.0} Mb/s (paper {target:.0})\n"
                ));
            }
        }
        Report { id: "fig6", title: "Inline data-transfer latency vs. payload size", body }
    }
}

/// Formats a byte count the way the paper's axes do.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1_000_000_000 {
        format!("{}GB", bytes / 1_000_000_000)
    } else if bytes >= MB {
        format!("{}MB", bytes / MB)
    } else if bytes >= KB {
        format!("{}KB", bytes / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_payload_and_stays_predictable() {
        let data = measure(300);
        for kind in PROVIDERS {
            let small = data.summary(kind, KB).unwrap();
            let large = data.summary(kind, 4 * MB).unwrap();
            assert!(large.median > 5.0 * small.median, "{kind}");
            // Obs 4: inline transfers are predictable.
            assert!(large.tmr < 2.5, "{kind} inline TMR {}", large.tmr);
        }
        // Google wins small payloads; AWS wins large ones.
        let g1 = data.summary(ProviderKind::Google, KB).unwrap().median;
        let a1 = data.summary(ProviderKind::Aws, KB).unwrap().median;
        assert!(g1 < a1);
        let g4 = data.summary(ProviderKind::Google, 4 * MB).unwrap().median;
        let a4 = data.summary(ProviderKind::Aws, 4 * MB).unwrap().median;
        assert!(a4 < g4);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(1_000), "1KB");
        assert_eq!(fmt_bytes(4_000_000), "4MB");
        assert_eq!(fmt_bytes(1_000_000_000), "1GB");
        assert_eq!(fmt_bytes(17), "17B");
    }
}
