//! Fig 7: storage-based data-transfer latency as a function of payload
//! size (§VI-C2). AWS and Google.

use faas_sim::types::{TransferMode, GB, KB, MB};
use providers::paper::{self, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::transfer_chain;
use stellar_core::runner::SweepRunner;

use crate::experiments::fig6::fmt_bytes;
use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// Payload sweep: 1 KB to 1 GB as in Fig 7.
pub const SIZES: [u64; 7] = [KB, 10 * KB, 100 * KB, MB, 10 * MB, 100 * MB, GB];

/// Providers swept. The paper only measures AWS and Google (Azure had no
/// Go runtime, §VI-C fn.6); the azure-like rows are simulator predictions
/// and render with `-` in the paper columns.
pub const PROVIDERS: [ProviderKind; 3] =
    [ProviderKind::Aws, ProviderKind::Google, ProviderKind::Azure];

/// The providers with paper-reported numbers.
pub const PAPER_PROVIDERS: [ProviderKind; 2] = [ProviderKind::Aws, ProviderKind::Google];

/// Measured data: `(provider, payload_bytes, transfer samples ms)`.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One cell per (provider, size).
    pub cells: Vec<(ProviderKind, u64, Vec<f64>)>,
}

/// Runs the sweep in parallel. Sample counts shrink for the huge payloads
/// (the paper's client would need days of wall-clock for 3000 × 1 GB).
pub fn measure(samples: u32) -> Fig7 {
    let cells: Vec<(ProviderKind, u64)> =
        PROVIDERS.iter().flat_map(|&kind| SIZES.iter().map(move |&bytes| (kind, bytes))).collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, bytes)| {
        let n = if bytes >= 100 * MB { samples.min(500) } else { samples };
        let out = transfer_chain(config_for(kind), TransferMode::Storage, bytes, n, BASE_SEED + 30)
            .expect("storage transfer run");
        (kind, bytes, out.result.transfer_ms())
    });
    Fig7 { cells }
}

impl Fig7 {
    /// Summary for one cell.
    pub fn summary(&self, kind: ProviderKind, bytes: u64) -> Option<Summary> {
        self.cells
            .iter()
            .find(|(k, b, _)| *k == kind && *b == bytes)
            .map(|(_, _, s)| Summary::from_samples(s))
    }

    /// Effective bandwidth, Mb/s (payload / median).
    pub fn effective_bandwidth_mbit(&self, kind: ProviderKind, bytes: u64) -> Option<f64> {
        let median_ms = self.summary(kind, bytes)?.median;
        Some(bytes as f64 * 8.0 / 1e6 / (median_ms / 1000.0))
    }

    /// Paper-vs-measured rows (1 MB is the anchor the paper quotes).
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut rows = Vec::new();
        for (kind, bytes, samples) in &self.cells {
            let (pm, pt) = if *bytes == MB {
                paper::storage_transfer_1mb_ms(*kind)
            } else {
                (f64::NAN, f64::NAN)
            };
            rows.push(Comparison::from_summary(
                format!("{kind} storage {}", fmt_bytes(*bytes)),
                &Summary::from_samples(samples),
                pm,
                pt,
            ));
        }
        rows
    }

    /// Renders the report including the bandwidth lines (§VI-C2: 72→960
    /// and 48→408 Mb/s).
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        body.push('\n');
        for kind in PROVIDERS {
            let (small_t, large_t) = paper::storage_bandwidth_mbit(kind);
            let small = self.effective_bandwidth_mbit(kind, MB).unwrap_or(f64::NAN);
            let large = self.effective_bandwidth_mbit(kind, GB).unwrap_or(f64::NAN);
            body.push_str(&format!(
                "{kind}: effective storage bandwidth {small:.0} Mb/s @1MB (paper {small_t:.0}), \
                 {large:.0} Mb/s @1GB (paper up to {large_t:.0})\n"
            ));
        }
        Report { id: "fig7", title: "Storage-based data-transfer latency vs. payload size", body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_tails_are_the_headline() {
        let data = measure(400);
        for kind in PROVIDERS {
            let s = data.summary(kind, MB).unwrap();
            assert!(s.tmr > 4.0, "{kind} storage TMR {}", s.tmr);
            // Effective bandwidth grows with payload size.
            let bw_small = data.effective_bandwidth_mbit(kind, MB).unwrap();
            let bw_large = data.effective_bandwidth_mbit(kind, 100 * MB).unwrap();
            assert!(bw_large > 3.0 * bw_small, "{kind}: {bw_small:.0} -> {bw_large:.0}");
        }
        // AWS leads on storage latency at 1 MB (§VI-C2).
        let aws = data.summary(ProviderKind::Aws, MB).unwrap().median;
        let google = data.summary(ProviderKind::Google, MB).unwrap().median;
        assert!(aws < google);
        assert!(data.report().render().contains("effective storage bandwidth"));
    }
}
