//! Table I: median-to-base-median (MR) and tail-to-base-median (TR)
//! metrics per studied tail-latency factor across providers (§VII-A).

use faas_sim::types::{DeploymentMethod, Runtime, TransferMode, MB};
use providers::paper::{self, ProviderKind, TableOneRow};
use providers::profiles::config_for;
use stats::metrics::FactorRatios;
use stats::percentile::{sort_samples, sorted_percentile};
use stats::table::{fmt_ratio, TextTable};
use stellar_core::protocols::{
    bursty_invocations, cold_invocations, transfer_chain, warm_invocations, BurstIat, ColdSetup,
};
use stellar_core::runner::SweepRunner;

use crate::report::{Report, BASE_SEED};

/// The factor rows of Table I, in paper order.
pub const FACTORS: [&str; 8] = [
    "Base warm",
    "Base cold",
    "Image size, 100MB",
    "Inline transfer",
    "Storage transfer",
    "Bursty warm",
    "Bursty cold",
    "Bursty long",
];

/// One measured cell: `(mr, tr)`; `None` where the paper reports n/a.
pub type Cell = Option<FactorRatios>;

/// The measured table: `rows[factor][provider]`.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// `cells[f][p]` for factor `f` and provider `p` (paper order).
    pub cells: Vec<[Cell; 3]>,
}

fn provider_column(kind: ProviderKind, samples: u32) -> [Cell; 8] {
    // Every row divides by the same base median, so sort the base once and
    // reuse it instead of re-sorting per factor (7x fewer base sorts).
    let mut base = warm_invocations(config_for(kind), samples, BASE_SEED + 61)
        .expect("warm base")
        .latencies_ms();
    sort_samples(&mut base);
    let base_median = sorted_percentile(&base, 0.5);
    let ratios = |factor: &[f64]| Some(FactorRatios::against_base_median(factor, base_median));

    // Base warm (row 0) normalises to itself; `base` is already sorted.
    let warm = Some(FactorRatios::from_sorted(&base, base_median));

    let cold =
        cold_invocations(config_for(kind), ColdSetup::baseline(), samples, 100, BASE_SEED + 62)
            .expect("cold")
            .latencies_ms();

    let image = cold_invocations(
        config_for(kind),
        ColdSetup {
            runtime: Runtime::Go,
            deployment: DeploymentMethod::Zip,
            extra_image_mb: 100.0,
        },
        samples,
        100,
        BASE_SEED + 63,
    )
    .expect("image")
    .latencies_ms();

    // Transfers: the paper has no Azure chain numbers (no Go runtime).
    let (inline, storage) = if kind == ProviderKind::Azure {
        (None, None)
    } else {
        let inline =
            transfer_chain(config_for(kind), TransferMode::Inline, MB, samples, BASE_SEED + 64)
                .expect("inline")
                .result
                .transfer_ms();
        let storage =
            transfer_chain(config_for(kind), TransferMode::Storage, MB, samples, BASE_SEED + 65)
                .expect("storage")
                .result
                .transfer_ms();
        (ratios(&inline), ratios(&storage))
    };

    let bursty_warm = bursty_invocations(
        config_for(kind),
        BurstIat::Short,
        100,
        0.0,
        samples.max(1000),
        1,
        BASE_SEED + 66,
    )
    .expect("bursty warm")
    .latencies_ms();

    let bursty_cold = bursty_invocations(
        config_for(kind),
        BurstIat::Long,
        100,
        0.0,
        samples.max(1000),
        3,
        BASE_SEED + 67,
    )
    .expect("bursty cold")
    .latencies_ms();

    let bursty_long = bursty_invocations(
        config_for(kind),
        BurstIat::Long,
        100,
        1000.0,
        samples.max(1000),
        3,
        BASE_SEED + 68,
    )
    .expect("bursty long")
    .latencies_ms();

    [
        warm,
        ratios(&cold),
        ratios(&image),
        inline,
        storage,
        ratios(&bursty_warm),
        ratios(&bursty_cold),
        // Footnote 7: subtract the 1 s execution time.
        Some(FactorRatios::minus_exec_against_base_median(&bursty_long, base_median, 1000.0)),
    ]
}

/// Measures the whole table (providers in parallel).
pub fn measure(samples: u32) -> Table1 {
    let columns =
        SweepRunner::default().map(&ProviderKind::ALL, |&kind| provider_column(kind, samples));
    let cells = (0..FACTORS.len()).map(|f| [columns[0][f], columns[1][f], columns[2][f]]).collect();
    Table1 { cells }
}

impl Table1 {
    /// The paper's corresponding row.
    pub fn paper_row(factor_index: usize) -> &'static TableOneRow {
        &paper::TABLE_ONE[factor_index]
    }

    /// Renders measured-vs-paper as one table.
    pub fn report(&self) -> Report {
        let mut table = TextTable::new(vec![
            "factor", "aws MR", "(paper)", "aws TR", "(paper)", "goog MR", "(paper)", "goog TR",
            "(paper)", "azure MR", "(paper)", "azure TR", "(paper)",
        ]);
        for (f, name) in FACTORS.iter().enumerate() {
            let paper_row = Self::paper_row(f);
            let fmt_cell = |cell: &Cell, pick: fn(&FactorRatios) -> f64| match cell {
                Some(r) => fmt_ratio(pick(r)),
                None => "n/a".to_string(),
            };
            let fmt_paper = |v: Option<f64>| match v {
                Some(x) => format!("{x:.0}"),
                None => "n/a".to_string(),
            };
            table.row(vec![
                name.to_string(),
                fmt_cell(&self.cells[f][0], |r| r.mr),
                fmt_paper(Some(paper_row.aws.0)),
                fmt_cell(&self.cells[f][0], |r| r.tr),
                fmt_paper(Some(paper_row.aws.1)),
                fmt_cell(&self.cells[f][1], |r| r.mr),
                fmt_paper(Some(paper_row.google.0)),
                fmt_cell(&self.cells[f][1], |r| r.tr),
                fmt_paper(Some(paper_row.google.1)),
                fmt_cell(&self.cells[f][2], |r| r.mr),
                fmt_paper(paper_row.azure.map(|a| a.0)),
                fmt_cell(&self.cells[f][2], |r| r.tr),
                fmt_paper(paper_row.azure.map(|a| a.1)),
            ]);
        }
        let mut body = table.render();
        body.push_str("\n(*) marks MR/TR > 10, the paper's problematic threshold.\n");
        Report {
            id: "table1",
            title: "MR and TR metrics per tail-latency factor across providers",
            body,
        }
    }

    /// Whether our measured red cells (>10) include all of the paper's
    /// red cells for the rows that can be compared.
    pub fn red_cells_agree(&self) -> bool {
        for (f, row) in paper::TABLE_ONE.iter().enumerate() {
            let paper_cells = [Some(row.aws), Some(row.google), row.azure];
            for (p, paper_cell) in paper_cells.iter().enumerate() {
                let (Some(paper_vals), Some(measured)) = (paper_cell, &self.cells[f][p]) else {
                    continue;
                };
                let paper_red = paper_vals.0 > 10.0 || paper_vals.1 > 10.0;
                // Paper-red cells must measure at least "elevated" (>5):
                // we allow band error but not a vanished effect.
                if paper_red && measured.mr < 5.0 && measured.tr < 5.0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_reproduces_red_cells() {
        let table = measure(500);
        assert_eq!(table.cells.len(), 8);
        assert!(table.red_cells_agree(), "a paper-red cell vanished");
        // Azure transfers are n/a as in the paper.
        assert!(table.cells[3][2].is_none());
        assert!(table.cells[4][2].is_none());
        // Base warm MR is 1 by construction.
        for p in 0..3 {
            let r = table.cells[0][p].unwrap();
            assert!((r.mr - 1.0).abs() < 0.05);
        }
        // Azure "Bursty long" is the most extreme cell (paper: 309/619).
        let azure_long = table.cells[7][2].unwrap();
        assert!(azure_long.mr > 100.0, "azure bursty-long MR {:.0}", azure_long.mr);
        let rendered = table.report().render();
        assert!(rendered.contains("Bursty long"));
        assert!(rendered.contains("n/a"));
    }
}
