//! # stellar-bench — the reproduction harness
//!
//! For every table and figure in the paper's evaluation, this crate holds
//! the code that regenerates it against the simulated providers: workload
//! construction, parameter sweeps, measurement and paper-vs-measured
//! rendering.
//!
//! Run the full reproduction with:
//!
//! ```bash
//! cargo run --release -p stellar-bench --bin reproduce
//! ```
//!
//! or a single artifact, e.g. `--bin fig8`. `--samples N` overrides the
//! per-configuration sample count; a malformed or zero value exits 2 with
//! a message naming the flag ([`report::samples_arg`]). Criterion benches
//! covering the same experiments live under `benches/`.
//!
//! Every multi-cell artifact builds its cell list in report order and runs
//! it on [`stellar_core::runner::SweepRunner::map`], the project's one
//! worker pool: bounded by the machine's core count, results merged in
//! cell order, so an artifact's output does not depend on the core count.

pub mod experiments;
pub mod report;

use providers::profiles::{aws_like, azure_like, google_like};
use report::Report;
use stellar_core::config::{IatSpec, RuntimeConfig};
use stellar_core::runner::{Scenario, SweepGrid};

/// The measurements behind the SVG figures `reproduce --figures` renders,
/// kept from the run that reported them so each is measured once.
pub struct FigureData {
    /// Fig 3 warm and cold latency samples.
    pub fig3: experiments::fig3::Fig3,
    /// Fig 6 inline-transfer cells.
    pub fig6: experiments::fig6::Fig6,
    /// Fig 7 storage-transfer cells.
    pub fig7: experiments::fig7::Fig7,
    /// Fig 9 scheduling-policy cells.
    pub fig9: experiments::fig9::Fig9,
}

/// Runs every experiment at the given sample count and returns the
/// reports in paper order, with the measurements the figures render
/// from. `samples = 3000` matches the paper; smaller values trade
/// fidelity for speed.
pub fn run_all(samples: u32) -> (Vec<Report>, FigureData) {
    let figures = FigureData {
        fig3: experiments::fig3::measure(samples),
        fig6: experiments::fig6::measure(samples),
        fig7: experiments::fig7::measure(samples),
        fig9: experiments::fig9::measure(samples),
    };
    let reports = vec![
        figures.fig3.report(),
        experiments::fig4::measure(samples).report(),
        experiments::fig5::measure(samples).report(),
        figures.fig6.report(),
        figures.fig7.report(),
        experiments::fig8::measure(samples).report(),
        figures.fig9.report(),
        experiments::table1::measure(samples).report(),
        experiments::fig10::measure(experiments::fig10::TRACE_FUNCTIONS).report(),
        experiments::mmpp::measure(samples).report(),
    ];
    (reports, figures)
}

/// The canonical sweep grid used by the `sim/sweep_grid` Criterion group
/// and the cross-thread determinism tests: every calibrated provider
/// crossed with `seeds` consecutive seeds, each cell a warm-invocation
/// workload of `samples` requests at the paper's short IAT.
pub fn provider_seed_grid(samples: u32, seeds: u64) -> SweepGrid {
    let workload = RuntimeConfig::single(IatSpec::short(), samples);
    let scenarios = [aws_like(), google_like(), azure_like()]
        .into_iter()
        .map(|cfg| Scenario::new(cfg.name.clone(), cfg).workload(workload.clone()))
        .collect();
    SweepGrid::new(scenarios, (0..seeds).collect())
}

#[cfg(test)]
mod tests {
    /// Smoke: the full reproduction path runs end to end at a tiny sample
    /// count and yields all ten report sections in paper order.
    #[test]
    fn run_all_produces_every_artifact() {
        let (reports, _) = super::run_all(60);
        let ids: Vec<&str> = reports.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec!["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "fig10", "mmpp"]
        );
        for report in &reports {
            assert!(!report.body.is_empty(), "{} has an empty body", report.id);
        }
    }

    #[test]
    fn provider_seed_grid_covers_all_providers() {
        let grid = super::provider_seed_grid(20, 4);
        assert_eq!(grid.len(), 12);
        let labels: Vec<&str> = grid.scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["aws-like", "google-like", "azure-like"]);
    }
}
