//! Runs the complete reproduction — every table and figure of the paper's
//! evaluation — and prints the paper-vs-measured reports in order.
//!
//! `--samples N` overrides the per-configuration sample count (default
//! 3000, as in the paper §V). `--figures DIR` additionally renders SVG
//! versions of the headline CDF figures into `DIR`. The output of this
//! binary is the source of `EXPERIMENTS.md`.

use std::time::Instant;

use stats::svg::{SvgLine, SvgLineChart, SvgPlot, SvgSeries};

fn arg_after(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

fn main() {
    let samples = bench::report::samples_arg();
    println!("# STeLLAR reproduction — paper vs measured");
    println!();
    println!(
        "{} samples per configuration; providers: aws-like, google-like, azure-like.",
        samples
    );
    println!();
    let start = Instant::now();
    let (reports, figures) = bench::run_all(samples);
    for report in reports {
        println!("{}", report.render());
    }
    println!("{}", bench::experiments::ablation::report(bench::report::BASE_SEED).render());
    println!("{}", bench::experiments::keepalive::report(bench::report::BASE_SEED).render());

    if let Some(dir) = arg_after("--figures") {
        write_figures(&dir, &figures);
        eprintln!("figures written to {dir}/");
    }
    eprintln!("total wall-clock: {:.1?}", start.elapsed());
}

/// Renders Fig 3 (warm/cold CDFs), Figs 6a/7a (transfer latency vs
/// payload) and Fig 9 (policy CDFs) as SVG files from the measurements
/// the reports came from.
fn write_figures(dir: &str, figures: &bench::FigureData) {
    std::fs::create_dir_all(dir).expect("create figure directory");
    let fig3 = &figures.fig3;
    let warm: Vec<SvgSeries> =
        fig3.warm.iter().map(|(kind, s)| SvgSeries::new(kind.label(), s.clone())).collect();
    std::fs::write(
        format!("{dir}/fig3a_warm.svg"),
        SvgPlot::cdf("Fig 3a: warm invocations").render(&warm),
    )
    .expect("write fig3a");
    let cold: Vec<SvgSeries> =
        fig3.cold.iter().map(|(kind, s)| SvgSeries::new(kind.label(), s.clone())).collect();
    std::fs::write(
        format!("{dir}/fig3b_cold.svg"),
        SvgPlot::cdf("Fig 3b: cold invocations").render(&cold),
    )
    .expect("write fig3b");

    // Figs 6a/7a: median (solid) and tail (dashed) vs payload, log-log.
    for (name, title, cells) in [
        ("fig6a_inline", "Fig 6a: inline transfer latency vs payload", &figures.fig6.cells),
        ("fig7a_storage", "Fig 7a: storage transfer latency vs payload", &figures.fig7.cells),
    ] {
        let mut lines = Vec::new();
        for kind in [providers::paper::ProviderKind::Aws, providers::paper::ProviderKind::Google] {
            let mut medians = Vec::new();
            let mut tails = Vec::new();
            for (k, bytes, samples) in cells {
                if *k == kind {
                    let s = stats::Summary::from_samples(samples);
                    medians.push((*bytes as f64 / 1000.0, s.median));
                    tails.push((*bytes as f64 / 1000.0, s.tail));
                }
            }
            medians.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sizes"));
            tails.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sizes"));
            lines.push(SvgLine::new(format!("{kind} median"), medians));
            lines.push(SvgLine::new(format!("{kind} p99"), tails).dashed());
        }
        std::fs::write(
            format!("{dir}/{name}.svg"),
            SvgLineChart::log_log(title, "payload (KB)", "latency (ms)").render(&lines),
        )
        .expect("write transfer figure");
    }

    let series: Vec<SvgSeries> = figures
        .fig9
        .cells
        .iter()
        .filter(|(_, burst, _)| *burst == 100)
        .map(|(kind, _, s)| SvgSeries::new(format!("{kind} b100"), s.clone()))
        .collect();
    std::fs::write(
        format!("{dir}/fig9_policy.svg"),
        SvgPlot::cdf("Fig 9: 1s functions, burst 100, long IAT").render(&series),
    )
    .expect("write fig9");
}
