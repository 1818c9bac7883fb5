//! Acceptance check for sketch-mode quantiles on the figure-pipeline
//! workloads: for each protocol shape the paper's figures are built from
//! (warm §VI-A, cold §VI-B, bursty §VI-D), a sketch-mode run's p50/p99
//! must land within the documented rank-error bound of the exact
//! percentiles — at a sample count where the t-digest is genuinely
//! sketching, not in its exact-mode fallback. The figure-parity half
//! checks that every row of the quantile CSV the CDF figures plot, which
//! answers from the same sketch, stays within the same bound.

use providers::profiles::{aws_like, google_like};
use stats::percentile::{sort_samples, sorted_percentile};
use stellar_core::client::MeasureSpec;
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::Experiment;
use stellar_core::protocols::{BURST_ROUND_IAT_MS, LONG_IAT_MS, SHORT_IAT_MS};
use stellar_core::visualize::{export_cdf_csv, Series};

/// Past the sketch's exact threshold (1024) so compression engages.
const SAMPLES: u32 = 3000;

/// Runs `base` in exact and sketch mode (identical seeds → identical
/// latency streams) and asserts the sketch's p50/p99 fall within
/// `rank_error_bound` of the exact distribution.
fn assert_parity(label: &str, base: &Experiment) {
    let exact = base.clone().run().expect("exact run");
    let mut sorted = exact.latencies_ms();
    sort_samples(&mut sorted);

    let sketched = base.clone().measure(MeasureSpec::sketch()).run().expect("sketch run");
    let mut agg = sketched.result.latency_agg.clone();
    assert_eq!(agg.count() as usize, sorted.len(), "{label}: sample counts diverged");
    assert!(agg.sketch().is_sketching(), "{label}: not actually sketching at {SAMPLES} samples");

    for q in [0.5, 0.99] {
        let est = agg.quantile(q);
        let eps = agg.rank_error_bound(q);
        let lo = sorted_percentile(&sorted, (q - eps).max(0.0));
        let hi = sorted_percentile(&sorted, (q + eps).min(1.0));
        assert!(
            est >= lo - 1e-9 && est <= hi + 1e-9,
            "{label} q={q}: sketch {est} outside exact window [{lo}, {hi}] (eps {eps})"
        );
    }
}

/// Figure check: the quantile CSV the CDF figures plot, answered from
/// the sketch, must reproduce the exact distribution within the
/// documented rank-error bound.
fn assert_figure_parity(label: &str, base: &Experiment) {
    let exact = base.clone().run().expect("exact run");
    let mut sorted = exact.latencies_ms();
    sort_samples(&mut sorted);

    let sketched = base.clone().measure(MeasureSpec::sketch()).run().expect("sketch run");
    let agg = sketched.result.latency_agg.clone();
    assert!(agg.sketch().is_sketching(), "{label}: fixture too small to sketch");

    // Every row of the sketch-derived quantile CSV must land inside the
    // exact distribution's rank-error window (the CSV prints 3 decimals,
    // so that rounding rides on top).
    let csv = export_cdf_csv(&[Series::from_agg(label, agg.clone())], 101);
    for line in csv.lines().skip(1) {
        let mut fields = line.split(',').skip(1);
        let q: f64 = fields.next().expect("quantile field").parse().expect("q parses");
        let value: f64 = fields.next().expect("latency field").parse().expect("value parses");
        let eps = agg.rank_error_bound(q);
        let lo = sorted_percentile(&sorted, (q - eps).max(0.0));
        let hi = sorted_percentile(&sorted, (q + eps).min(1.0));
        assert!(
            value >= lo - 2e-3 && value <= hi + 2e-3,
            "{label} CSV q={q}: {value} outside exact window [{lo:.4}, {hi:.4}] (eps {eps:.4})"
        );
    }
}

#[test]
fn warm_workload_sketch_matches_exact() {
    // Mirrors protocols::warm_invocations (fig3/fig8 base).
    let runtime = RuntimeConfig {
        iat: IatSpec::Fixed { ms: SHORT_IAT_MS },
        burst_size: 1,
        samples: SAMPLES,
        warmup_rounds: 1,
        exec_ms: 0.0,
        chain: None,
        workload: None,
        policy: None,
        faults: None,
    };
    let base = Experiment::new(aws_like())
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("warm")] })
        .workload(runtime)
        .seed(41);
    assert_parity("warm", &base);
    assert_figure_parity("warm", &base);
}

#[test]
fn cold_workload_sketch_matches_exact() {
    // Mirrors protocols::cold_invocations (fig3/fig4): 100 replicas
    // round-robined so each sees the long IAT.
    let replicas = 100;
    let runtime = RuntimeConfig {
        iat: IatSpec::Fixed { ms: LONG_IAT_MS / f64::from(replicas) },
        burst_size: 1,
        samples: SAMPLES,
        warmup_rounds: 0,
        exec_ms: 0.0,
        chain: None,
        workload: None,
        policy: None,
        faults: None,
    };
    let function = StaticFunction::python_zip("cold").with_replicas(replicas);
    let base = Experiment::new(google_like())
        .functions(StaticConfig { functions: vec![function] })
        .workload(runtime)
        .seed(42);
    assert_parity("cold", &base);
    assert_figure_parity("cold", &base);
}

#[test]
fn bursty_workload_sketch_matches_exact() {
    // Mirrors protocols::bursty_invocations with BurstIat::Short
    // (fig8/fig9): 100-request bursts against one warm fleet. The heavy
    // cold/warm bimodality is the distribution shape sketches find
    // hardest, which is exactly why it is pinned here.
    let runtime = RuntimeConfig {
        iat: IatSpec::Fixed { ms: BURST_ROUND_IAT_MS },
        burst_size: 100,
        samples: SAMPLES,
        warmup_rounds: 2,
        exec_ms: 0.0,
        chain: None,
        workload: None,
        policy: None,
        faults: None,
    };
    let base = Experiment::new(aws_like())
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("burst")] })
        .workload(runtime)
        .seed(43);
    assert_parity("bursty", &base);
    assert_figure_parity("bursty", &base);
}
