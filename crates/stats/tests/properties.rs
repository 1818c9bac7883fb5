//! Property-based tests of the statistics crate.

use proptest::prelude::*;
use stats::bootstrap::bootstrap_ci;
use stats::cdf::Cdf;
use stats::ks::{ks_critical, ks_statistic};
use stats::metrics::FactorRatios;
use stats::percentile::{median, percentile, sort_samples, sorted_percentile, RunningQuantile};
use stats::sketch::{QuantileSketch, DEFAULT_EXACT_THRESHOLD};
use stats::summary::Summary;

fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e6, 1..300)
}

proptest! {
    /// Percentiles are monotone in q and bounded by min/max.
    #[test]
    fn percentile_monotone_and_bounded(xs in samples_strategy(), qs in prop::collection::vec(0.0f64..=1.0, 2..10)) {
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = percentile(&xs, q);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prop_assert!(v >= last);
            last = v;
        }
        prop_assert_eq!(percentile(&xs, 0.0), lo);
        prop_assert_eq!(percentile(&xs, 1.0), hi);
    }

    /// percentile() equals sorted_percentile() on pre-sorted data.
    #[test]
    fn percentile_agrees_with_sorted(xs in samples_strategy(), q in 0.0f64..=1.0) {
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(percentile(&xs, q), sorted_percentile(&sorted, q));
    }

    /// Summary quantiles are ordered and the mean sits within [min, max].
    #[test]
    fn summary_ordering(xs in samples_strategy()) {
        let s = Summary::from_samples(&xs);
        prop_assert!(s.min <= s.p25);
        prop_assert!(s.p25 <= s.median);
        prop_assert!(s.median <= s.p75);
        prop_assert!(s.p75 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.tail);
        prop_assert!(s.tail <= s.p999 && s.p999 <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
        prop_assert_eq!(s.count, xs.len());
    }

    /// A CDF evaluates to [0,1], is monotone, and inverts its quantiles.
    #[test]
    fn cdf_properties(xs in samples_strategy(), q in 0.01f64..=0.99) {
        let cdf = Cdf::from_samples(&xs);
        let v = cdf.quantile(q);
        let f = cdf.eval(v);
        // At least a q-fraction of mass lies at or below the q-quantile.
        prop_assert!(f >= q - 1.0 / xs.len() as f64 - 1e-9, "q={q} f={f}");
        prop_assert!(cdf.eval(f64::NEG_INFINITY) == 0.0);
        prop_assert!((cdf.eval(f64::INFINITY) - 1.0).abs() < 1e-12);
        // Monotone in x.
        let lo = cdf.eval(v - 1.0);
        prop_assert!(lo <= f + 1e-12);
    }

    /// KS distance is within [0, 1], symmetric, and zero against itself.
    #[test]
    fn ks_bounds(a in samples_strategy(), b in samples_strategy()) {
        let d = ks_statistic(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(d, ks_statistic(&b, &a));
        prop_assert_eq!(ks_statistic(&a, &a), 0.0);
        prop_assert!(ks_critical(a.len(), b.len(), 0.05) > 0.0);
    }

    /// Bin-count views derived from the sketch conserve mass: summing
    /// rank-below differences over a log-spaced grid plus the under/over
    /// range ranks accounts for every recorded sample. (This is the
    /// primitive the retired histogram shim was built on; below the exact
    /// threshold the ranks are exact counts, not estimates.)
    #[test]
    fn sketch_bin_counts_conserve_mass(xs in prop::collection::vec(0.001f64..1e7, 1..200), bins in 1usize..30) {
        let (lo, hi) = (1.0f64, 1e6f64);
        let mut s = QuantileSketch::new();
        for &x in &xs { s.record(x); }
        prop_assert_eq!(s.count(), xs.len() as u64);
        let ratio = (hi / lo).powf(1.0 / bins as f64);
        let mut binned = 0.0;
        for i in 0..bins {
            let e_lo = lo * ratio.powi(i as i32);
            let e_hi = if i + 1 == bins { hi } else { lo * ratio.powi(i as i32 + 1) };
            binned += s.rank_below(e_hi) - s.rank_below(e_lo);
        }
        let underflow = s.rank_below(lo);
        let overflow = s.count() as f64 - s.rank_below(hi);
        prop_assert!(
            (binned + underflow + overflow - xs.len() as f64).abs() < 1e-6,
            "binned={binned} under={underflow} over={overflow} n={}", xs.len()
        );
    }

    /// A recorded value is visible to rank queries exactly where it sits:
    /// `rank_below` jumps by one across the value and the CDF brackets it,
    /// so any bin whose edges contain the value counts it.
    #[test]
    fn sketch_rank_brackets_recorded_value(
        v in 0.001f64..1e7,
        others in prop::collection::vec(0.001f64..1e7, 0..100),
    ) {
        let mut s = QuantileSketch::new();
        s.record(v);
        for &x in &others { s.record(x); }
        let below = s.rank_below(v);
        let above = s.rank_below(v * (1.0 + 1e-12) + f64::MIN_POSITIVE);
        prop_assert!(above >= below + 1.0 - 1e-9, "below={below} above={above}");
        prop_assert!(s.cdf(v) > 0.0);
        prop_assert!(s.min() <= v && v <= s.max());
    }

    /// Factor ratios: MR/TR scale linearly when the factor scales.
    #[test]
    fn factor_ratios_scale(base in prop::collection::vec(1.0f64..100.0, 10..50), k in 1.0f64..20.0) {
        let factor: Vec<f64> = base.iter().map(|x| x * k).collect();
        let r = FactorRatios::compute(&factor, &base);
        let m = median(&base);
        prop_assert!((r.mr - k * median(&base) / m).abs() < 1e-9);
        prop_assert!(r.tr >= r.mr - 1e-9, "p99 >= median implies TR >= MR");
    }

    /// RunningQuantile reads back the exact type-7 quantile of every
    /// prefix, bit for bit: heavy ties (a handful of integer values)
    /// mixed with continuous draws, so samples land above, below and on
    /// the current heap tops, from n = 1 up.
    #[test]
    fn running_quantile_matches_sorted_percentile(
        xs in prop::collection::vec(
            prop_oneof![(0u8..6).prop_map(f64::from), -1e3f64..1e6],
            1..150,
        )
    ) {
        let qs = [0.0, 0.5, 0.95, 0.99, 1.0];
        let mut running: Vec<RunningQuantile> = qs.iter().map(|&q| RunningQuantile::new(q)).collect();
        for n in 1..=xs.len() {
            let mut sorted = xs[..n].to_vec();
            sort_samples(&mut sorted);
            for (r, &q) in running.iter_mut().zip(&qs) {
                r.record(xs[n - 1]);
                prop_assert_eq!(r.count(), n);
                prop_assert_eq!(
                    r.value().to_bits(),
                    sorted_percentile(&sorted, q).to_bits(),
                    "q={} n={}", q, n
                );
            }
        }
    }

    /// Bootstrap CIs bracket their point estimate.
    #[test]
    fn bootstrap_brackets_estimate(xs in prop::collection::vec(0.0f64..1000.0, 5..80), seed in any::<u64>()) {
        let ci = bootstrap_ci(&xs, median, 60, 0.1, seed);
        prop_assert!(ci.lo <= ci.estimate + 1e-9);
        prop_assert!(ci.estimate <= ci.hi + 1e-9);
        prop_assert!(ci.contains(ci.estimate));
    }
}

/// Below the sketch's exact threshold, `QuantileSketch::quantile` and
/// `RunningQuantile::value` are the same type-7 quantile: the policy
/// driver swapped one for the other without moving a small run's bits.
#[test]
fn running_quantile_matches_exact_mode_sketch() {
    let qs = [0.0, 0.5, 0.9, 0.95, 0.99, 1.0];
    let mut sketch = QuantileSketch::new();
    let mut running: Vec<RunningQuantile> =
        qs.iter().map(|&q| RunningQuantile::with_capacity(q, DEFAULT_EXACT_THRESHOLD)).collect();
    let mut rng = simkit::rng::Rng::seed_from(11);
    for n in 1..=DEFAULT_EXACT_THRESHOLD {
        // Latency-shaped draws on a 0.25 ms grid: a long tail plus ties.
        let v = (rng.next_f64().powi(6) * 4_000.0 * 4.0).round() / 4.0 + 20.0;
        sketch.record(v);
        assert!(!sketch.is_sketching(), "n={n} must still be exact");
        for (r, &q) in running.iter_mut().zip(&qs) {
            r.record(v);
            assert_eq!(r.value().to_bits(), sketch.quantile(q).to_bits(), "q={q} n={n}");
        }
    }
}
