//! Interpolated percentiles.
//!
//! Percentiles use the linear-interpolation definition (type 7 in the
//! Hyndman–Fan taxonomy, the default of R and NumPy): for `n` sorted
//! samples the `q`-quantile sits at rank `(n-1)·q`, interpolating between
//! neighbouring order statistics.
//!
//! [`RunningQuantile`] answers the same type-7 quantile online, in O(1)
//! per query and O(log n) per sample, for callers that read a quantile
//! between arrivals (the client drive loop's hedge threshold).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Returns the `q`-quantile (`0.0 ..= 1.0`) of `samples`.
///
/// The input does not need to be sorted; a sorted copy is made internally.
/// For repeated queries over the same data prefer [`sorted_percentile`]
/// with a pre-sorted slice.
///
/// # Panics
///
/// Panics if `samples` is empty, `q` is outside `[0, 1]`, or any sample is
/// NaN.
///
/// # Examples
///
/// ```
/// use stats::percentile::percentile;
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.5), 2.5);
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 1.0), 4.0);
/// ```
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    sorted_percentile(&sorted, q)
}

/// Returns the `q`-quantile of `samples`, sorting them in place.
///
/// Avoids [`percentile`]'s internal copy when the caller owns the buffer
/// and does not care about its order. After the call the slice is sorted
/// ascending, so follow-up quantiles of the same data should use
/// [`sorted_percentile`] directly.
///
/// # Panics
///
/// Panics if `samples` is empty, `q` is outside `[0, 1]`, or any sample is
/// NaN.
///
/// # Examples
///
/// ```
/// use stats::percentile::{percentile_in_place, sorted_percentile};
/// let mut xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile_in_place(&mut xs, 0.5), 2.5);
/// assert_eq!(sorted_percentile(&xs, 1.0), 4.0); // already sorted now
/// ```
pub fn percentile_in_place(samples: &mut [f64], q: f64) -> f64 {
    sort_samples(samples);
    sorted_percentile(samples, q)
}

/// [`percentile`] over an already-sorted ascending slice (no allocation).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`. Debug builds
/// additionally assert that the slice is sorted.
pub fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = (n - 1) as f64 * q;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (the 0.5 quantile).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// 99th percentile — the paper's "tail latency".
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn p99(samples: &[f64]) -> f64 {
    percentile(samples, 0.99)
}

/// Sorts samples ascending, panicking on NaN.
///
/// # Panics
///
/// Panics if any sample is NaN.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency sample"));
}

/// An `f64` ordered by [`f64::total_cmp`], so it can key a [`BinaryHeap`].
#[derive(Debug, Clone, Copy)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Exact streaming `q`-quantile: after every [`record`](Self::record),
/// [`value`](Self::value) equals [`sorted_percentile`] over all samples
/// so far, bit for bit.
///
/// Two heaps split the samples at the type-7 rank: `lower` (a max-heap)
/// keeps the `floor((n−1)·q) + 1` smallest, `upper` (a min-heap) the
/// rest, so the two order statistics the interpolation needs are the
/// heap tops. Recording costs O(log n) — the split point moves by at
/// most one sample per record — and a query is O(1). Memory is every
/// sample, 8 B each; for end-of-run quantiles over millions of samples
/// use [`crate::sketch::QuantileSketch`] instead.
///
/// Samples are ordered by [`f64::total_cmp`], which puts `-0.0` below
/// `+0.0`; [`sort_samples`] treats the two as equal and keeps arrival
/// order, so only a sample set mixing signed zeros can read back a zero
/// of the other sign.
///
/// # Examples
///
/// ```
/// use stats::percentile::{percentile, RunningQuantile};
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// let mut p75 = RunningQuantile::new(0.75);
/// for &x in &xs {
///     p75.record(x);
/// }
/// assert_eq!(p75.value(), percentile(&xs, 0.75));
/// ```
#[derive(Debug, Clone)]
pub struct RunningQuantile {
    q: f64,
    lower: BinaryHeap<TotalF64>,
    upper: BinaryHeap<Reverse<TotalF64>>,
}

impl RunningQuantile {
    /// An empty estimator of the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn new(q: f64) -> Self {
        RunningQuantile::with_capacity(q, 0)
    }

    /// An empty estimator with room for `n` samples before reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn with_capacity(q: f64, n: usize) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let lower = lower_len(n, q);
        RunningQuantile {
            q,
            lower: BinaryHeap::with_capacity(lower),
            upper: BinaryHeap::with_capacity(n - lower),
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.lower.len() + self.upper.len()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN latency sample");
        let v = TotalF64(v);
        match self.lower.peek() {
            Some(&top) if v < top => self.lower.push(v),
            _ => self.upper.push(Reverse(v)),
        }
        let want = lower_len(self.count(), self.q);
        while self.lower.len() > want {
            let x = self.lower.pop().expect("lower heap above its target is non-empty");
            self.upper.push(Reverse(x));
        }
        while self.lower.len() < want {
            let Reverse(x) = self.upper.pop().expect("samples beyond the lower heap exist");
            self.lower.push(x);
        }
    }

    /// The `q`-quantile of every sample recorded so far — the value
    /// [`sorted_percentile`] returns over them.
    ///
    /// # Panics
    ///
    /// Panics if no sample has been recorded.
    pub fn value(&self) -> f64 {
        let lo = self.lower.peek().expect("percentile of empty sample set").0;
        let rank = (self.count() - 1) as f64 * self.q;
        let lo_idx = rank.floor() as usize;
        if lo_idx == rank.ceil() as usize {
            return lo;
        }
        let Reverse(hi) = self.upper.peek().expect("a fractional rank has an upper neighbour");
        let frac = rank - lo_idx as f64;
        lo * (1.0 - frac) + hi.0 * frac
    }
}

/// Size of the lower heap for `n` samples: the order statistics up to
/// and including rank `floor((n−1)·q)`, computed exactly as
/// [`sorted_percentile`] computes that rank.
fn lower_len(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        ((n - 1) as f64 * q).floor() as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], [25, 50, 75]) -> [1.75, 2.5, 3.25]
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.25), 1.75);
        assert_eq!(percentile(&xs, 0.50), 2.5);
        assert_eq!(percentile(&xs, 0.75), 3.25);
    }

    #[test]
    fn odd_length_median_is_exact() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn p99_of_uniform_ladder() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // rank = 99*0.99 = 98.01 -> between 99 and 100
        let v = p99(&xs);
        assert!((v - 99.01).abs() < 1e-9, "{v}");
    }

    #[test]
    fn unsorted_input_is_fine() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        percentile(&[1.0, f64::NAN], 0.5);
    }

    #[test]
    fn running_quantile_single_sample() {
        for q in [0.0, 0.5, 1.0] {
            let mut r = RunningQuantile::new(q);
            r.record(7.0);
            assert_eq!(r.value(), 7.0);
            assert_eq!(r.count(), 1);
        }
    }

    #[test]
    fn running_quantile_tracks_monotone_streams() {
        // Every ascending sample lands above the lower heap's top, every
        // descending one below it.
        let up: Vec<f64> = (0..200).map(f64::from).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        for xs in [up, down] {
            let mut r = RunningQuantile::with_capacity(0.95, xs.len());
            for (i, &x) in xs.iter().enumerate() {
                r.record(x);
                assert_eq!(r.value().to_bits(), percentile(&xs[..=i], 0.95).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn running_quantile_nan_panics() {
        let mut r = RunningQuantile::new(0.5);
        r.record(1.0);
        r.record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn running_quantile_empty_panics() {
        RunningQuantile::new(0.5).value();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn running_quantile_bad_quantile_panics() {
        RunningQuantile::new(1.5);
    }
}
