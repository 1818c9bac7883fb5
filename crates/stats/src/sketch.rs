//! Streaming quantile estimation with bounded memory.
//!
//! Million-invocation runs cannot afford a `Vec<f64>` of every latency
//! just to read off p50/p99 at the end. [`QuantileSketch`] is a *merging
//! t-digest* (Dunning & Ertl): samples are buffered and periodically
//! compressed into a short list of weighted centroids whose sizes shrink
//! toward the distribution's ends, so extreme quantiles — the ones this
//! project is about — stay sharp while the middle is summarised coarsely.
//! Retained state is O(δ·log n) centroids (the quadratic weight limit
//! keeps the extreme tails at singleton resolution, which costs a
//! logarithmic factor) — about 1.4 k centroids for 10⁶ samples at the
//! default δ = 200, versus the 8 MB a raw `Vec<f64>` would hold.
//!
//! # Exact-mode fallback
//!
//! Below [`QuantileSketch::exact_threshold`] samples (default 1024) the
//! sketch simply keeps every sample and answers quantiles exactly, with
//! the same Hyndman–Fan type-7 interpolation as
//! [`crate::percentile::sorted_percentile`]. Small runs therefore lose
//! nothing; compression only engages when its error bound is tiny
//! relative to the sample count.
//!
//! # Error bound
//!
//! Compression caps the weight of a centroid covering quantile `q` at
//! `4·n·q(1−q)/δ` (the t-digest `k1` scale), so interpolation between
//! centroid midpoints can misplace a quantile estimate by at most about
//! one centroid's worth of rank. The documented guarantee, exposed as
//! [`QuantileSketch::rank_error_bound`] and asserted by this crate's
//! property tests, is a **rank error**:
//!
//! > `quantile(q)` lies between the exact `(q − ε)`- and `(q + ε)`-
//! > quantiles of the recorded samples, where
//! > `ε(q) = 8·q(1−q)/δ + 3/n`.
//!
//! (Interpolating between adjacent centroid midpoints can deviate by up
//! to 1.5 cluster weights of rank, i.e. `6·q(1−q)/δ`; the extra headroom
//! absorbs neighbour clusters sitting at slightly more central quantiles
//! and the ±1-rank effects at the extremes.) With the default δ = 200
//! that is ε(0.5) ≤ 1 % + 3/n in the middle and ε(0.99) ≤ 0.04 % + 3/n
//! at the paper's headline tail — and exactly 0 below the exact
//! threshold. (Rank error is the right contract for a quantile sketch:
//! *value* error additionally depends on the local density of the
//! distribution and is unbounded in general.)
//!
//! # Determinism and merging
//!
//! Everything here is deterministic: buffers are compressed with a stable
//! sort and a fixed left-to-right merge pass, so the same sequence of
//! `record`/`merge` calls always yields the same centroids, bit for bit.
//! [`QuantileSketch::merge`] combines two sketches (used by the sweep
//! runner, which merges per-cell aggregates in cell-index order — making
//! merged reports independent of worker-thread count).

use serde::{Deserialize, Serialize};

use crate::percentile::{sort_samples, sorted_percentile};
use crate::summary::Summary;

/// Default compression factor δ: ~2·δ centroids retained at steady state.
pub const DEFAULT_COMPRESSION: f64 = 200.0;
/// Default sample count below which the sketch stays exact.
pub const DEFAULT_EXACT_THRESHOLD: usize = 1024;
/// Buffered samples between incremental compressions once sketching.
const BUFFER_CAP: usize = 512;

/// How latency quantiles are computed for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QuantileMode {
    /// Keep every sample; quantiles are exact (the default).
    #[default]
    Exact,
    /// Stream samples through a [`QuantileSketch`]; memory is O(δ) and
    /// quantiles carry the documented rank-error bound.
    Sketch,
}

impl QuantileMode {
    /// Parses the CLI spelling (`"exact"` or `"sketch"`).
    pub fn parse(s: &str) -> Option<QuantileMode> {
        match s {
            "exact" => Some(QuantileMode::Exact),
            "sketch" => Some(QuantileMode::Sketch),
            _ => None,
        }
    }

    /// The CLI spelling of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            QuantileMode::Exact => "exact",
            QuantileMode::Sketch => "sketch",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// A mergeable t-digest quantile sketch; see the module docs for the
/// error bound and determinism guarantees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    compression: f64,
    exact_threshold: usize,
    /// Uncompressed recent samples (all samples, while in exact mode).
    buffer: Vec<f64>,
    /// Weighted centroids, ascending by mean; empty while in exact mode.
    centroids: Vec<Centroid>,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch with the default compression (δ = 200) and exact
    /// threshold (1024 samples).
    pub fn new() -> Self {
        QuantileSketch::with_params(DEFAULT_COMPRESSION, DEFAULT_EXACT_THRESHOLD)
    }

    /// An empty sketch with explicit compression δ (≥ 10) and exact-mode
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `compression` is not finite or below 10 (the error bound
    /// would be meaningless).
    pub fn with_params(compression: f64, exact_threshold: usize) -> Self {
        assert!(compression.is_finite() && compression >= 10.0, "compression too small");
        QuantileSketch {
            compression,
            exact_threshold,
            buffer: Vec::new(),
            centroids: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (NaN-free by construction).
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty sketch");
        self.min
    }

    /// Largest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty sketch");
        self.max
    }

    /// Sample count below which quantiles are exact.
    pub fn exact_threshold(&self) -> usize {
        self.exact_threshold
    }

    /// Whether compression has engaged (false ⇒ quantiles are exact).
    pub fn is_sketching(&self) -> bool {
        !self.centroids.is_empty()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN latency sample");
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buffer.push(v);
        if self.is_sketching() {
            if self.buffer.len() >= BUFFER_CAP {
                self.compress();
            }
        } else if self.buffer.len() > self.exact_threshold {
            self.compress();
        }
    }

    /// Absorbs all samples recorded by `other`.
    ///
    /// Deterministic: merging the same pair of sketch states always
    /// produces the same result, so reductions that fix their merge order
    /// (like the sweep runner's cell-index merge) are reproducible across
    /// thread counts.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.buffer.extend_from_slice(&other.buffer);
        self.centroids.extend_from_slice(&other.centroids);
        if self.is_sketching() || self.buffer.len() > self.exact_threshold {
            self.compress();
        }
    }

    /// Returns the `q`-quantile estimate. Exact below the threshold;
    /// otherwise within the [`rank_error_bound`](Self::rank_error_bound).
    ///
    /// Takes `&mut self` because pending buffered samples are folded into
    /// the centroids first: a call with any sample buffered runs a full
    /// compress (a stable sort plus a re-cluster of every centroid,
    /// O(centroids)), and in exact mode every call sorts a copy of all
    /// samples. This is an end-of-run read, not a per-event query; to
    /// read one quantile between records, use
    /// [`crate::percentile::RunningQuantile`] (O(1) per read, O(log n)
    /// per record).
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty sketch");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if !self.is_sketching() {
            let mut sorted = self.buffer.clone();
            sort_samples(&mut sorted);
            return sorted_percentile(&sorted, q);
        }
        if !self.buffer.is_empty() {
            self.compress();
        }
        let n = self.count as f64;
        let target = q * n;
        // Interpolate piecewise-linearly between centroid rank midpoints,
        // anchored at min (rank 0) and max (rank n).
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if target < mid {
                let t = if mid > prev_mid { (target - prev_mid) / (mid - prev_mid) } else { 0.0 };
                return (prev_mean + t * (c.mean - prev_mean)).clamp(self.min, self.max);
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        let t = if n > prev_mid { (target - prev_mid) / (n - prev_mid) } else { 1.0 };
        (prev_mean + t * (self.max - prev_mean)).clamp(self.min, self.max)
    }

    /// The documented rank-error guarantee at quantile `q`:
    /// [`quantile`](Self::quantile)`(q)` lies between the exact `(q − ε)`-
    /// and `(q + ε)`-quantiles of the recorded samples. Zero while in
    /// exact mode.
    pub fn rank_error_bound(&self, q: f64) -> f64 {
        if !self.is_sketching() {
            return 0.0;
        }
        8.0 * q * (1.0 - q) / self.compression + 3.0 / self.count as f64
    }

    /// Number of retained centroids (0 while in exact mode). Bounded by
    /// O(δ·log n) — this, plus the fixed-size buffer, is the sketch's
    /// entire memory footprint.
    pub fn centroid_count(&self) -> usize {
        self.centroids.len()
    }

    /// Fraction of recorded samples `<= x` — the empirical CDF.
    ///
    /// Exact below the threshold (bit-identical to [`crate::cdf::Cdf::eval`]
    /// over the same samples, it is the same integer count divided by the
    /// same `n`); once sketching, within the
    /// [`rank_error_bound`](Self::rank_error_bound) at the rank of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `x` is NaN (consistent with
    /// `Cdf::eval`: with a NaN every comparison is vacuously false and the
    /// result would silently be 0).
    pub fn cdf(&self, x: f64) -> f64 {
        assert!(self.count > 0, "CDF of empty sketch");
        assert!(!x.is_nan(), "CDF evaluated at NaN");
        self.rank(x, true) / self.count as f64
    }

    /// Estimated number of recorded samples strictly below `x` (0 when
    /// empty). Exact below the threshold; within `n·ε` once sketching.
    ///
    /// Bin-count views derive from this: differences of cumulative ranks
    /// at the bin edges conserve total mass by construction, which
    /// per-bin estimates would not.
    ///
    /// # Examples
    ///
    /// ```
    /// use stats::QuantileSketch;
    /// let mut s = QuantileSketch::new();
    /// for v in [5.0, 50.0, 50.0, 500.0] {
    ///     s.record(v);
    /// }
    /// // Strictly below: a sample sitting on the edge is not counted.
    /// assert_eq!(s.rank_below(50.0), 1.0);
    /// // Bin counts over [1, 10), [10, 100), [100, 1000) telescope.
    /// let edges = [1.0, 10.0, 100.0, 1000.0];
    /// let counts: Vec<f64> = edges.windows(2).map(|e| s.rank_below(e[1]) - s.rank_below(e[0])).collect();
    /// assert_eq!(counts, [1.0, 2.0, 1.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn rank_below(&self, x: f64) -> f64 {
        assert!(!x.is_nan(), "rank of NaN");
        if self.count == 0 {
            return 0.0;
        }
        self.rank(x, false)
    }

    /// Rank of `x`: exact count over the buffered samples plus the
    /// interpolated rank over the compressed ones.
    fn rank(&self, x: f64, inclusive: bool) -> f64 {
        let buffered =
            self.buffer.iter().filter(|&&v| if inclusive { v <= x } else { v < x }).count() as f64;
        buffered + self.centroid_rank(x, inclusive)
    }

    /// Interpolated rank of `x` within the compressed samples only (0
    /// while in exact mode): piecewise linear between centroid rank
    /// midpoints, anchored at `(0, min)` and `(n_compressed, max)` — the
    /// inverse of the interpolation in [`QuantileSketch::quantile`].
    ///
    /// The boundary cases honor `inclusive`: a strict rank at an atom
    /// sitting exactly on min/max (e.g. an all-equal distribution) must
    /// exclude that atom's mass, where the inclusive CDF includes it.
    fn centroid_rank(&self, x: f64, inclusive: bool) -> f64 {
        if self.centroids.is_empty() {
            return 0.0;
        }
        let nc = (self.count - self.buffer.len() as u64) as f64;
        if x < self.min || (!inclusive && x <= self.min) {
            return 0.0;
        }
        if x >= self.max {
            return nc;
        }
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if x < c.mean {
                let t =
                    if c.mean > prev_mean { (x - prev_mean) / (c.mean - prev_mean) } else { 0.0 };
                return (prev_mid + t * (mid - prev_mid)).clamp(0.0, nc);
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        let t = if self.max > prev_mean { (x - prev_mean) / (self.max - prev_mean) } else { 1.0 };
        (prev_mid + t * (nc - prev_mid)).clamp(0.0, nc)
    }

    /// Down-samples the distribution to `n` evenly spaced
    /// `(value, cumulative_prob)` plot points — the sketch-backed
    /// equivalent of [`crate::cdf::Cdf::points`], bit-identical to it
    /// below the exact threshold.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `n < 2`.
    pub fn quantile_points(&mut self, n: usize) -> Vec<(f64, f64)> {
        assert!(self.count > 0, "plot points of empty sketch");
        assert!(n >= 2, "need at least two plot points");
        if !self.is_sketching() {
            let mut sorted = self.buffer.clone();
            sort_samples(&mut sorted);
            return (0..n)
                .map(|i| {
                    let q = i as f64 / (n - 1) as f64;
                    (sorted_percentile(&sorted, q), q)
                })
                .collect();
        }
        if !self.buffer.is_empty() {
            self.compress();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// Folds buffered samples into the centroid list and re-clusters.
    fn compress(&mut self) {
        sort_samples(&mut self.buffer);
        let mut merged: Vec<Centroid> =
            Vec::with_capacity(self.centroids.len() + self.buffer.len());
        merged.extend(self.buffer.drain(..).map(|v| Centroid { mean: v, weight: 1.0 }));
        merged.append(&mut self.centroids);
        // Stable sort keeps equal-mean centroids in a deterministic order.
        merged.sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("NaN centroid"));

        let n = self.count as f64;
        let delta = self.compression;
        let mut out: Vec<Centroid> = Vec::with_capacity((2.0 * delta) as usize + 8);
        let mut iter = merged.into_iter();
        let mut cur = iter.next().expect("compress on empty sketch");
        let mut cum = 0.0; // weight strictly before `cur`
        for c in iter {
            let w = cur.weight + c.weight;
            let q_mid = (cum + w / 2.0) / n;
            let limit = (4.0 * n * q_mid * (1.0 - q_mid) / delta).max(1.0);
            if w <= limit {
                // Weighted mean; `cur.mean <= c.mean` so the result stays
                // within the pair's span.
                cur.mean = (cur.mean * cur.weight + c.mean * c.weight) / w;
                cur.weight = w;
            } else {
                cum += cur.weight;
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        self.centroids = out;
    }
}

/// Streaming latency aggregate: a quantile sketch plus the moment sums
/// needed to reproduce a [`Summary`] without retaining samples.
///
/// This is what flows through the client, experiment, and sweep layers on
/// large runs: O(δ) memory however many invocations are recorded, and
/// mergeable across sweep cells. In exact mode (small runs, or
/// `keep_samples`) the figure pipelines keep using raw sample vectors and
/// this aggregate is simply a cheap companion.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyAgg {
    sketch: QuantileSketch,
    sum: f64,
    sumsq: f64,
}

impl LatencyAgg {
    /// An empty aggregate with default sketch parameters.
    pub fn new() -> Self {
        LatencyAgg::default()
    }

    /// An empty aggregate with an explicit quantile mode: `Exact` uses a
    /// threshold no run exceeds (quantiles stay exact at any size, memory
    /// O(n)); `Sketch` uses the default compression.
    pub fn with_mode(mode: QuantileMode) -> Self {
        match mode {
            QuantileMode::Exact => LatencyAgg {
                sketch: QuantileSketch::with_params(DEFAULT_COMPRESSION, usize::MAX),
                ..Default::default()
            },
            QuantileMode::Sketch => LatencyAgg::new(),
        }
    }

    /// Builds an exact-mode aggregate from a sample slice in one call —
    /// the bridge for figure pipelines that start from raw samples:
    /// quantiles, CDF points, and summaries all come out bit-identical to
    /// the historical sample-vector paths.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> LatencyAgg {
        let mut agg = LatencyAgg::with_mode(QuantileMode::Exact);
        for &v in samples {
            agg.record(v);
        }
        agg
    }

    /// Records one latency sample (milliseconds, by project convention).
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        self.sketch.record(v);
        self.sum += v;
        self.sumsq += v * v;
    }

    /// Absorbs `other` (deterministic; see [`QuantileSketch::merge`]).
    pub fn merge(&mut self, other: &LatencyAgg) {
        self.sketch.merge(&other.sketch);
        self.sum += other.sum;
        self.sumsq += other.sumsq;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Mean of the recorded samples.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty aggregate");
        self.sum / self.count() as f64
    }

    /// Quantile estimate (see [`QuantileSketch::quantile`]).
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sketch.quantile(q)
    }

    /// Fraction of samples `<= x` (see [`QuantileSketch::cdf`]).
    pub fn cdf(&self, x: f64) -> f64 {
        self.sketch.cdf(x)
    }

    /// CDF plot points (see [`QuantileSketch::quantile_points`]).
    pub fn quantile_points(&mut self, n: usize) -> Vec<(f64, f64)> {
        self.sketch.quantile_points(n)
    }

    /// Smallest recorded sample (see [`QuantileSketch::min`]).
    pub fn min(&self) -> f64 {
        self.sketch.min()
    }

    /// Largest recorded sample (see [`QuantileSketch::max`]).
    pub fn max(&self) -> f64 {
        self.sketch.max()
    }

    /// The sketch's rank-error bound at `q`.
    pub fn rank_error_bound(&self, q: f64) -> f64 {
        self.sketch.rank_error_bound(q)
    }

    /// Shared access to the underlying sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Builds a [`Summary`] from the aggregate. Quantiles come from the
    /// sketch (exact below the threshold); mean and standard deviation
    /// come from the moment sums, so on very large runs `std` carries the
    /// usual one-pass cancellation caveat (irrelevant at latency scales).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn summary(&mut self) -> Summary {
        assert!(!self.is_empty(), "summary of empty aggregate");
        if !self.sketch.is_sketching() {
            // Below the threshold the buffer holds every sample, so
            // delegating reproduces the historical exact-mode summary bit
            // for bit (mean/std from the sorted two-pass path rather than
            // the insertion-order moment sums).
            return Summary::from_samples(&self.sketch.buffer);
        }
        let n = self.count();
        let mean = self.mean();
        let var = if n > 1 {
            ((self.sumsq - n as f64 * mean * mean) / (n as f64 - 1.0)).max(0.0)
        } else {
            0.0
        };
        let median = self.quantile(0.5);
        let tail = self.quantile(0.99);
        Summary {
            count: n as usize,
            mean,
            std: var.sqrt(),
            min: self.sketch.min(),
            max: self.sketch.max(),
            p25: self.quantile(0.25),
            median,
            p75: self.quantile(0.75),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            tail,
            p999: self.quantile(0.999),
            tmr: if median > 0.0 { tail / median } else { f64::INFINITY },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile;

    #[test]
    fn exact_below_threshold_matches_percentile() {
        let mut s = QuantileSketch::new();
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        for &x in &xs {
            s.record(x);
        }
        assert!(!s.is_sketching());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), percentile(&xs, q), "q={q}");
            assert_eq!(s.rank_error_bound(q), 0.0);
        }
    }

    #[test]
    fn sketch_mode_engages_past_threshold() {
        let mut s = QuantileSketch::new();
        for i in 0..5000 {
            s.record(i as f64);
        }
        assert!(s.is_sketching());
        assert_eq!(s.count(), 5000);
        assert!(s.centroid_count() < 1000, "centroids: {}", s.centroid_count());
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 4999.0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 4999.0);
    }

    #[test]
    fn sketch_respects_rank_error_on_uniform_ladder() {
        let mut s = QuantileSketch::new();
        let n = 50_000;
        for i in 0..n {
            s.record(i as f64);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = s.quantile(q);
            let eps = s.rank_error_bound(q);
            // On the ladder the value at rank r is r itself, so rank error
            // is directly readable.
            let lo = ((q - eps) * (n - 1) as f64).floor();
            let hi = ((q + eps) * (n - 1) as f64).ceil();
            assert!(est >= lo && est <= hi, "q={q}: est={est} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = QuantileSketch::new();
        for i in 0..200_000 {
            s.record((i % 9973) as f64);
        }
        // O(δ·log n): empirically ~1.2 k centroids at n = 2e5, δ = 200.
        assert!(s.centroid_count() < 2000, "centroids: {}", s.centroid_count());
        assert!(s.buffer.len() < BUFFER_CAP);
    }

    #[test]
    fn merge_equals_sequential_recording_statistics() {
        let xs: Vec<f64> = (0..30_000u64).map(|i| ((i * 2654435761) % 100_000) as f64).collect();
        let mut whole = QuantileSketch::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 13_000 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merged and sequential sketches need not be identical, but both
        // must satisfy the error bound against the exact quantiles.
        for q in [0.5, 0.99] {
            let eps = a.rank_error_bound(q) + 1.0 / xs.len() as f64;
            let exact_lo = percentile(&xs, (q - eps).max(0.0));
            let exact_hi = percentile(&xs, (q + eps).min(1.0));
            let est = a.quantile(q);
            assert!(est >= exact_lo && est <= exact_hi, "q={q}: {est} vs [{exact_lo}, {exact_hi}]");
        }
    }

    #[test]
    fn merge_is_deterministic() {
        let build = || {
            let mut parts: Vec<QuantileSketch> = Vec::new();
            for p in 0..4u64 {
                let mut s = QuantileSketch::new();
                for i in 0..5_000u64 {
                    s.record(((i * 31 + p * 7) % 4096) as f64);
                }
                parts.push(s);
            }
            let mut acc = QuantileSketch::new();
            for p in &parts {
                acc.merge(p);
            }
            acc
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn exact_sketches_merge_into_exact_when_small() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for i in 0..100 {
            a.record(i as f64);
            b.record((100 + i) as f64);
        }
        a.merge(&b);
        assert!(!a.is_sketching(), "200 samples should stay exact");
        assert_eq!(a.quantile(0.5), 99.5);
    }

    #[test]
    fn agg_summary_matches_exact_on_small_runs() {
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let mut agg = LatencyAgg::new();
        for &x in &xs {
            agg.record(x);
        }
        let s = agg.summary();
        let exact = Summary::from_samples(&xs);
        assert_eq!(s.count, exact.count);
        assert_eq!(s.median, exact.median);
        assert_eq!(s.tail, exact.tail);
        assert_eq!(s.min, exact.min);
        assert_eq!(s.max, exact.max);
        assert!((s.mean - exact.mean).abs() < 1e-9);
        assert!((s.std - exact.std).abs() < 1e-9);
    }

    #[test]
    fn exact_mode_agg_never_sketches() {
        let mut agg = LatencyAgg::with_mode(QuantileMode::Exact);
        for i in 0..10_000 {
            agg.record(i as f64);
        }
        assert!(!agg.sketch().is_sketching());
        assert_eq!(
            agg.quantile(0.5),
            percentile(&(0..10_000).map(|i| i as f64).collect::<Vec<_>>(), 0.5)
        );
    }

    #[test]
    fn serde_round_trip() {
        let mut s = QuantileSketch::new();
        for i in 0..3000 {
            s.record((i % 71) as f64);
        }
        let json = serde_json::to_string(&s).unwrap();
        let mut back: QuantileSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.quantile(0.5), s.quantile(0.5));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_record_panics() {
        QuantileSketch::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_quantile_panics() {
        QuantileSketch::new().quantile(0.5);
    }

    // Edge-case contract: empty panics, a single sample and all-equal
    // samples answer exactly, q = 0/1 pin min/max — never NaN. Every
    // figure's quantiles pass through these cases.

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_cdf_panics() {
        QuantileSketch::new().cdf(1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        LatencyAgg::new().summary();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        s.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_of_nan_panics() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        s.cdf(f64::NAN);
    }

    #[test]
    fn single_sample_is_exact_everywhere() {
        let mut agg = LatencyAgg::new();
        agg.record(42.0);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(agg.quantile(q), 42.0, "q={q}");
        }
        let s = agg.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p999, 42.0);
        assert_eq!(agg.cdf(41.9), 0.0);
        assert_eq!(agg.cdf(42.0), 1.0);
    }

    #[test]
    fn all_equal_samples_answer_exactly_even_when_sketching() {
        let mut s = QuantileSketch::new();
        for _ in 0..10_000 {
            s.record(7.5);
        }
        assert!(s.is_sketching());
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = s.quantile(q);
            assert_eq!(v, 7.5, "q={q}");
            assert!(!v.is_nan());
        }
        assert_eq!(s.cdf(7.5), 1.0);
        assert_eq!(s.cdf(7.4), 0.0);
        assert_eq!(s.rank_below(7.5), 0.0);
        assert_eq!(s.rank_below(7.6), 10_000.0);
    }

    #[test]
    fn extreme_quantiles_pin_min_max_when_sketching() {
        let mut s = QuantileSketch::new();
        for i in 0..50_000u64 {
            s.record(((i * 2654435761) % 100_000) as f64 / 7.0);
        }
        assert!(s.is_sketching());
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(1.0), s.max());
    }

    #[test]
    fn cdf_matches_exact_cdf_below_threshold() {
        let xs = [1.0, 1.0, 1.0, 2.0, 5.0, 9.0];
        let mut s = QuantileSketch::new();
        for &x in &xs {
            s.record(x);
        }
        let cdf = crate::cdf::Cdf::from_samples(&xs);
        for x in [0.5, 1.0, 1.5, 2.0, 7.0, 9.0, 100.0] {
            assert_eq!(s.cdf(x).to_bits(), cdf.eval(x).to_bits(), "x={x}");
        }
        assert_eq!(s.rank_below(1.0), 0.0);
        assert_eq!(s.rank_below(1.5), 3.0);
    }

    #[test]
    fn rank_below_of_empty_sketch_is_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.rank_below(0.0), 0.0);
        assert_eq!(s.rank_below(f64::INFINITY), 0.0);
    }

    #[test]
    #[should_panic(expected = "rank of NaN")]
    fn rank_below_of_nan_panics() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        s.rank_below(f64::NAN);
    }

    #[test]
    fn infinities_rank_at_the_ends() {
        // An infinite sample lies outside every finite bin: -inf below the
        // first edge, +inf at or above the last.
        let mut s = QuantileSketch::new();
        s.record(f64::NEG_INFINITY);
        s.record(3.0);
        s.record(f64::INFINITY);
        assert_eq!(s.rank_below(f64::MIN), 1.0);
        assert_eq!(s.rank_below(1.0), 1.0);
        assert_eq!(s.rank_below(f64::MAX), 2.0);
        assert_eq!(s.rank_below(f64::INFINITY), 2.0);
    }

    #[test]
    fn rank_below_differences_conserve_mass_when_sketching() {
        // Past the threshold the ranks are estimates, but bin counts taken
        // as differences of cumulative ranks still telescope to every
        // recorded sample.
        let mut s = QuantileSketch::new();
        for i in 0..50_000u64 {
            s.record(0.5 + ((i * 2654435761) % 2_000) as f64);
        }
        assert!(s.is_sketching());
        let edges: Vec<f64> = (0..=10).map(|i| 1000f64.powf(i as f64 / 10.0)).collect();
        let binned: f64 = edges.windows(2).map(|e| s.rank_below(e[1]) - s.rank_below(e[0])).sum();
        let underflow = s.rank_below(edges[0]);
        let overflow = s.count() as f64 - s.rank_below(edges[10]);
        assert!((binned + underflow + overflow - s.count() as f64).abs() < 1e-6);
    }

    #[test]
    fn rank_below_respects_rank_error_when_sketching() {
        let n = 50_000;
        let mut s = QuantileSketch::new();
        for i in 0..n {
            s.record(i as f64);
        }
        assert!(s.is_sketching());
        for x in [100.0, 5_000.0, 25_000.0, 49_000.0, 49_950.0] {
            let est = s.rank_below(x);
            let exact = x; // ladder: #samples < x
            let eps = (s.rank_error_bound(exact / n as f64) * n as f64) + 3.0;
            assert!((est - exact).abs() <= eps, "x={x}: est {est} vs exact {exact} (eps {eps})");
        }
    }

    #[test]
    fn cdf_respects_rank_error_when_sketching() {
        let n = 50_000;
        let mut s = QuantileSketch::new();
        for i in 0..n {
            s.record(i as f64);
        }
        for x in [100.0, 5_000.0, 25_000.0, 49_000.0, 49_950.0] {
            let est = s.cdf(x);
            let exact = (x + 1.0) / n as f64; // ladder: #samples <= x
            let eps = s.rank_error_bound(exact) + 3.0 / n as f64;
            assert!((est - exact).abs() <= eps, "x={x}: est {est} vs exact {exact} (eps {eps})");
        }
    }

    #[test]
    fn quantile_points_match_cdf_points_below_threshold() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let mut s = QuantileSketch::new();
        for &x in &xs {
            s.record(x);
        }
        let pts = s.quantile_points(120);
        let cdf_pts = crate::cdf::Cdf::from_samples(&xs).points(120);
        assert_eq!(pts, cdf_pts);
    }

    #[test]
    fn quantile_points_are_monotone_when_sketching() {
        let mut s = QuantileSketch::new();
        for i in 0..20_000u64 {
            s.record(((i * 31) % 9973) as f64);
        }
        let pts = s.quantile_points(50);
        assert_eq!(pts.len(), 50);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "values must be non-decreasing: {pts:?}");
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(pts[0].1, 0.0);
        assert_eq!(pts[49].1, 1.0);
    }

    #[test]
    fn summary_delegates_to_exact_path_below_threshold() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 37) % 100) as f64 + 0.25).collect();
        let mut agg = LatencyAgg::new();
        for &x in &xs {
            agg.record(x);
        }
        let from_agg = agg.summary();
        let exact = Summary::from_samples(&xs);
        assert_eq!(from_agg.mean.to_bits(), exact.mean.to_bits());
        assert_eq!(from_agg.std.to_bits(), exact.std.to_bits());
        assert_eq!(from_agg, exact);
    }
}
