//! # stellar-stats — latency statistics for tail-latency analysis
//!
//! Statistical machinery used throughout the STeLLAR reproduction:
//!
//! * [`mod@percentile`] — interpolated percentiles over latency samples;
//! * [`summary`] — one-struct summaries ([`summary::Summary`]) with the
//!   paper's headline metrics (median, p99 "tail", tail-to-median ratio);
//! * [`cdf`] — empirical CDFs with text rendering (the paper's Figs 3–9 are
//!   CDF plots);
//! * [`metrics`] — the paper's normalised factor metrics: TMR, MR and TR
//!   (§V "Latency and Bandwidth Metrics" and Table I);
//! * [`ks`] — two-sample Kolmogorov–Smirnov distance, used by calibration
//!   tests to compare simulated and target distributions;
//! * [`bootstrap`] — bootstrap confidence intervals;
//! * [`sketch`] — streaming quantile sketches ([`sketch::QuantileSketch`],
//!   [`sketch::LatencyAgg`]) with a documented rank-error bound, so
//!   million-invocation runs never materialise their full latency vector;
//! * [`table`] — plain-text table rendering for the benchmark harness.

pub mod bootstrap;
pub mod cdf;
pub mod ks;
pub mod metrics;
pub mod percentile;
pub mod sketch;
pub mod summary;
pub mod svg;
pub mod table;

pub use cdf::Cdf;
pub use metrics::{median_ratio, tail_ratio, tmr};
pub use percentile::{median, p99, percentile, percentile_in_place};
pub use sketch::{LatencyAgg, QuantileMode, QuantileSketch};
pub use summary::Summary;
