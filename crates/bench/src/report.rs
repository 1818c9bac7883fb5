//! Report plumbing shared by all experiment modules.

use std::str::FromStr;

use stats::summary::Summary;
use stats::table::{fmt_latency, fmt_ratio};

/// One reproduced paper artifact (a figure or table), rendered as text.
#[derive(Debug, Clone)]
pub struct Report {
    /// Short id ("fig3", "table1", …).
    pub id: &'static str,
    /// Human title as in the paper.
    pub title: &'static str,
    /// Rendered body (tables, CDFs, notes).
    pub body: String,
}

impl Report {
    /// Renders the report with a heading.
    pub fn render(&self) -> String {
        format!("### {} — {}\n\n{}\n", self.id, self.title, self.body)
    }
}

/// A paper-vs-measured row for medians and tails.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Row label.
    pub label: String,
    /// Paper's median, ms (NaN when the paper reports none).
    pub paper_median: f64,
    /// Measured median, ms.
    pub measured_median: f64,
    /// Paper's p99, ms (NaN when the paper reports none).
    pub paper_p99: f64,
    /// Measured p99, ms.
    pub measured_p99: f64,
    /// Measured TMR.
    pub measured_tmr: f64,
}

impl Comparison {
    /// Builds a comparison from a measured summary and paper targets.
    pub fn from_summary(
        label: impl Into<String>,
        summary: &Summary,
        paper_median: f64,
        paper_p99: f64,
    ) -> Comparison {
        Comparison {
            label: label.into(),
            paper_median,
            measured_median: summary.median,
            paper_p99,
            measured_p99: summary.tail,
            measured_tmr: summary.tmr,
        }
    }

    /// Relative median deviation from the paper (None if unreported).
    pub fn median_deviation(&self) -> Option<f64> {
        self.paper_median.is_finite().then(|| self.measured_median / self.paper_median - 1.0)
    }
}

fn fmt_paper(v: f64) -> String {
    if v.is_finite() {
        fmt_latency(v)
    } else {
        "-".to_string()
    }
}

fn fmt_dev(measured: f64, paper: f64) -> String {
    if paper.is_finite() {
        format!("{:+.0}%", (measured / paper - 1.0) * 100.0)
    } else {
        "-".to_string()
    }
}

/// Renders comparisons as a paper-vs-measured table.
pub fn comparison_table(rows: &[Comparison]) -> String {
    let mut table = stats::table::TextTable::new(vec![
        "series",
        "paper_med",
        "med_ms",
        "dev",
        "paper_p99",
        "p99_ms",
        "dev",
        "tmr",
    ]);
    for row in rows {
        table.row(vec![
            row.label.clone(),
            fmt_paper(row.paper_median),
            fmt_latency(row.measured_median),
            fmt_dev(row.measured_median, row.paper_median),
            fmt_paper(row.paper_p99),
            fmt_latency(row.measured_p99),
            fmt_dev(row.measured_p99, row.paper_p99),
            fmt_ratio(row.measured_tmr),
        ]);
    }
    table.render()
}

/// Standard number of latency samples per configuration (the paper's §V).
pub const PAPER_SAMPLES: u32 = 3000;

/// Base seed for the reproduction runs; experiments offset from it so that
/// every configuration gets an independent, stable stream.
pub const BASE_SEED: u64 = 20210711; // IISWC'21 presentation date

/// The `--samples` value of the process arguments, or [`PAPER_SAMPLES`]
/// when the flag is absent; see [`positive_arg`].
pub fn samples_arg() -> u32 {
    positive_arg("--samples", PAPER_SAMPLES)
}

/// The value after `flag` in the process arguments, or `default` when the
/// flag is absent. A missing, malformed or zero value prints a message
/// naming the flag and exits with status 2.
pub fn positive_arg<T: FromStr + Default + PartialEq>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_positive_arg(&args, flag, default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// [`positive_arg`] over an explicit argument list: zero is the type's
/// default value.
fn parse_positive_arg<T: FromStr + Default + PartialEq>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let raw = args.get(at + 1).ok_or_else(|| format!("{flag} needs a value"))?;
    match raw.parse::<T>() {
        Ok(value) if value != T::default() => Ok(value),
        _ => Err(format!("{flag} must be a positive integer, got '{raw}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_table_renders_rows_and_deviations() {
        let rows = vec![Comparison {
            label: "aws".into(),
            paper_median: 100.0,
            measured_median: 110.0,
            paper_p99: f64::NAN,
            measured_p99: 200.0,
            measured_tmr: 1.8,
        }];
        let text = comparison_table(&rows);
        assert!(text.contains("aws"));
        assert!(text.contains("+10%"));
        assert!(text.contains('-'), "unreported paper values render as dashes");
    }

    #[test]
    fn median_deviation_handles_nan() {
        let c = Comparison {
            label: "x".into(),
            paper_median: f64::NAN,
            measured_median: 1.0,
            paper_p99: f64::NAN,
            measured_p99: 1.0,
            measured_tmr: 1.0,
        };
        assert!(c.median_deviation().is_none());
    }

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positive_arg_defaults_when_the_flag_is_absent() {
        let parsed = parse_positive_arg(&args(&["fig3", "--other", "7"]), "--samples", 3000u32);
        assert_eq!(parsed, Ok(3000));
    }

    #[test]
    fn positive_arg_reads_a_valid_value() {
        let parsed = parse_positive_arg(&args(&["fig3", "--samples", "300"]), "--samples", 3000u32);
        assert_eq!(parsed, Ok(300));
        let parsed =
            parse_positive_arg(&args(&["fig10", "--functions", "500"]), "--functions", 1usize);
        assert_eq!(parsed, Ok(500));
    }

    #[test]
    fn positive_arg_rejects_a_malformed_or_missing_value() {
        for bad in [
            &["fig3", "--samples", "abc"][..],
            &["fig3", "--samples", "-5"],
            &["fig3", "--samples"],
        ] {
            let err = parse_positive_arg(&args(bad), "--samples", 3000u32).unwrap_err();
            assert!(err.contains("--samples"), "{err}");
        }
    }

    #[test]
    fn positive_arg_rejects_zero() {
        let err = parse_positive_arg(&args(&["reproduce", "--samples", "0"]), "--samples", 3000u32)
            .unwrap_err();
        assert_eq!(err, "--samples must be a positive integer, got '0'");
    }

    #[test]
    fn report_render_has_heading() {
        let r = Report { id: "fig0", title: "Test", body: "body".into() };
        assert!(r.render().starts_with("### fig0 — Test"));
    }
}
