//! The serverless "tail at scale" effect: join p99 amplification versus
//! fan-out width. A width-`w` fan-out/fan-in workflow completes at the
//! *max* over `w` branch latencies, so its join p99 is governed by the
//! branch distribution's extreme order statistics — the wider the fan,
//! the further into the branch tail every workflow is pushed. This
//! artifact sweeps the parametric [`appsuite::fan_out`] workflow across
//! widths {2, 4, 8, 16} on all three provider profiles, with and
//! without a `hedge-p95` tail-tolerance policy, and reports two ratios:
//!
//! * **intrinsic amplification** — join p99 ÷ branch p99 from the
//!   cloud's barrier accounting: a property of the workflow shape,
//!   growing with width and untouched by client-side policies;
//! * **experienced amplification** — end-to-end p99 ÷ branch p99 as the
//!   client sees it: hedging re-issues a straggling workflow whole, and
//!   the faster replica's max-of-`w` wins, pulling the experienced tail
//!   back down even though the intrinsic barrier math is unchanged.
//!
//! Whether the hedge *can* win is a placement question. A forked
//! producer holds its instance until the join resolves (synchronous
//! chain semantics), so a straggling workflow keeps every one of its
//! instances busy. On a spawn-per-request provider (aws-like,
//! commitment cap 1) the duplicate's branches get fresh instances and
//! the hedge rescues the tail; on queue-at-instance providers
//! (google/azure-like) the duplicate is committed *behind* the busy
//! originals and serializes with the very straggler it was meant to
//! dodge — the hedge is structurally defeated, and the artifact records
//! that contrast rather than hiding it.

use providers::paper::ProviderKind;
use providers::profiles::config_for;
use stellar_core::config::{IatSpec, RuntimeConfig};
use stellar_core::experiment::{Experiment, Outcome};
use stellar_core::runner::SweepRunner;

use crate::report::{Report, BASE_SEED};

/// Fan-out widths under test.
pub const WIDTHS: [u32; 4] = [2, 4, 8, 16];

/// One measured grid cell.
#[derive(Debug)]
pub struct StragglerCell {
    /// Provider profile.
    pub kind: ProviderKind,
    /// Fan-out width of the workflow.
    pub width: u32,
    /// Whether the client ran the `hedge-p95` policy.
    pub hedged: bool,
    /// The run.
    pub outcome: Outcome,
}

impl StragglerCell {
    /// Intrinsic join amplification (join p99 ÷ branch p99) from the
    /// barrier accounting.
    pub fn intrinsic_amplification(&self) -> f64 {
        self.outcome.dag.as_ref().expect("app run").straggler_amplification
    }

    /// p99 of individual branch latencies, ms.
    pub fn branch_p99_ms(&self) -> f64 {
        self.outcome.dag.as_ref().expect("app run").joins[0].branch_p99_ms
    }

    /// End-to-end p99 ÷ branch p99: the amplification the client
    /// actually experiences (hedging can shrink this one).
    pub fn experienced_amplification(&self) -> f64 {
        self.outcome.summary.tail / self.branch_p99_ms()
    }
}

/// Measured data: provider × width × {baseline, hedge-p95}.
#[derive(Debug)]
pub struct StragglerScaling {
    /// The grid cells, provider-major, width-then-policy minor.
    pub cells: Vec<StragglerCell>,
}

fn run_cell(kind: ProviderKind, width: u32, hedged: bool, samples: u32) -> Outcome {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = 3;
    if hedged {
        runtime.policy = Some(policy::PolicySpec::preset("hedge-p95").expect("preset exists"));
    }
    Experiment::new(config_for(kind))
        .app(appsuite::fan_out(width))
        .workload(runtime)
        // Same seed across the policy axis: both cells face the same
        // arrival train, so the delta is the hedge's doing.
        .seed(BASE_SEED + 700 + u64::from(width))
        .run()
        .expect("straggler scaling run")
}

/// Runs the provider × width × policy grid in parallel.
pub fn measure(samples: u32) -> StragglerScaling {
    let cells: Vec<(ProviderKind, u32, bool)> = ProviderKind::ALL
        .iter()
        .flat_map(|&kind| WIDTHS.into_iter().map(move |w| (kind, w)))
        .flat_map(|(kind, width)| [false, true].into_iter().map(move |h| (kind, width, h)))
        .collect();
    let cells = SweepRunner::default().map(&cells, |&(kind, width, hedged)| StragglerCell {
        kind,
        width,
        hedged,
        outcome: run_cell(kind, width, hedged, samples),
    });
    StragglerScaling { cells }
}

impl StragglerScaling {
    /// The cell for one (provider, width, policy) combination.
    pub fn cell(&self, kind: ProviderKind, width: u32, hedged: bool) -> Option<&StragglerCell> {
        self.cells.iter().find(|c| c.kind == kind && c.width == width && c.hedged == hedged)
    }

    /// Renders the scaling table plus per-provider headlines.
    pub fn report(&self) -> Report {
        let mut table = stats::table::TextTable::new(vec![
            "series",
            "branch_p99",
            "join_p99",
            "intrinsic_amp",
            "e2e_p99",
            "experienced_amp",
            "hedges/req",
        ]);
        for cell in &self.cells {
            let dag = cell.outcome.dag.as_ref().expect("app run");
            let join = &dag.joins[0];
            let rate = match &cell.outcome.result.policy {
                Some(p) => format!("{:.3}", p.hedge_fire_rate()),
                None => "-".into(),
            };
            table.row(vec![
                format!(
                    "{} fan-{} {}",
                    cell.kind,
                    cell.width,
                    if cell.hedged { "hedge-p95" } else { "none" }
                ),
                stats::table::fmt_latency(join.branch_p99_ms),
                stats::table::fmt_latency(join.join_p99_ms),
                format!("{:.2}x", cell.intrinsic_amplification()),
                stats::table::fmt_latency(cell.outcome.summary.tail),
                format!("{:.2}x", cell.experienced_amplification()),
                rate,
            ]);
        }
        let mut body = table.render();
        body.push('\n');
        for kind in ProviderKind::ALL {
            if let (Some(narrow), Some(wide), Some(hedged)) =
                (self.cell(kind, 2, false), self.cell(kind, 16, false), self.cell(kind, 16, true))
            {
                body.push_str(&format!(
                    "{kind}: intrinsic amplification {:.2}x at fan-2 -> {:.2}x at fan-16; \
                     under hedge-p95 the experienced fan-16 tail goes {:.2}x -> {:.2}x of \
                     branch p99 (e2e p99 {:.0} -> {:.0} ms)\n",
                    narrow.intrinsic_amplification(),
                    wide.intrinsic_amplification(),
                    wide.experienced_amplification(),
                    hedged.experienced_amplification(),
                    wide.outcome.summary.tail,
                    hedged.outcome.summary.tail,
                ));
            }
        }
        Report {
            id: "straggler",
            title: "Join straggler amplification vs fan-out width (tail at scale)",
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The artifact's pinned claims: intrinsic join amplification grows
    /// with fan-out width on every provider, and hedge-p95 shrinks the
    /// experienced wide-fan tail where placement lets the duplicate run
    /// — decisively on the spawn-per-request profile (aws-like), whose
    /// commitment cap of 1 gives the duplicate's branches fresh
    /// instances instead of a queue slot behind the straggler.
    #[test]
    fn amplification_grows_with_width_and_shrinks_under_hedging() {
        let data = measure(500);
        assert_eq!(data.cells.len(), 3 * 4 * 2, "provider x width x policy grid");
        for kind in ProviderKind::ALL {
            for width in WIDTHS {
                let cell = data.cell(kind, width, false).unwrap();
                assert!(
                    cell.intrinsic_amplification() >= 1.0,
                    "{kind} fan-{width}: a join can't beat its own branches"
                );
                let joins = &cell.outcome.dag.as_ref().unwrap().joins;
                assert_eq!(joins.len(), 1, "fan_out has exactly one join stage");
                // Hedging is a client-side policy: the barrier math it
                // rides on must be untouched (same per-workflow shape).
                let hedged = data.cell(kind, width, true).unwrap();
                assert!(hedged.outcome.result.policy.is_some());
            }
            let narrow = data.cell(kind, 2, false).unwrap().intrinsic_amplification();
            let wide = data.cell(kind, 16, false).unwrap().intrinsic_amplification();
            assert!(
                wide > narrow,
                "{kind}: fan-16 amplification {wide:.2} must exceed fan-2 {narrow:.2}"
            );
        }
        // Where duplicates get fresh instances, the hedge wins big: the
        // aws-like wide-fan e2e p99 must drop by at least a quarter.
        for width in [8, 16] {
            let unhedged = data.cell(ProviderKind::Aws, width, false).unwrap().outcome.summary.tail;
            let hedged = data.cell(ProviderKind::Aws, width, true).unwrap().outcome.summary.tail;
            assert!(
                hedged < 0.75 * unhedged,
                "aws fan-{width}: hedge-p95 must shrink the e2e p99 ({hedged:.1} vs {unhedged:.1})"
            );
        }
        let report = data.report().render();
        assert!(report.contains("intrinsic amplification"), "{report}");
        assert!(report.contains("hedge-p95"), "{report}");
    }
}
