//! Regression test: the event-queue bulk-load hint must be forwarded in
//! both measure modes, whether or not `keep_samples` retains full
//! vectors. Without the hint the adaptive backend only promotes when the
//! *pending* count crosses its threshold mid-run — and a paced workload
//! that never holds 4096 events at once would stay on the binary heap for
//! the whole run despite scheduling far more events in total. With the
//! hint it promotes exactly once, up front, at reserve time.

use faas_sim::testutil::test_provider;
use faas_sim::CloudSim;
use simkit::engine::QueueKind;
use stellar_core::client::{run_workload_with, MeasureSpec};
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::deployer::deploy;

fn adaptive_run(samples: u32, measure: MeasureSpec) -> CloudSim {
    let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
    // Fast-completing, paced arrivals: each request finishes well before
    // the next one lands, so pending events never approach the promotion
    // threshold organically. Only the reserve hint can trigger promotion.
    let mut cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 5.0 }, samples);
    cfg.exec_ms = 0.1;
    let mut cloud = CloudSim::with_queue(test_provider(), 7, QueueKind::Adaptive);
    let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
    let result = run_workload_with(&mut cloud, &d, &cfg, 3, &measure).unwrap();
    assert_eq!(result.measured_count, u64::from(samples));
    cloud
}

/// A large run promotes exactly once, up front, from the forwarded
/// reserve hint — not zero times (hint dropped) and not lazily at the
/// pending threshold — in either measure mode.
#[test]
fn reserve_hint_promotes_exactly_once_in_both_modes() {
    for measure in [MeasureSpec::sketch(), MeasureSpec::exact()] {
        let cloud = adaptive_run(8_192, measure);
        assert_eq!(
            cloud.promotions(),
            1,
            "{measure:?}: a run whose expected event count exceeds the promotion \
             threshold must promote exactly once, at reserve time"
        );
    }
}

/// A small run stays on the heap: the hint is below the threshold and the
/// paced workload never accumulates enough pending events to promote.
#[test]
fn small_run_never_promotes() {
    for measure in [MeasureSpec::sketch(), MeasureSpec::exact()] {
        let cloud = adaptive_run(64, measure);
        assert_eq!(cloud.promotions(), 0, "{measure:?}: small runs must stay on the binary heap");
    }
}
