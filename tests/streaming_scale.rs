//! Scale tests for the streaming submission path: a ~10^6-invocation
//! sketch-mode run must complete with peak pending state bounded by
//! O(slice + active requests), not O(total invocations) — verified
//! through the request-slab and calendar-queue counters the cloud folds
//! into its metrics registry — and spec-driven sweeps must stay
//! byte-identical across worker counts.

use faas_sim::cloud::metric;
use faas_sim::testutil::test_provider;
use providers::profiles::{aws_like, google_like};
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::Experiment;
use stellar_core::runner::{Scenario, SweepGrid, SweepRunner};
use workload::spec::{ArrivalSpec, ModeSpec, WorkloadSpec};

/// Debug builds run the same shape at 1/5 scale so `cargo test` stays
/// tractable on one core; release (CI's large-run job) runs the full
/// million.
const TOTAL: u32 = if cfg!(debug_assertions) { 200_000 } else { 1_000_000 };

#[test]
fn million_invocation_streaming_run_has_bounded_pending_state() {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), TOTAL);
    runtime.warmup_rounds = 0;
    let runtime = runtime.with_workload(WorkloadSpec {
        arrival: ArrivalSpec::Exponential { mean_ms: 5.0 },
        mode: ModeSpec::Open,
    });
    let outcome = Experiment::new(test_provider())
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("scale")] })
        .workload(runtime)
        .seed(17)
        .measure(stellar_core::client::MeasureSpec::sketch())
        .run()
        .unwrap();

    let total = u64::from(TOTAL);
    assert_eq!(outcome.summary.count, total as usize);
    let offered = outcome.result.offered.expect("spec runs report offered load");
    assert_eq!(offered.arrivals, total);
    assert!((offered.mean_rate_per_s - 200.0).abs() < 5.0, "rate {}", offered.mean_rate_per_s);

    // The request slab never holds more than the submission slice plus the
    // requests actually in flight: at a 5 ms mean IAT and 10 s submission
    // slices that is a few thousand slots, overwhelmingly reused.
    let high_water = outcome.metrics.counter(metric::REQUEST_SLOTS_HIGH_WATER);
    let allocated = outcome.metrics.counter(metric::REQUEST_SLOTS_ALLOCATED);
    let reused = outcome.metrics.counter(metric::REQUEST_SLOTS_REUSED);
    assert!(high_water > 0, "slab counters must be recorded");
    assert!(
        high_water < total / 20,
        "pending state must stay O(slice), not O(total): high water {high_water} of {total}"
    );
    assert_eq!(allocated + reused, total, "every request takes exactly one slot");
    assert!(reused > allocated * 10, "slots are overwhelmingly recycled: {reused} vs {allocated}");

    // The calendar queue resizes O(log n) times, not per-event.
    let rebuilds = outcome.metrics.counter(metric::CALQUEUE_REBUILDS)
        + outcome.metrics.counter(metric::CALQUEUE_OVERCROWD_REBUILDS);
    assert!(rebuilds < 200, "calendar queue rebuilds must stay bounded: {rebuilds}");
}

#[test]
fn trace_replay_sweep_is_byte_identical_across_thread_counts() {
    // Trace replay draws its whole schedule at build time from the run
    // seed; crossing it with providers and seeds on varying worker counts
    // must reproduce the serial CSV byte for byte.
    let spec = WorkloadSpec {
        arrival: ArrivalSpec::TraceReplay {
            functions: 4,
            horizon_ms: 30_000.0,
            trace_window_ms: 60_000.0,
        },
        mode: ModeSpec::Open,
    };
    let mut runtime = RuntimeConfig::single(IatSpec::short(), 80);
    runtime.warmup_rounds = 0;
    let scenarios = [aws_like(), google_like()]
        .into_iter()
        .map(|cfg| Scenario::new(cfg.name.clone(), cfg).workload(runtime.clone()))
        .collect();
    let grid = SweepGrid::cross_workloads(scenarios, &[("trace", spec)], vec![2025, 2026]);
    let serial = SweepRunner::new(1).run(&grid);
    assert_eq!(serial.ok_count(), 4);
    let csv = serial.to_csv();
    assert!(csv.contains("aws-like/trace"), "workload axis labels the cells:\n{csv}");
    for threads in [2, 4] {
        let threaded = SweepRunner::new(threads).run(&grid);
        assert_eq!(csv, threaded.to_csv(), "{threads}-worker trace sweep must match serial");
    }
}

#[test]
fn streaming_spec_run_is_identical_across_queue_backends() {
    // The event-queue backend is a pure performance knob; the spec-driven
    // streaming path must not let it leak into results.
    let run = |queue| {
        let mut runtime = RuntimeConfig::single(IatSpec::short(), 2_000);
        runtime.warmup_rounds = 10;
        let runtime =
            runtime.with_workload(WorkloadSpec::preset("mmpp-burst").expect("preset exists"));
        let outcome = Experiment::new(test_provider())
            .workload(runtime)
            .seed(23)
            .queue(queue)
            .measure(stellar_core::client::MeasureSpec::exact())
            .run()
            .unwrap();
        outcome.latencies_ms()
    };
    use simkit::engine::QueueKind;
    let calendar = run(QueueKind::Calendar);
    assert_eq!(calendar, run(QueueKind::BinaryHeap));
    assert_eq!(calendar, run(QueueKind::Adaptive));
}

#[test]
fn keepalive_checks_scale_with_instance_lifetimes_not_requests() {
    // Each instance keeps at most one keep-alive timer queued, so the
    // reap checks a run dispatches are bounded by its instances and how
    // long they live, not by how many requests they served. At a 50 ms
    // mean gap the run lasts several keep-alive periods, so checks queued
    // early in the run come due inside it.
    let total = TOTAL / 5;
    for (provider, min_keepalive_s) in [(aws_like(), 600.0), (google_like(), 360.0)] {
        let name = provider.name.clone();
        let mut runtime = RuntimeConfig::single(IatSpec::short(), total);
        runtime.warmup_rounds = 0;
        let runtime = runtime.with_workload(WorkloadSpec {
            arrival: ArrivalSpec::Exponential { mean_ms: 50.0 },
            mode: ModeSpec::Open,
        });
        let outcome = Experiment::new(provider)
            .workload(runtime)
            .seed(29)
            .measure(stellar_core::client::MeasureSpec::sketch())
            .profile_events(true)
            .run()
            .unwrap();
        let arrivals = outcome.metrics.counter(metric::PROFILE_COUNT[0]);
        let reap_checks = outcome.metrics.counter(metric::PROFILE_COUNT[8]);
        let spawns = outcome.metrics.counter(metric::INSTANCES_SPAWNED);
        assert_eq!(metric::PROFILE_COUNT[8], "profile_count_reap_check");
        assert_eq!(arrivals, u64::from(total), "{name}: every arrival is dispatched once");
        let duration_s = outcome.result.duration.as_secs();
        let bound = spawns as f64 * (duration_s / min_keepalive_s + 2.0);
        assert!(
            (reap_checks as f64) <= bound,
            "{name}: {reap_checks} reap checks for {spawns} spawns over {duration_s:.0} s \
             (bound {bound:.0}, {arrivals} arrivals)"
        );
    }
}
