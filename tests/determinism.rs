//! Determinism regression tests: identical seeds must produce identical
//! results across the whole stack, and independent subsystem RNG streams
//! must isolate experiments from unrelated configuration changes.

use faas_sim::cloud::CloudSim;
use faas_sim::spec::FunctionSpec;
use faas_sim::types::TransferMode;
use providers::profiles::{aws_like, azure_like, google_like};
use simkit::time::SimTime;
use stellar_core::config::{IatSpec, RuntimeConfig};
use stellar_core::protocols::{
    bursty_invocations, cold_invocations, transfer_chain, warm_invocations, BurstIat, ColdSetup,
};
use stellar_core::runner::{Scenario, SweepGrid, SweepRunner};

#[test]
fn identical_seeds_identical_latencies_per_provider() {
    for cfg in [aws_like(), google_like(), azure_like()] {
        let run = || warm_invocations(cfg.clone(), 200, 12345).unwrap().latencies_ms();
        let a = run();
        let b = run();
        assert_eq!(a, b, "{} must be bit-deterministic", cfg.name);
    }
}

#[test]
fn different_seeds_decorrelate() {
    let a = warm_invocations(aws_like(), 200, 1).unwrap().latencies_ms();
    let b = warm_invocations(aws_like(), 200, 2).unwrap().latencies_ms();
    assert_ne!(a, b);
    // ...but medians agree (same distribution).
    let (ma, mb) = (stats::percentile::median(&a), stats::percentile::median(&b));
    assert!((ma / mb - 1.0).abs() < 0.1, "medians {ma:.1} vs {mb:.1}");
}

#[test]
fn subsystem_streams_are_isolated() {
    // Changing the *keep-alive* distribution must not perturb the warm
    // latency sequence of requests that never touch a cold start: the RNG
    // streams are forked per subsystem, so reap sampling does not consume
    // warm-path randomness.
    let run = |keepalive_ms: f64| {
        let mut cfg = aws_like();
        cfg.keepalive.idle_timeout_ms = simkit::dist::Dist::constant(keepalive_ms);
        let mut cloud = CloudSim::new(cfg, 777);
        let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
        for i in 0..50 {
            cloud.submit(f, i, SimTime::from_secs(3.0 * i as f64));
        }
        cloud.run_until(SimTime::from_secs(200.0));
        cloud
            .drain_completions()
            .into_iter()
            .filter(|c| !c.cold)
            .map(|c| c.latency_ms())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(600_000.0), run(900_000.0));
}

/// Runs each job as one cell of a `threads`-worker [`SweepRunner`] pool
/// and collects the results in job order.
fn sharded<T: Send, F: Fn() -> T + Sync>(jobs: &[F], threads: usize) -> Vec<T> {
    SweepRunner::new(threads).map(jobs, |job| job())
}

#[test]
fn fig3_warm_sweep_sharded_across_threads_matches_serial() {
    // The Fig 3 measurement sweep — one warm run per provider — run once
    // serially and once sharded over 1 and 3 pool workers. Each run owns
    // its RNG state, so sharding the sweep must be bit-identical.
    let providers = [aws_like(), google_like(), azure_like()];
    let serial: Vec<Vec<f64>> = providers
        .iter()
        .map(|cfg| warm_invocations(cfg.clone(), 120, 2021).unwrap().latencies_ms())
        .collect();
    let jobs: Vec<_> = providers
        .iter()
        .map(|cfg| move || warm_invocations(cfg.clone(), 120, 2021).unwrap().latencies_ms())
        .collect();
    for threads in [1, 3] {
        assert_eq!(
            serial,
            sharded(&jobs, threads),
            "fig3 sweep sharded over {threads} workers must match serial"
        );
    }
}

#[test]
fn fig8_and_table1_shards_match_serial() {
    // The cold-start (Fig 8) and transfer/bursty (Table 1) paths run as a
    // mixed shard set: heterogeneous experiments concurrently on separate
    // threads must reproduce their serial latency sequences exactly.
    let cold =
        || cold_invocations(aws_like(), ColdSetup::baseline(), 60, 20, 31).unwrap().latencies_ms();
    let xfer = || {
        transfer_chain(google_like(), TransferMode::Storage, 1_000_000, 40, 32)
            .unwrap()
            .latencies_ms()
    };
    let burst = || {
        bursty_invocations(azure_like(), BurstIat::Short, 10, 20.0, 40, 3, 33)
            .unwrap()
            .latencies_ms()
    };
    let serial = vec![cold(), xfer(), burst()];
    let jobs: [Box<dyn Fn() -> Vec<f64> + Sync>; 3] =
        [Box::new(cold), Box::new(xfer), Box::new(burst)];
    for threads in [1, 3] {
        assert_eq!(
            serial,
            sharded(&jobs, threads),
            "fig8/table1 runs sharded over {threads} workers must match serial"
        );
    }
}

#[test]
fn sweep_runner_is_byte_identical_across_thread_counts() {
    // The sweep runner extends the sharding guarantee above to the whole
    // grid pipeline: a 3-provider × 4-seed grid merged from 1, 2 and 8
    // workers must render byte-identical reports (rows keyed by cell
    // index, metrics merged in cell order).
    let workload = RuntimeConfig::single(IatSpec::short(), 60);
    let grid = SweepGrid::new(
        [aws_like(), google_like(), azure_like()]
            .into_iter()
            .map(|cfg| Scenario::new(cfg.name.clone(), cfg).workload(workload.clone()))
            .collect(),
        vec![2021, 2022, 2023, 2024],
    );
    let serial = SweepRunner::new(1).run(&grid);
    let csv = serial.to_csv();
    assert_eq!(serial.rows.len(), 12);
    assert_eq!(serial.ok_count(), 12);
    for threads in [2, 8] {
        let threaded = SweepRunner::new(threads).run(&grid);
        assert_eq!(csv, threaded.to_csv(), "{threads}-worker sweep must match serial");
        assert_eq!(
            serial.metrics, threaded.metrics,
            "{threads}-worker merged metrics must match serial"
        );
    }
}

#[test]
fn policy_sweep_is_byte_identical_across_thread_counts() {
    // Tail-tolerance policies add timer wake-ups, duplicate attempts and
    // cancellations to every cell; none of it may leak scheduling
    // nondeterminism. A 3-provider × 3-policy × 2-seed grid merged from
    // 1, 2 and 8 workers must render byte-identical extended reports.
    let mut workload = RuntimeConfig::single(IatSpec::short(), 60);
    workload.exec_ms = 120.0;
    let scenarios = [aws_like(), google_like(), azure_like()]
        .into_iter()
        .map(|cfg| Scenario::new(cfg.name.clone(), cfg).workload(workload.clone()))
        .collect();
    let policies: Vec<(&str, Option<policy::PolicySpec>)> = vec![
        ("none", None),
        ("hedge-p95", policy::PolicySpec::preset("hedge-p95")),
        ("tied-2", policy::PolicySpec::preset("tied-2")),
    ];
    let grid = SweepGrid::cross_policies(scenarios, &policies, vec![2021, 2022]);
    let serial = SweepRunner::new(1).run(&grid);
    let csv = serial.to_csv_extended();
    assert_eq!(serial.rows.len(), 18);
    assert_eq!(serial.ok_count(), 18);
    assert!(csv.contains("aws-like+hedge-p95"), "policy axis labels rows");
    for threads in [2, 8] {
        let threaded = SweepRunner::new(threads).run(&grid);
        assert_eq!(
            csv,
            threaded.to_csv_extended(),
            "{threads}-worker policy sweep must match serial"
        );
        assert_eq!(
            serial.metrics, threaded.metrics,
            "{threads}-worker merged metrics must match serial"
        );
    }
}

#[test]
fn cold_start_measurements_are_reproducible_across_replica_counts_only_in_shape() {
    // Replica count changes the event interleaving (different wall-clock
    // spacing), so sequences differ — but the latency *distribution*
    // stays put. This guards the §IV replica-acceleration trick against
    // accidentally changing what is measured.
    let a = cold_invocations(aws_like(), ColdSetup::baseline(), 300, 50, 5).unwrap().latencies_ms();
    let b =
        cold_invocations(aws_like(), ColdSetup::baseline(), 300, 150, 5).unwrap().latencies_ms();
    let (ma, mb) = (stats::percentile::median(&a), stats::percentile::median(&b));
    assert!(
        (ma / mb - 1.0).abs() < 0.08,
        "replica count must not shift the cold median: {ma:.0} vs {mb:.0}"
    );
    let d = stats::ks::ks_statistic(&a, &b);
    assert!(d < 0.12, "cold distributions must agree across replica counts: ks {d:.3}");
}
