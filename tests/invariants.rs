//! Property-based integration tests: simulator conservation laws and
//! statistics invariants hold for arbitrary workloads and providers.

use faas_sim::cloud::CloudSim;
use faas_sim::spec::FunctionSpec;
use faas_sim::testutil::{line_spec, test_provider};
use faas_sim::types::TransferMode;
use proptest::prelude::*;
use providers::profiles::{aws_like, azure_like, google_like};
use simkit::time::SimTime;

fn provider_strategy() -> impl Strategy<Value = faas_sim::config::ProviderConfig> {
    prop_oneof![Just(test_provider()), Just(aws_like()), Just(google_like()), Just(azure_like()),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every accepted request completes exactly once, regardless of the
    /// arrival pattern, burst shape or provider.
    #[test]
    fn every_request_completes_exactly_once(
        provider in provider_strategy(),
        seed in 0u64..1000,
        // Arbitrary arrival offsets (ms) and per-arrival burst sizes.
        arrivals in prop::collection::vec((0u64..120_000, 1u32..20), 1..40),
    ) {
        let mut cloud = CloudSim::new(provider, seed);
        let f = cloud.deploy(FunctionSpec::builder("prop").build()).unwrap();
        let mut expected = 0u64;
        for (offset_ms, burst) in &arrivals {
            for b in 0..*burst {
                cloud.submit(f, u64::from(b), SimTime::from_millis(*offset_ms as f64));
                expected += 1;
            }
        }
        cloud.run_until(SimTime::from_secs(4000.0));
        let done = cloud.drain_completions();
        prop_assert_eq!(done.len() as u64, expected);
        // No duplicate completions.
        let mut ids: Vec<_> = done.iter().map(|c| c.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, expected);
    }

    /// The per-component breakdown always sums to the end-to-end latency,
    /// and causality holds (completion after issue).
    #[test]
    fn breakdown_conservation(
        provider in provider_strategy(),
        seed in 0u64..1000,
        exec_ms in 0f64..2000.0,
        burst in 1u32..50,
    ) {
        let mut cloud = CloudSim::new(provider, seed);
        let f = cloud
            .deploy(FunctionSpec::builder("prop").exec_constant_ms(exec_ms).build())
            .unwrap();
        for i in 0..burst {
            cloud.submit(f, u64::from(i), SimTime::ZERO);
        }
        cloud.run_until(SimTime::from_secs(4000.0));
        for c in cloud.drain_completions() {
            prop_assert!(c.completed_at >= c.issued_at);
            let diff = (c.breakdown.total_ms() - c.latency_ms()).abs();
            prop_assert!(diff < 1e-3, "breakdown off by {diff} (ns rounding tolerance 1e-3 ms)");
            prop_assert!(c.breakdown.exec_ms >= exec_ms - 1e-9);
        }
    }

    /// Chained workloads record exactly one transfer per completed parent,
    /// with the transfer window inside the parent's lifetime.
    #[test]
    fn chain_transfer_accounting(
        seed in 0u64..1000,
        payload in 1u64..5_000_000,
        mode in prop_oneof![Just(TransferMode::Inline), Just(TransferMode::Storage)],
        requests in 1u32..15,
    ) {
        let mut cloud = CloudSim::new(test_provider(), seed);
        let spec = line_spec(&[0.0, 0.0], &[(mode, payload)]);
        let producer = cloud.deploy_dag(&spec.compile().unwrap()).unwrap().root;
        for i in 0..requests {
            cloud.submit(producer, u64::from(i), SimTime::from_secs(f64::from(i)));
        }
        cloud.run_until(SimTime::from_secs(4000.0));
        let done = cloud.drain_completions();
        let transfers = cloud.drain_transfers();
        prop_assert_eq!(done.len(), requests as usize);
        prop_assert_eq!(transfers.len(), requests as usize);
        for t in &transfers {
            prop_assert_eq!(t.payload_bytes, payload);
            prop_assert!(t.received >= t.send_start);
        }
    }

    /// Instance accounting: live instances never exceed the configured
    /// maximum, and total spawns cover every cold completion.
    #[test]
    fn instance_accounting(
        seed in 0u64..1000,
        max_instances in 1u32..20,
        burst in 1u32..60,
    ) {
        let mut cfg = test_provider();
        cfg.limits.max_instances_per_function = max_instances;
        let mut cloud = CloudSim::new(cfg, seed);
        let f = cloud
            .deploy(FunctionSpec::builder("prop").exec_constant_ms(100.0).build())
            .unwrap();
        for i in 0..burst {
            cloud.submit(f, u64::from(i), SimTime::ZERO);
        }
        cloud.run_until(SimTime::from_secs(4000.0));
        let done = cloud.drain_completions();
        prop_assert_eq!(done.len(), burst as usize);
        prop_assert!(cloud.live_instances(f) <= max_instances);
        prop_assert!(cloud.stats().spawns <= u64::from(max_instances));
        let cold = done.iter().filter(|c| c.cold).count() as u64;
        prop_assert!(cold <= cloud.stats().spawns);
    }

    /// Client-observed latency statistics are internally consistent for
    /// any sample set the pipeline produces.
    #[test]
    fn summary_consistency(
        seed in 0u64..1000,
        n in 2u32..100,
    ) {
        let mut cloud = CloudSim::new(aws_like(), seed);
        let f = cloud.deploy(FunctionSpec::builder("prop").build()).unwrap();
        for i in 0..n {
            cloud.submit(f, u64::from(i), SimTime::from_millis(f64::from(i) * 500.0));
        }
        cloud.run_until(SimTime::from_secs(4000.0));
        let latencies: Vec<f64> =
            cloud.drain_completions().iter().map(|c| c.latency_ms()).collect();
        let s = stats::Summary::from_samples(&latencies);
        prop_assert!(s.min <= s.p25 && s.p25 <= s.median);
        prop_assert!(s.median <= s.p75 && s.p75 <= s.p90);
        prop_assert!(s.p90 <= s.p95 && s.p95 <= s.tail && s.tail <= s.p999);
        prop_assert!(s.p999 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
        prop_assert!(s.tmr >= 1.0);
    }
}

/// Every registry counter that repeats a typed counter is read from it:
/// after a hedged scatter-gather run under composed crash, purge-storm
/// and throttle faults with the timeline on, each of the thirteen equals
/// its typed source. Crashes never hit a forking producer, so a plain
/// function with failing boots runs the same faults to cover crashes and
/// boot retries too.
#[test]
fn derived_metrics_equal_their_typed_sources() {
    use faas_sim::cloud::metric;
    use stellar_core::client::{run_workload_with, MeasureSpec};
    use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
    use stellar_core::deployer::{deploy, Deployment, Endpoint};

    let mut runtime = RuntimeConfig::single(IatSpec::short(), 300);
    runtime.warmup_rounds = 5;
    runtime.policy = Some(policy::PolicySpec::preset("hedge-p95").unwrap());
    runtime.workload = Some(workload::spec::WorkloadSpec::preset("poisson").unwrap());
    let parts = ["crash-2pct", "purge-storm", "throttle-5pct"];
    let parts = parts.map(|name| faults::FaultSpec::preset(name).unwrap()).to_vec();
    let faults = faults::FaultSpec::Compose { parts }.build();

    let mut seen = [0u64; 13];
    for app in [true, false] {
        let mut provider = aws_like();
        if !app {
            provider.cold_start.boot_failure_prob = 0.2;
        }
        let mut cloud = CloudSim::new(provider, 11);
        let deployment = if app {
            let dep = cloud.deploy_dag(&appsuite::scatter_gather().compile().unwrap()).unwrap();
            let (url, name) = ("https://aws.sim/sg".to_string(), "scatter-gather".to_string());
            Deployment { endpoints: vec![Endpoint { url, function: dep.root, name }] }
        } else {
            let functions = vec![StaticFunction::python_zip("fn")];
            deploy(&mut cloud, &StaticConfig { functions }, &runtime).unwrap()
        };
        cloud.install_faults(faults.clone());
        cloud.enable_timeline(SimTime::from_secs(60.0));
        run_workload_with(&mut cloud, &deployment, &runtime, 11, &MeasureSpec::default()).unwrap();
        cloud.run_to_idle();

        let (m, stats, fault) = (cloud.metrics(), cloud.stats(), cloud.fault_stats());
        let images = cloud.image_store_stats();
        let joins = cloud.dag_join_stats();
        let typed = [
            (metric::REQUESTS_SUBMITTED, stats.submitted),
            (metric::REQUESTS_COMPLETED, stats.completed),
            (metric::INSTANCES_SPAWNED, stats.spawns),
            (metric::BOOT_FAILURE_RETRIES, stats.boot_failures),
            (metric::REQUESTS_CANCELLED, cloud.cancel_stats().cancelled),
            (metric::IMAGE_CACHE_HITS, images.warm_hits),
            (metric::IMAGE_CACHE_MISSES, images.fetches - images.warm_hits),
            (metric::FAULTS_INJECTED, fault.injected),
            (metric::FAULTS_TRANSIENT_ERRORS, fault.transient_errors),
            (metric::FAULTS_CRASHES, fault.crashes),
            (metric::FAULTS_PURGED_INSTANCES, fault.purged_instances),
            (metric::JOINS_FIRED, joins.iter().map(|j| j.fired).sum()),
            (metric::JOIN_STRAGGLERS, joins.iter().map(|j| j.stragglers).sum()),
        ];
        for (i, (name, value)) in typed.into_iter().enumerate() {
            assert_eq!(m.counter(name), value, "{name} (app: {app})");
            seen[i] += value;
        }
        assert!(!cloud.timeline().is_empty(), "the timeline sampled the run");
    }
    assert!(seen.iter().all(|&n| n > 0), "every counter must be exercised: {seen:?}");
}
