//! End-to-end integration: configuration → deployer → client → statistics
//! across all crates, on each calibrated provider.

use faas_sim::types::{DeploymentMethod, Runtime, TransferMode};
use providers::paper::ProviderKind;
use providers::profiles::{aws_like, config_for, google_like};
use stats::Summary;
use stellar_core::client::run_workload;
use stellar_core::config::{ChainConfig, IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::Experiment;
use stellar_integration_tests::deployed;

#[test]
fn full_pipeline_on_every_provider() {
    for kind in ProviderKind::ALL {
        let static_cfg =
            StaticConfig { functions: vec![StaticFunction::python_zip("e2e").with_replicas(3)] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 2000.0 }, 200);
        runtime_cfg.warmup_rounds = 3;
        let (mut cloud, deployment) = deployed(config_for(kind), &static_cfg, &runtime_cfg, 9);
        assert_eq!(deployment.len(), 3);
        let result = run_workload(&mut cloud, &deployment, &runtime_cfg, 9).unwrap();
        assert_eq!(result.completions.len(), 200);
        let summary = Summary::from_samples(&result.latencies_ms());
        assert!(summary.median > 10.0 && summary.median < 200.0, "{kind}: {summary}");
        // Conservation: every completion's breakdown sums to its latency.
        for c in &result.completions {
            assert!(
                (c.breakdown.total_ms() - c.latency_ms()).abs() < 1e-3,
                "{kind}: breakdown mismatch on {}",
                c.id
            );
        }
    }
}

#[test]
fn experiment_builder_equals_manual_pipeline() {
    let static_cfg =
        StaticConfig { functions: vec![StaticFunction::python_zip("same").with_replicas(2)] };
    let runtime_cfg = RuntimeConfig::single(IatSpec::short(), 100);

    let outcome = Experiment::new(aws_like())
        .functions(static_cfg.clone())
        .workload(runtime_cfg.clone())
        .seed(123)
        .run()
        .unwrap();

    let (mut cloud, deployment) = deployed(aws_like(), &static_cfg, &runtime_cfg, 123);
    let manual = run_workload(&mut cloud, &deployment, &runtime_cfg, 123).unwrap();

    assert_eq!(outcome.result.latencies_ms(), manual.latencies_ms());
}

#[test]
fn chained_experiment_produces_consistent_timestamps() {
    let mut runtime_cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 2000.0 }, 100);
    runtime_cfg.warmup_rounds = 2;
    runtime_cfg.chain =
        Some(ChainConfig { length: 2, mode: TransferMode::Storage, payload_bytes: 1_000_000 });
    let outcome = Experiment::new(google_like())
        .functions(StaticConfig { functions: vec![StaticFunction::go_zip("chain")] })
        .workload(runtime_cfg)
        .seed(5)
        .run()
        .unwrap();
    // Cross-validation the paper describes (§IV): the in-function transfer
    // window must sit inside the client-observed end-to-end latency.
    assert_eq!(outcome.result.transfers.len(), 100);
    for (completion, transfer) in outcome.result.completions.iter().zip(&outcome.result.transfers) {
        assert!(transfer.transfer_ms() > 0.0);
        assert!(
            transfer.transfer_ms() < completion.latency_ms(),
            "transfer {} must be contained in e2e {}",
            transfer.transfer_ms(),
            completion.latency_ms()
        );
        assert!(transfer.send_start >= completion.issued_at);
        assert!(transfer.received <= completion.completed_at);
    }
}

#[test]
fn multi_entry_static_config_deploys_all_functions() {
    let static_cfg = StaticConfig {
        functions: vec![
            StaticFunction::python_zip("small"),
            StaticFunction::go_zip("large").with_extra_image_mb(100.0).with_replicas(2),
            StaticFunction {
                name: "container".into(),
                runtime: Runtime::Python3,
                deployment: DeploymentMethod::Container,
                memory_mb: 1024,
                extra_image_mb: 0.0,
                replicas: 1,
            },
        ],
    };
    let runtime_cfg = RuntimeConfig::single(IatSpec::Fixed { ms: 1000.0 }, 8);
    let (mut cloud, deployment) = deployed(aws_like(), &static_cfg, &runtime_cfg, 3);
    assert_eq!(deployment.len(), 4); // 1 + 2 + 1 replicas
    let result = run_workload(&mut cloud, &deployment, &runtime_cfg, 3).unwrap();
    assert_eq!(result.completions.len(), 8);
}

#[test]
fn replicas_accelerate_cold_measurements_without_warming() {
    // The paper's trick (§IV): many replicas let cold starts be measured
    // quickly; every sample must still be a genuine cold start.
    let outcome = stellar_core::protocols::cold_invocations(
        aws_like(),
        stellar_core::protocols::ColdSetup::baseline(),
        120,
        60,
        77,
    )
    .unwrap();
    assert_eq!(outcome.result.completions.len(), 120);
    assert!(outcome.result.cold_fraction() > 0.95);
    // Wall-clock (simulated) is ~ samples/replicas × 15 min, far below
    // samples × 15 min.
    assert!(outcome.result.duration < simkit::time::SimTime::from_mins(45));
}

/// Little's law on the `closed-loop` preset: N users with mean think
/// time Z and mean response time R offer X = N / (Z + R). Each user
/// thinks from its own logical response, with or without a policy, so
/// X·(Z+R)/N is 1 (a client that saw responses only at slice boundaries
/// offered about a third of that).
#[test]
fn closed_loop_offers_its_littles_law_rate() {
    let spec = workload::spec::WorkloadSpec::preset("closed-loop").unwrap();
    let workload::spec::ModeSpec::Closed { concurrency } = spec.mode else {
        panic!("the closed-loop preset runs closed")
    };
    let workload::spec::ArrivalSpec::Exponential { mean_ms: think_ms } = spec.arrival else {
        panic!("the closed-loop preset thinks exponentially")
    };
    for policy in [None, Some(policy::PolicySpec::preset("tied-2").unwrap())] {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), 2000);
        cfg.workload = Some(spec.clone());
        cfg.policy = policy.clone();
        let outcome = Experiment::new(aws_like())
            .functions(StaticConfig { functions: vec![StaticFunction::python_zip("f")] })
            .workload(cfg)
            .seed(3)
            .run()
            .unwrap();
        let x = outcome.result.offered.expect("closed-loop runs report offered load");
        let r_ms = outcome.result.latency_agg.mean();
        let ratio = x.mean_rate_per_s * (think_ms + r_ms) / 1e3 / f64::from(concurrency);
        assert!((ratio - 1.0).abs() < 0.10, "{policy:?}: X·(Z+R)/N = {ratio:.3}");
    }
}
