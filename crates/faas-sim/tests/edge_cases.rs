//! Edge-case tests for simulator paths not covered by the main behaviour
//! suite: controller re-arming, overcommit at limits, reap races, boot
//! overlap, adaptive spawn pacing and dispatch accounting.

use faas_sim::cloud::CloudSim;
use faas_sim::config::{ProviderConfig, ScalePolicy};
use faas_sim::spec::FunctionSpec;
use faas_sim::testutil::{line_spec, test_provider};
use faas_sim::types::{FunctionId, Runtime, TransferMode, MB};
use simkit::dist::Dist;
use simkit::time::SimTime;

const SEC: fn(f64) -> SimTime = SimTime::from_secs;

fn submit_burst(cloud: &mut CloudSim, f: FunctionId, n: u32, at: SimTime) {
    for i in 0..n {
        cloud.submit(f, u64::from(i), at);
    }
}

#[test]
fn periodic_controller_rearms_after_queue_drains() {
    let mut cfg = test_provider();
    cfg.scaling.policy = ScalePolicy::Periodic { interval_ms: 2000.0, step: 1 };
    let mut cloud = CloudSim::new(cfg, 1);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(400.0).build()).unwrap();
    // First backlog grows the fleet a little, then drains.
    submit_burst(&mut cloud, f, 10, SimTime::ZERO);
    cloud.run_until(SEC(30.0));
    assert_eq!(cloud.drain_completions().len(), 10);
    let spawns_first = cloud.stats().spawns;
    // A second backlog much later must re-arm the controller and scale
    // again (the tick must not have died with the first queue).
    submit_burst(&mut cloud, f, 10, SEC(40.0));
    cloud.run_until(SEC(80.0));
    assert_eq!(cloud.drain_completions().len(), 10);
    assert!(cloud.stats().spawns >= spawns_first, "controller must still react after idle period");
}

#[test]
fn target_concurrency_overcommits_at_instance_cap() {
    let mut cfg = test_provider();
    cfg.scaling.policy = ScalePolicy::TargetConcurrency { target: 2.0 };
    cfg.limits.max_instances_per_function = 3;
    let mut cloud = CloudSim::new(cfg, 2);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(200.0).build()).unwrap();
    // 30 requests want 15 instances; the cap allows 3. Queues must
    // overcommit past the target instead of dropping work.
    submit_burst(&mut cloud, f, 30, SimTime::ZERO);
    cloud.run_until(SEC(120.0));
    assert_eq!(cloud.drain_completions().len(), 30, "no request is lost");
    assert!(cloud.stats().spawns <= 3);
}

#[test]
fn reap_scheduled_before_reuse_is_stale() {
    let mut cfg = test_provider();
    cfg.keepalive.idle_timeout_ms = Dist::constant(5_000.0);
    let mut cloud = CloudSim::new(cfg, 3);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    cloud.submit(f, 0, SimTime::ZERO);
    cloud.run_until(SEC(2.0));
    cloud.drain_completions();
    // Reuse the instance at t=4s, before the reap scheduled for ~t=5.3s.
    cloud.submit(f, 1, SEC(4.0));
    cloud.run_until(SEC(4.5));
    assert_eq!(cloud.drain_completions().len(), 1);
    // The stale reap (from the first idle period) fires and must not kill
    // the now-again-idle instance; only the *new* idle period counts.
    cloud.run_until(SEC(6.0));
    assert_eq!(cloud.live_instances(f), 1, "stale reap must be ignored");
    // The fresh reap eventually fires (~t=9.5s).
    cloud.run_until(SEC(12.0));
    assert_eq!(cloud.live_instances(f), 0);
    assert_eq!(cloud.stats().reaps, 1);
}

#[test]
fn fetch_overlap_hides_image_inside_boot() {
    let base = test_provider();
    let run = |overlaps: bool, extra_mb: f64| {
        let mut cfg = base.clone();
        cfg.cold_start.fetch_overlaps_boot = overlaps;
        // Sandbox 100ms; image fetch 40 + size/100MBps.
        let mut cloud = CloudSim::new(cfg, 4);
        let f = cloud
            .deploy(
                FunctionSpec::builder("f").runtime(Runtime::Go).extra_image_mb(extra_mb).build(),
            )
            .unwrap();
        cloud.submit(f, 0, SimTime::ZERO);
        cloud.run_until(SEC(30.0));
        cloud.drain_completions()[0].breakdown.cold.unwrap().total_ms
    };
    // Small image (2MB base: fetch 60ms < sandbox 100ms): overlap saves
    // the whole fetch.
    let small_sum = run(false, 0.0);
    let small_overlap = run(true, 0.0);
    assert!((small_sum - small_overlap - 60.0).abs() < 1.0);
    // Large image (fetch 1060ms > sandbox): overlap saves only the boot.
    let large_sum = run(false, 100.0);
    let large_overlap = run(true, 100.0);
    assert!((large_sum - large_overlap - 100.0).abs() < 1.0);
}

#[test]
fn adaptive_spawn_boost_accelerates_large_bursts() {
    let mut slow = test_provider();
    slow.scaling.spawn_rate_per_sec = 20.0;
    slow.scaling.spawn_burst = 1.0;
    let mut boosted = slow.clone();
    boosted.scaling.adaptive_spawn_threshold = 30;
    boosted.scaling.adaptive_spawn_mult = 10.0;
    let run = |cfg: ProviderConfig| {
        let mut cloud = CloudSim::new(cfg, 5);
        let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(50.0).build()).unwrap();
        submit_burst(&mut cloud, f, 100, SimTime::ZERO);
        cloud.run_until(SEC(120.0));
        let done = cloud.drain_completions();
        assert_eq!(done.len(), 100);
        stats::percentile::p99(&done.iter().map(|c| c.latency_ms()).collect::<Vec<_>>())
    };
    let p99_slow = run(slow);
    let p99_boosted = run(boosted);
    assert!(
        p99_boosted < 0.6 * p99_slow,
        "boost should cut tail spawn waits: {p99_boosted:.0} vs {p99_slow:.0}"
    );
}

#[test]
fn dispatch_wait_shows_up_in_breakdown() {
    let mut cfg = test_provider();
    cfg.dispatch.service_ms = Dist::constant(2.0);
    let mut cloud = CloudSim::new(cfg, 6);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    submit_burst(&mut cloud, f, 50, SimTime::ZERO);
    cloud.run_until(SEC(60.0));
    let done = cloud.drain_completions();
    let max_wait = done.iter().map(|c| c.breakdown.dispatch_wait_ms).fold(0.0f64, f64::max);
    // Position 50 of a serial 2 ms dispatcher waits ~100 ms.
    assert!((90.0..=110.0).contains(&max_wait), "last dispatch wait {max_wait:.1}");
}

#[test]
fn internal_requests_skip_propagation() {
    let mut cloud = CloudSim::new(test_provider(), 7);
    let spec = line_spec(&[0.0, 0.0], &[(TransferMode::Inline, MB)]);
    let producer = cloud.deploy_dag(&spec.compile().unwrap()).unwrap().root;
    cloud.submit(producer, 0, SimTime::ZERO);
    cloud.run_until(SEC(30.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 1, "only the external request completes to the client");
    // The external leg pays 2×10ms propagation; the internal chain round
    // trip contributes no propagation (chain_ms < external prop would be
    // impossible if it did — verify via the transfer window instead).
    let transfers = cloud.drain_transfers();
    let t = transfers[0];
    // Inline 1MB at 100MB/s = 10ms wire + consumer cold boot (~240ms) +
    // in-DC shares; 2x10ms WAN propagation must NOT be included.
    let wan_free = t.transfer_ms();
    assert!(wan_free < 280.0, "transfer {wan_free:.1} should not pay WAN legs");
}

#[test]
fn deep_chain_accumulates_transfers_in_order() {
    let mut cloud = CloudSim::new(test_provider(), 8);
    // Four-hop chain: a -> b -> c -> d.
    let edges = [
        (TransferMode::Inline, MB),
        (TransferMode::Storage, 500_000),
        (TransferMode::Inline, 10_000),
    ];
    let a = cloud.deploy_dag(&line_spec(&[0.0; 4], &edges).compile().unwrap()).unwrap().root;
    cloud.submit(a, 0, SimTime::ZERO);
    cloud.run_until(SEC(60.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 1);
    let transfers = cloud.drain_transfers();
    assert_eq!(transfers.len(), 3, "one transfer per hop");
    // Transfer windows nest: a->b starts first, d's payload arrives last.
    assert!(transfers[0].send_start <= transfers[1].send_start);
    assert!(transfers[1].send_start <= transfers[2].send_start);
    // The root request's latency covers the whole nested chain.
    assert!(done[0].latency_ms() > transfers.iter().map(|t| t.transfer_ms()).sum::<f64>() * 0.5);
    assert_eq!(cloud.stats().internal, 3);
}

#[test]
fn warm_hits_and_stats_accounting() {
    let mut cloud = CloudSim::new(test_provider(), 9);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    for i in 0..10 {
        cloud.submit(f, i, SEC(i as f64));
    }
    cloud.run_until(SEC(30.0));
    let stats = cloud.stats();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.spawns, 1);
    assert_eq!(stats.warm_hits, 9, "everything after the first hit warm");
    assert_eq!(stats.internal, 0);
}

#[test]
fn run_to_idle_processes_trailing_reaps() {
    let mut cfg = test_provider();
    cfg.keepalive.idle_timeout_ms = Dist::constant(1_000.0);
    let mut cloud = CloudSim::new(cfg, 10);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    cloud.submit(f, 0, SimTime::ZERO);
    cloud.run_to_idle();
    assert_eq!(cloud.drain_completions().len(), 1);
    assert_eq!(cloud.live_instances(f), 0, "trailing reap executed");
}

#[test]
fn zero_instance_limit_is_rejected_by_validation() {
    let mut cfg = test_provider();
    cfg.limits.max_instances_per_function = 0;
    assert!(cfg.validate().is_err());
}

#[test]
fn cost_aware_validation() {
    let mut cfg = test_provider();
    cfg.scaling.policy = ScalePolicy::CostAware { cold_estimate_ms: 0.0 };
    assert!(cfg.validate().is_err());
    cfg.scaling.policy = ScalePolicy::CostAware { cold_estimate_ms: 300.0 };
    assert!(cfg.validate().is_ok());
}

#[test]
fn resource_usage_tracks_fleet_economics() {
    let mut cloud = CloudSim::new(test_provider(), 11);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(500.0).build()).unwrap();
    for i in 0..10 {
        cloud.submit(f, i, SimTime::ZERO);
    }
    cloud.run_until(SEC(30.0));
    assert_eq!(cloud.drain_completions().len(), 10);
    let usage = cloud.resource_usage(f);
    assert_eq!(usage.spawns, 10, "per-request policy: one instance each");
    assert_eq!(usage.requests, 10);
    // Each request bills >= its 500ms execution (plus handling shares).
    assert!(usage.busy_ms_per_request() >= 500.0);
    assert!(usage.busy_ms_per_request() < 520.0);
    // Instances outlive their single request (keep-alive), so utilisation
    // is low — the provider-side cost of the no-queuing policy.
    assert!(usage.utilization() < 0.2, "utilization {}", usage.utilization());
    assert!(usage.instance_seconds > 10.0 * 0.5);

    // A queueing policy serves the same work with far fewer instances.
    let mut cfg = test_provider();
    cfg.scaling.policy = ScalePolicy::TargetConcurrency { target: 8.0 };
    let mut cloud2 = CloudSim::new(cfg, 11);
    let f2 = cloud2.deploy(FunctionSpec::builder("f").exec_constant_ms(500.0).build()).unwrap();
    for i in 0..10 {
        cloud2.submit(f2, i, SimTime::ZERO);
    }
    cloud2.run_until(SEC(30.0));
    cloud2.drain_completions();
    let usage2 = cloud2.resource_usage(f2);
    assert!(usage2.spawns < usage.spawns);
    assert!(usage2.utilization() > usage.utilization());
}

#[test]
fn boot_failures_are_retried_transparently() {
    let mut cfg = test_provider();
    cfg.cold_start.boot_failure_prob = 0.5;
    let mut cloud = CloudSim::new(cfg, 12);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(50.0).build()).unwrap();
    submit_burst(&mut cloud, f, 40, SimTime::ZERO);
    cloud.run_until(SEC(300.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 40, "failures must not lose requests");
    let stats = cloud.stats();
    assert!(stats.boot_failures > 5, "failures injected: {}", stats.boot_failures);
    assert_eq!(
        stats.spawns,
        40 + stats.boot_failures,
        "each failure costs exactly one retry spawn"
    );
    // Requests behind failed boots pay the retry in queue wait.
    let max_wait = done.iter().map(|c| c.breakdown.queue_wait_ms).fold(0.0f64, f64::max);
    assert!(max_wait > 400.0, "retried boots double the wait: {max_wait:.0}");
}

#[test]
fn boot_failure_prob_range_is_inclusive() {
    // p = 1.0 is a legal Bernoulli parameter (every boot fails and is
    // retried; `run_until` still bounds the run). Only values outside
    // [0, 1] are rejected.
    let mut cfg = test_provider();
    cfg.cold_start.boot_failure_prob = 1.0;
    assert!(cfg.validate().is_ok(), "p=1 is a legal probability");
    cfg.cold_start.boot_failure_prob = 1.1;
    assert!(cfg.validate().is_err());
    cfg.cold_start.boot_failure_prob = -0.1;
    assert!(cfg.validate().is_err());
}

#[test]
fn timeline_records_fleet_dynamics() {
    let mut cloud = CloudSim::new(test_provider(), 13);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(2000.0).build()).unwrap();
    cloud.enable_timeline(SimTime::from_millis(100.0));
    submit_burst(&mut cloud, f, 5, SimTime::from_millis(50.0));
    cloud.run_until(SEC(10.0));
    assert_eq!(cloud.drain_completions().len(), 5);
    let timeline = cloud.timeline();
    assert!(!timeline.is_empty());
    // Samples are ordered in time and consistent with the fleet cap.
    for w in timeline.windows(2) {
        assert!(w[1].at >= w[0].at);
    }
    // Early samples show booting instances; mid samples show 5 busy.
    let saw_booting = timeline.iter().any(|s| s.booting > 0);
    let saw_busy5 = timeline.iter().any(|s| s.busy == 5);
    assert!(saw_booting, "boot phase captured");
    assert!(saw_busy5, "execution phase captured");
    // Telemetry stops once the cloud drains (no infinite ticking).
    cloud.run_to_idle();
    let n = cloud.timeline().len();
    assert!(n < 5000, "telemetry must stop with the workload, got {n} samples");
}

#[test]
fn timeline_disabled_by_default() {
    let mut cloud = CloudSim::new(test_provider(), 14);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    cloud.submit(f, 0, SimTime::ZERO);
    cloud.run_until(SEC(5.0));
    assert!(cloud.timeline().is_empty());
}
