//! End-to-end behaviour tests of the simulated cloud using the neutral
//! test provider (round numbers, deterministic distributions).

use faas_sim::cloud::{CloudSim, DeployError};
use faas_sim::config::{ProviderConfig, ScalePolicy};
use faas_sim::spec::FunctionSpec;
use faas_sim::testutil::{line_spec, test_provider};
use faas_sim::types::{FunctionId, Runtime, TransferMode, MB};
use simkit::dist::Dist;
use simkit::time::SimTime;

const SEC: fn(f64) -> SimTime = SimTime::from_secs;

/// Deploys a producer -> consumer pair passing `bytes` over `mode`;
/// returns (producer, consumer).
fn deploy_pair(
    cloud: &mut CloudSim,
    exec_ms: [f64; 2],
    mode: TransferMode,
    bytes: u64,
) -> Result<(FunctionId, FunctionId), DeployError> {
    let dep = cloud.deploy_dag(&line_spec(&exec_ms, &[(mode, bytes)]).compile().unwrap())?;
    Ok((dep.root, dep.functions[1]))
}

fn run_one(cloud: &mut CloudSim, f: FunctionId, at: SimTime) -> faas_sim::Completion {
    cloud.submit(f, 0, at);
    cloud.run_until(at + SEC(20.0));
    let mut done = cloud.drain_completions();
    assert_eq!(done.len(), 1, "expected exactly one completion");
    done.pop().unwrap()
}

#[test]
fn warm_latency_is_propagation_plus_overhead() {
    let mut cloud = CloudSim::new(test_provider(), 1);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    let _cold = run_one(&mut cloud, f, SimTime::ZERO);
    let warm = run_one(&mut cloud, f, SEC(30.0));
    assert!(!warm.cold);
    // 2x10ms propagation + 20ms overhead + 0.5ms dispatch service.
    let expected = 10.0 + 10.0 + 20.0 + 0.5;
    assert!(
        (warm.latency_ms() - expected).abs() < 0.6,
        "warm latency {} vs expected {expected}",
        warm.latency_ms()
    );
}

#[test]
fn cold_latency_includes_boot_stages() {
    let mut cloud = CloudSim::new(test_provider(), 2);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    let cold = run_one(&mut cloud, f, SimTime::ZERO);
    assert!(cold.cold);
    let breakdown = cold.breakdown.cold.expect("cold breakdown present");
    // decision 10 + sandbox 100 + image (40 base + 5MB/100MBps = 50) + 90
    // runtime 30 + handler 10 = 240ms
    assert!((breakdown.total_ms - 240.0).abs() < 1.0, "boot {}", breakdown.total_ms);
    // End-to-end = warm path (40.5) + boot (240)
    assert!((cold.latency_ms() - 280.5).abs() < 1.5, "cold latency {}", cold.latency_ms());
    // Conservation: breakdown sums to end-to-end latency.
    assert!(
        (cold.breakdown.total_ms() - cold.latency_ms()).abs() < 1e-3,
        "breakdown {} vs latency {}",
        cold.breakdown.total_ms(),
        cold.latency_ms()
    );
}

#[test]
fn breakdown_conservation_holds_for_every_request() {
    let mut cloud = CloudSim::new(test_provider(), 3);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(25.0).build()).unwrap();
    for i in 0..50 {
        cloud.submit(f, i, SimTime::from_millis(i as f64 * 200.0));
    }
    cloud.run_until(SEC(120.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 50);
    for c in &done {
        assert!(
            (c.breakdown.total_ms() - c.latency_ms()).abs() < 1e-3,
            "request {} breakdown {} vs latency {}",
            c.id,
            c.breakdown.total_ms(),
            c.latency_ms()
        );
    }
}

#[test]
fn keepalive_reaps_idle_instances() {
    let mut cloud = CloudSim::new(test_provider(), 4);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    let _ = run_one(&mut cloud, f, SimTime::ZERO);
    assert_eq!(cloud.live_instances(f), 1);
    // Keep-alive is 60s in the test provider; idle from ~0.3s.
    cloud.run_until(SEC(120.0));
    assert_eq!(cloud.live_instances(f), 0);
    assert_eq!(cloud.stats().reaps, 1);
    // The next request after the reap is cold again.
    let again = run_one(&mut cloud, f, SEC(150.0));
    assert!(again.cold);
}

#[test]
fn short_iat_keeps_instance_warm() {
    let mut cloud = CloudSim::new(test_provider(), 5);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    // 3s IAT < 60s keep-alive: only the first request is cold.
    for i in 0..20 {
        cloud.submit(f, i, SEC(3.0 * i as f64));
    }
    cloud.run_until(SEC(120.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 20);
    assert_eq!(done.iter().filter(|c| c.cold).count(), 1);
    assert_eq!(cloud.stats().spawns, 1);
}

#[test]
fn per_request_policy_spawns_one_instance_per_burst_request() {
    let mut cloud = CloudSim::new(test_provider(), 6);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(1000.0).build()).unwrap();
    for i in 0..50 {
        cloud.submit(f, i, SimTime::ZERO);
    }
    cloud.run_until(SEC(120.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 50);
    assert_eq!(cloud.stats().spawns, 50, "AWS-style: one instance per request");
    // With 1s execution and ~0.3s boots, nobody should wait ~2s.
    let max = done.iter().map(|c| c.latency_ms()).fold(0.0, f64::max);
    assert!(max < 2000.0, "max latency {max}");
}

#[test]
fn target_concurrency_policy_queues_up_to_target() {
    let mut cfg = test_provider();
    cfg.scaling.policy = ScalePolicy::TargetConcurrency { target: 4.0 };
    let mut cloud = CloudSim::new(cfg, 7);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(1000.0).build()).unwrap();
    for i in 0..100 {
        cloud.submit(f, i, SimTime::ZERO);
    }
    cloud.run_until(SEC(300.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 100);
    // Google-style: ~25 instances for 100 requests at target 4.
    let spawns = cloud.stats().spawns;
    assert!((20..=30).contains(&spawns), "spawned {spawns}");
    // Tail requests waited for up to ~3 executions ahead of them.
    let max = done.iter().map(|c| c.latency_ms()).fold(0.0, f64::max);
    assert!(max > 3000.0, "deep-queued request should exceed 3 execs, max {max}");
    assert!(max < 6000.0, "queue depth bounded by target, max {max}");
}

#[test]
fn periodic_policy_scales_slowly_and_queues_deeply() {
    let mut cfg = test_provider();
    cfg.scaling.policy = ScalePolicy::Periodic { interval_ms: 5000.0, step: 1 };
    let mut cloud = CloudSim::new(cfg, 8);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(1000.0).build()).unwrap();
    for i in 0..30 {
        cloud.submit(f, i, SimTime::ZERO);
    }
    cloud.run_until(SEC(300.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 30);
    // Azure-style: far fewer instances than requests, very deep queueing.
    assert!(cloud.stats().spawns <= 6, "spawns {}", cloud.stats().spawns);
    let max = done.iter().map(|c| c.latency_ms()).fold(0.0, f64::max);
    assert!(max > 10_000.0, "deep queue expected, max {max}");
}

#[test]
fn inline_chain_transfers_payload() {
    let mut cloud = CloudSim::new(test_provider(), 9);
    let (producer, _) = deploy_pair(&mut cloud, [0.0; 2], TransferMode::Inline, 2 * MB).unwrap();
    let done = run_one(&mut cloud, producer, SimTime::ZERO);
    assert!(done.breakdown.chain_ms > 0.0, "chain time recorded");
    let transfers = cloud.drain_transfers();
    assert_eq!(transfers.len(), 1);
    let t = transfers[0];
    assert_eq!(t.mode, TransferMode::Inline);
    assert_eq!(t.payload_bytes, 2 * MB);
    // 2MB at 100MB/s = 20ms wire time, plus the consumer's cold-start
    // (first use) and warm-path segments.
    assert!(t.transfer_ms() > 20.0, "transfer {}", t.transfer_ms());
    // Parent end-to-end covers the chain round trip.
    assert!(done.latency_ms() > t.transfer_ms());
}

#[test]
fn storage_chain_pays_put_and_get() {
    let mut cloud = CloudSim::new(test_provider(), 10);
    let (producer, _) = deploy_pair(&mut cloud, [0.0; 2], TransferMode::Storage, 10 * MB).unwrap();
    // Warm both functions first so the transfer sample is warm-path only.
    let _ = run_one(&mut cloud, producer, SimTime::ZERO);
    cloud.drain_transfers();
    let _ = run_one(&mut cloud, producer, SEC(25.0));
    let transfers = cloud.drain_transfers();
    assert_eq!(transfers.len(), 1);
    let t = transfers[0];
    // put: 15 + 100ms transfer; get: 10 + 100; consumer warm path ~20ms.
    // Transfer window covers put + invocation + get.
    assert!(t.transfer_ms() > 225.0, "transfer {}", t.transfer_ms());
    assert!(t.transfer_ms() < 300.0, "transfer {}", t.transfer_ms());
}

#[test]
fn inline_payload_over_limit_is_rejected() {
    let mut cloud = CloudSim::new(test_provider(), 11);
    let err = deploy_pair(&mut cloud, [0.0; 2], TransferMode::Inline, 100 * MB).unwrap_err();
    assert!(matches!(err, DeployError::InlinePayloadTooLarge { .. }));
    // The rejected workflow left nothing behind, and storage transfers
    // have no such limit.
    let (producer, _) = deploy_pair(&mut cloud, [0.0; 2], TransferMode::Storage, 100 * MB).unwrap();
    assert_eq!(producer.index(), 1, "consumer 0, producer 1");
}

/// An edge may only lead to a function of its own workflow: one into a
/// function the workflow does not define is rejected before deploy.
#[test]
fn chain_to_unknown_function_is_rejected() {
    let spec =
        line_spec(&[0.0], &[]).edge("hop0", "hop1", TransferMode::Inline, Dist::constant(1024.0));
    let err = spec.compile().unwrap_err();
    assert!(err.contains("edge to unknown node 'hop1'"), "{err}");
}

/// Every node of a workflow books the stage latency (`total − chain`) of
/// each successful completion; a function outside a workflow books none.
#[test]
fn stage_stats_cover_every_workflow_node() {
    let mut cloud = CloudSim::new(test_provider(), 12);
    let plain = cloud.deploy(FunctionSpec::builder("plain").build()).unwrap();
    let edges = [(TransferMode::Inline, 1024), (TransferMode::Storage, 1024)];
    let spec = line_spec(&[5.0, 10.0, 20.0], &edges);
    let dep = cloud.deploy_dag(&spec.compile().unwrap()).unwrap();
    for i in 0..4u32 {
        cloud.submit(dep.root, u64::from(i), SEC(30.0 * f64::from(i)));
        cloud.submit(plain, u64::from(i), SEC(30.0 * f64::from(i)));
    }
    cloud.run_to_idle();
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 8, "internal hops are not external completions");
    assert!(done.iter().all(|c| c.is_ok()));

    assert_eq!(cloud.stage_stats(plain), None);
    assert_eq!(cloud.join_stats(plain), None);
    for (&f, exec_ms) in dep.functions.iter().zip([5.0, 10.0, 20.0]) {
        let stage = cloud.stage_stats(f).expect("every workflow node has a record");
        assert_eq!(stage.count, 4);
        assert!(stage.median_ms >= exec_ms, "stage {} < exec {exec_ms}", stage.median_ms);
        assert!(stage.p99_ms >= stage.median_ms);
        assert_eq!(cloud.join_stats(f), None, "a line has no join");
    }

    // The root's stage latencies are its external completions' totals
    // minus their downstream round trips (nearest rank of 4: the 2nd and
    // the 4th).
    let mut root_ms: Vec<f64> = (done.iter().filter(|c| c.function == dep.root))
        .map(|c| c.breakdown.total_ms() - c.breakdown.chain_ms)
        .collect();
    root_ms.sort_by(f64::total_cmp);
    let root = cloud.stage_stats(dep.root).unwrap();
    assert_eq!((root.median_ms, root.p99_ms), (root_ms[1], root_ms[3]));

    // Only the downstream hops are spawned by the fork path.
    let counters = cloud.dag_node_counters();
    assert_eq!(counters.len(), 3, "plain has no node record");
    for (f, c) in counters {
        let spawned = if f == dep.root { 0 } else { 4 };
        assert_eq!((c.spawned, c.completed, c.cancelled), (spawned, spawned, 0), "{f:?}");
    }
}

#[test]
fn lb_miss_forces_dedicated_cold_start() {
    let mut cfg = test_provider();
    cfg.dispatch.miss_prob = 1.0; // every concurrent request misses
    let mut cloud = CloudSim::new(cfg, 13);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    // Misses are a concurrency artefact: sequential requests never miss...
    for i in 0..3 {
        cloud.submit(f, i, SEC(i as f64 * 2.0));
    }
    cloud.run_until(SEC(30.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 3);
    assert_eq!(cloud.stats().lb_misses, 0, "no misses without concurrency");
    assert_eq!(done.iter().filter(|c| c.cold).count(), 1);

    // ...but requests racing an in-flight one all miss and cold start.
    for i in 0..5 {
        cloud.submit(f, 10 + i, SEC(40.0));
    }
    cloud.run_until(SEC(80.0));
    let done = cloud.drain_completions();
    assert_eq!(done.len(), 5);
    // The first of the burst reuses the warm instance; the rest miss.
    assert_eq!(cloud.stats().lb_misses, 4);
    assert_eq!(done.iter().filter(|c| c.cold).count(), 4);
}

/// A request waiting for the instance spawned for it after a
/// load-balancer miss counts in that instance's load: with one instance
/// busy and the other booting for its missed request, a third request is
/// committed behind the busy one (free at about 1.26 s) rather than
/// queued behind the booting one's pinned request.
#[test]
fn pinned_request_counts_in_its_booting_instance_load() {
    let mut cfg = test_provider();
    cfg.dispatch.miss_prob = 1.0;
    cfg.limits.max_instances_per_function = 2;
    let mut cloud = CloudSim::new(cfg, 13);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(1_000.0).build()).unwrap();
    for (i, at_ms) in [0.0, 500.0, 510.0].into_iter().enumerate() {
        cloud.submit(f, i as u64, SimTime::from_millis(at_ms));
    }
    cloud.run_until(SEC(30.0));
    let mut done = cloud.drain_completions();
    done.sort_by_key(|c| c.tag);
    assert_eq!(done.len(), 3);
    assert_eq!(cloud.stats().lb_misses, 1, "the second request misses, the third has no headroom");
    assert_eq!(cloud.stats().spawns, 2);
    let third = &done[2];
    assert!(!third.cold, "the third request runs warm on the first instance");
    assert!(
        third.completed_at < done[0].completed_at + SEC(1.1),
        "the third request waited behind the booting instance: done at {}",
        third.completed_at
    );
}

#[test]
fn memory_throttling_slows_execution() {
    let mut cloud = CloudSim::new(test_provider(), 14);
    let full = cloud
        .deploy(FunctionSpec::builder("full").memory_mb(1024).exec_constant_ms(100.0).build())
        .unwrap();
    let small = cloud
        .deploy(FunctionSpec::builder("small").memory_mb(256).exec_constant_ms(100.0).build())
        .unwrap();
    let a = run_one(&mut cloud, full, SimTime::ZERO);
    let b = run_one(&mut cloud, small, SEC(200.0));
    assert!((a.breakdown.exec_ms - 100.0).abs() < 1e-9);
    assert!((b.breakdown.exec_ms - 400.0).abs() < 1e-9, "256MB = 1/4 speed");
}

#[test]
fn bigger_image_boots_slower() {
    let mut cloud = CloudSim::new(test_provider(), 15);
    let small = cloud.deploy(FunctionSpec::builder("s").runtime(Runtime::Go).build()).unwrap();
    let big = cloud
        .deploy(FunctionSpec::builder("b").runtime(Runtime::Go).extra_image_mb(100.0).build())
        .unwrap();
    let a = run_one(&mut cloud, small, SimTime::ZERO);
    let b = run_one(&mut cloud, big, SEC(200.0));
    let fa = a.breakdown.cold.unwrap().image_fetch_ms;
    let fb = b.breakdown.cold.unwrap().image_fetch_ms;
    // 2MB vs 102MB at 100MB/s: 20ms vs 1020ms of transfer.
    assert!((fb - fa - 1000.0).abs() < 1.0, "fetch {fa} vs {fb}");
    assert!(b.latency_ms() - a.latency_ms() > 900.0);
}

#[test]
fn deterministic_across_runs() {
    let collect = |seed: u64| {
        let mut cloud = CloudSim::new(test_provider_with_noise(), seed);
        let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
        for i in 0..50 {
            cloud.submit(f, i, SimTime::from_millis(500.0 * i as f64));
        }
        cloud.run_until(SEC(120.0));
        cloud.drain_completions().into_iter().map(|c| c.latency_ms()).collect::<Vec<_>>()
    };
    assert_eq!(collect(1), collect(1));
    assert_ne!(collect(1), collect(2));
}

/// A test provider with real randomness, for determinism checks.
fn test_provider_with_noise() -> ProviderConfig {
    let mut cfg = test_provider();
    cfg.warm_path.overhead_ms = Dist::lognormal_median_p99(20.0, 60.0);
    cfg.network.prop_delay_ms = Dist::Normal { mean: 10.0, std: 0.5 };
    cfg
}

#[test]
fn max_instances_limit_is_respected() {
    let mut cfg = test_provider();
    cfg.limits.max_instances_per_function = 3;
    let mut cloud = CloudSim::new(cfg, 16);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(500.0).build()).unwrap();
    for i in 0..20 {
        cloud.submit(f, i, SimTime::ZERO);
    }
    cloud.run_until(SEC(120.0));
    assert_eq!(cloud.drain_completions().len(), 20, "all served despite the cap");
    assert!(cloud.stats().spawns <= 3, "spawns {}", cloud.stats().spawns);
}

#[test]
fn submit_to_unknown_function_panics() {
    let result = std::panic::catch_unwind(|| {
        let mut cloud = CloudSim::new(test_provider(), 17);
        cloud.submit(FunctionId::from_raw_for_tests(0), 0, SimTime::ZERO);
    });
    assert!(result.is_err());
}

#[test]
fn cost_aware_policy_balances_queueing_and_spawning() {
    // Obs 7 extension: with short functions it queues (few spawns); with
    // long functions it spawns per request (no queueing worth > a cold
    // start).
    let run = |exec_ms: f64| {
        let mut cfg = test_provider();
        cfg.scaling.policy = ScalePolicy::CostAware { cold_estimate_ms: 250.0 };
        let mut cloud = CloudSim::new(cfg, 21);
        let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(exec_ms).build()).unwrap();
        for i in 0..40 {
            cloud.submit(f, i, SimTime::ZERO);
        }
        cloud.run_until(SEC(600.0));
        assert_eq!(cloud.drain_completions().len(), 40);
        cloud.stats().spawns
    };
    assert!(run(0.0) <= 3, "near-zero exec: one instance absorbs the burst");
    assert_eq!(run(1000.0), 40, "long exec: per-request spawning");
    let mid = run(50.0);
    assert!(mid > 3 && mid < 40, "mid exec balances: {mid} spawns");
}

#[test]
fn request_slots_are_recycled() {
    // Sequential requests (each completes before the next is submitted)
    // must all share one slab slot, distinguished by generation.
    let mut cloud = CloudSim::new(test_provider(), 31);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    let mut ids = Vec::new();
    for i in 0..8u64 {
        let done = run_one(&mut cloud, f, SEC(30.0 * i as f64));
        ids.push(done.id);
    }
    let slab = cloud.request_slab_stats();
    assert_eq!(slab.slots_allocated, 1, "sequential load needs one slot");
    assert_eq!(slab.slots_reused, 7, "every later request recycles it");
    assert_eq!(slab.high_water, 1);
    assert_eq!(slab.live, 0, "all requests retired");
    // Generational ids stay distinct even though the slot is shared.
    assert!(ids.iter().all(|id| id.index() == 0));
    let generations: Vec<u32> = ids.iter().map(|id| id.generation()).collect();
    assert_eq!(generations, (0..8).collect::<Vec<u32>>());
    assert_eq!(ids[0].to_string(), "req0");
    assert_eq!(ids[3].to_string(), "req0g3");
}

#[test]
fn slab_high_water_tracks_concurrency_not_total() {
    // A burst of 10 simultaneous requests peaks at 10 live slots; a
    // second burst after the first drains reuses them all.
    let mut cloud = CloudSim::new(test_provider(), 32);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    for burst in 0..3u64 {
        let at = SEC(120.0 * burst as f64);
        for i in 0..10 {
            cloud.submit(f, burst * 10 + i, at);
        }
        cloud.run_until(at + SEC(60.0));
    }
    assert_eq!(cloud.drain_completions().len(), 30);
    let slab = cloud.request_slab_stats();
    assert_eq!(slab.high_water, 10, "peak live = one burst, not the total");
    assert_eq!(slab.slots_allocated, 10);
    assert_eq!(slab.slots_reused, 20);
}

#[test]
fn submission_window_matches_up_front_submission() {
    // Submissions draw from their own stream, so interleaving them with
    // event processing replays the exact results of submitting
    // everything up front.
    let up_front = {
        let mut cloud = CloudSim::new(test_provider(), 33);
        let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(40.0).build()).unwrap();
        for i in 0..50u64 {
            cloud.submit(f, i, SimTime::from_millis(100.0 * i as f64));
        }
        cloud.run_until(SEC(60.0));
        cloud.drain_completions()
    };
    let interleaved = {
        let mut cloud = CloudSim::new(test_provider(), 33);
        let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(40.0).build()).unwrap();
        for i in 0..50u64 {
            let at = SimTime::from_millis(100.0 * i as f64);
            // Drain the event queue right up to the submission instant
            // before submitting, the worst case for divergence.
            cloud.run_until(at);
            cloud.submit(f, i, at);
        }
        cloud.run_until(SEC(60.0));
        cloud.drain_completions()
    };
    assert_eq!(up_front.len(), interleaved.len());
    for (a, b) in up_front.iter().zip(&interleaved) {
        assert_eq!(a.tag, b.tag);
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a.breakdown, b.breakdown);
    }
}

// ---- client cancellation (tail-tolerance policies) ------------------------

#[test]
fn cancel_mid_execution_frees_instance_and_books_partial_waste() {
    let mut cloud = CloudSim::new(test_provider(), 11);
    let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(1_000.0).build()).unwrap();
    let rid = cloud.submit(f, 0, SimTime::ZERO);
    // Warm path reaches the instance around 270ms (cold boot included);
    // cancel well inside the 1s execution.
    cloud.run_until(SimTime::from_millis(600.0));
    cloud.cancel(rid);
    cloud.run_until(SimTime::from_millis(700.0));
    assert!(cloud.drain_completions().is_empty(), "cancelled request must not complete");
    let cs = cloud.cancel_stats();
    assert_eq!(cs.cancelled, 1);
    assert_eq!(cs.cancelled_unstarted, 0);
    // The request occupied the instance from assignment (~280ms) to the
    // cancel at 600ms: partial waste, strictly less than the full 1s.
    assert!(
        cs.wasted_busy_ms > 100.0 && cs.wasted_busy_ms < 1_000.0,
        "partial waste, got {}",
        cs.wasted_busy_ms
    );
    // The instance is released (before its keep-alive expires) and
    // serves the next request warm.
    assert_eq!(cloud.live_instances(f), 1);
    let warm = run_one(&mut cloud, f, SimTime::from_millis(800.0));
    assert!(!warm.cold, "cancel must free the instance for warm reuse");
}

#[test]
fn cancel_before_reaching_an_instance_counts_as_unstarted() {
    let mut cloud = CloudSim::new(test_provider(), 12);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    let rid = cloud.submit(f, 0, SimTime::ZERO);
    // Cancel before any simulation progress: the request is still on the
    // client→frontend propagation leg.
    cloud.cancel(rid);
    cloud.run_to_idle();
    assert!(cloud.drain_completions().is_empty());
    let cs = cloud.cancel_stats();
    assert_eq!(cs.cancelled, 1);
    assert_eq!(cs.cancelled_unstarted, 1);
    assert_eq!(cs.wasted_busy_ms, 0.0, "no instance time consumed");
}

#[test]
fn cancel_after_completion_is_a_noop() {
    let mut cloud = CloudSim::new(test_provider(), 13);
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    let rid = cloud.submit(f, 0, SimTime::ZERO);
    cloud.run_until(SEC(20.0));
    cloud.cancel(rid);
    cloud.run_to_idle();
    assert_eq!(cloud.drain_completions().len(), 1, "completion already recorded stays");
    assert_eq!(cloud.cancel_stats().cancelled, 0, "late cancel is a no-op");
}

#[test]
fn cancel_cascades_into_an_in_flight_chain_hop() {
    let mut cloud = CloudSim::new(test_provider(), 14);
    let (f, g) = deploy_pair(&mut cloud, [10.0, 2_000.0], TransferMode::Inline, 1_000).unwrap();
    let rid = cloud.submit(f, 0, SimTime::ZERO);
    // By 1.5s the producer finished its own compute and is waiting on the
    // consumer, which is mid-execution.
    cloud.run_until(SimTime::from_millis(1_500.0));
    cloud.cancel(rid);
    cloud.run_until(SimTime::from_millis(1_600.0));
    assert!(cloud.drain_completions().is_empty(), "cancelled chain must not complete");
    let cs = cloud.cancel_stats();
    assert_eq!(cs.cancelled, 2, "producer and its hop are both cancelled");
    assert!(cs.wasted_busy_ms > 0.0);
    // Both instances are free again (before keep-alive expiry): a fresh
    // request reuses the producer's instance warm.
    assert_eq!(cloud.live_instances(f), 1);
    assert_eq!(cloud.live_instances(g), 1);
    let warm_f = run_one(&mut cloud, f, SimTime::from_millis(1_800.0));
    assert!(!warm_f.cold, "producer instance must be reusable");
}

#[test]
fn cancel_does_not_perturb_unrelated_requests() {
    // Two interleaved request streams; cancelling one's requests must not
    // change the other's completion times (cancellation draws no RNG).
    let run = |with_cancels: bool| {
        let mut cloud = CloudSim::new(test_provider(), 15);
        let f = cloud.deploy(FunctionSpec::builder("f").exec_constant_ms(50.0).build()).unwrap();
        let mut victims = Vec::new();
        for i in 0..20u64 {
            let at = SimTime::from_millis(500.0 * i as f64);
            cloud.run_until(at);
            let rid = cloud.submit(f, i, at);
            if i % 2 == 1 {
                victims.push((rid, at));
            }
        }
        if with_cancels {
            for (rid, _) in &victims {
                cloud.cancel(*rid);
            }
        }
        cloud.run_to_idle();
        cloud
            .drain_completions()
            .into_iter()
            .filter(|c| c.tag % 2 == 0)
            .map(|c| (c.tag, c.completed_at))
            .collect::<Vec<_>>()
    };
    // Cancels issued after all even-tag requests were already submitted
    // and (mostly) served; the even stream's timing must be identical.
    assert_eq!(run(false), run(true));
}
