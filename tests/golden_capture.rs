//! Golden regression pins for the streaming client path.
//!
//! The bit-exact constants below pin the client's one open-loop driver
//! (submission a slice ahead, drained in slices), the cloud and the
//! engine: any change to them shows up as moved counts, simulated
//! duration or latency aggregate bits.

use stellar_core::client::{run_workload_spec, run_workload_with, MeasureSpec};
use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::deployer::deploy;
use workload::spec::WorkloadSpec;

struct Golden {
    label: &'static str,
    iat: IatSpec,
    samples: u32,
    warmup: u32,
    burst: u32,
    measured: u64,
    warmup_count: u64,
    cold: u64,
    dur_ns: u64,
    mean_bits: u64,
    p50_bits: u64,
    p99_bits: u64,
}

const CLOUD_SEED: u64 = 7;
const CLIENT_SEED: u64 = 9;

/// IAT-only configs run as their lifted open-loop spec. The counts and
/// latency bits of the fixed IATs were captured from the pre-refactor
/// path (submit everything up front, then drain in slices) and survive
/// the lift, which only shifts a fixed schedule by one gap; their
/// durations, and every field of the exponential IAT (whose gaps now
/// come from the spec driver's stream), pin the lifted path.
#[test]
fn streaming_path_matches_pre_refactor_golden() {
    let goldens = [
        Golden {
            label: "fixed",
            iat: IatSpec::Fixed { ms: 250.0 },
            samples: 500,
            warmup: 20,
            burst: 1,
            measured: 500,
            warmup_count: 20,
            cold: 0,
            dur_ns: 140_000_000_000,
            mean_bits: 0x4044_4000_0000_0000,
            p50_bits: 0x4044_4000_0000_0000,
            p99_bits: 0x4044_4000_0000_0000,
        },
        Golden {
            label: "fixed-burst",
            iat: IatSpec::Fixed { ms: 2_000.0 },
            samples: 300,
            warmup: 10,
            burst: 10,
            measured: 300,
            warmup_count: 100,
            cold: 0,
            dur_ns: 90_000_000_000,
            mean_bits: 0x4045_6000_0000_0000,
            p50_bits: 0x4045_6000_0000_0000,
            p99_bits: 0x4046_8000_0000_0000,
        },
        Golden {
            label: "expo",
            iat: IatSpec::Exponential { mean_ms: 50.0 },
            samples: 400,
            warmup: 10,
            burst: 1,
            measured: 400,
            warmup_count: 10,
            cold: 0,
            dur_ns: 30_229_450_115,
            mean_bits: 0x4044_4083_1634_f5ab,
            p50_bits: 0x4044_4000_0000_0000,
            p99_bits: 0x4044_50a7_7c86_3869,
        },
    ];
    for g in goldens {
        let mut cfg = RuntimeConfig::single(g.iat.clone(), g.samples);
        cfg.warmup_rounds = g.warmup;
        cfg.burst_size = g.burst;
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cloud =
            faas_sim::cloud::CloudSim::new(faas_sim::testutil::test_provider(), CLOUD_SEED);
        let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
        let r =
            run_workload_with(&mut cloud, &d, &cfg, CLIENT_SEED, &MeasureSpec::sketch()).unwrap();
        let mut agg = r.latency_agg.clone();
        assert_eq!(r.measured_count, g.measured, "{}: measured", g.label);
        assert_eq!(r.warmup_count, g.warmup_count, "{}: warmup", g.label);
        assert_eq!(r.cold_count, g.cold, "{}: cold", g.label);
        assert_eq!(r.duration.as_nanos(), g.dur_ns, "{}: duration drifted", g.label);
        assert_eq!(agg.mean().to_bits(), g.mean_bits, "{}: mean bits drifted", g.label);
        assert_eq!(agg.quantile(0.5).to_bits(), g.p50_bits, "{}: p50 bits drifted", g.label);
        assert_eq!(agg.quantile(0.99).to_bits(), g.p99_bits, "{}: p99 bits drifted", g.label);
    }
}

/// One-line digest of a run: counts, duration, and latency-aggregate bits.
/// String equality makes the pin bit-exact while a failure shows every
/// drifted field at once.
fn digest(r: &stellar_core::client::RunResult) -> String {
    let mut agg = r.latency_agg.clone();
    format!(
        "measured={} warmup={} cold={} dur_ns={} mean={:#018x} p50={:#018x} p99={:#018x}",
        r.measured_count,
        r.warmup_count,
        r.cold_count,
        r.duration.as_nanos(),
        agg.mean().to_bits(),
        agg.quantile(0.5).to_bits(),
        agg.quantile(0.99).to_bits(),
    )
}

/// An IAT is sugar for the open-loop spec with the same gap
/// distribution: `run_workload_with` on an IAT-only config and
/// `run_workload_spec` on the lifted spec are one run, down to the
/// duration, for every IAT kind, single and burst rounds alike.
#[test]
fn iat_config_runs_as_its_lifted_spec() {
    use workload::spec::{ArrivalSpec, ModeSpec};
    let iats = [
        (IatSpec::Fixed { ms: 250.0 }, ArrivalSpec::Fixed { ms: 250.0 }),
        (IatSpec::Exponential { mean_ms: 50.0 }, ArrivalSpec::Exponential { mean_ms: 50.0 }),
        (
            IatSpec::Uniform { lo_ms: 20.0, hi_ms: 120.0 },
            ArrivalSpec::Uniform { lo_ms: 20.0, hi_ms: 120.0 },
        ),
    ];
    for (iat, arrival) in iats {
        for burst in [1, 10] {
            let mut cfg = RuntimeConfig::single(iat.clone(), 300);
            cfg.warmup_rounds = 10;
            cfg.burst_size = burst;
            let spec = WorkloadSpec { arrival: arrival.clone(), mode: ModeSpec::Open };
            let run = |lifted: bool| {
                let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
                let mut cloud =
                    faas_sim::cloud::CloudSim::new(faas_sim::testutil::test_provider(), CLOUD_SEED);
                let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
                let measure = MeasureSpec::sketch();
                let r = if lifted {
                    run_workload_spec(&mut cloud, &d, &cfg, &spec, CLIENT_SEED, &measure)
                } else {
                    run_workload_with(&mut cloud, &d, &cfg, CLIENT_SEED, &measure)
                };
                digest(&r.unwrap())
            };
            assert_eq!(run(false), run(true), "{iat:?} at burst {burst}");
        }
    }
}

/// The workload-spec driver with *no policy configured* must stay
/// byte-identical to its pre-policy-layer output (captured from the tree
/// at the commit introducing `stellar-policy`): attaching the policy
/// machinery may not move a single RNG draw or event on the default path.
/// The closed-loop case is re-pinned from the loop that stops at each
/// completion: the earlier pin drained in 1 s slices, so every user
/// thought from the next slice boundary instead of its own response.
#[test]
fn spec_driver_no_policy_matches_golden() {
    let cases: [(&str, &str, u32, u32, &str); 2] = [
        (
            "open-mmpp",
            "mmpp-burst",
            300,
            10,
            "measured=300 warmup=10 cold=17 dur_ns=14421019867 mean=0x404b1162f33829cb p50=0x4044400000000000 p99=0x4071880000000000",
        ),
        (
            "closed-loop",
            "closed-loop",
            300,
            10,
            "measured=300 warmup=10 cold=6 dur_ns=5727996320 mean=0x4046b772ffd1dcd6 p50=0x4044400000000000 p99=0x4071e8147ae147ae",
        ),
    ];
    for (label, preset, samples, warmup, golden) in cases {
        let mut cfg = RuntimeConfig::single(IatSpec::short(), samples);
        cfg.warmup_rounds = warmup;
        let spec = WorkloadSpec::preset(preset).unwrap();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
        let mut cloud =
            faas_sim::cloud::CloudSim::new(faas_sim::testutil::test_provider(), CLOUD_SEED);
        let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
        let r = run_workload_spec(&mut cloud, &d, &cfg, &spec, CLIENT_SEED, &MeasureSpec::sketch())
            .unwrap();
        assert_eq!(digest(&r), golden, "{label}: no-policy spec driver drifted");
    }
}

/// A hedge-p95 run long enough that its online threshold is read well
/// past 1024 winners, where an estimator exact only on small sample sets
/// (the t-digest's exact mode) would drift from the exact quantile: pins
/// the latency digest and every `PolicyStats` field, so a change to how
/// the threshold is estimated at large n shows up as moved hedge, cancel
/// and wasted-work counts. (The t-digest estimator hedged 96 times here,
/// the exact one 108.)
#[test]
fn large_hedged_run_matches_golden() {
    let mut cfg = RuntimeConfig::single(IatSpec::short(), 6_000)
        .with_policy(policy::PolicySpec::preset("hedge-p95").unwrap());
    cfg.warmup_rounds = 10;
    let spec = WorkloadSpec::preset("mmpp-burst").unwrap();
    let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("f")] };
    let mut cloud = faas_sim::cloud::CloudSim::new(providers::profiles::aws_like(), CLOUD_SEED);
    let d = deploy(&mut cloud, &static_cfg, &cfg).unwrap();
    let r = run_workload_spec(&mut cloud, &d, &cfg, &spec, CLIENT_SEED, &MeasureSpec::sketch())
        .unwrap();
    assert!(r.measured_count >= 5_000, "too few winners to reach the large-n path");
    let p = r.policy.expect("policy runs report stats");
    let policy = format!(
        "logical={} extra={} cancels={} dup={} abandoned={} failures={} failed_logical={} used={:#018x} wasted={:#018x}",
        p.logical,
        p.extra_launches,
        p.cancels,
        p.duplicate_successes,
        p.abandoned,
        p.failures,
        p.failed_logical,
        p.used_busy_ms.to_bits(),
        p.wasted_busy_ms.to_bits(),
    );
    assert_eq!(
        digest(&r),
        "measured=6000 warmup=10 cold=88 dur_ns=267802268916 mean=0x4049c870be1125b9 p50=0x40463c5e4f954c75 p99=0x407130fc87db2b34",
        "hedged latency digest drifted"
    );
    assert_eq!(
        policy,
        "logical=6010 extra=97 cancels=97 dup=16 abandoned=0 failures=0 failed_logical=0 used=0x40e5a4018b93dcbb wasted=0x407623ad2e0a2aaf",
        "hedged PolicyStats drifted"
    );
}

/// `digest` plus the instance-lifecycle counters committed dispatch
/// drives: a change in which instance a request lands on moves spawns,
/// cold/warm starts and reaps even when the latency bits happen to agree.
fn dispatch_digest(outcome: &stellar_core::experiment::Outcome) -> String {
    use faas_sim::metric;
    let m = &outcome.metrics;
    format!(
        "{} spawned={} cold_starts={} warm_starts={} boot_retries={} purged={} slots_hw={}",
        digest(&outcome.result),
        m.counter(metric::INSTANCES_SPAWNED),
        m.counter(metric::COLD_STARTS),
        m.counter(metric::WARM_STARTS),
        m.counter(metric::BOOT_FAILURE_RETRIES),
        m.counter(metric::FAULTS_PURGED_INSTANCES),
        m.counter(metric::REQUEST_SLOTS_HIGH_WATER),
    )
}

struct DispatchGolden {
    label: &'static str,
    provider: fn() -> faas_sim::ProviderConfig,
    workload: &'static str,
    samples: u32,
    faults: Option<&'static str>,
    digest: &'static str,
}

fn cost_aware() -> faas_sim::ProviderConfig {
    let mut cfg = providers::profiles::aws_like();
    cfg.scaling.policy = faas_sim::config::ScalePolicy::CostAware { cold_estimate_ms: 400.0 };
    cfg
}

/// Three instances at most: bursts find every instance at the commit cap
/// with no headroom left, so requests overcommit onto the least loaded.
fn capped_at_three() -> faas_sim::ProviderConfig {
    let mut cfg = providers::profiles::aws_like();
    cfg.limits.max_instances_per_function = 3;
    cfg
}

/// Target concurrency 4 queues commitments on booting instances, so a
/// failed boot hands a non-empty committed queue to its replacement.
fn google_failing_boots() -> faas_sim::ProviderConfig {
    let mut cfg = providers::profiles::google_like();
    cfg.cold_start.boot_failure_prob = 0.3;
    cfg
}

/// Committed-assignment dispatch (the least-loaded instance pick behind
/// `PerRequest`, `TargetConcurrency` and `CostAware`) pinned across every
/// path that changes an instance's load: assignment, commit, release,
/// the overcommit arm at the instance cap, orphaned commitments moving to
/// a boot-failure replacement or re-dispatched after a crash, and bulk
/// purges. Captured before the linear least-loaded scan was replaced by
/// an indexed minimum; any change to tie-breaking or to a load update
/// shows up here.
#[test]
fn committed_dispatch_matches_golden() {
    use providers::profiles::{aws_like, google_like};
    let goldens = [
        DispatchGolden {
            label: "aws-multi-tenant-200k",
            provider: aws_like,
            workload: "multi-tenant",
            samples: 200_000,
            faults: None,
            digest: "measured=200000 warmup=10 cold=1465 dur_ns=5263827022176 mean=0x4048cd946ca52358 p50=0x4046256ad70a6075 p99=0x405e8a67b953279c spawned=1475 cold_starts=1475 warm_starts=198535 boot_retries=0 purged=0 slots_hw=673",
        },
        DispatchGolden {
            label: "google-target-4",
            provider: google_like,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: None,
            digest: "measured=20000 warmup=10 cold=48 dur_ns=1029475888861 mean=0x40415456f94d2219 p50=0x403f0b34a4fb40a4 p99=0x404edc510729d7c9 spawned=51 cold_starts=51 warm_starts=19959 boot_retries=0 purged=0 slots_hw=520",
        },
        DispatchGolden {
            label: "cost-aware",
            provider: cost_aware,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: None,
            digest: "measured=20000 warmup=10 cold=269 dur_ns=1029475888861 mean=0x404a395ccd6e4a4e p50=0x4046422fab2fe2c4 p99=0x4071c5c73de1e2de spawned=270 cold_starts=270 warm_starts=19740 boot_retries=0 purged=0 slots_hw=520",
        },
        DispatchGolden {
            label: "instance-cap-overcommit",
            provider: capped_at_three,
            workload: "mmpp-burst",
            samples: 5_000,
            faults: None,
            digest: "measured=5000 warmup=10 cold=0 dur_ns=282094596744 mean=0x4048825568f8051c p50=0x4046a0da4d37ed97 p99=0x40597a4d141a6938 spawned=3 cold_starts=3 warm_starts=5007 boot_retries=0 purged=0 slots_hw=361",
        },
        DispatchGolden {
            label: "boot-failure-orphans",
            provider: google_failing_boots,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: None,
            digest: "measured=20000 warmup=10 cold=44 dur_ns=1029475888861 mean=0x4041d16c4930644f p50=0x403f116f296d3140 p99=0x404ee63b5bf6a0dc spawned=73 cold_starts=47 warm_starts=19963 boot_retries=26 purged=0 slots_hw=520",
        },
        DispatchGolden {
            label: "purge-storm",
            provider: aws_like,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: Some("purge-storm"),
            digest: "measured=20000 warmup=10 cold=1697 dur_ns=1029475888861 mean=0x405157ffd3a5b79b p50=0x4046b8bf0fe5c7f0 p99=0x4075f4d55c3513ae spawned=1707 cold_starts=1707 warm_starts=18303 boot_retries=0 purged=1707 slots_hw=520",
        },
        DispatchGolden {
            label: "crash-orphans",
            provider: google_like,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: Some("crash-2pct"),
            digest: "measured=19611 warmup=10 cold=400 dur_ns=1029475888861 mean=0x405c229c688ffbe8 p50=0x4040094478993f63 p99=0x4099286da04416b8 spawned=412 cold_starts=412 warm_starts=19598 boot_retries=0 purged=0 slots_hw=520",
        },
    ];
    let mut drifted = Vec::new();
    for g in goldens {
        let mut runtime = RuntimeConfig::single(IatSpec::short(), g.samples);
        runtime.warmup_rounds = 10;
        runtime.workload = Some(WorkloadSpec::preset(g.workload).unwrap());
        runtime.faults = g.faults.map(|name| faults::FaultSpec::preset(name).unwrap());
        let outcome = stellar_core::experiment::Experiment::new((g.provider)())
            .workload(runtime)
            .seed(CLOUD_SEED)
            .measure(MeasureSpec::sketch())
            .run()
            .expect("golden run");
        let got = dispatch_digest(&outcome);
        if got != g.digest {
            drifted.push(format!("{}: {got}", g.label));
        }
    }
    assert!(drifted.is_empty(), "committed dispatch drifted:\n{}", drifted.join("\n"));
}

/// Seed of the chain and application pins below.
const CHAIN_SEED: u64 = 11;

/// Spans kept by the traced chain runs: enough for every span of a pin.
const CHAIN_TRACE_CAPACITY: usize = 1 << 18;

/// A legacy `ChainConfig` run: `length` functions passing a 64 KiB
/// payload over `mode`, with an optional client policy and fault preset.
/// The policy runs carry an explicit Poisson workload.
fn chain_runtime(
    length: u32,
    mode: faas_sim::types::TransferMode,
    policy: Option<&str>,
    faults: Option<&str>,
) -> RuntimeConfig {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), 300);
    runtime.warmup_rounds = 5;
    runtime.exec_ms = 20.0;
    runtime.chain =
        Some(stellar_core::config::ChainConfig { length, mode, payload_bytes: 64 * 1024 });
    if let Some(name) = policy {
        runtime.policy = Some(policy::PolicySpec::preset(name).unwrap());
        runtime.workload = Some(WorkloadSpec::preset("poisson").unwrap());
    }
    runtime.faults = faults.map(|name| faults::FaultSpec::preset(name).unwrap());
    runtime
}

/// Bits of an aggregate's mean, median and p99.
fn agg_bits(agg: &stats::sketch::LatencyAgg) -> String {
    if agg.is_empty() {
        return "empty".to_string();
    }
    let mut agg = agg.clone();
    format!(
        "{:#018x}/{:#018x}/{:#018x}",
        agg.mean().to_bits(),
        agg.quantile(0.5).to_bits(),
        agg.quantile(0.99).to_bits()
    )
}

/// Count, median bits and p99 bits of every workflow stage.
fn stage_bits(stages: &[stellar_core::experiment::StageStats]) -> String {
    stages
        .iter()
        .map(|s| {
            format!(
                " {}={}/{:#018x}/{:#018x}",
                s.name,
                s.count,
                s.median_ms.to_bits(),
                s.p99_ms.to_bits()
            )
        })
        .collect()
}

/// Runs `runtime` (against `app` when given) the way `Experiment::run`
/// does, but on a cloud the caller keeps, then traces the same run
/// through `Experiment` itself. The pin holds the run digest, the
/// transfer-aggregate bits, the cloud's internal-request, spawn, cold
/// start and cancel counters, the traced run's JSONL digest and, for an
/// application, its per-stage statistics.
fn chain_pin(runtime: &RuntimeConfig, app: Option<faas_sim::dag::DagSpec>) -> String {
    use faas_sim::metric;
    use stellar_core::deployer::{Deployment, Endpoint};
    use stellar_core::experiment::Experiment;

    let provider = providers::profiles::aws_like();
    let mut cloud = faas_sim::cloud::CloudSim::new(provider.clone(), CHAIN_SEED);
    let deployment = match &app {
        Some(spec) => {
            let plan = spec.compile().unwrap();
            let dep = cloud.deploy_dag(&plan).unwrap();
            Deployment {
                endpoints: vec![Endpoint {
                    url: format!("https://{}.sim/{}", provider.name, plan.name),
                    function: dep.root,
                    name: plan.name.clone(),
                }],
            }
        }
        None => {
            let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("fn")] };
            deploy(&mut cloud, &static_cfg, runtime).unwrap()
        }
    };
    if let Some(spec) = &runtime.faults {
        cloud.install_faults(spec.build());
    }
    let r =
        run_workload_with(&mut cloud, &deployment, runtime, CHAIN_SEED, &MeasureSpec::default())
            .unwrap();

    let mut experiment = Experiment::new(provider)
        .workload(runtime.clone())
        .seed(CHAIN_SEED)
        .trace(CHAIN_TRACE_CAPACITY);
    if let Some(spec) = app {
        experiment = experiment.app(spec);
    }
    let traced = experiment.run().unwrap();
    assert_eq!(digest(&traced.result), digest(&r), "the harness must replay Experiment::run");
    assert!(traced.spans.len() < CHAIN_TRACE_CAPACITY, "trace ring evicted spans");
    let trace = stellar_core::traceio::digest64(&stellar_core::traceio::to_jsonl(&traced.spans));

    let m = cloud.metrics();
    let mut pin = format!(
        "{} xfer={} internal={} spawned={} cold_starts={} cancelled={} trace={trace:016x}",
        digest(&r),
        agg_bits(&r.transfer_agg),
        cloud.stats().internal,
        m.counter(metric::INSTANCES_SPAWNED),
        m.counter(metric::COLD_STARTS),
        cloud.cancel_stats().cancelled,
    );
    if let Some(dag) = traced.dag {
        pin += &stage_bits(&dag.stages);
    }
    pin
}

/// Chained invocations pinned across both transports, two chain lengths,
/// a hedging policy whose cancels cascade into in-flight hops, crash
/// faults (which must spare a producer waiting on its hop) and purge
/// storms, plus the linear `web-api` application.
/// Captured before chains moved onto the workflow engine's fork path;
/// any change to a chain's draws, events or span order shows up here.
/// The IAT-only pins' durations and traces were re-captured when IAT
/// configs began running as their lifted spec (every arrival one gap
/// later), and the purge-storm pins in full: the storm clock starts at
/// zero, so the shifted arrivals meet different storms.
#[test]
fn chain_runs_match_golden() {
    use faas_sim::types::TransferMode::{Inline, Storage};
    let cases: [(&str, RuntimeConfig, Option<faas_sim::dag::DagSpec>, &str); 17] = [
        ("inline-2", chain_runtime(2, Inline, None, None), None, "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x405b5af2463ff1f9 p50=0x405a9935a426bb56 p99=0x40649b0894538996 xfer=0x402da538ff16bda7/0x4029c1d883ba3444/0x4044ceece4196f92 internal=305 spawned=2 cold_starts=2 cancelled=0 trace=96b3824f0de16731"),
        ("inline-4", chain_runtime(4, Inline, None, None), None, "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x40687b66d9229b8d p50=0x40681a1fe542e558 p99=0x4071c85a661fef85 xfer=0x402d77915bd8b0be/0x402997343fa2ad3e/0x4044ceece4196f92 internal=915 spawned=4 cold_starts=4 cancelled=0 trace=a1b11632a4369079"),
        ("storage-2", chain_runtime(2, Storage, None, None), None, "measured=300 warmup=5 cold=1 dur_ns=925000000000 mean=0x406dfe2970dce1e5 p50=0x406802049cb252ce p99=0x4092b696092e7cde xfer=0x406202b15bf4ba15/0x40582a4b81733226/0x409152725bc1c7a8 internal=305 spawned=3 cold_starts=3 cancelled=0 trace=2c0d8d8c7c81c8d9"),
        ("storage-4", chain_runtime(4, Storage, None, None), None, "measured=300 warmup=5 cold=1 dur_ns=925000000000 mean=0x40812bb09cae8545 p50=0x407cc5f2d77318fc p99=0x409e2b591ce944b9 xfer=0x4060865b1b4e4d35/0x40584bbd9a95421c/0x40919cba8c4dabaf internal=915 spawned=5 cold_starts=5 cancelled=0 trace=571ca1a8fce00bb3"),
        ("inline-2+hedge", chain_runtime(2, Inline, Some("hedge-p95"), None), None, "measured=300 warmup=5 cold=6 dur_ns=27363665606 mean=0x405dc03ad7e27f8a p50=0x405aadccfaeff5c6 p99=0x407f9145e09cb858 xfer=0x40331ee5e982ef44/0x4029effc7607c41a/0x4048ac495e17e34c internal=306 spawned=18 cold_starts=18 cancelled=1 trace=8f4ecdd810e0c5c6"),
        ("inline-4+hedge", chain_runtime(4, Inline, Some("hedge-p95"), None), None, "measured=300 warmup=5 cold=15 dur_ns=27497631542 mean=0x406ca3f2158a393c p50=0x406839350e34762a p99=0x4090589fdabb21fd xfer=0x403574a0687de430/0x402a4fce52deca25/0x4074bb9b09fc5825 internal=915 spawned=50 cold_starts=50 cancelled=0 trace=e7109094c0f1a3b8"),
        ("storage-2+hedge", chain_runtime(2, Storage, Some("hedge-p95"), None), None, "measured=300 warmup=5 cold=9 dur_ns=27489115287 mean=0x406cd4eb433a3c6c p50=0x406804c968943e10 p99=0x40882c05006d3829 xfer=0x40613011ddde2da7/0x40584a58537e2c56/0x4090b83c350f814e internal=312 spawned=23 cold_starts=23 cancelled=13 trace=54bb4803746f768e"),
        ("storage-4+hedge", chain_runtime(4, Storage, Some("hedge-p95"), None), None, "measured=300 warmup=5 cold=21 dur_ns=28018216409 mean=0x40820a202b534e3f p50=0x407d3bb83c6c97d8 p99=0x409dc3ddab21d73e xfer=0x406133192bb59071/0x40586a9b3d07c84b/0x409111385a114375 internal=922 spawned=62 cold_starts=62 cancelled=11 trace=c2075476772f12b2"),
        ("inline-2~crash", chain_runtime(2, Inline, None, Some("crash-2pct")), None, "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x405b5af2463ff1f9 p50=0x405a9935a426bb56 p99=0x40649b0894538996 xfer=0x402da538ff16bda7/0x4029c1d883ba3444/0x4044ceece4196f92 internal=305 spawned=2 cold_starts=2 cancelled=0 trace=96b3824f0de16731"),
        ("inline-4~crash", chain_runtime(4, Inline, None, Some("crash-2pct")), None, "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x40687b66d9229b8d p50=0x40681a1fe542e558 p99=0x4071c85a661fef85 xfer=0x402d77915bd8b0be/0x402997343fa2ad3e/0x4044ceece4196f92 internal=915 spawned=4 cold_starts=4 cancelled=0 trace=a1b11632a4369079"),
        ("storage-2~crash", chain_runtime(2, Storage, None, Some("crash-2pct")), None, "measured=300 warmup=5 cold=1 dur_ns=925000000000 mean=0x406dfe2970dce1e5 p50=0x406802049cb252ce p99=0x4092b696092e7cde xfer=0x406202b15bf4ba15/0x40582a4b81733226/0x409152725bc1c7a8 internal=305 spawned=3 cold_starts=3 cancelled=0 trace=2c0d8d8c7c81c8d9"),
        ("storage-4~crash", chain_runtime(4, Storage, None, Some("crash-2pct")), None, "measured=300 warmup=5 cold=1 dur_ns=925000000000 mean=0x40812bb09cae8545 p50=0x407cc5f2d77318fc p99=0x409e2b591ce944b9 xfer=0x4060865b1b4e4d35/0x40584bbd9a95421c/0x40919cba8c4dabaf internal=915 spawned=5 cold_starts=5 cancelled=0 trace=571ca1a8fce00bb3"),
        ("inline-2~purge", chain_runtime(2, Inline, None, Some("purge-storm")), None, "measured=300 warmup=5 cold=79 dur_ns=925000000000 mean=0x406f9946699bd002 p50=0x405ca55dd095af2a p99=0x408d1f4ede865da4 xfer=0x40557f1d156bbeac/0x4031262339c0ebee/0x407ad73a8c459e18 internal=305 spawned=165 cold_starts=165 cancelled=0 trace=e438191882b53bcd"),
        ("inline-4~purge", chain_runtime(4, Inline, None, Some("purge-storm")), None, "measured=300 warmup=5 cold=71 dur_ns=925000000000 mean=0x407c7a5bb80bbc3c p50=0x40694fb65668c262 p99=0x409d4be7ba3ba59a xfer=0x40540014ca8a05f8/0x402fa4c47a17f412/0x407c299689efad78 internal=915 spawned=301 cold_starts=301 cancelled=0 trace=e8f8cc13710326d9"),
        ("storage-2~purge", chain_runtime(2, Storage, None, Some("purge-storm")), None, "measured=300 warmup=5 cold=78 dur_ns=925000000000 mean=0x4077d299d7994b2e p50=0x406a348a90470a80 p99=0x4099536705ba7f14 xfer=0x406b107a0b321b91/0x405c05237ac3eb7c/0x40955405f32b5b4a internal=305 spawned=164 cold_starts=164 cancelled=0 trace=60f089667d4a0e79"),
        ("storage-4~purge", chain_runtime(4, Storage, None, Some("purge-storm")), None, "measured=300 warmup=5 cold=63 dur_ns=925000000000 mean=0x4088bb60852d17a8 p50=0x407ee3cf954eb13e p99=0x40a7245bbaa501fe xfer=0x4068554f6f99c0d6/0x405b2f36ef8055fc/0x4092fe4a2c53c5f9 internal=915 spawned=282 cold_starts=282 cancelled=0 trace=889181e29cc46f1e"),
        ("web-api", web_api_runtime(), Some(appsuite::web_api()), "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x406c8bae9600070a p50=0x406b93473de1e2de p99=0x40781cc35f504793 xfer=0x402a0baa5ff3bedb/0x4025e3bd9cae2110/0x404417cb0105389b internal=610 spawned=3 cold_starts=3 cancelled=0 trace=d9377772dcdf2905 auth=305/0x40500831a96fa04e/0x405cd989bbcbc3a2 logic=305/0x40544903e6a8a0a5/0x406d215c97627268 render=305/0x404e842e01b5937b/0x4068f16fb3c75c0d"),
    ];
    let mut drifted = Vec::new();
    for (label, runtime, app, golden) in cases {
        let got = chain_pin(&runtime, app);
        if got != golden {
            drifted.push(format!("{label}: {got}"));
        }
    }
    assert!(drifted.is_empty(), "chain runs drifted:\n{}", drifted.join("\n"));
}

/// The `web-api` application's workload: the default single-function
/// runtime with warm-up rounds (node execution models override
/// `exec_ms`).
fn web_api_runtime() -> RuntimeConfig {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), 300);
    runtime.warmup_rounds = 5;
    runtime
}

/// Fan-out and join applications: run digest, transfer bits, per-stage
/// statistics and join reports. Their trace is deliberately not pinned —
/// a producer's `chain` span may precede or follow its last direct
/// child's root span without changing any result.
#[test]
fn fan_out_apps_match_golden() {
    let cases: [(&str, faas_sim::dag::DagSpec, &str); 3] = [
        ("thumbnail", appsuite::thumbnail(), "measured=300 warmup=5 cold=1 dur_ns=925000000000 mean=0x4086752af83b48e8 p50=0x4081a158c5436b90 p99=0x40a5ad5add67cf97 xfer=0x406d053329fe8f6a/0x405ee49461b6d43d/0x409a125c5e780574 upload=305/0x4054498ce2208728/0x4067196c0c7b2920 resize-64=305/0x4062cae7f7a458a8/0x4093c3951a82532b resize-128=305/0x406248201dc4e94f/0x407f9f6aa2a47002 resize-256=305/0x406238c3a95c0af9/0x4081cae166acfdc7 resize-512=305/0x4061c60c84eeb421/0x407af54058a963f2 collect=305/0x405a6def15405aca/0x408da4c44446f30a join:collect=305/0/0x40909f68b47c73ef/0x40a26d9542c3c9ef"),
        ("map-reduce", appsuite::map_reduce(), "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x4083298dfc08c13a p50=0x4081cd0dc1e7967c p99=0x409591e25b44f526 xfer=0x405e81644e3dfb90/0x4035115b573eab36/0x4088b8f49bf10cc3 ingest=305/0x40560b55460645e8/0x406a9ceff8b280e8 map-0=305/0x40636d18958bdf52/0x408686ca17918bdd map-1=305/0x40640429c38a3548/0x408aeb0315f37dcd map-2=305/0x4065bf8f045f7d28/0x408bc95659e1722c map-3=305/0x4065cc8d5c82462c/0x4087759380c5fbeb map-4=305/0x4064b9d5f7e18050/0x4085dd6625c3ddf0 map-5=305/0x4064fdde323a6634/0x4085d8b68705bd66 reduce=305/0x405392b17ec3a7bf/0x406d2a7c00a9b655 join:reduce=305/0/0x4087d9f524399b2c/0x40935fc169c23b79"),
        ("scatter-gather", appsuite::scatter_gather(), "measured=300 warmup=5 cold=0 dur_ns=925000000000 mean=0x4079e477b581e5d2 p50=0x407675e6d5065732 p99=0x4090663b4d3b1c34 xfer=0x404128a60f1ac3d7/0x403456be1650a45e/0x4063c58019db9e4f scatter=305/0x40520f0caee44fa0/0x40638558b5791624 lookup-0=305/0x404ffab7bda5d068/0x4086f1249078b92f lookup-1=305/0x405121898b23d5a5/0x4086603e897e199b lookup-2=305/0x4050dd43a640f90e/0x4081f85f1c9c6835 lookup-3=305/0x4051614d27302895/0x407bf9230f5009a1 lookup-4=305/0x4050e70356d15143/0x40818b91438c16d4 lookup-5=305/0x4052537edf6326a5/0x407bda18a971a33a lookup-6=305/0x404eb1d8ec27ec25/0x407cacf03385e9c2 lookup-7=305/0x404ff2f6b3db9e7c/0x407b26467ad1d4ff lookup-8=305/0x4050aef5750b111b/0x408023ea2bdd18f2 lookup-9=305/0x40509f75f3460d5c/0x407af1ce59a11015 lookup-10=305/0x404ed4df77db429e/0x4083d588668080b2 lookup-11=305/0x405023e8a779c03a/0x4076bd1c67a8183c lookup-12=305/0x404f775f4fbaaba4/0x407ba21e0b965bc8 lookup-13=305/0x4051453868183fee/0x4080aaaf149cdd5d lookup-14=305/0x40509b730b6f553f/0x408497b9227860f6 lookup-15=305/0x40513b1b136c3b76/0x407c39cb9f08c9ec gather=305/0x404475676fe337e9/0x4060ee2386381ab6 join:gather=305/1220/0x40805c1af102363b/0x406b91142d490e67"),
    ];
    let mut drifted = Vec::new();
    for (label, app, golden) in cases {
        let outcome = stellar_core::experiment::Experiment::new(providers::profiles::aws_like())
            .workload(web_api_runtime())
            .seed(CHAIN_SEED)
            .app(app)
            .run()
            .unwrap();
        let dag = outcome.dag.expect("application runs report stage stats");
        let mut got =
            format!("{} xfer={}", digest(&outcome.result), agg_bits(&outcome.result.transfer_agg));
        got += &stage_bits(&dag.stages);
        for j in dag.joins {
            got += &format!(
                " join:{}={}/{}/{:#018x}/{:#018x}",
                j.stage,
                j.fired,
                j.stragglers,
                j.branch_p99_ms.to_bits(),
                j.join_p99_ms.to_bits()
            );
        }
        if got != golden {
            drifted.push(format!("{label}: {got}"));
        }
    }
    assert!(drifted.is_empty(), "fan-out applications drifted:\n{}", drifted.join("\n"));
}

/// Sparse Poisson traffic on eight functions with a mean gap of 400 s —
/// the scale of the uniform keep-alives of `google_like` (360–960 s) and
/// `azure_like` (240–1020 s) — driven straight on the cloud and run to
/// idle. At this rate a later idle epoch often draws an earlier deadline
/// than the keep-alive check already queued for the instance, and a
/// check often finds its instance idle again in a later epoch. Pins
/// reaps, spawns, cold starts, storm counters, the telemetry sample
/// count, the drained clock and the latency bits.
fn keepalive_pin(
    provider: faas_sim::ProviderConfig,
    seed: u64,
    storm: Option<faults::FaultSpec>,
    timeline: bool,
) -> String {
    use faas_sim::spec::FunctionSpec;
    use simkit::time::SimTime;

    let mut cloud = faas_sim::cloud::CloudSim::new(provider, seed);
    if let Some(spec) = storm {
        cloud.install_faults(spec.build());
    }
    if timeline {
        cloud.enable_timeline(SimTime::from_secs(60.0));
    }
    let mut gaps = simkit::rng::Rng::seed_from(seed);
    for i in 0..8u64 {
        let f = cloud.deploy(FunctionSpec::builder(format!("f{i}")).build()).unwrap();
        let mut at_ms = 0.0;
        for _ in 0..60 {
            at_ms += -400_000.0 * gaps.next_f64_open().ln();
            cloud.submit(f, i, SimTime::from_millis(at_ms));
        }
    }
    cloud.run_to_idle();
    let done = cloud.drain_completions();
    let latency_ns: Vec<u64> =
        done.iter().map(|c| (c.completed_at - c.issued_at).as_nanos()).collect();
    let stats = cloud.stats();
    let faults = cloud.fault_stats();
    format!(
        "completed={} cold={} spawns={} reaps={} storms={} purged={} samples={} end_ns={} lat_sum_ns={} lat_max_ns={}",
        done.len(),
        done.iter().filter(|c| c.cold).count(),
        stats.spawns,
        stats.reaps,
        faults.storms,
        faults.purged_instances,
        cloud.timeline().len(),
        cloud.now().as_nanos(),
        latency_ns.iter().sum::<u64>(),
        latency_ns.iter().max().copied().unwrap_or(0),
    )
}

/// Keep-alive expiry pinned where deadlines interleave: uniform
/// keep-alives at a request rate near their scale, with purge storms and
/// with fleet telemetry (both reschedule only while the run still has
/// work or a keep-alive deadline ahead; the combination is pinned by
/// `storms_and_telemetry_stop_after_the_last_deadline`). Captured while every idle transition still queued its
/// own keep-alive check; any change to which check reaps an instance, or
/// to how long the periodic ticks run, shows up here. Seeds 1 and 28 end
/// with their latest deadline never queued as a check of its own (it
/// lost to an earlier timer, which then found its instance busy or
/// purged), so the ticks, and the clock of a run without ticks, outlive
/// the queued events.
#[test]
fn keepalive_expiry_matches_golden() {
    use providers::profiles::{azure_like, google_like};
    let slow_storm = faults::FaultSpec::PurgeStorm { mean_gap_ms: 900_000.0, start_ms: 0.0 };
    let cases = [
        ("google~purge-storm@13", google_like(), 13, faults::FaultSpec::preset("purge-storm"), false, "completed=480 cold=460 spawns=460 reaps=460 storms=3187 purged=460 samples=0 end_ns=31106603079629 lat_sum_ns=410162583161 lat_max_ns=2354296908"),
        ("azure+timeline@13", azure_like(), 13, None, true, "completed=480 cold=128 spawns=128 reaps=128 storms=0 purged=0 samples=4136 end_ns=31020000000000 lat_sum_ns=233797554880 lat_max_ns=4307541342"),
        ("google~slow-storm@13", google_like(), 13, Some(slow_storm.clone()), false, "completed=480 cold=200 spawns=200 reaps=200 storms=34 purged=124 samples=0 end_ns=32493520623668 lat_sum_ns=181676072375 lat_max_ns=2163244823"),
        ("google+timeline@1", google_like(), 1, None, true, "completed=480 cold=109 spawns=109 reaps=109 storms=0 purged=0 samples=3592 end_ns=26940000000000 lat_sum_ns=109591719607 lat_max_ns=1530238334"),
        ("google@1", google_like(), 1, None, false, "completed=480 cold=109 spawns=109 reaps=109 storms=0 purged=0 samples=0 end_ns=26927180089529 lat_sum_ns=109591719607 lat_max_ns=1530238334"),
        ("google~slow-storm@28", google_like(), 28, Some(slow_storm), false, "completed=480 cold=196 spawns=196 reaps=196 storms=34 purged=127 samples=0 end_ns=32224737147132 lat_sum_ns=180650060003 lat_max_ns=2311163135"),
    ];
    let mut drifted = Vec::new();
    for (label, provider, seed, storm, timeline, golden) in cases {
        let got = keepalive_pin(provider, seed, storm, timeline);
        if got != golden {
            drifted.push(format!("{label}: {got}"));
        }
    }
    assert!(drifted.is_empty(), "keep-alive expiry drifted:\n{}", drifted.join("\n"));
}

/// Purge storms and fleet telemetry on one cloud: each periodic tick
/// must not count the other's pending tick as work, or the pair keeps
/// itself alive and `run_to_idle` never returns. Twenty requests a
/// minute apart on aws-like (fixed 10-minute keep-alive) leave their
/// last deadline inside the first half hour; both tick series must end
/// there, however far the clock then runs.
#[test]
fn storms_and_telemetry_stop_after_the_last_deadline() {
    use faas_sim::spec::FunctionSpec;
    use simkit::time::SimTime;

    const HOUR_S: f64 = 3_600.0;
    let mut cloud = faas_sim::cloud::CloudSim::new(providers::profiles::aws_like(), CLOUD_SEED);
    cloud.install_faults(faults::FaultSpec::preset("purge-storm").unwrap().build());
    cloud.enable_timeline(SimTime::from_secs(60.0));
    let f = cloud.deploy(FunctionSpec::builder("f").build()).unwrap();
    for i in 0..20u64 {
        cloud.submit(f, i, SimTime::from_secs(60.0 * i as f64));
    }
    cloud.run_until(SimTime::from_secs(100.0 * HOUR_S));
    let ticks =
        |cloud: &faas_sim::cloud::CloudSim| (cloud.fault_stats().storms, cloud.timeline().len());
    let at_horizon = ticks(&cloud);
    let last_sample = cloud.timeline().last().expect("telemetry sampled the run").at;
    assert!(
        last_sample < SimTime::from_secs(HOUR_S),
        "telemetry still sampling at {last_sample:?} ({at_horizon:?} storms/samples)"
    );
    cloud.run_to_idle();
    assert_eq!(ticks(&cloud), at_horizon, "ticks resumed after the horizon");
    assert!(at_horizon.0 > 0, "storms fired while the run was active");
    assert_eq!(cloud.drain_completions().len(), 20);
}
