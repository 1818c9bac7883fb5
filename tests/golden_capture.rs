//! Golden regression pins for the streaming client path.
//!
//! The bit-exact constants below were captured from the pre-refactor
//! streaming path (submit everything up front, then drain in slices).
//! The current path interleaves just-in-time submission with simulation
//! under a submission window; these tests pin that the refactor — and any
//! future change to the client, cloud, or engine — reproduces the legacy
//! output exactly: same counts, same simulated duration, same latency
//! aggregate bits.

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
            dur_ns: 130_939_453_086,
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
            dur_ns: 78_257_812_500,
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
            dur_ns: 19_989_191_616,
            mean_bits: 0x4044_4098_8df0_c3f8,
            p50_bits: 0x4044_4000_0000_0000,
            p99_bits: 0x4044_5edd_c126_5077,
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

/// The workload-spec driver with *no policy configured* must stay
/// byte-identical to its pre-policy-layer output (captured from the tree
/// at the commit introducing `stellar-policy`): attaching the policy
/// machinery may not move a single RNG draw or event on the default path.
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
            "measured=300 warmup=10 cold=6 dur_ns=20000000000 mean=0x40487369d0369d03 p50=0x4046000000000000 p99=0x4071e8147ae147ae",
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
            digest: "measured=200000 warmup=10 cold=1409 dur_ns=5263827022176 mean=0x4048c43fc45026a8 p50=0x4046270dcb6ba579 p99=0x405dfeb776285b11 spawned=1419 cold_starts=1419 warm_starts=198591 boot_retries=0 purged=0 slots_hw=673",
        },
        DispatchGolden {
            label: "google-target-4",
            provider: google_like,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: None,
            digest: "measured=20000 warmup=10 cold=51 dur_ns=1029475888861 mean=0x404165de0d2eff84 p50=0x403f135181e24582 p99=0x404ec5af23b62f42 spawned=54 cold_starts=54 warm_starts=19956 boot_retries=0 purged=0 slots_hw=520",
        },
        DispatchGolden {
            label: "cost-aware",
            provider: cost_aware,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: None,
            digest: "measured=20000 warmup=10 cold=251 dur_ns=1029475888861 mean=0x4049d200749aaa9f p50=0x4046398cfae83ef9 p99=0x40714967edd55b11 spawned=252 cold_starts=252 warm_starts=19758 boot_retries=0 purged=0 slots_hw=520",
        },
        DispatchGolden {
            label: "instance-cap-overcommit",
            provider: capped_at_three,
            workload: "mmpp-burst",
            samples: 5_000,
            faults: None,
            digest: "measured=5000 warmup=10 cold=0 dur_ns=282094596744 mean=0x404884041bac4e8f p50=0x4046aa4619a2b00c p99=0x40594cd336deb95e spawned=3 cold_starts=3 warm_starts=5007 boot_retries=0 purged=0 slots_hw=361",
        },
        DispatchGolden {
            label: "boot-failure-orphans",
            provider: google_failing_boots,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: None,
            digest: "measured=20000 warmup=10 cold=59 dur_ns=1029475888861 mean=0x40427bc3e002ddc0 p50=0x403f15a98d478815 p99=0x404f344e8125bdb9 spawned=100 cold_starts=62 warm_starts=19948 boot_retries=38 purged=0 slots_hw=520",
        },
        DispatchGolden {
            label: "purge-storm",
            provider: aws_like,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: Some("purge-storm"),
            digest: "measured=20000 warmup=10 cold=1561 dur_ns=1029475888861 mean=0x40510a91599710aa p50=0x4046a5769b8028e6 p99=0x4075eac0ef7ea87c spawned=1571 cold_starts=1571 warm_starts=18439 boot_retries=0 purged=1571 slots_hw=520",
        },
        DispatchGolden {
            label: "crash-orphans",
            provider: google_like,
            workload: "mmpp-burst",
            samples: 20_000,
            faults: Some("crash-2pct"),
            digest: "measured=19611 warmup=10 cold=406 dur_ns=1029475888861 mean=0x405d8527e8ce5d86 p50=0x404002f8ec872b7c p99=0x409aee7f18700e59 spawned=412 cold_starts=412 warm_starts=19598 boot_retries=0 purged=0 slots_hw=520",
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
