//! Test utilities: a small, fast, deliberately *uncalibrated* provider,
//! and a linear workflow builder.
//!
//! Unit and integration tests need a provider whose numbers are easy to
//! reason about; the calibrated profiles live in the `providers` crate.

use simkit::dist::Dist;

use crate::config::{
    ColdStartConfig, DispatchConfig, ImageCacheConfig, ImageStoreConfig, KeepAliveConfig,
    LimitsConfig, NetworkConfig, PathShares, PayloadStoreConfig, ProviderConfig, RuntimeModel,
    RuntimeTable, ScalePolicy, ScalingConfig, WarmPathConfig,
};
use crate::dag::{DagNodeSpec, DagSpec};
use crate::types::TransferMode;

/// A deterministic-ish provider with round numbers: 10 ms propagation,
/// 20 ms warm overhead, ~200 ms cold start, 100 MB/s everywhere,
/// per-request scaling and 60 s keep-alive.
pub fn test_provider() -> ProviderConfig {
    ProviderConfig {
        name: "test".to_string(),
        network: NetworkConfig {
            prop_delay_ms: Dist::constant(10.0),
            inline_bandwidth_mbps: Dist::constant(100.0),
            max_inline_payload: 6_000_000,
        },
        warm_path: WarmPathConfig {
            overhead_ms: Dist::constant(20.0),
            shares: PathShares::balanced(),
        },
        dispatch: DispatchConfig {
            service_ms: Dist::constant(0.5),
            degradation_per_100_backlog: 0.0,
            miss_prob: 0.0,
        },
        scaling: ScalingConfig {
            policy: ScalePolicy::PerRequest,
            decision_ms: Dist::constant(10.0),
            spawn_rate_per_sec: 1000.0,
            spawn_burst: 1000.0,
            adaptive_spawn_threshold: 0,
            adaptive_spawn_mult: 1.0,
        },
        cold_start: ColdStartConfig {
            sandbox_boot_ms: Dist::constant(100.0),
            handler_init_ms: Dist::constant(10.0),
            fetch_overlaps_boot: false,
            boot_failure_prob: 0.0,
        },
        runtimes: RuntimeTable {
            python3: RuntimeModel {
                init_ms: Dist::constant(30.0),
                base_image_mb: 5.0,
                container_chunks: None,
            },
            go: RuntimeModel {
                init_ms: Dist::constant(5.0),
                base_image_mb: 2.0,
                container_chunks: None,
            },
        },
        image_store: ImageStoreConfig {
            base_latency_ms: Dist::constant(40.0),
            bandwidth_mbps: Dist::constant(100.0),
            cache: ImageCacheConfig::none(),
        },
        payload_store: PayloadStoreConfig {
            put_base_ms: Dist::constant(15.0),
            get_base_ms: Dist::constant(10.0),
            bandwidth_mbps: Dist::constant(100.0),
        },
        keepalive: KeepAliveConfig { idle_timeout_ms: Dist::constant(60_000.0) },
        limits: LimitsConfig { max_instances_per_function: 10_000, full_speed_memory_mb: 1024 },
    }
}

/// A linear workflow `hop0 -> hop1 -> …`: one default node per entry of
/// `exec_ms`, and the edge out of `hop{i}` carrying a constant payload of
/// `edges[i].1` bytes over `edges[i].0` (`edges` has one entry fewer than
/// `exec_ms`).
pub fn line_spec(exec_ms: &[f64], edges: &[(TransferMode, u64)]) -> DagSpec {
    let mut spec = DagSpec::new("line");
    for (i, &ms) in exec_ms.iter().enumerate() {
        spec = spec.node(DagNodeSpec::new(format!("hop{i}")).exec_ms(Dist::constant(ms)));
    }
    for (i, &(mode, bytes)) in edges.iter().enumerate() {
        let (from, to) = (format!("hop{i}"), format!("hop{}", i + 1));
        spec = spec.edge(from, to, mode, Dist::constant(bytes as f64));
    }
    spec
}
