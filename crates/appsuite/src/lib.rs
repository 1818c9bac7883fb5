//! SeBS-style application scenarios for the STeLLAR simulator.
//!
//! SeBS (Copik et al., PAPERS.md) shows that a small set of calibrated
//! application classes — web/API, ML inference, multimedia, scientific —
//! covers most production FaaS workloads. This crate packages that
//! insight as named [`DagSpec`] presets with calibrated execution-time
//! and payload-size distributions, selectable from the CLI via `--app`
//! and crossed with the provider × workload × policy × fault axes.
//!
//! Calibration follows the regimes STeLLAR measures rather than absolute
//! numbers from any one provider: interactive stages run a few to tens of
//! milliseconds with log-normal tails, compute stages run hundreds of
//! milliseconds, inline payloads sit well under the ~6 MB provider caps,
//! and multimedia payloads ride the storage path at megabytes. See
//! DESIGN.md §13 for the full preset table.
//!
//! | preset           | shape                               | stages |
//! |------------------|-------------------------------------|--------|
//! | `web-api`        | linear auth → logic → render        | 3      |
//! | `thumbnail`      | upload → resize ×4 → collect (all)  | 6      |
//! | `ml-inference`   | preprocess → predict → render       | 3      |
//! | `video`          | split → transcode ×8 → merge (all)  | 10     |
//! | `map-reduce`     | ingest → map ×6 → reduce (all)      | 8      |
//! | `scatter-gather` | scatter → ×16 → gather (12-of-16)   | 18     |

use faas_sim::dag::{DagNodeSpec, DagSpec, JoinSpec};
use faas_sim::types::{DeploymentMethod, Runtime, TransferMode};
use simkit::dist::Dist;

/// Named application presets, usable from the CLI via `--app <name>`.
pub fn preset(name: &str) -> Option<DagSpec> {
    Some(match name {
        "web-api" => web_api(),
        "thumbnail" => thumbnail(),
        "ml-inference" => ml_inference(),
        "video" => video(),
        "map-reduce" => map_reduce(),
        "scatter-gather" => scatter_gather(),
        _ => return None,
    })
}

/// Every preset name, for `--help` and error messages.
pub fn preset_names() -> &'static [&'static str] {
    &["web-api", "thumbnail", "ml-inference", "video", "map-reduce", "scatter-gather"]
}

/// Parses a workflow from raw [`DagSpec`] JSON (the escape hatch for
/// applications beyond the named presets) and validates it.
///
/// # Errors
///
/// Returns a description of the parse or validation failure.
pub fn from_json(json: &str) -> Result<DagSpec, String> {
    let spec: DagSpec = serde_json::from_str(json).map_err(|e| format!("bad app spec: {e}"))?;
    spec.validate()?;
    Ok(spec)
}

/// Resolves `--app` input: a preset name, else inline JSON, else a
/// helpful error listing the presets.
///
/// # Errors
///
/// Returns a message naming the known presets when `input` is neither.
pub fn resolve(input: &str) -> Result<DagSpec, String> {
    if let Some(spec) = preset(input) {
        return Ok(spec);
    }
    if input.trim_start().starts_with('{') {
        return from_json(input);
    }
    Err(format!("unknown app '{input}' (presets: {})", preset_names().join(", ")))
}

/// Interactive web/API backend: the linear three-stage request path.
/// Fully linear with constant payloads — the degenerate single-path DAG,
/// the same shape a `ChainConfig` chain is lowered to at deploy time.
pub fn web_api() -> DagSpec {
    DagSpec::new("web-api")
        .node(DagNodeSpec::new("auth").exec_ms(Dist::lognormal_median_p99(2.0, 8.0)).memory_mb(256))
        .node(
            DagNodeSpec::new("logic")
                .exec_ms(Dist::lognormal_median_p99(15.0, 60.0))
                .memory_mb(512),
        )
        .node(
            DagNodeSpec::new("render")
                .exec_ms(Dist::lognormal_median_p99(5.0, 20.0))
                .memory_mb(256),
        )
        .edge("auth", "logic", TransferMode::Inline, Dist::constant(2.0 * KB))
        .edge("logic", "render", TransferMode::Inline, Dist::constant(8.0 * KB))
}

/// Thumbnail generation: one upload fans out to four resize workers
/// (one per target resolution) whose outputs a collector joins. Images
/// ride the storage path; sizes are log-normal around a few hundred KB.
pub fn thumbnail() -> DagSpec {
    let mut spec = DagSpec::new("thumbnail").node(
        DagNodeSpec::new("upload").exec_ms(Dist::lognormal_median_p99(8.0, 30.0)).memory_mb(512),
    );
    for name in ["resize-64", "resize-128", "resize-256", "resize-512"] {
        spec = spec
            .node(
                DagNodeSpec::new(name)
                    .exec_ms(Dist::lognormal_median_p99(40.0, 180.0))
                    .memory_mb(1024),
            )
            .edge(
                "upload".to_string(),
                name.to_string(),
                TransferMode::Storage,
                Dist::lognormal_median_p99(400.0 * KB, 2.0 * MB),
            );
    }
    spec = spec.node(
        DagNodeSpec::new("collect").exec_ms(Dist::lognormal_median_p99(5.0, 20.0)).memory_mb(256),
    );
    for name in ["resize-64", "resize-128", "resize-256", "resize-512"] {
        spec = spec.edge(
            name.to_string(),
            "collect".to_string(),
            TransferMode::Storage,
            Dist::lognormal_median_p99(60.0 * KB, 250.0 * KB),
        );
    }
    spec
}

/// ML inference: preprocess → predict → render. Linear like `web-api`,
/// but the feature tensors have log-normal sizes, so every hop draws its
/// payload from the DAG stream, and the model server is a large
/// containerised function.
pub fn ml_inference() -> DagSpec {
    DagSpec::new("ml-inference")
        .node(
            DagNodeSpec::new("preprocess")
                .exec_ms(Dist::lognormal_median_p99(12.0, 50.0))
                .memory_mb(1024),
        )
        .node(
            DagNodeSpec::new("predict")
                .exec_ms(Dist::lognormal_median_p99(80.0, 350.0))
                .memory_mb(4096)
                .runtime(Runtime::Python3)
                .deployment(DeploymentMethod::Container),
        )
        .node(
            DagNodeSpec::new("render")
                .exec_ms(Dist::lognormal_median_p99(4.0, 15.0))
                .memory_mb(256),
        )
        .edge(
            "preprocess",
            "predict",
            TransferMode::Inline,
            Dist::lognormal_median_p99(200.0 * KB, 1.5 * MB),
        )
        .edge(
            "predict",
            "render",
            TransferMode::Inline,
            Dist::lognormal_median_p99(4.0 * KB, 32.0 * KB),
        )
}

/// Video processing: split → transcode ×8 → merge, the multimedia class.
/// Heavy compute, megabyte segments over storage, Go workers.
pub fn video() -> DagSpec {
    let mut spec = DagSpec::new("video").node(
        DagNodeSpec::new("split")
            .exec_ms(Dist::lognormal_median_p99(60.0, 250.0))
            .memory_mb(2048)
            .runtime(Runtime::Go),
    );
    for i in 0..8 {
        let name = format!("transcode-{i}");
        spec = spec
            .node(
                DagNodeSpec::new(name.clone())
                    .exec_ms(Dist::lognormal_median_p99(250.0, 1_200.0))
                    .memory_mb(3008)
                    .runtime(Runtime::Go)
                    .deployment(DeploymentMethod::Container),
            )
            .edge(
                "split".to_string(),
                name,
                TransferMode::Storage,
                Dist::lognormal_median_p99(4.0 * MB, 16.0 * MB),
            );
    }
    spec = spec.node(
        DagNodeSpec::new("merge")
            .exec_ms(Dist::lognormal_median_p99(80.0, 300.0))
            .memory_mb(2048)
            .runtime(Runtime::Go),
    );
    for i in 0..8 {
        spec = spec.edge(
            format!("transcode-{i}"),
            "merge".to_string(),
            TransferMode::Storage,
            Dist::lognormal_median_p99(2.0 * MB, 8.0 * MB),
        );
    }
    spec
}

/// Map-reduce: ingest fans a work list out to six mappers; a reducer
/// joins all partial results. The scientific/batch class with inline
/// intermediate data.
pub fn map_reduce() -> DagSpec {
    let mut spec = DagSpec::new("map-reduce").node(
        DagNodeSpec::new("ingest").exec_ms(Dist::lognormal_median_p99(10.0, 40.0)).memory_mb(512),
    );
    for i in 0..6 {
        let name = format!("map-{i}");
        spec = spec
            .node(
                DagNodeSpec::new(name.clone())
                    .exec_ms(Dist::lognormal_median_p99(70.0, 400.0))
                    .memory_mb(1024),
            )
            .edge(
                "ingest".to_string(),
                name,
                TransferMode::Inline,
                Dist::lognormal_median_p99(32.0 * KB, 200.0 * KB),
            );
    }
    spec = spec.node(
        DagNodeSpec::new("reduce").exec_ms(Dist::lognormal_median_p99(25.0, 100.0)).memory_mb(1024),
    );
    for i in 0..6 {
        spec = spec.edge(
            format!("map-{i}"),
            "reduce".to_string(),
            TransferMode::Inline,
            Dist::lognormal_median_p99(16.0 * KB, 100.0 * KB),
        );
    }
    spec
}

/// Scatter-gather: sixteen parallel lookups with a 12-of-16 quorum join —
/// the "tail at scale" shape where hedging inside the barrier (answering
/// on the first k) trades completeness for latency.
pub fn scatter_gather() -> DagSpec {
    let mut spec = DagSpec::new("scatter-gather").node(
        DagNodeSpec::new("scatter").exec_ms(Dist::lognormal_median_p99(3.0, 12.0)).memory_mb(256),
    );
    for i in 0..16 {
        let name = format!("lookup-{i}");
        spec = spec
            .node(
                DagNodeSpec::new(name.clone())
                    .exec_ms(Dist::lognormal_median_p99(10.0, 120.0))
                    .memory_mb(512),
            )
            .edge("scatter".to_string(), name, TransferMode::Inline, Dist::constant(1.0 * KB));
    }
    spec = spec.node(
        DagNodeSpec::new("gather")
            .exec_ms(Dist::lognormal_median_p99(5.0, 20.0))
            .memory_mb(512)
            .join(JoinSpec::KOfN { k: 12 }),
    );
    for i in 0..16 {
        spec = spec.edge(
            format!("lookup-{i}"),
            "gather".to_string(),
            TransferMode::Inline,
            Dist::lognormal_median_p99(2.0 * KB, 16.0 * KB),
        );
    }
    spec
}

/// Parametric fan-out/fan-in: `start → worker ×width → join (all)` with
/// rare-straggler worker execution — branches are fast (20 ms median,
/// 45 ms p99) except for a 0.2% chance of a ~1.1 s straggler (a GC
/// pause, a slow replica). Individually the slow mode hides beyond each
/// branch's p99, but an all-of-n join experiences it at `width` times
/// the per-branch rate: the tail-at-scale effect the straggler bench
/// sweeps `width` to measure.
pub fn fan_out(width: u32) -> DagSpec {
    assert!(width >= 1, "fan_out needs at least one branch");
    let mut spec = DagSpec::new(format!("fan-{width}")).node(
        DagNodeSpec::new("start").exec_ms(Dist::lognormal_median_p99(3.0, 12.0)).memory_mb(256),
    );
    for i in 0..width {
        let name = format!("worker-{i}");
        spec = spec
            .node(
                DagNodeSpec::new(name.clone())
                    .exec_ms(Dist::bimodal(
                        Dist::lognormal_median_p99(20.0, 45.0),
                        Dist::lognormal_median_p99(1_100.0, 2_200.0),
                        0.002,
                    ))
                    // Full-speed memory on every profile: a straggler must
                    // come from the slow mode above, not from CPU
                    // throttling stretching it past the inter-arrival gap
                    // (which would couple consecutive workflows through
                    // instance contention).
                    .memory_mb(2_048),
            )
            .edge("start".to_string(), name, TransferMode::Inline, Dist::constant(4.0 * KB));
    }
    let mut join_node =
        DagNodeSpec::new("join").exec_ms(Dist::lognormal_median_p99(4.0, 15.0)).memory_mb(512);
    if width >= 2 {
        join_node = join_node.join(JoinSpec::All);
    }
    spec = spec.node(join_node);
    for i in 0..width {
        spec = spec.edge(
            format!("worker-{i}"),
            "join".to_string(),
            TransferMode::Inline,
            Dist::lognormal_median_p99(2.0 * KB, 16.0 * KB),
        );
    }
    spec
}

const KB: f64 = 1_000.0;
const MB: f64 = 1_000_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_compiles() {
        for name in preset_names() {
            let spec = preset(name).unwrap_or_else(|| panic!("preset {name} missing"));
            assert_eq!(&spec.name, name, "preset name must match its key");
            let plan = spec.compile().unwrap_or_else(|e| panic!("preset {name}: {e}"));
            assert!(plan.nodes.len() >= 3, "preset {name} too small");
        }
        assert!(preset("no-such-app").is_none());
    }

    #[test]
    fn preset_shapes() {
        let web = web_api().compile().unwrap();
        assert!(web.nodes.iter().all(|n| !n.is_join()), "web-api is linear");

        let thumb = thumbnail().compile().unwrap();
        assert_eq!(thumb.nodes[thumb.root].out.len(), 4, "thumbnail fans out 4 ways");
        assert!(thumb.nodes.iter().any(|n| n.is_join()));

        let sg = scatter_gather().compile().unwrap();
        let gather = sg.nodes.iter().find(|n| n.name == "gather").unwrap();
        assert_eq!(gather.in_degree, 16);
        assert_eq!(gather.join_k, 12, "scatter-gather joins on a 12-of-16 quorum");

        let vid = video().compile().unwrap();
        assert_eq!(vid.nodes[vid.root].out.len(), 8, "video transcodes 8 segments");
    }

    #[test]
    fn fan_out_is_parametric() {
        for width in [1u32, 2, 4, 8, 16] {
            let plan = fan_out(width).compile().unwrap();
            assert_eq!(plan.nodes.len() as u32, width + 2);
            assert_eq!(plan.nodes[plan.root].out.len() as u32, width);
            let join = plan.nodes.iter().find(|n| n.name == "join").unwrap();
            assert_eq!(join.in_degree, width);
            assert_eq!(join.join_k, width, "fan_out join waits for every branch");
        }
    }

    #[test]
    fn resolve_accepts_presets_and_json() {
        assert_eq!(resolve("thumbnail").unwrap().name, "thumbnail");
        let json = r#"{"name":"mini","nodes":[{"name":"a"},{"name":"b"}],
                       "edges":[{"from":"a","to":"b"}]}"#;
        assert_eq!(resolve(json).unwrap().name, "mini");
        let err = resolve("bogus").unwrap_err();
        assert!(err.contains("web-api"), "error must list presets: {err}");
        assert!(resolve("{not json").is_err());
    }

    #[test]
    fn json_round_trip() {
        for name in preset_names() {
            let spec = preset(name).unwrap();
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(from_json(&json).unwrap(), spec);
        }
    }
}
