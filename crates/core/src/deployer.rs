//! The deployer: turns a static configuration into live endpoints.
//!
//! STeLLAR's deployer features provider-specific plugins that push
//! functions to the target cloud and emit a file of endpoint URLs (§IV).
//! In this reproduction the plugin deploys into a [`CloudSim`]; the plugin
//! trait is kept so a real-cloud backend could slot in.

use faas_sim::cloud::{CloudSim, DeployError};
use faas_sim::dag::{DagNodeSpec, DagSpec};
use faas_sim::spec::FunctionSpec;
use faas_sim::types::FunctionId;
use simkit::dist::Dist;

use crate::config::{ChainConfig, RuntimeConfig, StaticConfig, StaticFunction};

/// One deployed, invokable function endpoint (a chain's head when chains
/// are configured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// Synthetic URL, in the shape a provider would assign.
    pub url: String,
    /// The head function to invoke.
    pub function: FunctionId,
    /// Deployed name (base name + replica suffix).
    pub name: String,
}

/// A completed deployment: the endpoints file the client consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// One endpoint per (entry × replica).
    pub endpoints: Vec<Endpoint>,
}

impl Deployment {
    /// Number of invokable endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

/// Deploys `static_cfg` into `cloud`, wiring chains and execution times
/// from `runtime_cfg`.
///
/// For every entry and replica this creates the function or, when a
/// chain is configured, a linear workflow of `length` hops deployed with
/// [`CloudSim::deploy_dag`], whose head becomes the endpoint.
///
/// # Errors
///
/// Propagates [`DeployError`] from the simulator (invalid specs, inline
/// payload above the provider cap). A rejected chain deploys nothing.
pub fn deploy(
    cloud: &mut CloudSim,
    static_cfg: &StaticConfig,
    runtime_cfg: &RuntimeConfig,
) -> Result<Deployment, DeployError> {
    static_cfg.validate().map_err(DeployError::InvalidSpec)?;
    runtime_cfg.validate().map_err(DeployError::InvalidSpec)?;
    let mut endpoints = Vec::new();
    for entry in &static_cfg.functions {
        for replica in 0..entry.replicas {
            let name = format!("{}-{replica}", entry.name);
            let head = match &runtime_cfg.chain {
                Some(chain) => {
                    let spec = chain_spec(entry, &name, runtime_cfg.exec_ms, chain);
                    cloud.deploy_dag(&spec.compile().map_err(DeployError::InvalidSpec)?)?.root
                }
                None => deploy_one(cloud, entry, &name, runtime_cfg.exec_ms)?,
            };
            endpoints.push(Endpoint {
                url: format!("https://{}.sim/{}", cloud.config().name, name),
                function: head,
                name,
            });
        }
    }
    Ok(Deployment { endpoints })
}

fn deploy_one(
    cloud: &mut CloudSim,
    entry: &StaticFunction,
    name: &str,
    exec_ms: f64,
) -> Result<FunctionId, DeployError> {
    let spec = FunctionSpec::builder(name)
        .runtime(entry.runtime)
        .deployment(entry.deployment)
        .memory_mb(entry.memory_mb)
        .extra_image_mb(entry.extra_image_mb)
        .exec_ms(Dist::constant(exec_ms))
        .try_build()
        .map_err(DeployError::InvalidSpec)?;
    cloud.deploy(spec)
}

/// A chain as the linear workflow `name`: nodes `hop0` (the head) to
/// `hop{length − 1}`, each `entry`'s function with a constant `exec_ms`,
/// joined by constant-payload edges. A constant payload draws nothing,
/// and the cloud deploys the hops tail-first.
fn chain_spec(entry: &StaticFunction, name: &str, exec_ms: f64, chain: &ChainConfig) -> DagSpec {
    let mut spec = DagSpec::new(name);
    for hop in 0..chain.length {
        spec = spec.node(DagNodeSpec {
            name: format!("hop{hop}"),
            runtime: entry.runtime,
            deployment: entry.deployment,
            memory_mb: entry.memory_mb,
            extra_image_mb: entry.extra_image_mb,
            exec_ms: Dist::constant(exec_ms),
            join: None,
        });
    }
    for hop in 1..chain.length {
        let (from, to) = (format!("hop{}", hop - 1), format!("hop{hop}"));
        spec = spec.edge(from, to, chain.mode, Dist::constant(chain.payload_bytes as f64));
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IatSpec;
    use faas_sim::testutil::test_provider;
    use faas_sim::types::TransferMode;
    use simkit::time::SimTime;

    fn cloud() -> CloudSim {
        CloudSim::new(test_provider(), 1)
    }

    #[test]
    fn deploys_replicas_as_separate_endpoints() {
        let mut cloud = cloud();
        let static_cfg =
            StaticConfig { functions: vec![StaticFunction::python_zip("probe").with_replicas(5)] };
        let runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.endpoints[0].name, "probe-0");
        assert_eq!(d.endpoints[4].name, "probe-4");
        assert!(d.endpoints[0].url.starts_with("https://test.sim/"));
        // Each endpoint invokes a distinct function.
        let mut ids: Vec<_> = d.endpoints.iter().map(|e| e.function).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn deploys_chain_head_and_hops() {
        let mut cloud = cloud();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.chain =
            Some(ChainConfig { length: 3, mode: TransferMode::Inline, payload_bytes: 1_000 });
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        assert_eq!(d.len(), 1, "one endpoint: the chain head");
        // Invoking the head must traverse the whole chain: two transfers.
        cloud.submit(d.endpoints[0].function, 0, SimTime::ZERO);
        cloud.run_until(SimTime::from_secs(30.0));
        assert_eq!(cloud.drain_completions().len(), 1);
        assert_eq!(cloud.drain_transfers().len(), 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cloud = cloud();
        let empty = StaticConfig { functions: vec![] };
        let runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        assert!(deploy(&mut cloud, &empty, &runtime_cfg).is_err());

        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("f")] };
        let mut bad_runtime = runtime_cfg;
        bad_runtime.samples = 0;
        assert!(deploy(&mut cloud, &static_cfg, &bad_runtime).is_err());
    }

    #[test]
    fn oversized_inline_chain_payload_is_rejected() {
        let mut cloud = cloud();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::go_zip("f")] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.chain = Some(ChainConfig {
            length: 2,
            mode: TransferMode::Inline,
            payload_bytes: 100_000_000, // over the 6 MB test-provider cap
        });
        let err = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap_err();
        assert!(matches!(err, DeployError::InlinePayloadTooLarge { .. }));
        // The rejected chain left no function behind.
        let d = deploy(&mut cloud, &static_cfg, &RuntimeConfig::single(IatSpec::short(), 10));
        assert_eq!(d.unwrap().endpoints[0].function.index(), 0);
    }

    #[test]
    fn exec_time_is_applied() {
        let mut cloud = cloud();
        let static_cfg = StaticConfig { functions: vec![StaticFunction::python_zip("slow")] };
        let mut runtime_cfg = RuntimeConfig::single(IatSpec::short(), 10);
        runtime_cfg.exec_ms = 1000.0;
        let d = deploy(&mut cloud, &static_cfg, &runtime_cfg).unwrap();
        cloud.submit(d.endpoints[0].function, 0, SimTime::ZERO);
        cloud.run_until(SimTime::from_secs(30.0));
        let done = cloud.drain_completions();
        assert_eq!(done[0].breakdown.exec_ms, 1000.0);
    }
}
