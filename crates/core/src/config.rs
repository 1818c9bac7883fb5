//! STeLLAR configuration files.
//!
//! The paper's framework is driven by two JSON documents (§IV):
//!
//! * a **static function configuration** consumed by the deployer —
//!   deployment method, memory size, replica count, image size;
//! * a **runtime configuration** consumed by the client — function mix,
//!   inter-arrival time distribution, burst size, execution time, chain
//!   length and transfer type.
//!
//! Both are modelled here as serde types with validation, so experiments
//! can be described in files exactly as STeLLAR users would.

use serde::{Deserialize, Serialize};

use faas_sim::types::{DeploymentMethod, Runtime, TransferMode};
use workload::spec::WorkloadSpec;

/// Static configuration of one function entry (deployer input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticFunction {
    /// Base name; replicas get `-0`, `-1`, … suffixes.
    pub name: String,
    /// Language runtime.
    pub runtime: Runtime,
    /// Deployment method (ZIP or container).
    pub deployment: DeploymentMethod,
    /// Instance memory, MB.
    pub memory_mb: u32,
    /// Extra random-content file added to the image, decimal MB (§IV).
    #[serde(default)]
    pub extra_image_mb: f64,
    /// Number of identical replicas — used to parallelise cold-start
    /// measurements (§IV).
    #[serde(default = "default_replicas")]
    pub replicas: u32,
}

fn default_replicas() -> u32 {
    1
}

impl StaticFunction {
    /// A single-replica Python ZIP function with paper-default memory.
    pub fn python_zip<S: Into<String>>(name: S) -> StaticFunction {
        StaticFunction {
            name: name.into(),
            runtime: Runtime::Python3,
            deployment: DeploymentMethod::Zip,
            memory_mb: 2048,
            extra_image_mb: 0.0,
            replicas: 1,
        }
    }

    /// Same, for Go.
    pub fn go_zip<S: Into<String>>(name: S) -> StaticFunction {
        StaticFunction { runtime: Runtime::Go, ..StaticFunction::python_zip(name) }
    }

    /// Sets the replica count (consuming).
    pub fn with_replicas(mut self, replicas: u32) -> StaticFunction {
        self.replicas = replicas;
        self
    }

    /// Sets the added image file size (consuming).
    pub fn with_extra_image_mb(mut self, mb: f64) -> StaticFunction {
        self.extra_image_mb = mb;
        self
    }

    /// Validates the entry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("function name is empty".into());
        }
        if self.memory_mb == 0 {
            return Err(format!("{}: memory_mb must be positive", self.name));
        }
        if self.replicas == 0 {
            return Err(format!("{}: replicas must be positive", self.name));
        }
        if !self.extra_image_mb.is_finite() || self.extra_image_mb < 0.0 {
            return Err(format!("{}: invalid extra_image_mb", self.name));
        }
        Ok(())
    }
}

/// The deployer's input document: a list of function entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticConfig {
    /// Functions to deploy.
    pub functions: Vec<StaticFunction>,
}

impl StaticConfig {
    /// Validates every entry.
    ///
    /// # Errors
    ///
    /// Returns the first entry error.
    pub fn validate(&self) -> Result<(), String> {
        if self.functions.is_empty() {
            return Err("no functions configured".into());
        }
        for f in &self.functions {
            f.validate()?;
        }
        Ok(())
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns parse or validation errors.
    pub fn from_json(json: &str) -> Result<StaticConfig, String> {
        let cfg: StaticConfig = serde_json::from_str(json).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("static config serialises")
    }
}

/// Inter-arrival time specification for invocation rounds (§IV: fixed,
/// stochastic or bursty traffic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "kind")]
pub enum IatSpec {
    /// Fixed spacing, ms.
    Fixed {
        /// Inter-arrival time, ms.
        ms: f64,
    },
    /// Exponential (Poisson arrivals), ms mean.
    Exponential {
        /// Mean inter-arrival time, ms.
        mean_ms: f64,
    },
    /// Uniform jitter in `[lo_ms, hi_ms]`.
    Uniform {
        /// Minimum IAT, ms.
        lo_ms: f64,
        /// Maximum IAT, ms.
        hi_ms: f64,
    },
}

impl IatSpec {
    /// The paper's *short* IAT for warm-function studies (3 s).
    pub fn short() -> IatSpec {
        IatSpec::Fixed { ms: 3_000.0 }
    }

    /// The paper's *long* IAT for cold-function studies (15 min).
    pub fn long() -> IatSpec {
        IatSpec::Fixed { ms: 900_000.0 }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            IatSpec::Fixed { ms } if *ms > 0.0 && ms.is_finite() => Ok(()),
            IatSpec::Fixed { ms } => Err(format!("fixed IAT must be positive: {ms}")),
            IatSpec::Exponential { mean_ms } if *mean_ms > 0.0 && mean_ms.is_finite() => Ok(()),
            IatSpec::Exponential { mean_ms } => {
                Err(format!("exponential IAT mean must be positive: {mean_ms}"))
            }
            IatSpec::Uniform { lo_ms, hi_ms }
                if *lo_ms > 0.0 && hi_ms >= lo_ms && hi_ms.is_finite() =>
            {
                Ok(())
            }
            IatSpec::Uniform { lo_ms, hi_ms } => {
                Err(format!("bad uniform IAT range [{lo_ms}, {hi_ms}]"))
            }
        }
    }
}

/// Lifts an [`IatSpec`] into the equivalent open-loop workload model:
/// the spec every IAT-only run is driven as (by
/// [`run_workload_with`](crate::client::run_workload_with)), so an IAT
/// config and its lifted spec produce the same run.
pub(crate) fn workload_from_iat(iat: &IatSpec) -> WorkloadSpec {
    use workload::spec::{ArrivalSpec, ModeSpec};
    let arrival = match *iat {
        IatSpec::Fixed { ms } => ArrivalSpec::Fixed { ms },
        IatSpec::Exponential { mean_ms } => ArrivalSpec::Exponential { mean_ms },
        IatSpec::Uniform { lo_ms, hi_ms } => ArrivalSpec::Uniform { lo_ms, hi_ms },
    };
    WorkloadSpec { arrival, mode: ModeSpec::Open }
}

/// Chain configuration for data-transfer studies (§IV).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Number of functions in the chain, ≥2 (producer … consumer).
    pub length: u32,
    /// Payload transport between adjacent functions.
    pub mode: TransferMode,
    /// Payload size, bytes.
    pub payload_bytes: u64,
}

impl ChainConfig {
    /// Validates the chain.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.length < 2 {
            return Err(format!("chain length must be >= 2, got {}", self.length));
        }
        if self.payload_bytes == 0 {
            return Err("chained payload must be non-empty".into());
        }
        // The chain deploys with constant `f64` payload edges, exact up to
        // 2^53 bytes.
        if self.payload_bytes > 1 << f64::MANTISSA_DIGITS {
            return Err(format!("chained payload of {} bytes exceeds 2^53", self.payload_bytes));
        }
        Ok(())
    }
}

/// The client's runtime configuration (§IV).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Inter-arrival time between invocation rounds. Shorthand for an
    /// open-loop `workload` with the same gap distribution: an IAT-only
    /// config runs as that lifted spec, whose first round arrives one gap
    /// after the start. Ignored when `workload` is present.
    pub iat: IatSpec,
    /// Requests issued simultaneously per round (burst size; 1 = single
    /// invocations).
    #[serde(default = "default_burst")]
    pub burst_size: u32,
    /// Number of measured latency samples to collect (the paper uses
    /// 3000 per configuration).
    pub samples: u32,
    /// Rounds issued before measurement starts, excluded from results.
    #[serde(default)]
    pub warmup_rounds: u32,
    /// Function execution (busy-spin) time, ms.
    #[serde(default)]
    pub exec_ms: f64,
    /// Optional function chain (data-transfer studies).
    #[serde(default)]
    pub chain: Option<ChainConfig>,
    /// Optional workload model. When present it supersedes `iat`: the
    /// client runs the spec's arrival process (and open/closed-loop mode).
    /// When absent the client runs `iat` lifted into an open-loop spec.
    #[serde(default)]
    pub workload: Option<WorkloadSpec>,
    /// Optional tail-tolerance policy. When present every logical request
    /// is driven by a policy state machine (hedging, retries, deadlines,
    /// tied requests); requires `burst_size == 1`. Absent in legacy
    /// configs, which therefore behave exactly as before.
    #[serde(default)]
    pub policy: Option<policy::PolicySpec>,
    /// Optional fault-injection schedule. When present (and not
    /// [`faults::FaultSpec::None`]) the cloud injects provider errors,
    /// crashes, keepalive-purge storms, capacity outages and network
    /// brownouts per the spec. Absent in legacy configs, which therefore
    /// behave exactly as before — byte for byte.
    #[serde(default)]
    pub faults: Option<faults::FaultSpec>,
}

fn default_burst() -> u32 {
    1
}

impl RuntimeConfig {
    /// Single-invocation workload with the given IAT and sample count.
    pub fn single(iat: IatSpec, samples: u32) -> RuntimeConfig {
        RuntimeConfig {
            iat,
            burst_size: 1,
            samples,
            warmup_rounds: 0,
            exec_ms: 0.0,
            chain: None,
            workload: None,
            policy: None,
            faults: None,
        }
    }

    /// Attaches a workload model (consuming); see
    /// [`RuntimeConfig::workload`].
    pub fn with_workload(mut self, spec: WorkloadSpec) -> RuntimeConfig {
        self.workload = Some(spec);
        self
    }

    /// Attaches a tail-tolerance policy (consuming); see
    /// [`RuntimeConfig::policy`].
    pub fn with_policy(mut self, spec: policy::PolicySpec) -> RuntimeConfig {
        self.policy = Some(spec);
        self
    }

    /// Attaches a fault-injection schedule (consuming); see
    /// [`RuntimeConfig::faults`].
    pub fn with_faults(mut self, spec: faults::FaultSpec) -> RuntimeConfig {
        self.faults = Some(spec);
        self
    }

    /// Number of rounds needed to produce `samples` measurements.
    pub fn measured_rounds(&self) -> u32 {
        self.samples.div_ceil(self.burst_size)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        self.iat.validate()?;
        if self.burst_size == 0 {
            return Err("burst_size must be positive".into());
        }
        if self.samples == 0 {
            return Err("samples must be positive".into());
        }
        if !self.exec_ms.is_finite() || self.exec_ms < 0.0 {
            return Err(format!("invalid exec_ms {}", self.exec_ms));
        }
        if let Some(chain) = &self.chain {
            chain.validate()?;
        }
        if let Some(workload) = &self.workload {
            workload.validate()?;
        }
        if let Some(policy) = &self.policy {
            policy.validate()?;
            if self.burst_size != 1 {
                return Err(format!(
                    "policies drive one logical request per arrival; burst_size must be 1, \
                     got {}",
                    self.burst_size
                ));
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        Ok(())
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns parse or validation errors.
    pub fn from_json(json: &str) -> Result<RuntimeConfig, String> {
        let cfg: RuntimeConfig = serde_json::from_str(json).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("runtime config serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_function_builders() {
        let f = StaticFunction::python_zip("probe").with_replicas(100).with_extra_image_mb(10.0);
        assert_eq!(f.runtime, Runtime::Python3);
        assert_eq!(f.replicas, 100);
        assert_eq!(f.extra_image_mb, 10.0);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn static_validation() {
        assert!(StaticFunction::python_zip("").validate().is_err());
        assert!(StaticFunction::python_zip("x").with_replicas(0).validate().is_err());
        let mut f = StaticFunction::go_zip("y");
        f.memory_mb = 0;
        assert!(f.validate().is_err());
        assert!(StaticConfig { functions: vec![] }.validate().is_err());
    }

    #[test]
    fn static_config_json_round_trip() {
        let cfg = StaticConfig {
            functions: vec![StaticFunction::go_zip("f").with_extra_image_mb(100.0)],
        };
        let parsed = StaticConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, parsed);
    }

    #[test]
    fn iat_presets_match_paper() {
        assert_eq!(IatSpec::short(), IatSpec::Fixed { ms: 3_000.0 });
        assert_eq!(IatSpec::long(), IatSpec::Fixed { ms: 900_000.0 });
    }

    #[test]
    fn iat_validation() {
        assert!(IatSpec::Fixed { ms: 0.0 }.validate().is_err());
        assert!(IatSpec::Exponential { mean_ms: -1.0 }.validate().is_err());
        assert!(IatSpec::Uniform { lo_ms: 5.0, hi_ms: 1.0 }.validate().is_err());
        assert!(IatSpec::Uniform { lo_ms: 1.0, hi_ms: f64::INFINITY }.validate().is_err());
        assert!(IatSpec::Uniform { lo_ms: 1.0, hi_ms: 5.0 }.validate().is_ok());
    }

    #[test]
    fn runtime_config_rounds() {
        let cfg = RuntimeConfig {
            iat: IatSpec::short(),
            burst_size: 100,
            samples: 3000,
            warmup_rounds: 2,
            exec_ms: 0.0,
            chain: None,
            workload: None,
            policy: None,
            faults: None,
        };
        assert_eq!(cfg.measured_rounds(), 30);
        assert!(cfg.validate().is_ok());
        // Uneven division rounds up.
        let cfg2 = RuntimeConfig { samples: 301, burst_size: 100, ..cfg };
        assert_eq!(cfg2.measured_rounds(), 4);
    }

    #[test]
    fn runtime_config_validation() {
        let good = RuntimeConfig::single(IatSpec::short(), 100);
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.burst_size = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.samples = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.chain =
            Some(ChainConfig { length: 1, mode: TransferMode::Inline, payload_bytes: 1024 });
        assert!(bad.validate().is_err());
        for (payload_bytes, ok) in [(0, false), ((1 << 53) + 1, false), (1 << 53, true)] {
            let mut cfg = good.clone();
            cfg.chain = Some(ChainConfig { length: 2, mode: TransferMode::Storage, payload_bytes });
            assert_eq!(cfg.validate().is_ok(), ok, "{payload_bytes} bytes");
        }
        let mut bad = good;
        bad.exec_ms = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn runtime_config_json_defaults() {
        let json = r#"{"iat": {"kind": "fixed", "ms": 3000.0}, "samples": 10}"#;
        let cfg = RuntimeConfig::from_json(json).unwrap();
        assert_eq!(cfg.burst_size, 1);
        assert_eq!(cfg.warmup_rounds, 0);
        assert_eq!(cfg.exec_ms, 0.0);
        assert!(cfg.chain.is_none());
        assert!(cfg.workload.is_none(), "legacy configs carry no workload model");
        assert!(cfg.faults.is_none(), "legacy configs carry no fault schedule");
    }

    #[test]
    fn runtime_config_faults_stanza_round_trips() {
        let json = r#"{
            "iat": {"kind": "fixed", "ms": 3000.0},
            "samples": 10,
            "faults": {"kind": "compose", "parts": [
                {"kind": "transient", "p": 0.05},
                {"kind": "outage", "start_ms": 30000.0, "duration_ms": 10000.0}
            ]}
        }"#;
        let cfg = RuntimeConfig::from_json(json).unwrap();
        let spec = cfg.faults.as_ref().expect("faults stanza parsed");
        assert!(!spec.is_none());
        let round = RuntimeConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, round);
        // Invalid stanzas are rejected at parse time.
        let bad = r#"{
            "iat": {"kind": "fixed", "ms": 3000.0},
            "samples": 10,
            "faults": {"kind": "transient", "p": 1.5}
        }"#;
        assert!(RuntimeConfig::from_json(bad).is_err());
    }

    #[test]
    fn runtime_config_workload_stanza_round_trips() {
        let json = r#"{
            "iat": {"kind": "fixed", "ms": 3000.0},
            "samples": 10,
            "workload": {
                "arrival": {"kind": "mmpp", "on_mean_ms": 500.0, "off_mean_ms": 5000.0,
                            "on_rate_per_s": 200.0, "off_rate_per_s": 1.0},
                "mode": {"mode": "closed", "concurrency": 8}
            }
        }"#;
        let cfg = RuntimeConfig::from_json(json).unwrap();
        let spec = cfg.workload.as_ref().expect("workload stanza parsed");
        assert!(matches!(spec.mode, workload::spec::ModeSpec::Closed { concurrency: 8 }));
        let round = RuntimeConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, round);
    }

    #[test]
    fn runtime_config_invalid_workload_is_rejected() {
        let json = r#"{
            "iat": {"kind": "fixed", "ms": 3000.0},
            "samples": 10,
            "workload": {
                "arrival": {"kind": "fixed", "ms": -5.0}
            }
        }"#;
        assert!(RuntimeConfig::from_json(json).is_err());
    }
}
