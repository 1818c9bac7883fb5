//! # stellar-core — STeLLAR, the Serverless Tail-Latency Analyzer
//!
//! A Rust reproduction of the benchmarking framework from *Analyzing Tail
//! Latency in Serverless Clouds with STeLLAR* (IISWC'21). The framework is
//! provider-agnostic and highly configurable; it deploys sets of functions
//! described by a *static configuration*, drives invocation traffic
//! described by a *runtime configuration* (IAT distributions, bursts,
//! execution times, chained functions with inline or storage transfers),
//! and collects end-to-end and per-component latency measurements.
//!
//! One client drive loop, [`client::run_workload_spec`], runs every
//! workload: open or closed loop, with or without a tail-tolerance
//! policy, an IAT-only config as its lifted open-loop spec. A
//! closed-loop user thinks from its own response, so a closed-loop run
//! offers the rate Little's law predicts.
//!
//! The deployment target here is the [`faas_sim`] simulator (the paper
//! deployed to AWS Lambda, Google Cloud Functions and Azure Functions —
//! see `DESIGN.md` for the substitution rationale); the calibrated
//! provider profiles live in the `providers` crate.
//!
//! ## Quick start
//!
//! ```
//! use stellar_core::config::{IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
//! use stellar_core::experiment::Experiment;
//! use faas_sim::testutil::test_provider;
//!
//! // Deploy 4 replicas and measure 200 warm invocations at the paper's
//! // short (3 s) inter-arrival time.
//! let outcome = Experiment::new(test_provider())
//!     .functions(StaticConfig {
//!         functions: vec![StaticFunction::python_zip("warm-probe").with_replicas(4)],
//!     })
//!     .workload(RuntimeConfig::single(IatSpec::short(), 200))
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! println!("median = {:.1} ms, TMR = {:.2}", outcome.summary.median, outcome.summary.tmr);
//! ```

pub mod breakdown;
pub mod client;
pub mod config;
pub mod deployer;
pub mod experiment;
pub mod protocols;
pub mod runner;
pub mod traceio;
pub mod visualize;

pub use breakdown::{BreakdownAnalysis, Component};
pub use client::{run_workload, ClientError, RunResult};
pub use config::{ChainConfig, IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
pub use deployer::{deploy, Deployment, Endpoint};
pub use experiment::{Experiment, ExperimentError, Outcome};
pub use runner::{
    CellRow, CellStats, PolicyCellStats, Scenario, SweepGrid, SweepReport, SweepRunner,
};
