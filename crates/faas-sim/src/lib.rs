//! # faas-sim — a discrete-event simulator of a serverless cloud
//!
//! This crate is the substrate of the STeLLAR reproduction: since the
//! paper benchmarks three commercial clouds we cannot access, `faas-sim`
//! models the full serverless invocation lifecycle of the paper's Fig 1 —
//! front-end fleet, load balancer, cluster scheduler, workers with
//! instance managers, function instances, and the storage services used
//! for both function images and cross-function payloads.
//!
//! The simulator is *mechanistic*: scheduling policies, queueing, image
//! caching, spawn pacing and storage contention are simulated, and the
//! paper's findings (who wins, where the crossovers are) emerge from those
//! mechanisms. Only the base component latency distributions are
//! calibrated numbers (see the `providers` crate).
//!
//! ## Quick start
//!
//! ```
//! use faas_sim::cloud::CloudSim;
//! use faas_sim::spec::FunctionSpec;
//! use faas_sim::testutil::test_provider;
//! use simkit::time::SimTime;
//!
//! let mut cloud = CloudSim::new(test_provider(), 1);
//! let f = cloud.deploy(FunctionSpec::builder("demo").build()).unwrap();
//! for i in 0..10 {
//!     cloud.submit(f, i, SimTime::from_secs(i as f64));
//! }
//! cloud.run_until(SimTime::from_secs(60.0));
//! let completions = cloud.drain_completions();
//! assert_eq!(completions.len(), 10);
//! // First request cold, the rest hit the warm instance:
//! assert!(completions[0].cold);
//! assert!(completions[1..].iter().all(|c| !c.cold));
//! ```

pub(crate) mod arena;
pub mod billing;
pub mod cloud;
pub mod config;
pub mod dag;
pub mod events;
pub(crate) mod injector;
pub mod instance;
pub mod loadbalancer;
pub(crate) mod loadindex;
pub(crate) mod pool;
pub mod request;
pub mod scheduler;
pub mod spec;
pub mod storage;
pub(crate) mod telemetry;
pub mod testutil;
pub mod types;
pub(crate) mod workflow;

pub use billing::ResourceUsage;
pub use cloud::{metric, span_tag, CloudSim, CloudStats, DeployError, RequestSlabStats};
pub use config::ProviderConfig;
pub use request::{Breakdown, Completion, TransferSample};
pub use spec::FunctionSpec;
pub use types::{DeploymentMethod, FunctionId, InstanceId, RequestId, Runtime, TransferMode};
