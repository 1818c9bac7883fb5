//! Function specifications: what gets deployed into the simulated cloud.

use serde::{Deserialize, Serialize};
use simkit::dist::Dist;

use crate::types::{DeploymentMethod, Runtime};

/// Specification of a deployable function.
///
/// Mirrors STeLLAR's *static function configuration* (paper §IV): runtime,
/// deployment method, memory size, effective image size (base + an added
/// random-content file) and execution-time model. Edges between functions
/// come from a workflow ([`crate::cloud::CloudSim::deploy_dag`]).
///
/// Build with [`FunctionSpec::builder`]:
///
/// ```
/// use faas_sim::spec::FunctionSpec;
/// use faas_sim::types::{DeploymentMethod, Runtime};
///
/// let spec = FunctionSpec::builder("hello")
///     .runtime(Runtime::Go)
///     .deployment(DeploymentMethod::Zip)
///     .memory_mb(2048)
///     .extra_image_mb(100.0)
///     .build();
/// assert_eq!(spec.name, "hello");
/// assert_eq!(spec.extra_image_mb, 100.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Function name (for reporting; uniqueness not required).
    pub name: String,
    /// Language runtime.
    pub runtime: Runtime,
    /// Packaging / deployment method.
    pub deployment: DeploymentMethod,
    /// Instance memory size, MB (drives CPU throttling below the
    /// provider's full-speed threshold).
    pub memory_mb: u32,
    /// Size of the extra random-content file added to the image, decimal
    /// MB (paper §VI-B2 adds 10 MB / 100 MB files).
    pub extra_image_mb: f64,
    /// Execution ("busy-spin") time model, ms.
    pub exec_ms: Dist,
}

impl FunctionSpec {
    /// Starts building a spec with paper-default settings: Python 3, ZIP
    /// deployment, 2048 MB memory, no extra image payload, immediate
    /// return.
    pub fn builder<S: Into<String>>(name: S) -> FunctionSpecBuilder {
        FunctionSpecBuilder {
            spec: FunctionSpec {
                name: name.into(),
                runtime: Runtime::Python3,
                deployment: DeploymentMethod::Zip,
                memory_mb: 2048,
                extra_image_mb: 0.0,
                exec_ms: Dist::constant(0.0),
            },
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("function name is empty".to_string());
        }
        if self.memory_mb == 0 {
            return Err(format!("{}: memory_mb must be positive", self.name));
        }
        if !self.extra_image_mb.is_finite() || self.extra_image_mb < 0.0 {
            return Err(format!("{}: invalid extra_image_mb {}", self.name, self.extra_image_mb));
        }
        self.exec_ms.validate().map_err(|e| format!("{}: exec_ms: {e}", self.name))
    }
}

/// Builder for [`FunctionSpec`] (consuming style).
#[derive(Debug, Clone)]
pub struct FunctionSpecBuilder {
    spec: FunctionSpec,
}

impl FunctionSpecBuilder {
    /// Sets the language runtime.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.spec.runtime = runtime;
        self
    }

    /// Sets the deployment method.
    pub fn deployment(mut self, deployment: DeploymentMethod) -> Self {
        self.spec.deployment = deployment;
        self
    }

    /// Sets instance memory, MB.
    pub fn memory_mb(mut self, memory_mb: u32) -> Self {
        self.spec.memory_mb = memory_mb;
        self
    }

    /// Adds an extra random-content file of `mb` decimal megabytes to the
    /// function image.
    pub fn extra_image_mb(mut self, mb: f64) -> Self {
        self.spec.extra_image_mb = mb;
        self
    }

    /// Sets a fixed busy-spin execution time, ms.
    pub fn exec_constant_ms(mut self, ms: f64) -> Self {
        self.spec.exec_ms = Dist::constant(ms);
        self
    }

    /// Sets an arbitrary execution-time distribution, ms.
    pub fn exec_ms(mut self, dist: Dist) -> Self {
        self.spec.exec_ms = dist;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation; use [`FunctionSpecBuilder::try_build`]
    /// for a fallible version.
    pub fn build(self) -> FunctionSpec {
        self.try_build().expect("invalid function spec")
    }

    /// Finishes the build, returning validation errors.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn try_build(self) -> Result<FunctionSpec, String> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let spec = FunctionSpec::builder("f").build();
        assert_eq!(spec.runtime, Runtime::Python3);
        assert_eq!(spec.deployment, DeploymentMethod::Zip);
        assert_eq!(spec.memory_mb, 2048);
        assert_eq!(spec.extra_image_mb, 0.0);
    }

    #[test]
    fn builder_sets_fields() {
        let spec = FunctionSpec::builder("g")
            .runtime(Runtime::Go)
            .deployment(DeploymentMethod::Container)
            .memory_mb(512)
            .extra_image_mb(10.0)
            .exec_constant_ms(1000.0)
            .build();
        assert_eq!(spec.runtime, Runtime::Go);
        assert_eq!(spec.deployment, DeploymentMethod::Container);
        assert_eq!(spec.memory_mb, 512);
        assert_eq!(spec.exec_ms, Dist::constant(1000.0));
    }

    #[test]
    fn validation_catches_problems() {
        assert!(FunctionSpec::builder("").try_build().is_err());
        assert!(FunctionSpec::builder("f").memory_mb(0).try_build().is_err());
        assert!(FunctionSpec::builder("f").extra_image_mb(-1.0).try_build().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid function spec")]
    fn build_panics_on_invalid() {
        FunctionSpec::builder("").build();
    }

    #[test]
    fn serde_round_trip() {
        let spec =
            FunctionSpec::builder("h").exec_ms(Dist::lognormal_median_p99(10.0, 50.0)).build();
        let json = serde_json::to_string(&spec).unwrap();
        let back: FunctionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
