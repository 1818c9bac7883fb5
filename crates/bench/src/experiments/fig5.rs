//! Fig 5: cold-start latency distributions on AWS for different language
//! runtimes and deployment methods (§VI-B3).

use faas_sim::types::{DeploymentMethod, Runtime};
use providers::paper::{fig5_aws, ProviderKind};
use providers::profiles::config_for;
use stats::summary::Summary;
use stellar_core::protocols::{cold_invocations, ColdSetup};
use stellar_core::runner::SweepRunner;

use crate::report::{comparison_table, Comparison, Report, BASE_SEED};

/// The four (runtime, deployment) combinations of Fig 5.
pub const COMBOS: [(Runtime, DeploymentMethod); 4] = [
    (Runtime::Go, DeploymentMethod::Zip),
    (Runtime::Python3, DeploymentMethod::Zip),
    (Runtime::Go, DeploymentMethod::Container),
    (Runtime::Python3, DeploymentMethod::Container),
];

/// Measured data behind Fig 5.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One cell per combination.
    pub cells: Vec<(Runtime, DeploymentMethod, Vec<f64>)>,
}

/// Runs the four combinations on the AWS-like provider, in parallel.
pub fn measure(samples: u32) -> Fig5 {
    let combos: Vec<(usize, (Runtime, DeploymentMethod))> =
        COMBOS.into_iter().enumerate().collect();
    let cells = SweepRunner::default().map(&combos, |&(i, (runtime, deployment))| {
        let setup = ColdSetup { runtime, deployment, extra_image_mb: 0.0 };
        let out = cold_invocations(
            config_for(ProviderKind::Aws),
            setup,
            samples,
            100,
            BASE_SEED + 10 + i as u64,
        )
        .expect("fig5 run");
        (runtime, deployment, out.latencies_ms())
    });
    Fig5 { cells }
}

impl Fig5 {
    /// Summary of one combination.
    pub fn summary(&self, runtime: Runtime, deployment: DeploymentMethod) -> Option<Summary> {
        self.cells
            .iter()
            .find(|(r, d, _)| *r == runtime && *d == deployment)
            .map(|(_, _, s)| Summary::from_samples(s))
    }

    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        self.cells
            .iter()
            .map(|(runtime, deployment, samples)| {
                let target = match (runtime, deployment) {
                    (Runtime::Go, DeploymentMethod::Zip) => fig5_aws::GO_ZIP,
                    (Runtime::Python3, DeploymentMethod::Zip) => fig5_aws::PYTHON_ZIP,
                    (Runtime::Go, DeploymentMethod::Container) => fig5_aws::GO_CONTAINER,
                    (Runtime::Python3, DeploymentMethod::Container) => fig5_aws::PYTHON_CONTAINER,
                };
                Comparison::from_summary(
                    format!("aws {runtime}+{deployment}"),
                    &Summary::from_samples(samples),
                    target.0,
                    target.1,
                )
            })
            .collect()
    }

    /// Renders the report.
    pub fn report(&self) -> Report {
        let mut body = comparison_table(&self.comparisons());
        let py_zip = self.summary(Runtime::Python3, DeploymentMethod::Zip).unwrap();
        let py_cont = self.summary(Runtime::Python3, DeploymentMethod::Container).unwrap();
        body.push_str(&format!(
            "\npython container vs zip: median {:.1}x, p99 {:.1}x (paper: 1.7x / 8.0x)\n",
            py_cont.median / py_zip.median,
            py_cont.tail / py_zip.tail,
        ));
        Report {
            id: "fig5",
            title: "AWS cold starts by language runtime and deployment method",
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn python_container_dominates_the_tail() {
        let data = measure(500);
        let py_zip = data.summary(Runtime::Python3, DeploymentMethod::Zip).unwrap();
        let py_cont = data.summary(Runtime::Python3, DeploymentMethod::Container).unwrap();
        let go_zip = data.summary(Runtime::Go, DeploymentMethod::Zip).unwrap();
        let go_cont = data.summary(Runtime::Go, DeploymentMethod::Container).unwrap();
        assert!(py_cont.tail > 3.0 * py_zip.tail);
        assert!(py_cont.tmr > 3.0);
        assert!(go_cont.median < 1.3 * go_zip.median, "go container ≈ zip");
        assert!(data.report().render().contains("python container vs zip"));
    }
}
