//! Shared scaffolding for the benchmark harness and the `repro` binary.
//!
//! [`RunConfig`] maps command-line flags to model/evaluation settings; the
//! presets trade fidelity for wall-clock: `quick` for smoke tests, the
//! default for shape-faithful runs on a laptop, `full` for the paper's
//! 101-member ensemble on a reduced grid, and `paper-scale` for the actual
//! ne=30 grid (48,602 horizontal points — budget accordingly).

pub mod archive_bench;
pub mod artifact;
pub mod evalbench;
pub mod faults;
pub mod scorecard;
pub mod serve_bench;
pub mod throughput;
pub mod tune;

use cc_core::evaluation::{EvalConfig, Evaluation};
use cc_grid::Resolution;
use cc_model::Model;

/// Harness configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Grid resolution.
    pub resolution: Resolution,
    /// Ensemble members.
    pub members: usize,
    /// Model seed.
    pub seed: u64,
    /// Output directory for text/CSV artifacts.
    pub out_dir: std::path::PathBuf,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            resolution: Resolution::reduced(6, 6),
            members: 41,
            seed: 2014, // HPDC'14
            out_dir: "results".into(),
        }
    }
}

impl RunConfig {
    /// Smoke-test preset.
    pub fn quick() -> Self {
        RunConfig { resolution: Resolution::reduced(3, 4), members: 15, ..Default::default() }
    }

    /// The paper's 101-member ensemble on a reduced grid.
    pub fn full() -> Self {
        RunConfig {
            resolution: Resolution::reduced(8, 8),
            members: cc_model::ENSEMBLE_SIZE,
            ..Default::default()
        }
    }

    /// The paper's actual ne=30, 30-level grid with 101 members.
    pub fn paper_scale() -> Self {
        RunConfig {
            resolution: Resolution::paper(),
            members: cc_model::ENSEMBLE_SIZE,
            ..Default::default()
        }
    }

    /// Build the model + evaluation driver.
    pub fn evaluation(&self) -> Evaluation {
        let model = Model::new(self.resolution, self.seed);
        Evaluation::new(model, EvalConfig::quick(self.members))
    }

    /// Write an artifact under the output directory (creating it).
    pub fn write_artifact(&self, name: &str, contents: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        std::fs::write(&path, contents).expect("write artifact");
    }
}

/// The four focus variables of Tables 2-5 and Figures 2-4.
pub const FOCUS: [&str; 4] = ["U", "FSDSC", "Z3", "CCN3"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_cost() {
        let q = RunConfig::quick();
        let d = RunConfig::default();
        let f = RunConfig::full();
        let p = RunConfig::paper_scale();
        assert!(q.resolution.horiz_points() < d.resolution.horiz_points());
        assert!(d.resolution.horiz_points() < f.resolution.horiz_points());
        assert!(f.resolution.horiz_points() < p.resolution.horiz_points());
        assert_eq!(p.resolution.horiz_points(), 48_602);
        assert_eq!(p.members, 101);
    }

    #[test]
    fn evaluation_builds() {
        let eval = RunConfig::quick().evaluation();
        assert_eq!(eval.model.registry().len(), 170);
        assert_eq!(eval.config.members, 15);
    }
}
