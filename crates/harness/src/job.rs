//! The campaign job model.
//!
//! A [`Job`] is one unit of simulation work — a co-sim run of one kernel,
//! one sweep point, one firmware measurement. It is a label, which names
//! it in telemetry and failure reports, and a [`Job::run`], which does the
//! work. The pool runs every job it is given: nothing is replayed from an
//! earlier campaign, so a result always reflects the code that computed it.

use std::panic::RefUnwindSafe;

/// What a finished job hands back: a text artifact (one table row, one
/// sweep block...) plus named numeric metrics for telemetry aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The text fragment this job contributes to the campaign artifact.
    pub artifact: String,
    /// Named metrics, e.g. `("sim_cycles", 1.4e6)`. Order is preserved.
    pub metrics: Vec<(String, f64)>,
}

impl JobOutput {
    /// An output with no metrics.
    #[must_use]
    pub fn text(artifact: String) -> JobOutput {
        JobOutput {
            artifact,
            metrics: Vec::new(),
        }
    }

    /// Fetches a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// One unit of campaign work. Implementations must be deterministic, so
/// that campaign output does not depend on the worker count, and labels
/// must be unique within a campaign: telemetry identifies a job by its
/// label.
pub trait Job: Send + Sync + RefUnwindSafe {
    /// Short human-readable label for telemetry (`table3:mm`).
    fn label(&self) -> String;

    /// Runs the job.
    ///
    /// # Errors
    ///
    /// Returns a message describing the failure; panics are also caught
    /// and reported by the pool.
    fn run(&self) -> Result<JobOutput, String>;
}
