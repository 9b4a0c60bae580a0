//! What a workload run hands back to `main`.

use std::collections::BTreeMap;

/// Settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// A finished run: counts, correctness findings and measured metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted in the measured window.
    pub attempted: u64,
    /// Of those, how many failed (error, refusal, timeout or wrong output).
    pub failed: u64,
    /// Correctness findings; any entry fails the run.
    pub errors: Vec<String>,
    /// Metric name to value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (figures that are not catalogue metrics).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness finding, keeping the first few verbatim.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        } else if self.errors.len() == 20 {
            self.errors.push("further errors suppressed".into());
        }
    }
}
