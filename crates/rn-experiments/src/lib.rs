//! # rn-experiments
//!
//! The experiment and scenario harness. Two layers:
//!
//! * **Paper experiments** — each experiment of the [`experiments`] index
//!   (E1–E10, plus the ablations) has its own module, producing plain-text
//!   tables through [`report::Table`]; the `repro` binary runs them all. The
//!   sweep-based tables draw their instances through the same registry and
//!   fan-out as the scenario sweeps.
//! * **Scenario sweeps** — declarative [`scenario::SweepSpec`]s cross
//!   topology families × sizes × schemes × seeds through the
//!   [`Session`](rn_broadcast::session::Session) API and emit
//!   machine-readable JSON/CSV reports ([`emit`]); the `sweep` binary runs
//!   the named sweeps.
//!
//! Everything is deterministic: instances are generated from explicit seeds
//! and parallel sweeps return results in job order, so two runs of `repro`
//! or `sweep` produce byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod experiments;
pub mod faults;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod telemetry;

pub use faults::FaultSpec;
pub use report::Table;
pub use scenario::{SweepRecord, SweepReport, SweepSpec};
pub use telemetry::SweepTelemetry;

/// Configuration shared by the sweep experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Graph sizes to sweep over.
    pub sizes: Vec<usize>,
    /// Random seeds per size (each seed is one instance for randomised
    /// families).
    pub seeds: Vec<u64>,
    /// Worker threads for the sweep (1 = run inline).
    pub threads: usize,
}

impl ExperimentConfig {
    /// A small configuration used by unit tests and quick smoke runs.
    pub fn small() -> Self {
        ExperimentConfig {
            sizes: vec![8, 16, 24],
            seeds: vec![1, 2],
            threads: 1,
        }
    }

    /// The full configuration used by the `repro` binary and the benches.
    pub fn full() -> Self {
        ExperimentConfig {
            sizes: vec![8, 16, 32, 64, 128, 256, 512],
            seeds: vec![1, 2, 3, 4, 5],
            threads: rn_radio::batch::default_threads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_nonempty() {
        for cfg in [ExperimentConfig::small(), ExperimentConfig::full()] {
            assert!(!cfg.sizes.is_empty());
            assert!(!cfg.seeds.is_empty());
            assert!(cfg.threads >= 1);
        }
    }
}
