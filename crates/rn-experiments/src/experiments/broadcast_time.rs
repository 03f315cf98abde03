//! **E2 — Theorem 2.9**: broadcast with the 2-bit scheme λ completes within
//! `2n − 3` rounds on every graph.
//!
//! The sweep runs algorithm B over every workload family and size, reports
//! the measured completion round next to the bound, and flags any violation
//! (none are expected; the integration tests additionally assert this).

use super::{sweep_rows, FAMILIES, SOURCE};
use crate::report::{fmt_bool, fmt_f64, fmt_opt, Table};
use crate::ExperimentConfig;
use rn_broadcast::session::{Scheme, Session};
use std::sync::Arc;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E2: broadcast completion round of algorithm B vs the 2n-3 bound (Theorem 2.9)",
        &[
            "family",
            "n",
            "completion round",
            "bound 2n-3",
            "round/bound",
            "transmissions",
            "within bound",
        ],
    );
    sweep_rows(&mut table, &FAMILIES, config, |i| {
        let r = Session::builder(Scheme::Lambda, Arc::clone(&i.graph))
            .source(SOURCE)
            .message(7)
            .build()
            .expect("connected workload")
            .run();
        let n = i.graph.node_count();
        let bound = 2 * n as u64 - 3;
        let completion = r.completion_round;
        vec![
            n.to_string(),
            fmt_opt(completion),
            bound.to_string(),
            completion.map_or("-".to_string(), |c| fmt_f64(c as f64 / bound as f64)),
            r.stats.transmissions.to_string(),
            fmt_bool(completion.is_some_and(|c| c <= bound)),
        ]
    });
    table.push_note("every row must read `yes`: Theorem 2.9 guarantees completion within 2n-3");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_are_within_the_bound() {
        let t = run(&ExperimentConfig::small());
        assert!(t.row_count() > 0);
        assert!(!t.render().contains("NO"));
    }

    #[test]
    fn path_rows_are_close_to_the_bound() {
        // The path from an endpoint is the tightest case: ℓ = n, so the
        // completion round is exactly 2n - 3.
        let cfg = ExperimentConfig {
            sizes: vec![16],
            seeds: vec![1],
            threads: 1,
        };
        let t = run(&cfg);
        let path_row = t
            .rows
            .iter()
            .find(|r| r[0] == "path")
            .expect("path family present");
        assert_eq!(
            path_row[2], path_row[3],
            "path should meet the bound exactly"
        );
    }
}
