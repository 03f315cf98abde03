//! **E3 — Theorem 3.9**: with the 3-bit scheme λ_ack, all nodes are informed
//! by some round `t ≤ 2n − 3` and the source receives an "ack" by a round in
//! `{t + 1, …, t + n − 2}`.

use super::{sweep_rows, FAMILIES, SOURCE};
use crate::report::{fmt_bool, fmt_opt, Table};
use crate::ExperimentConfig;
use rn_broadcast::session::{Scheme, Session};
use std::sync::Arc;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E3: acknowledged broadcast with lambda_ack vs the Theorem 3.9 / Corollary 3.8 window",
        &[
            "family",
            "n",
            "completion t",
            "ack round t'",
            "ack delay t'-t",
            "delay bound n-1",
            "max msg bits",
            "within window",
        ],
    );
    sweep_rows(&mut table, &FAMILIES, config, |i| {
        let r = Session::builder(Scheme::LambdaAck, Arc::clone(&i.graph))
            .source(SOURCE)
            .message(7)
            .build()
            .expect("connected workload")
            .run();
        let n = i.graph.node_count() as u64;
        let ok = match (r.completion_round, r.ack_round) {
            (Some(t), Some(ta)) => ta > t && ta <= t + (n - 1),
            _ => false,
        };
        let delay = match (r.completion_round, r.ack_round) {
            (Some(t), Some(ta)) => Some(ta - t),
            _ => None,
        };
        vec![
            n.to_string(),
            fmt_opt(r.completion_round),
            fmt_opt(r.ack_round),
            fmt_opt(delay),
            (n - 1).to_string(),
            r.stats.max_message_bits.to_string(),
            fmt_bool(ok),
        ]
    });
    table.push_note(
        "the ack arrives strictly after completion and within n-1 rounds (Corollary 3.8's 3l-4; \
         Theorem 3.9 states n-2, which the path with the source at an endpoint exceeds by one — \
         see rn_broadcast::verify::check_theorem_3_9)",
    );
    table.push_note("max msg bits grows only logarithmically with n (the appended round number)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_within_window() {
        let t = run(&ExperimentConfig::small());
        assert!(t.row_count() > 0);
        assert!(!t.render().contains("NO"));
    }

    #[test]
    fn message_bits_grow_slowly() {
        let cfg = ExperimentConfig {
            sizes: vec![8, 64],
            seeds: vec![1],
            threads: 1,
        };
        let t = run(&cfg);
        // Compare the path rows at n = 8 and n = 64: message size grows by a
        // few bits, not by a factor of 8.
        let bits: Vec<usize> = t
            .rows
            .iter()
            .filter(|r| r[0] == "path")
            .map(|r| r[6].parse().unwrap())
            .collect();
        assert_eq!(bits.len(), 2);
        assert!(bits[1] > bits[0]);
        assert!(bits[1] < bits[0] * 4);
    }
}
