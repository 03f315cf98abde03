//! **E9 — baseline comparison**: broadcast time of algorithm B (2-bit λ)
//! versus the two §1.1 baselines (unique-identifier round robin and
//! square-colouring slots).
//!
//! The shape the paper implies: the baselines are *correct* but pay for their
//! generality either in label length (both), or in time on graphs where the
//! slot sweep is long (identifiers ~ n slots, colouring ~ χ(G²) slots per
//! progress step), while λ completes within 2n − 3 rounds with 2-bit labels.

use super::{sweep_rows, CORE, SOURCE};
use crate::report::{fmt_f64, fmt_opt, Table};
use crate::ExperimentConfig;
use rn_broadcast::session::{Scheme, Session};
use std::sync::Arc;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E9: broadcast time and label length, lambda vs the section 1.1 baselines",
        &[
            "family",
            "n",
            "lambda rounds",
            "unique-id rounds",
            "coloring rounds",
            "id/lambda",
            "coloring/lambda",
            "label bits (lambda/id/color)",
        ],
    );
    sweep_rows(&mut table, &CORE, config, |i| {
        // All three schemes share one graph allocation through the session.
        let run = |scheme| {
            Session::builder(scheme, Arc::clone(&i.graph))
                .source(SOURCE)
                .message(7)
                .build()
                .expect("connected workload")
                .run()
        };
        let lambda = run(Scheme::Lambda);
        let ids = run(Scheme::UniqueIds);
        let colors = run(Scheme::SquareColoring);
        let ratio = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) if b > 0 => fmt_f64(a as f64 / b as f64),
            _ => "-".into(),
        };
        vec![
            i.graph.node_count().to_string(),
            fmt_opt(lambda.completion_round),
            fmt_opt(ids.completion_round),
            fmt_opt(colors.completion_round),
            ratio(ids.completion_round, lambda.completion_round),
            ratio(colors.completion_round, lambda.completion_round),
            format!(
                "{}/{}/{}",
                lambda.label_length, ids.label_length, colors.label_length
            ),
        ]
    });
    table.push_note(
        "lambda keeps 2-bit labels and the 2n-3 guarantee; the identifier baseline's slot sweep \
         grows with n and the colouring baseline's with chi(G^2)",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_algorithms_complete() {
        let t = run(&ExperimentConfig::small());
        for row in &t.rows {
            assert_ne!(row[2], "-", "lambda must complete: {row:?}");
            assert_ne!(row[3], "-", "ids must complete: {row:?}");
            assert_ne!(row[4], "-", "coloring must complete: {row:?}");
        }
    }

    #[test]
    fn lambda_labels_are_shortest() {
        let t = run(&ExperimentConfig::small());
        for row in &t.rows {
            let bits: Vec<usize> = row[7].split('/').map(|x| x.parse().unwrap()).collect();
            assert_eq!(bits[0], 2);
            assert!(bits[1] >= bits[0]);
        }
    }
}
