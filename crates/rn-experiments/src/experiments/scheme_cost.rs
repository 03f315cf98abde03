//! **E8 — labeling-scheme construction cost**.
//!
//! The paper's motivating scenario has a central monitor computing the labels
//! ahead of time. This experiment measures the wall-clock cost of computing
//! each scheme as the network grows, confirming that the construction (a
//! sequence of minimal-dominating-set reductions) is cheap enough for the
//! scenario to be practical.

use super::{single_message_schemes, sweep_rows, CORE, SOURCE};
use crate::report::{fmt_f64, Table};
use crate::ExperimentConfig;
use rn_broadcast::session::Session;
use std::sync::Arc;
use std::time::Instant;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut headers: Vec<String> = vec!["family".into(), "n".into(), "m".into()];
    for s in single_message_schemes() {
        headers.push(format!("{} (us)", s.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "E8: labeling-scheme construction wall time (microseconds)",
        &header_refs,
    );
    sweep_rows(&mut table, &CORE, config, |i| {
        let g = &i.graph;
        let mut row = vec![g.node_count().to_string(), g.edge_count().to_string()];
        for s in single_message_schemes() {
            let builder = Session::builder(s, Arc::clone(g)).source(SOURCE);
            // A build is the scheme's construction and nothing else: a
            // session builds each run's nodes only when it runs.
            let start = Instant::now();
            let session = builder.build().expect("connected workload");
            let elapsed = start.elapsed().as_secs_f64() * 1e6;
            // Keep the labeling alive so the construction is not optimised
            // away.
            std::hint::black_box(session.labeling().length());
            row.push(fmt_f64(elapsed));
        }
        row
    });
    table.push_note("wall-clock times; exact values vary by machine, the shape (near-linear growth) is what matters");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_row_per_point_with_positive_times() {
        let cfg = ExperimentConfig {
            sizes: vec![8, 16],
            seeds: vec![1],
            threads: 1,
        };
        let t = run(&cfg);
        assert_eq!(t.row_count(), CORE.len() * 2);
        for row in &t.rows {
            for cell in &row[3..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v >= 0.0);
            }
        }
    }
}
