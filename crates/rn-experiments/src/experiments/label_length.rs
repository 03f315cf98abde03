//! **E4 — label length and message size comparison** (paper §1.1, §3, §5).
//!
//! For every instance the table reports the maximum degree and, per scheme,
//! the label length in bits and the number of distinct labels used (E3
//! reports the largest message in bits). The paper's headline is
//! visible directly in the table: λ/λ_ack/λ_arb stay at 2–3 bits and at most
//! 4/5/6 distinct labels no matter how large the network grows, while both
//! baselines grow with Θ(log n) or Θ(log Δ).

use super::{single_message_schemes, sweep_rows, CORE, SOURCE};
use crate::report::Table;
use crate::ExperimentConfig;
use rn_broadcast::session::Session;
use std::sync::Arc;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut headers: Vec<String> = vec!["family".into(), "n".into(), "max deg".into()];
    for s in single_message_schemes() {
        headers.push(format!("{} len", s.name()));
        headers.push(format!("{} distinct", s.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "E4: label length (bits) and distinct labels per scheme",
        &header_refs,
    );
    sweep_rows(&mut table, &CORE, config, |i| {
        let g = &i.graph;
        let mut row = vec![g.node_count().to_string(), g.max_degree().to_string()];
        for s in single_message_schemes() {
            let session = Session::builder(s, Arc::clone(g))
                .source(SOURCE)
                .build()
                .expect("connected workload");
            let l = session.labeling();
            row.push(l.length().to_string());
            row.push(l.distinct_count().to_string());
        }
        row
    });
    table.push_note(
        "lambda stays at 2 bits / <=4 labels, lambda_ack at 3 bits / <=5 labels, lambda_arb at \
         3 bits / <=6 labels for every n; unique_ids grows like ceil(log2 n) and square_coloring \
         like ceil(log2 chi(G^2))",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_vs_growing_lengths() {
        let cfg = ExperimentConfig {
            sizes: vec![8, 64, 200],
            seeds: vec![1],
            threads: 1,
        };
        let t = run(&cfg);
        // Columns: 3 fixed + 2 per scheme; the lengths of lambda,
        // lambda_ack and lambda_arb are columns 3, 5 and 7, unique_ids len
        // is column 3 + 2*3 = 9.
        let lens =
            |col: usize| -> Vec<usize> { t.rows.iter().map(|r| r[col].parse().unwrap()).collect() };
        assert!(lens(3).iter().all(|&l| l == 2));
        assert!(lens(5).iter().chain(&lens(7)).all(|&l| l == 3));
        let id_lens = lens(9);
        assert!(
            id_lens.iter().any(|&l| l >= 6),
            "ids must grow with n: {id_lens:?}"
        );
    }

    #[test]
    fn distinct_label_counts_match_the_paper() {
        let t = run(&ExperimentConfig::small());
        for row in &t.rows {
            let lambda_distinct: usize = row[4].parse().unwrap();
            let ack_distinct: usize = row[6].parse().unwrap();
            let arb_distinct: usize = row[8].parse().unwrap();
            assert!(lambda_distinct <= 4);
            assert!(ack_distinct <= 5);
            assert!(arb_distinct <= 6);
        }
    }
}
