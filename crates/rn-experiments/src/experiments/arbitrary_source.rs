//! **E5 — arbitrary-source broadcast** (paper §4): with the 3-bit λ_arb
//! labels assigned *without knowing the source*, algorithm B_arb completes
//! broadcast — and lets every node know it completed — for every possible
//! source position.

use super::{sweep_rows, CORE};
use crate::report::{fmt_bool, fmt_opt, Table};
use crate::ExperimentConfig;
use rn_broadcast::session::{RunSpec, Scheme, Session};
use std::sync::Arc;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E5: arbitrary-source broadcast (lambda_arb + B_arb), worst case over source positions",
        &[
            "family",
            "n",
            "sources tried",
            "worst completion round",
            "worst common-knowledge round",
            "rounds per n",
            "all succeeded",
        ],
    );
    // B_arb runs three phases and is the slowest algorithm in the repository,
    // so sweep the compact family set and a handful of source positions.
    sweep_rows(&mut table, &CORE, config, |i| {
        let n = i.graph.node_count();
        // λ_arb labels are source-independent, so one session serves every
        // source position against the same cached labeling.
        let session = Session::builder(Scheme::LambdaArb, Arc::clone(&i.graph))
            .coordinator(0)
            .build()
            .expect("connected workload");
        let specs: Vec<RunSpec> = [0, n / 3, n / 2, n - 1]
            .into_iter()
            .map(|s| RunSpec::new(s, 7 + i.seed))
            .collect();
        let mut all_ok = true;
        let mut worst_completion = Some(0u64);
        let mut worst_ck = Some(0u64);
        for r in session.run_batch(&specs, 1).expect("sources in range") {
            let ok = r.completion_round.is_some() && r.common_knowledge_round.is_some();
            all_ok &= ok;
            worst_completion = match (worst_completion, r.completion_round) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            worst_ck = match (worst_ck, r.common_knowledge_round) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        let per_n = worst_ck.map_or_else(|| "-".into(), |c| format!("{:.2}", c as f64 / n as f64));
        vec![
            n.to_string(),
            specs.len().to_string(),
            fmt_opt(worst_completion),
            fmt_opt(worst_ck),
            per_n,
            fmt_bool(all_ok),
        ]
    });
    table.push_note(
        "the three phases cost a constant factor over plain broadcast (rounds per n stays bounded)",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sources_succeed() {
        let cfg = ExperimentConfig {
            sizes: vec![8, 14],
            seeds: vec![1],
            threads: 1,
        };
        let t = run(&cfg);
        assert!(t.row_count() > 0);
        assert!(!t.render().contains("NO"));
    }

    #[test]
    fn rounds_scale_linearly() {
        let cfg = ExperimentConfig {
            sizes: vec![12],
            seeds: vec![1],
            threads: 1,
        };
        let t = run(&cfg);
        for row in &t.rows {
            let per_n: f64 = row[5].parse().unwrap();
            assert!(
                per_n < 20.0,
                "B_arb should stay within a small constant times n"
            );
        }
    }
}
