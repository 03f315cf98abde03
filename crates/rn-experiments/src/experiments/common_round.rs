//! **E10 — common completion round** (end of §3 of the paper): after running
//! B_ack and then re-broadcasting the acknowledgement round `m` with B, round
//! `2m` is a common round in which every node knows the original broadcast
//! completed.

use super::{sweep_rows, CORE, SOURCE};
use crate::report::{fmt_bool, Table};
use crate::ExperimentConfig;
use rn_broadcast::common_round::run_common_round;

/// Runs the sweep and renders the table.
pub fn run(config: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E10: common completion round (B_ack followed by a broadcast of m)",
        &[
            "family",
            "n",
            "ack round m",
            "all know m by round",
            "common round 2m",
            "claim holds",
        ],
    );
    sweep_rows(&mut table, &CORE, config, |i| {
        let r = run_common_round(&i.graph, SOURCE, 7).expect("connected workload");
        vec![
            i.graph.node_count().to_string(),
            r.ack_round.to_string(),
            r.second_completion_round.to_string(),
            r.common_round.to_string(),
            fmt_bool(r.claim_holds),
        ]
    });
    table.push_note("claim: every node receives m strictly before round 2m, so 2m is a common known-completion round");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_holds_everywhere() {
        let t = run(&ExperimentConfig::small());
        assert!(t.row_count() > 0);
        assert!(!t.render().contains("NO"));
    }
}
