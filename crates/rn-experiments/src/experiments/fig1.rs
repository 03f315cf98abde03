//! **E1 — Figure 1**: a worked execution of algorithm B on a 13-node example
//! graph, printed in the same per-node format as the paper's Figure 1 (2-bit
//! label, rounds in which the node transmits, rounds in which it receives a
//! message).
//!
//! The paper's figure does not list its example graph's edge set in a
//! machine-readable form, so the experiment uses a fixed 13-node example of
//! our own with the same flavour (multiple branching paths that force
//! collisions and "stay" messages); the trace is additionally checked against
//! the exact characterisation of Lemma 2.8, which is what the figure
//! illustrates. The table prints this substitution as a note.

use crate::report::Table;
use rn_broadcast::algo_b::BNode;
use rn_broadcast::messages::BMessage;
use rn_broadcast::verify;
use rn_graph::Graph;
use rn_labeling::lambda;
use rn_radio::{Simulator, StopCondition};

/// The fixed 13-node example graph (node 0 is the source `s_G`).
pub fn example_graph() -> Graph {
    // Three "columns" hanging off the source with cross links, mirroring the
    // layered structure of the paper's figure.
    Graph::from_edges(
        13,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (3, 5),
            (3, 6),
            (4, 7),
            (5, 7),
            (5, 8),
            (6, 8),
            (7, 9),
            (7, 10),
            (8, 10),
            (8, 11),
            (9, 12),
            (10, 12),
            (11, 12),
        ],
    )
    .expect("the example edge list is valid")
}

/// Runs the experiment and renders the per-node table.
pub fn run() -> Table {
    let g = example_graph();
    let source = 0;
    let message = 0xF16;
    let scheme = lambda::construct(&g, source).expect("example graph is connected");
    let nodes = BNode::network(scheme.labeling(), source, message);
    let mut sim = Simulator::new(g.clone(), nodes);
    sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 200 }, |_| false);

    let lemma = verify::check_lemma_2_8(sim.trace(), scheme.construction(), scheme.labeling());
    let informed = verify::first_payload_rounds(sim.trace(), g.node_count(), source, |m| {
        matches!(m, BMessage::Data(_))
    });
    let completion = verify::completion_round(&informed);

    let mut table = Table::new(
        "E1: Figure 1 style worked execution of algorithm B (13-node example)",
        &["node", "label", "transmits in rounds", "receives in rounds"],
    );
    for v in g.nodes() {
        let transmits = sim.trace().transmit_rounds(v);
        let receives = sim.trace().receive_rounds(v);
        table.push_row(vec![
            if v == source {
                format!("{v} (source)")
            } else {
                v.to_string()
            },
            scheme.labeling().get(v).to_string(),
            format_rounds(&transmits),
            format_rounds(&receives),
        ]);
    }
    table.push_note(format!(
        "broadcast completed in round {} (bound 2n-3 = {})",
        completion.expect("example completes"),
        2 * g.node_count() - 3
    ));
    table.push_note(format!(
        "Lemma 2.8 per-round characterisation: {}",
        match lemma {
            Ok(()) => "verified".to_string(),
            Err(e) => format!("VIOLATED: {e}"),
        }
    ));
    table.push_note(
        "the paper's exact Figure 1 edge set is not machine-readable; this is an equivalent \
         13-node example (see the rn_experiments::experiments::fig1 docs)",
    );
    table
}

fn format_rounds(rounds: &[u64]) -> String {
    if rounds.is_empty() {
        "{}".to_string()
    } else {
        format!(
            "{{{}}}",
            rounds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::algorithms::is_connected;

    #[test]
    fn example_graph_shape() {
        let g = example_graph();
        assert_eq!(g.node_count(), 13);
        assert!(is_connected(&g));
        assert!(g.max_degree() >= 3);
    }

    #[test]
    fn table_has_one_row_per_node_and_verified_note() {
        let t = run();
        assert_eq!(t.row_count(), 13);
        let rendered = t.render();
        assert!(rendered.contains("verified"));
        assert!(!rendered.contains("VIOLATED"));
        assert!(rendered.contains("(source)"));
    }

    #[test]
    fn source_transmits_in_round_one() {
        let t = run();
        // The source row must list round 1 among its transmissions.
        assert!(t.rows[0][2].contains('1'));
    }
}
