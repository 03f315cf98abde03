//! **A1 — ablations** of two implementation choices the paper leaves open:
//!
//! * the order in which the minimal-dominating-set reduction tries to drop
//!   candidates (forward / reverse / randomised) — every order is valid per
//!   the paper, but different minimal sets give different broadcast
//!   schedules, so the completion round can shift (while always respecting
//!   the 2n − 3 bound);
//! * the greedy vertex order used to colour G² for the baseline labeling —
//!   it changes χ(G²)'s greedy approximation and hence the baseline's label
//!   length.

use super::{sweep_rows, CORE, SOURCE};
use crate::report::{fmt_bool, Table};
use crate::ExperimentConfig;
use rn_broadcast::algo_b::BNode;
use rn_broadcast::verify;
use rn_graph::algorithms::coloring::ColoringOrder;
use rn_graph::algorithms::ReductionOrder;
use rn_labeling::{baselines, lambda};
use rn_radio::{Simulator, StopCondition};

const ORDERS: [(&str, ReductionOrder); 4] = [
    ("forward", ReductionOrder::Forward),
    ("reverse", ReductionOrder::Reverse),
    ("random(7)", ReductionOrder::Random(7)),
    ("random(99)", ReductionOrder::Random(99)),
];

const COLOR_ORDERS: [(&str, ColoringOrder); 3] = [
    ("natural", ColoringOrder::Natural),
    ("degree-desc", ColoringOrder::DegreeDescending),
    ("bfs", ColoringOrder::BfsFromZero),
];

/// Runs both ablations.
pub fn run(config: &ExperimentConfig) -> Vec<Table> {
    vec![reduction_order(config), coloring_order(config)]
}

fn broadcast_rounds_with_order(
    g: &rn_graph::Graph,
    source: usize,
    order: ReductionOrder,
) -> (Option<u64>, bool) {
    let scheme = lambda::construct_with_order(g, source, order).expect("connected workload");
    let nodes = BNode::network(scheme.labeling(), source, 7);
    let mut sim = Simulator::new(g.clone(), nodes);
    sim.run_until(
        StopCondition::QuietFor {
            quiet: 3,
            cap: 4 * g.node_count() as u64 + 16,
        },
        |_| false,
    );
    let informed = verify::first_payload_rounds(sim.trace(), g.node_count(), source, |m| {
        matches!(m, rn_broadcast::BMessage::Data(_))
    });
    let completion = verify::completion_round(&informed);
    let within = completion.is_some_and(|c| c <= 2 * g.node_count() as u64 - 3);
    (completion, within)
}

fn reduction_order(config: &ExperimentConfig) -> Table {
    let mut headers: Vec<String> = vec!["family".into(), "n".into()];
    for (name, _) in ORDERS {
        headers.push(format!("rounds ({name})"));
    }
    headers.push("all within 2n-3".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "A1a: dominating-set reduction order ablation (algorithm B completion round)",
        &header_refs,
    );
    sweep_rows(&mut table, &CORE, config, |i| {
        let mut row = vec![i.graph.node_count().to_string()];
        let mut all_within = true;
        for (_, order) in ORDERS {
            let (completion, within) = broadcast_rounds_with_order(&i.graph, SOURCE, order);
            row.push(completion.map_or("-".into(), |c| c.to_string()));
            all_within &= within;
        }
        row.push(fmt_bool(all_within));
        row
    });
    table.push_note("any minimal dominating subset is valid; the order only shifts the schedule");
    table
}

fn coloring_order(config: &ExperimentConfig) -> Table {
    let mut headers: Vec<String> = vec!["family".into(), "n".into()];
    for (name, _) in COLOR_ORDERS {
        headers.push(format!("colors ({name})"));
        headers.push(format!("bits ({name})"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "A1b: greedy colouring order ablation for the square-colouring baseline",
        &header_refs,
    );
    sweep_rows(&mut table, &CORE, config, |i| {
        let mut row = vec![i.graph.node_count().to_string()];
        for (_, order) in COLOR_ORDERS {
            let (labeling, k) =
                baselines::square_coloring_with_order(&i.graph, order).expect("connected workload");
            row.push(k.to_string());
            row.push(labeling.length().to_string());
        }
        row
    });
    table.push_note("fewer colours means shorter baseline labels; the greedy order matters, the paper's schemes are unaffected");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_order_always_within_bound() {
        let cfg = ExperimentConfig {
            sizes: vec![10, 18],
            seeds: vec![1],
            threads: 1,
        };
        let tables = run(&cfg);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].render().contains("NO"));
    }

    #[test]
    fn coloring_table_has_all_orders() {
        let cfg = ExperimentConfig {
            sizes: vec![12],
            seeds: vec![1],
            threads: 1,
        };
        let tables = run(&cfg);
        assert!(tables[1].headers.len() == 2 + 2 * COLOR_ORDERS.len());
    }
}
