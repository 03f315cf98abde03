//! One module per paper experiment: this table is the experiment index.
//!
//! | id  | module                | reproduces                                             |
//! |-----|-----------------------|--------------------------------------------------------|
//! | E1  | [`fig1`]              | Figure 1: a worked execution of algorithm B            |
//! | E2  | [`broadcast_time`]    | Theorem 2.9: broadcast within 2n − 3 rounds            |
//! | E3  | [`ack_time`]          | Theorem 3.9: acknowledgement within n − 2 extra rounds |
//! | E4  | [`label_length`]      | §1.1 label-length / message-size comparison            |
//! | E5  | [`arbitrary_source`]  | §4: the unknown-source three-phase algorithm           |
//! | E6  | [`onebit`]            | §5: 1-bit schemes on special graph classes             |
//! | E7  | [`impossibility`]     | §1.1: impossibility on the unlabeled four-cycle        |
//! | E8  | [`scheme_cost`]       | labeling-scheme construction cost                      |
//! | E9  | [`baseline_comparison`] | λ vs round-robin vs square-colouring broadcast time |
//! | E10 | [`common_round`]      | §3: the common completion round                        |
//! | A1  | [`ablation`]          | dominating-set reduction order / colouring order       |
//!
//! The sweep-based tables draw their instances from the
//! [`TopologyFamily`] registry through the same (family × size × seed)
//! fan-out as the scenario sweeps ([`scenario::fan_out`]), over the
//! [`FAMILIES`] list (or its [`CORE`] subset for the heavier tables), and
//! broadcast from [`SOURCE`].

pub mod ablation;
pub mod ack_time;
pub mod arbitrary_source;
pub mod baseline_comparison;
pub mod broadcast_time;
pub mod common_round;
pub mod fig1;
pub mod impossibility;
pub mod label_length;
pub mod onebit;
pub mod scheme_cost;

use crate::scenario::{self, Instance};
use crate::{ExperimentConfig, Table};
use rn_graph::generators::TopologyFamily;
use rn_graph::NodeId;

/// Every family the paper tables sweep, as `(family column label,
/// registry family)`, in presentation order.
pub const FAMILIES: [(&str, TopologyFamily); 13] = [
    ("path", TopologyFamily::Path),
    ("cycle", TopologyFamily::Cycle),
    ("star", TopologyFamily::Star),
    ("complete", TopologyFamily::Complete),
    ("grid", TopologyFamily::Grid),
    ("hypercube", TopologyFamily::Hypercube),
    ("random_tree", TopologyFamily::RandomTree),
    (
        "gnp_sparse",
        TopologyFamily::GnpAvgDegree { avg_degree: 10.0 },
    ),
    ("gnp_dense", TopologyFamily::Gnp { p: 0.3 }),
    ("series_parallel", TopologyFamily::SeriesParallel),
    ("barbell", TopologyFamily::Barbell),
    ("caterpillar", TopologyFamily::Caterpillar { legs: 2 }),
    ("unit_disk", TopologyFamily::UnitDisk { avg_degree: 8.0 }),
];

/// A compact subset of [`FAMILIES`] that still covers the qualitative
/// regimes, for the heavier tables.
pub const CORE: [(&str, TopologyFamily); 6] = [
    FAMILIES[0],
    FAMILIES[1],
    FAMILIES[4],
    FAMILIES[6],
    FAMILIES[7],
    FAMILIES[10],
];

/// The broadcast source of every single-source table: node 0, which every
/// registry family builds as its natural hard case (the path end, the grid
/// corner, a clique node of the barbell).
pub const SOURCE: NodeId = 0;

/// Appends one row to `table` per instance of `config`'s grid over
/// `families`, in job order: the family label, then the cells `row`
/// measures on the instance.
///
/// # Panics
/// Panics if an instance fails to generate (a size below 4).
fn sweep_rows(
    table: &mut Table,
    families: &[(&'static str, TopologyFamily)],
    config: &ExperimentConfig,
    row: impl Fn(Instance) -> Vec<String> + Sync,
) {
    let registry: Vec<TopologyFamily> = families.iter().map(|&(_, f)| f).collect();
    let per_family = config.sizes.len() * config.seeds.len();
    let rows = scenario::fan_out(
        &registry,
        &config.sizes,
        &config.seeds,
        config.threads,
        None,
        row,
    );
    for (job, cells) in rows.into_iter().enumerate() {
        let cells = cells.unwrap_or_else(|e| panic!("{e}"));
        let label = families[job / per_family].0.to_string();
        table.push_row(std::iter::once(label).chain(cells).collect());
    }
}

/// Identifier and human name of each experiment, for the `repro` binary.
pub const EXPERIMENT_IDS: [(&str, &str); 11] = [
    ("e1", "Figure 1 worked execution"),
    ("e2", "Theorem 2.9 broadcast time"),
    ("e3", "Theorem 3.9 acknowledgement time"),
    ("e4", "label length and message size comparison"),
    ("e5", "arbitrary-source broadcast"),
    ("e6", "one-bit schemes on special classes"),
    ("e7", "impossibility on the unlabeled four-cycle"),
    ("e8", "labeling-scheme construction cost"),
    ("e9", "baseline comparison"),
    ("e10", "common completion round"),
    ("a1", "ablations"),
];

/// Runs a single experiment by id, returning its tables.
pub fn run_by_id(id: &str, config: &ExperimentConfig) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(vec![fig1::run()]),
        "e2" => Some(vec![broadcast_time::run(config)]),
        "e3" => Some(vec![ack_time::run(config)]),
        "e4" => Some(vec![label_length::run(config)]),
        "e5" => Some(vec![arbitrary_source::run(config)]),
        "e6" => Some(onebit::run(config)),
        "e7" => Some(vec![impossibility::run()]),
        "e8" => Some(vec![scheme_cost::run(config)]),
        "e9" => Some(vec![baseline_comparison::run(config)]),
        "e10" => Some(vec![common_round::run(config)]),
        "a1" => Some(ablation::run(config)),
        _ => None,
    }
}

/// Runs every experiment, returning all tables in index order.
pub fn run_all(config: &ExperimentConfig) -> Vec<Table> {
    EXPERIMENT_IDS
        .iter()
        .flat_map(|(id, _)| run_by_id(id, config).expect("known id"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_labels_are_distinct_and_resolve() {
        let mut labels: Vec<&str> = FAMILIES.iter().map(|&(l, _)| l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FAMILIES.len());
        for entry in CORE {
            assert!(FAMILIES.contains(&entry));
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("nope", &ExperimentConfig::small()).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        let cfg = ExperimentConfig {
            sizes: vec![8],
            seeds: vec![1],
            threads: 1,
        };
        for (id, _) in EXPERIMENT_IDS {
            assert!(run_by_id(id, &cfg).is_some(), "{id}");
        }
    }
}
