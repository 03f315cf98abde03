//! Exhaustive bounded model checking for the labeling-scheme broadcast
//! stack: the fourth verification layer, above the trace oracles, the
//! static analyzer and the per-test engine differentials.
//!
//! The checker enumerates **every** non-isomorphic connected graph up to a
//! bound (plus every free tree up to a larger bound — trees are the
//! paper's hard instances and enumerate far more cheaply), runs **every**
//! general-graph scheme on each, and demands on every point:
//!
//! * both engines agree, traced and untraced (the untraced leg
//!   exercises the event-driven engine's silent-round elision);
//! * the recorded trace obeys radio physics (a reception has exactly one
//!   transmitting neighbour; a collision at least two; silence none);
//! * informed-set growth is explained by receptions — no node becomes
//!   informed in a round it heard nothing;
//! * collection-phase schedules are gap- and collision-free exactly as the
//!   plan promises;
//! * execution respects the session's resolved round cap;
//! * the static analyzer certifies the labeling and its certificate
//!   cross-checks against the simulated run;
//! * the wake-hint contract holds at every reachable state, on every
//!   engine (clone-and-replay, bit-exact via `state_digest`).
//!
//! Failures shrink to a [`MinimalWitness`]: the smallest graph and fault
//! plan this checker could reach that still breaks the same invariant,
//! with DOT rendering and a one-line repro command.
//!
//! Seeded-defect modes ([`check_corrupted_point`],
//! [`check_overpromise_point`]) verify the checker itself catches planted
//! bugs — label corruption and wake-hint overpromise — and shrinks them to
//! located witnesses.

mod inject;
mod point;
mod shrink;
mod violation;

pub use inject::{check_corrupted_point, check_overpromise_point, corrupt_labeling, BadHintNode};
pub use point::{check_point, PointAudit, ENGINES};
pub use shrink::{parse_repro, repro_spec, shrink_witness, MinimalWitness, ReproMode, ReproPoint};
pub use violation::{Violation, ViolationKind};

use rn_broadcast::session::Scheme;
use rn_graph::enumerate::{connected_graphs, free_trees, MAX_GRAPH_N, MAX_TREE_N};
use rn_graph::Graph;
use rn_radio::{FaultPlan, WakeHintAudit};
use std::sync::Arc;

/// What [`run_check`] sweeps: the enumeration bounds, the scheme set, and
/// whether failing points are shrunk.
#[derive(Debug, Clone)]
pub struct ModelCheckConfig {
    /// Check every non-isomorphic connected graph with up to this many
    /// nodes (capped at [`MAX_GRAPH_N`]).
    pub max_n: usize,
    /// Additionally check every free tree with `max_n + 1 ..= trees_max_n`
    /// nodes (capped at [`MAX_TREE_N`]; trees below `max_n` are already
    /// covered by the full enumeration).
    pub trees_max_n: usize,
    /// The schemes to check on every graph.
    pub schemes: Vec<Scheme>,
    /// Whether to minimise failing points before reporting them.
    pub shrink: bool,
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        ModelCheckConfig {
            max_n: 7,
            trees_max_n: MAX_TREE_N,
            schemes: Scheme::GENERAL.to_vec(),
            shrink: true,
        }
    }
}

impl ModelCheckConfig {
    /// The quick profile: small enough for a dev-profile CI lane while
    /// still covering every shape class (cycles, cliques, stars, paths all
    /// first appear by n = 4).
    pub fn quick() -> Self {
        ModelCheckConfig {
            max_n: 4,
            trees_max_n: 6,
            ..ModelCheckConfig::default()
        }
    }

    /// Every graph this configuration sweeps, in deterministic order:
    /// the full connected enumeration up to `max_n`, then the tree-only
    /// extension.
    pub fn graphs(&self) -> Vec<Graph> {
        let max_n = self.max_n.min(MAX_GRAPH_N);
        let trees_max_n = self.trees_max_n.min(MAX_TREE_N);
        let mut graphs = Vec::new();
        for n in 1..=max_n {
            graphs.extend(connected_graphs(n));
        }
        for n in (max_n + 1)..=trees_max_n {
            graphs.extend(free_trees(n));
        }
        graphs
    }
}

/// The outcome of a sweep: coverage counters plus every (shrunk) witness.
#[derive(Debug, Default)]
pub struct ModelCheckReport {
    /// Distinct graphs swept.
    pub graphs_checked: usize,
    /// (graph, scheme) points checked.
    pub points_checked: usize,
    /// Aggregated wake-hint audit counters over every clean point.
    pub wake: WakeHintAudit,
    /// Every violation found, shrunk when the config asked for it.
    pub witnesses: Vec<MinimalWitness>,
}

impl ModelCheckReport {
    /// Whether the sweep found no violations.
    pub fn ok(&self) -> bool {
        self.witnesses.is_empty()
    }
}

fn absorb_wake(into: &mut WakeHintAudit, audit: &WakeHintAudit) {
    into.states_checked += audit.states_checked;
    into.hints_audited += audit.hints_audited;
    into.steps_replayed += audit.steps_replayed;
}

fn witness_for(
    graph: &Arc<Graph>,
    violation: Violation,
    mode: ReproMode,
    shrink: bool,
    check: impl Fn(&Arc<Graph>, &FaultPlan) -> Option<Violation>,
) -> MinimalWitness {
    if shrink {
        shrink_witness(Arc::clone(graph), FaultPlan::none(), violation, mode, check)
    } else {
        MinimalWitness {
            graph: Arc::clone(graph),
            faults: FaultPlan::none(),
            violation,
            mode,
            shrink_steps: 0,
        }
    }
}

/// Runs the full invariant sweep described by `config`: every enumerated
/// graph × every configured scheme through [`check_point`], shrinking any
/// violation to a minimal witness.
pub fn run_check(config: &ModelCheckConfig) -> ModelCheckReport {
    let mut report = ModelCheckReport::default();
    for graph in config.graphs() {
        let graph = Arc::new(graph);
        report.graphs_checked += 1;
        for &scheme in &config.schemes {
            report.points_checked += 1;
            match check_point(&graph, scheme, &FaultPlan::none()) {
                Ok(audit) => absorb_wake(&mut report.wake, &audit.wake),
                Err(violation) => report.witnesses.push(witness_for(
                    &graph,
                    violation,
                    ReproMode::Check,
                    config.shrink,
                    |g, f| check_point(g, scheme, f).err(),
                )),
            }
        }
    }
    report
}

/// Runs the label-corruption injection sweep: every point gets one
/// deterministically damaged label, and every damaged point **must**
/// produce a located certification violation. The returned witnesses are
/// the expected outcome — an *empty* report means the checker failed to
/// catch the planted defects.
pub fn run_corrupt_injection(config: &ModelCheckConfig) -> ModelCheckReport {
    let mut report = ModelCheckReport::default();
    for graph in config.graphs() {
        let graph = Arc::new(graph);
        report.graphs_checked += 1;
        if graph.node_count() < 2 {
            continue;
        }
        for &scheme in &config.schemes {
            report.points_checked += 1;
            if let Some(violation) = check_corrupted_point(&graph, scheme) {
                report.witnesses.push(witness_for(
                    &graph,
                    violation,
                    ReproMode::Corrupt,
                    config.shrink,
                    |g, _| check_corrupted_point(g, scheme),
                ));
            }
        }
    }
    report
}

/// Runs the wake-hint overpromise injection sweep: the deliberately
/// dishonest [`BadHintNode`] protocol on every enumerated graph, under
/// every engine. As with [`run_corrupt_injection`], witnesses are the
/// expected outcome on every graph with at least one edge.
pub fn run_overpromise_injection(config: &ModelCheckConfig) -> ModelCheckReport {
    let mut report = ModelCheckReport::default();
    for graph in config.graphs() {
        let graph = Arc::new(graph);
        report.graphs_checked += 1;
        report.points_checked += 1;
        if let Some(violation) = check_overpromise_point(&graph) {
            report.witnesses.push(witness_for(
                &graph,
                violation,
                ReproMode::Overpromise,
                config.shrink,
                |g, _| check_overpromise_point(g),
            ));
        }
    }
    report
}

/// Replays one parsed repro point through the checker that produced it.
/// Returns the violation it reproduces, or `None` if the point now passes.
pub fn replay(point: &ReproPoint) -> Option<Violation> {
    let graph = Arc::new(point.graph.clone());
    match point.mode {
        ReproMode::Check => {
            let scheme = point.scheme.expect("check-mode spec carries a scheme");
            check_point(&graph, scheme, &point.faults).err()
        }
        ReproMode::Corrupt => {
            let scheme = point.scheme.expect("corrupt-mode spec carries a scheme");
            check_corrupted_point(&graph, scheme)
        }
        ReproMode::Overpromise => check_overpromise_point(&graph),
    }
}
