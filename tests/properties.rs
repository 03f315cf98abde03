//! Property-based tests (proptest) on randomly generated connected radio
//! networks: the paper's guarantees must hold for *every* graph, so we let
//! proptest hunt for counterexamples.

use proptest::prelude::*;
use radio_labeling::broadcast::session::{RunReport, Scheme, Session};
use radio_labeling::broadcast::verify;
use radio_labeling::graph::{algorithms, generators, Graph};
use radio_labeling::labeling::{lambda, lambda_ack, lambda_arb, SequenceConstruction};

/// Builds a single-use session and runs it once.
fn run_once(scheme: Scheme, g: Graph, source: usize, message: u64) -> RunReport {
    Session::builder(scheme, g)
        .source(source)
        .message(message)
        .build()
        .unwrap()
        .run()
}

/// Strategy: a random connected graph of 2..=48 nodes (mixing trees, sparse
/// and dense G(n, p) samples) plus a valid source index.
fn connected_graph_and_source() -> impl Strategy<Value = (Graph, usize)> {
    (2usize..=48, any::<u64>(), 0usize..3).prop_flat_map(|(n, seed, kind)| {
        let g = match kind {
            0 => generators::random_tree(n, seed),
            1 => generators::gnp_connected(n, 0.12, seed).expect("valid parameters"),
            _ => generators::gnp_connected(n, 0.4, seed).expect("valid parameters"),
        };
        let n = g.node_count();
        (Just(g), 0..n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn broadcast_always_completes_within_2n_minus_3((g, source) in connected_graph_and_source()) {
        let n = g.node_count();
        let result = run_once(Scheme::Lambda, g, source, 7);
        prop_assert!(result.completed());
        prop_assert!(verify::check_theorem_2_9(result.completion_round, n).is_ok());
    }

    #[test]
    fn acknowledgement_always_arrives_in_window((g, source) in connected_graph_and_source()) {
        let n = g.node_count();
        let result = run_once(Scheme::LambdaAck, g, source, 7);
        prop_assert!(verify::check_theorem_3_9(
            result.completion_round,
            result.ack_round,
            n
        )
        .is_ok());
    }

    #[test]
    fn labels_stay_constant_length_and_few((g, source) in connected_graph_and_source()) {
        let l = lambda::construct(&g, source).unwrap();
        prop_assert_eq!(l.labeling().length(), 2);
        prop_assert!(l.labeling().distinct_count() <= 4);

        let la = lambda_ack::construct(&g, source).unwrap();
        prop_assert_eq!(la.labeling().length(), 3);
        prop_assert!(la.labeling().distinct_count() <= 5);
        for forbidden in lambda_ack::forbidden_labels() {
            prop_assert!(la.labeling().nodes_with_label(forbidden).is_empty());
        }

        let lb = lambda_arb::construct(&g).unwrap();
        prop_assert_eq!(lb.labeling().length(), 3);
        prop_assert!(lb.labeling().distinct_count() <= 6);
    }

    #[test]
    fn sequence_construction_invariants(
        (g, source) in connected_graph_and_source(),
        seed in any::<u64>(),
    ) {
        let n = g.node_count();
        for order in [
            algorithms::ReductionOrder::Forward,
            algorithms::ReductionOrder::Reverse,
            algorithms::ReductionOrder::Random(seed),
        ] {
            let c = SequenceConstruction::build(&g, source, order).unwrap();
            // Lemma 2.6: ell <= n.
            prop_assert!(c.ell() <= n);
            // INF_i = {source} ∪ NEW_{<i} (Fact 2.2), tracked stage by stage.
            let mut informed = vec![false; n];
            informed[source] = true;
            for stage in c.stages() {
                // FRONTIER_i = UNINF_i ∩ Γ(INF_i), by definition.
                let inf: Vec<usize> = (0..n).filter(|&v| informed[v]).collect();
                let gamma = algorithms::neighborhood_of_set(&g, &inf);
                let expected: Vec<usize> = gamma.into_iter().filter(|&v| !informed[v]).collect();
                prop_assert_eq!(&stage.frontier, &expected, "{:?} stage {}", order, stage.index);
                // Fact 2.1: NEW ⊆ FRONTIER ⊆ UNINF.
                for v in &stage.new {
                    prop_assert!(stage.frontier.contains(v));
                }
                for &v in &stage.frontier {
                    prop_assert!(!informed[v]);
                }
                // DOM_i dominates FRONTIER_i minimally.
                if !stage.frontier.is_empty() {
                    prop_assert!(algorithms::is_minimal_dominating_set(
                        &g,
                        &stage.dom,
                        &stage.frontier
                    ));
                }
                // Corollary 2.7: the NEW sets partition V \ {source}.
                for &v in &stage.new {
                    prop_assert!(!informed[v], "node {} in two NEW sets", v);
                    informed[v] = true;
                }
            }
            prop_assert!(informed.iter().all(|&i| i));
            prop_assert_eq!(c.stages().iter().map(|s| s.new.len()).sum::<usize>(), n - 1);
        }
    }

    #[test]
    fn no_node_transmits_before_being_informed((g, source) in connected_graph_and_source()) {
        // Physical sanity: in the trace of algorithm B, any node that
        // transmits µ either is the source or has already received µ.
        let dist = algorithms::bfs_distances(&g, source);
        let result = run_once(Scheme::Lambda, g.clone(), source, 7);
        for v in g.nodes() {
            if v == source {
                continue;
            }
            let informed = result.informed_rounds[v];
            prop_assert!(informed.is_some());
            // A node informed in round r is at BFS distance <= (r+1)/2 from
            // the source: information travels at most one hop per odd round.
            let d = dist[v].unwrap() as u64;
            prop_assert!(informed.unwrap() >= d);
        }
    }

    #[test]
    fn arbitrary_source_completes_for_random_source((g, source) in connected_graph_and_source()) {
        // Keep instances small: B_arb runs three phases.
        prop_assume!(g.node_count() <= 24);
        let session = Session::builder(Scheme::LambdaArb, g).coordinator(0).build().unwrap();
        let r = session
            .run_with(radio_labeling::broadcast::session::RunSpec::new(source, 7))
            .unwrap();
        prop_assert!(r.completion_round.is_some());
        prop_assert!(r.common_knowledge_round.is_some());
        prop_assert!(r.common_knowledge_round >= r.completion_round);
    }

    #[test]
    fn baselines_complete_on_random_graphs((g, source) in connected_graph_and_source()) {
        prop_assume!(g.node_count() <= 32);
        let g = std::sync::Arc::new(g);
        let ids = Session::builder(Scheme::UniqueIds, std::sync::Arc::clone(&g))
            .source(source)
            .message(7)
            .build()
            .unwrap()
            .run();
        prop_assert!(ids.completed());
        let colors = Session::builder(Scheme::SquareColoring, g)
            .source(source)
            .message(7)
            .build()
            .unwrap()
            .run();
        prop_assert!(colors.completed());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_generators_produce_connected_simple_graphs(
        n in 2usize..120,
        seed in any::<u64>(),
        p in 0.0f64..1.0,
    ) {
        let g = generators::gnp_connected(n, p, seed).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(algorithms::is_connected(&g));
        // simple graph: no self loops, no duplicate edges (by construction the
        // edge iterator yields each pair once with u < v).
        for (u, v) in g.edges() {
            prop_assert!(u < v);
        }

        let t = generators::random_tree(n, seed);
        prop_assert!(algorithms::is_tree(&t));
    }

    #[test]
    fn square_coloring_separates_close_nodes(n in 4usize..40, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, 0.15, seed).unwrap();
        let (coloring, k) = algorithms::square_graph_coloring(
            &g,
            algorithms::coloring::ColoringOrder::DegreeDescending,
        );
        prop_assert!(k >= 1);
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            for (i, &a) in nbrs.iter().enumerate() {
                prop_assert!(coloring[a] != coloring[v]);
                for &b in &nbrs[i + 1..] {
                    prop_assert!(coloring[a] != coloring[b]);
                }
            }
        }
    }

    #[test]
    fn minimal_dominating_subset_is_minimal(n in 4usize..40, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, 0.2, seed).unwrap();
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = g.nodes().collect();
        let sub = algorithms::minimal_dominating_subset(
            &g,
            &candidates,
            &targets,
            algorithms::ReductionOrder::Forward,
        )
        .unwrap();
        prop_assert!(algorithms::is_minimal_dominating_set(&g, &sub, &targets));
    }
}

/// Strategy for the digest-contract tests: a small random connected graph
/// (the digest history records every node every round, so keep n modest)
/// plus a source index.
fn small_graph_and_source() -> impl Strategy<Value = (Graph, usize)> {
    (2usize..=10, any::<u64>(), 0usize..2).prop_flat_map(|(n, seed, kind)| {
        let g = match kind {
            0 => generators::random_tree(n, seed),
            _ => generators::gnp_connected(n, 0.35, seed).expect("valid parameters"),
        };
        let n = g.node_count();
        (Just(g), 0..n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `state_digest` contract, over every general scheme: the digest
    /// history of a run is identical when recomputed from nodes built afresh
    /// from the session's plan (deterministic across reruns),
    /// and the round that informs a node changes that node's digest — the
    /// informed transition is never digest-invisible.
    #[test]
    fn state_digests_are_deterministic_and_see_the_informed_transition(
        (g, source) in small_graph_and_source()
    ) {
        for scheme in Scheme::GENERAL {
            let mut builder = Session::builder(scheme, g.clone());
            if matches!(
                scheme,
                Scheme::Lambda | Scheme::LambdaAck | Scheme::LambdaArb
                    | Scheme::UniqueIds | Scheme::SquareColoring
            ) {
                builder = builder.source(source);
            }
            let session = builder.build().unwrap();
            let report = session.run();
            let rounds = report.rounds_executed;
            let history = session.state_digest_history(rounds);
            prop_assert_eq!(history.len() as u64, rounds + 1);
            // Recomputing from freshly built nodes reproduces every digest
            // of every node at every reachable state.
            let rerun = session.state_digest_history(rounds);
            prop_assert_eq!(&history, &rerun, "{} digests drifted across reruns", scheme.name());
            // Every protocol node type implements the digest hook (0 is the
            // default opt-out and would silence the drift checks).
            for (r, row) in history.iter().enumerate() {
                for (v, &d) in row.iter().enumerate() {
                    prop_assert!(d != 0, "{}: node {v} after round {r} digests to 0", scheme.name());
                }
            }
            // The informing round is digest-visible.
            for (v, informed) in report.informed_rounds.iter().enumerate() {
                if let Some(r) = *informed {
                    if r >= 1 {
                        let r = r as usize;
                        prop_assert!(
                            history[r][v] != history[r - 1][v],
                            "{}: node {v} informed in round {r} without a digest change",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }
}
