//! End-to-end integration tests spanning every crate: generate a workload
//! graph, label it, simulate the universal algorithm, and verify the paper's
//! guarantees against the omniscient oracles.

use radio_labeling::broadcast::algo_b::BNode;
use radio_labeling::broadcast::common_round::run_common_round;
use radio_labeling::broadcast::session::{RunReport, RunSpec, Scheme, Session};
use radio_labeling::broadcast::verify;
use radio_labeling::graph::{algorithms, generators, Graph};
use radio_labeling::labeling::{lambda, lambda_ack, lambda_arb};
use radio_labeling::radio::{Simulator, StopCondition};

/// Builds a single-use session and runs it, for workloads that are only
/// exercised once.
fn run_once(scheme: Scheme, g: Graph, source: usize, message: u64) -> RunReport {
    Session::builder(scheme, g)
        .source(source)
        .message(message)
        .build()
        .unwrap()
        .run()
}

/// The workload menagerie used by the end-to-end checks.
fn workloads() -> Vec<(&'static str, Graph, usize)> {
    vec![
        ("path-16", generators::path(16), 0),
        ("path-16-mid-source", generators::path(16), 8),
        ("cycle-17", generators::cycle(17), 5),
        ("cycle-16", generators::cycle(16), 0),
        ("star-20", generators::star(20), 0),
        ("star-20-leaf-source", generators::star(20), 7),
        ("complete-12", generators::complete(12), 3),
        ("grid-5x6", generators::grid(5, 6), 11),
        ("hypercube-5", generators::hypercube(5), 0),
        ("wheel-14", generators::wheel(14), 1),
        ("binary-tree-31", generators::balanced_binary_tree(31), 0),
        ("random-tree-40", generators::random_tree(40, 11), 13),
        ("caterpillar", generators::caterpillar(8, 2), 2),
        ("spider", generators::spider(4, 5), 0),
        ("barbell", generators::barbell(7, 3), 0),
        ("lollipop", generators::lollipop(8, 8), 15),
        ("theta", generators::theta(4, 3).unwrap(), 0),
        (
            "series-parallel",
            generators::series_parallel(35, 3).unwrap(),
            4,
        ),
        (
            "gnp-sparse",
            generators::gnp_connected(45, 0.07, 5).unwrap(),
            9,
        ),
        (
            "gnp-dense",
            generators::gnp_connected(30, 0.4, 6).unwrap(),
            0,
        ),
        (
            "bipartite",
            generators::random_bipartite_connected(12, 15, 0.2, 7).unwrap(),
            0,
        ),
        (
            "regularish",
            generators::random_regularish(36, 5, 8).unwrap(),
            17,
        ),
    ]
}

#[test]
fn theorem_2_9_broadcast_bound_holds_everywhere() {
    for (name, g, source) in workloads() {
        let n = g.node_count();
        let result = run_once(Scheme::Lambda, g, source, 99);
        assert!(
            result.completed(),
            "{name}: broadcast did not complete within the cap"
        );
        verify::check_theorem_2_9(result.completion_round, n)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Every informed round is odd (Lemma 2.8: new nodes are informed in
        // rounds 2i-1), except the source's 0.
        for (v, round) in result.informed_rounds.iter().enumerate() {
            let r = round.unwrap();
            if v != source {
                assert_eq!(r % 2, 1, "{name}: node {v} informed in even round {r}");
            }
        }
    }
}

#[test]
fn theorem_3_9_acknowledgement_window_holds_everywhere() {
    for (name, g, source) in workloads() {
        let n = g.node_count();
        let result = run_once(Scheme::LambdaAck, g, source, 7);
        verify::check_theorem_3_9(result.completion_round, result.ack_round, n)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn lemma_2_8_characterisation_holds_everywhere() {
    for (name, g, source) in workloads() {
        let scheme = lambda::construct(&g, source).unwrap();
        let nodes = BNode::network(scheme.labeling(), source, 5);
        let mut sim = Simulator::new(g.clone(), nodes);
        sim.run_until(
            StopCondition::QuietFor {
                quiet: 3,
                cap: 4 * g.node_count() as u64 + 16,
            },
            |_| false,
        );
        verify::check_lemma_2_8(sim.trace(), scheme.construction(), scheme.labeling())
            .unwrap_or_else(|e| panic!("{name}: Lemma 2.8 violated: {e}"));
    }
}

#[test]
fn scheme_lengths_and_distinct_label_counts_match_the_paper() {
    for (name, g, source) in workloads() {
        let l = lambda::construct(&g, source).unwrap();
        assert_eq!(l.labeling().length(), 2, "{name}");
        assert!(l.labeling().distinct_count() <= 4, "{name}");

        let la = lambda_ack::construct(&g, source).unwrap();
        assert_eq!(la.labeling().length(), 3, "{name}");
        assert!(la.labeling().distinct_count() <= 5, "{name}");
        for forbidden in lambda_ack::forbidden_labels() {
            assert!(
                la.labeling().nodes_with_label(forbidden).is_empty(),
                "{name}: Fact 3.1 violated"
            );
        }

        let lb = lambda_arb::construct(&g).unwrap();
        assert_eq!(lb.labeling().length(), 3, "{name}");
        assert!(lb.labeling().distinct_count() <= 6, "{name}");
    }
}

#[test]
fn arbitrary_source_algorithm_works_from_every_corner() {
    // Smaller sweep (B_arb is the slowest algorithm) but exhaustive over
    // source positions.
    let cases = vec![
        ("cycle-9", generators::cycle(9)),
        ("grid-3x4", generators::grid(3, 4)),
        ("random-tree-14", generators::random_tree(14, 4)),
        ("gnp-14", generators::gnp_connected(14, 0.25, 3).unwrap()),
    ];
    for (name, g) in cases {
        // One session per graph: the source-independent lambda_arb labeling
        // is constructed once and shared by every source position, and the
        // independent runs fan out over worker threads.
        let session = Session::builder(Scheme::LambdaArb, g)
            .coordinator(0)
            .build()
            .unwrap();
        let specs: Vec<RunSpec> = (0..session.graph().node_count())
            .map(|source| RunSpec::new(source, 1234))
            .collect();
        for r in session.run_batch(&specs, 4).unwrap() {
            assert!(
                r.completion_round.is_some(),
                "{name}: source {} failed to broadcast",
                r.source
            );
            assert!(
                r.common_knowledge_round.is_some(),
                "{name}: source {} failed to reach common knowledge",
                r.source
            );
        }
    }
}

#[test]
fn common_round_construction_holds_everywhere() {
    for (name, g, source) in workloads() {
        if g.node_count() < 3 {
            continue;
        }
        let r = run_common_round(&g, source, 5).unwrap();
        assert!(r.claim_holds, "{name}: common-round claim failed: {r:?}");
    }
}

#[test]
fn baselines_also_complete_but_with_longer_labels() {
    for (name, g, source) in workloads().into_iter().take(10) {
        let g = std::sync::Arc::new(g);
        let run = |scheme| {
            Session::builder(scheme, std::sync::Arc::clone(&g))
                .source(source)
                .message(5)
                .build()
                .unwrap()
                .run()
        };
        let lambda_result = run(Scheme::Lambda);
        let id_result = run(Scheme::UniqueIds);
        let color_result = run(Scheme::SquareColoring);
        assert!(id_result.completed(), "{name}: id baseline failed");
        assert!(color_result.completed(), "{name}: coloring baseline failed");
        assert!(
            id_result.label_length >= lambda_result.label_length,
            "{name}: ids should need at least as many bits"
        );
    }
}

#[test]
fn disconnected_graphs_are_rejected_up_front() {
    let disconnected = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
    assert!(lambda::construct(&disconnected, 0).is_err());
    assert!(lambda_ack::construct(&disconnected, 0).is_err());
    assert!(lambda_arb::construct(&disconnected).is_err());
    assert!(Session::builder(Scheme::Lambda, disconnected)
        .build()
        .is_err());
}

#[test]
fn informed_wavefront_respects_bfs_distance() {
    // A node at BFS distance d cannot be informed before round 2d - 1... but
    // it is informed no earlier than round d (each round informs at most one
    // more BFS layer). This is a physical sanity check on the simulator.
    for (name, g, source) in workloads() {
        let dist = algorithms::bfs_distances(&g, source);
        let nodes: Vec<usize> = g.nodes().collect();
        let result = run_once(Scheme::Lambda, g, source, 5);
        for v in nodes {
            if v == source {
                continue;
            }
            let informed = result.informed_rounds[v].unwrap();
            let d = dist[v].unwrap() as u64;
            assert!(
                informed >= d,
                "{name}: node {v} informed in round {informed} but is at distance {d}"
            );
        }
    }
}
