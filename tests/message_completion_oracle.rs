//! Oracle for the per-message accounting of multi-message sessions.
//!
//! A session dates each message of a gossip or multi-broadcast run from
//! node state, through the harness's per-message holder counts. Comparing
//! one engine with another cannot check that: the harness is shared by
//! both. This suite replays each run's recorded trace instead, on a bare
//! reference-engine simulator with the same nodes and fault plan, and
//! asserts that the report's `message_completion_rounds` and
//! `informed_rounds` equal what `verify` reads off that trace.
//!
//! Runs: gossip and `multi_lambda:8`, on every `TopologyFamily::PRESETS`
//! entry at n = 48, with no faults, with a crash and a jam, and with a late
//! wake, on both engines.

use radio_labeling::broadcast::multi::MultiNode;
use radio_labeling::broadcast::session::{RunReport, Scheme, Session};
use radio_labeling::broadcast::verify;
use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::graph::Graph;
use radio_labeling::labeling::multi::MultiLambdaScheme;
use radio_labeling::labeling::{gossip, multi};
use radio_labeling::radio::{Engine, FaultPlan, Simulator};
use std::sync::Arc;

const MESSAGE: u64 = 400;

/// The fault plans every run is checked under, for an n-node graph.
fn plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("no faults", FaultPlan::none()),
        (
            "crash + jam",
            FaultPlan::none().crash(n / 3, 6).jam(n / 2, 3, 5),
        ),
        (
            "late wake",
            FaultPlan::none().late_wake(n - 1, 9).late_wake(n / 4, 40),
        ),
    ]
}

/// The scheme a session built its nodes from, rebuilt with the session's
/// own sources and coordinator.
fn rebuilt_scheme(session: &Session, graph: &Graph) -> MultiLambdaScheme {
    let scheme = match session.scheme() {
        Scheme::Gossip => gossip::construct_with_coordinator(graph, session.coordinator()),
        _ => multi::construct_with_coordinator(graph, session.sources(), session.coordinator()),
    }
    .expect("the session built the same scheme");
    assert_eq!(Some(scheme.plan()), session.collection_plan());
    scheme
}

/// Replays `report`'s run on a bare reference-engine simulator and checks
/// the report's per-message and per-node rounds against the trace.
fn check_against_trace(label: &str, session: &Session, graph: &Arc<Graph>, report: &RunReport) {
    let scheme = rebuilt_scheme(session, graph);
    let payloads: Vec<u64> = (0..scheme.k() as u64)
        .map(|j| MESSAGE.wrapping_add(j))
        .collect();
    let mut sim = Simulator::new(Arc::clone(graph), MultiNode::network(&scheme, &payloads))
        .with_engine(Engine::ListenerCentric)
        .with_faults(session.faults());
    sim.run_rounds(report.rounds_executed);
    let n = graph.node_count();
    let sources = session.sources();
    assert_eq!(
        report.message_completion_rounds.as_deref(),
        Some(&verify::message_completion_rounds(sim.trace(), n, sources)[..]),
        "{label}: message_completion_rounds"
    );
    assert_eq!(
        report.informed_rounds,
        verify::holds_all_rounds(sim.trace(), n, sources),
        "{label}: informed_rounds"
    );
}

#[test]
fn message_completion_rounds_match_the_trace_replay() {
    let mut incomplete = 0;
    for family in TopologyFamily::PRESETS {
        let graph = Arc::new(family.generate(48, 1).expect("presets generate"));
        let n = graph.node_count();
        for scheme in [Scheme::Gossip, Scheme::MultiLambda { k: 8 }] {
            for (plan_name, plan) in plans(n) {
                for engine in [Engine::ListenerCentric, Engine::EventDriven] {
                    let label =
                        format!("{}/{}/{plan_name}/{engine:?}", family.name(), scheme.name());
                    let session = Session::builder(scheme, Arc::clone(&graph))
                        .message(MESSAGE)
                        .faults(plan.clone())
                        .engine(engine)
                        .build()
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let report = session.run();
                    check_against_trace(&label, &session, &graph, &report);
                    let per_message = report.message_completion_rounds.as_ref().unwrap();
                    if per_message.iter().any(|&(_, round)| round.is_none()) {
                        incomplete += 1;
                    }
                }
            }
        }
    }
    // The faults must leave some message short of some node, or the
    // incomplete entries would go unchecked.
    assert!(incomplete > 0, "every faulted run completed every message");
}
