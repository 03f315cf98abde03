//! End-to-end acceptance suite for the gossip subsystem: on **every**
//! topology registry preset, all-to-all gossip must complete with every
//! node holding all n messages (cross-checked against the recorded trace),
//! the collection phase must use exactly one transmitter per round, and
//! the whole task must finish within a linear number of rounds.

use radio_labeling::broadcast::multi::MultiNode;
use radio_labeling::broadcast::session::{Scheme, Session};
use radio_labeling::broadcast::MultiMessage;
use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::labeling::gossip;
use radio_labeling::radio::{Simulator, StopCondition};
use std::sync::Arc;

#[test]
fn gossip_completes_on_every_registry_preset_with_trace_verification() {
    for family in TopologyFamily::PRESETS {
        let g = Arc::new(family.generate(16, 1).expect("presets generate"));
        let n = g.node_count();
        let scheme = gossip::construct(&g).unwrap();
        let payloads: Vec<u64> = (0..n as u64).map(|j| 500 + j).collect();
        let nodes = MultiNode::network(&scheme, &payloads);
        let mut sim = Simulator::new(Arc::clone(&g), nodes);

        // Collection: exactly one transmitter in each of the 2(n-1) rounds.
        assert_eq!(
            scheme.collection_rounds(),
            2 * (n as u64 - 1),
            "{}: token walk length",
            family.name()
        );
        for round in 1..=scheme.collection_rounds() {
            assert_eq!(
                sim.step_round(),
                1,
                "{}: collection round {round} must have exactly one transmitter",
                family.name()
            );
        }
        assert!(
            sim.nodes()[scheme.coordinator()].holds_all_messages(),
            "{}: the coordinator holds everything when the walk ends",
            family.name()
        );

        // Run to completion; total time stays linear (collection 2(n-1) +
        // Theorem 2.9's 2n-3 for the bundle broadcast, + the quiet tail).
        sim.run_until(
            StopCondition::QuietFor {
                quiet: 3,
                cap: 6 * (n as u64 + 2) + 16,
            },
            |s| s.nodes().iter().all(MultiNode::holds_all_messages),
        );
        let linear_bound = 4 * n as u64 + 16;
        assert!(
            sim.current_round() <= linear_bound,
            "{}: {} rounds exceeds the linear bound {linear_bound}",
            family.name(),
            sim.current_round()
        );
        for (v, node) in sim.nodes().iter().enumerate() {
            assert!(
                node.holds_all_messages(),
                "{}: node {v} missing a message",
                family.name()
            );
            for (j, &p) in payloads.iter().enumerate() {
                assert_eq!(
                    node.payload(j),
                    Some(p),
                    "{}: node {v}, message {j}",
                    family.name()
                );
            }
        }

        // Verify the node-state accounting against the recorded trace with
        // one bucketed scan: a node holds message j iff it originated j or
        // the trace shows it hearing a message carrying j.
        let heard = sim
            .trace()
            .first_receive_rounds_bucketed(n, n, |m, emit| match m {
                MultiMessage::Relay { source_index, .. } => emit(*source_index as usize),
                MultiMessage::Token(bundle) | MultiMessage::Bundle(bundle) => {
                    for (j, _) in bundle.iter() {
                        emit(j as usize);
                    }
                }
                MultiMessage::Stay => {}
            });
        for (j, row) in heard.iter().enumerate() {
            for (v, first) in row.iter().enumerate() {
                assert!(
                    v == j || first.is_some(),
                    "{}: node {v} holds message {j} but the trace never delivered it",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn gossip_sessions_complete_on_every_registry_preset() {
    for family in TopologyFamily::PRESETS {
        let g = Arc::new(family.generate(16, 1).expect("presets generate"));
        let n = g.node_count();
        let report = Session::builder(Scheme::Gossip, Arc::clone(&g))
            .message(900)
            .build()
            .unwrap()
            .run();
        assert!(report.completed(), "{}", family.name());
        assert_eq!(report.scheme, "gossip", "{}", family.name());
        assert_eq!(report.sources.len(), n, "{}", family.name());
        assert_eq!(report.label_length, 2, "{}", family.name());
        assert!(
            report.completion_round.unwrap() <= 4 * n as u64,
            "{}: completion must stay linear",
            family.name()
        );
        let per_message = report.message_completion_rounds.as_ref().unwrap();
        assert_eq!(per_message.len(), n, "{}", family.name());
        assert!(
            per_message.iter().all(|&(_, round)| round.is_some()),
            "{}: every message fully propagates",
            family.name()
        );
        assert!(
            report.informed_rounds.iter().all(Option::is_some),
            "{}: every node ends fully informed",
            family.name()
        );
    }
}
