//! The all-to-all **gossip** protocol driving the [`rn_labeling::gossip`]
//! scheme: a token walks the DFS spanning tree collecting every node's
//! message, then the paper's Algorithm B broadcasts the bundle of all `n`.
//!
//! [`GossipNode`] *is* the multi-message state machine of [`crate::multi`]
//! — the same relay core drives both collection plans, so the bundle
//! broadcast reuses the rules of Algorithm B verbatim. Only the
//! construction differs: every node is a source (message `j` belongs to
//! node `j`), and the collection slots carry
//! [`rn_labeling::collection::TokenPayload::Accumulated`] — each scheduled
//! transmitter sends *everything it has gathered so far*, so the token
//! picks each node's message up on first visit and the coordinator ends
//! the walk holding all `n` messages after exactly `2(n − 1)`
//! collision-free rounds (one transmitter per round by construction).
//!
//! A node is *fully informed* once it holds all `n` payloads
//! ([`GossipNode::holds_all_messages`]) — via the broadcast bundle, or
//! early by sitting next to the token's path and overhearing it.

use crate::messages::SourceMessage;
use crate::multi::MultiNode;
use rn_labeling::gossip::GossipScheme;
use rn_radio::{Action, RadioNode};

/// The per-node state machine of the gossip algorithm: the shared
/// multi-message relay core of [`crate::multi`], instantiated for a
/// DFS-token collection plan.
#[derive(Debug, Clone)]
pub struct GossipNode(MultiNode);

impl GossipNode {
    /// Builds the protocol instances for a whole network from the scheme
    /// and the n per-node payloads (`payloads[v]` is the message node `v`
    /// starts with).
    ///
    /// # Panics
    /// Panics if `payloads.len() != scheme.k()` (one payload per node).
    pub fn network(scheme: &GossipScheme, payloads: &[SourceMessage]) -> Vec<GossipNode> {
        let sources: Vec<usize> = (0..scheme.k()).collect();
        MultiNode::plan_network(scheme.labeling(), scheme.plan(), &sources, payloads)
            .into_iter()
            .map(GossipNode)
            .collect()
    }

    /// Whether this node holds the message of node `j`.
    pub fn has_message(&self, j: usize) -> bool {
        self.0.has_message(j)
    }

    /// Whether this node holds **all** n messages (the gossip completion
    /// notion).
    pub fn holds_all_messages(&self) -> bool {
        self.0.holds_all_messages()
    }

    /// The payloads this node currently holds, indexed by source node.
    pub fn payloads(&self) -> &[Option<SourceMessage>] {
        self.0.payloads()
    }
}

impl RadioNode for GossipNode {
    type Msg = <MultiNode as RadioNode>::Msg;
    const WAKE_HINTS: bool = true;

    fn step(&mut self, now: u64) -> Action<Self::Msg> {
        self.0.step(now)
    }

    fn receive(&mut self, heard: Option<&Self::Msg>, now: u64) {
        self.0.receive(heard, now);
    }

    fn wake_hint(&self, now: u64) -> u64 {
        self.0.wake_hint(now)
    }

    fn state_digest(&self) -> u64 {
        self.0.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MultiMessage;
    use rn_graph::generators;
    use rn_labeling::gossip;
    use rn_radio::{Simulator, StopCondition};

    fn run_gossip(
        g: rn_graph::Graph,
        payloads: &[SourceMessage],
    ) -> (Simulator<GossipNode>, GossipScheme) {
        let scheme = gossip::construct(&g).unwrap();
        let nodes = GossipNode::network(&scheme, payloads);
        let n = g.node_count() as u64;
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(
            StopCondition::QuietFor {
                quiet: 3,
                cap: 6 * (n + 2) + 16,
            },
            |s| s.nodes().iter().all(GossipNode::holds_all_messages),
        );
        (sim, scheme)
    }

    #[test]
    fn every_node_learns_every_message() {
        for g in [
            generators::path(12),
            generators::grid(4, 5),
            generators::cycle(9),
            generators::star(8),
            generators::gnp_connected(30, 0.12, 5).unwrap(),
        ] {
            let n = g.node_count();
            let payloads: Vec<u64> = (0..n as u64).map(|j| 100 + j).collect();
            let (sim, _) = run_gossip(g, &payloads);
            for (v, node) in sim.nodes().iter().enumerate() {
                assert!(node.holds_all_messages(), "node {v} missing a message");
                for (j, &p) in payloads.iter().enumerate() {
                    assert_eq!(node.payloads()[j], Some(p), "node {v}, message {j}");
                }
            }
        }
    }

    #[test]
    fn collection_rounds_have_exactly_one_transmitter() {
        let g = generators::gnp_connected(24, 0.15, 8).unwrap();
        let scheme = gossip::construct(&g).unwrap();
        let n = g.node_count();
        let payloads: Vec<u64> = (0..n as u64).collect();
        let nodes = GossipNode::network(&scheme, &payloads);
        let mut sim = Simulator::new(g, nodes);
        assert_eq!(scheme.collection_rounds(), 2 * (n as u64 - 1));
        for round in 1..=scheme.collection_rounds() {
            let tx = sim.step_round();
            assert_eq!(tx, 1, "collection round {round}");
        }
        // The next round is the coordinator's opening bundle transmission,
        // and by then the coordinator holds everything.
        assert!(sim.nodes()[scheme.coordinator()].holds_all_messages());
        assert_eq!(sim.step_round(), 1);
        let record = sim.trace().rounds.last().unwrap();
        assert_eq!(record.transmitters(), vec![scheme.coordinator()]);
        assert!(matches!(
            sim.trace()
                .heard_in_round(g_first_neighbor(&sim, scheme.coordinator()), record.round),
            Some(MultiMessage::Bundle(_))
        ));
    }

    fn g_first_neighbor(sim: &Simulator<GossipNode>, v: usize) -> usize {
        sim.graph().neighbors(v)[0]
    }

    #[test]
    fn completes_within_the_linear_bound() {
        // Collection 2(n-1) + Theorem 2.9's 2n - 3 for the bundle phase.
        for seed in 0..4u64 {
            let g = generators::gnp_connected(26, 0.14, seed).unwrap();
            let n = g.node_count() as u64;
            let payloads: Vec<u64> = (0..n).collect();
            let (sim, _) = run_gossip(g, &payloads);
            assert!(sim.nodes().iter().all(GossipNode::holds_all_messages));
            let bound = 2 * (n - 1) + 2 * n - 3;
            assert!(
                sim.current_round() <= bound + 3, // + the quiet-tail rounds
                "seed {seed}: {} rounds > bound {bound}",
                sim.current_round()
            );
        }
    }

    #[test]
    fn token_walk_degenerates_to_pure_linear_cost_on_a_path() {
        // On a path with the coordinator at the centre, per-source BFS
        // collection (the multi plan) would cost Σ_v dist(v, r) = Θ(n²)
        // rounds; the token walk stays exactly 2(n - 1).
        let g = generators::path(21);
        let scheme = gossip::construct(&g).unwrap();
        assert_eq!(scheme.coordinator(), 10);
        assert_eq!(scheme.collection_rounds(), 40);
        let sum_of_distances: u64 = (0..21u64).map(|v| v.abs_diff(10)).sum();
        assert!(scheme.collection_rounds() < sum_of_distances);
    }

    #[test]
    fn nodes_next_to_the_token_absorb_messages_early() {
        // On a star with hub coordinator, the walk is hub → leaf 1 → hub →
        // leaf 2 → …; after three steps the hub has retransmitted the token
        // {µ_0, µ_1}, so every leaf already holds leaf 1's message long
        // before the final bundle — but nobody holds leaf 2's yet.
        let g = generators::star(6);
        let scheme = gossip::construct_with_coordinator(&g, 0).unwrap();
        let payloads: Vec<u64> = (0..6u64).map(|j| 50 + j).collect();
        let nodes = GossipNode::network(&scheme, &payloads);
        let mut sim = Simulator::new(g, nodes);
        sim.step_round(); // hub transmits its own message
        sim.step_round(); // leaf 1 returns the token with its message added
        sim.step_round(); // hub walks the token onward; every leaf overhears
        for v in 2..6 {
            assert!(sim.nodes()[v].has_message(1), "leaf {v} overheard leaf 1");
        }
        for v in 3..6 {
            assert!(!sim.nodes()[v].has_message(2), "leaf 2 not yet visited");
        }
    }

    #[test]
    #[should_panic(expected = "one payload per source")]
    fn network_rejects_mismatched_payloads() {
        let g = generators::path(5);
        let scheme = gossip::construct(&g).unwrap();
        let _ = GossipNode::network(&scheme, &[1, 2]);
    }
}
