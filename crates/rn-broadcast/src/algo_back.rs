//! **Algorithm B_ack** — the paper's Algorithm 2: acknowledged broadcast
//! driven by the 3-bit λ_ack labels.
//!
//! The broadcast part behaves exactly like Algorithm B, except that every
//! message carries the (source-local) round number in which it is sent. The
//! unique node `z` with `x3 = 1` — chosen by λ_ack to be informed last —
//! transmits an "ack" the round after it is informed; the "ack" then hops
//! backwards along the chain of nodes that informed each other until it
//! reaches the source (Theorem 3.9: within `n − 2` rounds of the broadcast
//! completing).

use crate::ack_engine::{AckExtra, BackEngine, EngineAction};
use crate::messages::{Phase, SourceMessage, TaggedMessage, TaggedPayload};
use rn_labeling::{Label, Labeling};
use rn_radio::{hint_until, Action, RadioNode};

/// The per-node state machine of Algorithm B_ack.
#[derive(Debug, Clone)]
pub struct BackNode {
    engine: BackEngine,
    is_source: bool,
}

impl BackNode {
    /// Creates the state machine for one node. `sourcemsg` is `Some(µ)` for
    /// the source and `None` for everyone else.
    pub fn new(label: Label, sourcemsg: Option<SourceMessage>) -> Self {
        BackNode {
            is_source: sourcemsg.is_some(),
            engine: BackEngine::new(
                Phase::One,
                label,
                sourcemsg.map(TaggedPayload::Data),
                true,
                AckExtra::None,
                true,
            ),
        }
    }

    /// Builds the protocol instances for a whole labeled network.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(labeling: &Labeling, source: usize, message: SourceMessage) -> Vec<BackNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                BackNode::new(
                    labeling.get(v),
                    if v == source { Some(message) } else { None },
                )
            })
            .collect()
    }

    /// Whether the node knows the source message.
    pub fn is_informed(&self) -> bool {
        self.engine.is_informed()
    }

    /// The node's copy of the source message, if informed.
    pub fn sourcemsg(&self) -> Option<SourceMessage> {
        match self.engine.payload() {
            Some(TaggedPayload::Data(m)) => Some(m),
            _ => None,
        }
    }

    /// The paper's `informedRound` variable (round tag of first reception).
    pub fn informed_round(&self) -> Option<u64> {
        self.engine.informed_round()
    }

    /// Whether this node is the source and has heard an acknowledgement —
    /// the event bounded by Theorem 3.9.
    pub fn source_received_ack(&self) -> bool {
        self.is_source && self.engine.first_ack_heard().is_some()
    }

    /// Whether the source has heard the chain-terminating acknowledgement
    /// (one whose tag is a round in which the source itself transmitted).
    pub fn source_received_final_ack(&self) -> bool {
        self.is_source && self.engine.final_ack().is_some()
    }
}

impl RadioNode for BackNode {
    type Msg = TaggedMessage;
    const WAKE_HINTS: bool = true;

    fn step(&mut self, now: u64) -> Action<TaggedMessage> {
        match self.engine.step(now) {
            EngineAction::Transmit(m) => Action::Transmit(m),
            EngineAction::Listen => Action::Listen,
        }
    }

    /// Every rule of Algorithm 2 fires one or two rounds after something
    /// the node heard or sent (or, at the source, in its first round), so
    /// the node sleeps until its engine's next rule round, or until its
    /// next reception when none is pending.
    fn wake_hint(&self, now: u64) -> u64 {
        hint_until(self.engine.next_rule_round(now), now)
    }

    fn receive(&mut self, heard: Option<&TaggedMessage>, now: u64) {
        self.engine.receive(heard, now);
    }

    fn state_digest(&self) -> u64 {
        self.engine
            .digest_into(rn_radio::Digest::new(0xBAC).flag(self.is_source))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_labeling::lambda_ack;
    use rn_radio::{Simulator, StopCondition};

    const MSG: SourceMessage = 99;

    fn run_back(g: rn_graph::Graph, source: usize, cap: u64) -> Simulator<BackNode> {
        let scheme = lambda_ack::construct(&g, source).unwrap();
        let nodes = BackNode::network(scheme.labeling(), source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(cap), |s| {
            s.nodes().iter().any(BackNode::source_received_ack)
                && s.nodes().iter().all(BackNode::is_informed)
        });
        sim
    }

    #[test]
    fn broadcast_and_ack_complete_on_a_path() {
        let n = 10u64;
        let g = generators::path(n as usize);
        let sim = run_back(g, 0, 4 * n);
        assert!(sim.nodes().iter().all(BackNode::is_informed));
        assert!(sim.nodes()[0].source_received_ack());
    }

    #[test]
    fn source_gets_ack_within_theorem_3_9_window() {
        for seed in 0..4 {
            let g = generators::gnp_connected(25, 0.15, seed).unwrap();
            let n = g.node_count() as u64;
            let source = (3 * seed as usize) % 25;
            let scheme = lambda_ack::construct(&g, source).unwrap();
            let nodes = BackNode::network(scheme.labeling(), source, MSG);
            let mut sim = Simulator::new(g, nodes);

            // Run until every node is informed; record that round as t.
            sim.run_until(StopCondition::AfterRounds(4 * n), |s| {
                s.nodes().iter().all(BackNode::is_informed)
            });
            let t = sim.current_round();
            assert!(t <= 2 * n - 3, "broadcast too slow (seed {seed})");

            // Keep running until the source hears an ack; Corollary 3.8 bounds
            // this by t + n - 1 (Theorem 3.9 states n - 2, see verify.rs).
            sim.run_until(StopCondition::AfterRounds(4 * n), |s| {
                s.nodes().iter().any(BackNode::source_received_ack)
            });
            let t_ack = sim.current_round();
            assert!(t_ack > t, "ack cannot precede completion");
            assert!(t_ack < t + n, "ack too slow (seed {seed})");
        }
    }

    #[test]
    fn informed_round_matches_trace() {
        let g = generators::grid(3, 4);
        let sim = run_back(g, 0, 100);
        for v in 1..sim.nodes().len() {
            let reported = sim.nodes()[v].informed_round().unwrap();
            // The informed round is the first round in which the node heard a
            // µ-carrying message (it may have heard "stay" messages earlier).
            let traced = sim
                .trace()
                .rounds
                .iter()
                .find(|r| {
                    matches!(
                        sim.trace().heard_in_round(v, r.round),
                        Some(TaggedMessage {
                            payload: TaggedPayload::Data(_),
                            ..
                        })
                    )
                })
                .map(|r| r.round)
                .unwrap();
            assert_eq!(reported, traced, "node {v}");
        }
    }

    #[test]
    fn final_ack_follows_first_ack() {
        let g = generators::cycle(9);
        let scheme = lambda_ack::construct(&g, 0).unwrap();
        let nodes = BackNode::network(scheme.labeling(), 0, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 200 }, |_| false);
        assert!(sim.nodes()[0].source_received_ack());
        assert!(sim.nodes()[0].source_received_final_ack());
    }

    #[test]
    fn two_node_graph_acknowledges_quickly() {
        let g = rn_graph::Graph::from_edges(2, &[(0, 1)]).unwrap();
        let sim = run_back(g, 0, 10);
        assert!(sim.nodes()[1].is_informed());
        assert!(sim.nodes()[0].source_received_ack());
        assert!(sim.current_round() <= 3);
    }

    #[test]
    fn parked_node_state_is_frozen() {
        // A fresh uninformed node parks; a source must transmit first.
        let mut node = BackNode::new(Label::three_bits(true, true, false), None);
        assert_eq!(node.wake_hint(0), u64::MAX);
        assert_eq!(
            BackNode::new(Label::three_bits(false, false, false), Some(MSG)).wake_hint(0),
            0
        );
        // Hearing µ in round 4 wakes it: it sends "stay" in round 5 and
        // relays in round 6.
        node.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(MSG), 4)),
            4,
        );
        assert_eq!(node.wake_hint(4), 0);
        assert!(node.step(5).is_transmit());
        assert_eq!(node.wake_hint(5), 0);
        assert!(node.step(6).is_transmit());
        assert_eq!(node.wake_hint(6), u64::MAX);
        // The wake-hint contract: once the hint is MAX, step/receive(None)
        // pairs must not change the node at all.
        let before = format!("{node:?}");
        for now in 7..17 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
        }
        assert_eq!(format!("{node:?}"), before);
    }

    #[test]
    fn node_waiting_for_an_ack_round_parks_until_then() {
        // A relay that hears an ack for its own transmit round forwards it
        // the round after; the hint names exactly that round.
        let mut node = BackNode::new(Label::three_bits(true, false, false), None);
        node.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(MSG), 1)),
            1,
        );
        assert_eq!(node.wake_hint(1), 1, "relays in round 3");
        assert!(node.step(3).is_transmit());
        node.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 3, None)), 9);
        assert_eq!(node.wake_hint(9), 0);
        assert!(node.step(10).is_transmit());
        assert_eq!(node.wake_hint(10), u64::MAX);
    }

    #[test]
    fn non_source_nodes_never_report_source_ack() {
        let g = generators::star(5);
        let sim = run_back(g, 0, 20);
        for v in 1..5 {
            assert!(!sim.nodes()[v].source_received_ack());
        }
    }
}
