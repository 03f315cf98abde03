//! The 1-bit **delay-relay** algorithm driving the special graph-class
//! schemes of [`rn_labeling::onebit`] (paper §5, conclusion).
//!
//! Universal rule (same for every graph in the supported classes):
//!
//! * the node holding the source message transmits it in its first round and
//!   then stays silent;
//! * every other node retransmits the source message **exactly once**,
//!   `1 + b` rounds after first receiving it, where `b ∈ {0, 1}` is its 1-bit
//!   label.
//!
//! On cycles the label delays one of the two broadcast waves so they never
//! collide (`rn_labeling::onebit::cycle_onebit`); on grids it makes the wave
//! travel fast along the source's row and at half speed down the columns
//! (`rn_labeling::onebit::grid_onebit`). Correctness on both classes is
//! verified exhaustively by the integration tests.

use crate::messages::{BMessage, SourceMessage};
use rn_labeling::{Label, Labeling};
use rn_radio::{hint_until, Action, RadioNode};

/// The per-node state machine of the delay-relay algorithm.
#[derive(Debug, Clone)]
pub struct DelayRelayNode {
    delay_bit: bool,
    sourcemsg: Option<SourceMessage>,
    is_source: bool,
    source_sent: bool,
    /// The local round in which this node relays (set when informed).
    relay_at: Option<u64>,
    relayed: bool,
}

impl DelayRelayNode {
    /// Creates the state machine for one node. `sourcemsg` is `Some(µ)` for
    /// the source and `None` for everyone else; only the first label bit is
    /// used.
    pub fn new(label: Label, sourcemsg: Option<SourceMessage>) -> Self {
        DelayRelayNode {
            delay_bit: label.x1(),
            is_source: sourcemsg.is_some(),
            sourcemsg,
            source_sent: false,
            relay_at: None,
            relayed: false,
        }
    }

    /// Builds the protocol instances for a whole labeled network.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(
        labeling: &Labeling,
        source: usize,
        message: SourceMessage,
    ) -> Vec<DelayRelayNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                DelayRelayNode::new(
                    labeling.get(v),
                    if v == source { Some(message) } else { None },
                )
            })
            .collect()
    }

    /// Whether the node knows the source message.
    pub fn is_informed(&self) -> bool {
        self.sourcemsg.is_some()
    }

    /// The node's copy of the source message, if informed.
    pub fn sourcemsg(&self) -> Option<SourceMessage> {
        self.sourcemsg
    }
}

impl RadioNode for DelayRelayNode {
    type Msg = BMessage;

    fn step(&mut self, now: u64) -> Action<BMessage> {
        if self.is_source && !self.source_sent {
            self.source_sent = true;
            return Action::Transmit(BMessage::Data(self.sourcemsg.expect("the source holds µ")));
        }
        if self.relay_at == Some(now) {
            self.relay_at = None;
            self.relayed = true;
            return Action::Transmit(BMessage::Data(
                self.sourcemsg.expect("only informed nodes relay"),
            ));
        }
        Action::Listen
    }

    fn receive(&mut self, heard: Option<&BMessage>, now: u64) {
        if let Some(BMessage::Data(m)) = heard {
            if self.sourcemsg.is_none() {
                self.sourcemsg = Some(*m);
                if !self.relayed {
                    // Relay 1 + b rounds after this one.
                    self.relay_at = Some(now + 1 + u64::from(self.delay_bit));
                }
            }
        }
    }

    /// The source acts in its first round and a relay in its relay round;
    /// in between, and once it has relayed, the node sleeps until it hears
    /// something.
    fn wake_hint(&self, now: u64) -> u64 {
        if self.is_source && !self.source_sent {
            return 0;
        }
        hint_until(self.relay_at, now)
    }

    fn state_digest(&self) -> u64 {
        rn_radio::Digest::new(0xDE1)
            .flag(self.delay_bit)
            .opt(self.sourcemsg)
            .flag(self.is_source)
            .flag(self.source_sent)
            .opt(self.relay_at)
            .flag(self.relayed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_labeling::onebit;
    use rn_radio::{Simulator, StopCondition};

    const MSG: SourceMessage = 7;

    fn run_cycle(n: usize, source: usize) -> Simulator<DelayRelayNode> {
        let g = generators::cycle(n);
        let labeling = onebit::cycle_onebit(&g, source).unwrap();
        let nodes = DelayRelayNode::network(&labeling, source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(3 * n as u64), |s| {
            s.nodes().iter().all(DelayRelayNode::is_informed)
        });
        sim
    }

    #[test]
    fn cycles_complete_for_every_size_and_source() {
        for n in 3..=24 {
            for source in 0..n {
                let sim = run_cycle(n, source);
                assert!(
                    sim.nodes().iter().all(DelayRelayNode::is_informed),
                    "cycle n = {n}, source = {source} failed"
                );
                // The wave travels at most one round per hop plus the 1-round
                // delay, so completion is linear in n.
                assert!(sim.current_round() <= n as u64 + 2);
            }
        }
    }

    #[test]
    fn grids_complete_for_every_source() {
        for (rows, cols) in [(1, 6), (2, 5), (3, 3), (3, 5), (4, 4), (5, 2)] {
            let g = generators::grid(rows, cols);
            for source in 0..g.node_count() {
                let labeling = onebit::grid_onebit(&g, rows, cols, source).unwrap();
                let nodes = DelayRelayNode::network(&labeling, source, MSG);
                let mut sim = Simulator::new(g.clone(), nodes);
                let cap = 4 * g.node_count() as u64 + 10;
                sim.run_until(StopCondition::AfterRounds(cap), |s| {
                    s.nodes().iter().all(DelayRelayNode::is_informed)
                });
                assert!(
                    sim.nodes().iter().all(DelayRelayNode::is_informed),
                    "grid {rows}x{cols}, source {source} failed"
                );
            }
        }
    }

    #[test]
    fn each_node_relays_at_most_once() {
        let sim = run_cycle(12, 0);
        for v in 0..12 {
            assert!(sim.trace().transmit_rounds(v).len() <= 1, "node {v}");
        }
    }

    #[test]
    fn four_cycle_succeeds_where_unlabeled_broadcast_cannot() {
        // The paper's impossibility example: with the single label bit the
        // antipodal node is informed.
        let sim = run_cycle(4, 0);
        assert!(sim.nodes()[2].is_informed());
    }

    #[test]
    fn source_message_propagates_unchanged() {
        let sim = run_cycle(9, 4);
        for node in sim.nodes() {
            assert_eq!(node.sourcemsg(), Some(MSG));
        }
    }

    #[test]
    fn informed_node_sleeps_frozen_until_its_relay_round() {
        // Delay bit 1: informed in round 3, the node relays in round 5.
        let mut node = DelayRelayNode::new(Label::one_bit(true), None);
        assert_eq!(node.wake_hint(0), u64::MAX);
        node.receive(Some(&BMessage::Data(MSG)), 3);
        assert_eq!(node.wake_hint(3), 1);
        let before = node.state_digest();
        assert_eq!(node.step(4), Action::Listen);
        node.receive(None, 4);
        assert_eq!(node.state_digest(), before);
        assert_eq!(node.step(5), Action::Transmit(BMessage::Data(MSG)));
        assert_eq!(node.wake_hint(5), u64::MAX);
        let after = node.state_digest();
        for now in 6..16 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(Some(&BMessage::Data(MSG)), now);
        }
        assert_eq!(node.state_digest(), after, "it relays exactly once");
    }
}
