//! Baseline broadcast algorithms from §1.1 of the paper, driven by the
//! baseline labeling schemes of `rn_labeling::baselines`.
//!
//! Both baselines are **slotted** algorithms. Every label in a baseline
//! labeling has the same length `L` (⌈log₂ n⌉ bits for unique identifiers,
//! ⌈log₂ χ(G²)⌉ bits for the square colouring), so a node can read the slot
//! modulus `M = 2^L ≥ n` (resp. `≥ χ(G²)`) off its own label without knowing
//! anything about the network — the algorithm stays universal. Once informed,
//! the node whose label value is `s` transmits in every round `≡ s + 1
//! (mod M)`:
//!
//! * with **unique identifiers** at most one node in the whole network
//!   transmits per round, so every uninformed neighbour of an informed node
//!   hears it — the "round-robin" broadcast the paper mentions;
//! * with **square-colouring** labels all transmitters in a round share a
//!   colour; two neighbours of any listener are at distance ≤ 2 and therefore
//!   have different colours, so again no collision ever blocks a listener.
//!
//! A transmitted message carries the current (source-local) round number so
//! that newly informed nodes can synchronise with the slot schedule; this
//! costs the same O(log n) bits per message as Algorithm B_ack.

use crate::messages::SourceMessage;
use rn_labeling::{Label, Labeling};
use rn_radio::message::{bits_for, RadioMessage};
use rn_radio::{Action, RadioNode};

/// Message of the slotted baselines: the source message plus the round number
/// in which it is transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlottedMessage {
    /// The source message µ.
    pub data: SourceMessage,
    /// The (source-local) round number of this transmission.
    pub round: u64,
}

impl RadioMessage for SlottedMessage {
    fn bit_size(&self) -> usize {
        bits_for(self.data) + bits_for(self.round)
    }
}

/// Whether the node owning `slot` (with slot modulus `modulus`) transmits in
/// `round` (1-based): rounds cycle through the slots `0, 1, …, modulus − 1`.
pub fn slot_owns_round(slot: u64, modulus: u64, round: u64) -> bool {
    debug_assert!(round >= 1);
    debug_assert!(modulus >= 1);
    (round - 1) % modulus == slot
}

/// The per-node state machine of the slotted baseline broadcast.
#[derive(Debug, Clone)]
pub struct SlottedNode {
    slot: u64,
    modulus: u64,
    sourcemsg: Option<SourceMessage>,
    /// The source-local round number minus the node's own local round,
    /// once known (wrapping: a node that woke before the source runs
    /// ahead of it). The source knows it from the start — it is 0 there;
    /// other nodes learn it from the first message they hear.
    clock_offset: Option<u64>,
}

impl SlottedNode {
    /// Creates the state machine for one node; the slot is the label's
    /// integer value and the modulus is `2^(label length)`. `sourcemsg` is
    /// `Some(µ)` for the source.
    pub fn new(label: Label, sourcemsg: Option<SourceMessage>) -> Self {
        SlottedNode {
            slot: label.value(),
            modulus: 1u64 << label.len().min(63),
            clock_offset: sourcemsg.is_some().then_some(0),
            sourcemsg,
        }
    }

    /// Builds the protocol instances for a whole labeled network.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(labeling: &Labeling, source: usize, message: SourceMessage) -> Vec<SlottedNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                SlottedNode::new(
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

    /// The slot modulus this node inferred from its label length.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// The source-local round number of local round `now`, once known.
    fn source_round(&self, now: u64) -> Option<u64> {
        self.clock_offset.map(|offset| now.wrapping_add(offset))
    }
}

impl RadioNode for SlottedNode {
    type Msg = SlottedMessage;
    const WAKE_HINTS: bool = true;

    fn step(&mut self, now: u64) -> Action<SlottedMessage> {
        match (self.sourcemsg, self.source_round(now)) {
            (Some(data), Some(round)) if slot_owns_round(self.slot, self.modulus, round) => {
                Action::Transmit(SlottedMessage { data, round })
            }
            _ => Action::Listen,
        }
    }

    fn receive(&mut self, heard: Option<&SlottedMessage>, now: u64) {
        if let Some(msg) = heard {
            if self.sourcemsg.is_none() {
                self.sourcemsg = Some(msg.data);
            }
            // Synchronise with the source-local clock: the message was sent
            // in source round `msg.round`, which is this node's round `now`
            // (idempotent for already synchronised nodes).
            self.clock_offset = Some(msg.round.wrapping_sub(now));
        }
    }

    /// An informed node sleeps until its next slot; an uninformed one until
    /// it hears something.
    fn wake_hint(&self, now: u64) -> u64 {
        match (self.sourcemsg, self.source_round(now)) {
            // Source round `round + 1 + h` is the first the slot owns:
            // `(round + h) % modulus == slot`.
            (Some(_), Some(round)) => self.slot.wrapping_sub(round) & (self.modulus - 1),
            _ => u64::MAX,
        }
    }

    fn state_digest(&self) -> u64 {
        rn_radio::Digest::new(0x510)
            .word(self.slot)
            .word(self.modulus)
            .opt(self.sourcemsg)
            .opt(self.clock_offset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_labeling::baselines;
    use rn_radio::{Simulator, StopCondition};

    const MSG: SourceMessage = 31337;

    #[test]
    fn slot_schedule_cycles_through_slots() {
        // Modulus 4: rounds 1, 5, 9, … belong to slot 0; rounds 2, 6, 10, …
        // to slot 1; and so on.
        assert!(slot_owns_round(0, 4, 1));
        assert!(slot_owns_round(0, 4, 5));
        assert!(!slot_owns_round(0, 4, 2));
        assert!(slot_owns_round(1, 4, 2));
        assert!(slot_owns_round(3, 4, 4));
        assert!(slot_owns_round(3, 4, 8));
    }

    #[test]
    fn exactly_one_slot_owns_each_round() {
        for round in 1..200u64 {
            let owners: Vec<u64> = (0..16).filter(|&s| slot_owns_round(s, 16, round)).collect();
            assert_eq!(owners.len(), 1, "round {round} owned by {owners:?}");
        }
    }

    #[test]
    fn modulus_is_power_of_two_of_label_length() {
        let node = SlottedNode::new(Label::from_value(5, 4), None);
        assert_eq!(node.modulus(), 16);
        let node = SlottedNode::new(Label::from_value(0, 1), Some(1));
        assert_eq!(node.modulus(), 2);
    }

    fn run_unique_ids(g: rn_graph::Graph, source: usize) -> (bool, u64) {
        let labeling = baselines::unique_ids(&g).unwrap();
        let nodes = SlottedNode::network(&labeling, source, MSG);
        let n = g.node_count() as u64;
        let mut sim = Simulator::new(g, nodes).without_trace();
        sim.run_until(StopCondition::AfterRounds(8 * n * n + 100), |s| {
            s.nodes().iter().all(SlottedNode::is_informed)
        });
        (
            sim.nodes().iter().all(SlottedNode::is_informed),
            sim.current_round(),
        )
    }

    #[test]
    fn unique_id_round_robin_completes() {
        for (g, src) in [
            (generators::path(9), 0),
            (generators::cycle(8), 3),
            (generators::star(7), 2),
            (generators::grid(3, 4), 5),
            (generators::gnp_connected(20, 0.15, 4).unwrap(), 0),
        ] {
            let (done, _) = run_unique_ids(g, src);
            assert!(done);
        }
    }

    #[test]
    fn unique_ids_are_much_slower_than_lambda_on_a_reversed_path() {
        // Worst case for round robin: the source sits at the high end of a
        // path whose identifiers increase along it, so each slot sweep
        // informs only one new node. Algorithm B needs at most 2n - 3 rounds
        // regardless.
        let n = 16;
        let g = generators::path(n);
        let source = n - 1;
        let (done, rr_rounds) = run_unique_ids(g.clone(), source);
        assert!(done);
        let scheme = rn_labeling::lambda::construct(&g, source).unwrap();
        let nodes = crate::algo_b::BNode::network(scheme.labeling(), source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(3 * n as u64), |s| {
            s.nodes().iter().all(crate::algo_b::BNode::is_informed)
        });
        assert!(sim.current_round() <= 2 * n as u64 - 3);
        assert!(
            rr_rounds > 2 * sim.current_round(),
            "round robin ({rr_rounds}) should be much slower than B ({})",
            sim.current_round()
        );
    }

    #[test]
    fn square_coloring_slots_complete() {
        for (g, src) in [
            (generators::path(12), 0),
            (generators::grid(4, 4), 0),
            (generators::cycle(10), 5),
            (generators::random_tree(20, 3), 0),
        ] {
            let (labeling, _k) = baselines::square_coloring(&g).unwrap();
            let nodes = SlottedNode::network(&labeling, src, MSG);
            let n = g.node_count() as u64;
            let mut sim = Simulator::new(g, nodes).without_trace();
            sim.run_until(StopCondition::AfterRounds(8 * n * n + 100), |s| {
                s.nodes().iter().all(SlottedNode::is_informed)
            });
            assert!(sim.nodes().iter().all(SlottedNode::is_informed));
            for node in sim.nodes() {
                assert_eq!(node.sourcemsg(), Some(MSG));
            }
        }
    }

    #[test]
    fn coloring_baseline_beats_id_baseline_on_low_degree_graphs() {
        // On a long path χ(G²) = 3 while there are n distinct identifiers, so
        // the colour-slot sweep is much shorter.
        let n = 24;
        let g = generators::path(n);
        let source = n - 1;
        let (_, id_rounds) = run_unique_ids(g.clone(), source);
        let (labeling, _) = baselines::square_coloring(&g).unwrap();
        let nodes = SlottedNode::network(&labeling, source, MSG);
        let mut sim = Simulator::new(g, nodes).without_trace();
        sim.run_until(
            StopCondition::AfterRounds(8 * (n as u64) * (n as u64)),
            |s| s.nodes().iter().all(SlottedNode::is_informed),
        );
        assert!(sim.nodes().iter().all(SlottedNode::is_informed));
        assert!(sim.current_round() < id_rounds);
    }

    #[test]
    fn uninformed_node_never_transmits() {
        let mut node = SlottedNode::new(Label::from_value(0, 3), None);
        assert_eq!(node.wake_hint(0), u64::MAX);
        for now in 1..=50 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
        }
    }

    #[test]
    fn informed_node_sleeps_frozen_until_its_slot() {
        // Slot 5 of 8 owns source rounds 6, 14, 22, …. Hearing source
        // round 10 in local round 4 puts source round 14 at local round 8.
        let mut node = SlottedNode::new(Label::from_value(5, 3), None);
        node.receive(Some(&SlottedMessage { data: 1, round: 10 }), 4);
        assert_eq!(node.wake_hint(4), 3);
        let before = node.state_digest();
        for now in 5..8 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
            assert_eq!(node.state_digest(), before, "round {now}");
        }
        assert_eq!(
            node.step(8),
            Action::Transmit(SlottedMessage { data: 1, round: 14 })
        );
        assert_eq!(node.wake_hint(8), 7, "next at source round 22");
    }
}
