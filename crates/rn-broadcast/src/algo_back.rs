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
//!
//! A [`BackNode`] therefore keeps Algorithm B's three event rounds and
//! follows Algorithm B's rules 3–5, adding only the two tags Algorithm 2
//! reads (`informedRound` and the tag of the last "stay") and two rules:
//! the ack initiation, checked first because `z` acknowledges instead of
//! sending "stay", and the ack forwarding, checked when no other rule fires.
//!
//! Algorithm B_arb runs three consecutive instances of Algorithm 2, one per
//! phase, so [`crate::algo_barb::ArbNode`] holds three `BackNode`s. An
//! instance emits and consumes messages of **its own phase only**. Round
//! tags are relative to the instance's own start — the source of the
//! instance tags its first transmission 1. Tags are only derived from and
//! compared with tags of the same instance, so the shifted origin preserves
//! every property the paper needs.

use crate::algo_b::{BClock, BRule};
use crate::messages::{Phase, SourceMessage, TaggedMessage, TaggedPayload};
use rn_labeling::{Label, Labeling};
use rn_radio::{hint_until, Action, Digest, RadioNode};

/// The per-node state machine of Algorithm 2, for B_ack or for one phase of
/// B_arb.
#[derive(Debug, Clone)]
pub struct BackNode {
    phase: Phase,
    x1: bool,
    x2: bool,
    x3: bool,
    /// Whether this node is the source of this broadcast instance.
    is_source: bool,
    /// Whether the acknowledgement initiator appends its own informed round
    /// (B_arb phase 1: `T = t_z`).
    ack_carries_t: bool,
    /// Whether the source may transmit; B_arb enables the sources of phases
    /// 2 and 3 only when the previous phase has completed.
    enabled: bool,
    /// Whether this node has ever sent or received a message of this
    /// instance.
    ever_acted: bool,
    /// The payload this instance broadcasts; known up-front by the source,
    /// learned from the first broadcast-payload message by everyone else.
    sourcemsg: Option<TaggedPayload>,
    /// The local rounds Algorithm B's rules read: first reception of the
    /// payload, last payload transmission, last "stay".
    clock: BClock,
    /// The paper's `informedRound` variable (round tag of the first received
    /// broadcast payload). `None` for the source.
    informed_round: Option<u64>,
    /// The tag of the last "stay" heard.
    stay_tag: Option<u64>,
    /// The paper's `transmitRounds` variable.
    transmit_rounds: Vec<u64>,
    /// The last "ack" heard: `(tag, extra, local round)`.
    ack_at: Option<(u64, Option<u64>, u64)>,
    /// First acknowledgement heard by the source (any tag) — the quantity
    /// bounded by Theorem 3.9.
    first_ack_heard: Option<(u64, Option<u64>)>,
    /// First acknowledgement heard by the source whose tag belongs to the
    /// source's own `transmitRounds` — receiving it means the acknowledgement
    /// chain has fully terminated (used as the phase gate in B_arb).
    final_ack: Option<(u64, Option<u64>)>,
}

impl BackNode {
    /// Creates the state machine for one node. `sourcemsg` is `Some(µ)` for
    /// the source and `None` for everyone else.
    pub fn new(label: Label, sourcemsg: Option<SourceMessage>) -> Self {
        BackNode::instance(Phase::One, label, sourcemsg.map(TaggedPayload::Data), false)
    }

    /// Creates one node of the instance that runs `phase`. `source_payload`
    /// is `Some(p)` iff this node is the instance's source. Only phase 1
    /// lets its `x3` node initiate the acknowledgement, with its informed
    /// round appended when `ack_carries_t`: B_arb's phase-2 acknowledgement
    /// comes from the actual source, and phase 3 is plain broadcast. The
    /// source of a later phase starts disabled (see [`start`](Self::start)).
    pub(crate) fn instance(
        phase: Phase,
        label: Label,
        source_payload: Option<TaggedPayload>,
        ack_carries_t: bool,
    ) -> Self {
        BackNode {
            phase,
            x1: label.x1(),
            x2: label.x2(),
            x3: label.x3(),
            is_source: source_payload.is_some(),
            ack_carries_t,
            enabled: phase == Phase::One,
            ever_acted: false,
            sourcemsg: source_payload,
            clock: BClock::default(),
            informed_round: None,
            stay_tag: None,
            transmit_rounds: Vec::new(),
            ack_at: None,
            first_ack_heard: None,
            final_ack: None,
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
        self.sourcemsg.is_some()
    }

    /// The node's copy of the source message, if informed.
    pub fn sourcemsg(&self) -> Option<SourceMessage> {
        match self.sourcemsg {
            Some(TaggedPayload::Data(m)) => Some(m),
            _ => None,
        }
    }

    /// The paper's `informedRound` variable (round tag of first reception).
    pub fn informed_round(&self) -> Option<u64> {
        self.informed_round
    }

    /// Whether this node is the source and has heard an acknowledgement —
    /// the event bounded by Theorem 3.9.
    pub fn source_received_ack(&self) -> bool {
        self.first_ack_heard.is_some()
    }

    /// Whether the source has heard the chain-terminating acknowledgement
    /// (one whose tag is a round in which the source itself transmitted).
    pub fn source_received_final_ack(&self) -> bool {
        self.final_ack.is_some()
    }

    /// Gives a disabled **source** its payload and enables it. B_arb's
    /// coordinator learns the phase-2 timestamp `T` and the phase-3 message
    /// µ only at run time, so those instances are created with placeholder
    /// payloads and started here.
    ///
    /// # Panics
    /// Panics if called on a non-source or after the source transmitted.
    pub(crate) fn start(&mut self, payload: TaggedPayload) {
        assert!(self.is_source, "only a source carries a payload to set");
        assert!(
            !self.ever_acted,
            "cannot change the payload after the source transmitted"
        );
        self.sourcemsg = Some(payload);
        self.enabled = true;
    }

    /// Whether this instance's source has been enabled.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The payload this node knows for this instance, if any.
    pub(crate) fn payload(&self) -> Option<TaggedPayload> {
        self.sourcemsg
    }

    /// The chain-terminating acknowledgement heard by the source: `(tag,
    /// extra)`.
    pub(crate) fn final_ack(&self) -> Option<(u64, Option<u64>)> {
        self.final_ack
    }

    /// Whether this instance's `x3` node initiates the acknowledgement:
    /// B_ack and B_arb phase 1.
    fn initiates_ack(&self) -> bool {
        self.phase == Phase::One
    }

    /// The informed round of an informed non-source.
    fn informed_tag(&self) -> u64 {
        self.informed_round.expect("informed non-source")
    }

    /// The first local round after `now` in which a rule of `step` may fire,
    /// or `None` when only a reception can make one fire: every rule fires
    /// one or two rounds after something the node heard or sent, or in an
    /// enabled source's first round. The node's state changes only when a
    /// rule fires or a message arrives, so until then it is frozen.
    pub(crate) fn next_rule_round(&self, now: u64) -> Option<u64> {
        if self.is_source && self.enabled && !self.ever_acted {
            return Some(now + 1);
        }
        let ack_initiation = self
            .clock
            .informed_at
            .filter(|_| self.x3 && self.initiates_ack())
            .map(|t| t + 1);
        let ack_forwarding = self.ack_at.map(|(_, _, t)| t + 1);
        // One flat minimum: this runs after every step, and a minimum of
        // `BClock::next_rule_round` and the ack rounds is measurably slower.
        let [stay, relay, retransmit] = self.clock.rule_rounds(self.x1, self.x2);
        [stay, relay, retransmit, ack_initiation, ack_forwarding]
            .into_iter()
            .flatten()
            .filter(|&t| t > now)
            .min()
    }

    /// Folds every field into `d` — the shared body of the `state_digest`
    /// implementations of `BackNode` and `ArbNode` (which carries three
    /// instances).
    pub(crate) fn digest_into(&self, d: Digest) -> Digest {
        fn tagged(d: Digest, p: Option<(u64, Option<u64>)>) -> Digest {
            match p {
                None => d.word(0),
                Some((a, b)) => d.word(1).word(a).opt(b),
            }
        }
        let (pk, pv) = match self.sourcemsg {
            None => (0, 0),
            Some(TaggedPayload::Data(m)) => (1, m),
            Some(TaggedPayload::Init) => (2, 0),
            Some(TaggedPayload::Ready(t)) => (3, t),
            Some(TaggedPayload::Stay) => (4, 0),
            Some(TaggedPayload::Ack) => (5, 0),
        };
        let d = d
            .word(self.phase as u64 + 1)
            .flag(self.x1)
            .flag(self.x2)
            .flag(self.x3)
            .flag(self.is_source)
            .flag(self.initiates_ack())
            .flag(self.ack_carries_t)
            .word(pk)
            .word(pv)
            .opt(self.informed_round)
            .opt(self.clock.informed_at)
            .words(&self.transmit_rounds)
            .opt(self.clock.last_tx_at);
        let d = match self.stay_tag.zip(self.clock.stay_at) {
            None => d.word(0),
            Some((k, t)) => d.word(1).word(k).word(t),
        };
        let d = match self.ack_at {
            None => d.word(0),
            Some((k, extra, t)) => d.word(1).word(k).opt(extra).word(t),
        };
        let d = d.flag(self.ever_acted).flag(self.enabled);
        tagged(tagged(d, self.first_ack_heard), self.final_ack)
    }

    fn transmit_payload(&mut self, tag: u64, now: u64) -> Action<TaggedMessage> {
        self.ever_acted = true;
        self.transmit_rounds.push(tag);
        self.clock.last_tx_at = Some(now);
        let payload = self.sourcemsg.expect("only informed nodes transmit");
        Action::Transmit(TaggedMessage::new(self.phase, payload, tag))
    }
}

impl RadioNode for BackNode {
    type Msg = TaggedMessage;

    fn step(&mut self, now: u64) -> Action<TaggedMessage> {
        if self.is_source && self.enabled && !self.ever_acted {
            // Algorithm 2, lines 4-5: the source transmits (µ, 1) in its
            // first active round.
            return self.transmit_payload(1, now);
        }
        if self.sourcemsg.is_none() {
            // Lines 6-10: uninformed nodes listen.
            return Action::Listen;
        }
        // Lines 11-33: Algorithm B's rules with tags, plus the two ack rules.
        let informed_age = self.clock.informed_at.map(|t| now - t);
        if informed_age == Some(1) && self.x3 && self.initiates_ack() {
            // Lines 17-22: z acknowledges instead of sending "stay".
            let k = self.informed_tag();
            self.ever_acted = true;
            let extra = self.ack_carries_t.then_some(k);
            return Action::Transmit(TaggedMessage::ack_with_extra(self.phase, k, extra));
        }
        match self.clock.rule(now, self.x1, self.x2) {
            // Lines 12-16.
            Some(BRule::Data) if informed_age == Some(2) => {
                self.transmit_payload(self.informed_tag() + 2, now)
            }
            // Lines 23-27.
            Some(BRule::Data) => {
                let k = self.stay_tag.expect("a retransmission follows a stay");
                self.transmit_payload(k + 1, now)
            }
            // Lines 17-22, for every other x2 node.
            Some(BRule::Stay) => {
                self.ever_acted = true;
                let tag = self.informed_tag() + 1;
                Action::Transmit(TaggedMessage::new(self.phase, TaggedPayload::Stay, tag))
            }
            // Lines 28-32. The source never forwards (its transmitRounds is
            // treated as null by the paper); it records the acknowledgement
            // instead (see `receive`).
            None => match self.ack_at {
                Some((k, extra, t))
                    if now - t == 1 && !self.is_source && self.transmit_rounds.contains(&k) =>
                {
                    self.ever_acted = true;
                    let tag = self.informed_tag();
                    Action::Transmit(TaggedMessage::ack_with_extra(self.phase, tag, extra))
                }
                _ => Action::Listen,
            },
        }
    }

    /// Every rule of Algorithm 2 fires one or two rounds after something
    /// the node heard or sent (or, at the source, in its first round), so
    /// the node sleeps until its next rule round, or until its next
    /// reception when none is pending.
    fn wake_hint(&self, now: u64) -> u64 {
        hint_until(self.next_rule_round(now), now)
    }

    fn receive(&mut self, heard: Option<&TaggedMessage>, now: u64) {
        let Some(msg) = heard else { return };
        debug_assert_eq!(msg.phase, self.phase, "B_arb routes phases apart");
        match msg.payload {
            payload if payload.is_broadcast_payload() => {
                self.ever_acted = true;
                if self.sourcemsg.is_none() {
                    // Lines 7-10.
                    self.sourcemsg = Some(payload);
                    self.informed_round = Some(msg.tag);
                    self.clock.informed_at = Some(now);
                }
            }
            // An uninformed node ignores "stay" and "ack".
            _ if self.sourcemsg.is_none() => {}
            TaggedPayload::Stay => {
                self.ever_acted = true;
                self.stay_tag = Some(msg.tag);
                self.clock.stay_at = Some(now);
            }
            // "ack".
            _ => {
                self.ever_acted = true;
                self.ack_at = Some((msg.tag, msg.extra, now));
                if self.is_source {
                    if self.first_ack_heard.is_none() {
                        self.first_ack_heard = Some((msg.tag, msg.extra));
                    }
                    if self.final_ack.is_none() && self.transmit_rounds.contains(&msg.tag) {
                        self.final_ack = Some((msg.tag, msg.extra));
                    }
                }
            }
        }
    }

    fn state_digest(&self) -> u64 {
        self.digest_into(Digest::new(0xBAC).flag(self.is_source))
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

    fn label(x1: bool, x2: bool, x3: bool) -> Label {
        Label::three_bits(x1, x2, x3)
    }

    fn data(tag: u64) -> TaggedMessage {
        TaggedMessage::new(Phase::One, TaggedPayload::Data(9), tag)
    }

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
        let mut node = BackNode::new(label(true, true, false), None);
        assert_eq!(node.wake_hint(0), u64::MAX);
        assert_eq!(
            BackNode::new(label(false, false, false), Some(MSG)).wake_hint(0),
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
        let mut node = BackNode::new(label(true, false, false), None);
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

    #[test]
    fn source_transmits_payload_tagged_one() {
        let mut e = BackNode::new(label(false, false, false), Some(7));
        assert_eq!(
            e.step(1),
            Action::Transmit(TaggedMessage::new(Phase::One, TaggedPayload::Data(7), 1))
        );
        // Only once.
        assert_eq!(e.step(2), Action::Listen);
        assert_eq!(e.transmit_rounds, [1]);
    }

    #[test]
    fn disabled_source_waits_for_enable() {
        let source = Some(TaggedPayload::Ready(0));
        let mut e = BackNode::instance(Phase::Two, label(false, false, false), source, false);
        assert_eq!(e.step(1), Action::Listen);
        assert_eq!(e.step(2), Action::Listen);
        assert!(!e.is_enabled());
        e.start(TaggedPayload::Ready(5));
        match e.step(3) {
            Action::Transmit(m) => assert_eq!(m.payload, TaggedPayload::Ready(5)),
            Action::Listen => panic!("enabled source must transmit"),
        }
    }

    #[test]
    fn x1_node_relays_with_incremented_tag() {
        let mut e = BackNode::new(label(true, false, false), None);
        assert_eq!(e.step(1), Action::Listen);
        e.receive(Some(&data(3)), 1);
        assert_eq!(e.informed_round(), Some(3));
        assert_eq!(e.step(2), Action::Listen); // age 1, x2 = 0
        e.receive(None, 2);
        assert_eq!(e.step(3), Action::Transmit(data(5)));
        assert_eq!(e.transmit_rounds, [5]);
    }

    #[test]
    fn x2_node_sends_stay_with_tag_plus_one() {
        let mut e = BackNode::new(label(false, true, false), None);
        assert_eq!(e.step(1), Action::Listen);
        e.receive(Some(&data(7)), 1);
        assert_eq!(
            e.step(2),
            Action::Transmit(TaggedMessage::new(Phase::One, TaggedPayload::Stay, 8))
        );
    }

    #[test]
    fn x3_node_initiates_ack_with_extra() {
        // Only z (x3) acknowledges, ahead of the "stay" an x2 bit asks for.
        for x2 in [false, true] {
            let mut e = BackNode::instance(Phase::One, label(false, x2, true), None, true);
            assert_eq!(e.step(1), Action::Listen);
            e.receive(Some(&data(11)), 1);
            assert_eq!(
                e.step(2),
                Action::Transmit(TaggedMessage::ack_with_extra(Phase::One, 11, Some(11))),
                "x2 = {x2}"
            );
        }
        // Standalone B_ack appends nothing.
        let mut e = BackNode::new(label(false, true, true), None);
        e.receive(Some(&data(11)), 1);
        assert_eq!(
            e.step(2),
            Action::Transmit(TaggedMessage::ack_with_extra(Phase::One, 11, None))
        );
    }

    #[test]
    fn x3_node_does_not_ack_when_disabled() {
        // B_arb's later phases do not let z acknowledge: a plain x3 node
        // listens, an x2 ∧ x3 node sends "stay" with tag k + 1.
        for phase in [Phase::Two, Phase::Three] {
            for (x2, expected) in [
                (false, Action::Listen),
                (
                    true,
                    Action::Transmit(TaggedMessage::new(phase, TaggedPayload::Stay, 12)),
                ),
            ] {
                let mut e = BackNode::instance(phase, label(false, x2, true), None, false);
                assert_eq!(e.step(1), Action::Listen);
                e.receive(
                    Some(&TaggedMessage::new(phase, TaggedPayload::Ready(4), 11)),
                    1,
                );
                assert_eq!(e.step(2), expected, "{phase:?}, x2 = {x2}");
            }
        }
    }

    #[test]
    fn stay_triggers_retransmission_with_tag_plus_one() {
        // A node that relayed the payload and then hears "stay" retransmits.
        let mut e = BackNode::new(label(true, false, false), None);
        assert_eq!(e.step(1), Action::Listen);
        e.receive(Some(&data(1)), 1);
        assert_eq!(e.step(2), Action::Listen);
        e.receive(None, 2);
        // Transmits (µ, 3).
        assert!(e.step(3).is_transmit());
        // Round 4: listens and hears ("stay", 4); it must retransmit (µ, 5)
        // in round 5, two rounds after its own transmission.
        assert_eq!(e.step(4), Action::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Stay, 4)),
            4,
        );
        assert_eq!(e.step(5), Action::Transmit(data(5)));
        assert_eq!(e.transmit_rounds, [3, 5]);
    }

    #[test]
    fn ack_forwarding_requires_matching_transmit_round() {
        let mut e = BackNode::new(label(true, false, false), None);
        assert_eq!(e.step(1), Action::Listen);
        e.receive(Some(&data(1)), 1);
        assert_eq!(e.step(2), Action::Listen);
        e.receive(None, 2);
        assert!(e.step(3).is_transmit()); // transmits (µ, 3)
                                          // Round 4: hears an ack for a round it did not transmit in: ignored.
        assert_eq!(e.step(4), Action::Listen);
        e.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 7, None)), 4);
        assert_eq!(e.step(5), Action::Listen);
        e.receive(None, 5);
        assert_eq!(e.step(6), Action::Listen);
        // Ack for round 3 (its transmit round): forwarded with its own
        // informed round and the extra copied through.
        e.receive(
            Some(&TaggedMessage::ack_with_extra(Phase::One, 3, Some(42))),
            6,
        );
        assert_eq!(
            e.step(7),
            Action::Transmit(TaggedMessage::ack_with_extra(Phase::One, 1, Some(42)))
        );
    }

    #[test]
    fn source_records_but_does_not_forward_acks() {
        let mut e = BackNode::new(label(false, false, false), Some(5));
        assert!(e.step(1).is_transmit()); // (µ, 1)
                                          // Hears an ack for a round it did not transmit in: recorded as
                                          // heard, not final.
        assert_eq!(e.step(2), Action::Listen);
        e.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 9, None)), 2);
        assert_eq!(e.first_ack_heard, Some((9, None)));
        assert_eq!(e.final_ack(), None);
        assert_eq!(e.step(3), Action::Listen);
        e.receive(
            Some(&TaggedMessage::ack_with_extra(Phase::One, 1, Some(3))),
            3,
        );
        assert_eq!(e.final_ack(), Some((1, Some(3))));
        // Still never forwards.
        assert_eq!(e.step(4), Action::Listen);
    }

    #[test]
    fn uninformed_node_ignores_stay_and_ack() {
        let mut e = BackNode::new(label(true, true, false), None);
        assert_eq!(e.step(1), Action::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Stay, 2)),
            1,
        );
        assert!(!e.is_informed());
        assert_eq!(e.step(2), Action::Listen);
        e.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 2, None)), 2);
        assert!(!e.is_informed());
        assert_eq!(e.step(3), Action::Listen);
    }

    #[test]
    fn zero_label_node_only_learns_payload() {
        let mut e = BackNode::instance(Phase::Three, label(false, false, false), None, false);
        assert_eq!(e.step(1), Action::Listen);
        e.receive(
            Some(&TaggedMessage::new(
                Phase::Three,
                TaggedPayload::Data(77),
                4,
            )),
            1,
        );
        assert_eq!(e.payload(), Some(TaggedPayload::Data(77)));
        for now in 2..8 {
            assert_eq!(e.step(now), Action::Listen);
            e.receive(None, now);
        }
    }
}
