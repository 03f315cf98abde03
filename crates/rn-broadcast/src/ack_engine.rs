//! The reusable state machine implementing the paper's Algorithm 2 for a
//! single broadcast instance.
//!
//! Algorithm B_ack is Algorithm 2 verbatim (one instance, phase 1). Algorithm
//! B_arb runs three consecutive instances of the same machinery — one per
//! phase — so the logic lives here once and is wrapped by
//! [`crate::algo_back::BackNode`] and [`crate::algo_barb::ArbNode`].
//!
//! The engine emits and consumes [`TaggedMessage`]s of **its own phase only**;
//! messages of other phases are ignored (the wrapper routes them to the right
//! engine). Round tags are relative to the instance's own start — the source
//! of the instance tags its first transmission 1. Tags are only derived from
//! and compared with tags of the same instance, so the shifted origin
//! preserves every property the paper needs.

use crate::messages::{Phase, TaggedMessage, TaggedPayload};
use rn_labeling::Label;

/// What the acknowledgement initiator appends to its "ack" message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckExtra {
    /// Append nothing (standalone B_ack).
    None,
    /// Append the initiator's own informed round (B_arb phase 1: `T = t_z`).
    OwnInformedRound,
}

/// The per-node, per-instance state machine of Algorithm 2.
#[derive(Debug, Clone)]
pub struct BackEngine {
    phase: Phase,
    x1: bool,
    x2: bool,
    x3: bool,
    /// Whether this node is the source of this broadcast instance.
    is_source: bool,
    /// Whether an `x3` node should initiate the acknowledgement (true for
    /// B_ack and B_arb phase 1; false for phases 2 and 3).
    x3_initiates_ack: bool,
    ack_extra: AckExtra,
    /// The payload this instance broadcasts; known up-front by the source,
    /// learned from the first broadcast-payload message by everyone else.
    sourcemsg: Option<TaggedPayload>,
    /// The paper's `informedRound` variable (round tag of the first received
    /// broadcast payload). `None` for the source.
    informed_round: Option<u64>,
    /// The local round in which the payload first arrived.
    informed_at: Option<u64>,
    /// The paper's `transmitRounds` variable.
    transmit_rounds: Vec<u64>,
    /// The local round of the last payload transmission.
    last_tx_at: Option<u64>,
    /// The last "stay" heard: `(tag, local round)`.
    stay_at: Option<(u64, u64)>,
    /// The last "ack" heard: `(tag, extra, local round)`.
    ack_at: Option<(u64, Option<u64>, u64)>,
    ever_acted: bool,
    enabled: bool,
    /// First acknowledgement heard by the source (any tag) — the quantity
    /// bounded by Theorem 3.9.
    first_ack_heard: Option<(u64, Option<u64>)>,
    /// First acknowledgement heard by the source whose tag belongs to the
    /// source's own `transmitRounds` — receiving it means the acknowledgement
    /// chain has fully terminated (used as the phase gate in B_arb).
    final_ack: Option<(u64, Option<u64>)>,
}

/// What the engine wants to do this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineAction {
    /// Stay silent and listen.
    Listen,
    /// Transmit this message.
    Transmit(TaggedMessage),
}

impl BackEngine {
    /// Creates the engine for one node of one broadcast instance.
    ///
    /// * `label` supplies the bits `x1 x2 x3`;
    /// * `source_payload` is `Some(p)` iff this node is the instance's source
    ///   and will broadcast payload `p`;
    /// * `x3_initiates_ack` / `ack_extra` configure the acknowledgement
    ///   behaviour as described above;
    /// * a source engine starts disabled unless `enabled` is true — B_arb
    ///   enables phases 2 and 3 only when the previous phase has completed.
    pub fn new(
        phase: Phase,
        label: Label,
        source_payload: Option<TaggedPayload>,
        x3_initiates_ack: bool,
        ack_extra: AckExtra,
        enabled: bool,
    ) -> Self {
        BackEngine {
            phase,
            x1: label.x1(),
            x2: label.x2(),
            x3: label.x3(),
            is_source: source_payload.is_some(),
            x3_initiates_ack,
            ack_extra,
            sourcemsg: source_payload,
            informed_round: None,
            informed_at: None,
            transmit_rounds: Vec::new(),
            last_tx_at: None,
            stay_at: None,
            ack_at: None,
            ever_acted: false,
            enabled,
            first_ack_heard: None,
            final_ack: None,
        }
    }

    /// Enables a source engine that was created disabled (B_arb phase gate).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Replaces the payload a **source** engine will broadcast. B_arb's
    /// coordinator learns the phase-2 timestamp `T` and the phase-3 message µ
    /// only at run time, so those engines are created with placeholder
    /// payloads and updated here just before being enabled.
    ///
    /// # Panics
    /// Panics if called on a non-source engine or after the source has
    /// already transmitted.
    pub fn set_source_payload(&mut self, payload: TaggedPayload) {
        assert!(self.is_source, "only source engines carry a payload to set");
        assert!(
            !self.ever_acted,
            "cannot change the payload after the source transmitted"
        );
        self.sourcemsg = Some(payload);
    }

    /// Whether this engine's source has been enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the node knows this instance's payload.
    pub fn is_informed(&self) -> bool {
        self.sourcemsg.is_some()
    }

    /// The payload this node knows for this instance, if any.
    pub fn payload(&self) -> Option<TaggedPayload> {
        self.sourcemsg
    }

    /// The paper's `informedRound` (round tag of first reception); `None` for
    /// the source and for uninformed nodes.
    pub fn informed_round(&self) -> Option<u64> {
        self.informed_round
    }

    /// First acknowledgement heard by the source: `(tag, extra)`.
    pub fn first_ack_heard(&self) -> Option<(u64, Option<u64>)> {
        self.first_ack_heard
    }

    /// The chain-terminating acknowledgement heard by the source (its tag is
    /// one of the source's own transmit rounds): `(tag, extra)`.
    pub fn final_ack(&self) -> Option<(u64, Option<u64>)> {
        self.final_ack
    }

    /// The rounds (tags) in which this node transmitted the broadcast payload.
    pub fn transmit_rounds(&self) -> &[u64] {
        &self.transmit_rounds
    }

    /// Folds every field of the engine into `d` — the shared body of the
    /// `state_digest` implementations of `BackNode` and `ArbNode` (which
    /// carries three engines).
    pub(crate) fn digest_into(&self, d: rn_radio::Digest) -> rn_radio::Digest {
        fn payload_words(p: Option<TaggedPayload>) -> (u64, u64) {
            match p {
                None => (0, 0),
                Some(TaggedPayload::Data(m)) => (1, m),
                Some(TaggedPayload::Init) => (2, 0),
                Some(TaggedPayload::Ready(t)) => (3, t),
                Some(TaggedPayload::Stay) => (4, 0),
                Some(TaggedPayload::Ack) => (5, 0),
            }
        }
        fn pair(d: rn_radio::Digest, p: Option<(u64, u64)>) -> rn_radio::Digest {
            match p {
                None => d.word(0),
                Some((a, b)) => d.word(1).word(a).word(b),
            }
        }
        fn tagged(d: rn_radio::Digest, p: Option<(u64, Option<u64>)>) -> rn_radio::Digest {
            match p {
                None => d.word(0),
                Some((a, b)) => d.word(1).word(a).opt(b),
            }
        }
        let (pk, pv) = payload_words(self.sourcemsg);
        let d = d
            .word(match self.phase {
                Phase::One => 1,
                Phase::Two => 2,
                Phase::Three => 3,
            })
            .flag(self.x1)
            .flag(self.x2)
            .flag(self.x3)
            .flag(self.is_source)
            .flag(self.x3_initiates_ack)
            .word(match self.ack_extra {
                AckExtra::None => 0,
                AckExtra::OwnInformedRound => 1,
            })
            .word(pk)
            .word(pv)
            .opt(self.informed_round)
            .opt(self.informed_at)
            .words(&self.transmit_rounds)
            .opt(self.last_tx_at);
        let d = pair(d, self.stay_at);
        let d = match self.ack_at {
            None => d.word(0),
            Some((a, b, c)) => d.word(1).word(a).opt(b).word(c),
        };
        let d = d.flag(self.ever_acted).flag(self.enabled);
        tagged(tagged(d, self.first_ack_heard), self.final_ack)
    }

    /// Decides the action of local round `now`.
    pub fn step(&mut self, now: u64) -> EngineAction {
        if self.is_source && self.enabled && !self.ever_acted {
            // Algorithm 2, lines 4-5: the source transmits (µ, 1) in its
            // first active round.
            let payload = self.sourcemsg.expect("source knows its payload");
            return self.transmit_payload(payload, 1, now);
        }
        if self.sourcemsg.is_none() {
            // Lines 6-10: uninformed nodes listen.
            return EngineAction::Listen;
        }
        // Lines 11-33. Each rule compares the age of an event, `now` minus
        // its timestamp, with 1 or 2.
        let informed_age = self.informed_at.map(|t| now - t);
        if informed_age == Some(2) {
            // Lines 12-16.
            if self.x1 {
                let tag = self.informed_round.expect("informed non-source") + 2;
                let payload = self.sourcemsg.expect("informed");
                return self.transmit_payload(payload, tag, now);
            }
        } else if informed_age == Some(1) {
            // Lines 17-22.
            if self.x3 && self.x3_initiates_ack {
                let k = self.informed_round.expect("informed non-source");
                let extra = match self.ack_extra {
                    AckExtra::None => None,
                    AckExtra::OwnInformedRound => Some(k),
                };
                self.ever_acted = true;
                return EngineAction::Transmit(TaggedMessage::ack_with_extra(self.phase, k, extra));
            } else if self.x2 {
                let k = self.informed_round.expect("informed non-source");
                self.ever_acted = true;
                return EngineAction::Transmit(TaggedMessage::new(
                    self.phase,
                    TaggedPayload::Stay,
                    k + 1,
                ));
            }
        } else if let Some((k, _)) = self.stay_at.filter(|&(_, t)| now - t == 1) {
            // Lines 23-27.
            if self.last_tx_at.map(|t| now - t) == Some(2) {
                let payload = self.sourcemsg.expect("informed");
                return self.transmit_payload(payload, k + 1, now);
            }
        } else if let Some((k, extra, _)) = self.ack_at.filter(|&(_, _, t)| now - t == 1) {
            // Lines 28-32. The source never forwards (its transmitRounds is
            // treated as null by the paper); it records the acknowledgement
            // instead (see `receive`).
            if !self.is_source && self.transmit_rounds.contains(&k) {
                let my_round = self
                    .informed_round
                    .expect("a forwarding node received the payload earlier");
                self.ever_acted = true;
                return EngineAction::Transmit(TaggedMessage::ack_with_extra(
                    self.phase, my_round, extra,
                ));
            }
        }
        EngineAction::Listen
    }

    /// Processes a message (or silence) heard in local round `now` for this
    /// instance. Messages of other phases must not be passed here; the
    /// wrapper filters them.
    pub fn receive(&mut self, heard: Option<&TaggedMessage>, now: u64) {
        let Some(msg) = heard else { return };
        debug_assert_eq!(msg.phase, self.phase, "wrapper must filter phases");
        match msg.payload {
            p if p.is_broadcast_payload() => {
                self.ever_acted = true;
                if self.sourcemsg.is_none() {
                    // Lines 7-10.
                    self.sourcemsg = Some(p);
                    self.informed_round = Some(msg.tag);
                    self.informed_at = Some(now);
                }
            }
            TaggedPayload::Stay => {
                if self.sourcemsg.is_some() {
                    self.ever_acted = true;
                    self.stay_at = Some((msg.tag, now));
                }
            }
            TaggedPayload::Ack => {
                if self.sourcemsg.is_some() {
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
            _ => unreachable!("all payload kinds handled"),
        }
    }

    /// The first local round after `now` in which a rule of
    /// [`step`](Self::step) may fire, or `None` when only a reception can
    /// make one fire: every rule fires one or two rounds after something
    /// the node heard or sent, or in an enabled source's first round. The
    /// engine's state changes only when a rule fires or a message arrives,
    /// so until then it is frozen.
    pub(crate) fn next_rule_round(&self, now: u64) -> Option<u64> {
        if self.is_source && self.enabled && !self.ever_acted {
            return Some(now + 1);
        }
        let stay_rule = self
            .last_tx_at
            .filter(|&t| self.stay_at.is_some_and(|(_, s)| s == t + 1))
            .map(|t| t + 2);
        let speaks_at_one = self.x2 || (self.x3 && self.x3_initiates_ack);
        [
            self.informed_at.filter(|_| speaks_at_one).map(|t| t + 1),
            self.informed_at.filter(|_| self.x1).map(|t| t + 2),
            stay_rule,
            self.ack_at.map(|(_, _, t)| t + 1),
        ]
        .into_iter()
        .flatten()
        .filter(|&t| t > now)
        .min()
    }

    fn transmit_payload(&mut self, payload: TaggedPayload, tag: u64, now: u64) -> EngineAction {
        self.ever_acted = true;
        self.transmit_rounds.push(tag);
        self.last_tx_at = Some(now);
        EngineAction::Transmit(TaggedMessage::new(self.phase, payload, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(x1: bool, x2: bool, x3: bool) -> Label {
        Label::three_bits(x1, x2, x3)
    }

    #[test]
    fn source_transmits_payload_tagged_one() {
        let mut e = BackEngine::new(
            Phase::One,
            label(false, false, false),
            Some(TaggedPayload::Data(7)),
            true,
            AckExtra::None,
            true,
        );
        match e.step(1) {
            EngineAction::Transmit(m) => {
                assert_eq!(m.payload, TaggedPayload::Data(7));
                assert_eq!(m.tag, 1);
                assert_eq!(m.phase, Phase::One);
            }
            EngineAction::Listen => panic!("source must transmit"),
        }
        // Only once.
        assert_eq!(e.step(2), EngineAction::Listen);
        assert_eq!(e.transmit_rounds(), &[1]);
    }

    #[test]
    fn disabled_source_waits_for_enable() {
        let mut e = BackEngine::new(
            Phase::Two,
            label(false, false, false),
            Some(TaggedPayload::Ready(5)),
            false,
            AckExtra::None,
            false,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        assert_eq!(e.step(2), EngineAction::Listen);
        assert!(!e.is_enabled());
        e.enable();
        match e.step(3) {
            EngineAction::Transmit(m) => assert_eq!(m.payload, TaggedPayload::Ready(5)),
            EngineAction::Listen => panic!("enabled source must transmit"),
        }
    }

    #[test]
    fn x1_node_relays_with_incremented_tag() {
        let mut e = BackEngine::new(
            Phase::One,
            label(true, false, false),
            None,
            true,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(9), 3)),
            1,
        );
        assert_eq!(e.informed_round(), Some(3));
        assert_eq!(e.step(2), EngineAction::Listen); // age 1, x2 = 0
        e.receive(None, 2);
        match e.step(3) {
            EngineAction::Transmit(m) => {
                assert_eq!(m.payload, TaggedPayload::Data(9));
                assert_eq!(m.tag, 5);
            }
            EngineAction::Listen => panic!("x1 node must relay two rounds later"),
        }
        assert_eq!(e.transmit_rounds(), &[5]);
    }

    #[test]
    fn x2_node_sends_stay_with_tag_plus_one() {
        let mut e = BackEngine::new(
            Phase::One,
            label(false, true, false),
            None,
            true,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(9), 7)),
            1,
        );
        match e.step(2) {
            EngineAction::Transmit(m) => {
                assert_eq!(m.payload, TaggedPayload::Stay);
                assert_eq!(m.tag, 8);
            }
            EngineAction::Listen => panic!("x2 node must send stay"),
        }
    }

    #[test]
    fn x3_node_initiates_ack_with_extra() {
        let mut e = BackEngine::new(
            Phase::One,
            label(false, false, true),
            None,
            true,
            AckExtra::OwnInformedRound,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(9), 11)),
            1,
        );
        match e.step(2) {
            EngineAction::Transmit(m) => {
                assert_eq!(m.payload, TaggedPayload::Ack);
                assert_eq!(m.tag, 11);
                assert_eq!(m.extra, Some(11));
            }
            EngineAction::Listen => panic!("x3 node must initiate the ack"),
        }
    }

    #[test]
    fn x3_node_does_not_ack_when_disabled() {
        let mut e = BackEngine::new(
            Phase::Two,
            label(false, false, true),
            None,
            false,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::Two, TaggedPayload::Ready(4), 11)),
            1,
        );
        assert_eq!(e.step(2), EngineAction::Listen);
    }

    #[test]
    fn stay_triggers_retransmission_with_tag_plus_one() {
        // A node that relayed the payload and then hears "stay" retransmits.
        let mut e = BackEngine::new(
            Phase::One,
            label(true, false, false),
            None,
            true,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(9), 1)),
            1,
        );
        assert_eq!(e.step(2), EngineAction::Listen);
        e.receive(None, 2);
        // Transmits (µ, 3).
        assert!(matches!(e.step(3), EngineAction::Transmit(_)));
        // Round 4: listens and hears ("stay", 4); it must retransmit (µ, 5)
        // in round 5, two rounds after its own transmission.
        assert_eq!(e.step(4), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Stay, 4)),
            4,
        );
        match e.step(5) {
            EngineAction::Transmit(m) => {
                assert_eq!(m.payload, TaggedPayload::Data(9));
                assert_eq!(m.tag, 5);
            }
            EngineAction::Listen => panic!("stay must trigger retransmission"),
        }
        assert_eq!(e.transmit_rounds(), &[3, 5]);
    }

    #[test]
    fn ack_forwarding_requires_matching_transmit_round() {
        let mut e = BackEngine::new(
            Phase::One,
            label(true, false, false),
            None,
            true,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Data(9), 1)),
            1,
        );
        assert_eq!(e.step(2), EngineAction::Listen);
        e.receive(None, 2);
        assert!(matches!(e.step(3), EngineAction::Transmit(_))); // transmits (µ, 3)
                                                                 // Round 4: hears an ack for a round it did not transmit in: ignored.
        assert_eq!(e.step(4), EngineAction::Listen);
        e.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 7, None)), 4);
        assert_eq!(e.step(5), EngineAction::Listen);
        e.receive(None, 5);
        assert_eq!(e.step(6), EngineAction::Listen);
        // Ack for round 3 (its transmit round): forwarded with its own
        // informed round and the extra copied through.
        e.receive(
            Some(&TaggedMessage::ack_with_extra(Phase::One, 3, Some(42))),
            6,
        );
        match e.step(7) {
            EngineAction::Transmit(m) => {
                assert_eq!(m.payload, TaggedPayload::Ack);
                assert_eq!(m.tag, 1);
                assert_eq!(m.extra, Some(42));
            }
            EngineAction::Listen => panic!("matching ack must be forwarded"),
        }
    }

    #[test]
    fn source_records_but_does_not_forward_acks() {
        let mut e = BackEngine::new(
            Phase::One,
            label(false, false, false),
            Some(TaggedPayload::Data(5)),
            true,
            AckExtra::None,
            true,
        );
        assert!(matches!(e.step(1), EngineAction::Transmit(_))); // (µ, 1)
                                                                 // Hears an ack for a round it did not transmit in: recorded as heard,
                                                                 // not final.
        assert_eq!(e.step(2), EngineAction::Listen);
        e.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 9, None)), 2);
        assert_eq!(e.first_ack_heard(), Some((9, None)));
        assert_eq!(e.final_ack(), None);
        assert_eq!(e.step(3), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::ack_with_extra(Phase::One, 1, Some(3))),
            3,
        );
        assert_eq!(e.final_ack(), Some((1, Some(3))));
        // Still never forwards.
        assert_eq!(e.step(4), EngineAction::Listen);
    }

    #[test]
    fn uninformed_node_ignores_stay_and_ack() {
        let mut e = BackEngine::new(
            Phase::One,
            label(true, true, false),
            None,
            true,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
        e.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Stay, 2)),
            1,
        );
        assert!(!e.is_informed());
        assert_eq!(e.step(2), EngineAction::Listen);
        e.receive(Some(&TaggedMessage::ack_with_extra(Phase::One, 2, None)), 2);
        assert!(!e.is_informed());
        assert_eq!(e.step(3), EngineAction::Listen);
    }

    #[test]
    fn zero_label_node_only_learns_payload() {
        let mut e = BackEngine::new(
            Phase::Three,
            label(false, false, false),
            None,
            false,
            AckExtra::None,
            true,
        );
        assert_eq!(e.step(1), EngineAction::Listen);
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
            assert_eq!(e.step(now), EngineAction::Listen);
            e.receive(None, now);
        }
    }
}
