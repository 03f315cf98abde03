//! **Algorithm B_arb** — §4.2 of the paper: (acknowledged) broadcast when the
//! source node is not known at labeling time, driven by the 3-bit λ_arb
//! labels.
//!
//! The unique node labeled `111` is the **coordinator** `r` chosen by λ_arb.
//! The algorithm runs three phases, all orchestrated by `r`:
//!
//! 1. **Initialize** — an acknowledged broadcast (Algorithm 2) from `r` with
//!    payload "initialize". Every node `v` records the timestamp `t_v` of the
//!    first "initialize" message it hears; the acknowledgement initiator `z`
//!    appends `T = t_z` to its ack, so when the chain reaches `r` the
//!    coordinator knows `T` (an upper bound on the broadcast duration) and
//!    knows everyone has been reached.
//! 2. **Ready** — an acknowledged broadcast from `r` with payload
//!    `("ready", T)`, except that `z` stays silent; instead the *actual
//!    source* `s_G`, after hearing "ready", waits `T` rounds (so the ready
//!    broadcast has surely finished) and then starts the acknowledgement
//!    chain with the source message µ appended. When the chain reaches `r`,
//!    the coordinator knows µ.
//! 3. **Broadcast** — a plain broadcast (Algorithm B) from `r` with payload
//!    µ. Every node that waits `T − t_v` rounds after receiving µ knows that
//!    everyone else has received it too, so the algorithm also solves
//!    acknowledged broadcast.
//!
//! Implementation notes: phases are carried explicitly inside
//! messages; round tags are phase-relative; the coordinator advances to the
//! next phase upon the chain-terminating ack (whose tag is one of its own
//! transmit rounds), which guarantees no phase-1 ack forwarding is still in
//! flight when phase 2 starts; and if the coordinator itself holds µ, phase 2
//! is skipped (it would otherwise never terminate, and it has nothing to
//! learn).

use crate::algo_back::BackNode;
use crate::messages::{Phase, SourceMessage, TaggedMessage, TaggedPayload};
use rn_labeling::{lambda_arb, Label, Labeling};
use rn_radio::{hint_until, Action, RadioNode};

/// The per-node state machine of Algorithm B_arb.
#[derive(Debug, Clone)]
pub struct ArbNode {
    is_coordinator: bool,
    /// The source message, if this node is the original source s_G.
    original_message: Option<SourceMessage>,
    /// One Algorithm 2 instance per phase, indexed by `Phase as usize`.
    phases: [BackNode; 3],
    /// Timestamp of the first "initialize" message (t_v); 0 for the
    /// coordinator.
    t_v: Option<u64>,
    /// The timestamp bound T learned from the "ready" broadcast (or, for the
    /// coordinator, from the phase-1 ack).
    t_bound: Option<u64>,
    /// The local round in which the source starts the phase-2
    /// acknowledgement.
    source_ack_at: Option<u64>,
    /// Whether the source already started the phase-2 acknowledgement.
    source_ack_sent: bool,
    /// Coordinator-side deadline used only when the coordinator itself holds
    /// µ: phase 3 starts once the "ready" broadcast has surely finished,
    /// since no phase-2 acknowledgement will ever be initiated.
    phase3_start_at: Option<u64>,
    /// The local round (after receiving µ in phase 3) in which this node
    /// knows the broadcast has completed everywhere.
    completion_at: Option<u64>,
    /// Whether this node knows the broadcast has completed everywhere.
    knows_completion: bool,
}

impl ArbNode {
    /// Creates the state machine for one node. `message` is `Some(µ)` for the
    /// actual source s_G and `None` for everyone else; the coordinator is
    /// recognised from its `111` label.
    pub fn new(label: Label, message: Option<SourceMessage>) -> Self {
        let is_coordinator = label == lambda_arb::coordinator_label();
        let source = |payload| is_coordinator.then_some(payload);
        ArbNode {
            is_coordinator,
            original_message: message,
            // The coordinator sources every phase. Phases 2 and 3 start
            // with placeholder payloads; it fills them in when it learns T
            // (phase 2) and µ (phase 3). Phase 1's acknowledgement carries
            // T = t_z.
            phases: [
                BackNode::instance(Phase::One, label, source(TaggedPayload::Init), true),
                BackNode::instance(Phase::Two, label, source(TaggedPayload::Ready(0)), false),
                BackNode::instance(Phase::Three, label, source(TaggedPayload::Data(0)), false),
            ],
            t_v: is_coordinator.then_some(0),
            t_bound: None,
            source_ack_at: None,
            source_ack_sent: false,
            phase3_start_at: None,
            completion_at: None,
            knows_completion: false,
        }
    }

    /// Builds the protocol instances for a whole λ_arb-labeled network with
    /// the actual source `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(labeling: &Labeling, source: usize, message: SourceMessage) -> Vec<ArbNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                ArbNode::new(
                    labeling.get(v),
                    if v == source { Some(message) } else { None },
                )
            })
            .collect()
    }

    /// Whether this node is the coordinator `r` (label `111`).
    pub fn is_coordinator(&self) -> bool {
        self.is_coordinator
    }

    /// The source message this node knows, from whichever phase taught it.
    pub fn learned_message(&self) -> Option<SourceMessage> {
        if let Some(m) = self.original_message {
            return Some(m);
        }
        let [_, phase2, phase3] = &self.phases;
        if let Some(TaggedPayload::Data(m)) = phase3.payload() {
            return Some(m);
        }
        // The coordinator learns µ from the phase-2 ack before phase 3.
        if self.is_coordinator {
            if let Some((_, Some(m))) = phase2.final_ack() {
                return Some(m);
            }
        }
        None
    }

    /// The timestamp `t_v` recorded in phase 1 (0 for the coordinator).
    pub fn t_v(&self) -> Option<u64> {
        self.t_v
    }

    /// The bound `T` this node knows (from the phase-1 ack for the
    /// coordinator, from the "ready" message for everyone else).
    pub fn t_bound(&self) -> Option<u64> {
        self.t_bound
    }

    /// Whether the node knows the whole broadcast has completed (the
    /// acknowledged-broadcast guarantee of §4.2).
    pub fn knows_completion(&self) -> bool {
        self.knows_completion
    }

    /// The deadline of a countdown of `rounds` rounds started in local round
    /// `now`: a countdown counts its first round too, so it fires in round
    /// `now + rounds − 1`.
    fn deadline(now: u64, rounds: u64) -> u64 {
        now + rounds - 1
    }

    /// Coordinator-side bookkeeping executed at the start of every round:
    /// advance phases when the previous phase's terminating ack has arrived.
    fn advance_phases(&mut self, now: u64) {
        if !self.is_coordinator {
            return;
        }
        let [phase1, phase2, phase3] = &mut self.phases;
        if !phase2.is_enabled() && !phase3.is_enabled() {
            if let Some((_, extra)) = phase1.final_ack() {
                let t = extra.expect("phase-1 ack carries T = t_z");
                self.t_bound = Some(t);
                phase2.start(TaggedPayload::Ready(t));
                if self.original_message.is_some() {
                    // The coordinator already holds µ, so nobody will initiate
                    // the phase-2 acknowledgement (the source never *receives*
                    // "ready"). Phase 2 still runs so every node learns T;
                    // phase 3 starts once the ready broadcast has surely
                    // finished (T rounds plus slack).
                    self.phase3_start_at = Some(Self::deadline(now, t + 2));
                }
            }
        } else if phase2.is_enabled() && !phase3.is_enabled() {
            if let Some((_, extra)) = phase2.final_ack() {
                let m = extra.expect("phase-2 ack carries µ");
                phase3.start(TaggedPayload::Data(m));
                // The coordinator (t_r = 0) knows completion T rounds after
                // it starts the final broadcast.
                let t = self.t_bound.expect("T known");
                self.completion_at = Some(Self::deadline(now, t + 1));
            }
        }
    }

    /// Non-coordinator bookkeeping: record t_v, T, the source's delayed
    /// acknowledgement, and the completion deadline.
    fn update_local_knowledge(&mut self, now: u64) {
        let [phase1, phase2, phase3] = &self.phases;
        if self.t_v.is_none() {
            self.t_v = phase1.informed_round();
        }
        if self.t_bound.is_none() {
            if let Some(TaggedPayload::Ready(t)) = phase2.payload() {
                self.t_bound = Some(t);
            }
        }
        // The actual source schedules its phase-2 acknowledgement T rounds
        // after hearing "ready".
        if self.original_message.is_some()
            && !self.is_coordinator
            && !self.source_ack_sent
            && self.source_ack_at.is_none()
        {
            if let (Some(t), Some(_)) = (self.t_bound, phase2.informed_round()) {
                self.source_ack_at = Some(Self::deadline(now, t + 1));
            }
        }
        // Completion: T - t_v rounds after receiving µ in phase 3.
        if self.completion_at.is_none()
            && !self.knows_completion
            && phase3.is_informed()
            && !self.is_coordinator
        {
            if let (Some(t), Some(tv)) = (self.t_bound, self.t_v) {
                self.completion_at = Some(Self::deadline(now, t.saturating_sub(tv) + 1));
            }
        }
    }

    /// Whether [`advance_phases`](Self::advance_phases) or
    /// [`update_local_knowledge`](Self::update_local_knowledge) would
    /// change anything if run now: a coordinator phase switch waiting on a
    /// final ack, or a `t_v`, `T`, source acknowledgement deadline or
    /// completion deadline that is due but not yet recorded.
    fn bookkeeping_due(&self) -> bool {
        let [phase1, phase2, phase3] = &self.phases;
        let phase_switch = self.is_coordinator
            && !phase3.is_enabled()
            && if phase2.is_enabled() {
                phase2.final_ack().is_some()
            } else {
                phase1.final_ack().is_some()
            };
        let t_v = self.t_v.is_none() && phase1.informed_round().is_some();
        let t_bound =
            self.t_bound.is_none() && matches!(phase2.payload(), Some(TaggedPayload::Ready(_)));
        let source_ack = self.original_message.is_some()
            && !self.is_coordinator
            && !self.source_ack_sent
            && self.source_ack_at.is_none()
            && self.t_bound.is_some()
            && phase2.informed_round().is_some();
        let completion = self.completion_at.is_none()
            && !self.knows_completion
            && phase3.is_informed()
            && !self.is_coordinator
            && self.t_bound.is_some()
            && self.t_v.is_some();
        phase_switch || t_v || t_bound || source_ack || completion
    }

    /// Fires the deadlines that fall in local round `now`, in the order
    /// the phases need: the coordinator's phase-3 start (which sets the
    /// completion deadline it may meet in the same round), completion,
    /// and the source's delayed acknowledgement, which it returns.
    fn deadlines(&mut self, now: u64) -> Option<TaggedMessage> {
        // Coordinator-holds-µ special case: start phase 3 once the ready
        // broadcast has surely finished.
        if self.phase3_start_at == Some(now) {
            self.phase3_start_at = None;
            let m = self
                .original_message
                .expect("only the source-coordinator waits");
            self.phases[Phase::Three as usize].start(TaggedPayload::Data(m));
            let t = self.t_bound.expect("T known");
            self.completion_at = Some(Self::deadline(now, t + 1));
        }
        if self.completion_at == Some(now) {
            self.completion_at = None;
            self.knows_completion = true;
        }
        // Source-side delayed acknowledgement.
        if self.source_ack_at == Some(now) {
            self.source_ack_at = None;
            self.source_ack_sent = true;
            let k = self.phases[Phase::Two as usize]
                .informed_round()
                .expect("the source heard the ready broadcast");
            return Some(TaggedMessage::ack_with_extra(
                Phase::Two,
                k,
                Some(self.original_message.expect("only the source acks with µ")),
            ));
        }
        None
    }
}

impl RadioNode for ArbNode {
    type Msg = TaggedMessage;

    fn step(&mut self, now: u64) -> Action<TaggedMessage> {
        self.advance_phases(now);
        self.update_local_knowledge(now);

        let special = self.deadlines(now);

        // Step every phase on the node's clock. The phases never overlap,
        // so at most one of them (or the special source acknowledgement)
        // asks to transmit; prefer the latest phase for robustness.
        let [phase1, phase2, phase3] = &mut self.phases;
        let (a1, a2, a3) = (phase1.step(now), phase2.step(now), phase3.step(now));
        if a3.is_transmit() {
            return a3;
        }
        if let Some(m) = special {
            return Action::Transmit(m);
        }
        if a2.is_transmit() {
            return a2;
        }
        a1
    }

    /// Sleeps until the next round in which `step` does something: the
    /// next round when bookkeeping is due, else the earliest of the three
    /// phases' rule rounds and the pending deadlines. With none pending
    /// the node parks until it hears something. A node waiting out its
    /// completion deadline sleeps through the whole wait.
    fn wake_hint(&self, now: u64) -> u64 {
        if self.bookkeeping_due() {
            return 0;
        }
        let [phase1, phase2, phase3] = &self.phases;
        let next = [
            phase1.next_rule_round(now),
            phase2.next_rule_round(now),
            phase3.next_rule_round(now),
            self.phase3_start_at,
            self.completion_at,
            self.source_ack_at,
        ]
        .into_iter()
        .flatten()
        .min();
        hint_until(next, now)
    }

    fn receive(&mut self, heard: Option<&TaggedMessage>, now: u64) {
        let Some(msg) = heard else { return };
        self.phases[msg.phase as usize].receive(Some(msg), now);
    }

    fn state_digest(&self) -> u64 {
        let d = rn_radio::Digest::new(0xA4B)
            .flag(self.is_coordinator)
            .opt(self.original_message)
            .opt(self.t_v)
            .opt(self.t_bound)
            .opt(self.source_ack_at)
            .flag(self.source_ack_sent)
            .opt(self.phase3_start_at)
            .opt(self.completion_at)
            .flag(self.knows_completion);
        let d = self.phases.iter().fold(d, |d, phase| phase.digest_into(d));
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_radio::{Simulator, StopCondition};

    const MSG: SourceMessage = 4242;

    fn run_barb(
        g: rn_graph::Graph,
        coordinator: usize,
        source: usize,
        cap: u64,
    ) -> Simulator<ArbNode> {
        let scheme = lambda_arb::construct_with_coordinator(
            &g,
            coordinator,
            rn_graph::algorithms::ReductionOrder::Forward,
        )
        .unwrap();
        let nodes = ArbNode::network(scheme.labeling(), source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(cap), |s| {
            s.nodes()
                .iter()
                .all(|n| n.learned_message() == Some(MSG) && n.knows_completion())
        });
        sim
    }

    #[test]
    fn arbitrary_source_broadcast_on_a_path() {
        let g = generators::path(8);
        let sim = run_barb(g, 0, 5, 400);
        for (v, node) in sim.nodes().iter().enumerate() {
            assert_eq!(node.learned_message(), Some(MSG), "node {v}");
            assert!(node.knows_completion(), "node {v}");
        }
    }

    #[test]
    fn works_when_source_is_far_from_coordinator() {
        let g = generators::grid(4, 4);
        let sim = run_barb(g, 0, 15, 600);
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()));
    }

    #[test]
    fn works_when_coordinator_is_the_source() {
        let g = generators::cycle(9);
        let sim = run_barb(g, 3, 3, 400);
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()));
    }

    #[test]
    fn works_when_source_is_adjacent_to_coordinator() {
        let g = generators::star(7);
        let sim = run_barb(g, 0, 3, 300);
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()));
    }

    #[test]
    fn every_source_position_works_on_a_small_graph() {
        let g = generators::cycle(6);
        for source in 0..6 {
            let sim = run_barb(g.clone(), 0, source, 400);
            assert!(
                sim.nodes()
                    .iter()
                    .all(|n| n.learned_message() == Some(MSG) && n.knows_completion()),
                "source {source}"
            );
        }
    }

    #[test]
    fn coordinator_learns_t_and_message() {
        let g = generators::path(7);
        let sim = run_barb(g, 0, 6, 400);
        let coord = &sim.nodes()[0];
        assert!(coord.is_coordinator());
        assert!(coord.t_bound().is_some());
        assert_eq!(coord.learned_message(), Some(MSG));
        assert_eq!(coord.t_v(), Some(0));
    }

    #[test]
    fn parked_node_state_is_frozen() {
        // A fresh non-coordinator parks; the coordinator must open phase 1.
        let mut node = ArbNode::new(Label::three_bits(true, true, false), None);
        assert_eq!(node.wake_hint(0), u64::MAX);
        assert_eq!(
            ArbNode::new(lambda_arb::coordinator_label(), None).wake_hint(0),
            0
        );
        // Hearing "initialize" wakes it: it records t_v and relays.
        node.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Init, 3)),
            3,
        );
        assert_eq!(node.wake_hint(3), 0);
        for now in 4..10 {
            node.step(now);
            node.receive(None, now);
        }
        assert_eq!(node.t_v(), Some(3));
        assert_eq!(node.wake_hint(9), u64::MAX);
        // The wake-hint contract: once the hint is MAX, step/receive(None)
        // pairs must not change the node at all.
        let before = format!("{node:?}");
        for now in 10..20 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
        }
        assert_eq!(format!("{node:?}"), before);
    }

    #[test]
    fn counting_down_node_parks_until_its_deadline() {
        // Phase 3 gives every informed node a completion deadline T − t_v + 1
        // rounds out: the node sleeps through the wait, frozen, and wakes
        // in exactly its deadline round.
        let mut node = ArbNode::new(Label::three_bits(false, false, false), None);
        node.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Init, 2)),
            1,
        );
        node.receive(
            Some(&TaggedMessage::new(Phase::Two, TaggedPayload::Ready(6), 2)),
            2,
        );
        node.receive(
            Some(&TaggedMessage::new(
                Phase::Three,
                TaggedPayload::Data(MSG),
                2,
            )),
            3,
        );
        assert_eq!(node.wake_hint(3), 0, "t_v, T and the deadline are due");
        assert_eq!(node.step(4), Action::Listen);
        let hint = node.wake_hint(4);
        assert_eq!(hint, 3, "asleep in rounds 5 to 7");
        let before = node.state_digest();
        for now in 5..5 + hint {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
            assert_eq!(node.state_digest(), before, "round {now}");
        }
        assert!(!node.knows_completion());
        assert_eq!(node.step(8), Action::Listen);
        assert!(node.knows_completion(), "T − t_v + 1 rounds from round 4");
        assert_eq!(node.wake_hint(8), u64::MAX);
    }

    #[test]
    fn source_sleeps_until_its_delayed_acknowledgement() {
        // The actual source hears "ready" and acknowledges T rounds later,
        // with µ appended; it sleeps through the wait.
        let mut node = ArbNode::new(Label::three_bits(false, false, false), Some(MSG));
        node.receive(
            Some(&TaggedMessage::new(Phase::One, TaggedPayload::Init, 1)),
            1,
        );
        node.receive(
            Some(&TaggedMessage::new(Phase::Two, TaggedPayload::Ready(4), 5)),
            6,
        );
        assert_eq!(node.wake_hint(6), 0);
        assert_eq!(node.step(7), Action::Listen);
        assert_eq!(node.wake_hint(7), 3, "acknowledges in round 11");
        assert_eq!(
            node.step(11),
            Action::Transmit(TaggedMessage::ack_with_extra(Phase::Two, 5, Some(MSG)))
        );
        assert_eq!(node.wake_hint(11), u64::MAX);
    }

    #[test]
    fn completion_is_never_declared_before_everyone_has_the_message() {
        // Run round by round and check the safety property at every step.
        let g = generators::gnp_connected(14, 0.2, 3).unwrap();
        let scheme = lambda_arb::construct(&g).unwrap();
        let nodes = ArbNode::network(scheme.labeling(), 7, MSG);
        let mut sim = Simulator::new(g, nodes);
        for _ in 0..500 {
            sim.step_round();
            let anyone_knows_completion = sim.nodes().iter().any(ArbNode::knows_completion);
            if anyone_knows_completion {
                assert!(
                    sim.nodes().iter().all(|n| n.learned_message() == Some(MSG)),
                    "a node declared completion before broadcast finished"
                );
            }
        }
        assert!(sim.nodes().iter().all(ArbNode::knows_completion));
    }
}
