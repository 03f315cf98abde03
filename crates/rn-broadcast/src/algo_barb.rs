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

use crate::ack_engine::{AckExtra, BackEngine, EngineAction};
use crate::messages::{Phase, SourceMessage, TaggedMessage, TaggedPayload};
use rn_labeling::{lambda_arb, Label, Labeling};
use rn_radio::{Action, RadioNode};

/// The per-node state machine of Algorithm B_arb.
#[derive(Debug, Clone)]
pub struct ArbNode {
    is_coordinator: bool,
    /// The source message, if this node is the original source s_G.
    original_message: Option<SourceMessage>,
    phase1: BackEngine,
    phase2: BackEngine,
    phase3: BackEngine,
    /// Timestamp of the first "initialize" message (t_v); 0 for the
    /// coordinator.
    t_v: Option<u64>,
    /// The timestamp bound T learned from the "ready" broadcast (or, for the
    /// coordinator, from the phase-1 ack).
    t_bound: Option<u64>,
    /// Source-side countdown until it starts the phase-2 acknowledgement.
    source_ack_countdown: Option<u64>,
    /// Whether the source already started the phase-2 acknowledgement.
    source_ack_sent: bool,
    /// Coordinator-side countdown used only when the coordinator itself holds
    /// µ: phase 3 starts once the "ready" broadcast has surely finished,
    /// since no phase-2 acknowledgement will ever be initiated.
    phase3_start_countdown: Option<u64>,
    /// Countdown (after receiving µ in phase 3) until this node knows the
    /// broadcast has completed everywhere.
    completion_countdown: Option<u64>,
    /// Whether this node knows the broadcast has completed everywhere.
    knows_completion: bool,
}

impl ArbNode {
    /// Creates the state machine for one node. `message` is `Some(µ)` for the
    /// actual source s_G and `None` for everyone else; the coordinator is
    /// recognised from its `111` label.
    pub fn new(label: Label, message: Option<SourceMessage>) -> Self {
        let is_coordinator = label == lambda_arb::coordinator_label();
        let phase1 = BackEngine::new(
            Phase::One,
            label,
            is_coordinator.then_some(TaggedPayload::Init),
            true,
            AckExtra::OwnInformedRound,
            true,
        );
        // Placeholder payloads; the coordinator fills them in when it learns
        // T (phase 2) and µ (phase 3).
        let phase2 = BackEngine::new(
            Phase::Two,
            label,
            is_coordinator.then_some(TaggedPayload::Ready(0)),
            false,
            AckExtra::None,
            false,
        );
        let phase3 = BackEngine::new(
            Phase::Three,
            label,
            is_coordinator.then_some(TaggedPayload::Data(0)),
            false,
            AckExtra::None,
            false,
        );
        ArbNode {
            is_coordinator,
            original_message: message,
            phase1,
            phase2,
            phase3,
            t_v: is_coordinator.then_some(0),
            t_bound: None,
            source_ack_countdown: None,
            source_ack_sent: false,
            phase3_start_countdown: None,
            completion_countdown: None,
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
        if let Some(TaggedPayload::Data(m)) = self.phase3.payload() {
            return Some(m);
        }
        // The coordinator learns µ from the phase-2 ack before phase 3.
        if self.is_coordinator {
            if let Some((_, Some(m))) = self.phase2.final_ack() {
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

    /// Coordinator-side bookkeeping executed at the start of every round:
    /// advance phases when the previous phase's terminating ack has arrived.
    fn advance_phases(&mut self) {
        if !self.is_coordinator {
            return;
        }
        if !self.phase2.is_enabled() && !self.phase3.is_enabled() {
            if let Some((_, extra)) = self.phase1.final_ack() {
                let t = extra.expect("phase-1 ack carries T = t_z");
                self.t_bound = Some(t);
                self.phase2.set_source_payload(TaggedPayload::Ready(t));
                self.phase2.enable();
                if self.original_message.is_some() {
                    // The coordinator already holds µ, so nobody will initiate
                    // the phase-2 acknowledgement (the source never *receives*
                    // "ready"). Phase 2 still runs so every node learns T;
                    // phase 3 starts once the ready broadcast has surely
                    // finished (T rounds plus slack).
                    self.phase3_start_countdown = Some(t + 2);
                }
            }
        } else if self.phase2.is_enabled() && !self.phase3.is_enabled() {
            if let Some((_, extra)) = self.phase2.final_ack() {
                let m = extra.expect("phase-2 ack carries µ");
                self.phase3.set_source_payload(TaggedPayload::Data(m));
                self.phase3.enable();
                // The coordinator (t_r = 0) knows completion T rounds after
                // it starts the final broadcast.
                self.completion_countdown = Some(self.t_bound.expect("T known") + 1);
            }
        }
    }

    /// Non-coordinator bookkeeping: record t_v, T, the source's delayed
    /// acknowledgement, and the completion countdown.
    fn update_local_knowledge(&mut self) {
        if self.t_v.is_none() {
            self.t_v = self.phase1.informed_round();
        }
        if self.t_bound.is_none() {
            if let Some(TaggedPayload::Ready(t)) = self.phase2.payload() {
                self.t_bound = Some(t);
            }
        }
        // The actual source schedules its phase-2 acknowledgement T rounds
        // after hearing "ready".
        if self.original_message.is_some()
            && !self.is_coordinator
            && !self.source_ack_sent
            && self.source_ack_countdown.is_none()
        {
            if let (Some(t), Some(_)) = (self.t_bound, self.phase2.informed_round()) {
                self.source_ack_countdown = Some(t + 1);
            }
        }
        // Completion countdown: T - t_v rounds after receiving µ in phase 3.
        if self.completion_countdown.is_none()
            && !self.knows_completion
            && self.phase3.is_informed()
            && !self.is_coordinator
        {
            if let (Some(t), Some(tv)) = (self.t_bound, self.t_v) {
                self.completion_countdown = Some(t.saturating_sub(tv) + 1);
            }
        }
    }

    fn countdowns(&mut self) -> Option<TaggedMessage> {
        // Coordinator-holds-µ special case: start phase 3 once the ready
        // broadcast has surely finished.
        if let Some(c) = &mut self.phase3_start_countdown {
            *c -= 1;
            if *c == 0 {
                self.phase3_start_countdown = None;
                let m = self
                    .original_message
                    .expect("only the source-coordinator waits");
                self.phase3.set_source_payload(TaggedPayload::Data(m));
                self.phase3.enable();
                self.completion_countdown = Some(self.t_bound.expect("T known") + 1);
            }
        }
        // Completion countdown.
        if let Some(c) = &mut self.completion_countdown {
            *c -= 1;
            if *c == 0 {
                self.completion_countdown = None;
                self.knows_completion = true;
            }
        }
        // Source-side delayed acknowledgement.
        if let Some(c) = &mut self.source_ack_countdown {
            *c -= 1;
            if *c == 0 {
                self.source_ack_countdown = None;
                self.source_ack_sent = true;
                let k = self
                    .phase2
                    .informed_round()
                    .expect("the source heard the ready broadcast");
                return Some(TaggedMessage::ack_with_extra(
                    Phase::Two,
                    k,
                    Some(self.original_message.expect("only the source acks with µ")),
                ));
            }
        }
        None
    }
}

impl RadioNode for ArbNode {
    type Msg = TaggedMessage;

    fn step(&mut self) -> Action<TaggedMessage> {
        self.advance_phases();
        self.update_local_knowledge();

        let special = self.countdowns();

        // Step every engine (they track their own local time); collect the
        // transmission requests.
        let a1 = self.phase1.step();
        let a2 = self.phase2.step();
        let a3 = self.phase3.step();

        // The phases never overlap, so at most one engine (or the special
        // source acknowledgement) asks to transmit; prefer the latest phase
        // for robustness.
        if let EngineAction::Transmit(m) = a3 {
            return Action::Transmit(m);
        }
        if let Some(m) = special {
            return Action::Transmit(m);
        }
        if let EngineAction::Transmit(m) = a2 {
            return Action::Transmit(m);
        }
        if let EngineAction::Transmit(m) = a1 {
            return Action::Transmit(m);
        }
        Action::Listen
    }

    fn receive(&mut self, heard: Option<&TaggedMessage>) {
        let Some(msg) = heard else { return };
        match msg.phase {
            Phase::One => self.phase1.receive(Some(msg)),
            Phase::Two => self.phase2.receive(Some(msg)),
            Phase::Three => self.phase3.receive(Some(msg)),
        }
    }

    fn state_digest(&self) -> u64 {
        let d = rn_radio::Digest::new(0xA4B)
            .flag(self.is_coordinator)
            .opt(self.original_message)
            .opt(self.t_v)
            .opt(self.t_bound)
            .opt(self.source_ack_countdown)
            .flag(self.source_ack_sent)
            .opt(self.phase3_start_countdown)
            .opt(self.completion_countdown)
            .flag(self.knows_completion);
        let d = self.phase1.digest_into(d);
        let d = self.phase2.digest_into(d);
        self.phase3.digest_into(d).finish()
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
