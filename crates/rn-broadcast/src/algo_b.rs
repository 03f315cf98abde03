//! **Algorithm B** — the paper's Algorithm 1: universal deterministic
//! broadcast driven by the 2-bit λ labels.
//!
//! Every node runs the same code; its behaviour depends only on its 2-bit
//! label `x1 x2` and on the messages it has heard so far:
//!
//! 1. a node that holds the source message and has never sent or received a
//!    message transmits µ (this is the source, in round 1);
//! 2. an uninformed node listens; the first non-"stay" message it hears
//!    becomes its copy of µ;
//! 3. a node that first received µ two rounds ago transmits µ if `x1 = 1`
//!    (it joins the dominating set);
//! 4. a node that first received µ one round ago transmits "stay" if
//!    `x2 = 1` (it keeps its dominator alive);
//! 5. a node that transmitted µ two rounds ago and received "stay" one round
//!    ago transmits µ again (it stays in the dominating set).
//!
//! Theorem 2.9: on a λ-labeled graph all nodes are informed within `2n − 3`
//! rounds.

use crate::messages::{BMessage, SourceMessage};
use rn_labeling::{Label, Labeling};
use rn_radio::{hint_until, Action, RadioNode};

/// What one of Algorithm B's rules 3–5 makes an informed node send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BRule {
    /// µ: two rounds after first receiving it (`x1`), or two rounds after
    /// sending it when a "stay" came in between.
    Data,
    /// "stay": one round after first receiving µ (`x2`).
    Stay,
}

/// The local rounds of the events Algorithm B's rules 3–5 read. Shared by
/// [`BNode`] and the bundle broadcast of [`crate::multi::MultiNode`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BClock {
    /// The local round in which the node first received µ (`None` for the
    /// source and for uninformed nodes).
    pub(crate) informed_at: Option<u64>,
    /// The local round in which the node last transmitted µ.
    pub(crate) last_tx_at: Option<u64>,
    /// The local round in which the node last received "stay".
    pub(crate) stay_at: Option<u64>,
}

impl BClock {
    /// The rule an informed node with bits `x1 x2` follows in local round
    /// `now`, if any. Each rule compares the age of an event, `now` minus
    /// its timestamp, with 1 or 2.
    pub(crate) fn rule(&self, now: u64, x1: bool, x2: bool) -> Option<BRule> {
        let age = |at: Option<u64>| at.map(|t| now - t);
        match age(self.informed_at) {
            // Lines 9-12.
            Some(2) => x1.then_some(BRule::Data),
            // Lines 13-16.
            Some(1) => x2.then_some(BRule::Stay),
            // Lines 17-19.
            _ => (age(self.last_tx_at) == Some(2) && age(self.stay_at) == Some(1))
                .then_some(BRule::Data),
        }
    }

    /// The first local round after `now` in which [`rule`](Self::rule) may
    /// fire, or `None` when only a reception can make one fire.
    pub(crate) fn next_rule_round(&self, now: u64, x1: bool, x2: bool) -> Option<u64> {
        let retransmit = self
            .last_tx_at
            .filter(|&t| self.stay_at == Some(t + 1))
            .map(|t| t + 2);
        [
            self.informed_at.filter(|_| x2).map(|t| t + 1),
            self.informed_at.filter(|_| x1).map(|t| t + 2),
            retransmit,
        ]
        .into_iter()
        .flatten()
        .filter(|&t| t > now)
        .min()
    }

    /// Folds the three timestamps into `d`.
    pub(crate) fn digest_into(&self, d: rn_radio::Digest) -> rn_radio::Digest {
        d.opt(self.informed_at)
            .opt(self.last_tx_at)
            .opt(self.stay_at)
    }
}

/// The per-node state machine of Algorithm B.
#[derive(Debug, Clone)]
pub struct BNode {
    x1: bool,
    x2: bool,
    /// The paper's `sourcemsg` variable.
    sourcemsg: Option<SourceMessage>,
    /// Whether this node has ever sent or received any message.
    ever_acted: bool,
    clock: BClock,
}

impl BNode {
    /// Creates the state machine for one node. `sourcemsg` is `Some(µ)` for
    /// the source and `None` for everyone else.
    pub fn new(label: Label, sourcemsg: Option<SourceMessage>) -> Self {
        BNode {
            x1: label.x1(),
            x2: label.x2(),
            sourcemsg,
            ever_acted: false,
            clock: BClock::default(),
        }
    }

    /// Builds the protocol instances for a whole labeled network.
    ///
    /// # Panics
    /// Panics if `source` is out of range for the labeling.
    pub fn network(labeling: &Labeling, source: usize, message: SourceMessage) -> Vec<BNode> {
        assert!(source < labeling.node_count(), "source out of range");
        (0..labeling.node_count())
            .map(|v| {
                BNode::new(
                    labeling.get(v),
                    if v == source { Some(message) } else { None },
                )
            })
            .collect()
    }

    /// Whether the node currently knows the source message.
    pub fn is_informed(&self) -> bool {
        self.sourcemsg.is_some()
    }

    /// The node's copy of the source message, if informed.
    pub fn sourcemsg(&self) -> Option<SourceMessage> {
        self.sourcemsg
    }

    fn transmit_data(&mut self, now: u64) -> Action<BMessage> {
        self.ever_acted = true;
        self.clock.last_tx_at = Some(now);
        Action::Transmit(BMessage::Data(
            self.sourcemsg.expect("only informed nodes transmit µ"),
        ))
    }
}

impl RadioNode for BNode {
    type Msg = BMessage;

    fn step(&mut self, now: u64) -> Action<BMessage> {
        if !self.ever_acted && self.sourcemsg.is_some() {
            // Line 2-3: the source transmits µ in its first round.
            return self.transmit_data(now);
        }
        if self.sourcemsg.is_none() {
            // Lines 4-7: uninformed nodes listen.
            return Action::Listen;
        }
        // Lines 8-20: the node received µ before this round (or is the source
        // after its initial transmission).
        match self.clock.rule(now, self.x1, self.x2) {
            Some(BRule::Data) => self.transmit_data(now),
            Some(BRule::Stay) => {
                self.ever_acted = true;
                Action::Transmit(BMessage::Stay)
            }
            None => Action::Listen,
        }
    }

    /// `step` changes nothing unless a rule fires and `receive(None)`
    /// returns at once, so the node sleeps until its next rule round — the
    /// source's first round, or one of rules 3–5 — or until it hears
    /// something when none is pending.
    fn wake_hint(&self, now: u64) -> u64 {
        let next = if self.sourcemsg.is_some() && !self.ever_acted {
            Some(now + 1)
        } else {
            self.clock.next_rule_round(now, self.x1, self.x2)
        };
        hint_until(next, now)
    }

    fn state_digest(&self) -> u64 {
        let d = rn_radio::Digest::new(0xB)
            .flag(self.x1)
            .flag(self.x2)
            .opt(self.sourcemsg)
            .flag(self.ever_acted);
        self.clock.digest_into(d).finish()
    }

    fn receive(&mut self, heard: Option<&BMessage>, now: u64) {
        let Some(msg) = heard else { return };
        match msg {
            BMessage::Data(m) => {
                self.ever_acted = true;
                if self.sourcemsg.is_none() {
                    // Lines 5-7.
                    self.sourcemsg = Some(*m);
                    self.clock.informed_at = Some(now);
                }
            }
            BMessage::Stay => {
                if self.sourcemsg.is_some() {
                    self.ever_acted = true;
                    self.clock.stay_at = Some(now);
                }
                // Line 5: an uninformed node ignores "stay" and stays
                // uninformed.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_labeling::lambda;
    use rn_radio::Simulator;

    const MSG: SourceMessage = 0xC0FFEE;

    fn run_b(g: rn_graph::Graph, source: usize, max_rounds: u64) -> Simulator<BNode> {
        let scheme = lambda::construct(&g, source).unwrap();
        let nodes = BNode::network(scheme.labeling(), source, MSG);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(rn_radio::StopCondition::AfterRounds(max_rounds), |s| {
            s.nodes().iter().all(BNode::is_informed)
        });
        sim
    }

    #[test]
    fn source_transmits_only_in_round_one_of_a_star() {
        let g = generators::star(6);
        let sim = run_b(g, 0, 20);
        assert_eq!(sim.trace().transmit_rounds(0), vec![1]);
        for v in 1..6 {
            assert_eq!(sim.trace().first_receive_round(v), Some(1));
        }
    }

    #[test]
    fn broadcast_completes_on_path_within_bound() {
        let n = 12;
        let g = generators::path(n);
        let sim = run_b(g, 0, 3 * n as u64);
        assert!(sim.nodes().iter().all(BNode::is_informed));
        assert!(sim.current_round() <= 2 * n as u64 - 3);
        for node in sim.nodes() {
            assert_eq!(node.sourcemsg(), Some(MSG));
        }
    }

    #[test]
    fn broadcast_completes_on_four_cycle() {
        // The unlabeled four-cycle is the paper's impossibility example; the
        // 2-bit labels must break the symmetry.
        let g = generators::cycle(4);
        let sim = run_b(g, 0, 10);
        assert!(sim.nodes().iter().all(BNode::is_informed));
    }

    #[test]
    fn broadcast_completes_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnp_connected(30, 0.12, seed).unwrap();
            let n = g.node_count() as u64;
            let sim = run_b(g, (seed as usize * 7) % 30, 2 * n);
            assert!(
                sim.nodes().iter().all(BNode::is_informed),
                "seed {seed} did not complete"
            );
            assert!(sim.current_round() <= 2 * n - 3);
        }
    }

    #[test]
    fn uninformed_node_ignores_stay() {
        let mut node = BNode::new(Label::two_bits(true, true), None);
        node.receive(Some(&BMessage::Stay), 1);
        assert!(!node.is_informed());
        // It still listens in the next round.
        assert_eq!(node.step(2), Action::Listen);
    }

    #[test]
    fn informed_x1_node_transmits_two_rounds_later() {
        let mut node = BNode::new(Label::two_bits(true, false), None);
        // Round 4: listens, hears µ.
        assert_eq!(node.step(4), Action::Listen);
        node.receive(Some(&BMessage::Data(5)), 4);
        // Round 5: listens (x2 = 0).
        assert_eq!(node.step(5), Action::Listen);
        node.receive(None, 5);
        // Round 6: transmits µ.
        assert_eq!(node.step(6), Action::Transmit(BMessage::Data(5)));
    }

    #[test]
    fn informed_x2_node_sends_stay_next_round() {
        let mut node = BNode::new(Label::two_bits(false, true), None);
        assert_eq!(node.step(1), Action::Listen);
        node.receive(Some(&BMessage::Data(9)), 1);
        assert_eq!(node.step(2), Action::Transmit(BMessage::Stay));
        // And never transmits µ (x1 = 0).
        node.receive(None, 2);
        assert_eq!(node.step(3), Action::Listen);
    }

    #[test]
    fn node_with_zero_label_never_transmits() {
        let mut node = BNode::new(Label::two_bits(false, false), None);
        assert_eq!(node.step(1), Action::Listen);
        node.receive(Some(&BMessage::Data(9)), 1);
        for now in 2..12 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
        }
        assert!(node.is_informed());
    }

    #[test]
    fn source_retransmits_after_stay() {
        // The source transmits in round 1; if it receives "stay" in round 2 it
        // must transmit µ again in round 3 (lines 17-19).
        let mut source = BNode::new(Label::two_bits(true, false), Some(MSG));
        assert_eq!(source.step(1), Action::Transmit(BMessage::Data(MSG)));
        // Round 2: source listens and hears "stay".
        assert_eq!(source.step(2), Action::Listen);
        source.receive(Some(&BMessage::Stay), 2);
        // Round 3: source retransmits µ.
        assert_eq!(source.step(3), Action::Transmit(BMessage::Data(MSG)));
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn network_rejects_bad_source() {
        let g = generators::path(3);
        let scheme = lambda::construct(&g, 0).unwrap();
        let _ = BNode::network(scheme.labeling(), 5, MSG);
    }

    #[test]
    fn wake_hint_tracks_activity() {
        // A fresh source is about to transmit: it must be driven now.
        let source = BNode::new(Label::two_bits(true, false), Some(MSG));
        assert_eq!(source.wake_hint(0), 0);
        // A fresh uninformed node is frozen until it hears something.
        let mut node = BNode::new(Label::two_bits(true, true), None);
        assert_eq!(node.wake_hint(0), u64::MAX);
        // Hearing µ in round 3 schedules "stay" for round 4...
        node.receive(Some(&BMessage::Data(5)), 3);
        assert_eq!(node.wake_hint(3), 0);
        assert_eq!(node.step(4), Action::Transmit(BMessage::Stay));
        // ...and µ for round 5; after that nothing is pending and it parks.
        assert_eq!(node.wake_hint(4), 0);
        assert_eq!(node.step(5), Action::Transmit(BMessage::Data(5)));
        assert_eq!(node.wake_hint(5), u64::MAX);
        // A "stay" right after its µ schedules the retransmission two
        // rounds after it.
        node.receive(Some(&BMessage::Stay), 6);
        assert_eq!(node.wake_hint(6), 0);
    }

    #[test]
    fn parked_node_state_is_frozen() {
        // The wake-hint contract: while the hint holds, step/receive(None)
        // pairs must not change the node at all.
        let mut node = BNode::new(Label::two_bits(true, false), None);
        node.receive(Some(&BMessage::Data(5)), 1);
        assert_eq!(node.step(3), Action::Transmit(BMessage::Data(5)));
        assert_eq!(node.wake_hint(3), u64::MAX);
        let before = format!("{node:?}");
        for now in 4..14 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
        }
        assert_eq!(format!("{node:?}"), before);
    }

    #[test]
    fn both_engines_agree_on_algorithm_b() {
        use rn_radio::Engine;
        let g = generators::path(16);
        let scheme = lambda::construct(&g, 0).unwrap();
        let run = |engine: Engine| {
            let nodes = BNode::network(scheme.labeling(), 0, MSG);
            let mut sim = rn_radio::Simulator::new(g.clone(), nodes).with_engine(engine);
            let outcome = sim.run_until(
                rn_radio::StopCondition::QuietFor { quiet: 8, cap: 200 },
                |_| false,
            );
            (outcome, sim)
        };
        let (out_ref, reference) = run(Engine::ListenerCentric);
        let (out_event, event) = run(Engine::EventDriven);
        assert_eq!(out_ref, out_event);
        assert_eq!(reference.trace().rounds, event.trace().rounds);
        for (a, b) in reference.nodes().iter().zip(event.nodes()) {
            assert_eq!(a.sourcemsg(), b.sourcemsg());
        }
    }
}
