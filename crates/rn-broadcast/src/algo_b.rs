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
use rn_radio::{Action, RadioNode};

/// The per-node state machine of Algorithm B.
#[derive(Debug, Clone)]
pub struct BNode {
    x1: bool,
    x2: bool,
    /// The paper's `sourcemsg` variable.
    sourcemsg: Option<SourceMessage>,
    /// Whether this node has ever sent or received any message.
    ever_acted: bool,
    /// Rounds elapsed since the node first received µ (`None` for the source
    /// and for uninformed nodes).
    informed_age: Option<u64>,
    /// Rounds elapsed since the node last transmitted µ.
    last_data_transmit_age: Option<u64>,
    /// Rounds elapsed since the node last received "stay".
    stay_age: Option<u64>,
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
            informed_age: None,
            last_data_transmit_age: None,
            stay_age: None,
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

    /// Age a counter is pinned at once it can no longer trigger any rule:
    /// every rule in [`step`](RadioNode::step) tests equality against 1 or
    /// 2, so saturating at 3 changes no decision — and it makes a settled
    /// node's state invariant under further ticks, which is exactly the
    /// frozen-state promise [`wake_hint`](RadioNode::wake_hint) relies on.
    const SETTLED_AGE: u64 = 3;

    fn tick(&mut self) {
        if let Some(a) = &mut self.informed_age {
            *a = (*a + 1).min(Self::SETTLED_AGE);
        }
        if let Some(a) = &mut self.last_data_transmit_age {
            *a = (*a + 1).min(Self::SETTLED_AGE);
        }
        if let Some(a) = &mut self.stay_age {
            *a = (*a + 1).min(Self::SETTLED_AGE);
        }
    }

    /// Whether this age counter can still trigger a rule in a future round.
    fn settled(age: Option<u64>) -> bool {
        age.is_none_or(|a| a >= Self::SETTLED_AGE)
    }

    fn transmit_data(&mut self) -> Action<BMessage> {
        self.ever_acted = true;
        self.last_data_transmit_age = Some(0);
        Action::Transmit(BMessage::Data(
            self.sourcemsg.expect("only informed nodes transmit µ"),
        ))
    }
}

impl RadioNode for BNode {
    type Msg = BMessage;
    const WAKE_HINTS: bool = true;

    fn step(&mut self) -> Action<BMessage> {
        self.tick();
        if !self.ever_acted && self.sourcemsg.is_some() {
            // Line 2-3: the source transmits µ in its first round.
            return self.transmit_data();
        }
        if self.sourcemsg.is_none() {
            // Lines 4-7: uninformed nodes listen.
            return Action::Listen;
        }
        // Lines 8-20: the node received µ before this round (or is the source
        // after its initial transmission).
        if self.informed_age == Some(2) {
            // Lines 9-12.
            if self.x1 {
                return self.transmit_data();
            }
        } else if self.informed_age == Some(1) {
            // Lines 13-16.
            if self.x2 {
                self.ever_acted = true;
                return Action::Transmit(BMessage::Stay);
            }
        } else if self.last_data_transmit_age == Some(2) && self.stay_age == Some(1) {
            // Lines 17-19.
            return self.transmit_data();
        }
        Action::Listen
    }

    fn wake_hint(&self) -> u64 {
        if self.sourcemsg.is_some() && !self.ever_acted {
            // The source's first round: it is about to transmit µ.
            return 0;
        }
        if Self::settled(self.informed_age)
            && Self::settled(self.last_data_transmit_age)
            && Self::settled(self.stay_age)
        {
            // All counters are pinned: `tick` is a no-op, no rule can ever
            // fire again, and `receive(None)` returns immediately — the node
            // is frozen until it hears something.
            u64::MAX
        } else {
            // Recently active: stay driven every round until the counters
            // settle (at most three rounds later).
            0
        }
    }

    fn state_digest(&self) -> u64 {
        rn_radio::Digest::new(0xB)
            .flag(self.x1)
            .flag(self.x2)
            .opt(self.sourcemsg)
            .flag(self.ever_acted)
            .opt(self.informed_age)
            .opt(self.last_data_transmit_age)
            .opt(self.stay_age)
            .finish()
    }

    fn receive(&mut self, heard: Option<&BMessage>) {
        let Some(msg) = heard else { return };
        match msg {
            BMessage::Data(m) => {
                self.ever_acted = true;
                if self.sourcemsg.is_none() {
                    // Lines 5-7.
                    self.sourcemsg = Some(*m);
                    self.informed_age = Some(0);
                }
            }
            BMessage::Stay => {
                if self.sourcemsg.is_some() {
                    self.ever_acted = true;
                    self.stay_age = Some(0);
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
        node.receive(Some(&BMessage::Stay));
        assert!(!node.is_informed());
        // It still listens in the next round.
        assert_eq!(node.step(), Action::Listen);
    }

    #[test]
    fn informed_x1_node_transmits_two_rounds_later() {
        let mut node = BNode::new(Label::two_bits(true, false), None);
        // Round t: listens, hears µ.
        assert_eq!(node.step(), Action::Listen);
        node.receive(Some(&BMessage::Data(5)));
        // Round t+1: listens (x2 = 0).
        assert_eq!(node.step(), Action::Listen);
        node.receive(None);
        // Round t+2: transmits µ.
        assert_eq!(node.step(), Action::Transmit(BMessage::Data(5)));
    }

    #[test]
    fn informed_x2_node_sends_stay_next_round() {
        let mut node = BNode::new(Label::two_bits(false, true), None);
        assert_eq!(node.step(), Action::Listen);
        node.receive(Some(&BMessage::Data(9)));
        assert_eq!(node.step(), Action::Transmit(BMessage::Stay));
        // And never transmits µ (x1 = 0).
        node.receive(None);
        assert_eq!(node.step(), Action::Listen);
    }

    #[test]
    fn node_with_zero_label_never_transmits() {
        let mut node = BNode::new(Label::two_bits(false, false), None);
        assert_eq!(node.step(), Action::Listen);
        node.receive(Some(&BMessage::Data(9)));
        for _ in 0..10 {
            assert_eq!(node.step(), Action::Listen);
            node.receive(None);
        }
        assert!(node.is_informed());
    }

    #[test]
    fn source_retransmits_after_stay() {
        // The source transmits in round 1; if it receives "stay" in round 2 it
        // must transmit µ again in round 3 (lines 17-19).
        let mut source = BNode::new(Label::two_bits(true, false), Some(MSG));
        assert_eq!(source.step(), Action::Transmit(BMessage::Data(MSG)));
        source.receive(Some(&BMessage::Stay)); // harness would not call this for a transmitter; emulate round 2 listen below
                                               // Round 2: source listens and hears "stay".
        assert_eq!(source.step(), Action::Listen);
        source.receive(Some(&BMessage::Stay));
        // Round 3: source retransmits µ.
        assert_eq!(source.step(), Action::Transmit(BMessage::Data(MSG)));
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
        assert_eq!(source.wake_hint(), 0);
        // A fresh uninformed node is frozen until it hears something.
        let mut node = BNode::new(Label::two_bits(true, true), None);
        assert_eq!(node.wake_hint(), u64::MAX);
        // Hearing µ makes it active (it may transmit within two rounds)...
        node.receive(Some(&BMessage::Data(5)));
        assert_eq!(node.wake_hint(), 0);
        // ...and a few rounds later every counter is pinned and it parks.
        for _ in 0..5 {
            node.step();
            node.receive(None);
        }
        assert_eq!(node.wake_hint(), u64::MAX);
    }

    #[test]
    fn parked_node_state_is_frozen() {
        // The wake-hint contract: once the hint is MAX, step/receive(None)
        // pairs must not change the node at all.
        let mut node = BNode::new(Label::two_bits(true, true), None);
        node.receive(Some(&BMessage::Data(5)));
        for _ in 0..6 {
            node.step();
            node.receive(None);
        }
        assert_eq!(node.wake_hint(), u64::MAX);
        let before = format!("{node:?}");
        for _ in 0..10 {
            assert_eq!(node.step(), Action::Listen);
            node.receive(None);
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
