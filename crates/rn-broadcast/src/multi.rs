//! The multi-message relay protocol driving any
//! [`rn_labeling::collection::CollectionPlan`]: collision-free collection
//! to a coordinator, then the paper's Algorithm B relaying the bundle of
//! all k messages. [`MultiNode::network`] instantiates it for the k-source
//! [`rn_labeling::multi`] scheme (BFS-path plans); the gossip protocol of
//! [`crate::gossip`] reuses the same state machine for DFS-token plans.
//!
//! Every node runs the same [`MultiNode`] state machine; its behaviour
//! depends only on its advice (the 2-bit λ label plus its slice of the
//! collection schedule), the messages it has heard and its local round —
//! no topology knowledge, no network size, no global clock beyond the
//! round count a node could keep by itself (all nodes start in the same
//! round). A node that only waits for its next slot is frozen, so it sleeps
//! on the simulator's wake-hint frontier until that round.
//!
//! Execution timeline, for a scheme with collection length `T`:
//!
//! * **Rounds 1..=T (collection).** The schedule assigns exactly one
//!   transmitter per round — a single global transmitter means no
//!   collisions, so each hop is received with certainty. A
//!   [`TokenPayload::Source`] slot relays one designated message `(j, µ_j)`
//!   (multi-broadcast's BFS paths); a [`TokenPayload::Accumulated`] slot
//!   transmits everything the node has gathered so far (gossip's walking
//!   token). Every *other* neighbour of the transmitter opportunistically
//!   absorbs the payload too (free progress, never required for
//!   correctness).
//! * **Round T+1 onward (broadcast).** The coordinator assembles the
//!   [`MessageBundle`] of all k payloads and behaves exactly like Algorithm
//!   B's source; all other nodes run Algorithm B's five rules verbatim with
//!   "µ" = the bundle and "stay" = [`MultiMessage::Stay`]. Theorem 2.9
//!   applied to `(G, coordinator)` bounds this phase by `2n − 3` rounds.
//!
//! A node is *fully informed* once it holds all k payloads
//! ([`MultiNode::holds_all_messages`]) — via the bundle, or early via
//! overheard relays. Per-message progress is exposed with
//! [`MultiNode::has_message`] so the harness can report per-message
//! completion rounds.

use crate::algo_b::{BClock, BRule};
use crate::messages::{MessageBundle, MultiMessage, SourceMessage};
use rn_labeling::collection::{CollectionPlan, TokenPayload};
use rn_labeling::multi::MultiLambdaScheme;
use rn_labeling::Labeling;
use rn_radio::{hint_until, Action, RadioNode};
use std::sync::Arc;

/// The per-node state machine of the multi-broadcast algorithm.
#[derive(Debug, Clone)]
pub struct MultiNode {
    // Advice.
    x1: bool,
    x2: bool,
    /// This node's collection slots, chronological: `(round, what to send)`.
    slots: Vec<(u64, TokenPayload)>,
    /// The round after which this node (the coordinator only) starts the
    /// broadcast phase; `None` everywhere else.
    coordinator_start: Option<u64>,

    // Dynamic state.
    /// Next unfired entry of `slots`.
    next_slot: usize,
    /// Per-source payloads this node holds; entry `j` is `Some(µ_j)` once
    /// message j has been received (or originated here).
    received: Vec<Option<SourceMessage>>,
    /// How many entries of `received` are `Some`.
    held: usize,
    /// The bundle, once assembled (coordinator) or heard (everyone else):
    /// the broadcast phase's "sourcemsg".
    bundle: Option<MessageBundle>,
    /// Algorithm B's event rounds, as in `BNode`: the first bundle, the
    /// last bundle transmission and the last "stay".
    clock: BClock,
}

impl MultiNode {
    /// Builds the protocol instances for a whole network from the scheme
    /// and the k source payloads (`payloads[j]` is the message of
    /// `scheme.sources()[j]`).
    ///
    /// # Panics
    /// Panics if `payloads.len() != scheme.k()`.
    pub fn network(scheme: &MultiLambdaScheme, payloads: &[SourceMessage]) -> Vec<MultiNode> {
        Self::plan_network(scheme.labeling(), scheme.plan(), scheme.sources(), payloads)
    }

    /// Builds the protocol instances for any collection plan: the shared
    /// constructor behind [`MultiNode::network`] (BFS-path plans) and
    /// [`crate::gossip::GossipNode::network`] (DFS-token plans).
    /// `sources[j]` holds `payloads[j]` from round 0; each node's slice of
    /// the plan becomes its relay schedule; the plan's coordinator opens
    /// the broadcast phase when the plan ends.
    ///
    /// # Panics
    /// Panics if `payloads.len() != sources.len()`.
    pub(crate) fn plan_network(
        labeling: &Labeling,
        plan: &CollectionPlan,
        sources: &[usize],
        payloads: &[SourceMessage],
    ) -> Vec<MultiNode> {
        assert_eq!(
            payloads.len(),
            sources.len(),
            "need exactly one payload per source"
        );
        let n = labeling.node_count();
        let k = sources.len();
        let mut nodes: Vec<MultiNode> = (0..n)
            .map(|v| {
                let label = labeling.get(v);
                MultiNode {
                    x1: label.x1(),
                    x2: label.x2(),
                    slots: Vec::new(),
                    coordinator_start: (v == plan.coordinator()).then(|| plan.rounds()),
                    next_slot: 0,
                    received: vec![None; k],
                    held: 0,
                    bundle: None,
                    clock: BClock::default(),
                }
            })
            .collect();
        for (j, &s) in sources.iter().enumerate() {
            nodes[s].hold(j, payloads[j]);
        }
        for slot in plan.slots() {
            nodes[slot.node].slots.push((slot.round, slot.payload));
        }
        nodes
    }

    /// Whether this node holds message `j`.
    pub fn has_message(&self, j: usize) -> bool {
        self.received.get(j).is_some_and(Option::is_some)
    }

    /// Whether this node holds **all** k messages (the multi-broadcast
    /// completion notion).
    pub fn holds_all_messages(&self) -> bool {
        self.held == self.received.len()
    }

    /// The payloads this node currently holds, indexed by source index.
    pub fn payloads(&self) -> &[Option<SourceMessage>] {
        &self.received
    }

    /// The first local round after `now` in which `step` may act, or
    /// `None` when only a reception can make it act: the next collection
    /// slot, the coordinator's opening round, or an Algorithm B rule.
    fn next_rule_round(&self, now: u64) -> Option<u64> {
        [
            self.slots.get(self.next_slot).map(|&(round, _)| round),
            self.coordinator_start.map(|t| t + 1),
        ]
        .into_iter()
        .flatten()
        .filter(|&t| t > now)
        .chain(self.clock.next_rule_round(now, self.x1, self.x2))
        .min()
    }

    /// Stores message `j` unless the node already holds it.
    fn hold(&mut self, j: usize, payload: SourceMessage) {
        let slot = &mut self.received[j];
        if slot.is_none() {
            *slot = Some(payload);
            self.held += 1;
        }
    }

    /// Stores every payload of a bundle (idempotent).
    fn absorb_bundle(&mut self, bundle: &MessageBundle) {
        for &(j, p) in bundle.iter() {
            self.hold(j as usize, p);
        }
    }

    fn transmit_bundle(&mut self, now: u64) -> Action<MultiMessage> {
        self.clock.last_tx_at = Some(now);
        Action::Transmit(MultiMessage::Bundle(
            self.bundle
                .clone()
                .expect("only bundle-holding nodes transmit it"),
        ))
    }
}

impl RadioNode for MultiNode {
    type Msg = MultiMessage;
    const WAKE_HINTS: bool = true;

    fn step(&mut self, now: u64) -> Action<MultiMessage> {
        // Collection phase: fire this node's scheduled relays. In a
        // fault-free run the schedule guarantees the payload arrived in an
        // earlier round (the previous hop was the sole transmitter of its
        // round); an injected fault (crashed hop, jammed slot) can break
        // that guarantee, in which case the node skips its relay slot and
        // the message simply fails to propagate — degradation the run
        // report surfaces as an incomplete `message_completion_rounds`
        // entry, never a panic.
        if let Some(&(round, payload)) = self.slots.get(self.next_slot) {
            if round == now {
                self.next_slot += 1;
                return match payload {
                    TokenPayload::Source(j) => match self.received[j as usize] {
                        Some(payload) => Action::Transmit(MultiMessage::Relay {
                            source_index: j,
                            payload,
                        }),
                        None => Action::Listen,
                    },
                    TokenPayload::Accumulated => {
                        let token: Vec<(u32, SourceMessage)> = self
                            .received
                            .iter()
                            .enumerate()
                            .filter_map(|(j, p)| p.map(|p| (j as u32, p)))
                            .collect();
                        Action::Transmit(MultiMessage::Token(Arc::new(token)))
                    }
                };
            }
        }

        // The coordinator opens the broadcast phase: assemble the bundle of
        // all k messages and transmit it, exactly like B's source transmits
        // µ in its first round. Collection funnels every message here in a
        // fault-free run; under injected faults some may be missing, and
        // the coordinator broadcasts whatever subset it holds.
        if self.coordinator_start.map(|t| t + 1) == Some(now) {
            let bundle: Vec<(u32, SourceMessage)> = self
                .received
                .iter()
                .enumerate()
                .filter_map(|(j, p)| p.map(|p| (j as u32, p)))
                .collect();
            self.bundle = Some(Arc::new(bundle));
            return self.transmit_bundle(now);
        }

        // Broadcast phase: Algorithm B's rules with µ = the bundle.
        if self.bundle.is_none() {
            return Action::Listen;
        }
        match self.clock.rule(now, self.x1, self.x2) {
            Some(BRule::Data) => self.transmit_bundle(now),
            Some(BRule::Stay) => Action::Transmit(MultiMessage::Stay),
            None => Action::Listen,
        }
    }

    /// A node changes state only when it transmits or hears something, so
    /// it sleeps until its next slot or rule round — a relay waiting for
    /// its one collection slot sleeps through the whole wait — or until it
    /// hears something when none is pending.
    fn wake_hint(&self, now: u64) -> u64 {
        hint_until(self.next_rule_round(now), now)
    }

    fn receive(&mut self, heard: Option<&MultiMessage>, now: u64) {
        let Some(msg) = heard else { return };
        match msg {
            MultiMessage::Relay {
                source_index,
                payload,
            } => {
                // Opportunistic absorption; never touches the Algorithm B
                // state (the broadcast phase has not started).
                self.hold(*source_index as usize, *payload);
            }
            MultiMessage::Token(token) => {
                // The walking token of a DFS plan: absorb everything it
                // carries. Like a relay, it never touches the Algorithm B
                // state — only the coordinator's scheduled bundle opens the
                // broadcast phase.
                self.absorb_bundle(token);
            }
            MultiMessage::Bundle(bundle) => {
                if self.bundle.is_none() {
                    self.bundle = Some(Arc::clone(bundle));
                    self.clock.informed_at = Some(now);
                }
                self.absorb_bundle(bundle);
            }
            MultiMessage::Stay => {
                if self.bundle.is_some() {
                    self.clock.stay_at = Some(now);
                }
                // A node without the bundle ignores "stay", like B's
                // uninformed nodes.
            }
        }
    }

    fn state_digest(&self) -> u64 {
        let mut d = rn_radio::Digest::new(0x3417)
            .flag(self.x1)
            .flag(self.x2)
            .word(self.slots.len() as u64);
        for &(round, payload) in &self.slots {
            d = d.word(round).word(match payload {
                TokenPayload::Source(j) => 1 + u64::from(j),
                TokenPayload::Accumulated => 0,
            });
        }
        d = d
            .opt(self.coordinator_start)
            .word(self.next_slot as u64)
            .word(self.received.len() as u64);
        for slot in &self.received {
            d = d.opt(*slot);
        }
        d = d.word(match &self.bundle {
            None => 0,
            Some(b) => 1 + b.len() as u64,
        });
        if let Some(b) = &self.bundle {
            for &(j, m) in b.iter() {
                d = d.word(u64::from(j)).word(m);
            }
        }
        self.clock.digest_into(d).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_labeling::multi;
    use rn_radio::{Simulator, StopCondition};

    fn run_multi(
        g: rn_graph::Graph,
        sources: &[usize],
        payloads: &[SourceMessage],
    ) -> (Simulator<MultiNode>, MultiLambdaScheme) {
        let scheme = multi::construct(&g, sources).unwrap();
        let nodes = MultiNode::network(&scheme, payloads);
        let n = g.node_count() as u64;
        let k = scheme.k() as u64;
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(
            StopCondition::QuietFor {
                quiet: 3,
                cap: 2 * (k + 2) * (n + 2) + 16,
            },
            |s| s.nodes().iter().all(MultiNode::holds_all_messages),
        );
        (sim, scheme)
    }

    #[test]
    fn every_node_learns_every_message() {
        for (g, sources) in [
            (generators::path(12), vec![0usize, 11]),
            (generators::grid(4, 5), vec![0, 7, 19]),
            (generators::cycle(9), vec![1, 4, 7]),
            (generators::star(8), vec![2, 5]),
            (
                generators::gnp_connected(30, 0.12, 5).unwrap(),
                vec![0, 9, 17, 26],
            ),
        ] {
            let payloads: Vec<u64> = (0..sources.len() as u64).map(|j| 100 + j).collect();
            let (sim, scheme) = run_multi(g, &sources, &payloads);
            for (v, node) in sim.nodes().iter().enumerate() {
                assert!(
                    node.holds_all_messages(),
                    "node {v} missing a message (k = {})",
                    scheme.k()
                );
                for (j, &p) in payloads.iter().enumerate() {
                    assert_eq!(node.payloads()[j], Some(p), "node {v}, message {j}");
                }
            }
        }
    }

    #[test]
    fn collection_rounds_have_exactly_one_transmitter() {
        let g = generators::gnp_connected(24, 0.15, 8).unwrap();
        let scheme = multi::construct(&g, &[0, 7, 15, 23]).unwrap();
        let nodes = MultiNode::network(&scheme, &[1, 2, 3, 4]);
        let mut sim = Simulator::new(g, nodes);
        for round in 1..=scheme.collection_rounds() {
            let tx = sim.step_round();
            assert_eq!(tx, 1, "collection round {round}");
        }
        // The next round is the coordinator's opening bundle transmission.
        assert_eq!(sim.step_round(), 1);
        let record = sim.trace().rounds.last().unwrap();
        assert_eq!(record.transmitters(), vec![scheme.coordinator()]);
    }

    #[test]
    fn broadcast_phase_obeys_the_theorem_2_9_bound() {
        // Total time = collection + B's bound on (G, coordinator).
        for seed in 0..4u64 {
            let g = generators::gnp_connected(26, 0.14, seed).unwrap();
            let n = g.node_count() as u64;
            let sources = vec![0usize, 10, 20];
            let (sim, scheme) = run_multi(g, &sources, &[7, 8, 9]);
            assert!(sim.nodes().iter().all(MultiNode::holds_all_messages));
            let bound = scheme.collection_rounds() + 2 * n - 3;
            assert!(
                sim.current_round() <= bound + 3, // + the quiet-tail rounds
                "seed {seed}: {} rounds > bound {bound}",
                sim.current_round()
            );
        }
    }

    #[test]
    fn single_source_at_the_coordinator_degenerates_to_algorithm_b() {
        use crate::algo_b::BNode;
        use rn_labeling::lambda;
        let g = generators::grid(4, 4);
        let scheme = multi::construct_with_coordinator(&g, &[5], 5).unwrap();
        assert_eq!(scheme.collection_rounds(), 0);
        let nodes = MultiNode::network(&scheme, &[42]);
        let mut sim = Simulator::new(g.clone(), nodes);
        sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 100 }, |_| false);

        let plain = lambda::construct(&g, 5).unwrap();
        let bnodes = BNode::network(plain.labeling(), 5, 42);
        let mut bsim = Simulator::new(g, bnodes);
        bsim.run_until(StopCondition::QuietFor { quiet: 3, cap: 100 }, |_| false);

        // Same transmitters in every round: the bundle broadcast IS
        // Algorithm B on the same labels.
        assert_eq!(sim.trace().len(), bsim.trace().len());
        for (a, b) in sim.trace().rounds.iter().zip(&bsim.trace().rounds) {
            assert_eq!(a.transmitters(), b.transmitters(), "round {}", a.round);
        }
    }

    #[test]
    fn node_state_agrees_with_the_per_message_trace_query() {
        // Cross-check the node-state accounting (what the session reports)
        // against the trace: a node holds message j iff it is a source of j
        // or the trace shows it hearing a message carrying j. All k
        // per-message answers come from ONE bucketed scan of the trace
        // (`Trace::first_receive_rounds_bucketed`) instead of k
        // `first_receive_rounds_matching` passes — the accounting that has
        // to stay affordable once gossip makes k = n.
        let g = generators::gnp_connected(22, 0.16, 11).unwrap();
        let n = g.node_count();
        let sources = vec![2usize, 9, 19];
        let payloads = [31u64, 32, 33];
        let (sim, scheme) = run_multi(g, &sources, &payloads);
        let heard = sim
            .trace()
            .first_receive_rounds_bucketed(n, scheme.k(), |m, emit| match m {
                MultiMessage::Relay { source_index, .. } => emit(*source_index as usize),
                MultiMessage::Token(bundle) | MultiMessage::Bundle(bundle) => {
                    for &(j, _) in bundle.iter() {
                        emit(j as usize);
                    }
                }
                MultiMessage::Stay => {}
            });
        for (j, &s) in scheme.sources().iter().enumerate() {
            for (v, node) in sim.nodes().iter().enumerate() {
                let expected = v == s || heard[j][v].is_some();
                assert_eq!(node.has_message(j), expected, "node {v}, message {j}");
            }
        }
        // The single-bucket delegate agrees with the bucketed scan.
        let relay_0 = sim.trace().first_receive_rounds_matching(n, |m| {
            matches!(
                m,
                MultiMessage::Relay {
                    source_index: 0,
                    ..
                }
            )
        });
        for (v, &first) in relay_0.iter().enumerate() {
            if let Some(first) = first {
                let bucketed = heard[0][v].expect("bucketed scan must see the relay too");
                assert!(bucketed <= first, "node {v}");
            }
        }
    }

    #[test]
    fn nodes_on_collection_paths_absorb_messages_early() {
        // Path with coordinator at one end: the relays pass through every
        // interior node between source and coordinator.
        let g = generators::path(10);
        let scheme = multi::construct_with_coordinator(&g, &[9], 0).unwrap();
        let nodes = MultiNode::network(&scheme, &[5]);
        let mut sim = Simulator::new(g, nodes);
        // After the first relay (round 1), node 8 already holds message 0,
        // long before the bundle comes back from the coordinator.
        sim.step_round();
        assert!(sim.nodes()[8].has_message(0));
        assert!(!sim.nodes()[0].has_message(0));
    }

    #[test]
    fn relay_sleeps_frozen_until_its_collection_slot() {
        // On a path with the coordinator at 0 and the source at 9, node 3
        // relays message 0 in one collection slot and waits for it.
        let g = generators::path(10);
        let scheme = multi::construct_with_coordinator(&g, &[9], 0).unwrap();
        let slot = scheme
            .plan()
            .slots()
            .iter()
            .find(|s| s.node == 3)
            .expect("node 3 relays")
            .round;
        let mut node = MultiNode::network(&scheme, &[5]).swap_remove(3);
        assert_eq!(node.wake_hint(0), slot - 1);
        let before = node.state_digest();
        for now in 1..slot - 1 {
            assert_eq!(node.step(now), Action::Listen);
            node.receive(None, now);
            assert_eq!(node.state_digest(), before, "round {now}");
        }
        // The previous hop's relay arrives the round before the slot.
        let relay = MultiMessage::Relay {
            source_index: 0,
            payload: 5,
        };
        assert_eq!(node.step(slot - 1), Action::Listen);
        node.receive(Some(&relay), slot - 1);
        assert_eq!(node.wake_hint(slot - 1), 0);
        assert_eq!(node.step(slot), Action::Transmit(relay));
        // Nothing else is scheduled: it sleeps until the bundle comes.
        assert_eq!(node.wake_hint(slot), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "one payload per source")]
    fn network_rejects_mismatched_payloads() {
        let g = generators::path(5);
        let scheme = multi::construct(&g, &[0, 4]).unwrap();
        let _ = MultiNode::network(&scheme, &[1]);
    }
}
