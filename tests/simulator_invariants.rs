//! Property-based tests of the radio model itself: whatever protocol runs on
//! it, the simulator must deliver messages exactly according to §1.1 of the
//! paper (a listener hears a message iff exactly one neighbour transmits; a
//! transmitter hears nothing; collisions are indistinguishable from silence).
//!
//! The protocol under test transmits pseudo-randomly (from a per-node seed,
//! so it is still a deterministic RadioNode) and records everything it
//! observes; an independent replay of the trace checks the delivery rule.

use proptest::prelude::*;
use radio_labeling::broadcast::session::{Scheme, Session, StopPolicy};
use radio_labeling::graph::{generators, Graph};
use radio_labeling::radio::stats::ExecutionStats;
use radio_labeling::radio::trace::NodeEvent;
use radio_labeling::radio::{Action, Engine, RadioNode, Simulator, StopCondition};
use rand::RngCore;
use rand::SeedableRng;
use std::sync::Arc;

/// A deterministic "chatter" protocol: in each round it transmits its node id
/// with probability ~1/3, driven by a private PRNG seeded from its id.
struct Chatter {
    id: u64,
    rng: rand::rngs::StdRng,
    heard: Vec<Option<u64>>,
}

impl Chatter {
    fn new(id: u64, seed: u64) -> Self {
        Chatter {
            id,
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ (id.wrapping_mul(0x9E3779B97F4A7C15))),
            heard: Vec::new(),
        }
    }
}

impl RadioNode for Chatter {
    type Msg = u64;
    fn step(&mut self, _now: u64) -> Action<u64> {
        if self.rng.next_u32().is_multiple_of(3) {
            Action::Transmit(self.id)
        } else {
            Action::Listen
        }
    }
    fn receive(&mut self, heard: Option<&u64>, _now: u64) {
        self.heard.push(heard.copied());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn delivery_follows_the_single_transmitter_rule(
        n in 4usize..40,
        p in 0.05f64..0.6,
        seed in any::<u64>(),
        rounds in 5u64..40,
    ) {
        let g = generators::gnp_connected(n, p, seed).unwrap();
        let nodes: Vec<Chatter> = (0..n as u64).map(|v| Chatter::new(v, seed)).collect();
        let mut sim = Simulator::new(g.clone(), nodes);
        sim.run_until(StopCondition::AfterRounds(rounds), |_| false);

        for record in &sim.trace().rounds {
            // Reconstruct the transmitter set independently.
            let transmitters: Vec<usize> = record
                .events
                .iter()
                .filter(|(_, e)| matches!(e, NodeEvent::Transmitted(_)))
                .map(|&(v, _)| v)
                .collect();
            for v in 0..n {
                let tx_neighbors: Vec<usize> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|w| transmitters.contains(w))
                    .collect();
                match record.event(v) {
                    Some(NodeEvent::Transmitted(_)) => {
                        // A transmitter never receives anything this round —
                        // there is nothing to check in the trace beyond the
                        // fact that it carries no Heard event, which the enum
                        // already guarantees.
                    }
                    Some(NodeEvent::Heard { from, message }) => {
                        prop_assert_eq!(tx_neighbors.len(), 1, "heard without unique transmitter");
                        prop_assert_eq!(tx_neighbors[0], *from);
                        prop_assert_eq!(*message as usize, *from, "chatter transmits its own id");
                    }
                    Some(NodeEvent::Collision { transmitting_neighbors }) => {
                        prop_assert!(tx_neighbors.len() >= 2);
                        prop_assert_eq!(*transmitting_neighbors, tx_neighbors.len());
                    }
                    None => {
                        prop_assert!(tx_neighbors.is_empty());
                    }
                    Some(NodeEvent::Faulted(_)) => {
                        prop_assert!(false, "fault marker in a fault-free run");
                    }
                }
            }
        }
    }

    #[test]
    fn listeners_observe_exactly_once_per_round(
        n in 4usize..30,
        seed in any::<u64>(),
        rounds in 5u64..30,
    ) {
        // Every listening round produces exactly one `receive` callback, so a
        // node's observation log length equals its number of listening rounds.
        let g = generators::gnp_connected(n, 0.2, seed).unwrap();
        let nodes: Vec<Chatter> = (0..n as u64).map(|v| Chatter::new(v, seed)).collect();
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(rounds), |_| false);
        for v in 0..n {
            let transmit_rounds = sim.trace().transmit_rounds(v).len() as u64;
            let observations = sim.nodes()[v].heard.len() as u64;
            prop_assert_eq!(transmit_rounds + observations, rounds, "node {}", v);
        }
    }

    #[test]
    fn collision_and_silence_look_identical_to_the_node(
        n in 4usize..30,
        seed in any::<u64>(),
    ) {
        // The node-facing observation for a collision is exactly `None`, the
        // same as silence: verify by cross-checking the trace against what the
        // protocol recorded.
        let g = generators::gnp_connected(n, 0.25, seed).unwrap();
        let nodes: Vec<Chatter> = (0..n as u64).map(|v| Chatter::new(v, seed)).collect();
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(20), |_| false);
        for v in 0..n {
            let mut observed = sim.nodes()[v].heard.iter();
            for record in &sim.trace().rounds {
                match record.event(v) {
                    Some(NodeEvent::Transmitted(_)) => {}
                    Some(NodeEvent::Heard { message, .. }) => {
                        prop_assert_eq!(observed.next().copied().flatten(), Some(*message));
                    }
                    Some(NodeEvent::Collision { .. }) | None => {
                        prop_assert_eq!(observed.next().copied().flatten(), None);
                    }
                    Some(NodeEvent::Faulted(_)) => {
                        prop_assert!(false, "fault marker in a fault-free run");
                    }
                }
            }
        }
    }
}

/// A protocol with a genuine dormancy hint, used to fuzz the event-driven
/// engine's silent-span elision: the source transmits once, relays ripple
/// the message outward one hop per round (incrementing it so hops are
/// distinguishable), and every node that has relayed parks forever.
struct Ripple {
    holding: Option<u64>,
    relayed: bool,
    receptions: Vec<u64>,
}

impl Ripple {
    fn new(is_source: bool) -> Self {
        Ripple {
            holding: if is_source { Some(1) } else { None },
            relayed: false,
            receptions: Vec::new(),
        }
    }

    fn network(n: usize) -> Vec<Ripple> {
        (0..n).map(|v| Ripple::new(v == 0)).collect()
    }
}

impl RadioNode for Ripple {
    type Msg = u64;
    fn step(&mut self, _now: u64) -> Action<u64> {
        match self.holding.take() {
            Some(m) if !self.relayed => {
                self.relayed = true;
                Action::Transmit(m)
            }
            _ => Action::Listen,
        }
    }
    fn receive(&mut self, heard: Option<&u64>, _now: u64) {
        if let Some(m) = heard {
            self.receptions.push(*m);
            if !self.relayed {
                self.holding = Some(m + 1);
            }
        }
    }
    fn wake_hint(&self, _now: u64) -> u64 {
        if self.holding.is_some() && !self.relayed {
            0 // about to relay
        } else {
            u64::MAX // parked until it hears something
        }
    }
}

/// The three proptest topology families, by discriminant.
fn build_topology(kind: u32, n: usize, seed: u64) -> Graph {
    match kind % 3 {
        0 => generators::path(n),
        1 => generators::random_tree(n, seed),
        _ => generators::gnp_connected(n, 0.18, seed).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engines_agree_on_random_scheme_stop_policy_triples(
        kind in 0u32..3,
        n in 6usize..28,
        seed in any::<u64>(),
        scheme_idx in 0usize..Scheme::GENERAL.len(),
        stop_kind in 0u32..3,
        quiet in 1u64..8,
    ) {
        // Random (topology, scheme, stop-policy) triples: `rounds_executed`
        // and the full ExecutionStats must be identical across both
        // engines, whichever way the run is asked to stop.
        let g = Arc::new(build_topology(kind, n, seed));
        let scheme = Scheme::GENERAL[scheme_idx];
        let stop = match stop_kind % 3 {
            0 => StopPolicy::Auto,
            1 => StopPolicy::RunToCap,
            _ => StopPolicy::QuietFor(quiet),
        };
        let build = |engine: Engine| {
            Session::builder(scheme, Arc::clone(&g))
                .source(seed as usize % n)
                .message(5)
                .stop(stop)
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric).run();
        let engine = Engine::EventDriven;
        let report = build(engine).run();
        prop_assert_eq!(
            &report, &reference,
            "{} {:?} [{:?}]", scheme.name(), stop, engine
        );
    }

    #[test]
    fn quiet_thresholds_agree_with_elided_spans(
        kind in 0u32..3,
        n in 4usize..32,
        seed in any::<u64>(),
        quiet in 1u64..24,
        cap in 1u64..90,
    ) {
        // The likeliest off-by-one: a QuietFor threshold landing inside, at
        // the edge of, or beyond an elided silent span. The Ripple protocol
        // parks every node after one relay, so with tracing off the
        // fast engine elides nearly the whole quiet tail; outcomes
        // (rounds_executed, went_quiet) and every node's reception log must
        // still match the reference engine exactly.
        let g = build_topology(kind, n, seed);
        let stop = StopCondition::QuietFor { quiet, cap };
        let mut reference = Simulator::new(g.clone(), Ripple::network(n))
            .with_engine(Engine::ListenerCentric)
            .without_trace();
        let expected = reference.run_until(stop, |_| false);
        let engine = Engine::EventDriven;
        let mut sim = Simulator::new(g.clone(), Ripple::network(n))
            .with_engine(engine)
            .without_trace();
        let outcome = sim.run_until(stop, |_| false);
        prop_assert_eq!(&outcome, &expected, "quiet={} cap={} [{:?}]", quiet, cap, engine);
        for (v, (x, y)) in sim.nodes().iter().zip(reference.nodes()).enumerate() {
            prop_assert_eq!(
                &x.receptions, &y.receptions,
                "quiet={} cap={} [{:?}]: node {} receptions", quiet, cap, engine, v
            );
        }
    }

    #[test]
    fn quiet_or_cap_and_stats_agree_across_engines(
        kind in 0u32..3,
        n in 4usize..24,
        seed in any::<u64>(),
        cap in 1u64..60,
    ) {
        // With tracing on (elision disabled, every round materialised), the
        // traces must be byte-identical, so the derived ExecutionStats are
        // too — and `went_quiet` must agree for the 1-round quiet policy.
        let g = build_topology(kind, n, seed);
        let mut reference =
            Simulator::new(g.clone(), Ripple::network(n)).with_engine(Engine::ListenerCentric);
        let expected = reference.run_until(StopCondition::QuietOrCap(cap), |_| false);
        let expected_stats = ExecutionStats::from_trace(reference.trace());
        let engine = Engine::EventDriven;
        let mut sim = Simulator::new(g.clone(), Ripple::network(n)).with_engine(engine);
        let outcome = sim.run_until(StopCondition::QuietOrCap(cap), |_| false);
        prop_assert_eq!(&outcome, &expected, "cap={} [{:?}]", cap, engine);
        prop_assert_eq!(outcome.went_quiet, expected.went_quiet);
        prop_assert_eq!(
            &ExecutionStats::from_trace(sim.trace()), &expected_stats,
            "cap={} [{:?}]: stats", cap, engine
        );
        prop_assert_eq!(
            sim.trace().rounds.clone(), reference.trace().rounds.clone(),
            "cap={} [{:?}]: trace", cap, engine
        );
    }
}
