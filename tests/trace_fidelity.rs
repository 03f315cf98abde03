//! Trace fidelity across the simulator engines, on every topology preset.
//!
//! For a protocol that declares wake hints, the fast engine skips quiet
//! nodes in its decide pass and — with tracing off — elides whole silent
//! spans; with tracing **on** it must still materialise every round exactly
//! as the listener-centric reference engine does. These
//! tests replay a hint-heavy relay protocol and a faulted chaos workload on
//! all 18 [`TopologyFamily::PRESETS`] and pin the parts of the [`Trace`]
//! downstream analyses consume: contiguous round numbering, the
//! `first_receive_rounds_bucketed` completion matrices, and the placement
//! of `NodeEvent::Faulted` markers — byte-identical across both engines.

use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::graph::Graph;
use radio_labeling::radio::testing::ChaosNode;
use radio_labeling::radio::trace::NodeEvent;
use radio_labeling::radio::{
    Action, CounterSink, Engine, FaultPlan, RadioNode, Simulator, StopCondition,
};
use std::sync::Arc;

/// Every preset instantiated at the same nominal size and seed. Rigid
/// families round the size, so the actual `n` is always read off the graph.
fn preset_graphs() -> Vec<(String, Arc<Graph>)> {
    TopologyFamily::PRESETS
        .iter()
        .map(|fam| {
            let g = fam.generate(40, 11).expect("preset generates connected");
            (format!("{fam:?}"), Arc::new(g))
        })
        .collect()
}

/// A single-source flood with a genuine dormancy hint: the source transmits
/// its hop count once, every first-time receiver relays `hop + 1` exactly
/// once, and relayed nodes park forever. With tracing on the event-driven
/// engine gets no elision — this pins its per-round trace output while the
/// wake-hint frontier machinery (parking, reception wake-ups) is fully
/// engaged.
struct Flood {
    holding: Option<u64>,
    relayed: bool,
}

impl Flood {
    fn network(n: usize) -> Vec<Flood> {
        (0..n)
            .map(|v| Flood {
                holding: (v == 0).then_some(1),
                relayed: false,
            })
            .collect()
    }
}

impl RadioNode for Flood {
    type Msg = u64;
    const WAKE_HINTS: bool = true;
    fn step(&mut self, _now: u64) -> Action<u64> {
        match self.holding.take() {
            Some(hop) if !self.relayed => {
                self.relayed = true;
                Action::Transmit(hop)
            }
            _ => Action::Listen,
        }
    }
    fn receive(&mut self, heard: Option<&u64>, _now: u64) {
        if let Some(hop) = heard {
            if !self.relayed {
                self.holding = Some(hop + 1);
            }
        }
    }
    fn wake_hint(&self, _now: u64) -> u64 {
        if self.holding.is_some() && !self.relayed {
            0
        } else {
            u64::MAX
        }
    }
}

/// Runs `Flood` on one engine with tracing on and a `CounterSink`
/// installed, checks that the trace holds exactly the channel's activity,
/// and returns the simulator.
fn flood_run(graph: &Arc<Graph>, engine: Engine) -> Simulator<Flood> {
    let n = graph.node_count();
    let mut sim = Simulator::new(Arc::clone(graph), Flood::network(n))
        .with_engine(engine)
        .with_metrics(Box::new(CounterSink::new()));
    sim.run_until(
        StopCondition::QuietFor {
            quiet: 3,
            cap: 4 * n as u64 + 20,
        },
        |_| false,
    );
    // A fault-free trace is sparse: one event per transmission, delivery
    // and collision, and nothing for a silent node.
    let c = sim.metrics_counters().expect("sink installed");
    let events: usize = sim.trace().rounds.iter().map(|r| r.events.len()).sum();
    assert_eq!(
        events as u64,
        c.transmissions + c.deliveries + c.collisions,
        "[{engine:?}]: trace size is not the channel's activity"
    );
    for record in &sim.trace().rounds {
        assert!(
            record.events.windows(2).all(|w| w[0].0 < w[1].0),
            "[{engine:?}] round {}: node ids do not strictly increase",
            record.round
        );
    }
    sim
}

#[test]
fn round_numbering_is_contiguous_and_identical_on_all_presets() {
    // With tracing on, elision is off: the trace must contain one record
    // per executed round, numbered 1..=rounds_executed with no gaps, and
    // the records must be byte-identical across engines.
    for (label, graph) in preset_graphs() {
        let reference = flood_run(&graph, Engine::ListenerCentric);
        let rounds = reference.trace().rounds.len() as u64;
        assert!(
            rounds > 0,
            "{label}: flood should execute at least one round"
        );
        let engine = Engine::EventDriven;
        let sim = flood_run(&graph, engine);
        for (i, record) in sim.trace().rounds.iter().enumerate() {
            assert_eq!(
                record.round,
                i as u64 + 1,
                "{label} [{engine:?}]: round numbering has a gap"
            );
        }
        assert_eq!(
            sim.trace().rounds,
            reference.trace().rounds,
            "{label} [{engine:?}]: traces differ"
        );
    }
}

#[test]
fn first_receive_buckets_identical_on_all_presets() {
    // The completion matrices the sweeps derive from traces: bucket the
    // flood's hop-count messages mod 4 and demand the full `[bucket][node]`
    // first-reception matrix matches the reference engine, entry for entry.
    // Cross-check each node's min over buckets against the scalar
    // `first_receive_round` query so the bucketed fast path and the simple
    // query can never drift apart either.
    const BUCKETS: usize = 4;
    for (label, graph) in preset_graphs() {
        let n = graph.node_count();
        let bucket = |m: &u64, emit: &mut dyn FnMut(usize)| {
            emit((*m % BUCKETS as u64) as usize);
        };
        let reference = flood_run(&graph, Engine::ListenerCentric);
        let expected = reference
            .trace()
            .first_receive_rounds_bucketed(n, BUCKETS, bucket);
        let engine = Engine::EventDriven;
        let sim = flood_run(&graph, engine);
        let got = sim
            .trace()
            .first_receive_rounds_bucketed(n, BUCKETS, bucket);
        assert_eq!(
            got, expected,
            "{label} [{engine:?}]: bucket matrices differ"
        );
        for v in 0..n {
            let min_over_buckets = got.iter().filter_map(|row| row[v]).min();
            assert_eq!(
                min_over_buckets,
                sim.trace().first_receive_round(v),
                "{label} [{engine:?}]: node {v} bucket min disagrees with \
                 first_receive_round"
            );
        }
    }
}

#[test]
fn faulted_marker_placement_identical_on_all_presets() {
    // Fault markers are the one trace event the engines synthesise
    // themselves (nodes never see their own crash): under a crash + jam +
    // late-wake plan on a collision-heavy chaos workload, every node's
    // `Faulted` rounds — and the whole trace — must agree across engines,
    // and the victims must actually carry markers.
    for (label, graph) in preset_graphs() {
        let n = graph.node_count();
        let crash_victim = 1 % n;
        let jam_victim = (n / 2).max(2) % n;
        let late_victim = (n - 1).max(3) % n;
        let plan = FaultPlan::none()
            .crash(crash_victim, 7)
            .jam(jam_victim, 4, 5)
            .late_wake(late_victim, 6);
        let run = |engine: Engine| {
            let mut sim = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 3))
                .with_engine(engine)
                .with_faults(&plan);
            sim.run_until(StopCondition::AfterRounds(40), |_| false);
            sim
        };
        let reference = run(Engine::ListenerCentric);
        for v in [crash_victim, jam_victim, late_victim] {
            assert!(
                !reference.trace().fault_rounds(v).is_empty(),
                "{label}: victim {v} carries no Faulted marker"
            );
        }
        let engine = Engine::EventDriven;
        let sim = run(engine);
        for v in 0..n {
            assert_eq!(
                sim.trace().fault_rounds(v),
                reference.trace().fault_rounds(v),
                "{label} [{engine:?}]: node {v} Faulted placement differs"
            );
        }
        assert_eq!(
            sim.trace().rounds,
            reference.trace().rounds,
            "{label} [{engine:?}]: faulted traces differ"
        );
    }
}

#[test]
fn every_round_event_is_consistent_with_the_recorded_transmitters() {
    // A structural audit of event-driven traces on every preset: each
    // record's Heard/Collision/Silence events must be consistent with the
    // transmitter set recorded in the same round — the same delivery rule
    // the listener-centric engine computes directly.
    for (label, graph) in preset_graphs() {
        let sim = flood_run(&graph, Engine::EventDriven);
        for record in &sim.trace().rounds {
            let transmitters: Vec<usize> = record
                .events
                .iter()
                .filter(|(_, e)| matches!(e, NodeEvent::Transmitted(_)))
                .map(|&(v, _)| v)
                .collect();
            for v in 0..graph.node_count() {
                let tx_neighbors = graph
                    .neighbors(v)
                    .iter()
                    .filter(|w| transmitters.contains(w))
                    .count();
                match record.event(v) {
                    Some(NodeEvent::Transmitted(_)) => {}
                    Some(NodeEvent::Heard { from, .. }) => {
                        assert_eq!(
                            tx_neighbors, 1,
                            "{label} round {}: heard without unique transmitter",
                            record.round
                        );
                        assert!(
                            transmitters.contains(from),
                            "{label} round {}: heard from a non-transmitter",
                            record.round
                        );
                    }
                    Some(NodeEvent::Collision {
                        transmitting_neighbors,
                    }) => {
                        assert_eq!(
                            *transmitting_neighbors, tx_neighbors,
                            "{label} round {}: collision fan-in wrong",
                            record.round
                        );
                    }
                    None => {
                        assert_eq!(
                            tx_neighbors, 0,
                            "{label} round {}: silence with transmitting neighbors",
                            record.round
                        );
                    }
                    Some(NodeEvent::Faulted(_)) => {
                        panic!("{label}: fault marker in a fault-free run");
                    }
                }
            }
        }
    }
}
