//! Equivalence suite for the simulator engines.
//!
//! The fast engine (`Engine::EventDriven`) rewrote delivery from "every
//! listener scans its neighbourhood" to "every transmitter pushes along its
//! CSR row", and drives every protocol along its wake-hint frontier with
//! silent-round elision; the original algorithm is
//! retained verbatim as `Simulator::step_round_reference` (selected with
//! `Engine::ListenerCentric`). These tests replay seeded topologies under
//! every `Scheme` — and under an adversarial pseudo-random protocol at the
//! raw simulator level — and assert both engines produce **identical**
//! traces, node observations and `RunReport`s, field for field.

use radio_labeling::broadcast::session::{RunReport, RunSpec, Scheme, Session, TracePolicy};
use radio_labeling::graph::{generators, Graph};
use radio_labeling::radio::testing::ChaosNode;
use radio_labeling::radio::{Engine, FaultPlan, Simulator, StopCondition};
use std::sync::Arc;

/// Every engine the simulator offers, reference first: every engine after
/// it is compared against `ListenerCentric`, the executable spec.
const ENGINES: [Engine; 2] = [Engine::ListenerCentric, Engine::EventDriven];

/// Seeded workload families: name, graph, and the sources to broadcast from.
fn workloads() -> Vec<(String, Graph, Vec<usize>)> {
    let mut w: Vec<(String, Graph, Vec<usize>)> = vec![
        ("path-17".into(), generators::path(17), vec![0, 8, 16]),
        ("star-13".into(), generators::star(13), vec![0, 5]),
        ("grid-4x5".into(), generators::grid(4, 5), vec![0, 7]),
        (
            "tree-31".into(),
            generators::balanced_binary_tree(31),
            vec![0, 30],
        ),
        (
            "random-tree-24".into(),
            generators::random_tree(24, 5),
            vec![0, 11],
        ),
        ("barbell-5-2".into(), generators::barbell(5, 2), vec![0, 6]),
    ];
    for seed in [1u64, 2, 3] {
        w.push((
            format!("gnp-30-seed{seed}"),
            generators::gnp_connected(30, 0.15, seed).unwrap(),
            vec![0, 13],
        ));
    }
    w
}

/// Runs one spec on every engine and asserts the reports are identical.
fn assert_engines_agree(scheme: Scheme, graph: &Arc<Graph>, source: usize, label: &str) {
    let build = |engine: Engine| {
        Session::builder(scheme, Arc::clone(graph))
            .source(source)
            .message(17)
            .engine(engine)
            .build()
            .unwrap()
    };
    let reference = build(Engine::ListenerCentric);
    let b: RunReport = reference.run();
    assert!(
        b.completed(),
        "{label}: {} from {source} should complete",
        scheme.name()
    );
    let b2 = reference.run_with_message(99).unwrap();
    for &engine in &ENGINES[1..] {
        let session = build(engine);
        let a: RunReport = session.run();
        assert_eq!(
            a,
            b,
            "{label}: {} from {source} [{engine:?}]",
            scheme.name()
        );
        // A second message through the cached labeling must agree too.
        let a2 = session.run_with_message(99).unwrap();
        assert_eq!(a2, b2, "{label}: {} rerun [{engine:?}]", scheme.name());
    }
}

#[test]
fn all_general_schemes_agree_on_every_workload() {
    for (label, graph, sources) in workloads() {
        let graph = Arc::new(graph);
        for scheme in Scheme::GENERAL {
            for &source in &sources {
                assert_engines_agree(scheme, &graph, source, &label);
            }
        }
    }
}

#[test]
fn onebit_schemes_agree_on_their_classes() {
    for n in [8usize, 13, 20] {
        let cycle = Arc::new(generators::cycle(n));
        assert_engines_agree(Scheme::OneBitCycle, &cycle, n / 2, &format!("cycle-{n}"));
    }
    for (rows, cols) in [(3usize, 5usize), (4, 4)] {
        let grid = Arc::new(generators::grid(rows, cols));
        assert_engines_agree(
            Scheme::OneBitGrid { rows, cols },
            &grid,
            rows * cols - 1,
            &format!("grid-{rows}x{cols}"),
        );
    }
}

#[test]
fn engines_agree_with_tracing_disabled() {
    // Tracing off is where the event-driven engine actually elides rounds,
    // so this is the closest scrutiny of the elision arithmetic at the
    // session level.
    let g = Arc::new(generators::gnp_connected(26, 0.16, 9).unwrap());
    for scheme in Scheme::GENERAL {
        let build = |engine: Engine| {
            Session::builder(scheme, Arc::clone(&g))
                .source(4)
                .trace(TracePolicy::Disabled)
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric).run();
        for &engine in &ENGINES[1..] {
            assert_eq!(
                build(engine).run(),
                reference,
                "{} without trace [{engine:?}]",
                scheme.name()
            );
        }
    }
}

#[test]
fn batch_runs_agree_across_engines() {
    let g = Arc::new(generators::gnp_connected(18, 0.2, 21).unwrap());
    let specs: Vec<RunSpec> = (0..g.node_count())
        .map(|s| RunSpec::new(s, 50 + s as u64))
        .collect();
    let build = |engine: Engine| {
        Session::builder(Scheme::LambdaArb, Arc::clone(&g))
            .engine(engine)
            .build()
            .unwrap()
    };
    let reference = build(Engine::ListenerCentric).run_batch(&specs, 4).unwrap();
    for &engine in &ENGINES[1..] {
        let batch = build(engine).run_batch(&specs, 4).unwrap();
        assert_eq!(batch, reference, "[{engine:?}]");
    }
}

#[test]
fn multi_broadcast_reports_agree_across_engines() {
    // The k-source multi-broadcast subsystem: identical RunReports (per-
    // message completion rounds included) on all engines, for every
    // workload and several k.
    for (label, graph, _) in workloads() {
        let graph = Arc::new(graph);
        for k in [2usize, 4] {
            let build = |engine: Engine| {
                Session::builder(Scheme::MultiLambda { k }, Arc::clone(&graph))
                    .message(31)
                    .engine(engine)
                    .build()
                    .unwrap()
            };
            let reference = build(Engine::ListenerCentric).run();
            assert!(reference.completed(), "{label} k={k} should complete");
            assert_eq!(
                reference.message_completion_rounds.as_ref().unwrap().len(),
                k.min(graph.node_count()),
                "{label} k={k}"
            );
            for &engine in &ENGINES[1..] {
                assert_eq!(build(engine).run(), reference, "{label} k={k} [{engine:?}]");
            }
        }
    }
}

#[test]
fn multi_broadcast_raw_traces_identical_across_engines() {
    use radio_labeling::broadcast::multi::MultiNode;
    use radio_labeling::labeling::multi;

    for (label, graph, sources) in workloads() {
        let graph = Arc::new(graph);
        let scheme = multi::construct(&graph, &sources).unwrap();
        let payloads: Vec<u64> = (0..scheme.k() as u64).map(|j| 70 + j).collect();
        let rounds = 2 * (scheme.k() as u64 + 2) * (graph.node_count() as u64 + 2);
        // B has legitimate isolated silent rounds mid-relay (the 2-round
        // cadence of the dominating-set wave), so quiet detection needs the
        // same 3-round window the sessions use.
        let stop = StopCondition::QuietFor {
            quiet: 3,
            cap: rounds,
        };
        let mut reference =
            Simulator::new(Arc::clone(&graph), MultiNode::network(&scheme, &payloads))
                .with_engine(Engine::ListenerCentric);
        let b = reference.run_until(stop, |_| false);
        for &engine in &ENGINES[1..] {
            let mut sim =
                Simulator::new(Arc::clone(&graph), MultiNode::network(&scheme, &payloads))
                    .with_engine(engine);
            let a = sim.run_until(stop, |_| false);
            assert_eq!(a, b, "{label} [{engine:?}]: outcomes differ");
            assert_eq!(
                sim.trace().rounds,
                reference.trace().rounds,
                "{label} [{engine:?}]: traces differ"
            );
            for (v, (x, y)) in sim.nodes().iter().zip(reference.nodes()).enumerate() {
                assert_eq!(
                    x.payloads(),
                    y.payloads(),
                    "{label} [{engine:?}]: node {v} differs"
                );
                assert!(
                    x.holds_all_messages(),
                    "{label} [{engine:?}]: node {v} not fully informed"
                );
            }
        }
    }
}

#[test]
fn gossip_reports_agree_across_engines() {
    // The all-to-all gossip subsystem: identical RunReports (all n
    // per-message completion rounds included) on all engines, for every
    // workload. (Scheme::GENERAL already replays gossip through
    // `assert_engines_agree`; this pins the n-message report shape too.)
    for (label, graph, _) in workloads() {
        let graph = Arc::new(graph);
        let n = graph.node_count();
        let build = |engine: Engine| {
            Session::builder(Scheme::Gossip, Arc::clone(&graph))
                .message(31)
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric).run();
        assert!(reference.completed(), "{label} should complete");
        assert_eq!(
            reference.sources.len(),
            n,
            "{label}: every node is a source"
        );
        assert_eq!(
            reference.message_completion_rounds.as_ref().unwrap().len(),
            n,
            "{label}"
        );
        for &engine in &ENGINES[1..] {
            assert_eq!(build(engine).run(), reference, "{label} [{engine:?}]");
        }
    }
}

#[test]
fn gossip_raw_traces_identical_across_engines() {
    use radio_labeling::broadcast::multi::MultiNode;
    use radio_labeling::labeling::gossip;

    for (label, graph, _) in workloads() {
        let graph = Arc::new(graph);
        let n = graph.node_count();
        let scheme = gossip::construct(&graph).unwrap();
        let payloads: Vec<u64> = (0..n as u64).map(|j| 70 + j).collect();
        let rounds = 6 * (n as u64 + 2) + 16;
        let stop = StopCondition::QuietFor {
            quiet: 3,
            cap: rounds,
        };
        let mut reference =
            Simulator::new(Arc::clone(&graph), MultiNode::network(&scheme, &payloads))
                .with_engine(Engine::ListenerCentric);
        let b = reference.run_until(stop, |_| false);
        for &engine in &ENGINES[1..] {
            let mut sim =
                Simulator::new(Arc::clone(&graph), MultiNode::network(&scheme, &payloads))
                    .with_engine(engine);
            let a = sim.run_until(stop, |_| false);
            assert_eq!(a, b, "{label} [{engine:?}]: outcomes differ");
            assert_eq!(
                sim.trace().rounds,
                reference.trace().rounds,
                "{label} [{engine:?}]: traces differ"
            );
            for (v, (x, y)) in sim.nodes().iter().zip(reference.nodes()).enumerate() {
                assert_eq!(
                    x.payloads(),
                    y.payloads(),
                    "{label} [{engine:?}]: node {v} differs"
                );
                assert!(
                    x.holds_all_messages(),
                    "{label} [{engine:?}]: node {v} not fully informed"
                );
            }
        }
    }
}

// The adversarial pseudo-random protocol lives in `rn_radio::testing`
// (shared with the in-crate fault suites); this file used to carry its own
// copy. ChaosNode keeps the default wake hint of 0, so it also pins the
// fast engine driving every node every round.

#[test]
fn raw_traces_and_observations_identical_under_chaos() {
    // density 2 ≈ half the nodes transmit every round (collision-saturated);
    // density 16 ≈ sparse rounds (the fast engine's home turf).
    for density in [2u64, 5, 16] {
        for (label, graph, _) in workloads() {
            let graph = Arc::new(graph);
            let n = graph.node_count();
            let mut reference = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, density))
                .with_engine(Engine::ListenerCentric);
            let b = reference.run_until(StopCondition::AfterRounds(60), |_| false);
            for &engine in &ENGINES[1..] {
                let mut sim = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, density))
                    .with_engine(engine);
                let a = sim.run_until(StopCondition::AfterRounds(60), |_| false);
                assert_eq!(a, b, "{label} d={density} [{engine:?}]: outcomes differ");
                assert_eq!(
                    sim.trace().rounds,
                    reference.trace().rounds,
                    "{label} d={density} [{engine:?}]: traces differ"
                );
                for (v, (x, y)) in sim.nodes().iter().zip(reference.nodes()).enumerate() {
                    assert_eq!(
                        x.observations, y.observations,
                        "{label} d={density} [{engine:?}]: node {v} observations differ"
                    );
                }
            }
        }
    }
}

/// A deterministic seeded fault plan exercising every adversary the
/// simulator supports at once: one crash, one jam window, and one late
/// waker, each picked by a SplitMix64 hash (never the source, so the
/// broadcast at least starts). Victims may coincide — the fault semantics
/// are total either way, and all engines must agree regardless.
fn seeded_plan(n: usize, seed: u64, source: usize) -> FaultPlan {
    let pick = |salt: u64| -> usize {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let v = (z % n as u64) as usize;
        if v == source {
            (v + 1) % n
        } else {
            v
        }
    };
    let n64 = n as u64;
    FaultPlan::none()
        .crash(pick(1), 1 + seed % n64)
        .jam(pick(2), 2 + seed % 3, (n64 / 2).max(2))
        .late_wake(pick(3), 3 + seed % n64)
}

#[test]
fn all_general_schemes_agree_under_seeded_fault_plans() {
    // The fault path rewires every engine's inner loops (inert nodes, jammer
    // slots, receive-side rewrites, forced jam wake-ups); this replays every
    // GENERAL scheme under a crash + jam + late-wake plan and demands
    // field-for-field identical RunReports — robustness columns included —
    // plus a deterministic rerun.
    for (label, graph, sources) in workloads() {
        let graph = Arc::new(graph);
        let n = graph.node_count();
        for seed in [1u64, 5] {
            let source = sources[0];
            let plan = seeded_plan(n, seed, source);
            for scheme in Scheme::GENERAL {
                let build = |engine: Engine| {
                    Session::builder(scheme, Arc::clone(&graph))
                        .source(source)
                        .message(17)
                        .engine(engine)
                        .faults(plan.clone())
                        .build()
                        .unwrap()
                };
                let reference = build(Engine::ListenerCentric);
                let b: RunReport = reference.run();
                assert!(
                    b.delivery_rate >= 0.0 && b.delivery_rate <= 1.0,
                    "{label}: delivery_rate out of range"
                );
                for &engine in &ENGINES[1..] {
                    let session = build(engine);
                    let a: RunReport = session.run();
                    assert_eq!(
                        a,
                        b,
                        "{label} seed={seed}: {} faulted [{engine:?}]",
                        scheme.name()
                    );
                    assert_eq!(
                        a,
                        session.run(),
                        "{label} seed={seed}: {} faulted rerun [{engine:?}]",
                        scheme.name()
                    );
                }
            }
        }
    }
}

#[test]
fn chaos_traces_and_observations_identical_under_faults() {
    // Raw-simulator equivalence with faults active: the full trace
    // (including `Faulted` markers) and every node's observation log must
    // match across all engines under the collision-heavy chaos protocol.
    for (label, graph, _) in workloads() {
        let graph = Arc::new(graph);
        let n = graph.node_count();
        let plan = seeded_plan(n, 3, 0);
        let mut reference = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 3))
            .with_engine(Engine::ListenerCentric)
            .with_faults(&plan);
        let b = reference.run_until(StopCondition::AfterRounds(60), |_| false);
        for &engine in &ENGINES[1..] {
            let mut sim = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 3))
                .with_engine(engine)
                .with_faults(&plan);
            let a = sim.run_until(StopCondition::AfterRounds(60), |_| false);
            assert_eq!(a, b, "{label} [{engine:?}]: outcomes differ");
            assert_eq!(
                sim.trace().rounds,
                reference.trace().rounds,
                "{label} [{engine:?}]: traces differ"
            );
            for (v, (x, y)) in sim.nodes().iter().zip(reference.nodes()).enumerate() {
                assert_eq!(
                    x.observations, y.observations,
                    "{label} [{engine:?}]: node {v} observations differ"
                );
            }
        }
    }
}

#[test]
fn chaos_without_trace_agrees_across_engines() {
    // Tracing off is where the fast engine elides quiet spans; the chaos
    // protocol's hints are all 0, so every node is due every round and
    // nothing is elided, with identical outcomes and observation logs.
    for (label, graph, _) in workloads() {
        let graph = Arc::new(graph);
        let n = graph.node_count();
        let mut reference = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 4))
            .with_engine(Engine::ListenerCentric)
            .without_trace();
        let b = reference.run_until(StopCondition::QuietFor { quiet: 2, cap: 80 }, |_| false);
        for &engine in &ENGINES[1..] {
            let mut sim = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 4))
                .with_engine(engine)
                .without_trace();
            let a = sim.run_until(StopCondition::QuietFor { quiet: 2, cap: 80 }, |_| false);
            assert_eq!(a, b, "{label} [{engine:?}]: outcomes differ");
            for (v, (x, y)) in sim.nodes().iter().zip(reference.nodes()).enumerate() {
                assert_eq!(
                    x.observations, y.observations,
                    "{label} [{engine:?}]: node {v} observations differ"
                );
            }
        }
    }
}

#[test]
fn instrumented_sessions_report_identically_on_every_engine() {
    // Telemetry must be a pure observer: `run_instrumented` installs a
    // metrics sink (the only run mode that pays for per-round metric
    // assembly) and must still return the exact `RunReport` the plain `run`
    // produces, on every engine — while its aggregated counters reproduce
    // the trace-derived statistics field for field.
    use radio_labeling::radio::ExecutionStats;

    let g = Arc::new(generators::gnp_connected(26, 0.16, 9).unwrap());
    for scheme in Scheme::GENERAL {
        for engine in ENGINES {
            let session = Session::builder(scheme, Arc::clone(&g))
                .source(4)
                .message(17)
                .engine(engine)
                .build()
                .unwrap();
            let plain = session.run();
            let (instrumented, metrics) = session.run_instrumented();
            assert_eq!(
                instrumented,
                plain,
                "{} [{engine:?}]: sink changed the report",
                scheme.name()
            );
            let counters = metrics.counters.expect("instrumented run counts");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                plain.stats,
                "{} [{engine:?}]: counters diverge from trace stats",
                scheme.name()
            );
            assert_eq!(
                metrics.counters_match_trace,
                Some(true),
                "{} [{engine:?}]: cross-check not recorded",
                scheme.name()
            );
            assert!(
                metrics.span_nanos("round_loop").is_some(),
                "{} [{engine:?}]: round_loop span missing",
                scheme.name()
            );
        }
    }
}

#[test]
fn instrumented_traceless_sessions_recover_full_stats_on_every_engine() {
    // With tracing off a plain run reports only the round count, but an
    // instrumented one substitutes its counters for the trace walk — so the
    // report must match the plain traceless run in every other field, and
    // its statistics must equal what a *traced* run derives, on every
    // engine (including the event-driven engine's elided spans).
    let g = Arc::new(generators::gnp_connected(26, 0.16, 9).unwrap());
    for scheme in Scheme::GENERAL {
        for engine in ENGINES {
            let build = |trace: TracePolicy| {
                Session::builder(scheme, Arc::clone(&g))
                    .source(4)
                    .message(17)
                    .trace(trace)
                    .engine(engine)
                    .build()
                    .unwrap()
            };
            let traced = build(TracePolicy::Recorded).run();
            let session = build(TracePolicy::Disabled);
            let mut plain = session.run();
            let (instrumented, metrics) = session.run_instrumented();
            assert_eq!(
                instrumented.stats,
                traced.stats,
                "{} [{engine:?}]: counter-backed stats diverge from trace",
                scheme.name()
            );
            assert_eq!(
                metrics.counters_match_trace,
                None,
                "{} [{engine:?}]: no trace, so no cross-check",
                scheme.name()
            );
            plain.stats = instrumented.stats.clone();
            assert_eq!(
                instrumented,
                plain,
                "{} [{engine:?}]: sink changed a traceless report beyond stats",
                scheme.name()
            );
        }
    }
}

#[test]
fn sink_installed_raw_traces_identical_on_every_engine() {
    // Raw-simulator half of the observer guarantee: a `CounterSink` bolted
    // onto the simulator must leave the trace, the outcome and every node's
    // observation log byte-identical to the uninstrumented run — and its
    // counters must agree with the trace walk — on every engine, under the
    // collision-heavy chaos protocol.
    use radio_labeling::radio::{CounterSink, ExecutionStats};

    for (label, graph, _) in workloads() {
        let graph = Arc::new(graph);
        let n = graph.node_count();
        for engine in ENGINES {
            let mut bare =
                Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 3)).with_engine(engine);
            let b = bare.run_until(StopCondition::AfterRounds(60), |_| false);
            let mut sim = Simulator::new(Arc::clone(&graph), ChaosNode::network(n, 3))
                .with_engine(engine)
                .with_metrics(Box::new(CounterSink::default()));
            let a = sim.run_until(StopCondition::AfterRounds(60), |_| false);
            assert_eq!(a, b, "{label} [{engine:?}]: outcomes differ");
            assert_eq!(
                sim.trace().rounds,
                bare.trace().rounds,
                "{label} [{engine:?}]: sink changed the trace"
            );
            for (v, (x, y)) in sim.nodes().iter().zip(bare.nodes()).enumerate() {
                assert_eq!(
                    x.observations, y.observations,
                    "{label} [{engine:?}]: node {v} observations differ"
                );
            }
            let counters = sim.metrics_counters().expect("sink installed");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                ExecutionStats::from_trace(sim.trace()),
                "{label} [{engine:?}]: counters diverge from the trace walk"
            );
            // The trace holds exactly the channel's activity: one event per
            // transmission, delivery and collision, none for silence, and
            // each round's nodes in strictly increasing order.
            let events: usize = sim.trace().rounds.iter().map(|r| r.events.len()).sum();
            assert_eq!(
                events as u64,
                counters.transmissions + counters.deliveries + counters.collisions,
                "{label} [{engine:?}]: trace size is not the channel's activity"
            );
            for record in &sim.trace().rounds {
                assert!(
                    record.events.windows(2).all(|w| w[0].0 < w[1].0),
                    "{label} [{engine:?}] round {}: node ids do not strictly increase",
                    record.round
                );
            }
        }
    }
}

#[test]
fn engines_list_is_exhaustive() {
    // A compile-time reminder: adding an `Engine` variant must extend this
    // suite. The match has no wildcard arm, so a new variant fails to build
    // until it is added both here and to `ENGINES` above.
    for engine in ENGINES {
        match engine {
            Engine::ListenerCentric | Engine::EventDriven => {}
        }
    }
    assert_eq!(ENGINES.len(), 2);
}
