//! Golden digests of what a `Session` reports.
//!
//! The labeling golden file pins the constructions; this one pins the layer
//! above them: how a session drives a protocol and fills its `RunReport`.
//! A change to that layer moves every engine at once, so no engine-vs-engine
//! comparison can see it. Each row hashes every deterministic `RunReport`
//! field (and, for the API rows, the other deterministic outputs: counters,
//! trace shapes, wake-hint audit counters, state digests) and the test
//! compares the hashes with `tests/golden/session_digests.txt`.
//!
//! Sections, one header line each:
//!
//! * `general/<family>/<scheme>` — every `Scheme::GENERAL` entry plus
//!   `multi_lambda:8` on every `TopologyFamily::PRESETS` entry at n = 48
//!   (seed 1), from sources {0, n/2}, under both trace policies;
//! * `onebit/<graph>/<scheme>` — the 1-bit schemes on their own classes;
//! * `tiny/<graph>/<scheme>` — the degenerate one- and two-node graphs;
//! * `engine/<scheme>/<engine>` — every scheme on every engine;
//! * `faults/<scheme>` — every scheme under one crash + jam fault plan;
//! * `latewake/<scheme>` — every `Scheme::GENERAL` entry under a plan that
//!   wakes one node late, jams a relay across its multi-broadcast collection
//!   slot and jams an informed node during λ_arb's completion countdown, on
//!   both engines and under both trace policies;
//! * `api/<scheme>` — the other entry points: `run_instrumented` (counters
//!   and the trace cross-check), `run_shaped`, a relabelling `run_with`,
//!   `run_with_message`, a 2-thread `run_batch`, `audit_wake_hints` and
//!   `state_digest_history(8)`.
//!
//! A digest may only change together with a deliberate change to what a
//! session reports; the failure message prints each changed row as it now
//! reads, for updating the file in that same change.

use radio_labeling::broadcast::session::{RunReport, RunSpec, Scheme, Session, TracePolicy};
use radio_labeling::graph::generators::{self, TopologyFamily};
use radio_labeling::graph::Graph;
use radio_labeling::radio::{Digest, Engine, FaultPlan, RunCounters, ShapeEvent, TraceShape};
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/session_digests.txt"
);

const MESSAGE: u64 = 42;

const TRACES: [TracePolicy; 2] = [TracePolicy::Recorded, TracePolicy::Disabled];

const ENGINES: [Engine; 2] = [Engine::ListenerCentric, Engine::EventDriven];

/// The schemes defined on every connected graph: `Scheme::GENERAL` plus a
/// larger multi-broadcast.
fn general_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::GENERAL.to_vec();
    schemes.push(Scheme::MultiLambda { k: 8 });
    schemes
}

/// Every scheme with a graph of its class: the general schemes on `general`,
/// the 1-bit schemes on a cycle and a grid.
fn every_scheme(general: &Arc<Graph>) -> Vec<(Scheme, Arc<Graph>)> {
    let mut all: Vec<(Scheme, Arc<Graph>)> = general_schemes()
        .into_iter()
        .map(|s| (s, Arc::clone(general)))
        .collect();
    all.push((Scheme::OneBitCycle, Arc::new(generators::cycle(13))));
    all.push((
        Scheme::OneBitGrid { rows: 3, cols: 4 },
        Arc::new(generators::grid(3, 4)),
    ));
    all
}

/// The scheme's row label: its name, with the source count for
/// `multi_lambda` and the dimensions for `onebit_grid`.
fn label(scheme: Scheme) -> String {
    match scheme {
        Scheme::MultiLambda { k } => format!("{}:{k}", scheme.name()),
        Scheme::OneBitGrid { rows, cols } => format!("{}:{rows}x{cols}", scheme.name()),
        _ => scheme.name().to_string(),
    }
}

fn text(d: Digest, s: &str) -> Digest {
    d.words(&s.bytes().map(u64::from).collect::<Vec<_>>())
}

/// Folds every deterministic field of a report.
fn report(d: Digest, r: &RunReport) -> Digest {
    let mut d = text(d, r.scheme)
        .word(r.node_count as u64)
        .word(r.source as u64)
        .words(&r.sources.iter().map(|&s| s as u64).collect::<Vec<_>>())
        .opt(r.coordinator.map(|c| c as u64))
        .word(r.message)
        .word(r.label_length as u64)
        .word(r.distinct_labels as u64)
        .word(r.informed_rounds.len() as u64);
    for &round in &r.informed_rounds {
        d = d.opt(round);
    }
    d = d
        .opt(r.completion_round)
        .flag(r.message_completion_rounds.is_some());
    for &(node, round) in r.message_completion_rounds.iter().flatten() {
        d = d.word(node as u64).opt(round);
    }
    let s = &r.stats;
    d.opt(r.ack_round)
        .opt(r.common_knowledge_round)
        .word(r.rounds_executed)
        .words(&[
            s.rounds,
            s.transmissions as u64,
            s.receptions as u64,
            s.collisions as u64,
            s.silent_rounds,
            s.max_transmitters_per_round as u64,
            s.total_bits as u64,
            s.max_message_bits as u64,
        ])
        .word(r.delivery_rate.to_bits())
        .opt(r.stalled_at)
        .word(r.faults_injected as u64)
}

/// Folds a fallible output; errors fold their message.
fn result<T, E: std::fmt::Display>(
    d: Digest,
    r: &Result<T, E>,
    ok: impl FnOnce(Digest, &T) -> Digest,
) -> Digest {
    match r {
        Ok(v) => ok(d.word(1), v),
        Err(e) => text(d.word(0), &e.to_string()),
    }
}

fn counters(d: Digest, c: &RunCounters) -> Digest {
    d.words(&[
        c.rounds,
        c.transmitters,
        c.transmissions,
        c.deliveries,
        c.collisions,
        c.rx_faults,
        c.silent_rounds,
        c.max_transmitters_per_round,
        c.total_bits,
        c.max_message_bits,
        c.frontier_peak,
        c.elided_rounds,
        c.elided_spans,
        c.scratch_reused,
        c.scratch_fresh,
    ])
}

fn shape(d: Digest, s: &TraceShape) -> Digest {
    let mut d = d.word(s.rounds.len() as u64);
    for round in &s.rounds {
        d = d.word(round.round);
        for event in &round.events {
            d = match event {
                ShapeEvent::Transmitted => d.word(1),
                ShapeEvent::Heard { from } => d.word(2).word(*from as u64),
                ShapeEvent::Collision {
                    transmitting_neighbors,
                } => d.word(3).word(*transmitting_neighbors as u64),
                ShapeEvent::Silence => d.word(4),
                ShapeEvent::Faulted(kind) => text(d.word(5), &format!("{kind:?}")),
            };
        }
    }
    d
}

fn hex(d: Digest) -> String {
    format!("{:016x}", d.finish())
}

fn build(scheme: Scheme, g: &Arc<Graph>) -> radio_labeling::broadcast::session::SessionBuilder {
    Session::builder(scheme, Arc::clone(g)).message(MESSAGE)
}

/// One digest per (source, trace policy) pair, sources {0, n/2}.
fn source_trace_columns(scheme: Scheme, g: &Arc<Graph>) -> Vec<String> {
    let n = g.node_count();
    let mut cols = Vec::new();
    for source in [0, n / 2] {
        for trace in TRACES {
            let session = build(scheme, g).source(source).trace(trace).build();
            cols.push(hex(result(Digest::new(0x5e55_0001), &session, |d, s| {
                report(d, &s.run())
            })));
        }
    }
    cols
}

/// Every scheme on every engine, over a few instances, sources and both
/// trace policies.
fn engine_column(scheme: Scheme, g: &Arc<Graph>, engine: Engine) -> String {
    let mut d = Digest::new(0x5e55_0002);
    for source in [0, g.node_count() / 2] {
        for trace in TRACES {
            let session = build(scheme, g)
                .source(source)
                .trace(trace)
                .engine(engine)
                .build();
            d = result(d, &session, |d, s| report(d, &s.run()));
        }
    }
    hex(d)
}

fn fault_column(scheme: Scheme, g: &Arc<Graph>) -> String {
    let plan = FaultPlan::none().crash(5, 3).jam(1, 2, 3);
    let mut d = Digest::new(0x5e55_0003);
    for trace in TRACES {
        let session = build(scheme, g).faults(plan.clone()).trace(trace).build();
        d = result(d, &session, |d, s| report(d, &s.run()));
    }
    hex(d)
}

/// A late wake plus two jams, timed on the 7×7 grid from source 0: node 17
/// is jammed in rounds 2–3, before its `multi_lambda:2` collection slot in
/// round 5, and node 2 in rounds 70–72, inside λ_arb's phase-3 completion
/// countdown. A jam suspends the protocol, so both slots move by the
/// length of the jam.
fn late_wake_column(scheme: Scheme, g: &Arc<Graph>) -> String {
    let plan = FaultPlan::none()
        .late_wake(9, 4)
        .jam(17, 2, 2)
        .jam(2, 70, 3);
    let mut d = Digest::new(0x5e55_0004);
    for engine in ENGINES {
        for trace in TRACES {
            let session = build(scheme, g)
                .faults(plan.clone())
                .engine(engine)
                .trace(trace)
                .build();
            d = result(d, &session, |d, s| report(d, &s.run()));
        }
    }
    hex(d)
}

/// The `api` section's columns for one scheme on one graph.
fn api_columns(scheme: Scheme, g: &Arc<Graph>) -> Vec<String> {
    let n = g.node_count();
    let fresh = || build(scheme, g).build().expect("api instances build");
    let mut cols = Vec::new();

    let (r, m) = fresh().run_instrumented();
    let mut d = report(Digest::new(0x5e55_0010), &r);
    d = d.flag(m.counters.is_some());
    if let Some(c) = &m.counters {
        d = counters(d, c);
    }
    d = d.opt(m.counters_match_trace.map(u64::from));
    let relabel = RunSpec::new(n - 1, MESSAGE + 1);
    d = result(d, &fresh().run_with_instrumented(relabel), |d, (r, m)| {
        let d = report(d, r).flag(m.counters.is_some());
        let d = m.counters.as_ref().map_or(d, |c| counters(d, c));
        d.opt(m.counters_match_trace.map(u64::from))
    });
    cols.push(hex(d));

    let (r, s) = fresh().run_shaped();
    cols.push(hex(shape(report(Digest::new(0x5e55_0011), &r), &s)));

    let session = fresh();
    let d = result(Digest::new(0x5e55_0012), &session.run_with(relabel), report);
    cols.push(hex(report(d, &session.run())));

    let d = result(
        Digest::new(0x5e55_0013),
        &fresh().run_with_message(MESSAGE + 7),
        report,
    );
    cols.push(hex(d));

    let specs: Vec<RunSpec> = (0..n).map(|s| RunSpec::new(s, 40 + s as u64)).collect();
    let d = result(
        Digest::new(0x5e55_0014),
        &fresh().run_batch(&specs, 2),
        |d, reports| reports.iter().fold(d, report),
    );
    cols.push(hex(d));

    let d = result(
        Digest::new(0x5e55_0015),
        &fresh().audit_wake_hints(),
        |d, a| d.words(&[a.states_checked, a.hints_audited, a.steps_replayed]),
    );
    cols.push(hex(d));

    let history = fresh().state_digest_history(8);
    let d = history
        .iter()
        .fold(Digest::new(0x5e55_0016), |d, row| d.words(row));
    cols.push(hex(d));
    cols
}

fn section(rows: &mut Vec<String>, header: &str) {
    rows.push(format!("# {header}"));
}

fn row(rows: &mut Vec<String>, name: String, cols: Vec<String>) {
    rows.push(format!("{name} {}", cols.join(" ")));
}

fn actual_rows() -> Vec<String> {
    let mut rows = Vec::new();
    section(
        &mut rows,
        "general/<family>/<scheme> s0_recorded s0_disabled mid_recorded mid_disabled",
    );
    for family in TopologyFamily::PRESETS {
        let g = Arc::new(family.generate(48, 1).expect("preset families generate"));
        for scheme in general_schemes() {
            let cols = source_trace_columns(scheme, &g);
            row(
                &mut rows,
                format!("general/{}/{}", family.name(), label(scheme)),
                cols,
            );
        }
    }

    section(
        &mut rows,
        "onebit/<graph>/<scheme> s0_recorded s0_disabled mid_recorded mid_disabled",
    );
    for n in [3, 4, 47, 48] {
        let g = Arc::new(generators::cycle(n));
        let cols = source_trace_columns(Scheme::OneBitCycle, &g);
        row(&mut rows, format!("onebit/cycle{n}/onebit_cycle"), cols);
    }
    for (r, c) in [(1, 5), (2, 2), (6, 8), (7, 7)] {
        let g = Arc::new(generators::grid(r, c));
        let scheme = Scheme::OneBitGrid { rows: r, cols: c };
        let cols = source_trace_columns(scheme, &g);
        row(
            &mut rows,
            format!("onebit/grid{r}x{c}/{}", label(scheme)),
            cols,
        );
    }

    section(
        &mut rows,
        "tiny/<graph>/<scheme> s0_recorded s0_disabled mid_recorded mid_disabled",
    );
    for n in [1, 2] {
        let g = Arc::new(generators::path(n));
        for scheme in general_schemes() {
            let cols = source_trace_columns(scheme, &g);
            row(&mut rows, format!("tiny/path{n}/{}", label(scheme)), cols);
        }
    }

    section(&mut rows, "engine/<scheme>/<engine> report");
    let engine_graph = Arc::new(
        TopologyFamily::GnpAvgDegree { avg_degree: 8.0 }
            .generate(48, 1)
            .expect("preset families generate"),
    );
    for (scheme, g) in every_scheme(&engine_graph) {
        for engine in ENGINES {
            let col = engine_column(scheme, &g, engine);
            row(
                &mut rows,
                format!("engine/{}/{engine:?}", label(scheme)),
                vec![col],
            );
        }
    }

    section(&mut rows, "faults/<scheme> report");
    let fault_graph = Arc::new(
        TopologyFamily::Grid
            .generate(48, 1)
            .expect("preset families generate"),
    );
    for (scheme, g) in every_scheme(&fault_graph) {
        let col = fault_column(scheme, &g);
        row(&mut rows, format!("faults/{}", label(scheme)), vec![col]);
    }

    section(&mut rows, "latewake/<scheme> report");
    for scheme in Scheme::GENERAL {
        let col = late_wake_column(scheme, &fault_graph);
        row(&mut rows, format!("latewake/{}", label(scheme)), vec![col]);
    }

    section(
        &mut rows,
        "api/<scheme> instrumented shaped run_with run_with_message run_batch audit digest_history",
    );
    let api_graph = Arc::new(generators::gnp_connected(14, 0.25, 3).expect("valid parameters"));
    for (scheme, g) in every_scheme(&api_graph) {
        let cols = api_columns(scheme, &g);
        row(&mut rows, format!("api/{}", label(scheme)), cols);
    }
    rows
}

#[test]
fn session_digests_match_the_golden_file() {
    let actual = actual_rows().join("\n") + "\n";
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is committed");
    let changed: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        changed.is_empty() && golden.lines().count() == actual.lines().count(),
        "session digests changed ({} rows):\n{}",
        changed.len(),
        changed.join("\n")
    );
}
