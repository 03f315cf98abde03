//! The traced run: one untraced pass, the same pass with a span around every
//! call into a crate, and a decomposition of every unit into the layers the
//! pass cannot separate from outside (labeling construction inside a
//! session build, engine stepping inside a session run, trace recording).
//! Every span is recorded from this file or `workloads.rs`, around calls
//! into the crates' public functions.

use crate::tracer::{self, Span, SpanId, Tracer};
use crate::workloads::{self, PassResults, Prepared, RunUnit, Size, Workload};
use rn_broadcast::algo_b::BNode;
use rn_broadcast::algo_back::BackNode;
use rn_broadcast::algo_barb::ArbNode;
use rn_broadcast::baselines::SlottedNode;
use rn_broadcast::session::{RunReport, RunSpec, Scheme, Session, TracePolicy};
use rn_broadcast::{GossipNode, MultiNode};
use rn_graph::algorithms::ReductionOrder;
use rn_graph::Graph;
use rn_labeling::gossip::GossipScheme;
use rn_labeling::multi::MultiLambdaScheme;
use rn_labeling::SequenceConstruction;
use rn_labeling::{
    baselines, gossip, lambda, lambda_ack, lambda_arb, multi, Labeling, LabelingError,
};
use rn_radio::{Engine, MetricsSink, RadioNode, RoundMetrics, Simulator, StopCondition};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric name to value (seconds or an exact count).
pub type Layers = BTreeMap<&'static str, f64>;

/// Metrics of layers a workload never calls, and the workload whose smoke
/// size measures them in its traced run instead.
pub fn borrowed(workload: Workload) -> (Workload, &'static [&'static str]) {
    match workload {
        Workload::LambdaXl | Workload::ArbBatch => (
            Workload::ModelCheck,
            &[
                "graph.enumerate_s",
                "modelcheck.check_s",
                "audit.wake_s",
                "audit.states_checked",
            ],
        ),
        Workload::ModelCheck => (
            Workload::LambdaXl,
            &[
                "graph.generate_s",
                "sweep.run_s",
                "sweep.overhead_s",
                "emit.json_s",
                "emit.csv_s",
            ],
        ),
    }
}

/// What one traced repetition measured.
pub struct Traced {
    pub layers: Layers,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub digest: u64,
    pub spans: Vec<Span>,
    /// Self time per span name over the traced pass, in thread-seconds.
    pub self_times: BTreeMap<&'static str, f64>,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// Thread-seconds the pass's parallel batches add beyond its wall time.
    pub extra_lane_s: f64,
}

/// One traced repetition of `workload`.
pub fn traced(workload: Workload, size: Size, seed: u64) -> Result<Traced, String> {
    let tracer = Tracer::on();
    let prepared = workloads::setup(workload, size, seed, &tracer)?;

    workloads::run_pass(&prepared, &Tracer::off(), None);
    let start = Instant::now();
    let untraced = workloads::run_pass(&prepared, &Tracer::off(), None);
    let untraced_wall_s = start.elapsed().as_secs_f64();
    let (root, results) = tracer.span("pass", None, 0, |root| {
        (
            root.expect("tracer is on"),
            workloads::run_pass(&prepared, &tracer, root),
        )
    });

    let (mut failures, digest) = workloads::check_pass(&results, &tracer);
    let (_, untraced_digest) = workloads::check_pass(&untraced, &Tracer::off());
    if digest != untraced_digest {
        failures.push("traced and untraced passes produced different reports".into());
    }
    let mut counts = Counts::default();
    match &results {
        PassResults::Runs(units) => {
            let runs: Vec<&RunUnit> = units.iter().flatten().collect();
            let mut first = 0;
            for group in runs.chunk_by(|a, b| Arc::ptr_eq(&a.session, &b.session)) {
                decompose(group, first, &tracer, &mut counts, &mut failures);
                first += group.len() as u64;
            }
            sweep_and_emit(&prepared, seed, units, &tracer, &mut failures);
        }
        PassResults::Points(points) => {
            let Prepared::ModelCheck { graphs, .. } = &prepared else {
                unreachable!("points come from the modelcheck workload")
            };
            let mut pass_states = 0;
            for (id, point) in points.iter().enumerate() {
                let Ok(audit) = &point.result else { continue };
                pass_states += audit.wake.states_checked;
                decompose_point(
                    &graphs[point.graph],
                    point.scheme,
                    id as u64,
                    &tracer,
                    &mut counts,
                    &mut failures,
                );
            }
            if pass_states != counts.get("audit.states_checked") {
                failures.push(format!(
                    "check_point audited {pass_states} states, the per-engine audits {}",
                    counts.get("audit.states_checked")
                ));
            }
        }
    }

    let spans = tracer.spans();
    let pass_spans = tracer::subtree(&spans, root);
    let traced_wall_s = pass_spans[0].seconds();
    let extra_lane_s = pass_spans
        .iter()
        .map(|s| f64::from(s.lanes - 1) * s.seconds())
        .sum();
    Ok(Traced {
        layers: layer_metrics(&spans, &counts),
        failures,
        attempted: results.units() as u64,
        digest,
        self_times: tracer::self_times(&pass_spans),
        spans,
        untraced_wall_s,
        traced_wall_s,
        extra_lane_s,
    })
}

/// Exact counts gathered at the layer boundaries.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

fn layer_metrics(spans: &[Span], counts: &Counts) -> Layers {
    let t = |name: &str| tracer::total(spans, name);
    let batches: std::collections::BTreeSet<SpanId> = spans
        .iter()
        .filter(|s| s.name == "batch")
        .map(|s| s.id)
        .collect();
    let busy: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| batches.contains(&p)))
        .map(Span::seconds)
        .sum();
    let batch_lanes: f64 = spans
        .iter()
        .filter(|s| s.name == "batch")
        .map(|s| f64::from(s.lanes) * s.seconds())
        .sum();
    let c = |name: &str| counts.get(name) as f64;
    Layers::from([
        ("graph.generate_s", t("graph.generate")),
        ("graph.enumerate_s", t("graph.enumerate")),
        ("labeling.construct_s", t("labeling.construct")),
        ("labeling.stages", c("labeling.stages")),
        ("labeling.frontier_sum", c("labeling.frontier_sum")),
        ("session.build_s", t("session.build")),
        (
            "session.template_s",
            t("session.rebuild") - t("labeling.construct"),
        ),
        ("session.run_s", t("session.run")),
        ("session.run_s.event_driven", t("session.run.event_driven")),
        (
            "session.harness_s",
            t("session.run.untraced") - t("engine.step"),
        ),
        ("engine.step_s", t("engine.step")),
        ("engine.step_s.event_driven", t("engine.step.event_driven")),
        ("engine.node_steps", c("engine.node_steps")),
        (
            "engine.node_steps.event_driven",
            c("engine.node_steps.event_driven"),
        ),
        ("engine.elided_rounds", c("engine.elided_rounds")),
        (
            "trace.record_s",
            t("session.run.traced") - t("session.run.untraced"),
        ),
        ("batch.busy_s", busy),
        ("batch.idle_s", batch_lanes - busy),
        ("run.transmissions", c("run.transmissions")),
        ("run.deliveries", c("run.deliveries")),
        ("run.collisions", c("run.collisions")),
        ("analyze.certify_s", t("analyze.certify")),
        ("modelcheck.check_s", t("modelcheck.check")),
        ("audit.wake_s", t("audit.wake")),
        ("audit.states_checked", c("audit.states_checked")),
        ("sweep.run_s", t("sweep.run")),
        (
            "sweep.overhead_s",
            t("sweep.run") - t("graph.generate") - t("session.build") - t("session.run"),
        ),
        ("emit.json_s", t("emit.json")),
        ("emit.csv_s", t("emit.csv")),
    ])
}

/// A labeling built directly by its `construct` function, on the inputs the
/// session's build used.
enum Constructed {
    Lambda(lambda::LambdaScheme),
    Ack(lambda_ack::LambdaAckScheme),
    Arb(lambda_arb::LambdaArbScheme),
    Multi(MultiLambdaScheme),
    Gossip(GossipScheme),
    Slotted(Labeling),
}

impl Constructed {
    fn build(session: &Session) -> Result<Self, LabelingError> {
        let g = session.graph();
        Ok(match session.scheme() {
            Scheme::Lambda => Constructed::Lambda(lambda::construct(g, session.source())?),
            Scheme::LambdaAck => Constructed::Ack(lambda_ack::construct(g, session.source())?),
            Scheme::LambdaArb => Constructed::Arb(lambda_arb::construct_with_coordinator(
                g,
                session.coordinator(),
                ReductionOrder::Forward,
            )?),
            Scheme::MultiLambda { .. } => Constructed::Multi(multi::construct_with_coordinator(
                g,
                session.sources(),
                session.coordinator(),
            )?),
            Scheme::Gossip => Constructed::Gossip(gossip::construct_with_coordinator(
                g,
                session.coordinator(),
            )?),
            Scheme::UniqueIds => Constructed::Slotted(baselines::unique_ids(g)?),
            Scheme::SquareColoring => Constructed::Slotted(baselines::square_coloring(g)?.0),
            Scheme::OneBitCycle | Scheme::OneBitGrid { .. } => {
                unreachable!("no workload runs the 1-bit schemes")
            }
        })
    }

    fn construction(&self) -> Option<&SequenceConstruction> {
        match self {
            Constructed::Lambda(s) => Some(s.construction()),
            Constructed::Ack(s) => Some(s.construction()),
            Constructed::Arb(s) => Some(s.construction()),
            Constructed::Multi(s) => Some(s.construction()),
            Constructed::Gossip(s) => Some(s.construction()),
            Constructed::Slotted(_) => None,
        }
    }
}

/// Sums the engine frontier (nodes evaluated per round) and elided rounds.
#[derive(Clone, Default)]
struct FrontierSink(Arc<[AtomicU64; 2]>);

impl MetricsSink for FrontierSink {
    fn on_round(&mut self, m: &RoundMetrics) {
        // Plain statistics: they publish no other data.
        self.0[0].fetch_add(m.frontier, Ordering::Relaxed);
    }

    fn on_elided_span(&mut self, _first_round: u64, rounds: u64) {
        self.0[1].fetch_add(rounds, Ordering::Relaxed);
    }
}

/// Whether two runs have the same observable outcome; the statistics are
/// left out, since without a trace they carry only the round count.
fn same_outcome(a: &RunReport, b: &RunReport) -> bool {
    a.informed_rounds == b.informed_rounds
        && a.completion_round == b.completion_round
        && a.message_completion_rounds == b.message_completion_rounds
        && (a.ack_round, a.common_knowledge_round) == (b.ack_round, b.common_knowledge_round)
        && a.rounds_executed == b.rounds_executed
}

/// Splits the runs of one session into their layers: labeling construction
/// (once, like the session's build), then per run the session on each
/// engine and trace policy, its counters, and the raw engine loop. `first`
/// is the request id of `units[0]`; the units follow it in order.
fn decompose(
    units: &[&RunUnit],
    first: u64,
    tracer: &Tracer,
    counts: &mut Counts,
    failures: &mut Vec<String>,
) {
    let head = units[0];
    let session = &head.session;
    let scheme = session.scheme();
    let fail = |failures: &mut Vec<String>, spec: RunSpec, what: String| {
        failures.push(format!(
            "{} on {} from {}: {what}",
            scheme.name(),
            head.family,
            spec.source
        ));
    };
    // Construction and a rebuild of the same session, timed back to back so
    // that their difference (the template and plan work of a build) is not
    // swamped by the state the rest of the run leaves the heap in.
    match tracer.span("labeling.construct", None, first, |_| {
        Constructed::build(session)
    }) {
        Ok(c) => {
            if let Some(c) = c.construction() {
                counts.add("labeling.stages", c.ell() as u64);
                counts.add(
                    "labeling.frontier_sum",
                    (1..=c.ell()).map(|i| c.frontier(i).len() as u64).sum(),
                );
            }
        }
        Err(e) => return fail(failures, head.spec, format!("construct: {e}")),
    }
    let base = Session::builder(scheme, Arc::clone(session.graph()))
        .source(session.source())
        .message(head.report.message);
    let build = |trace, engine| base.clone().trace(trace).engine(engine).build();
    let rebuilt = tracer.span("session.rebuild", None, first, |_| {
        build(head.trace, Engine::default())
    });
    let (Ok(_), Ok(untraced), Ok(traced), Ok(event), Ok(constructed)) = (
        rebuilt,
        build(TracePolicy::Disabled, Engine::default()),
        build(TracePolicy::Recorded, Engine::default()),
        build(head.trace, Engine::EventDriven),
        Constructed::build(session),
    ) else {
        return fail(
            failures,
            head.spec,
            "session variant failed to build".into(),
        );
    };
    // Protocols whose session stops on a harness predicate (completion,
    // common knowledge) run the raw engine up to the round the session
    // stopped in; λ and λ_ack stop on quiet alone, so their raw run must stop
    // there by itself.
    let quiet_only = matches!(scheme, Scheme::Lambda | Scheme::LambdaAck);
    for (id, unit) in (first..).zip(units) {
        let spec = unit.spec;
        let expected = unit.report.rounds_executed;
        let stop = session.resolved_stop_condition();
        let stop = if quiet_only {
            stop
        } else {
            clamp(stop, expected)
        };
        let raw = |engine, name, sink| {
            RawRun {
                graph: session.graph(),
                engine,
                stop,
                sink,
                tracer,
                name,
                id,
            }
            .run(&constructed, session.labeling(), spec)
        };
        let run = |name, s: &Session| tracer.span(name, None, id, |_| s.run_with(spec));
        // Each session run is followed by the raw engine run it contains.
        let r_untraced = run("session.run.untraced", &untraced);
        let raw_rounds = raw(Engine::default(), "engine.step", None);
        let r_event = run("session.run.event_driven", &event);
        let raw_event_rounds = raw(Engine::EventDriven, "engine.step.event_driven", None);
        let r_traced = run("session.run.traced", &traced);
        let (Ok(r_untraced), Ok(r_traced), Ok(r_event)) = (r_untraced, r_traced, r_event) else {
            fail(failures, spec, "session variant failed to run".into());
            continue;
        };
        if r_event != unit.report {
            fail(
                failures,
                spec,
                "event-driven and default engines report differently".into(),
            );
        }
        if !same_outcome(&r_untraced, &unit.report) || !same_outcome(&r_traced, &unit.report) {
            fail(failures, spec, "trace policy changed the outcome".into());
        }
        for (engine, rounds) in [
            (Engine::default(), raw_rounds),
            (Engine::EventDriven, raw_event_rounds),
        ] {
            if rounds != expected {
                fail(
                    failures,
                    spec,
                    format!("raw {engine:?} engine ran {rounds} rounds, the session {expected}"),
                );
            }
        }

        match (
            untraced.run_with_instrumented(spec),
            event.run_with_instrumented(spec),
        ) {
            (Ok((_, m)), Ok((_, m_event))) => {
                let (c, ce) = (
                    m.counters.unwrap_or_default(),
                    m_event.counters.unwrap_or_default(),
                );
                if (c.transmissions, c.deliveries, c.collisions)
                    != (ce.transmissions, ce.deliveries, ce.collisions)
                {
                    fail(failures, spec, "run counters differ across engines".into());
                }
                counts.add("run.transmissions", c.transmissions);
                counts.add("run.deliveries", c.deliveries);
                counts.add("run.collisions", c.collisions);
            }
            _ => fail(failures, spec, "instrumented run failed".into()),
        }
        for (engine, steps) in [
            (Engine::default(), "engine.node_steps"),
            (Engine::EventDriven, "engine.node_steps.event_driven"),
        ] {
            let sink = FrontierSink::default();
            raw(engine, "", Some(sink.clone()));
            counts.add(steps, sink.0[0].load(Ordering::Relaxed));
            if engine == Engine::EventDriven {
                counts.add("engine.elided_rounds", sink.0[1].load(Ordering::Relaxed));
            }
        }
    }
}

fn clamp(stop: StopCondition, rounds: u64) -> StopCondition {
    match stop {
        StopCondition::AfterRounds(cap) => StopCondition::AfterRounds(cap.min(rounds)),
        StopCondition::QuietOrCap(cap) => StopCondition::QuietOrCap(cap.min(rounds)),
        StopCondition::QuietFor { quiet, cap } => StopCondition::QuietFor {
            quiet,
            cap: cap.min(rounds),
        },
    }
}

/// One run of a protocol's nodes on a bare `Simulator`, tracing off: the
/// engine loop without the session harness. Timed under `name` unless a
/// counting sink is installed.
struct RawRun<'a> {
    graph: &'a Arc<Graph>,
    engine: Engine,
    stop: StopCondition,
    sink: Option<FrontierSink>,
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
}

impl RawRun<'_> {
    /// Runs the nodes `c` builds for `spec`; returns the rounds executed.
    fn run(self, c: &Constructed, labeling: &Labeling, spec: RunSpec) -> u64 {
        let payloads = |k: usize| -> Vec<u64> {
            (0..k as u64)
                .map(|j| spec.message.wrapping_add(j))
                .collect()
        };
        let (s, m) = (spec.source, spec.message);
        match c {
            Constructed::Lambda(_) => self.go(BNode::network(labeling, s, m)),
            Constructed::Ack(_) => self.go(BackNode::network(labeling, s, m)),
            Constructed::Arb(_) => self.go(ArbNode::network(labeling, s, m)),
            Constructed::Multi(ms) => self.go(MultiNode::network(ms, &payloads(ms.k()))),
            Constructed::Gossip(gs) => self.go(GossipNode::network(gs, &payloads(gs.k()))),
            Constructed::Slotted(l) => self.go(SlottedNode::network(l, s, m)),
        }
    }

    fn go<N: RadioNode>(self, nodes: Vec<N>) -> u64 {
        let mut sim = Simulator::new(Arc::clone(self.graph), nodes)
            .with_engine(self.engine)
            .without_trace();
        match self.sink {
            Some(sink) => {
                sim = sim.with_metrics(Box::new(sink));
                sim.run_until(self.stop, |_| false).rounds_executed
            }
            None => self.tracer.span(self.name, None, self.id, |_| {
                sim.run_until(self.stop, |_| false).rounds_executed
            }),
        }
    }
}

/// The layers of one model-checked point: its reference session (the one
/// `check_point` diffs the other engines against), built and run from
/// outside, decomposed like a workload run, certified, and wake-hint
/// audited under every engine.
fn decompose_point(
    graph: &Arc<Graph>,
    scheme: Scheme,
    id: u64,
    tracer: &Tracer,
    counts: &mut Counts,
    failures: &mut Vec<String>,
) {
    let builder = Session::builder(scheme, Arc::clone(graph));
    let session = match tracer.span("session.build", None, id, |_| builder.clone().build()) {
        Ok(s) => Arc::new(s),
        Err(e) => return failures.push(format!("point #{id} under {}: {e}", scheme.name())),
    };
    let report = tracer.span("session.run", None, id, |_| session.run());
    if tracer
        .span("analyze.certify", None, id, |_| {
            rn_analyze::analyze_and_cross_check(&session, &report)
        })
        .is_err()
    {
        failures.push(format!(
            "point #{id} under {}: certification failed",
            scheme.name()
        ));
    }
    for engine in rn_modelcheck::ENGINES {
        let audit = builder
            .clone()
            .engine(engine)
            .build()
            .map_err(|e| e.to_string())
            .and_then(|s| {
                tracer
                    .span("audit.wake", None, id, |_| s.audit_wake_hints())
                    .map_err(|v| v.to_string())
            });
        match audit {
            Ok(a) => counts.add("audit.states_checked", a.states_checked),
            Err(e) => failures.push(format!(
                "point #{id} under {} on {engine:?}: {e}",
                scheme.name()
            )),
        }
    }
    let unit = RunUnit {
        family: "enumerated",
        spec: RunSpec::new(session.source(), report.message),
        trace: TracePolicy::Recorded,
        session,
        report,
    };
    decompose(&[&unit], id, tracer, counts, failures);
}

/// Runs the workload's grid through `SweepSpec::run` on one thread, checks
/// its records against the workload's own reports, and emits them.
fn sweep_and_emit(
    prepared: &Prepared,
    seed: u64,
    units: &[Result<RunUnit, String>],
    tracer: &Tracer,
    failures: &mut Vec<String>,
) {
    let grid = match prepared {
        Prepared::LambdaXl { grid, .. } | Prepared::ArbBatch { grid, .. } => grid,
        Prepared::ModelCheck { .. } => return,
    };
    let spec = rn_experiments::SweepSpec::new("benchmark")
        .families(grid.families)
        .sizes(&[grid.n])
        .schemes(grid.schemes)
        .seeds(&[seed])
        .sources_per_point(grid.sources)
        .threads(1)
        .record_traces(grid.trace == TracePolicy::Recorded);
    let report = match tracer.span("sweep.run", None, 0, |_| spec.run()) {
        Ok(r) => r,
        Err(e) => return failures.push(format!("sweep failed: {e}")),
    };
    let units: Vec<&RunUnit> = units.iter().flatten().collect();
    let agrees = report.records.len() == units.len()
        && report.records.iter().zip(&units).all(|(rec, u)| {
            let r = &u.report;
            rec.family == u.family
                && (rec.scheme, rec.n, rec.source) == (r.scheme, r.node_count, r.source)
                && (rec.completion_round, rec.rounds_executed)
                    == (r.completion_round, r.rounds_executed)
                && (rec.label_length, rec.distinct_labels) == (r.label_length, r.distinct_labels)
                && (rec.transmissions, rec.collisions)
                    == (r.stats.transmissions, r.stats.collisions)
        });
    if !agrees {
        failures.push("SweepSpec::run records disagree with the workload's reports".into());
    }
    let json = tracer.span("emit.json", None, 0, |_| {
        rn_experiments::emit::to_json(&report)
    });
    let csv = tracer.span("emit.csv", None, 0, |_| {
        rn_experiments::emit::to_csv(&report)
    });
    if json.is_empty() || csv.lines().count() != report.records.len() + 1 {
        failures.push("emitted reports are incomplete".into());
    }
}

/// The traced run: repeats traced measurements while another one fits in
/// `seconds` (at least once), takes the median of every metric, and measures
/// the layers this workload never calls on the smoke size of the workload
/// that does.
pub fn traced_run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<(Traced, Layers, usize), String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut longest: f64 = 0.0;
    while reps.is_empty() || start.elapsed().as_secs_f64() + longest <= seconds {
        let rep_start = Instant::now();
        reps.push(traced(workload, size, seed)?);
        longest = longest.max(rep_start.elapsed().as_secs_f64());
    }
    let mut layers = Layers::new();
    for &name in reps[0].layers.keys() {
        let values: Vec<f64> = reps.iter().map(|r| r.layers[name]).collect();
        layers.insert(name, crate::stats::median(&values));
    }
    let (owner, names) = borrowed(workload);
    let probe = traced(owner, Size::Smoke, seed)?;
    for &name in names {
        layers.insert(name, probe.layers[name]);
    }
    let count = reps.len();
    let mut last = reps.pop().expect("at least one repetition");
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    for r in &reps {
        if r.digest != last.digest {
            failures.push("repetitions produced different reports".into());
        }
        for (name, v) in &r.layers {
            if crate::is_count(name) && *v != last.layers[name] {
                failures.push(format!("count {name} changed between repetitions"));
            }
        }
    }
    failures.append(&mut last.failures);
    failures.extend(probe.failures);
    last.failures = failures;
    Ok((last, layers, count))
}
