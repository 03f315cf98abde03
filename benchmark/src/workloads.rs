//! The three workloads: their instances, one pass over their units, and the
//! checks every output of a pass must pass.
//!
//! Every call into the workspace goes through its public API, the way a
//! user calls it. A pass is a closed loop: each unit starts when the
//! previous one on its thread has finished.

use crate::tracer::{SpanId, Tracer};
use rn_broadcast::session::{RunReport, RunSpec, Scheme, Session, TracePolicy};
use rn_graph::generators::TopologyFamily;
use rn_graph::Graph;
use rn_modelcheck::{ModelCheckConfig, PointAudit, Violation};
use rn_radio::{Digest, FaultPlan};
use std::sync::Arc;

/// The run message every session uses: the one `SweepSpec::run` uses, so
/// sweep records compare field for field with the workload's reports.
pub const MESSAGE: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LambdaXl,
    ArbBatch,
    ModelCheck,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LambdaXl, Workload::ArbBatch, Workload::ModelCheck];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LambdaXl => "lambda-xl",
            Workload::ArbBatch => "arb-batch",
            Workload::ModelCheck => "modelcheck",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instance sizes: `Full` is the measured size, `Smoke` a tiny one for
/// tests and quick checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

const XL_FAMILIES: [TopologyFamily; 5] = [
    TopologyFamily::Path,
    TopologyFamily::Grid,
    TopologyFamily::RandomTree,
    TopologyFamily::UnitDisk { avg_degree: 8.0 },
    TopologyFamily::ClusteredGnp {
        clusters: 6,
        p_in: 0.6,
        p_out: 0.01,
    },
];

const ARB_FAMILIES: [TopologyFamily; 3] = [
    TopologyFamily::Path,
    TopologyFamily::RandomTree,
    TopologyFamily::UnitDisk { avg_degree: 8.0 },
];

/// The instance grid of a generated workload: every family at one size, so
/// a `SweepSpec` over the same grid reproduces the workload exactly.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    pub families: &'static [TopologyFamily],
    pub n: usize,
    pub schemes: &'static [Scheme],
    /// Sources per instance, spread as `i * n / sources` like `run_point`.
    pub sources: usize,
    pub trace: TracePolicy,
}

pub fn grid(workload: Workload, size: Size) -> Option<Grid> {
    let full = size == Size::Full;
    match workload {
        Workload::LambdaXl => Some(Grid {
            families: &XL_FAMILIES,
            n: if full { 3000 } else { 64 },
            schemes: &[Scheme::Lambda, Scheme::LambdaAck],
            sources: 2,
            trace: TracePolicy::Disabled,
        }),
        Workload::ArbBatch => Some(Grid {
            families: &ARB_FAMILIES,
            n: if full { 500 } else { 40 },
            schemes: &[
                Scheme::LambdaArb,
                Scheme::MultiLambda { k: 8 },
                Scheme::Gossip,
            ],
            sources: if full { 8 } else { 4 },
            trace: TracePolicy::Recorded,
        }),
        Workload::ModelCheck => None,
    }
}

pub fn spread_sources(n: usize, count: usize) -> Vec<usize> {
    let mut sources: Vec<usize> = (0..count).map(|i| i * n / count).collect();
    sources.dedup();
    sources
}

pub struct Instance {
    pub family: TopologyFamily,
    pub graph: Arc<Graph>,
}

/// One `arb-batch` instance: its sessions are built once, in set-up.
pub struct ArbInstance {
    pub instance: Instance,
    pub arb: Arc<Session>,
    pub multi: Arc<Session>,
    pub gossip: Arc<Session>,
    pub specs: Vec<RunSpec>,
}

/// A workload after set-up, ready for passes.
pub enum Prepared {
    LambdaXl {
        grid: Grid,
        instances: Vec<Instance>,
    },
    ArbBatch {
        grid: Grid,
        instances: Vec<ArbInstance>,
    },
    ModelCheck {
        schemes: Vec<Scheme>,
        graphs: Vec<Arc<Graph>>,
    },
}

/// Set-up: generate (or enumerate) the instances, and for `arb-batch` build
/// the sessions. A `GraphError` or `LabelingError` fails the set-up.
pub fn setup(
    workload: Workload,
    size: Size,
    seed: u64,
    tracer: &Tracer,
) -> Result<Prepared, String> {
    let generate = |grid: &Grid| -> Result<Vec<Instance>, String> {
        grid.families
            .iter()
            .enumerate()
            .map(|(i, &family)| {
                tracer
                    .span("graph.generate", None, i as u64, |_| {
                        family.generate(grid.n, seed)
                    })
                    .map(|g| Instance {
                        family,
                        graph: Arc::new(g),
                    })
                    .map_err(|e| {
                        format!(
                            "generating {} (n = {}, seed = {seed}): {e}",
                            family.name(),
                            grid.n
                        )
                    })
            })
            .collect()
    };
    match workload {
        Workload::LambdaXl => {
            let grid = grid(workload, size).expect("lambda-xl has a grid");
            Ok(Prepared::LambdaXl {
                instances: generate(&grid)?,
                grid,
            })
        }
        Workload::ArbBatch => {
            let grid = grid(workload, size).expect("arb-batch has a grid");
            let mut instances = Vec::new();
            for (i, instance) in generate(&grid)?.into_iter().enumerate() {
                let build = |scheme: Scheme| {
                    tracer
                        .span("session.build", None, i as u64, |_| {
                            Session::builder(scheme, Arc::clone(&instance.graph))
                                .message(MESSAGE)
                                .trace(grid.trace)
                                .build()
                        })
                        .map(Arc::new)
                        .map_err(|e| {
                            format!(
                                "building {} on {}: {e}",
                                scheme.name(),
                                instance.family.name()
                            )
                        })
                };
                let [arb, multi, gossip] = [grid.schemes[0], grid.schemes[1], grid.schemes[2]];
                let specs = spread_sources(instance.graph.node_count(), grid.sources)
                    .into_iter()
                    .map(|s| RunSpec::new(s, MESSAGE))
                    .collect();
                instances.push(ArbInstance {
                    arb: build(arb)?,
                    multi: build(multi)?,
                    gossip: build(gossip)?,
                    specs,
                    instance,
                });
            }
            Ok(Prepared::ArbBatch { grid, instances })
        }
        Workload::ModelCheck => {
            let config = match size {
                Size::Full => ModelCheckConfig::default(),
                Size::Smoke => ModelCheckConfig::quick(),
            };
            let graphs = tracer.span("graph.enumerate", None, 0, |_| config.graphs());
            Ok(Prepared::ModelCheck {
                schemes: config.schemes,
                graphs: graphs.into_iter().map(Arc::new).collect(),
            })
        }
    }
}

/// One completed session run.
pub struct RunUnit {
    /// Topology family name, or `enumerated` for a model-checked graph.
    pub family: &'static str,
    pub session: Arc<Session>,
    /// The trace policy the session was built with.
    pub trace: TracePolicy,
    pub spec: RunSpec,
    pub report: RunReport,
}

/// One model-checked (graph, scheme) point.
pub struct PointUnit {
    pub graph: usize,
    pub scheme: Scheme,
    pub result: Result<PointAudit, Violation>,
}

/// What one pass produced, unit by unit, in a fixed order.
pub enum PassResults {
    Runs(Vec<Result<RunUnit, String>>),
    Points(Vec<PointUnit>),
}

impl PassResults {
    pub fn units(&self) -> usize {
        match self {
            PassResults::Runs(r) => r.len(),
            PassResults::Points(p) => p.len(),
        }
    }

    /// Simulated rounds of the pass: `rounds_executed` of every run, or of
    /// every point's reference execution.
    pub fn rounds(&self) -> u64 {
        match self {
            PassResults::Runs(r) => r.iter().flatten().map(|u| u.report.rounds_executed).sum(),
            PassResults::Points(p) => p
                .iter()
                .filter_map(|u| u.result.as_ref().ok())
                .map(|a| a.rounds_executed)
                .sum(),
        }
    }
}

/// One pass over every unit of the workload. With a disabled tracer this is
/// the timed pass; with an enabled one, the same calls with a span each.
pub fn run_pass(prepared: &Prepared, tracer: &Tracer, root: Option<SpanId>) -> PassResults {
    match prepared {
        Prepared::LambdaXl { grid, instances } => {
            let mut jobs = Vec::new();
            for inst in instances {
                for &scheme in grid.schemes {
                    for source in spread_sources(inst.graph.node_count(), grid.sources) {
                        jobs.push((jobs.len() as u64, inst, scheme, source));
                    }
                }
            }
            // One request builds a fresh labeling for its source and runs it,
            // as `run_point` does for source-dependent schemes.
            let units = tracer.span("batch", root, 0, |batch| {
                rn_radio::batch::run_parallel(jobs, 1, |(id, inst, scheme, source)| {
                    tracer.span("unit", batch, id, |unit| {
                        let session = tracer.span("session.build", unit, id, |_| {
                            Session::builder(scheme, Arc::clone(&inst.graph))
                                .source(source)
                                .message(MESSAGE)
                                .trace(grid.trace)
                                .build()
                        });
                        let session = session.map_err(|e| {
                            format!(
                                "building {} on {} from {source}: {e}",
                                scheme.name(),
                                inst.family.name()
                            )
                        })?;
                        let report = tracer.span("session.run", unit, id, |_| session.run());
                        Ok(RunUnit {
                            family: inst.family.name(),
                            session: Arc::new(session),
                            trace: grid.trace,
                            spec: RunSpec::new(source, MESSAGE),
                            report,
                        })
                    })
                })
            });
            PassResults::Runs(units)
        }
        Prepared::ArbBatch { grid, instances } => {
            // Two workers, or fewer on a smaller machine.
            let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(2));
            let mut units = Vec::new();
            for inst in instances {
                let unit = |session: &Arc<Session>, spec: RunSpec, report| RunUnit {
                    family: inst.instance.family.name(),
                    session: Arc::clone(session),
                    trace: grid.trace,
                    spec,
                    report,
                };
                let first = units.len() as u64;
                let reports: Vec<Result<RunReport, String>> = if tracer.is_on() {
                    // `Session::run_batch`'s own body, with a span per job.
                    let lanes = threads.min(inst.specs.len()) as u32;
                    let jobs: Vec<(u64, RunSpec)> =
                        (first..).zip(inst.specs.iter().copied()).collect();
                    tracer
                        .span_lanes("batch", root, first, lanes, |batch| {
                            rn_radio::batch::run_parallel(jobs, threads, |(id, spec)| {
                                tracer.span("session.run", batch, id, |_| inst.arb.run_with(spec))
                            })
                        })
                        .into_iter()
                        .map(|r| r.map_err(|e| e.to_string()))
                        .collect()
                } else {
                    match inst.arb.run_batch(&inst.specs, threads) {
                        Ok(reports) => reports.into_iter().map(Ok).collect(),
                        Err(e) => vec![Err(e.to_string()); inst.specs.len()],
                    }
                };
                for (spec, report) in inst.specs.iter().zip(reports) {
                    units.push(
                        report
                            .map(|r| unit(&inst.arb, *spec, r))
                            .map_err(|e| format!("lambda_arb run from {}: {e}", spec.source)),
                    );
                }
                for session in [&inst.multi, &inst.gossip] {
                    let id = units.len() as u64;
                    let report = tracer.span("session.run", root, id, |_| session.run());
                    units.push(Ok(unit(
                        session,
                        RunSpec::new(session.source(), MESSAGE),
                        report,
                    )));
                }
            }
            PassResults::Runs(units)
        }
        Prepared::ModelCheck { schemes, graphs } => {
            let jobs: Vec<(usize, Scheme)> = (0..graphs.len())
                .flat_map(|g| schemes.iter().map(move |&s| (g, s)))
                .collect();
            let points = tracer.span("batch", root, 0, |batch| {
                rn_radio::batch::run_parallel(
                    jobs.into_iter().enumerate().collect(),
                    1,
                    |(id, (g, scheme))| {
                        let result = tracer.span("modelcheck.check", batch, id as u64, |_| {
                            rn_modelcheck::check_point(&graphs[g], scheme, &FaultPlan::none())
                        });
                        PointUnit {
                            graph: g,
                            scheme,
                            result,
                        }
                    },
                )
            });
            PassResults::Points(points)
        }
    }
}

/// The report-level output checks: the run completed, within the paper's
/// closed-form bound where the scheme has one, with the acknowledgement
/// (λ_ack) or common-knowledge round (λ_arb) present.
pub fn check_report(report: &RunReport, scheme: Scheme) -> Result<(), String> {
    let Some(done) = report.completion_round else {
        return Err(format!(
            "did not complete in {} rounds",
            report.rounds_executed
        ));
    };
    if let Some(bound) = report.theorem_bound() {
        if done > bound {
            return Err(format!(
                "completed in round {done}, past the {bound}-round bound"
            ));
        }
    }
    if scheme == Scheme::LambdaAck && report.ack_round.is_none() {
        return Err("no acknowledgement round".into());
    }
    if scheme == Scheme::LambdaArb && report.common_knowledge_round.is_none() {
        return Err("no common-knowledge round".into());
    }
    Ok(())
}

/// Checks every output of a pass (outside the timed region) and returns the
/// failures, one line each, plus the digest of the deterministic outputs.
/// Every run report is also certified by `rn_analyze::analyze_and_cross_check`.
pub fn check_pass(results: &PassResults, tracer: &Tracer) -> (Vec<String>, u64) {
    let mut failures = Vec::new();
    let mut digest = Digest::new(0xbe9c);
    match results {
        PassResults::Runs(units) => {
            for (id, unit) in units.iter().enumerate() {
                let unit = match unit {
                    Ok(unit) => unit,
                    Err(e) => {
                        failures.push(e.clone());
                        continue;
                    }
                };
                let scheme = unit.session.scheme();
                let what = || {
                    format!(
                        "{} on {} from {}",
                        scheme.name(),
                        unit.family,
                        unit.spec.source
                    )
                };
                if let Err(e) = check_report(&unit.report, scheme) {
                    failures.push(format!("{}: {e}", what()));
                }
                let certified = tracer.span("analyze.certify", None, id as u64, |_| {
                    rn_analyze::analyze_and_cross_check(&unit.session, &unit.report)
                });
                if let Err(findings) = certified {
                    let first = findings
                        .first()
                        .map(ToString::to_string)
                        .unwrap_or_default();
                    failures.push(format!("{}: certification failed: {first}", what()));
                }
                digest = fold_report(digest, &unit.report);
            }
        }
        PassResults::Points(points) => {
            for p in points {
                match &p.result {
                    Ok(audit) => {
                        digest = digest
                            .word(audit.rounds_executed)
                            .word(audit.wake.states_checked)
                            .word(audit.wake.hints_audited)
                            .word(audit.wake.steps_replayed);
                    }
                    Err(v) => {
                        failures.push(format!("graph #{} under {}: {v}", p.graph, p.scheme.name()));
                    }
                }
            }
        }
    }
    (failures, digest.finish())
}

/// Folds every deterministic field of a report into a digest.
pub fn fold_report(d: Digest, r: &RunReport) -> Digest {
    let words = |xs: &[usize]| xs.iter().map(|&x| x as u64).collect::<Vec<_>>();
    let mut d = d
        .words(&r.scheme.bytes().map(u64::from).collect::<Vec<_>>())
        .word(r.node_count as u64)
        .word(r.source as u64)
        .words(&words(&r.sources))
        .opt(r.coordinator.map(|c| c as u64))
        .word(r.message)
        .word(r.label_length as u64)
        .word(r.distinct_labels as u64)
        .word(r.informed_rounds.len() as u64);
    for &round in &r.informed_rounds {
        d = d.opt(round);
    }
    d = d.opt(r.completion_round);
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
