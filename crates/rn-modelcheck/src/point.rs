//! Checking one (graph, scheme, fault plan) point: run every engine,
//! compare, and grind the invariant engine over the reference execution.
//!
//! The invariants, in the order they are checked:
//!
//! 1. **Engine agreement** — both [`Engine`]s produce identical
//!    [`RunReport`]s and identical [`TraceShape`]s, traced *and* untraced
//!    (the untraced event-driven run exercises silent-round elision).
//! 2. **Trace physics** — every recorded `Heard` has exactly one
//!    transmitting neighbour (and it is the recorded one), every
//!    `Collision { k }` exactly `k ≥ 2`, every `Silence` exactly zero.
//! 3. **Informed-set monotonicity** — a non-source node reported informed
//!    in round `r ≥ 1` actually received something in round `r`.
//! 4. **Collection-plan freedom** — during a collection phase, round `r`
//!    has exactly one transmitter: the plan's slot owner.
//! 5. **Round-cap respect** — the run executed at most the resolved cap.
//! 6. **Static certification + cross-check** — `rn-analyze` certifies the
//!    point and its exact predictions match the simulated report.
//! 7. **Wake-hint contract** — [`rn_radio::audit_wake_hints`] passes under
//!    every engine.

use crate::violation::{Violation, ViolationKind};
use rn_broadcast::session::{RunReport, Scheme, Session, TracePolicy};
use rn_graph::Graph;
use rn_radio::{Engine, FaultPlan, ShapeEvent, TraceShape, WakeHintAudit};
use std::sync::Arc;

/// Every simulator engine, in reference-first order: index 0 is the
/// reference the fast engine is diffed against.
pub const ENGINES: [Engine; 2] = [Engine::ListenerCentric, Engine::EventDriven];

/// Coverage counters of one clean point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointAudit {
    /// Rounds the reference execution ran.
    pub rounds_executed: u64,
    /// Aggregated wake-hint audit counters over all engines.
    pub wake: WakeHintAudit,
}

fn fail(scheme: Scheme, kind: ViolationKind) -> Violation {
    Violation {
        scheme: Some(scheme),
        kind,
    }
}

/// The first field in which two reports differ, for engine-disagreement
/// messages (reports are large; naming the field beats dumping both).
fn report_diff(a: &RunReport, b: &RunReport) -> String {
    if a.informed_rounds != b.informed_rounds {
        return format!(
            "informed_rounds {:?} vs {:?}",
            a.informed_rounds, b.informed_rounds
        );
    }
    if a.completion_round != b.completion_round {
        return format!(
            "completion_round {:?} vs {:?}",
            a.completion_round, b.completion_round
        );
    }
    if a.rounds_executed != b.rounds_executed {
        return format!(
            "rounds_executed {} vs {}",
            a.rounds_executed, b.rounds_executed
        );
    }
    if a.ack_round != b.ack_round {
        return format!("ack_round {:?} vs {:?}", a.ack_round, b.ack_round);
    }
    if a.common_knowledge_round != b.common_knowledge_round {
        return format!(
            "common_knowledge_round {:?} vs {:?}",
            a.common_knowledge_round, b.common_knowledge_round
        );
    }
    if a.message_completion_rounds != b.message_completion_rounds {
        return format!(
            "message_completion_rounds {:?} vs {:?}",
            a.message_completion_rounds, b.message_completion_rounds
        );
    }
    if a.stats != b.stats {
        return format!("stats {:?} vs {:?}", a.stats, b.stats);
    }
    "reports differ".into()
}

/// The first round at which two shapes differ.
fn shape_diff(a: &TraceShape, b: &TraceShape) -> String {
    if a.rounds.len() != b.rounds.len() {
        return format!("{} rounds vs {}", a.rounds.len(), b.rounds.len());
    }
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        if ra != rb {
            return format!(
                "round {} events {:?} vs {:?}",
                ra.round, ra.events, rb.events
            );
        }
    }
    "shapes differ".into()
}

fn build_session(
    graph: &Arc<Graph>,
    scheme: Scheme,
    engine: Engine,
    faults: &FaultPlan,
    trace: TracePolicy,
) -> Result<Session, Violation> {
    Session::builder(scheme, Arc::clone(graph))
        .engine(engine)
        .faults(faults.clone())
        .trace(trace)
        .build()
        .map_err(|e| {
            fail(
                scheme,
                ViolationKind::Build {
                    error: e.to_string(),
                },
            )
        })
}

/// Exhaustively checks one (graph, scheme, fault plan) point. Returns the
/// coverage counters, or the first violated invariant.
///
/// With a non-empty fault plan the fault-sensitive invariants (physics on
/// faulted rounds, collection-plan freedom, the static cross-check, which
/// all describe fault-free executions) are skipped; engine agreement, the
/// round cap and the wake-hint contract are checked regardless.
///
/// # Errors
/// The first [`Violation`] found, in the invariant order documented
/// above.
pub fn check_point(
    graph: &Arc<Graph>,
    scheme: Scheme,
    faults: &FaultPlan,
) -> Result<PointAudit, Violation> {
    // Invariant 1: engine agreement, traced.
    let reference = build_session(graph, scheme, ENGINES[0], faults, TracePolicy::Recorded)?;
    let (ref_report, ref_shape) = reference.run_shaped();
    for &engine in &ENGINES[1..] {
        let session = build_session(graph, scheme, engine, faults, TracePolicy::Recorded)?;
        let (report, shape) = session.run_shaped();
        if report != ref_report {
            return Err(fail(
                scheme,
                ViolationKind::EngineDisagreement {
                    reference: ENGINES[0],
                    other: engine,
                    detail: report_diff(&ref_report, &report),
                },
            ));
        }
        if shape != ref_shape {
            return Err(fail(
                scheme,
                ViolationKind::EngineDisagreement {
                    reference: ENGINES[0],
                    other: engine,
                    detail: format!("trace shape: {}", shape_diff(&ref_shape, &shape)),
                },
            ));
        }
    }
    // Engine agreement, untraced: the event-driven engine's silent-round
    // elision only engages with tracing off, so this leg is the one that
    // proves elided executions land on the same observables.
    let mut untraced: Option<RunReport> = None;
    for &engine in &ENGINES {
        let session = build_session(graph, scheme, engine, faults, TracePolicy::Disabled)?;
        let report = session.run();
        match &untraced {
            None => {
                // The untraced reference must also agree with the traced one
                // on everything a disabled trace still reports.
                if report.informed_rounds != ref_report.informed_rounds
                    || report.completion_round != ref_report.completion_round
                    || report.rounds_executed != ref_report.rounds_executed
                {
                    return Err(fail(
                        scheme,
                        ViolationKind::EngineDisagreement {
                            reference: ENGINES[0],
                            other: engine,
                            detail: format!(
                                "traced vs untraced: {}",
                                report_diff(&ref_report, &report)
                            ),
                        },
                    ));
                }
                untraced = Some(report);
            }
            Some(first) => {
                if report != *first {
                    return Err(fail(
                        scheme,
                        ViolationKind::EngineDisagreement {
                            reference: ENGINES[0],
                            other: engine,
                            detail: format!("untraced: {}", report_diff(first, &report)),
                        },
                    ));
                }
            }
        }
    }

    check_trace_physics(graph, scheme, &ref_shape)?;
    check_informed_reception(scheme, &ref_report, &ref_shape)?;
    if faults.is_empty() {
        check_collection_plan(&reference, &ref_report, &ref_shape)?;
    }

    // Invariant 5: round-cap respect.
    let cap = reference.resolved_stop_condition().cap();
    if ref_report.rounds_executed > cap {
        return Err(fail(
            scheme,
            ViolationKind::RoundCapExceeded {
                executed: ref_report.rounds_executed,
                cap,
            },
        ));
    }

    // Invariant 6: static certification and the static/dynamic cross-check
    // (the certificate describes the fault-free schedule, so it only binds
    // fault-free points).
    if faults.is_empty() {
        match rn_analyze::analyze_session_run(&reference, ref_report.source) {
            Err(findings) => {
                return Err(fail(
                    scheme,
                    ViolationKind::Certification {
                        findings: findings.iter().map(ToString::to_string).collect(),
                    },
                ));
            }
            Ok(cert) => {
                let diffs = cert.cross_check(&ref_report);
                if !diffs.is_empty() {
                    return Err(fail(
                        scheme,
                        ViolationKind::CrossCheck {
                            findings: diffs.iter().map(ToString::to_string).collect(),
                        },
                    ));
                }
            }
        }
    }

    // Invariant 7: the wake-hint contract, audited at every reachable state
    // under every engine.
    let mut wake = WakeHintAudit::default();
    for (i, &engine) in ENGINES.iter().enumerate() {
        let rebuilt;
        let session = if i == 0 {
            &reference
        } else {
            rebuilt = build_session(graph, scheme, engine, faults, TracePolicy::Recorded)?;
            &rebuilt
        };
        match session.audit_wake_hints() {
            Ok(audit) => {
                wake.states_checked += audit.states_checked;
                wake.hints_audited += audit.hints_audited;
                wake.steps_replayed += audit.steps_replayed;
            }
            Err(violation) => {
                return Err(fail(scheme, ViolationKind::WakeHint { engine, violation }));
            }
        }
    }

    Ok(PointAudit {
        rounds_executed: ref_report.rounds_executed,
        wake,
    })
}

/// Invariant 2: every recorded event is consistent with the round's
/// transmitter set and the graph's adjacency. Rounds containing a fault
/// event are skipped (fault semantics rewrite individual events).
fn check_trace_physics(graph: &Graph, scheme: Scheme, shape: &TraceShape) -> Result<(), Violation> {
    let n = graph.node_count();
    let mut transmitting = vec![false; n];
    for round in &shape.rounds {
        if round
            .events
            .iter()
            .any(|e| matches!(e, ShapeEvent::Faulted(_)))
        {
            continue;
        }
        transmitting.iter_mut().for_each(|t| *t = false);
        for (v, event) in round.events.iter().enumerate() {
            if matches!(event, ShapeEvent::Transmitted) {
                transmitting[v] = true;
            }
        }
        for (v, event) in round.events.iter().enumerate() {
            let tx_neighbors = graph
                .neighbors(v)
                .iter()
                .filter(|&&u| transmitting[u])
                .count();
            let contradiction = match *event {
                ShapeEvent::Transmitted => None,
                ShapeEvent::Heard { from } => {
                    if !graph.has_edge(v, from) {
                        Some(format!("heard from non-neighbour {from}"))
                    } else if !transmitting[from] {
                        Some(format!("heard from silent node {from}"))
                    } else if tx_neighbors != 1 {
                        Some(format!(
                            "heard a message while {tx_neighbors} neighbours transmitted"
                        ))
                    } else {
                        None
                    }
                }
                ShapeEvent::Collision {
                    transmitting_neighbors,
                } => {
                    if transmitting_neighbors < 2 {
                        Some(format!(
                            "collision recorded with only {transmitting_neighbors} transmitters"
                        ))
                    } else if tx_neighbors != transmitting_neighbors {
                        Some(format!(
                            "collision of {transmitting_neighbors} recorded, {tx_neighbors} neighbours transmitted"
                        ))
                    } else {
                        None
                    }
                }
                ShapeEvent::Silence => {
                    if tx_neighbors != 0 {
                        Some(format!(
                            "silence recorded while {tx_neighbors} neighbours transmitted"
                        ))
                    } else {
                        None
                    }
                }
                ShapeEvent::Faulted(_) => unreachable!("faulted rounds are skipped"),
            };
            if let Some(detail) = contradiction {
                return Err(fail(
                    scheme,
                    ViolationKind::TracePhysics {
                        round: round.round,
                        node: v,
                        detail,
                    },
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 3: a node first reported informed in round `r ≥ 1` heard a
/// message (or had its reception consumed by a decodable-corruption fault)
/// in exactly that round — information only travels through the channel.
fn check_informed_reception(
    scheme: Scheme,
    report: &RunReport,
    shape: &TraceShape,
) -> Result<(), Violation> {
    for (v, informed) in report.informed_rounds.iter().enumerate() {
        let Some(round) = *informed else { continue };
        if round == 0 {
            // Informed before round 1: only the designated sources may be.
            if !report.sources.contains(&v) {
                return Err(fail(
                    scheme,
                    ViolationKind::InformedWithoutReception { node: v, round },
                ));
            }
            continue;
        }
        let received = shape
            .rounds
            .get(round as usize - 1)
            .and_then(|r| r.events.get(v))
            .is_some_and(|e| matches!(e, ShapeEvent::Heard { .. } | ShapeEvent::Faulted(_)));
        if !received {
            return Err(fail(
                scheme,
                ViolationKind::InformedWithoutReception { node: v, round },
            ));
        }
    }
    Ok(())
}

/// Invariant 4: during the collection phase of a multi-message scheme,
/// every scheduled round has exactly one transmitter — the slot's owner.
fn check_collection_plan(
    session: &Session,
    report: &RunReport,
    shape: &TraceShape,
) -> Result<(), Violation> {
    let Some(plan) = session.collection_plan() else {
        return Ok(());
    };
    let scheme = session.scheme();
    let mut owner_of_round = vec![None; plan.rounds() as usize + 1];
    for slot in plan.slots() {
        owner_of_round[slot.round as usize] = Some(slot.node);
    }
    for round in 1..=plan.rounds() {
        let Some(owner) = owner_of_round[round as usize] else {
            return Err(fail(
                scheme,
                ViolationKind::CollectionPlan {
                    round,
                    detail: "no slot scheduled for this collection round".into(),
                },
            ));
        };
        let index = round as usize - 1;
        if index >= shape.rounds.len() {
            // A run may legitimately outpace its collection plan: on small
            // dense graphs every node overhears the collection directly and
            // the protocol completes before the last scheduled slot. Only a
            // truncated *incomplete* run breaks the promise.
            if report.completion_round.is_some() {
                return Ok(());
            }
            return Err(fail(
                scheme,
                ViolationKind::CollectionPlan {
                    round,
                    detail: format!(
                        "incomplete run ended after {} rounds, before the plan",
                        shape.rounds.len()
                    ),
                },
            ));
        }
        let tx = shape.transmitters_at(index);
        if tx != [owner] {
            return Err(fail(
                scheme,
                ViolationKind::CollectionPlan {
                    round,
                    detail: format!("slot owner is {owner}, transmitters were {tx:?}"),
                },
            ));
        }
    }
    Ok(())
}
