//! Omniscient verification oracles.
//!
//! These functions inspect an execution [`Trace`] with full knowledge of the
//! graph and labeling (which the nodes themselves never have) and check the
//! properties the paper proves:
//!
//! * which round each node is first informed in, and whether broadcast
//!   completed ([`first_payload_rounds`], [`completion_round`]);
//! * Theorem 2.9 / 3.9 bounds ([`check_theorem_2_9`], [`check_theorem_3_9`]);
//! * the exact per-round characterisation of Lemma 2.8
//!   ([`check_lemma_2_8`]): in round `2i − 1` exactly the nodes of `DOM_i`
//!   transmit µ and exactly the nodes of `NEW_i` receive it for the first
//!   time; in round `2i` exactly the `x2`-labeled nodes of `NEW_i` transmit
//!   "stay".

use crate::messages::{BMessage, MultiMessage};
use rn_labeling::{Labeling, SequenceConstruction};
use rn_radio::message::RadioMessage;
use rn_radio::trace::{NodeEvent, Trace};

/// Replays a multi-message trace's absorb semantics: which messages each
/// node holds after each heard event. Returns, per node, the first round it
/// held message `j`, seeding each source with its own message at round 0.
fn replay_holdings(
    trace: &Trace<MultiMessage>,
    node_count: usize,
    sources: &[usize],
) -> Vec<Vec<Option<u64>>> {
    let k = sources.len();
    let mut acquired: Vec<Vec<Option<u64>>> = vec![vec![None; k]; node_count];
    for (j, &s) in sources.iter().enumerate() {
        acquired[s][j] = Some(0);
    }
    for round in &trace.rounds {
        for &(v, ref event) in &round.events {
            let NodeEvent::Heard { message, .. } = event else {
                continue;
            };
            match message {
                MultiMessage::Relay { source_index, .. } => {
                    let j = *source_index as usize;
                    if j < k && acquired[v][j].is_none() {
                        acquired[v][j] = Some(round.round);
                    }
                }
                MultiMessage::Token(bundle) | MultiMessage::Bundle(bundle) => {
                    for &(j, _) in bundle.iter() {
                        let j = j as usize;
                        if j < k && acquired[v][j].is_none() {
                            acquired[v][j] = Some(round.round);
                        }
                    }
                }
                MultiMessage::Stay => {}
            }
        }
    }
    acquired
}

/// Round in which each node first held **all** `k` messages of a
/// multi-broadcast or gossip trace (a source of every message reads as
/// `Some(0)`); `None` for nodes that never complete.
///
/// This is the multi-message analogue of [`first_payload_rounds`] (which is
/// already generic over the message type but answers a single-payload
/// question): it replays the absorb semantics of [`MultiMessage`] — a
/// `Relay` delivers one source's message, a `Token` or `Bundle` delivers
/// every message it carries, a `Stay` delivers nothing.
pub fn holds_all_rounds(
    trace: &Trace<MultiMessage>,
    node_count: usize,
    sources: &[usize],
) -> Vec<Option<u64>> {
    replay_holdings(trace, node_count, sources)
        .iter()
        .map(|row| completion_round(row))
        .collect()
}

/// For each source (in `sources` order), the round by which **every** node
/// held that source's message, or `None` if it never fully propagated —
/// the trace-replay counterpart of
/// [`RunReport::message_completion_rounds`](crate::session::RunReport::message_completion_rounds).
pub fn message_completion_rounds(
    trace: &Trace<MultiMessage>,
    node_count: usize,
    sources: &[usize],
) -> Vec<(usize, Option<u64>)> {
    let acquired = replay_holdings(trace, node_count, sources);
    sources
        .iter()
        .enumerate()
        .map(|(j, &s)| {
            let column: Vec<Option<u64>> = (0..node_count).map(|v| acquired[v][j]).collect();
            (s, completion_round(&column))
        })
        .collect()
}

/// Round in which each node first received a message satisfying `is_payload`
/// (the source gets `Some(0)`).
pub fn first_payload_rounds<M, F>(
    trace: &Trace<M>,
    node_count: usize,
    source: usize,
    is_payload: F,
) -> Vec<Option<u64>>
where
    M: RadioMessage,
    F: Fn(&M) -> bool,
{
    let mut first = vec![None; node_count];
    first[source] = Some(0);
    for round in &trace.rounds {
        for &(v, ref event) in &round.events {
            if first[v].is_none() {
                if let NodeEvent::Heard { message, .. } = event {
                    if is_payload(message) {
                        first[v] = Some(round.round);
                    }
                }
            }
        }
    }
    first
}

/// The round by which every node has been informed, if broadcast completed.
pub fn completion_round(informed_rounds: &[Option<u64>]) -> Option<u64> {
    let mut max = 0;
    for r in informed_rounds {
        max = max.max((*r)?);
    }
    Some(max)
}

/// Checks the Theorem 2.9 bound: broadcast completed within `2n − 3` rounds
/// (vacuous for `n ≤ 1`).
pub fn check_theorem_2_9(completion: Option<u64>, n: usize) -> Result<(), String> {
    if n <= 1 {
        return Ok(());
    }
    let bound = 2 * n as u64 - 3;
    match completion {
        Some(t) if t <= bound => Ok(()),
        Some(t) => Err(format!("broadcast took {t} rounds, bound is {bound}")),
        None => Err("broadcast did not complete".into()),
    }
}

/// Checks the acknowledgement window of Theorem 3.9 / Corollary 3.8: the
/// source received an ack in a round `t' ∈ {t + 1, …, t + n − 1}` where `t`
/// is the completion round (vacuous for `n ≤ 2`).
///
/// Note: Theorem 3.9 states the upper end of the window as `t + n − 2`, but
/// Corollary 3.8 (from which it is derived) gives `t' ≤ 3ℓ − 4 = t + ℓ − 1`,
/// and with `ℓ = n` (e.g. a path with the source at an endpoint) the
/// acknowledgement genuinely arrives at `t + n − 1`. We therefore check the
/// corollary's bound; experiment E3 (`rn_experiments::experiments::ack_time`)
/// prints the discrepancy under its table.
pub fn check_theorem_3_9(
    completion: Option<u64>,
    ack_round: Option<u64>,
    n: usize,
) -> Result<(), String> {
    if n <= 2 {
        return Ok(());
    }
    let t = completion.ok_or("broadcast did not complete")?;
    let t_ack = ack_round.ok_or("the source never received an ack")?;
    if t_ack <= t {
        return Err(format!("ack at round {t_ack} precedes completion at {t}"));
    }
    let bound = t + n as u64 - 1;
    if t_ack > bound {
        return Err(format!("ack at round {t_ack} exceeds bound {bound}"));
    }
    Ok(())
}

/// First round in which node `v` heard a µ-carrying message in an Algorithm B
/// trace ("stay" messages do not count).
pub fn first_data_round(trace: &Trace<BMessage>, v: usize) -> Option<u64> {
    trace.rounds.iter().find_map(|r| match r.event(v) {
        Some(NodeEvent::Heard {
            message: BMessage::Data(_),
            ..
        }) => Some(r.round),
        _ => None,
    })
}

/// Checks the exact execution characterisation of Lemma 2.8 for an Algorithm
/// B trace against the sequence construction the labeling was derived from.
pub fn check_lemma_2_8(
    trace: &Trace<BMessage>,
    construction: &SequenceConstruction,
    labeling: &Labeling,
) -> Result<(), String> {
    let ell = construction.ell();
    for stage in construction.stages() {
        let i = stage.index;
        if i >= ell {
            break;
        }
        // Round 2i - 1: exactly DOM_i transmit µ, exactly NEW_i first receive.
        let odd_round = 2 * i as u64 - 1;
        let record = trace
            .rounds
            .iter()
            .find(|r| r.round == odd_round)
            .ok_or_else(|| format!("trace too short: missing round {odd_round}"))?;
        let data_transmitters: Vec<usize> = record
            .events
            .iter()
            .filter(|(_, e)| matches!(e, NodeEvent::Transmitted(BMessage::Data(_))))
            .map(|&(v, _)| v)
            .collect();
        if data_transmitters != stage.dom {
            return Err(format!(
                "round {odd_round}: transmitters {data_transmitters:?} != DOM_{i} {:?}",
                stage.dom
            ));
        }
        // "Receives µ for the first time" in the paper's sense means becoming
        // newly informed, so the source (which holds µ from the start but may
        // overhear it later) is excluded.
        let mut first_receivers: Vec<usize> = (0..labeling.node_count())
            .filter(|&v| {
                v != construction.source() && first_data_round(trace, v) == Some(odd_round)
            })
            .collect();
        first_receivers.sort_unstable();
        if first_receivers != stage.new {
            return Err(format!(
                "round {odd_round}: first receivers {first_receivers:?} != NEW_{i} {:?}",
                stage.new
            ));
        }

        // Round 2i: exactly the x2-labeled nodes of NEW_i transmit "stay".
        let even_round = 2 * i as u64;
        if let Some(record) = trace.rounds.iter().find(|r| r.round == even_round) {
            let stay_transmitters: Vec<usize> = record
                .events
                .iter()
                .filter(|(_, e)| matches!(e, NodeEvent::Transmitted(BMessage::Stay)))
                .map(|&(v, _)| v)
                .collect();
            let mut expected: Vec<usize> = stage
                .new
                .iter()
                .copied()
                .filter(|&v| labeling.get(v).x2())
                .collect();
            expected.sort_unstable();
            if stay_transmitters != expected {
                return Err(format!(
                    "round {even_round}: stay transmitters {stay_transmitters:?} != expected {expected:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_b::BNode;
    use rn_graph::generators;
    use rn_labeling::lambda;
    use rn_radio::{Simulator, StopCondition};

    fn is_data(m: &BMessage) -> bool {
        matches!(m, BMessage::Data(_))
    }

    fn run_b(g: rn_graph::Graph, source: usize) -> (Simulator<BNode>, lambda::LambdaScheme) {
        let scheme = lambda::construct(&g, source).unwrap();
        let nodes = BNode::network(scheme.labeling(), source, 5);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 500 }, |_| false);
        (sim, scheme)
    }

    #[test]
    fn informed_rounds_and_completion() {
        let (sim, _) = run_b(generators::path(6), 0);
        let informed = first_payload_rounds(sim.trace(), 6, 0, is_data);
        assert_eq!(informed[0], Some(0));
        assert!(informed.iter().all(Option::is_some));
        let t = completion_round(&informed).unwrap();
        assert!(t <= 9);
        assert!(check_theorem_2_9(Some(t), 6).is_ok());
    }

    #[test]
    fn theorem_2_9_detects_violations() {
        assert!(check_theorem_2_9(Some(100), 6).is_err());
        assert!(check_theorem_2_9(None, 6).is_err());
        assert!(check_theorem_2_9(None, 1).is_ok());
    }

    #[test]
    fn theorem_3_9_detects_violations() {
        assert!(check_theorem_3_9(Some(5), Some(6), 10).is_ok());
        assert!(check_theorem_3_9(Some(5), Some(5), 10).is_err());
        assert!(check_theorem_3_9(Some(5), Some(50), 10).is_err());
        assert!(check_theorem_3_9(Some(5), None, 10).is_err());
        assert!(check_theorem_3_9(None, Some(5), 10).is_err());
        assert!(check_theorem_3_9(None, None, 2).is_ok());
    }

    #[test]
    fn lemma_2_8_holds_on_executions() {
        for (g, src) in [
            (generators::path(10), 0),
            (generators::cycle(9), 2),
            (generators::grid(3, 4), 5),
            (generators::star(8), 0),
            (generators::gnp_connected(25, 0.15, 9).unwrap(), 3),
            (generators::hypercube(4), 7),
        ] {
            let (sim, scheme) = run_b(g, src);
            check_lemma_2_8(sim.trace(), scheme.construction(), scheme.labeling())
                .unwrap_or_else(|e| panic!("Lemma 2.8 violated: {e}"));
        }
    }

    #[test]
    fn lemma_2_8_check_detects_wrong_construction() {
        // Build the trace with source 0 but check against the construction
        // for source 2: the characterisation must fail.
        let g = generators::path(6);
        let (sim, _) = run_b(g.clone(), 0);
        let wrong = lambda::construct(&g, 2).unwrap();
        assert!(check_lemma_2_8(sim.trace(), wrong.construction(), wrong.labeling()).is_err());
    }

    #[test]
    fn completion_round_none_when_someone_uninformed() {
        assert_eq!(completion_round(&[Some(0), None, Some(3)]), None);
        assert_eq!(completion_round(&[Some(0), Some(1)]), Some(1));
        assert_eq!(completion_round(&[]), Some(0));
    }

    #[test]
    fn multi_trace_replay_agrees_with_session_report() {
        use crate::multi::MultiNode;
        use crate::session::{Scheme, Session};
        use rn_labeling::multi;

        let g = generators::grid(4, 5);
        let sources = vec![0usize, 7, 19];
        let session = Session::builder(
            Scheme::MultiLambda { k: sources.len() },
            std::sync::Arc::new(g.clone()),
        )
        .sources(&sources)
        .build()
        .unwrap();
        let report = session.run();

        // Re-execute the same deterministic protocol with a raw simulator to
        // get at the trace, then replay it through the oracles.
        let scheme = multi::construct(&g, &sources).unwrap();
        let payloads: Vec<_> = (0..sources.len() as u64)
            .map(|j| report.message + j)
            .collect();
        let nodes = MultiNode::network(&scheme, &payloads);
        let mut sim = Simulator::new(g.clone(), nodes);
        sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 600 }, |_| false);

        let informed = holds_all_rounds(sim.trace(), g.node_count(), &sources);
        assert_eq!(informed, report.informed_rounds);
        assert_eq!(completion_round(&informed), report.completion_round);
        let per_message = message_completion_rounds(sim.trace(), g.node_count(), &sources);
        assert_eq!(Some(per_message), report.message_completion_rounds);
    }

    #[test]
    fn gossip_trace_replay_agrees_with_session_report() {
        use crate::gossip::GossipNode;
        use crate::session::{Scheme, Session};
        use rn_labeling::gossip;

        let g = generators::gnp_connected(14, 0.25, 6).unwrap();
        let sources: Vec<usize> = (0..g.node_count()).collect();
        let session = Session::builder(Scheme::Gossip, std::sync::Arc::new(g.clone()))
            .build()
            .unwrap();
        let report = session.run();

        let scheme = gossip::construct(&g).unwrap();
        let payloads: Vec<_> = (0..sources.len() as u64)
            .map(|j| report.message + j)
            .collect();
        let nodes = GossipNode::network(&scheme, &payloads);
        let mut sim = Simulator::new(g.clone(), nodes);
        sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 600 }, |_| false);

        let informed = holds_all_rounds(sim.trace(), g.node_count(), &sources);
        assert_eq!(informed, report.informed_rounds);
        assert_eq!(completion_round(&informed), report.completion_round);
        let per_message = message_completion_rounds(sim.trace(), g.node_count(), &sources);
        assert_eq!(Some(per_message), report.message_completion_rounds);
    }

    #[test]
    fn holds_all_rounds_seeds_sources_and_reports_stragglers() {
        // An empty trace: only the seeded sources hold anything.
        let trace: Trace<MultiMessage> = Trace::new();
        let informed = holds_all_rounds(&trace, 3, &[1]);
        assert_eq!(informed, vec![None, Some(0), None]);
        let per_message = message_completion_rounds(&trace, 3, &[1]);
        assert_eq!(per_message, vec![(1, None)]);
    }
}
