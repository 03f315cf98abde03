//! Exhaustive wake-hint contract auditing: the machinery behind the
//! bounded model checker's elision-soundness proof.
//!
//! [`RadioNode::wake_hint`] returning `h > 0` at local round `now` promises
//! that — absent a decodable delivery — the node's next `h`
//! `step`/`receive(None)` pairs, at local rounds `now + 1 ..= now + h`, are
//! Listen-only no-ops that leave its state bit-identical (*frozen*).
//! The event-driven engine elides those calls, so a hint that overpromises
//! silently corrupts elided runs. [`audit_wake_hints`] drives a simulation
//! round by round and, at **every reachable state**, asks each node for its
//! hint at its true local round (the clock the engines pass, from the same
//! helper) and replays the promised span against a cloned node on that
//! clock: each replayed `step` must return
//! [`Action::Listen`](crate::Action) and (for nodes implementing
//! [`RadioNode::state_digest`]) the digest must not move. On an enumerated
//! graph family this is an exhaustive proof of the elision contract up to
//! the bound.

use crate::node::RadioNode;
use crate::simulator::Simulator;
use rn_graph::NodeId;

/// How a wake-hint promise was broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintViolationKind {
    /// A replayed `step` inside the promised span returned
    /// `Action::Transmit` — the engine would have suppressed a real
    /// transmission.
    TransmittedDuringSpan,
    /// The node's state digest moved across a replayed
    /// `step`/`receive(None)` pair — the state was not frozen, so an
    /// elided run diverges from a driven one.
    StateDrift {
        /// Digest when the hint was issued.
        before: u64,
        /// Digest after the offending replayed pair.
        after: u64,
    },
}

impl std::fmt::Display for HintViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HintViolationKind::TransmittedDuringSpan => {
                write!(f, "step() transmitted inside the promised Listen-only span")
            }
            HintViolationKind::StateDrift { before, after } => write!(
                f,
                "state digest drifted across an elided pair ({before:#018x} -> {after:#018x})"
            ),
        }
    }
}

/// A located wake-hint contract violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeHintViolation {
    /// The node whose hint overpromised.
    pub node: NodeId,
    /// The (1-based) round at whose post-state the hint was queried;
    /// `0` is the initial state.
    pub round: u64,
    /// The hint value the node returned.
    pub hint: u64,
    /// 1-based offset of the replayed pair at which the promise broke.
    pub offset: u64,
    /// What broke.
    pub kind: HintViolationKind,
}

impl std::fmt::Display for WakeHintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} after round {}: wake_hint() = {} but at elided step {}: {}",
            self.node, self.round, self.hint, self.offset, self.kind
        )
    }
}

/// What a clean audit covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeHintAudit {
    /// Reachable states examined (one per node per executed round,
    /// including the initial state).
    pub states_checked: u64,
    /// States at which a positive hint was issued and replayed.
    pub hints_audited: u64,
    /// Total `step`/`receive(None)` pairs replayed.
    pub steps_replayed: u64,
}

impl WakeHintAudit {
    fn absorb(&mut self, other: WakeHintAudit) {
        self.states_checked += other.states_checked;
        self.hints_audited += other.hints_audited;
        self.steps_replayed += other.steps_replayed;
    }
}

/// Verifies every positive hint issued at the simulator's current state by
/// clone-and-replay. `horizon` bounds the replay length (a `u64::MAX`
/// "park until reception" hint is checked for `horizon` pairs — enough to
/// cover any run of at most that many further rounds).
fn check_current_state<N: RadioNode + Clone>(
    sim: &Simulator<N>,
    round: u64,
    horizon: u64,
) -> Result<WakeHintAudit, WakeHintViolation> {
    let mut audit = WakeHintAudit::default();
    for (v, node) in sim.nodes().iter().enumerate() {
        audit.states_checked += 1;
        let now = sim.local_round(v, round);
        let hint = node.wake_hint(now);
        if hint == 0 {
            continue;
        }
        let span = hint.min(horizon);
        if span == 0 {
            continue;
        }
        audit.hints_audited += 1;
        let mut replay = node.clone();
        // A digest of 0 is the trait's opt-out default: Listen-only is
        // still enforced, state drift is only visible to implementers.
        let before = replay.state_digest();
        for offset in 1..=span {
            if replay.step(now + offset).is_transmit() {
                return Err(WakeHintViolation {
                    node: v,
                    round,
                    hint,
                    offset,
                    kind: HintViolationKind::TransmittedDuringSpan,
                });
            }
            replay.receive(None, now + offset);
            audit.steps_replayed += 1;
            if before != 0 {
                let after = replay.state_digest();
                if after != before {
                    return Err(WakeHintViolation {
                        node: v,
                        round,
                        hint,
                        offset,
                        kind: HintViolationKind::StateDrift { before, after },
                    });
                }
            }
        }
    }
    Ok(audit)
}

/// Drives `sim` for `rounds` rounds and audits the wake-hint contract at
/// every reachable state (the initial state and the post-state of each
/// round), replaying each positive hint against a cloned node.
///
/// Runs under whatever engine `sim` is configured with — the per-round
/// [`Simulator::step_round`] path, so the event-driven engine's frontier
/// bookkeeping is exercised while every round is still materialised and
/// checkable. Returns the coverage counters, or the first violation.
pub fn audit_wake_hints<N: RadioNode + Clone>(
    sim: &mut Simulator<N>,
    rounds: u64,
) -> Result<WakeHintAudit, WakeHintViolation> {
    let mut audit = check_current_state(sim, 0, rounds)?;
    for _ in 0..rounds {
        sim.step_round();
        let round = sim.current_round();
        audit.absorb(check_current_state(
            sim,
            round,
            rounds.saturating_sub(round),
        )?);
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Action;
    use crate::simulator::Engine;
    use std::sync::Arc;

    /// A node that, once informed, waits quietly for a fixed 3 rounds and
    /// then transmits once. It stores the local round it transmits in, so
    /// its state is frozen while it waits. `honest` controls whether its
    /// hint stops at the truth (the rounds before that deadline) or
    /// overpromises across its own transmission.
    #[derive(Debug, Clone)]
    struct DelayedTalker {
        informed: bool,
        transmit_at: Option<u64>,
        honest: bool,
    }

    impl DelayedTalker {
        fn network(n: usize, honest: bool) -> Vec<Self> {
            (0..n)
                .map(|v| DelayedTalker {
                    informed: v == 0,
                    transmit_at: (v == 0).then_some(1),
                    honest,
                })
                .collect()
        }
    }

    impl RadioNode for DelayedTalker {
        type Msg = u64;
        const WAKE_HINTS: bool = true;
        fn step(&mut self, now: u64) -> Action<u64> {
            if self.transmit_at == Some(now) {
                self.transmit_at = None;
                return Action::Transmit(1);
            }
            Action::Listen
        }
        fn receive(&mut self, heard: Option<&u64>, now: u64) {
            if heard.is_some() && !self.informed {
                self.informed = true;
                self.transmit_at = Some(now + 4);
            }
        }
        fn wake_hint(&self, now: u64) -> u64 {
            match self.transmit_at {
                // Truthful: dormant up to the round before the deadline. A
                // dishonest node promises straight through it.
                Some(at) => {
                    let quiet = at - now - 1;
                    if self.honest {
                        quiet
                    } else {
                        quiet + 2
                    }
                }
                // Nothing pending: dormant until it hears something.
                None => u64::MAX,
            }
        }
        fn state_digest(&self) -> u64 {
            crate::digest::Digest::new(0xD31A)
                .flag(self.informed)
                .opt(self.transmit_at)
                .finish()
        }
    }

    fn path3() -> Arc<rn_graph::Graph> {
        Arc::new(rn_graph::Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap())
    }

    #[test]
    fn honest_protocol_passes_on_all_engines() {
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            let mut sim =
                Simulator::new(path3(), DelayedTalker::network(3, true)).with_engine(engine);
            let audit = audit_wake_hints(&mut sim, 20).expect("honest hints certify");
            assert!(audit.states_checked >= 60);
            assert!(audit.hints_audited > 0, "MAX hints were replayed");
            assert!(audit.steps_replayed > 0);
        }
    }

    #[test]
    fn audit_replays_on_the_local_clock_of_a_late_or_jammed_node() {
        // Node 1 hears the source in round 1 and waits for local round 5,
        // but jams in rounds 2-3, so it transmits in global round 7; node
        // 2 wakes in round 3 and relays in global round 11 (its local 9).
        // On the global clock both deadlines would lie in the past while
        // the nodes still wait for them.
        let plan = crate::FaultPlan::none().jam(1, 2, 2).late_wake(2, 3);
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            let mut sim = Simulator::new(path3(), DelayedTalker::network(3, true))
                .with_engine(engine)
                .with_faults(&plan);
            let audit = audit_wake_hints(&mut sim, 24).expect("honest hints certify");
            assert!(audit.hints_audited > 0);
            assert_eq!(sim.trace().transmit_rounds(1), vec![7]);
            assert_eq!(sim.trace().transmit_rounds(2), vec![11]);
        }
    }

    #[test]
    fn overpromising_protocol_is_caught_with_location() {
        let mut sim = Simulator::new(path3(), DelayedTalker::network(3, false));
        let violation = audit_wake_hints(&mut sim, 20).expect_err("overpromise must be caught");
        // The dishonest hint spans the deadline, and the replay's clock
        // reaches it: the state is frozen, so the transmission is what
        // breaks the promise.
        assert_eq!(violation.kind, HintViolationKind::TransmittedDuringSpan);
        assert!(violation.offset >= 1);
        assert!(violation.hint >= 2);
    }
}
