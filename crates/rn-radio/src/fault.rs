//! Scheduled fault and adversary injection: [`FaultPlan`].
//!
//! The paper's guarantees (Theorem 2.9's `2n − 3` rounds, the multi/gossip
//! bounds) are proved for a fault-free synchronous radio network. A
//! [`FaultPlan`] lets the harness measure how each labeling scheme degrades
//! when that assumption is broken, without touching the protocols themselves:
//! the plan is a deterministic schedule of [`FaultEvent`]s that the
//! *simulator* applies — identically in every engine — while the nodes keep
//! running the unmodified protocol and never learn a fault happened.
//!
//! # Event taxonomy
//!
//! | Event | Applied in | Effect |
//! |---|---|---|
//! | [`FaultEvent::Crash`] | decide + observe | from its round on, the node is permanently silent *and* deaf: `step`/`receive` are never called again |
//! | [`FaultEvent::LateWake`] | decide + observe | the node is inert (as if crashed) in every round **before** its wake round |
//! | [`FaultEvent::Jam`] | decide + mark | for the scheduled rounds the node's protocol is suspended and it transmits noise: every listener with the jammer in its neighbourhood experiences a collision (undecodable channel), exactly as if an extra anonymous transmitter were present |
//! | [`FaultEvent::Drop`] | observe | receive-side loss: if the node would have heard a message this round, it observes silence instead |
//! | [`FaultEvent::Corrupt`] | observe | receive-side garbling: the message is replaced by [`RadioMessage::corrupted`]'s output — a garbled decode if the message type defines one, otherwise silence |
//!
//! Rounds are 1-based, matching [`crate::trace::RoundRecord::round`]. The
//! fault schedule lives entirely in the harness: nodes still never see the
//! global round number, so injecting faults cannot leak it to a protocol.
//! A node sees only its local round (see [`crate::RadioNode`]), which a
//! late wake starts at 1 and a jam pauses — exactly the count of rounds
//! the node ran, which it could keep itself.
//!
//! # Determinism
//!
//! A plan is plain data — the same plan on the same graph and protocol
//! produces byte-identical traces, observations and statistics on every run,
//! on both [`crate::Engine`]s, and regardless of batch-level parallelism.
//! An empty plan ([`FaultPlan::none`]) compiles to nothing at all: the
//! simulator takes its ordinary fault-free paths and produces output
//! byte-identical to a simulator that was never given a plan.
//!
//! [`RadioMessage::corrupted`]: crate::message::RadioMessage::corrupted

use rn_graph::NodeId;

/// One scheduled fault. See the [module docs](self) for the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The node halts permanently at the start of `round`: from that round
    /// on it never transmits and never observes anything.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// First round (1-based) in which the node is dead.
        round: u64,
    },
    /// The node becomes an adversarial jammer for an interval of rounds:
    /// its protocol is suspended and it transmits undecodable noise, forcing
    /// a collision at every listener that has it as a neighbour.
    Jam {
        /// The jamming node.
        node: NodeId,
        /// First round (1-based) of the jamming interval.
        from_round: u64,
        /// Number of consecutive rounds jammed (0 = no effect).
        rounds: u64,
    },
    /// Receive-side message loss: if `node` would have successfully received
    /// a message in `round`, it observes silence instead. A no-op in rounds
    /// where the node would have heard nothing anyway.
    Drop {
        /// The affected listener.
        node: NodeId,
        /// The round (1-based) whose reception is lost.
        round: u64,
    },
    /// Receive-side garbling: a message successfully received by `node` in
    /// `round` is replaced by its [`corrupted`] form; message types without a
    /// decodable corruption deliver silence instead.
    ///
    /// [`corrupted`]: crate::message::RadioMessage::corrupted
    Corrupt {
        /// The affected listener.
        node: NodeId,
        /// The round (1-based) whose reception is garbled.
        round: u64,
    },
    /// The node is inert — exactly as if crashed — in every round strictly
    /// before `round`, then starts executing its protocol from scratch.
    LateWake {
        /// The late-waking node.
        node: NodeId,
        /// First round (1-based) in which the node participates
        /// (`round <= 1` means no effect).
        round: u64,
    },
}

impl FaultEvent {
    /// The node this event targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultEvent::Crash { node, .. }
            | FaultEvent::Jam { node, .. }
            | FaultEvent::Drop { node, .. }
            | FaultEvent::Corrupt { node, .. }
            | FaultEvent::LateWake { node, .. } => node,
        }
    }

    /// First round (1-based) at which this event has an observable effect,
    /// or `None` for events that can never have one (`Jam` with zero rounds,
    /// `LateWake` with a wake round ≤ 1).
    pub fn effective_round(&self) -> Option<u64> {
        match *self {
            FaultEvent::Crash { round, .. }
            | FaultEvent::Drop { round, .. }
            | FaultEvent::Corrupt { round, .. } => Some(round.max(1)),
            FaultEvent::Jam {
                from_round, rounds, ..
            } => (rounds > 0).then(|| from_round.max(1)),
            FaultEvent::LateWake { round, .. } => (round > 1).then_some(1),
        }
    }
}

/// How a trace records a node whose round was consumed by a fault.
///
/// Carried by [`NodeEvent::Faulted`](crate::trace::NodeEvent::Faulted); an
/// execution without faults never produces one, so fault-free traces are
/// unchanged by the existence of this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node is dead (at or past its crash round).
    Crashed,
    /// The node has not woken yet (before its late-wake round).
    Asleep,
    /// The node spent the round jamming instead of running its protocol.
    Jamming,
    /// A message the node would have received was dropped.
    Dropped,
    /// A message the node would have received was garbled beyond decoding.
    Corrupted,
}

/// A deterministic schedule of fault events, installed on a simulator with
/// [`Simulator::with_faults`](crate::Simulator::with_faults) or threaded
/// through a `Session` via `SessionBuilder::faults`.
///
/// ```
/// use rn_radio::fault::FaultPlan;
///
/// let plan = FaultPlan::none()
///     .crash(3, 5)        // node 3 dies at the start of round 5
///     .jam(0, 2, 4)       // node 0 jams rounds 2..=5
///     .late_wake(7, 10);  // node 7 is inert until round 10
/// assert_eq!(plan.events().len(), 3);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults. Guaranteed to produce byte-identical
    /// traces and reports to a run that was never given a plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan made from an explicit event list.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Adds a [`FaultEvent::Crash`] (builder style).
    #[must_use]
    pub fn crash(mut self, node: NodeId, round: u64) -> Self {
        self.events.push(FaultEvent::Crash { node, round });
        self
    }

    /// Adds a [`FaultEvent::Jam`] covering `rounds` consecutive rounds
    /// starting at `from_round` (builder style).
    #[must_use]
    pub fn jam(mut self, node: NodeId, from_round: u64, rounds: u64) -> Self {
        self.events.push(FaultEvent::Jam {
            node,
            from_round,
            rounds,
        });
        self
    }

    /// Adds a [`FaultEvent::Drop`] (builder style).
    #[must_use]
    pub fn drop_message(mut self, node: NodeId, round: u64) -> Self {
        self.events.push(FaultEvent::Drop { node, round });
        self
    }

    /// Adds a [`FaultEvent::Corrupt`] (builder style).
    #[must_use]
    pub fn corrupt(mut self, node: NodeId, round: u64) -> Self {
        self.events.push(FaultEvent::Corrupt { node, round });
        self
    }

    /// Adds a [`FaultEvent::LateWake`] (builder style).
    #[must_use]
    pub fn late_wake(mut self, node: NodeId, round: u64) -> Self {
        self.events.push(FaultEvent::LateWake { node, round });
        self
    }

    /// Appends an event in place.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The largest node id any event targets, or `None` for an empty plan.
    /// A plan is valid for a graph iff this is `< node_count`.
    pub fn max_node(&self) -> Option<NodeId> {
        self.events.iter().map(FaultEvent::node).max()
    }

    /// The round at which `node` crashes (smallest scheduled crash round),
    /// or `None` if the plan never crashes it.
    pub fn crash_round(&self, node: NodeId) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Crash { node: v, round } if v == node => Some(round.max(1)),
                _ => None,
            })
            .min()
    }

    /// Number of events whose effect had begun by the end of round `round`
    /// (inclusive) — the `faults_injected` accounting the run reports use.
    /// Events that can never have an effect are not counted.
    pub fn injected_by(&self, round: u64) -> usize {
        self.events
            .iter()
            .filter_map(FaultEvent::effective_round)
            .filter(|&r| r <= round)
            .count()
    }
}

/// Node `v`'s local round in global round `round` under an optional
/// compiled plan: `round` itself when there is none (see
/// [`CompiledFaults::local_round`]).
#[inline]
pub(crate) fn local_round(faults: Option<&CompiledFaults>, v: NodeId, round: u64) -> u64 {
    faults.map_or(round, |f| f.local_round(v, round))
}

/// Receive-side fault kinds, as compiled for per-round lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RxFault {
    Drop,
    Corrupt,
}

/// A [`FaultPlan`] compiled against a concrete node count for O(1)-ish
/// per-round queries inside `step_round`. Built by
/// [`Simulator::with_faults`](crate::Simulator::with_faults); an empty plan
/// never reaches this type (the simulator keeps `None` and takes its
/// ordinary fault-free paths).
#[derive(Debug, Clone)]
pub(crate) struct CompiledFaults {
    /// Per node: first dead round (`u64::MAX` = never crashes).
    crash_round: Vec<u64>,
    /// Per node: first awake round (1 = awake from the start).
    wake_round: Vec<u64>,
    /// The nodes the plan ever makes inert (they crash or wake late), in
    /// increasing order.
    inert_nodes: Vec<NodeId>,
    /// Jam intervals as `(node, first_round, last_round)`, inclusive,
    /// sorted by node and merged, so a node's intervals are disjoint and
    /// in increasing order.
    jams: Vec<(NodeId, u64, u64)>,
    /// Per node, where its intervals sit in `jams`:
    /// `jams[jam_index[v]..jam_index[v + 1]]`.
    jam_index: Vec<usize>,
    /// Receive-side faults sorted by `(round, node)`; at most one per
    /// `(round, node)` pair (the first scheduled event wins).
    rx: Vec<(u64, NodeId, RxFault)>,
}

impl CompiledFaults {
    /// Compiles `plan` for a graph of `n` nodes.
    ///
    /// # Panics
    /// Panics if any event targets a node `>= n` (mirrors
    /// [`Simulator::new`](crate::Simulator::new)'s node-count check).
    pub(crate) fn compile(plan: &FaultPlan, n: usize) -> Self {
        if let Some(max) = plan.max_node() {
            assert!(
                max < n,
                "fault plan targets node {max}, but the graph has only {n} nodes"
            );
        }
        let mut crash_round = vec![u64::MAX; n];
        let mut wake_round = vec![1u64; n];
        let mut jams = Vec::new();
        let mut rx = Vec::new();
        for event in plan.events() {
            match *event {
                FaultEvent::Crash { node, round } => {
                    crash_round[node] = crash_round[node].min(round.max(1));
                }
                FaultEvent::LateWake { node, round } => {
                    wake_round[node] = wake_round[node].max(round);
                }
                FaultEvent::Jam {
                    node,
                    from_round,
                    rounds,
                } => {
                    if rounds > 0 {
                        let first = from_round.max(1);
                        jams.push((node, first, first + (rounds - 1)));
                    }
                }
                FaultEvent::Drop { node, round } => {
                    rx.push((round.max(1), node, RxFault::Drop));
                }
                FaultEvent::Corrupt { node, round } => {
                    rx.push((round.max(1), node, RxFault::Corrupt));
                }
            }
        }
        // Stable sort keeps insertion order within a (round, node) pair, so
        // deduping below keeps the first scheduled event, as documented.
        rx.sort_by_key(|&(round, node, _)| (round, node));
        rx.dedup_by_key(|&mut (round, node, _)| (round, node));
        let inert_nodes = (0..n)
            .filter(|&v| crash_round[v] != u64::MAX || wake_round[v] > 1)
            .collect();
        // Overlapping or touching intervals of one node merge, so
        // `local_round` can subtract each jammed round exactly once.
        jams.sort_unstable();
        let mut merged: Vec<(NodeId, u64, u64)> = Vec::with_capacity(jams.len());
        for (node, first, last) in jams {
            match merged.last_mut() {
                Some((v, _, end)) if *v == node && first <= end.saturating_add(1) => {
                    *end = (*end).max(last);
                }
                _ => merged.push((node, first, last)),
            }
        }
        let mut jam_index = vec![0; n + 1];
        for &(node, _, _) in &merged {
            jam_index[node + 1] += 1;
        }
        for v in 0..n {
            jam_index[v + 1] += jam_index[v];
        }
        CompiledFaults {
            crash_round,
            wake_round,
            inert_nodes,
            jams: merged,
            jam_index,
            rx,
        }
    }

    /// Node `v`'s jam intervals, disjoint and in increasing order.
    #[inline]
    fn jams_of(&self, v: NodeId) -> &[(NodeId, u64, u64)] {
        &self.jams[self.jam_index[v]..self.jam_index[v + 1]]
    }

    /// Node `v`'s local round in global round `round`: the number of rounds
    /// up to and including `round` in which its protocol runs — from its
    /// wake round to the round before it crashes, minus the rounds it
    /// spends jamming. 0 before it wakes. O(1) for a node the plan never
    /// jams.
    ///
    /// This is the `now` both engines pass to
    /// [`RadioNode::step`](crate::RadioNode::step) and
    /// [`RadioNode::receive`](crate::RadioNode::receive), and the clock the
    /// wake-hint audit replays on; see [`local_round`] for a run without a
    /// plan.
    pub(crate) fn local_round(&self, v: NodeId, round: u64) -> u64 {
        let wake = self.wake_round[v];
        let round = round.min(self.crash_round[v].saturating_sub(1));
        if round < wake {
            return 0;
        }
        let mut now = round - wake + 1;
        for &(_, first, last) in self.jams_of(v) {
            if first > round {
                break;
            }
            let (lo, hi) = (first.max(wake), last.min(round));
            if lo <= hi {
                now -= hi - lo + 1;
            }
        }
        now
    }

    /// If node `v` is inert in `round`, which marker the trace records.
    /// A crash outranks a pending wake when both apply.
    #[inline]
    pub(crate) fn inert_kind(&self, v: NodeId, round: u64) -> Option<FaultKind> {
        if round >= self.crash_round[v] {
            Some(FaultKind::Crashed)
        } else if round < self.wake_round[v] {
            Some(FaultKind::Asleep)
        } else {
            None
        }
    }

    /// The nodes that are inert in some round, in increasing order: the
    /// only nodes [`inert_kind`](Self::inert_kind) can answer `Some` for.
    /// The fast engine records their fault markers from this list rather
    /// than scanning all `n` nodes.
    #[inline]
    pub(crate) fn inert_nodes(&self) -> &[NodeId] {
        &self.inert_nodes
    }

    /// The first round in which node `v` participates (its late-wake round;
    /// 1 when it was never delayed). The event-driven engine seeds its wake
    /// queue from this so a sleeping node costs nothing until it wakes.
    #[inline]
    pub(crate) fn wake_round(&self, v: NodeId) -> u64 {
        self.wake_round[v]
    }

    /// The compiled jam intervals as `(node, first_round, last_round)`,
    /// inclusive. The event-driven engine seeds forced wake-ups from the
    /// interval starts: a jammer occupies the channel (and resets quiet
    /// detection) even while its protocol is otherwise dormant.
    #[inline]
    pub(crate) fn jam_intervals(&self) -> &[(NodeId, u64, u64)] {
        &self.jams
    }

    /// Whether node `v` spends `round` jamming. Inertness outranks jamming;
    /// callers check [`inert_kind`](Self::inert_kind) first.
    #[inline]
    pub(crate) fn is_jamming(&self, v: NodeId, round: u64) -> bool {
        self.jams_of(v)
            .iter()
            .any(|&(_, first, last)| (first..=last).contains(&round))
    }

    /// The receive-side faults scheduled for `round`, sorted by node.
    pub(crate) fn rx_window(&self, round: u64) -> &[(u64, NodeId, RxFault)] {
        let start = self.rx.partition_point(|&(r, _, _)| r < round);
        let end = self.rx.partition_point(|&(r, _, _)| r <= round);
        &self.rx[start..end]
    }

    /// Looks up node `v`'s receive-side fault in a window returned by
    /// [`rx_window`](Self::rx_window).
    #[inline]
    pub(crate) fn rx_fault(window: &[(u64, NodeId, RxFault)], v: NodeId) -> Option<RxFault> {
        window
            .binary_search_by_key(&v, |&(_, node, _)| node)
            .ok()
            .map(|i| window[i].2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_builders_accumulate() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().len(), 0);
        let plan = FaultPlan::none()
            .crash(3, 5)
            .jam(0, 2, 4)
            .drop_message(1, 7)
            .corrupt(2, 7)
            .late_wake(4, 9);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.max_node(), Some(4));
        assert_eq!(plan.crash_round(3), Some(5));
        assert_eq!(plan.crash_round(0), None);
    }

    #[test]
    fn effective_rounds_and_injected_accounting() {
        let plan = FaultPlan::none()
            .crash(0, 5)
            .jam(1, 2, 3)
            .jam(1, 10, 0) // zero-length: never effective
            .late_wake(2, 1) // wake round 1: never effective
            .late_wake(3, 6) // effective from round 1
            .drop_message(4, 8);
        assert_eq!(plan.injected_by(0), 0);
        assert_eq!(plan.injected_by(1), 1); // the late-wake
        assert_eq!(plan.injected_by(2), 2); // + jam
        assert_eq!(plan.injected_by(5), 3); // + crash
        assert_eq!(plan.injected_by(100), 4); // + drop; duds never count
    }

    #[test]
    fn compile_resolves_overlaps_and_ranges() {
        let plan = FaultPlan::none()
            .crash(0, 9)
            .crash(0, 4) // earliest crash wins
            .late_wake(1, 3)
            .jam(2, 5, 2)
            .drop_message(3, 6)
            .corrupt(3, 6); // same (round, node): first scheduled wins
        let c = CompiledFaults::compile(&plan, 5);
        assert_eq!(c.inert_nodes(), &[0, 1]);
        assert_eq!(c.inert_kind(0, 3), None);
        assert_eq!(c.inert_kind(0, 4), Some(FaultKind::Crashed));
        assert_eq!(c.inert_kind(0, 400), Some(FaultKind::Crashed));
        assert_eq!(c.inert_kind(1, 2), Some(FaultKind::Asleep));
        assert_eq!(c.inert_kind(1, 3), None);
        assert!(!c.is_jamming(2, 4));
        assert!(c.is_jamming(2, 5));
        assert!(c.is_jamming(2, 6));
        assert!(!c.is_jamming(2, 7));
        let w = c.rx_window(6);
        assert_eq!(CompiledFaults::rx_fault(w, 3), Some(RxFault::Drop));
        assert_eq!(CompiledFaults::rx_fault(w, 0), None);
        assert!(c.rx_window(7).is_empty());
    }

    #[test]
    fn local_round_starts_at_the_wake_round_and_pauses_while_jamming() {
        let plan = FaultPlan::none()
            .late_wake(0, 4)
            .jam(0, 2, 4) // rounds 2..=5, of which 4 and 5 are awake
            .jam(1, 3, 2) // rounds 3..=4
            .jam(1, 4, 3) // rounds 4..=6: merges into 3..=6
            .jam(1, 9, 1)
            .crash(2, 8);
        let c = CompiledFaults::compile(&plan, 3);
        let clock = |v| (0..=10).map(|r| c.local_round(v, r)).collect::<Vec<_>>();
        assert_eq!(clock(0), [0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5]);
        assert_eq!(clock(1), [0, 1, 2, 2, 2, 2, 2, 3, 4, 4, 5]);
        // Node 2 crashes in round 8: its clock stops at round 7.
        assert_eq!(clock(2), [0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7]);
        assert_eq!(local_round(None, 2, 7), 7);
        assert_eq!(local_round(Some(&c), 1, 7), 3);
        // Merged intervals still answer `is_jamming` round by round.
        assert!((3..=6).all(|r| c.is_jamming(1, r)));
        assert!(!c.is_jamming(1, 7) && c.is_jamming(1, 9));
    }

    #[test]
    fn round_zero_schedules_clamp_to_round_one() {
        let plan = FaultPlan::none()
            .crash(0, 0)
            .jam(1, 0, 2)
            .drop_message(2, 0);
        let c = CompiledFaults::compile(&plan, 3);
        assert_eq!(c.inert_kind(0, 1), Some(FaultKind::Crashed));
        assert!(c.is_jamming(1, 1));
        assert!(c.is_jamming(1, 2));
        assert!(!c.is_jamming(1, 3));
        assert_eq!(
            CompiledFaults::rx_fault(c.rx_window(1), 2),
            Some(RxFault::Drop)
        );
    }

    #[test]
    #[should_panic(expected = "targets node 7")]
    fn compile_rejects_out_of_range_nodes() {
        let plan = FaultPlan::none().crash(7, 1);
        let _ = CompiledFaults::compile(&plan, 5);
    }
}
