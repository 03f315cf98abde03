//! The synchronous round-by-round simulator.
//!
//! [`Simulator`] owns the graph and one [`RadioNode`] per graph node, and
//! executes the radio model of §1.1 of the paper faithfully:
//!
//! * every round, every node chooses to transmit or listen
//!   ([`RadioNode::step`]);
//! * a listening node receives a message iff exactly one of its neighbours
//!   transmitted; otherwise it observes nothing (and cannot distinguish
//!   silence from collision);
//! * transmitting nodes observe nothing.
//!
//! The simulator records a [`Trace`] for the harness — one event per
//! transmission, reception, collision and fault, with silence recorded by
//! omission — and supports flexible stop conditions so experiments can run
//! "until all nodes are informed", "for exactly k rounds", or "until the
//! trace goes quiet".
//!
//! # Two engines: the specification and the fast engine
//!
//! [`Engine::ListenerCentric`] is the original delivery algorithm,
//! retained as [`Simulator::step_round_reference`]: every listener scans its
//! own neighbour list. It is the executable specification the equivalence
//! suites check the fast engine against, round for round and event for
//! event. [`Engine::EventDriven`] is the fast engine and the default.
//!
//! # The fast engine: delivery over CSR rows
//!
//! The paper's protocols produce long executions in which most rounds have
//! very few transmitters (often one, frequently zero in quiet tails), so the
//! fast engine resolves delivery from the transmitters outward rather than
//! by scanning every listener's neighbourhood:
//!
//! 1. **Decide** — every *driven* node takes its [`RadioNode::step`];
//!    transmitters are collected in the same pass, each recorded sparsely as
//!    a generation mark plus its message moved into a reused buffer.
//!    Listening nodes write **nothing**, so the pass's memory traffic is
//!    proportional to the number of transmitters, not to `n`.
//! 2. **Mark** — for each transmitter `t`, walk its contiguous CSR neighbour
//!    slice ([`Graph::neighbors`]) and bump the neighbour's
//!    `(hit_count, last_sender)` entry in the [`RoundScratch`]. This is the
//!    only part of the round that touches the adjacency structure, and it
//!    costs O(Σ deg(t) over transmitters) — not O(Σ deg(v) over listeners).
//! 3. **Observe** — the driven listeners, plus any dormant node a
//!    transmitter marked, learn their outcome: a listener with
//!    `hit_count == 1` receives the unique sender's message *by reference*
//!    (no clone; the trace, if recording, makes the only copy), any other
//!    listener observes `None`, and a collision's neighbour count is read
//!    straight out of `hit_count` — the mark pass already computed it.
//!
//! Steady-state rounds perform **zero heap allocations** with tracing off:
//! the transmitted-message buffer, the transmitter list and the per-listener
//! arrays all live in the [`RoundScratch`] / simulator and are reused every
//! round, and clearing is free because scratch entries are validated by a
//! per-round generation stamp instead of being zeroed (see
//! [`crate::scratch`]).
//!
//! Invariants the engine relies on:
//!
//! * `scratch.generation` strictly increases across rounds (and across
//!   simulations sharing a recycled scratch), so a stale
//!   `hit_count`/`last_sender` entry can never alias a current one;
//! * the scratch's per-node arrays cover at least `graph.node_count()`
//!   entries (enforced whenever a scratch is installed);
//! * `last_sender[v]` is read only when `hit_count[v] == 1`, and then it is
//!   the unique transmitting neighbour — the reference engine's
//!   `Heard::from` — whatever order the transmitters were marked in. Every
//!   other use of the transmitter order (message sums and maxima, per-node
//!   `tx_index` lookups, the per-node receive-fault search) is order-free,
//!   so the driven set needs no sorting.
//!
//! # The local clock
//!
//! Every `step`, `receive` and `wake_hint` call carries the node's local
//! round (see [`RadioNode`]): the global round when no fault plan is
//! installed, otherwise counted from the node's late-wake round with its
//! jam rounds left out. Both engines and the wake-hint audit compute it in
//! one place (`CompiledFaults::local_round`), in O(1) for a node the plan
//! never jams. Protocols keep timestamps on this clock instead of ticking
//! counters, so a node that only waits for a local round is frozen until
//! then and can park on the frontier below.
//!
//! # Frontier driving
//!
//! The decide pass drives only the **active frontier**. Nodes advertise
//! dormancy through [`RadioNode::wake_hint`] — a *frozen-state* promise that
//! their next `h` rounds would be silent listening with no state change —
//! and the engine keeps a wake queue (`next_wake` array + lazily-deleted
//! min-heap, with a swap buffer that bypasses the heap for next-round
//! wakes). Each round only the due nodes (hints expired, jam-interval
//! starts, late-wake rounds) are stepped, and a dormant listener is touched
//! only when a transmitter marks it — woken exactly when it decodes a
//! message. A protocol that keeps the default hint of 0 is due again every
//! round, so it is driven every round, exactly as the reference engine
//! drives it. With tracing off, [`Simulator::run_until`] additionally
//! **elides provably quiet spans**: when the earliest pending wake is
//! `k > 1` rounds away, no node can act in between (dormant nodes are
//! frozen, jammers are forced awake), so the clock jumps while the
//! quiet-streak arithmetic advances exactly as if the rounds had run.
//! [`Simulator::active_nodes`] names the nodes a round may have changed
//! (the driven ones and the dormant ones that decoded), so a harness that
//! watches node state can skip the rest.
//!
//! The observe pass is the same whether or not a trace is recording.
//! Recording only appends an event at each outcome the passes already
//! reach — a transmission or jam in decide, a delivery, drop or collision
//! in observe, plus a marker for each node the fault plan holds inert — and
//! sorts the round's events by node. It costs memory in
//! proportion to the channel's activity, not to `n`, and it turns elision
//! off, because the trace needs a record (and its inert markers) for every
//! round. Traces, observations, `rounds_executed`, quiet detection and fault
//! application are bit-identical to the reference engine; the equivalence
//! matrix in `tests/engine_equivalence.rs` pins them.

use crate::fault::{local_round, CompiledFaults, FaultKind, FaultPlan, RxFault};
use crate::message::RadioMessage;
use crate::node::{Action, RadioNode};
use crate::scratch::RoundScratch;
use crate::trace::{NodeEvent, RoundRecord, Trace};
use rn_graph::{Graph, NodeId};
use rn_telemetry::{MetricsSink, RoundMetrics, RunCounters};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sentinel `tx_index` marking a jamming node in the decide pass: a jammer
/// occupies a transmitter slot (it keeps the channel busy) but has no entry
/// in the message buffer. Real indices cannot collide with it — the message
/// buffer holds at most one entry per node and node counts are bounded far
/// below `u32::MAX` by the CSR offsets.
const JAMMER: u32 = u32::MAX;

/// Which delivery engine [`Simulator::step_round`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The original listener-centric engine, retained as an executable
    /// reference implementation: every listener scans its neighbour list.
    /// Slower by design; exists so equivalence tests (and sceptical users)
    /// can replay any workload on both engines and compare traces.
    ListenerCentric,
    /// The fast engine (the default): only transmitters' CSR neighbour
    /// slices are walked each round, only the wake-hint frontier is driven,
    /// and [`Simulator::run_until`] batch-advances the clock over provably
    /// quiet stretches when tracing is off. Traces, observations,
    /// outcomes and fault application are bit-identical to the reference
    /// engine (see the module docs for the contract).
    #[default]
    EventDriven,
}

/// Wake-queue bookkeeping of [`Engine::EventDriven`]'s frontier. Message-
/// agnostic, but deliberately kept on
/// the [`Simulator`] rather than inside the pooled [`RoundScratch`]: scratch
/// instances migrate across simulations, while a wake queue is meaningful
/// only for the run that seeded it.
#[derive(Default)]
struct EventState {
    /// Authoritative next round each node must be driven in; `u64::MAX`
    /// means dormant until a decodable reception wakes it.
    next_wake: Vec<u64>,
    /// The round each node's live queue entry targets; deduplicates pushes.
    /// An entry whose round no longer matches `next_wake` is stale and is
    /// dropped lazily when it surfaces.
    enqueued_for: Vec<u64>,
    /// The round each node was last put on the due list; keeps a node from
    /// being driven twice when several queues wake it at once.
    due_stamp: Vec<u64>,
    /// Min-heap of `(wake_round, node)` for wake-ups two or more rounds out
    /// (plus the initial all-nodes seeding).
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Forced wake-ups at jam-interval starts: a jammer occupies the
    /// channel (and resets quiet detection) even while its protocol is
    /// dormant, so elision must never skip a jam round.
    fault_wakes: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// The current round's due list (reused across rounds). Once the round
    /// is resolved, the dormant nodes that decoded a message follow the
    /// driven ones: together they are every node the round may have
    /// changed.
    due: Vec<NodeId>,
    /// Nodes scheduled for the immediately following round. Bypasses the
    /// heap so a node active in consecutive rounds costs O(1) per round,
    /// not O(log n).
    due_next: Vec<NodeId>,
    /// Which round `due_next` currently collects for.
    due_next_round: u64,
    /// Dormant nodes marked by this round's transmitters: the complete
    /// set of wake-by-reception candidates (and of dormant collisions).
    touched: Vec<NodeId>,
}

impl EventState {
    /// Records that node `v` must next be driven in round `wake`
    /// (`u64::MAX` parks it) and queues an entry unless one targeting
    /// exactly that round is already live. `round` is the round currently
    /// executing; a `wake` of `round + 1` takes the cheap swap buffer, any
    /// later round goes through the heap.
    fn schedule(&mut self, v: NodeId, round: u64, wake: u64) {
        self.next_wake[v] = wake;
        if wake == u64::MAX || self.enqueued_for[v] == wake {
            return;
        }
        self.enqueued_for[v] = wake;
        if wake == round + 1 {
            if self.due_next_round != wake {
                self.due_next.clear();
                self.due_next_round = wake;
            }
            self.due_next.push(v);
        } else {
            self.heap.push(Reverse((wake, v)));
        }
    }

    /// Queues node `v`, just driven in `round` (its local round `now`),
    /// for the round its post-step or post-receive [`RadioNode::wake_hint`]
    /// names (`u64::MAX` parks it until a reception wakes it; the default
    /// hint of 0 makes it due again next round). The hint counts local
    /// rounds and the queue global ones; a jam inside the span only wakes
    /// the node early, and jammers are driven anyway.
    #[inline]
    fn reschedule<N: RadioNode>(&mut self, node: &N, v: NodeId, round: u64, now: u64) {
        let wake = round.saturating_add(1).saturating_add(node.wake_hint(now));
        self.schedule(v, round, wake);
    }
}

/// Delivers one successful reception through the receive-side fault filter —
/// the single copy of the Drop/Corrupt/clean logic both engines share.
///
/// `now` is the node's local round. Returns `(decoded, rx_faulted, event)`:
/// whether the node was actually
/// handed a message (`receive(Some(_))` — the fast engine wakes dormant
/// listeners exactly on this), whether a receive-side fault was
/// consumed (drop or corruption, decodable or not — the engines' `rx_faults`
/// counter), and the trace event describing the outcome (`None` when
/// `record` is off; the message is cloned only for the trace).
fn deliver_with_rx_faults<N: RadioNode>(
    node: &mut N,
    v: NodeId,
    now: u64,
    sender: NodeId,
    msg: &N::Msg,
    rx_window: &[(u64, NodeId, RxFault)],
    record: bool,
) -> (bool, bool, Option<NodeEvent<N::Msg>>) {
    match CompiledFaults::rx_fault(rx_window, v) {
        Some(RxFault::Drop) => {
            node.receive(None, now);
            (
                false,
                true,
                record.then(|| NodeEvent::Faulted(FaultKind::Dropped)),
            )
        }
        Some(RxFault::Corrupt) => match msg.corrupted() {
            Some(garbled) => {
                node.receive(Some(&garbled), now);
                let event = record.then(|| NodeEvent::Heard {
                    from: sender,
                    message: garbled,
                });
                (true, true, event)
            }
            None => {
                node.receive(None, now);
                (
                    false,
                    true,
                    record.then(|| NodeEvent::Faulted(FaultKind::Corrupted)),
                )
            }
        },
        None => {
            node.receive(Some(msg), now);
            let event = record.then(|| NodeEvent::Heard {
                from: sender,
                message: msg.clone(),
            });
            (true, false, event)
        }
    }
}

/// Sums the per-round protocol message sizes for the metrics block: total
/// bits on the channel and the largest single message. Only called when a
/// sink is installed — `bit_size` may be nontrivial per message.
fn message_bits<M: RadioMessage>(messages: &[M]) -> (u64, u64) {
    let mut total = 0u64;
    let mut max = 0u64;
    for m in messages {
        let bits = m.bit_size() as u64;
        total += bits;
        max = max.max(bits);
    }
    (total, max)
}

/// When the simulation should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Run exactly this many rounds.
    AfterRounds(u64),
    /// Run until a round in which nobody transmits (the network has gone
    /// quiet), or until the given safety cap, whichever comes first.
    QuietOrCap(u64),
    /// Run until nobody has transmitted for `quiet` consecutive rounds, or
    /// until the `cap`, whichever comes first. Useful for protocols (like
    /// Algorithm B) that legitimately have isolated silent rounds in the
    /// middle of an execution.
    QuietFor {
        /// Number of consecutive silent rounds that ends the run.
        quiet: u64,
        /// Safety cap on the total number of rounds.
        cap: u64,
    },
}

impl StopCondition {
    /// The hard upper bound on executed rounds this condition allows —
    /// the quantity the model checker's round-cap invariant audits
    /// `RunOutcome::rounds_executed` against.
    pub fn cap(&self) -> u64 {
        match *self {
            StopCondition::AfterRounds(cap)
            | StopCondition::QuietOrCap(cap)
            | StopCondition::QuietFor { cap, .. } => cap,
        }
    }
}

/// Why the simulation stopped and how long it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of rounds executed.
    pub rounds_executed: u64,
    /// Whether the run ended because a user predicate returned true.
    pub predicate_satisfied: bool,
    /// Whether the run ended because the network went quiet (only possible
    /// with [`StopCondition::QuietOrCap`] or [`StopCondition::QuietFor`]).
    pub went_quiet: bool,
}

/// The synchronous radio-network simulator.
///
/// The graph is held behind an [`Arc`], so many simulators — for example the
/// repeated runs of one `Session`, or the parallel jobs of a batch — can
/// share a single topology without per-run copies. Plain [`Graph`] values are
/// still accepted everywhere via `impl Into<Arc<Graph>>`.
pub struct Simulator<N: RadioNode> {
    graph: Arc<Graph>,
    nodes: Vec<N>,
    trace: Trace<N::Msg>,
    round: u64,
    record_trace: bool,
    engine: Engine,
    /// Reusable numeric working arrays (see [`crate::scratch`]).
    scratch: RoundScratch,
    /// Reused per-round buffer of the transmitted messages, in transmitter
    /// order; cleared (capacity kept) and refilled by every decide pass.
    /// Listeners never touch it — the round's memory traffic is proportional
    /// to the number of transmitters, not to `n`.
    tx_messages: Vec<N::Msg>,
    /// Compiled fault schedule, `None` for fault-free runs (the common case:
    /// every fault check below starts with this cheap `Option` test, and an
    /// empty [`FaultPlan`] never compiles to `Some`).
    faults: Option<CompiledFaults>,
    /// Wake-queue state of [`Engine::EventDriven`], created on its first
    /// round; `None` under the reference engine.
    event: Option<EventState>,
    /// Installed metrics sink, `None` in the common uninstrumented case:
    /// every per-round reporting block sits behind this one `Option` test,
    /// so with no sink the engines take exactly their pre-telemetry paths —
    /// no allocations, no message-size summation, no virtual calls.
    metrics: Option<Box<dyn MetricsSink + Send>>,
}

impl<N: RadioNode> Simulator<N> {
    /// Creates a simulator for `graph` with one protocol instance per node.
    ///
    /// Accepts an owned [`Graph`] or a shared `Arc<Graph>`; passing an `Arc`
    /// lets repeated runs on the same topology avoid cloning it.
    ///
    /// # Panics
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn new(graph: impl Into<Arc<Graph>>, nodes: Vec<N>) -> Self {
        let graph = graph.into();
        assert_eq!(
            nodes.len(),
            graph.node_count(),
            "need exactly one protocol instance per graph node"
        );
        Simulator {
            graph,
            nodes,
            trace: Trace::new(),
            round: 0,
            record_trace: true,
            engine: Engine::default(),
            // Deliberately empty: it grows on the first round, and Session
            // runs replace it with a pooled scratch before stepping — an
            // eagerly sized scratch here would be allocated just to be
            // thrown away on every pooled run.
            scratch: RoundScratch::new(),
            tx_messages: Vec::new(),
            faults: None,
            event: None,
            metrics: None,
        }
    }

    /// Installs a [`FaultPlan`] (see [`crate::fault`]): the scheduled events
    /// are applied by the engine — identically in both [`Engine`]s —
    /// while the nodes keep running their unmodified protocol.
    ///
    /// An empty plan installs nothing at all, so a simulator given
    /// [`FaultPlan::none`] is byte-identical in behaviour (traces,
    /// observations, statistics) to one that was never given a plan.
    ///
    /// # Panics
    /// Panics if the plan targets a node outside this graph.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(CompiledFaults::compile(plan, self.graph.node_count()))
        };
        self
    }

    /// Disables trace recording. A recorded trace holds one event per
    /// transmission, reception, collision and fault, so its memory grows
    /// with the channel's activity; turning it off also lets the fast
    /// engine elide provably quiet spans.
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// Selects the delivery engine (default [`Engine::EventDriven`]).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a recycled [`RoundScratch`], replacing the simulator's own.
    ///
    /// The scratch is grown to cover this graph if needed; its generation
    /// counter carries over, which is exactly what keeps stale entries from
    /// previous simulations unreadable. Batch drivers use this together with
    /// [`take_scratch`](Self::take_scratch) to amortize per-round buffers
    /// across many runs.
    pub fn with_scratch(mut self, mut scratch: RoundScratch) -> Self {
        scratch.ensure_nodes(self.graph.node_count());
        self.scratch = scratch;
        self
    }

    /// Removes and returns the scratch for recycling into another simulator,
    /// leaving this one with an empty scratch that would regrow on demand.
    pub fn take_scratch(&mut self) -> RoundScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Installs a [`MetricsSink`]: every engine reports its deterministic
    /// per-round counters ([`RoundMetrics`]) into it, once per executed
    /// round, plus elided-span notifications from
    /// [`run_until`](Self::run_until). Telemetry never changes behaviour —
    /// traces, observations and outcomes are byte-identical with or without
    /// a sink — and with no sink installed the engines skip every reporting
    /// block behind a single `Option` check.
    pub fn with_metrics(mut self, sink: Box<dyn MetricsSink + Send>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Removes and returns the installed metrics sink, if any.
    pub fn take_metrics(&mut self) -> Option<Box<dyn MetricsSink + Send>> {
        self.metrics.take()
    }

    /// Snapshot of the installed sink's aggregate counters, when the sink
    /// keeps them (see [`MetricsSink::counters`]; [`rn_telemetry::CounterSink`]
    /// does, the no-op sink does not).
    pub fn metrics_counters(&self) -> Option<RunCounters> {
        self.metrics.as_ref().and_then(|sink| sink.counters())
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Read access to the node states (omniscient harness view; the nodes
    /// themselves never see each other).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace<N::Msg> {
        &self.trace
    }

    /// Consumes the simulator, returning the trace and the final node states.
    pub fn into_parts(self) -> (Trace<N::Msg>, Vec<N>) {
        (self.trace, self.nodes)
    }

    /// Number of rounds executed so far.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Node `v`'s local round in global round `round` under this
    /// simulator's fault plan (see [`RadioNode`]'s local round): the `now`
    /// the engines pass it, and the clock the wake-hint audit replays on.
    pub(crate) fn local_round(&self, v: NodeId, round: u64) -> u64 {
        local_round(self.faults.as_ref(), v, round)
    }

    /// The nodes whose state the last executed round may have changed:
    /// under [`Engine::EventDriven`], the nodes it drove plus the dormant
    /// nodes that decoded a message. Every other node's state is what it was
    /// before that round, and elided rounds change no node, so a harness
    /// that watches node state needs to look only at these. `None` — any
    /// node may have changed — under the reference engine and before the
    /// first round.
    pub fn active_nodes(&self) -> Option<&[NodeId]> {
        match &self.event {
            Some(st) if self.engine == Engine::EventDriven => Some(&st.due),
            _ => None,
        }
    }

    /// Executes a single round and returns the number of transmitters.
    pub fn step_round(&mut self) -> usize {
        match self.engine {
            Engine::ListenerCentric => self.step_round_reference(),
            Engine::EventDriven => self.step_round_event_driven(),
        }
    }

    /// Executes a single round with the retained listener-centric reference
    /// engine, regardless of the configured [`Engine`].
    ///
    /// This is the original delivery algorithm: it allocates fresh action
    /// and transmit-flag vectors every round and resolves each listener by
    /// scanning its own neighbour list, recording the same sparse rounds as
    /// the fast engine (a silent listener gets no event). It exists as the
    /// executable specification that `tests/engine_equivalence.rs` replays
    /// workloads against; production paths never call it.
    pub fn step_round_reference(&mut self) -> usize {
        self.round += 1;
        let round = self.round;
        let n = self.graph.node_count();
        let faults = self.faults.as_ref();

        // Phase 1: every node decides. Fault semantics mirror the fast
        // engine exactly: an inert (crashed/asleep) node is never stepped,
        // and a jamming node's protocol is suspended while it occupies the
        // channel — both stand in as `Listen` in the action vector, with
        // side masks carrying their true roles.
        let mut inert: Vec<Option<FaultKind>> = vec![None; n];
        let mut jamming: Vec<bool> = vec![false; n];
        let mut actions: Vec<Action<N::Msg>> = Vec::with_capacity(n);
        for (v, node) in self.nodes.iter_mut().enumerate() {
            if let Some(f) = faults {
                if let Some(kind) = f.inert_kind(v, round) {
                    inert[v] = Some(kind);
                    actions.push(Action::Listen);
                    continue;
                }
                if f.is_jamming(v, round) {
                    jamming[v] = true;
                    actions.push(Action::Listen);
                    continue;
                }
            }
            actions.push(node.step(local_round(faults, v, round)));
        }
        let transmitting: Vec<bool> = actions
            .iter()
            .enumerate()
            .map(|(v, a)| a.is_transmit() || jamming[v])
            .collect();
        let transmitter_count = transmitting.iter().filter(|&&t| t).count();

        // Phase 2: delivery. A listener hears a message iff exactly one
        // neighbour transmitted.
        let rx_window = faults.map_or(&[][..], |f| f.rx_window(round));
        let mut events: Vec<(NodeId, NodeEvent<N::Msg>)> = Vec::new();
        let (mut deliveries, mut collisions, mut rx_faults) = (0u64, 0u64, 0u64);
        for v in 0..n {
            if let Some(kind) = inert[v] {
                if self.record_trace {
                    events.push((v, NodeEvent::Faulted(kind)));
                }
                continue;
            }
            if jamming[v] {
                if self.record_trace {
                    events.push((v, NodeEvent::Faulted(FaultKind::Jamming)));
                }
                continue;
            }
            match &actions[v] {
                Action::Transmit(m) => {
                    if self.record_trace {
                        events.push((v, NodeEvent::Transmitted(m.clone())));
                    }
                }
                Action::Listen => {
                    let now = local_round(faults, v, round);
                    let mut tx_neighbors = self
                        .graph
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&w| transmitting[w]);
                    let first: Option<NodeId> = tx_neighbors.next();
                    let second: Option<NodeId> = tx_neighbors.next();
                    match (first, second) {
                        (Some(w), None) if jamming[w] => {
                            // The only transmitting neighbour is a jammer:
                            // busy channel, nothing decodable.
                            self.nodes[v].receive(None, now);
                            collisions += 1;
                            if self.record_trace {
                                events.push((
                                    v,
                                    NodeEvent::Collision {
                                        transmitting_neighbors: 1,
                                    },
                                ));
                            }
                        }
                        (Some(w), None) => {
                            let msg = actions[w].message().expect("w transmits");
                            let (decoded, rx_faulted, event) = deliver_with_rx_faults(
                                &mut self.nodes[v],
                                v,
                                now,
                                w,
                                msg,
                                rx_window,
                                self.record_trace,
                            );
                            deliveries += u64::from(decoded);
                            rx_faults += u64::from(rx_faulted);
                            events.extend(event.map(|e| (v, e)));
                        }
                        (Some(_), Some(_)) => {
                            // Collision: indistinguishable from silence for
                            // the node.
                            self.nodes[v].receive(None, now);
                            collisions += 1;
                            if self.record_trace {
                                let count = self
                                    .graph
                                    .neighbors(v)
                                    .iter()
                                    .filter(|&&w| transmitting[w])
                                    .count();
                                events.push((
                                    v,
                                    NodeEvent::Collision {
                                        transmitting_neighbors: count,
                                    },
                                ));
                            }
                        }
                        (None, _) => self.nodes[v].receive(None, now),
                    }
                }
            }
        }

        if self.record_trace {
            self.trace.rounds.push(RoundRecord {
                round: self.round,
                events,
            });
        }
        if let Some(sink) = self.metrics.as_deref_mut() {
            // This engine keeps messages in the action vector; jammers and
            // inert nodes stand in as Listen, so filtering on the messages
            // yields exactly the protocol transmissions.
            let mut protocol_transmissions = 0u64;
            let mut bits = 0u64;
            let mut max_message_bits = 0u64;
            for m in actions.iter().filter_map(Action::message) {
                protocol_transmissions += 1;
                let b = m.bit_size() as u64;
                bits += b;
                max_message_bits = max_message_bits.max(b);
            }
            sink.on_round(&RoundMetrics {
                round,
                transmitters: transmitter_count as u64,
                protocol_transmissions,
                deliveries,
                collisions,
                rx_faults,
                bits,
                max_message_bits,
                frontier: n as u64,
            });
        }
        transmitter_count
    }

    /// Creates the fast engine's wake-queue state on its first round: every
    /// node is due in the next round (or at its late-wake round, if it
    /// starts asleep), and every jam interval registers a forced wake at its
    /// first in-range round so elision can never skip a channel-occupying
    /// jammer.
    fn init_event_state(&mut self) {
        let n = self.graph.node_count();
        let base = self.round;
        let faults = self.faults.as_ref();
        let mut st = EventState {
            next_wake: vec![0; n],
            enqueued_for: vec![0; n],
            due_stamp: vec![0; n],
            heap: BinaryHeap::with_capacity(n),
            due: Vec::with_capacity(n),
            ..EventState::default()
        };
        for v in 0..n {
            let wake = faults.map_or(1, |f| f.wake_round(v)).max(base + 1);
            st.next_wake[v] = wake;
            st.enqueued_for[v] = wake;
            st.heap.push(Reverse((wake, v)));
        }
        if let Some(f) = faults {
            for &(v, first, last) in f.jam_intervals() {
                let w = first.max(base + 1);
                if w <= last {
                    st.fault_wakes.push(Reverse((w, v)));
                }
            }
        }
        self.event = Some(st);
    }

    /// One round of the fast engine (see the module docs for the three
    /// passes and the frontier): it assembles the due list from the wake
    /// queues, drives only those nodes, and wakes a dormant listener exactly
    /// when it decodes a message. A recording trace appends an event at each
    /// outcome of the same passes, so the per-node events come out
    /// byte-identical to the reference engine's.
    fn step_round_event_driven(&mut self) -> usize {
        if self.event.is_none() {
            self.init_event_state();
        }
        self.round += 1;
        let round = self.round;
        let n = self.graph.node_count();
        let record_trace = self.record_trace;
        let scratch = &mut self.scratch;
        scratch.ensure_nodes(n);
        scratch.generation += 1;
        let generation = scratch.generation;
        let faults = self.faults.as_ref();
        let st = self.event.as_mut().expect("created above");
        let nodes = &mut self.nodes[..n];

        // Due assembly: the next-round swap buffer, then the wake heap,
        // then forced jam wake-ups — deduplicated through `due_stamp` and
        // validated against `next_wake` (a heap entry whose round no longer
        // matches is stale and drops here).
        st.due.clear();
        st.touched.clear();
        if st.due_next_round == round {
            for i in 0..st.due_next.len() {
                let v = st.due_next[i];
                if st.next_wake[v] == round && st.due_stamp[v] != round {
                    st.due_stamp[v] = round;
                    st.due.push(v);
                }
            }
        }
        st.due_next.clear();
        while let Some(&Reverse((w, v))) = st.heap.peek() {
            if w > round {
                break;
            }
            st.heap.pop();
            if st.next_wake[v] == w && st.due_stamp[v] != round {
                st.due_stamp[v] = round;
                st.due.push(v);
            }
        }
        while let Some(&Reverse((w, v))) = st.fault_wakes.peek() {
            if w > round {
                break;
            }
            st.fault_wakes.pop();
            if st.due_stamp[v] != round {
                st.due_stamp[v] = round;
                st.due.push(v);
            }
        }
        // The driven set is `st.due[..driven]`; its size is the frontier
        // the metrics sink reports.
        let driven = st.due.len();

        // Decide: only the driven nodes act. An inert (crashed/asleep) node
        // is never stepped; a jamming node's protocol is suspended and it
        // occupies a transmitter slot with the JAMMER sentinel instead of a
        // message. A crashed node parks forever, an asleep one sleeps until
        // its wake round, a jammer stays due while its interval lasts, and a
        // transmitter reschedules by its post-step hint.
        self.tx_messages.clear();
        scratch.transmitters.clear();
        // The round's trace events, appended at each outcome below and
        // sorted by node once the round is resolved. Never touched (so
        // never allocated) with tracing off.
        let mut events: Vec<(NodeId, NodeEvent<N::Msg>)> = Vec::new();
        for i in 0..driven {
            let v = st.due[i];
            if let Some(f) = faults {
                if let Some(kind) = f.inert_kind(v, round) {
                    let wake = match kind {
                        FaultKind::Crashed => u64::MAX,
                        _ => f.wake_round(v).max(round + 1),
                    };
                    st.schedule(v, round, wake);
                    continue;
                }
                if f.is_jamming(v, round) {
                    scratch.tx_stamp[v] = generation;
                    scratch.tx_index[v] = JAMMER;
                    scratch.transmitters.push(v);
                    if record_trace {
                        events.push((v, NodeEvent::Faulted(FaultKind::Jamming)));
                    }
                    st.schedule(v, round, round + 1);
                    continue;
                }
            }
            let now = local_round(faults, v, round);
            match nodes[v].step(now) {
                Action::Transmit(m) => {
                    scratch.tx_stamp[v] = generation;
                    scratch.tx_index[v] = self.tx_messages.len() as u32;
                    scratch.transmitters.push(v);
                    if record_trace {
                        events.push((v, NodeEvent::Transmitted(m.clone())));
                    }
                    self.tx_messages.push(m);
                    st.reschedule(&nodes[v], v, round, now);
                }
                Action::Listen => {} // rescheduled in observe, after receive
            }
        }

        // Mark: only the transmitters' CSR neighbour slices are walked; each
        // neighbour's (hit_count, last_sender) entry is claimed for this
        // round by stamping it with the current generation. The first hit on
        // a node outside the due list records it as a wake-by-reception
        // candidate.
        for ti in 0..scratch.transmitters.len() {
            let t = scratch.transmitters[ti];
            for &w in self.graph.neighbors(t) {
                if scratch.stamp[w] == generation {
                    scratch.hit_count[w] += 1;
                } else {
                    scratch.stamp[w] = generation;
                    scratch.hit_count[w] = 1;
                    scratch.last_sender[w] = t;
                    if st.due_stamp[w] != round {
                        st.touched.push(w);
                    }
                }
            }
        }

        // Observe: the driven listeners plus the touched set cover every node
        // whose state can change or whose channel was busy this round. Driven
        // listeners observe their outcome and reschedule by their post-receive
        // hint; a touched (dormant) node's `receive(None)` is a no-op under the
        // wake-hint contract, so it is woken only by an actual decoded
        // delivery. Fault handling: an inert node is deaf (no `receive`), a
        // jammer observes nothing, a sole jamming "sender" is an undecodable
        // collision, and receive-side Drop/Corrupt faults rewrite a successful
        // reception. A marked listener that decodes nothing observed a
        // collision of `hit_count` transmitters (jammers included).
        let rx_window = faults.map_or(&[][..], |f| f.rx_window(round));
        let (mut deliveries, mut collisions, mut rx_faults) = (0u64, 0u64, 0u64);
        for i in 0..driven {
            let v = st.due[i];
            if let Some(f) = faults {
                if f.inert_kind(v, round).is_some() {
                    continue;
                }
            }
            if scratch.tx_stamp[v] == generation {
                continue; // transmitters and jammers observe nothing
            }
            let now = local_round(faults, v, round);
            if scratch.stamp[v] == generation
                && scratch.hit_count[v] == 1
                && scratch.tx_index[scratch.last_sender[v]] != JAMMER
            {
                let w = scratch.last_sender[v];
                let msg = &self.tx_messages[scratch.tx_index[w] as usize];
                let (decoded, rx_faulted, event) =
                    deliver_with_rx_faults(&mut nodes[v], v, now, w, msg, rx_window, record_trace);
                deliveries += u64::from(decoded);
                rx_faults += u64::from(rx_faulted);
                events.extend(event.map(|e| (v, e)));
            } else {
                let marked = scratch.stamp[v] == generation;
                collisions += u64::from(marked);
                if record_trace && marked {
                    events.push((
                        v,
                        NodeEvent::Collision {
                            transmitting_neighbors: scratch.hit_count[v] as usize,
                        },
                    ));
                }
                nodes[v].receive(None, now);
            }
            st.reschedule(&nodes[v], v, round, now);
        }
        for i in 0..st.touched.len() {
            let v = st.touched[i];
            if let Some(f) = faults {
                if f.inert_kind(v, round).is_some() {
                    continue;
                }
            }
            let w = scratch.last_sender[v];
            if scratch.hit_count[v] != 1 || scratch.tx_index[w] == JAMMER {
                collisions += 1;
                if record_trace {
                    events.push((
                        v,
                        NodeEvent::Collision {
                            transmitting_neighbors: scratch.hit_count[v] as usize,
                        },
                    ));
                }
                continue;
            }
            // Tripwire (debug builds): touched nodes are dormant by
            // construction, so the elided `step` must be a Listen no-op — a
            // Transmit means `wake_hint` overpromised and elision suppressed
            // a real transmission.
            let now = local_round(faults, v, round);
            debug_assert!(
                !nodes[v].step(now).is_transmit(),
                "wake-hint overpromise: node {v} would transmit in round {round} \
                 inside its elided span"
            );
            let msg = &self.tx_messages[scratch.tx_index[w] as usize];
            let (decoded, rx_faulted, event) =
                deliver_with_rx_faults(&mut nodes[v], v, now, w, msg, rx_window, record_trace);
            deliveries += u64::from(decoded);
            rx_faults += u64::from(rx_faulted);
            events.extend(event.map(|e| (v, e)));
            if decoded {
                st.reschedule(&nodes[v], v, round, now);
                // Past the driven prefix, the due list also names the
                // dormant nodes this round changed (`active_nodes`).
                st.due.push(v);
            }
        }
        if record_trace {
            // Inert nodes are never stepped or observed, so their markers
            // come from the plan's short list of nodes it ever makes inert.
            if let Some(f) = faults {
                for &v in f.inert_nodes() {
                    if let Some(kind) = f.inert_kind(v, round) {
                        events.push((v, NodeEvent::Faulted(kind)));
                    }
                }
            }
            events.sort_unstable_by_key(|&(v, _)| v);
            self.trace.rounds.push(RoundRecord { round, events });
        }
        let transmitter_count = self.scratch.transmitters.len();
        if let Some(sink) = self.metrics.as_deref_mut() {
            let (bits, max_message_bits) = message_bits(&self.tx_messages);
            sink.on_round(&RoundMetrics {
                round,
                transmitters: transmitter_count as u64,
                protocol_transmissions: self.tx_messages.len() as u64,
                deliveries,
                collisions,
                rx_faults,
                bits,
                max_message_bits,
                frontier: driven as u64,
            });
        }
        transmitter_count
    }

    /// With tracing off under [`Engine::EventDriven`], the number of
    /// upcoming rounds that are provably silent: no protocol wake, pending
    /// next-round entry, or forced jam wake falls inside them, so no node
    /// can transmit and no node state can change (dormant nodes are frozen
    /// by the wake-hint contract). Returns 0 under the reference engine and
    /// whenever a trace is recording, which needs every round materialised.
    fn provably_quiet_rounds(&mut self) -> u64 {
        if self.engine != Engine::EventDriven || self.record_trace {
            return 0;
        }
        let round = self.round;
        let Some(st) = self.event.as_mut() else {
            return 0;
        };
        if st.due_next_round == round + 1 && !st.due_next.is_empty() {
            return 0;
        }
        let mut next = u64::MAX;
        while let Some(&Reverse((w, v))) = st.heap.peek() {
            if st.next_wake[v] == w {
                next = w;
                break;
            }
            // Stale entry: drop it, and clear the dedup stamp it may still
            // hold so a future schedule targeting the same round is not
            // suppressed (the physical entry is gone).
            if st.enqueued_for[v] == w {
                st.enqueued_for[v] = 0;
            }
            st.heap.pop();
        }
        if let Some(&Reverse((w, _))) = st.fault_wakes.peek() {
            next = next.min(w);
        }
        next.saturating_sub(round + 1)
    }

    /// Runs until the stop condition is met or `predicate` (evaluated after
    /// each round, with harness-level omniscience) returns true.
    ///
    /// Under [`Engine::EventDriven`] with tracing off, provably quiet spans
    /// (every node parked by its wake hint) are elided: the round counter and
    /// the quiet-streak arithmetic advance exactly as if the silent rounds had
    /// run, but the predicate is not re-evaluated inside a span — it already
    /// returned false after the last executed round and no node state changes
    /// during the span, so any predicate that is a function of node states (as
    /// harness predicates are) cannot flip. A predicate that reads the round
    /// counter itself would observe the jump; pair such predicates with the
    /// reference engine or a recorded trace.
    pub fn run_until<P>(&mut self, stop: StopCondition, mut predicate: P) -> RunOutcome
    where
        P: FnMut(&Self) -> bool,
    {
        let (cap, quiet_needed) = match stop {
            StopCondition::AfterRounds(k) => (k, None),
            StopCondition::QuietOrCap(k) => (k, Some(1)),
            StopCondition::QuietFor { quiet, cap } => (cap, Some(quiet)),
        };
        let start = self.round;
        let mut quiet_streak = 0u64;
        while self.round - start < cap {
            let transmitters = self.step_round();
            if predicate(self) {
                return RunOutcome {
                    rounds_executed: self.round - start,
                    predicate_satisfied: true,
                    went_quiet: false,
                };
            }
            if transmitters == 0 {
                quiet_streak += 1;
            } else {
                quiet_streak = 0;
            }
            if let Some(needed) = quiet_needed {
                if quiet_streak >= needed {
                    return RunOutcome {
                        rounds_executed: self.round - start,
                        predicate_satisfied: false,
                        went_quiet: true,
                    };
                }
            }
            // Silent-span elision (fast engine, tracing off): jump
            // the clock over rounds in which provably nothing happens,
            // clamped so the quiet threshold and the cap trigger at exactly
            // the same round they would if every round ran.
            let mut span = self.provably_quiet_rounds();
            if span > 0 {
                span = span.min(cap - (self.round - start));
                if let Some(needed) = quiet_needed {
                    span = span.min(needed - quiet_streak);
                }
                self.round += span;
                quiet_streak += span;
                if span > 0 {
                    if let Some(sink) = self.metrics.as_deref_mut() {
                        sink.on_elided_span(self.round - span + 1, span);
                    }
                }
                if let Some(needed) = quiet_needed {
                    if quiet_streak >= needed {
                        return RunOutcome {
                            rounds_executed: self.round - start,
                            predicate_satisfied: false,
                            went_quiet: true,
                        };
                    }
                }
            }
        }
        RunOutcome {
            rounds_executed: self.round - start,
            predicate_satisfied: false,
            went_quiet: false,
        }
    }

    /// Runs exactly `rounds` rounds (unless a predicate is wanted, use
    /// [`run_until`](Self::run_until)).
    pub fn run_rounds(&mut self, rounds: u64) -> RunOutcome {
        self.run_until(StopCondition::AfterRounds(rounds), |_| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    /// Test protocol: node 0 ("source") transmits `42` in its first round and
    /// then stays silent; everyone else listens forever and remembers what it
    /// heard. It keeps the default wake hint of 0, so it is driven every
    /// round.
    #[derive(Clone, PartialEq)]
    struct OneShot {
        is_source: bool,
        sent: bool,
        heard: Option<u64>,
        listen_outcomes: Vec<Option<u64>>,
    }

    impl OneShot {
        fn new(is_source: bool) -> Self {
            OneShot {
                is_source,
                sent: false,
                heard: None,
                listen_outcomes: Vec::new(),
            }
        }
    }

    impl RadioNode for OneShot {
        type Msg = u64;
        fn step(&mut self, _now: u64) -> Action<u64> {
            if self.is_source && !self.sent {
                self.sent = true;
                Action::Transmit(42)
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, heard: Option<&u64>, _now: u64) {
            let h = heard.copied();
            self.listen_outcomes.push(h);
            if self.heard.is_none() {
                self.heard = h;
            }
        }
    }

    /// Protocol in which the given set of nodes all transmit in round 1.
    struct Simultaneous {
        transmit_first: bool,
        done: bool,
        heard: Option<u64>,
        listened_rounds: usize,
    }

    impl RadioNode for Simultaneous {
        type Msg = u64;
        fn step(&mut self, _now: u64) -> Action<u64> {
            if self.transmit_first && !self.done {
                self.done = true;
                Action::Transmit(7)
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, heard: Option<&u64>, _now: u64) {
            self.listened_rounds += 1;
            if self.heard.is_none() {
                self.heard = heard.copied();
            }
        }
    }

    fn one_shot_sim(g: Graph) -> Simulator<OneShot> {
        let nodes: Vec<OneShot> = (0..g.node_count()).map(|v| OneShot::new(v == 0)).collect();
        Simulator::new(g, nodes)
    }

    #[test]
    #[should_panic(expected = "one protocol instance per graph node")]
    fn mismatched_node_count_panics() {
        let g = generators::path(3);
        let _ = Simulator::new(g, vec![OneShot::new(true)]);
    }

    #[test]
    fn single_transmitter_is_heard_by_all_neighbors() {
        let g = generators::star(5); // 0 is the centre
        let mut sim = one_shot_sim(g);
        sim.step_round();
        for v in 1..5 {
            assert_eq!(sim.nodes()[v].heard, Some(42), "leaf {v}");
        }
        // Source transmitted, so it observed nothing (receive never called).
        assert!(sim.nodes()[0].listen_outcomes.is_empty());
    }

    #[test]
    fn non_neighbors_hear_nothing() {
        let g = generators::path(3); // 0 - 1 - 2
        let mut sim = one_shot_sim(g);
        sim.step_round();
        assert_eq!(sim.nodes()[1].heard, Some(42));
        assert_eq!(sim.nodes()[2].heard, None);
    }

    #[test]
    fn collision_delivers_nothing() {
        // Path 0 - 1 - 2: nodes 0 and 2 transmit simultaneously; node 1 must
        // hear nothing (collision without detection).
        let g = generators::path(3);
        let nodes = vec![
            Simultaneous {
                transmit_first: true,
                done: false,
                heard: None,
                listened_rounds: 0,
            },
            Simultaneous {
                transmit_first: false,
                done: false,
                heard: None,
                listened_rounds: 0,
            },
            Simultaneous {
                transmit_first: true,
                done: false,
                heard: None,
                listened_rounds: 0,
            },
        ];
        let mut sim = Simulator::new(g, nodes);
        sim.step_round();
        assert_eq!(sim.nodes()[1].heard, None);
        assert_eq!(sim.nodes()[1].listened_rounds, 1);
        // Trace records a collision with 2 transmitting neighbours.
        assert_eq!(sim.trace().rounds[0].collision_nodes(), vec![1]);
        match sim.trace().rounds[0].event(1) {
            Some(NodeEvent::Collision {
                transmitting_neighbors,
            }) => {
                assert_eq!(*transmitting_neighbors, 2);
            }
            other => panic!("expected collision, got {other:?}"),
        }
    }

    #[test]
    fn collision_indistinguishable_from_silence_at_the_node() {
        // From the node's perspective, a collision round and a silent round
        // deliver exactly the same observation (None).
        let g = generators::path(3);
        let nodes = vec![
            Simultaneous {
                transmit_first: true,
                done: false,
                heard: None,
                listened_rounds: 0,
            },
            Simultaneous {
                transmit_first: false,
                done: false,
                heard: None,
                listened_rounds: 0,
            },
            Simultaneous {
                transmit_first: true,
                done: false,
                heard: None,
                listened_rounds: 0,
            },
        ];
        let mut sim = Simulator::new(g, nodes);
        sim.step_round(); // collision at node 1
        sim.step_round(); // silence everywhere
                          // Both rounds look identical to node 1 (None twice).
        assert_eq!(sim.nodes()[1].listened_rounds, 2);
        assert_eq!(sim.nodes()[1].heard, None);
    }

    #[test]
    fn trace_records_rounds_and_transmitters() {
        let g = generators::path(4);
        let mut sim = one_shot_sim(g);
        sim.run_rounds(3);
        assert_eq!(sim.trace().len(), 3);
        assert_eq!(sim.trace().rounds[0].transmitters(), vec![0]);
        assert!(sim.trace().rounds[1].transmitters().is_empty());
        assert_eq!(sim.trace().transmit_rounds(0), vec![1]);
        assert_eq!(sim.trace().first_receive_round(1), Some(1));
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let g = generators::star(6);
        let mut sim = one_shot_sim(g);
        let outcome = sim.run_until(StopCondition::AfterRounds(100), |s| {
            s.nodes().iter().skip(1).all(|n| n.heard.is_some())
        });
        assert!(outcome.predicate_satisfied);
        assert_eq!(outcome.rounds_executed, 1);
        assert_eq!(sim.current_round(), 1);
    }

    #[test]
    fn quiet_detection_stops_when_no_one_transmits() {
        let g = generators::path(3);
        let mut sim = one_shot_sim(g);
        let outcome = sim.run_until(StopCondition::QuietOrCap(50), |_| false);
        // Round 1: source transmits; round 2: silence -> quiet.
        assert!(outcome.went_quiet);
        assert_eq!(outcome.rounds_executed, 2);
    }

    #[test]
    fn after_rounds_cap_reached() {
        let g = generators::path(3);
        let mut sim = one_shot_sim(g);
        let outcome = sim.run_rounds(5);
        assert_eq!(outcome.rounds_executed, 5);
        assert!(!outcome.predicate_satisfied);
        assert!(!outcome.went_quiet);
    }

    #[test]
    fn without_trace_records_nothing() {
        let g = generators::star(4);
        let nodes: Vec<OneShot> = (0..4).map(|v| OneShot::new(v == 0)).collect();
        let mut sim = Simulator::new(g, nodes).without_trace();
        sim.run_rounds(3);
        assert!(sim.trace().is_empty());
        // Delivery still works without the trace.
        assert_eq!(sim.nodes()[1].heard, Some(42));
    }

    #[test]
    fn into_parts_returns_trace_and_nodes() {
        let g = generators::path(2);
        let mut sim = one_shot_sim(g);
        sim.run_rounds(2);
        let (trace, nodes) = sim.into_parts();
        assert_eq!(trace.len(), 2);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].heard, Some(42));
    }

    #[test]
    fn engines_agree_on_collision_heavy_round() {
        // Star: all 4 leaves transmit at the centre simultaneously.
        let g = generators::star(5);
        let make_nodes = || {
            (0..5)
                .map(|v| Simultaneous {
                    transmit_first: v != 0,
                    done: false,
                    heard: None,
                    listened_rounds: 0,
                })
                .collect::<Vec<_>>()
        };
        let mut fast = Simulator::new(g.clone(), make_nodes());
        let mut reference = Simulator::new(g, make_nodes()).with_engine(Engine::ListenerCentric);
        let tx_fast = fast.step_round();
        let tx_ref = reference.step_round();
        assert_eq!(tx_fast, tx_ref);
        assert_eq!(fast.trace().rounds, reference.trace().rounds);
        match fast.trace().rounds[0].event(0) {
            Some(NodeEvent::Collision {
                transmitting_neighbors,
            }) => assert_eq!(*transmitting_neighbors, 4),
            other => panic!("expected collision at the centre, got {other:?}"),
        }
    }

    #[test]
    fn recycled_scratch_produces_identical_runs() {
        // Run on a larger graph first, then recycle the (bigger, stale)
        // scratch into a smaller simulation: generation stamping must keep
        // the stale entries invisible.
        let big = generators::star(9);
        let mut first = one_shot_sim(big);
        first.run_rounds(4);
        let scratch = first.take_scratch();
        assert!(scratch.capacity() >= 9);

        let small = generators::path(3);
        let nodes: Vec<OneShot> = (0..3).map(|v| OneShot::new(v == 0)).collect();
        let mut recycled = Simulator::new(small.clone(), nodes).with_scratch(scratch);
        recycled.run_rounds(2);

        let mut fresh = one_shot_sim(small);
        fresh.run_rounds(2);
        assert_eq!(recycled.trace().rounds, fresh.trace().rounds);
        assert_eq!(recycled.nodes()[1].heard, fresh.nodes()[1].heard);
    }

    #[test]
    fn take_scratch_leaves_a_usable_simulator() {
        let g = generators::path(4);
        let mut sim = one_shot_sim(g);
        sim.step_round();
        let _scratch = sim.take_scratch();
        // The replacement scratch regrows on demand.
        sim.step_round();
        assert_eq!(sim.current_round(), 2);
        assert_eq!(sim.nodes()[1].heard, Some(42));
    }

    #[test]
    fn none_plan_is_byte_identical_to_no_plan() {
        let g = generators::path(5);
        let mut plain = one_shot_sim(g.clone());
        plain.run_rounds(4);
        let nodes: Vec<OneShot> = (0..5).map(|v| OneShot::new(v == 0)).collect();
        let mut with_none = Simulator::new(g, nodes).with_faults(&FaultPlan::none());
        assert!(with_none.faults.is_none(), "empty plan must compile away");
        with_none.run_rounds(4);
        assert_eq!(plain.trace().rounds, with_none.trace().rounds);
        for (a, b) in plain.nodes().iter().zip(with_none.nodes()) {
            assert_eq!(a.listen_outcomes, b.listen_outcomes);
        }
    }

    #[test]
    fn crashed_source_never_transmits_and_trace_marks_it() {
        let g = generators::star(4);
        let nodes: Vec<OneShot> = (0..4).map(|v| OneShot::new(v == 0)).collect();
        let plan = FaultPlan::none().crash(0, 1);
        let mut sim = Simulator::new(g, nodes).with_faults(&plan);
        sim.run_rounds(3);
        for v in 1..4 {
            assert_eq!(sim.nodes()[v].heard, None, "leaf {v} heard a dead source");
        }
        assert_eq!(sim.trace().fault_rounds(0), vec![1, 2, 3]);
        assert!(matches!(
            sim.trace().rounds[0].event(0),
            Some(NodeEvent::Faulted(FaultKind::Crashed))
        ));
        // The dead node's step() was never called, so its transmit flag is
        // still pending.
        assert!(!sim.nodes()[0].sent);
    }

    #[test]
    fn late_wake_defers_the_first_transmission() {
        let g = generators::path(3);
        let nodes: Vec<OneShot> = (0..3).map(|v| OneShot::new(v == 0)).collect();
        let plan = FaultPlan::none().late_wake(0, 3);
        let mut sim = Simulator::new(g, nodes).with_faults(&plan);
        sim.run_rounds(4);
        assert_eq!(sim.trace().fault_rounds(0), vec![1, 2]);
        assert_eq!(sim.trace().transmit_rounds(0), vec![3]);
        assert_eq!(sim.trace().first_receive_round(1), Some(3));
    }

    #[test]
    fn jamming_neighbour_forces_collisions_and_counts_as_transmitter() {
        // Path 0 - 1 - 2: node 2 jams round 1, so node 1 sees a collision
        // (source + jammer) and node 0's broadcast is lost on it.
        let g = generators::path(3);
        let nodes: Vec<OneShot> = (0..3).map(|v| OneShot::new(v == 0)).collect();
        let plan = FaultPlan::none().jam(2, 1, 1);
        let mut sim = Simulator::new(g, nodes).with_faults(&plan);
        let transmitters = sim.step_round();
        assert_eq!(transmitters, 2, "source + jammer both occupy the channel");
        assert_eq!(sim.nodes()[1].heard, None);
        assert!(matches!(
            sim.trace().rounds[0].event(1),
            Some(NodeEvent::Collision {
                transmitting_neighbors: 2
            })
        ));
        assert!(matches!(
            sim.trace().rounds[0].event(2),
            Some(NodeEvent::Faulted(FaultKind::Jamming))
        ));
    }

    #[test]
    fn lone_jammer_reads_as_undecodable_collision() {
        let g = generators::path(2);
        let nodes: Vec<OneShot> = (0..2).map(|_| OneShot::new(false)).collect();
        let plan = FaultPlan::none().jam(0, 1, 1);
        let mut sim = Simulator::new(g, nodes).with_faults(&plan);
        sim.step_round();
        assert_eq!(sim.nodes()[1].heard, None);
        assert!(matches!(
            sim.trace().rounds[0].event(1),
            Some(NodeEvent::Collision {
                transmitting_neighbors: 1
            })
        ));
    }

    #[test]
    fn drop_and_corrupt_rewrite_successful_receptions() {
        // Star with centre 0 transmitting in round 1: leaf 1 drops it, leaf 2
        // decodes a garbled copy (u64 corruption flips the low bit), leaf 3
        // hears it intact.
        let g = generators::star(4);
        let nodes: Vec<OneShot> = (0..4).map(|v| OneShot::new(v == 0)).collect();
        let plan = FaultPlan::none().drop_message(1, 1).corrupt(2, 1);
        let mut sim = Simulator::new(g, nodes).with_faults(&plan);
        sim.step_round();
        assert_eq!(sim.nodes()[1].heard, None);
        assert_eq!(sim.nodes()[2].heard, Some(43));
        assert_eq!(sim.nodes()[3].heard, Some(42));
        assert!(matches!(
            sim.trace().rounds[0].event(1),
            Some(NodeEvent::Faulted(FaultKind::Dropped))
        ));
        assert!(matches!(
            sim.trace().rounds[0].event(2),
            Some(NodeEvent::Heard {
                from: 0,
                message: 43
            })
        ));
    }

    #[test]
    fn rx_faults_are_noops_without_a_reception() {
        // Node 2 on a path never hears the round-1 broadcast (it is two hops
        // away), so dropping its round-1 reception changes nothing.
        let g = generators::path(3);
        let nodes: Vec<OneShot> = (0..3).map(|v| OneShot::new(v == 0)).collect();
        let plan = FaultPlan::none().drop_message(2, 1);
        let mut sim = Simulator::new(g, nodes).with_faults(&plan);
        sim.step_round();
        assert!(sim.trace().rounds[0].event(2).is_none());
    }

    #[test]
    fn engines_agree_under_every_fault_kind() {
        let g = generators::grid(3, 4);
        let plan = FaultPlan::none()
            .crash(5, 2)
            .jam(7, 1, 3)
            .late_wake(0, 2)
            .drop_message(2, 2)
            .corrupt(6, 3);
        let make = |engine: Engine| {
            let nodes: Vec<OneShot> = (0..12).map(|v| OneShot::new(v == 1)).collect();
            Simulator::new(g.clone(), nodes)
                .with_engine(engine)
                .with_faults(&plan)
        };
        let mut reference = make(Engine::ListenerCentric);
        let mut event = make(Engine::EventDriven);
        for _ in 0..6 {
            assert_eq!(reference.step_round(), event.step_round());
        }
        assert_eq!(reference.trace().rounds, event.trace().rounds);
        for (a, b) in reference.nodes().iter().zip(event.nodes()) {
            assert_eq!(a.listen_outcomes, b.listen_outcomes);
        }
    }

    /// A protocol with a real dormancy hint: the source transmits once, then
    /// everyone is parked until woken by a decodable reception. `step` is
    /// `Listen` and `receive(None)` is a no-op for parked nodes, so the
    /// wake-hint frozen-state contract holds exactly.
    struct Pulse {
        is_source: bool,
        sent: bool,
        heard: Vec<u64>,
    }

    impl Pulse {
        fn new(is_source: bool) -> Self {
            Pulse {
                is_source,
                sent: false,
                heard: Vec::new(),
            }
        }
    }

    impl RadioNode for Pulse {
        type Msg = u64;
        fn step(&mut self, _now: u64) -> Action<u64> {
            if self.is_source && !self.sent {
                self.sent = true;
                Action::Transmit(42)
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, heard: Option<&u64>, _now: u64) {
            if let Some(m) = heard {
                self.heard.push(*m);
            }
        }
        fn wake_hint(&self, _now: u64) -> u64 {
            if self.is_source && !self.sent {
                0
            } else {
                u64::MAX
            }
        }
    }

    fn pulse_sim(g: Graph, engine: Engine) -> Simulator<Pulse> {
        let nodes: Vec<Pulse> = (0..g.node_count()).map(|v| Pulse::new(v == 0)).collect();
        Simulator::new(g, nodes).with_engine(engine).without_trace()
    }

    #[test]
    fn elision_hits_quiet_for_threshold_exactly() {
        // Round 1: source transmits, then everyone parks. QuietFor{5,100}
        // must end at round 6 (five silent rounds after the transmission) on
        // every engine, elided or not.
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            let mut sim = pulse_sim(generators::path(6), engine);
            let outcome = sim.run_until(StopCondition::QuietFor { quiet: 5, cap: 100 }, |_| false);
            assert!(outcome.went_quiet, "{engine:?}");
            assert_eq!(outcome.rounds_executed, 6, "{engine:?}");
            assert_eq!(sim.current_round(), 6, "{engine:?}");
        }
    }

    #[test]
    fn elision_respects_the_cap_exactly() {
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            let mut sim = pulse_sim(generators::path(6), engine);
            let outcome = sim.run_until(StopCondition::QuietFor { quiet: 10, cap: 4 }, |_| false);
            assert!(!outcome.went_quiet, "{engine:?}");
            assert_eq!(outcome.rounds_executed, 4, "{engine:?}");
            assert_eq!(sim.current_round(), 4, "{engine:?}");
        }
    }

    #[test]
    fn elision_counts_after_rounds_exactly() {
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            let mut sim = pulse_sim(generators::path(6), engine);
            let outcome = sim.run_rounds(50);
            assert_eq!(outcome.rounds_executed, 50, "{engine:?}");
            assert_eq!(sim.current_round(), 50, "{engine:?}");
            assert_eq!(sim.nodes()[1].heard, vec![42], "{engine:?}");
        }
    }

    #[test]
    fn elision_disabled_with_tracing_on() {
        let nodes: Vec<Pulse> = (0..4).map(|v| Pulse::new(v == 0)).collect();
        let mut event = Simulator::new(generators::path(4), nodes).with_engine(Engine::EventDriven);
        let nodes: Vec<Pulse> = (0..4).map(|v| Pulse::new(v == 0)).collect();
        let mut reference =
            Simulator::new(generators::path(4), nodes).with_engine(Engine::ListenerCentric);
        let a = event.run_until(StopCondition::QuietFor { quiet: 3, cap: 40 }, |_| false);
        let b = reference.run_until(StopCondition::QuietFor { quiet: 3, cap: 40 }, |_| false);
        assert_eq!(a, b);
        assert_eq!(event.trace().rounds, reference.trace().rounds);
        assert_eq!(event.trace().len() as u64, a.rounds_executed);
    }

    #[test]
    fn parked_node_wakes_on_reception_and_reparks() {
        // Pulse on a path relays nothing, so only node 1 hears the source;
        // the interesting part is that node 1 was parked (hint MAX after
        // round 1's step) yet still receives in round 1, and that a second
        // run segment keeps the accumulated wake state consistent.
        let mut sim = pulse_sim(generators::path(5), Engine::EventDriven);
        sim.run_rounds(3);
        assert_eq!(sim.nodes()[1].heard, vec![42]);
        assert!(sim.nodes()[2].heard.is_empty());
        sim.run_rounds(100);
        assert_eq!(sim.current_round(), 103);
        assert_eq!(sim.nodes()[1].heard, vec![42]);
    }

    #[test]
    fn event_engine_elides_past_late_jam_and_wake_faults() {
        // Everyone parks immediately (no source), but a jam interval at
        // rounds 10..=11 must still occupy the channel and reset the quiet
        // streak — elision may not jump over it.
        let plan = FaultPlan::none().jam(1, 10, 2);
        let make = |engine: Engine| {
            let nodes: Vec<Pulse> = (0..3).map(|_| Pulse::new(false)).collect();
            Simulator::new(generators::path(3), nodes)
                .with_engine(engine)
                .with_faults(&plan)
                .without_trace()
        };
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            let mut sim = make(engine);
            let outcome = sim.run_until(
                StopCondition::QuietFor {
                    quiet: 30,
                    cap: 1000,
                },
                |_| false,
            );
            assert!(outcome.went_quiet, "{engine:?}");
            // Rounds 10 and 11 jam; 30 quiet rounds after that ends at 41.
            assert_eq!(outcome.rounds_executed, 41, "{engine:?}");
        }
    }

    /// A frontier protocol on the local clock alone: a node transmits in
    /// every local round that is a multiple of its period and parks in
    /// between, with no counter to tick.
    #[derive(Clone, Debug)]
    struct Metronome {
        period: u64,
    }

    impl RadioNode for Metronome {
        type Msg = u64;
        fn step(&mut self, now: u64) -> Action<u64> {
            if now.is_multiple_of(self.period) {
                Action::Transmit(now)
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _heard: Option<&u64>, _now: u64) {}
        fn wake_hint(&self, now: u64) -> u64 {
            self.period - 1 - now % self.period
        }
    }

    #[test]
    fn parked_nodes_wake_on_their_local_clock_under_faults() {
        let plan = FaultPlan::none()
            .late_wake(1, 4)
            .jam(2, 3, 4)
            .jam(3, 7, 2)
            .crash(4, 15);
        let make = |engine| {
            let nodes = [2, 4, 3, 5, 3]
                .into_iter()
                .map(|period| Metronome { period })
                .collect();
            Simulator::new(generators::path(5), nodes)
                .with_engine(engine)
                .with_faults(&plan)
        };
        let mut reference = make(Engine::ListenerCentric);
        let mut event = make(Engine::EventDriven);
        reference.run_rounds(30);
        event.run_rounds(30);
        assert_eq!(reference.trace().rounds, event.trace().rounds);
        // Node 1 wakes in round 4, so its local round 4 is global round 7.
        assert_eq!(event.trace().transmit_rounds(1)[..2], [7, 11]);
        // Node 2 jams in rounds 3-6: local round 3 is global round 7.
        assert_eq!(event.trace().transmit_rounds(2)[..3], [7, 10, 13]);
        // Each transmission carries the sender's local round.
        assert_eq!(event.trace().heard_in_round(0, 7), Some(&4));
    }

    /// A frontier protocol in which every node relays the first message it
    /// hears, once, the round after; the source starts with one to relay.
    #[derive(Clone, Debug, PartialEq)]
    struct Relay {
        pending: Option<u64>,
        relayed: bool,
        heard: Vec<u64>,
    }

    impl RadioNode for Relay {
        type Msg = u64;
        fn step(&mut self, _now: u64) -> Action<u64> {
            match self.pending.take() {
                Some(m) => {
                    self.relayed = true;
                    Action::Transmit(m)
                }
                None => Action::Listen,
            }
        }
        fn receive(&mut self, heard: Option<&u64>, _now: u64) {
            if let Some(&m) = heard {
                self.heard.push(m);
                if !self.relayed && self.pending.is_none() {
                    self.pending = Some(m);
                }
            }
        }
        fn wake_hint(&self, _now: u64) -> u64 {
            if self.pending.is_some() {
                0
            } else {
                u64::MAX
            }
        }
    }

    /// Steps `sim` for `rounds` rounds and checks after each that every
    /// node whose state changed is among the active nodes. Returns the
    /// smallest active set seen.
    fn assert_active_nodes_cover_changes<N: RadioNode + Clone + PartialEq>(
        sim: &mut Simulator<N>,
        rounds: u64,
    ) -> usize {
        let mut smallest = usize::MAX;
        for round in 1..=rounds {
            let before = sim.nodes().to_vec();
            sim.step_round();
            let active = sim.active_nodes().expect("the fast engine");
            for (v, (now, was)) in sim.nodes().iter().zip(&before).enumerate() {
                if now != was {
                    assert!(active.contains(&v), "round {round}: node {v} changed");
                }
            }
            smallest = smallest.min(active.len());
        }
        smallest
    }

    #[test]
    fn active_nodes_cover_every_node_a_round_changes() {
        let n = 8;
        let nodes: Vec<Relay> = (0..n)
            .map(|v| Relay {
                pending: (v == 0).then_some(5),
                relayed: false,
                heard: Vec::new(),
            })
            .collect();
        let mut sim = Simulator::new(generators::path(n), nodes).without_trace();
        assert_eq!(sim.active_nodes(), None, "no round executed yet");
        let smallest = assert_active_nodes_cover_changes(&mut sim, n as u64 + 2);
        // Round 1 drives everyone; later rounds only the relay wave.
        assert!(smallest <= 3, "the active set never shrank: {smallest}");

        // A hint-0 protocol is driven every round, and every listener's
        // state changes every round.
        let mut every_round = one_shot_sim(generators::path(3));
        let smallest = assert_active_nodes_cover_changes(&mut every_round, 4);
        assert_eq!(smallest, 3, "a hint-0 protocol is driven every round");

        // The reference engine: any node may change.
        let mut reference = pulse_sim(generators::path(3), Engine::ListenerCentric);
        reference.step_round();
        assert_eq!(reference.active_nodes(), None);
    }

    #[test]
    #[should_panic(expected = "targets node 9")]
    fn with_faults_rejects_out_of_range_nodes() {
        let g = generators::path(3);
        let nodes: Vec<OneShot> = (0..3).map(|v| OneShot::new(v == 0)).collect();
        let _ = Simulator::new(g, nodes).with_faults(&FaultPlan::none().crash(9, 1));
    }

    #[test]
    fn multiple_sequential_runs_accumulate_rounds() {
        let g = generators::path(3);
        let mut sim = one_shot_sim(g);
        sim.run_rounds(2);
        sim.run_rounds(3);
        assert_eq!(sim.current_round(), 5);
        assert_eq!(sim.trace().len(), 5);
        assert_eq!(sim.trace().rounds.last().unwrap().round, 5);
    }
}
