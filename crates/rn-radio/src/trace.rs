//! Execution traces: a per-round record of who transmitted, who heard what,
//! and where collisions happened.
//!
//! Traces are what the experiment harness uses to reproduce Figure 1 of the
//! paper (the per-node transmit/receive round numbers) and to verify the
//! characterisation of Lemma 2.8 (exactly the DOM_i nodes transmit in round
//! 2i−1, exactly the NEW_i nodes are newly informed).

use crate::fault::FaultKind;
use crate::message::RadioMessage;
use rn_graph::NodeId;

/// What happened at one node in one round, as seen by an omniscient observer
/// (the nodes themselves never see this). A node that listened and heard
/// nothing because no neighbour transmitted has no event at all: see
/// [`RoundRecord::event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent<M> {
    /// The node transmitted the given message.
    Transmitted(M),
    /// The node listened and heard a message from the given neighbour.
    Heard {
        /// The transmitting neighbour.
        from: NodeId,
        /// The message received.
        message: M,
    },
    /// The node listened and heard nothing because two or more neighbours
    /// transmitted simultaneously.
    Collision {
        /// Number of neighbours that transmitted.
        transmitting_neighbors: usize,
    },
    /// The node's round was consumed by an injected fault (see
    /// [`crate::fault`]): it was dead, asleep, jamming, or its reception was
    /// dropped or garbled beyond decoding. Fault-free executions never
    /// record this event.
    Faulted(FaultKind),
}

/// What happened in one round: an entry for every node that transmitted,
/// heard, collided or was faulted. Silence is recorded by omission, so a
/// round costs memory in proportion to its channel activity, not to `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord<M> {
    /// 1-based round number (the paper numbers rounds from 1).
    pub round: u64,
    /// The active nodes and their events, sorted by node id (each node at
    /// most once).
    pub events: Vec<(NodeId, NodeEvent<M>)>,
}

impl<M: RadioMessage> RoundRecord<M> {
    /// What node `v` did in this round; `None` means it listened into
    /// silence.
    pub fn event(&self, v: NodeId) -> Option<&NodeEvent<M>> {
        self.events
            .binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|i| &self.events[i].1)
    }

    /// The nodes whose event satisfies `pred`, in increasing order.
    fn nodes_where(&self, pred: impl Fn(&NodeEvent<M>) -> bool) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|(_, e)| pred(e))
            .map(|&(v, _)| v)
            .collect()
    }

    /// Nodes that transmitted in this round, in increasing order.
    pub fn transmitters(&self) -> Vec<NodeId> {
        self.nodes_where(|e| matches!(e, NodeEvent::Transmitted(_)))
    }

    /// Nodes that successfully received a message in this round.
    pub fn receivers(&self) -> Vec<NodeId> {
        self.nodes_where(|e| matches!(e, NodeEvent::Heard { .. }))
    }

    /// Nodes at which a collision occurred in this round.
    pub fn collision_nodes(&self) -> Vec<NodeId> {
        self.nodes_where(|e| matches!(e, NodeEvent::Collision { .. }))
    }

    /// Total number of bits transmitted in this round.
    pub fn bits_transmitted(&self) -> usize {
        self.events
            .iter()
            .map(|(_, e)| match e {
                NodeEvent::Transmitted(m) => m.bit_size(),
                _ => 0,
            })
            .sum()
    }
}

/// A full execution trace: one [`RoundRecord`] per executed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<M> {
    /// The per-round records in execution order (index 0 is round 1).
    pub rounds: Vec<RoundRecord<M>>,
}

impl<M: RadioMessage> Trace<M> {
    /// An empty trace.
    pub fn new() -> Self {
        Trace { rounds: Vec::new() }
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The rounds in which node `v`'s event satisfies `pred`.
    fn rounds_where(&self, v: NodeId, pred: impl Fn(&NodeEvent<M>) -> bool) -> Vec<u64> {
        self.rounds
            .iter()
            .filter(|r| r.event(v).is_some_and(&pred))
            .map(|r| r.round)
            .collect()
    }

    /// All rounds in which node `v` transmitted (1-based round numbers).
    pub fn transmit_rounds(&self, v: NodeId) -> Vec<u64> {
        self.rounds_where(v, |e| matches!(e, NodeEvent::Transmitted(_)))
    }

    /// All rounds in which node `v` successfully received a message.
    pub fn receive_rounds(&self, v: NodeId) -> Vec<u64> {
        self.rounds_where(v, |e| matches!(e, NodeEvent::Heard { .. }))
    }

    /// The first round in which node `v` successfully received a message.
    pub fn first_receive_round(&self, v: NodeId) -> Option<u64> {
        self.receive_rounds(v).into_iter().next()
    }

    /// All rounds in which a collision occurred at node `v`.
    pub fn collision_rounds(&self, v: NodeId) -> Vec<u64> {
        self.rounds_where(v, |e| matches!(e, NodeEvent::Collision { .. }))
    }

    /// All rounds in which an injected fault consumed node `v`'s round
    /// (see [`NodeEvent::Faulted`]); empty for fault-free executions.
    pub fn fault_rounds(&self, v: NodeId) -> Vec<u64> {
        self.rounds_where(v, |e| matches!(e, NodeEvent::Faulted(_)))
    }

    /// Round in which each of the `node_count` nodes first heard a message
    /// matching `pred`, or `None` for nodes that never did.
    ///
    /// The per-message trace query for multi-message workloads: with `pred`
    /// selecting the messages that carry payload `j`, entry `v` is the
    /// round node `v` first received message `j` *over the air*. A node
    /// holding `j` from the start — its source — never hears it "first"
    /// and reads as `None` here, so analyses overlay origin knowledge
    /// (live completion accounting comes from node state instead, which
    /// also works with tracing off; the multi-broadcast tests use this
    /// query to cross-check that accounting against the recorded trace).
    ///
    /// Calling this once per message scans the whole trace `k` times; when
    /// all `k` per-message answers are needed, use the single-pass
    /// [`first_receive_rounds_bucketed`](Self::first_receive_rounds_bucketed)
    /// instead (this method delegates to it with one bucket).
    pub fn first_receive_rounds_matching<F>(&self, node_count: usize, pred: F) -> Vec<Option<u64>>
    where
        F: Fn(&M) -> bool,
    {
        self.first_receive_rounds_bucketed(node_count, 1, |m, emit| {
            if pred(m) {
                emit(0);
            }
        })
        .pop()
        .expect("one bucket was requested")
    }

    /// For each of `keys` message keys, the round in which each of the
    /// `node_count` nodes first heard a message carrying that key — all in
    /// **one scan** of the trace. Entry `[j][v]` is the first round node
    /// `v` heard key `j` over the air, or `None` if it never did.
    ///
    /// `keys_of` enumerates the keys a message carries by calling `emit`
    /// once per key (a multi-broadcast relay carries one source index, a
    /// gossip token or bundle carries every index it has accumulated);
    /// emitted keys `>= keys` are ignored. This replaces `k` separate
    /// [`first_receive_rounds_matching`](Self::first_receive_rounds_matching)
    /// scans — `k` walks of every recorded event — with one, which is what
    /// keeps per-message completion accounting affordable once gossip makes
    /// `k = n`.
    pub fn first_receive_rounds_bucketed<F>(
        &self,
        node_count: usize,
        keys: usize,
        mut keys_of: F,
    ) -> Vec<Vec<Option<u64>>>
    where
        F: FnMut(&M, &mut dyn FnMut(usize)),
    {
        let mut first = vec![vec![None; node_count]; keys];
        for r in &self.rounds {
            for &(v, ref event) in &r.events {
                if let NodeEvent::Heard { message, .. } = event {
                    if v >= node_count {
                        continue;
                    }
                    keys_of(message, &mut |j| {
                        if let Some(slot) = first.get_mut(j) {
                            if slot[v].is_none() {
                                slot[v] = Some(r.round);
                            }
                        }
                    });
                }
            }
        }
        first
    }

    /// The message node `v` heard in a specific round, if any.
    pub fn heard_in_round(&self, v: NodeId, round: u64) -> Option<&M> {
        self.rounds
            .iter()
            .find(|r| r.round == round)
            .and_then(|r| match r.event(v) {
                Some(NodeEvent::Heard { message, .. }) => Some(message),
                _ => None,
            })
    }
}

impl<M: RadioMessage> Default for Trace<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// What happened at one node in one round, with the message contents
/// erased — the [`NodeEvent`] skeleton shared by every protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeEvent {
    /// The node transmitted (some message).
    Transmitted,
    /// The node heard (some message) from the given neighbour.
    Heard {
        /// The transmitting neighbour.
        from: NodeId,
    },
    /// The node listened into a collision.
    Collision {
        /// Number of neighbours that transmitted.
        transmitting_neighbors: usize,
    },
    /// The node listened into silence.
    Silence,
    /// An injected fault consumed the node's round.
    Faulted(FaultKind),
}

/// One round of a [`TraceShape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeRound {
    /// 1-based round number.
    pub round: u64,
    /// Per-node events, indexed by node id: dense, with every silent node
    /// filled in as [`ShapeEvent::Silence`].
    pub events: Vec<ShapeEvent>,
}

/// A message-agnostic execution trace: the per-round transmit / heard /
/// collision / silence skeleton with payloads erased. Unlike a sparse
/// [`RoundRecord`], every round lists all `n` nodes, so a physics check can
/// index any node directly.
///
/// The bounded model checker (`rn-modelcheck`) verifies per-round physics
/// invariants — a `Heard` requires exactly one transmitting neighbour, a
/// `Collision { k }` exactly `k` — generically over every scheme, which a
/// message-typed [`Trace<M>`] cannot express in one type. Obtained from
/// [`Trace::shape`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceShape {
    /// The per-round records in execution order.
    pub rounds: Vec<ShapeRound>,
}

impl TraceShape {
    /// The nodes that transmitted in the round **recorded at index** `i`
    /// (including jamming nodes, which occupy the channel like a
    /// transmitter), in increasing order.
    pub fn transmitters_at(&self, i: usize) -> Vec<NodeId> {
        self.rounds[i]
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                matches!(
                    e,
                    ShapeEvent::Transmitted | ShapeEvent::Faulted(FaultKind::Jamming)
                )
            })
            .map(|(v, _)| v)
            .collect()
    }
}

impl<M: RadioMessage> Trace<M> {
    /// The message-agnostic skeleton of this trace (see [`TraceShape`]) on
    /// a graph of `node_count` nodes, with silence filled back in.
    pub fn shape(&self, node_count: usize) -> TraceShape {
        let shape_round = |r: &RoundRecord<M>| {
            let mut events = vec![ShapeEvent::Silence; node_count];
            for &(v, ref e) in &r.events {
                events[v] = match *e {
                    NodeEvent::Transmitted(_) => ShapeEvent::Transmitted,
                    NodeEvent::Heard { from, .. } => ShapeEvent::Heard { from },
                    NodeEvent::Collision {
                        transmitting_neighbors,
                    } => ShapeEvent::Collision {
                        transmitting_neighbors,
                    },
                    NodeEvent::Faulted(kind) => ShapeEvent::Faulted(kind),
                };
            }
            ShapeRound {
                round: r.round,
                events,
            }
        };
        TraceShape {
            rounds: self.rounds.iter().map(shape_round).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace<u64> {
        Trace {
            rounds: vec![
                RoundRecord {
                    round: 1,
                    events: vec![
                        (0, NodeEvent::Transmitted(9)),
                        (
                            1,
                            NodeEvent::Heard {
                                from: 0,
                                message: 9,
                            },
                        ),
                    ],
                },
                RoundRecord {
                    round: 2,
                    events: vec![
                        (1, NodeEvent::Transmitted(9)),
                        (
                            2,
                            NodeEvent::Collision {
                                transmitting_neighbors: 2,
                            },
                        ),
                    ],
                },
            ],
        }
    }

    #[test]
    fn round_record_accessors() {
        let t = sample_trace();
        assert_eq!(t.rounds[0].transmitters(), vec![0]);
        assert_eq!(t.rounds[0].receivers(), vec![1]);
        assert!(t.rounds[0].collision_nodes().is_empty());
        assert_eq!(t.rounds[1].collision_nodes(), vec![2]);
        assert_eq!(t.rounds[0].bits_transmitted(), 4); // 9 needs 4 bits
        assert_eq!(t.rounds[0].event(0), Some(&NodeEvent::Transmitted(9)));
        assert_eq!(t.rounds[0].event(2), None); // silence is omitted
        assert_eq!(t.rounds[1].event(0), None);
    }

    #[test]
    fn shape_fills_silence_back_in() {
        let shape = sample_trace().shape(3);
        assert_eq!(
            shape.rounds[0].events,
            vec![
                ShapeEvent::Transmitted,
                ShapeEvent::Heard { from: 0 },
                ShapeEvent::Silence
            ]
        );
        assert_eq!(
            shape.rounds[1].events,
            vec![
                ShapeEvent::Silence,
                ShapeEvent::Transmitted,
                ShapeEvent::Collision {
                    transmitting_neighbors: 2
                }
            ]
        );
        assert_eq!(shape.transmitters_at(1), vec![1]);
    }

    #[test]
    fn trace_per_node_queries() {
        let t = sample_trace();
        assert_eq!(t.transmit_rounds(0), vec![1]);
        assert_eq!(t.transmit_rounds(1), vec![2]);
        assert_eq!(t.receive_rounds(1), vec![1]);
        assert_eq!(t.first_receive_round(1), Some(1));
        assert_eq!(t.first_receive_round(2), None);
        assert_eq!(t.collision_rounds(2), vec![2]);
        assert_eq!(t.heard_in_round(1, 1), Some(&9));
        assert_eq!(t.heard_in_round(1, 2), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn first_receive_rounds_matching_filters_by_message() {
        let t = sample_trace();
        // Node 1 hears 9 in round 1; nobody else hears anything.
        assert_eq!(
            t.first_receive_rounds_matching(3, |&m| m == 9),
            vec![None, Some(1), None]
        );
        assert_eq!(
            t.first_receive_rounds_matching(3, |&m| m == 4),
            vec![None, None, None]
        );
    }

    #[test]
    fn bucketed_query_matches_per_key_scans() {
        let t = sample_trace();
        let bucketed = t.first_receive_rounds_bucketed(3, 2, |&m, emit| {
            if m == 9 {
                emit(0);
            }
            if m >= 4 {
                emit(1);
            }
        });
        assert_eq!(bucketed[0], t.first_receive_rounds_matching(3, |&m| m == 9));
        assert_eq!(bucketed[1], t.first_receive_rounds_matching(3, |&m| m >= 4));
        // A message may carry several keys; out-of-range keys are ignored.
        let none = t.first_receive_rounds_bucketed(3, 1, |_, emit| emit(5));
        assert_eq!(none, vec![vec![None, None, None]]);
    }

    #[test]
    fn empty_trace_defaults() {
        let t: Trace<u64> = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.first_receive_round(0), None);
    }
}
