//! Aggregate statistics computed from an execution [`Trace`].
//!
//! The experiments report these alongside the round counts: number of
//! transmissions, collisions, and total/maximum message size in bits. They
//! quantify the paper's remarks about message sizes (algorithm B needs only
//! the source message and a constant-size "stay" word; B_ack appends an
//! O(log n)-bit round number).

use crate::message::RadioMessage;
use crate::trace::{NodeEvent, Trace};

/// Aggregate statistics of one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionStats {
    /// Number of rounds in the trace.
    pub rounds: u64,
    /// Total number of transmissions over all rounds.
    pub transmissions: usize,
    /// Total number of successful receptions.
    pub receptions: usize,
    /// Total number of (node, round) pairs at which a collision occurred.
    pub collisions: usize,
    /// Number of rounds in which nobody transmitted.
    pub silent_rounds: u64,
    /// Maximum number of simultaneous transmitters in any round.
    pub max_transmitters_per_round: usize,
    /// Total number of bits transmitted.
    pub total_bits: usize,
    /// Largest single message, in bits.
    pub max_message_bits: usize,
}

impl ExecutionStats {
    /// Computes statistics from a trace.
    pub fn from_trace<M: RadioMessage>(trace: &Trace<M>) -> Self {
        let mut stats = ExecutionStats {
            rounds: trace.len() as u64,
            ..Default::default()
        };
        for round in &trace.rounds {
            let mut tx_this_round = 0usize;
            for (_, event) in &round.events {
                match event {
                    NodeEvent::Transmitted(m) => {
                        tx_this_round += 1;
                        stats.transmissions += 1;
                        let bits = m.bit_size();
                        stats.total_bits += bits;
                        stats.max_message_bits = stats.max_message_bits.max(bits);
                    }
                    NodeEvent::Heard { .. } => stats.receptions += 1,
                    NodeEvent::Collision { .. } => stats.collisions += 1,
                    // Fault markers are harness bookkeeping, not protocol
                    // traffic: a jammer transmits no protocol bits and a
                    // dropped reception is not a reception. Robustness
                    // accounting lives in the run reports, not here.
                    NodeEvent::Faulted(_) => {}
                }
            }
            if tx_this_round == 0 {
                stats.silent_rounds += 1;
            }
            stats.max_transmitters_per_round = stats.max_transmitters_per_round.max(tx_this_round);
        }
        stats
    }

    /// Computes statistics from the deterministic run counters aggregated by
    /// a [`rn_telemetry::CounterSink`] installed on the simulator.
    ///
    /// This is the counter-backed twin of [`ExecutionStats::from_trace`]: when
    /// a sink ran, the per-round counters carry exactly the quantities the
    /// trace walk would derive (protocol transmissions only — jammers and
    /// fault markers excluded), so the two constructors agree field for field
    /// even on runs executed with tracing disabled.
    pub fn from_counters(counters: &rn_telemetry::RunCounters) -> Self {
        ExecutionStats {
            rounds: counters.rounds,
            transmissions: counters.transmissions as usize,
            receptions: counters.deliveries as usize,
            collisions: counters.collisions as usize,
            silent_rounds: counters.silent_rounds,
            max_transmitters_per_round: counters.max_transmitters_per_round as usize,
            total_bits: counters.total_bits as usize,
            max_message_bits: counters.max_message_bits as usize,
        }
    }

    /// Average transmissions per round (0.0 for an empty trace).
    pub fn avg_transmissions_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.transmissions as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RoundRecord;

    fn trace() -> Trace<u64> {
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
                        (0, NodeEvent::Transmitted(255)),
                        (1, NodeEvent::Transmitted(1)),
                        (
                            2,
                            NodeEvent::Collision {
                                transmitting_neighbors: 2,
                            },
                        ),
                    ],
                },
                // An all-silent round records no events at all.
                RoundRecord {
                    round: 3,
                    events: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn stats_from_trace() {
        let s = ExecutionStats::from_trace(&trace());
        assert_eq!(s.rounds, 3);
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.receptions, 1);
        assert_eq!(s.collisions, 1);
        assert_eq!(s.silent_rounds, 1);
        assert_eq!(s.max_transmitters_per_round, 2);
        assert_eq!(s.total_bits, 4 + 8 + 1);
        assert_eq!(s.max_message_bits, 8);
        assert!((s.avg_transmissions_per_round() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_from_counters_mirrors_every_field() {
        let counters = rn_telemetry::RunCounters {
            rounds: 3,
            transmitters: 4,
            transmissions: 3,
            deliveries: 1,
            collisions: 1,
            rx_faults: 0,
            silent_rounds: 1,
            max_transmitters_per_round: 2,
            total_bits: 13,
            max_message_bits: 8,
            frontier_peak: 3,
            node_steps: 9,
            elided_rounds: 0,
            elided_spans: 0,
            scratch_reused: 0,
            scratch_fresh: 1,
        };
        assert_eq!(
            ExecutionStats::from_counters(&counters),
            ExecutionStats::from_trace(&trace())
        );
    }

    #[test]
    fn stats_of_empty_trace() {
        let s = ExecutionStats::from_trace(&Trace::<u64>::new());
        assert_eq!(s, ExecutionStats::default());
        assert_eq!(s.avg_transmissions_per_round(), 0.0);
    }
}
