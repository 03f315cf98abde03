//! # rn-radio
//!
//! A synchronous radio-network simulator implementing exactly the model of
//! the paper "Constant-Length Labeling Schemes for Deterministic Radio
//! Broadcast" (SPAA 2019), §1.1:
//!
//! * time proceeds in synchronous rounds;
//! * in each round every node either **transmits** a message to all its
//!   neighbours or stays silent and **listens**;
//! * a listening node hears a message iff **exactly one** of its neighbours
//!   transmits in that round;
//! * there is **no collision detection**: when zero or several neighbours
//!   transmit, the listener hears nothing and cannot tell the two situations
//!   apart;
//! * a transmitting node hears nothing in that round.
//!
//! Crucially, the simulator never exposes the global round number to the
//! nodes: a node's behaviour may depend only on its own state (derived from
//! its label) and on the sequence of messages it has heard, exactly as the
//! universal-algorithm definition in the paper requires. The global round
//! counter exists only in the harness-facing API (traces, statistics, stop
//! conditions).
//!
//! The crate is protocol-agnostic: algorithms implement the [`RadioNode`]
//! trait (in `rn-broadcast` for the paper's algorithms) and the simulator
//! executes any such protocol on any [`rn_graph::Graph`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod digest;
pub mod fault;
pub mod message;
pub mod node;
pub mod scratch;
pub mod simulator;
pub mod stats;
#[cfg(any(test, feature = "testing"))]
pub mod testing;
pub mod trace;

pub use audit::{audit_wake_hints, HintViolationKind, WakeHintAudit, WakeHintViolation};
pub use digest::Digest;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use message::RadioMessage;
pub use node::{hint_until, Action, RadioNode};
pub use scratch::RoundScratch;
pub use simulator::{Engine, RunOutcome, Simulator, StopCondition};
pub use stats::ExecutionStats;
pub use trace::{RoundRecord, ShapeEvent, ShapeRound, Trace, TraceShape};

// The telemetry vocabulary the simulator speaks (`Simulator::with_metrics`
// takes a boxed sink; `metrics_counters` returns the aggregate), re-exported
// so downstream crates need not depend on `rn-telemetry` directly.
pub use rn_telemetry::{CounterSink, MetricsSink, NoopSink, RoundMetrics, RunCounters};
