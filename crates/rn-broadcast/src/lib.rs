//! # rn-broadcast
//!
//! The universal deterministic broadcast algorithms of the paper, implemented
//! as [`rn_radio::RadioNode`] protocols:
//!
//! * [`algo_b`] — **Algorithm B** (the paper's Algorithm 1): broadcast with
//!   2-bit λ labels, completing within `2n − 3` rounds (Theorem 2.9);
//! * [`algo_back`] — **Algorithm B_ack** (Algorithm 2): acknowledged
//!   broadcast with 3-bit λ_ack labels; the source learns of completion
//!   within `n − 2` further rounds (Theorem 3.9);
//! * [`algo_barb`] — **Algorithm B_arb** (§4.2): the three-phase algorithm
//!   for the case where the source is unknown at labeling time, with 3-bit
//!   λ_arb labels;
//! * [`common_round`] — the composition of B_ack and B described at the end
//!   of §3 that gives every node a common round in which it knows the
//!   broadcast has completed;
//! * [`delay_relay`] — the 1-bit "delay relay" algorithm driving the special
//!   graph-class schemes of `rn_labeling::onebit`;
//! * [`multi`] — the multi-message relay protocol driving any
//!   `rn_labeling::collection::CollectionPlan`: a collision-free collection
//!   phase funnels every source's message to a coordinator, which then runs
//!   Algorithm B on the bundle of all k messages. [`multi::MultiNode`] runs
//!   both the k-source `multi_lambda` scheme (BFS-path plan) and
//!   all-to-all **gossip**, its `k = n` case (DFS token-walk plan: all n
//!   messages reach the coordinator in `2(n − 1)` collision-free rounds);
//! * [`baselines`] — the slotted round-robin algorithms driven by the
//!   unique-identifier and square-colouring baselines of §1.1;
//! * [`verify`] — omniscient verification oracles used by tests and
//!   experiments (informed rounds, Lemma 2.8 conformance, theorem bounds);
//! * [`session`] — **the execution API**: a [`session::SessionBuilder`]
//!   configures scheme + graph + source + message + policies, the built
//!   [`session::Session`] owns the constructed labeling so repeated and
//!   batch-parallel runs amortize scheme construction, and every run returns
//!   one unified [`session::RunReport`].
//!
//! Every protocol here respects the paper's knowledge model: a node's
//! behaviour depends only on its label and on the messages it has heard. No
//! topology information, no global clock and no network-size bound ever
//! reaches a node (round numbers appear only *inside messages*, exactly as in
//! Algorithm 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ack_engine;
pub mod algo_b;
pub mod algo_back;
pub mod algo_barb;
pub mod baselines;
pub mod common_round;
pub mod delay_relay;
pub mod messages;
pub mod multi;
pub mod session;
pub mod verify;

pub use messages::{BMessage, MessageBundle, MultiMessage, Phase, TaggedMessage, TaggedPayload};
pub use multi::MultiNode;
/// The benchmark crate under `benchmark/` still names gossip's node type.
pub use multi::MultiNode as GossipNode;
pub use session::{
    RoundCapPolicy, RunReport, RunSpec, Scheme, Session, SessionBuilder, StopPolicy, TracePolicy,
};
