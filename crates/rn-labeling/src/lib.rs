//! # rn-labeling
//!
//! The paper's contribution: **constant-length labeling schemes** that make
//! deterministic broadcast feasible in arbitrary radio networks.
//!
//! A labeling scheme is a function from the nodes of a graph to short binary
//! strings, computed with full knowledge of the topology (the "central
//! monitor" of the paper's motivating scenario). The universal broadcast
//! algorithms in `rn-broadcast` then run on the labeled network without any
//! knowledge of the topology — not even its size.
//!
//! Implemented schemes:
//!
//! * [`lambda`] — the 2-bit scheme **λ** of §2.2, driving algorithm B
//!   (broadcast in ≤ 2n−3 rounds, Theorem 2.9);
//! * [`lambda_ack`] — the 3-bit scheme **λ_ack** of §3.1, driving algorithm
//!   B_ack (acknowledged broadcast, Theorem 3.9);
//! * [`lambda_arb`] — the 3-bit scheme **λ_arb** of §4.1 for the case where
//!   the source is unknown at labeling time, driving algorithm B_arb;
//! * [`baselines`] — the two folklore schemes the paper compares against in
//!   §1.1: distinct O(log n)-bit identifiers (round-robin broadcast) and an
//!   O(log Δ)-bit colouring of the square of the graph;
//! * [`onebit`] — 1-bit schemes for special graph classes, reproducing the
//!   flavour of the §5 conclusion claims (the module docs give the exact
//!   scope of this substitution);
//! * [`multi`] — the k-source **multi-broadcast** scheme `multi_lambda`: a
//!   virtual-source reduction (collision-free collection to a coordinator,
//!   then λ broadcast of the message bundle) composing the λ machinery, in
//!   the direction of the Krisko–Miller multi-broadcast line of work;
//! * [`gossip`] — the all-to-all **gossip** scheme: every node starts with a
//!   message and learns all `n` of them — a DFS token walk collects
//!   everything at the graph centre in `2(n − 1)` collision-free rounds,
//!   then λ broadcasts the bundle (the second fundamental task of
//!   Gańczorz–Jurdziński–Pelc 2024);
//! * [`collection`] — the [`collection::CollectionPlan`] abstraction the two
//!   multi-message schemes share: collision-free collection schedules with
//!   exactly one transmitter per round (BFS paths for `multi_lambda`, the
//!   DFS token walk for gossip);
//! * [`sequences`] — the five-sequence construction (INF/UNINF/FRONTIER/DOM/
//!   NEW) of §2.1 that underlies λ and is reused by the verification oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod collection;
pub mod error;
pub mod gossip;
pub mod label;
pub mod lambda;
pub mod lambda_ack;
pub mod lambda_arb;
pub mod multi;
pub mod onebit;
pub mod sequences;

pub use collection::{CollectionPlan, CollectionSlot, TokenPayload};
pub use error::LabelingError;
pub use label::{Label, Labeling};
pub use sequences::SequenceConstruction;
