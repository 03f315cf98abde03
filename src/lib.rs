//! # radio-labeling
//!
//! A reproduction and systems build-out of *"Constant-Length Labeling Schemes
//! for Deterministic Radio Broadcast"* (Ellen, Gorain, Miller, Pelc; SPAA
//! 2019): constant-length node labels — 2 or 3 bits, assigned once by a
//! topology-aware central monitor — make deterministic broadcast possible in
//! arbitrary radio networks whose nodes know nothing else about the topology.
//!
//! This facade crate re-exports the workspace crates under one name:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `rn-graph` | graph storage, generators, BFS/domination/colouring algorithms |
//! | [`radio`] | `rn-radio` | the synchronous collision-model simulator, traces, statistics, and the parallel batch executor |
//! | [`labeling`] | `rn-labeling` | the λ / λ_ack / λ_arb schemes, folklore baselines, 1-bit schemes, and the multi-message schemes (`multi_lambda`, `gossip`) with their shared `CollectionPlan`s |
//! | [`broadcast`] | `rn-broadcast` | the universal algorithms (B, B_ack, B_arb, …) and the **session API** |
//! | [`analyze`] | `rn-analyze` | the static analyzer: symbolic schedule derivation, certified round bounds, located findings |
//! | [`experiments`] | `rn-experiments` | the paper-table experiments (`repro`), the scenario sweep harness (`sweep`), and the analysis gate (`analyze`) |
//!
//! ## Quickstart: the session API
//!
//! All execution goes through [`broadcast::session::Session`]: pick a
//! [`broadcast::session::Scheme`], configure a builder, build once (this
//! constructs the labeling — the expensive step), then run as many times as
//! needed. Every run returns the same [`broadcast::session::RunReport`].
//!
//! ```
//! use radio_labeling::broadcast::session::{RunSpec, Scheme, Session};
//! use radio_labeling::graph::generators;
//! use std::sync::Arc;
//!
//! // A 4x5 grid network, shared (not cloned) by every run.
//! let network = Arc::new(generators::grid(4, 5));
//!
//! // Label once with the paper's 2-bit scheme λ, then broadcast.
//! let session = Session::builder(Scheme::Lambda, Arc::clone(&network))
//!     .source(0)
//!     .message(0xBEEF)
//!     .build()
//!     .expect("grid is connected");
//! let report = session.run();
//! assert!(report.completed());
//! assert!(report.completion_round.unwrap() <= 2 * 20 - 3); // Theorem 2.9
//!
//! // Repeated runs reuse the cached labeling: only the simulation repeats.
//! let next = session.run_with_message(0xCAFE).unwrap();
//! assert_eq!(next.completion_round, report.completion_round);
//!
//! // The unknown-source scheme λ_arb serves every origin from one labeling,
//! // and independent runs fan out over worker threads.
//! let arb = Session::builder(Scheme::LambdaArb, network).build().unwrap();
//! let specs: Vec<RunSpec> = (0..20).map(|s| RunSpec::new(s, 7)).collect();
//! let reports = arb.run_batch(&specs, 4).unwrap();
//! assert!(reports.iter().all(|r| r.common_knowledge_round.is_some()));
//! ```
//!
//! ## Topologies and sweeps
//!
//! Workload instances come from the seeded
//! [`graph::generators::TopologyFamily`] registry — one
//! `TopologyFamily::generate(n, seed)` entry point, every result
//! connectivity-checked and byte-reproducible per seed. The
//! [`experiments::scenario`] module crosses families × sizes × schemes ×
//! seeds into machine-readable reports (see `docs/ARCHITECTURE.md` and the
//! README's topology gallery):
//!
//! ```
//! use radio_labeling::broadcast::session::Scheme;
//! use radio_labeling::experiments::SweepSpec;
//! use radio_labeling::graph::generators::TopologyFamily;
//!
//! let report = SweepSpec::new("doc")
//!     .families(&[TopologyFamily::Torus, TopologyFamily::StarOfCliques { clique_size: 4 }])
//!     .sizes(&[16])
//!     .schemes(&[Scheme::Lambda])
//!     .seeds(&[1])
//!     .threads(1)
//!     .run()
//!     .unwrap();
//! assert!(report.records.iter().all(|r| r.completed()));
//! assert!(report.label_length_histograms["lambda"].keys().all(|&bits| bits <= 2));
//! ```

pub use rn_analyze as analyze;
pub use rn_broadcast as broadcast;
pub use rn_experiments as experiments;
pub use rn_graph as graph;
pub use rn_labeling as labeling;
pub use rn_radio as radio;
