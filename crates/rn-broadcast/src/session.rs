//! The unified execution API: one builder, one report, reusable schemes,
//! batch-parallel runs.
//!
//! [`Session`] is the one way to execute a scheme:
//!
//! * a [`Scheme`] selects the labeling scheme / algorithm pair — the paper's
//!   λ, λ_ack and λ_arb, the 1-bit delay-relay schemes for cycles and grids,
//!   and the §1.1 baselines;
//! * a [`SessionBuilder`] configures the graph (shared via `Arc`, never
//!   cloned per run), source, message, and the stop / trace / round-cap
//!   policies;
//! * [`SessionBuilder::build`] constructs the labeling **once** and the
//!   session keeps that plan (the labeling, or the multi-message scheme with
//!   its collection plan), so repeated runs amortize scheme construction —
//!   the dominant pattern in the experiment sweeps and benches. Each run
//!   builds its nodes from the plan: a node's initial state depends only on
//!   its label and on whether it holds the run's message;
//! * every run of every scheme returns the same [`RunReport`], filled by one
//!   generic driver: a private `Protocol` trait, implemented once per node
//!   type, says how to build the network, when a node is informed, and what
//!   else a run observes (ack, completion, common-knowledge and per-message
//!   completion rounds);
//! * [`Session::run_batch`] fans independent runs out over the scoped worker
//!   threads of [`rn_radio::batch`], returning reports in spec order;
//! * every run borrows its simulator's per-round working buffers
//!   ([`rn_radio::RoundScratch`]) from a pool on the session, so repeat and
//!   batch runs amortize per-round memory exactly like they amortize the
//!   labeling — and [`SessionBuilder::engine`] can replay any workload on the
//!   retained listener-centric reference engine for equivalence checking.
//!
//! ```
//! use rn_broadcast::session::{Scheme, Session};
//! use rn_graph::generators;
//! use std::sync::Arc;
//!
//! let g = Arc::new(generators::grid(4, 5));
//! let session = Session::builder(Scheme::Lambda, Arc::clone(&g))
//!     .source(7)
//!     .message(11)
//!     .build()
//!     .unwrap();
//! let report = session.run();
//! assert!(report.completed());
//! assert_eq!(report.label_length, 2); // the 2-bit λ labels of Theorem 2.9
//!
//! // The cached labeling is reused: only the simulation repeats.
//! let again = session.run_with_message(12).unwrap();
//! assert_eq!(again.completion_round, report.completion_round);
//! ```

use crate::algo_b::BNode;
use crate::algo_back::BackNode;
use crate::algo_barb::ArbNode;
use crate::baselines::SlottedNode;
use crate::delay_relay::DelayRelayNode;
use crate::messages::{ones, SourceMessage};
use crate::multi::MultiNode;
use crate::verify;
use rn_graph::{Graph, NodeId};
use rn_labeling::collection::CollectionPlan;
use rn_labeling::multi::MultiLambdaScheme;
use rn_labeling::{
    baselines, gossip, lambda, lambda_ack, lambda_arb, multi, onebit, Labeling, LabelingError,
};
use rn_radio::{
    CounterSink, Engine, ExecutionStats, FaultPlan, MetricsSink, RadioNode, RoundScratch,
    Simulator, StopCondition, TraceShape, WakeHintAudit, WakeHintViolation,
};
use rn_telemetry::{RunCounters, RunMetrics, SpanRecord, SpanTimer};
use std::sync::{Arc, Mutex};

/// Which labeling scheme / broadcast algorithm pair a session executes.
///
/// Each variant pairs one of the paper's labelings with its universal
/// algorithm; [`Scheme::name`] gives the stable string the reports use and
/// [`Scheme::parse`] turns that string back into a scheme (the sweep CLI's
/// entry point).
///
/// ```
/// use rn_broadcast::session::Scheme;
///
/// assert_eq!(Scheme::parse("lambda_ack").unwrap(), Scheme::LambdaAck);
/// assert_eq!(Scheme::parse("onebit_grid:3x5").unwrap(),
///            Scheme::OneBitGrid { rows: 3, cols: 5 });
/// for scheme in Scheme::GENERAL {
///     assert_eq!(Scheme::parse(scheme.name()).unwrap(), scheme);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's 2-bit scheme λ driving Algorithm B (Theorem 2.9).
    Lambda,
    /// The paper's 3-bit scheme λ_ack driving Algorithm B_ack (Theorem 3.9).
    LambdaAck,
    /// The paper's 3-bit unknown-source scheme λ_arb driving Algorithm B_arb
    /// (§4.2). The labeling is built for the session's coordinator, not its
    /// source, so one session can run from every source position.
    LambdaArb,
    /// The 1-bit delay-relay scheme for cycles (§5 conclusion).
    OneBitCycle,
    /// The 1-bit delay-relay scheme for canonically numbered grids
    /// (§5 conclusion).
    OneBitGrid {
        /// Number of grid rows.
        rows: usize,
        /// Number of grid columns.
        cols: usize,
    },
    /// Baseline: distinct ⌈log₂ n⌉-bit identifiers, slotted round robin.
    UniqueIds,
    /// Baseline: colouring of the square of the graph, slotted.
    SquareColoring,
    /// The k-source multi-broadcast scheme `multi_lambda`
    /// ([`rn_labeling::multi`]): a collision-free collection phase funnels
    /// every source's message to a coordinator, which then runs Algorithm B
    /// on the bundle of all k messages under the λ labels of
    /// `(G, coordinator)`.
    ///
    /// Sources come from [`SessionBuilder::sources`]; without an explicit
    /// set, `k` sources are spread evenly over the node range. The run's
    /// payloads are derived from the run message µ as `µ, µ+1, …, µ+k−1`
    /// (one per source, in sorted source order). The labeling depends on
    /// the source *set* fixed at build time, not on a per-run source, so
    /// [`Session::run_with`] reuses the cache for every spec.
    MultiLambda {
        /// Number of sources to spread over the node range when
        /// [`SessionBuilder::sources`] is not given explicitly.
        k: usize,
    },
    /// The all-to-all gossip scheme ([`rn_labeling::gossip`]): **every**
    /// node is a source, and completion means every node holds all n
    /// messages. A DFS token walk collects everything at the coordinator
    /// (the graph centre by default) in `2(n − 1)` collision-free rounds;
    /// Algorithm B then broadcasts the bundle under the λ labels of
    /// `(G, coordinator)`, for `≤ 4n − 5` rounds in total.
    ///
    /// The source set is always all of `0..n` ([`SessionBuilder::sources`]
    /// is ignored); the run's payloads are derived from the run message µ
    /// as `µ, µ+1, …, µ+n−1` (node `v` starts with `µ + v`), and
    /// [`RunReport::message_completion_rounds`] has length n.
    Gossip,
}

impl Scheme {
    /// The schemes defined on every connected graph (excludes the restricted
    /// 1-bit classes), in presentation order. `MultiLambda` appears with its
    /// default parameterization (`k = 2`), like the parameterless spelling
    /// [`parse`](Self::parse) accepts.
    pub const GENERAL: [Scheme; 7] = [
        Scheme::Lambda,
        Scheme::LambdaAck,
        Scheme::LambdaArb,
        Scheme::UniqueIds,
        Scheme::SquareColoring,
        Scheme::MultiLambda { k: 2 },
        Scheme::Gossip,
    ];

    /// The accepted spellings of every scheme, as listed by
    /// [`ParseSchemeError`]: what [`parse`](Self::parse) accepts, with the
    /// parameter syntax spelled out for the parameterized schemes.
    pub const VALID_NAMES: [&'static str; 9] = [
        "lambda",
        "lambda_ack",
        "lambda_arb",
        "onebit_cycle",
        "onebit_grid:RxC",
        "unique_ids",
        "square_coloring",
        "multi_lambda[:K]",
        "gossip",
    ];

    /// Human-readable scheme name, matching the name recorded in labelings
    /// and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Lambda => lambda::SCHEME_NAME,
            Scheme::LambdaAck => lambda_ack::SCHEME_NAME,
            Scheme::LambdaArb => lambda_arb::SCHEME_NAME,
            Scheme::OneBitCycle => onebit::CYCLE_SCHEME_NAME,
            Scheme::OneBitGrid { .. } => onebit::GRID_SCHEME_NAME,
            Scheme::UniqueIds => baselines::UNIQUE_IDS_NAME,
            Scheme::SquareColoring => baselines::SQUARE_COLORING_NAME,
            Scheme::MultiLambda { .. } => multi::SCHEME_NAME,
            Scheme::Gossip => gossip::SCHEME_NAME,
        }
    }

    /// Whether the labeling depends on the source position. Source-independent
    /// schemes (λ_arb, the baselines, `multi_lambda` — whose labeling is a
    /// function of the source *set* fixed at build time — and gossip, where
    /// every node is a source) reuse one cached labeling for every source in
    /// [`Session::run_with`] / [`Session::run_batch`].
    pub fn labeling_depends_on_source(&self) -> bool {
        match self {
            Scheme::Lambda
            | Scheme::LambdaAck
            | Scheme::OneBitCycle
            | Scheme::OneBitGrid { .. } => true,
            Scheme::LambdaArb
            | Scheme::UniqueIds
            | Scheme::SquareColoring
            | Scheme::MultiLambda { .. }
            | Scheme::Gossip => false,
        }
    }

    /// Whether this scheme runs more than one message at a time
    /// (`multi_lambda`, gossip). Multi-message runs fix their source set at
    /// build time and ignore the per-run source, so sweeps execute them
    /// once per instance, and their reports carry per-message completion
    /// rounds.
    pub fn is_multi_message(&self) -> bool {
        matches!(self, Scheme::MultiLambda { .. } | Scheme::Gossip)
    }

    /// Parses a scheme from its [`name`](Self::name). `onebit_grid` takes its
    /// dimensions as a `:RxC` suffix (`onebit_grid:4x5`), `multi_lambda` its
    /// source count as a `:k` suffix (`multi_lambda:4`, bare `multi_lambda`
    /// means `k = 2`); every other scheme is just its name. This is the
    /// inverse of `name` and the string form the sweep CLI accepts.
    pub fn parse(s: &str) -> Result<Scheme, ParseSchemeError> {
        let err = || ParseSchemeError {
            input: s.to_string(),
        };
        if let Some(dims) = s.strip_prefix(onebit::GRID_SCHEME_NAME) {
            let dims = dims.strip_prefix(':').ok_or_else(err)?;
            let (rows, cols) = dims.split_once('x').ok_or_else(err)?;
            return Ok(Scheme::OneBitGrid {
                rows: rows.parse().map_err(|_| err())?,
                cols: cols.parse().map_err(|_| err())?,
            });
        }
        if let Some(rest) = s.strip_prefix(multi::SCHEME_NAME) {
            let k = match rest.strip_prefix(':') {
                Some(k) => k.parse().ok().filter(|&k| k >= 1).ok_or_else(err)?,
                None if rest.is_empty() => 2,
                None => return Err(err()),
            };
            return Ok(Scheme::MultiLambda { k });
        }
        match s {
            lambda::SCHEME_NAME => Ok(Scheme::Lambda),
            lambda_ack::SCHEME_NAME => Ok(Scheme::LambdaAck),
            lambda_arb::SCHEME_NAME => Ok(Scheme::LambdaArb),
            onebit::CYCLE_SCHEME_NAME => Ok(Scheme::OneBitCycle),
            baselines::UNIQUE_IDS_NAME => Ok(Scheme::UniqueIds),
            baselines::SQUARE_COLORING_NAME => Ok(Scheme::SquareColoring),
            gossip::SCHEME_NAME => Ok(Scheme::Gossip),
            _ => Err(err()),
        }
    }
}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::parse(s)
    }
}

/// The input of [`Scheme::parse`] named no known scheme.
///
/// The error's [`Display`](std::fmt::Display) form lists every accepted
/// spelling ([`Scheme::VALID_NAMES`]), so a CLI typo shows the caller the
/// full menu instead of only rejecting:
///
/// ```
/// use rn_broadcast::session::Scheme;
///
/// let err = Scheme::parse("gosip").unwrap_err();
/// assert!(err.to_string().contains("gossip"));
/// assert!(err.to_string().contains("multi_lambda[:K]"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme {:?}; valid schemes: {}",
            self.input,
            Scheme::VALID_NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseSchemeError {}

/// When a run stops, beyond the scheme-specific completion predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopPolicy {
    /// The scheme-appropriate default: quiet detection (3 consecutive silent
    /// rounds) for λ, λ_ack and the 1-bit schemes, which legitimately go
    /// quiet when done; run-to-cap with completion predicates for λ_arb and
    /// the slotted baselines.
    #[default]
    Auto,
    /// Run until the round cap regardless of quiet detection (completion
    /// predicates still stop λ_arb and baseline runs early).
    RunToCap,
    /// Stop after this many consecutive silent rounds, for any scheme.
    QuietFor(u64),
}

/// Whether a run records an [`rn_radio::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracePolicy {
    /// Record the trace and derive the full [`ExecutionStats`] from it
    /// (the default). [`RunReport::informed_rounds`] come from node state
    /// after each round, under both policies.
    #[default]
    Recorded,
    /// Skip trace recording. A recorded trace costs memory in proportion
    /// to the channel's activity (one event per transmission, reception,
    /// collision and fault), and skipping it also lets the fast engine
    /// elide provably quiet spans. Informed rounds are tracked from node
    /// state exactly as under [`Recorded`](TracePolicy::Recorded); the
    /// statistics carry only the round count.
    Disabled,
}

/// How the safety cap on the number of rounds is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundCapPolicy {
    /// The scheme-appropriate default: linear in `n` for the constant-length
    /// schemes (whose theorems bound completion by `O(n)` rounds), quadratic
    /// for the slotted baselines.
    #[default]
    Auto,
    /// An explicit cap in rounds.
    Fixed(u64),
}

/// One run of a session: a source and a message. Sessions built for a
/// source-independent scheme execute any spec against the cached labeling;
/// source-dependent schemes relabel when the source differs from the
/// session's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// The broadcasting source node.
    pub source: NodeId,
    /// The source message µ.
    pub message: SourceMessage,
}

impl RunSpec {
    /// Creates a run spec.
    pub fn new(source: NodeId, message: SourceMessage) -> Self {
        RunSpec { source, message }
    }
}

/// The unified result of one session run, for every scheme: the fields a
/// scheme does not measure stay `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the labeling scheme used.
    pub scheme: &'static str,
    /// Number of nodes in the graph.
    pub node_count: usize,
    /// The broadcasting source of this run (for a multi-broadcast run, the
    /// first of [`sources`](Self::sources)).
    pub source: NodeId,
    /// Every designated source of this run: `vec![source]` for the
    /// single-source schemes, the full sorted k-source set for
    /// [`Scheme::MultiLambda`].
    pub sources: Vec<NodeId>,
    /// The coordinator `r` of the λ_arb or `multi_lambda` labeling, if the
    /// scheme has one.
    pub coordinator: Option<NodeId>,
    /// The source message µ of this run (for a multi-broadcast run, the
    /// base payload: source `j` broadcasts `µ + j`).
    pub message: SourceMessage,
    /// Length of the labeling (max label bits).
    pub label_length: usize,
    /// Number of distinct labels used.
    pub distinct_labels: usize,
    /// Round in which each node was first informed (0 for the source);
    /// `None` if never informed within the round cap. For a multi-broadcast
    /// run "informed" means *fully* informed: holding all k messages.
    pub informed_rounds: Vec<Option<u64>>,
    /// Round by which every node was informed, if broadcast completed (for
    /// multi-broadcast: every node holds every message).
    pub completion_round: Option<u64>,
    /// Multi-broadcast only: for each source (in [`sources`](Self::sources)
    /// order), the round by which **every** node held that source's
    /// message, or `None` if it never fully propagated. `None` for
    /// single-source schemes.
    pub message_completion_rounds: Option<Vec<(NodeId, Option<u64>)>>,
    /// Round in which the source first heard an "ack" (the Theorem 3.9
    /// quantity). Only λ_ack sessions produce acknowledgements.
    pub ack_round: Option<u64>,
    /// Round by which every node additionally knew that broadcast had
    /// completed everywhere. Only λ_arb sessions track common knowledge.
    pub common_knowledge_round: Option<u64>,
    /// Number of rounds the simulation executed (including quiet tail
    /// rounds after completion).
    pub rounds_executed: u64,
    /// Communication statistics of the execution.
    pub stats: ExecutionStats,
    /// Robustness: fraction of **non-crashed** nodes that ended the run
    /// informed (for multi-message schemes: fully informed). Nodes the fault
    /// plan crashed within the executed rounds are excluded from both sides
    /// of the ratio; a fault-free completed run reports exactly 1.0.
    pub delivery_rate: f64,
    /// Robustness: the last round in which any node became newly informed —
    /// the round after which the broadcast made no further progress. `None`
    /// when no node was ever informed within the executed rounds.
    pub stalled_at: Option<u64>,
    /// Robustness: number of scheduled fault events whose effect had begun
    /// by the end of the run (0 for a fault-free run).
    pub faults_injected: usize,
}

impl RunReport {
    /// Whether every node was informed.
    pub fn completed(&self) -> bool {
        self.completion_round.is_some()
    }

    /// The paper's closed-form completion bound for this run's scheme, when
    /// it states one: Theorem 2.9's `2n − 3` rounds for λ and the `4n − 5`
    /// bound for the gossip scheme (token walk plus bundle broadcast).
    /// `None` for the other schemes, whose bounds are stated asymptotically,
    /// and for the degenerate `n < 2` graphs the bounds do not cover.
    pub fn theorem_bound(&self) -> Option<u64> {
        let n = self.node_count as u64;
        if n < 2 {
            return None;
        }
        if self.scheme == lambda::SCHEME_NAME {
            Some(2 * n - 3)
        } else if self.scheme == gossip::SCHEME_NAME {
            Some(4 * n - 5)
        } else {
            None
        }
    }
}

/// One-paragraph human-readable summary: scheme and graph size, completion
/// round against the paper bound (when the scheme has a closed-form one),
/// delivery rate, and fault count — the report a person wants to read after
/// a run, next to the machine-oriented fields.
impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} nodes carrying {}-bit labels ({} distinct); ",
            self.scheme, self.node_count, self.label_length, self.distinct_labels
        )?;
        match self.completion_round {
            Some(round) => {
                write!(
                    f,
                    "broadcast from source {} completed in round {round} of {} executed",
                    self.source, self.rounds_executed
                )?;
                if let Some(bound) = self.theorem_bound() {
                    write!(f, ", within the paper's {bound}-round bound")?;
                }
            }
            None => write!(
                f,
                "broadcast from source {} did not complete within {} rounds",
                self.source, self.rounds_executed
            )?,
        }
        if let Some(ack) = self.ack_round {
            write!(f, "; the source heard the acknowledgement in round {ack}")?;
        }
        if let Some(ck) = self.common_knowledge_round {
            write!(f, "; completion was common knowledge by round {ck}")?;
        }
        write!(
            f,
            ". Delivery rate {:.1}%, {} fault event{} injected.",
            self.delivery_rate * 100.0,
            self.faults_injected,
            if self.faults_injected == 1 { "" } else { "s" }
        )
    }
}

/// Builder for a [`Session`].
///
/// Defaults: source 0, coordinator 0 (λ_arb only), message 1, and the `Auto`
/// stop, `Recorded` trace and `Auto` round-cap policies.
///
/// ```
/// use rn_broadcast::session::{RoundCapPolicy, Scheme, Session, TracePolicy};
/// use rn_graph::generators;
///
/// let session = Session::builder(Scheme::LambdaAck, generators::cycle(11))
///     .source(3)
///     .message(5)
///     .trace(TracePolicy::Disabled)       // skip trace recording
///     .round_cap(RoundCapPolicy::Fixed(200))
///     .build()?;
/// let report = session.run();
/// assert!(report.completed());
/// assert!(report.ack_round > report.completion_round);
/// # Ok::<(), rn_labeling::LabelingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    scheme: Scheme,
    graph: Arc<Graph>,
    source: NodeId,
    /// Explicit multi-broadcast sources; empty means "derive from the
    /// scheme's `k` by spreading over the node range".
    sources: Vec<NodeId>,
    /// `None` resolves to the scheme default at build time: 0 for λ_arb
    /// (the historical default), the BFS-forest centre of the sources for
    /// `multi_lambda`.
    coordinator: Option<NodeId>,
    message: SourceMessage,
    stop: StopPolicy,
    trace: TracePolicy,
    round_cap: RoundCapPolicy,
    engine: Engine,
    faults: FaultPlan,
}

impl SessionBuilder {
    /// Starts a builder for `scheme` on `graph` (owned or `Arc`-shared).
    pub fn new(scheme: Scheme, graph: impl Into<Arc<Graph>>) -> Self {
        SessionBuilder {
            scheme,
            graph: graph.into(),
            source: 0,
            sources: Vec::new(),
            coordinator: None,
            message: 1,
            stop: StopPolicy::default(),
            trace: TracePolicy::default(),
            round_cap: RoundCapPolicy::default(),
            engine: Engine::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Sets the broadcasting source (default 0).
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = source;
        self
    }

    /// Sets the designated multi-broadcast sources ([`Scheme::MultiLambda`]
    /// only; ignored by the single-source schemes). The set is sorted and
    /// deduplicated; message `j` of every run belongs to the `j`-th source
    /// in that order. Without an explicit set, `MultiLambda { k }` spreads
    /// `k` sources evenly over the node range.
    pub fn sources(mut self, sources: &[NodeId]) -> Self {
        self.sources = sources.to_vec();
        self
    }

    /// Sets the coordinator `r` of the λ_arb, `multi_lambda` or gossip
    /// labeling (ignored by other schemes). Defaults: 0 for λ_arb; for
    /// `multi_lambda`, the node minimising the maximum distance to any
    /// source ([`rn_labeling::multi::choose_coordinator`]); for gossip, the
    /// graph centre ([`rn_labeling::gossip::choose_coordinator`]). Both
    /// defaults come from an eccentricity-bounding search that runs at most
    /// one BFS per source, and usually a handful.
    pub fn coordinator(mut self, coordinator: NodeId) -> Self {
        self.coordinator = Some(coordinator);
        self
    }

    /// Sets the source message µ (default 1).
    pub fn message(mut self, message: SourceMessage) -> Self {
        self.message = message;
        self
    }

    /// Sets the stop policy (default [`StopPolicy::Auto`]).
    pub fn stop(mut self, stop: StopPolicy) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the trace policy (default [`TracePolicy::Recorded`]).
    pub fn trace(mut self, trace: TracePolicy) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the round-cap policy (default [`RoundCapPolicy::Auto`]).
    pub fn round_cap(mut self, round_cap: RoundCapPolicy) -> Self {
        self.round_cap = round_cap;
        self
    }

    /// Selects the simulator delivery engine (default
    /// [`Engine::EventDriven`], the fast engine). [`Engine::ListenerCentric`]
    /// replays runs on the retained reference implementation; the
    /// equivalence suite uses it to pin down that both engines produce
    /// identical reports.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a [`FaultPlan`] (default [`FaultPlan::none`]): every run of
    /// the session replays the same deterministic fault schedule through the
    /// simulator (see `rn_radio::fault`), and the report's robustness
    /// columns ([`RunReport::delivery_rate`], [`RunReport::stalled_at`],
    /// [`RunReport::faults_injected`]) measure the damage. An empty plan
    /// leaves every run byte-identical to an unfaulted session.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Constructs the labeling, the plan every run of the session builds its
    /// nodes from.
    ///
    /// This is the expensive step (BFS layering, sequence construction,
    /// dominating-set minimisation); every run of the returned session reuses
    /// its output and only builds its own nodes from it.
    pub fn build(self) -> Result<Session, LabelingError> {
        // Phase spans of the build, reported later through
        // `Session::run_instrumented`: "plan_build" covers source-set and
        // coordinator resolution, "coordinator" (nested in it) the
        // coordinator choice alone, and prepare() adds
        // "labeling_construction".
        // Recording them is a handful of clock reads, so it happens
        // unconditionally.
        let mut build_spans = Vec::new();
        let plan_timer = SpanTimer::start("plan_build");
        let node_count = self.graph.node_count();
        if node_count == 0 {
            return Err(LabelingError::EmptyGraph);
        }
        // Resolve the multi-message source set (left empty for the
        // single-source schemes): every node for gossip; for multi-broadcast
        // the explicit `.sources(..)` set if given, otherwise `k` sources
        // spread evenly over the node range.
        let sources: Vec<NodeId> = match self.scheme {
            Scheme::Gossip => (0..node_count).collect(),
            Scheme::MultiLambda { k } => {
                if self.sources.is_empty() {
                    if k == 0 {
                        return Err(LabelingError::NoSources);
                    }
                    let k = k.min(node_count);
                    let mut spread: Vec<NodeId> = (0..k).map(|i| i * node_count / k).collect();
                    spread.dedup();
                    spread
                } else {
                    multi::validate_sources(&self.graph, &self.sources)?
                }
            }
            _ => Vec::new(),
        };
        // The session's nominal source: the first designated source for
        // multi-broadcast, the `.source(..)` setting otherwise.
        let source = sources.first().copied().unwrap_or(self.source);
        if source >= node_count {
            return Err(LabelingError::SourceOutOfRange { source, node_count });
        }
        if let Some(max) = self.faults.max_node() {
            if max >= node_count {
                return Err(LabelingError::FaultTargetOutOfRange {
                    node: max,
                    node_count,
                });
            }
        }
        let coordinator_timer = SpanTimer::start("coordinator");
        let coordinator = match (self.scheme, self.coordinator) {
            (_, Some(c)) => c,
            (Scheme::MultiLambda { .. }, None) => multi::choose_coordinator(&self.graph, &sources)?,
            (Scheme::Gossip, None) => gossip::choose_coordinator(&self.graph)?,
            (_, None) => 0,
        };
        let coordinator_span = coordinator_timer.stop();
        build_spans.push(plan_timer.stop());
        build_spans.push(coordinator_span);
        let template = prepare(
            self.scheme,
            &self.graph,
            source,
            &sources,
            coordinator,
            &mut build_spans,
        )?;
        Ok(Session {
            scheme: self.scheme,
            graph: self.graph,
            source,
            sources,
            coordinator,
            message: self.message,
            stop: self.stop,
            trace: self.trace,
            round_cap: self.round_cap,
            engine: self.engine,
            faults: self.faults,
            template,
            build_spans,
            scratch_pool: Mutex::new(Vec::new()),
        })
    }
}

/// The single dispatch point from a session's [`Template`] to code generic
/// over its protocol: `dispatch!(template, P, plan => body)` evaluates
/// `body` with `P` naming the variant's node type and `plan` bound to its
/// `&P::Plan`.
macro_rules! dispatch {
    ($template:expr, $P:ident, $plan:ident => $body:expr) => {
        match $template {
            Template::B($plan) => {
                type $P = BNode;
                $body
            }
            Template::Back($plan) => {
                type $P = BackNode;
                $body
            }
            Template::Arb($plan) => {
                type $P = ArbNode;
                $body
            }
            Template::Slotted($plan) => {
                type $P = SlottedNode;
                $body
            }
            Template::DelayRelay($plan) => {
                type $P = DelayRelayNode;
                $body
            }
            Template::Multi($plan) => {
                type $P = MultiNode;
                $body
            }
        }
    };
}

/// A reusable execution context: one graph, one constructed labeling scheme,
/// many runs.
///
/// See the [module documentation](self) for an overview and example.
pub struct Session {
    scheme: Scheme,
    graph: Arc<Graph>,
    source: NodeId,
    /// The resolved multi-broadcast source set (empty for single-source
    /// schemes); sorted and deduplicated, message `j` belongs to entry `j`.
    sources: Vec<NodeId>,
    coordinator: NodeId,
    message: SourceMessage,
    stop: StopPolicy,
    trace: TracePolicy,
    round_cap: RoundCapPolicy,
    engine: Engine,
    /// The deterministic fault schedule every run replays (empty by
    /// default); validated against the graph at build time.
    faults: FaultPlan,
    /// The constructed plan every run builds its nodes from.
    template: Template,
    /// Wall-clock spans of the build phases ("plan_build", the nested
    /// "coordinator", "labeling_construction"), recorded once at build
    /// time and prepended to the [`RunMetrics`] of every
    /// [`run_instrumented`](Session::run_instrumented) call.
    build_spans: Vec<SpanRecord>,
    /// Recycled per-round simulator buffers: every run borrows a scratch
    /// from here and returns it afterwards, so repeat and batch runs
    /// amortize per-round working memory the same way they amortize the
    /// labeling. Grows to at most the number of concurrently running
    /// simulations (the batch thread count).
    scratch_pool: Mutex<Vec<RoundScratch>>,
}

impl Session {
    /// Starts a [`SessionBuilder`] for `scheme` on `graph`.
    pub fn builder(scheme: Scheme, graph: impl Into<Arc<Graph>>) -> SessionBuilder {
        SessionBuilder::new(scheme, graph)
    }

    /// The scheme this session executes.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The session's default source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The resolved multi-broadcast source set: sorted, deduplicated, and
    /// message `j` of every run belongs to entry `j`. Empty for the
    /// single-source schemes.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The cached labeling this session was built with. Stable across runs:
    /// running never re-labels the session's own graph/source pair.
    pub fn labeling(&self) -> &Labeling {
        dispatch!(&self.template, P, plan => P::labeling(plan))
    }

    /// The resolved coordinator: the `111`-labeled node for λ_arb and the
    /// collection root for multi/gossip (node 0 for schemes that have no
    /// coordinator concept). Static analyzers certify against this value.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// The fault schedule every run of this session replays (empty unless
    /// [`SessionBuilder::faults`] installed one).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The collection schedule of a multi-broadcast or gossip session
    /// (`None` for every single-message scheme). Exposed so certificate
    /// checkers can audit the exact plan the relay protocol will drive.
    pub fn collection_plan(&self) -> Option<&CollectionPlan> {
        dispatch!(&self.template, P, plan => P::collection_plan(plan))
    }

    /// Runs the session with its configured source and message.
    pub fn run(&self) -> RunReport {
        self.run_with(self.own_spec())
            .expect("the session's own source is in range")
    }

    /// Runs the session with its configured source and message, with full
    /// telemetry: a [`CounterSink`] is installed on the simulator (the only
    /// run mode that pays for per-round metric assembly) and the returned
    /// [`RunMetrics`] carries the aggregated deterministic counters, the
    /// phase spans (build phases recorded once at build time, plus this
    /// run's `template_build`, `round_loop` and `verify`), and the process
    /// peak RSS.
    ///
    /// The [`RunReport`] is **identical** to what [`run`](Self::run)
    /// returns: deterministic counters never alter report contents, they
    /// only corroborate them ([`RunMetrics::counters_match_trace`] records
    /// the cross-check when a trace was also recorded). Timings and RSS are
    /// nondeterministic and live only in the `RunMetrics` block, so callers
    /// that persist reports stay byte-identical with telemetry on.
    pub fn run_instrumented(&self) -> (RunReport, RunMetrics) {
        self.run_with_instrumented(self.own_spec())
            .expect("the session's own source is in range")
    }

    /// Runs the session with its configured source and message and also
    /// returns the message-agnostic [`TraceShape`] of the execution, forcing
    /// trace recording for this run regardless of the session's trace policy.
    ///
    /// The shape is what the model checker compares across engines: two
    /// executions of the same protocol are physically equivalent iff their
    /// shapes match round for round.
    pub fn run_shaped(&self) -> (RunReport, TraceShape) {
        let (report, shape) = self
            .execute(self.own_spec(), true, None)
            .expect("the session's own source is in range");
        (report, shape.expect("shape requested"))
    }

    /// The concrete [`StopCondition`] the session's stop and round-cap
    /// policies resolve to for its graph — the exact condition every
    /// [`run`](Self::run) executes under. Exposed so external checkers (the
    /// model checker's round-cap invariant) can certify against the same
    /// bound the simulation uses.
    pub fn resolved_stop_condition(&self) -> StopCondition {
        self.stop_condition()
    }

    /// Audits the wake-hint contract of every node over one full execution:
    /// at every reachable state (including the initial one), every node
    /// advertising `wake_hint(now) == h > 0` at its local round is cloned
    /// and its next `min(h, horizon)` elided `step`/`receive(None)` pairs
    /// are replayed on that clock, verifying they are Listen-only and (for
    /// nodes implementing
    /// [`RadioNode::state_digest`]) leave the state bit-identical.
    ///
    /// The execution is driven round by round under the session's configured
    /// engine and fault plan, up to the resolved round cap. Returns the audit
    /// counters on success or the first violation found.
    ///
    /// # Errors
    /// Returns the first [`WakeHintViolation`] encountered, identifying the
    /// node, round, offset into the promised span, and violation kind.
    pub fn audit_wake_hints(&self) -> Result<WakeHintAudit, WakeHintViolation> {
        let cap = self.stop_condition().cap();
        dispatch!(&self.template, P, plan => {
            rn_radio::audit_wake_hints(&mut self.own_simulator::<P>(plan), cap)
        })
    }

    /// Runs the protocol for `rounds` rounds under the session's engine and
    /// fault plan, recording every node's [`RadioNode::state_digest`] at
    /// every reachable state: row 0 holds the initial digests, row `r` the
    /// digests after round `r`. The digest-contract tests use this to pin
    /// determinism and the informed-transition sensitivity of the digests.
    pub fn state_digest_history(&self, rounds: u64) -> Vec<Vec<u64>> {
        dispatch!(&self.template, P, plan => {
            let mut sim = self.own_simulator::<P>(plan);
            let mut rows = vec![sim.nodes().iter().map(RadioNode::state_digest).collect()];
            for _ in 0..rounds {
                sim.step_round();
                rows.push(sim.nodes().iter().map(RadioNode::state_digest).collect());
            }
            rows
        })
    }

    /// Runs with the session's source but a different message. The cached
    /// labeling is always reused (labels never depend on µ).
    pub fn run_with_message(&self, message: SourceMessage) -> Result<RunReport, LabelingError> {
        self.run_with(RunSpec::new(self.source, message))
    }

    /// Runs an arbitrary spec.
    ///
    /// For source-independent schemes (λ_arb, the baselines) any source
    /// executes against the cached labeling. For source-dependent schemes a
    /// spec with a different source constructs a fresh labeling for that
    /// source (the documented cost of moving the source); specs with the
    /// session's own source always reuse the cache.
    pub fn run_with(&self, spec: RunSpec) -> Result<RunReport, LabelingError> {
        Ok(self.execute(spec, false, None)?.0)
    }

    /// Runs an arbitrary spec with full telemetry, mirroring
    /// [`run_with`](Self::run_with) exactly: the returned [`RunReport`] is
    /// identical to what `run_with` produces, and the [`RunMetrics`] block
    /// carries the deterministic counters, phase spans, and peak RSS the
    /// same way [`run_instrumented`](Self::run_instrumented) does.
    ///
    /// When the spec forces a fresh labeling (source-dependent scheme, new
    /// source), the metrics' span list holds the *fresh* construction's
    /// `labeling_construction` timing rather than the cached build's — the
    /// spans describe the work this call actually did.
    ///
    /// # Errors
    /// Same contract as [`run_with`](Self::run_with).
    pub fn run_with_instrumented(
        &self,
        spec: RunSpec,
    ) -> Result<(RunReport, RunMetrics), LabelingError> {
        let mut metrics = RunMetrics::default();
        let (report, _) = self.execute(spec, false, Some(&mut metrics))?;
        Ok((report, metrics))
    }

    /// Runs every spec, fanning the independent simulations out over up to
    /// `threads` worker threads ([`rn_radio::batch::run_parallel`]). Reports
    /// come back in spec order, so batch runs are deterministic regardless of
    /// the thread count. `threads <= 1` runs inline.
    ///
    /// ```
    /// use rn_broadcast::session::{RunSpec, Scheme, Session};
    /// use rn_graph::generators;
    ///
    /// // λ_arb: one labeling serves every source, so a batch over all
    /// // sources reuses the cached labeling in every worker.
    /// let g = generators::gnp_connected(12, 0.3, 1)?;
    /// let session = Session::builder(Scheme::LambdaArb, g).build()?;
    /// let specs: Vec<RunSpec> = (0..12).map(|s| RunSpec::new(s, 7)).collect();
    /// let reports = session.run_batch(&specs, 4)?;
    /// assert_eq!(reports.len(), 12);
    /// assert!(reports.iter().all(|r| r.completed()));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_batch(
        &self,
        specs: &[RunSpec],
        threads: usize,
    ) -> Result<Vec<RunReport>, LabelingError> {
        rn_radio::batch::run_parallel(specs.to_vec(), threads, |spec| self.run_with(spec))
            .into_iter()
            .collect()
    }

    /// The stop condition this session's policies resolve to for its graph.
    fn stop_condition(&self) -> StopCondition {
        let n = self.graph.node_count() as u64;
        let cap = match self.round_cap {
            RoundCapPolicy::Fixed(c) => c,
            RoundCapPolicy::Auto => match self.scheme {
                Scheme::Lambda | Scheme::OneBitCycle | Scheme::OneBitGrid { .. } => {
                    4 * (n + 2) + 16
                }
                Scheme::LambdaAck => 6 * (n + 2) + 16,
                Scheme::LambdaArb => 16 * (n + 2) + 16,
                Scheme::UniqueIds | Scheme::SquareColoring => 16 * n * n + 64,
                // Collection is bounded by k·(n − 1) one-hop rounds, the
                // bundle broadcast by Theorem 2.9's 2n − 3.
                Scheme::MultiLambda { .. } => 2 * (self.sources.len() as u64 + 2) * (n + 2) + 16,
                // The token walk takes exactly 2(n − 1) rounds, the bundle
                // broadcast ≤ 2n − 3 (Theorem 2.9): linear with slack.
                Scheme::Gossip => 6 * (n + 2) + 16,
            },
        };
        match self.stop {
            StopPolicy::Auto => match self.scheme {
                Scheme::Lambda
                | Scheme::LambdaAck
                | Scheme::OneBitCycle
                | Scheme::OneBitGrid { .. }
                | Scheme::MultiLambda { .. }
                | Scheme::Gossip => StopCondition::QuietFor { quiet: 3, cap },
                Scheme::LambdaArb | Scheme::UniqueIds | Scheme::SquareColoring => {
                    StopCondition::AfterRounds(cap)
                }
            },
            StopPolicy::RunToCap => StopCondition::AfterRounds(cap),
            StopPolicy::QuietFor(quiet) => StopCondition::QuietFor { quiet, cap },
        }
    }

    fn own_spec(&self) -> RunSpec {
        RunSpec::new(self.source, self.message)
    }

    /// A simulator of `nodes` on the session's graph, engine and fault plan.
    fn simulator<N: RadioNode>(&self, nodes: Vec<N>) -> Simulator<N> {
        Simulator::new(Arc::clone(&self.graph), nodes)
            .with_engine(self.engine)
            .with_faults(&self.faults)
    }

    /// A traceless simulator of the session's own run, its nodes built from
    /// `plan`.
    fn own_simulator<P: Protocol>(&self, plan: &P::Plan) -> Simulator<P> {
        let spec = self.own_spec();
        self.simulator(P::network(plan, spec.source, spec.message))
            .without_trace()
    }

    /// The one path every run takes: picks the plan for `spec` — the cached
    /// one, or a fresh construction when a source-dependent scheme moves its
    /// source — and drives it. With `metrics`, the run is instrumented and
    /// the block receives the build spans of the plan used, the run's own
    /// spans and counters, and the peak RSS.
    fn execute(
        &self,
        spec: RunSpec,
        want_shape: bool,
        mut metrics: Option<&mut RunMetrics>,
    ) -> Result<(RunReport, Option<TraceShape>), LabelingError> {
        let node_count = self.graph.node_count();
        if spec.source >= node_count {
            return Err(LabelingError::SourceOutOfRange {
                source: spec.source,
                node_count,
            });
        }
        let relabeled;
        let template = if spec.source == self.source || !self.scheme.labeling_depends_on_source() {
            if let Some(m) = metrics.as_deref_mut() {
                m.spans = self.build_spans.clone();
            }
            &self.template
        } else {
            let mut spans = Vec::new();
            relabeled = prepare(
                self.scheme,
                &self.graph,
                spec.source,
                &self.sources,
                self.coordinator,
                &mut spans,
            )?;
            if let Some(m) = metrics.as_deref_mut() {
                m.spans = spans;
            }
            &relabeled
        };
        let out = dispatch!(template, P, plan => {
            self.drive::<P>(plan, spec, want_shape, metrics.as_deref_mut())
        });
        if let Some(m) = metrics {
            m.peak_rss_kb = rn_telemetry::peak_rss_kb();
        }
        Ok(out)
    }

    /// Builds protocol `P`'s nodes for `spec` from `plan`, runs them to the
    /// stop condition and fills the report: the one driver behind every
    /// scheme.
    fn drive<P: Protocol>(
        &self,
        plan: &P::Plan,
        spec: RunSpec,
        want_shape: bool,
        mut metrics: Option<&mut RunMetrics>,
    ) -> (RunReport, Option<TraceShape>) {
        let template_timer = SpanTimer::start("template_build");
        let nodes = P::network(plan, spec.source, spec.message);
        if let Some(m) = metrics.as_deref_mut() {
            m.spans.push(template_timer.stop());
        }
        let record = self.trace == TracePolicy::Recorded || want_shape;
        let round_timer = metrics.is_some().then(|| SpanTimer::start("round_loop"));
        let labeling = P::labeling(plan);
        // A multi-message run reports its build-time source set, whatever
        // the spec's source.
        let multi = self.scheme.is_multi_message();
        let sources = if multi {
            self.sources.clone()
        } else {
            vec![spec.source]
        };
        let mut report = RunReport {
            scheme: labeling.scheme(),
            node_count: self.graph.node_count(),
            source: sources[0],
            sources,
            coordinator: (matches!(self.scheme, Scheme::LambdaArb) || multi)
                .then_some(self.coordinator),
            message: spec.message,
            label_length: labeling.length(),
            distinct_labels: labeling.distinct_count(),
            informed_rounds: Vec::new(),
            completion_round: None,
            message_completion_rounds: None,
            ack_round: None,
            common_knowledge_round: None,
            rounds_executed: 0,
            stats: ExecutionStats::default(),
            delivery_rate: 0.0,
            stalled_at: None,
            faults_injected: 0,
        };

        // Informed rounds come from node state after every round: the nodes
        // the engine says the round changed, or all of them when it cannot
        // say. Round 0 is the initial state: nodes informed before round 1
        // (the sources) get round 0.
        let mut watch = Watch {
            online: vec![None; nodes.len()],
            ..Watch::default()
        };
        watch.track(&nodes, None, 0);
        P::observe(&nodes, None, 0, &mut report, &mut watch);

        // The per-round scratch is borrowed from the session's pool and
        // returned afterwards, so repeated and batched runs reuse the same
        // working arrays instead of reallocating them per run.
        let pooled = self
            .scratch_pool
            .lock()
            .expect("scratch pool not poisoned")
            .pop();
        let scratch_reused = pooled.is_some();
        let mut sim = self
            .simulator(nodes)
            .with_scratch(pooled.unwrap_or_default());
        if !record {
            sim = sim.without_trace();
        }
        // Only an instrumented run installs a sink, so the engines' hot
        // paths never pay for metric assembly otherwise.
        if metrics.is_some() {
            let mut sink = CounterSink::new();
            sink.on_scratch(scratch_reused);
            sim = sim.with_metrics(Box::new(sink));
        }
        let outcome = sim.run_until(self.stop_condition(), |s| {
            let (round, changed) = (s.current_round(), s.active_nodes());
            watch.track(s.nodes(), changed, round);
            P::observe(s.nodes(), changed, round, &mut report, &mut watch)
        });
        self.scratch_pool
            .lock()
            .expect("scratch pool not poisoned")
            .push(sim.take_scratch());
        let counters = sim.metrics_counters().map(|c| RunCounters {
            harness_visits: watch.visits,
            ..c
        });

        report.rounds_executed = outcome.rounds_executed;
        report.informed_rounds = watch.online;
        report.stats = if record {
            ExecutionStats::from_trace(sim.trace())
        } else {
            // Counter-backed when the run was instrumented (a byte-exact
            // substitute for the trace walk), a bare round count otherwise.
            match &counters {
                Some(c) => ExecutionStats::from_counters(c),
                None => ExecutionStats {
                    rounds: outcome.rounds_executed,
                    ..ExecutionStats::default()
                },
            }
        };
        if !P::OBSERVES_COMPLETION {
            report.completion_round = verify::completion_round(&report.informed_rounds);
        }
        self.fill_robustness(&mut report);
        if let Some(m) = metrics {
            if let Some(timer) = round_timer {
                m.spans.push(timer.stop());
            }
            // The "verify" phase: cross-check the deterministic counters
            // against the trace-derived statistics when both exist. The
            // check never alters the report — it only certifies that the
            // per-round counters and the trace walk agree field for field.
            let verify_timer = SpanTimer::start("verify");
            m.counters = counters;
            m.counters_match_trace = match counters {
                Some(c) if record => Some(ExecutionStats::from_counters(&c) == report.stats),
                _ => None,
            };
            m.spans.push(verify_timer.stop());
        }
        (
            report,
            want_shape.then(|| sim.trace().shape(sim.graph().node_count())),
        )
    }

    /// Fills the robustness columns from the informed rounds and the fault
    /// plan. Cheap and scheme-agnostic, so it runs for every report; with
    /// the default empty plan it reduces to `informed / n`, the last
    /// informed round, and zero faults.
    fn fill_robustness(&self, report: &mut RunReport) {
        let mut eligible = 0usize;
        let mut delivered = 0usize;
        for (v, informed) in report.informed_rounds.iter().enumerate() {
            let crashed = self
                .faults
                .crash_round(v)
                .is_some_and(|r| r <= report.rounds_executed);
            if !crashed {
                eligible += 1;
                if informed.is_some() {
                    delivered += 1;
                }
            }
        }
        // Every node crashed: delivery is vacuously complete.
        report.delivery_rate = if eligible == 0 {
            1.0
        } else {
            delivered as f64 / eligible as f64
        };
        report.stalled_at = report.informed_rounds.iter().flatten().copied().max();
        report.faults_injected = self.faults.injected_by(report.rounds_executed);
    }
}

/// One broadcast protocol as a session drives it: how its network is built,
/// when a node counts as informed, and what else a run of it observes and
/// reports. Implemented once per node type; [`Session::drive`] is generic
/// over it, so every scheme runs through one statically dispatched driver.
trait Protocol: RadioNode + Clone {
    /// What the network is built from: a labeling, or the multi-message
    /// scheme that owns the labeling and the collection plan.
    type Plan;

    /// Whether [`observe`](Self::observe) decides the completion round;
    /// otherwise it is the round by which every node was informed.
    const OBSERVES_COMPLETION: bool = false;

    /// The labeling inside `plan`.
    fn labeling(plan: &Self::Plan) -> &Labeling;

    /// The collection schedule inside `plan`, for multi-message protocols.
    fn collection_plan(_plan: &Self::Plan) -> Option<&CollectionPlan> {
        None
    }

    /// The initial node states of a run from `source` with `message`.
    fn network(plan: &Self::Plan, source: NodeId, message: SourceMessage) -> Vec<Self>;

    /// Whether this node is informed (for a multi-message protocol: holds
    /// every message).
    fn is_informed(&self) -> bool;

    /// Observes the network at `round` — round 0 is the initial state, then
    /// once after every executed round — and records the protocol's own
    /// measurements in `report`: the ack, completion, common-knowledge and
    /// per-message completion rounds. `changed` names the nodes the round
    /// may have changed (`None`: any node). All-nodes checks go through
    /// [`Watch::all`]. Returning `true` stops the run early (ignored at
    /// round 0).
    fn observe(
        _nodes: &[Self],
        _changed: Option<&[NodeId]>,
        _round: u64,
        _report: &mut RunReport,
        _watch: &mut Watch,
    ) -> bool {
        false
    }
}

/// What [`Session::drive`] keeps between rounds to observe a run: the
/// informed rounds it tracks from node state, one cursor per all-nodes
/// check, a multi-message run's [`Holdings`], and a tally of the node
/// states it examined (the `harness_visits` counter). It holds
/// O(n + checks) words, plus n·⌈k/64⌉ for k messages. When the engine
/// names the nodes a round changed, the round costs it O(those nodes +
/// checks), plus ⌈k/64⌉ words per changed node whose holdings grew and one
/// step per new holding.
#[derive(Default)]
struct Watch {
    /// The first round each node was seen informed.
    online: Vec<Option<u64>>,
    /// Per all-nodes check, the first node not yet seen to pass it.
    cursors: Vec<usize>,
    /// Per-message holder counts (multi-message runs only).
    holdings: Holdings,
    /// Node states examined so far.
    visits: u64,
}

impl Watch {
    /// Records `round` for every newly informed node among `changed`, the
    /// nodes the round may have changed (`None`: any node).
    fn track<P: Protocol>(&mut self, nodes: &[P], changed: Option<&[NodeId]>, round: u64) {
        match changed {
            Some(vs) => vs.iter().for_each(|&v| self.see(nodes, v, round)),
            None => (0..nodes.len()).for_each(|v| self.see(nodes, v, round)),
        }
        debug_assert!(
            nodes
                .iter()
                .zip(&self.online)
                .all(|(node, seen)| seen.is_some() || !node.is_informed()),
            "round {round}: a node the engine did not name became informed"
        );
    }

    fn see<P: Protocol>(&mut self, nodes: &[P], v: NodeId, round: u64) {
        self.visits += 1;
        if self.online[v].is_none() && nodes[v].is_informed() {
            self.online[v] = Some(round);
        }
    }

    /// Whether every node passes `holds`, the protocol's all-nodes check
    /// number `check`. Each such check is monotone (a node that passes
    /// keeps passing), so its cursor only moves forward: over a run it
    /// visits each node once, plus one node per round while it fails.
    fn all<N>(&mut self, check: usize, nodes: &[N], holds: impl Fn(&N) -> bool) -> bool {
        if self.cursors.len() <= check {
            self.cursors.resize(check + 1, 0);
        }
        let cursor = &mut self.cursors[check];
        while let Some(node) = nodes.get(*cursor) {
            self.visits += 1;
            if !holds(node) {
                break;
            }
            *cursor += 1;
        }
        let all = *cursor == nodes.len();
        debug_assert_eq!(
            all,
            nodes.iter().all(&holds),
            "all-nodes check {check} is not monotone"
        );
        all
    }
}

impl Protocol for BNode {
    type Plan = Labeling;

    fn labeling(plan: &Labeling) -> &Labeling {
        plan
    }

    fn network(plan: &Labeling, source: NodeId, message: SourceMessage) -> Vec<Self> {
        BNode::network(plan, source, message)
    }

    fn is_informed(&self) -> bool {
        BNode::is_informed(self)
    }
}

impl Protocol for BackNode {
    type Plan = Labeling;

    fn labeling(plan: &Labeling) -> &Labeling {
        plan
    }

    fn network(plan: &Labeling, source: NodeId, message: SourceMessage) -> Vec<Self> {
        BackNode::network(plan, source, message)
    }

    fn is_informed(&self) -> bool {
        BackNode::is_informed(self)
    }

    fn observe(
        nodes: &[Self],
        _changed: Option<&[NodeId]>,
        round: u64,
        report: &mut RunReport,
        _watch: &mut Watch,
    ) -> bool {
        if report.ack_round.is_none() && nodes[report.source].source_received_ack() {
            report.ack_round = Some(round);
        }
        false
    }
}

impl Protocol for ArbNode {
    type Plan = Labeling;
    const OBSERVES_COMPLETION: bool = true;

    fn labeling(plan: &Labeling) -> &Labeling {
        plan
    }

    fn network(plan: &Labeling, source: NodeId, message: SourceMessage) -> Vec<Self> {
        ArbNode::network(plan, source, message)
    }

    fn is_informed(&self) -> bool {
        self.learned_message().is_some()
    }

    /// Completion is every node knowing µ itself, not just some message;
    /// both it and common knowledge are first checked after round 1, so
    /// even a one-node network completes in round 1.
    fn observe(
        nodes: &[Self],
        _changed: Option<&[NodeId]>,
        round: u64,
        report: &mut RunReport,
        watch: &mut Watch,
    ) -> bool {
        if round == 0 {
            return false;
        }
        let message = Some(report.message);
        if report.completion_round.is_none()
            && watch.all(0, nodes, |n| n.learned_message() == message)
        {
            report.completion_round = Some(round);
        }
        if report.common_knowledge_round.is_none() && watch.all(1, nodes, ArbNode::knows_completion)
        {
            report.common_knowledge_round = Some(round);
        }
        report.completion_round.is_some() && report.common_knowledge_round.is_some()
    }
}

impl Protocol for SlottedNode {
    type Plan = Labeling;

    fn labeling(plan: &Labeling) -> &Labeling {
        plan
    }

    fn network(plan: &Labeling, source: NodeId, message: SourceMessage) -> Vec<Self> {
        SlottedNode::network(plan, source, message)
    }

    fn is_informed(&self) -> bool {
        SlottedNode::is_informed(self)
    }

    /// The slotted baselines never go quiet on their own: stop once every
    /// node is informed.
    fn observe(
        nodes: &[Self],
        _changed: Option<&[NodeId]>,
        _round: u64,
        _report: &mut RunReport,
        watch: &mut Watch,
    ) -> bool {
        watch.all(0, nodes, SlottedNode::is_informed)
    }
}

impl Protocol for DelayRelayNode {
    type Plan = Labeling;

    fn labeling(plan: &Labeling) -> &Labeling {
        plan
    }

    fn network(plan: &Labeling, source: NodeId, message: SourceMessage) -> Vec<Self> {
        DelayRelayNode::network(plan, source, message)
    }

    fn is_informed(&self) -> bool {
        DelayRelayNode::is_informed(self)
    }
}

impl Protocol for MultiNode {
    type Plan = MultiLambdaScheme;

    fn labeling(plan: &MultiLambdaScheme) -> &Labeling {
        plan.labeling()
    }

    fn collection_plan(plan: &MultiLambdaScheme) -> Option<&CollectionPlan> {
        Some(plan.plan())
    }

    fn network(plan: &MultiLambdaScheme, _source: NodeId, message: SourceMessage) -> Vec<Self> {
        MultiNode::network(plan, &multi_payloads(message, plan.k()))
    }

    fn is_informed(&self) -> bool {
        self.holds_all_messages()
    }

    fn observe(
        nodes: &[Self],
        changed: Option<&[NodeId]>,
        round: u64,
        report: &mut RunReport,
        watch: &mut Watch,
    ) -> bool {
        let sources = &report.sources;
        let slots = report
            .message_completion_rounds
            .get_or_insert_with(|| sources.iter().map(|&s| (s, None)).collect());
        watch
            .holdings
            .observe(nodes, changed, round, slots, &mut watch.visits)
    }
}

/// What [`Watch`] keeps to date a multi-message run's messages: a shadow of
/// every node's holdings and, per message, the nodes seen holding it.
/// Message j is complete in the round its holder count reaches n.
#[derive(Default)]
struct Holdings {
    /// Words per node bitset, ⌈k/64⌉.
    words: usize,
    /// Each node's holdings as last seen, `words` words per node.
    seen: Vec<u64>,
    /// Each node's held count as last seen.
    counts: Vec<usize>,
    /// Per message, how many nodes were seen holding it.
    holders: Vec<usize>,
    /// Messages not yet held by every node.
    open: usize,
}

impl Holdings {
    /// Brings the shadow up to date with the nodes in `changed` (`None`:
    /// all of them) and dates every message whose holder count reaches n
    /// in `slots`, the report's per-message completion rounds (round 0
    /// when a message is universal from the start). A node whose held
    /// count did not move costs one comparison; one that did costs
    /// ⌈k/64⌉ words plus one step per new holding. Returns whether every
    /// message is complete.
    fn observe(
        &mut self,
        nodes: &[MultiNode],
        changed: Option<&[NodeId]>,
        round: u64,
        slots: &mut [(NodeId, Option<u64>)],
        visits: &mut u64,
    ) -> bool {
        let n = nodes.len();
        if self.counts.is_empty() {
            self.words = slots.len().div_ceil(64);
            self.seen = vec![0; n * self.words];
            self.counts = vec![0; n];
            self.holders = vec![0; slots.len()];
            self.open = slots.len();
        }
        let mut see = |v: NodeId| {
            *visits += 1;
            let node = &nodes[v];
            if node.held_count() == self.counts[v] {
                return;
            }
            self.counts[v] = node.held_count();
            let seen = &mut self.seen[v * self.words..][..self.words];
            for (w, (old, &now)) in seen.iter_mut().zip(node.held_words()).enumerate() {
                for j in ones(&[now & !*old]).map(|bit| w * 64 + bit) {
                    self.holders[j] += 1;
                    if self.holders[j] == n {
                        slots[j].1 = Some(round);
                        self.open -= 1;
                    }
                }
                *old = now;
            }
        };
        match changed {
            Some(vs) => vs.iter().for_each(|&v| see(v)),
            None => (0..n).for_each(see),
        }
        debug_assert!(
            nodes
                .iter()
                .zip(self.seen.chunks(self.words.max(1)))
                .all(|(node, seen)| node.held_words() == seen),
            "round {round}: a node the engine did not name gained a message"
        );
        debug_assert_eq!(
            self.holders.iter().sum::<usize>(),
            self.counts.iter().sum::<usize>(),
            "round {round}: holder counts out of step with the nodes"
        );
        self.open == 0
    }
}

/// The per-source payloads of a multi-broadcast run: source `j` (in sorted
/// source order) broadcasts `µ + j`, so every message is distinct and the
/// whole run is still parameterized by the single run-spec message µ.
fn multi_payloads(message: SourceMessage, k: usize) -> Vec<SourceMessage> {
    (0..k as u64).map(|j| message.wrapping_add(j)).collect()
}

/// A session's constructed plan, one variant per node type: what a run
/// builds its nodes from.
enum Template {
    B(Labeling),
    Back(Labeling),
    Arb(Labeling),
    Slotted(Labeling),
    DelayRelay(Labeling),
    Multi(MultiLambdaScheme),
}

/// Maps each scheme to its construction and protocol, timing the
/// construction as the "labeling_construction" phase span.
fn prepare(
    scheme: Scheme,
    graph: &Graph,
    source: NodeId,
    sources: &[NodeId],
    coordinator: NodeId,
    spans: &mut Vec<SpanRecord>,
) -> Result<Template, LabelingError> {
    let timer = SpanTimer::start("labeling_construction");
    let template = match scheme {
        Scheme::Lambda => Template::B(lambda::construct(graph, source)?.into_labeling()),
        Scheme::LambdaAck => Template::Back(lambda_ack::construct(graph, source)?.into_labeling()),
        Scheme::LambdaArb => Template::Arb(
            lambda_arb::construct_with_coordinator(
                graph,
                coordinator,
                rn_graph::algorithms::ReductionOrder::Forward,
            )?
            .into_labeling(),
        ),
        Scheme::OneBitCycle => Template::DelayRelay(onebit::cycle_onebit(graph, source)?),
        Scheme::OneBitGrid { rows, cols } => {
            Template::DelayRelay(onebit::grid_onebit(graph, rows, cols, source)?)
        }
        Scheme::UniqueIds => Template::Slotted(baselines::unique_ids(graph)?),
        Scheme::SquareColoring => Template::Slotted(baselines::square_coloring(graph)?.0),
        Scheme::MultiLambda { .. } => Template::Multi(multi::construct_with_coordinator(
            graph,
            sources,
            coordinator,
        )?),
        Scheme::Gossip => Template::Multi(gossip::construct_with_coordinator(graph, coordinator)?),
    };
    spans.push(timer.stop());
    Ok(template)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn instrumented_runs_report_identically_and_counters_match_trace() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 5).unwrap());
        for scheme in Scheme::GENERAL {
            let session = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
            let plain = session.run();
            let (report, metrics) = session.run_instrumented();
            assert_eq!(report, plain, "{}", scheme.name());
            let counters = metrics.counters.expect("sink installed");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                report.stats,
                "{}",
                scheme.name()
            );
            assert_eq!(
                metrics.counters_match_trace,
                Some(true),
                "{}",
                scheme.name()
            );
            for phase in [
                "plan_build",
                "coordinator",
                "labeling_construction",
                "template_build",
                "round_loop",
                "verify",
            ] {
                assert!(
                    metrics.span_nanos(phase).is_some(),
                    "{}: missing {phase} span",
                    scheme.name()
                );
            }
            assert!(metrics.peak_rss_kb > 0);
        }
    }

    #[test]
    fn traceless_instrumented_runs_carry_full_counter_backed_stats() {
        let g = Arc::new(generators::grid(4, 5));
        for engine in [Engine::ListenerCentric, Engine::EventDriven] {
            // Run-to-cap leaves a long quiet tail after completion, which
            // the event engine elides with tracing off — so the stats
            // comparison below also pins elided-span accounting against the
            // trace walk of the recorded run.
            let build = |trace: TracePolicy| {
                Session::builder(Scheme::Lambda, Arc::clone(&g))
                    .engine(engine)
                    .trace(trace)
                    .stop(StopPolicy::RunToCap)
                    .build()
                    .unwrap()
            };
            let (recorded, _) = build(TracePolicy::Recorded).run_instrumented();
            let (traceless, metrics) = build(TracePolicy::Disabled).run_instrumented();
            // With a sink installed, a trace-off run recovers the full
            // statistics from the counters instead of a bare round count.
            assert_eq!(traceless.stats, recorded.stats, "{engine:?}");
            // No trace, no cross-check.
            assert_eq!(metrics.counters_match_trace, None, "{engine:?}");
            let counters = metrics.counters.expect("sink installed");
            if engine == Engine::EventDriven {
                assert!(
                    counters.elided_rounds > 0,
                    "event engine should elide the quiet tail with tracing off"
                );
            }
        }
    }

    #[test]
    fn run_with_instrumented_mirrors_run_with_on_both_paths() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 5).unwrap());
        // Cached path (session's own source) and relabel path (λ is
        // source-dependent, so a different source rebuilds the labeling).
        let session = Session::builder(Scheme::Lambda, Arc::clone(&g))
            .build()
            .unwrap();
        for source in [0usize, 3] {
            let spec = RunSpec::new(source, 7);
            let plain = session.run_with(spec).unwrap();
            let (report, metrics) = session.run_with_instrumented(spec).unwrap();
            assert_eq!(report, plain, "source {source}");
            let counters = metrics.counters.expect("sink installed");
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                report.stats,
                "source {source}"
            );
            for phase in [
                "labeling_construction",
                "template_build",
                "round_loop",
                "verify",
            ] {
                assert!(
                    metrics.span_nanos(phase).is_some(),
                    "source {source}: missing {phase} span"
                );
            }
        }
        assert!(session.run_with_instrumented(RunSpec::new(99, 7)).is_err());
    }

    #[test]
    fn ack_and_arb_sessions_drive_only_their_frontier() {
        // B_ack and B_arb nodes act only around their own events, so the
        // fast engine parks them in between instead of stepping all n.
        let g = Arc::new(generators::path(64));
        let n = g.node_count() as u64;
        for scheme in [Scheme::LambdaAck, Scheme::LambdaArb] {
            let session = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
            let (report, metrics) = session.run_instrumented();
            let c = metrics.counters.unwrap();
            assert!(report.completed(), "{}", scheme.name());
            assert!(
                c.node_steps < report.rounds_executed * n,
                "{}: {} node steps in {} rounds",
                scheme.name(),
                c.node_steps,
                report.rounds_executed
            );
        }
    }

    #[test]
    fn run_report_display_summarizes_the_run() {
        let g = generators::grid(4, 5);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        let r = session.run();
        let text = r.to_string();
        assert!(text.contains("lambda"), "{text}");
        assert!(text.contains("20 nodes"), "{text}");
        assert!(
            text.contains(&format!("the paper's {}-round bound", 2 * 20 - 3)),
            "{text}"
        );
        assert!(text.contains("Delivery rate 100.0%"), "{text}");
        assert!(text.contains("0 fault events injected"), "{text}");
    }

    #[test]
    fn fault_free_reports_carry_trivial_robustness_columns() {
        let g = generators::grid(4, 5);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        let r = session.run();
        assert!(r.completed());
        assert!((r.delivery_rate - 1.0).abs() < 1e-12);
        assert_eq!(r.stalled_at, r.completion_round);
        assert_eq!(r.faults_injected, 0);
    }

    #[test]
    fn none_plan_sessions_report_byte_identically() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 5).unwrap());
        for scheme in Scheme::GENERAL {
            let plain = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
            let with_none = Session::builder(scheme, Arc::clone(&g))
                .faults(FaultPlan::none())
                .build()
                .unwrap();
            assert_eq!(plain.run(), with_none.run(), "{}", scheme.name());
        }
    }

    #[test]
    fn crashed_relay_starves_the_far_side_and_lowers_delivery_rate() {
        // Path 0..12 with source 0: node 5 dies immediately, so nodes 6..
        // can never be informed; 0..=4 still are. Eligible = 11 non-crashed
        // nodes, delivered = 5.
        let g = generators::path(12);
        let session = Session::builder(Scheme::Lambda, g)
            .faults(FaultPlan::none().crash(5, 1))
            .build()
            .unwrap();
        let r = session.run();
        assert!(!r.completed());
        assert_eq!(r.faults_injected, 1);
        assert!(r.informed_rounds[4].is_some());
        assert!(r.informed_rounds[6].is_none());
        assert!((r.delivery_rate - 5.0 / 11.0).abs() < 1e-12);
        assert_eq!(r.stalled_at, r.informed_rounds[4]);
    }

    #[test]
    fn repeated_faulted_runs_are_deterministic_and_engines_agree() {
        let g = Arc::new(generators::grid(3, 4));
        let plan = FaultPlan::none().crash(5, 3).jam(0, 2, 2).late_wake(11, 4);
        let build = |engine: Engine| {
            Session::builder(Scheme::Lambda, Arc::clone(&g))
                .faults(plan.clone())
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric);
        let a = reference.run();
        assert!(a.faults_injected > 0);
        let session = build(Engine::EventDriven);
        let b = session.run();
        assert_eq!(b, session.run(), "same session, same report");
        assert_eq!(b, a, "engines must agree under faults");
    }

    #[test]
    fn builder_rejects_fault_plans_targeting_missing_nodes() {
        let g = generators::path(3);
        let result = Session::builder(Scheme::Lambda, g)
            .faults(FaultPlan::none().crash(9, 1))
            .build();
        match result {
            Err(LabelingError::FaultTargetOutOfRange { node, node_count }) => {
                assert_eq!(node, 9);
                assert_eq!(node_count, 3);
            }
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("build accepted an out-of-range fault target"),
        }
    }

    #[test]
    fn lambda_session_matches_theorem_2_9() {
        let g = generators::grid(4, 5);
        let session = Session::builder(Scheme::Lambda, g)
            .source(7)
            .message(11)
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.scheme, "lambda");
        assert_eq!(r.label_length, 2);
        assert!(r.distinct_labels <= 4);
        assert!(r.completion_round.unwrap() <= 2 * 20 - 3);
        assert_eq!(r.informed_rounds[7], Some(0));
        assert!(r.stats.transmissions > 0);
        assert_eq!(r.coordinator, None);
    }

    #[test]
    fn repeated_runs_reuse_the_cached_labeling_and_agree() {
        // Every run builds its nodes from the session's plan, so a run from a
        // foreign source and message must report exactly what a session
        // built for that pair reports.
        let (foreign_source, foreign_message) = (11, 77);
        for (n, p, seed, source, message) in [(24, 0.15, 3, 5, 9), (30, 0.12, 5, 3, 42)] {
            let g = Arc::new(generators::gnp_connected(n, p, seed).unwrap());
            for scheme in Scheme::GENERAL {
                let at = format!("{} n={n}", scheme.name());
                let build = |source, message| {
                    Session::builder(scheme, Arc::clone(&g))
                        .source(source)
                        .message(message)
                        .build()
                        .unwrap()
                };
                let session = build(source, message);
                // The labeling is owned by the session: the same allocation
                // is observed before, between and after the runs.
                let labeling_before = session.labeling() as *const Labeling;
                let a = session.run();
                assert!(std::ptr::eq(labeling_before, session.labeling()), "{at}");
                let b = session.run();
                assert!(std::ptr::eq(labeling_before, session.labeling()), "{at}");
                assert_eq!(a, b, "{at}");
                let foreign = session
                    .run_with(RunSpec::new(foreign_source, foreign_message))
                    .unwrap();
                assert!(std::ptr::eq(labeling_before, session.labeling()), "{at}");
                assert_eq!(
                    foreign,
                    build(foreign_source, foreign_message).run(),
                    "{at}: foreign spec"
                );
            }
        }
    }

    #[test]
    fn ack_session_reports_the_ack_round() {
        let g = generators::cycle(11);
        let session = Session::builder(Scheme::LambdaAck, g)
            .source(3)
            .message(5)
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.completed());
        let t = r.completion_round.unwrap();
        let ack = r.ack_round.unwrap();
        assert!(ack > t);
        assert!(ack <= t + 11 - 2);
        assert_eq!(r.label_length, 3);
    }

    #[test]
    fn arb_session_runs_every_source_against_one_labeling() {
        let g = Arc::new(generators::gnp_connected(14, 0.25, 2).unwrap());
        let session = Session::builder(Scheme::LambdaArb, Arc::clone(&g))
            .coordinator(0)
            .message(77)
            .build()
            .unwrap();
        let labeling = session.labeling() as *const Labeling;
        for source in 0..g.node_count() {
            let r = session.run_with(RunSpec::new(source, 77)).unwrap();
            assert!(r.completion_round.is_some(), "source {source}");
            assert!(r.common_knowledge_round.is_some(), "source {source}");
            assert!(r.common_knowledge_round >= r.completion_round);
            assert_eq!(r.coordinator, Some(0));
            assert_eq!(r.label_length, 3);
        }
        assert!(std::ptr::eq(labeling, session.labeling()));
    }

    #[test]
    fn run_batch_matches_sequential_runs_in_order() {
        for (n, p, seed) in [(18, 0.2, 7), (20, 0.18, 11)] {
            let g = Arc::new(generators::gnp_connected(n, p, seed).unwrap());
            let session = Session::builder(Scheme::LambdaArb, Arc::clone(&g))
                .build()
                .unwrap();
            let specs: Vec<RunSpec> = (0..g.node_count())
                .map(|s| RunSpec::new(s, 40 + s as u64))
                .collect();
            let sequential: Vec<RunReport> = specs
                .iter()
                .map(|&spec| session.run_with(spec).unwrap())
                .collect();
            for threads in [1, 2, 4, 8] {
                let parallel = session.run_batch(&specs, threads).unwrap();
                assert_eq!(parallel.len(), sequential.len());
                for (p, s) in parallel.iter().zip(&sequential) {
                    let at = format!("n={n} threads={threads}");
                    assert_eq!(p.source, s.source, "{at}");
                    assert_eq!(p.completion_round, s.completion_round, "{at}");
                    assert_eq!(p.common_knowledge_round, s.common_knowledge_round, "{at}");
                    assert_eq!(p.informed_rounds, s.informed_rounds, "{at}");
                    assert_eq!(p.stats, s.stats, "{at}");
                }
            }
        }
    }

    /// Informed rounds read off a recorded trace, independently of node
    /// state: `nodes` run for `rounds` rounds under `plan` on a bare
    /// reference-engine simulator, and each node counts as informed from
    /// the first round it heard a message that `is_payload` says carries
    /// the source message.
    fn trace_informed_rounds<N: RadioNode>(
        graph: &Graph,
        nodes: Vec<N>,
        plan: &FaultPlan,
        source: NodeId,
        rounds: u64,
        is_payload: fn(&N::Msg) -> bool,
    ) -> Vec<Option<u64>> {
        let mut sim = Simulator::new(graph.clone(), nodes)
            .with_engine(Engine::ListenerCentric)
            .with_faults(plan);
        sim.run_rounds(rounds);
        verify::first_payload_rounds(sim.trace(), graph.node_count(), source, is_payload)
    }

    #[test]
    fn disabled_trace_still_tracks_informed_rounds() {
        use crate::baselines::SlottedMessage;
        use crate::messages::{BMessage, TaggedMessage, TaggedPayload};
        let workloads = [
            ("grid-4x5", generators::grid(4, 5), 7),
            ("path-16", generators::path(16), 0),
            ("path-16-mid", generators::path(16), 8),
            ("star-12", generators::star(12), 0),
            ("star-12-leaf", generators::star(12), 5),
            ("gnp-24", generators::gnp_connected(24, 0.12, 9).unwrap(), 3),
        ];
        let schemes = [
            Scheme::Lambda,
            Scheme::LambdaAck,
            Scheme::UniqueIds,
            Scheme::SquareColoring,
        ];
        let mut cases: Vec<(String, Scheme, Graph, NodeId, FaultPlan)> = Vec::new();
        for (name, g, source) in workloads {
            for scheme in schemes {
                cases.push((name.into(), scheme, g.clone(), source, FaultPlan::none()));
            }
        }
        cases.push((
            "cycle-10".into(),
            Scheme::OneBitCycle,
            generators::cycle(10),
            4,
            FaultPlan::none(),
        ));
        let crash_and_jam = FaultPlan::none().crash(12, 3).jam(2, 2, 3);
        for scheme in schemes {
            let (g, plan) = (generators::grid(4, 5), crash_and_jam.clone());
            cases.push(("grid-4x5-faulted".into(), scheme, g, 7, plan));
        }

        for (name, scheme, g, source, plan) in cases {
            let name = format!("{name}/{}", scheme.name());
            let recorded_session = Session::builder(scheme, g.clone())
                .source(source)
                .faults(plan.clone())
                .build()
                .unwrap();
            let with_trace = recorded_session.run();
            let without = Session::builder(scheme, g.clone())
                .source(source)
                .faults(plan.clone())
                .trace(TracePolicy::Disabled)
                .build()
                .unwrap()
                .run();
            let rounds = with_trace.rounds_executed;
            let spec = recorded_session.own_spec();
            let witnessed = match &recorded_session.template {
                Template::B(l) => {
                    let nodes = BNode::network(l, spec.source, spec.message);
                    let is_data: fn(&BMessage) -> bool = |m| matches!(m, BMessage::Data(_));
                    trace_informed_rounds(&g, nodes, &plan, source, rounds, is_data)
                }
                Template::Back(l) => {
                    let nodes = BackNode::network(l, spec.source, spec.message);
                    let is_data: fn(&TaggedMessage) -> bool =
                        |m| matches!(m.payload, TaggedPayload::Data(_));
                    trace_informed_rounds(&g, nodes, &plan, source, rounds, is_data)
                }
                Template::Slotted(l) => {
                    let nodes = SlottedNode::network(l, spec.source, spec.message);
                    let any: fn(&SlottedMessage) -> bool = |_| true;
                    trace_informed_rounds(&g, nodes, &plan, source, rounds, any)
                }
                Template::DelayRelay(l) => {
                    let nodes = DelayRelayNode::network(l, spec.source, spec.message);
                    let is_data: fn(&BMessage) -> bool = |m| matches!(m, BMessage::Data(_));
                    trace_informed_rounds(&g, nodes, &plan, source, rounds, is_data)
                }
                _ => unreachable!("{name}: no trace payload predicate"),
            };
            assert_eq!(with_trace.informed_rounds, witnessed, "{name}: recorded");
            assert_eq!(without.informed_rounds, witnessed, "{name}: disabled");
            assert_eq!(
                with_trace.completion_round, without.completion_round,
                "{name}"
            );
            assert_eq!(
                with_trace.rounds_executed, without.rounds_executed,
                "{name}"
            );
            assert_eq!(
                without.stats.transmissions, 0,
                "{name}: no trace, no tx stats"
            );
            assert_eq!(without.stats.rounds, without.rounds_executed, "{name}");
        }
    }

    #[test]
    fn baseline_sessions_complete_with_longer_labels() {
        let g = Arc::new(generators::grid(3, 4));
        let ids = Session::builder(Scheme::UniqueIds, Arc::clone(&g))
            .message(5)
            .build()
            .unwrap()
            .run();
        let colors = Session::builder(Scheme::SquareColoring, Arc::clone(&g))
            .message(5)
            .build()
            .unwrap()
            .run();
        let lambda = Session::builder(Scheme::Lambda, Arc::clone(&g))
            .message(5)
            .build()
            .unwrap()
            .run();
        assert!(ids.completed() && colors.completed() && lambda.completed());
        assert!(ids.label_length >= colors.label_length);
        assert!(ids.label_length > lambda.label_length);
        assert!(colors.label_length >= lambda.label_length || lambda.label_length == 2);
    }

    #[test]
    fn onebit_sessions_complete_on_their_classes() {
        let c = generators::cycle(10);
        let r = Session::builder(Scheme::OneBitCycle, c)
            .source(4)
            .message(3)
            .build()
            .unwrap()
            .run();
        assert!(r.completed());
        assert_eq!(r.label_length, 1);

        let g = generators::grid(3, 5);
        let r = Session::builder(Scheme::OneBitGrid { rows: 3, cols: 5 }, g)
            .source(7)
            .message(3)
            .build()
            .unwrap()
            .run();
        assert!(r.completed());
        assert_eq!(r.label_length, 1);
    }

    #[test]
    fn build_errors_propagate() {
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        for scheme in Scheme::GENERAL {
            assert!(
                Session::builder(scheme, disconnected.clone())
                    .build()
                    .is_err(),
                "{}",
                scheme.name()
            );
        }
        let g = generators::path(4);
        for scheme in [Scheme::Lambda, Scheme::LambdaArb, Scheme::UniqueIds] {
            assert!(
                Session::builder(scheme, g.clone())
                    .source(9)
                    .build()
                    .is_err(),
                "{}",
                scheme.name()
            );
        }
        assert!(Session::builder(Scheme::OneBitCycle, g).build().is_err());
    }

    #[test]
    fn run_with_rejects_out_of_range_sources() {
        let g = generators::path(6);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        assert!(matches!(
            session.run_with(RunSpec::new(99, 1)),
            Err(LabelingError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn run_with_relabels_for_a_source_dependent_scheme() {
        let g = generators::path(12);
        let session = Session::builder(Scheme::Lambda, g)
            .source(0)
            .build()
            .unwrap();
        let from_other_end = session.run_with(RunSpec::new(11, 4)).unwrap();
        assert!(from_other_end.completed());
        assert_eq!(from_other_end.informed_rounds[11], Some(0));
        // The session's own cache is untouched.
        assert_eq!(session.run().informed_rounds[0], Some(0));
    }

    #[test]
    fn fixed_round_cap_truncates_the_run() {
        let g = generators::path(20);
        let session = Session::builder(Scheme::Lambda, g)
            .round_cap(RoundCapPolicy::Fixed(3))
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.rounds_executed <= 3);
        assert!(!r.completed(), "a 20-path cannot finish in 3 rounds");
    }

    #[test]
    fn reference_engine_reports_match_the_fast_engine() {
        let g = Arc::new(generators::gnp_connected(20, 0.18, 11).unwrap());
        for scheme in Scheme::GENERAL {
            let build = |engine: Engine| {
                Session::builder(scheme, Arc::clone(&g))
                    .source(3)
                    .message(8)
                    .engine(engine)
                    .build()
                    .unwrap()
            };
            let reference = build(Engine::ListenerCentric).run();
            assert_eq!(
                build(Engine::EventDriven).run(),
                reference,
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn scratch_pool_recycles_buffers_across_runs() {
        let g = generators::grid(4, 4);
        let session = Session::builder(Scheme::Lambda, g).build().unwrap();
        assert!(session.scratch_pool.lock().unwrap().is_empty());
        session.run();
        assert_eq!(
            session.scratch_pool.lock().unwrap().len(),
            1,
            "a sequential run parks exactly one scratch"
        );
        session.run();
        session.run();
        assert_eq!(session.scratch_pool.lock().unwrap().len(), 1);

        let specs: Vec<RunSpec> = (0..16).map(|s| RunSpec::new(s, 2)).collect();
        let threads = 4;
        session.run_batch(&specs, threads).unwrap();
        let pooled = session.scratch_pool.lock().unwrap().len();
        assert!(
            (1..=threads).contains(&pooled),
            "pool bounded by concurrency, got {pooled}"
        );
    }

    #[test]
    fn multi_session_delivers_every_message_to_every_node() {
        let g = Arc::new(generators::grid(4, 5));
        let session = Session::builder(Scheme::MultiLambda { k: 3 }, Arc::clone(&g))
            .sources(&[19, 0, 7])
            .message(100)
            .build()
            .unwrap();
        assert_eq!(session.sources(), &[0, 7, 19], "sorted and deduplicated");
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.scheme, "multi_lambda");
        assert_eq!(r.label_length, 2, "the λ half stays 2 bits");
        assert_eq!(r.sources, vec![0, 7, 19]);
        assert_eq!(r.source, 0);
        assert!(r.coordinator.is_some());
        let per_message = r.message_completion_rounds.as_ref().unwrap();
        assert_eq!(per_message.len(), 3);
        for &(s, round) in per_message {
            assert!(r.sources.contains(&s));
            let round = round.expect("every message fully propagates");
            assert!(round <= r.completion_round.unwrap());
        }
        assert!(per_message
            .iter()
            .any(|&(_, round)| round == r.completion_round));
        // Every node ends fully informed, in a round <= completion.
        assert!(r.informed_rounds.iter().all(Option::is_some));
    }

    #[test]
    fn multi_session_spreads_default_sources() {
        let g = generators::cycle(12);
        let session = Session::builder(Scheme::MultiLambda { k: 4 }, g)
            .build()
            .unwrap();
        assert_eq!(session.sources(), &[0, 3, 6, 9]);
        assert!(session.run().completed());
        // k beyond n clamps to one source per node.
        let small = Session::builder(Scheme::MultiLambda { k: 99 }, generators::path(5))
            .build()
            .unwrap();
        assert_eq!(small.sources(), &[0, 1, 2, 3, 4]);
        assert!(small.run().completed());
    }

    #[test]
    fn multi_session_reuses_the_cached_labeling_for_every_spec() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 4).unwrap());
        let session = Session::builder(Scheme::MultiLambda { k: 2 }, Arc::clone(&g))
            .build()
            .unwrap();
        let labeling = session.labeling() as *const Labeling;
        let a = session.run();
        let b = session.run_with(RunSpec::new(5, 1)).unwrap();
        assert!(std::ptr::eq(labeling, session.labeling()));
        // The per-run source is irrelevant to a multi run: the source set is
        // fixed at build time.
        assert_eq!(a, b);
        let c = session.run_with_message(900).unwrap();
        assert_eq!(a.completion_round, c.completion_round);
        assert_ne!(a.message, c.message);
    }

    #[test]
    fn multi_engines_agree() {
        let g = Arc::new(generators::gnp_connected(24, 0.15, 6).unwrap());
        for k in [2usize, 4, 8] {
            let build = |engine: Engine| {
                Session::builder(Scheme::MultiLambda { k }, Arc::clone(&g))
                    .message(50)
                    .engine(engine)
                    .build()
                    .unwrap()
            };
            let reference = build(Engine::ListenerCentric).run();
            assert!(reference.completed(), "k = {k}");
            assert_eq!(build(Engine::EventDriven).run(), reference, "k = {k}");
        }
    }

    #[test]
    fn multi_single_source_matches_lambda_times_when_colocated() {
        // k = 1 with the source as its own coordinator degenerates to
        // Algorithm B: same completion round as a λ session from there.
        let g = Arc::new(generators::grid(4, 4));
        let multi = Session::builder(Scheme::MultiLambda { k: 1 }, Arc::clone(&g))
            .sources(&[5])
            .coordinator(5)
            .message(42)
            .build()
            .unwrap();
        let lambda = Session::builder(Scheme::Lambda, Arc::clone(&g))
            .source(5)
            .message(42)
            .build()
            .unwrap();
        assert_eq!(multi.run().completion_round, lambda.run().completion_round);
    }

    #[test]
    fn multi_build_errors() {
        let g = generators::path(6);
        assert!(matches!(
            Session::builder(Scheme::MultiLambda { k: 0 }, g.clone()).build(),
            Err(LabelingError::NoSources)
        ));
        assert!(matches!(
            Session::builder(Scheme::MultiLambda { k: 2 }, g.clone())
                .sources(&[0, 9])
                .build(),
            Err(LabelingError::SourceOutOfRange { source: 9, .. })
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(Session::builder(Scheme::MultiLambda { k: 2 }, disconnected)
            .build()
            .is_err());
    }

    #[test]
    fn multi_scheme_parses() {
        assert_eq!(
            Scheme::parse("multi_lambda:4").unwrap(),
            Scheme::MultiLambda { k: 4 }
        );
        assert_eq!(
            Scheme::parse("multi_lambda").unwrap(),
            Scheme::MultiLambda { k: 2 }
        );
        assert_eq!(Scheme::MultiLambda { k: 7 }.name(), "multi_lambda");
        for bad in ["multi_lambda:0", "multi_lambda:x", "multi_lambdas"] {
            assert!(Scheme::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gossip_session_delivers_every_message_to_every_node() {
        let g = Arc::new(generators::grid(4, 5));
        let n = g.node_count();
        let session = Session::builder(Scheme::Gossip, Arc::clone(&g))
            .message(100)
            .build()
            .unwrap();
        assert_eq!(session.sources(), (0..n).collect::<Vec<_>>().as_slice());
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.scheme, "gossip");
        assert_eq!(r.label_length, 2, "the λ half stays 2 bits");
        assert_eq!(r.sources.len(), n, "every node is a source");
        assert_eq!(r.source, 0);
        assert!(r.coordinator.is_some());
        // Linear total time: 2(n-1) collection + 2n-3 broadcast.
        assert!(r.completion_round.unwrap() <= 4 * n as u64 - 5);
        let per_message = r.message_completion_rounds.as_ref().unwrap();
        assert_eq!(per_message.len(), n, "one completion round per message");
        for (j, &(s, round)) in per_message.iter().enumerate() {
            assert_eq!(s, j, "message j belongs to node j");
            let round = round.expect("every message fully propagates");
            assert!(round <= r.completion_round.unwrap());
        }
        assert!(per_message
            .iter()
            .any(|&(_, round)| round == r.completion_round));
        assert!(r.informed_rounds.iter().all(Option::is_some));
    }

    #[test]
    fn gossip_session_ignores_per_run_source_and_reuses_the_labeling() {
        let g = Arc::new(generators::gnp_connected(20, 0.2, 4).unwrap());
        let session = Session::builder(Scheme::Gossip, Arc::clone(&g))
            .build()
            .unwrap();
        let labeling = session.labeling() as *const Labeling;
        let a = session.run();
        let b = session.run_with(RunSpec::new(5, 1)).unwrap();
        assert!(std::ptr::eq(labeling, session.labeling()));
        assert_eq!(a, b, "the source set is fixed: every node");
        let c = session.run_with_message(900).unwrap();
        assert_eq!(a.completion_round, c.completion_round);
        assert_ne!(a.message, c.message);
    }

    #[test]
    fn gossip_engines_agree() {
        let g = Arc::new(generators::gnp_connected(24, 0.15, 6).unwrap());
        let build = |engine: Engine| {
            Session::builder(Scheme::Gossip, Arc::clone(&g))
                .message(50)
                .engine(engine)
                .build()
                .unwrap()
        };
        let reference = build(Engine::ListenerCentric).run();
        assert!(reference.completed());
        assert_eq!(build(Engine::EventDriven).run(), reference);
    }

    #[test]
    fn gossip_single_node_is_trivially_complete() {
        let session = Session::builder(Scheme::Gossip, generators::path(1))
            .build()
            .unwrap();
        let r = session.run();
        assert!(r.completed());
        assert_eq!(r.message_completion_rounds, Some(vec![(0, Some(0))]));
    }

    #[test]
    fn gossip_build_errors() {
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(Session::builder(Scheme::Gossip, disconnected)
            .build()
            .is_err());
        let g = generators::path(6);
        assert!(matches!(
            Session::builder(Scheme::Gossip, g).coordinator(9).build(),
            Err(LabelingError::SourceOutOfRange { source: 9, .. })
        ));
    }

    #[test]
    fn gossip_scheme_parses() {
        assert_eq!(Scheme::parse("gossip").unwrap(), Scheme::Gossip);
        assert_eq!(Scheme::Gossip.name(), "gossip");
        for bad in ["gossip:2", "gossips", "gos"] {
            assert!(Scheme::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_error_lists_every_valid_scheme_name() {
        // The error must teach the caller the full menu, not only reject.
        let err = Scheme::parse("no_such_scheme").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_scheme"));
        for name in Scheme::VALID_NAMES {
            assert!(msg.contains(name), "message must list {name:?}: {msg}");
        }
        for scheme in Scheme::GENERAL {
            assert!(
                msg.contains(scheme.name()),
                "message must cover {:?}",
                scheme.name()
            );
        }
        assert!(msg.contains("gossip"));
        assert!(msg.contains("onebit_cycle"));
    }

    #[test]
    fn scheme_parse_round_trips_every_name() {
        for scheme in Scheme::GENERAL {
            assert_eq!(Scheme::parse(scheme.name()).unwrap(), scheme);
        }
        assert_eq!(Scheme::parse("onebit_cycle").unwrap(), Scheme::OneBitCycle);
        assert_eq!(
            Scheme::parse("onebit_grid:4x5").unwrap(),
            Scheme::OneBitGrid { rows: 4, cols: 5 }
        );
        assert_eq!("lambda".parse::<Scheme>().unwrap(), Scheme::Lambda);
    }

    #[test]
    fn scheme_parse_rejects_unknown_and_malformed() {
        for bad in [
            "",
            "lambda2",
            "onebit_grid",
            "onebit_grid:4",
            "onebit_grid:axb",
        ] {
            let err = Scheme::parse(bad).unwrap_err();
            assert_eq!(err.input, bad);
            assert!(err.to_string().contains("unknown scheme"));
        }
    }

    #[test]
    fn scheme_names_are_distinct_and_stable() {
        let mut names: Vec<&str> = Scheme::GENERAL.iter().map(Scheme::name).collect();
        names.push(Scheme::OneBitCycle.name());
        names.push(Scheme::OneBitGrid { rows: 2, cols: 2 }.name());
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
