//! Declarative scenario sweeps: (families × sizes × schemes × seeds) through
//! the [`Session`] API into machine-readable reports.
//!
//! A [`SweepSpec`] names the full cross product once; [`SweepSpec::run`]
//! generates every instance through the [`TopologyFamily`] registry, drives
//! the runs through [`Session::run_batch`], and collects one flat
//! [`SweepRecord`] per execution — rounds to completion, collision and
//! transmission counts, label lengths — into a [`SweepReport`] that renders
//! as an aligned text table ([`SweepReport::summary_table`]) or serialises
//! to JSON / CSV (see [`crate::emit`]).
//!
//! Determinism contract: instances come from explicit seeds, jobs fan out
//! over [`rn_radio::batch::run_parallel`] which returns results in job
//! order, and every record carries the family parameters that produced it —
//! so a report is exactly reproducible from its own metadata, regardless of
//! the thread count.
//!
//! The named sweeps ([`named`], [`sweep_names`]) are the repository's
//! standard workloads; the `sweep` binary exposes them on the command line:
//!
//! ```text
//! cargo run -p rn-experiments --bin sweep -- radio --json report.json
//! ```

use crate::faults::FaultSpec;
use crate::stats::Summary;
use crate::telemetry::SweepTelemetry;
use crate::Table;
use rn_broadcast::session::{RunReport, RunSpec, Scheme, Session, TracePolicy};
use rn_graph::generators::TopologyFamily;
use rn_graph::{Graph, GraphError};
use rn_labeling::{Label, LabelingError};
use rn_radio::{Engine, FaultPlan};
use rn_telemetry::RunMetrics;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A declarative sweep: the cross product of families × sizes × schemes ×
/// seeds, plus execution knobs. Build one with [`SweepSpec::new`] and the
/// with-style setters, or take a prebuilt one from [`named`].
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (used in report metadata and output file defaults).
    pub name: String,
    /// Topology families to instantiate.
    pub families: Vec<TopologyFamily>,
    /// Requested node counts (families round to achievable sizes).
    pub sizes: Vec<usize>,
    /// Labeling schemes to execute on every instance.
    pub schemes: Vec<Scheme>,
    /// Instance seeds (each seed is one instance of a randomised family).
    pub seeds: Vec<u64>,
    /// Fault presets applied as a sweep axis: every run executes once per
    /// preset, each resolved deterministically against the instance (see
    /// [`FaultSpec::resolve`]). Defaults to `[FaultSpec::None]`, which
    /// resolves to the empty plan — the simulator then takes its exact
    /// fault-free code paths, so reports stay byte-identical to a sweep
    /// without the axis.
    pub faults: Vec<FaultSpec>,
    /// Broadcast sources per instance, spread evenly over the node range;
    /// the runs of one instance go through [`Session::run_batch`]. Requests
    /// beyond the instance size collapse to one run per node (see
    /// [`sources_for`](Self::sources_for)).
    pub sources_per_point: usize,
    /// Worker threads for the sweep (`<= 1` runs inline; `0` — the
    /// constructor default — resolves at run time to the batch-aware
    /// [`rn_radio::batch::default_threads_for`], honouring `RN_THREADS`).
    pub threads: usize,
    /// Whether to record execution traces. Traces cost memory and time but
    /// provide the collision / transmission statistics; without them those
    /// columns are zero.
    pub record_traces: bool,
    /// Whether to statically certify every point before trusting its
    /// simulation: each run is preflighted through
    /// [`rn_analyze::analyze_and_cross_check`], so a labeling violation or
    /// any static-vs-dynamic disagreement aborts the sweep with
    /// [`SweepError::Static`] instead of silently producing wrong rows.
    /// Certified runs carry the analyzer's exact prediction in
    /// [`SweepRecord::predicted_completion_round`]. The 1-bit delay-relay
    /// schemes are outside the analyzer's scope and are skipped.
    pub verify_static: bool,
    /// Simulator delivery engine every run executes on (default
    /// [`Engine::EventDriven`], the fast engine). The engine never changes
    /// the physics, only how fast rounds are driven, so reports produced
    /// under the two engines must be identical — the CI equivalence gate
    /// runs the same sweep on the reference and the fast engine and `cmp`s
    /// the reports byte for byte (the engine is deliberately left out of
    /// the serialised spec metadata for exactly that comparison).
    pub engine: Engine,
}

impl SweepSpec {
    /// Creates a spec with one source per point, tracing on, and the batch
    /// executor's default thread count (resolved against the actual job
    /// count when the sweep runs).
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            families: Vec::new(),
            sizes: Vec::new(),
            schemes: Vec::new(),
            seeds: Vec::new(),
            faults: vec![FaultSpec::None],
            sources_per_point: 1,
            threads: 0,
            record_traces: true,
            verify_static: false,
            engine: Engine::default(),
        }
    }

    /// Sets the families.
    pub fn families(mut self, families: &[TopologyFamily]) -> Self {
        self.families = families.to_vec();
        self
    }

    /// Sets the sizes.
    pub fn sizes(mut self, sizes: &[usize]) -> Self {
        self.sizes = sizes.to_vec();
        self
    }

    /// Sets the schemes.
    pub fn schemes(mut self, schemes: &[Scheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Sets the seeds.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the fault presets (an empty slice resets to the fault-free
    /// default, so the axis always has at least one value).
    pub fn faults(mut self, faults: &[FaultSpec]) -> Self {
        self.faults = if faults.is_empty() {
            vec![FaultSpec::None]
        } else {
            faults.to_vec()
        };
        self
    }

    /// Sets the number of sources per instance.
    pub fn sources_per_point(mut self, sources: usize) -> Self {
        self.sources_per_point = sources.max(1);
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables trace recording.
    pub fn record_traces(mut self, record: bool) -> Self {
        self.record_traces = record;
        self
    }

    /// Enables or disables the static certification preflight (see the
    /// [`verify_static`](Self::verify_static) field).
    pub fn verify_static(mut self, verify: bool) -> Self {
        self.verify_static = verify;
        self
    }

    /// Sets the simulator delivery engine (see the
    /// [`engine`](Self::engine) field).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Shrinks the spec for a fast smoke run: sizes capped at 32, first two
    /// seeds, one source per point. Families and schemes are untouched, so
    /// coverage (the point of a smoke run) is preserved.
    pub fn quick(mut self) -> Self {
        self.sizes.retain(|&n| n <= 32);
        if self.sizes.is_empty() {
            self.sizes.push(16);
        }
        self.seeds.truncate(2);
        if self.seeds.is_empty() {
            self.seeds.push(1);
        }
        self.sources_per_point = 1;
        self
    }

    /// Number of (family, size, seed) instance points.
    pub fn instance_count(&self) -> usize {
        self.families.len() * self.sizes.len() * self.seeds.len()
    }

    /// The number of distinct sources an instance of `n` nodes actually
    /// runs, which `run_point` spreads evenly over the node range: at least
    /// one, and at most `n` — asking for more cannot produce more runs.
    pub fn sources_for(&self, n: usize) -> usize {
        self.sources_per_point.max(1).min(n.max(1))
    }

    /// Total number of simulated executions the sweep will run.
    ///
    /// Uses the real per-instance run count — `sources_for(n)` per
    /// single-source scheme, always 1 per multi-message scheme
    /// (`multi_lambda`, gossip — whose source sets are fixed at build time,
    /// so `run_point` never fans them out) — so progress totals and
    /// `--quick` estimates match the records actually produced (families
    /// that round the requested size to an achievable shape can still shift
    /// the exact figure slightly).
    pub fn run_count(&self) -> usize {
        let per_scheme_runs = |n: usize| -> usize {
            self.schemes
                .iter()
                .map(|s| {
                    if s.is_multi_message() {
                        1
                    } else {
                        self.sources_for(n)
                    }
                })
                .sum()
        };
        let per_size: usize = self.sizes.iter().map(|&n| per_scheme_runs(n)).sum();
        self.families.len() * self.seeds.len() * per_size * self.faults.len().max(1)
    }

    /// Runs the sweep. See the [module docs](self) for the determinism
    /// contract.
    ///
    /// Returns an error if any instance cannot be generated or labeled —
    /// that is a spec bug (e.g. a scheme restricted to cycles inside a
    /// general sweep), not a measurement.
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        self.run_with_telemetry(None)
    }

    /// Runs the sweep with an optional streaming telemetry observer.
    ///
    /// With `Some(telemetry)`, every job emits `job_start`/`job_finish`
    /// events, every executed run is instrumented
    /// ([`Session::run_with_instrumented`]) and emits a `point` event
    /// carrying its deterministic counters and phase spans, and the sweep is
    /// bracketed by `sweep_start`/`sweep_finish`. The records — and
    /// therefore the JSON/CSV reports — are **byte-identical** to a plain
    /// [`run`](Self::run): telemetry observes executions, it never alters
    /// them (counters corroborate the trace-derived columns; timings live
    /// only in the sidecar stream).
    ///
    /// # Errors
    /// Same contract as [`run`](Self::run).
    pub fn run_with_telemetry(
        &self,
        telemetry: Option<&SweepTelemetry>,
    ) -> Result<SweepReport, SweepError> {
        if let Some(t) = telemetry {
            t.sweep_start(
                &self.name,
                self.instance_count(),
                self.run_count(),
                self.engine,
            );
        }
        let results = fan_out(
            &self.families,
            &self.sizes,
            &self.seeds,
            self.threads,
            telemetry,
            |instance| run_point(self, &instance, telemetry),
        );
        let mut records = Vec::with_capacity(self.run_count());
        let mut histograms: BTreeMap<&'static str, BTreeMap<usize, u64>> = BTreeMap::new();
        for result in results {
            let point = result??;
            for (scheme_name, lengths) in point.label_lengths {
                let hist = histograms.entry(scheme_name).or_default();
                for len in lengths {
                    *hist.entry(len).or_insert(0) += 1;
                }
            }
            records.extend(point.records);
        }
        if let Some(t) = telemetry {
            t.sweep_finish(records.len());
        }
        Ok(SweepReport {
            name: self.name.clone(),
            spec: self.clone(),
            records,
            label_length_histograms: histograms,
        })
    }
}

/// One generated instance of a (family × size × seed) grid, as [`fan_out`]
/// hands it to the measurement.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Registry family the instance was drawn from.
    pub family: TopologyFamily,
    /// Requested node count (families round it; read the actual one off
    /// `graph`).
    pub n: usize,
    /// Instance seed.
    pub seed: u64,
    /// The generated, connectivity-checked graph, shared (not cloned) by
    /// every session built on it.
    pub graph: Arc<Graph>,
}

/// Runs `measure` on every instance of the (family × size × seed) grid: the
/// one job loop behind [`SweepSpec::run`] and the paper-table
/// [`experiments`](crate::experiments).
///
/// Jobs are built family-major, then size, then seed, and fan out over
/// [`rn_radio::batch::run_parallel`] with `threads` workers (`0` resolves
/// to [`rn_radio::batch::default_threads_for`] the job count). Results come
/// back in job order, so they never depend on the thread count. Each job
/// generates its instance through [`TopologyFamily::generate`]; a failure
/// fills that job's slot with [`SweepError::Generate`]. With telemetry,
/// `job_start`/`job_finish` bracket every job, generation included.
pub fn fan_out<R, F>(
    families: &[TopologyFamily],
    sizes: &[usize],
    seeds: &[u64],
    threads: usize,
    telemetry: Option<&SweepTelemetry>,
    measure: F,
) -> Vec<Result<R, SweepError>>
where
    R: Send,
    F: Fn(Instance) -> R + Sync,
{
    let mut jobs = Vec::with_capacity(families.len() * sizes.len() * seeds.len());
    for &family in families {
        for &n in sizes {
            for &seed in seeds {
                jobs.push((family, n, seed));
            }
        }
    }
    let threads = if threads == 0 {
        rn_radio::batch::default_threads_for(jobs.len())
    } else {
        threads
    };
    rn_radio::batch::run_parallel(jobs, threads, |(family, n, seed)| {
        if let Some(t) = telemetry {
            t.job_start(family.name(), n, seed);
        }
        let result = match family.generate(n, seed) {
            Ok(graph) => Ok(measure(Instance {
                family,
                n,
                seed,
                graph: Arc::new(graph),
            })),
            Err(source) => Err(SweepError::Generate {
                family: family.name().to_string(),
                n,
                seed,
                source,
            }),
        };
        if let Some(t) = telemetry {
            t.job_finish(family.name(), n, seed);
        }
        result
    })
}

/// What went wrong while running a sweep point.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// Instance generation failed.
    Generate {
        /// Family that failed.
        family: String,
        /// Requested size.
        n: usize,
        /// Instance seed.
        seed: u64,
        /// Underlying graph error.
        source: GraphError,
    },
    /// Session construction (labeling) failed.
    Label {
        /// Family of the instance.
        family: String,
        /// Scheme that failed to label it.
        scheme: &'static str,
        /// Actual node count of the instance.
        n: usize,
        /// Underlying labeling error.
        source: LabelingError,
    },
    /// The static certification preflight rejected a point: the analyzer
    /// found a labeling/schedule violation, or its exact predictions
    /// disagreed with the simulated report.
    Static {
        /// Family of the instance.
        family: String,
        /// Scheme whose certification failed.
        scheme: &'static str,
        /// Actual node count of the instance.
        n: usize,
        /// The located findings, rendered one per `; `-joined clause.
        detail: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Generate {
                family,
                n,
                seed,
                source,
            } => write!(f, "generating {family} (n = {n}, seed = {seed}): {source}"),
            SweepError::Label {
                family,
                scheme,
                n,
                source,
            } => write!(f, "labeling {family} (n = {n}) with {scheme}: {source}"),
            SweepError::Static {
                family,
                scheme,
                n,
                detail,
            } => write!(
                f,
                "static certification of {family} (n = {n}) with {scheme} failed: {detail}"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// One executed run inside a sweep: the flat, serialisable row every report
/// format (table, JSON, CSV) is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Registry name of the topology family.
    pub family: &'static str,
    /// Family parameters as a `key=value` string (empty if parameterless).
    pub family_params: String,
    /// Requested node count.
    pub n_requested: usize,
    /// Actual node count of the generated instance.
    pub n: usize,
    /// Edge count of the instance.
    pub edges: usize,
    /// Maximum degree Δ of the instance.
    pub max_degree: usize,
    /// Average degree of the instance.
    pub avg_degree: f64,
    /// Instance seed.
    pub seed: u64,
    /// Scheme name.
    pub scheme: &'static str,
    /// Broadcast source of this run (the first designated source for a
    /// multi-broadcast run).
    pub source: usize,
    /// Number of designated sources: 1 for the single-source schemes, k for
    /// `multi_lambda` runs.
    pub k_sources: usize,
    /// Multi-broadcast only: per message (in sorted source order), the
    /// round by which every node held it — `None` entries never fully
    /// propagated. Empty for single-source runs.
    pub message_completion_rounds: Vec<Option<u64>>,
    /// Label length of the scheme on this instance (max bits).
    pub label_length: usize,
    /// Number of distinct labels used.
    pub distinct_labels: usize,
    /// Round by which every node was informed, if broadcast completed.
    pub completion_round: Option<u64>,
    /// The static analyzer's exact predicted completion round, when the
    /// sweep ran with [`SweepSpec::verify_static`] and the scheme is in the
    /// analyzer's scope. A certified record always has this equal to
    /// `completion_round` — the preflight aborts the sweep otherwise.
    pub predicted_completion_round: Option<u64>,
    /// Rounds the simulation executed (including the quiet tail).
    pub rounds_executed: u64,
    /// Total transmissions (0 when traces are disabled).
    pub transmissions: usize,
    /// Total (node, round) collision events (0 when traces are disabled).
    pub collisions: usize,
    /// Rounds in which nobody transmitted (0 when traces are disabled).
    pub silent_rounds: u64,
    /// Name of the fault preset this run executed under (`"none"` for a
    /// fault-free run).
    pub fault_spec: String,
    /// Fraction of non-crashed nodes informed by the end of the run
    /// (1.0 for every completed fault-free run).
    pub delivery_rate: f64,
    /// The last round in which any node became informed — where progress
    /// stopped, whether or not the broadcast completed.
    pub stalled_at: Option<u64>,
    /// Number of scheduled fault events that took effect within the
    /// executed rounds (0 for fault-free runs).
    pub faults_injected: usize,
}

impl SweepRecord {
    fn from_report(instance: &Instance, report: &RunReport, fault_spec: &FaultSpec) -> Self {
        let graph = &instance.graph;
        SweepRecord {
            family: instance.family.name(),
            family_params: instance.family.params(),
            n_requested: instance.n,
            n: report.node_count,
            edges: graph.edge_count(),
            max_degree: graph.max_degree(),
            avg_degree: graph.average_degree(),
            seed: instance.seed,
            scheme: report.scheme,
            source: report.source,
            k_sources: report.sources.len().max(1),
            message_completion_rounds: report
                .message_completion_rounds
                .as_ref()
                .map(|per_message| per_message.iter().map(|&(_, round)| round).collect())
                .unwrap_or_default(),
            label_length: report.label_length,
            distinct_labels: report.distinct_labels,
            completion_round: report.completion_round,
            predicted_completion_round: None,
            rounds_executed: report.rounds_executed,
            transmissions: report.stats.transmissions,
            collisions: report.stats.collisions,
            silent_rounds: report.stats.silent_rounds,
            fault_spec: fault_spec.to_string(),
            delivery_rate: report.delivery_rate,
            stalled_at: report.stalled_at,
            faults_injected: report.faults_injected,
        }
    }

    /// Whether this run informed every node.
    pub fn completed(&self) -> bool {
        self.completion_round.is_some()
    }
}

/// The per-instance result bundle produced by one parallel job.
struct PointResult {
    records: Vec<SweepRecord>,
    /// Per-node label bit-lengths, per scheme, for the histograms.
    label_lengths: Vec<(&'static str, Vec<usize>)>,
}

/// Runs every spec through the session, instrumenting each run when the
/// sweep streams telemetry.
///
/// Both arms execute the specs sequentially in spec order — `run_batch`
/// with `threads = 1` runs inline, and the instrumented loop drives
/// [`Session::run_with_instrumented`] spec by spec — so the reports (and
/// therefore the sweep records) are identical whether or not telemetry is
/// attached; instrumentation only adds the per-run [`RunMetrics`] column.
fn execute_specs(
    session: &Session,
    specs: &[RunSpec],
    instrument: bool,
) -> Result<(Vec<RunReport>, Vec<Option<RunMetrics>>), LabelingError> {
    if instrument {
        let mut reports = Vec::with_capacity(specs.len());
        let mut metrics = Vec::with_capacity(specs.len());
        for &spec in specs {
            let (report, m) = session.run_with_instrumented(spec)?;
            reports.push(report);
            metrics.push(Some(m));
        }
        Ok((reports, metrics))
    } else {
        let reports = session.run_batch(specs, 1)?;
        let metrics = reports.iter().map(|_| None).collect();
        Ok((reports, metrics))
    }
}

/// The fault axis of a spec whose `faults` field was emptied by hand.
const FAULT_FREE: [FaultSpec; 1] = [FaultSpec::None];

/// Executes every scheme on one instance, once per fault preset.
fn run_point(
    spec: &SweepSpec,
    instance: &Instance,
    telemetry: Option<&SweepTelemetry>,
) -> Result<PointResult, SweepError> {
    let (family, seed, graph) = (instance.family, instance.seed, &instance.graph);
    let trace = if spec.record_traces {
        TracePolicy::Recorded
    } else {
        TracePolicy::Disabled
    };
    let fault_specs: &[FaultSpec] = if spec.faults.is_empty() {
        &FAULT_FREE
    } else {
        &spec.faults
    };
    let actual_n = graph.node_count();
    // `sources_for(actual_n)` distinct sources (at least one, even for a
    // hand-built spec with `sources_per_point: 0`; at most one per node,
    // so the steps below never repeat a node) spread evenly over the
    // node range. The first is node 0, which every registry family
    // builds as its natural hard case: the path end, the grid corner,
    // the hub of stars and star-of-cliques, a clique node of lollipops
    // and barbells.
    let spread = spec.sources_for(actual_n);
    let source_nodes: Vec<usize> = (0..spread).map(|i| i * actual_n / spread).collect();
    let mut records = Vec::new();
    let mut label_lengths = Vec::new();
    for &scheme in &spec.schemes {
        let label_err = |source: rn_labeling::LabelingError| SweepError::Label {
            family: family.name().to_string(),
            scheme: scheme.name(),
            n: actual_n,
            source,
        };
        // For source-dependent schemes every extra source means a fresh
        // labeling; build a session per source so the histograms count
        // every labeling actually executed. Source-independent schemes run
        // all sources through one session's cached labeling.
        let session_sources: &[usize] =
            if scheme.labeling_depends_on_source() && source_nodes.len() > 1 {
                &source_nodes
            } else {
                &source_nodes[..1]
            };
        for (preset_index, fspec) in fault_specs.iter().enumerate() {
            // A fault plan never changes the labeling, so the histograms
            // count each labeling once (under the first preset only).
            let first_preset = preset_index == 0;
            // Builds one session from `source` under `plan`, runs `specs`
            // on it and records every run. `count_labels` adds the
            // session's labeling to the histograms; `certify` runs the
            // static preflight on each report.
            let mut run_session = |source, plan, specs: &[RunSpec], count_labels, certify| {
                let session = Session::builder(scheme, Arc::clone(graph))
                    .source(source)
                    .trace(trace)
                    .engine(spec.engine)
                    .faults(plan)
                    .build()
                    .map_err(label_err)?;
                if count_labels {
                    let lengths = session.labeling().labels().iter().map(Label::len);
                    label_lengths.push((scheme.name(), lengths.collect()));
                }
                // The point itself is one parallel job, so the inner batch
                // runs inline (threads = 1); parallelism lives at the
                // instance level.
                let (reports, run_metrics) =
                    execute_specs(&session, specs, telemetry.is_some()).map_err(label_err)?;
                for (report, metrics) in reports.iter().zip(&run_metrics) {
                    let mut record = SweepRecord::from_report(instance, report, fspec);
                    if certify {
                        let cert = rn_analyze::analyze_and_cross_check(&session, report).map_err(
                            |findings| SweepError::Static {
                                family: family.name().to_string(),
                                scheme: scheme.name(),
                                n: actual_n,
                                detail: findings
                                    .iter()
                                    .map(std::string::ToString::to_string)
                                    .collect::<Vec<_>>()
                                    .join("; "),
                            },
                        )?;
                        record.predicted_completion_round = cert.completion_round;
                    }
                    if let Some(t) = telemetry {
                        t.point(&record, metrics.as_ref());
                    }
                    records.push(record);
                }
                Ok::<(), SweepError>(())
            };
            if *fspec == FaultSpec::None {
                // The 1-bit delay-relay schemes are outside the analyzer's
                // scope (rn_analyze reports them Unsupported), so the
                // preflight skips them rather than failing the sweep.
                let certify = spec.verify_static
                    && !matches!(scheme, Scheme::OneBitCycle | Scheme::OneBitGrid { .. });
                for &source in session_sources {
                    // A multi-message run (multi_lambda, gossip) ignores the
                    // per-spec source (its source *set* is fixed at build
                    // time), so fanning the spread sources out would only
                    // duplicate identical rows: it runs once.
                    let one_run = scheme.is_multi_message();
                    let specs: Vec<RunSpec> = if one_run || session_sources.len() > 1 {
                        vec![RunSpec::new(source, 7)]
                    } else {
                        source_nodes.iter().map(|&s| RunSpec::new(s, 7)).collect()
                    };
                    run_session(source, FaultPlan::none(), &specs, first_preset, certify)?;
                }
            } else {
                // Faulted runs: the resolved plan is source-aware (it never
                // targets the run's source), so every run gets its own
                // session, whether or not the labeling depends on the
                // source. The static preflight is skipped here by design —
                // the analyzer certifies the fault-free timeline, which a
                // perturbing fault is *supposed* to diverge from (the
                // `analyze --faults` gate asserts exactly that divergence).
                let run_sources = if scheme.is_multi_message() {
                    &source_nodes[..1]
                } else {
                    &source_nodes
                };
                for &source in run_sources {
                    let count_labels = first_preset
                        && (scheme.labeling_depends_on_source() || source == run_sources[0]);
                    let plan = fspec.resolve(actual_n, seed, source);
                    let specs = [RunSpec::new(source, 7)];
                    run_session(source, plan, &specs, count_labels, false)?;
                }
            }
        }
    }
    Ok(PointResult {
        records,
        label_lengths,
    })
}

/// The collected output of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Name of the sweep.
    pub name: String,
    /// The spec that produced the report.
    pub spec: SweepSpec,
    /// One record per executed run, in deterministic job order.
    pub records: Vec<SweepRecord>,
    /// Per-scheme histogram of per-node label bit-lengths, accumulated over
    /// every labeling the sweep constructed (one per instance for
    /// source-independent schemes, one per instance-source pair for
    /// source-dependent schemes): `scheme -> (label bits -> node count)`.
    /// The paper's constant-length claim is visible here directly — λ never exceeds 2
    /// bits no matter the family, while `unique_ids` grows with ⌈log₂ n⌉.
    pub label_length_histograms: BTreeMap<&'static str, BTreeMap<usize, u64>>,
}

/// One row of [`SweepReport::summaries`]: a (family, scheme) aggregate.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Registry name of the family.
    pub family: &'static str,
    /// Scheme name.
    pub scheme: &'static str,
    /// Number of runs aggregated.
    pub runs: usize,
    /// Number of runs that informed every node.
    pub completed: usize,
    /// Summary of completion rounds over completed runs.
    pub completion_rounds: Option<Summary>,
    /// Summary of collision counts (all runs).
    pub collisions: Option<Summary>,
    /// Largest label length observed.
    pub max_label_length: usize,
}

impl SweepReport {
    /// Aggregates the records by (family, scheme), in first-seen order.
    pub fn summaries(&self) -> Vec<SweepSummary> {
        let mut order: Vec<(&'static str, &'static str)> = Vec::new();
        let mut buckets: BTreeMap<(&'static str, &'static str), Vec<&SweepRecord>> =
            BTreeMap::new();
        for r in &self.records {
            let key = (r.family, r.scheme);
            if !buckets.contains_key(&key) {
                order.push(key);
            }
            buckets.entry(key).or_default().push(r);
        }
        order
            .into_iter()
            .map(|key| {
                let rs = &buckets[&key];
                let completion: Vec<u64> = rs.iter().filter_map(|r| r.completion_round).collect();
                let collisions: Vec<u64> = rs.iter().map(|r| r.collisions as u64).collect();
                SweepSummary {
                    family: key.0,
                    scheme: key.1,
                    runs: rs.len(),
                    completed: completion.len(),
                    completion_rounds: Summary::of_u64(&completion),
                    collisions: Summary::of_u64(&collisions),
                    max_label_length: rs.iter().map(|r| r.label_length).max().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Renders the (family, scheme) aggregates as an aligned text table.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            format!("sweep {:?}: {} runs", self.name, self.records.len()),
            &[
                "family",
                "scheme",
                "runs",
                "ok",
                "rounds(mean)",
                "rounds(max)",
                "collisions(mean)",
                "max bits",
            ],
        );
        for s in self.summaries() {
            t.push_row(vec![
                s.family.to_string(),
                s.scheme.to_string(),
                s.runs.to_string(),
                s.completed.to_string(),
                s.completion_rounds
                    .map_or_else(|| "-".into(), |c| format!("{:.1}", c.mean)),
                s.completion_rounds
                    .map_or_else(|| "-".into(), |c| format!("{:.0}", c.max)),
                s.collisions
                    .map_or_else(|| "-".into(), |c| format!("{:.1}", c.mean)),
                s.max_label_length.to_string(),
            ]);
        }
        if !self.spec.record_traces {
            t.push_note("traces disabled: collision and transmission counts are zero");
        }
        t
    }
}

/// The registry of named sweeps, with a one-line purpose each. The `sweep`
/// binary lists exactly these.
pub const SWEEP_NAMES: [(&str, &str); 9] = [
    (
        "smoke",
        "6 families, tiny sizes, lambda only — the CI end-to-end check",
    ),
    (
        "families",
        "every registry family at moderate sizes under lambda and lambda_ack",
    ),
    (
        "radio",
        "deployment-shaped topologies (unit-disk, clustered, tori, degree caps) under all paper schemes",
    ),
    (
        "adversarial",
        "collision-heavy shapes (star-of-cliques, lollipop, barbell, cliques)",
    ),
    (
        "scaling",
        "rounds-vs-n growth on six families up to n = 512, lambda only",
    ),
    (
        "baselines",
        "lambda against the unique-id and square-coloring baselines",
    ),
    (
        "multi",
        "k-source multi-broadcast (multi_lambda, k in {2, 4, 8}) across six families",
    ),
    (
        "gossip",
        "all-to-all gossip (token-walk collection, n messages in flight) across eight families",
    ),
    (
        "faults",
        "crash / jam / late-wake presets against four schemes on six families (delivery_rate, stalled_at)",
    ),
];

/// Lists the available sweep names.
pub fn sweep_names() -> Vec<&'static str> {
    SWEEP_NAMES.iter().map(|(n, _)| *n).collect()
}

/// Returns the named sweep, or `None` for an unknown name. See
/// [`SWEEP_NAMES`] for the registry.
pub fn named(name: &str) -> Option<SweepSpec> {
    let spec = match name {
        "smoke" => SweepSpec::new("smoke")
            .families(&[
                TopologyFamily::Path,
                TopologyFamily::Grid,
                TopologyFamily::Torus,
                TopologyFamily::RandomTree,
                TopologyFamily::UnitDisk { avg_degree: 8.0 },
                TopologyFamily::StarOfCliques { clique_size: 4 },
            ])
            .sizes(&[16, 32])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1]),
        "families" => SweepSpec::new("families")
            .families(&TopologyFamily::PRESETS)
            .sizes(&[24, 48])
            .schemes(&[Scheme::Lambda, Scheme::LambdaAck])
            .seeds(&[1, 2]),
        "radio" => SweepSpec::new("radio")
            .families(&[
                TopologyFamily::UnitDisk { avg_degree: 8.0 },
                TopologyFamily::ClusteredGnp {
                    clusters: 6,
                    p_in: 0.6,
                    p_out: 0.01,
                },
                TopologyFamily::Torus,
                TopologyFamily::Grid,
                TopologyFamily::DegreeCapped { max_degree: 4 },
                TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
            ])
            .sizes(&[32, 64, 128])
            .schemes(&[Scheme::Lambda, Scheme::LambdaAck, Scheme::LambdaArb])
            .seeds(&[1, 2, 3])
            .sources_per_point(2),
        "adversarial" => SweepSpec::new("adversarial")
            .families(&[
                TopologyFamily::StarOfCliques { clique_size: 8 },
                TopologyFamily::Lollipop,
                TopologyFamily::Barbell,
                TopologyFamily::Complete,
                TopologyFamily::Star,
                TopologyFamily::Gnp { p: 0.3 },
            ])
            .sizes(&[32, 64])
            .schemes(&[Scheme::Lambda, Scheme::LambdaAck])
            .seeds(&[1, 2])
            .sources_per_point(2),
        "scaling" => SweepSpec::new("scaling")
            .families(&[
                TopologyFamily::Path,
                TopologyFamily::Grid,
                TopologyFamily::Torus,
                TopologyFamily::RandomTree,
                TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
                TopologyFamily::UnitDisk { avg_degree: 8.0 },
            ])
            .sizes(&[64, 128, 256, 512])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1, 2])
            .record_traces(false),
        "baselines" => SweepSpec::new("baselines")
            .families(&[
                TopologyFamily::Grid,
                TopologyFamily::Torus,
                TopologyFamily::RandomTree,
                TopologyFamily::UnitDisk { avg_degree: 8.0 },
                TopologyFamily::ClusteredGnp {
                    clusters: 4,
                    p_in: 0.6,
                    p_out: 0.02,
                },
                TopologyFamily::Caterpillar { legs: 2 },
            ])
            .sizes(&[16, 32])
            .schemes(&[Scheme::Lambda, Scheme::UniqueIds, Scheme::SquareColoring])
            .seeds(&[1, 2]),
        "multi" => SweepSpec::new("multi")
            .families(&[
                TopologyFamily::Path,
                TopologyFamily::Grid,
                TopologyFamily::Torus,
                TopologyFamily::RandomTree,
                TopologyFamily::StarOfCliques { clique_size: 4 },
                TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
            ])
            .sizes(&[16, 32, 64])
            .schemes(&[
                Scheme::MultiLambda { k: 2 },
                Scheme::MultiLambda { k: 4 },
                Scheme::MultiLambda { k: 8 },
            ])
            .seeds(&[1, 2]),
        "faults" => SweepSpec::new("faults")
            .families(&[
                TopologyFamily::Path,
                TopologyFamily::Grid,
                TopologyFamily::Torus,
                TopologyFamily::RandomTree,
                TopologyFamily::StarOfCliques { clique_size: 4 },
                TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
            ])
            .sizes(&[16, 32])
            .schemes(&[
                Scheme::Lambda,
                Scheme::LambdaAck,
                Scheme::LambdaArb,
                Scheme::UniqueIds,
            ])
            .seeds(&[1, 2])
            .faults(&FaultSpec::DEFAULT_PRESETS),
        "gossip" => SweepSpec::new("gossip")
            .families(&[
                TopologyFamily::Path,
                TopologyFamily::Cycle,
                TopologyFamily::Grid,
                TopologyFamily::Torus,
                TopologyFamily::RandomTree,
                TopologyFamily::StarOfCliques { clique_size: 4 },
                TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
                TopologyFamily::UnitDisk { avg_degree: 8.0 },
            ])
            .sizes(&[12, 24, 48])
            .schemes(&[Scheme::Gossip])
            .seeds(&[1, 2]),
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new("test")
            .families(&[TopologyFamily::Path, TopologyFamily::Grid])
            .sizes(&[8])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1, 2])
            .threads(1)
    }

    #[test]
    fn sweep_covers_the_cross_product_and_completes() {
        let report = tiny_spec().run().unwrap();
        // 2 families x 1 size x 1 scheme x 2 seeds.
        assert_eq!(report.records.len(), 4);
        assert!(report.records.iter().all(super::SweepRecord::completed));
        assert!(report.records.iter().all(|r| r.label_length == 2));
        assert!(report.records.iter().all(|r| r.transmissions > 0));
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let seq = tiny_spec().run().unwrap();
        let par = tiny_spec().threads(4).run().unwrap();
        assert_eq!(seq.records, par.records);
    }

    #[test]
    fn fan_out_covers_the_cross_product_in_job_order() {
        let families = [TopologyFamily::Path, TopologyFamily::Cycle];
        let points = fan_out(&families, &[8, 12], &[1, 2, 3], 1, None, |i| {
            (i.family.name(), i.n, i.seed, i.graph.node_count())
        });
        assert_eq!(points.len(), 2 * 2 * 3);
        let points: Vec<_> = points.into_iter().map(Result::unwrap).collect();
        assert_eq!(points[0], ("path", 8, 1, 8));
        assert_eq!(points[4], ("path", 12, 2, 12));
        assert_eq!(points[11], ("cycle", 12, 3, 12));
    }

    #[test]
    fn fan_out_results_do_not_depend_on_the_thread_count() {
        let families = [
            TopologyFamily::RandomTree,
            TopologyFamily::GnpAvgDegree { avg_degree: 10.0 },
        ];
        let run = |threads| {
            fan_out(&families, &[8, 16, 24], &[1, 2], threads, None, |i| {
                (
                    i.graph.node_count(),
                    i.graph.degree(0),
                    i.graph.edge_count(),
                )
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn reports_are_identical_on_every_engine() {
        // The engine is a throughput knob, not a physics knob: the same
        // sweep on either engine must produce identical records,
        // histograms, and summaries — the in-process version of the CI
        // gate that `cmp`s whole report files across engines. Faults ride
        // along so the inert/jam paths are covered too.
        let spec = |engine: Engine| {
            tiny_spec()
                .faults(&[FaultSpec::None, FaultSpec::Crash { percent: 15 }])
                .engine(engine)
        };
        let reference = spec(Engine::ListenerCentric).run().unwrap();
        let report = spec(Engine::EventDriven).run().unwrap();
        assert_eq!(report.records, reference.records);
        assert_eq!(
            report.label_length_histograms,
            reference.label_length_histograms
        );
    }

    #[test]
    fn histograms_show_the_constant_length_claim() {
        let spec = SweepSpec::new("hist")
            .families(&[TopologyFamily::Grid])
            .sizes(&[16])
            .schemes(&[Scheme::Lambda, Scheme::UniqueIds])
            .seeds(&[1])
            .threads(1);
        let report = spec.run().unwrap();
        let lambda = &report.label_length_histograms["lambda"];
        assert!(lambda.keys().all(|&bits| bits <= 2));
        assert_eq!(lambda.values().sum::<u64>(), 16);
        let ids = &report.label_length_histograms["unique_ids"];
        assert!(ids.keys().any(|&bits| bits > 2));
    }

    #[test]
    fn multiple_sources_run_through_run_batch() {
        let spec = SweepSpec::new("sources")
            .families(&[TopologyFamily::Cycle])
            .sizes(&[12])
            .schemes(&[Scheme::LambdaArb])
            .seeds(&[1])
            .sources_per_point(3)
            .threads(1);
        let report = spec.run().unwrap();
        assert_eq!(report.records.len(), 3);
        let sources: Vec<usize> = report.records.iter().map(|r| r.source).collect();
        assert_eq!(sources, vec![0, 4, 8]);
        assert!(report.records.iter().all(super::SweepRecord::completed));
    }

    #[test]
    fn histograms_count_one_labeling_per_source_for_source_dependent_schemes() {
        let spec = SweepSpec::new("hist-sources")
            .families(&[TopologyFamily::Cycle])
            .sizes(&[12])
            .schemes(&[Scheme::Lambda, Scheme::LambdaArb])
            .seeds(&[1])
            .sources_per_point(3)
            .threads(1);
        let report = spec.run().unwrap();
        // λ relabels per source: 3 labelings x 12 nodes. λ_arb serves every
        // source from one labeling: 1 x 12 nodes.
        let lambda: u64 = report.label_length_histograms["lambda"].values().sum();
        assert_eq!(lambda, 36);
        let arb: u64 = report.label_length_histograms["lambda_arb"].values().sum();
        assert_eq!(arb, 12);
        // Both schemes still produce one record per source.
        assert_eq!(report.records.len(), 6);
        assert!(report.records.iter().all(super::SweepRecord::completed));
    }

    #[test]
    fn run_count_matches_records_when_sources_exceed_n() {
        // A 6-node instance can have at most 6 distinct sources; asking for
        // 9 used to overcount the progress totals by 50%.
        for scheme in [Scheme::LambdaArb, Scheme::Lambda] {
            let spec = SweepSpec::new("overcount")
                .families(&[TopologyFamily::Cycle])
                .sizes(&[6])
                .schemes(&[scheme])
                .seeds(&[1])
                .sources_per_point(9)
                .threads(1);
            assert_eq!(spec.sources_for(6), 6);
            assert_eq!(spec.run_count(), 6, "{}", scheme.name());
            let report = spec.run().unwrap();
            assert_eq!(report.records.len(), spec.run_count(), "{}", scheme.name());
        }
    }

    #[test]
    fn zero_sources_per_point_runs_like_one() {
        // The fields are public, so a struct literal can bypass the
        // setter's `max(1)`. Such a spec used to panic on an empty source
        // list while `run_count` counted one run per instance.
        let one = tiny_spec()
            .schemes(&[
                Scheme::Lambda,
                Scheme::LambdaArb,
                Scheme::MultiLambda { k: 2 },
            ])
            .faults(&FaultSpec::DEFAULT_PRESETS);
        let zero = SweepSpec {
            sources_per_point: 0,
            ..one.clone()
        };
        let report = zero.run().unwrap();
        assert_eq!(report.records.len(), zero.run_count());
        assert_eq!(report.records, one.run().unwrap().records);
    }

    #[test]
    fn multi_scheme_runs_once_per_instance_regardless_of_sources_per_point() {
        // A multi-broadcast run ignores the per-spec source, so extra
        // spread sources must not produce duplicate records — and the
        // estimate must agree with what actually runs.
        let spec = SweepSpec::new("multi-dedup")
            .families(&[TopologyFamily::Cycle])
            .sizes(&[12])
            .schemes(&[Scheme::MultiLambda { k: 2 }, Scheme::LambdaArb])
            .seeds(&[1])
            .sources_per_point(4)
            .threads(1);
        // 1 multi run + 4 λ_arb source runs.
        assert_eq!(spec.run_count(), 5);
        let report = spec.run().unwrap();
        assert_eq!(report.records.len(), spec.run_count());
        assert_eq!(
            report
                .records
                .iter()
                .filter(|r| r.scheme == "multi_lambda")
                .count(),
            1
        );
    }

    #[test]
    fn run_count_sums_real_sources_over_mixed_sizes() {
        let spec = SweepSpec::new("mixed")
            .families(&[TopologyFamily::Cycle, TopologyFamily::Path])
            .sizes(&[4, 32])
            .schemes(&[Scheme::LambdaArb])
            .seeds(&[1, 2])
            .sources_per_point(8);
        // Per (family, seed): 4 sources at n = 4, 8 at n = 32.
        assert_eq!(spec.run_count(), 2 * 2 * (4 + 8));
    }

    #[test]
    fn disabled_traces_zero_the_collision_columns() {
        let report = tiny_spec().record_traces(false).run().unwrap();
        assert!(report.records.iter().all(|r| r.collisions == 0));
        assert!(report.records.iter().all(super::SweepRecord::completed));
    }

    #[test]
    fn multi_sweep_records_per_message_completion() {
        let report = named("multi").unwrap().quick().threads(1).run().unwrap();
        assert!(!report.records.is_empty());
        let ks: std::collections::BTreeSet<usize> =
            report.records.iter().map(|r| r.k_sources).collect();
        assert_eq!(ks.into_iter().collect::<Vec<_>>(), vec![2, 4, 8]);
        for r in &report.records {
            assert!(r.completed(), "{} k={}", r.family, r.k_sources);
            assert_eq!(r.scheme, "multi_lambda");
            assert_eq!(r.label_length, 2, "the λ half stays constant-length");
            assert_eq!(r.message_completion_rounds.len(), r.k_sources);
            let completion = r.completion_round.unwrap();
            for round in &r.message_completion_rounds {
                assert!(round.unwrap() <= completion);
            }
            assert!(r.message_completion_rounds.contains(&r.completion_round));
        }
        // The histograms see the multi labels under their own scheme name.
        assert!(report.label_length_histograms["multi_lambda"]
            .keys()
            .all(|&bits| bits <= 2));
    }

    #[test]
    fn gossip_sweep_records_n_message_completions() {
        let report = named("gossip").unwrap().quick().threads(1).run().unwrap();
        assert!(!report.records.is_empty());
        for r in &report.records {
            assert!(r.completed(), "{} n={}", r.family, r.n);
            assert_eq!(r.scheme, "gossip");
            assert_eq!(r.label_length, 2, "the λ half stays constant-length");
            assert_eq!(r.k_sources, r.n, "every node is a source");
            assert_eq!(r.message_completion_rounds.len(), r.n);
            let completion = r.completion_round.unwrap();
            assert!(
                completion <= 4 * r.n as u64,
                "{}: gossip is linear, {completion} > 4n = {}",
                r.family,
                4 * r.n
            );
            for round in &r.message_completion_rounds {
                assert!(round.unwrap() <= completion);
            }
            assert!(r.message_completion_rounds.contains(&r.completion_round));
        }
        // The histograms see the gossip labels under their own scheme name.
        assert!(report.label_length_histograms["gossip"]
            .keys()
            .all(|&bits| bits <= 2));
    }

    #[test]
    fn gossip_scheme_runs_once_per_instance_regardless_of_sources_per_point() {
        let spec = SweepSpec::new("gossip-dedup")
            .families(&[TopologyFamily::Cycle])
            .sizes(&[10])
            .schemes(&[Scheme::Gossip])
            .seeds(&[1])
            .sources_per_point(4)
            .threads(1);
        assert_eq!(spec.run_count(), 1);
        let report = spec.run().unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].k_sources, 10);
    }

    #[test]
    fn default_faults_axis_changes_nothing() {
        let plain = tiny_spec().run().unwrap();
        let explicit = tiny_spec().faults(&[FaultSpec::None]).run().unwrap();
        assert_eq!(plain.records, explicit.records);
        assert!(plain.records.iter().all(|r| r.fault_spec == "none"));
        assert!(plain
            .records
            .iter()
            .all(|r| (r.delivery_rate - 1.0).abs() < 1e-12 && r.faults_injected == 0));
        assert!(plain
            .records
            .iter()
            .all(|r| r.stalled_at == r.completion_round));
    }

    #[test]
    fn faults_axis_multiplies_runs_and_fills_the_robustness_columns() {
        let spec = tiny_spec().faults(&[FaultSpec::None, FaultSpec::Crash { percent: 25 }]);
        assert_eq!(spec.run_count(), 2 * tiny_spec().run_count());
        let report = spec.run().unwrap();
        assert_eq!(report.records.len(), spec.run_count());
        let crashed: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.fault_spec == "crash:25")
            .collect();
        assert_eq!(crashed.len(), report.records.len() / 2);
        assert!(crashed.iter().any(|r| r.faults_injected > 0));
        assert!(crashed.iter().all(|r| r.delivery_rate <= 1.0));
        // The fault-free half is byte-identical to a sweep without the axis.
        let baseline = tiny_spec().run().unwrap();
        let fault_free: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.fault_spec == "none")
            .cloned()
            .collect();
        assert_eq!(fault_free, baseline.records);
    }

    #[test]
    fn faulted_sweeps_are_thread_deterministic() {
        let spec = || {
            SweepSpec::new("det")
                .families(&[TopologyFamily::Grid, TopologyFamily::RandomTree])
                .sizes(&[16])
                .schemes(&[Scheme::Lambda, Scheme::LambdaArb])
                .seeds(&[1, 2])
                .faults(&FaultSpec::DEFAULT_PRESETS)
        };
        let seq = spec().threads(1).run().unwrap();
        let par = spec().threads(4).run().unwrap();
        assert_eq!(seq.records, par.records);
    }

    #[test]
    fn faults_named_sweep_covers_schemes_and_presets() {
        let report = named("faults").unwrap().quick().threads(1).run().unwrap();
        let presets: std::collections::BTreeSet<&str> = report
            .records
            .iter()
            .map(|r| r.fault_spec.as_str())
            .collect();
        assert_eq!(
            presets.into_iter().collect::<Vec<_>>(),
            vec!["crash:15", "jam:1", "latewake:25", "none"]
        );
        let schemes: std::collections::BTreeSet<&str> =
            report.records.iter().map(|r| r.scheme).collect();
        assert_eq!(schemes.len(), 4);
        // Each preset injects somewhere in the sweep (a single run may
        // legitimately report 0 when its scheduled rounds all fall after
        // the run already finished), and a crash somewhere actually costs
        // delivery.
        for preset in ["crash:15", "jam:1", "latewake:25"] {
            assert!(
                report
                    .records
                    .iter()
                    .filter(|r| r.fault_spec == preset)
                    .any(|r| r.faults_injected > 0),
                "{preset} never injected"
            );
        }
        assert!(report
            .records
            .iter()
            .any(|r| r.fault_spec.starts_with("crash") && r.delivery_rate < 1.0));
        // Fault-free control rows stay perfect.
        assert!(report
            .records
            .iter()
            .filter(|r| r.fault_spec == "none")
            .all(|r| r.completed() && (r.delivery_rate - 1.0).abs() < 1e-12));
    }

    #[test]
    fn named_sweeps_resolve_and_quick_shrinks() {
        for name in sweep_names() {
            let spec = named(name).unwrap();
            assert!(!spec.families.is_empty(), "{name}");
            assert!(spec.families.len() >= 6, "{name} covers >= 6 families");
            assert!(spec.run_count() > 0, "{name}");
            let quick = spec.quick();
            assert!(quick.sizes.iter().all(|&n| n <= 32), "{name}");
            assert!(quick.seeds.len() <= 2, "{name}");
        }
        assert!(named("nope").is_none());
    }

    #[test]
    fn telemetry_observes_runs_without_changing_the_records() {
        // Fault-free and faulted runs both go through the instrumented
        // path when a telemetry stream is attached; the records must stay
        // byte-identical to an unobserved sweep, and the sidecar must
        // carry one `point` per record whose round count matches it.
        let spec = || tiny_spec().faults(&[FaultSpec::None, FaultSpec::Crash { percent: 25 }]);
        let plain = spec().run().unwrap();
        let (telemetry, buf) = SweepTelemetry::to_buffer();
        let observed = spec().run_with_telemetry(Some(&telemetry)).unwrap();
        assert_eq!(plain.records, observed.records);
        assert_eq!(
            plain.label_length_histograms,
            observed.label_length_histograms
        );
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let extract = |line: &str, key: &str| -> u64 {
            let tagged = format!("\"{key}\":");
            let at = line
                .find(&tagged)
                .unwrap_or_else(|| panic!("{key}: {line}"));
            line[at + tagged.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let points: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"point\""))
            .collect();
        assert_eq!(points.len(), observed.records.len());
        for (line, record) in points.iter().zip(&observed.records) {
            assert_eq!(extract(line, "rounds"), record.rounds_executed, "{line}");
            assert_eq!(extract(line, "seed"), record.seed, "{line}");
            assert!(line.contains("\"counters\":{"), "{line}");
            assert!(line.contains("round_loop"), "{line}");
        }
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"event\":\"job_start\""))
                .count(),
            spec().instance_count()
        );
        assert!(text
            .lines()
            .any(|l| l.contains("\"event\":\"sweep_finish\"")));
    }

    #[test]
    fn telemetry_points_stream_in_record_order_even_in_parallel() {
        let spec = || tiny_spec().threads(4);
        let (telemetry, buf) = SweepTelemetry::to_buffer();
        let observed = spec().run_with_telemetry(Some(&telemetry)).unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // Workers interleave events, so point order is not guaranteed —
        // but every record must appear exactly once, as a whole line.
        let points: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"point\""))
            .collect();
        assert_eq!(points.len(), observed.records.len());
        for record in &observed.records {
            let needle = format!(
                "\"family\":\"{}\",\"scheme\":\"{}\",\"n\":{},\"seed\":{}",
                record.family, record.scheme, record.n, record.seed
            );
            assert_eq!(
                points.iter().filter(|l| l.contains(&needle)).count(),
                1,
                "{needle}"
            );
        }
    }

    #[test]
    fn summary_table_renders() {
        let report = tiny_spec().run().unwrap();
        let table = report.summary_table();
        let text = table.render();
        assert!(text.contains("path"));
        assert!(text.contains("grid"));
        assert!(text.contains("lambda"));
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn verify_static_certifies_and_fills_the_predicted_column() {
        let spec = SweepSpec::new("preflight")
            .families(&[
                TopologyFamily::Grid,
                TopologyFamily::StarOfCliques { clique_size: 4 },
            ])
            .sizes(&[16])
            .schemes(&[
                Scheme::Lambda,
                Scheme::LambdaArb,
                Scheme::UniqueIds,
                Scheme::MultiLambda { k: 3 },
                Scheme::Gossip,
            ])
            .seeds(&[1])
            .sources_per_point(2)
            .verify_static(true)
            .threads(1);
        let report = spec.run().expect("every point certifies");
        assert!(!report.records.is_empty());
        // The certified prediction is byte-identical to the simulation on
        // every record — the preflight would have errored otherwise.
        for r in &report.records {
            assert_eq!(
                r.predicted_completion_round, r.completion_round,
                "{} / {}",
                r.family, r.scheme
            );
            assert!(r.predicted_completion_round.is_some());
        }
    }

    #[test]
    fn verify_static_defaults_off_and_leaves_the_column_empty() {
        let report = tiny_spec().run().unwrap();
        assert!(report
            .records
            .iter()
            .all(|r| r.predicted_completion_round.is_none()));
    }

    #[test]
    fn generation_errors_carry_context() {
        let spec = SweepSpec::new("bad")
            .families(&[TopologyFamily::Gnp { p: 7.0 }])
            .sizes(&[8])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1])
            .threads(1);
        let err = spec.run().unwrap_err();
        assert!(matches!(err, SweepError::Generate { .. }));
        assert!(err.to_string().contains("gnp"));
    }
}
