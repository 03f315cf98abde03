//! # rn-telemetry
//!
//! The observability substrate for the radio-broadcast stack: a zero-cost
//! [`MetricsSink`] trait the simulator engines report deterministic
//! per-round counters into, hierarchical phase spans with wall-clock and
//! peak-RSS sampling, and text expositions (Prometheus, JSONL) for the
//! experiment binaries and the future service runtime.
//!
//! The design splits telemetry into two strictly separated halves:
//!
//! * **Deterministic counters** ([`RoundMetrics`], [`RunCounters`]) are pure
//!   functions of the executed protocol — transmitters, collisions,
//!   deliveries, bits — and therefore must agree bit-for-bit across
//!   engines, thread counts, and reruns. They are allowed to join reports
//!   and test assertions. [`RunCounters::TABLE`] is their one vocabulary:
//!   the sidecar, Prometheus and `telemetry-report` all walk it, in its
//!   order, under its keys.
//! * **Nondeterministic samples** ([`SpanRecord`] wall-clock times,
//!   [`peak_rss_kb`]) vary run to run and are only ever written to
//!   *sidecar* streams (`metrics.jsonl`), never to the main report files —
//!   the repository's byte-identity gates (threads 1 vs 4, cross-engine
//!   `cmp`) depend on that separation.
//!
//! With no sink installed the engines skip every per-round reporting block
//! behind a single `Option` check, so steady-state cost is zero: no
//! allocations, no virtual calls, byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::fmt;
use std::time::Instant;

/// The deterministic per-round measurement an engine hands to a sink after
/// each executed round. Every field is a pure function of the protocol
/// execution, identical across engines and reruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundMetrics {
    /// 1-based round number just executed.
    pub round: u64,
    /// Nodes occupying the channel this round, jammers included.
    pub transmitters: u64,
    /// Protocol transmissions (jammers excluded — a jammer transmits no
    /// protocol bits). A round is *silent* iff this is zero.
    pub protocol_transmissions: u64,
    /// Successful decodes: listeners that heard exactly one neighbour and
    /// passed the receive-side fault filter.
    pub deliveries: u64,
    /// (node, round) collision observations: listeners with two or more
    /// transmitting neighbours, or whose sole transmitting neighbour was a
    /// jammer.
    pub collisions: u64,
    /// Receive-side fault-plan applications consumed this round (drops and
    /// corruptions, whether or not the corrupted message still decoded).
    pub rx_faults: u64,
    /// Total protocol message bits put on the channel this round.
    pub bits: u64,
    /// Largest single protocol message this round, in bits.
    pub max_message_bits: u64,
    /// Engine frontier size: nodes the engine actually evaluated this
    /// round. Under the reference engine this is every node; the fast
    /// engine reports its wake-hint due set (every node that is not inert,
    /// for a protocol whose hints are all 0). Engine-specific
    /// by design — sidecar material, never a report column.
    pub frontier: u64,
}

/// Receives per-round metrics from a simulator engine. All methods except
/// [`on_round`](Self::on_round) have no-op defaults, so a sink implements
/// only what it needs.
///
/// The engines call a sink at most once per executed round, after the
/// round's effects are fully applied, and never allocate on its behalf.
pub trait MetricsSink {
    /// One executed round's deterministic counters.
    fn on_round(&mut self, metrics: &RoundMetrics);

    /// The event-driven engine elided a provably silent span of `rounds`
    /// rounds starting at 1-based round `first_round` without executing
    /// them individually. Elided rounds never reach
    /// [`on_round`](Self::on_round).
    fn on_elided_span(&mut self, first_round: u64, rounds: u64) {
        let _ = (first_round, rounds);
    }

    /// A round-scratch buffer was attached: `reused` is true when it came
    /// from a warm pool, false when freshly allocated.
    fn on_scratch(&mut self, reused: bool) {
        let _ = reused;
    }

    /// Snapshot of the aggregate counters, for sinks that keep them.
    /// Returns `None` by default; [`CounterSink`] overrides it, which lets
    /// callers retrieve aggregates through a `Box<dyn MetricsSink>` without
    /// downcasting.
    fn counters(&self) -> Option<RunCounters> {
        None
    }
}

/// A sink that discards everything. Installing it is equivalent to (and
/// exactly as observable as) installing no sink at all; it exists for
/// overhead benchmarks and as the trait's trivial model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    fn on_round(&mut self, _metrics: &RoundMetrics) {}
}

/// Aggregate deterministic counters for one run — the sum (and maxima) of
/// every [`RoundMetrics`] the run produced, plus elision and scratch-reuse
/// tallies. Produced by [`CounterSink`]; consumed by reports, the
/// stats-consistency tests, and [`render_prometheus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounters {
    /// Rounds accounted for (executed + elided).
    pub rounds: u64,
    /// Total channel occupations, jammers included.
    pub transmitters: u64,
    /// Total protocol transmissions (jammers excluded).
    pub transmissions: u64,
    /// Total successful decodes.
    pub deliveries: u64,
    /// Total (node, round) collision observations.
    pub collisions: u64,
    /// Total receive-side fault applications.
    pub rx_faults: u64,
    /// Rounds with zero protocol transmissions (elided rounds included —
    /// elision is only legal when the span is provably silent).
    pub silent_rounds: u64,
    /// Largest per-round protocol transmitter count.
    pub max_transmitters_per_round: u64,
    /// Total protocol bits on the channel.
    pub total_bits: u64,
    /// Largest single protocol message, in bits.
    pub max_message_bits: u64,
    /// Largest per-round engine frontier.
    pub frontier_peak: u64,
    /// Total node steps: the engine frontier summed over executed rounds
    /// (elided rounds step no node).
    pub node_steps: u64,
    /// Node states a session's harness examined after the rounds: its
    /// informed-round tracking and all-nodes completion checks. The
    /// engines never touch it; an instrumented `Session` run fills it in.
    /// Like `node_steps` it depends on the engine, which may or may not
    /// tell the harness which nodes a round changed.
    pub harness_visits: u64,
    /// Rounds skipped by silent-span elision.
    pub elided_rounds: u64,
    /// Number of elided spans.
    pub elided_spans: u64,
    /// Scratch buffers attached from a warm pool.
    pub scratch_reused: u64,
    /// Scratch buffers freshly allocated.
    pub scratch_fresh: u64,
}

/// How a counter combines across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// A running total: runs add up.
    Sum,
    /// A high-water mark: the larger value wins.
    Max,
}

/// One entry of [`RunCounters::TABLE`]: a counter's key and how it folds
/// across runs.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// The counter's key in every exposition (its [`RunCounters`] field
    /// name).
    pub key: &'static str,
    /// How the counter combines across runs.
    pub fold: Fold,
    field: fn(&mut RunCounters) -> &mut u64,
}

impl Counter {
    const fn sum(key: &'static str, field: fn(&mut RunCounters) -> &mut u64) -> Self {
        Counter {
            key,
            fold: Fold::Sum,
            field,
        }
    }

    const fn max(key: &'static str, field: fn(&mut RunCounters) -> &mut u64) -> Self {
        Counter {
            key,
            fold: Fold::Max,
            field,
        }
    }

    /// The counter's value in `counters`.
    pub fn get(&self, counters: &RunCounters) -> u64 {
        let mut copy = *counters;
        *(self.field)(&mut copy)
    }

    /// Folds one run's `value` into the aggregate `counters`.
    pub fn fold_into(&self, counters: &mut RunCounters, value: u64) {
        let slot = (self.field)(counters);
        *slot = match self.fold {
            Fold::Sum => *slot + value,
            Fold::Max => (*slot).max(value),
        };
    }
}

impl RunCounters {
    /// Every counter, in exposition order.
    pub const TABLE: [Counter; 17] = [
        Counter::sum("rounds", |c| &mut c.rounds),
        Counter::sum("transmitters", |c| &mut c.transmitters),
        Counter::sum("transmissions", |c| &mut c.transmissions),
        Counter::sum("deliveries", |c| &mut c.deliveries),
        Counter::sum("collisions", |c| &mut c.collisions),
        Counter::sum("rx_faults", |c| &mut c.rx_faults),
        Counter::sum("silent_rounds", |c| &mut c.silent_rounds),
        Counter::max("max_transmitters_per_round", |c| {
            &mut c.max_transmitters_per_round
        }),
        Counter::sum("total_bits", |c| &mut c.total_bits),
        Counter::max("max_message_bits", |c| &mut c.max_message_bits),
        Counter::max("frontier_peak", |c| &mut c.frontier_peak),
        Counter::sum("node_steps", |c| &mut c.node_steps),
        Counter::sum("harness_visits", |c| &mut c.harness_visits),
        Counter::sum("elided_rounds", |c| &mut c.elided_rounds),
        Counter::sum("elided_spans", |c| &mut c.elided_spans),
        Counter::sum("scratch_reused", |c| &mut c.scratch_reused),
        Counter::sum("scratch_fresh", |c| &mut c.scratch_fresh),
    ];
}

/// The standard aggregating sink: folds every round into a [`RunCounters`].
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    counters: RunCounters,
}

impl CounterSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the aggregate.
    pub fn into_counters(self) -> RunCounters {
        self.counters
    }
}

impl MetricsSink for CounterSink {
    fn on_round(&mut self, m: &RoundMetrics) {
        let c = &mut self.counters;
        c.rounds += 1;
        c.transmitters += m.transmitters;
        c.transmissions += m.protocol_transmissions;
        c.deliveries += m.deliveries;
        c.collisions += m.collisions;
        c.rx_faults += m.rx_faults;
        if m.protocol_transmissions == 0 {
            c.silent_rounds += 1;
        }
        c.max_transmitters_per_round = c.max_transmitters_per_round.max(m.protocol_transmissions);
        c.total_bits += m.bits;
        c.max_message_bits = c.max_message_bits.max(m.max_message_bits);
        c.frontier_peak = c.frontier_peak.max(m.frontier);
        c.node_steps += m.frontier;
    }

    fn on_elided_span(&mut self, _first_round: u64, rounds: u64) {
        // An elided span is provably silent: every skipped round counts as
        // a silent round with no channel activity.
        self.counters.rounds += rounds;
        self.counters.silent_rounds += rounds;
        self.counters.elided_rounds += rounds;
        self.counters.elided_spans += 1;
    }

    fn on_scratch(&mut self, reused: bool) {
        if reused {
            self.counters.scratch_reused += 1;
        } else {
            self.counters.scratch_fresh += 1;
        }
    }

    fn counters(&self) -> Option<RunCounters> {
        Some(self.counters)
    }
}

/// One timed phase of a run: a name from the fixed span vocabulary
/// (`labeling_construction`, `template_build`, `plan_build`, `round_loop`,
/// `verify`) and its wall-clock duration. Wall-clock is nondeterministic —
/// spans go to sidecars only, never to main reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name.
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub wall_nanos: u64,
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:.3}ms", self.name, self.wall_nanos as f64 / 1e6)
    }
}

/// A running phase timer; [`stop`](Self::stop) yields the [`SpanRecord`].
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing the named phase now.
    pub fn start(name: &'static str) -> Self {
        SpanTimer {
            name,
            start: Instant::now(),
        }
    }

    /// Stops the timer and returns the finished span.
    pub fn stop(self) -> SpanRecord {
        SpanRecord {
            name: self.name,
            wall_nanos: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

/// The full instrumentation block for one run: deterministic aggregate
/// counters plus the nondeterministic phase spans and peak-RSS sample.
/// Returned by `Session::run_instrumented` alongside the (unchanged)
/// `RunReport`.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Aggregate deterministic counters, when a counting sink ran.
    pub counters: Option<RunCounters>,
    /// Timed phases, in execution order.
    pub spans: Vec<SpanRecord>,
    /// Peak resident set size of the process in KiB at sampling time
    /// (0 where `/proc` is unavailable). A process-wide high-water mark,
    /// not a per-run delta.
    pub peak_rss_kb: u64,
    /// When the run also recorded a trace: whether the counter-derived
    /// stats matched the trace-derived stats exactly. `None` when no trace
    /// was available to check against.
    pub counters_match_trace: Option<bool>,
}

impl RunMetrics {
    /// Total wall-clock across all recorded spans, in nanoseconds.
    pub fn total_wall_nanos(&self) -> u64 {
        self.spans.iter().map(|s| s.wall_nanos).sum()
    }

    /// The named span's duration in nanoseconds, if recorded.
    pub fn span_nanos(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.wall_nanos)
    }
}

/// Samples the process's peak resident set size in KiB from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms or sandboxes
/// without a readable `/proc`.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Renders the aggregate counters in the Prometheus text exposition format
/// (one `# TYPE` header per metric), with the given label pairs attached to
/// every sample — ready for a `/metrics` endpoint when the networked
/// runtime lands. Each [`RunCounters::TABLE`] entry becomes one metric:
/// `rn_<key>_total` (a counter) for a sum, `rn_<key>` (a gauge) for a
/// maximum.
pub fn render_prometheus(counters: &RunCounters, labels: &[(&str, &str)]) -> String {
    let label_str = if labels.is_empty() {
        String::new()
    } else {
        let pairs: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!("{{{}}}", pairs.join(","))
    };
    let mut out = String::new();
    for counter in &RunCounters::TABLE {
        let (name, kind) = match counter.fold {
            Fold::Sum => (format!("rn_{}_total", counter.key), "counter"),
            Fold::Max => (format!("rn_{}", counter.key), "gauge"),
        };
        let value = counter.get(counters);
        out.push_str(&format!(
            "# TYPE {name} {kind}\n{name}{label_str} {value}\n"
        ));
    }
    out
}

/// Builds one JSONL event line field by field. Fields render in insertion
/// order; [`finish`](Self::finish) closes the object (newline included).
#[derive(Debug, Default)]
pub struct JsonlEvent {
    fields: Vec<String>,
}

impl JsonlEvent {
    /// Starts an event with its `"event"` discriminator field.
    pub fn new(event: &str) -> Self {
        let mut e = JsonlEvent { fields: Vec::new() };
        e.fields
            .push(format!("\"event\":\"{}\"", json::escape(event)));
        e
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!(
            "\"{}\":\"{}\"",
            json::escape(key),
            json::escape(value)
        ));
        self
    }

    /// Adds an integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.fields
            .push(format!("\"{}\":{value}", json::escape(key)));
        self
    }

    /// Adds a float field, encoded by [`json::f64`].
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push(format!("\"{}\":{}", json::escape(key), json::f64(value)));
        self
    }

    /// Adds the aggregate counters as a nested object under `key`, one
    /// field per [`RunCounters::TABLE`] entry.
    pub fn counters(self, key: &str, c: &RunCounters) -> Self {
        let entries = RunCounters::TABLE
            .iter()
            .map(|counter| format!("\"{}\":{}", counter.key, counter.get(c)));
        self.object(key, entries)
    }

    /// Adds the spans as a nested `{name: nanos}` object under `key`.
    pub fn spans(self, key: &str, spans: &[SpanRecord]) -> Self {
        let entries = spans
            .iter()
            .map(|s| format!("\"{}\":{}", json::escape(s.name), s.wall_nanos));
        self.object(key, entries)
    }

    /// Adds a nested object under `key` from already-encoded `"k":v`
    /// entries.
    fn object(mut self, key: &str, entries: impl Iterator<Item = String>) -> Self {
        let entries: Vec<String> = entries.collect();
        self.fields.push(format!(
            "\"{}\":{{{}}}",
            json::escape(key),
            entries.join(",")
        ));
        self
    }

    /// Closes the event: one JSON object, newline-terminated.
    pub fn finish(self) -> String {
        format!("{{{}}}\n", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(round: u64, tx: u64, protocol: u64, deliveries: u64, collisions: u64) -> RoundMetrics {
        RoundMetrics {
            round,
            transmitters: tx,
            protocol_transmissions: protocol,
            deliveries,
            collisions,
            rx_faults: 0,
            bits: protocol * 8,
            max_message_bits: if protocol > 0 { 8 } else { 0 },
            frontier: tx + deliveries,
        }
    }

    #[test]
    fn counter_sink_aggregates_rounds() {
        let mut sink = CounterSink::new();
        sink.on_round(&round(1, 2, 2, 1, 1));
        sink.on_round(&round(2, 1, 0, 0, 1)); // jam-only round: silent
        sink.on_round(&round(3, 3, 3, 2, 0));
        let c = sink.counters().unwrap();
        assert_eq!(c.rounds, 3);
        assert_eq!(c.transmitters, 6);
        assert_eq!(c.transmissions, 5);
        assert_eq!(c.deliveries, 3);
        assert_eq!(c.collisions, 2);
        assert_eq!(c.silent_rounds, 1);
        assert_eq!(c.max_transmitters_per_round, 3);
        assert_eq!(c.total_bits, 40);
        assert_eq!(c.max_message_bits, 8);
        assert_eq!(c.node_steps, 3 + 1 + 5);
    }

    #[test]
    fn elided_spans_count_as_silent_rounds() {
        let mut sink = CounterSink::new();
        sink.on_round(&round(1, 1, 1, 1, 0));
        sink.on_elided_span(2, 5);
        sink.on_round(&round(7, 1, 1, 1, 0));
        let c = sink.counters().unwrap();
        assert_eq!(c.rounds, 7);
        assert_eq!(c.silent_rounds, 5);
        assert_eq!(c.elided_rounds, 5);
        assert_eq!(c.elided_spans, 1);
        assert_eq!(c.node_steps, 4, "elided rounds step no node");
    }

    #[test]
    fn scratch_reuse_tallies() {
        let mut sink = CounterSink::new();
        sink.on_scratch(false);
        sink.on_scratch(true);
        sink.on_scratch(true);
        let c = sink.counters().unwrap();
        assert_eq!(c.scratch_fresh, 1);
        assert_eq!(c.scratch_reused, 2);
    }

    #[test]
    fn noop_sink_reports_no_counters() {
        let mut sink = NoopSink;
        sink.on_round(&round(1, 1, 1, 0, 0));
        assert!(MetricsSink::counters(&sink).is_none());
    }

    #[test]
    fn span_timer_produces_a_named_span() {
        let timer = SpanTimer::start("round_loop");
        let span = timer.stop();
        assert_eq!(span.name, "round_loop");
        assert!(span.to_string().starts_with("round_loop="));
    }

    #[test]
    fn run_metrics_span_lookup() {
        let metrics = RunMetrics {
            spans: vec![
                SpanRecord {
                    name: "a",
                    wall_nanos: 10,
                },
                SpanRecord {
                    name: "b",
                    wall_nanos: 32,
                },
            ],
            ..RunMetrics::default()
        };
        assert_eq!(metrics.total_wall_nanos(), 42);
        assert_eq!(metrics.span_nanos("b"), Some(32));
        assert_eq!(metrics.span_nanos("c"), None);
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        // The build environment is Linux with a readable /proc; any running
        // process has touched at least one page.
        if std::fs::read_to_string("/proc/self/status").is_ok() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn prometheus_exposition_has_type_lines_and_labels() {
        let c = RunCounters {
            rounds: 12,
            collisions: 3,
            ..RunCounters::default()
        };
        let text = render_prometheus(&c, &[("engine", "event-driven"), ("scheme", "lambda")]);
        assert!(text.contains("# TYPE rn_rounds_total counter\n"));
        assert!(text.contains("rn_rounds_total{engine=\"event-driven\",scheme=\"lambda\"} 12\n"));
        assert!(text.contains("rn_collisions_total{engine=\"event-driven\",scheme=\"lambda\"} 3\n"));
        // Every sample line carries the labels.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.contains("{engine=\"event-driven\",scheme=\"lambda\"} "),
                "{line}"
            );
        }
    }

    #[test]
    fn counter_table_addresses_every_field_once() {
        let mut c = RunCounters::default();
        for (i, counter) in (1..).zip(&RunCounters::TABLE) {
            counter.fold_into(&mut c, i);
        }
        for (i, counter) in (1..).zip(&RunCounters::TABLE) {
            assert_eq!(counter.get(&c), i, "{} shares a field", counter.key);
        }
        // Distinct entries, one per u64 field: a counter added to the
        // struct but not to the table fails here.
        assert_eq!(
            std::mem::size_of::<RunCounters>(),
            RunCounters::TABLE.len() * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn prometheus_names_follow_the_fold() {
        let text = render_prometheus(&RunCounters::default(), &[]);
        assert!(text.contains("# TYPE rn_total_bits_total counter\n"));
        assert!(text.contains("# TYPE rn_frontier_peak gauge\n"));
        assert_eq!(
            text.lines().filter(|l| l.starts_with("# TYPE")).count(),
            RunCounters::TABLE.len()
        );
    }

    #[test]
    fn prometheus_without_labels_renders_bare_names() {
        let text = render_prometheus(&RunCounters::default(), &[]);
        assert!(text.contains("\nrn_rounds_total 0\n"));
        assert!(!text.contains('{'));
    }

    #[test]
    fn jsonl_event_renders_balanced_json() {
        let line = JsonlEvent::new("job_finish")
            .str("family", "grid")
            .num("rounds", 17)
            .f64("eta_seconds", 1.5)
            .counters("counters", &RunCounters::default())
            .spans(
                "spans",
                &[SpanRecord {
                    name: "round_loop",
                    wall_nanos: 99,
                }],
            )
            .finish();
        assert!(line.ends_with('\n'));
        assert!(line.contains("\"event\":\"job_finish\""));
        assert!(line.contains("\"rounds\":17"));
        assert!(line.contains("\"eta_seconds\":1.5000"));
        assert!(line.contains("\"round_loop\":99"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
