//! Streaming sweep telemetry: a JSONL sidecar plus a live progress line.
//!
//! A [`SweepTelemetry`] observes a sweep as it runs
//! ([`SweepSpec::run_with_telemetry`](crate::scenario::SweepSpec::run_with_telemetry)):
//! every job and every executed run appends one self-contained JSON object
//! to the sidecar stream, and — when attached to a file via
//! [`SweepTelemetry::to_file`] — a `\r`-rewritten progress line with an ETA
//! goes to stderr after each finished job.
//!
//! The sidecar is deliberately separate from the sweep's JSON/CSV reports:
//! it carries wall-clock timings, RSS, and phase spans, all of which are
//! nondeterministic, while the reports must stay byte-identical across
//! machines, thread counts, and engines. The deterministic halves of every
//! `point` event (the run counters, the record's round/collision columns)
//! are exactly the quantities the reports already carry — the CI smoke gate
//! cross-checks them against the report rather than trusting either side.
//!
//! Events, one JSON object per line:
//!
//! | event          | payload                                                        |
//! |----------------|----------------------------------------------------------------|
//! | `sweep_start`  | sweep name, job and run totals, engine                         |
//! | `job_start`    | (family, n, seed) of the instance a worker picked up           |
//! | `point`        | one executed run: record columns + counters + phase spans      |
//! | `job_finish`   | progress counts and the elapsed/ETA estimate                   |
//! | `sweep_finish` | final record count and total wall time                         |
//!
//! The writer sits behind a mutex and every event is flushed on write, so a
//! parallel sweep interleaves whole lines, never fragments — `tail -f` on
//! the sidecar is always parseable.

use crate::scenario::SweepRecord;
use rn_radio::Engine;
use rn_telemetry::{JsonlEvent, RunMetrics};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// The stable command-line name of an engine (the same spelling the `sweep`
/// binary's `--engine` flag accepts).
pub fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::ListenerCentric => "listener-centric",
        Engine::EventDriven => "event-driven",
    }
}

/// Mutable telemetry state, behind the mutex: the sidecar writer plus the
/// progress counters the ETA estimate is derived from.
struct Inner {
    writer: Box<dyn Write + Send>,
    total_jobs: usize,
    finished_jobs: usize,
}

/// A writer appending into a shared buffer, backing
/// [`SweepTelemetry::to_buffer`].
struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer mutex").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A streaming observer for one sweep run. See the [module docs](self).
pub struct SweepTelemetry {
    inner: Mutex<Inner>,
    start: Instant,
    /// Whether to mirror job completions as a `\r`-rewritten stderr line.
    progress: bool,
}

impl SweepTelemetry {
    /// Creates a telemetry stream writing JSONL to `path`, with the live
    /// stderr progress line enabled.
    ///
    /// # Errors
    /// Propagates the error if the file cannot be created.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?), true))
    }

    /// Creates a telemetry stream over an arbitrary writer, with the stderr
    /// progress line disabled (tests collect events into a buffer).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        Self::new(writer, false)
    }

    /// Creates an in-memory telemetry stream for tests and programmatic
    /// consumers, returning the shared buffer the event lines accumulate in.
    pub fn to_buffer() -> (Self, std::sync::Arc<Mutex<Vec<u8>>>) {
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        let stream = Self::to_writer(Box::new(SharedBuf(std::sync::Arc::clone(&buf))));
        (stream, buf)
    }

    fn new(writer: Box<dyn Write + Send>, progress: bool) -> Self {
        SweepTelemetry {
            inner: Mutex::new(Inner {
                writer,
                total_jobs: 0,
                finished_jobs: 0,
            }),
            start: Instant::now(),
            progress,
        }
    }

    /// Appends one finished event line and flushes it. Telemetry is an
    /// observer: a full disk must not abort a sweep, so write errors are
    /// reported once on stderr and otherwise dropped.
    fn emit(&self, inner: &mut Inner, line: &str) {
        if let Err(e) = inner
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| inner.writer.flush())
        {
            eprintln!("telemetry: dropping event ({e})");
        }
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records the sweep header: totals and the engine every run uses.
    pub fn sweep_start(&self, name: &str, jobs: usize, runs: usize, engine: Engine) {
        let mut inner = self.inner.lock().expect("telemetry mutex");
        inner.total_jobs = jobs;
        let line = JsonlEvent::new("sweep_start")
            .str("sweep", name)
            .num("jobs", jobs as u64)
            .num("runs", runs as u64)
            .str("engine", engine_name(engine))
            .finish();
        self.emit(&mut inner, &line);
    }

    /// Records a worker picking up the (family, n, seed) instance job.
    pub fn job_start(&self, family: &str, n: usize, seed: u64) {
        let line = JsonlEvent::new("job_start")
            .str("family", family)
            .num("n", n as u64)
            .num("seed", seed)
            .num("elapsed_ms", self.elapsed_ms())
            .finish();
        let mut inner = self.inner.lock().expect("telemetry mutex");
        self.emit(&mut inner, &line);
    }

    /// Records one executed run: the deterministic record columns plus the
    /// run's counters and phase spans when the run was instrumented.
    pub fn point(&self, record: &SweepRecord, metrics: Option<&RunMetrics>) {
        let mut event = JsonlEvent::new("point")
            .str("family", record.family)
            .str("scheme", record.scheme)
            .num("n", record.n as u64)
            .num("seed", record.seed)
            .num("source", record.source as u64)
            .str("fault_spec", &record.fault_spec)
            .num("rounds", record.rounds_executed);
        if let Some(round) = record.completion_round {
            event = event.num("completion_round", round);
        }
        event = event.f64("delivery_rate", record.delivery_rate);
        if let Some(m) = metrics {
            if let Some(c) = &m.counters {
                event = event.counters("counters", c);
            }
            event = event
                .spans("spans", &m.spans)
                .num("peak_rss_kb", m.peak_rss_kb);
        }
        let line = event.finish();
        let mut inner = self.inner.lock().expect("telemetry mutex");
        self.emit(&mut inner, &line);
    }

    /// Records a finished job, with progress counts and a linear ETA, and
    /// (file-backed streams only) rewrites the stderr progress line.
    pub fn job_finish(&self, family: &str, n: usize, seed: u64) {
        let mut inner = self.inner.lock().expect("telemetry mutex");
        inner.finished_jobs += 1;
        let (finished, total) = (inner.finished_jobs, inner.total_jobs);
        let elapsed = self.elapsed_ms();
        // Linear extrapolation over finished jobs; jobs vary in size, so
        // this is an estimate, not a promise.
        let eta = if finished > 0 && total > finished {
            elapsed * (total - finished) as u64 / finished as u64
        } else {
            0
        };
        let line = JsonlEvent::new("job_finish")
            .str("family", family)
            .num("n", n as u64)
            .num("seed", seed)
            .num("finished", finished as u64)
            .num("total", total as u64)
            .num("elapsed_ms", elapsed)
            .num("eta_ms", eta)
            .finish();
        self.emit(&mut inner, &line);
        if self.progress {
            eprint!(
                "\r[{finished}/{total}] jobs done, {:.1}s elapsed, eta {:.1}s   ",
                elapsed as f64 / 1000.0,
                eta as f64 / 1000.0
            );
            if finished == total {
                eprintln!();
            }
        }
    }

    /// Records the sweep footer: how many records were produced and the
    /// total wall time.
    pub fn sweep_finish(&self, records: usize) {
        let line = JsonlEvent::new("sweep_finish")
            .num("records", records as u64)
            .num("elapsed_ms", self.elapsed_ms())
            .finish();
        let mut inner = self.inner.lock().expect("telemetry mutex");
        self.emit(&mut inner, &line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stream_as_one_json_object_per_line() {
        let (t, buf) = SweepTelemetry::to_buffer();
        t.sweep_start("unit", 2, 4, Engine::EventDriven);
        t.job_start("path", 8, 1);
        t.job_finish("path", 8, 1);
        t.sweep_finish(4);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"event\":\"sweep_start\""));
        assert!(lines[0].contains("\"engine\":\"event-driven\""));
        assert!(lines[2].contains("\"finished\":1"));
        assert!(lines[2].contains("\"total\":2"));
        assert!(lines[3].contains("\"records\":4"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn engine_names_match_the_cli_spellings() {
        assert_eq!(engine_name(Engine::ListenerCentric), "listener-centric");
        assert_eq!(engine_name(Engine::EventDriven), "event-driven");
    }
}
