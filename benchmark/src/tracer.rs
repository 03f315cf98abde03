//! In-memory spans for the traced run.
//!
//! A span is recorded around one call into a workspace crate: its name (the
//! layer metric it feeds), start and end on a clock shared by every thread,
//! the span that caused it and the request (unit of work) it belongs to.
//! Spans stay in memory until the run ends. A disabled tracer calls the
//! wrapped closure and records nothing, so the timed passes and the traced
//! pass execute the same code.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// Threads the span's interval occupies: 1, or the worker count of a
    /// batch span whose children run on several threads at once.
    pub lanes: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        self.span_lanes(name, parent, request, 1, f)
    }

    /// [`span`](Self::span) for a span whose children run on `lanes` threads.
    pub fn span_lanes<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        lanes: u32,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Ids only identify spans; they publish no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no span recorder panicked")
            .push(Span {
                id,
                name,
                parent,
                request,
                lanes,
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panicked")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total inclusive seconds of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Self time per span name, in thread-seconds: a span's duration times its
/// lanes, minus the durations of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.seconds();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s.seconds() * f64::from(s.lanes) - children.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// The spans of the subtree rooted at `root`, root included.
pub fn subtree(spans: &[Span], root: SpanId) -> Vec<Span> {
    // Parents always have smaller ids than their children (ids are taken
    // when a span opens), so one pass in id order finds the whole subtree.
    let mut inside = std::collections::BTreeSet::from([root]);
    let mut out = Vec::new();
    for s in spans {
        if s.id == root || s.parent.is_some_and(|p| inside.contains(&p)) {
            inside.insert(s.id);
            out.push(s.clone());
        }
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \"lanes\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.request, s.lanes, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_count_lanes() {
        let spans = vec![
            Span {
                id: 0,
                name: "pass",
                parent: None,
                request: 0,
                lanes: 1,
                start_ns: 0,
                end_ns: 10,
            },
            Span {
                id: 1,
                name: "batch",
                parent: Some(0),
                request: 0,
                lanes: 2,
                start_ns: 2,
                end_ns: 8,
            },
            Span {
                id: 2,
                name: "run",
                parent: Some(1),
                request: 1,
                lanes: 1,
                start_ns: 2,
                end_ns: 7,
            },
            Span {
                id: 3,
                name: "run",
                parent: Some(1),
                request: 2,
                lanes: 1,
                start_ns: 2,
                end_ns: 8,
            },
        ];
        let own = self_times(&spans);
        assert!((own["pass"] - 4e-9).abs() < 1e-15);
        assert!((own["batch"] - 1e-9).abs() < 1e-15);
        assert!((own["run"] - 11e-9).abs() < 1e-15);
        assert_eq!(subtree(&spans, 1).len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", None, 0, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::on();
        let inner = t.span("outer", None, 0, |id| t.span("inner", id, 0, |_| id));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, inner);
    }
}
