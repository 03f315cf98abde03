//! `telemetry-report` — render a sweep's JSONL telemetry sidecar as
//! human-readable tables, optionally export the aggregated counters in
//! Prometheus exposition format, and guard the bench baseline against
//! throughput regressions.
//!
//! Usage:
//!
//! ```text
//! telemetry-report sweep.jsonl              # per-phase / per-engine breakdown
//! telemetry-report sweep.jsonl --prometheus # also print Prometheus metrics
//! telemetry-report --bench-guard BENCH_simulator_quick.json fresh.json
//! telemetry-report --bench-guard old.json new.json --threshold 30
//! ```
//!
//! The sidecar parser is hand-rolled (the workspace stays dependency-free
//! by choice; the writer's encoders live in `rn_telemetry::json`) and
//! tolerant: unknown events and malformed lines are counted and skipped, so
//! a sidecar truncated by a crash still reports everything it captured.
//! Counters are read, folded and printed by walking
//! [`RunCounters::TABLE`], the same table the sidecar writer uses.
//!
//! `--bench-guard` compares two `BENCH_simulator*.json` files workload by
//! workload: for each workload present in both files at the same `n`, the
//! two per-engine `*_rounds_per_sec` rates must not regress by more than
//! the threshold (default 25%). Exit `1` on regression, `2` on unusable
//! inputs or a usage error (an unknown option, a missing value, options of
//! both modes; reported before any file is read), `0` otherwise.

use rn_experiments::Table;
use rn_telemetry::{render_prometheus, RunCounters};

/// The value substring starting right after `"key":` (plus optional
/// whitespace), or `None` if the key does not occur in the text.
fn find_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag)? + tag.len();
    Some(text[at..].trim_start())
}

fn extract_u64(text: &str, key: &str) -> Option<u64> {
    let digits: String = find_value(text, key)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn extract_f64(text: &str, key: &str) -> Option<f64> {
    let num: String = find_value(text, key)?
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

fn extract_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    find_value(text, key)?.strip_prefix('"')?.split('"').next()
}

/// The body of the flat object under `key` (no nested braces inside — true
/// for the sidecar's `counters` and `spans` payloads).
fn extract_obj<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    find_value(text, key)?.strip_prefix('{')?.split('}').next()
}

/// Everything the report renders, accumulated in one pass over the sidecar.
#[derive(Default)]
struct Accumulated {
    sweeps: Vec<String>,
    points: u64,
    jobs_finished: u64,
    skipped_lines: u64,
    /// Total wall nanos per (engine, phase), in first-seen order.
    phase_nanos: Vec<(String, String, u64)>,
    /// Deterministic counters aggregated over every instrumented point,
    /// each folded as its table entry says.
    counters: RunCounters,
    saw_counters: bool,
    peak_rss_kb: u64,
    total_elapsed_ms: u64,
}

impl Accumulated {
    fn add_phase(&mut self, engine: &str, phase: &str, nanos: u64) {
        if let Some(row) = self
            .phase_nanos
            .iter_mut()
            .find(|(e, p, _)| e == engine && p == phase)
        {
            row.2 += nanos;
        } else {
            self.phase_nanos
                .push((engine.to_string(), phase.to_string(), nanos));
        }
    }

    fn add_counters(&mut self, obj: &str) {
        for counter in &RunCounters::TABLE {
            if let Some(v) = extract_u64(obj, counter.key) {
                counter.fold_into(&mut self.counters, v);
            }
        }
        self.saw_counters = true;
    }
}

fn accumulate(text: &str) -> Accumulated {
    let mut acc = Accumulated::default();
    let mut engine = "unknown".to_string();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(event) = extract_str(line, "event") else {
            acc.skipped_lines += 1;
            continue;
        };
        match event {
            "sweep_start" => {
                if let Some(name) = extract_str(line, "sweep") {
                    acc.sweeps.push(name.to_string());
                }
                if let Some(e) = extract_str(line, "engine") {
                    engine = e.to_string();
                }
            }
            "point" => {
                acc.points += 1;
                if let Some(obj) = extract_obj(line, "counters") {
                    acc.add_counters(obj);
                }
                if let Some(spans) = extract_obj(line, "spans") {
                    for entry in spans.split(',') {
                        let name = entry
                            .trim()
                            .strip_prefix('"')
                            .and_then(|rest| rest.split('"').next());
                        let nanos = entry.rsplit(':').next().and_then(|v| v.trim().parse().ok());
                        if let (Some(name), Some(nanos)) = (name, nanos) {
                            acc.add_phase(&engine, name, nanos);
                        }
                    }
                }
                if let Some(rss) = extract_u64(line, "peak_rss_kb") {
                    acc.peak_rss_kb = acc.peak_rss_kb.max(rss);
                }
            }
            "job_finish" => {
                acc.jobs_finished += 1;
                if let Some(ms) = extract_u64(line, "elapsed_ms") {
                    acc.total_elapsed_ms = acc.total_elapsed_ms.max(ms);
                }
            }
            "sweep_finish" => {
                if let Some(ms) = extract_u64(line, "elapsed_ms") {
                    acc.total_elapsed_ms = acc.total_elapsed_ms.max(ms);
                }
            }
            // job_start and future event kinds carry nothing to aggregate.
            _ => {}
        }
    }
    acc
}

fn render_report(acc: &Accumulated, prometheus: bool) {
    println!(
        "telemetry: {} sweep(s) [{}], {} points over {} finished jobs, {:.2}s wall, peak RSS {} kB",
        acc.sweeps.len(),
        acc.sweeps.join(", "),
        acc.points,
        acc.jobs_finished,
        acc.total_elapsed_ms as f64 / 1000.0,
        acc.peak_rss_kb
    );
    if acc.skipped_lines > 0 {
        println!("note: skipped {} unparseable line(s)", acc.skipped_lines);
    }

    // `coordinator` is timed inside `plan_build`; counting it again would
    // push the shares past 100%.
    let total_nanos: u64 = acc
        .phase_nanos
        .iter()
        .filter(|(_, phase, _)| phase != "coordinator")
        .map(|(_, _, n)| n)
        .sum();
    let mut phases = Table::new(
        "phase breakdown (wall time across all instrumented runs)",
        &["engine", "phase", "total ms", "share"],
    );
    for (engine, phase, nanos) in &acc.phase_nanos {
        phases.push_row(vec![
            engine.clone(),
            phase.clone(),
            format!("{:.3}", *nanos as f64 / 1e6),
            format!("{:.1}%", *nanos as f64 * 100.0 / total_nanos.max(1) as f64),
        ]);
    }
    println!("{}", phases.render());

    if acc.saw_counters {
        let c = &acc.counters;
        let mut t = Table::new(
            "aggregated run counters (deterministic)",
            &["metric", "value"],
        );
        for counter in &RunCounters::TABLE {
            t.push_row(vec![counter.key.to_string(), counter.get(c).to_string()]);
        }
        println!("{}", t.render());
        if prometheus {
            let labels: Vec<(&str, &str)> = acc
                .sweeps
                .first()
                .map(|s| vec![("sweep", s.as_str())])
                .unwrap_or_default();
            print!("{}", render_prometheus(c, &labels));
        }
    } else {
        println!("no counters in the sidecar (runs were not instrumented)");
    }
}

/// One workload row of a `BENCH_simulator*.json` file.
struct BenchWorkload {
    name: String,
    n: u64,
    rates: Vec<(&'static str, f64)>,
}

const RATE_KEYS: [&str; 2] = [
    "listener_centric_rounds_per_sec",
    "event_driven_rounds_per_sec",
];

fn parse_bench(path: &str) -> Result<Vec<BenchWorkload>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (at, _) in text.match_indices("{\"workload\"") {
        let obj = text[at..]
            .split('}')
            .next()
            .ok_or_else(|| format!("{path}: unterminated workload object"))?;
        let name = extract_str(obj, "workload")
            .ok_or_else(|| format!("{path}: workload without a name"))?;
        let n = extract_u64(obj, "n").ok_or_else(|| format!("{path}: {name} has no n"))?;
        let mut rates = Vec::new();
        for key in RATE_KEYS {
            rates.push((
                key,
                extract_f64(obj, key).ok_or_else(|| format!("{path}: {name} has no {key}"))?,
            ));
        }
        out.push(BenchWorkload {
            name: name.to_string(),
            n,
            rates,
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no workload objects found"));
    }
    Ok(out)
}

fn run_bench_guard(committed: &str, fresh: &str, threshold: f64) -> i32 {
    let (baseline, current) = match (parse_bench(committed), parse_bench(fresh)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut table = Table::new(
        format!("bench guard: {committed} vs {fresh} (threshold {threshold:.0}%)"),
        &["workload", "engine", "baseline r/s", "fresh r/s", "delta"],
    );
    let mut compared = 0usize;
    let mut regressions = 0usize;
    for base in &baseline {
        let Some(cur) = current.iter().find(|w| w.name == base.name) else {
            eprintln!(
                "note: workload {:?} missing from {fresh}, skipped",
                base.name
            );
            continue;
        };
        if cur.n != base.n {
            eprintln!(
                "note: workload {:?} ran at n = {} vs baseline n = {}, skipped",
                base.name, cur.n, base.n
            );
            continue;
        }
        for ((key, was), (_, now)) in base.rates.iter().zip(&cur.rates) {
            compared += 1;
            let delta = (now / was - 1.0) * 100.0;
            let engine = key.trim_end_matches("_rounds_per_sec");
            let regressed = delta < -threshold;
            if regressed {
                regressions += 1;
            }
            table.push_row(vec![
                base.name.clone(),
                engine.to_string(),
                format!("{was:.0}"),
                format!("{now:.0}"),
                format!(
                    "{delta:+.1}%{}",
                    if regressed { "  REGRESSION" } else { "" }
                ),
            ]);
        }
    }
    println!("{}", table.render());
    if compared == 0 {
        eprintln!("error: no comparable workloads between the two files");
        return 2;
    }
    if regressions > 0 {
        eprintln!(
            "bench guard FAILED: {regressions}/{compared} engine rates regressed more than \
             {threshold:.0}%"
        );
        return 1;
    }
    println!(
        "bench guard passed: no engine rate regressed more than {threshold:.0}% over \
         {compared} comparisons"
    );
    0
}

fn print_help() {
    println!(
        "telemetry-report — render sweep telemetry sidecars and guard bench baselines\n\
         \n\
         USAGE:\n\
         \ttelemetry-report <sidecar.jsonl> [--prometheus]\n\
         \ttelemetry-report --bench-guard <committed.json> <fresh.json> [--threshold PCT]\n\
         \n\
         OPTIONS:\n\
         \t--prometheus      also print the aggregated counters in Prometheus\n\
         \t                  exposition format\n\
         \t--bench-guard A B compare two BENCH_simulator*.json files workload by\n\
         \t                  workload; exit 1 if any engine's rounds/sec regressed\n\
         \t                  beyond the threshold\n\
         \t--threshold PCT   allowed regression percentage (default 25)"
    );
}

/// What one invocation asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    /// Render a sidecar, with the Prometheus exposition when set.
    Report(String, bool),
    /// Compare a committed and a fresh bench file under a threshold (%).
    BenchGuard(String, String, f64),
}

/// Parses the arguments after the program name. `--help` returns at once;
/// an unknown option, a stray path, or an option of the other mode is an
/// error.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let (mut prometheus, mut guard, mut threshold) = (false, None, None);
    let mut paths = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--prometheus" => prometheus = true,
            "--bench-guard" => {
                let (Some(committed), Some(fresh)) = (it.next(), it.next()) else {
                    return Err("--bench-guard requires two BENCH json paths".into());
                };
                guard = Some((committed, fresh));
            }
            "--threshold" => {
                let pct = it.next().and_then(|v| v.parse().ok()).filter(|v| *v >= 0.0);
                threshold = Some(pct.ok_or("--threshold requires a non-negative percentage")?);
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            _ => paths.push(arg),
        }
    }
    let usage = "expected <sidecar.jsonl> [--prometheus] or --bench-guard A B [--threshold PCT]";
    match (guard, paths.as_slice()) {
        (Some((committed, fresh)), []) if !prometheus => Ok(Command::BenchGuard(
            committed,
            fresh,
            threshold.unwrap_or(25.0),
        )),
        (None, [path]) if threshold.is_none() => Ok(Command::Report(path.clone(), prometheus)),
        _ => Err(usage.into()),
    }
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Help) => print_help(),
        Ok(Command::BenchGuard(committed, fresh, threshold)) => {
            std::process::exit(run_bench_guard(&committed, &fresh, threshold));
        }
        Ok(Command::Report(path, prometheus)) => match std::fs::read_to_string(&path) {
            Ok(text) => render_report(&accumulate(&text), prometheus),
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_telemetry::{Fold, JsonlEvent};

    /// Every counter set, each to a distinct value.
    fn distinct_counters() -> RunCounters {
        RunCounters {
            rounds: 1,
            transmitters: 2,
            transmissions: 3,
            deliveries: 4,
            collisions: 5,
            rx_faults: 6,
            silent_rounds: 7,
            max_transmitters_per_round: 8,
            total_bits: 9,
            max_message_bits: 10,
            frontier_peak: 11,
            node_steps: 12,
            harness_visits: 13,
            elided_rounds: 14,
            elided_spans: 15,
            scratch_reused: 16,
            scratch_fresh: 17,
        }
    }

    fn parse(argv: &str) -> Result<Command, String> {
        parse_args(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn unknown_options_and_mixed_modes_are_rejected() {
        for argv in [
            "sweep.jsonl --prometeus",
            "--no-such-option sweep.jsonl",
            "--bench-guard a.json b.json --thresold 30",
            "--bench-guard a.json",
            "--bench-guard a.json b.json --threshold -1",
            "--bench-guard a.json b.json sweep.jsonl",
            "--bench-guard a.json b.json --prometheus",
            "sweep.jsonl --threshold 30",
            "a.jsonl b.jsonl",
        ] {
            assert!(parse(argv).is_err(), "{argv}");
        }
    }

    #[test]
    fn both_modes_parse_in_any_order() {
        let report = Ok(Command::Report("s.jsonl".into(), true));
        assert_eq!(parse("s.jsonl --prometheus"), report);
        assert_eq!(parse("--prometheus s.jsonl"), report);
        let guard = |pct| Ok(Command::BenchGuard("a.json".into(), "b.json".into(), pct));
        assert_eq!(parse("--bench-guard a.json b.json"), guard(25.0));
        assert_eq!(
            parse("--threshold 75 --bench-guard a.json b.json"),
            guard(75.0)
        );
        assert_eq!(parse("s.jsonl --help"), Ok(Command::Help));
    }

    #[test]
    fn sidecar_counters_round_trip_through_the_table() {
        let run = distinct_counters();
        let line = JsonlEvent::new("point").counters("counters", &run).finish();
        let acc = accumulate(&format!("{line}{line}"));
        assert_eq!(acc.points, 2);
        assert!(acc.saw_counters);
        for counter in &RunCounters::TABLE {
            let once = counter.get(&run);
            let expected = match counter.fold {
                Fold::Sum => 2 * once,
                Fold::Max => once,
            };
            assert_eq!(counter.get(&acc.counters), expected, "{}", counter.key);
        }

        let text = render_prometheus(&acc.counters, &[]);
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(samples.len(), RunCounters::TABLE.len(), "{text}");
        for (sample, counter) in samples.iter().zip(&RunCounters::TABLE) {
            assert!(
                sample.starts_with(&format!("rn_{}", counter.key)),
                "{sample}"
            );
            assert!(
                sample.ends_with(&format!(" {}", counter.get(&acc.counters))),
                "{sample}"
            );
        }
    }
}
