//! End-to-end benchmark of the radio-labeling workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <lambda-xl|arb-batch|modelcheck> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` times untraced passes for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` makes the layer-by-layer traced run and
//! prints the per-layer metrics. Either way the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`,
//! and the exit code is non-zero when any output check failed.

mod layers;
mod stats;
mod tracer;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use workloads::{Size, Workload};

/// End-to-end metrics, with units, in output order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("runs_per_s", "1/s"),
    ("sim_rounds_per_s", "rounds/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units, in output order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("graph.generate_s", "s"),
    ("graph.enumerate_s", "s"),
    ("labeling.construct_s", "s"),
    ("labeling.stages", "count"),
    ("labeling.frontier_sum", "count"),
    ("session.build_s", "s"),
    ("session.template_s", "s"),
    ("session.run_s", "s"),
    ("session.run_s.event_driven", "s"),
    ("session.harness_s", "s"),
    ("engine.step_s", "s"),
    ("engine.step_s.event_driven", "s"),
    ("engine.node_steps", "count"),
    ("engine.node_steps.event_driven", "count"),
    ("engine.elided_rounds", "count"),
    ("trace.record_s", "s"),
    ("batch.busy_s", "s"),
    ("batch.idle_s", "s"),
    ("run.transmissions", "count"),
    ("run.deliveries", "count"),
    ("run.collisions", "count"),
    ("analyze.certify_s", "s"),
    ("modelcheck.check_s", "s"),
    ("audit.wake_s", "s"),
    ("audit.states_checked", "count"),
    ("sweep.run_s", "s"),
    ("sweep.overhead_s", "s"),
    ("emit.json_s", "s"),
    ("emit.csv_s", "s"),
];

/// Set-ups before each timed pass; `setup_s` is the median of all of them.
/// Spreading them over the run, as the passes are, keeps `setup_s` from
/// depending on how loaded the host was in the run's first second.
const SETUPS_PER_PASS: usize = 2;

/// Passes per timed run at least, however long they take.
const MIN_PASSES: usize = 3;

pub fn is_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|&(n, unit)| n == name && unit == "count")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut size) = (1, 10.0, false, Size::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            size = Size::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad("lambda-xl, arb-batch or modelcheck"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

/// The benchmark's verdict: what the last output line reports.
pub struct Verdict {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Metric name, unit and value, in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Verdict {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `VmHWM` of this process, which ran only the one workload.
fn peak_rss_mb() -> f64 {
    rn_telemetry::peak_rss_kb() as f64 / 1024.0
}

/// The timed run: set up, then untraced passes for `seconds` (at least
/// `MIN_PASSES`), each after `SETUPS_PER_PASS` more timed set-ups, checking
/// every pass's outputs after its clock stops.
pub fn timed_run(workload: Workload, size: Size, seed: u64, seconds: f64) -> Verdict {
    let off = tracer::Tracer::off();
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let p = workloads::setup(workload, size, seed, &off);
        setup_s.push(start.elapsed().as_secs_f64());
        p
    };
    let prepared = match set_up() {
        Ok(p) => p,
        Err(e) => {
            return Verdict {
                attempted: 1,
                failures: vec![format!("set-up failed: {e}")],
                metrics: Vec::new(),
            };
        }
    };
    let (mut runs_per_s, mut rounds_per_s) = (Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let (mut attempted, mut digest) = (0, None);
    let mut check = |results: &workloads::PassResults| {
        attempted += results.units() as u64;
        let (pass_failures, pass_digest) = workloads::check_pass(results, &off);
        failures.extend(pass_failures);
        if *digest.get_or_insert(pass_digest) != pass_digest {
            failures.push("a pass reported differently from the first".into());
        }
    };
    // The warm-up pass lets the allocator and the session scratch pools
    // reach their steady state; its outputs are checked but not timed.
    check(&workloads::run_pass(&prepared, &off, None));
    let mut setup_failures = Vec::new();
    let start = Instant::now();
    while runs_per_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUPS_PER_PASS {
            if let Err(e) = set_up() {
                setup_failures.push(format!("set-up failed: {e}"));
            }
        }
        let pass_start = Instant::now();
        let results = workloads::run_pass(&prepared, &off, None);
        let wall = pass_start.elapsed().as_secs_f64();
        runs_per_s.push(results.units() as f64 / wall);
        rounds_per_s.push(results.rounds() as f64 / wall);
        check(&results);
    }
    failures.append(&mut setup_failures);
    let passes = runs_per_s.len();
    println!(
        "workload {} seed {seed} passes {passes} (available parallelism {})",
        workload.name(),
        available_parallelism()
    );
    for (name, values) in [
        ("runs_per_s", &runs_per_s),
        ("sim_rounds_per_s", &rounds_per_s),
        ("setup_s", &setup_s),
    ] {
        let [q1, q2, q3] = stats::quartiles(values);
        println!(
            "  {name:<18} median {q2:.6}  q1 {q1:.6}  q3 {q3:.6}  over {} samples",
            values.len()
        );
    }
    println!(
        "  failed_frac        {} ({} of {attempted} units failed)",
        failures.len() as f64 / attempted.max(1) as f64,
        failures.len()
    );
    println!("  digest             {:016x}", digest.unwrap_or(0));
    let values = [
        stats::median(&runs_per_s),
        stats::median(&rounds_per_s),
        stats::median(&setup_s),
        peak_rss_mb(),
    ];
    Verdict {
        attempted,
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The traced run: prints self times, the tracing overhead and every count,
/// writes the spans to the `out` directory beside this package's manifest,
/// and reports the per-layer metrics.
pub fn traced_run(workload: Workload, size: Size, seed: u64, seconds: f64) -> Verdict {
    let (last, layers, reps) = match layers::traced_run(workload, size, seed, seconds) {
        Ok(t) => t,
        Err(e) => {
            return Verdict {
                attempted: 1,
                failures: vec![format!("set-up failed: {e}")],
                metrics: Vec::new(),
            }
        }
    };
    println!(
        "workload {} seed {seed} traced repetitions {reps} (available parallelism {})",
        workload.name(),
        available_parallelism()
    );
    println!("  self time of the traced pass, thread-seconds:");
    for (name, s) in &last.self_times {
        println!("    {name:<30} {s:.6}");
    }
    let self_sum: f64 = last.self_times.values().sum();
    let overhead = last.traced_wall_s - last.untraced_wall_s;
    println!(
        "  self-time sum {self_sum:.6} thread-s = traced pass {:.6} s + {:.6} thread-s of parallel lanes; untraced pass {:.6} s; tracing overhead {overhead:.6} s",
        last.traced_wall_s, last.extra_lane_s, last.untraced_wall_s
    );
    let mut failures = last.failures;
    if (self_sum - last.extra_lane_s - last.untraced_wall_s).abs() > overhead.abs() + 1e-6 {
        failures.push("layer self times do not add up to the pass wall time".into());
    }
    let (owner, borrowed) = layers::borrowed(workload);
    println!(
        "  layers this workload never calls are measured on {} at smoke size: {}",
        owner.name(),
        borrowed.join(", ")
    );
    let counts: Vec<String> = PER_LAYER
        .iter()
        .filter(|(n, _)| is_count(n) && !borrowed.contains(n))
        .map(|(n, _)| format!("{n}={}", layers[n]))
        .collect();
    println!("  digest {:016x} counts {}", last.digest, counts.join(" "));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    match tracer::write_jsonl(&last.spans, &path) {
        Ok(()) => println!("  {} spans written to {}", last.spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Verdict {
        attempted: last.attempted,
        failures,
        metrics: PER_LAYER.iter().map(|&(n, u)| (n, u, layers[n])).collect(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <lambda-xl|arb-batch|modelcheck> --seed <n> --seconds <s> --trace <0|1> [--smoke]");
            return ExitCode::from(2);
        }
    };
    let verdict = if args.trace {
        traced_run(args.workload, args.size, args.seed, args.seconds)
    } else {
        timed_run(args.workload, args.size, args.seed, args.seconds)
    };
    for f in &verdict.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", verdict.json());
    if verdict.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_broadcast::session::{RunSpec, Scheme, Session, TracePolicy};
    use std::sync::Arc;
    use workloads::{PassResults, RunUnit};

    fn names_and_units(v: &Verdict) -> Vec<(&str, &str)> {
        v.metrics.iter().map(|&(n, u, _)| (n, u)).collect()
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit_on_every_workload() {
        for w in Workload::ALL {
            let timed = timed_run(w, Size::Smoke, 5, 0.0);
            assert!(
                timed.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                timed.failures
            );
            assert_eq!(names_and_units(&timed), END_TO_END.to_vec(), "{}", w.name());
            let traced = traced_run(w, Size::Smoke, 5, 0.0);
            assert!(
                traced.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                traced.failures
            );
            assert_eq!(names_and_units(&traced), PER_LAYER.to_vec(), "{}", w.name());
            for v in [&timed, &traced] {
                let json = v.json();
                assert!(
                    json.starts_with("{\"correct\": true, \"attempted\": "),
                    "{json}"
                );
                for (name, unit, value) in &v.metrics {
                    assert!(value.is_finite(), "{}: {name} = {value}", w.name());
                    let entry = format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
                    assert!(
                        json.contains(&entry),
                        "{}: {entry} missing from {json}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                declared.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            declared.matches("\"unit\": ").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        // `modelcheck` runs by hand only: its throughput drifts too far with
        // the load on a shared host to gate a change (see the README).
        for w in Workload::ALL {
            assert_eq!(
                declared.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                w != Workload::ModelCheck,
                "{}",
                w.name()
            );
        }
    }

    fn lambda_unit(scheme: Scheme) -> RunUnit {
        let g = Arc::new(rn_graph::generators::path(12));
        let session = Session::builder(scheme, g)
            .message(workloads::MESSAGE)
            .trace(TracePolicy::Disabled)
            .build()
            .expect("a path is labelable");
        let report = session.run();
        RunUnit {
            family: "path",
            session: Arc::new(session),
            trace: TracePolicy::Disabled,
            spec: RunSpec::new(0, workloads::MESSAGE),
            report,
        }
    }

    #[test]
    fn output_checks_reject_broken_reports() {
        let failures = |unit: RunUnit| {
            workloads::check_pass(&PassResults::Runs(vec![Ok(unit)]), &tracer::Tracer::off()).0
        };
        for scheme in [Scheme::Lambda, Scheme::LambdaAck, Scheme::LambdaArb] {
            assert_eq!(
                failures(lambda_unit(scheme)),
                Vec::<String>::new(),
                "{}",
                scheme.name()
            );
        }

        // Past Theorem 2.9's 2n - 3 rounds: the report check and the
        // analyzer's cross-check both object.
        let mut late = lambda_unit(Scheme::Lambda);
        let bound = late
            .report
            .theorem_bound()
            .expect("λ has a closed-form bound");
        late.report.completion_round = Some(bound + 1);
        assert!(workloads::check_report(&late.report, Scheme::Lambda)
            .unwrap_err()
            .contains("bound"));
        assert_eq!(failures(late).len(), 2);

        let mut unfinished = lambda_unit(Scheme::Lambda);
        unfinished.report.completion_round = None;
        assert!(workloads::check_report(&unfinished.report, Scheme::Lambda).is_err());

        let mut unacked = lambda_unit(Scheme::LambdaAck);
        unacked.report.ack_round = None;
        assert!(workloads::check_report(&unacked.report, Scheme::LambdaAck).is_err());

        let mut unknown = lambda_unit(Scheme::LambdaArb);
        unknown.report.common_knowledge_round = None;
        assert!(workloads::check_report(&unknown.report, Scheme::LambdaArb).is_err());

        // A failed unit, such as a labeling error, is a failure too.
        let errs = workloads::check_pass(
            &PassResults::Runs(vec![Err("labeling failed".into())]),
            &tracer::Tracer::off(),
        )
        .0;
        assert_eq!(errs, vec!["labeling failed".to_string()]);
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a =
            args("--workload arb-batch --seed 9 --seconds 2.5 --trace 1 --smoke").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.size),
            (Workload::ArbBatch, 9, 2.5, true, Size::Smoke)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload modelcheck --trace 2",
            "--workload modelcheck --seconds -1",
            "--workload modelcheck --seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
