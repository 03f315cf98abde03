//! `sweep` — run a named topology/scheme sweep and emit machine-readable
//! reports.
//!
//! Usage:
//!
//! ```text
//! sweep --list                       # list the named sweeps
//! sweep smoke                        # run a sweep, print the summary table
//! sweep radio --json report.json     # also write the full JSON report
//! sweep families --csv records.csv   # also write the per-run CSV
//! sweep scaling --quick              # shrink sizes/seeds for a fast pass
//! sweep smoke --threads 2            # cap the worker threads
//! sweep smoke --verify-static        # certify every point statically first
//! sweep smoke --faults               # add the default fault presets as an axis
//! sweep smoke --faults crash:20,jam:2  # or a custom preset list
//! sweep smoke --engine listener-centric  # replay on the reference engine
//! sweep smoke --metrics sweep.jsonl  # stream per-run telemetry to a JSONL sidecar
//! ```
//!
//! Reports are deterministic: the same sweep name and code version produce
//! byte-identical JSON/CSV, regardless of `--threads` — and regardless of
//! `--metrics`, which only observes the runs (wall-clock timings, phase
//! spans, and progress go to the sidecar and stderr, never into a report).

use rn_experiments::emit;
use rn_experiments::faults::FaultSpec;
use rn_experiments::scenario::{self, SweepSpec};
use rn_experiments::telemetry::{engine_name, SweepTelemetry};
use rn_radio::Engine;

struct Args {
    name: Option<String>,
    json: Option<String>,
    csv: Option<String>,
    metrics: Option<String>,
    quick: bool,
    threads: Option<usize>,
    verify_static: bool,
    faults: Option<Vec<FaultSpec>>,
    engine: Option<Engine>,
    list: bool,
}

/// Every engine `--engine` accepts, default first.
const ENGINES: [Engine; 2] = [Engine::EventDriven, Engine::ListenerCentric];

/// Parses an engine by its [`engine_name`], the spelling the sidecar's
/// `engine` field records. The engine changes throughput, never results,
/// so any report is comparable byte-for-byte across these choices.
fn parse_engine(s: &str) -> Option<Engine> {
    ENGINES.into_iter().find(|&e| engine_name(e) == s)
}

/// The accepted engine names, `a | b`, for the help and error text.
fn engine_names() -> String {
    ENGINES.map(engine_name).join(" | ")
}

/// Parses a comma-separated preset list (`crash:20,jam:2`); `None` if any
/// entry is not a valid preset.
fn parse_fault_list(s: &str) -> Option<Vec<FaultSpec>> {
    s.split(',').map(FaultSpec::parse).collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        name: None,
        json: None,
        csv: None,
        metrics: None,
        quick: false,
        threads: None,
        verify_static: false,
        faults: None,
        engine: None,
        list: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--list" => args.list = true,
            "--quick" => args.quick = true,
            "--verify-static" => args.verify_static = true,
            "--faults" => {
                // An optional value: `--faults crash:20,jam:2` names the
                // presets; a bare `--faults` installs the default set. A
                // following token that is not a preset list (e.g. the sweep
                // name) is left for the positional parser.
                let presets = it.peek().and_then(|next| parse_fault_list(next));
                args.faults = match presets {
                    Some(list) => {
                        it.next();
                        Some(list)
                    }
                    None => Some(FaultSpec::DEFAULT_PRESETS.to_vec()),
                };
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json requires a path")?);
            }
            "--csv" => {
                args.csv = Some(it.next().ok_or("--csv requires a path")?);
            }
            "--metrics" => {
                args.metrics = Some(it.next().ok_or("--metrics requires a path")?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads requires a count")?;
                args.threads = Some(v.parse().map_err(|_| format!("bad thread count {v:?}"))?);
            }
            "--engine" => {
                let v = it.next().ok_or("--engine requires a name")?;
                args.engine = Some(
                    parse_engine(&v).ok_or(format!("unknown engine {v:?} ({})", engine_names()))?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other:?}"));
            }
            name => {
                if args.name.is_some() {
                    return Err("only one sweep name may be given".into());
                }
                args.name = Some(name.to_string());
            }
        }
    }
    Ok(args)
}

fn print_help() {
    println!(
        "sweep — run a named topology/scheme sweep\n\
         \n\
         USAGE:\n\
         \tsweep <name> [--json PATH] [--csv PATH] [--metrics PATH] [--quick] [--threads N]\n\
         \t             [--verify-static] [--faults [LIST]] [--engine NAME]\n\
         \tsweep --list\n\
         \n\
         OPTIONS:\n\
         \t--json PATH   write the full report (spec, records, histograms, summary) as JSON\n\
         \t--csv PATH    write the per-run records as CSV\n\
         \t--metrics PATH  stream JSONL telemetry (per-run counters, phase spans, job progress,\n\
         \t              ETA) to PATH while the sweep runs, with a live progress line on stderr;\n\
         \t              reports stay byte-identical with or without this flag\n\
         \t--quick       shrink sizes and seeds for a fast smoke pass\n\
         \t--threads N   worker threads (default: one per core, capped; RN_THREADS overrides)\n\
         \t--verify-static  statically certify every point (rn-analyze) before trusting its run;\n\
         \t              any finding or static-vs-dynamic mismatch aborts the sweep\n\
         \t--faults [LIST]  add fault presets as a sweep axis; LIST is comma-separated\n\
         \t              (none, crash:P, jam:K, latewake:P — P a percentage, K a node count);\n\
         \t              a bare --faults uses the default set none,crash:15,jam:1,latewake:25\n\
         \t--engine NAME simulator delivery engine, default first: {engines};\n\
         \t              results are engine-independent\n\
         \t--list        list the named sweeps",
        engines = engine_names()
    );
}

fn list_sweeps() {
    println!("available sweeps:");
    for (name, purpose) in scenario::SWEEP_NAMES {
        println!("  {name:<12} {purpose}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    if args.list {
        list_sweeps();
        return;
    }
    let Some(name) = args.name else {
        eprintln!("error: no sweep name given (try --list)");
        std::process::exit(2);
    };
    let Some(mut spec): Option<SweepSpec> = scenario::named(&name) else {
        eprintln!("error: unknown sweep {name:?}");
        list_sweeps();
        std::process::exit(2);
    };
    if args.quick {
        spec = spec.quick();
    }
    if let Some(threads) = args.threads {
        spec = spec.threads(threads);
    }
    if args.verify_static {
        spec = spec.verify_static(true);
    }
    if let Some(faults) = &args.faults {
        spec = spec.faults(faults);
    }
    if let Some(engine) = args.engine {
        spec = spec.engine(engine);
    }
    eprintln!(
        "sweep {name:?}: {} families x {} sizes x {} schemes x {} seeds x {} fault presets = {} runs",
        spec.families.len(),
        spec.sizes.len(),
        spec.schemes.len(),
        spec.seeds.len(),
        spec.faults.len(),
        spec.run_count()
    );
    let telemetry = match args.metrics.as_deref() {
        Some(path) => match SweepTelemetry::to_file(std::path::Path::new(path)) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("error: creating {path}: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };
    let report = match spec.run_with_telemetry(telemetry.as_ref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.summary_table());
    if let Some(path) = &args.metrics {
        eprintln!("wrote {path}");
    }
    if spec.verify_static {
        let certified = report
            .records
            .iter()
            .filter(|r| r.predicted_completion_round.is_some())
            .count();
        eprintln!(
            "static preflight: {certified}/{} records certified (predicted == simulated completion)",
            report.records.len()
        );
    }
    if let Some(path) = args.json {
        if let Err(e) = std::fs::write(&path, emit::to_json(&report)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.csv {
        if let Err(e) = std::fs::write(&path, emit::to_csv(&report)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for engine in ENGINES {
            assert_eq!(parse_engine(engine_name(engine)), Some(engine));
        }
        assert_eq!(parse_engine("event"), None, "short aliases are gone");
        assert_eq!(parse_engine("transmitter-centric"), None);
    }
}
