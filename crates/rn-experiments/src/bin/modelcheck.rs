//! `modelcheck` — the exhaustive bounded model checker: every
//! non-isomorphic connected graph up to a bound (plus every free tree up
//! to a larger bound) × every general-graph scheme, through certification,
//! cross-checking, the per-round invariant engine and the wake-hint
//! contract audit, with counterexample shrinking.
//!
//! Usage:
//!
//! ```text
//! modelcheck                          # all connected graphs n <= 7, trees n <= 10
//! modelcheck --max-n 5                # smaller exhaustive bound
//! modelcheck --trees-max-n 8          # smaller tree extension
//! modelcheck --schemes lambda,gossip  # restrict the scheme set
//! modelcheck --quick                  # CI-lane profile (n <= 4, trees n <= 6)
//! modelcheck --json report.json       # also write the machine-readable report
//! modelcheck --inject corrupt         # seeded label corruption: every point
//!                                     # must yield a shrunk, located witness
//! modelcheck --inject overpromise     # dishonest wake-hint protocol: every
//!                                     # graph with an edge must yield a witness
//! modelcheck --repro 'scheme=..;n=..' # replay one shrunk counterexample
//! ```
//!
//! Exit status: `0` iff the run found no violations, `1` if any witness
//! was produced (in `--inject` modes witnesses are the *expected* outcome
//! — CI inverts the check), `2` on usage errors.

use rn_broadcast::session::Scheme;
use rn_modelcheck::{
    parse_repro, replay, run_check, run_corrupt_injection, run_overpromise_injection,
    MinimalWitness, ModelCheckConfig, ModelCheckReport,
};
use rn_telemetry::json;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Check,
    InjectCorrupt,
    InjectOverpromise,
}

struct Args {
    config: ModelCheckConfig,
    mode: Mode,
    json: Option<String>,
    repro: Option<String>,
}

fn parse_schemes(list: &str) -> Result<Vec<Scheme>, String> {
    list.split(',')
        .map(|s| Scheme::parse(s.trim()).map_err(|e| e.to_string()))
        .collect()
}

/// Parses the arguments after the program name. `--quick` picks the base
/// profile; an explicit `--max-n`, `--trees-max-n` or `--schemes` wins over
/// it in any position.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut quick = false;
    let mut max_n = None;
    let mut trees_max_n = None;
    let mut schemes = None;
    let mut mode = Mode::Check;
    let mut json = None;
    let mut repro = None;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--max-n" => {
                let v = it.next().ok_or("--max-n requires a value")?;
                max_n = Some(v.parse().map_err(|_| format!("bad bound {v:?}"))?);
            }
            "--trees-max-n" => {
                let v = it.next().ok_or("--trees-max-n requires a value")?;
                trees_max_n = Some(v.parse().map_err(|_| format!("bad bound {v:?}"))?);
            }
            "--schemes" => {
                let v = it
                    .next()
                    .ok_or("--schemes requires a comma-separated list")?;
                let list = parse_schemes(&v)?;
                if list.is_empty() {
                    return Err("--schemes requires at least one scheme".into());
                }
                schemes = Some(list);
            }
            "--quick" => quick = true,
            "--json" => {
                json = Some(it.next().ok_or("--json requires a path")?);
            }
            "--inject" => {
                let v = it.next().ok_or("--inject requires corrupt|overpromise")?;
                mode = match v.as_str() {
                    "corrupt" => Mode::InjectCorrupt,
                    "overpromise" => Mode::InjectOverpromise,
                    other => return Err(format!("unknown injection {other:?}")),
                };
            }
            "--repro" => {
                repro = Some(it.next().ok_or("--repro requires a spec string")?);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let mut config = if quick {
        ModelCheckConfig::quick()
    } else {
        ModelCheckConfig::default()
    };
    config.max_n = max_n.unwrap_or(config.max_n);
    config.trees_max_n = trees_max_n.unwrap_or(config.trees_max_n);
    config.schemes = schemes.unwrap_or(config.schemes);
    Ok(Args {
        config,
        mode,
        json,
        repro,
    })
}

fn print_help() {
    println!(
        "modelcheck — exhaustively check every small graph x every scheme\n\
         \n\
         USAGE:\n\
         \tmodelcheck [--max-n N] [--trees-max-n N] [--schemes a,b,..] [--quick]\n\
         \t           [--json PATH] [--inject corrupt|overpromise] [--repro SPEC]\n\
         \n\
         OPTIONS:\n\
         \t--max-n N        check every connected graph with <= N nodes (default 7)\n\
         \t--trees-max-n N  additionally check every free tree with <= N nodes\n\
         \t                 (default 10)\n\
         \t--schemes LIST   comma-separated scheme names (default: all general)\n\
         \t--quick          CI-lane profile: n <= 4, trees n <= 6 (an explicit\n\
         \t                 --max-n or --trees-max-n still wins)\n\
         \t--json PATH      write the machine-readable report\n\
         \t--inject MODE    seeded-defect mode: 'corrupt' damages one label per\n\
         \t                 point, 'overpromise' runs a dishonest wake-hint\n\
         \t                 protocol; witnesses are the expected outcome\n\
         \t--repro SPEC     replay one counterexample spec and exit"
    );
}

fn print_witness(witness: &MinimalWitness) {
    println!("\ncounterexample: {witness}");
    print!("{}", witness.dot());
}

fn witness_json(w: &MinimalWitness) -> String {
    format!(
        "{{\"scheme\":{},\"code\":\"{}\",\"n\":{},\"edges\":{},\"shrink_steps\":{},\
         \"violation\":\"{}\",\"repro\":\"{}\"}}",
        w.violation
            .scheme
            .as_ref()
            .map_or("null".into(), |s| format!("\"{}\"", s.name())),
        w.violation.kind.code(),
        w.graph.node_count(),
        w.graph.edge_count(),
        w.shrink_steps,
        json::escape(&w.violation.to_string()),
        json::escape(&w.repro_spec())
    )
}

fn write_json(path: &str, mode: &str, report: &ModelCheckReport) -> std::io::Result<()> {
    let witnesses: Vec<String> = report.witnesses.iter().map(witness_json).collect();
    let json = format!(
        "{{\"mode\":\"{mode}\",\"graphs_checked\":{},\"points_checked\":{},\
         \"wake\":{{\"states_checked\":{},\"hints_audited\":{},\"steps_replayed\":{}}},\
         \"ok\":{},\"witnesses\":[{}]}}\n",
        report.graphs_checked,
        report.points_checked,
        report.wake.states_checked,
        report.wake.hints_audited,
        report.wake.steps_replayed,
        report.ok(),
        witnesses.join(",")
    );
    std::fs::write(path, json)
}

fn run_repro(spec: &str) -> i32 {
    let point = match parse_repro(spec) {
        Ok(point) => point,
        Err(e) => {
            eprintln!("error: bad repro spec: {e}");
            return 2;
        }
    };
    eprintln!(
        "replaying {} point: n = {}, {} edges, {} fault events",
        point.mode.name(),
        point.graph.node_count(),
        point.graph.edge_count(),
        point.faults.events().len()
    );
    match replay(&point) {
        Some(violation) => {
            println!("reproduced: {violation}");
            1
        }
        None => {
            println!("point passes: the spec no longer reproduces a violation");
            0
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };

    if let Some(spec) = &args.repro {
        std::process::exit(run_repro(spec));
    }

    let (mode_name, verb) = match args.mode {
        Mode::Check => ("check", "checking"),
        Mode::InjectCorrupt => ("corrupt", "corrupt-injecting"),
        Mode::InjectOverpromise => ("overpromise", "overpromise-injecting"),
    };
    eprintln!(
        "{verb} every connected graph n <= {}, every free tree n <= {}, {} schemes",
        args.config.max_n,
        args.config.trees_max_n.max(args.config.max_n),
        args.config.schemes.len()
    );

    let started = std::time::Instant::now();
    let report = match args.mode {
        Mode::Check => run_check(&args.config),
        Mode::InjectCorrupt => run_corrupt_injection(&args.config),
        Mode::InjectOverpromise => run_overpromise_injection(&args.config),
    };
    // Timing goes to stderr only: stdout, the JSON report, and the exit
    // status stay deterministic for CI.
    let elapsed = started.elapsed();
    eprintln!(
        "checked {} points over {} graphs in {:.2}s ({:.0} points/s, peak RSS {} kB)",
        report.points_checked,
        report.graphs_checked,
        elapsed.as_secs_f64(),
        report.points_checked as f64 / elapsed.as_secs_f64().max(1e-9),
        rn_telemetry::peak_rss_kb()
    );

    println!(
        "{} graphs, {} points; wake-hint audit: {} states checked, {} hints replayed \
         ({} steps); {} witnesses",
        report.graphs_checked,
        report.points_checked,
        report.wake.states_checked,
        report.wake.hints_audited,
        report.wake.steps_replayed,
        report.witnesses.len()
    );
    for witness in &report.witnesses {
        print_witness(witness);
    }
    match args.mode {
        Mode::Check => {
            if report.ok() {
                println!("model check passed: every point satisfied every invariant");
            }
        }
        Mode::InjectCorrupt | Mode::InjectOverpromise => {
            if report.ok() {
                println!(
                    "WARNING: injection produced no witnesses — the checker failed to \
                     catch the planted defects"
                );
            } else {
                println!(
                    "injection caught on every point: {} shrunk witnesses",
                    report.witnesses.len()
                );
            }
        }
    }

    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, mode_name, &report) {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }

    std::process::exit(i32::from(!report.ok()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> ModelCheckConfig {
        parse_args(argv.iter().map(ToString::to_string))
            .expect("valid arguments")
            .config
    }

    #[test]
    fn explicit_bounds_win_over_quick_in_any_position() {
        for argv in [
            ["--max-n", "5", "--trees-max-n", "8", "--quick"],
            ["--quick", "--max-n", "5", "--trees-max-n", "8"],
        ] {
            let config = parse(&argv);
            assert_eq!((config.max_n, config.trees_max_n), (5, 8), "{argv:?}");
        }
    }

    #[test]
    fn quick_sets_the_bounds_it_is_not_given() {
        let config = parse(&["--schemes", "lambda", "--quick"]);
        let quick = ModelCheckConfig::quick();
        assert_eq!(
            (config.max_n, config.trees_max_n),
            (quick.max_n, quick.trees_max_n)
        );
        assert_eq!(config.schemes, vec![Scheme::Lambda]);
        assert_eq!(parse(&[]).max_n, ModelCheckConfig::default().max_n);
    }
}
