//! `analyze` — the static-analysis gate: certify every labeling scheme on
//! the whole topology registry without trusting the simulator, then (by
//! default) cross-check the certified predictions against real simulations.
//!
//! Usage:
//!
//! ```text
//! analyze                            # 18 families x all general schemes, sizes 16/32
//! analyze --json report.json         # also write the machine-readable report
//! analyze --sizes 16,32,64 --seed 3  # change the instance grid
//! analyze --no-simulate              # static certification only (no cross-check)
//! analyze --corrupt                  # fault injection: every corrupted labeling
//!                                    # must yield a *located* finding
//! analyze --faults                   # run-time fault injection: a crashed node
//!                                    # must make the cross-check fail, located
//! ```
//!
//! The instances fan out over worker threads through
//! `scenario::fan_out` (`RN_THREADS` sets the count); each instance's
//! graph is generated once and shared by every scheme, and results come
//! back in grid order, so stdout and the JSON report never depend on the
//! thread count.
//!
//! Exit status: in certification mode, `0` iff every point certifies (and,
//! unless `--no-simulate`, every prediction matches its simulation); in
//! `--corrupt` mode, `0` iff every seeded corruption is caught with a
//! finding that names a node; in `--faults` mode, `0` iff every injected
//! run-time fault that perturbs the timeline makes the static cross-check
//! fail with a finding that names a node. Either way a non-zero exit means
//! the gate fails — CI wires this binary in directly.

use rn_analyze::{analyze_and_cross_check, analyze_session, certify_labeled, Certificate, Finding};
use rn_broadcast::session::{Scheme, Session};
use rn_experiments::scenario::{fan_out, Instance};
use rn_experiments::Table;
use rn_graph::generators::TopologyFamily;
use rn_graph::Graph;
use rn_labeling::label::{Label, Labeling};
use rn_radio::FaultPlan;
use rn_telemetry::json;
use std::sync::Arc;

struct Args {
    sizes: Vec<usize>,
    seed: u64,
    json: Option<String>,
    simulate: bool,
    corrupt: bool,
    faults: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sizes: vec![16, 32],
        seed: 1,
        json: None,
        simulate: true,
        corrupt: false,
        faults: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--sizes" => {
                let v = it.next().ok_or("--sizes requires a comma-separated list")?;
                args.sizes = v
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad size {s:?}")))
                    .collect::<Result<_, _>>()?;
                if args.sizes.is_empty() {
                    return Err("--sizes requires at least one size".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed requires a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json requires a path")?);
            }
            "--no-simulate" => args.simulate = false,
            "--corrupt" => args.corrupt = true,
            "--faults" => args.faults = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.corrupt && args.faults {
        return Err("--corrupt and --faults are separate gates; run them one at a time".into());
    }
    Ok(args)
}

fn print_help() {
    println!(
        "analyze — statically certify every labeling scheme on the topology registry\n\
         \n\
         USAGE:\n\
         \tanalyze [--sizes N,N,..] [--seed S] [--json PATH] [--no-simulate] [--corrupt]\n\
         \n\
         OPTIONS:\n\
         \t--sizes N,..     instance sizes to certify (default: 16,32)\n\
         \t--seed S         instance seed for the randomised families (default: 1)\n\
         \t--json PATH      write the machine-readable analysis report\n\
         \t--no-simulate    skip the static-vs-dynamic cross-check\n\
         \t--corrupt        fault-injection mode: corrupt one label per point and\n\
         \t                 require a located finding (node + violated rule)\n\
         \t--faults         run-time fault-injection mode: crash the last-informed\n\
         \t                 node per point and require the static cross-check to\n\
         \t                 fail with a located finding"
    );
}

/// Every general scheme analyzed on one generated instance: one row of the
/// summary table.
struct InstanceOutcome {
    family: &'static str,
    /// Actual node count of the instance.
    n: usize,
    points: Vec<PointOutcome>,
}

/// One analyzed scheme on an instance, flattened for the report.
struct PointOutcome {
    scheme: &'static str,
    /// Certification mode: the point certified (and cross-checked, when
    /// simulation is on). Corruption mode: the seeded corruption was caught
    /// with a located finding.
    ok: bool,
    predicted: Option<u64>,
    simulated: Option<u64>,
    bound: Option<u64>,
    findings: Vec<Finding>,
}

/// Seeds one deterministic label corruption appropriate to the scheme and
/// returns the corrupted labeling plus a description of what was broken.
fn corrupt_labeling(session: &Session, graph: &Graph) -> (Labeling, String) {
    let mut labels = session.labeling().labels().to_vec();
    let scheme = session.scheme();
    let name = session.labeling().scheme();
    match scheme {
        // The baselines certify label structure directly: a duplicated id /
        // a colour shared inside distance 2 must trip the slot checks.
        Scheme::UniqueIds => {
            labels[0] = Label::from_value(labels[1].value(), labels[0].len());
            (
                Labeling::new(labels, name),
                "node 0 copies node 1's id".into(),
            )
        }
        Scheme::SquareColoring => {
            let u = graph.neighbors(0)[0];
            labels[0] = Label::from_value(labels[u].value(), labels[0].len());
            (
                Labeling::new(labels, name),
                format!("node 0 copies adjacent node {u}'s colour"),
            )
        }
        // The coordinator-bearing schemes lose their coordinator's bits.
        Scheme::LambdaArb | Scheme::MultiLambda { .. } | Scheme::Gossip => {
            let r = session.coordinator();
            labels[r] = Label::from_value(0, labels[r].len());
            (
                Labeling::new(labels, name),
                format!("coordinator {r}'s label zeroed"),
            )
        }
        // λ / λ_ack: strand a stratum by clearing the highest-indexed
        // transmitter bit (the labelings are minimal, so every x1 node is
        // load-bearing).
        _ => {
            let v = (0..labels.len())
                .rev()
                .find(|&v| labels[v].x1())
                .expect("every labeling marks at least the source with x1");
            labels[v] = Label::from_value(0, labels[v].len());
            (
                Labeling::new(labels, name),
                format!("transmitter {v}'s label zeroed"),
            )
        }
    }
}

/// Analyzes every general scheme on one instance, sharing its graph.
fn analyze_instance(instance: &Instance, args: &Args) -> Result<InstanceOutcome, String> {
    Ok(InstanceOutcome {
        family: instance.family.name(),
        n: instance.graph.node_count(),
        points: Scheme::GENERAL
            .into_iter()
            .map(|scheme| analyze_point(instance, scheme, args))
            .collect::<Result<_, _>>()?,
    })
}

#[allow(clippy::too_many_lines)]
fn analyze_point(instance: &Instance, scheme: Scheme, args: &Args) -> Result<PointOutcome, String> {
    let Instance {
        family, n, graph, ..
    } = instance;
    let session = Session::builder(scheme, Arc::clone(graph))
        .build()
        .map_err(|e| {
            format!(
                "labeling {} (n = {n}) with {}: {e}",
                family.name(),
                scheme.name()
            )
        })?;

    if args.corrupt {
        let (corrupted, what) = corrupt_labeling(&session, graph);
        let result = certify_labeled(
            scheme,
            graph,
            &corrupted,
            session.source(),
            session.sources(),
            session.coordinator(),
            session.collection_plan(),
        );
        let (ok, findings) = match result {
            // A corrupted labeling that still certifies is a gate failure.
            Ok(_) => (false, Vec::new()),
            Err(findings) => {
                let located = findings.iter().any(Finding::is_located);
                (located, findings)
            }
        };
        if !ok {
            eprintln!(
                "MISSED: {} n={} {}: {what} not caught with a located finding",
                family.name(),
                session.graph().node_count(),
                scheme.name()
            );
        }
        return Ok(PointOutcome {
            scheme: scheme.name(),
            ok,
            predicted: None,
            simulated: None,
            bound: None,
            findings,
        });
    }

    if args.faults {
        // Run-time fault injection: crash the node the fault-free run
        // informs last, at round 1. The baseline informed it, so the crash
        // is guaranteed to perturb the timeline — and the static
        // certificate (which describes the fault-free schedule) must then
        // disagree with the faulted run, with a finding naming a node.
        let baseline = session.run();
        let victim = baseline
            .informed_rounds
            .iter()
            .enumerate()
            .filter(|&(v, r)| v != session.source() && r.is_some())
            .max_by_key(|&(_, r)| *r)
            .map(|(v, _)| v)
            .ok_or_else(|| {
                format!(
                    "{} n={}: no non-source node was informed, nothing to crash",
                    family.name(),
                    graph.node_count()
                )
            })?;
        let faulted_session = Session::builder(scheme, Arc::clone(graph))
            .faults(FaultPlan::none().crash(victim, 1))
            .build()
            .map_err(|e| {
                format!(
                    "labeling {} (n = {n}) with {}: {e}",
                    family.name(),
                    scheme.name()
                )
            })?;
        let report = faulted_session.run();
        let perturbed = report.informed_rounds != baseline.informed_rounds;
        let (ok, findings) = if perturbed {
            match analyze_and_cross_check(&faulted_session, &report) {
                // A perturbed run the cross-check still accepts is exactly
                // the blind spot this gate exists to catch.
                Ok(_) => (false, Vec::new()),
                Err(findings) => {
                    let located = findings.iter().any(Finding::is_located);
                    (located, findings)
                }
            }
        } else {
            // Cannot happen with this plan; flag it rather than vacuously
            // passing.
            (false, Vec::new())
        };
        if !ok {
            eprintln!(
                "MISSED: {} n={} {}: crashing node {victim} at round 1 {}",
                family.name(),
                session.graph().node_count(),
                scheme.name(),
                if perturbed {
                    "perturbed the run but the cross-check produced no located finding"
                } else {
                    "did not perturb the run"
                }
            );
        }
        return Ok(PointOutcome {
            scheme: scheme.name(),
            ok,
            predicted: None,
            simulated: report.completion_round,
            bound: None,
            findings,
        });
    }

    let (cert, mut findings): (Option<Certificate>, Vec<Finding>) = match analyze_session(&session)
    {
        Ok(cert) => (Some(cert), Vec::new()),
        Err(findings) => (None, findings),
    };
    let mut simulated = None;
    if let Some(cert) = &cert {
        if args.simulate {
            let report = session.run();
            simulated = report.completion_round;
            findings.extend(cert.cross_check(&report));
        }
    }
    let ok = findings.is_empty() && cert.is_some();
    if !ok {
        for f in &findings {
            eprintln!(
                "FINDING: {} n={} {}: {f}",
                family.name(),
                graph.node_count(),
                scheme.name()
            );
        }
    }
    Ok(PointOutcome {
        scheme: scheme.name(),
        ok,
        predicted: cert.as_ref().and_then(|c| c.completion_round),
        simulated,
        bound: cert.as_ref().map(|c| c.round_bound),
        findings,
    })
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\": \"{}\", \"node\": {}, \"round\": {}, \"detail\": \"{}\"}}",
        f.rule.name(),
        json::opt_u64(f.node.map(|v| v as u64)),
        json::opt_u64(f.round),
        json::escape(&f.detail)
    )
}

fn report_json(args: &Args, instances: &[InstanceOutcome]) -> String {
    let sizes: Vec<String> = args.sizes.iter().map(ToString::to_string).collect();
    let mut rows = Vec::new();
    for instance in instances {
        for p in &instance.points {
            let findings: Vec<String> = p.findings.iter().map(finding_json).collect();
            rows.push(format!(
                "    {{\"family\": \"{}\", \"n\": {}, \"scheme\": \"{}\", \"ok\": {}, \
                 \"predicted_completion_round\": {}, \"simulated_completion_round\": {}, \
                 \"round_bound\": {}, \"findings\": [{}]}}",
                json::escape(instance.family),
                instance.n,
                json::escape(p.scheme),
                p.ok,
                json::opt_u64(p.predicted),
                json::opt_u64(p.simulated),
                json::opt_u64(p.bound),
                findings.join(", "),
            ));
        }
    }
    let ok = instances
        .iter()
        .flat_map(|i| &i.points)
        .filter(|p| p.ok)
        .count();
    format!(
        "{{\n  \"mode\": \"{}\",\n  \"sizes\": [{}],\n  \"seed\": {},\n  \
         \"simulate\": {},\n  \"points\": [\n{}\n  ],\n  \
         \"summary\": {{\"points\": {}, \"ok\": {}, \"failed\": {}}}\n}}\n",
        if args.corrupt {
            "corrupt"
        } else if args.faults {
            "faults"
        } else {
            "certify"
        },
        sizes.join(", "),
        args.seed,
        (args.simulate && !args.corrupt) || args.faults,
        rows.join(",\n"),
        rows.len(),
        ok,
        rows.len() - ok,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let schemes = Scheme::GENERAL;
    eprintln!(
        "{} {} families x {} sizes x {} schemes (seed {})",
        if args.corrupt {
            "label-corrupting"
        } else if args.faults {
            "fault-injecting"
        } else {
            "certifying"
        },
        TopologyFamily::PRESETS.len(),
        args.sizes.len(),
        schemes.len(),
        args.seed
    );
    let started = std::time::Instant::now();
    let results = fan_out(
        &TopologyFamily::PRESETS,
        &args.sizes,
        &[args.seed],
        0,
        None,
        |instance| analyze_instance(&instance, &args),
    );
    let mut instances = Vec::with_capacity(results.len());
    for result in results {
        match result.map_err(|e| e.to_string()).and_then(|r| r) {
            Ok(instance) => instances.push(instance),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let points = instances.iter().map(|i| i.points.len()).sum::<usize>();

    // Summary table: one row per instance.
    let mut table = Table::new(
        if args.corrupt {
            format!("analyze --corrupt: {points} corrupted points")
        } else if args.faults {
            format!("analyze --faults: {points} fault-injected points")
        } else {
            format!("analyze: {points} certified points")
        },
        &[
            "family",
            "n",
            if args.corrupt || args.faults {
                "caught"
            } else {
                "certified"
            },
            "findings",
        ],
    );
    for instance in &instances {
        let ok = instance.points.iter().filter(|p| p.ok).count();
        let findings: usize = instance.points.iter().map(|p| p.findings.len()).sum();
        table.push_row(vec![
            instance.family.to_string(),
            instance.n.to_string(),
            format!("{ok}/{}", instance.points.len()),
            findings.to_string(),
        ]);
    }
    println!("{table}");

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report_json(&args, &instances)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    // A timing summary on stderr — the JSON report and exit status carry
    // only deterministic content, so CI can keep diffing them.
    let elapsed = started.elapsed();
    eprintln!(
        "analyzed {} points in {:.2}s ({:.1} points/s, peak RSS {} kB)",
        points,
        elapsed.as_secs_f64(),
        points as f64 / elapsed.as_secs_f64().max(1e-9),
        rn_telemetry::peak_rss_kb()
    );

    let failed = instances
        .iter()
        .flat_map(|i| &i.points)
        .filter(|p| !p.ok)
        .count();
    if failed > 0 {
        eprintln!(
            "{failed}/{points} points {}",
            if args.corrupt || args.faults {
                "escaped fault injection"
            } else {
                "failed certification"
            }
        );
        std::process::exit(1);
    }
    eprintln!(
        "all {points} points {}",
        if args.corrupt || args.faults {
            "caught with located findings"
        } else {
            "certified (static == simulated)"
        }
    );
}
