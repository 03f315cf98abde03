//! Round-throughput benchmark for the simulator engines, with a JSON
//! emitter so the perf trajectory is recorded across PRs.
//!
//! Measures rounds/second with tracing off on both engines: the retained
//! listener-centric reference engine (`Engine::ListenerCentric` — the
//! original delivery algorithm, verbatim) and the fast engine
//! (`Engine::EventDriven`). Results, including the fast engine's speedup
//! over the reference, go to `BENCH_simulator.json` at the workspace root.
//!
//! Workloads: Algorithm B (λ labels) on the original ladder — a path
//! (n = 10 000), a uniform random tree, and G(n, p) graphs of average
//! degree 8 and 32 — plus one case per family the topology registry added
//! (torus, hypercube, caterpillar, lollipop, star-of-cliques, clustered
//! G(n, p), unit-disk, degree-capped), drawn through
//! `TopologyFamily::generate` so the benches measure exactly the instances
//! the scenario sweeps run on. B_ack and B_arb run on the path too (λ_ack
//! and λ_arb labels), and the k = 4 multi-broadcast and all-to-all gossip
//! on G(n, p). Every one of these protocols declares wake hints, so the
//! fast engine drives it along its frontier and elides the quiet tail; a
//! multi or gossip relay sleeps until its collection slot. Every run
//! executes `2n` rounds — the active broadcast wave plus
//! the quiet tail — because the paper's protocols spend most of a long
//! execution in rounds with very few (often zero) transmitters: the
//! listener-centric engine scans every listener's whole neighbourhood even
//! in a silent round (O(Σ deg) per round), while the fast engine walks only
//! the transmitters' CSR rows.
//!
//! Modes:
//! * default — full run: n = 10 000, 2n rounds per sample, 3 samples;
//! * `--quick` (or `BENCH_QUICK=1`) — CI smoke: n = 2 000, 1 sample;
//! * `--test` — one tiny iteration, no JSON (cargo's bench-test mode).
//!
//! The custom harness (not criterion) exists because the emitter needs to
//! run after all measurements and write one consolidated file.

use rn_broadcast::algo_b::BNode;
use rn_broadcast::algo_back::BackNode;
use rn_broadcast::algo_barb::ArbNode;
use rn_broadcast::gossip::GossipNode;
use rn_broadcast::multi::MultiNode;
use rn_graph::generators::TopologyFamily;
use rn_graph::{generators, Graph};
use rn_labeling::{gossip, lambda, lambda_ack, lambda_arb, multi};
use rn_radio::{Engine, RadioNode, Simulator};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

struct Config {
    n: usize,
    samples: usize,
    quick: bool,
    test_mode: bool,
}

struct Measurement {
    workload: &'static str,
    scheme: &'static str,
    n: usize,
    avg_degree: f64,
    rounds_per_sample: u64,
    reference_rounds_per_sec: f64,
    event_rounds_per_sec: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.event_rounds_per_sec / self.reference_rounds_per_sec
    }
}

fn config() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let quick = test_mode
        || args.iter().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    let n = if test_mode {
        200
    } else if quick {
        2_000
    } else {
        10_000
    };
    Config {
        n,
        samples: if quick { 1 } else { 3 },
        quick,
        test_mode,
    }
}

/// Median rounds/second over `samples` runs of `rounds` rounds of the
/// protocol produced by `make_nodes`, with the given engine, tracing off.
fn measure<N: RadioNode>(
    graph: &Arc<Graph>,
    make_nodes: impl Fn() -> Vec<N>,
    engine: Engine,
    rounds: u64,
    samples: usize,
) -> f64 {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let mut sim = Simulator::new(Arc::clone(graph), make_nodes())
                .without_trace()
                .with_engine(engine);
            let start = Instant::now();
            sim.run_rounds(rounds);
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(sim.current_round());
            rounds as f64 / secs
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn bench_case<N: RadioNode>(
    name: &'static str,
    scheme: &'static str,
    graph: Arc<Graph>,
    make_nodes: impl Fn() -> Vec<N>,
    cfg: &Config,
) -> Measurement {
    let rounds = 2 * graph.node_count() as u64;
    let reference = measure(
        &graph,
        &make_nodes,
        Engine::ListenerCentric,
        rounds,
        cfg.samples,
    );
    let event = measure(
        &graph,
        &make_nodes,
        Engine::EventDriven,
        rounds,
        cfg.samples,
    );
    let m = Measurement {
        workload: name,
        scheme,
        n: graph.node_count(),
        avg_degree: graph.average_degree(),
        rounds_per_sample: rounds,
        reference_rounds_per_sec: reference,
        event_rounds_per_sec: event,
    };
    println!(
        "round_throughput/{name}/n={} ({scheme}, avg deg {:.1}): listener-centric \
         {:.0} rounds/s, event-driven {:.0} rounds/s, speedup {:.2}x",
        m.n,
        m.avg_degree,
        m.reference_rounds_per_sec,
        m.event_rounds_per_sec,
        m.speedup()
    );
    m
}

/// The standard single-source Algorithm B case under λ labels.
fn run_workload(name: &'static str, graph: Graph, cfg: &Config) -> Measurement {
    let graph = Arc::new(graph);
    let labeling = lambda::construct(&graph, 0)
        .expect("workload is connected")
        .into_labeling();
    bench_case(
        name,
        "lambda",
        Arc::clone(&graph),
        move || BNode::network(&labeling, 0, 7),
        cfg,
    )
}

/// Algorithm B_ack under λ_ack labels, from source 0: the broadcast wave,
/// then the acknowledgement hopping back to the source.
fn run_ack_workload(name: &'static str, graph: Graph, cfg: &Config) -> Measurement {
    let graph = Arc::new(graph);
    let labeling = lambda_ack::construct(&graph, 0)
        .expect("workload is connected")
        .into_labeling();
    bench_case(
        name,
        "lambda_ack",
        Arc::clone(&graph),
        move || BackNode::network(&labeling, 0, 7),
        cfg,
    )
}

/// Algorithm B_arb under λ_arb labels, from the far end of the graph: the
/// coordinator's three phases, with every informed node counting down.
fn run_arb_workload(name: &'static str, graph: Graph, cfg: &Config) -> Measurement {
    let graph = Arc::new(graph);
    let source = graph.node_count() - 1;
    let labeling = lambda_arb::construct(&graph)
        .expect("workload is connected")
        .into_labeling();
    bench_case(
        name,
        "lambda_arb",
        Arc::clone(&graph),
        move || ArbNode::network(&labeling, source, 7),
        cfg,
    )
}

/// A k-source multi-broadcast case: collection plus bundle broadcast, so
/// the engines also see the one-transmitter collection rounds and the
/// Arc-shared bundle relays.
fn run_multi_workload(name: &'static str, graph: Graph, k: usize, cfg: &Config) -> Measurement {
    let graph = Arc::new(graph);
    let n = graph.node_count();
    let sources: Vec<usize> = (0..k.min(n)).map(|i| i * n / k.min(n)).collect();
    let scheme = multi::construct(&graph, &sources).expect("workload is connected");
    let payloads: Vec<u64> = (0..scheme.k() as u64).map(|j| 7 + j).collect();
    bench_case(
        name,
        "multi_lambda",
        Arc::clone(&graph),
        move || MultiNode::network(&scheme, &payloads),
        cfg,
    )
}

/// The all-to-all gossip case: the token-walk collection dominates the 2n
/// measured rounds, so the engines see n messages in flight — every round
/// has exactly one transmitter whose token grows toward n entries, the
/// worst case for per-message bookkeeping rather than for delivery fan-out.
fn run_gossip_workload(name: &'static str, graph: Graph, cfg: &Config) -> Measurement {
    let graph = Arc::new(graph);
    let n = graph.node_count();
    let scheme = gossip::construct(&graph).expect("workload is connected");
    let payloads: Vec<u64> = (0..n as u64).map(|j| 7 + j).collect();
    bench_case(
        name,
        "gossip",
        Arc::clone(&graph),
        move || GossipNode::network(&scheme, &payloads),
        cfg,
    )
}

fn emit_json(measurements: &[Measurement], cfg: &Config) -> std::io::Result<std::path::PathBuf> {
    let timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut entries = String::new();
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"avg_degree\": {:.2}, \
             \"scheme\": \"{}\", \"tracing\": false, \"rounds_per_sample\": {}, \
             \"listener_centric_rounds_per_sec\": {:.1}, \
             \"event_driven_rounds_per_sec\": {:.1}, \
             \"speedup\": {:.3}}}",
            m.workload,
            m.n,
            m.avg_degree,
            m.scheme,
            m.rounds_per_sample,
            m.reference_rounds_per_sec,
            m.event_rounds_per_sec,
            m.speedup()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"bench_round_throughput\",\n  \
         \"timestamp_unix\": {timestamp},\n  \"quick\": {},\n  \
         \"workloads\": [\n{entries}\n  ]\n}}\n",
        cfg.quick
    );
    let out = std::env::var("BENCH_OUT").map_or_else(
        |_| {
            // crates/rn-bench -> workspace root
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_simulator.json")
        },
        Into::into,
    );
    std::fs::write(&out, json)?;
    Ok(out.canonicalize().unwrap_or(out))
}

/// One registry family per bench case; every instance comes through the
/// same `generate` entry point the sweeps use.
const REGISTRY_CASES: [(&str, TopologyFamily); 8] = [
    ("torus", TopologyFamily::Torus),
    ("hypercube", TopologyFamily::Hypercube),
    ("caterpillar", TopologyFamily::Caterpillar { legs: 2 }),
    ("lollipop", TopologyFamily::Lollipop),
    (
        "star-of-cliques",
        TopologyFamily::StarOfCliques { clique_size: 8 },
    ),
    (
        "clustered-gnp",
        TopologyFamily::ClusteredGnp {
            clusters: 6,
            p_in: 0.6,
            p_out: 0.01,
        },
    ),
    ("unit-disk", TopologyFamily::UnitDisk { avg_degree: 8.0 }),
    (
        "degree-capped",
        TopologyFamily::DegreeCapped { max_degree: 4 },
    ),
];

fn main() {
    let cfg = config();
    let n = cfg.n;
    let mut measurements = vec![
        run_workload("path", generators::path(n), &cfg),
        run_ack_workload("lambda-ack-path", generators::path(n), &cfg),
        run_arb_workload("lambda-arb-path", generators::path(n), &cfg),
        run_workload("random-tree", generators::random_tree(n, 7), &cfg),
        run_workload(
            "gnp-avg-deg-8",
            generators::gnp_connected(n, 8.0 / n as f64, 1).unwrap(),
            &cfg,
        ),
        run_workload(
            "gnp-avg-deg-32",
            generators::gnp_connected(n, 32.0 / n as f64, 1).unwrap(),
            &cfg,
        ),
    ];
    // The dense quadratic-ish generators (clustered gnp, unit disk) are the
    // slow part at n = 10k; the registry cases therefore run at a smaller n
    // so a full bench pass stays in minutes. The engines see every family's
    // *shape*, which is what these cases exist to cover.
    let reg_n = if cfg.test_mode { 200 } else { n / 4 };
    for (name, family) in REGISTRY_CASES {
        let g = family
            .generate(reg_n, 7)
            .expect("registry presets generate at bench sizes");
        measurements.push(run_workload(name, g, &cfg));
    }
    // The k = 4 multi-broadcast case: the same gnp-avg-deg-8 shape, driven
    // through collection + bundle broadcast instead of single-source B.
    measurements.push(run_multi_workload(
        "multi-k4-gnp-avg-deg-8",
        generators::gnp_connected(reg_n, 8.0 / reg_n as f64, 1).unwrap(),
        4,
        &cfg,
    ));
    // The gossip case runs at half the registry size: every node holds a
    // per-message table of n entries, so the network costs Θ(n²) memory —
    // halving n keeps a full bench pass comfortably inside a laptop's RAM
    // while still exercising n messages in flight.
    let gossip_n = (reg_n / 2).max(8);
    measurements.push(run_gossip_workload(
        "gossip-gnp-avg-deg-8",
        generators::gnp_connected(gossip_n, 8.0 / gossip_n as f64, 1).unwrap(),
        &cfg,
    ));
    if cfg.test_mode {
        println!("test mode: skipping BENCH_simulator.json");
        return;
    }
    match emit_json(&measurements, &cfg) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_simulator.json: {e}"),
    }
    let best = measurements
        .iter()
        .map(Measurement::speedup)
        .fold(0.0_f64, f64::max);
    println!("best speedup over the listener-centric engine: {best:.2}x");
}
