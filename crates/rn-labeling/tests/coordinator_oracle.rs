//! The coordinator search against the all-sources loop it replaced.
//!
//! `multi::choose_coordinator` (and through it gossip's) picks the node
//! minimising f(v) = max_{s∈S} d(s, v), smallest index first, with the
//! eccentricity-bounding search `rn_graph::algorithms::centre`. The oracle
//! here is the direct definition: one BFS per source, then the first
//! minimiser of f. Both must name the same node on every instance, and the
//! search may never run more BFS passes than there are sources.
//!
//! Instances: every connected graph on at most 7 nodes and every free tree
//! on at most 10, and every `TopologyFamily::PRESETS` entry at
//! n ∈ {64, 500} and seeds {1, 7}. Source sets: all nodes (gossip), {0},
//! {n − 1}, and seeded random subsets of several sizes.

use rn_graph::algorithms::{bfs_distances, centre};
use rn_graph::enumerate::{connected_graphs, free_trees};
use rn_graph::generators::{self, TopologyFamily};
use rn_graph::{Graph, NodeId};
use rn_labeling::{gossip, multi};

/// The all-sources loop: f from one BFS per source, then the
/// smallest-index minimiser and its value. `dist[s]` holds the BFS
/// distances from `s`, computed once per graph for all its source sets.
fn oracle(dist: &[Vec<Option<usize>>], sources: &[NodeId]) -> (NodeId, usize) {
    let mut f = vec![0usize; dist.len()];
    for &s in sources {
        for (v, d) in dist[s].iter().enumerate() {
            f[v] = f[v].max(d.expect("connected instance"));
        }
    }
    let node = (0..f.len()).min_by_key(|&v| f[v]).expect("non-empty graph");
    (node, f[node])
}

/// SplitMix64: a seeded, dependency-free source of subset choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The source sets checked on an n-node graph: all nodes, {0}, {n − 1},
/// and four seeded random subsets of sizes 2, about √n, about n / 2 and a
/// random size.
fn source_sets(n: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut sets = vec![(0..n).collect(), vec![0], vec![n - 1]];
    let mut state = seed ^ (n as u64).rotate_left(32);
    let random_size = 1 + (splitmix(&mut state) % n as u64) as usize;
    for size in [2, (n as f64).sqrt() as usize, n / 2, random_size] {
        let mut nodes: Vec<NodeId> = (0..n).collect();
        let size = size.clamp(1, n);
        for i in 0..size {
            let j = i + (splitmix(&mut state) % (n - i) as u64) as usize;
            nodes.swap(i, j);
        }
        nodes.truncate(size);
        sets.push(nodes);
    }
    sets
}

/// Checks every source set of `g`; `label` names the instance in failures.
/// Returns the gossip (all-nodes) pass count.
fn check(g: &Graph, seed: u64, label: &str) -> usize {
    let n = g.node_count();
    let dist: Vec<_> = g.nodes().map(|s| bfs_distances(g, s)).collect();
    let mut gossip_passes = 0;
    for sources in source_sets(n, seed) {
        let (node, f) = oracle(&dist, &sources);
        let c = centre(g, &sources).expect("connected instance");
        let k = multi::validate_sources(g, &sources)
            .expect("valid sources")
            .len();
        assert_eq!(
            (c.node, c.eccentricity),
            (node, f),
            "{label}: centre of {k} sources"
        );
        assert!(
            c.bfs_passes <= k,
            "{label}: {} passes for {k} sources",
            c.bfs_passes
        );
        assert_eq!(multi::choose_coordinator(g, &sources), Ok(node), "{label}");
        if k == n {
            assert_eq!(gossip::choose_coordinator(g), Ok(node), "{label}");
            gossip_passes = c.bfs_passes;
        }
    }
    gossip_passes
}

#[test]
fn centre_matches_the_all_sources_loop_on_every_small_graph() {
    let mut most_passes = 0;
    for n in 1..=7 {
        for (i, g) in connected_graphs(n).iter().enumerate() {
            most_passes = most_passes.max(check(g, i as u64, &format!("graph {n}/{i}")));
        }
    }
    for n in 1..=10 {
        for (i, g) in free_trees(n).iter().enumerate() {
            most_passes = most_passes.max(check(g, i as u64, &format!("tree {n}/{i}")));
        }
    }
    // The bounds settle every enumerated instance in a handful of passes,
    // well under the n passes of the loop.
    assert!(most_passes <= 7, "{most_passes} gossip passes");
}

#[test]
fn centre_matches_the_all_sources_loop_on_every_preset() {
    for family in TopologyFamily::PRESETS {
        for n in [64, 500] {
            for seed in [1, 7] {
                let g = family.generate(n, seed).expect("presets generate");
                check(&g, seed, &format!("{}/{n}/{seed}", family.name()));
            }
        }
    }
}

#[test]
fn a_disconnected_graph_has_no_centre() {
    let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).expect("valid edges");
    assert_eq!(centre(&g, &[0, 1, 2, 3]), None);
    assert_eq!(centre(&g, &[3]), None);
    assert_eq!(
        multi::choose_coordinator(&g, &[0]),
        Err(rn_labeling::LabelingError::NotConnected)
    );
    assert_eq!(centre(&Graph::empty(0), &[]), None);
    assert_eq!(centre(&generators::path(3), &[]), None);
}
