//! Breadth-first search, distance layers, eccentricities, diameter and radius.
//!
//! The labeling scheme's sequence construction (paper §2.1) grows the informed
//! set outward from the source; BFS layers give the natural reference frame for
//! reasoning about it and for the radius-2 one-bit extension (paper §5).

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Distances (in hops) from `source` to every node; `None` for unreachable
/// nodes.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    assert!(source < g.node_count(), "source out of range");
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued node has a distance");
        for &v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS layers from `source`: `layers[d]` is the sorted list of nodes at
/// distance exactly `d`. Unreachable nodes are omitted.
pub fn bfs_layers(g: &Graph, source: NodeId) -> Vec<Vec<NodeId>> {
    let dist = bfs_distances(g, source);
    let max = dist.iter().flatten().copied().max().unwrap_or(0);
    let mut layers = vec![Vec::new(); max + 1];
    for (v, d) in dist.iter().enumerate() {
        if let Some(d) = d {
            layers[*d].push(v);
        }
    }
    layers
}

/// Parent of each node in a BFS tree rooted at `source`.
///
/// The parent of `source` is `None`; the parent of an unreachable node is
/// also `None`. Ties are broken toward the smallest-numbered parent because
/// adjacency lists are sorted, which keeps the output deterministic.
pub fn bfs_tree_parents(g: &Graph, source: NodeId) -> Vec<Option<NodeId>> {
    assert!(source < g.node_count(), "source out of range");
    let mut parent = vec![None; g.node_count()];
    let mut visited = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    visited[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Eccentricity of `v`: the largest distance from `v` to any reachable node.
///
/// Returns `None` if the graph is disconnected (some node is unreachable
/// from `v`), because eccentricity is then undefined (infinite).
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<usize> {
    let dist = bfs_distances(g, v);
    let mut max = 0;
    for d in &dist {
        match d {
            Some(d) => max = max.max(*d),
            None => return None,
        }
    }
    Some(max)
}

/// Diameter of a connected graph (`None` if disconnected or empty).
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.node_count() == 0 {
        return None;
    }
    let mut max = 0;
    for v in g.nodes() {
        max = max.max(eccentricity(g, v)?);
    }
    Some(max)
}

/// Radius of a connected graph (`None` if disconnected or empty): the minimum
/// eccentricity over all nodes, the [`Centre::eccentricity`] of the
/// all-nodes [`centre`].
pub fn radius(g: &Graph) -> Option<usize> {
    let all: Vec<NodeId> = g.nodes().collect();
    centre(g, &all).map(|c| c.eccentricity)
}

/// The centre of a graph relative to a source set S: the node minimising
/// f(v) = max_{s∈S} d(s, v), as found by [`centre`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Centre {
    /// The smallest-index node among the minimisers of f.
    pub node: NodeId,
    /// f(node): the largest distance from `node` to a source.
    pub eccentricity: usize,
    /// BFS passes the search ran; at most the number of distinct sources.
    pub bfs_passes: usize,
}

/// Finds the [`Centre`] of `g` relative to `sources`: the smallest-index
/// node v minimising f(v) = max_{s∈S} d(s, v). With every node a source, f
/// is the eccentricity and the centre's value is the [`radius`].
///
/// The search bounds f instead of running one BFS per source (Takes and
/// Kosters, "Computing the eccentricity distribution of large graphs",
/// Algorithms 6(1), 2013, adapted to a source set). A BFS from a source w
/// gives f(w) exactly, and for every v the bounds
/// `max(f(w) − d(w,v), d(w,v)) ≤ f(v) ≤ f(w) + d(w,v)`. A node whose lower
/// bound cannot beat the best exact value found (on value, then index)
/// leaves the candidate set. Roots are drawn only from the sources not yet
/// searched, alternating between the smallest lower bound and the largest
/// upper bound, so the search runs at most |S| passes; once every source
/// has been searched the lower bounds are exact, and the best remaining
/// candidate is the centre.
///
/// Returns `None` if the graph is empty, `sources` is empty, or the graph
/// is disconnected (f is then infinite somewhere).
///
/// # Panics
/// Panics if a source is out of range, or if the graph has 2³² nodes or
/// more (distances are kept as `u32`).
pub fn centre(g: &Graph, sources: &[NodeId]) -> Option<Centre> {
    let n = g.node_count();
    let mut unsearched = sources.to_vec();
    unsearched.sort_unstable();
    unsearched.dedup();
    if n == 0 || unsearched.is_empty() {
        return None;
    }
    assert!(unsearched[unsearched.len() - 1] < n, "source out of range");
    assert!(
        u32::try_from(n).is_ok(),
        "graph too large for u32 distances"
    );
    let mut dist = vec![u32::MAX; n];
    let mut queue = Vec::with_capacity(n);
    let mut lo = vec![0u32; n];
    let mut hi = vec![u32::MAX; n];
    let mut open = vec![true; n];
    let mut open_count = n;
    // The smallest (f, index) among the searched sources.
    let mut best = (u32::MAX, NodeId::MAX);
    let mut bfs_passes = 0;
    while open_count > 0 && !unsearched.is_empty() {
        let pick = if bfs_passes % 2 == 0 {
            (0..unsearched.len()).min_by_key(|&i| (lo[unsearched[i]], unsearched[i]))
        } else {
            (0..unsearched.len())
                .max_by_key(|&i| (hi[unsearched[i]], std::cmp::Reverse(unsearched[i])))
        };
        let w = unsearched.swap_remove(pick.expect("a source is left to search"));
        bfs_passes += 1;
        if !bfs_into(g, w, &mut dist, &mut queue) {
            return None;
        }
        let fw = sources
            .iter()
            .map(|&s| dist[s])
            .max()
            .expect("sources non-empty");
        best = best.min((fw, w));
        for v in 0..n {
            let d = dist[v];
            lo[v] = lo[v].max(d).max(fw.saturating_sub(d));
            hi[v] = hi[v].min(fw.saturating_add(d));
            if open[v] && (lo[v], v) >= best {
                open[v] = false;
                open_count -= 1;
            }
        }
    }
    // Either no candidate is left and `best` is the centre, or every source
    // has been searched: each lower bound is then exact, and every open
    // candidate beats `best`.
    let (f, node) = (0..n)
        .filter(|&v| open[v])
        .map(|v| (lo[v], v))
        .min()
        .unwrap_or(best);
    Some(Centre {
        node,
        eccentricity: f as usize,
        bfs_passes,
    })
}

/// Fills `dist` with hop distances from `root` (`u32::MAX` = unreached),
/// using `queue` as the BFS queue; returns whether every node was reached.
fn bfs_into(g: &Graph, root: NodeId, dist: &mut [u32], queue: &mut Vec<NodeId>) -> bool {
    dist.fill(u32::MAX);
    queue.clear();
    dist[root] = 0;
    queue.push(root);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u] + 1;
        for &v in g.neighbors(u) {
            if dist[v] == u32::MAX {
                dist[v] = du;
                queue.push(v);
            }
        }
    }
    queue.len() == dist.len()
}

/// Eccentricity of a specific node used as a broadcast source: the number of
/// BFS layers minus one. Equivalent to [`eccentricity`] but phrased the way
/// the broadcast analysis uses it ("radius `D` with respect to the source").
pub fn source_radius(g: &Graph, source: NodeId) -> Option<usize> {
    eccentricity(g, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_a_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn distances_on_a_cycle() {
        let g = generators::cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[3], Some(3));
        assert_eq!(d[5], Some(1));
    }

    #[test]
    fn distances_with_unreachable_nodes() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), None, None]);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn distances_panics_on_bad_source() {
        let g = generators::path(3);
        let _ = bfs_distances(&g, 3);
    }

    #[test]
    fn layers_partition_reachable_nodes() {
        let g = generators::star(7);
        let layers = bfs_layers(&g, 0);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0]);
        assert_eq!(layers[1], (1..7).collect::<Vec<_>>());
    }

    #[test]
    fn layers_of_single_node() {
        let g = Graph::empty(1);
        let layers = bfs_layers(&g, 0);
        assert_eq!(layers, vec![vec![0]]);
    }

    #[test]
    fn bfs_tree_parents_form_a_tree_toward_source() {
        let g = generators::grid(3, 3);
        let parent = bfs_tree_parents(&g, 0);
        assert_eq!(parent[0], None);
        let dist = bfs_distances(&g, 0);
        for v in g.nodes() {
            if v == 0 {
                continue;
            }
            let p = parent[v].expect("connected graph: every node has a parent");
            assert_eq!(dist[p].unwrap() + 1, dist[v].unwrap());
            assert!(g.has_edge(p, v));
        }
    }

    #[test]
    fn eccentricity_diameter_radius_on_path() {
        let g = generators::path(5);
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
        assert_eq!(diameter(&g), Some(4));
        assert_eq!(radius(&g), Some(2));
    }

    #[test]
    fn eccentricity_none_when_disconnected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(eccentricity(&g, 0), None);
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
    }

    #[test]
    fn diameter_radius_empty_graph() {
        let g = Graph::empty(0);
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
    }

    #[test]
    fn complete_graph_has_diameter_one() {
        let g = generators::complete(6);
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(radius(&g), Some(1));
    }

    #[test]
    fn source_radius_matches_eccentricity() {
        let g = generators::path(7);
        assert_eq!(source_radius(&g, 0), eccentricity(&g, 0));
        assert_eq!(source_radius(&g, 3), Some(3));
    }
}
