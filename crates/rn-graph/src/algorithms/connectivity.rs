//! Connectivity checks and connected components.
//!
//! The radio model in the paper only considers connected graphs; the
//! experiment harness uses these checks both to validate generators and to
//! repair (augment) random graphs that come out disconnected.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Whether the graph is connected. The empty graph and the one-node graph are
/// considered connected.
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() <= 1 {
        return true;
    }
    let mut visited = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    visited[0] = true;
    queue.push_back(0);
    let mut seen = 1;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                seen += 1;
                queue.push_back(v);
            }
        }
    }
    seen == g.node_count()
}

/// Connected components, each a sorted list of nodes; components are ordered
/// by their smallest node.
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = vec![start];
        comp[start] = id;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v] == usize::MAX {
                    comp[v] = id;
                    members.push(v);
                    queue.push_back(v);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// Connects `g` with the fewest extra edges, the repair the random
/// generators apply to a disconnected sample: one edge from node 0 to the
/// smallest node of every other component. Returns the connected graph and
/// the number of edges added (0, with `g` itself, when `g` is connected).
pub fn connect(g: Graph) -> Result<(Graph, usize), GraphError> {
    let comps = connected_components(&g);
    if comps.len() <= 1 {
        return Ok((g, 0));
    }
    let extra: Vec<(NodeId, NodeId)> = comps[1..].iter().map(|c| (0, c[0])).collect();
    Ok((g.with_extra_edges(&extra)?, extra.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&Graph::empty(1)));
    }

    #[test]
    fn two_isolated_nodes_are_disconnected() {
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn path_is_connected() {
        assert!(is_connected(&generators::path(10)));
    }

    #[test]
    fn disjoint_edges_are_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_of_disjoint_union() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn components_of_connected_graph_is_single() {
        let g = generators::cycle(5);
        assert_eq!(connected_components(&g).len(), 1);
    }

    #[test]
    fn connect_leaves_a_connected_graph_alone() {
        let g = generators::complete(4);
        assert_eq!(connect(g.clone()).unwrap(), (g, 0));
        assert_eq!(connect(Graph::empty(0)).unwrap(), (Graph::empty(0), 0));
    }

    #[test]
    fn connect_links_node_zero_to_each_other_component() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let (g2, added) = connect(g).unwrap();
        assert_eq!(added, 2);
        let expected = [(0, 1), (2, 3), (4, 5), (0, 2), (0, 4)];
        assert_eq!(g2, Graph::from_edges(6, &expected).unwrap());
    }

    #[test]
    fn connect_on_fully_isolated_nodes() {
        let (g2, added) = connect(Graph::empty(4)).unwrap();
        assert_eq!(added, 3);
        assert!(is_connected(&g2));
    }
}
