//! The core undirected simple [`Graph`] type.
//!
//! Radio networks in the paper are simple undirected connected graphs with a
//! distinguished source. This module provides the storage layer: a compressed
//! sparse row (CSR) representation with sorted neighbour lists, a validating
//! [`GraphBuilder`], and the basic accessors every other crate relies on.

use crate::error::GraphError;

/// Index of a node inside a [`Graph`]. Nodes are always `0..n`.
pub type NodeId = usize;

/// An undirected simple graph stored in compressed sparse row (CSR) form:
/// one flat `neighbors` array holding every adjacency list back to back, and
/// an `offsets` array of `n + 1` row boundaries, so the neighbours of `v` are
/// the contiguous slice `neighbors[offsets[v]..offsets[v + 1]]`.
///
/// Compared to a `Vec<Vec<NodeId>>` adjacency this removes one pointer
/// indirection and one heap allocation per node; the simulator's fast
/// engine walks transmitters' slices in its hot loop, so the
/// whole adjacency structure being two contiguous allocations matters.
///
/// Invariants maintained by construction:
///
/// * no self-loops and no parallel edges,
/// * every row of `neighbors` is sorted in increasing order,
/// * adjacency is symmetric: `u` appears in `v`'s row iff `v` appears in
///   `u`'s,
/// * `offsets` is monotone with `offsets[0] == 0` and
///   `offsets[n] == neighbors.len() == 2 * edge_count`.
///
/// The type is cheap to clone relative to the simulations run on it, and is
/// deliberately immutable after construction: labeling schemes and broadcast
/// simulations never mutate the topology.
///
/// ```
/// use rn_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.neighbors(0), &[1, 3]); // rows are sorted
/// assert!(g.has_edge(2, 3));
/// assert_eq!(g.max_degree(), 2);
/// # Ok::<(), rn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// All adjacency rows, concatenated in node order (each row sorted).
    neighbors: Vec<NodeId>,
    /// Row boundaries into `neighbors`; length `node_count() + 1`.
    offsets: Vec<u32>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            neighbors: Vec::new(),
            offsets: vec![0; n + 1],
            edge_count: 0,
        }
    }

    /// The CSR row of `v` as a `(start, end)` index pair into the flat
    /// neighbour array.
    #[inline]
    fn row(&self, v: NodeId) -> (usize, usize) {
        (self.offsets[v] as usize, self.offsets[v + 1] as usize)
    }

    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Returns an error if any edge references a node `>= n`, is a self-loop,
    /// or appears more than once (in either orientation).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        b.try_build()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count()
    }

    /// The sorted neighbour list of `v`, as a contiguous CSR slice.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (start, end) = self.row(v);
        &self.neighbors[start..end]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (start, end) = self.row(v);
        end - start
    }

    /// Iterator over the degrees of all nodes, in node order.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Maximum degree Δ of the graph, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Minimum degree δ of the graph, or 0 for an empty graph.
    pub fn min_degree(&self) -> usize {
        self.degrees().min().unwrap_or(0)
    }

    /// Whether the undirected edge `{u, v}` is present.
    ///
    /// Runs in `O(log deg(u))` thanks to sorted adjacency rows.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Returns a new graph with the same nodes and the given extra edges.
    ///
    /// Used by generators that augment a random graph to make it connected.
    pub fn with_extra_edges(&self, extra: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut all: Vec<(NodeId, NodeId)> = self.edges().collect();
        all.extend_from_slice(extra);
        Graph::from_edges(self.node_count(), &all)
    }

    /// Returns the graph induced by the given set of nodes, together with the
    /// mapping from new indices to original indices.
    ///
    /// Nodes are renumbered `0..keep.len()` in the order given. Duplicate
    /// entries in `keep` are rejected.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
        let n = self.node_count();
        let mut new_index = vec![usize::MAX; n];
        for (new, &old) in keep.iter().enumerate() {
            if old >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: old,
                    node_count: n,
                });
            }
            if new_index[old] != usize::MAX {
                return Err(GraphError::InvalidParameters {
                    reason: format!("node {old} listed twice in induced_subgraph"),
                });
            }
            new_index[old] = new;
        }
        let mut b = GraphBuilder::new(keep.len());
        for (u, v) in self.edges() {
            if new_index[u] != usize::MAX && new_index[v] != usize::MAX {
                b.add_edge(new_index[u], new_index[v])?;
            }
        }
        Ok((b.try_build()?, keep.to_vec()))
    }

    /// Total degree (twice the edge count); handy for sanity checks.
    pub fn total_degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Average degree, or 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.total_degree() as f64 / self.node_count() as f64
        }
    }

    /// Density `m / (n choose 2)`, or 0.0 when `n < 2`.
    pub fn density(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            0.0
        } else {
            let possible = n * (n - 1) / 2;
            self.edge_count as f64 / possible as f64
        }
    }
}

/// Incremental, validating builder for [`Graph`].
///
/// Rejects self-loops and out-of-range endpoints as they are added, and
/// duplicate edges when the rows are packed: [`try_build`](Self::try_build)
/// sorts every row anyway, so a repeated edge costs nothing to spot there.
/// A successful build therefore always yields a valid simple graph.
///
/// ```
/// use rn_graph::{GraphBuilder, GraphError};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// assert!(b.add_edge(1, 1).is_err()); // self-loop: rejected at once
/// assert_eq!(b.clone().try_build()?.edge_count(), 2);
///
/// b.add_edge(2, 1)?; // duplicate: rejected when packed
/// assert_eq!(b.try_build(), Err(GraphError::DuplicateEdge { u: 1, v: 2 }));
/// # Ok::<(), rn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes the builder was created with.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges added so far, duplicates included.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the edge `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.adj.len() && self.adj[u].contains(&v)
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Rejects out-of-range endpoints and self-loops — and, the moment the
    /// total degree would cross the `u32` CSR offset limit,
    /// [`GraphError::TooLarge`]: checking here (not only in
    /// [`try_build`](Self::try_build)) stops the incremental random
    /// generators at the limit instead of letting them accumulate an
    /// adjacency that could never be packed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        let n = self.adj.len();
        if u >= n {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: n,
            });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                node_count: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let total_degree = 2 * (self.edge_count + 1);
        if u32::try_from(total_degree).is_err() {
            return Err(GraphError::TooLarge { total_degree });
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.edge_count += 1;
        Ok(self)
    }

    /// Finalises the builder into an immutable [`Graph`], packing the
    /// per-node lists straight into CSR form (sorted rows, one flat neighbour
    /// array, `u32` row offsets).
    ///
    /// Returns [`GraphError::DuplicateEdge`] `{ u, v }` with `u < v` if an
    /// edge was added twice (in either orientation): it is the smallest
    /// repeated neighbour `v` of the first row `u` that has one, found as
    /// two equal neighbours side by side once the row is sorted.
    ///
    /// Returns [`GraphError::TooLarge`] if the total degree exceeds
    /// `u32::MAX` (an adjacency structure of over 4 billion entries — beyond
    /// what the `u32` CSR offsets index). The fallible generators and the
    /// topology registry route through here so oversized sweep jobs surface
    /// as recorded errors instead of aborting the process.
    pub fn try_build(mut self) -> Result<Graph, GraphError> {
        let total: usize = self.adj.iter().map(Vec::len).sum();
        if u32::try_from(total).is_err() {
            return Err(GraphError::TooLarge {
                total_degree: total,
            });
        }
        let mut neighbors = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        offsets.push(0u32);
        for (u, ns) in self.adj.iter_mut().enumerate() {
            ns.sort_unstable();
            // A repeat of {u, w} with w < u would already have shown in the
            // earlier row w, so here v > u.
            if let Some(pair) = ns.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(GraphError::DuplicateEdge { u, v: pair[0] });
            }
            neighbors.extend_from_slice(ns);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Graph {
            neighbors,
            offsets,
            edge_count: self.edge_count,
        })
    }

    /// Infallible convenience over [`try_build`](Self::try_build) for the
    /// closed-form generators whose sizes cannot approach the CSR limit.
    ///
    /// # Panics
    /// Panics if an edge was added twice or the total degree exceeds
    /// `u32::MAX`; fallible callers should use
    /// [`try_build`](Self::try_build) instead.
    pub fn build(self) -> Graph {
        self.try_build()
            .unwrap_or_else(|e| panic!("{e} (use try_build to handle this as an error)"))
    }
}

/// A graph given as its *upper rows*: for each node `u` in order, its
/// neighbours greater than `u`, ascending, back to back in one flat array.
///
/// This is the form in which the pairwise generators find their edges, and
/// [`pack`](Self::pack) turns it into CSR with one counting pass and one
/// transposed fill, with no per-node lists. [`GraphBuilder`] stays for the
/// generators that need [`has_edge`](GraphBuilder::has_edge) as they go.
#[derive(Debug, Default)]
pub(crate) struct UpperRows {
    /// Every upper row, concatenated in node order.
    targets: Vec<NodeId>,
    /// End of each pushed row in `targets`.
    ends: Vec<usize>,
}

impl UpperRows {
    /// Appends the upper row of the next node.
    pub(crate) fn push_row(&mut self, row: &[NodeId]) {
        self.targets.extend_from_slice(row);
        self.ends.push(self.targets.len());
    }

    /// The rows of the nodes pushed so far, each with its node.
    fn rows(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.targets[start..end])
            .enumerate()
    }

    /// Packs the pushed rows into a [`Graph`] with one node per row.
    ///
    /// Fails as [`GraphBuilder::try_build`] would on the same edges: with
    /// [`GraphError::TooLarge`] past the `u32` offsets, and at the first row
    /// that is not strictly ascending above its node with
    /// [`GraphError::SelfLoop`], [`GraphError::DuplicateEdge`] (`u < v`) or
    /// [`GraphError::NodeOutOfRange`]. A row that steps down without
    /// repeating is [`GraphError::InvalidParameters`].
    pub(crate) fn pack(self) -> Result<Graph, GraphError> {
        let n = self.ends.len();
        let total = 2 * self.targets.len();
        if u32::try_from(total).is_err() {
            return Err(GraphError::TooLarge {
                total_degree: total,
            });
        }
        // Counting pass: each row's length and one entry per target.
        let mut offsets = vec![0u32; n + 1];
        for (u, row) in self.rows() {
            let mut prev = u;
            for &v in row {
                if v == u {
                    return Err(GraphError::SelfLoop { node: u });
                }
                if v == prev {
                    return Err(GraphError::DuplicateEdge { u, v });
                }
                if v < prev {
                    return Err(GraphError::InvalidParameters {
                        reason: format!("upper row of node {u} is not ascending above it"),
                    });
                }
                if v >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: v,
                        node_count: n,
                    });
                }
                offsets[v + 1] += 1;
                prev = v;
            }
            offsets[u + 1] += row.len() as u32;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Transposed fill: a row is its smaller neighbours, written as their
        // own rows come by in node order, then its upper row.
        let mut neighbors = vec![0; total];
        let mut cursor = offsets[..n].to_vec();
        for (u, row) in self.rows() {
            let end = offsets[u + 1] as usize;
            neighbors[end - row.len()..end].copy_from_slice(row);
            for &v in row {
                neighbors[cursor[v] as usize] = u;
                cursor[v] += 1;
            }
        }
        Ok(Graph {
            neighbors,
            offsets,
            edge_count: self.targets.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn triangle_basic_accessors() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.total_degree(), 6);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn has_edge_out_of_range_is_false() {
        let g = triangle();
        assert!(!g.has_edge(0, 7));
        assert!(!g.has_edge(7, 0));
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(1, 1).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 3,
                node_count: 3
            }
        );
        assert_eq!(
            b.add_edge(4, 0).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 4,
                node_count: 3
            }
        );
    }

    fn builder_with(n: usize, edges: &[(NodeId, NodeId)]) -> GraphBuilder {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        b
    }

    #[test]
    fn builder_rejects_duplicate_edges_both_orientations() {
        for edges in [[(0, 1), (0, 1)], [(0, 1), (1, 0)]] {
            assert_eq!(
                builder_with(3, &edges).try_build(),
                Err(GraphError::DuplicateEdge { u: 0, v: 1 }),
                "{edges:?}"
            );
            let build = std::panic::catch_unwind(|| builder_with(3, &edges).build());
            assert!(build.is_err(), "build() must panic on {edges:?}");
        }
    }

    #[test]
    fn builder_reports_the_duplicate_of_the_first_row_that_has_one() {
        // Rows 0 and 1 are clean; row 2 repeats 4 (and row 3 repeats 5).
        let edges = [(0, 1), (3, 5), (4, 2), (1, 2), (5, 3), (2, 4), (2, 3)];
        assert_eq!(
            builder_with(6, &edges).try_build(),
            Err(GraphError::DuplicateEdge { u: 2, v: 4 })
        );
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = Graph::from_edges(5, &[(0, 4), (0, 2), (0, 1), (0, 3)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn symmetry_of_adjacency() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v).contains(&u));
            }
        }
    }

    #[test]
    fn with_extra_edges_adds_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let g2 = g.with_extra_edges(&[(1, 2)]).unwrap();
        assert_eq!(g2.edge_count(), 3);
        assert!(g2.has_edge(1, 2));
        // original untouched
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn with_extra_edges_rejects_duplicates() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert!(g.with_extra_edges(&[(0, 1)]).is_err());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (h, map) = g.induced_subgraph(&[1, 2, 3]).unwrap();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(h.has_edge(0, 1)); // old (1,2)
        assert!(h.has_edge(1, 2)); // old (2,3)
        assert!(!h.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_rejects_duplicates_and_out_of_range() {
        let g = triangle();
        assert!(g.induced_subgraph(&[0, 0]).is_err());
        assert!(g.induced_subgraph(&[0, 9]).is_err());
    }

    #[test]
    fn from_edges_error_propagates() {
        assert!(Graph::from_edges(2, &[(0, 1), (0, 1)]).is_err());
        assert!(Graph::from_edges(2, &[(0, 2)]).is_err());
    }

    #[test]
    fn csr_layout_invariants() {
        let g = Graph::from_edges(5, &[(0, 4), (0, 2), (1, 2), (3, 4)]).unwrap();
        assert_eq!(g.offsets.len(), g.node_count() + 1);
        assert_eq!(g.offsets[0], 0);
        assert_eq!(
            *g.offsets.last().unwrap() as usize,
            g.neighbors.len(),
            "last offset closes the flat array"
        );
        assert_eq!(g.neighbors.len(), 2 * g.edge_count());
        assert!(g.offsets.windows(2).all(|w| w[0] <= w[1]));
        for v in g.nodes() {
            assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
            assert_eq!(g.neighbors(v).len(), g.degree(v));
        }
        assert_eq!(g.degrees().collect::<Vec<_>>(), vec![2, 1, 2, 1, 2]);
    }

    fn upper_rows(rows: &[&[NodeId]]) -> UpperRows {
        let mut upper = UpperRows::default();
        for row in rows {
            upper.push_row(row);
        }
        upper
    }

    #[test]
    fn packed_upper_rows_equal_the_built_graph() {
        let rows: [&[NodeId]; 6] = [&[2, 4, 5], &[], &[3, 4], &[5], &[5], &[]];
        let edges: Vec<_> = (0..rows.len())
            .flat_map(|u| rows[u].iter().map(move |&v| (v, u)))
            .collect();
        assert_eq!(
            upper_rows(&rows).pack(),
            Graph::from_edges(rows.len(), &edges)
        );
        assert_eq!(upper_rows(&[]).pack(), Ok(Graph::empty(0)));
        assert_eq!(upper_rows(&[&[], &[]]).pack(), Ok(Graph::empty(2)));
    }

    #[test]
    fn packing_rejects_rows_not_strictly_ascending_above_their_node() {
        let pack = |rows: &[&[NodeId]]| upper_rows(rows).pack();
        assert_eq!(
            pack(&[&[1], &[1, 2], &[]]),
            Err(GraphError::SelfLoop { node: 1 })
        );
        assert_eq!(
            pack(&[&[1, 2, 2], &[], &[]]),
            Err(GraphError::DuplicateEdge { u: 0, v: 2 })
        );
        assert!(matches!(
            pack(&[&[], &[2], &[0]]),
            Err(GraphError::InvalidParameters { .. })
        ));
        assert!(matches!(
            pack(&[&[2, 1], &[], &[]]),
            Err(GraphError::InvalidParameters { .. })
        ));
        assert_eq!(
            pack(&[&[1, 3], &[]]),
            Err(GraphError::NodeOutOfRange {
                node: 3,
                node_count: 2
            })
        );
    }

    #[test]
    fn empty_rows_between_populated_rows() {
        // Node 1 is isolated: its CSR row must be an empty slice, and the
        // rows around it must still be correct.
        let g = Graph::from_edges(3, &[(0, 2)]).unwrap();
        assert_eq!(g.neighbors(0), &[2]);
        assert!(g.neighbors(1).is_empty());
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.degree(1), 0);
    }
}
