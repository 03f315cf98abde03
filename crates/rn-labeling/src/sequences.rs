//! The five-sequence construction of §2.1 of the paper.
//!
//! For a connected graph `G` with source `s`, the construction produces, for
//! each stage `i ≥ 1`, five sets:
//!
//! * `INF_i`  — nodes informed before round `2i − 1`;
//! * `UNINF_i` — nodes not yet informed before round `2i − 1`;
//! * `FRONTIER_i` — uninformed nodes adjacent to an informed node;
//! * `DOM_i` — a **minimal** subset of `DOM_{i−1} ∪ NEW_{i−1}` dominating the
//!   frontier (the nodes that transmit µ in round `2i − 1`);
//! * `NEW_i` — frontier nodes adjacent to **exactly one** node of `DOM_i`
//!   (the nodes newly informed in round `2i − 1`).
//!
//! The construction ends at the first stage `ℓ` with `INF_ℓ = V(G)`.
//!
//! Besides being the basis of the λ labeling scheme, the construction is the
//! ground truth against which the integration tests check the executed
//! broadcast (Lemma 2.8: exactly `DOM_i` transmit in round `2i − 1`, exactly
//! `NEW_i` are newly informed).
//!
//! # Cost
//!
//! The construction is incremental: no stage does `O(n)` work, and no
//! stage reads a frontier node's adjacency row. It keeps one state byte per
//! node (untouched, in a frontier, informed) and derives
//! `FRONTIER_i = (FRONTIER_{i−1} \ NEW_{i−1}) ∪ (Γ(NEW_{i−1}) ∩ UNINF_i)`,
//! and it reduces `DOM_i` on one reusable [`DominationScratch`], which
//! counts each frontier node's dominators from the candidates' rows and so
//! also yields `NEW_i`. With `C_i = DOM_{i−1} ∪ NEW_{i−1}`, stage `i` costs
//!
//! `O(|C_i| log |C_i| + |FRONTIER_i| log |FRONTIER_i| + Σ_{c∈C_i} deg(c))`
//!
//! (the rows of `NEW_{i−1} ⊆ C_i` also grow the frontier), and the whole
//! build costs `O(n)` for the state bytes plus the sum of those stage
//! costs. [`SequenceConstruction::adjacency_reads`] counts the row entries
//! read. There is no separate connectivity pass: `FRONTIER_i` is empty
//! while `UNINF_i` is not exactly when `INF_i` is a union of components,
//! and the build then returns [`LabelingError::NotConnected`]. Memory is
//! `O(n)` plus the stored sets, `Σ_i (|FRONTIER_i| + |DOM_i| + |NEW_i|)`;
//! `INF_i` and `UNINF_i` are not materialised.

use crate::error::LabelingError;
use rn_graph::algorithms::{
    is_minimal_dominating_set, neighborhood_of_set, DominationScratch, ReductionOrder,
};
use rn_graph::{Graph, NodeId};

/// One stage of the construction (the paper's index `i` is `index`).
///
/// `INF_i` and `UNINF_i` are not stored: `INF_i` is the source plus
/// `NEW_1 ∪ … ∪ NEW_{i−1}` (Fact 2.2) and `UNINF_i` its complement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The 1-based stage index `i`.
    pub index: usize,
    /// `FRONTIER_i`: uninformed nodes adjacent to at least one informed node
    /// (sorted).
    pub frontier: Vec<NodeId>,
    /// `DOM_i`: the minimal dominating subset that transmits in round `2i − 1`
    /// (sorted).
    pub dom: Vec<NodeId>,
    /// `NEW_i`: nodes newly informed in round `2i − 1` (sorted).
    pub new: Vec<NodeId>,
}

/// The full sequence construction for a graph and source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceConstruction {
    source: NodeId,
    stages: Vec<Stage>,
    adjacency_reads: u64,
}

impl SequenceConstruction {
    /// Runs the construction of §2.1 for `(g, source)`.
    ///
    /// `order` selects how the minimal dominating subset is reduced; every
    /// order yields a valid construction (the paper allows any minimal
    /// subset), and the choice only matters for the ablation experiment.
    pub fn build(g: &Graph, source: NodeId, order: ReductionOrder) -> Result<Self, LabelingError> {
        // Where each node stands in the construction so far.
        const UNTOUCHED: u8 = 0;
        const IN_FRONTIER: u8 = 1;
        const INFORMED: u8 = 2;

        let n = g.node_count();
        if n == 0 {
            return Err(LabelingError::EmptyGraph);
        }
        if source >= n {
            return Err(LabelingError::SourceOutOfRange {
                source,
                node_count: n,
            });
        }

        let mut scratch = DominationScratch::for_nodes(n);
        let mut state = vec![UNTOUCHED; n];
        state[source] = INFORMED;
        // |UNINF_i| of the last stage built.
        let mut uninformed = n - 1;
        let degree_sum = |set: &[NodeId]| set.iter().map(|&v| g.degree(v) as u64).sum::<u64>();

        // Stage 1: DOM_1 = {s} and FRONTIER_1 = NEW_1 = Γ(s).
        let frontier1 = neighborhood_of_set(g, &[source]);
        let mut adjacency_reads = g.degree(source) as u64;
        for &v in &frontier1 {
            state[v] = IN_FRONTIER;
        }
        let mut stages = vec![Stage {
            index: 1,
            frontier: frontier1.clone(),
            dom: vec![source],
            new: frontier1,
        }];

        // The construction ends at the first stage with INF_i = V(G).
        while uninformed > 0 {
            let prev = stages.last().expect("at least one stage");
            let index = prev.index + 1;
            // INF_i = INF_{i-1} ∪ NEW_{i-1}; UNINF_i = UNINF_{i-1} \ NEW_{i-1}.
            for &v in &prev.new {
                state[v] = INFORMED;
            }
            uninformed -= prev.new.len();

            // FRONTIER_i = UNINF_i ∩ Γ(INF_i)
            //            = (FRONTIER_{i-1} \ NEW_{i-1}) ∪ (Γ(NEW_{i-1}) ∩ UNINF_i).
            let mut frontier: Vec<NodeId> = prev
                .frontier
                .iter()
                .copied()
                .filter(|&v| state[v] == IN_FRONTIER)
                .collect();
            for &v in &prev.new {
                for &w in g.neighbors(v) {
                    if state[w] == UNTOUCHED {
                        state[w] = IN_FRONTIER;
                        frontier.push(w);
                    }
                }
            }
            adjacency_reads += degree_sum(&prev.new);
            if frontier.is_empty() && uninformed > 0 {
                // An uninformed node remains, yet none is adjacent to an
                // informed one: INF_i is a union of components.
                return Err(LabelingError::NotConnected);
            }
            frontier.sort_unstable();

            // DOM_i = minimal subset of DOM_{i-1} ∪ NEW_{i-1} dominating FRONTIER_i.
            let mut candidates: Vec<NodeId> =
                prev.dom.iter().chain(prev.new.iter()).copied().collect();
            candidates.sort_unstable();
            candidates.dedup();
            let dom = scratch
                .minimal_dominating_subset(g, &candidates, &frontier, order)
                .expect("Lemma 2.5: DOM_{i-1} ∪ NEW_{i-1} dominates FRONTIER_i");
            debug_assert!(is_minimal_dominating_set(g, &dom, &frontier) || frontier.is_empty());
            // The reduction reads each candidate's row twice (cover count,
            // removal test) and a removed candidate's once more (decrement).
            adjacency_reads += 3 * degree_sum(&candidates) - degree_sum(&dom);

            // NEW_i = frontier nodes adjacent to exactly one node of DOM_i.
            let new: Vec<NodeId> = frontier
                .iter()
                .copied()
                .filter(|&v| scratch.cover(v) == 1)
                .collect();

            // Safety net: the construction must make progress (Lemma 2.4); if
            // it ever fails to, something is deeply wrong and looping forever
            // would be worse than panicking.
            assert!(
                !new.is_empty() || uninformed == 0,
                "construction stalled: Lemma 2.4 violated"
            );
            stages.push(Stage {
                index,
                frontier,
                dom,
                new,
            });
        }

        Ok(SequenceConstruction {
            source,
            stages,
            adjacency_reads,
        })
    }

    /// The source node the construction was built for.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// How many adjacency-row entries the build read: a deterministic
    /// measure of its work, one add per row scanned. Stage `i` reads the
    /// rows of `NEW_{i−1}` to grow the frontier and the rows of
    /// `C_i = DOM_{i−1} ∪ NEW_{i−1}` in the reduction, never a frontier
    /// node's row.
    pub fn adjacency_reads(&self) -> u64 {
        self.adjacency_reads
    }

    /// All stages, `stages()[0]` being stage 1.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The stage with index `i` (1-based), if it exists.
    pub fn stage(&self, i: usize) -> Option<&Stage> {
        self.stages.get(i.checked_sub(1)?)
    }

    /// The paper's ℓ: the smallest `i` with `INF_i = V(G)`.
    pub fn ell(&self) -> usize {
        self.stages.last().expect("non-empty").index
    }

    /// `DOM_i` for any `i ≥ 1` (empty for `i ≥ ℓ`).
    pub fn dom(&self, i: usize) -> &[NodeId] {
        self.stage(i).map_or(&[], |s| &s.dom)
    }

    /// `NEW_i` for any `i ≥ 1` (empty for `i ≥ ℓ`).
    pub fn new_set(&self, i: usize) -> &[NodeId] {
        self.stage(i).map_or(&[], |s| &s.new)
    }

    /// `FRONTIER_i` for any `i ≥ 1` (empty for `i ≥ ℓ`): the uninformed
    /// neighbourhood of `INF_{i-1}` that `DOM_i` dominates.
    pub fn frontier(&self, i: usize) -> &[NodeId] {
        self.stage(i).map_or(&[], |s| &s.frontier)
    }

    /// Whether node `v` belongs to `DOM_i` for some `i`.
    pub fn in_some_dom(&self, v: NodeId) -> bool {
        self.stages.iter().any(|s| s.dom.binary_search(&v).is_ok())
    }

    /// The unique stage `i` with `v ∈ NEW_i`, if any (Lemma 2.3 guarantees
    /// uniqueness; the source belongs to no `NEW_i`).
    pub fn new_stage_of(&self, v: NodeId) -> Option<usize> {
        self.stages
            .iter()
            .find(|s| s.new.binary_search(&v).is_ok())
            .map(|s| s.index)
    }

    /// The round in which node `v` is informed when algorithm B runs on the λ
    /// labeling derived from this construction: round 1 receives nothing (the
    /// source starts informed), a node in `NEW_i` is informed in round
    /// `2i − 1` (Lemma 2.8).
    pub fn informed_round(&self, v: NodeId) -> Option<u64> {
        if v == self.source {
            return Some(0);
        }
        self.new_stage_of(v).map(|i| 2 * i as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::algorithms::dominator_count;
    use rn_graph::generators;

    fn build(g: &Graph, s: NodeId) -> SequenceConstruction {
        SequenceConstruction::build(g, s, ReductionOrder::Forward).unwrap()
    }

    /// `(INF_i, UNINF_i)` derived from the stages by Fact 2.2: `INF_i` is
    /// the source plus `NEW_1 ∪ … ∪ NEW_{i−1}`, `UNINF_i` its complement.
    fn inf_uninf(c: &SequenceConstruction, n: usize, i: usize) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut informed = vec![false; n];
        informed[c.source()] = true;
        for st in &c.stages()[..i - 1] {
            for &v in &st.new {
                informed[v] = true;
            }
        }
        (0..n).partition(|&v| informed[v])
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = Graph::empty(0);
        assert_eq!(
            SequenceConstruction::build(&empty, 0, ReductionOrder::Forward).unwrap_err(),
            LabelingError::EmptyGraph
        );
        let path = generators::path(4);
        assert!(matches!(
            SequenceConstruction::build(&path, 9, ReductionOrder::Forward).unwrap_err(),
            LabelingError::SourceOutOfRange { .. }
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            SequenceConstruction::build(&disconnected, 0, ReductionOrder::Forward).unwrap_err(),
            LabelingError::NotConnected
        );
    }

    #[test]
    fn disconnected_graphs_are_rejected_by_every_construction() {
        use crate::{gossip, lambda, lambda_ack, lambda_arb, multi};
        let small_component = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4), (4, 5)]).unwrap();
        let isolated_node = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        for g in [small_component, isolated_node, Graph::empty(2)] {
            let n = g.node_count();
            for s in 0..n {
                for order in [ReductionOrder::Forward, ReductionOrder::Random(3)] {
                    assert_eq!(
                        SequenceConstruction::build(&g, s, order),
                        Err(LabelingError::NotConnected),
                        "n = {n}, source {s}"
                    );
                }
                assert_eq!(
                    lambda::construct(&g, s).unwrap_err(),
                    LabelingError::NotConnected
                );
                assert_eq!(
                    lambda_ack::construct(&g, s).unwrap_err(),
                    LabelingError::NotConnected
                );
                assert_eq!(
                    lambda_arb::construct_with_coordinator(&g, s, ReductionOrder::Forward)
                        .unwrap_err(),
                    LabelingError::NotConnected
                );
                assert_eq!(
                    multi::construct(&g, &[s]).unwrap_err(),
                    LabelingError::NotConnected
                );
                assert_eq!(
                    multi::construct_with_coordinator(&g, &[0], s).unwrap_err(),
                    LabelingError::NotConnected
                );
                assert_eq!(
                    gossip::construct_with_coordinator(&g, s).unwrap_err(),
                    LabelingError::NotConnected
                );
            }
            assert_eq!(
                lambda_arb::construct(&g).unwrap_err(),
                LabelingError::NotConnected
            );
            assert_eq!(
                gossip::construct(&g).unwrap_err(),
                LabelingError::NotConnected
            );
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let c = build(&g, 0);
        assert_eq!(c.ell(), 1);
        assert_eq!(c.stages().len(), 1);
        assert_eq!(inf_uninf(&c, 1, 1).0, vec![0]);
        assert!(c.stage(1).unwrap().new.is_empty());
    }

    #[test]
    fn stage_one_matches_definition() {
        let g = generators::star(6);
        let c = build(&g, 0);
        let s1 = c.stage(1).unwrap();
        let (inf, uninf) = inf_uninf(&c, 6, 1);
        assert_eq!(inf, vec![0]);
        assert_eq!(uninf, (1..6).collect::<Vec<_>>());
        assert_eq!(s1.frontier, (1..6).collect::<Vec<_>>());
        assert_eq!(s1.new, (1..6).collect::<Vec<_>>());
        assert_eq!(s1.dom, vec![0]);
        // Star: everything informed after stage 1, so ℓ = 2.
        assert_eq!(c.ell(), 2);
    }

    #[test]
    fn fact_2_1_new_subset_frontier_subset_uninf() {
        for (g, s) in [
            (generators::path(9), 0),
            (generators::cycle(10), 3),
            (generators::grid(4, 5), 7),
            (generators::hypercube(4), 0),
            (generators::gnp_connected(40, 0.1, 11).unwrap(), 5),
        ] {
            let c = build(&g, s);
            for st in c.stages() {
                let (_, uninf) = inf_uninf(&c, g.node_count(), st.index);
                for v in &st.new {
                    assert!(st.frontier.contains(v), "NEW ⊆ FRONTIER");
                }
                for v in &st.frontier {
                    assert!(uninf.contains(v), "FRONTIER ⊆ UNINF");
                }
            }
        }
    }

    #[test]
    fn fact_2_2_inf_is_source_plus_new_sets() {
        // INF_i is not stored; with INF_i = {s} ∪ NEW_{<i} (Fact 2.2) the
        // stored frontiers must be exactly UNINF_i ∩ Γ(INF_i), and the union
        // must not repeat a node (so |INF_i| = 1 + Σ_{j<i} |NEW_j|).
        let g = generators::grid(4, 4);
        let n = g.node_count();
        let c = build(&g, 0);
        for st in c.stages() {
            let (inf, uninf) = inf_uninf(&c, n, st.index);
            let new_before: usize = c.stages()[..st.index - 1].iter().map(|p| p.new.len()).sum();
            assert_eq!(inf.len(), 1 + new_before, "stage {}", st.index);
            let gamma = neighborhood_of_set(&g, &inf);
            let expected: Vec<NodeId> = uninf
                .into_iter()
                .filter(|v| gamma.binary_search(v).is_ok())
                .collect();
            assert_eq!(st.frontier, expected, "stage {}", st.index);
        }
    }

    #[test]
    fn lemma_2_3_new_sets_are_disjoint() {
        let g = generators::gnp_connected(60, 0.07, 3).unwrap();
        let c = build(&g, 0);
        let mut seen = vec![false; g.node_count()];
        for st in c.stages() {
            for &v in &st.new {
                assert!(!seen[v], "node {v} appears in two NEW sets");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn lemma_2_4_progress_every_stage() {
        let g = generators::barbell(5, 3);
        let c = build(&g, 0);
        for st in c.stages() {
            let (_, uninf) = inf_uninf(&c, g.node_count(), st.index);
            if !uninf.is_empty() {
                assert!(!st.new.is_empty(), "stage {} made no progress", st.index);
            }
        }
    }

    #[test]
    fn lemma_2_6_ell_at_most_n() {
        for (g, s) in [
            (generators::path(17), 0),
            (generators::cycle(12), 0),
            (generators::complete(9), 4),
            (generators::star(15), 3),
            (generators::lollipop(5, 6), 10),
        ] {
            let c = build(&g, s);
            assert!(c.ell() <= g.node_count(), "ℓ = {} > n", c.ell());
        }
    }

    #[test]
    fn corollary_2_7_new_sets_partition_non_source_nodes() {
        for (g, s) in [
            (generators::grid(3, 5), 7),
            (generators::random_tree(33, 5), 0),
            (generators::theta(4, 3).unwrap(), 1),
        ] {
            let c = build(&g, s);
            let mut count = 0;
            let mut covered = vec![false; g.node_count()];
            for st in c.stages() {
                for &v in &st.new {
                    assert!(!covered[v]);
                    covered[v] = true;
                    count += 1;
                }
            }
            assert_eq!(count, g.node_count() - 1);
            assert!(!covered[s]);
        }
    }

    #[test]
    fn dom_sets_are_minimal_dominating_sets_of_the_frontier() {
        let g = generators::gnp_connected(35, 0.12, 8).unwrap();
        let c = build(&g, 2);
        for st in c.stages().iter().skip(1) {
            if st.frontier.is_empty() {
                assert!(st.dom.is_empty());
            } else {
                assert!(
                    is_minimal_dominating_set(&g, &st.dom, &st.frontier),
                    "stage {}",
                    st.index
                );
            }
        }
    }

    #[test]
    fn dom_subset_of_previous_dom_union_new() {
        let g = generators::grid(5, 5);
        let c = build(&g, 12);
        for w in c.stages().windows(2) {
            let prev = &w[0];
            let cur = &w[1];
            for v in &cur.dom {
                assert!(
                    prev.dom.contains(v) || prev.new.contains(v),
                    "DOM_{} contains {v} not in DOM_{} ∪ NEW_{}",
                    cur.index,
                    prev.index,
                    prev.index
                );
            }
        }
    }

    #[test]
    fn new_nodes_have_exactly_one_dominator() {
        let g = generators::hypercube(4);
        let c = build(&g, 0);
        for st in c.stages() {
            for &v in &st.new {
                assert_eq!(dominator_count(&g, &st.dom, v), 1);
            }
            // Frontier nodes not in NEW have 0 or >= 2 dominators — but by
            // domination they have at least one, so >= 2.
            for &v in &st.frontier {
                if !st.new.contains(&v) {
                    assert!(dominator_count(&g, &st.dom, v) >= 2);
                }
            }
        }
    }

    #[test]
    fn last_stage_has_everyone_informed() {
        let g = generators::caterpillar(6, 3);
        let c = build(&g, 0);
        let last = c.stages().last().unwrap();
        let (inf, uninf) = inf_uninf(&c, g.node_count(), last.index);
        assert_eq!(inf.len(), g.node_count());
        assert!(uninf.is_empty());
        assert!(last.frontier.is_empty());
        assert!(last.dom.is_empty());
        assert!(last.new.is_empty());
    }

    #[test]
    fn path_from_endpoint_has_linear_ell() {
        let g = generators::path(10);
        let c = build(&g, 0);
        // One new node per stage: ℓ = n.
        assert_eq!(c.ell(), 10);
        for (i, st) in c.stages().iter().enumerate() {
            if i + 1 < c.ell() {
                assert_eq!(st.new.len(), 1);
            }
        }
    }

    #[test]
    fn complete_graph_needs_two_stages() {
        // K_n: the source is the only member of DOM_1 and is adjacent to
        // every other node, so NEW_1 = V \ {s} and ℓ = 2.
        let g = generators::complete(7);
        let c = build(&g, 0);
        assert_eq!(c.ell(), 2);
    }

    #[test]
    fn four_cycle_stages() {
        // C4 with source 0: stage 1 informs 1 and 3; stage 2 informs 2 via a
        // single dominator; ℓ = 3.
        let g = generators::cycle(4);
        let c = build(&g, 0);
        assert_eq!(c.ell(), 3);
        let s2 = c.stage(2).unwrap();
        assert_eq!(s2.frontier, vec![2]);
        assert_eq!(s2.dom.len(), 1);
        assert_eq!(s2.new, vec![2]);
    }

    #[test]
    fn accessor_helpers() {
        let g = generators::cycle(6);
        let c = build(&g, 0);
        assert_eq!(c.source(), 0);
        assert!(c.in_some_dom(0));
        assert_eq!(c.new_stage_of(0), None);
        assert!(c.new_stage_of(1).is_some());
        assert_eq!(c.informed_round(0), Some(0));
        let v = 3; // antipodal node
        let i = c.new_stage_of(v).unwrap();
        assert_eq!(c.informed_round(v), Some(2 * i as u64 - 1));
        assert!(c.stage(0).is_none());
        assert!(c.stage(c.ell() + 5).is_none());
        assert!(c.dom(c.ell() + 5).is_empty());
        assert!(c.new_set(c.ell() + 5).is_empty());
    }

    #[test]
    fn different_reduction_orders_all_satisfy_invariants() {
        let g = generators::gnp_connected(30, 0.15, 4).unwrap();
        for order in [
            ReductionOrder::Forward,
            ReductionOrder::Reverse,
            ReductionOrder::Random(1),
            ReductionOrder::Random(99),
        ] {
            let c = SequenceConstruction::build(&g, 0, order).unwrap();
            assert!(c.ell() <= g.node_count());
            let mut covered = 0;
            for st in c.stages() {
                covered += st.new.len();
            }
            assert_eq!(covered, g.node_count() - 1);
        }
    }
}
