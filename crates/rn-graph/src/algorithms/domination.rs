//! Dominating sets and minimal dominating subsets.
//!
//! The heart of the paper's labeling scheme (§2.1, step 4) is: given the set
//! `DOM_{i-1} ∪ NEW_{i-1}` of candidate transmitters and the frontier
//! `FRONTIER_i` of uninformed nodes adjacent to informed nodes, pick a
//! **minimal** subset of the candidates that dominates the frontier. Minimality
//! (no candidate can be removed without leaving some frontier node
//! undominated) is exactly what guarantees progress (Lemma 2.4): every
//! candidate kept has a "private" frontier neighbour that hears it without
//! collision.
//!
//! [`minimal_dominating_subset`] implements that reduction; the
//! [`ReductionOrder`] parameter exists only for the ablation benchmark — every
//! order yields a minimal set, but different minimal sets can lead to
//! different broadcast schedules. [`DominationScratch`] runs the same
//! reduction on reusable working memory, so a caller reducing once per stage
//! pays for the stage's sets and the candidates' degrees, not for `n`.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Order in which candidate nodes are tried for removal when reducing a
/// dominating set to a minimal one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Try candidates in increasing node-index order.
    Forward,
    /// Try candidates in decreasing node-index order.
    Reverse,
    /// Try candidates in a pseudo-random order derived from the given seed.
    Random(u64),
}

/// The open neighbourhood Γ(X) of a set of nodes: every node adjacent to at
/// least one node of `set` (paper notation Γ). The result is sorted and
/// deduplicated; note that members of `set` appear only if they have a
/// neighbour inside `set`.
pub fn neighborhood_of_set(g: &Graph, set: &[NodeId]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = set
        .iter()
        .flat_map(|&v| g.neighbors(v).iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether node `x` dominates node `y` in `g`, i.e. `x` is adjacent to `y`.
/// (The paper's notion of domination is by adjacency, not closed
/// neighbourhood.)
pub fn dominates(g: &Graph, x: NodeId, y: NodeId) -> bool {
    g.has_edge(x, y)
}

/// Whether `set` dominates every node of `targets`: each target has at least
/// one neighbour in `set`.
pub fn is_dominating_set(g: &Graph, set: &[NodeId], targets: &[NodeId]) -> bool {
    let mut in_set = vec![false; g.node_count()];
    for &v in set {
        in_set[v] = true;
    }
    targets
        .iter()
        .all(|&t| g.neighbors(t).iter().any(|&w| in_set[w]))
}

/// Whether `set` is a **minimal** set dominating `targets`: it dominates them
/// and no proper subset does. Equivalently, every member of `set` has a
/// private target neighbour (a target adjacent to it and to no other member).
pub fn is_minimal_dominating_set(g: &Graph, set: &[NodeId], targets: &[NodeId]) -> bool {
    if !is_dominating_set(g, set, targets) {
        return false;
    }
    let mut in_set = vec![false; g.node_count()];
    for &v in set {
        in_set[v] = true;
    }
    // Every member must have a private neighbour among the targets.
    set.iter().all(|&member| {
        targets.iter().any(|&t| {
            g.has_edge(member, t) && g.neighbors(t).iter().filter(|&&w| in_set[w]).count() == 1
        })
    })
}

/// Number of neighbours of `target` inside `set` (used to find nodes that hear
/// exactly one transmitter).
pub fn dominator_count(g: &Graph, set: &[NodeId], target: NodeId) -> usize {
    let mut in_set = vec![false; g.node_count()];
    for &v in set {
        in_set[v] = true;
    }
    g.neighbors(target).iter().filter(|&&w| in_set[w]).count()
}

/// Reduces `candidates` to a minimal subset that still dominates `targets`.
///
/// Precondition: `candidates` must dominate `targets` (checked; returns `None`
/// if it does not — the paper's Lemma 2.5 guarantees this never happens when
/// called by the scheme construction).
///
/// The reduction repeatedly drops any candidate whose removal keeps all
/// targets dominated, trying candidates in the given [`ReductionOrder`]. The
/// result is inclusion-minimal regardless of order.
///
/// Runs in `O(n + k log k + |targets| + Σ_{c∈candidates} deg(c))` for
/// `k = |candidates|`: only the candidates' adjacency rows are read, never
/// the targets'. The `O(n)` term is this one-shot form allocating a fresh
/// [`DominationScratch`]; callers that reduce many sets on one graph keep a
/// scratch and call [`DominationScratch::minimal_dominating_subset`], which
/// drops that term.
pub fn minimal_dominating_subset(
    g: &Graph,
    candidates: &[NodeId],
    targets: &[NodeId],
    order: ReductionOrder,
) -> Option<Vec<NodeId>> {
    DominationScratch::for_nodes(g.node_count())
        .minimal_dominating_subset(g, candidates, targets, order)
}

/// Reusable working memory for [`minimal_dominating_subset`].
///
/// A reduction needs two per-node arrays: membership in the current set,
/// and, per target, how many set members dominate it (`cover`). Allocating
/// and clearing them per call costs `O(n)`, which dominates when the sets
/// are small — as they are at every stage of the §2.1 construction. The
/// scratch keeps them across calls and guards them with a **generation
/// stamp**, the idiom of the simulator's round scratch: each reduction bumps
/// `generation`, and a node is in the set only while its `in_set` stamp
/// equals the current generation. A target's stamp and its cover share one
/// word, `slot = generation << 32 | cover`, so with `tag = generation << 32`
/// a node is a current target iff `slot >= tag` (older stamps are smaller)
/// and has cover 1 iff `slot == tag + 1`; a cover never reaches `2^32`, as
/// no degree does (CSR offsets are `u32`). Entries from earlier reductions
/// are never read as current, so nothing is cleared until the 32-bit
/// generation wraps.
#[derive(Debug)]
pub struct DominationScratch {
    /// `in_set[v] == generation` iff `v` is in the current set.
    in_set: Vec<u32>,
    /// `generation << 32 | cover[v]` for a current target `v`; smaller for
    /// every other node.
    slot: Vec<u64>,
    /// The current reduction's stamp: never 0 during a reduction, so a
    /// zeroed entry never reads as current.
    generation: u32,
}

impl DominationScratch {
    /// Creates a scratch sized for graphs of up to `n` nodes; it grows to
    /// fit larger graphs on first use.
    pub fn for_nodes(n: usize) -> Self {
        DominationScratch {
            in_set: vec![0; n],
            slot: vec![0; n],
            generation: 0,
        }
    }

    /// Reduces `candidates` to a minimal subset that still dominates
    /// `targets`, exactly as [`minimal_dominating_subset`] does, reusing this
    /// scratch. Returns `None` if `candidates` does not dominate `targets`.
    ///
    /// Runs in `O(k log k + |targets| + Σ_{c∈candidates} deg(c))` for
    /// `k = |candidates|`, independent of `n` once the scratch covers the
    /// graph: each distinct candidate's row is read to count the cover, once
    /// for its removal test and, if it is removed, once more; no target's row
    /// is read. After a successful call, [`cover`](Self::cover) reports how
    /// many members of the result dominate each target.
    pub fn minimal_dominating_subset(
        &mut self,
        g: &Graph,
        candidates: &[NodeId],
        targets: &[NodeId],
        order: ReductionOrder,
    ) -> Option<Vec<NodeId>> {
        let n = g.node_count();
        if self.in_set.len() < n {
            self.in_set.resize(n, 0);
            self.slot.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.in_set.fill(0);
            self.slot.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        let gen = self.generation;
        let tag = u64::from(gen) << 32;
        for &t in targets {
            self.slot[t] = tag;
        }
        // cover[t] = number of set members adjacent to t: each distinct
        // candidate adds 1 along its own row to the targets it meets.
        for &c in candidates {
            if self.in_set[c] != gen {
                self.in_set[c] = gen;
                for &t in g.neighbors(c) {
                    let slot = &mut self.slot[t];
                    *slot += u64::from(*slot >= tag);
                }
            }
        }
        // A target no candidate met is undominated.
        if targets.iter().any(|&t| self.slot[t] == tag) {
            return None;
        }

        let mut trial: Vec<NodeId> = candidates.to_vec();
        trial.sort_unstable();
        match order {
            ReductionOrder::Forward => {}
            ReductionOrder::Reverse => trial.reverse(),
            ReductionOrder::Random(seed) => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                trial.shuffle(&mut rng);
            }
        }

        let sole = tag + 1;
        for &c in &trial {
            // c is removable iff no target neighbour of c has cover 1, i.e.
            // has c as its only dominator.
            if self.in_set[c] != gen {
                continue;
            }
            let row = g.neighbors(c);
            if row
                .iter()
                .fold(false, |blocked, &t| blocked | (self.slot[t] == sole))
            {
                continue;
            }
            self.in_set[c] = 0;
            for &t in row {
                let slot = &mut self.slot[t];
                *slot -= u64::from(*slot >= tag);
            }
        }

        let mut result: Vec<NodeId> = trial
            .into_iter()
            .filter(|&v| self.in_set[v] == gen)
            .collect();
        result.sort_unstable();
        result.dedup();
        Some(result)
    }

    /// The number of members of the last reduction's result adjacent to
    /// target `t`. Meaningful only after a successful
    /// [`minimal_dominating_subset`](Self::minimal_dominating_subset) call
    /// that had `t` among its targets.
    pub fn cover(&self, t: NodeId) -> usize {
        let tag = u64::from(self.generation) << 32;
        debug_assert!(self.slot[t] >= tag, "{t} is not a current target");
        (self.slot[t] - tag) as usize
    }
}

/// Greedy dominating set for the whole graph (classic ln-approximation):
/// repeatedly pick the node covering the most uncovered nodes (closed
/// neighbourhood). Used only by auxiliary experiments; the paper's scheme uses
/// [`minimal_dominating_subset`] instead.
pub fn greedy_dominating_set(g: &Graph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut covered = vec![false; n];
    let mut num_covered = 0;
    let mut set = Vec::new();
    while num_covered < n {
        let mut best = None;
        let mut best_gain = 0usize;
        for v in 0..n {
            let mut gain = usize::from(!covered[v]);
            gain += g.neighbors(v).iter().filter(|&&w| !covered[w]).count();
            if gain > best_gain {
                best_gain = gain;
                best = Some(v);
            }
        }
        let v = best.expect("some node must cover an uncovered node");
        set.push(v);
        if !covered[v] {
            covered[v] = true;
            num_covered += 1;
        }
        for &w in g.neighbors(v) {
            if !covered[w] {
                covered[w] = true;
                num_covered += 1;
            }
        }
    }
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::Rng;

    /// The oracle for [`DominationScratch`]: the same reduction with
    /// per-call arrays, counting each target's dominators from the
    /// target's own row. Returns the minimal set and each target's cover.
    fn target_side_reduction(
        g: &Graph,
        candidates: &[NodeId],
        targets: &[NodeId],
        order: ReductionOrder,
    ) -> Option<(Vec<NodeId>, Vec<usize>)> {
        let n = g.node_count();
        let mut in_set = vec![false; n];
        for &c in candidates {
            in_set[c] = true;
        }
        let mut is_target = vec![false; n];
        let mut cover = vec![0usize; n];
        for &t in targets {
            is_target[t] = true;
            cover[t] = g.neighbors(t).iter().filter(|&&w| in_set[w]).count();
            if cover[t] == 0 {
                return None;
            }
        }
        let mut trial = candidates.to_vec();
        trial.sort_unstable();
        match order {
            ReductionOrder::Forward => {}
            ReductionOrder::Reverse => trial.reverse(),
            ReductionOrder::Random(seed) => {
                trial.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            }
        }
        for &c in &trial {
            let row = g.neighbors(c);
            if in_set[c] && row.iter().all(|&t| !is_target[t] || cover[t] >= 2) {
                in_set[c] = false;
                for &t in row {
                    if is_target[t] {
                        cover[t] -= 1;
                    }
                }
            }
        }
        let set = (0..n).filter(|&v| in_set[v]).collect();
        Some((set, targets.iter().map(|&t| cover[t]).collect()))
    }

    /// A random graph on `n` nodes with about `n * avg / 2` edges; it may
    /// be disconnected and have isolated nodes.
    fn random_graph(n: usize, avg: usize, rng: &mut rand::rngs::StdRng) -> Graph {
        let mut edges: Vec<(NodeId, NodeId)> = (0..n * avg / 2)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Graph::from_edges(n, &edges).expect("valid edges")
    }

    #[test]
    fn scratch_matches_the_target_side_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2019);
        let mut scratch = DominationScratch::for_nodes(0);
        let (mut dominated, mut undominated) = (0, 0);
        for round in 0..60 {
            let n = rng.gen_range(2..60usize);
            let g = if round % 2 == 0 {
                random_graph(n, rng.gen_range(1..8usize), &mut rng)
            } else {
                generators::gnp_connected(n, 0.2, round).unwrap()
            };
            for _ in 0..8 {
                // Candidates drawn with replacement, so some repeat.
                let k = rng.gen_range(1..=n);
                let candidates: Vec<NodeId> = (0..k).map(|_| rng.gen_range(0..n)).collect();
                // Targets: the candidates' neighbourhood (which may contain
                // candidates), some candidates themselves and, half the
                // time, random nodes that may be undominated.
                let mut targets = neighborhood_of_set(&g, &candidates);
                targets.retain(|_| rng.gen_bool(0.8));
                targets.extend(candidates.iter().copied().filter(|_| rng.gen_bool(0.3)));
                if rng.gen_bool(0.5) {
                    targets.extend((0..3).map(|_| rng.gen_range(0..n)));
                }
                for order in [
                    ReductionOrder::Forward,
                    ReductionOrder::Reverse,
                    ReductionOrder::Random(rng.gen_range(0..u64::MAX)),
                ] {
                    let expected = target_side_reduction(&g, &candidates, &targets, order);
                    let actual =
                        scratch.minimal_dominating_subset(&g, &candidates, &targets, order);
                    match expected {
                        None => {
                            assert_eq!(actual, None, "{candidates:?} -> {targets:?}");
                            undominated += 1;
                        }
                        Some((set, cover)) => {
                            assert_eq!(actual.as_ref(), Some(&set), "{order:?}");
                            let got: Vec<usize> =
                                targets.iter().map(|&t| scratch.cover(t)).collect();
                            assert_eq!(got, cover, "{order:?}");
                            dominated += 1;
                        }
                    }
                }
            }
        }
        assert!(
            dominated > 100 && undominated > 100,
            "{dominated} / {undominated}"
        );
    }

    #[test]
    fn neighborhood_of_set_basic() {
        let g = generators::path(5); // 0-1-2-3-4
        assert_eq!(neighborhood_of_set(&g, &[0]), vec![1]);
        assert_eq!(neighborhood_of_set(&g, &[1, 3]), vec![0, 2, 4]);
        assert_eq!(neighborhood_of_set(&g, &[]), Vec::<usize>::new());
    }

    #[test]
    fn dominates_is_adjacency() {
        let g = generators::path(3);
        assert!(dominates(&g, 0, 1));
        assert!(!dominates(&g, 0, 2));
        assert!(!dominates(&g, 0, 0));
    }

    #[test]
    fn is_dominating_set_detects_coverage() {
        let g = generators::star(5); // centre 0
        assert!(is_dominating_set(&g, &[0], &[1, 2, 3, 4]));
        assert!(!is_dominating_set(&g, &[1], &[2, 3]));
        // empty target set is trivially dominated
        assert!(is_dominating_set(&g, &[], &[]));
    }

    #[test]
    fn minimality_check_accepts_and_rejects() {
        let g = generators::path(5); // 0-1-2-3-4
                                     // {1,3} dominates {0,2,4} minimally.
        assert!(is_minimal_dominating_set(&g, &[1, 3], &[0, 2, 4]));
        // {1,2,3} also dominates but is not minimal (2 has no private target).
        assert!(!is_minimal_dominating_set(&g, &[1, 2, 3], &[0, 2, 4]));
        // non-dominating set is not minimal-dominating
        assert!(!is_minimal_dominating_set(&g, &[1], &[0, 2, 4]));
    }

    #[test]
    fn dominator_count_counts_set_neighbors() {
        let g = generators::cycle(4);
        assert_eq!(dominator_count(&g, &[1, 3], 0), 2);
        assert_eq!(dominator_count(&g, &[1], 0), 1);
        assert_eq!(dominator_count(&g, &[], 0), 0);
    }

    #[test]
    fn minimal_subset_none_when_candidates_do_not_dominate() {
        let g = generators::path(5);
        assert!(minimal_dominating_subset(&g, &[0], &[3], ReductionOrder::Forward).is_none());
    }

    #[test]
    fn minimal_subset_is_minimal_for_all_orders() {
        let g = generators::grid(3, 4);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = g.nodes().collect();
        for order in [
            ReductionOrder::Forward,
            ReductionOrder::Reverse,
            ReductionOrder::Random(7),
            ReductionOrder::Random(1234),
        ] {
            let sub = minimal_dominating_subset(&g, &candidates, &targets, order).unwrap();
            assert!(is_minimal_dominating_set(&g, &sub, &targets), "{order:?}");
        }
    }

    #[test]
    fn minimal_subset_subset_of_candidates() {
        let g = generators::cycle(8);
        let candidates = vec![0, 2, 4, 6];
        let targets = vec![1, 3, 5, 7];
        let sub =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Forward).unwrap();
        assert!(sub.iter().all(|v| candidates.contains(v)));
        assert!(is_dominating_set(&g, &sub, &targets));
    }

    #[test]
    fn minimal_subset_star_reduces_to_centre() {
        let g = generators::star(6);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = (1..6).collect();
        let sub =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Forward).unwrap();
        assert_eq!(sub, vec![0]);
    }

    #[test]
    fn minimal_subset_with_empty_targets_is_empty() {
        let g = generators::path(4);
        let sub = minimal_dominating_subset(&g, &[0, 1, 2], &[], ReductionOrder::Forward).unwrap();
        assert!(sub.is_empty());
    }

    #[test]
    fn different_orders_may_differ_but_all_dominate() {
        let g = generators::complete(6);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = g.nodes().collect();
        let a =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Forward).unwrap();
        let b =
            minimal_dominating_subset(&g, &candidates, &targets, ReductionOrder::Reverse).unwrap();
        assert!(is_dominating_set(&g, &a, &targets));
        assert!(is_dominating_set(&g, &b, &targets));
        // Domination is by adjacency (open neighbourhood), so covering every
        // node of a clique — including the chosen dominators themselves —
        // needs exactly two nodes.
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn reused_scratch_matches_one_shot_and_reports_cover() {
        // One scratch across reductions of different sets, orders and
        // graphs (the smaller graph first, so the scratch must grow):
        // stale stamps from earlier calls must never leak into a result.
        let mut scratch = DominationScratch::for_nodes(0);
        for (g, step) in [
            (generators::grid(4, 5), 2),
            (generators::gnp_connected(40, 0.15, 3).unwrap(), 3),
        ] {
            let n = g.node_count();
            for offset in 0..step {
                let candidates: Vec<usize> = (offset..n).step_by(step).collect();
                let targets = neighborhood_of_set(&g, &candidates);
                for order in [
                    ReductionOrder::Forward,
                    ReductionOrder::Reverse,
                    ReductionOrder::Random(5),
                ] {
                    let fresh = minimal_dominating_subset(&g, &candidates, &targets, order);
                    let reused =
                        scratch.minimal_dominating_subset(&g, &candidates, &targets, order);
                    assert_eq!(reused, fresh, "{order:?}");
                    let dom = reused.unwrap();
                    for &t in &targets {
                        assert_eq!(scratch.cover(t), dominator_count(&g, &dom, t));
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_clears_its_stamps_when_the_generation_wraps() {
        let g = generators::grid(4, 4);
        let candidates: Vec<usize> = g.nodes().collect();
        let targets: Vec<usize> = g.nodes().collect();
        let order = ReductionOrder::Forward;
        let expected = minimal_dominating_subset(&g, &candidates, &targets, order);
        let mut scratch = DominationScratch::for_nodes(16);
        scratch.generation = u32::MAX - 2;
        for _ in 0..4 {
            let actual = scratch.minimal_dominating_subset(&g, &candidates, &targets, order);
            assert_eq!(actual, expected, "generation {}", scratch.generation);
        }
        assert_eq!(scratch.generation, 2);
    }

    #[test]
    fn scratch_rejects_non_dominating_candidates_then_recovers() {
        let g = generators::path(5);
        let mut scratch = DominationScratch::for_nodes(5);
        let order = ReductionOrder::Forward;
        assert!(scratch
            .minimal_dominating_subset(&g, &[0], &[3], order)
            .is_none());
        let sub = scratch.minimal_dominating_subset(&g, &[1, 2, 3], &[0, 2, 4], order);
        assert_eq!(sub, Some(vec![1, 3]));
        assert_eq!(scratch.cover(2), 2);
    }

    #[test]
    fn greedy_dominating_set_dominates_whole_graph() {
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::grid(4, 4),
            generators::star(7),
        ] {
            let ds = greedy_dominating_set(&g);
            // every node is in the set or adjacent to it (closed domination)
            let mut in_set = vec![false; g.node_count()];
            for &v in &ds {
                in_set[v] = true;
            }
            for v in g.nodes() {
                assert!(in_set[v] || g.neighbors(v).iter().any(|&w| in_set[w]));
            }
        }
    }

    #[test]
    fn greedy_dominating_set_star_is_centre() {
        let g = generators::star(9);
        assert_eq!(greedy_dominating_set(&g), vec![0]);
    }
}
