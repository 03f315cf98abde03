//! The all-to-all **gossip** scheme: every node starts with its own message
//! and every node must learn all `n` of them.
//!
//! Gossiping is the second fundamental communication task of the radio
//! labeling literature ("Optimal-Length Labeling Schemes for Fast
//! Deterministic Communication in Radio Networks", Gańczorz, Jurdziński &
//! Pelc 2024); it is the `k = n` case of the k-source multi-broadcast of
//! [`crate::multi`], so it builds the same [`MultiLambdaScheme`] with the
//! source set `0..n` and a different collection plan:
//!
//! 1. **Collection (token walk).** A coordinator `r` is chosen (by default
//!    the graph centre — the node of minimum eccentricity). A token walks
//!    the Euler tour of a DFS spanning tree rooted at `r`
//!    ([`CollectionPlan::dfs_token`]): in every round the current token
//!    holder transmits *everything it has accumulated*, and the next node
//!    on the tour — always a tree neighbour — picks the token up and adds
//!    its own message. Exactly one transmitter per round means no
//!    collisions; the tour visits every node and returns to `r` in exactly
//!    `2(n − 1)` rounds, so `r` then holds all `n` messages. Per-source BFS
//!    paths (the `multi_lambda` plan) would cost `Σ_v dist(v, r)` rounds
//!    here — quadratic on a path — while the token walk stays `O(n)` on
//!    every graph.
//! 2. **Broadcast.** `r` assembles the bundle of all `n` messages and runs
//!    the paper's Algorithm B on it under the ordinary 2-bit λ labels of
//!    `(G, r)` (reusing [`crate::sequences::SequenceConstruction`] and
//!    [`crate::lambda::labels_from_construction`] verbatim). Theorem 2.9
//!    bounds the phase by `2n − 3` rounds, so the whole task finishes in
//!    `≤ 4n − 5` collision-managed rounds.
//!
//! The λ half of the advice stays constant-length (2 bits per node, which
//! is what the [`crate::Labeling`] this module reports measures); the token
//! schedule is the reduction's extra advice — a node visited `σ_v` times by
//! the tour (its spanning-tree degree) stores `O(σ_v · log n)` bits of slot
//! rounds, `O(n log n)` over the whole network. `docs/ARCHITECTURE.md`
//! records this accounting next to the multi-broadcast one.

use crate::collection::CollectionPlan;
use crate::error::LabelingError;
use crate::multi::{self, MultiLambdaScheme};
use rn_graph::{Graph, NodeId};

/// Name attached to labelings produced by this scheme.
pub const SCHEME_NAME: &str = "gossip";

/// The benchmark crate under `benchmark/` still names gossip's scheme type.
pub type GossipScheme = MultiLambdaScheme;

/// Chooses the default coordinator for gossip: the graph centre — the node
/// of minimum eccentricity, ties broken toward the smallest id. Every node
/// is a source, so this is exactly [`crate::multi::choose_coordinator`]
/// with the all-nodes source set, and it delegates there to keep the two
/// schemes' centre selection in lockstep.
pub fn choose_coordinator(g: &Graph) -> Result<NodeId, LabelingError> {
    if g.node_count() == 0 {
        return Err(LabelingError::EmptyGraph);
    }
    let all: Vec<NodeId> = (0..g.node_count()).collect();
    crate::multi::choose_coordinator(g, &all)
}

/// Constructs the gossip scheme for `g` with the default coordinator of
/// [`choose_coordinator`].
pub fn construct(g: &Graph) -> Result<MultiLambdaScheme, LabelingError> {
    let coordinator = choose_coordinator(g)?;
    construct_with_coordinator(g, coordinator)
}

/// Constructs the gossip scheme with an explicit coordinator: the `k = n`
/// multi-broadcast, whose sources are `0..n` (message `j` is the message
/// of node `j`) and whose collection plan is the DFS token walk of
/// [`CollectionPlan::dfs_token`]. The λ half is the 2-bit λ labeling of
/// `(g, coordinator)`, named [`SCHEME_NAME`].
pub fn construct_with_coordinator(
    g: &Graph,
    coordinator: NodeId,
) -> Result<MultiLambdaScheme, LabelingError> {
    if g.node_count() == 0 {
        return Err(LabelingError::EmptyGraph);
    }
    let sources = (0..g.node_count()).collect();
    multi::assemble(g, sources, coordinator, SCHEME_NAME, |g, _, r| {
        CollectionPlan::dfs_token(g, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::TokenPayload;
    use crate::lambda;
    use rn_graph::generators;

    #[test]
    fn labels_are_the_two_bit_lambda_labels_of_the_coordinator() {
        let g = generators::grid(4, 5);
        let s = construct_with_coordinator(&g, 7).unwrap();
        assert_eq!(s.labeling().scheme(), SCHEME_NAME);
        assert_eq!(s.labeling().length(), 2);
        let plain = lambda::construct(&g, 7).unwrap();
        assert_eq!(s.labeling().labels(), plain.labeling().labels());
        assert_eq!(s.coordinator(), 7);
        assert_eq!(s.k(), 20);
    }

    #[test]
    fn scheme_is_the_multi_broadcast_with_every_node_a_source() {
        let g = generators::cycle(9);
        let s = construct(&g).unwrap();
        assert_eq!(s.sources(), (0..9).collect::<Vec<_>>());
        assert_eq!(s.k(), 9);
        assert_eq!(s.labeling().scheme(), "gossip");
    }

    #[test]
    fn token_walk_degenerates_to_pure_linear_cost_on_a_path() {
        // On a path with the coordinator at the centre, per-source BFS
        // collection (the multi plan) would cost Σ_v dist(v, r) = Θ(n²)
        // rounds; the token walk stays exactly 2(n - 1).
        let g = generators::path(21);
        let scheme = construct(&g).unwrap();
        assert_eq!(scheme.coordinator(), 10);
        assert_eq!(scheme.collection_rounds(), 40);
        let sum_of_distances: u64 = (0..21u64).map(|v| v.abs_diff(10)).sum();
        assert!(scheme.collection_rounds() < sum_of_distances);
    }

    #[test]
    fn token_walk_is_linear_gap_free_and_covers_every_node() {
        for (g, r) in [
            (generators::path(12), 0usize),
            (generators::grid(4, 5), 7),
            (generators::star(9), 0),
            (generators::gnp_connected(26, 0.15, 3).unwrap(), 11),
        ] {
            let n = g.node_count() as u64;
            let s = construct_with_coordinator(&g, r).unwrap();
            assert_eq!(s.collection_rounds(), 2 * (n - 1));
            assert!(s.plan().is_gap_free_and_collision_free());
            assert!(s
                .plan()
                .slots()
                .iter()
                .all(|slot| slot.payload == TokenPayload::Accumulated));
        }
    }

    #[test]
    fn choose_coordinator_picks_the_graph_centre() {
        // On a path the centre minimises eccentricity.
        assert_eq!(choose_coordinator(&generators::path(11)).unwrap(), 5);
        // On a star it is the hub.
        assert_eq!(choose_coordinator(&generators::star(8)).unwrap(), 0);
    }

    #[test]
    fn rejects_invalid_inputs() {
        use rn_graph::Graph;
        assert_eq!(
            construct(&Graph::empty(0)).unwrap_err(),
            LabelingError::EmptyGraph
        );
        let g = generators::path(6);
        assert!(matches!(
            construct_with_coordinator(&g, 12).unwrap_err(),
            LabelingError::SourceOutOfRange { source: 12, .. }
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(construct(&disconnected).is_err());
        assert!(construct_with_coordinator(&disconnected, 0).is_err());
    }

    #[test]
    fn into_labeling_matches_labeling() {
        let g = generators::cycle(7);
        let s = construct(&g).unwrap();
        let copy = s.labeling().clone();
        assert_eq!(s.into_labeling(), copy);
    }
}
