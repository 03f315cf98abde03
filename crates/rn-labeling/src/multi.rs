//! The k-source **multi-broadcast** scheme `multi_lambda`: a virtual-source
//! reduction composing the paper's λ machinery.
//!
//! The paper solves single-source broadcast; the natural next scenario —
//! studied by the closest related work ("Labeling Schemes for Deterministic
//! Radio Multi-Broadcast", Krisko & Miller 2021, and "Optimal-Length
//! Labeling Schemes for Fast Deterministic Communication in Radio
//! Networks", Gańczorz, Jurdziński & Pelc 2024) — gives `k` designated
//! sources, each holding its own message, and asks for every node to learn
//! **all k** messages. This module implements the classic two-phase
//! reduction to the single-source case:
//!
//! 1. **Collection.** A coordinator `r` is chosen (by default the centre of
//!    the BFS forest grown from the k sources — the node minimising the
//!    maximum distance to any source). Every source's message is funnelled
//!    to `r` along its BFS-tree path toward `r`, one source after another,
//!    one hop per round. Exactly one node transmits in any collection
//!    round, so the phase is collision-free by construction; it takes
//!    `Σ_j dist(s_j, r)` rounds.
//! 2. **Broadcast.** From round `Σ_j dist(s_j, r) + 1` on, `r` acts as the
//!    virtual source of the paper's Algorithm B, broadcasting the *bundle*
//!    of all k messages under the ordinary 2-bit λ labeling of `(G, r)` —
//!    built by reusing [`SequenceConstruction`] and
//!    [`lambda::labels_from_construction`] verbatim, not a fork. Theorem
//!    2.9 then bounds the phase by `2n − 3` rounds.
//!
//! The λ half of the advice stays constant-length (2 bits per node, and the
//! [`Labeling`] this module reports is exactly that); the collection
//! schedule is the extra advice of the reduction — `O(σ_v · log(kn))` bits
//! at a node sitting on `σ_v` collection paths, matching the
//! non-constant-length regime of the related work rather than the paper's
//! 2-bit bound. `docs/ARCHITECTURE.md` records this accounting.

use crate::collection::CollectionPlan;
use crate::error::LabelingError;
use crate::label::Labeling;
use crate::lambda;
use crate::sequences::SequenceConstruction;
use rn_graph::algorithms::{centre, ReductionOrder};
use rn_graph::{Graph, NodeId};

pub use crate::collection::{CollectionSlot, TokenPayload};

/// Name attached to labelings produced by this scheme.
pub const SCHEME_NAME: &str = "multi_lambda";

/// Output of a multi-message construction: the λ labeling of the
/// coordinator-rooted graph plus the collision-free collection plan.
///
/// Both multi-message schemes produce it. `multi_lambda` collects along
/// per-source BFS paths ([`CollectionPlan::bfs_paths`]); gossip is the
/// `k = n` case, whose sources are `0..n` and whose plan is the DFS token
/// walk ([`CollectionPlan::dfs_token`], see [`crate::gossip`]).
#[derive(Debug, Clone)]
pub struct MultiLambdaScheme {
    labeling: Labeling,
    sources: Vec<NodeId>,
    plan: CollectionPlan,
    construction: SequenceConstruction,
}

impl MultiLambdaScheme {
    /// The 2-bit λ labeling of `(G, coordinator)`, renamed to the
    /// scheme's name ([`SCHEME_NAME`] or [`crate::gossip::SCHEME_NAME`]).
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The designated sources, sorted and deduplicated. Message `j` of the
    /// run is the message of `sources()[j]`.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Number of designated sources (and of messages in flight).
    pub fn k(&self) -> usize {
        self.sources.len()
    }

    /// The coordinator `r`: the virtual source of the broadcast phase.
    pub fn coordinator(&self) -> NodeId {
        self.plan.coordinator()
    }

    /// The full collection plan (BFS paths for `multi_lambda`, the DFS
    /// token walk for gossip): what the relay protocol in `rn-broadcast`
    /// drives.
    pub fn plan(&self) -> &CollectionPlan {
        &self.plan
    }

    /// The collection schedule, in strictly increasing round order starting
    /// at round 1, with no gaps. Empty iff every source *is* the
    /// coordinator.
    pub fn slots(&self) -> &[CollectionSlot] {
        self.plan.slots()
    }

    /// Number of rounds of the collection phase (`Σ_j dist(s_j, r)` for
    /// BFS paths, exactly `2(n − 1)` for the token walk); the broadcast
    /// phase starts in the following round.
    pub fn collection_rounds(&self) -> u64 {
        self.plan.rounds()
    }

    /// The §2.1 sequence construction of `(G, coordinator)` the λ half was
    /// derived from (shared with the single-source λ — useful for
    /// verification oracles).
    pub fn construction(&self) -> &SequenceConstruction {
        &self.construction
    }

    /// Consumes the scheme, returning the labeling.
    pub fn into_labeling(self) -> Labeling {
        self.labeling
    }
}

/// Chooses the default coordinator for a source set: the node minimising
/// the maximum BFS distance to any source (the centre of the BFS forest
/// grown from the sources), ties broken toward the smallest id.
///
/// The choice is [`rn_graph::algorithms::centre`]: an eccentricity-bounding
/// search whose BFS roots are drawn from the sources, so it runs at most
/// `k` passes (one per source) and usually a handful.
///
/// Returns an error for an empty graph, an empty/out-of-range source set,
/// or a disconnected graph (some node unreachable from a source).
pub fn choose_coordinator(g: &Graph, sources: &[NodeId]) -> Result<NodeId, LabelingError> {
    let sources = validate_sources(g, sources)?;
    centre(g, &sources)
        .map(|c| c.node)
        .ok_or(LabelingError::NotConnected)
}

/// Validates and normalises a source set: non-empty, every entry in range,
/// returned sorted and deduplicated.
///
/// Checks in order: [`LabelingError::EmptyGraph`], then
/// [`LabelingError::NoSources`], then [`LabelingError::SourceOutOfRange`]
/// for the first out-of-range entry.
pub fn validate_sources(g: &Graph, sources: &[NodeId]) -> Result<Vec<NodeId>, LabelingError> {
    if g.node_count() == 0 {
        return Err(LabelingError::EmptyGraph);
    }
    if sources.is_empty() {
        return Err(LabelingError::NoSources);
    }
    for &s in sources {
        if s >= g.node_count() {
            return Err(LabelingError::SourceOutOfRange {
                source: s,
                node_count: g.node_count(),
            });
        }
    }
    let mut sources = sources.to_vec();
    sources.sort_unstable();
    sources.dedup();
    Ok(sources)
}

/// Constructs the `multi_lambda` scheme for `(g, sources)` with the default
/// coordinator of [`choose_coordinator`].
pub fn construct(g: &Graph, sources: &[NodeId]) -> Result<MultiLambdaScheme, LabelingError> {
    let coordinator = choose_coordinator(g, sources)?;
    construct_with_coordinator(g, sources, coordinator)
}

/// Constructs the `multi_lambda` scheme with an explicit coordinator.
///
/// The λ half reuses [`SequenceConstruction::build`] and
/// [`lambda::labels_from_construction`] on `(g, coordinator)`; the
/// collection schedule walks each source's BFS-tree path toward the
/// coordinator, one source after another (in sorted source order), one hop
/// per round.
pub fn construct_with_coordinator(
    g: &Graph,
    sources: &[NodeId],
    coordinator: NodeId,
) -> Result<MultiLambdaScheme, LabelingError> {
    let sources = validate_sources(g, sources)?;
    // Collection schedule along the BFS tree rooted at the coordinator
    // (parents point one hop closer to it).
    assemble(
        g,
        sources,
        coordinator,
        SCHEME_NAME,
        CollectionPlan::bfs_paths,
    )
}

/// The construction shared by both multi-message schemes: checks the
/// coordinator, labels `(g, coordinator)` with the 2-bit λ labels named
/// `name`, and asks `plan` for the collection schedule of the (already
/// validated) `sources`.
pub(crate) fn assemble(
    g: &Graph,
    sources: Vec<NodeId>,
    coordinator: NodeId,
    name: &'static str,
    plan: impl FnOnce(&Graph, &[NodeId], NodeId) -> Result<CollectionPlan, LabelingError>,
) -> Result<MultiLambdaScheme, LabelingError> {
    if coordinator >= g.node_count() {
        return Err(LabelingError::SourceOutOfRange {
            source: coordinator,
            node_count: g.node_count(),
        });
    }
    // The λ machinery (also detects disconnected graphs).
    let construction = SequenceConstruction::build(g, coordinator, ReductionOrder::Forward)?;
    let labeling = Labeling::new(
        lambda::labels_from_construction(g, &construction)
            .labels()
            .to_vec(),
        name,
    );
    let plan = plan(g, &sources, coordinator)?;
    Ok(MultiLambdaScheme {
        labeling,
        sources,
        plan,
        construction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn labels_are_the_two_bit_lambda_labels_of_the_coordinator() {
        let g = generators::grid(4, 5);
        let m = construct_with_coordinator(&g, &[0, 19], 7).unwrap();
        assert_eq!(m.labeling().scheme(), SCHEME_NAME);
        assert_eq!(m.labeling().length(), 2);
        let plain = lambda::construct(&g, 7).unwrap();
        assert_eq!(m.labeling().labels(), plain.labeling().labels());
        assert_eq!(m.coordinator(), 7);
        assert_eq!(m.sources(), &[0, 19]);
    }

    #[test]
    fn sources_are_sorted_and_deduplicated() {
        let g = generators::cycle(8);
        let m = construct_with_coordinator(&g, &[5, 2, 5, 0], 0).unwrap();
        assert_eq!(m.sources(), &[0, 2, 5]);
        assert_eq!(m.k(), 3);
    }

    #[test]
    fn collection_schedule_is_gap_free_and_collision_free_by_construction() {
        let g = generators::gnp_connected(24, 0.15, 3).unwrap();
        let m = construct(&g, &[1, 8, 17, 23]).unwrap();
        // Rounds 1..=collection_rounds, exactly one slot per round.
        let rounds: Vec<u64> = m.slots().iter().map(|s| s.round).collect();
        assert_eq!(rounds, (1..=m.collection_rounds()).collect::<Vec<_>>());
        assert!(m.plan().is_gap_free_and_collision_free());
        // Each source's slice starts at the source and walks adjacent hops.
        for (j, &s) in m.sources().iter().enumerate() {
            let hops: Vec<&CollectionSlot> = m
                .slots()
                .iter()
                .filter(|slot| slot.payload == TokenPayload::Source(j as u32))
                .collect();
            if s == m.coordinator() {
                assert!(hops.is_empty());
                continue;
            }
            assert_eq!(hops[0].node, s);
            for w in hops.windows(2) {
                assert!(g.has_edge(w[0].node, w[1].node));
            }
            assert!(g.has_edge(hops.last().unwrap().node, m.coordinator()));
        }
    }

    #[test]
    fn collection_rounds_is_the_sum_of_source_distances() {
        let g = generators::path(10);
        // Coordinator 0; sources at 3 and 7: 3 + 7 = 10 collection rounds.
        let m = construct_with_coordinator(&g, &[3, 7], 0).unwrap();
        assert_eq!(m.collection_rounds(), 10);
        assert_eq!(m.slots().len(), 10);
    }

    #[test]
    fn coordinator_source_contributes_no_slots() {
        let g = generators::star(6);
        let m = construct_with_coordinator(&g, &[0], 0).unwrap();
        assert_eq!(m.collection_rounds(), 0);
        assert!(m.slots().is_empty());
    }

    #[test]
    fn choose_coordinator_minimises_the_worst_source_distance() {
        let g = generators::path(11);
        // Sources at the two ends: the centre of the path wins.
        assert_eq!(choose_coordinator(&g, &[0, 10]).unwrap(), 5);
        // A single source is its own best coordinator.
        assert_eq!(choose_coordinator(&g, &[3]).unwrap(), 3);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = generators::path(6);
        assert_eq!(
            construct(&g, &[]).unwrap_err(),
            LabelingError::NoSources,
            "empty source set"
        );
        assert!(matches!(
            construct(&g, &[9]).unwrap_err(),
            LabelingError::SourceOutOfRange { source: 9, .. }
        ));
        assert!(matches!(
            construct_with_coordinator(&g, &[0], 12).unwrap_err(),
            LabelingError::SourceOutOfRange { source: 12, .. }
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(construct(&disconnected, &[0]).is_err());
        assert!(construct(&Graph::empty(0), &[0]).is_err());
    }

    use rn_graph::Graph;

    #[test]
    fn into_labeling_matches_labeling() {
        let g = generators::cycle(7);
        let m = construct(&g, &[1, 4]).unwrap();
        let copy = m.labeling().clone();
        assert_eq!(m.into_labeling(), copy);
    }
}
