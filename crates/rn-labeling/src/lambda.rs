//! The 2-bit labeling scheme **λ** of §2.2.
//!
//! Given the sequence construction of §2.1, λ assigns to every node a label
//! `x1 x2` where:
//!
//! * `x1 = 1` iff the node belongs to `DOM_i` for some `i` — such a node must
//!   transmit the source message two rounds after first receiving it;
//! * `x2 = 1` at exactly one node `w ∈ NEW_i` adjacent to each node
//!   `v ∈ DOM_{i+1} ∩ DOM_i` — `w`'s "stay" message keeps `v` transmitting in
//!   the next odd round.
//!
//! Theorem 2.9: algorithm B run on a λ-labeled graph informs every node
//! within `2n − 3` rounds.

use crate::error::LabelingError;
use crate::label::{Label, Labeling};
use crate::sequences::SequenceConstruction;
use rn_graph::algorithms::ReductionOrder;
use rn_graph::{Graph, NodeId};

/// Name attached to labelings produced by this scheme.
pub const SCHEME_NAME: &str = "lambda";

/// Output of the λ construction: the labeling itself plus the sequence
/// construction it was derived from (useful for verification and for building
/// λ_ack on top).
#[derive(Debug, Clone)]
pub struct LambdaScheme {
    labeling: Labeling,
    construction: SequenceConstruction,
}

impl LambdaScheme {
    /// The 2-bit labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The underlying §2.1 sequence construction.
    pub fn construction(&self) -> &SequenceConstruction {
        &self.construction
    }

    /// Consumes the scheme, returning the labeling.
    pub fn into_labeling(self) -> Labeling {
        self.labeling
    }

    /// Consumes the scheme, returning the labeling and the construction
    /// without copying either.
    pub fn into_parts(self) -> (Labeling, SequenceConstruction) {
        (self.labeling, self.construction)
    }
}

/// Constructs the λ labeling for `(g, source)` using the default
/// ([`ReductionOrder::Forward`]) dominating-set reduction.
pub fn construct(g: &Graph, source: NodeId) -> Result<LambdaScheme, LabelingError> {
    construct_with_order(g, source, ReductionOrder::Forward)
}

/// Constructs the λ labeling with an explicit dominating-set reduction order
/// (all orders are valid; exposed for the ablation experiment).
pub fn construct_with_order(
    g: &Graph,
    source: NodeId,
    order: ReductionOrder,
) -> Result<LambdaScheme, LabelingError> {
    let construction = SequenceConstruction::build(g, source, order)?;
    let labeling = labels_from_construction(g, &construction);
    Ok(LambdaScheme {
        labeling,
        construction,
    })
}

/// Derives the 2-bit labels from an already-built sequence construction.
pub fn labels_from_construction(g: &Graph, construction: &SequenceConstruction) -> Labeling {
    let n = g.node_count();
    let mut x1 = vec![false; n];
    let mut x2 = vec![false; n];

    // x1 = 1 iff v ∈ DOM_i for some i. Each node is also stamped with the
    // stage it joins NEW (0: never, as for the source).
    let mut new_stage = vec![0usize; n];
    for stage in construction.stages() {
        for &v in &stage.dom {
            x1[v] = true;
        }
        for &w in &stage.new {
            new_stage[w] = stage.index;
        }
    }

    // x2: for each i, for each v ∈ DOM_{i+1} ∩ DOM_i, pick one w ∈ NEW_i
    // adjacent to v and set x2(w) = 1. We pick the smallest such w, which
    // keeps the scheme deterministic; the paper allows any choice. Rows are
    // sorted, so it is the first neighbour of v stamped i.
    for window in construction.stages().windows(2) {
        let cur = &window[0]; // stage i
        let next = &window[1]; // stage i + 1
        for &v in &next.dom {
            if cur.dom.binary_search(&v).is_ok() {
                let w = *g
                    .neighbors(v)
                    .iter()
                    .find(|&&w| new_stage[w] == cur.index)
                    .expect("minimality of DOM_i gives v a private NEW_i neighbour");
                x2[w] = true;
            }
        }
    }

    let labels = (0..n).map(|v| Label::two_bits(x1[v], x2[v])).collect();
    Labeling::new(labels, SCHEME_NAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn rejects_invalid_inputs() {
        assert!(construct(&Graph::empty(0), 0).is_err());
        assert!(construct(&generators::path(4), 7).is_err());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(construct(&disconnected, 0).is_err());
    }

    #[test]
    fn labels_are_two_bits() {
        let g = generators::gnp_connected(40, 0.1, 1).unwrap();
        let s = construct(&g, 0).unwrap();
        assert_eq!(s.labeling().length(), 2);
        assert_eq!(s.labeling().node_count(), 40);
        // The conclusion notes λ uses (at most) 4 distinct labels.
        assert!(s.labeling().distinct_count() <= 4);
    }

    #[test]
    fn source_is_a_dominator() {
        let g = generators::grid(4, 4);
        let s = construct(&g, 5).unwrap();
        assert!(s.labeling().get(5).x1(), "source belongs to DOM_1");
    }

    #[test]
    fn x1_matches_dom_membership() {
        let g = generators::hypercube(4);
        let s = construct(&g, 3).unwrap();
        for v in g.nodes() {
            assert_eq!(
                s.labeling().get(v).x1(),
                s.construction().in_some_dom(v),
                "node {v}"
            );
        }
    }

    #[test]
    fn x2_nodes_are_in_some_new_set_and_adjacent_to_a_repeating_dominator() {
        let g = generators::gnp_connected(50, 0.08, 9).unwrap();
        let s = construct(&g, 0).unwrap();
        let c = s.construction();
        for v in g.nodes() {
            if s.labeling().get(v).x2() {
                let i = c
                    .new_stage_of(v)
                    .expect("x2 nodes are newly informed at some stage");
                // v must be adjacent to some node in DOM_{i+1} ∩ DOM_i.
                let dom_i = c.dom(i);
                let dom_next = c.dom(i + 1);
                assert!(
                    g.neighbors(v)
                        .iter()
                        .any(|&u| dom_i.contains(&u) && dom_next.contains(&u)),
                    "x2 node {v} has no repeating dominator neighbour"
                );
            }
        }
    }

    #[test]
    fn each_repeating_dominator_has_exactly_one_x2_new_neighbor() {
        // This is the property the correctness proof of B relies on (proof of
        // Lemma 2.8, case 1(a)): a node v ∈ DOM_{i+1} ∩ DOM_i must hear the
        // "stay" message without collision, i.e. exactly one of its NEW_i
        // neighbours carries x2 = 1.
        let g = generators::gnp_connected(45, 0.1, 17).unwrap();
        let s = construct(&g, 4).unwrap();
        let c = s.construction();
        for w in c.stages().windows(2) {
            let cur = &w[0];
            let next = &w[1];
            for &v in &next.dom {
                if cur.dom.binary_search(&v).is_ok() {
                    let count = cur
                        .new
                        .iter()
                        .filter(|&&u| g.has_edge(v, u) && s.labeling().get(u).x2())
                        .count();
                    assert_eq!(count, 1, "dominator {v} at stage {}", cur.index);
                }
            }
        }
    }

    #[test]
    fn path_labels_form_relay_chain() {
        // On a path with the source at one end every interior node is a
        // dominator (x1 = 1) and the structure is a simple relay chain.
        let g = generators::path(6);
        let s = construct(&g, 0).unwrap();
        for v in 0..5 {
            assert!(s.labeling().get(v).x1(), "node {v} should relay");
        }
        assert!(!s.labeling().get(5).x1(), "last node never transmits");
    }

    #[test]
    fn star_only_source_is_dominator() {
        let g = generators::star(8);
        let s = construct(&g, 0).unwrap();
        assert!(s.labeling().get(0).x1());
        for v in 1..8 {
            assert_eq!(s.labeling().get(v), Label::two_bits(false, false));
        }
    }

    #[test]
    fn reduction_order_changes_labels_but_not_validity() {
        let g = generators::gnp_connected(30, 0.15, 2).unwrap();
        let a = construct_with_order(&g, 0, ReductionOrder::Forward).unwrap();
        let b = construct_with_order(&g, 0, ReductionOrder::Reverse).unwrap();
        // Both must be 2-bit schemes even if the label vectors differ.
        assert_eq!(a.labeling().length(), 2);
        assert_eq!(b.labeling().length(), 2);
    }

    #[test]
    fn into_labeling_matches_labeling() {
        let g = generators::cycle(7);
        let s = construct(&g, 0).unwrap();
        let copy = s.labeling().clone();
        assert_eq!(s.into_labeling(), copy);
    }

    #[test]
    fn single_node_graph_gets_all_zero_label() {
        let g = Graph::empty(1);
        let s = construct(&g, 0).unwrap();
        // The lone source never needs to relay to anyone; DOM_1 = {s} though,
        // so x1 is set — but the label is still a valid 2-bit string.
        assert_eq!(s.labeling().length(), 2);
    }
}
