//! The Bernoulli pair loop shared by the G(n, p)-style generators.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId, UpperRows};
use rand::Rng;
use rand::SeedableRng;
use std::ops::Range;

/// Samples a graph on `n` nodes pair by pair: for each node `i` in order,
/// `ranges(i)` lists contiguous ranges of higher nodes `j`, each with its
/// edge probability, and every `j` in them, in that order, costs one
/// `gen_bool` draw from one `StdRng` seeded with `seed`.
///
/// The draws therefore come in the order of the plain double loop over
/// pairs `i < j`. Each candidate `j` is written into a scratch row and the
/// row's cursor advances by the coin, so a draw costs no branch; the rows
/// are packed straight into CSR form.
pub(super) fn sample_pairs<const K: usize>(
    n: usize,
    seed: u64,
    mut ranges: impl FnMut(NodeId) -> [(Range<NodeId>, f64); K],
) -> Result<Graph, GraphError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut scratch = vec![0; n];
    let mut rows = UpperRows::default();
    for i in 0..n {
        let mut len = 0;
        for (js, p) in ranges(i) {
            for j in js {
                scratch[len] = j;
                len += usize::from(rng.gen_bool(p));
            }
        }
        rows.push_row(&scratch[..len]);
    }
    rows.pack()
}
