//! The unified topology registry: every workload family behind one seeded,
//! connectivity-checked entry point.
//!
//! A [`TopologyFamily`] names a graph family together with its shape
//! parameters (legs per caterpillar spine node, clique size, edge
//! probability, degree cap, …); [`TopologyFamily::generate`] turns
//! `(family, n, seed)` into a connected [`Graph`]. This is the single place
//! the experiment sweeps, the benches and the CLI draw their instances
//! from, so every layer of the system measures on exactly the same
//! topologies.
//!
//! Families with rigid shapes (grids, tori, hypercubes, star-of-cliques)
//! round the requested size to the nearest achievable one; always read the
//! size off the returned graph. Every result is verified connected before it
//! is returned — a disconnected instance is a bug in the underlying
//! generator and surfaces as [`GraphError::NotConnected`] instead of a
//! wrong measurement.

use super::{adversarial, basic, clustered, geometric, grid, random, structured, trees};
use crate::algorithms::is_connected;
use crate::error::GraphError;
use crate::graph::Graph;

/// A named, parameterized graph family: the unified topology registry's
/// unit of currency.
///
/// The variants cover the regimes the radio-broadcast literature evaluates
/// on: long diameters (paths, cycles), bounded degree (grids, tori,
/// degree-capped random graphs), dense collision-heavy shapes (cliques,
/// star-of-cliques, dense G(n, p)), geometric deployments (unit-disk), and
/// clustered deployments (planted-partition G(n, p)).
///
/// [`generate`](Self::generate) turns `(family, n, seed)` into a connected
/// [`Graph`]; it is the single place the experiment sweeps, the benches and
/// the CLI draw their instances from, so every layer of the system measures
/// on exactly the same topologies.
///
/// ```
/// use rn_graph::generators::TopologyFamily;
///
/// let fam = TopologyFamily::parse("star_of_cliques:8").unwrap();
/// let g = fam.generate(65, 1).unwrap();
/// assert_eq!(g.node_count(), 65); // hub + 8 cliques of 8
/// assert_eq!(g.degree(0), 8);     // the hub sees one gateway per clique
///
/// // Same (family, n, seed) -> identical graph, on every machine.
/// assert_eq!(g, fam.generate(65, 1).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyFamily {
    /// Path P_n: the diameter worst case (broadcast needs ~n rounds).
    Path,
    /// Cycle C_n.
    Cycle,
    /// Star K_{1,n-1}: diameter 2, maximal hub degree.
    Star,
    /// Complete graph K_n: every transmission collides everywhere.
    Complete,
    /// Near-square `rows × cols` grid with roughly `n` nodes.
    Grid,
    /// Near-square torus (grid with wrap-around): 4-regular, vertex-transitive.
    Torus,
    /// Hypercube Q_d of the largest dimension with at most `n` nodes.
    Hypercube,
    /// Balanced binary tree in heap numbering.
    BalancedTree,
    /// Uniformly random labelled tree (random Prüfer sequence).
    RandomTree,
    /// Caterpillar: a spine path with `legs` leaves per spine node.
    Caterpillar {
        /// Number of leaves attached to each spine node.
        legs: usize,
    },
    /// Lollipop: a clique on half the nodes with a path tail on the rest —
    /// a dense head that must drain through one vertex.
    Lollipop,
    /// Barbell: two cliques of ~n/3 nodes joined by a path bridge.
    Barbell,
    /// Star of cliques: a hub with disjoint K_`clique_size` cliques attached
    /// through single gateways; gateways are mutually colliding at the hub.
    StarOfCliques {
        /// Size of each attached clique.
        clique_size: usize,
    },
    /// Connected Erdős–Rényi G(n, p) with a fixed edge probability.
    Gnp {
        /// Edge probability in `[0, 1]`.
        p: f64,
    },
    /// Connected G(n, p) with `p = avg_degree / n`, so density is controlled
    /// independently of size.
    GnpAvgDegree {
        /// Target average degree.
        avg_degree: f64,
    },
    /// Connected planted-partition graph: `clusters` dense groups joined by
    /// sparse cross edges (see
    /// [`clustered_gnp`](crate::generators::clustered_gnp)).
    ClusteredGnp {
        /// Number of clusters.
        clusters: usize,
        /// Intra-cluster edge probability.
        p_in: f64,
        /// Inter-cluster edge probability.
        p_out: f64,
    },
    /// Connected unit-disk graph: uniform positions in the unit square with
    /// the radius chosen for this average degree — the classic wireless
    /// deployment model.
    UnitDisk {
        /// Target average degree.
        avg_degree: f64,
    },
    /// Connected random graph whose maximum degree never exceeds the cap
    /// (see [`degree_capped_random`](crate::generators::degree_capped_random)).
    DegreeCapped {
        /// Hard maximum degree Δ.
        max_degree: usize,
    },
    /// Random series-parallel graph with exactly `n` nodes (see
    /// [`series_parallel`](crate::generators::series_parallel)). Not a
    /// [`PRESETS`](Self::PRESETS) entry: the paper tables sweep it, the
    /// named sweeps do not.
    SeriesParallel,
}

impl TopologyFamily {
    /// Every family with its default parameters, in presentation order: the
    /// registry the sweeps, benches and property tests iterate over.
    pub const PRESETS: [TopologyFamily; 18] = [
        TopologyFamily::Path,
        TopologyFamily::Cycle,
        TopologyFamily::Star,
        TopologyFamily::Complete,
        TopologyFamily::Grid,
        TopologyFamily::Torus,
        TopologyFamily::Hypercube,
        TopologyFamily::BalancedTree,
        TopologyFamily::RandomTree,
        TopologyFamily::Caterpillar { legs: 2 },
        TopologyFamily::Lollipop,
        TopologyFamily::Barbell,
        TopologyFamily::StarOfCliques { clique_size: 8 },
        TopologyFamily::Gnp { p: 0.3 },
        TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
        TopologyFamily::ClusteredGnp {
            clusters: 6,
            p_in: 0.6,
            p_out: 0.01,
        },
        TopologyFamily::UnitDisk { avg_degree: 8.0 },
        TopologyFamily::DegreeCapped { max_degree: 4 },
    ];

    /// The family's registry name: stable, lowercase snake case, unique per
    /// variant. This is the key used in sweep reports and accepted by
    /// [`parse`](Self::parse).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyFamily::Path => "path",
            TopologyFamily::Cycle => "cycle",
            TopologyFamily::Star => "star",
            TopologyFamily::Complete => "complete",
            TopologyFamily::Grid => "grid",
            TopologyFamily::Torus => "torus",
            TopologyFamily::Hypercube => "hypercube",
            TopologyFamily::BalancedTree => "balanced_tree",
            TopologyFamily::RandomTree => "random_tree",
            TopologyFamily::Caterpillar { .. } => "caterpillar",
            TopologyFamily::Lollipop => "lollipop",
            TopologyFamily::Barbell => "barbell",
            TopologyFamily::StarOfCliques { .. } => "star_of_cliques",
            TopologyFamily::Gnp { .. } => "gnp",
            TopologyFamily::GnpAvgDegree { .. } => "gnp_avg_degree",
            TopologyFamily::ClusteredGnp { .. } => "clustered_gnp",
            TopologyFamily::UnitDisk { .. } => "unit_disk",
            TopologyFamily::DegreeCapped { .. } => "degree_capped",
            TopologyFamily::SeriesParallel => "series_parallel",
        }
    }

    /// The family's parameters rendered as a short `key=value` string, empty
    /// for parameterless families. Reports store this next to
    /// [`name`](Self::name) so a sweep is fully reproducible from its output.
    pub fn params(&self) -> String {
        match self {
            TopologyFamily::Caterpillar { legs } => format!("legs={legs}"),
            TopologyFamily::StarOfCliques { clique_size } => {
                format!("clique_size={clique_size}")
            }
            TopologyFamily::Gnp { p } => format!("p={p}"),
            TopologyFamily::GnpAvgDegree { avg_degree } => format!("avg_degree={avg_degree}"),
            TopologyFamily::ClusteredGnp {
                clusters,
                p_in,
                p_out,
            } => format!("clusters={clusters},p_in={p_in},p_out={p_out}"),
            TopologyFamily::UnitDisk { avg_degree } => format!("avg_degree={avg_degree}"),
            TopologyFamily::DegreeCapped { max_degree } => format!("max_degree={max_degree}"),
            _ => String::new(),
        }
    }

    /// Parses a family from its registry name, with an optional `:value`
    /// suffix overriding the main parameter of parameterized families:
    ///
    /// * `caterpillar:4` — 4 legs per spine node,
    /// * `star_of_cliques:6` — cliques of size 6,
    /// * `gnp:0.25` — edge probability 0.25,
    /// * `gnp_avg_degree:16`, `unit_disk:12` — target average degree,
    /// * `clustered_gnp:10` — 10 clusters (default densities),
    /// * `degree_capped:3` — maximum degree 3.
    ///
    /// A bare name yields the [`PRESETS`](Self::PRESETS) parameterization.
    pub fn parse(s: &str) -> Result<TopologyFamily, GraphError> {
        let (name, arg) = match s.split_once(':') {
            Some((name, arg)) => (name, Some(arg)),
            None => (s, None),
        };
        let preset = Self::PRESETS
            .iter()
            .copied()
            .find(|f| f.name() == name)
            .ok_or_else(|| GraphError::InvalidParameters {
                reason: format!(
                    "unknown topology family {name:?}; known families: {}",
                    Self::PRESETS.map(|f| f.name()).join(", ")
                ),
            })?;
        let Some(arg) = arg else {
            return Ok(preset);
        };
        let bad_arg = |what: &str| GraphError::InvalidParameters {
            reason: format!("family {name:?} expects {what} as its parameter, got {arg:?}"),
        };
        let parsed = match preset {
            TopologyFamily::Caterpillar { .. } => TopologyFamily::Caterpillar {
                legs: arg.parse().map_err(|_| bad_arg("a leg count"))?,
            },
            TopologyFamily::StarOfCliques { .. } => TopologyFamily::StarOfCliques {
                clique_size: arg.parse().map_err(|_| bad_arg("a clique size"))?,
            },
            TopologyFamily::Gnp { .. } => TopologyFamily::Gnp {
                p: arg.parse().map_err(|_| bad_arg("an edge probability"))?,
            },
            TopologyFamily::GnpAvgDegree { .. } => TopologyFamily::GnpAvgDegree {
                avg_degree: arg.parse().map_err(|_| bad_arg("an average degree"))?,
            },
            TopologyFamily::ClusteredGnp { p_in, p_out, .. } => TopologyFamily::ClusteredGnp {
                clusters: arg.parse().map_err(|_| bad_arg("a cluster count"))?,
                p_in,
                p_out,
            },
            TopologyFamily::UnitDisk { .. } => TopologyFamily::UnitDisk {
                avg_degree: arg.parse().map_err(|_| bad_arg("an average degree"))?,
            },
            TopologyFamily::DegreeCapped { .. } => TopologyFamily::DegreeCapped {
                max_degree: arg.parse().map_err(|_| bad_arg("a degree cap"))?,
            },
            _ => return Err(bad_arg("no parameter (the family is parameterless)")),
        };
        Ok(parsed)
    }

    /// Generates a connected instance with (close to) `n` nodes.
    ///
    /// Families with rigid shapes (grids, tori, hypercubes, star-of-cliques)
    /// round the requested size to the nearest achievable one; always read
    /// the size off the returned graph. Shape parameters that cannot fit in
    /// `n` nodes (a caterpillar with more legs than nodes, a clique larger
    /// than the graph) are clamped to the size budget — `n` always wins.
    /// Presets stay within `[n/2, 2n]` nodes except for the smallest
    /// requests, where a family's minimum shape (the 3×3 torus) may round
    /// up to 9. Every result is verified connected before it is returned —
    /// a disconnected instance is a bug in the underlying generator and
    /// surfaces as [`GraphError::NotConnected`] instead of a wrong
    /// measurement.
    ///
    /// Returns an error for degenerate sizes (`n < 4`) or invalid family
    /// parameters.
    pub fn generate(&self, n: usize, seed: u64) -> Result<Graph, GraphError> {
        if n < 4 {
            return Err(GraphError::InvalidParameters {
                reason: format!("topology families require n >= 4, got {n}"),
            });
        }
        let g = match *self {
            TopologyFamily::Path => basic::path(n),
            TopologyFamily::Cycle => basic::cycle(n),
            TopologyFamily::Star => basic::star(n),
            TopologyFamily::Complete => {
                check_csr_budget(n.checked_mul(n - 1))?;
                basic::complete(n)
            }
            TopologyFamily::Grid => {
                let (rows, cols) = near_square(n, 2);
                grid::grid(rows, cols)
            }
            TopologyFamily::Torus => {
                let (rows, cols) = near_square(n, 3);
                grid::torus(rows, cols)
            }
            TopologyFamily::Hypercube => {
                let dim = (usize::BITS - 1 - n.leading_zeros()).max(2) as usize;
                structured::hypercube(dim)
            }
            TopologyFamily::BalancedTree => trees::balanced_binary_tree(n),
            TopologyFamily::RandomTree => trees::random_tree(n, seed),
            TopologyFamily::Caterpillar { legs } => {
                // Clamp to the size budget: at most n - 1 legs per spine
                // node (which also keeps `legs + 1` from overflowing).
                let legs = legs.min(n - 1);
                let spine = n.div_ceil(legs + 1).max(1);
                trees::caterpillar(spine, legs)
            }
            TopologyFamily::Lollipop => {
                let k = (n / 2).max(2);
                let tail = n - k;
                check_csr_budget(k.checked_mul(k - 1).and_then(|c| c.checked_add(2 * tail)))?;
                basic::lollipop(k, tail)
            }
            TopologyFamily::Barbell => {
                let k = (n / 3).max(2);
                let bridge = n.saturating_sub(2 * k);
                check_csr_budget(
                    k.checked_mul(k - 1)
                        .and_then(|c| c.checked_mul(2))
                        .and_then(|c| c.checked_add(2 * (bridge + 1))),
                )?;
                basic::barbell(k, bridge)
            }
            TopologyFamily::StarOfCliques { clique_size } => {
                if clique_size == 0 {
                    return Err(GraphError::InvalidParameters {
                        reason: "star_of_cliques requires clique_size >= 1".into(),
                    });
                }
                // Clamp to the size budget (hub + one clique must fit in
                // roughly n nodes), which also rules out overflow.
                let clique_size = clique_size.min(n - 1);
                let cliques = ((n - 1) / clique_size).max(1);
                check_csr_budget(
                    clique_size
                        .checked_mul(clique_size - 1)
                        .and_then(|c| c.checked_mul(cliques))
                        .and_then(|c| c.checked_add(2 * cliques)),
                )?;
                adversarial::star_of_cliques(cliques, clique_size)?
            }
            TopologyFamily::Gnp { p } => random::gnp_connected(n, p, seed)?,
            TopologyFamily::GnpAvgDegree { avg_degree } => {
                if avg_degree.is_nan() || avg_degree < 0.0 {
                    return Err(GraphError::InvalidParameters {
                        reason: format!(
                            "gnp_avg_degree requires avg_degree >= 0, got {avg_degree}"
                        ),
                    });
                }
                let p = (avg_degree / n as f64).min(1.0);
                random::gnp_connected(n, p, seed)?
            }
            TopologyFamily::ClusteredGnp {
                clusters,
                p_in,
                p_out,
            } => clustered::clustered_gnp(n, clusters.min(n), p_in, p_out, seed)?,
            TopologyFamily::UnitDisk { avg_degree } => {
                geometric::unit_disk_with_degree(n, avg_degree, seed)?
            }
            TopologyFamily::DegreeCapped { max_degree } => {
                clustered::degree_capped_random(n, max_degree, seed)?
            }
            TopologyFamily::SeriesParallel => structured::series_parallel(n, seed)?,
        };
        if !is_connected(&g) {
            return Err(GraphError::NotConnected);
        }
        Ok(g)
    }
}

/// Rejects a closed-form family instance whose CSR adjacency (2·edges,
/// `None` = the product overflowed `usize`) would exceed the `u32` offsets,
/// *before* any quadratic allocation happens. The incremental random
/// generators hit the same limit later through `GraphBuilder::try_build`;
/// either way an oversized sweep job records a [`GraphError::TooLarge`]
/// instead of aborting the process.
fn check_csr_budget(total_degree: Option<usize>) -> Result<(), GraphError> {
    let total = total_degree.unwrap_or(usize::MAX);
    if u32::try_from(total).is_err() {
        return Err(GraphError::TooLarge {
            total_degree: total,
        });
    }
    Ok(())
}

/// Near-square `(rows, cols)` factorization with `rows, cols >= min_side`
/// and `rows * cols` close to `n`.
fn near_square(n: usize, min_side: usize) -> (usize, usize) {
    let rows = ((n as f64).sqrt().round() as usize).max(min_side);
    let cols = n.div_ceil(rows).max(min_side);
    (rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The presets plus the one family kept out of them.
    fn registry() -> impl Iterator<Item = TopologyFamily> {
        TopologyFamily::PRESETS
            .into_iter()
            .chain([TopologyFamily::SeriesParallel])
    }

    #[test]
    fn presets_generate_connected_graphs_of_about_the_right_size() {
        for family in registry() {
            for n in [8, 17, 64] {
                for seed in [1, 7] {
                    let g = family.generate(n, seed).unwrap();
                    assert!(is_connected(&g), "{} n={n} seed={seed}", family.name());
                    assert!(
                        g.node_count() >= n / 2 && g.node_count() <= 2 * n,
                        "{} produced {} nodes for a request of {n}",
                        family.name(),
                        g.node_count()
                    );
                }
            }
        }
    }

    #[test]
    fn presets_are_deterministic_per_seed() {
        for family in registry() {
            let a = family.generate(40, 11).unwrap();
            let b = family.generate(40, 11).unwrap();
            assert_eq!(a, b, "{}", family.name());
        }
    }

    #[test]
    fn preset_names_are_unique_and_parse_back() {
        let mut names: Vec<&str> = registry().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TopologyFamily::PRESETS.len() + 1);
        for family in TopologyFamily::PRESETS {
            assert_eq!(TopologyFamily::parse(family.name()).unwrap(), family);
        }
    }

    #[test]
    fn parse_with_parameter_overrides() {
        assert_eq!(
            TopologyFamily::parse("caterpillar:4").unwrap(),
            TopologyFamily::Caterpillar { legs: 4 }
        );
        assert_eq!(
            TopologyFamily::parse("star_of_cliques:6").unwrap(),
            TopologyFamily::StarOfCliques { clique_size: 6 }
        );
        assert_eq!(
            TopologyFamily::parse("gnp:0.25").unwrap(),
            TopologyFamily::Gnp { p: 0.25 }
        );
        assert_eq!(
            TopologyFamily::parse("degree_capped:3").unwrap(),
            TopologyFamily::DegreeCapped { max_degree: 3 }
        );
        assert_eq!(
            TopologyFamily::parse("clustered_gnp:10").unwrap(),
            TopologyFamily::ClusteredGnp {
                clusters: 10,
                p_in: 0.6,
                p_out: 0.01
            }
        );
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(TopologyFamily::parse("moebius").is_err());
        assert!(TopologyFamily::parse("path:7").is_err());
        assert!(TopologyFamily::parse("gnp:not_a_number").is_err());
    }

    #[test]
    fn generate_rejects_tiny_sizes_and_bad_parameters() {
        assert!(TopologyFamily::Path.generate(3, 0).is_err());
        assert!(TopologyFamily::Gnp { p: 2.0 }.generate(10, 0).is_err());
        assert!(TopologyFamily::StarOfCliques { clique_size: 0 }
            .generate(10, 0)
            .is_err());
        assert!(TopologyFamily::DegreeCapped { max_degree: 1 }
            .generate(10, 0)
            .is_err());
        assert!(TopologyFamily::GnpAvgDegree { avg_degree: -1.0 }
            .generate(10, 0)
            .is_err());
    }

    #[test]
    fn oversized_dense_families_error_instead_of_aborting() {
        // A complete graph on a million nodes needs ~10^12 CSR entries —
        // far over the u32 offset limit. The registry must report that as a
        // recorded error (without attempting the multi-terabyte allocation),
        // which is what lets million-node sweep jobs fail gracefully.
        for family in [
            TopologyFamily::Complete,
            TopologyFamily::Lollipop,
            TopologyFamily::Barbell,
            TopologyFamily::StarOfCliques {
                clique_size: 1_000_000,
            },
        ] {
            let err = family.generate(1_000_000, 1).unwrap_err();
            assert!(
                matches!(err, GraphError::TooLarge { .. }),
                "{}: {err}",
                family.name()
            );
        }
        // The same families still generate fine at normal sizes.
        assert!(TopologyFamily::Complete.generate(64, 1).is_ok());
    }

    #[test]
    fn degree_caps_flow_through_the_registry() {
        for cap in [2usize, 3, 5] {
            let g = TopologyFamily::DegreeCapped { max_degree: cap }
                .generate(60, 2)
                .unwrap();
            assert!(g.max_degree() <= cap);
        }
    }

    #[test]
    fn torus_preset_is_four_regular() {
        let g = TopologyFamily::Torus.generate(36, 0).unwrap();
        assert!(g.degrees().all(|d| d == 4));
    }

    #[test]
    fn params_strings_round_trip_the_interesting_families() {
        assert_eq!(TopologyFamily::Path.params(), "");
        assert_eq!(
            TopologyFamily::StarOfCliques { clique_size: 8 }.params(),
            "clique_size=8"
        );
        assert!(
            TopologyFamily::PRESETS
                .iter()
                .filter(|f| !f.params().is_empty())
                .count()
                >= 6
        );
    }
}
