//! Property tests for the topology registry's generator invariants.
//!
//! Three contracts every [`TopologyFamily`] preset must honour, hunted with
//! randomised (but seeded, hence reproducible) inputs:
//!
//! 1. **Seeded determinism** — the same `(family, n, seed)` always yields
//!    the same graph, because every report and bench cites exactly that
//!    triple as its provenance;
//! 2. **Connectivity** — the paper's model is connected radio networks, and
//!    the registry promises never to hand out anything else;
//! 3. **Degree bounds** — families that advertise a structural degree bound
//!    (paths, cycles, tori, degree-capped random graphs, caterpillars)
//!    actually keep it, for every size and seed.

use proptest::prelude::*;
use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::graph::{algorithms, Graph};

/// Strategy: a preset family index, a size, and a seed.
fn family_point() -> impl Strategy<Value = (usize, usize, u64)> {
    (
        0usize..TopologyFamily::PRESETS.len(),
        4usize..=96,
        any::<u64>(),
    )
}

fn generate(idx: usize, n: usize, seed: u64) -> Graph {
    TopologyFamily::PRESETS[idx]
        .generate(n, seed)
        .expect("presets generate for every n >= 4")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_triple_same_graph((idx, n, seed) in family_point()) {
        let a = generate(idx, n, seed);
        let b = generate(idx, n, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn every_instance_is_connected((idx, n, seed) in family_point()) {
        let g = generate(idx, n, seed);
        prop_assert!(
            algorithms::is_connected(&g),
            "{} disconnected at n={n} seed={seed}",
            TopologyFamily::PRESETS[idx].name()
        );
    }

    #[test]
    fn sizes_stay_close_to_requested((idx, n, seed) in family_point()) {
        let g = generate(idx, n, seed);
        let actual = g.node_count();
        // [n/2, 2n], except that a family's minimum shape may round tiny
        // requests up to 9 nodes (the 3x3 torus is the largest minimum).
        prop_assert!(
            actual >= n / 2 && actual <= (2 * n).max(9),
            "{} produced {actual} nodes for a request of {n}",
            TopologyFamily::PRESETS[idx].name()
        );
    }

    #[test]
    fn degree_caps_hold_for_every_cap((cap, n, seed) in (2usize..=8, 4usize..=96, any::<u64>())) {
        let g = TopologyFamily::DegreeCapped { max_degree: cap }
            .generate(n, seed)
            .unwrap();
        prop_assert!(
            g.max_degree() <= cap,
            "cap {cap} violated: max degree {} at n={n} seed={seed}",
            g.max_degree()
        );
        prop_assert!(algorithms::is_connected(&g));
    }

    #[test]
    fn structural_degree_bounds((n, seed) in (4usize..=80, any::<u64>())) {
        // Families whose shape implies a degree bound must honour it.
        prop_assert!(TopologyFamily::Path.generate(n, seed).unwrap().max_degree() <= 2);
        let cycle = TopologyFamily::Cycle.generate(n, seed).unwrap();
        prop_assert!(cycle.degrees().all(|d| d == 2));
        let torus = TopologyFamily::Torus.generate(n, seed).unwrap();
        prop_assert!(torus.degrees().all(|d| d == 4));
        prop_assert!(TopologyFamily::Grid.generate(n, seed).unwrap().max_degree() <= 4);
        prop_assert!(TopologyFamily::BalancedTree.generate(n, seed).unwrap().max_degree() <= 3);
        for legs in 1..=3usize {
            let cat = TopologyFamily::Caterpillar { legs }.generate(n, seed).unwrap();
            prop_assert!(
                cat.max_degree() <= legs + 2,
                "caterpillar legs={legs}: max degree {}",
                cat.max_degree()
            );
        }
    }

    #[test]
    fn hypercubes_are_regular_powers_of_two((n, seed) in (4usize..=96, any::<u64>())) {
        let g = TopologyFamily::Hypercube.generate(n, seed).unwrap();
        let nodes = g.node_count();
        prop_assert!(nodes.is_power_of_two());
        let dim = nodes.trailing_zeros() as usize;
        prop_assert!(g.degrees().all(|d| d == dim));
    }

    #[test]
    fn seeds_actually_vary_random_families((n, seed) in (16usize..=64, any::<u64>())) {
        // Not a strict guarantee (two seeds can collide on tiny graphs), but
        // at n >= 16 the random families must not ignore their seed: across
        // four consecutive seeds at least two distinct graphs appear.
        for family in [
            TopologyFamily::RandomTree,
            TopologyFamily::GnpAvgDegree { avg_degree: 8.0 },
            TopologyFamily::UnitDisk { avg_degree: 8.0 },
            TopologyFamily::DegreeCapped { max_degree: 4 },
        ] {
            let graphs: Vec<Graph> = (0..4)
                .map(|i| family.generate(n, seed.wrapping_add(i)).unwrap())
                .collect();
            let all_equal = graphs.windows(2).all(|w| w[0] == w[1]);
            prop_assert!(
                !all_equal,
                "{} ignored its seed at n={n}, base seed {seed}",
                family.name()
            );
        }
    }

    #[test]
    fn parse_round_trips_every_preset(idx in 0usize..TopologyFamily::PRESETS.len()) {
        let family = TopologyFamily::PRESETS[idx];
        prop_assert_eq!(TopologyFamily::parse(family.name()).unwrap(), family);
    }
}

#[test]
fn deterministic_families_ignore_the_seed() {
    // The registry takes a seed for every family; the deterministic shapes
    // must produce identical graphs no matter what it is.
    for family in [
        TopologyFamily::Path,
        TopologyFamily::Cycle,
        TopologyFamily::Star,
        TopologyFamily::Complete,
        TopologyFamily::Grid,
        TopologyFamily::Torus,
        TopologyFamily::Hypercube,
        TopologyFamily::BalancedTree,
        TopologyFamily::Lollipop,
        TopologyFamily::Barbell,
        TopologyFamily::StarOfCliques { clique_size: 5 },
        TopologyFamily::Caterpillar { legs: 2 },
    ] {
        let a = family.generate(40, 1).unwrap();
        let b = family.generate(40, 999).unwrap();
        assert_eq!(a, b, "{} should not depend on the seed", family.name());
    }
}

#[test]
fn extreme_parameters_are_clamped_not_panicking() {
    // Shape parameters that cannot fit in n nodes are clamped to the size
    // budget (n wins), so even usize::MAX round-trips through parse and
    // generate without overflow.
    for input in [
        format!("caterpillar:{}", usize::MAX),
        format!("star_of_cliques:{}", usize::MAX),
        format!("degree_capped:{}", usize::MAX),
    ] {
        let family = TopologyFamily::parse(&input).unwrap();
        let g = family.generate(12, 1).unwrap();
        assert!(algorithms::is_connected(&g), "{input}");
        assert!(g.node_count() <= 24, "{input}: {} nodes", g.node_count());
    }
}

#[test]
fn smallest_request_rounds_up_only_to_the_minimum_shape() {
    // n = 4 is the smallest accepted request; the torus must round up to
    // its 3x3 minimum and everything else stays at <= 2n.
    for family in TopologyFamily::PRESETS {
        let g = family.generate(4, 1).unwrap();
        let bound = if family == TopologyFamily::Torus {
            9
        } else {
            8
        };
        assert!(
            g.node_count() <= bound,
            "{}: {} nodes for a request of 4",
            family.name(),
            g.node_count()
        );
    }
}
