//! Property-based tests for the graph algorithms.
#![allow(clippy::needless_range_loop)] // index pairs are clearest for symmetry checks

use algos::jaccard::{
    jaccard_matrix_of_sets, jaccard_matrix_of_sets_with, jaccard_of_sets, MinHasher,
};
use algos::louvain::{aggregate, hierarchical_louvain, louvain, modularity, HierarchicalConfig};
use algos::metrics::{adjusted_rand_index, normalized_mutual_information, purity};
use algos::simrank::{simrank_pp_with, simrank_with, SimRankConfig};
use algos::wgraph::WeightedGraph;
use algos::{Parallelism, SymMatrix};
use proptest::prelude::*;

/// Arbitrary undirected weighted graph with n ≤ 24 nodes.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..100.0);
        prop::collection::vec(edge, 0..60)
            .prop_map(move |edges| WeightedGraph::from_edges(n, &edges))
    })
}

fn arb_labels(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..4, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Jaccard is symmetric, bounded, and 1 on identical non-empty sets.
    #[test]
    fn jaccard_axioms(
        a in prop::collection::btree_set(0u32..50, 0..20),
        b in prop::collection::btree_set(0u32..50, 0..20),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        let s = jaccard_of_sets(&av, &bv);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, jaccard_of_sets(&bv, &av));
        if !av.is_empty() {
            prop_assert_eq!(jaccard_of_sets(&av, &av), 1.0);
        }
    }

    /// The similarity matrix is symmetric with a unit diagonal.
    #[test]
    fn jaccard_matrix_axioms(
        sets in prop::collection::vec(
            prop::collection::btree_set(0u32..40, 0..12)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..12,
        )
    ) {
        let m = jaccard_matrix_of_sets(&sets);
        for i in 0..sets.len() {
            prop_assert_eq!(m[(i, i)], 1.0);
            for j in 0..sets.len() {
                prop_assert_eq!(m[(i, j)], m[(j, i)]);
                prop_assert!((0.0..=1.0).contains(&m[(i, j)]));
            }
        }
    }

    /// Parallel Jaccard (exact and sketched) is bit-for-bit identical to the
    /// serial kernel at 1, 2, and NCPU workers.
    #[test]
    fn parallel_jaccard_matches_serial_bitwise(
        sets in prop::collection::vec(
            prop::collection::btree_set(0u32..40, 0..12)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..16,
        )
    ) {
        let serial = jaccard_matrix_of_sets_with(&sets, Parallelism::serial());
        let mh = MinHasher::new(32, 17);
        let mh_serial = mh.similarity_matrix_of_sets_with(&sets, Parallelism::serial());
        let ncpu = Parallelism::default().workers();
        for workers in [1, 2, ncpu] {
            let p = Parallelism::new(workers);
            prop_assert_eq!(&jaccard_matrix_of_sets_with(&sets, p), &serial);
            prop_assert_eq!(&mh.similarity_matrix_of_sets_with(&sets, p), &mh_serial);
        }
    }

    /// Parallel SimRank / SimRank++ are bit-for-bit identical to the serial
    /// kernels at 1, 2, and NCPU workers.
    #[test]
    fn parallel_simrank_matches_serial_bitwise(g in arb_graph()) {
        let cfg = SimRankConfig { decay: 0.8, iterations: 3 };
        let serial = simrank_with(&g, cfg, Parallelism::serial());
        let serial_pp = simrank_pp_with(&g, cfg, Parallelism::serial());
        let ncpu = Parallelism::default().workers();
        for workers in [1, 2, ncpu] {
            let p = Parallelism::new(workers);
            prop_assert_eq!(&simrank_with(&g, cfg, p), &serial);
            prop_assert_eq!(&simrank_pp_with(&g, cfg, p), &serial_pp);
        }
    }

    /// Writing either triangle of a SymMatrix leaves it exactly symmetric.
    #[test]
    fn symmatrix_set_preserves_symmetry(
        n in 1usize..20,
        writes in prop::collection::vec((0usize..20, 0usize..20, -100.0f64..100.0), 0..40),
    ) {
        let mut m = SymMatrix::zeros(n);
        for (i, j, v) in writes {
            let (i, j) = (i % n, j % n);
            m.set(i, j, v);
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    /// MinHash estimates stay within sketch error of exact Jaccard.
    #[test]
    fn minhash_tracks_exact(
        a in prop::collection::btree_set(0u32..60, 1..25),
        b in prop::collection::btree_set(0u32..60, 1..25),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        let exact = jaccard_of_sets(&av, &bv);
        let mh = MinHasher::new(512, 99);
        let est = mh.estimate(&mh.signature(&av), &mh.signature(&bv));
        // 512 hashes ⇒ σ ≈ 0.044; allow 4σ.
        prop_assert!((exact - est).abs() < 0.18, "exact {exact} vs est {est}");
    }

    /// Louvain output is a valid, compact labeling whose modularity is at
    /// least that of the trivial partitions.
    #[test]
    fn louvain_validity(g in arb_graph()) {
        let r = louvain(&g);
        prop_assert_eq!(r.labels.len(), g.node_count());
        if !r.labels.is_empty() {
            let max = *r.labels.iter().max().expect("non-empty");
            let distinct: std::collections::HashSet<_> = r.labels.iter().collect();
            prop_assert_eq!(distinct.len(), max + 1, "labels are compact");
        }
        let singletons: Vec<usize> = (0..g.node_count()).collect();
        let one = vec![0usize; g.node_count()];
        prop_assert!(r.modularity + 1e-9 >= modularity(&g, &singletons, 1.0));
        if g.node_count() > 0 {
            prop_assert!(r.modularity + 1e-9 >= modularity(&g, &one, 1.0));
        }
        // Modularity is always in [-1, 1].
        prop_assert!((-1.0..=1.0).contains(&r.modularity));
    }

    /// Hierarchical refinement never loses modularity-relevant validity and
    /// never coarsens below the flat partition.
    #[test]
    fn hierarchical_louvain_validity(g in arb_graph()) {
        let flat = louvain(&g);
        let hier = hierarchical_louvain(&g, HierarchicalConfig::default());
        prop_assert_eq!(hier.labels.len(), g.node_count());
        let n_flat = flat.labels.iter().copied().max().map_or(0, |m| m + 1);
        let n_hier = hier.labels.iter().copied().max().map_or(0, |m| m + 1);
        prop_assert!(n_hier >= n_flat, "refinement only splits");
    }

    /// Modularity is invariant under any relabeling bijection: renaming
    /// communities cannot change the score.
    #[test]
    fn modularity_label_permutation_invariant(
        (g, labels) in arb_graph().prop_flat_map(|g| {
            let n = g.node_count();
            (Just(g), prop::collection::vec(0usize..6, n))
        })
    ) {
        let q = modularity(&g, &labels, 1.0);
        // `l -> 5 - l` is a bijection on the 0..6 label alphabet.
        let flipped: Vec<usize> = labels.iter().map(|&l| 5 - l).collect();
        prop_assert!((q - modularity(&g, &flipped, 1.0)).abs() < 1e-9);
        // Cyclic shift is another bijection.
        let shifted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 6).collect();
        prop_assert!((q - modularity(&g, &shifted, 1.0)).abs() < 1e-9);
    }

    /// Aggregation conserves mass: the community graph's total edge weight
    /// equals the original's (intra-community weight becomes self-loops).
    #[test]
    fn aggregate_preserves_total_weight(
        (g, labels) in arb_graph().prop_flat_map(|g| {
            let n = g.node_count();
            (Just(g), prop::collection::vec(0usize..5, n))
        })
    ) {
        let agg = aggregate(&g, &labels);
        let scale = g.total_weight().max(1.0);
        prop_assert!(
            (agg.total_weight() - g.total_weight()).abs() <= 1e-9 * scale,
            "{} vs {}", agg.total_weight(), g.total_weight()
        );
    }

    /// Partition metrics: identical labelings score 1, scores are bounded,
    /// metrics are symmetric where they should be.
    #[test]
    fn metric_axioms(labels in arb_labels(12), other in arb_labels(12)) {
        prop_assert!((adjusted_rand_index(&labels, &labels).unwrap() - 1.0).abs() < 1e-9);
        prop_assert!(
            (normalized_mutual_information(&labels, &labels).unwrap() - 1.0).abs() < 1e-9
        );
        let ari = adjusted_rand_index(&labels, &other).unwrap();
        let ari_sym = adjusted_rand_index(&other, &labels).unwrap();
        prop_assert!((ari - ari_sym).abs() < 1e-9, "ARI is symmetric");
        prop_assert!(ari <= 1.0 + 1e-9);
        let nmi = normalized_mutual_information(&labels, &other).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&nmi));
        let p = purity(&labels, &other).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
    }

    /// Relabeling a partition never changes ARI/NMI against a reference.
    #[test]
    fn metrics_are_relabel_invariant(labels in arb_labels(10), reference in arb_labels(10)) {
        let relabeled: Vec<usize> = labels.iter().map(|&l| 7 - l).collect();
        let a1 = adjusted_rand_index(&labels, &reference).unwrap();
        let a2 = adjusted_rand_index(&relabeled, &reference).unwrap();
        prop_assert!((a1 - a2).abs() < 1e-9);
        let n1 = normalized_mutual_information(&labels, &reference).unwrap();
        let n2 = normalized_mutual_information(&relabeled, &reference).unwrap();
        prop_assert!((n1 - n2).abs() < 1e-9);
    }
}
