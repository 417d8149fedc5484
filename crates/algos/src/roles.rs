//! Role inference — the auto-segmentation algorithms of §2.1.
//!
//! The paper's own method (Figure 1): score each node pair by the Jaccard
//! overlap of their neighbor sets, then run (hierarchical) Louvain on the
//! *scored clique* — the complete graph whose edge weights are similarity
//! scores. Nodes clustered together play the same role and can share a
//! µsegment. The clique is built sparse and exact by [`jaccard_clique`] —
//! no n² matrix — and rebuilt from the window's token sets every window; what
//! [`infer_roles_incremental_obs`] carries between windows is the partition
//! ([`RoleMemo`]), which seeds the next window's Louvain.
//!
//! The Figure 3 alternatives are provided for comparison: SimRank and
//! SimRank++ similarity cliques, and connection-/byte-weighted modularity
//! directly on the communication graph. The latter group nodes that *talk*
//! to each other — which is exactly wrong for roles, since two front-end
//! replicas may never exchange a byte.

use crate::jaccard::{jaccard_clique, MinHasher};
use crate::louvain::{
    hierarchical_louvain, hierarchical_louvain_seeded, louvain, HierarchicalConfig, LouvainResult,
};
use crate::simrank::{simrank_pp_with, simrank_with, SimRankConfig};
use crate::wgraph::WeightedGraph;
use commgraph_graph::{Adjacent, CommGraph, NodeId};
use linalg::par::Parallelism;
use obs::Obs;
use serde::Serialize;

/// Which segmentation algorithm to run.
#[derive(Debug, Clone)]
pub enum SegmentationMethod {
    /// The paper's method: exact Jaccard on neighbor sets + Louvain on the
    /// scored clique. `min_score` drops weak similarity edges (sparsifies
    /// the clique; 0.1 is a reasonable default).
    JaccardLouvain {
        /// Similarity floor below which clique edges are dropped.
        min_score: f64,
    },
    /// MinHash-sketched Jaccard + Louvain — the sub-quadratic-constant
    /// variant addressing the paper's complexity concern.
    MinHashLouvain {
        /// Number of hash permutations (more = tighter estimates).
        hashes: usize,
        /// Similarity floor below which clique edges are dropped.
        min_score: f64,
        /// Sketch seed.
        seed: u64,
    },
    /// SimRank similarity + Louvain on the scored clique (Figure 3a).
    SimRank {
        /// Iteration parameters.
        config: SimRankConfig,
        /// Similarity floor below which clique edges are dropped.
        min_score: f64,
    },
    /// SimRank++ similarity + Louvain on the scored clique (Figure 3b).
    SimRankPP {
        /// Iteration parameters.
        config: SimRankConfig,
        /// Similarity floor below which clique edges are dropped.
        min_score: f64,
    },
    /// Louvain directly on the graph, edges weighted by connection count
    /// (Figure 3c).
    ModularityConns,
    /// Louvain directly on the graph, edges weighted by bytes (Figure 3d).
    ModularityBytes,
    /// RolX-style feature clustering (the paper's \[51\] framing): structural
    /// node features + k-means, with automatic k selection when `k` is
    /// `None`.
    FeatureKMeans {
        /// Fixed cluster count, or `None` for Calinski–Harabasz selection
        /// up to `k_max`.
        k: Option<usize>,
        /// Upper bound for automatic selection.
        k_max: usize,
        /// Seeding for the k-means++ initialization.
        seed: u64,
    },
}

impl SegmentationMethod {
    /// Short identifier used in experiment output.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            SegmentationMethod::JaccardLouvain { .. } => "jaccard+louvain",
            SegmentationMethod::MinHashLouvain { .. } => "minhash+louvain",
            SegmentationMethod::SimRank { .. } => "simrank",
            SegmentationMethod::SimRankPP { .. } => "simrank++",
            SegmentationMethod::ModularityConns => "modularity-conns",
            SegmentationMethod::ModularityBytes => "modularity-bytes",
            SegmentationMethod::FeatureKMeans { .. } => "feature-kmeans",
        }
    }

    /// The paper's default configuration of its own method.
    pub fn paper_default() -> Self {
        SegmentationMethod::JaccardLouvain { min_score: 0.1 }
    }
}

/// The outcome of role inference on one graph.
#[derive(Debug, Clone, Serialize)]
pub struct RoleInference {
    /// Role label per graph node index (dense `0..n_roles`).
    pub labels: Vec<usize>,
    /// Number of inferred roles.
    pub n_roles: usize,
    /// Method identifier.
    pub method: String,
    /// Modularity achieved by the clustering stage (on whichever graph it
    /// clustered: the scored clique or the raw communication graph).
    pub clustering_modularity: f64,
}

/// Direction-qualified neighbor token sets: each neighbor contributes a
/// token encoding *who* it is and *how the conversation leans* (mostly
/// outbound bytes, mostly inbound, or balanced, from this node's view).
///
/// This is the "nature of the conversation" signal §2.1 says role inference
/// should use: it separates e.g. front-ends (which *pull* from a mid-tier)
/// from databases (which *serve* that same mid-tier) even though their bare
/// neighbor sets are identical.
pub fn directional_neighbor_sets(g: &CommGraph) -> Vec<Vec<u32>> {
    let n = g.node_count();
    let mut sets = Vec::with_capacity(n);
    for u in 0..n as u32 {
        let mut tokens: Vec<u32> = g
            .neighbors(u)
            .iter()
            .filter(|e| e.node != u)
            .map(|&Adjacent { node: v, stats, .. }| {
                // stats are oriented outward from u.
                let total = stats.bytes();
                let class = if total == 0 {
                    0
                } else {
                    let out_frac = stats.bytes_fwd as f64 / total as f64;
                    if out_frac > 0.7 {
                        1 // mostly outbound
                    } else if out_frac < 0.3 {
                        2 // mostly inbound
                    } else {
                        0 // balanced
                    }
                };
                v * 3 + class
            })
            .collect();
        tokens.sort_unstable();
        tokens.dedup();
        sets.push(tokens);
    }
    sets
}

/// Infer roles for every node of `g` with the chosen method, at the default
/// [`Parallelism`].
pub fn infer_roles(g: &CommGraph, method: &SegmentationMethod) -> RoleInference {
    infer_roles_with(g, method, Parallelism::default())
}

/// Infer roles with an explicit worker count for the similarity kernels.
///
/// The MinHash/SimRank scoring stages run row-partitioned under
/// `parallelism`; the exact Jaccard clique and the clustering stage
/// (Louvain, k-means) are single-threaded by design (see
/// [`crate::jaccard::jaccard_clique`], [`crate::louvain`]). Scores — and
/// therefore the inferred roles — are bit-for-bit identical at any worker
/// count.
pub fn infer_roles_with(
    g: &CommGraph,
    method: &SegmentationMethod,
    parallelism: Parallelism,
) -> RoleInference {
    infer_roles_obs(g, method, parallelism, &Obs::noop())
}

/// [`infer_roles_with`], with the similarity-scoring and clustering stages
/// timed into `o`'s `commgraph_stage_seconds{stage="similarity"|"cluster"}`
/// histograms. A noop handle makes this identical to [`infer_roles_with`] —
/// instrumentation never changes what is computed.
pub fn infer_roles_obs(
    g: &CommGraph,
    method: &SegmentationMethod,
    parallelism: Parallelism,
    o: &Obs,
) -> RoleInference {
    // Unweighted structure view, shared by the SimRank methods.
    let structure = WeightedGraph::from_comm_graph(g, |_| 1.0);
    // Similarity cliques are clustered hierarchically (Figure 1's
    // "hierarchical louvain"): top-level Louvain finds role *kinds*, the
    // recursion separates same-kind roles that only share hub neighbors.
    let hier = HierarchicalConfig::default();
    let method_name = method.name();
    let cluster_span = || {
        let mut span = o.stage_span("cluster");
        if span.trace_enabled() {
            span.trace_attr("method", method_name);
        }
        span
    };
    let cluster_scored = |scores, min_score: f64| {
        let _span = cluster_span();
        hierarchical_louvain(&WeightedGraph::from_similarity(&scores, min_score), hier)
    };
    let result: LouvainResult = match method {
        SegmentationMethod::JaccardLouvain { min_score } => {
            let clique = {
                let _span = o.stage_span("similarity");
                jaccard_clique(&directional_neighbor_sets(g), *min_score)
            };
            let _span = cluster_span();
            hierarchical_louvain(&clique, hier)
        }
        SegmentationMethod::MinHashLouvain { hashes, min_score, seed } => {
            let scores = {
                let _span = o.stage_span("similarity");
                let mh = MinHasher::new(*hashes, *seed);
                mh.similarity_matrix_of_sets_with(&directional_neighbor_sets(g), parallelism)
            };
            cluster_scored(scores, *min_score)
        }
        SegmentationMethod::SimRank { config, min_score } => {
            let scores = {
                let _span = o.stage_span("similarity");
                simrank_with(&structure, *config, parallelism)
            };
            cluster_scored(scores, *min_score)
        }
        SegmentationMethod::SimRankPP { config, min_score } => {
            let scores = {
                let _span = o.stage_span("similarity");
                let weighted = WeightedGraph::from_comm_graph(g, |e| e.bytes() as f64);
                simrank_pp_with(&weighted, *config, parallelism)
            };
            cluster_scored(scores, *min_score)
        }
        SegmentationMethod::ModularityConns => {
            let _span = cluster_span();
            louvain(&WeightedGraph::from_comm_graph(g, |e| e.conns as f64))
        }
        SegmentationMethod::ModularityBytes => {
            let _span = cluster_span();
            louvain(&WeightedGraph::from_comm_graph(g, |e| e.bytes() as f64))
        }
        SegmentationMethod::FeatureKMeans { k, k_max, seed } => {
            // Feature extraction plays the similarity-scoring part here.
            let feats = {
                let _span = o.stage_span("similarity");
                crate::features::node_features(g)
            };
            let _span = cluster_span();
            let km = match k {
                Some(k) => crate::kmeans::kmeans(&feats, *k, *seed, 200),
                None => crate::kmeans::kmeans_auto(&feats, *k_max, *seed),
            };
            // k-means has no modularity; report the partition's modularity
            // on the unweighted structure for comparability.
            let q = crate::louvain::modularity(&structure, &km.labels, 1.0);
            LouvainResult { labels: km.labels, modularity: q, levels: 1 }
        }
    };
    let n_roles = result.labels.iter().copied().max().map_or(0, |m| m + 1);
    RoleInference {
        labels: result.labels,
        n_roles,
        method: method.name().to_string(),
        clustering_modularity: result.modularity,
    }
}

/// Carry-over state for incremental role inference across consecutive
/// windows: the previous window's inferred labels and node order. Produced
/// and consumed by [`infer_roles_incremental_obs`].
// bound: two vectors, one entry per node of the previous window.
#[derive(Debug, Clone)]
pub struct RoleMemo {
    /// Inferred role label per previous-window node.
    pub(crate) labels: Vec<usize>,
    /// The previous window's nodes, sorted (graph node order).
    pub(crate) nodes: Vec<NodeId>,
}

/// Incremental variant of the paper's Jaccard+Louvain role inference: the
/// hierarchical Louvain base run is seeded from the previous window's
/// partition (`hierarchical_louvain_seeded`). The scored clique is rebuilt
/// from `g`'s token sets ([`jaccard_clique`]) — a full sparse build costs
/// less than patching a dense matrix did — so the similarity stage reads
/// neither `dirty` nor `parallelism`; both stay in the signature for the
/// callers that pass them.
///
/// With `memo == None` (first window) the computation is a plain full run.
/// Returns the inference plus the memo for the next window.
///
/// On a converged steady-state window the seeded clustering lands on the
/// same partition as a fresh run, and identical partitions compact to
/// identical label vectors — so labels and modularity match the
/// full-rebuild oracle bit-for-bit (asserted by the pipeline equivalence
/// tests at every window).
pub fn infer_roles_incremental_obs(
    g: &CommGraph,
    _dirty: &[NodeId],
    memo: Option<&RoleMemo>,
    min_score: f64,
    _parallelism: Parallelism,
    o: &Obs,
) -> (RoleInference, RoleMemo) {
    let clique = {
        let _span = o.stage_span("similarity");
        jaccard_clique(&directional_neighbor_sets(g), min_score)
    };
    let result = {
        let mut span = o.stage_span("cluster");
        if span.trace_enabled() {
            span.trace_attr("method", "jaccard+louvain/incremental");
        }
        let hier = HierarchicalConfig::default();
        match memo {
            Some(memo) => {
                // Seed each persisting node with its previous role; fresh
                // nodes get fresh singleton labels.
                let mut next = memo.labels.iter().copied().max().map_or(0, |m| m + 1);
                let seed: Vec<usize> = g
                    .nodes()
                    .iter()
                    .map(|id| match memo.nodes.binary_search(id) {
                        Ok(pi) => memo.labels[pi],
                        Err(_) => {
                            let l = next;
                            next += 1;
                            l
                        }
                    })
                    .collect();
                hierarchical_louvain_seeded(&clique, hier, &seed)
            }
            None => hierarchical_louvain(&clique, hier),
        }
    };
    let n_roles = result.labels.iter().copied().max().map_or(0, |m| m + 1);
    debug_assert_eq!(result.labels.len(), g.node_count());
    let memo = RoleMemo { labels: result.labels.clone(), nodes: g.nodes().to_vec() };
    let inference = RoleInference {
        labels: result.labels,
        n_roles,
        method: "jaccard+louvain".to_string(),
        clustering_modularity: result.modularity,
    };
    (inference, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;
    use commgraph_graph::{EdgeStats, NodeId};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// A synthetic three-tier deployment: 4 frontends, 3 backends, 2 DBs.
    /// Frontends all talk to all backends; backends to both DBs. Peers of
    /// the same tier never talk to each other.
    fn three_tier() -> (CommGraph, Vec<usize>) {
        let mut edges = HashMap::new();
        let node = |tier: u8, i: u8| NodeId::Ip(Ipv4Addr::new(10, 0, tier, i));
        let stats = |bytes: u64| EdgeStats {
            bytes_fwd: bytes,
            bytes_rev: bytes / 4,
            pkts_fwd: bytes / 1000,
            pkts_rev: bytes / 4000,
            conns: 10,
        };
        for f in 0..4u8 {
            for b in 0..3u8 {
                edges.insert((node(0, f), node(1, b)), stats(100_000));
            }
        }
        for b in 0..3u8 {
            for d in 0..2u8 {
                edges.insert((node(1, b), node(2, d)), stats(500_000));
            }
        }
        let g = CommGraph::from_edge_map("ip", 0, 3600, edges);
        // Ground truth by tier, in node order (nodes sort by IP → tier-major).
        let truth: Vec<usize> =
            g.nodes().iter().map(|n| n.ip().unwrap().octets()[2] as usize).collect();
        (g, truth)
    }

    #[test]
    fn jaccard_louvain_recovers_tiers() {
        let (g, truth) = three_tier();
        let r = infer_roles(&g, &SegmentationMethod::paper_default());
        let ari = adjusted_rand_index(&r.labels, &truth).unwrap();
        assert!(ari > 0.9, "paper's method should nail a clean 3-tier graph, ARI {ari}");
        assert_eq!(r.n_roles, 3);
    }

    #[test]
    fn minhash_variant_close_to_exact() {
        let (g, truth) = three_tier();
        let r = infer_roles(
            &g,
            &SegmentationMethod::MinHashLouvain { hashes: 256, min_score: 0.1, seed: 1 },
        );
        let ari = adjusted_rand_index(&r.labels, &truth).unwrap();
        assert!(ari > 0.8, "sketched variant should stay close, ARI {ari}");
    }

    #[test]
    fn modularity_methods_group_talkers_not_peers() {
        let (g, truth) = three_tier();
        let m = infer_roles(&g, &SegmentationMethod::ModularityBytes);
        let j = infer_roles(&g, &SegmentationMethod::paper_default());
        let ari_m = adjusted_rand_index(&m.labels, &truth).unwrap();
        let ari_j = adjusted_rand_index(&j.labels, &truth).unwrap();
        assert!(
            ari_j > ari_m,
            "the paper's point: modularity ({ari_m}) loses to jaccard ({ari_j}) on roles"
        );
    }

    #[test]
    fn simrank_methods_run_and_label_everything() {
        let (g, _) = three_tier();
        for method in [
            SegmentationMethod::SimRank { config: SimRankConfig::default(), min_score: 0.05 },
            SegmentationMethod::SimRankPP { config: SimRankConfig::default(), min_score: 0.05 },
        ] {
            let r = infer_roles(&g, &method);
            assert_eq!(r.labels.len(), g.node_count());
            assert!(r.n_roles >= 1);
        }
    }

    #[test]
    fn feature_kmeans_runs_and_separates_tiers() {
        let (g, truth) = three_tier();
        let r =
            infer_roles(&g, &SegmentationMethod::FeatureKMeans { k: Some(3), k_max: 8, seed: 7 });
        assert_eq!(r.labels.len(), g.node_count());
        let ari = adjusted_rand_index(&r.labels, &truth).unwrap();
        assert!(ari > 0.5, "feature clustering should track clean tiers, ARI {ari}");

        let auto =
            infer_roles(&g, &SegmentationMethod::FeatureKMeans { k: None, k_max: 6, seed: 7 });
        assert!(auto.n_roles >= 2, "auto-k must find structure");
    }

    #[test]
    fn methods_have_distinct_names() {
        let names: std::collections::HashSet<&str> = [
            SegmentationMethod::paper_default().name(),
            SegmentationMethod::ModularityConns.name(),
            SegmentationMethod::ModularityBytes.name(),
            SegmentationMethod::SimRank { config: SimRankConfig::default(), min_score: 0.1 }.name(),
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn empty_graph_yields_empty_inference() {
        let g = CommGraph::from_edge_map("ip", 0, 60, HashMap::new());
        let r = infer_roles(&g, &SegmentationMethod::paper_default());
        assert!(r.labels.is_empty());
        assert_eq!(r.n_roles, 0);
    }

    /// The churned second window of [`three_tier`]: one frontend↔backend
    /// conversation changes volume, one frontend is added, one DB removed.
    fn three_tier_churned() -> CommGraph {
        let mut edges = HashMap::new();
        let node = |tier: u8, i: u8| NodeId::Ip(Ipv4Addr::new(10, 0, tier, i));
        let stats = |bytes: u64| EdgeStats {
            bytes_fwd: bytes,
            bytes_rev: bytes / 4,
            pkts_fwd: bytes / 1000,
            pkts_rev: bytes / 4000,
            conns: 10,
        };
        for f in 0..5u8 {
            for b in 0..3u8 {
                let bytes = if f == 0 && b == 0 { 250_000 } else { 100_000 };
                edges.insert((node(0, f), node(1, b)), stats(bytes));
            }
        }
        for b in 0..3u8 {
            edges.insert((node(1, b), node(2, 0)), stats(500_000));
        }
        CommGraph::from_edge_map("ip", 3600, 7200, edges)
    }

    #[test]
    fn incremental_inference_matches_full_rebuild_oracle() {
        let (g1, _) = three_tier();
        let g2 = three_tier_churned();
        let dirty = commgraph_graph::diff::dirty_nodes(&g1, &g2);
        assert!(!dirty.is_empty() && dirty.len() < g2.node_count() + 1);
        let method = SegmentationMethod::paper_default();
        for workers in [1, 2, 8] {
            let p = Parallelism::new(workers);
            let o = Obs::noop();
            // First window: no memo — plain full run.
            let (r1, memo) = infer_roles_incremental_obs(&g1, &[], None, 0.1, p, &o);
            let full1 = infer_roles_with(&g1, &method, p);
            assert_eq!(r1.labels, full1.labels, "first window, {workers} workers");
            assert_eq!(r1.clustering_modularity, full1.clustering_modularity);
            // Second window: seeded clustering must reproduce the full
            // rebuild bit-for-bit.
            let (r2, _) = infer_roles_incremental_obs(&g2, &dirty, Some(&memo), 0.1, p, &o);
            let full2 = infer_roles_with(&g2, &method, p);
            assert_eq!(r2.labels, full2.labels, "second window, {workers} workers");
            assert_eq!(r2.n_roles, full2.n_roles);
            assert_eq!(r2.clustering_modularity, full2.clustering_modularity);
        }
    }

    #[test]
    fn incremental_inference_is_stable_under_no_churn() {
        let (g, _) = three_tier();
        let p = Parallelism::new(2);
        let o = Obs::noop();
        let (r1, memo) = infer_roles_incremental_obs(&g, &[], None, 0.1, p, &o);
        // Same graph again, seeded with its own partition: labels fixed.
        let (r2, _) = infer_roles_incremental_obs(&g, &[], Some(&memo), 0.1, p, &o);
        assert_eq!(r1.labels, r2.labels);
        assert_eq!(r1.clustering_modularity, r2.clustering_modularity);
    }
}
