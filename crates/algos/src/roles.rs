//! Role inference — the auto-segmentation algorithms of §2.1.
//!
//! The paper's own method (Figure 1): score each node pair by the Jaccard
//! overlap of their neighbor sets, then run (hierarchical) Louvain on the
//! *scored clique* — the complete graph whose edge weights are similarity
//! scores. Nodes clustered together play the same role and can share a
//! µsegment. The clique is built sparse and exact by
//! [`crate::jaccard::jaccard_clique`] — no n² matrix. Across the windows of
//! a stream, [`infer_roles_incremental`] carries a [`RoleMemo`]: the
//! clique, whose edges between two clean nodes are reused and only pairs
//! with a dirty endpoint recounted, and the refinement sub-runs, each
//! answered again for a community whose members are all clean and
//! unchanged. Labels, modularity and clique stay bit-identical to a full
//! run.
//!
//! The Figure 3 alternatives are provided for comparison: SimRank and
//! SimRank++ similarity cliques, and connection-/byte-weighted modularity
//! directly on the communication graph. The latter group nodes that *talk*
//! to each other — which is exactly wrong for roles, since two front-end
//! replicas may never exchange a byte.

use crate::jaccard::{window_clique, Carry, TokenSets};
use crate::louvain::{
    hierarchical_louvain, hierarchical_louvain_reusing, louvain, HierarchicalConfig, LouvainResult,
    Prior, SubRuns, NO_NODE,
};
use crate::simrank::{simrank, simrank_pp, SimRankConfig};
use crate::wgraph::WeightedGraph;
use commgraph_graph::{Adjacent, CommGraph, NodeId};
use linalg::Parallelism;
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
    token_sets(g).to_vecs()
}

/// [`directional_neighbor_sets`], flat.
fn token_sets(g: &CommGraph) -> TokenSets {
    let mut sets = TokenSets::new();
    for u in 0..g.node_count() as u32 {
        sets.push(g.neighbors(u).iter().filter(|e| e.node != u).map(
            |&Adjacent { node: v, stats, .. }| {
                // stats are oriented outward from u.
                // 1: mostly outbound, 2: mostly inbound, 0: balanced — or
                // silent, where the fraction is 0/0 = NaN and both tests
                // fail. Branch-free: the classes mix unpredictably.
                let out_frac = stats.bytes_fwd as f64 / stats.bytes() as f64;
                v * 3 + u32::from(out_frac > 0.7) + 2 * u32::from(out_frac < 0.3)
            },
        ));
    }
    sets
}

/// Infer roles for every node of `g` with the chosen method.
///
/// Every stage runs on the caller's thread: the similarity kernels (the
/// exact Jaccard clique, SimRank), Louvain and k-means.
pub fn infer_roles(g: &CommGraph, method: &SegmentationMethod) -> RoleInference {
    infer_roles_obs(g, method, &Obs::noop())
}

/// [`infer_roles`]; the worker count is ignored. Kept only because the
/// pinned benchmark (`crates/bench/src/bin/benchmark/layers.rs`, frozen)
/// calls it; call [`infer_roles`] instead.
pub fn infer_roles_with(
    g: &CommGraph,
    method: &SegmentationMethod,
    _parallelism: Parallelism,
) -> RoleInference {
    infer_roles(g, method)
}

/// [`infer_roles`], with the similarity-scoring and clustering stages
/// timed into `o`'s `commgraph_stage_seconds{stage="similarity"|"cluster"}`
/// histograms. A noop handle makes this identical to [`infer_roles`] —
/// instrumentation never changes what is computed.
pub fn infer_roles_obs(g: &CommGraph, method: &SegmentationMethod, o: &Obs) -> RoleInference {
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
                window_clique(&token_sets(g), None, *min_score)
            };
            let _span = cluster_span();
            hierarchical_louvain(&clique, hier)
        }
        SegmentationMethod::SimRank { config, min_score } => {
            let scores = {
                let _span = o.stage_span("similarity");
                simrank(&structure, *config)
            };
            cluster_scored(scores, *min_score)
        }
        SegmentationMethod::SimRankPP { config, min_score } => {
            let scores = {
                let _span = o.stage_span("similarity");
                let weighted = WeightedGraph::from_comm_graph(g, |e| e.bytes() as f64);
                simrank_pp(&weighted, *config)
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
/// windows, produced and consumed by [`infer_roles_incremental`]: the
/// previous window's nodes, its scored clique, and its refinement sub-runs.
// bound: n ids for the previous window's n nodes; its scored clique (≤ that
// window's clique edges, stored once per endpoint); and ≤ `max_depth` · n
// recorded sub-run member ids plus as many sub-labels.
#[derive(Debug, Clone)]
pub struct RoleMemo {
    /// The previous window's nodes, sorted (graph node order).
    nodes: Vec<NodeId>,
    /// The previous window's scored clique and the floor it was built at.
    clique: WeightedGraph,
    min_score: f64,
    /// The previous window's refinement sub-runs.
    sub_runs: SubRuns,
}

/// Incremental variant of the paper's Jaccard+Louvain role inference, for
/// consecutive windows of one stream. `dirty` is the window's dirty set
/// relative to the window `memo` was made from
/// ([`commgraph_graph::diff::dirty_nodes`]: sorted, holding every arrival
/// and departure and every node whose incident edges changed).
///
/// It pays for what changed and computes what a full run computes:
/// - **Clique rows.** An edge between two clean nodes scores two token sets
///   that did not change, so it is carried from the previous clique; only
///   pairs with a dirty endpoint are recounted. The clique equals
///   [`crate::jaccard::jaccard_clique`]'s bit for bit.
/// - **Refinement sub-runs.** A community whose members are all clean and
///   exactly a community the previous window re-clustered induces a
///   bit-identical clique, so its recorded outcome is reused.
/// - The hierarchical Louvain base run is a plain run on the clique — a
///   run seeded from the previous partition could settle in another local
///   optimum than the full rebuild.
///
/// Labels and modularity therefore equal [`infer_roles`]'s for the paper's
/// method at `min_score`, on every window. With `memo == None` (first
/// window), or every node dirty, nothing carried is read and the cost is a
/// full run plus the memo write. The stages are timed into `o` as in
/// [`infer_roles_obs`]. Returns the inference plus the memo for the next
/// window.
///
/// In debug builds, panics when `dirty` misses a node that is in only one
/// of `g` and the memo's window — a stale or non-consecutive dirty set.
pub fn infer_roles_incremental(
    g: &CommGraph,
    dirty: &[NodeId],
    memo: Option<&RoleMemo>,
    min_score: f64,
    o: &Obs,
) -> (RoleInference, RoleMemo) {
    debug_assert!(
        memo.is_none_or(|m| covers_arrivals_and_departures(&m.nodes, g.nodes(), dirty)),
        "dirty set misses a node that arrived or departed since the memo's window"
    );
    // Index maps between the windows for the clean nodes; only a clique
    // built at the same floor can be carried, and with no clean node there
    // is nothing to carry.
    let memo = memo.filter(|m| m.min_score.to_bits() == min_score.to_bits());
    let (prior_of, current_of) = match memo {
        Some(m) => clean_index(&m.nodes, g.nodes(), dirty),
        None => (Vec::new(), Vec::new()),
    };
    let memo = memo.filter(|_| prior_of.iter().any(|&p| p != NO_NODE));
    let clique = {
        let _span = o.stage_span("similarity");
        let carry =
            memo.map(|m| Carry { clique: &m.clique, prior_of: &prior_of, current_of: &current_of });
        window_clique(&token_sets(g), carry, min_score)
    };
    let (result, sub_runs) = {
        let mut span = o.stage_span("cluster");
        if span.trace_enabled() {
            span.trace_attr("method", "jaccard+louvain/incremental");
        }
        let prior = memo.map(|m| Prior { runs: &m.sub_runs, index: &prior_of });
        hierarchical_louvain_reusing(&clique, HierarchicalConfig::default(), prior)
    };
    let n_roles = result.labels.iter().copied().max().map_or(0, |m| m + 1);
    let memo = RoleMemo { nodes: g.nodes().to_vec(), clique, min_score, sub_runs };
    let inference = RoleInference {
        labels: result.labels,
        n_roles,
        method: "jaccard+louvain".to_string(),
        clustering_modularity: result.modularity,
    };
    (inference, memo)
}

/// [`infer_roles_incremental`]; the worker count is ignored. Kept only
/// because the pinned benchmark (`crates/bench/src/bin/benchmark/layers.rs`,
/// frozen) calls it; call [`infer_roles_incremental`] instead.
pub fn infer_roles_incremental_obs(
    g: &CommGraph,
    dirty: &[NodeId],
    memo: Option<&RoleMemo>,
    min_score: f64,
    _parallelism: Parallelism,
    o: &Obs,
) -> (RoleInference, RoleMemo) {
    infer_roles_incremental(g, dirty, memo, min_score, o)
}

/// Whether `dirty` (sorted) holds every node that is in only one of the
/// sorted `prev` and `cur` — the part of the dirty-set contract that can be
/// checked without the previous graph.
fn covers_arrivals_and_departures(prev: &[NodeId], cur: &[NodeId], dirty: &[NodeId]) -> bool {
    let covered = |id: &NodeId, other: &[NodeId]| {
        other.binary_search(id).is_ok() || dirty.binary_search(id).is_ok()
    };
    dirty.is_sorted()
        && cur.iter().all(|id| covered(id, prev))
        && prev.iter().all(|id| covered(id, cur))
}

/// Dense index maps between two windows' sorted node lists for the nodes
/// present in both and not in `dirty` (sorted): per `cur` node its `prev`
/// index, and per `prev` node its `cur` index, [`NO_NODE`] elsewhere. One
/// merge over the three lists.
fn clean_index(prev: &[NodeId], cur: &[NodeId], dirty: &[NodeId]) -> (Vec<u32>, Vec<u32>) {
    let mut prior_of = vec![NO_NODE; cur.len()];
    let mut current_of = vec![NO_NODE; prev.len()];
    let (mut p, mut d) = (0, 0);
    for (i, id) in cur.iter().enumerate() {
        while p < prev.len() && prev[p] < *id {
            p += 1;
        }
        while d < dirty.len() && dirty[d] < *id {
            d += 1;
        }
        let is_dirty = dirty.get(d) == Some(id);
        if prev.get(p) == Some(id) && !is_dirty {
            prior_of[i] = p as u32;
            current_of[p] = i as u32;
        }
    }
    (prior_of, current_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard_clique;
    use crate::metrics::adjusted_rand_index;
    use commgraph_graph::diff::dirty_nodes;
    use commgraph_graph::{EdgeStats, NodeId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
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
        let o = Obs::noop();
        // First window: no memo — plain full run.
        let (r1, memo) = infer_roles_incremental(&g1, &[], None, 0.1, &o);
        let full1 = infer_roles(&g1, &method);
        assert_eq!(r1.labels, full1.labels, "first window");
        assert_eq!(r1.clustering_modularity, full1.clustering_modularity);
        // Second window: the carried clique and reused sub-runs must
        // reproduce the full rebuild bit-for-bit.
        let (r2, _) = infer_roles_incremental(&g2, &dirty, Some(&memo), 0.1, &o);
        let full2 = infer_roles(&g2, &method);
        assert_eq!(r2.labels, full2.labels, "second window");
        assert_eq!(r2.n_roles, full2.n_roles);
        assert_eq!(r2.clustering_modularity, full2.clustering_modularity);
    }

    #[test]
    fn incremental_inference_is_stable_under_no_churn() {
        let (g, _) = three_tier();
        let o = Obs::noop();
        let (r1, memo) = infer_roles_incremental(&g, &[], None, 0.1, &o);
        // Same graph again, every node clean: labels fixed.
        let (r2, _) = infer_roles_incremental(&g, &[], Some(&memo), 0.1, &o);
        assert_eq!(r1.labels, r2.labels);
        assert_eq!(r1.clustering_modularity, r2.clustering_modularity);
    }

    /// A stale dirty set — here empty, though the second window gained a
    /// frontend and lost a DB — trips the contract check in debug builds
    /// instead of reusing rows of nodes that changed.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dirty set misses a node")]
    fn stale_dirty_set_is_caught_in_debug_builds() {
        let (g1, _) = three_tier();
        let o = Obs::noop();
        let (_, memo) = infer_roles_incremental(&g1, g1.nodes(), None, 0.1, &o);
        infer_roles_incremental(&three_tier_churned(), &[], Some(&memo), 0.1, &o);
    }

    /// One conversation: endpoints `10.0.0.a`, `10.0.0.b` and the bytes
    /// each way.
    type Conv = (u8, u8, u16, u16);

    fn conv_graph(convs: &[Conv], start: u64) -> CommGraph {
        let node = |i: u8| NodeId::Ip(Ipv4Addr::new(10, 0, 0, i));
        let mut edges: BTreeMap<(NodeId, NodeId), EdgeStats> = BTreeMap::new();
        for &(a, b, fwd, rev) in convs {
            let (lo, hi, fwd, rev) = if a <= b { (a, b, fwd, rev) } else { (b, a, rev, fwd) };
            let (bytes_fwd, bytes_rev) = (u64::from(fwd), u64::from(rev));
            let stats = EdgeStats { bytes_fwd, bytes_rev, pkts_fwd: 1, pkts_rev: 1, conns: 1 };
            edges.insert((node(lo), node(hi)), stats);
        }
        CommGraph::from_edge_map("ip", start, 3600, edges)
    }

    fn graph_bits(g: &WeightedGraph) -> (Vec<Vec<(u32, u64)>>, u64) {
        let rows = (0..g.node_count() as u32)
            .map(|u| g.neighbors(u).iter().map(|&(v, w)| (v, w.to_bits())).collect())
            .collect();
        (rows, g.total_weight().to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The clique a warm window carries equals the fresh clique bit for
        /// bit, and the inference — warm, or reading nothing carried (every
        /// node passed dirty) — equals the full run's, for random window
        /// pairs: kept, dropped, direction-flipped and re-weighed
        /// conversations, plus arrivals on new addresses.
        #[test]
        fn carried_clique_and_reused_sub_runs_are_bit_identical(
            prev in prop::collection::vec((0u8..30, 0u8..30, 0u16..4, 0u16..4), 0..90),
            ops in prop::collection::vec(0u8..6, 90),
            added in prop::collection::vec((0u8..36, 0u8..36, 0u16..4, 0u16..4), 0..10),
            min_score in prop_oneof![Just(0.1), Just(0.5)],
        ) {
            let mut next: Vec<Conv> = Vec::new();
            for (&(a, b, fwd, rev), &op) in prev.iter().zip(&ops) {
                match op {
                    3 => {}                                // dropped
                    4 => next.push((a, b, rev, fwd)),      // direction flipped
                    5 => next.push((a, b, fwd + 1, rev)),  // re-weighed
                    _ => next.push((a, b, fwd, rev)),      // kept
                }
            }
            next.extend(&added);
            let (g1, g2) = (conv_graph(&prev, 0), conv_graph(&next, 3600));
            let dirty = dirty_nodes(&g1, &g2);
            let mut all: Vec<NodeId> = g1.nodes().iter().chain(g2.nodes()).copied().collect();
            all.sort_unstable();
            all.dedup();
            let o = Obs::noop();
            let (_, memo) = infer_roles_incremental(&g1, g1.nodes(), None, min_score, &o);
            let (warm, carried) = infer_roles_incremental(&g2, &dirty, Some(&memo), min_score, &o);
            let fresh = jaccard_clique(&directional_neighbor_sets(&g2), min_score);
            prop_assert_eq!(graph_bits(&carried.clique), graph_bits(&fresh));
            let (cold, _) = infer_roles_incremental(&g2, &all, Some(&memo), min_score, &o);
            let method = SegmentationMethod::JaccardLouvain { min_score };
            let full = infer_roles(&g2, &method);
            for r in [&warm, &cold] {
                prop_assert_eq!(&r.labels, &full.labels);
                prop_assert_eq!(
                    r.clustering_modularity.to_bits(),
                    full.clustering_modularity.to_bits()
                );
            }
        }
    }
}
