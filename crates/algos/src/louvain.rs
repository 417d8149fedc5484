//! Louvain community detection (Blondel et al. \[33\]).
//!
//! Two uses in the paper: (a) as the clustering stage of its own
//! segmentation — run on the Jaccard-scored *clique*, where communities are
//! groups of mutually-similar nodes, i.e. roles; and (b) directly on the
//! communication graph with connection- or byte-weighted edges, as the
//! Figure 3(c)/(d) baselines — which group nodes that *talk to each other*,
//! precisely the wrong notion for role inference, as the experiments show.
//!
//! The implementation is the standard two-phase hierarchy: greedy local
//! moves to the neighboring community with the best modularity gain, then
//! aggregation of communities into super-nodes, repeated until the gain is
//! negligible. Deterministic: nodes are visited in index order and ties
//! break toward the smallest community id.
//!
//! # Single-threaded by design
//!
//! The local-move sweep is inherently sequential — each move changes what
//! the next node sees — and a speculative-parallel variant that reproduced
//! it bit-for-bit measured 0.25× the serial speed on 600-node similarity
//! cliques, so there is one sweep and it takes no worker count. Sweeps,
//! moves, and levels are reported through the process-global `obs` registry
//! (`commgraph_louvain_*_total`), inert until `obs::install_global`.

use crate::wgraph::WeightedGraph;
use obs::names;

/// Result of a Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community label per node, compacted to `0..n_communities`.
    pub labels: Vec<usize>,
    /// Modularity of the final partition.
    pub modularity: f64,
    /// Number of aggregation levels performed.
    pub(crate) levels: usize,
}

/// Modularity of a labeling on `g` at the given resolution (1.0 = classic).
///
/// Uses the convention: `Q = Σ_c [ w_in(c)/m − γ (Σ_tot(c) / 2m)² ]` with
/// `m` the total edge weight (undirected edges once), `Σ_tot` the weighted
/// degree sum (self-loops twice).
pub fn modularity(g: &WeightedGraph, labels: &[usize], resolution: f64) -> f64 {
    assert_eq!(labels.len(), g.node_count(), "one label per node");
    let m = g.total_weight();
    if m == 0.0 {
        return 0.0;
    }
    let n_comm = labels.iter().copied().max().map_or(0, |x| x + 1);
    let mut w_in = vec![0.0; n_comm];
    let mut sigma = vec![0.0; n_comm];
    for u in 0..g.node_count() as u32 {
        let lu = labels[u as usize];
        // `weighted_degree(u)`, summed in the same order in the same pass.
        let mut degree = 0.0;
        for &(v, w) in g.neighbors(u) {
            degree += if v == u { 2.0 * w } else { w };
            // A self-loop is stored once; other edges count from the lower end.
            if v >= u && lu == labels[v as usize] {
                w_in[lu] += w;
            }
        }
        sigma[lu] += degree;
    }
    let two_m = 2.0 * m;
    (0..n_comm).map(|c| w_in[c] / m - resolution * (sigma[c] / two_m) * (sigma[c] / two_m)).sum()
}

/// Run Louvain at resolution 1.0.
///
/// ```
/// use algos::louvain::louvain;
/// use algos::WeightedGraph;
///
/// // Two triangles joined by one weak edge.
/// let g = WeightedGraph::from_edges(6, &[
///     (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
///     (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
///     (2, 3, 0.1),
/// ]);
/// let r = louvain(&g);
/// assert_eq!(r.labels[0], r.labels[1]);
/// assert_ne!(r.labels[0], r.labels[4]);
/// ```
pub fn louvain(g: &WeightedGraph) -> LouvainResult {
    louvain_with_resolution(g, 1.0)
}

/// Run Louvain at a custom resolution (γ > 1 yields more, smaller
/// communities; γ < 1 fewer, larger ones).
pub(crate) fn louvain_with_resolution(g: &WeightedGraph, resolution: f64) -> LouvainResult {
    louvain_impl(g, resolution)
}

fn louvain_impl(g: &WeightedGraph, resolution: f64) -> LouvainResult {
    assert!(resolution > 0.0, "resolution must be positive");
    let n = g.node_count();
    if n == 0 {
        return LouvainResult { labels: Vec::new(), modularity: 0.0, levels: 0 };
    }
    let lobs = LouvainObs::resolve();
    // labels[i] maps original node -> current community id.
    let mut labels: Vec<usize> = (0..n).collect();
    // The graph of the current level: `g` itself, then each aggregate.
    let mut aggregated: Option<WeightedGraph> = None;
    let mut levels = 0usize;
    const MIN_GAIN: f64 = 1e-9;

    // Q of the level's graph under its singleton labeling, maintained
    // across levels: aggregation preserves modularity (intra-community
    // weight becomes self-loops, Σ_tot carries over), so each level's
    // `after` is the next level's `before` — no need to rebuild the identity
    // label vector and rescore the whole graph every level.
    let mut before = modularity(g, &labels, resolution);
    loop {
        let level_graph = aggregated.as_ref().unwrap_or(g);
        let level = one_level(level_graph, resolution);
        levels += 1;
        lobs.sweeps.add(level.sweeps);
        lobs.moves.add(level.moves);
        // Thread this level's assignment through to original nodes.
        for l in labels.iter_mut() {
            *l = level.comm[*l];
        }
        if !level.improved {
            break;
        }
        let after = modularity(level_graph, &level.comm, resolution);
        aggregated = Some(aggregate(level_graph, &level.comm));
        if after - before < MIN_GAIN {
            break;
        }
        before = after;
    }
    lobs.levels.add(levels as u64);
    let labels = compact(labels);
    let q = modularity(g, &labels, resolution);
    LouvainResult { labels, modularity: q, levels }
}

/// Configuration for top-down hierarchical refinement.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalConfig {
    /// Do not attempt to split communities smaller than this.
    pub(crate) min_split_size: usize,
    /// A community is split only if the Louvain run on its induced subgraph
    /// achieves at least this modularity (separates structure from noise).
    pub(crate) min_split_modularity: f64,
    /// Maximum recursion depth.
    pub(crate) max_depth: usize,
    /// Resolution passed to every Louvain invocation.
    pub(crate) resolution: f64,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            min_split_size: 4,
            min_split_modularity: 0.05,
            max_depth: 4,
            resolution: 1.0,
        }
    }
}

/// Hierarchical Louvain (the clustering of the paper's Figure 1 caption):
/// run Louvain, then recursively re-run it on each community's induced
/// subgraph, accepting a split when the sub-partition has real modularity.
///
/// Plain Louvain on a similarity clique merges *kinds* of roles — every
/// web tier of every tenant shares the same control-plane hubs, so weak
/// cross-tenant similarity edges glue them together. The recursion
/// separates them: within the merged community, intra-tenant similarity is
/// far stronger than cross-tenant similarity.
///
/// `levels` counts the base run's aggregation levels plus one per
/// refinement pass that actually split something; a final pass that finds
/// nothing to split does not deepen the hierarchy.
pub fn hierarchical_louvain(g: &WeightedGraph, cfg: HierarchicalConfig) -> LouvainResult {
    hierarchical_impl(g, cfg, None, None)
}

/// [`hierarchical_louvain`] for a window of a stream: each refinement
/// sub-run is answered from the previous window's [`SubRuns`] when `prior`
/// recorded the same members and all of them are clean. Returns the result
/// plus this run's sub-runs, for the next window.
///
/// A reused sub-run is bit-identical to running it: its members are clean,
/// so every edge of the subgraph they induce joins two clean nodes and is
/// carried unchanged from the previous window's clique (see
/// [`crate::jaccard`]), and the members keep their relative order. The
/// result therefore equals [`hierarchical_louvain`]'s, `levels` included.
pub(crate) fn hierarchical_louvain_reusing(
    g: &WeightedGraph,
    cfg: HierarchicalConfig,
    prior: Option<Prior<'_>>,
) -> (LouvainResult, SubRuns) {
    let mut record = SubRuns::default();
    let result = hierarchical_impl(g, cfg, prior, Some(&mut record));
    record.runs.sort_by_key(|r| (r.first, r.len));
    // A community no pass split is re-run by the next pass with the same
    // members; keep one copy. Recorded sets nest or are disjoint, so two
    // with the same first member and size are the same set.
    record.runs.dedup_by_key(|r| (r.first, r.len));
    (result, record)
}

/// Marks a node with no counterpart in an index map.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// The refinement sub-runs of one hierarchical run: each re-clustered
/// community's members and its outcome — no split, or the sub-labels.
// bound: at most `max_depth` passes each record a partition of the n
// nodes, so ≤ max_depth · n member ids and as many sub-labels.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubRuns {
    /// Every run's members (node indices, ascending), concatenated.
    members: Vec<u32>,
    /// The sub-labels of every run that split, concatenated.
    labels: Vec<u32>,
    /// One per run; sorted by `(first, len)` once the run is recorded.
    runs: Vec<SubRun>,
}

#[derive(Debug, Clone, Copy)]
struct SubRun {
    first: u32,
    len: u32,
    /// Offset of the members in [`SubRuns::members`].
    at: usize,
    /// Offset of the sub-labels in [`SubRuns::labels`] and the number of
    /// sub-communities, when the run split.
    split: Option<(usize, usize)>,
}

/// A previous window's sub-runs, seen from the current graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prior<'a> {
    /// The previous window's sub-runs.
    pub(crate) runs: &'a SubRuns,
    /// Per current node, its index in the previous window when it is clean;
    /// [`NO_NODE`] when it is dirty or new.
    pub(crate) index: &'a [u32],
}

impl SubRuns {
    fn push(&mut self, members: &[usize], split: Option<(&[u32], usize)>) {
        let at = self.members.len();
        self.members.extend(members.iter().map(|&m| m as u32));
        let split = split.map(|(labels, n_sub)| {
            self.labels.extend_from_slice(labels);
            (self.labels.len() - labels.len(), n_sub)
        });
        self.runs.push(SubRun { first: members[0] as u32, len: members.len() as u32, at, split });
    }
}

impl<'a> Prior<'a> {
    /// The recorded outcome for `members` (ascending, non-empty): `None`
    /// when not every member is clean or no run had exactly these members;
    /// `Some(None)` for a run that did not split; `Some(Some((sub-labels,
    /// count)))` for one that did.
    fn find(self, members: &[usize]) -> Option<Option<(&'a [u32], usize)>> {
        let first = self.index[members[0]];
        let key = (first, members.len() as u32);
        let at = self.runs.runs.binary_search_by_key(&key, |r| (r.first, r.len)).ok()?;
        let run = self.runs.runs[at];
        let recorded = &self.runs.members[run.at..run.at + members.len()];
        if !members.iter().zip(recorded).all(|(&m, &p)| self.index[m] == p) {
            return None;
        }
        Some(run.split.map(|(at, n_sub)| (&self.runs.labels[at..at + members.len()], n_sub)))
    }
}

fn hierarchical_impl(
    g: &WeightedGraph,
    cfg: HierarchicalConfig,
    prior: Option<Prior<'_>>,
    mut record: Option<&mut SubRuns>,
) -> LouvainResult {
    let base = louvain_with_resolution(g, cfg.resolution);
    let mut labels = base.labels;
    let mut levels = base.levels;
    let mut next_label = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut depth = 0;
    // Scratch reused by every pass: members bucketed by community, the
    // induced-subgraph index, and one sub-run's labels.
    let mut start: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = vec![0; labels.len()];
    let mut index: Vec<u32> = vec![NO_NODE; labels.len()];
    let mut sub: Vec<u32> = Vec::new();
    loop {
        if depth >= cfg.max_depth {
            break;
        }
        let n_comm = labels.iter().copied().max().map_or(0, |m| m + 1);
        // Stable counting sort: community c's members, ascending, are
        // `order[start[c]..start[c + 1]]`.
        start.clear();
        start.resize(n_comm + 1, 0);
        for &l in &labels {
            start[l + 1] += 1;
        }
        for c in 0..n_comm {
            start[c + 1] += start[c];
        }
        let mut head = start.clone();
        for (i, &l) in labels.iter().enumerate() {
            order[head[l]] = i;
            head[l] += 1;
        }
        let mut any_split = false;
        for c in 0..n_comm {
            let members = &order[start[c]..start[c + 1]];
            if members.len() < cfg.min_split_size {
                continue;
            }
            let n_sub = match prior.and_then(|p| p.find(members)) {
                Some(recorded) => recorded.map(|(labels, n_sub)| {
                    sub.clear();
                    sub.extend_from_slice(labels);
                    n_sub
                }),
                None => {
                    let sub_graph = induced_subgraph(g, members, &mut index);
                    let r = louvain_with_resolution(&sub_graph, cfg.resolution);
                    let n_sub = r.labels.iter().copied().max().map_or(0, |m| m + 1);
                    (n_sub > 1 && r.modularity >= cfg.min_split_modularity).then(|| {
                        sub.clear();
                        sub.extend(r.labels.iter().map(|&l| l as u32));
                        n_sub
                    })
                }
            };
            if let Some(record) = record.as_deref_mut() {
                record.push(members, n_sub.map(|n_sub| (&sub[..], n_sub)));
            }
            let Some(n_sub) = n_sub else { continue };
            // Relabel: sub-community 0 keeps label c, the rest get fresh ids.
            for (&orig, &s) in members.iter().zip(&sub) {
                if s > 0 {
                    labels[orig] = next_label + s as usize - 1;
                }
            }
            next_label += n_sub - 1;
            any_split = true;
        }
        if !any_split {
            // The pass refined nothing — it added no hierarchy level.
            break;
        }
        levels += 1;
        depth += 1;
    }
    let labels = compact(labels);
    let q = modularity(g, &labels, cfg.resolution);
    LouvainResult { labels, modularity: q, levels }
}

/// Subgraph induced by `members` (given in ascending original order), with
/// nodes renumbered `0..members.len()`. `index` holds [`NO_NODE`] for every
/// node of `g` on entry and on return.
fn induced_subgraph(g: &WeightedGraph, members: &[usize], index: &mut [u32]) -> WeightedGraph {
    for (local, &orig) in members.iter().enumerate() {
        index[orig] = local as u32;
    }
    let mut edges = Vec::new();
    for (local, &orig) in members.iter().enumerate() {
        for &(v, w) in g.neighbors(orig as u32) {
            let lv = index[v as usize];
            // Add each undirected edge once (self-loops included).
            if lv != NO_NODE && lv as usize >= local {
                edges.push((local as u32, lv, w));
            }
        }
    }
    for &orig in members {
        index[orig] = NO_NODE;
    }
    WeightedGraph::from_edges(members.len(), &edges)
}

/// Louvain run counters, resolved from the process-global `obs` registry
/// (noop until `obs::install_global`).
struct LouvainObs {
    /// `commgraph_louvain_sweeps_total` — local-move sweeps executed.
    sweeps: obs::Counter,
    /// `commgraph_louvain_moves_total` — node moves applied.
    moves: obs::Counter,
    /// `commgraph_louvain_levels_total` — aggregation levels run.
    levels: obs::Counter,
}

impl LouvainObs {
    fn resolve() -> LouvainObs {
        let o = obs::global();
        LouvainObs {
            sweeps: o.counter(&names::LOUVAIN_SWEEPS_TOTAL, []),
            moves: o.counter(&names::LOUVAIN_MOVES_TOTAL, []),
            levels: o.counter(&names::LOUVAIN_LEVELS_TOTAL, []),
        }
    }
}

/// Outcome of one local-moving pass.
struct LevelOutcome {
    /// Community per node, compacted.
    comm: Vec<usize>,
    /// Whether any node moved.
    improved: bool,
    /// Full sweeps over the node set.
    sweeps: u64,
    /// Moves applied.
    moves: u64,
}

/// Greedy move decision for `u`: remove it from its community, pick the
/// best neighboring community by modularity gain (ties stay put, then go
/// to the smallest id), re-add, and report whether it moved. `touched`
/// lists `u`'s neighboring communities in ascending id, and `to_comm[c]`
/// is `u`'s weight to community `c` (zero for every untouched `c`).
#[inline]
fn apply_best_move(
    u: usize,
    touched: &[usize],
    to_comm: &[f64],
    (comm, sigma_tot): (&mut [usize], &mut [f64]),
    k: &[f64],
    resolution: f64,
    two_m: f64,
) -> bool {
    let cu = comm[u];
    // Remove u from its community.
    sigma_tot[cu] -= k[u];
    let base_gain = to_comm[cu] - resolution * k[u] * sigma_tot[cu] / two_m;
    let (mut best_c, mut best_gain) = (cu, base_gain);
    for &c in touched {
        if c == cu {
            continue;
        }
        let gain = to_comm[c] - resolution * k[u] * sigma_tot[c] / two_m;
        if gain > best_gain + 1e-12 {
            best_gain = gain;
            best_c = c;
        }
    }
    sigma_tot[best_c] += k[u];
    if best_c != cu {
        comm[u] = best_c;
        true
    } else {
        false
    }
}

/// One pass of greedy local moving from singletons: nodes in index order,
/// neighbor scans against the live community assignment.
fn one_level(g: &WeightedGraph, resolution: f64) -> LevelOutcome {
    let n = g.node_count();
    let m = g.total_weight();
    let mut comm: Vec<usize> = (0..n).collect();
    if m == 0.0 {
        return LevelOutcome { comm, improved: false, sweeps: 0, moves: 0 };
    }
    let k: Vec<f64> = (0..n as u32).map(|u| g.weighted_degree(u)).collect();
    // Each singleton's Σ_tot is its degree.
    let mut sigma_tot = k.clone();
    let two_m = 2.0 * m;
    let (mut sweeps, mut moves) = (0u64, 0u64);
    // Weights from the current node to each neighboring community (its
    // self-loop excluded — it does not change with a move), summed in
    // neighbor order, and the communities touched. Every edge weight is
    // positive, so a zero slot is an untouched community.
    let mut to_comm = vec![0.0; n];
    let mut touched: Vec<usize> = Vec::new();

    loop {
        let mut moved = false;
        sweeps += 1;
        for u in 0..n {
            for &(v, w) in g.neighbors(u as u32) {
                if v as usize != u {
                    let c = comm[v as usize];
                    if to_comm[c] == 0.0 {
                        touched.push(c);
                    }
                    to_comm[c] += w;
                }
            }
            touched.sort_unstable();
            let state = (&mut comm[..], &mut sigma_tot[..]);
            if apply_best_move(u, &touched, &to_comm, state, &k, resolution, two_m) {
                moved = true;
                moves += 1;
            }
            for &c in &touched {
                to_comm[c] = 0.0;
            }
            touched.clear();
        }
        if !moved {
            break;
        }
    }
    LevelOutcome { comm: compact(comm), improved: moves > 0, sweeps, moves }
}

/// Build the aggregated graph: one node per community, intra-community
/// weight becomes a self-loop. Aggregation preserves total edge weight and
/// the modularity of the induced identity labeling.
///
/// Each community pair's weight is summed in edge-visit order (a stable
/// sort by pair), and the pairs enter the graph in ascending order.
pub fn aggregate(g: &WeightedGraph, comm: &[usize]) -> WeightedGraph {
    let n_comm = comm.iter().copied().max().map_or(0, |x| x + 1);
    let mut keyed: Vec<((u32, u32), f64)> = Vec::new();
    for u in 0..g.node_count() as u32 {
        for &(v, w) in g.neighbors(u) {
            if v < u {
                continue; // visit each undirected edge once; self-loop v==u kept
            }
            let (a, b) = (comm[u as usize] as u32, comm[v as usize] as u32);
            keyed.push((if a <= b { (a, b) } else { (b, a) }, w));
        }
    }
    keyed.sort_by_key(|&(key, _)| key);
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for ((a, b), w) in keyed {
        match edges.last_mut() {
            Some(last) if (last.0, last.1) == (a, b) => last.2 += w,
            _ => edges.push((a, b, w)),
        }
    }
    WeightedGraph::from_edges(n_comm, &edges)
}

/// Renumber labels to a dense `0..k` range, preserving first-appearance
/// order. Every caller's labels are below its node count, so the map is one
/// dense slot per label value.
fn compact(mut labels: Vec<usize>) -> Vec<usize> {
    let bound = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut map = vec![usize::MAX; bound];
    let mut next = 0usize;
    for l in labels.iter_mut() {
        if map[*l] == usize::MAX {
            map[*l] = next;
            next += 1;
        }
        *l = map[*l];
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by one weak edge.
    fn two_cliques() -> WeightedGraph {
        WeightedGraph::from_edges(8, &two_clique_edges())
    }

    fn two_clique_edges() -> Vec<(u32, u32, f64)> {
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        }
        edges.push((0, 4, 0.1));
        edges
    }

    /// Four 5-cliques; cliques {0,1} and {2,3} are strongly bridged, with
    /// one weak edge across the pairs.
    fn nested_cliques() -> WeightedGraph {
        let mut edges = Vec::new();
        let clique = |edges: &mut Vec<(u32, u32, f64)>, base: u32| {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        };
        for c in 0..4 {
            clique(&mut edges, c * 5);
        }
        for k in 0..5 {
            edges.push((k, 5 + k, 0.55));
            edges.push((10 + k, 15 + k, 0.55));
        }
        edges.push((0, 10, 0.05));
        WeightedGraph::from_edges(20, &edges)
    }

    /// A ring of `k` triangles bridged at weight 1.0 — above ~9 cliques the
    /// resolution limit makes flat Louvain merge adjacent triangles, so the
    /// hierarchy has real splitting to do.
    fn triangle_ring(k: u32) -> WeightedGraph {
        let mut edges = Vec::new();
        for c in 0..k {
            let base = c * 3;
            for i in 0..3 {
                for j in (i + 1)..3 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
            edges.push((base, ((c + 1) % k) * 3, 1.0));
        }
        WeightedGraph::from_edges(3 * k as usize, &edges)
    }

    #[test]
    fn finds_the_two_cliques() {
        let r = louvain(&two_cliques());
        let labels = &r.labels;
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[7]);
        assert_ne!(labels[0], labels[4], "cliques must separate");
        assert!(r.modularity > 0.4, "Q = {}", r.modularity);
    }

    #[test]
    fn modularity_of_known_partition() {
        // Two equal disconnected cliques, correct split: Q = 0.5.
        let mut edges = Vec::new();
        for base in [0u32, 3] {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        }
        let g = WeightedGraph::from_edges(6, &edges);
        let q = modularity(&g, &[0, 0, 0, 1, 1, 1], 1.0);
        assert!((q - 0.5).abs() < 1e-12, "Q = {q}");
        let q_single = modularity(&g, &[0; 6], 1.0);
        assert!(q_single.abs() < 1e-12, "single community has Q = 0, got {q_single}");
    }

    #[test]
    fn louvain_beats_trivial_partitions() {
        let g = two_cliques();
        let r = louvain(&g);
        let singletons: Vec<usize> = (0..8).collect();
        assert!(r.modularity >= modularity(&g, &singletons, 1.0));
        assert!(r.modularity >= modularity(&g, &[0; 8], 1.0));
    }

    #[test]
    fn deterministic() {
        let a = louvain(&two_cliques());
        let b = louvain(&two_cliques());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.modularity, b.modularity);
    }

    /// Pinned against the pre-rework (PR 2) implementation: the convergence
    /// rework (carry `before` across levels instead of rescoring the
    /// identity labeling) and the duplicate-edge coalescing must not change
    /// what the fixtures produce.
    #[test]
    fn fixture_results_pinned_against_legacy() {
        let r = louvain(&two_cliques());
        assert_eq!(r.labels, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert!((r.modularity - 0.49173553719008267).abs() < 1e-12, "Q = {}", r.modularity);
        assert_eq!(r.levels, 2);

        let r = louvain(&nested_cliques());
        assert_eq!(r.labels, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3]);
        assert!((r.modularity - 0.628_155_571_433_907_8).abs() < 1e-12, "Q = {}", r.modularity);
        assert_eq!(r.levels, 2);

        let h = hierarchical_louvain(&two_cliques(), HierarchicalConfig::default());
        assert_eq!(h.labels, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert!((h.modularity - 0.49173553719008267).abs() < 1e-12, "Q = {}", h.modularity);
    }

    /// Regression (latent duplicate-edge bug): a duplicated edge list must
    /// produce the same partition and modularity as the coalesced one.
    #[test]
    fn duplicate_edge_list_matches_coalesced() {
        let coalesced = two_cliques();
        // Rebuild with every clique edge split into two half-weight parallel
        // edges (halves sum exactly in binary floating point, and every
        // running total stays a multiple of 0.5, so even `total_weight`'s
        // sequential accumulation matches bit-for-bit).
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j, 0.5));
                    edges.push((base + j, base + i, 0.5));
                }
            }
        }
        edges.push((0, 4, 0.1));
        let dup = WeightedGraph::from_edges(8, &edges);

        assert_eq!(dup.total_weight(), coalesced.total_weight());
        for u in 0..8 {
            assert_eq!(dup.neighbors(u), coalesced.neighbors(u), "node {u} adjacency");
        }
        let a = louvain(&dup);
        let b = louvain(&coalesced);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.modularity.to_bits(), b.modularity.to_bits());
    }

    #[test]
    fn resolution_controls_granularity() {
        // A ring of 4 small cliques: high resolution splits them, very low
        // resolution merges neighbors.
        let mut edges = Vec::new();
        for c in 0..4u32 {
            let base = c * 3;
            for i in 0..3 {
                for j in (i + 1)..3 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
            edges.push((base, ((c + 1) % 4) * 3, 0.5));
        }
        let g = WeightedGraph::from_edges(12, &edges);
        let fine = louvain_with_resolution(&g, 2.0);
        let coarse = louvain_with_resolution(&g, 0.1);
        let n_fine = fine.labels.iter().max().unwrap() + 1;
        let n_coarse = coarse.labels.iter().max().unwrap() + 1;
        assert!(n_fine >= n_coarse, "higher resolution, at least as many communities");
    }

    #[test]
    fn handles_disconnected_and_empty() {
        let g = WeightedGraph::from_edges(5, &[]);
        let r = louvain(&g);
        assert_eq!(r.labels.len(), 5);
        assert_eq!(r.modularity, 0.0);

        let empty = louvain(&WeightedGraph::from_edges(0, &[]));
        assert!(empty.labels.is_empty());
    }

    #[test]
    fn self_loops_do_not_break_clustering() {
        // A modest self-loop raises the node's degree but must not pull it
        // out of its clique. (A huge self-loop legitimately isolates the
        // node — its degree term dominates any join gain.)
        let mut edges = two_clique_edges();
        edges.push((0, 0, 1.0));
        let r = louvain(&WeightedGraph::from_edges(8, &edges));
        assert_eq!(r.labels[0], r.labels[1], "self-loop keeps node in its clique");
        assert_ne!(r.labels[0], r.labels[4], "cliques still separate");
    }

    #[test]
    fn labels_are_compact() {
        let r = louvain(&two_cliques());
        let max = *r.labels.iter().max().unwrap();
        let distinct: std::collections::HashSet<_> = r.labels.iter().collect();
        assert_eq!(distinct.len(), max + 1, "labels form a dense 0..k range");
    }

    #[test]
    fn hierarchical_splits_merged_structure() {
        // Ten triangles in a ring: the resolution limit merges adjacent
        // triangles in the flat run; the hierarchy recovers all ten.
        let g = triangle_ring(10);
        let flat = louvain(&g);
        let n_flat = flat.labels.iter().max().unwrap() + 1;
        assert_eq!(n_flat, 5, "flat run merges triangle pairs");
        let cfg = HierarchicalConfig { min_split_size: 3, ..Default::default() };
        let hier = hierarchical_louvain(&g, cfg);
        let n_hier = hier.labels.iter().max().unwrap() + 1;
        assert_eq!(n_hier, 10, "hierarchy recovers every triangle");
        for c in 0..10usize {
            let base = c * 3;
            assert_eq!(hier.labels[base], hier.labels[base + 1], "triangle {c} split");
            assert_eq!(hier.labels[base], hier.labels[base + 2], "triangle {c} split");
        }
        assert!(hier.modularity >= flat.modularity - 1e-9 || n_hier > n_flat);
    }

    /// Regression (levels over-count bug): a refinement pass that splits
    /// nothing used to increment `levels` anyway, overstating the depth by
    /// one on every hierarchical run.
    #[test]
    fn hierarchical_levels_count_only_splitting_passes() {
        // Nested-cliques fixture: the flat run already finds all four
        // cliques, so no refinement pass splits — levels must equal flat's.
        let g = nested_cliques();
        let flat = louvain(&g);
        let hier = hierarchical_louvain(&g, HierarchicalConfig::default());
        assert_eq!(flat.levels, 2);
        assert_eq!(hier.levels, flat.levels, "no split ⇒ no extra level");

        // Triangle ring: exactly one refinement pass splits (the second
        // finds nothing), so levels is flat's plus one — not plus two.
        let g = triangle_ring(10);
        let flat = louvain(&g);
        let cfg = HierarchicalConfig { min_split_size: 3, ..Default::default() };
        let hier = hierarchical_louvain(&g, cfg);
        assert_eq!(flat.levels, 3);
        assert_eq!(hier.levels, flat.levels + 1, "one splitting pass ⇒ one extra level");
    }

    /// Every sub-run answered from a record of the same graph — all nodes
    /// clean — and from a record where one node is dirty (its community is
    /// re-run) reproduces the plain hierarchy bit for bit.
    #[test]
    fn reused_sub_runs_reproduce_the_plain_hierarchy() {
        let cfg = HierarchicalConfig { min_split_size: 3, ..Default::default() };
        for g in [two_cliques(), nested_cliques(), triangle_ring(10)] {
            let plain = hierarchical_louvain(&g, cfg);
            let (first, record) = hierarchical_louvain_reusing(&g, cfg, None);
            assert!(!record.runs.is_empty(), "every fixture refines something");
            let mut index: Vec<u32> = (0..g.node_count() as u32).collect();
            for dirty in [None, Some(1)] {
                if let Some(d) = dirty {
                    index[d] = NO_NODE;
                }
                let prior = Prior { runs: &record, index: &index };
                let (again, _) = hierarchical_louvain_reusing(&g, cfg, Some(prior));
                for r in [&first, &again] {
                    assert_eq!(r.labels, plain.labels);
                    assert_eq!(r.modularity.to_bits(), plain.modularity.to_bits());
                    assert_eq!(r.levels, plain.levels);
                }
            }
        }
    }

    #[test]
    fn hierarchical_splits_nested_structure() {
        let g = nested_cliques();
        let flat = louvain(&g);
        let n_flat = flat.labels.iter().max().unwrap() + 1;
        let hier = hierarchical_louvain(&g, HierarchicalConfig::default());
        let n_hier = hier.labels.iter().max().unwrap() + 1;
        assert!(n_hier >= n_flat, "hierarchy never coarsens");
        assert!(n_hier >= 4, "all four cliques found, got {n_hier}");
        // Each original clique stays whole.
        for c in 0..4usize {
            let base = c * 5;
            for k in 1..5 {
                assert_eq!(hier.labels[base], hier.labels[base + k], "clique {c} split");
            }
        }
    }

    #[test]
    fn hierarchical_matches_flat_on_flat_structure() {
        let g = two_cliques();
        let flat = louvain(&g);
        let hier = hierarchical_louvain(&g, HierarchicalConfig::default());
        assert_eq!(flat.labels, hier.labels, "nothing to refine on two plain cliques");
    }

    #[test]
    fn hierarchical_respects_min_split_size() {
        let g = two_cliques();
        let cfg = HierarchicalConfig { min_split_size: 100, ..Default::default() };
        let r = hierarchical_louvain(&g, cfg);
        assert_eq!(r.labels.iter().max().unwrap() + 1, 2, "no community big enough to split");
    }

    #[test]
    fn weighted_star_groups_spokes_with_hub() {
        // A hub with heavy spokes: everything is one community.
        let g = WeightedGraph::from_edges(5, &[(0, 1, 5.0), (0, 2, 5.0), (0, 3, 5.0), (0, 4, 5.0)]);
        let r = louvain(&g);
        // Modularity of a star is maximized by few communities; Louvain
        // should not leave everything singleton.
        let n_comm = r.labels.iter().max().unwrap() + 1;
        assert!(n_comm < 5, "star must merge, got {n_comm} communities");
    }

    #[test]
    fn aggregate_preserves_weight_and_modularity() {
        let g = nested_cliques();
        let r = louvain(&g);
        let agg = aggregate(&g, &r.labels);
        assert_eq!(agg.node_count(), r.labels.iter().max().unwrap() + 1);
        assert!((agg.total_weight() - g.total_weight()).abs() < 1e-9);
        let identity: Vec<usize> = (0..agg.node_count()).collect();
        let q_agg = modularity(&agg, &identity, 1.0);
        assert!((q_agg - r.modularity).abs() < 1e-9, "{q_agg} vs {}", r.modularity);
    }

    #[test]
    fn sweep_counters_reach_the_global_registry() {
        let r = std::sync::Arc::new(obs::Registry::new());
        // First install wins process-wide; only assert when ours landed.
        if obs::install_global(r.clone()) {
            louvain(&two_cliques());
            let sweeps = r.counter(&names::LOUVAIN_SWEEPS_TOTAL, []);
            let levels = r.counter(&names::LOUVAIN_LEVELS_TOTAL, []);
            assert!(sweeps.get() >= 2, "at least one sweep per level");
            assert!(levels.get() >= 1, "levels counted");
        }
    }
}
