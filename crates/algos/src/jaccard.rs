//! Neighbor-set similarity scoring.
//!
//! The paper's Figure 1 segmentation starts from a simple, powerful signal:
//! two resources that talk to the *same set of peers* are likely replicas of
//! one role — even if they never talk to each other (which is exactly why
//! modularity clustering fails at this task, §2.1).
//!
//! [`jaccard_clique`] is what role inference runs: exact Jaccard counted
//! over an inverted token index, only for pairs that share a token, written
//! straight into the sparse [`WeightedGraph`] Louvain clusters. It answers
//! the "super-quadratic complexity" the paper flags without giving up
//! exactness. [`jaccard_matrix`] and its `_of_sets` variants fill the dense
//! all-pairs matrix; they are the reference the clique is tested against
//! (and what [`MinHasher`]'s estimates are measured against), not a step of
//! the product. [`MinHasher`] is the sketched variant the paper cites
//! (\[35, 45\]).

use crate::louvain::NO_NODE;
use crate::wgraph::WeightedGraph;
use linalg::par::{self, Parallelism};
use linalg::sym::SymMatrix;

/// Jaccard similarity of two sorted, deduplicated id slices.
pub fn jaccard_of_sets(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Exact pairwise Jaccard matrix over every node's neighbor set.
///
/// O(n² · d̄) — the "super-quadratic complexity" the paper flags as an open
/// issue; [`jaccard_clique`] is the exact sparse alternative, [`MinHasher`]
/// the sketched one.
pub fn jaccard_matrix(g: &WeightedGraph) -> SymMatrix {
    let n = g.node_count();
    let sets: Vec<Vec<u32>> = (0..n as u32).map(|u| g.neighbor_set(u)).collect();
    jaccard_matrix_of_sets(&sets)
}

/// Exact pairwise Jaccard matrix over arbitrary token sets (each set must be
/// sorted and deduplicated), at the default [`Parallelism`]. Role inference
/// uses token sets that qualify each neighbor with the *nature of the
/// conversation*, per §2.1.
pub fn jaccard_matrix_of_sets(sets: &[Vec<u32>]) -> SymMatrix {
    jaccard_matrix_of_sets_with(sets, Parallelism::default())
}

/// Exact pairwise Jaccard matrix with an explicit worker count.
///
/// Rows of the packed upper triangle are distributed over workers; every
/// entry is one independent [`jaccard_of_sets`] call, so the result is
/// bit-for-bit identical at any worker count.
pub fn jaccard_matrix_of_sets_with(sets: &[Vec<u32>], parallelism: Parallelism) -> SymMatrix {
    let mut m = SymMatrix::zeros(sets.len());
    m.fill_upper(
        parallelism,
        |i, j| {
            if i == j {
                1.0
            } else {
                jaccard_of_sets(&sets[i], &sets[j])
            }
        },
    );
    m
}

/// Token sets in CSR form: set `i` is `tokens[offsets[i]..offsets[i + 1]]`,
/// sorted and deduplicated — one allocation pair for a whole window
/// instead of one vector per node.
#[derive(Debug, Clone)]
pub(crate) struct TokenSets {
    offsets: Vec<usize>,
    tokens: Vec<u32>,
}

impl TokenSets {
    pub(crate) fn new() -> Self {
        TokenSets { offsets: vec![0], tokens: Vec::new() }
    }

    /// The same sets, flat.
    fn of_vecs(sets: &[Vec<u32>]) -> Self {
        let mut flat = TokenSets::new();
        for set in sets {
            flat.push(set.iter().copied());
        }
        flat
    }

    /// Append the next set; sorted and deduplicated here unless it already
    /// arrives strictly ascending.
    pub(crate) fn push(&mut self, set: impl IntoIterator<Item = u32>) {
        let start = self.tokens.len();
        self.tokens.extend(set);
        if !self.tokens[start..].is_sorted_by(|a, b| a < b) {
            let mut tail = self.tokens.split_off(start);
            tail.sort_unstable();
            tail.dedup();
            self.tokens.extend(tail);
        }
        self.offsets.push(self.tokens.len());
    }

    /// Number of sets.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Set `i`.
    pub(crate) fn set(&self, i: usize) -> &[u32] {
        &self.tokens[self.offsets[i]..self.offsets[i + 1]]
    }

    /// One vector per set.
    pub(crate) fn to_vecs(&self) -> Vec<Vec<u32>> {
        (0..self.len()).map(|i| self.set(i).to_vec()).collect()
    }
}

/// The paper's *scored clique*, built without the matrix: exact Jaccard for
/// every pair of `sets` (each sorted and deduplicated) that shares a token,
/// kept as an edge when it is `>= min_score` and `> 0.0`.
///
/// Postings (token → ascending holders) are laid out in CSR form; node `i`
/// walks the postings of its own tokens above `i`, counting shared tokens
/// per candidate `j` in one reusable `n`-slot counter. A pair that shares
/// nothing is never visited — its score is 0 and it is no edge.
///
/// **Bit-exactness.** The emitted weight is `inter / (|a| + |b| − inter)`,
/// the same two integers [`jaccard_of_sets`] divides, and edges enter the
/// graph in the `(i, j > i)` lexicographic order
/// [`WeightedGraph::from_similarity`] uses — so every adjacency entry and
/// `total_weight` (hence modularity, hence every Louvain decision) equals
/// thresholding [`jaccard_matrix_of_sets`] to the last bit.
///
/// # Panics
/// Panics, before allocating anything, when a token is `>= 3 · sets.len()`:
/// tokens are neighbor indices (`< n`) or the direction-qualified
/// `3·neighbor + class` (`< 3n`), which is what keeps the postings O(n + T)
/// for T tokens held in total.
pub fn jaccard_clique(sets: &[Vec<u32>], min_score: f64) -> WeightedGraph {
    clique_counting(&TokenSets::of_vecs(sets), None, min_score).0
}

/// The previous window's scored clique, seen from the current window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Carry<'a> {
    /// The previous window's clique, as [`window_clique`] built it.
    pub(crate) clique: &'a WeightedGraph,
    /// Per current node, its previous index when it is clean — its token
    /// set, as a set of (neighbor, direction class), is unchanged — else
    /// [`NO_NODE`].
    pub(crate) prior_of: &'a [u32],
    /// The inverse: per previous node, its current index when clean, else
    /// [`NO_NODE`].
    pub(crate) current_of: &'a [u32],
}

/// The scored clique of [`jaccard_clique`] over flat token sets, carrying
/// from the previous window's clique every edge whose endpoints are both
/// clean and recounting through the current postings every pair with a
/// dirty endpoint.
///
/// A clean pair's score is `inter / union` of two token sets that did not
/// change, so its carried edge — or its absence — is what a recount would
/// give, bit for bit. The carried and recounted edges are merged into the
/// `(i, j > i)` order, so the graph, `total_weight` included, equals
/// [`jaccard_clique`]'s to the last bit. With every node dirty (or no
/// `carry`) nothing carried is read and the walk is [`jaccard_clique`]'s.
pub(crate) fn window_clique(
    sets: &TokenSets,
    carry: Option<Carry<'_>>,
    min_score: f64,
) -> WeightedGraph {
    clique_counting(sets, carry, min_score).0
}

/// [`window_clique`] plus the number of counter increments it performed
/// (the work term its bound is stated in).
// bound: with every node dirty, a token with h holders costs h(h−1)/2
// increments, so the walk is Σ_t h_t(h_t−1)/2 ≤ (n−1)·T/2 — at most half
// the (n−1)·T set elements the dense merge reads. A hub token (every node
// holds it) or a clique (every node holds every token) meets that bound and
// cannot exceed it. With d_t of a token's holders dirty, it costs
// d_t(d_t−1)/2 + d_t(h_t−d_t): only the pairs with a dirty endpoint.
fn clique_counting(
    sets: &TokenSets,
    carry: Option<Carry<'_>>,
    min_score: f64,
) -> (WeightedGraph, u64) {
    let n = sets.len();
    let vocab = sets.tokens.iter().max().map_or(0, |&t| t as usize + 1);
    assert!(vocab <= 3 * n, "token {} out of range for {n} sets (must be < 3n)", vocab - 1);
    let clean = |i: usize| carry.is_some_and(|c| c.prior_of[i] != NO_NODE);
    // CSR postings: holders of token t are `holders[start[t]..start[t + 1]]`,
    // its dirty holders first, then from `split[t]` on its clean ones, each
    // part ascending because nodes are appended in index order.
    let mut start = vec![0usize; vocab + 1];
    for &t in &sets.tokens {
        start[t as usize + 1] += 1;
    }
    for t in 0..vocab {
        start[t + 1] += start[t];
    }
    let mut holders = vec![0u32; start[vocab]];
    let mut head = start.clone();
    let mut split = Vec::new();
    for clean_pass in [false, true] {
        for i in (0..n).filter(|&i| clean(i) == clean_pass) {
            for &t in sets.set(i) {
                holders[head[t as usize]] = i as u32;
                head[t as usize] += 1;
            }
        }
        if !clean_pass {
            split.clone_from(&head);
        }
    }
    // Rewind: while dirty node i is processed, `head[t]` sits on i's own
    // slot among the dirty holders of every token i holds, so the dirty
    // holders above i are the rest of that part.
    head.copy_from_slice(&start);
    let mut shared = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut increments = 0u64;
    // Every kept pair with a dirty endpoint, as `(lower, upper, score)`.
    let mut fresh: Vec<(u32, u32, f64)> = Vec::new();
    for i in (0..n).filter(|&i| !clean(i)) {
        let set = sets.set(i);
        for &t in set {
            let t = t as usize;
            head[t] += 1;
            let dirty_above = &holders[head[t]..split[t]];
            let clean_holders = &holders[split[t]..start[t + 1]];
            increments += (dirty_above.len() + clean_holders.len()) as u64;
            for &j in dirty_above.iter().chain(clean_holders) {
                if shared[j as usize] == 0 {
                    touched.push(j);
                }
                shared[j as usize] += 1;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            let inter = std::mem::take(&mut shared[j as usize]) as usize;
            let union = set.len() + sets.set(j as usize).len() - inter;
            let score = inter as f64 / union as f64;
            if score >= min_score && score > 0.0 {
                let i = i as u32;
                fresh.push(if j > i { (i, j, score) } else { (j, i, score) });
            }
        }
        touched.clear();
    }
    let Some(carry) = carry else {
        // Every node is dirty: the walk emitted the pairs in (i, j > i) order.
        return (WeightedGraph::from_edges(n, &fresh), increments);
    };
    // A clean node's row interleaves the edges carried to clean nodes with
    // the recounted ones to dirty nodes; both are ascending.
    fresh.sort_unstable_by_key(|&(i, j, _)| (i, j));
    let mut edges = Vec::new();
    let mut fresh = fresh.into_iter().peekable();
    for i in 0..n as u32 {
        let p = carry.prior_of[i as usize];
        if p != NO_NODE {
            let row = carry.clique.neighbors(p);
            for &(pj, w) in &row[row.partition_point(|&(pj, _)| pj <= p)..] {
                let j = carry.current_of[pj as usize];
                if j == NO_NODE {
                    continue;
                }
                while let Some(e) = fresh.next_if(|&(fi, fj, _)| fi == i && fj < j) {
                    edges.push(e);
                }
                edges.push((i, j, w));
            }
        }
        while let Some(e) = fresh.next_if(|&(fi, _, _)| fi == i) {
            edges.push(e);
        }
    }
    (WeightedGraph::from_edges(n, &edges), increments)
}

/// MinHash signatures for approximate Jaccard estimation.
///
/// `k` independent hash permutations; the estimate is the fraction of
/// matching signature slots. Standard error ≈ `1/√k`.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

/// A node's MinHash signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(Vec<u64>);

impl MinHasher {
    /// Hasher with `k` permutations derived from `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one hash");
        let mut seeds = Vec::with_capacity(k);
        let mut s = seed | 1;
        for _ in 0..k {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seeds.push(s);
        }
        MinHasher { seeds }
    }

    /// Signature of a set of ids.
    pub fn signature(&self, set: &[u32]) -> Signature {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        for &item in set {
            for (slot, &seed) in self.seeds.iter().enumerate() {
                let h = mix(item as u64 ^ seed);
                if h < sig[slot] {
                    sig[slot] = h;
                }
            }
        }
        Signature(sig)
    }

    /// Estimated Jaccard similarity from two signatures.
    pub fn estimate(&self, a: &Signature, b: &Signature) -> f64 {
        let matches = a.0.iter().zip(&b.0).filter(|(x, y)| x == y).count();
        matches as f64 / self.seeds.len() as f64
    }

    /// Approximate pairwise similarity over arbitrary token sets, at the
    /// default [`Parallelism`].
    pub fn similarity_matrix_of_sets(&self, sets: &[Vec<u32>]) -> SymMatrix {
        self.similarity_matrix_of_sets_with(sets, Parallelism::default())
    }

    /// Approximate pairwise similarity with an explicit worker count:
    /// signatures are sketched in parallel (one per set), then the packed
    /// estimate matrix is filled by row tiles. Deterministic at any worker
    /// count.
    pub fn similarity_matrix_of_sets_with(
        &self,
        sets: &[Vec<u32>],
        parallelism: Parallelism,
    ) -> SymMatrix {
        let sigs: Vec<Signature> = par::par_map(parallelism, sets, |s| self.signature(s));
        let mut m = SymMatrix::zeros(sets.len());
        m.fill_upper(
            parallelism,
            |i, j| {
                if i == j {
                    1.0
                } else {
                    self.estimate(&sigs[i], &sigs[j])
                }
            },
        );
        m
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn set_jaccard_basics() {
        assert_eq!(jaccard_of_sets(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard_of_sets(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(jaccard_of_sets(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard_of_sets(&[], &[]), 0.0);
        assert_eq!(jaccard_of_sets(&[1], &[]), 0.0);
    }

    /// Two "frontends" (0,1) both talk to backends 2,3,4; they never talk to
    /// each other. Jaccard sees them as near-identical.
    fn replica_graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            5,
            &[(0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)],
        )
    }

    #[test]
    fn replicas_score_high_without_direct_edge() {
        let m = jaccard_matrix(&replica_graph());
        assert_eq!(m[(0, 1)], 1.0, "identical neighbor sets");
        assert!(m[(0, 2)] < 0.5, "frontend vs backend dissimilar: {}", m[(0, 2)]);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let m = jaccard_matrix(&replica_graph());
        for i in 0..5 {
            assert_eq!(m[(i, i)], 1.0);
            for j in 0..5 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    #[test]
    fn minhash_estimates_match_exact_within_tolerance() {
        let g = replica_graph();
        let exact = jaccard_matrix(&g);
        let mh = MinHasher::new(256, 42);
        let sets: Vec<Vec<u32>> = (0..g.node_count() as u32).map(|u| g.neighbor_set(u)).collect();
        let approx = mh.similarity_matrix_of_sets(&sets);
        for i in 0..5 {
            for j in 0..5 {
                if i == j {
                    continue;
                }
                assert!(
                    (exact[(i, j)] - approx[(i, j)]).abs() < 0.15,
                    "({i},{j}): exact {} vs minhash {}",
                    exact[(i, j)],
                    approx[(i, j)]
                );
            }
        }
    }

    #[test]
    fn parallel_matrices_bitwise_match_serial() {
        let sets: Vec<Vec<u32>> =
            (0..40u32).map(|i| (0..(i % 7)).map(|k| (i + k * 3) % 25).collect()).collect();
        let sets: Vec<Vec<u32>> = sets
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let serial = jaccard_matrix_of_sets_with(&sets, Parallelism::serial());
        let mh = MinHasher::new(64, 5);
        let mh_serial = mh.similarity_matrix_of_sets_with(&sets, Parallelism::serial());
        for workers in [2, 3, 8] {
            let p = Parallelism::new(workers);
            assert_eq!(jaccard_matrix_of_sets_with(&sets, p), serial, "{workers} workers");
            assert_eq!(mh.similarity_matrix_of_sets_with(&sets, p), mh_serial);
        }
    }

    /// The dense reference [`jaccard_clique`] must equal bit for bit.
    fn dense_clique(sets: &[Vec<u32>], min_score: f64) -> WeightedGraph {
        WeightedGraph::from_similarity(&jaccard_matrix_of_sets(sets), min_score)
    }

    fn assert_same_graph(got: &WeightedGraph, want: &WeightedGraph, what: &str) {
        assert_eq!(got.node_count(), want.node_count(), "{what}");
        let bits = |g: &WeightedGraph, u: u32| -> Vec<(u32, u64)> {
            g.neighbors(u).iter().map(|&(v, w)| (v, w.to_bits())).collect()
        };
        for u in 0..got.node_count() as u32 {
            assert_eq!(bits(got, u), bits(want, u), "{what}: adjacency of {u}");
        }
        assert_eq!(got.total_weight().to_bits(), want.total_weight().to_bits(), "{what}");
    }

    #[test]
    fn clique_equals_thresholded_dense_matrix_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..200 {
            let n = rng.random_range(1usize..81);
            // Vocabularies from "everything collides" up to the full 3n range.
            let vocab = rng.random_range(1u32..3 * n as u32 + 1);
            let sets: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let len = rng.random_range(0usize..13);
                    let mut set: Vec<u32> = (0..len).map(|_| rng.random_range(0..vocab)).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            for min_score in [0.0, 0.1, 1.0 / 3.0, 1.0] {
                assert_same_graph(
                    &jaccard_clique(&sets, min_score),
                    &dense_clique(&sets, min_score),
                    &format!("case {case}, n {n}, vocab {vocab}, min_score {min_score}"),
                );
            }
        }
    }

    #[test]
    fn hub_tokens_meet_the_work_bound_and_never_pass_it() {
        let n = 400usize;
        // One token held by every node, beside a private one each.
        let hub: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![0, 1 + i]).collect();
        // Every node holds every token: the complete-overlap worst case.
        let complete: Vec<Vec<u32>> = vec![(0..30).collect(); n];
        for (what, sets) in [("hub", hub), ("complete", complete)] {
            let (clique, increments) = clique_counting(&TokenSets::of_vecs(&sets), None, 0.1);
            assert_same_graph(&clique, &dense_clique(&sets, 0.1), what);
            let held: usize = sets.iter().map(Vec::len).sum();
            assert!(
                increments <= ((n - 1) * held / 2) as u64,
                "{what}: {increments} increments for {held} tokens held"
            );
        }
    }

    #[test]
    #[should_panic(expected = "token 6 out of range")]
    fn clique_refuses_a_token_at_three_n() {
        jaccard_clique(&[vec![5], vec![6]], 0.1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clique_checks_tokens_before_allocating() {
        // Postings sized by this token before the check would ask for 32 GiB.
        jaccard_clique(&[vec![0], vec![u32::MAX]], 0.1);
    }

    #[test]
    fn minhash_identical_sets_estimate_one() {
        let mh = MinHasher::new(64, 7);
        let s1 = mh.signature(&[10, 20, 30]);
        let s2 = mh.signature(&[10, 20, 30]);
        assert_eq!(mh.estimate(&s1, &s2), 1.0);
    }

    #[test]
    fn minhash_disjoint_sets_estimate_near_zero() {
        let mh = MinHasher::new(256, 7);
        let a: Vec<u32> = (0..50).collect();
        let b: Vec<u32> = (1000..1050).collect();
        let e = mh.estimate(&mh.signature(&a), &mh.signature(&b));
        assert!(e < 0.05, "disjoint estimate {e}");
    }

    #[test]
    fn minhash_deterministic_per_seed() {
        let a = MinHasher::new(32, 9).signature(&[1, 2, 3]);
        let b = MinHasher::new(32, 9).signature(&[1, 2, 3]);
        assert_eq!(a, b);
        let c = MinHasher::new(32, 10).signature(&[1, 2, 3]);
        assert_ne!(a, c, "different seed, different permutations");
    }
}
