//! Turning the summarization model into an anomaly detector (§2.2).
//!
//! "We ask whether it may be possible to convert such a summarization model
//! into an anomaly detector. That is, a model that can capture the key
//! patterns may also be able to identify when the patterns change."
//!
//! This module is that conversion, built on the crate's PCA machinery
//! instead of the paper's speculative GNN auto-encoder: learn the top-k
//! eigenspace of a baseline window's byte matrix, then score later windows
//! by how badly that basis reconstructs them. Traffic that follows the
//! learned patterns projects cleanly (low residual); structural novelty —
//! new heavy edges, shifted bands, exfiltration — lands in the orthogonal
//! complement and drives the score up. A threshold calibrated on baseline
//! self-variation separates "the usual breathing" from "something changed".
//!
//! The byte matrix is never formed: fit and score read the graph's neighbour
//! lists as a sparse operator, the one `Workbench::pca_summary` reads, so
//! a window has no node cap and a score holds O(n·k) beside it.

use crate::workbench::graph_operator;
use commgraph_graph::{CommGraph, NodeId};
use linalg::eigen::{eigen_top_k_csr, EigenDecomposition};
use linalg::pca::projection_residual_csr;
use serde::Serialize;

/// Errors from model fitting and scoring.
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyError {
    /// The baseline graph could not be decomposed.
    Fit(String),
    /// A scored window was incompatible with the model.
    Score(String),
}

impl std::fmt::Display for AnomalyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnomalyError::Fit(m) => write!(f, "anomaly model fit failed: {m}"),
            AnomalyError::Score(m) => write!(f, "anomaly scoring failed: {m}"),
        }
    }
}

impl std::error::Error for AnomalyError {}

/// A fitted pattern model: the baseline's node basis and top-k eigenspace.
// bound: n · k basis values (and k eigenvalues) plus n node ids, for the
// baseline's n nodes; fixed once fitted.
#[derive(Debug, Clone)]
pub struct PatternModel {
    /// The baseline's nodes, sorted as [`CommGraph::nodes`] keeps them:
    /// row a of the basis is node a, found by binary search.
    nodes: Vec<NodeId>,
    /// Top-k eigenpairs of the log-scaled baseline operator; the residual
    /// reads the n × k vectors.
    basis: EigenDecomposition,
    /// Residual of the baseline against its own basis — the noise floor.
    pub baseline_residual: f64,
}

/// Score of one window against a [`PatternModel`].
#[derive(Debug, Clone, Serialize)]
pub struct AnomalyScore {
    /// Window start time.
    pub(crate) window_start: u64,
    /// Relative residual: `‖M − P(M)‖₁ / ‖M‖₁` after projecting onto the
    /// baseline eigenspace.
    pub residual: f64,
    /// Residual divided by the baseline noise floor; > threshold ⇒ anomaly.
    pub score: f64,
    /// Traffic from nodes unseen in the baseline (not representable in the
    /// basis at all), as a fraction of window bytes.
    pub novel_node_frac: f64,
}

/// Log-scale the byte matrix: anomaly structure should not be drowned by
/// the absolute magnitude of the biggest band.
fn log_bytes(bytes: u64) -> f64 {
    (1.0 + bytes as f64).ln()
}

impl PatternModel {
    /// Fit the model on a baseline window's graph, keeping `k` components.
    pub fn fit(baseline: &CommGraph, k: usize) -> Result<Self, AnomalyError> {
        let fit_err = |e: linalg::Error| AnomalyError::Fit(e.to_string());
        let nodes = baseline.nodes().to_vec();
        if nodes.is_empty() {
            return Err(AnomalyError::Fit("baseline graph is empty".into()));
        }
        let m = graph_operator(baseline, &nodes, log_bytes).map_err(fit_err)?;
        let basis = eigen_top_k_csr(&m, k.min(nodes.len()), 1e-9).map_err(fit_err)?;
        let baseline_residual = projection_residual_csr(&basis.vectors, &m).map_err(fit_err)?;
        Ok(PatternModel { nodes, basis, baseline_residual })
    }

    /// Score a later window against the learned patterns: its operator over
    /// the baseline's nodes, projected onto the basis. An edge with an
    /// endpoint outside the baseline has no row there; its bytes count
    /// toward `novel_node_frac` instead.
    pub fn score(&self, window: &CommGraph) -> Result<AnomalyScore, AnomalyError> {
        let score_err = |e: linalg::Error| AnomalyError::Score(e.to_string());
        let known: Vec<bool> =
            window.nodes().iter().map(|n| self.nodes.binary_search(n).is_ok()).collect();
        let (mut novel_bytes, mut total_bytes) = (0u64, 0u64);
        for i in 0..window.node_count() as u32 {
            for e in window.neighbors(i).iter().filter(|e| e.node >= i) {
                total_bytes += e.stats.bytes();
                if !(known[i as usize] && known[e.node as usize]) {
                    novel_bytes += e.stats.bytes();
                }
            }
        }
        let m = graph_operator(window, &self.nodes, log_bytes).map_err(score_err)?;
        let residual = projection_residual_csr(&self.basis.vectors, &m).map_err(score_err)?;
        // A perfectly low-rank baseline has a ~zero self-residual; floor the
        // denominator so the score stays a meaningful ratio (1% relative
        // residual is treated as the minimum credible noise floor).
        const NOISE_FLOOR: f64 = 0.01;
        let score = residual / self.baseline_residual.max(NOISE_FLOOR);
        Ok(AnomalyScore {
            window_start: window.window_start(),
            residual,
            score,
            novel_node_frac: if total_bytes == 0 {
                0.0
            } else {
                novel_bytes as f64 / total_bytes as f64
            },
        })
    }
}

impl PatternModel {
    /// Calibrate a detection threshold from known-clean windows: the
    /// largest clean score times a safety `margin` (1.5 is a reasonable
    /// default). Scores above the returned value are anomalies; benign
    /// breathing — diurnal drift, per-edge noise — stays below it by
    /// construction.
    pub fn calibrate_threshold(
        &self,
        clean_windows: &[CommGraph],
        margin: f64,
    ) -> Result<f64, AnomalyError> {
        assert!(margin >= 1.0, "margin must be >= 1");
        let mut worst: f64 = 1.0;
        for w in clean_windows {
            worst = worst.max(self.score(w)?.score);
        }
        Ok(worst * margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::EdgeStats;
    use linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn node(d: u8) -> NodeId {
        NodeId::Ip(Ipv4Addr::new(10, 0, 0, d))
    }

    fn stats(bytes: u64) -> EdgeStats {
        EdgeStats { bytes_fwd: bytes, conns: 1, ..Default::default() }
    }

    /// Two-tier structure: frontends 1..4 each talk to backends 10..13.
    fn tiered(start: u64, noise: u64) -> CommGraph {
        let mut edges = HashMap::new();
        for f in 1..=4u8 {
            for b in 10..=13u8 {
                edges.insert(
                    (node(f), node(b)),
                    stats(1_000_000 + (f as u64 * 31 + b as u64 * 7) * noise),
                );
            }
        }
        CommGraph::from_edge_map("ip", start, 3600, edges)
    }

    #[test]
    fn steady_windows_score_near_one() {
        let base = tiered(0, 100);
        let model = PatternModel::fit(&base, 4).expect("fit");
        let next = tiered(3600, 120); // mild volume wobble
        let s = model.score(&next).expect("score");
        assert!(s.score < 2.0, "same structure must stay under 2x the noise floor: {}", s.score);
        assert_eq!(s.novel_node_frac, 0.0);
    }

    #[test]
    fn structural_change_raises_the_score() {
        let base = tiered(0, 100);
        let model = PatternModel::fit(&base, 3).expect("fit");
        // Same nodes, very different structure: frontends now talk to each
        // other in a dense clique and drop half the backend edges.
        let mut edges = HashMap::new();
        for a in 1..=4u8 {
            for b in (a + 1)..=4u8 {
                edges.insert((node(a), node(b)), stats(2_000_000));
            }
        }
        edges.insert((node(1), node(10)), stats(1_000_000));
        let weird = CommGraph::from_edge_map("ip", 3600, 3600, edges);
        let steady_score = model.score(&tiered(3600, 110)).expect("score").score;
        let weird_score = model.score(&weird).expect("score").score;
        assert!(
            weird_score > steady_score * 2.0,
            "restructured traffic must score much higher: steady {steady_score}, weird {weird_score}"
        );
    }

    #[test]
    fn novel_nodes_are_reported() {
        let base = tiered(0, 100);
        let model = PatternModel::fit(&base, 4).expect("fit");
        let mut edges = HashMap::new();
        edges.insert((node(1), node(10)), stats(1_000_000));
        // Exfiltration to an address the baseline never saw.
        edges.insert((node(1), NodeId::Ip(Ipv4Addr::new(203, 0, 113, 9))), stats(3_000_000));
        let w = CommGraph::from_edge_map("ip", 3600, 3600, edges);
        let s = model.score(&w).expect("score");
        assert!(s.novel_node_frac > 0.5, "most bytes went to a novel peer: {}", s.novel_node_frac);
    }

    #[test]
    fn empty_baseline_is_an_error() {
        let empty = CommGraph::from_edge_map("ip", 0, 3600, HashMap::new());
        assert!(matches!(PatternModel::fit(&empty, 4), Err(AnomalyError::Fit(_))));
    }

    #[test]
    fn detect_over_window_sequence() {
        // Fit on the first window, score the rest: steady windows stay under
        // twice the baseline noise floor.
        let windows = [tiered(0, 100), tiered(3600, 105), tiered(7200, 95)];
        let model = PatternModel::fit(&windows[0], 4).expect("fit");
        let scores: Vec<AnomalyScore> =
            windows[1..].iter().map(|w| model.score(w).expect("score")).collect();
        assert_eq!(scores.iter().map(|s| s.window_start).collect::<Vec<_>>(), [3600, 7200]);
        assert!(scores.iter().all(|s| s.score < 2.0), "{scores:?}");
    }

    #[test]
    fn empty_sequence_is_fine() {
        let model = PatternModel::fit(&tiered(0, 100), 4).expect("fit");
        // No clean windows: the threshold is the noise-floor ratio 1 × margin.
        assert_eq!(model.calibrate_threshold(&[], 1.5).expect("calibrate"), 1.5);
        // A window without traffic scores zero.
        let empty = CommGraph::from_edge_map("ip", 3600, 3600, HashMap::new());
        let s = model.score(&empty).expect("score");
        assert_eq!((s.residual, s.score, s.novel_node_frac), (0.0, 0.0, 0.0));
    }

    #[test]
    fn calibrated_threshold_separates_clean_from_weird() {
        let model = PatternModel::fit(&tiered(0, 100), 3).expect("fit");
        let clean = vec![tiered(3600, 110), tiered(7200, 90)];
        let threshold = model.calibrate_threshold(&clean, 1.5).expect("calibrate");
        // A clean holdout stays under the calibrated threshold.
        let holdout = model.score(&tiered(10_800, 105)).expect("score");
        assert!(holdout.score <= threshold, "{} vs {threshold}", holdout.score);
        // Restructured traffic exceeds it.
        let mut edges = HashMap::new();
        for a in 1..=4u8 {
            for b in (a + 1)..=4u8 {
                edges.insert((node(a), node(b)), stats(2_000_000));
            }
        }
        let weird = CommGraph::from_edge_map("ip", 14_400, 3600, edges);
        assert!(model.score(&weird).expect("score").score > threshold);
    }

    /// The dense path the model took before it ran on the graph's operator,
    /// kept as the oracle: the log-byte matrix over `nodes` (a window's
    /// edges with an endpoint outside them go to the novel bytes instead),
    /// and the residual of its two-sided projection `Vₖ Vₖᵀ M Vₖ Vₖᵀ`.
    fn dense_log_matrix(g: &CommGraph, nodes: &[NodeId]) -> (Matrix, f64) {
        let index: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut m = Matrix::zeros(nodes.len(), nodes.len());
        let (mut novel, mut total) = (0u64, 0u64);
        for i in 0..g.node_count() as u32 {
            for e in g.neighbors(i).iter().filter(|e| e.node >= i) {
                total += e.stats.bytes();
                match (index.get(&g.node(i)), index.get(&g.node(e.node))) {
                    (Some(&a), Some(&b)) => {
                        m[(a, b)] = log_bytes(e.stats.bytes());
                        m[(b, a)] = log_bytes(e.stats.bytes());
                    }
                    _ => novel += e.stats.bytes(),
                }
            }
        }
        (m, if total == 0 { 0.0 } else { novel as f64 / total as f64 })
    }

    fn dense_residual(vk: &Matrix, m: &Matrix) -> f64 {
        let vkt = vk.transpose();
        let inner = vkt.matmul(m).and_then(|x| x.matmul(vk)).unwrap();
        let proj = vk.matmul(&inner).and_then(|x| x.matmul(&vkt)).unwrap();
        let denom = m.abs_sum();
        if denom == 0.0 {
            0.0
        } else {
            m.sub(&proj).unwrap().abs_sum() / denom
        }
    }

    /// A random graph over `ids`: each pair (self-loops included) is an
    /// edge with probability `p`, its bytes spread over nine decades, zero
    /// included.
    fn random_graph(rng: &mut StdRng, start: u64, ids: &[u32], p: f64) -> CommGraph {
        let mut edges = HashMap::new();
        for (x, &a) in ids.iter().enumerate() {
            for &b in &ids[x..] {
                if rng.random_bool(p) {
                    let bytes = 10u64.pow(rng.random_range(0..10u32)) * rng.random_range(0..7u64);
                    let (a, b) = (NodeId::Ip(Ipv4Addr::from(a)), NodeId::Ip(Ipv4Addr::from(b)));
                    edges.insert((a.min(b), a.max(b)), stats(bytes));
                }
            }
        }
        CommGraph::from_edge_map("ip", start, 3600, edges)
    }

    /// The operator path equals the dense oracle on random baselines and
    /// windows: n ∈ 2..=200 and k ∈ 1..=n (both sides of the top-k
    /// solver's Lanczos / Jacobi switch at 2k < n), with self-loops,
    /// baseline nodes absent from the window and window nodes absent from
    /// the baseline. The operator is the dense matrix, and the noise floor,
    /// the window's residual and its novel fraction are the dense path's
    /// bit for bit.
    #[test]
    fn operator_residuals_equal_the_dense_oracle() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut lanczos = 0;
        // Both ends of the range, then n log-uniform, so the Jacobi solves
        // of the large cases stay few in a debug build.
        let ends = [(2, 1), (2, 2), (200, 1), (200, 4)];
        for case in 0..24 {
            let (n, k) = ends.get(case).copied().unwrap_or_else(|| {
                let n = (2.0 * 100f64.powf(rng.random_range(0.0..1.0))).round() as usize;
                (n, rng.random_range(1..n + 1))
            });
            lanczos += usize::from(2 * k < n);
            let ids: Vec<u32> = (0..n as u32).map(|i| 0x0A00_0000 + 3 * i).collect();
            let p: f64 = rng.random_range(0.02..0.3);
            let base = random_graph(&mut rng, 0, &ids, p.max(2.5 / n as f64));
            let model = PatternModel::fit(&base, k).expect("fit");
            let nodes = base.nodes();
            let (m, _) = dense_log_matrix(&base, nodes);
            let operator = graph_operator(&base, nodes, log_bytes).expect("operator");
            assert_eq!(operator.to_dense(), m, "case {case}: the operator is the dense matrix");
            let vk = &model.basis.vectors;
            let want = dense_residual(vk, &m);
            assert_eq!(model.baseline_residual.to_bits(), want.to_bits(), "case {case}");

            // A window over half the baseline's addresses, the gaps between
            // them (never in the baseline) and a few beyond.
            let window_ids: Vec<u32> = ids
                .iter()
                .flat_map(|&a| [a, a + 1])
                .filter(|_| rng.random_bool(0.5))
                .chain([0x0B00_0000, 0x0B00_0001])
                .collect();
            let window = random_graph(&mut rng, 3600, &window_ids, p);
            let s = model.score(&window).expect("score");
            let (w, novel) = dense_log_matrix(&window, nodes);
            let want = dense_residual(vk, &w);
            assert_eq!(s.residual.to_bits(), want.to_bits(), "case {case}");
            assert_eq!(s.novel_node_frac.to_bits(), novel.to_bits(), "case {case}");
        }
        assert!((4..20).contains(&lanczos), "both solver paths run: {lanczos} Lanczos cases");
    }

    /// No node cap: a 4 201-node star (above the 4 096 nodes the dense
    /// byte matrix allowed) fits and scores. Its leading pair leaves
    /// `‖w‖/2` on the hub, `wᵢ/2` on each edge entry and `wᵢwⱼ/(2‖w‖)`
    /// between leaves, for the log-byte weights w.
    #[test]
    fn a_baseline_above_the_old_dense_cap_fits_and_scores() {
        let hub = NodeId::Ip(Ipv4Addr::new(10, 0, 0, 1));
        let leaf = |i: u32| NodeId::Ip(Ipv4Addr::from(0x0A01_0000 + i));
        let star: HashMap<_, _> =
            (0..4200u32).map(|i| ((hub, leaf(i)), stats(1_000 + u64::from(i)))).collect();
        let base = CommGraph::from_edge_map("ip", 0, 3600, star);
        assert_eq!(base.node_count(), 4201);
        let model = PatternModel::fit(&base, 1).expect("no node cap");
        let w: Vec<f64> = (0..4200).map(|i| log_bytes(1_000 + i)).collect();
        let (sum, norm) = (w.iter().sum::<f64>(), w.iter().map(|x| x * x).sum::<f64>().sqrt());
        let want = (norm / 2.0 + sum + sum * sum / (2.0 * norm)) / (2.0 * sum);
        assert!(
            (model.baseline_residual - want).abs() < 1e-9 * want,
            "{} vs {want}",
            model.baseline_residual
        );

        // The same star an hour later, one leaf swapped for a new address.
        let mut star: HashMap<_, _> =
            (1..4200u32).map(|i| ((hub, leaf(i)), stats(1_000 + u64::from(i)))).collect();
        star.insert((hub, leaf(5000)), stats(1_000));
        let s = model.score(&CommGraph::from_edge_map("ip", 3600, 3600, star)).expect("score");
        assert!(s.score < 1.1, "the learned structure: {}", s.score);
        assert!(s.novel_node_frac > 0.0 && s.novel_node_frac < 1e-3, "{}", s.novel_node_frac);
    }
}
