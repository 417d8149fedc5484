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

use commgraph_graph::{Adjacent, CommGraph, NodeId};
use linalg::eigen::eigen_top_k;
use linalg::Matrix;
use serde::Serialize;
use std::collections::HashMap;

/// Errors from model fitting and scoring.
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyError {
    /// The baseline graph could not be densified or decomposed.
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
#[derive(Debug, Clone)]
pub struct PatternModel {
    /// Node order the matrix rows correspond to.
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    /// Top-k eigenvectors of the (log-scaled) baseline matrix as the
    /// columns of an n × k matrix, and its transpose.
    vk: Matrix,
    vkt: Matrix,
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
fn log_bytes(v: f64) -> f64 {
    (1.0 + v).ln()
}

impl PatternModel {
    /// Fit the model on a baseline window's graph, keeping `k` components.
    pub fn fit(baseline: &CommGraph, k: usize) -> Result<Self, AnomalyError> {
        let raw = baseline.byte_matrix(4096).map_err(|e| AnomalyError::Fit(e.to_string()))?;
        let n = raw.len();
        if n == 0 {
            return Err(AnomalyError::Fit("baseline graph is empty".into()));
        }
        let k = k.min(n);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = log_bytes(raw[i][j]);
            }
        }
        let vk = eigen_top_k(&m, k, 1e-9).map_err(|e| AnomalyError::Fit(e.to_string()))?.vectors;
        let vkt = vk.transpose();
        let nodes: Vec<NodeId> = baseline.nodes().to_vec();
        let index = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut model = PatternModel { nodes, index, vk, vkt, baseline_residual: 0.0 };
        model.baseline_residual = model.residual_of(&m).map_err(AnomalyError::Fit)?;
        Ok(model)
    }

    /// Number of baseline nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Project a matrix onto the retained eigenspace and return the
    /// relative L1 residual. The `Err` arm carries a shape-mismatch
    /// message; callers wrap it in their phase's [`AnomalyError`] variant.
    fn residual_of(&self, m: &Matrix) -> Result<f64, String> {
        // P(M) = Σ_c v_c v_cᵀ M v_c v_cᵀ is the full two-sided projection;
        // for symmetric M with an orthonormal basis V_k, use
        // P(M) = V_k V_kᵀ M V_k V_kᵀ.
        let (vk, vkt) = (&self.vk, &self.vkt);
        let inner = vkt.matmul(m).and_then(|x| x.matmul(vk)).map_err(|e| e.to_string())?;
        let proj = vk.matmul(&inner).and_then(|x| x.matmul(vkt)).map_err(|e| e.to_string())?;
        let denom = m.abs_sum();
        if denom == 0.0 {
            return Ok(0.0);
        }
        Ok(m.sub(&proj).map_err(|e| e.to_string())?.abs_sum() / denom)
    }

    /// Score a later window against the learned patterns.
    pub fn score(&self, window: &CommGraph) -> Result<AnomalyScore, AnomalyError> {
        let n = self.nodes.len();
        let mut m = Matrix::zeros(n, n);
        let mut novel_bytes = 0u64;
        let mut total_bytes = 0u64;
        for i in 0..window.node_count() as u32 {
            let a = window.node(i);
            for &Adjacent { node: j, stats, .. } in window.neighbors(i) {
                if j < i {
                    continue;
                }
                let b = window.node(j);
                total_bytes += stats.bytes();
                match (self.index.get(&a), self.index.get(&b)) {
                    (Some(&ia), Some(&ib)) => {
                        let v = log_bytes(stats.bytes() as f64);
                        m[(ia, ib)] = v;
                        m[(ib, ia)] = v;
                    }
                    _ => novel_bytes += stats.bytes(),
                }
            }
        }
        let residual = self.residual_of(&m).map_err(AnomalyError::Score)?;
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
}
