//! A batteries-included analysis session over one telemetry window.
//!
//! The experiments and examples all follow the same arc: records → graph →
//! roles → segments → policy → security/summary analyses. [`Workbench`]
//! owns the records once and memoizes each stage, so callers write three
//! lines instead of thirty and never recompute an eigendecomposition.

use algos::roles::{infer_roles_obs, RoleInference, SegmentationMethod};
use algos::stats::{byte_ccdf, CcdfPoint};
use commgraph_graph::collapse::{collapse, PAPER_THRESHOLD};
use commgraph_graph::{CommGraph, Facet, GraphBuilder, Inventory};
use flowlog::record::ConnSummary;
use linalg::pca::{pca_sweep_with, PcaSummary};
use linalg::{Matrix, Parallelism};
use obs::Obs;
use segment::blast::{fleet_blast_report, FleetBlastReport};
use segment::{SegmentPolicy, Segmentation, Violation, ViolationDetector};

/// One-window analysis session. Construct with the window's records and the
/// monitored inventory; every analysis is computed lazily and cached.
pub struct Workbench {
    records: Vec<ConnSummary>,
    monitored: Inventory,
    parallelism: Parallelism,
    obs: Obs,
    ip_graph: Option<CommGraph>,
    roles: Option<RoleInference>,
    segmentation: Option<Segmentation>,
    policy: Option<SegmentPolicy>,
}

impl Workbench {
    /// New session over `records` with the given monitored inventory (a
    /// `HashSet`, or a clone of an [`Inventory`] handle already built).
    pub fn new(records: Vec<ConnSummary>, monitored: impl Into<Inventory>) -> Self {
        Workbench {
            records,
            monitored: monitored.into(),
            parallelism: Parallelism::default(),
            obs: Obs::noop(),
            ip_graph: None,
            roles: None,
            segmentation: None,
            policy: None,
        }
    }

    /// Override the worker count of the row-tiled kernels — the PCA error
    /// profile (builder style). Role inference (the sparse Jaccard clique,
    /// Louvain) and the eigensolver are single-threaded by design, so every
    /// output is bit-for-bit identical at any worker count; the default uses
    /// every available core.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Attach an observability handle (builder style). Each memoized stage
    /// reports a wall-time span on `commgraph_stage_seconds{stage=...}` the
    /// first time it is computed: `build` (graph construction + collapse),
    /// `similarity`/`cluster` (role inference), `policy` (segmentation +
    /// rule learning), `pca` (low-rank sweeps). The default noop handle
    /// skips everything, including the clock reads.
    pub fn with_obs(mut self, o: Obs) -> Self {
        self.obs = o;
        self
    }

    /// The records this session analyzes.
    pub fn records(&self) -> &[ConnSummary] {
        &self.records
    }

    /// The monitored inventory.
    pub fn monitored(&self) -> &Inventory {
        &self.monitored
    }

    /// The IP graph of the window, collapsed at the paper's 0.1% threshold
    /// (memoized).
    ///
    /// Monitored addresses are protected from collapsing — the
    /// subscription's own resources are always visible.
    pub fn ip_graph(&mut self) -> &CommGraph {
        let g = self.ip_graph.take().unwrap_or_else(|| {
            let _span = self.obs.stage_span("build");
            let mut b = GraphBuilder::new(
                Facet::Ip,
                window_start(&self.records),
                window_len(&self.records),
            )
            .with_monitored(self.monitored.clone());
            b.add_all(&self.records);
            let raw = b.finish();
            let monitored = &self.monitored;
            collapse(&raw, PAPER_THRESHOLD, |n| {
                n.ip().map(|ip| monitored.contains(&ip)).unwrap_or(false)
            })
        });
        self.ip_graph.insert(g)
    }

    /// Role inference on the IP graph by the paper's method (memoized).
    pub fn roles(&mut self) -> &RoleInference {
        let roles = match self.roles.take() {
            Some(r) => r,
            None => {
                let method = SegmentationMethod::paper_default();
                let parallelism = self.parallelism;
                let g = self.ip_graph().clone();
                infer_roles_obs(&g, &method, parallelism, &self.obs)
            }
        };
        self.roles.insert(roles)
    }

    /// µsegmentation derived from the inferred roles (memoized).
    pub fn segmentation(&mut self) -> &Segmentation {
        let seg = match self.segmentation.take() {
            Some(s) => s,
            None => {
                let monitored = self.monitored.clone();
                let roles = self.roles().clone();
                let g = self.ip_graph().clone();
                // The roles come from this same ip-facet graph, so the
                // label counts match by construction; should that ever
                // break, degrade to the empty segmentation (no members ⇒
                // downstream policies learn nothing) instead of panicking.
                Segmentation::from_inference(&g, &roles, |ip| monitored.contains(&ip))
                    .unwrap_or_else(|_| Segmentation::empty())
            }
        };
        self.segmentation.insert(seg)
    }

    /// Default-deny policy learned from this window's graph (memoized,
    /// port-scoped): its edges and the service ports each carried. Edges
    /// collapsing merged into `Other` teach nothing — `Other` is never a
    /// policy subject, as the addresses folded into it are in no segment.
    pub fn policy(&mut self) -> &SegmentPolicy {
        let policy = match self.policy.take() {
            Some(p) => p,
            None => {
                let (seg, obs) = (self.segmentation().clone(), self.obs.clone());
                let g = self.ip_graph();
                let _span = obs.stage_span("policy");
                SegmentPolicy::learn_graph(g, &seg, true)
            }
        };
        self.policy.insert(policy)
    }

    /// Check a *different* window's records against this window's learned
    /// policy — the detection workflow.
    pub fn detect(&mut self, later_records: &[ConnSummary]) -> Vec<Violation> {
        let policy = self.policy().clone();
        let seg = self.segmentation().clone();
        let mut det = ViolationDetector::new(seg, policy);
        det.check_all(later_records)
    }

    /// Fleet-wide blast-radius report under the learned segmentation.
    pub fn blast_report(&mut self) -> FleetBlastReport {
        let policy = self.policy().clone();
        fleet_blast_report(self.segmentation(), &policy)
    }

    /// Byte CCDF of the IP graph (Figure 6).
    pub fn ccdf(&mut self) -> Vec<CcdfPoint> {
        byte_ccdf(self.ip_graph())
    }

    /// PCA reconstruction-error sweep on the byte matrix (§2.2).
    pub fn pca_summary(&mut self, ks: &[usize]) -> linalg::Result<PcaSummary> {
        let m = self.byte_matrix()?;
        let _span = self.obs.stage_span("pca");
        pca_sweep_with(&m, ks, self.parallelism)
    }

    /// Dense symmetric byte matrix of the collapsed IP graph.
    pub fn byte_matrix(&mut self) -> linalg::Result<Matrix> {
        let rows = self
            .ip_graph()
            .byte_matrix(4096)
            .map_err(|e| linalg::Error::InvalidArg(e.to_string()))?;
        Ok(Matrix::from_rows(rows))
    }
}

fn window_start(records: &[ConnSummary]) -> u64 {
    records.iter().map(|r| r.ts).min().unwrap_or(0)
}

fn window_len(records: &[ConnSummary]) -> u64 {
    let start = window_start(records);
    let end = records.iter().map(|r| r.ts).max().unwrap_or(0);
    (end - start).max(60) + 60
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{ClusterPreset, Simulator};
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    fn session() -> Workbench {
        let preset = ClusterPreset::MicroserviceBench;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
        let records = sim.collect(5);
        let monitored: HashSet<Ipv4Addr> =
            sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
        Workbench::new(records, monitored)
    }

    #[test]
    fn full_arc_runs() {
        let mut wb = session();
        let nodes = wb.ip_graph().node_count();
        assert!(nodes > 5, "graph has nodes: {nodes}");
        let n_roles = wb.roles().n_roles;
        assert!(n_roles >= 2, "found roles: {n_roles}");
        assert!(wb.segmentation().len() >= n_roles, "external splits can add segments");
        assert!(wb.policy().rule_count() > 0);
        let blast = wb.blast_report();
        assert!(blast.mean_direct_fraction <= 1.0);
        let ccdf = wb.ccdf();
        assert!(!ccdf.is_empty());
    }

    #[test]
    fn memoization_returns_same_results() {
        let mut wb = session();
        let a = wb.roles().labels.clone();
        let b = wb.roles().labels.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn self_detection_is_quiet() {
        let mut wb = session();
        let records = wb.records().to_vec();
        let violations = wb.detect(&records);
        assert!(
            violations.is_empty(),
            "the learning window can never violate its own policy: {} hits",
            violations.len()
        );
    }

    #[test]
    fn stage_spans_cover_the_full_arc() {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut wb = session().with_obs(Obs::new(registry.clone()));
        wb.policy();
        wb.pca_summary(&[2]).unwrap();
        for stage in ["build", "similarity", "cluster", "policy", "pca"] {
            let h = registry.histogram(obs::STAGE_SECONDS, "", &[("stage", stage)]);
            assert_eq!(h.count(), 1, "stage {stage} timed exactly once (memoized)");
        }
        // Memoized reuse must not add new samples.
        wb.roles();
        wb.policy();
        let h = registry.histogram(obs::STAGE_SECONDS, "", &[("stage", "cluster")]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn pca_summary_is_bit_identical_at_any_worker_count() {
        let bits = |workers: usize| -> Vec<u64> {
            let mut wb = session().with_parallelism(Parallelism::new(workers));
            wb.pca_summary(&[25]).unwrap().errors.iter().map(|e| e.err.to_bits()).collect()
        };
        let serial = bits(1);
        assert!(!serial.is_empty());
        for workers in [2, Parallelism::available().workers()] {
            assert_eq!(bits(workers), serial, "{workers} workers");
        }
    }

    #[test]
    fn pca_summary_agrees_with_a_full_jacobi_sweep() {
        // K8s PaaS is the §2.2 cluster; at this size 2 · 25 < n, so the
        // summary runs the top-k solver and the oracle the full one.
        let preset = ClusterPreset::K8sPaas;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
        let records = sim.collect(5);
        let monitored: HashSet<Ipv4Addr> = sim.ground_truth().ip_roles.keys().copied().collect();
        let mut wb = Workbench::new(records, monitored);
        let m = wb.byte_matrix().unwrap();
        assert!(m.rows() > 50, "n = {} must exceed 2k", m.rows());
        let full = linalg::eigen_symmetric(&m, 1e-10).unwrap();
        let oracle = linalg::pca::recon_err_profile(&full, &m).unwrap();
        let summary = wb.pca_summary(&[25]).unwrap();
        assert_eq!(summary.errors.len(), 1);
        assert!((summary.errors[0].err - oracle[25]).abs() < 1e-9);
        assert_eq!(summary.k_for_5_percent, oracle[..=25].iter().position(|&e| e < 0.05));
    }

    #[test]
    fn pca_on_small_cluster() {
        let mut wb = session();
        let summary = wb.pca_summary(&[1, 4, 16]).unwrap();
        assert_eq!(summary.errors.len(), 3);
        assert!(summary.errors[2].err <= summary.errors[0].err);
    }
}
