//! A batteries-included analysis session over one telemetry window.
//!
//! The experiments and examples all follow the same arc: records → graph →
//! roles → segments → policy → security/summary analyses. [`Workbench`]
//! holds the window's graph — aggregated from records by
//! [`Workbench::new`], or by a [`GraphBuilder`] the caller fed record by
//! record (`Workbench::from_builder`) — and memoizes each stage, so callers
//! write three lines instead of thirty and never recompute an
//! eigendecomposition. It keeps no record.

use algos::roles::{infer_roles_obs, RoleInference, SegmentationMethod};
use algos::stats::{byte_ccdf, CcdfPoint};
use commgraph_graph::collapse::{collapse, PAPER_THRESHOLD};
use commgraph_graph::{CommGraph, Facet, GraphBuilder, Inventory};
use flowlog::record::ConnSummary;
use linalg::pca::{pca_sweep_csr, PcaSummary};
use linalg::{Matrix, Parallelism, SymCsr};
use obs::Obs;
use segment::blast::{fleet_blast_report, FleetBlastReport};
use segment::{SegmentPolicy, Segmentation, Violation, ViolationDetector};

/// One-window analysis session over the window's IP graph and the monitored
/// inventory; every analysis is computed lazily and cached.
pub struct Workbench {
    /// The window's graph as aggregated, before collapsing.
    window: CommGraph,
    /// Records offered to build it, vantage duplicates included.
    records: u64,
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
    /// `HashSet`, or a clone of an [`Inventory`] handle already built). The
    /// records are aggregated here, under vantage dedup, and not kept.
    pub fn new(records: Vec<ConnSummary>, monitored: impl Into<Inventory>) -> Self {
        let (start, len) = window_of(&records);
        let mut b = GraphBuilder::new(Facet::Ip, start, len).with_monitored(monitored);
        b.add_all(&records);
        Workbench::from_builder(b)
    }

    /// New session over the window a [`Facet::Ip`] builder aggregated; its
    /// inventory is the session's. The builder may have been fed as the
    /// records streamed past — a monitor's learning period — so the window
    /// never existed as a record buffer.
    pub(crate) fn from_builder(b: GraphBuilder) -> Self {
        Workbench {
            records: b.record_counts().0,
            monitored: b.monitored().clone(),
            window: b.finish(),
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
    /// first time it is computed: `build` (collapsing the window's graph),
    /// `similarity`/`cluster` (role inference), `policy` (segmentation +
    /// rule learning), `pca` (low-rank sweeps). The default noop handle
    /// skips everything, including the clock reads.
    pub fn with_obs(mut self, o: Obs) -> Self {
        self.obs = o;
        self
    }

    /// Records offered to the window's graph, vantage duplicates included.
    pub(crate) fn record_count(&self) -> u64 {
        self.records
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
            let monitored = &self.monitored;
            collapse(&self.window, PAPER_THRESHOLD, |n| {
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

    /// PCA reconstruction-error sweep on the byte matrix (§2.2), run on the
    /// collapsed IP graph as a sparse operator: no n × n buffer and no node
    /// cap, and the same bits as [`pca_sweep_with`](linalg::pca::pca_sweep_with) on
    /// [`Workbench::byte_matrix`].
    pub fn pca_summary(&mut self, ks: &[usize]) -> linalg::Result<PcaSummary> {
        let g = self.ip_graph();
        // Node i's neighbour list is row i of the byte matrix: ascending,
        // a self-loop entered once, symmetric by construction.
        let rows = (0..g.node_count() as u32)
            .map(|i| g.neighbors(i).iter().map(|e| (e.node, e.stats.bytes() as f64)));
        let m = SymCsr::from_sorted_rows(g.node_count(), rows)?;
        let _span = self.obs.stage_span("pca");
        pca_sweep_csr(&m, ks, self.parallelism)
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

/// The window `records` span, read in one pass: it starts at the earliest
/// timestamp (0 for none) and lasts at least a minute past the latest.
fn window_of(records: &[ConnSummary]) -> (u64, u64) {
    let (first, last) =
        records.iter().fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.ts), hi.max(r.ts)));
    let start = if records.is_empty() { 0 } else { first };
    (start, (last - start).max(60) + 60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{ClusterPreset, Simulator};
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    fn window() -> (Vec<ConnSummary>, HashSet<Ipv4Addr>) {
        let preset = ClusterPreset::MicroserviceBench;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
        let records = sim.collect(5);
        let monitored: HashSet<Ipv4Addr> =
            sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
        (records, monitored)
    }

    fn session() -> Workbench {
        let (records, monitored) = window();
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

    /// A session over a builder fed as the records streamed past — minute
    /// by minute, into a window whose start and length are the caller's —
    /// analyzes exactly what a session over the buffered records does.
    #[test]
    fn builder_fed_session_equals_record_session() {
        let (records, monitored) = window();
        let mut buffered = Workbench::new(records.clone(), monitored.clone());
        let mut b = GraphBuilder::new(Facet::Ip, 0, 300).with_monitored(monitored);
        for minute in records.chunk_by(|a, b| a.ts / 60 == b.ts / 60) {
            b.add_all(minute);
        }
        let mut streamed = Workbench::from_builder(b);
        assert_eq!(streamed.record_count(), records.len() as u64);
        assert_eq!(streamed.record_count(), buffered.record_count());
        let (g, want) = (streamed.ip_graph().clone(), buffered.ip_graph().clone());
        assert_eq!(g.nodes(), want.nodes());
        assert_eq!(g.totals(), want.totals());
        for i in 0..g.node_count() as u32 {
            assert_eq!(g.neighbors(i), want.neighbors(i), "node {i}");
        }
        assert_eq!(streamed.roles().labels, buffered.roles().labels);
        assert_eq!(streamed.segmentation().len(), buffered.segmentation().len());
        assert_eq!(streamed.policy().rules(), buffered.policy().rules());
        assert!(streamed.policy().rule_count() > 0);
    }

    #[test]
    fn self_detection_is_quiet() {
        let (records, monitored) = window();
        let mut wb = Workbench::new(records.clone(), monitored);
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
            let h = registry.histogram(&obs::names::STAGE_SECONDS, [stage]);
            assert_eq!(h.count(), 1, "stage {stage} timed exactly once (memoized)");
        }
        // Memoized reuse must not add new samples.
        wb.roles();
        wb.policy();
        let h = registry.histogram(&obs::names::STAGE_SECONDS, ["cluster"]);
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

    /// A session on K8s PaaS, the §2.2 cluster, at a size where 2 · 25 < n.
    fn k8s_session() -> Workbench {
        let preset = ClusterPreset::K8sPaas;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
        let records = sim.collect(5);
        let monitored: HashSet<Ipv4Addr> = sim.ground_truth().ip_roles.keys().copied().collect();
        Workbench::new(records, monitored)
    }

    #[test]
    fn pca_summary_agrees_with_a_full_jacobi_sweep() {
        // The summary runs the top-k solver and the oracle the full one.
        let mut wb = k8s_session();
        let m = wb.byte_matrix().unwrap();
        assert!(m.rows() > 50, "n = {} must exceed 2k", m.rows());
        let full = linalg::eigen_symmetric(&m, 1e-10).unwrap();
        let oracle = linalg::pca::recon_err_profile(&full, &m).unwrap();
        let summary = wb.pca_summary(&[25]).unwrap();
        assert_eq!(summary.errors.len(), 1);
        assert!((summary.errors[0].err - oracle[25]).abs() < 1e-9);
        assert_eq!(summary.k_for_5_percent, oracle[..=25].iter().position(|&e| e < 0.05));
    }

    /// The graph-built operator and the dense byte matrix are one input to
    /// one kernel: every summary bit agrees, on both sides of the top-k
    /// solver's `2k < n` rule.
    #[test]
    fn pca_summary_equals_the_dense_sweep_bit_for_bit() {
        for mut wb in [session(), k8s_session()] {
            let m = wb.byte_matrix().unwrap();
            for ks in [&[1, 4, 16][..], &[25], &[m.rows()]] {
                let dense = linalg::pca::pca_sweep_with(&m, ks, wb.parallelism).unwrap();
                let sparse = wb.pca_summary(ks).unwrap();
                assert_eq!(sparse.k_for_5_percent, dense.k_for_5_percent, "n = {}", m.rows());
                let bits = |s: &PcaSummary| -> Vec<(usize, u64)> {
                    s.errors.iter().map(|e| (e.k, e.err.to_bits())).collect()
                };
                assert_eq!(bits(&sparse), bits(&dense), "n = {}, ks = {ks:?}", m.rows());
            }
        }
    }

    /// The summary has no node cap: a star of 4 200 monitored leaves (none
    /// folded by collapsing) is summarized where the dense byte matrix is
    /// refused.
    #[test]
    fn pca_summary_of_a_graph_above_the_dense_cap() {
        let hub = Ipv4Addr::new(10, 0, 0, 1);
        let leaves: Vec<Ipv4Addr> = (0..4200u32).map(|i| Ipv4Addr::from(0x0A01_0000 + i)).collect();
        let records: Vec<ConnSummary> = leaves
            .iter()
            .enumerate()
            .map(|(i, &leaf)| ConnSummary {
                ts: 0,
                key: flowlog::FlowKey::tcp(hub, 443, leaf, 50_000),
                pkts_sent: 1,
                pkts_rcvd: 1,
                bytes_sent: 1_000 + i as u64,
                bytes_rcvd: 100,
            })
            .collect();
        let monitored: HashSet<Ipv4Addr> = leaves.iter().copied().chain([hub]).collect();
        let mut wb = Workbench::new(records, monitored);
        assert_eq!(wb.ip_graph().node_count(), 4201);
        assert!(wb.byte_matrix().is_err(), "the dense form keeps its cap");
        let summary = wb.pca_summary(&[1]).unwrap();
        assert_eq!(summary.n, 4201);
        // A star with edge weights w has eigenpairs ±‖w‖ on (e_hub ± w/‖w‖)/√2
        // and zeros, so either leading pair leaves |M − M_1| at ‖w‖/2 on the
        // hub, w_i/2 on each edge entry and w_i·w_j/(2‖w‖) between leaves.
        let w: Vec<f64> = (0..4200).map(|i| f64::from(1_100 + i)).collect();
        let (sum, norm) = (w.iter().sum::<f64>(), w.iter().map(|x| x * x).sum::<f64>().sqrt());
        let want = (norm / 2.0 + sum + sum * sum / (2.0 * norm)) / (2.0 * sum);
        assert!(
            (summary.errors[0].err - want).abs() < 1e-9 * want,
            "{:?} vs {want}",
            summary.errors
        );
    }

    #[test]
    fn pca_on_small_cluster() {
        let mut wb = session();
        let summary = wb.pca_summary(&[1, 4, 16]).unwrap();
        assert_eq!(summary.errors.len(), 3);
        assert!(summary.errors[2].err <= summary.errors[0].err);
    }
}
