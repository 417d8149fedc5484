//! The subscription security report: everything an administrator needs
//! from one telemetry window, in one structure.
//!
//! This is the artifact the paper's SaaS tier (Figure 8) would mail the
//! customer: cluster shape, inferred roles, segmentation posture, blast
//! radii, traffic concentration, and rule-compilation feasibility —
//! serializable as JSON for dashboards and renderable as text for humans.

use crate::workbench::Workbench;
use algos::stats::{byte_gini, detect_hubs, top_share};
use segment::compile::{compile, CompilationReport, PAPER_VM_RULE_LIMIT};
use serde::Serialize;
use std::fmt::Write as _;

/// The assembled report.
#[derive(Debug, Clone, Serialize)]
pub struct SecurityReport {
    /// Window metadata.
    pub(crate) window_start: u64,
    /// Window length in seconds.
    pub(crate) window_len: u64,
    /// Records analyzed.
    pub(crate) records: u64,
    /// Monitored resources.
    pub(crate) monitored: usize,
    /// Graph shape.
    pub(crate) graph: GraphSection,
    /// Segmentation posture.
    pub(crate) segmentation: SegmentationSection,
    /// Traffic concentration.
    pub(crate) traffic: TrafficSection,
    /// Rule-compilation feasibility.
    pub(crate) rules: RuleSection,
}

/// Graph shape numbers.
#[derive(Debug, Clone, Serialize)]
pub struct GraphSection {
    /// Nodes in the collapsed IP graph.
    pub(crate) nodes: usize,
    /// Edges.
    pub(crate) edges: usize,
    /// Bytes moved in the window.
    pub(crate) bytes: u64,
    /// Distinct connections.
    pub(crate) conns: u64,
    /// Hub nodes (degree ≥ 5× mean) — likely control-plane components.
    pub(crate) hubs: Vec<String>,
}

/// Segmentation posture numbers.
#[derive(Debug, Clone, Serialize)]
pub struct SegmentationSection {
    /// Inferred roles.
    pub(crate) roles: usize,
    /// µsegments (roles split by internal/external membership).
    pub(crate) segments: usize,
    /// Learned allow rules (everything else denied).
    pub(crate) allow_rules: usize,
    /// Mean resources a breached VM can reach directly under policy.
    pub(crate) mean_blast_direct: f64,
    /// Worst-case direct reach.
    pub(crate) max_blast_direct: usize,
    /// Blast reduction factor vs unsegmented.
    pub(crate) blast_reduction: f64,
}

/// Traffic concentration numbers.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficSection {
    /// Byte share of the heaviest 5% of nodes.
    pub(crate) top5_share: f64,
    /// Gini coefficient of per-node bytes.
    pub(crate) gini: f64,
}

/// Rule-compilation feasibility numbers.
#[derive(Debug, Clone, Serialize)]
pub struct RuleSection {
    /// Max per-VM rules under naive per-IP unrolling.
    pub(crate) max_ip_rules: usize,
    /// VMs over the per-VM budget with per-IP rules.
    pub(crate) vms_over_limit: usize,
    /// Max per-VM rules with tag enforcement.
    pub(crate) max_tag_rules: usize,
    /// Fleet-wide rule ratio (ip / tag).
    pub(crate) tag_compression: f64,
}

/// Assemble the report from a workbench session.
pub fn security_report(wb: &mut Workbench) -> SecurityReport {
    let records = wb.record_count();
    let monitored = wb.monitored().len();
    let blast = wb.blast_report();
    let seg = wb.segmentation().clone();
    let policy = wb.policy().clone();
    let comp: CompilationReport = compile(&seg, &policy, PAPER_VM_RULE_LIMIT);
    let roles = wb.roles().n_roles;
    let g = wb.ip_graph();
    SecurityReport {
        window_start: g.window_start(),
        window_len: g.window_len(),
        records,
        monitored,
        graph: GraphSection {
            nodes: g.node_count(),
            edges: g.edge_count(),
            bytes: g.totals().bytes(),
            conns: g.totals().conns,
            hubs: detect_hubs(g, 5.0).into_iter().take(5).map(|h| h.label).collect(),
        },
        segmentation: SegmentationSection {
            roles,
            segments: seg.len(),
            allow_rules: policy.rule_count(),
            mean_blast_direct: blast.mean_direct,
            max_blast_direct: blast.max_direct,
            blast_reduction: if blast.mean_direct > 0.0 {
                (blast.resources as f64 - 1.0) / blast.mean_direct
            } else {
                f64::INFINITY
            },
        },
        traffic: TrafficSection { top5_share: top_share(g, 0.05), gini: byte_gini(g) },
        rules: RuleSection {
            max_ip_rules: comp.max_ip_rules,
            vms_over_limit: comp.vms_over_limit_ip,
            max_tag_rules: comp.max_tag_rules,
            tag_compression: comp.total_ip_rules as f64 / comp.total_tag_rules.max(1) as f64,
        },
    }
}

impl SecurityReport {
    /// Render as human-readable text.
    pub fn to_text(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "SUBSCRIPTION SECURITY REPORT");
        let _ = writeln!(
            o,
            "window: {}s starting t={} | {} records from {} monitored resources",
            self.window_len, self.window_start, self.records, self.monitored
        );
        let _ = writeln!(o, "\ncommunication graph");
        let _ = writeln!(
            o,
            "  {} nodes, {} edges, {:.1} MB, {} connections",
            self.graph.nodes,
            self.graph.edges,
            self.graph.bytes as f64 / 1e6,
            self.graph.conns
        );
        if !self.graph.hubs.is_empty() {
            let _ = writeln!(o, "  control-plane hubs: {}", self.graph.hubs.join(", "));
        }
        let _ = writeln!(o, "\nsegmentation posture");
        let _ = writeln!(
            o,
            "  {} roles → {} µsegments, {} allow rules (default deny)",
            self.segmentation.roles, self.segmentation.segments, self.segmentation.allow_rules
        );
        let _ = writeln!(
            o,
            "  blast radius: mean {:.1} / worst {} resources ({:.1}x better than unsegmented)",
            self.segmentation.mean_blast_direct,
            self.segmentation.max_blast_direct,
            self.segmentation.blast_reduction
        );
        let _ = writeln!(o, "\ntraffic concentration");
        let _ = writeln!(
            o,
            "  top 5% of nodes carry {:.0}% of bytes (gini {:.2})",
            self.traffic.top5_share * 100.0,
            self.traffic.gini
        );
        let _ = writeln!(o, "\nenforcement feasibility");
        let _ = writeln!(
            o,
            "  per-IP rules: max {}/VM ({} VMs over the {} limit); tags: max {}/VM ({:.0}x fewer rules)",
            self.rules.max_ip_rules,
            self.rules.vms_over_limit,
            segment::compile::PAPER_VM_RULE_LIMIT,
            self.rules.max_tag_rules,
            self.rules.tag_compression
        );
        o
    }

    /// Render as pretty JSON. Serialization of this plain-data struct
    /// cannot fail; if it ever did, the error surfaces as a JSON document
    /// rather than a panic in a reporting path.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"report_error\":\"{e}\"}}"))
    }
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
            Simulator::new(preset.topology_scaled(0.3), preset.default_sim_config()).unwrap();
        let records = sim.collect(5);
        let monitored: HashSet<Ipv4Addr> =
            sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
        Workbench::new(records, monitored)
    }

    #[test]
    fn report_is_complete_and_renderable() {
        let mut wb = session();
        let r = security_report(&mut wb);
        assert!(r.graph.nodes > 0);
        assert!(r.segmentation.segments > 0);
        assert!(r.segmentation.allow_rules > 0);
        assert!(r.traffic.top5_share > 0.0);
        let text = r.to_text();
        assert!(text.contains("SUBSCRIPTION SECURITY REPORT"));
        assert!(text.contains("blast radius"));
        let json = r.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["graph"]["nodes"].as_u64().unwrap() as usize, r.graph.nodes);
    }

    #[test]
    fn report_is_deterministic() {
        let a = security_report(&mut session()).to_json();
        let b = security_report(&mut session()).to_json();
        assert_eq!(a, b);
    }
}
