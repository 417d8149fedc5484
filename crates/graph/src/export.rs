//! Graph exports beyond DOT: GraphML (Gephi/yEd/NetworkX) and edge-list CSV.
//!
//! The DOT export on [`crate::CommGraph`] serves quick `graphviz` renders;
//! larger graphs (the Figure 2 Portal graph has ~5K nodes) are better
//! explored in Gephi or programmatically — both of which speak GraphML.

use crate::graph::{Adjacent, CommGraph};
use crate::node::NodeId;
use std::fmt::Write as _;

/// Escape the five XML special characters.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Render the graph as GraphML. `groups` optionally attaches a `role`
/// attribute per node (e.g. inferred role labels); edges carry `bytes`,
/// `pkts`, and `conns` attributes.
pub fn to_graphml(g: &CommGraph, groups: Option<&[usize]>) -> String {
    let mut o = String::with_capacity(g.node_count() * 96 + g.edge_count() * 128);
    o.push_str(r#"<?xml version="1.0" encoding="UTF-8"?>"#);
    o.push('\n');
    o.push_str(r#"<graphml xmlns="http://graphml.graphdrawing.org/xmlns">"#);
    o.push('\n');
    o.push_str(r#"  <key id="label" for="node" attr.name="label" attr.type="string"/>"#);
    o.push('\n');
    o.push_str(r#"  <key id="role" for="node" attr.name="role" attr.type="int"/>"#);
    o.push('\n');
    o.push_str(r#"  <key id="bytes" for="edge" attr.name="bytes" attr.type="long"/>"#);
    o.push('\n');
    o.push_str(r#"  <key id="pkts" for="edge" attr.name="pkts" attr.type="long"/>"#);
    o.push('\n');
    o.push_str(r#"  <key id="conns" for="edge" attr.name="conns" attr.type="long"/>"#);
    o.push('\n');
    let _ = writeln!(o, r#"  <graph id="{}" edgedefault="undirected">"#, g.facet_name());
    for (i, n) in g.nodes().iter().enumerate() {
        let _ = write!(
            o,
            r#"    <node id="n{i}"><data key="label">{}</data>"#,
            xml_escape(&n.to_string())
        );
        if let Some(gr) = groups.and_then(|g2| g2.get(i)) {
            let _ = write!(o, r#"<data key="role">{gr}</data>"#);
        }
        o.push_str("</node>\n");
    }
    let mut edge_id = 0usize;
    for i in 0..g.node_count() as u32 {
        for &Adjacent { node: j, stats, .. } in g.neighbors(i) {
            if j < i {
                continue;
            }
            let _ = writeln!(
                o,
                r#"    <edge id="e{edge_id}" source="n{i}" target="n{j}"><data key="bytes">{}</data><data key="pkts">{}</data><data key="conns">{}</data></edge>"#,
                stats.bytes(),
                stats.pkts(),
                stats.conns
            );
            edge_id += 1;
        }
    }
    o.push_str("  </graph>\n</graphml>\n");
    o
}

/// Render the graph as an edge-list CSV:
/// `a,b,bytes,pkts,conns,bytes_fwd,bytes_rev`.
pub fn to_edge_csv(g: &CommGraph) -> String {
    let mut o = String::from("a,b,bytes,pkts,conns,bytes_fwd,bytes_rev\n");
    for i in 0..g.node_count() as u32 {
        for &Adjacent { node: j, stats, .. } in g.neighbors(i) {
            if j < i {
                continue;
            }
            let _ = writeln!(
                o,
                "{},{},{},{},{},{},{}",
                g.node(i),
                g.node(j),
                stats.bytes(),
                stats.pkts(),
                stats.conns,
                stats.bytes_fwd,
                stats.bytes_rev
            );
        }
    }
    o
}

/// A minimal check that a NodeId's display form is CSV-safe (no commas);
/// all current variants are.
#[allow(dead_code)]
fn csv_safe(n: &NodeId) -> bool {
    !n.to_string().contains(',')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::EdgeStats;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn graph() -> CommGraph {
        let mut edges = HashMap::new();
        edges.insert(
            (
                NodeId::Ip(Ipv4Addr::new(10, 0, 0, 1)),
                NodeId::IpPort(Ipv4Addr::new(10, 0, 0, 2), 443),
            ),
            EdgeStats { bytes_fwd: 1000, bytes_rev: 500, pkts_fwd: 3, pkts_rev: 2, conns: 4 },
        );
        edges.insert(
            (NodeId::Ip(Ipv4Addr::new(10, 0, 0, 1)), NodeId::Other),
            EdgeStats { bytes_fwd: 7, conns: 1, ..Default::default() },
        );
        CommGraph::from_edge_map("ip", 0, 3600, edges)
    }

    #[test]
    fn graphml_structure() {
        let g = graph();
        let xml = to_graphml(&g, Some(&[0, 1, 0]));
        assert!(xml.starts_with("<?xml"));
        assert_eq!(xml.matches("<node ").count(), 3);
        assert_eq!(xml.matches("<edge ").count(), 2);
        assert!(xml.contains(r#"<data key="bytes">1500</data>"#));
        assert!(xml.contains(r#"<data key="role">1</data>"#));
        assert!(xml.contains("10.0.0.2:443"));
        assert!(xml.ends_with("</graphml>\n"));
    }

    #[test]
    fn graphml_without_groups_omits_roles() {
        let xml = to_graphml(&graph(), None);
        assert!(!xml.contains(r#"<data key="role">"#));
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
    }

    #[test]
    fn edge_csv_rows() {
        let g = graph();
        let csv = to_edge_csv(&g);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 edges");
        assert!(lines.iter().skip(1).any(|l| l.contains("1500,5,4,1000,500")));
        for n in g.nodes() {
            assert!(super::csv_safe(n));
        }
    }

    #[test]
    fn empty_graph_exports() {
        let g = CommGraph::from_edge_map("ip", 0, 60, HashMap::new());
        assert!(to_graphml(&g, None).contains("</graphml>"));
        assert_eq!(to_edge_csv(&g).lines().count(), 1);
    }
}
