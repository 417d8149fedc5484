//! Policy compilation: the rule-explosion problem and tag-based enforcement.
//!
//! "Clouds today limit the number of rules that can execute on the path in
//! and out of each VM (e.g., no more than 10³ rules at a VM) and naïvely
//! unrolling reachability rules between µsegments into reachability rules
//! between IP addresses … can lead to rule explosion. Adding dynamic tags
//! into packets and extending the network virtualization layer to enforce
//! policies on tags is a potential solution."
//!
//! [`compile`] quantifies both: for every internal VM, the number of per-IP
//! rules naive unrolling needs (one per allowed peer address × port scope),
//! versus the number of tag rules (one per allowed peer *segment* × port
//! scope). The report drives the paper's rule-explosion experiment.

use crate::microseg::Segmentation;
use crate::policy::SegmentPolicy;
use serde::Serialize;
use std::net::Ipv4Addr;

/// The per-VM rule budget the paper cites for today's clouds.
pub const PAPER_VM_RULE_LIMIT: usize = 1000;

/// Rule counts for one VM.
#[derive(Debug, Clone, Serialize)]
pub struct VmRuleCount {
    /// The VM.
    pub(crate) ip: Ipv4Addr,
    /// Rules needed when unrolling to per-IP allow rules.
    pub ip_rules: usize,
    /// Rules needed with tag-based enforcement.
    pub tag_rules: usize,
}

/// Compilation outcome across all internal VMs.
#[derive(Debug, Clone, Serialize)]
pub struct CompilationReport {
    /// Per-VM counts, sorted by descending IP-rule count.
    pub per_vm: Vec<VmRuleCount>,
    /// Total per-IP rules across the fleet.
    pub total_ip_rules: usize,
    /// Total tag rules across the fleet.
    pub total_tag_rules: usize,
    /// Largest per-VM IP-rule count.
    pub max_ip_rules: usize,
    /// Largest per-VM tag-rule count.
    pub max_tag_rules: usize,
    /// The rule budget used for the overflow count.
    pub vm_rule_limit: usize,
    /// VMs whose naive unrolling exceeds the budget.
    pub vms_over_limit_ip: usize,
    /// VMs whose tag compilation exceeds the budget.
    pub vms_over_limit_tag: usize,
}

/// Compile `policy` for every internal VM of `seg` and count rules.
///
/// Per-IP unrolling: a VM in segment *s* needs one rule per (allowed peer
/// segment *t*, member of *t*, port scope). Tag enforcement: one rule per
/// (allowed peer segment, port scope).
pub fn compile(
    seg: &Segmentation,
    policy: &SegmentPolicy,
    vm_rule_limit: usize,
) -> CompilationReport {
    assert!(vm_rule_limit > 0, "rule limit must be positive");
    // Pre-compute, per segment: allowed (peer segment, port-scope count).
    // A rule (s, t, p1) and (s, t, p2) are separate scopes.
    let mut per_segment: Vec<Vec<(usize, usize)>> = vec![Vec::new(); seg.len()];
    for rule in policy.rules() {
        let (a, b) = (rule.a.0 as usize, rule.b.0 as usize);
        per_segment[a].push((b, 1));
        if a != b {
            per_segment[b].push((a, 1));
        }
    }

    let mut per_vm = Vec::new();
    let (mut total_ip, mut total_tag) = (0usize, 0usize);
    for s in seg.segments() {
        if !s.internal {
            continue;
        }
        let scopes = &per_segment[s.id.0 as usize];
        // Tag rules: one per (peer segment, port scope) entry.
        let tag_rules = scopes.len();
        // IP rules: peer segment member count per scope. Self-segment rules
        // exclude the VM itself.
        let ip_rules: usize = scopes
            .iter()
            .map(|&(peer, scope_count)| {
                let members = seg.segments()[peer].members.len();
                let members =
                    if peer == s.id.0 as usize { members.saturating_sub(1) } else { members };
                members * scope_count
            })
            .sum();
        for &ip in &s.members {
            per_vm.push(VmRuleCount { ip, ip_rules, tag_rules });
            total_ip += ip_rules;
            total_tag += tag_rules;
        }
    }
    per_vm.sort_by_key(|v| std::cmp::Reverse(v.ip_rules));
    let max_ip_rules = per_vm.first().map_or(0, |v| v.ip_rules);
    let max_tag_rules = per_vm.iter().map(|v| v.tag_rules).max().unwrap_or(0);
    let vms_over_limit_ip = per_vm.iter().filter(|v| v.ip_rules > vm_rule_limit).count();
    let vms_over_limit_tag = per_vm.iter().filter(|v| v.tag_rules > vm_rule_limit).count();
    CompilationReport {
        per_vm,
        total_ip_rules: total_ip,
        total_tag_rules: total_tag,
        max_ip_rules,
        max_tag_rules,
        vm_rule_limit,
        vms_over_limit_ip,
        vms_over_limit_tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microseg::SegmentId;
    use crate::policy::ANY_PORT;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, a, b)
    }

    fn many(a: u8, n: u8) -> Vec<Ipv4Addr> {
        (1..=n).map(|b| ip(a, b)).collect()
    }

    #[test]
    fn ip_rules_scale_with_peer_members_tag_rules_do_not() {
        let seg = Segmentation::from_members(vec![
            ("web".into(), many(0, 10), true),
            ("api".into(), many(1, 200), true),
        ]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        let report = compile(&seg, &p, 1000);
        let web_vm = report.per_vm.iter().find(|v| v.ip == ip(0, 1)).unwrap();
        assert_eq!(web_vm.ip_rules, 200, "one rule per api replica");
        assert_eq!(web_vm.tag_rules, 1, "one rule per peer segment");
        let api_vm = report.per_vm.iter().find(|v| v.ip == ip(1, 1)).unwrap();
        assert_eq!(api_vm.ip_rules, 10);
    }

    #[test]
    fn self_segment_rules_exclude_self() {
        let seg = Segmentation::from_members(vec![("mesh".into(), many(0, 5), true)]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(0), ANY_PORT);
        let report = compile(&seg, &p, 1000);
        assert_eq!(report.per_vm[0].ip_rules, 4, "peers only, not oneself");
    }

    #[test]
    fn overflow_detection() {
        let seg = Segmentation::from_members(vec![
            ("web".into(), many(0, 2), true),
            (
                "big".into(),
                (0..=250u16)
                    .map(|i| Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8))
                    .collect(),
                true,
            ),
        ]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        let report = compile(&seg, &p, 100);
        // Each web VM needs 251 rules > 100; big VMs need only 2.
        assert_eq!(report.vms_over_limit_ip, 2);
        assert_eq!(report.vms_over_limit_tag, 0, "tags never overflow here");
        assert_eq!(report.max_ip_rules, 251);
    }

    #[test]
    fn port_scopes_multiply_ip_rules() {
        let seg = Segmentation::from_members(vec![
            ("web".into(), many(0, 1), true),
            ("api".into(), many(1, 50), true),
        ]);
        let mut p = SegmentPolicy::deny_all(true);
        p.allow(SegmentId(0), SegmentId(1), 443);
        p.allow(SegmentId(0), SegmentId(1), 8080);
        let report = compile(&seg, &p, 1000);
        let web_vm = report.per_vm.iter().find(|v| v.ip == ip(0, 1)).unwrap();
        assert_eq!(web_vm.ip_rules, 100, "two port scopes × 50 peers");
        assert_eq!(web_vm.tag_rules, 2);
    }

    #[test]
    fn external_segments_are_not_compiled() {
        let seg = Segmentation::from_members(vec![
            ("web".into(), many(0, 3), true),
            ("clients".into(), many(9, 100), false),
        ]);
        let mut p = SegmentPolicy::deny_all(false);
        p.allow(SegmentId(0), SegmentId(1), ANY_PORT);
        let report = compile(&seg, &p, 1000);
        assert_eq!(report.per_vm.len(), 3, "only internal VMs enforce");
        // But web VMs still carry rules admitting the external segment.
        assert_eq!(report.per_vm[0].ip_rules, 100);
    }

    #[test]
    fn empty_policy_compiles_to_zero_rules() {
        let seg = Segmentation::from_members(vec![("web".into(), many(0, 3), true)]);
        let p = SegmentPolicy::deny_all(false);
        let report = compile(&seg, &p, 1000);
        assert_eq!(report.total_ip_rules, 0);
        assert_eq!(report.max_ip_rules, 0);
        assert_eq!(report.vms_over_limit_ip, 0);
    }
}
