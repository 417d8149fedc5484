//! Experiment E-SEG — the micro-segmentation security story of §2.1.
//!
//! Four sub-experiments on simulated clusters:
//!
//! 1. **Blast radius** (K8s PaaS): learn µsegments + default-deny policies
//!    from a clean hour; measure reachable resources per breached VM,
//!    before vs after segmentation.
//! 2. **Rule explosion** (K8s PaaS): compile the policies to per-VM rules —
//!    naive per-IP unrolling vs tag-based enforcement, against the paper's
//!    10³-rules-per-VM limit.
//! 3. **Attack detection** (µserviceBench): learn policies from a clean
//!    window, then replay the attack-injected window; report how many
//!    attack flows the reachability policies flag.
//! 4. **Higher-order policies** (K8s PaaS): a fleet-wide rollout plus a
//!    flash crowd versus a single-VM compromise — similarity and
//!    proportionality policies must suppress the benign changes and keep
//!    the malicious one.

use benchkit::{arg_f64, arg_u64, simulate, write_artifact};
use cloudsim::load::{LoadSchedule, LoadShape};
use cloudsim::{ClusterPreset, Simulator};
use commgraph::workbench::Workbench;
use segment::churn_cost::churn_cost_report;
use segment::compile::{compile, PAPER_VM_RULE_LIMIT};
use segment::drift::reconcile;
use segment::higher_order::{proportionality_assess, similarity_assess};
use serde_json::json;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 60);
    let mut report = serde_json::Map::new();

    // ---- 1 & 2: blast radius + rule explosion on K8s PaaS ----------------
    eprintln!("[seg] simulating K8s PaaS at scale {scale} for {minutes} min …");
    let run = simulate(ClusterPreset::K8sPaas, scale, minutes);
    let mut wb = Workbench::new(run.records.clone(), run.monitored.clone());
    let n_roles = wb.roles().n_roles;
    let blast = wb.blast_report();
    println!("\nE-SEG/1 — blast radius on K8s PaaS ({} internal resources)", blast.resources);
    println!("  inferred roles:                {n_roles}");
    println!("  unsegmented reach per breach:  {} resources (everything)", blast.resources - 1);
    println!("  segmented direct reach (mean): {:.1} resources", blast.mean_direct);
    println!("  segmented direct reach (max):  {} resources", blast.max_direct);
    println!(
        "  mean blast-radius reduction:   {:.1}x",
        (blast.resources as f64 - 1.0) / blast.mean_direct.max(1.0)
    );
    println!("  transitive (multi-hop) reach:  {:.1} resources", blast.mean_transitive);
    report.insert("blast".into(), serde_json::to_value(&blast).expect("serializable"));

    let seg = wb.segmentation().clone();
    let policy = wb.policy().clone();
    let comp = compile(&seg, &policy, PAPER_VM_RULE_LIMIT);
    println!(
        "\nE-SEG/2 — rule compilation ({} segments, {} allow rules)",
        seg.len(),
        policy.rule_count()
    );
    println!(
        "  per-IP unrolling:  max {} rules/VM, {} of {} VMs over the {} limit",
        comp.max_ip_rules,
        comp.vms_over_limit_ip,
        comp.per_vm.len(),
        comp.vm_rule_limit
    );
    println!(
        "  tag-based rules:   max {} rules/VM, {} VMs over the limit",
        comp.max_tag_rules, comp.vms_over_limit_tag
    );
    println!(
        "  fleet total:       {} ip rules vs {} tag rules ({:.0}x reduction)",
        comp.total_ip_rules,
        comp.total_tag_rules,
        comp.total_ip_rules as f64 / comp.total_tag_rules.max(1) as f64
    );
    report.insert(
        "rules".into(),
        json!({
            "segments": seg.len(),
            "allow_rules": policy.rule_count(),
            "max_ip_rules": comp.max_ip_rules,
            "max_tag_rules": comp.max_tag_rules,
            "vms_over_limit_ip": comp.vms_over_limit_ip,
            "vms_over_limit_tag": comp.vms_over_limit_tag,
            "total_ip_rules": comp.total_ip_rules,
            "total_tag_rules": comp.total_tag_rules,
        }),
    );

    // ---- 2b: churn cost — why tags (paper: "tags may also help reduce
    // churn and lag when µsegment labels change") ---------------------------
    let churn = churn_cost_report(&seg, &policy);
    println!("\nE-SEG/2b — rule updates per ±1-replica churn event");
    println!(
        "  per-IP enforcement: mean {:.0} rule updates, worst case {}",
        churn.mean_ip_rule_updates, churn.max_ip_rule_updates
    );
    println!(
        "  tag enforcement:    mean {:.1} updates (only the churned VM)",
        churn.mean_tag_updates
    );
    println!("  churn amplification removed by tags: {:.0}x", churn.amplification);
    report.insert(
        "churn".into(),
        json!({
            "mean_ip_rule_updates": churn.mean_ip_rule_updates,
            "max_ip_rule_updates": churn.max_ip_rule_updates,
            "mean_tag_updates": churn.mean_tag_updates,
            "amplification": churn.amplification,
        }),
    );

    // ---- 3: attack detection on µserviceBench ----------------------------
    eprintln!("[seg] µserviceBench attack replay …");
    let preset = ClusterPreset::MicroserviceBench;
    let topo = preset.topology_scaled(scale);
    // Clean learning window: config without attacks.
    let clean_cfg = preset.default_sim_config();
    let mut clean_sim = Simulator::new(topo.clone(), clean_cfg).expect("preset valid");
    let clean = clean_sim.collect(minutes);
    let monitored = benchkit::monitored_of(clean_sim.ground_truth());
    let mut learn_wb = Workbench::new(clean, monitored);
    learn_wb.policy();

    // Attack window: the paper's breach-and-attack suite.
    let attack_cfg = preset.paper_sim_config(&topo);
    let mut attack_sim = Simulator::new(topo, attack_cfg).expect("preset valid");
    let attacked = attack_sim.collect(minutes);
    let truth = attack_sim.ground_truth().clone();
    let violations = learn_wb.detect(&attacked);

    let attack_records: Vec<_> = attacked.iter().filter(|r| truth.is_attack(&r.key)).collect();
    let flagged_attacks = violations
        .iter()
        .filter(|v| {
            truth.is_attack(
                &flowlog::record::FlowKey::tcp(v.local_ip, 0, v.remote_ip, v.port).canonical(),
            ) || truth.attack_flows.keys().any(|k| {
                k.local_ip == v.local_ip && k.remote_ip == v.remote_ip
                    || k.local_ip == v.remote_ip && k.remote_ip == v.local_ip
            })
        })
        .count();
    let false_alarms = violations.len() - flagged_attacks.min(violations.len());
    let benign_records = attacked.len() - attack_records.len();
    println!("\nE-SEG/3 — attack detection on µserviceBench (policies learned on a clean hour)");
    println!("  attack records in window:   {}", attack_records.len());
    println!("  policy violations raised:   {}", violations.len());
    println!(
        "  detection rate:             {:.1}% of attack records flagged",
        100.0 * flagged_attacks.min(attack_records.len()) as f64
            / attack_records.len().max(1) as f64
    );
    println!(
        "  false-positive rate:        {:.3}% of benign records",
        100.0 * false_alarms as f64 / benign_records.max(1) as f64
    );
    report.insert(
        "detection".into(),
        json!({
            "attack_records": attack_records.len(),
            "violations": violations.len(),
            "attack_records_flagged": flagged_attacks,
            "benign_records": benign_records,
            "false_alarms": false_alarms,
        }),
    );

    // ---- 4: higher-order policies -----------------------------------------
    eprintln!("[seg] higher-order policy scenarios …");
    let preset = ClusterPreset::K8sPaas;
    let hscale = (scale * 0.5).max(0.05);
    let topo = preset.topology_scaled(hscale);
    let baseline_cfg = preset.default_sim_config();
    let mut base_sim = Simulator::new(topo.clone(), baseline_cfg.clone()).expect("valid");
    let baseline = base_sim.collect(30);
    let monitored = benchkit::monitored_of(base_sim.ground_truth());
    let mut hwb = Workbench::new(baseline.clone(), monitored);
    let seg = hwb.segmentation().clone();

    // Scenario A: a rollout — every tenant0-web VM starts calling the
    // registry (new behavior, fleet-wide). Injected synthetically by
    // rewriting a copy of the baseline window.
    let registry_role = topo.role_named("registry").expect("role").id;
    let n_registry = topo.role(registry_role).expect("role").replicas;
    let web_role = topo.role_named("tenant0-web").expect("role").id;
    let web_ips: Vec<_> = (0..topo.role(web_role).expect("role").replicas)
        .map(|s| topo.ip_of(web_role, s).expect("ip"))
        .collect();
    // A rollout hits every VM running the code — i.e. every member of the
    // *segment* the web VMs belong to (the inferred role may group more
    // replicas than one topology role; they all get the new build).
    let web_segment = seg.segment_of(web_ips[0]).expect("web VM is segmented");
    let rollout_members: Vec<_> = seg.segment(web_segment).members.clone();
    let mut rollout = baseline.clone();
    for (i, &web) in rollout_members.iter().enumerate() {
        // The rollout's new calls load-balance across registry replicas.
        let registry_ip = topo.ip_of(registry_role, i % n_registry).expect("ip");
        rollout.push(flowlog::record::ConnSummary {
            ts: 0,
            key: flowlog::record::FlowKey::tcp(web, 45_000 + i as u16, registry_ip, 5000),
            pkts_sent: 10,
            pkts_rcvd: 10,
            bytes_sent: 9_000,
            bytes_rcvd: 40_000,
        });
    }
    // Scenario B: a single web VM starts talking SSH to the db tier.
    let db_ip = topo.ip_of(topo.role_named("tenant3-db").expect("role").id, 0).expect("ip");
    let mut lone = baseline.clone();
    lone.push(flowlog::record::ConnSummary {
        ts: 0,
        key: flowlog::record::FlowKey::tcp(web_ips[0], 45_900, db_ip, 22),
        pkts_sent: 50,
        pkts_rcvd: 40,
        bytes_sent: 60_000,
        bytes_rcvd: 8_000,
    });

    let findings_a = similarity_assess(&baseline, &rollout, &seg, 0.8);
    let findings_b = similarity_assess(&baseline, &lone, &seg, 0.8);
    let a_suppressed = findings_a.iter().filter(|f| f.explainable).count();
    let b_alerts = findings_b.iter().filter(|f| !f.explainable).count();
    println!("\nE-SEG/4a — similarity-based policies");
    println!(
        "  rollout (all {} segment members → registry): {} new behaviors, {} marked explainable",
        rollout_members.len(),
        findings_a.len(),
        a_suppressed
    );
    println!(
        "  lone compromise (1 web VM → db:22):  {} new behaviors, {} alerts kept",
        findings_b.len(),
        b_alerts
    );

    // Proportionality: flash crowd (everything x3) vs lone surge.
    let mut crowd_sim = Simulator::new(
        topo.clone(),
        cloudsim::SimConfig {
            load: LoadSchedule::steady().with(LoadShape::Step { at_min: 0, factor: 3.0 }),
            ..baseline_cfg.clone()
        },
    )
    .expect("valid");
    let crowd = crowd_sim.collect(30);
    let crowd_findings = proportionality_assess(&baseline, &crowd, &seg, 3.0);
    let crowd_flagged = crowd_findings.iter().filter(|f| !f.proportional).count();

    // Lone surge: one api VM starts hoarding data from shared storage —
    // a 50x jump on one segment pair while the rest of the cluster is flat.
    // (External exfiltration is caught earlier by the reachability layer as
    // an UnknownPeer violation; proportionality exists for surges on
    // *approved* internal paths.)
    let api_role = topo.role_named("tenant0-api").expect("role").id;
    let api_ip = topo.ip_of(api_role, 0).expect("ip");
    let storage_role = topo.role_named("shared-storage").expect("role").id;
    let n_storage = topo.role(storage_role).expect("role").replicas;
    let mut hoard = baseline.clone();
    for s in 0..n_storage {
        let storage_ip = topo.ip_of(storage_role, s).expect("ip");
        for m in 0..30u64 {
            hoard.push(flowlog::record::ConnSummary {
                ts: m * 60,
                key: flowlog::record::FlowKey::tcp(
                    api_ip,
                    46_000 + (m as u16) * 40 + s as u16,
                    storage_ip,
                    8111,
                ),
                pkts_sent: 200,
                pkts_rcvd: 18_000,
                bytes_sent: 180_000,
                bytes_rcvd: 16_000_000,
            });
        }
    }
    let hoard_findings = proportionality_assess(&baseline, &hoard, &seg, 3.0);
    let hoard_flagged = hoard_findings.iter().filter(|f| !f.proportional).count();
    println!("\nE-SEG/4b — proportionality-based policies");
    println!(
        "  flash crowd (3x everything):     {} of {} segment pairs flagged",
        crowd_flagged,
        crowd_findings.len()
    );
    println!(
        "  data hoarding (one api VM, 50x): {} of {} segment pairs flagged",
        hoard_flagged,
        hoard_findings.len()
    );
    println!("\npaper shape: reachability policies flag the rollout too (false positive);");
    println!("similarity policies suppress it; proportionality separates flash crowds");
    println!("from lone surges.");

    report.insert(
        "higher_order".into(),
        json!({
            "rollout_new_behaviors": findings_a.len(),
            "rollout_explainable": a_suppressed,
            "lone_new_behaviors": findings_b.len(),
            "lone_alerts": b_alerts,
            "flash_crowd_pairs_flagged": crowd_flagged,
            "flash_crowd_pairs_total": crowd_findings.len(),
            "hoard_pairs_flagged": hoard_flagged,
            "hoard_pairs_total": hoard_findings.len(),
        }),
    );

    // ---- 5: segmentation drift across hours ------------------------------
    eprintln!("[seg] segmentation drift under churn …");
    let preset = ClusterPreset::K8sPaas;
    let dscale = (scale * 0.5).max(0.05);
    let topo = preset.topology_scaled(dscale);
    let web = topo.role_named("tenant0-web").expect("role").id;
    let api = topo.role_named("tenant1-api").expect("role").id;
    let mut cfg = preset.default_sim_config();
    cfg.churn = cloudsim::churn::ChurnPlan::none().with(70, web, 6).with(80, api, -4);
    let mut sim = Simulator::new(topo, cfg).expect("valid");
    let monitored = benchkit::monitored_of(sim.ground_truth());
    let hour1 = sim.collect(60);
    let hour2 = sim.collect(60);
    // Ground truth shifts as churn lands; refresh the inventory.
    let monitored2 = benchkit::monitored_of(sim.ground_truth());
    let mut wb1 = Workbench::new(hour1, monitored);
    let mut wb2 = Workbench::new(hour2, monitored2);
    let seg_old = wb1.segmentation().clone();
    let seg_new = wb2.segmentation().clone();
    let drift = reconcile(&seg_old, &seg_new);
    println!("\nE-SEG/5 — segmentation drift across two hours (with mid-run churn)");
    println!(
        "  segments: {} → {}; label stability {:.1}% of common resources",
        seg_old.len(),
        seg_new.len(),
        drift.stability * 100.0
    );
    println!(
        "  moved {} / added {} / retired {} resources",
        drift.moved.len(),
        drift.added.len(),
        drift.retired.len()
    );
    println!(
        "  transition cost: {} per-IP rule updates vs {} tag updates",
        drift.ip_rule_updates, drift.tag_updates
    );
    report.insert(
        "drift".into(),
        json!({
            "segments_before": seg_old.len(),
            "segments_after": seg_new.len(),
            "stability": drift.stability,
            "moved": drift.moved.len(),
            "added": drift.added.len(),
            "retired": drift.retired.len(),
            "ip_rule_updates": drift.ip_rule_updates,
            "tag_updates": drift.tag_updates,
        }),
    );

    let path = write_artifact(
        "seg",
        "seg.json",
        &serde_json::to_string_pretty(&serde_json::Value::Object(report)).expect("serializable"),
    );
    eprintln!("[seg] artifacts in {}", path.with_file_name("").display());
}
