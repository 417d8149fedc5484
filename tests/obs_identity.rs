//! Instrumentation must be a pure observer: running the whole pipeline with
//! a live `obs::Registry` attached must produce results bit-for-bit
//! identical to the uninstrumented run. Floats are compared via `to_bits`,
//! so even a last-ulp drift (e.g. from a reordered reduction) fails.

use commgraph::analytics::sharded::{ShardedConfig, ShardedEngine};
use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::flowlog::record::ConnSummary;
use commgraph::obs::{names, Obs, Registry};
use commgraph::pipeline::{Pipeline, PipelineConfig};
use commgraph::Workbench;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn fixture() -> (Vec<ConnSummary>, HashSet<Ipv4Addr>) {
    let preset = ClusterPreset::MicroserviceBench;
    let mut sim =
        Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
    let records = sim.collect(8);
    let monitored =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
    (records, monitored)
}

/// Everything the pipeline computes, reduced to exactly comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    engine_graphs: Vec<(u64, usize, usize, u64, u64)>,
    engine_kept: u64,
    pipeline_windows: Vec<(u64, usize, usize, u64)>,
    rate_bits: u64,
    role_labels: Vec<usize>,
    n_roles: usize,
    segments: usize,
    policy_rules: usize,
    pca_err_bits: Vec<u64>,
}

fn run(obs: Obs, records: &[ConnSummary], monitored: &HashSet<Ipv4Addr>) -> Fingerprint {
    let mut engine = ShardedEngine::new(ShardedConfig {
        shards: 1,
        monitored: Some(monitored.clone()),
        obs: obs.clone(),
        ..Default::default()
    })
    .unwrap();
    for chunk in records.chunks(777) {
        engine.ingest("", chunk).unwrap();
    }
    let (mut reports, _) = engine.finish().unwrap();
    let (graphs, stats) = reports.pop().map(|r| (r.graphs, r.stats)).unwrap();
    let engine_graphs = graphs
        .iter()
        .map(|g| {
            (g.window_start(), g.node_count(), g.edge_count(), g.totals().bytes(), g.totals().conns)
        })
        .collect();

    let mut p = Pipeline::new(PipelineConfig {
        monitored: Some(monitored.clone()),
        obs: obs.clone(),
        ..Default::default()
    });
    p.ingest(records);
    let out = p.finish().unwrap();
    // Conservation: in = kept + deduped + dropped, and kept = Σ graphs' conns.
    assert_eq!(out.total_records, out.kept_records + out.deduped_records + out.dropped_records);
    let in_graphs: u64 = out.sequence.graphs().iter().map(|g| g.totals().conns).sum();
    assert_eq!(out.kept_records, in_graphs);
    let pipeline_windows = out
        .sequence
        .graphs()
        .iter()
        .map(|g| (g.window_start(), g.node_count(), g.edge_count(), g.totals().bytes()))
        .collect();
    let rate_bits = out.mean_records_per_minute().to_bits();

    let mut wb = Workbench::new(records.to_vec(), monitored.clone()).with_obs(obs);
    let roles = wb.roles().clone();
    let segments = wb.segmentation().len();
    let policy_rules = wb.policy().rule_count();
    let pca = wb.pca_summary(&[1, 4, 8]).unwrap();
    let pca_err_bits = pca.errors.iter().map(|e| e.err.to_bits()).collect();

    Fingerprint {
        engine_graphs,
        engine_kept: stats.records_kept,
        pipeline_windows,
        rate_bits,
        role_labels: roles.labels,
        n_roles: roles.n_roles,
        segments,
        policy_rules,
        pca_err_bits,
    }
}

#[test]
fn instrumented_run_is_bit_for_bit_identical() {
    let (records, monitored) = fixture();

    let plain = run(Obs::noop(), &records, &monitored);

    let registry = Arc::new(Registry::new());
    let observed = run(Obs::new(registry.clone()), &records, &monitored);

    assert_eq!(plain, observed, "observability must never change results");

    // And the registry really was live — this is not a vacuous comparison.
    let ingest = registry.histogram(&names::STAGE_SECONDS, ["ingest"]);
    assert!(ingest.count() > 0, "instrumented run recorded stage spans");
    assert!(
        registry.counter(&names::ENGINE_RECORDS_IN_TOTAL, []).get() > 0,
        "instrumented run counted engine records"
    );

    // Third run: metrics AND the hierarchical tracer + flight recorder
    // attached. Same guarantee — spans are pure observers too.
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(commgraph::obs::Tracer::new(8192));
    let traced_obs = Obs::new(registry).with_tracer(tracer.clone());
    let root = traced_obs.trace_root("pipeline_run");
    let traced = run(traced_obs.clone(), &records, &monitored);
    drop(root);
    assert_eq!(plain, traced, "tracing must never change results");

    // The recorder really recorded, and every retained child's parent
    // resolves inside the dump (capacity 8192 was not exceeded).
    let dump = tracer.dump();
    assert!(dump.spans.len() > 1, "flight recorder retained the run's spans");
    assert_eq!(dump.dropped, 0, "fixture fits the ring");
    assert_eq!(dump.open_spans, 0, "every span closed");
    let ids: std::collections::HashSet<u64> = dump.spans.iter().map(|s| s.id).collect();
    for s in &dump.spans {
        if let Some(p) = s.parent {
            assert!(ids.contains(&p), "span {} has unresolvable parent {p}", s.name);
        }
    }
    assert!(
        dump.spans.iter().any(|s| s.name == "pipeline_run" && s.parent.is_none()),
        "the run root is retained as a root"
    );
}

/// Without a tracer, trace context costs one branch and never reads the
/// clock: spans come back disabled, attrs and events are no-ops, and
/// `finish` reports exactly 0.0.
#[test]
fn disabled_trace_context_is_inert() {
    let o = Obs::noop();
    assert!(o.tracer().is_none());
    let mut span = o.trace_span("anything");
    assert!(!span.is_enabled());
    span.attr("key", "value");
    span.add_event("event", &[("k", "v".to_string())]);
    let root = o.trace_root("root");
    assert!(!root.is_enabled());
    assert_eq!(span.finish(), 0.0, "noop finish never reads the clock");
    assert_eq!(root.finish(), 0.0);

    // A registry alone (metrics, no tracer) also yields disabled spans.
    let metrics_only = Obs::new(Arc::new(Registry::new()));
    assert!(metrics_only.tracer().is_none());
    assert!(!metrics_only.trace_span("stage").is_enabled());
}
