//! The introspection contract, asserted end to end over real HTTP:
//!
//! 1. After one instrumented pipeline run (engine → pipeline → workbench →
//!    monitor), a single scrape of `/metrics` returns **every**
//!    family in the canonical `obs::names` table — nothing is registered
//!    lazily enough to be invisible to a dashboard that scrapes once.
//! 2. The flight recorder's Chrome trace-event export (the bytes `/trace`
//!    serves) parses as JSON with at least one root `pipeline_run` span whose stage
//!    children nest correctly by both explicit parent id and time
//!    containment.
//! 3. The metrics-history endpoints (`/query_range`, `/alerts`) serve the
//!    scraped TSDB and the alert engine over the same HTTP pass.
//!
//! This test runs as its own process, so installing the global registry here
//! cannot leak into other tests.

use commgraph::analytics::engine::EngineConfig;
use commgraph::analytics::sharded::{ShardedConfig, ShardedEngine};
use commgraph::cloudsim::attack::{AttackKind, AttackScenario};
use commgraph::cloudsim::{ClusterPreset, SimConfig, Simulator};
use commgraph::monitor::{MonitorConfig, SecurityMonitor};
use commgraph::obs;
use commgraph::pipeline::{Pipeline, PipelineConfig, WindowAnalyzer};
use commgraph::Workbench;
use serde_json::Value;
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::Arc;

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("introspection server reachable");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    }
}

/// Percent-encode an expression for a `/query_range?expr=` parameter.
fn url_encode(expr: &str) -> String {
    expr.bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// Run every instrumented subsystem once so each canonical family has a
/// registration (values may be zero — presence is the contract).
fn exercise_everything(o: &obs::Obs, scraper: &Arc<obs::Scraper>, alerts: &Arc<obs::AlertEngine>) {
    let preset = ClusterPreset::MicroserviceBench;
    let mut sim =
        Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
    let records = sim.collect(8);
    let monitored: std::collections::HashSet<std::net::Ipv4Addr> =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();

    let mut root = o.trace_root("pipeline_run");
    root.attr("records", &records.len().to_string());

    let mut engine = ShardedEngine::new(ShardedConfig {
        shards: 1,
        engine: EngineConfig {
            monitored: Some(monitored.clone()),
            obs: o.clone(),
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    for chunk in records.chunks(512) {
        engine.ingest("", chunk).unwrap();
    }
    engine.finish().unwrap();

    // The sharded front door registers the per-subscription and per-shard
    // health families (records/watermark/roll-lag/residency) plus the
    // cardinality-cap overflow counter.
    let mut sharded =
        ShardedEngine::new(ShardedConfig { obs: o.clone(), ..Default::default() }).unwrap();
    let half = records.len() / 2;
    sharded.ingest("tenant-a", &records[..half]).unwrap();
    sharded.ingest("tenant-b", &records[half..]).unwrap();
    sharded.finish().unwrap();

    // Two 240 s windows over the 8-minute trace: the second is warm, so the
    // incremental analyzer records `commgraph_incremental_savings_seconds`
    // alongside the pipeline's dirty-node samples. Telemetry is attached,
    // so each analyzed window also advances one TSDB scrape tick and one
    // alert evaluation.
    let mut p = Pipeline::new(PipelineConfig {
        monitored: Some(monitored.clone()),
        obs: o.clone(),
        window_len: 240,
        ..Default::default()
    });
    p.ingest(&records);
    let out = p.finish().unwrap();
    // Conservation: in = kept + deduped + dropped, and kept = Σ graphs' conns.
    assert_eq!(out.total_records, out.kept_records + out.deduped_records + out.dropped_records);
    let in_graphs: u64 = out.sequence.graphs().iter().map(|g| g.totals().conns).sum();
    assert_eq!(out.kept_records, in_graphs);
    let mut analyzer = WindowAnalyzer::new(monitored.clone(), true)
        .with_obs(o.clone())
        .with_subscription("tenant-a")
        .with_telemetry(scraper.clone(), alerts.clone());
    analyzer.analyze_output(&out).unwrap();
    assert!(analyzer.tick() >= 2, "telemetry ticks advanced with the windows");

    // The Louvain and Lanczos counters reach the global registry installed
    // by the caller.
    let mut wb = Workbench::new(records, monitored).with_obs(o.clone());
    let _ = wb.roles();
    let _ = wb.segmentation();
    let _ = wb.policy();
    let _ = wb.pca_summary(&[1, 4]).unwrap();
    drop(root);

    // Monitor families (windows/violations/anomaly/baseline/roll-lag) need a
    // learn-then-enforce run with an attack that actually trips windows.
    let topo = preset.topology_scaled(0.3);
    let breached = topo
        .ip_of(topo.role_named("frontend").expect("preset has a frontend").id, 0)
        .expect("slot 0 exists");
    let sim_cfg = SimConfig {
        attacks: vec![AttackScenario {
            kind: AttackKind::LateralMovement,
            start_min: 25,
            duration_min: 15,
            breached,
            intensity: 6,
        }],
        ..preset.default_sim_config()
    };
    let mut sim = Simulator::new(topo, sim_cfg).unwrap();
    let monitored =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
    let cfg = MonitorConfig {
        window_len: 600,
        learn_windows: 2,
        anomaly_k: 10,
        ..MonitorConfig::default()
    };
    let span = o.trace_root("monitor_run");
    let mut monitor = SecurityMonitor::with_obs(cfg, monitored, o.clone());
    sim.run(45, |_, batch| {
        let _ = monitor.ingest(batch);
    });
    let _ = monitor.flush();
    drop(span);
}

#[test]
fn one_scrape_serves_every_canonical_family_and_trace_nests() {
    let registry = Arc::new(obs::Registry::new());
    // First install wins; this test binary is its own process.
    obs::install_global(registry.clone());
    let tracer = Arc::new(obs::Tracer::new(4096));
    let o = obs::Obs::new(registry.clone()).with_tracer(tracer.clone());

    // Metrics history + alerting ride the same run: window rolls drive the
    // scrape ticks, and the default pack registers the alert families.
    let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
    let scraper = Arc::new(obs::Scraper::new(registry.clone(), store.clone()));
    let alerts = Arc::new(obs::AlertEngine::new(o.clone()));
    alerts.add_rules(commgraph::obs::alert::default_pack(1000.0));
    // A recording rule makes the query families part of the single-scrape
    // contract: `commgraph_query_rule_series_total` registers on install,
    // and the eval pass records `commgraph_query_rule_eval_seconds`.
    scraper.add_recording_rule(
        obs::RecordingRule::new(
            "subscription:records:rate2",
            "rate(commgraph_subscription_records_total[2])",
        )
        .expect("rule expression parses"),
    );

    exercise_everything(&o, &scraper, &alerts);

    let server = obs::IntrospectionServer::new(registry.clone())
        .with_tracer(tracer.clone())
        .with_tsdb(store.clone())
        .with_alerts(alerts.clone())
        .start("127.0.0.1:0")
        .expect("bind an ephemeral port");
    let addr = server.addr();

    assert_eq!(http_get(addr, "/healthz").trim(), "ok");

    // One scrape must carry the whole canonical table. The request counter
    // is bumped before rendering, so even `commgraph_serve_requests_total`
    // appears in its own first scrape.
    let metrics = http_get(addr, "/metrics");
    let missing: Vec<&str> = obs::names::METRICS
        .iter()
        .copied()
        .filter(|name| !metrics.contains(&format!("# TYPE {name} ")))
        .collect();
    assert!(missing.is_empty(), "families absent from a single /metrics scrape: {missing:?}");

    // The JSON snapshot endpoint parses and carries the same families.
    let snapshot: Value =
        serde_json::from_str(&http_get(addr, "/metrics.json")).expect("valid JSON snapshot");
    let listed = snapshot["metrics"].as_array().expect("metrics array");
    assert!(listed.len() >= obs::names::METRICS.len(), "snapshot lists every family");

    // The metrics-history endpoints serve in the same HTTP pass: a bare
    // selector over `/query_range` returns the scraped per-tick history of
    // one series of a canonical family…
    let history: Value = serde_json::from_str(&http_get(
        addr,
        &format!(
            "/query_range?expr={}&step=1",
            url_encode("commgraph_ingest_watermark_seconds{source=\"pipeline\"}")
        ),
    ))
    .expect("valid /query_range JSON");
    let series = history["series"].as_array().expect("series array");
    assert_eq!(series.len(), 1, "one matching series");
    let points = series[0]["points"].as_array().expect("points array");
    assert!(!points.is_empty(), "window-roll ticks scraped history");
    assert_eq!(points[0][0].as_u64(), Some(1), "ticks are logical, starting at 1");

    // …`/alerts` carries the evaluated rule states and transition log…
    let alerts_doc: Value =
        serde_json::from_str(&http_get(addr, "/alerts")).expect("valid /alerts JSON");
    let listed = alerts_doc["alerts"].as_array().expect("alerts array");
    assert_eq!(
        listed.len(),
        commgraph::obs::alert::default_pack(1000.0).len(),
        "every default-pack rule reports a state"
    );
    assert!(listed.iter().all(|a| a["state"].as_str().is_some()));

    // …and a burn-rate rule's own expression evaluates over `/query_range`,
    // which is where the burn history of an SLO is read.
    let pack = commgraph::obs::alert::default_pack(1000.0);
    let burn = pack.iter().find(|r| r.name == "dedup_drops_burn").expect("pack has the rule");
    let burn_doc: Value = serde_json::from_str(&http_get(
        addr,
        &format!("/query_range?expr={}", url_encode(&burn.src)),
    ))
    .expect("valid /query_range JSON for a burn expression");
    assert_eq!(burn_doc["expr"].as_str(), Some(burn.src.as_str()));
    assert!(burn_doc["series"].as_array().is_some(), "{burn_doc:?}");

    // `/trace` serves the flight recorder as a Chrome trace-event document.
    // Validate the acceptance-criterion shape.
    let trace = http_get(addr, "/trace");
    server.shutdown();
    let doc: Value = serde_json::from_str(&trace).expect("valid Chrome trace JSON");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let complete: Vec<&Value> = events.iter().filter(|e| e["ph"].as_str() == Some("X")).collect();
    assert!(!complete.is_empty(), "flight recorder retained spans");

    // ≥ one root span per run, named for the run.
    let root = complete
        .iter()
        .find(|e| {
            e["name"].as_str() == Some("pipeline_run")
                && e["args"]["parent_id"].as_str() == Some("")
        })
        .expect("a root pipeline_run span with no parent");
    let root_id = root["args"]["span_id"].as_str().expect("span id").to_string();
    let root_ts = root["ts"].as_u64().unwrap();
    let root_end = root_ts + root["dur"].as_u64().unwrap();

    // Stage children hang off the root by explicit parent id…
    let children: Vec<&&Value> = complete
        .iter()
        .filter(|e| e["args"]["parent_id"].as_str() == Some(root_id.as_str()))
        .collect();
    let child_names: std::collections::BTreeSet<&str> =
        children.iter().filter_map(|e| e["name"].as_str()).collect();
    for stage in ["ingest", "build", "similarity", "cluster", "policy", "pca"] {
        assert!(child_names.contains(stage), "missing stage child {stage}: {child_names:?}");
    }
    // …and nest inside it by time containment (what Perfetto renders).
    for child in &children {
        let ts = child["ts"].as_u64().unwrap();
        let end = ts + child["dur"].as_u64().unwrap();
        assert!(
            root_ts <= ts && end <= root_end + 1,
            "{} [{ts}, {end}] escapes pipeline_run [{root_ts}, {root_end}]",
            child["name"]
        );
    }

    // The monitor run contributes its own root with window children.
    let mon = complete
        .iter()
        .find(|e| {
            e["name"].as_str() == Some("monitor_run") && e["args"]["parent_id"].as_str() == Some("")
        })
        .expect("a root monitor_run span");
    let mon_id = mon["args"]["span_id"].as_str().unwrap();
    assert!(
        complete.iter().any(|e| e["name"].as_str() == Some("monitor_window")
            && e["args"]["parent_id"].as_str() == Some(mon_id)),
        "monitor windows nest under monitor_run"
    );
}

/// `/query_range` is replay-stable: two fully independent runs of the same
/// seeded workload — separate registries, stores, scrapers, servers, ports —
/// serve **byte-identical** bodies over real HTTP for the same expression,
/// including the synthetic series a recording rule wrote back per tick.
#[test]
fn query_range_serves_byte_identical_documents_across_same_seed_runs() {
    fn run_once() -> (String, String) {
        let registry = Arc::new(obs::Registry::new());
        let o = obs::Obs::new(registry.clone());
        let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
        let scraper = Arc::new(obs::Scraper::new(registry.clone(), store.clone()));
        scraper.add_recording_rule(
            obs::RecordingRule::new(
                "subscription:records:rate2",
                "rate(commgraph_subscription_records_total[2])",
            )
            .expect("rule expression parses"),
        );

        let preset = ClusterPreset::MicroserviceBench;
        let mut sim =
            Simulator::new(preset.topology_scaled(0.25), preset.default_sim_config()).unwrap();
        let records = sim.collect(8);
        let mut sharded =
            ShardedEngine::new(ShardedConfig { obs: o, ..Default::default() }).unwrap();
        let mut tick = 0;
        for chunk in records.chunks(512) {
            sharded.ingest("tenant-a", chunk).unwrap();
            tick += 1;
            scraper.scrape(tick);
        }
        sharded.finish().unwrap();

        let server = obs::IntrospectionServer::new(registry)
            .with_tsdb(store)
            .start("127.0.0.1:0")
            .expect("bind an ephemeral port");
        let addr = server.addr();
        // rate over the raw counter, percent-encoded; and the recording
        // rule's synthetic series read back as a plain selector.
        let raw = http_get(
            addr,
            "/query_range?expr=rate(commgraph_subscription_records_total%7B\
             subscription%3D%22tenant-a%22%7D%5B2%5D)&step=1",
        );
        let recorded = http_get(addr, "/query_range?expr=subscription%3Arecords%3Arate2");
        server.shutdown();
        (raw, recorded)
    }

    let (raw_a, rec_a) = run_once();
    let (raw_b, rec_b) = run_once();
    assert_eq!(raw_a, raw_b, "raw-counter rate query replays byte-identically");
    assert_eq!(rec_a, rec_b, "recording-rule series query replays byte-identically");

    let doc: Value = serde_json::from_str(&raw_a).expect("valid /query_range JSON");
    let series = doc["series"].as_array().expect("series array");
    assert!(!series.is_empty(), "the seeded workload produced a rate series");
    let rec_doc: Value = serde_json::from_str(&rec_a).expect("valid recorded-series JSON");
    assert!(
        !rec_doc["series"].as_array().expect("series array").is_empty(),
        "the recording rule wrote ticks the range query reads back"
    );
}
