//! A live "what changed?" dashboard over streaming telemetry — Figure 5 as
//! a terminal app. Simulates six hours of the K8s PaaS cluster with a flash
//! crowd and a tenant scale-out, builds one graph per hour through the
//! streaming pipeline, and prints an hourly changes digest plus an ASCII
//! heatmap of the final byte matrix. The run is fully instrumented and
//! traced: it boots the introspection server on an ephemeral port, scrapes
//! its own `/metrics` over real HTTP, and prints the flight-recorder span
//! tree (set `COMMGRAPH_LOG=info` to also stream the event log to stderr).
//!
//! ```sh
//! cargo run --release --example live_dashboard
//! COMMGRAPH_LOG=info cargo run --release --example live_dashboard
//! # keep the server up for 60 s to poke it with curl / Perfetto:
//! COMMGRAPH_SERVE_SECS=60 cargo run --release --example live_dashboard
//! #   curl http://<printed addr>/metrics
//! #   curl http://<printed addr>/trace > trace.json   # load in ui.perfetto.dev
//! ```

use commgraph::cloudsim::churn::ChurnPlan;
use commgraph::cloudsim::load::{LoadSchedule, LoadShape};
use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::linalg::quantize::{log_normalize, to_ascii};
use commgraph::linalg::Matrix;
use commgraph::obs::alert::default_pack;
use commgraph::obs::{
    trace, AlertEngine, IntrospectionServer, Obs, RecordingRule, Registry, Scraper, Tracer, Tsdb,
    TsdbConfig,
};
use commgraph::pipeline::{Pipeline, PipelineConfig};
use std::io::{Read as _, Write as _};
use std::sync::Arc;

fn main() {
    let preset = ClusterPreset::K8sPaas;
    let scale = 0.25;
    let topo = preset.topology_scaled(scale);
    let web = topo.role_named("tenant2-web").expect("preset role").id;
    let mut cfg = preset.default_sim_config();
    cfg.load = LoadSchedule::steady()
        .with(LoadShape::Diurnal { period_min: 1440.0, amplitude: 0.3, phase_min: 0.0 })
        .with(LoadShape::Spike { start_min: 150, duration_min: 45, factor: 3.5 });
    cfg.churn = ChurnPlan::none().with(200, web, 4);

    println!("streaming 6 hours of '{}' telemetry …\n", preset.name());
    let mut sim = Simulator::new(topo, cfg).expect("preset is valid");
    let monitored = sim
        .ground_truth()
        .ip_roles
        .keys()
        .copied()
        .filter(|ip| ip.octets()[0] == 10)
        .collect::<std::collections::HashSet<_>>();
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new(2048));
    let obs = Obs::new(registry.clone()).with_tracer(tracer.clone());
    // Metrics history + alerting: every displayed hour is one logical tick —
    // the registry is scraped into the TSDB and the default alert pack is
    // evaluated against the fresh history.
    let store = Arc::new(Tsdb::new(TsdbConfig::default()));
    let scraper = Arc::new(Scraper::new(registry.clone(), store.clone()));
    // A recording rule runs inside every scrape, writing the per-tick
    // watermark progress back into the TSDB as its own queryable series.
    scraper.add_recording_rule(
        RecordingRule::new(
            "pipeline:watermark:delta1",
            "delta(commgraph_ingest_watermark_seconds{source=\"pipeline\"}[1])",
        )
        .expect("rule expression parses"),
    );
    let alerts = Arc::new(AlertEngine::new(obs.clone()));
    let mut pipeline = Pipeline::new(PipelineConfig {
        window_len: 3600,
        monitored: Some(monitored),
        obs: obs.clone(),
        ..Default::default()
    });
    let root = obs.trace_root("pipeline_run");
    let minutes = 6 * 60;
    sim.run(minutes, |_, batch| pipeline.ingest(batch));
    let out = pipeline.finish().expect("windows arrive in order");
    drop(root);

    println!(
        "{} records total, {:.0} records/min average\n",
        out.total_records,
        out.total_records as f64 / minutes as f64
    );
    println!(
        "{:<6} {:>7} {:>7} {:>10} {:>12} {:>11} {:>11} {:>13}",
        "hour",
        "nodes",
        "edges",
        "MB moved",
        "edge-jacc",
        "new edges",
        "gone edges",
        "volume moves"
    );
    let seq = &out.sequence;
    // The default alert pack: every condition is a query expression the
    // engine evaluates per tick.
    alerts.add_rules(default_pack(out.total_records as f64 / seq.len().max(1) as f64));
    for (i, g) in seq.graphs().iter().enumerate() {
        let tick = i as u64 + 1;
        scraper.scrape(tick);
        alerts.evaluate(tick, &store);
        let (ej, added, removed, changed) = if i == 0 {
            (1.0, 0, 0, 0)
        } else {
            let d = seq.diff_adjacent(i - 1, 3.0).expect("adjacent pair");
            (d.edge_jaccard, d.added_edges.len(), d.removed_edges.len(), d.changed_edges.len())
        };
        let mut notes = Vec::new();
        if changed > 50 {
            notes.push("⚠ volume shift");
        }
        if added > 100 {
            notes.push("⚠ new structure");
        }
        println!(
            "{:<6} {:>7} {:>7} {:>10.0} {:>12.3} {:>11} {:>11} {:>13}  {}",
            format!("+{i}"),
            g.node_count(),
            g.edge_count(),
            g.totals().bytes() as f64 / 1e6,
            ej,
            added,
            removed,
            changed,
            notes.join(" ")
        );
    }

    let p = seq.persistence();
    println!("\nmean hour-over-hour edge similarity: {:.3}", p.mean_edge_jaccard);
    if let Some(t) = p.most_changed_transition {
        println!("biggest change: hour +{} → +{} (the flash crowd / scale-out)", t, t + 1);
    }

    // Final-hour matrix, Figure 4 style.
    let last = seq.graphs().last().expect("six windows");
    let raw = Matrix::from_rows(last.byte_matrix(4096).expect("collapsed scale"));
    println!("\nfinal-hour byte matrix (log scale, darker = more bytes):");
    print!("{}", to_ascii(&downsample(&log_normalize(&raw, 6.0), 56)));

    obs.event(
        commgraph::obs::Level::Info,
        "dashboard",
        "run complete",
        &[("records", out.total_records.to_string()), ("windows", seq.len().to_string())],
    );

    // Boot the real introspection server and scrape ourselves over HTTP —
    // this is exactly what a Prometheus scraper (or curl) would see.
    let server = IntrospectionServer::new(registry.clone())
        .with_tracer(tracer.clone())
        .with_tsdb(store.clone())
        .with_alerts(alerts.clone())
        .start("127.0.0.1:0")
        .expect("bind an ephemeral port");
    println!("\nintrospection server listening on http://{}", server.addr());

    // Instead of dumping the raw /metrics text, ask the query engine the
    // questions a dashboard actually asks — each one served over real HTTP
    // via /query_range, exactly as curl would see it.
    println!("── named queries (served over /query_range) ────────────────────");
    let named_queries: [(&str, &str); 4] = [
        (
            "ingest watermark (high-water telemetry seconds)",
            "commgraph_ingest_watermark_seconds{source=\"pipeline\"}",
        ),
        (
            "window roll-lag p99 (seconds)",
            "histogram_quantile(0.99, commgraph_window_roll_lag_seconds{source=\"pipeline\"})",
        ),
        (
            "late-record drop ratio",
            "commgraph_pipeline_dropped_late_records_total \
             / clamp_min(commgraph_pipeline_late_records_total, 1)",
        ),
        ("recorded per-tick watermark progress", "pipeline:watermark:delta1"),
    ];
    for (label, expr) in named_queries {
        let body = http_get(
            server.addr(),
            &format!("/query_range?expr={}&from=1&to={}&step=1", url_encode(expr), seq.len()),
        );
        println!("{label}\n  expr: {expr}\n  {}", body.trim_end());
    }
    println!();

    println!("── /alerts (scraped over HTTP) ─────────────────────────────────");
    println!("{}", http_get(server.addr(), "/alerts"));

    println!("── flight recorder (/trace.txt) ────────────────────────────────");
    print!("{}", trace::render_tree(&tracer.dump()));

    // Leave the endpoints up for interactive poking when asked to.
    if let Some(secs) =
        std::env::var("COMMGRAPH_SERVE_SECS").ok().and_then(|s| s.parse::<u64>().ok())
    {
        println!(
            "\nserving http://{} for {secs}s — try /metrics, /query_range?expr=..., /alerts, /trace",
            server.addr()
        );
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
    server.shutdown();

    let firing = alerts.firing();
    if firing.is_empty() {
        println!("\nno alerts firing after {} ticks", seq.len());
    } else {
        println!("\nalerts firing after {} ticks:", seq.len());
        for a in firing {
            println!("  ⚠ {} [{}] since tick {}", a.rule, a.severity, a.since_tick);
        }
    }
}

/// Percent-encode an expression for use as a `/query_range?expr=` value.
fn url_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'(' | b')' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Minimal HTTP/1.0 GET against our own introspection server.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("server reachable");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    }
}

/// Max-pool to at most `target` rows/cols for terminal display.
fn downsample(m: &Matrix, target: usize) -> Matrix {
    let n = m.rows();
    if n <= target {
        return m.clone();
    }
    let stride = n.div_ceil(target);
    let out_n = n.div_ceil(stride);
    let mut out = Matrix::zeros(out_n, out_n);
    for i in 0..n {
        for j in 0..n {
            if m[(i, j)] > out[(i / stride, j / stride)] {
                out[(i / stride, j / stride)] = m[(i, j)];
            }
        }
    }
    out
}
