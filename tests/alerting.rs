//! The deterministic-tick alerting contract, asserted end to end: the same
//! steady-churn workload with an injected roll-lag fault produces a
//! **bit-identical** alert firing sequence across two independent runs —
//! compared over real HTTP via `/alerts`, not in-process.
//!
//! Determinism holds because every link in the chain is tick-keyed, never
//! wall-clock-keyed: the per-subscription roll-lag gauge is computed from
//! record timestamps, the scraper samples on logical ticks (one per
//! ingested window batch), the alert engine evaluates on the same ticks,
//! and the `/alerts` JSON carries only tick numbers.

use commgraph::analytics::sharded::{ShardedConfig, ShardedEngine};
use commgraph::flowlog::record::{ConnSummary, FlowKey};
use commgraph::obs;
use serde_json::Value;
use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;

const WINDOW_LEN: u64 = 3600;
const WINDOWS: u64 = 8;

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("server reachable");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    }
}

/// One window's batch of a steady-churn workload. The injected fault: in
/// windows 3 and 4 the first record lands 1 200 s into the window (an
/// upstream flow-log delivery stall), far over the 600 s roll-lag
/// threshold; every other window opens 10 s in.
fn window_batch(w: u64) -> Vec<ConnSummary> {
    let lag_fault = w == 3 || w == 4;
    let base = w * WINDOW_LEN + if lag_fault { 1200 } else { 10 };
    let mut recs = Vec::new();
    for i in 0..20u8 {
        recs.push(ConnSummary {
            ts: base + i as u64 * 7,
            key: FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1 + i % 4),
                40_000,
                Ipv4Addr::new(10, 0, 1, 1),
                443,
            ),
            pkts_sent: 10,
            pkts_rcvd: 8,
            bytes_sent: 10_000 + w * 100,
            bytes_rcvd: 2_500,
        });
    }
    recs
}

/// The per-subscription roll-lag page: above 600 s, held for one tick.
fn roll_lag_rule() -> obs::AlertRule {
    obs::AlertRule::query(
        "subscription_roll_lag_high",
        "commgraph_subscription_roll_lag_seconds{subscription=\"tenant-a\"} > 600",
    )
    .expect("roll-lag expression parses")
    .with_for_ticks(1)
}

/// Run the whole chain once and return the `/alerts` body served over HTTP.
fn run_once() -> String {
    let registry = Arc::new(obs::Registry::new());
    let o = obs::Obs::new(registry.clone());
    let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
    let scraper = Arc::new(obs::Scraper::new(registry.clone(), store.clone()));
    let alerts = Arc::new(obs::AlertEngine::new(o.clone()));
    alerts.add_rule(roll_lag_rule());

    let mut front =
        ShardedEngine::new(ShardedConfig { obs: o, window_len: WINDOW_LEN, ..Default::default() })
            .unwrap();
    for w in 0..WINDOWS {
        front.ingest("tenant-a", &window_batch(w)).unwrap();
        let tick = w + 1;
        scraper.scrape(tick);
        alerts.evaluate(tick, &store);
    }
    front.finish().unwrap();

    let server = obs::IntrospectionServer::new(registry)
        .with_tsdb(store)
        .with_alerts(alerts)
        .start("127.0.0.1:0")
        .expect("bind an ephemeral port");
    let body = http_get(server.addr(), "/alerts");
    server.shutdown();
    body
}

#[test]
fn lag_fault_fires_bit_identically_across_runs_over_http() {
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "two full runs serve byte-identical /alerts documents");

    let doc: Value = serde_json::from_str(&first).expect("valid /alerts JSON");
    assert_eq!(doc["tick"].as_u64(), Some(WINDOWS), "one tick per ingested window");

    // The fault lands in window 4 (tick 4): that batch's first record opens
    // the window 1 200 s late, so the gauge crosses the 600 s threshold —
    // pending at tick 4, firing after the one-tick hold at tick 5 (the
    // second faulty window), resolved when window 6 opens on time.
    let transitions: Vec<(u64, &str, &str)> = doc["transitions"]
        .as_array()
        .expect("transition log")
        .iter()
        .map(|t| {
            (t["tick"].as_u64().unwrap(), t["from"].as_str().unwrap(), t["to"].as_str().unwrap())
        })
        .collect();
    assert_eq!(
        transitions,
        vec![
            (4, "inactive", "pending"),
            (5, "pending", "firing"),
            (6, "firing", "resolved"),
            (7, "resolved", "inactive"),
        ],
        "the exact firing sequence of the injected lag fault"
    );
    let alert = &doc["alerts"].as_array().expect("alerts array")[0];
    assert_eq!(alert["rule"].as_str(), Some("subscription_roll_lag_high"));
    assert_eq!(alert["state"].as_str(), Some("inactive"), "healthy again by the last tick");
}

/// The default pack stays held to what its deleted hard-coded twin
/// (`Condition::{Threshold, Absence, BurnRate}` in Rust) produced: over the
/// real sharded-engine workload, lag fault included, the pack plus the
/// roll-lag page must walk the exact `(tick, rule, from, to)` sequence that
/// twin walked at the last commit that had it, pinned here as a literal.
#[test]
fn default_pack_walks_the_pinned_hard_coded_sequence_on_the_real_workload() {
    use obs::AlertState::{Firing, Inactive, Pending, Resolved};
    const RATE: f64 = 20.0; // records per window batch

    let registry = Arc::new(obs::Registry::new());
    let o = obs::Obs::new(registry.clone());
    let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
    let scraper = Arc::new(obs::Scraper::new(registry.clone(), store.clone()));
    let alerts = obs::AlertEngine::new(o.clone());
    alerts.add_rules(obs::alert::default_pack(RATE));
    alerts.add_rule(roll_lag_rule());

    let mut front =
        ShardedEngine::new(ShardedConfig { obs: o, window_len: WINDOW_LEN, ..Default::default() })
            .unwrap();
    for w in 0..WINDOWS {
        front.ingest("tenant-a", &window_batch(w)).unwrap();
        let tick = w + 1;
        scraper.scrape(tick);
        alerts.evaluate(tick, &store);
    }
    front.finish().unwrap();

    let walked: Vec<(u64, String, obs::AlertState, obs::AlertState)> =
        alerts.history().iter().map(|t| (t.tick, t.rule.clone(), t.from, t.to)).collect();
    let pinned = [
        (1, "incremental_savings_stalled", Inactive, Pending),
        (1, "incremental_savings_stalled", Pending, Firing),
        (4, "subscription_roll_lag_high", Inactive, Pending),
        (5, "subscription_roll_lag_high", Pending, Firing),
        (6, "subscription_roll_lag_high", Firing, Resolved),
        (7, "subscription_roll_lag_high", Resolved, Inactive),
    ];
    assert_eq!(walked, pinned.map(|(tick, rule, from, to)| (tick, rule.to_string(), from, to)));
}
