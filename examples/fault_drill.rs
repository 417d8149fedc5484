//! Run a fault script against a simulated cluster and watch what the
//! analytics tier sees: delivery/loss/dedup counters from the network,
//! late/dropped-late accounting from the pipeline, and per-subscription
//! engine totals — twice, to demonstrate that the same seed replays to
//! byte-identical outcomes.
//!
//! Usage:
//!   cargo run --release --example fault_drill
//!   cargo run --release --example fault_drill -- 'at 2 crash 10.0.0.1 for 3 replay'
//!   cargo run --release --example fault_drill -- 'at 1 partition 10.0.0.1,10.0.0.2 for 4; at 8 skew 10.0.0.3 -3600'
//!
//! Script grammar (statements split on `;`/newlines, `#` comments):
//!   at TICK crash HOST for N (lose|replay)
//!   at TICK delay HOST for N
//!   at TICK skew HOST SECS
//!   at TICK partition HOST[,HOST...] for N

use commgraph::analytics::sharded::{ShardedConfig, ShardedEngine};
use commgraph::cloudsim::net::{FaultScript, NetConfig, NetSim};
use commgraph::flowlog::record::{ConnSummary, FlowKey};
use commgraph::obs::{self, names};
use commgraph::pipeline::{Pipeline, PipelineConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;

const TICKS: u64 = 12;
const HOSTS: u8 = 4;

/// One tick's flow summaries: each host reports one flow to a shared
/// server, one window (3600 s) per six ticks.
fn batch(t: u64) -> Vec<ConnSummary> {
    (1..=HOSTS)
        .map(|h| ConnSummary {
            ts: t * 600,
            key: FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, h),
                40_000 + t as u16,
                Ipv4Addr::new(10, 0, 9, 9),
                443,
            ),
            pkts_sent: 6,
            pkts_rcvd: 4,
            bytes_sent: 2_000,
            bytes_rcvd: 400,
        })
        .collect()
}

fn run(script: &FaultScript) -> (String, String) {
    let registry = Arc::new(obs::Registry::new());
    let o = obs::Obs::new(registry.clone());
    let mut pipeline = Pipeline::new(PipelineConfig { obs: o, ..Default::default() });
    let mut front = ShardedEngine::new(ShardedConfig::default()).expect("valid front-door config");
    let cfg = NetConfig { latency_ticks: (0, 2), ..NetConfig::default() };
    let mut net = NetSim::new(cfg, script.clone()).expect("valid net config");

    let mut dedup_dropped = 0u64;
    let mut sink = |front: &mut ShardedEngine, pipeline: &mut Pipeline, d: &_| {
        let d: &commgraph::cloudsim::net::Delivery = d;
        let fresh = front
            .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
            .expect("seam ingest succeeds");
        if fresh {
            pipeline.ingest(&d.records);
        } else {
            dedup_dropped += d.records.len() as u64;
        }
    };
    for t in 0..TICKS {
        net.offer(&batch(t));
        net.step(|d| sink(&mut front, &mut pipeline, d));
    }
    net.drain(|d| sink(&mut front, &mut pipeline, d));

    let s = net.stats();
    let late = registry.counter(&names::PIPELINE_LATE_RECORDS_TOTAL, []).get();
    let dropped_late = registry.counter(&names::PIPELINE_DROPPED_LATE_RECORDS_TOTAL, []).get();
    let out = pipeline.finish().expect("pipeline finishes");
    let (reports, _) = front.finish().expect("front door finishes");
    let engine = &reports[0].stats;

    let network = format!(
        "network   offered {:>3}  delivered {:>3}  net-dropped {:>2}  agent-lost {:>2}  \
         duplicated {:>2}  replayed {:>2}  reordered {:>2}",
        s.offered_records,
        s.delivered_records,
        s.dropped_records,
        s.lost_at_agent_records,
        s.duplicated_packets,
        s.replayed_packets,
        s.reordered_packets,
    );
    let analytics = format!(
        "analytics accepted {:>3}  dedup-dropped {:>2}  late {:>2}  dropped-late {:>2}  \
         windows {}  pipeline-records {}",
        engine.records_in,
        dedup_dropped,
        late,
        dropped_late,
        out.sequence.len(),
        out.total_records,
    );
    (network, analytics)
}

fn main() {
    let text = std::env::args().nth(1).unwrap_or_else(|| {
        "at 2 crash 10.0.0.1 for 3 replay; at 5 delay 10.0.0.2 for 2".to_string()
    });
    let script = match FaultScript::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad fault script: {e}");
            std::process::exit(2);
        }
    };
    println!("fault script ({} event(s)): {text}\n", script.len());

    let first = run(&script);
    println!("{}\n{}", first.0, first.1);
    let second = run(&script);
    assert_eq!(first, second, "same seed must replay byte-identically");
    println!("\nreplayed: second run is byte-identical (seeded logical clock)");
}
