//! Experiment E-COGS — §3.2's analytics case study (and Figure 8's tier).
//!
//! Measures, on this machine, what the paper argues economically:
//!
//! 1. **Throughput** — records/second one analytics process sustains while
//!    building hourly communication graphs (the sharded group-by-aggregate
//!    of Figure 8), across shard-thread counts, with the stream split over
//!    eight subscriptions.
//! 2. **Memory** — builder state with and without heavy-hitter collapsing
//!    ("the memory need is proportional to the number of node pairs").
//! 3. **Dollars** — plugging measured throughput into the paper's price
//!    points: analytics VMs per cluster, surcharge per monitored VM-hour,
//!    against the $0.02/hr market target.

use analytics::cogs::CogsModel;
use analytics::engine::EngineConfig;
use analytics::memory::{builder_bytes, human_bytes, snapshot_bytes};
use analytics::sharded::{ShardedConfig, ShardedEngine};
use analytics::sketch::SpaceSaving;
use benchkit::{arg_f64, arg_u64, simulate, write_artifact};
use cloudsim::ClusterPreset;
use commgraph_graph::collapse::collapse_default;
use serde_json::json;
use std::time::Instant;

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 20);
    eprintln!("[cogs] simulating K8s PaaS at scale {scale} for {minutes} min …");
    let run = simulate(ClusterPreset::K8sPaas, scale, minutes);
    let records = &run.records;
    eprintln!("[cogs] {} records; replaying through the engine …", records.len());

    // 1. Throughput across shard counts: the same stream, dealt in
    // 4096-record batches to eight subscriptions (a shard is a thread, and
    // a subscription lives on one shard, so one subscription cannot scale).
    println!("\nE-COGS/1 — graph-construction throughput (records/s, this machine)");
    println!("{:>9} {:>14} {:>12}", "shards", "records/s", "elapsed");
    let names: Vec<String> = (0..8).map(|s| format!("sub-{s}")).collect();
    let mut best_rps = 0f64;
    let mut throughputs = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut front = ShardedEngine::new(ShardedConfig {
            shards,
            engine: EngineConfig { monitored: Some(run.monitored.clone()), ..Default::default() },
            ..Default::default()
        })
        .expect("config is valid");
        let t0 = Instant::now();
        for (chunk, name) in records.chunks(4096).zip(names.iter().cycle()) {
            front.ingest(name, chunk).expect("engine accepts batches");
        }
        let (reports, _) = front.finish().expect("engine drains");
        let elapsed = t0.elapsed().as_secs_f64();
        // Guarded rate: a sub-tick elapsed must report 0, not inf/NaN.
        let rps = obs::rate::per_second(records.len() as u64, elapsed);
        best_rps = best_rps.max(rps);
        println!("{:>9} {:>14.0} {:>11.2}s", shards, rps, elapsed);
        throughputs.push(json!({"shards": shards, "records_per_sec": rps}));
        assert!(reports.iter().all(|r| !r.graphs.is_empty()));
    }

    // 2. Memory: full graph vs collapsed vs sketch.
    let mut engine = ShardedEngine::new(ShardedConfig {
        shards: 1,
        engine: EngineConfig { monitored: Some(run.monitored.clone()), ..Default::default() },
        ..Default::default()
    })
    .expect("config is valid");
    engine.ingest("all", records).expect("engine accepts batches");
    let (mut reports, _) = engine.finish().expect("engine drains");
    let report = reports.pop().expect("one subscription ingested");
    let (g, stats) = (&report.graphs[0], &report.stats);
    let collapsed = collapse_default(g);
    let mut sketch: SpaceSaving<(commgraph_graph::NodeId, commgraph_graph::NodeId)> =
        SpaceSaving::new(4096);
    for r in records.iter() {
        let (a, b) = commgraph_graph::Facet::Ip.endpoints(r);
        let key = if a <= b { (a, b) } else { (b, a) };
        sketch.insert(key, r.bytes_total());
    }
    println!("\nE-COGS/2 — memory proportional to node pairs");
    println!(
        "  full graph:      {} nodes, {} edges ≈ {}",
        g.node_count(),
        g.edge_count(),
        human_bytes(snapshot_bytes(g))
    );
    println!(
        "  collapsed (0.1%): {} nodes, {} edges ≈ {}",
        collapsed.node_count(),
        collapsed.edge_count(),
        human_bytes(snapshot_bytes(&collapsed))
    );
    println!(
        "  builder state:   {} edge entries ≈ {}",
        stats.edge_entries,
        human_bytes(builder_bytes(stats.edge_entries))
    );
    println!(
        "  SpaceSaving top-4096 heavy-edge sketch: {} counters ≈ {}",
        sketch.len(),
        human_bytes(sketch.len() * 96)
    );

    // 3. Dollars at the paper's price points, per cluster.
    // One "analytics VM" = 8 cores; our measurement used up to 8 shard threads.
    let model = CogsModel::paper_defaults(best_rps);
    println!("\nE-COGS/3 — surcharge at paper price points (analytics VM ≈ this host)");
    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>18} {:>8}",
        "Cluster", "records/min", "GB/day", "analytics VMs", "$/VM-hour", "fits?"
    );
    let mut cogs_rows = Vec::new();
    for preset in ClusterPreset::all() {
        let r = model.assess(preset.paper_monitored_ips(), preset.paper_records_per_min());
        println!(
            "{:<16} {:>12} {:>14.2} {:>14} {:>18.5} {:>8}",
            preset.name(),
            benchkit::fmt_count(r.records_per_min),
            r.gb_per_day,
            r.analytics_vms,
            r.surcharge_per_vm_hour_usd,
            if r.within_target { "yes" } else { "NO" }
        );
        cogs_rows.push(serde_json::to_value(&r).expect("serializable"));
    }
    println!("\npaper target: ~1000 VMs of telemetry on a handful of VMs (≈0.5%), market");
    println!("price point $0.02/hr/VM (≈4% of a $0.5/hr VM).");

    let path = write_artifact(
        "cogs",
        "cogs.json",
        &serde_json::to_string_pretty(&json!({
            "throughputs": throughputs,
            "best_records_per_sec": best_rps,
            "full_graph": {"nodes": g.node_count(), "edges": g.edge_count()},
            "collapsed_graph": {"nodes": collapsed.node_count(), "edges": collapsed.edge_count()},
            "builder_edge_entries": stats.edge_entries,
            "clusters": cogs_rows,
        }))
        .expect("serializable"),
    );
    eprintln!("[cogs] artifacts in {}", path.with_file_name("").display());
}
