//! End-to-end ingest throughput of the streaming analytics engine — the
//! number that feeds the COGS model: records/second per process at various
//! shard-thread counts, the stream dealt to eight subscriptions.

use analytics::engine::EngineConfig;
use analytics::sharded::{ShardedConfig, ShardedEngine};
use benchkit::simulate;
use cloudsim::ClusterPreset;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 5);
    let records = &run.records;

    let mut group = c.benchmark_group("engine_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    let names: Vec<String> = (0..8).map(|s| format!("sub-{s}")).collect();
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
            b.iter(|| {
                let mut front = ShardedEngine::new(ShardedConfig {
                    shards,
                    engine: EngineConfig {
                        monitored: Some(run.monitored.clone()),
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .expect("valid config");
                for (chunk, name) in records.chunks(4096).zip(names.iter().cycle()) {
                    front.ingest(name, black_box(chunk)).expect("ingest succeeds");
                }
                black_box(front.finish().expect("drains"))
            })
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    // The simulator itself must be fast enough to drive KQuery-scale
    // experiments; benchmark record generation per minute of cluster time.
    let mut group = c.benchmark_group("simulator_minute");
    group.sample_size(10);
    for (name, preset, scale) in [
        ("usvc_full", ClusterPreset::MicroserviceBench, 1.0),
        ("k8s_half", ClusterPreset::K8sPaas, 0.5),
        ("kquery_tenth", ClusterPreset::KQuery, 0.1),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let topo = preset.topology_scaled(scale);
                let mut sim =
                    cloudsim::Simulator::new(topo, preset.default_sim_config()).expect("valid");
                black_box(sim.collect(1))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_simulator);
criterion_main!(benches);
