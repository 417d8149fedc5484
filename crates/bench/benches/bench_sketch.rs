//! Sketch and telemetry-stage benchmarks: HyperLogLog cardinality,
//! SpaceSaving heavy hitters, flow sampling, codecs, and the simulated
//! smartNIC flow-table path.

use analytics::sketch::SpaceSaving;
use benchkit::simulate;
use cloudsim::ClusterPreset;
use commgraph_graph::cardinality::{GraphCardinality, HyperLogLog};
use commgraph_graph::Facet;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flowlog::codec;
use flowlog::nic::{Direction, HostAgent};
use flowlog::sampling::{Sampler, SamplingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sketches(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 3);
    let records = &run.records;

    let mut group = c.benchmark_group("sketch");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("hll_graph_cardinality", |b| {
        b.iter(|| {
            let mut gc = GraphCardinality::new(Facet::IpPort);
            for r in records {
                gc.add(black_box(r));
            }
            black_box((gc.node_estimate(), gc.edge_estimate()))
        })
    });
    group.bench_function("hll_insert_estimate", |b| {
        b.iter(|| {
            let mut h = HyperLogLog::new();
            for i in 0..10_000u64 {
                h.insert(&i);
            }
            black_box(h.estimate())
        })
    });
    group.bench_function("spacesaving_heavy_edges", |b| {
        b.iter(|| {
            let mut s = SpaceSaving::new(1024);
            for r in records {
                s.insert(black_box(r.key.canonical()), r.bytes_total());
            }
            black_box(s.top(10))
        })
    });
    group.finish();
}

fn bench_telemetry_path(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 3);
    let records = &run.records;

    let mut group = c.benchmark_group("telemetry");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("gcp_sampling", |b| {
        let sampler =
            Sampler::new(SamplingConfig::new(0.5, 0.03).expect("valid"), 7).expect("valid");
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let kept: usize =
                records.iter().filter_map(|r| sampler.sample(black_box(r), &mut rng)).count();
            black_box(kept)
        })
    });
    group.bench_function("binary_codec_roundtrip", |b| {
        b.iter(|| {
            let buf = codec::encode_binary(black_box(records));
            black_box(codec::decode_binary(&buf).expect("round trip"))
        })
    });
    group.bench_function("nic_flow_table", |b| {
        b.iter(|| {
            let mut agent = HostAgent::new(4096, 60, 600);
            for (i, r) in records.iter().enumerate() {
                agent.observe(
                    r.ts + (i % 60) as u64,
                    r.key,
                    Direction::Tx,
                    r.pkts_sent,
                    r.bytes_sent,
                );
            }
            black_box(agent.flush(10_000))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sketches, bench_telemetry_path);
criterion_main!(benches);
