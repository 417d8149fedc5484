//! Segmentation-cost benchmarks: the paper flags its own method's
//! "super-quadratic complexity" as an open issue and positions MinHash
//! sketching as the remedy, and SimRank as strictly costlier. These benches
//! quantify all of that on one K8s PaaS graph.

use algos::jaccard::{
    jaccard_clique, jaccard_matrix_of_sets, jaccard_matrix_of_sets_with, MinHasher,
};
use algos::louvain::{hierarchical_louvain, louvain, HierarchicalConfig};
use algos::roles::{directional_neighbor_sets, infer_roles, SegmentationMethod};
use algos::simrank::{simrank, simrank_with, SimRankConfig};
use algos::wgraph::WeightedGraph;
use algos::Parallelism;
use benchkit::{collapsed_ip_graph, simulate};
use cloudsim::ClusterPreset;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_similarity(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 5);
    let g = collapsed_ip_graph(&run);
    let sets = directional_neighbor_sets(&g);
    let structure = WeightedGraph::from_comm_graph(&g, |_| 1.0);

    let mut group = c.benchmark_group("similarity");
    group.sample_size(20);
    group.bench_function("jaccard_exact", |b| {
        b.iter(|| black_box(jaccard_matrix_of_sets(black_box(&sets))))
    });
    group.bench_function("jaccard_exact_clique", |b| {
        b.iter(|| black_box(jaccard_clique(black_box(&sets), 0.1)))
    });
    group.bench_function("jaccard_minhash_128", |b| {
        let mh = MinHasher::new(128, 7);
        b.iter(|| black_box(mh.similarity_matrix_of_sets(black_box(&sets))))
    });
    group.bench_function("simrank_5_iters", |b| {
        b.iter(|| black_box(simrank(black_box(&structure), SimRankConfig::default())))
    });
    group.finish();
}

/// Serial vs parallel variants of the similarity kernels, same inputs — the
/// speedup story satellite to the `commgraph-algos::par` scheduler.
fn bench_similarity_parallel(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 5);
    let g = collapsed_ip_graph(&run);
    let sets = directional_neighbor_sets(&g);
    let structure = WeightedGraph::from_comm_graph(&g, |_| 1.0);

    let mut group = c.benchmark_group("similarity_parallel");
    group.sample_size(20);
    for (label, par) in [("serial", Parallelism::serial()), ("parallel", Parallelism::default())] {
        group.bench_function(format!("jaccard_exact/{label}"), |b| {
            b.iter(|| black_box(jaccard_matrix_of_sets_with(black_box(&sets), par)))
        });
        group.bench_function(format!("simrank_5_iters/{label}"), |b| {
            b.iter(|| black_box(simrank_with(black_box(&structure), SimRankConfig::default(), par)))
        });
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 5);
    let g = collapsed_ip_graph(&run);
    let clique = jaccard_clique(&directional_neighbor_sets(&g), 0.1);

    let mut group = c.benchmark_group("clustering");
    group.sample_size(20);
    group.bench_function("louvain_flat", |b| b.iter(|| black_box(louvain(black_box(&clique)))));
    group.bench_function("louvain_hierarchical", |b| {
        b.iter(|| {
            black_box(hierarchical_louvain(black_box(&clique), HierarchicalConfig::default()))
        })
    });
    group.finish();
}

fn bench_end_to_end_methods(c: &mut Criterion) {
    let run = simulate(ClusterPreset::K8sPaas, 0.3, 5);
    let g = collapsed_ip_graph(&run);

    let mut group = c.benchmark_group("infer_roles");
    group.sample_size(10);
    group.bench_function("paper_jaccard_louvain", |b| {
        b.iter(|| black_box(infer_roles(black_box(&g), &SegmentationMethod::paper_default())))
    });
    group.bench_function("minhash_louvain", |b| {
        b.iter(|| {
            black_box(infer_roles(
                black_box(&g),
                &SegmentationMethod::MinHashLouvain { hashes: 128, min_score: 0.1, seed: 7 },
            ))
        })
    });
    group.bench_function("simrank", |b| {
        b.iter(|| {
            black_box(infer_roles(
                black_box(&g),
                &SegmentationMethod::SimRank { config: SimRankConfig::default(), min_score: 0.05 },
            ))
        })
    });
    group.bench_function("modularity_bytes", |b| {
        b.iter(|| black_box(infer_roles(black_box(&g), &SegmentationMethod::ModularityBytes)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_similarity,
    bench_similarity_parallel,
    bench_clustering,
    bench_end_to_end_methods
);
criterion_main!(benches);
