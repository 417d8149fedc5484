//! Linear-algebra benchmarks: the Jacobi and top-k Lanczos eigensolvers and
//! the PCA sweep behind the §2.2 summaries, at communication-matrix sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linalg::eigen::{eigen_symmetric, eigen_top_k};
use linalg::ica::fast_ica;
use linalg::pca::{pca_sweep, recon_err_profile_with};
use linalg::quantize::log_normalize;
use linalg::{Matrix, Parallelism};
use std::hint::black_box;

/// A synthetic block-structured "communication matrix" of dimension n with
/// `roles` blocks — low-rank like the real ones.
fn block_matrix(n: usize, roles: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f64 / 16_777_216.0
    };
    let block = |i: usize| i * roles / n;
    for i in 0..n {
        for j in (i + 1)..n {
            let (bi, bj) = (block(i), block(j));
            // Role-pair base volume plus small noise.
            let base = if (bi + bj) % 3 == 0 {
                1e6
            } else if bi == bj {
                0.0
            } else {
                1e4
            };
            let v = base * (0.9 + 0.2 * next());
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

fn bench_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigen_jacobi");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let m = block_matrix(n, 16);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| black_box(eigen_symmetric(black_box(m), 1e-10).expect("symmetric")))
        });
    }
    group.finish();
    // The paper's k = 25 on the same matrices (and one at its n > 500).
    let mut group = c.benchmark_group("eigen_top_k");
    group.sample_size(10);
    for n in [256usize, 512] {
        let m = block_matrix(n, 16);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| black_box(eigen_top_k(black_box(m), 25, 1e-10).expect("symmetric")))
        });
    }
    group.finish();
}

fn bench_pca(c: &mut Criterion) {
    let m = block_matrix(128, 16);
    let d = eigen_symmetric(&m, 1e-10).expect("symmetric");
    let mut group = c.benchmark_group("pca");
    group.sample_size(10);
    group.bench_function("sweep_128", |b| {
        b.iter(|| black_box(pca_sweep(black_box(&m), &[1, 5, 10, 25, 50]).expect("square")))
    });
    // The error profile is the one stage of the sweep with a worker count
    // (the eigensolver is single-threaded by design).
    for (label, par) in [("serial", Parallelism::serial()), ("parallel", Parallelism::default())] {
        group.bench_function(format!("err_profile_128/{label}"), |b| {
            b.iter(|| {
                black_box(
                    recon_err_profile_with(black_box(&d), black_box(&m), par).expect("aligned"),
                )
            })
        });
    }
    group.finish();
}

fn bench_ica_and_quantize(c: &mut Criterion) {
    let m = block_matrix(96, 12);
    let mut group = c.benchmark_group("ica_quantize");
    group.sample_size(10);
    group.bench_function("fastica_10_comps", |b| {
        b.iter(|| black_box(fast_ica(black_box(&m), 10, 200).expect("valid input")))
    });
    group.bench_function("log_normalize_96", |b| {
        b.iter(|| black_box(log_normalize(black_box(&m), 6.0)))
    });
    group.finish();
}

criterion_group!(benches, bench_eigen, bench_pca, bench_ica_and_quantize);
criterion_main!(benches);
