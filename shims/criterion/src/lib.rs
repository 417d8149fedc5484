//! Offline stand-in for `criterion`: same authoring surface
//! (`criterion_group!`, `benchmark_group`, `bench_with_input`, `Bencher::iter`),
//! backed by a plain wall-clock measurement loop printing median times.
//!
//! Not statistically rigorous — it exists so `cargo bench` compiles and gives
//! usable numbers offline. The serious measurements live in the pinned
//! `benchmark` (`BENCHMARK.json`).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Harness entry point; one per `criterion_group!`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Fresh harness with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _parent: self, name: name.into(), sample_size: 20, throughput: None }
    }

    /// Single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark("", id, 20, None, f);
        self
    }
}

/// Named collection of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Units processed per iteration, for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure under this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        run_benchmark(&self.name, &id.to_string(), self.sample_size, self.throughput, f);
        self
    }

    /// Benchmark a closure parameterized by an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_benchmark(&self.name, &id.0, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// Close the group (prints nothing extra here).
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Build an id from the parameter value alone.
    pub fn from_parameter(p: impl Display) -> Self {
        BenchmarkId(p.to_string())
    }

    /// Build an id from a function name and parameter.
    pub fn new(name: impl Into<String>, p: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), p))
    }
}

/// Work units per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to the measured closure; call [`Bencher::iter`].
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measure `routine`, `sample_size` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One warm-up call, then timed samples.
        std::hint::black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher { samples: Vec::new(), sample_size };
    f(&mut b);
    let label = if group.is_empty() { id.to_string() } else { format!("{group}/{id}") };
    if b.samples.is_empty() {
        println!("bench {label}: no samples");
        return;
    }
    b.samples.sort();
    let median = b.samples[b.samples.len() / 2];
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!(" ({:.0} elem/s)", n as f64 / median.as_secs_f64()),
        Throughput::Bytes(n) => format!(" ({:.0} B/s)", n as f64 / median.as_secs_f64()),
    });
    println!(
        "bench {label}: median {:?} over {} samples{}",
        median,
        b.samples.len(),
        rate.unwrap_or_default()
    );
}

/// Re-export so `criterion::black_box` call sites work.
pub use std::hint::black_box;

/// Declare a group runner function invoking each benchmark fn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::new();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare `main` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
