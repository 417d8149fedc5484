//! Data-parallel execution primitives shared by the dense kernels.
//!
//! Everything here is built on `std` only (scoped threads + atomics), per the
//! crate-policy ban on external dependencies. The only other ingredient is
//! the workspace's own zero-dep `obs` crate: when a process-global registry
//! is installed (`obs::install_global`), each scheduler invocation reports
//! tiles scheduled and per-worker busy time; without one the hooks are inert
//! branches. One scheduling shape covers every kernel in this workspace:
//! `for_each_task`, a work queue over *owned* tasks, typically disjoint
//! `&mut` row tiles produced by `chunks_mut`/`split_at_mut`. Workers claim
//! tasks by ticket, so load balances dynamically while the borrow checker
//! still proves the writes disjoint — no `unsafe` anywhere. [`par_map`] is
//! the order-preserving map built on it.
//!
//! Determinism contract: the scheduler never changes *what* is computed, only
//! *who* computes it. Every kernel built on it computes each output element
//! with a fixed, serial-identical operation order, so results are bit-for-bit
//! identical at any worker count (property-tested in `algos` and the root
//! crate). [`Parallelism`] selects a worker count and never an algorithm:
//! the inherently sequential kernels (Louvain's local-move sweep, the cyclic
//! Jacobi eigensolver) take no worker count at all.

use obs::names;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Scheduler-level metrics, resolved from the process-global observability
/// registry (noop until `obs::install_global`). Handles are looked up once
/// per kernel invocation, never per tile.
struct SchedObs {
    /// `commgraph_par_tiles_total{shape}` — tasks scheduled.
    tiles: obs::Counter,
    /// `commgraph_par_worker_busy_seconds{shape}` — one sample per worker
    /// per invocation; `sum / (workers × wall)` is the utilization.
    busy: obs::Histogram,
}

impl SchedObs {
    fn resolve() -> SchedObs {
        let o = obs::global();
        SchedObs {
            tiles: o.counter(&names::PAR_TILES_TOTAL, ["task"]),
            busy: o.histogram(&names::PAR_WORKER_BUSY_SECONDS, ["task"]),
        }
    }
}

/// How many worker threads the dense kernels may use.
///
/// The default is [`Parallelism::available`] (one worker per logical core);
/// [`Parallelism::serial`] (`1`) runs everything inline on the calling thread
/// and reproduces the exact legacy behaviour of every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Parallelism {
    /// Exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Parallelism { workers: workers.max(1) }
    }

    /// Single-threaded: run kernels inline, exactly as the legacy code did.
    pub fn serial() -> Self {
        Parallelism { workers: 1 }
    }

    /// One worker per logical core reported by the OS (1 if unknown).
    pub fn available() -> Self {
        Parallelism::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when work runs inline on the calling thread.
    pub(crate) fn is_serial(&self) -> bool {
        self.workers == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

/// Task work queue: run `body` once per task, distributing tasks over
/// workers via an atomic ticket counter.
///
/// Tasks commonly carry disjoint `&mut` row tiles (from `chunks_mut` or
/// iterated `split_at_mut`), which is what makes mutable parallel fills
/// expressible without `unsafe`: ownership of each tile moves into exactly
/// one `body` invocation. Each task slot is locked exactly once, so the
/// mutexes are uncontended bookkeeping, not a synchronization hot spot.
pub(crate) fn for_each_task<T, F>(par: Parallelism, tasks: Vec<T>, body: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let sched = SchedObs::resolve();
    sched.tiles.add(tasks.len() as u64);
    if par.is_serial() || tasks.len() <= 1 {
        #[expect(
            clippy::disallowed_methods,
            reason = "busy-time telemetry only; results are order-insensitive and clock-free"
        )]
        let t0 = sched.busy.is_enabled().then(Instant::now);
        for t in tasks {
            body(t);
        }
        if let Some(t0) = t0 {
            sched.busy.record(t0.elapsed().as_secs_f64());
        }
        return;
    }
    let workers = par.workers().min(tasks.len());
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let (slots, next, body, sched) = (&slots, &next, &body, &sched);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "busy-time telemetry only; results are order-insensitive and clock-free"
                )]
                let t0 = sched.busy.is_enabled().then(Instant::now);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    // Each slot is locked exactly once; a poisoned slot can
                    // only mean another worker unwound mid-`body`, and the
                    // task inside is still intact — recover it.
                    let task =
                        slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
                    if let Some(task) = task {
                        body(task);
                    }
                }
                if let Some(t0) = t0 {
                    sched.busy.record(t0.elapsed().as_secs_f64());
                }
            });
        }
    });
}

/// Parallel map preserving input order: `out[i] = f(&items[i])`.
///
/// Items are processed in contiguous tiles; each output element is produced
/// by exactly one invocation of `f`, so the result is identical at any
/// worker count.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let tile = tile_size(n, par);
    // One owned Vec per tile: each task fills its own buffer completely,
    // so reassembly is a flatten — no placeholder slots to unwrap.
    let mut chunks: Vec<Vec<U>> = (0..n.div_ceil(tile)).map(|_| Vec::new()).collect();
    let tasks: Vec<(usize, &mut Vec<U>)> =
        chunks.iter_mut().enumerate().map(|(t, buf)| (t * tile, buf)).collect();
    for_each_task(par, tasks, |(start, buf)| {
        *buf = items[start..(start + tile).min(n)].iter().map(&f).collect();
    });
    chunks.into_iter().flatten().collect()
}

/// A reasonable tile size: enough tiles per worker for dynamic balancing
/// without drowning in per-task overhead.
pub(crate) fn tile_size(n: usize, par: Parallelism) -> usize {
    n.div_ceil(par.workers() * 4).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_defaults_and_clamps() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::new(0).workers(), 1);
        assert!(Parallelism::available().workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::available());
    }

    #[test]
    fn tasks_run_exactly_once_with_mut_tiles() {
        for workers in [1, 2, 8] {
            let mut data = vec![0u32; 100];
            let tasks: Vec<(usize, &mut [u32])> =
                data.chunks_mut(9).enumerate().map(|(t, c)| (t * 9, c)).collect();
            for_each_task(Parallelism::new(workers), tasks, |(start, chunk)| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (start + k) as u32;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
        }
    }

    #[test]
    fn par_map_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 16] {
            assert_eq!(par_map(Parallelism::new(workers), &items, |x| x * x), expect);
        }
    }

    #[test]
    fn scheduler_reports_to_a_global_registry() {
        let r = std::sync::Arc::new(obs::Registry::new());
        // First install wins process-wide; either way `r` only observes the
        // scheduler when this test's install succeeded.
        if obs::install_global(r.clone()) {
            for_each_task(Parallelism::new(2), vec![(); 8], |()| {});
            let tiles = r.counter(&names::PAR_TILES_TOTAL, ["task"]);
            assert!(tiles.get() >= 8, "8 tasks scheduled");
            let busy = r.histogram(&names::PAR_WORKER_BUSY_SECONDS, ["task"]);
            assert!(busy.count() >= 1, "worker busy time recorded");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        for_each_task(Parallelism::new(4), Vec::<u8>::new(), |_| panic!("no tasks"));
        assert!(par_map(Parallelism::new(4), &[] as &[u8], |&b| b).is_empty());
    }
}
