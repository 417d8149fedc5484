//! One shard of the analytics tier: a long-lived thread that owns the
//! per-`(subscription, window)` edge tables of its resident subscriptions,
//! plus the front-door handle that stages records for it.
//!
//! The thread runs the one group-by-aggregate the workspace has — a
//! [`GraphBuilder`] per `(subscription, window)` — and, once its channel
//! closes, assembles its own subscriptions' graphs: nothing is ever merged
//! across shards.

use crate::engine::{EngineConfig, EngineStats};
use crate::error::{Error, Result};
use commgraph_graph::{CommGraph, GraphBuilder, Inventory};
use crossbeam::channel::{bounded, Receiver, Sender};
use flowlog::record::ConnSummary;
use flowlog::time::bucket_start;
use obs::SpanGuard;
use std::collections::BTreeMap;
use std::thread::JoinHandle;

/// Records staged per shard before one channel hand-over.
const BATCH_RECORDS: usize = 4096;

/// What crosses the channel: records of one or more resident subscriptions,
/// cut into `(subscription, length)` runs.
#[derive(Default)]
pub(crate) struct Batch {
    records: Vec<ConnSummary>,
    runs: Vec<(u32, usize)>,
}

/// One subscription's share of its shard's output: a graph per window, in
/// time order, and the counters only the shard knows (kept, edge entries).
pub(crate) type SubOutput = (Vec<CommGraph>, EngineStats);

/// The front door's handle on one shard thread.
pub(crate) struct Shard {
    /// `None` once closed: the thread sees the disconnect and assembles.
    tx: Option<Sender<Batch>>,
    handle: JoinHandle<BTreeMap<u32, SubOutput>>,
    staged: Batch,
}

impl Shard {
    /// Spawn shard `index` of an engine configured by `cfg`.
    pub(crate) fn spawn(index: usize, cfg: &EngineConfig) -> Result<Shard> {
        let cfg = cfg.clone();
        Shard::spawn_with(index, cfg.queue_depth, move |rx| aggregate(rx, index, cfg))
    }

    /// Spawn a shard thread running `body` (the seam the failure tests use).
    pub(crate) fn spawn_with(
        index: usize,
        queue_depth: usize,
        body: impl FnOnce(Receiver<Batch>) -> BTreeMap<u32, SubOutput> + Send + 'static,
    ) -> Result<Shard> {
        let (tx, rx) = bounded(queue_depth.max(1));
        let handle = std::thread::Builder::new()
            .name(format!("commgraph-shard-{index}"))
            .spawn(move || body(rx))
            .map_err(|e| Error::WorkerFailed(format!("spawning shard {index}: {e}")))?;
        Ok(Shard { tx: Some(tx), handle, staged: Batch::default() })
    }

    /// Stage `records` of resident subscription `sub`, handing the batch over
    /// once it holds [`BATCH_RECORDS`]: blocks while the shard's queue is full
    /// (backpressure), errors once its thread is gone.
    pub(crate) fn stage(&mut self, sub: u32, records: &[ConnSummary]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.staged.records.extend_from_slice(records);
        match self.staged.runs.last_mut() {
            Some((last, len)) if *last == sub => *len += records.len(),
            _ => self.staged.runs.push((sub, records.len())),
        }
        if self.staged.records.len() >= BATCH_RECORDS {
            self.flush()
        } else {
            Ok(())
        }
    }

    fn flush(&mut self) -> Result<()> {
        let gone = || Error::WorkerFailed("shard thread is gone".into());
        let batch = std::mem::take(&mut self.staged);
        self.tx.as_ref().ok_or_else(gone)?.send(batch).map_err(|_| gone())
    }

    /// Hand over what is staged and close the channel, which starts the
    /// thread's assembly. (A failed hand-over means it died: `join` says so.)
    pub(crate) fn close(&mut self) {
        let _ = self.flush();
        self.tx = None;
    }

    /// Wait for the (closed) shard's output, by subscription.
    pub(crate) fn join(self) -> Result<BTreeMap<u32, SubOutput>> {
        self.handle.join().map_err(|_| Error::WorkerFailed("shard thread panicked".into()))
    }
}

/// The shard thread: aggregate batches until the channel closes, then
/// assemble every resident subscription's graphs.
fn aggregate(rx: Receiver<Batch>, index: usize, cfg: EngineConfig) -> BTreeMap<u32, SubOutput> {
    let shard = index.to_string();
    let busy = cfg.obs.histogram("commgraph_engine_worker_busy_seconds", "", &[("worker", &shard)]);
    // No inventory and an empty one are the same rule: nothing is deduped.
    let monitored = Inventory::from(cfg.monitored.unwrap_or_default());
    let fresh = |window: u64| {
        GraphBuilder::new(cfg.facet.clone(), window, cfg.window_len)
            .with_monitored(monitored.clone())
    };
    let mut tables: BTreeMap<(u32, u64), GraphBuilder> = BTreeMap::new();
    while let Ok(batch) = rx.recv() {
        // Busy time is aggregation work only, not blocking on the channel.
        let _busy = SpanGuard::start(busy.clone());
        let mut rest = batch.records.as_slice();
        for (sub, len) in batch.runs {
            let (mut run, tail) = rest.split_at(len);
            rest = tail;
            // One table lookup (and one division) per stretch of records
            // in the same window, not per record.
            while let Some(first) = run.first() {
                let window = bucket_start(first.ts, cfg.window_len);
                let same = |r: &&ConnSummary| r.ts >= window && r.ts - window < cfg.window_len;
                let n = run.iter().take_while(same).count();
                tables.entry((sub, window)).or_insert_with(|| fresh(window)).add_all(&run[..n]);
                run = &run[n..];
            }
        }
    }
    let mut out: BTreeMap<u32, SubOutput> = BTreeMap::new();
    let mut edge_entries = 0;
    for ((sub, _), builder) in tables {
        let (graphs, stats) = out.entry(sub).or_default();
        stats.records_kept += builder.record_counts().1;
        stats.edge_entries += builder.edge_count();
        edge_entries += builder.edge_count();
        graphs.push(builder.finish());
    }
    cfg.obs
        .gauge("commgraph_engine_shard_edge_entries", "", &[("shard", &shard)])
        .set(edge_entries as f64);
    out
}
