//! One shard of the analytics tier: a long-lived thread that owns the open
//! window tables of its resident subscriptions, plus the front-door handle
//! that stages records for it.
//!
//! The thread runs the one group-by-aggregate the workspace has — a
//! [`GraphBuilder`] per open `(subscription, window)` — under one rule,
//! decided per record from the subscription's own record order: the open
//! windows are the newest window its records opened and the one before it.
//! A record opening a newer window closes the older ones there and then
//! (their graphs are assembled during ingest, a drained table becomes the
//! new window's); a record whose window has closed is late, counted and
//! not aggregated. Once the channel closes the thread assembles the windows
//! still open; nothing is ever merged across shards.

use crate::engine::{EngineConfig, EngineStats};
use crate::error::{Error, Result};
use commgraph_graph::{CommGraph, GraphBuilder, Inventory};
use flowlog::record::ConnSummary;
use flowlog::time::bucket_start;
use obs::{names, SpanGuard};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Records staged per shard before one channel hand-over.
const BATCH_RECORDS: usize = 4096;

/// What crosses the channel: records of one or more resident subscriptions,
/// cut into `(slot, length)` runs, where a slot is a resident's index on its
/// shard.
#[derive(Default)]
pub(crate) struct Batch {
    records: Vec<ConnSummary>,
    runs: Vec<(usize, usize)>,
}

/// One subscription's share of its shard's output: a graph per window, in
/// time order, and the counters only the shard knows (kept, late, edge
/// entries).
pub(crate) type SubOutput = (Vec<CommGraph>, EngineStats);

/// The front door's handle on one shard thread.
pub(crate) struct Shard {
    /// `None` once closed: the thread sees the disconnect and assembles.
    tx: Option<SyncSender<Batch>>,
    handle: JoinHandle<Vec<SubOutput>>,
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
        body: impl FnOnce(Receiver<Batch>) -> Vec<SubOutput> + Send + 'static,
    ) -> Result<Shard> {
        let (tx, rx) = sync_channel(queue_depth.max(1));
        #[expect(
            clippy::disallowed_methods,
            reason = "the shard pool, one of the two threads the product starts: a shard is a thread"
        )]
        let handle = std::thread::Builder::new()
            .name(format!("commgraph-shard-{index}"))
            .spawn(move || body(rx))
            .map_err(|e| Error::WorkerFailed(format!("spawning shard {index}: {e}")))?;
        Ok(Shard { tx: Some(tx), handle, staged: Batch::default() })
    }

    /// Stage `records` of the resident in `slot`, handing the batch over once
    /// it holds [`BATCH_RECORDS`]: blocks while the shard's queue is full
    /// (backpressure), errors once its thread is gone.
    pub(crate) fn stage(&mut self, slot: usize, records: &[ConnSummary]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        if self.staged.records.is_empty() {
            // Sized for the whole hand-over at its first record, so a batch
            // of tiny calls does not regrow from empty, and a bulk call
            // still allocates once, at its own size.
            self.staged.records.reserve(BATCH_RECORDS.max(records.len()));
        }
        self.staged.records.extend_from_slice(records);
        match self.staged.runs.last_mut() {
            Some((last, len)) if *last == slot => *len += records.len(),
            _ => self.staged.runs.push((slot, records.len())),
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

    /// Wait for the (closed) shard's output, by slot; a slot that never
    /// staged a record may lie past its end.
    pub(crate) fn join(self) -> Result<Vec<SubOutput>> {
        self.handle.join().map_err(|_| Error::WorkerFailed("shard thread panicked".into()))
    }
}

/// One resident subscription on its shard: its open windows and what it
/// has produced so far.
#[derive(Default)]
struct Resident {
    /// Open windows in start order.
    // bound: two tables — the newest window and the one before it.
    open: Vec<GraphBuilder>,
    out: SubOutput,
}

impl Resident {
    /// The open table of `window` for the subscription's next record, after
    /// applying the window rule; `None` when that record is late.
    fn table(
        &mut self,
        window: u64,
        window_len: u64,
        fresh: impl FnOnce(u64) -> GraphBuilder,
    ) -> Option<&mut GraphBuilder> {
        let newest = self.open.last().map_or(window, GraphBuilder::window_start).max(window);
        let oldest_open = newest.saturating_sub(window_len);
        if window < oldest_open {
            return None;
        }
        // Only a record opening a newer window closes any.
        let closing = self.open.iter().take_while(|b| b.window_start() < oldest_open).count();
        let recycled = self.close(closing, window);
        let at = self.open.partition_point(|b| b.window_start() < window);
        if self.open.get(at).map(GraphBuilder::window_start) != Some(window) {
            self.open.insert(at, recycled.unwrap_or_else(|| fresh(window)));
        }
        self.open.get_mut(at)
    }

    /// Close the `n` oldest open windows into the output, in start order;
    /// the last table drained comes back restarted at window `next`.
    fn close(&mut self, n: usize, next: u64) -> Option<GraphBuilder> {
        let mut recycled = None;
        for mut table in self.open.drain(..n) {
            self.out.1.records_kept += table.record_counts().1;
            self.out.1.edge_entries += table.edge_count();
            self.out.0.push(table.restart(next));
            recycled = Some(table);
        }
        recycled
    }

    /// Offer `run`, records of this subscription in arrival order.
    fn add(
        &mut self,
        mut run: &[ConnSummary],
        window_len: u64,
        fresh: impl Fn(u64) -> GraphBuilder,
    ) {
        // A run wholly inside the newest open window goes to it: that is the
        // table the rule gives each of its records, and nothing closes.
        if let Some(newest) = self.open.last_mut() {
            let start = newest.window_start();
            if run.iter().all(|r| r.ts >= start && r.ts - start < window_len) {
                newest.add_all(run);
                return;
            }
        }
        // One table lookup (and one division) per stretch of records in the
        // same window, not per record: the rule gives them all one answer.
        while let Some(first) = run.first() {
            let window = bucket_start(first.ts, window_len);
            let same = |r: &&ConnSummary| r.ts >= window && r.ts - window < window_len;
            let (stretch, rest) = run.split_at(run.iter().take_while(same).count());
            match self.table(window, window_len, &fresh) {
                Some(table) => table.add_all(stretch),
                None => self.out.1.records_late += stretch.len() as u64,
            }
            run = rest;
        }
    }

    /// End of stream: assemble the windows still open.
    fn finish(mut self) -> SubOutput {
        self.close(self.open.len(), 0);
        self.out
    }
}

/// The shard thread: aggregate batches until the channel closes, then
/// assemble every resident subscription's open windows.
fn aggregate(rx: Receiver<Batch>, index: usize, cfg: EngineConfig) -> Vec<SubOutput> {
    let shard = index.to_string();
    let busy = cfg.obs.histogram(&names::ENGINE_WORKER_BUSY_SECONDS, [&shard]);
    // No inventory and an empty one are the same rule: nothing is deduped.
    let monitored = Inventory::from(cfg.monitored.unwrap_or_default());
    let fresh = |window: u64| {
        GraphBuilder::new(cfg.facet.clone(), window, cfg.window_len)
            .with_monitored(monitored.clone())
    };
    // bound: one slot per subscription placed on this shard, each holding at
    // most two open window tables; closed windows are graphs in its output.
    let mut residents: Vec<Resident> = Vec::new();
    while let Ok(batch) = rx.recv() {
        // Busy time is aggregation work only, not blocking on the channel.
        let _busy = SpanGuard::start(busy.clone());
        let mut rest = batch.records.as_slice();
        for (slot, len) in batch.runs {
            let (run, tail) = rest.split_at(len);
            rest = tail;
            if residents.len() <= slot {
                residents.resize_with(slot + 1, Resident::default);
            }
            residents[slot].add(run, cfg.window_len, fresh);
        }
    }
    // A fresh buffer, not an in-place collect over `residents`: measured with
    // 4096-record calls, the in-place form doubled the process's minor page
    // faults. Likely cause: with nothing allocated after the assembly, the
    // allocator hands its pages back to the OS and the next engine faults
    // them in again.
    let mut out: Vec<SubOutput> = Vec::new();
    for resident in residents {
        out.push(resident.finish());
    }
    let edge_entries: usize = out.iter().map(|(_, stats)| stats.edge_entries).sum();
    cfg.obs.gauge(&names::ENGINE_SHARD_EDGE_ENTRIES, [&shard]).set(edge_entries as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph_graph::Facet;
    use flowlog::record::FlowKey;
    use std::net::Ipv4Addr;

    fn rec(ts: u64, host: u8) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, host),
                40_000,
                Ipv4Addr::new(10, 0, 9, 9),
                443,
            ),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 10,
            bytes_rcvd: 10,
        }
    }

    /// One subscription streaming 50 windows, each record a little behind
    /// the last window's end now and then: the shard never holds more than
    /// two open tables for it, and every window comes out once, in order.
    #[test]
    fn fifty_windows_never_hold_more_than_two_tables_open() {
        const WINDOW: u64 = 60;
        let fresh = |w: u64| GraphBuilder::new(Facet::Ip, w, WINDOW);
        let mut resident = Resident::default();
        let mut widest = 0;
        for w in 0..50u64 {
            for i in 0..20u64 {
                // Every fifth record straggles from the window before.
                let ts = (w * WINDOW + 3 * i).saturating_sub(if i % 5 == 4 { WINDOW } else { 0 });
                resident.add(&[rec(ts, (i % 7) as u8 + 1)], WINDOW, fresh);
                widest = widest.max(resident.open.len());
            }
        }
        assert_eq!(widest, 2, "the newest window and the one before it");
        let (graphs, stats) = resident.finish();
        let starts: Vec<u64> = graphs.iter().map(CommGraph::window_start).collect();
        assert_eq!(starts, (0..50).map(|w| w * WINDOW).collect::<Vec<_>>());
        assert_eq!((stats.records_kept, stats.records_late), (1000, 0));
    }

    /// A straggler one window behind the newest is absorbed; one from two
    /// windows back is late, whether or not its window was ever opened.
    #[test]
    fn lateness_is_one_window() {
        let fresh = |w: u64| GraphBuilder::new(Facet::Ip, w, 60);
        let mut resident = Resident::default();
        resident.add(&[rec(0, 1), rec(130, 1), rec(70, 2), rec(10, 3), rec(60, 4)], 60, fresh);
        // Window 240 closes 60 and 120 at once; 180, one window behind it,
        // still opens.
        resident.add(&[rec(250, 1), rec(190, 2), rec(125, 3)], 60, fresh);
        let (graphs, stats) = resident.finish();
        let shape: Vec<(u64, u64)> =
            graphs.iter().map(|g| (g.window_start(), g.totals().conns)).collect();
        assert_eq!(shape, [(0, 1), (60, 2), (120, 1), (180, 1), (240, 1)]);
        assert_eq!((stats.records_kept, stats.records_late), (6, 2));
    }
}
