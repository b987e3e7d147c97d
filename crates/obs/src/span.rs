//! Per-transaction spans with simulated-cycle stage attribution.
//!
//! The engine opens a span at `begin`, charges cycles to one of five
//! stages as the transaction executes (`lock-wait → execute → log-append
//! → force-wait → commit`), and closes the span at commit or abort. The
//! tracker aggregates finished spans into a per-stage cycle breakdown and
//! a log₂ latency [`Histogram`] (p50/p99/p999), and keeps a bounded ring
//! of recent [`FinishedSpan`]s for the Chrome trace exporter.
//!
//! Like the bus and registry, the tracker is a shared handle gated on the
//! [`crate::Obs`] switch: while it is off every mutator is a single load
//! plus branch.

use crate::metrics::Histogram;
use crate::ring::Ring;
use crate::Switch;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of attribution stages.
pub const STAGES: usize = 5;

/// Capacity of the finished-span ring.
pub const SPAN_CAPACITY: usize = 1024;

/// One attribution stage of a transaction's lifetime. Cycles a span does
/// not explicitly charge to a stage are unattributed (the gap between
/// the stage sum and the end-to-end latency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Waiting in the lock manager (record/key lock acquisition).
    LockWait,
    /// Reading/writing records and index pages (coherence traffic).
    Execute,
    /// Appending log records to the in-memory tail.
    LogAppend,
    /// Stalled on a physical log force (durability I/O).
    ForceWait,
    /// Commit/abort finalisation: tag clears, reclaim, lock release, undo.
    Commit,
}

impl Stage {
    /// All stages, in canonical order.
    pub const ALL: [Stage; STAGES] =
        [Stage::LockWait, Stage::Execute, Stage::LogAppend, Stage::ForceWait, Stage::Commit];

    /// Index into a `[u64; STAGES]` stage array.
    pub fn index(self) -> usize {
        match self {
            Stage::LockWait => 0,
            Stage::Execute => 1,
            Stage::LogAppend => 2,
            Stage::ForceWait => 3,
            Stage::Commit => 4,
        }
    }

    /// Stable snake_case name, used in CSV headers and trace args.
    pub fn name(self) -> &'static str {
        match self {
            Stage::LockWait => "lock_wait",
            Stage::Execute => "execute",
            Stage::LogAppend => "log_append",
            Stage::ForceWait => "force_wait",
            Stage::Commit => "commit",
        }
    }
}

/// A closed transaction span: end-to-end simulated latency on the home
/// node plus the per-stage cycle attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinishedSpan {
    /// Raw transaction id (the emitting layer's `TxnId` bits).
    pub txn: u64,
    /// Home node the span's clock readings came from.
    pub node: u16,
    /// Home-node simulated clock at `begin`.
    pub begin_at: u64,
    /// Home-node simulated clock when the span closed.
    pub end_at: u64,
    /// Whether the transaction committed (else aborted).
    pub committed: bool,
    /// Cycles charged per [`Stage`], indexed by [`Stage::index`].
    pub stage_cycles: [u64; STAGES],
}

impl FinishedSpan {
    /// End-to-end simulated latency.
    pub fn latency(&self) -> u64 {
        self.end_at.saturating_sub(self.begin_at)
    }

    /// Sum of the explicitly attributed stage cycles.
    pub fn attributed(&self) -> u64 {
        self.stage_cycles.iter().sum()
    }
}

/// Aggregate over every finished span since observability was enabled.
#[derive(Clone, Debug, Default)]
pub struct SpanAggregate {
    /// Spans opened.
    pub started: u64,
    /// Spans closed (committed + aborted).
    pub finished: u64,
    /// Spans closed by commit.
    pub committed: u64,
    /// Spans closed by abort.
    pub aborted: u64,
    /// Sum of end-to-end latencies across finished spans.
    pub total_latency_cycles: u128,
    /// Cycles charged per stage across finished spans.
    pub stage_cycles: [u64; STAGES],
    /// Latency distribution of finished spans.
    pub latency: Histogram,
    /// Latency distribution of committed spans only.
    pub commit_latency: Histogram,
}

struct OpenSpan {
    node: u16,
    begin_at: u64,
    stage_cycles: [u64; STAGES],
}

struct SpanInner {
    open: BTreeMap<u64, OpenSpan>,
    finished: Ring<FinishedSpan>,
    agg: SpanAggregate,
}

/// Shared per-transaction span tracker. `Clone` shares the storage.
#[derive(Clone)]
pub struct SpanTracker {
    on: Switch,
    inner: Arc<Mutex<SpanInner>>,
}

impl SpanTracker {
    pub(crate) fn new(on: Switch) -> Self {
        let inner = SpanInner {
            open: BTreeMap::new(),
            finished: Ring::new(SPAN_CAPACITY),
            agg: SpanAggregate::default(),
        };
        SpanTracker { on, inner: Arc::new(Mutex::new(inner)) }
    }

    /// Open a span for `txn` on home node `node` at simulated time `at`.
    #[inline]
    pub fn begin(&self, txn: u64, node: u16, at: u64) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        g.agg.started += 1;
        g.open.insert(txn, OpenSpan { node, begin_at: at, stage_cycles: [0; STAGES] });
    }

    /// Charge `cycles` to `stage` of `txn`'s open span (no-op for unknown
    /// transactions, so emission sites need no liveness checks).
    #[inline]
    pub fn add(&self, txn: u64, stage: Stage, cycles: u64) {
        if !self.on.is_on() {
            return;
        }
        if let Some(s) = self.inner.lock().unwrap().open.get_mut(&txn) {
            s.stage_cycles[stage.index()] += cycles;
        }
    }

    /// Close `txn`'s span at simulated time `at` and fold it into the
    /// aggregates. Returns the finished span (None if unknown or off).
    pub fn end(&self, txn: u64, at: u64, committed: bool) -> Option<FinishedSpan> {
        if !self.on.is_on() {
            return None;
        }
        let mut g = self.inner.lock().unwrap();
        let open = g.open.remove(&txn)?;
        let span = FinishedSpan {
            txn,
            node: open.node,
            begin_at: open.begin_at,
            end_at: at.max(open.begin_at),
            committed,
            stage_cycles: open.stage_cycles,
        };
        g.agg.finished += 1;
        if committed {
            g.agg.committed += 1;
            g.agg.commit_latency.record(span.latency());
        } else {
            g.agg.aborted += 1;
        }
        g.agg.total_latency_cycles += span.latency() as u128;
        for (total, c) in g.agg.stage_cycles.iter_mut().zip(span.stage_cycles) {
            *total += c;
        }
        g.agg.latency.record(span.latency());
        g.finished.push(span.clone());
        Some(span)
    }

    /// Drop `txn`'s open span without aggregating it (crashed
    /// transactions whose latency is meaningless).
    #[inline]
    pub fn discard(&self, txn: u64) {
        if !self.on.is_on() {
            return;
        }
        self.inner.lock().unwrap().open.remove(&txn);
    }

    /// Number of currently open spans.
    pub fn open_count(&self) -> usize {
        self.inner.lock().unwrap().open.len()
    }

    /// Copy of the aggregates over all finished spans.
    pub fn aggregate(&self) -> SpanAggregate {
        self.inner.lock().unwrap().agg.clone()
    }

    /// Copy of the retained finished spans, oldest first.
    pub fn finished(&self) -> Vec<FinishedSpan> {
        self.inner.lock().unwrap().finished.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker switched on.
    fn tracker() -> SpanTracker {
        let obs = crate::Obs::new();
        obs.enable(0);
        obs.spans
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let t = crate::Obs::new().spans;
        t.begin(1, 0, 10);
        t.add(1, Stage::Execute, 5);
        assert!(t.end(1, 20, true).is_none());
        assert_eq!(t.aggregate().started, 0);
        assert!(t.finished().is_empty());
    }

    #[test]
    fn stages_accumulate_and_aggregate() {
        let t = tracker();
        t.begin(7, 2, 100);
        t.add(7, Stage::LockWait, 10);
        t.add(7, Stage::Execute, 30);
        t.add(7, Stage::Execute, 5);
        t.add(7, Stage::ForceWait, 1000);
        t.add(7, Stage::Commit, 4);
        let span = t.end(7, 1200, true).expect("span closes");
        assert_eq!(span.latency(), 1100);
        assert_eq!(span.attributed(), 1049);
        assert_eq!(span.stage_cycles[Stage::Execute.index()], 35);
        let agg = t.aggregate();
        assert_eq!((agg.started, agg.finished, agg.committed, agg.aborted), (1, 1, 1, 0));
        assert_eq!(agg.stage_cycles[Stage::ForceWait.index()], 1000);
        assert_eq!(agg.latency.count(), 1);
        assert_eq!(agg.commit_latency.count(), 1);
    }

    #[test]
    fn aborts_and_discards_are_distinguished() {
        let t = tracker();
        t.begin(1, 0, 0);
        t.begin(2, 0, 0);
        assert_eq!(t.open_count(), 2);
        t.end(1, 50, false);
        t.discard(2);
        assert_eq!(t.open_count(), 0);
        let agg = t.aggregate();
        assert_eq!((agg.finished, agg.aborted), (1, 1));
        assert_eq!(agg.commit_latency.count(), 0, "aborts stay out of commit latency");
        assert_eq!(t.finished().len(), 1, "discarded spans are not retained");
    }

    #[test]
    fn finished_ring_is_bounded_but_aggregate_is_not() {
        let t = tracker();
        let n = SPAN_CAPACITY as u64 + 3;
        for i in 0..n {
            t.begin(i, 0, i * 10);
            t.end(i, i * 10 + 1, true);
        }
        assert_eq!(t.finished().len(), SPAN_CAPACITY, "ring bounded at capacity");
        assert_eq!(t.finished()[0].txn, 3, "oldest evicted");
        assert_eq!(t.aggregate().finished, n, "aggregate counts everything");
    }

    #[test]
    fn unknown_txn_charges_are_dropped() {
        let t = tracker();
        t.add(99, Stage::Execute, 1_000);
        assert!(t.end(99, 10, true).is_none());
        assert_eq!(t.aggregate().stage_cycles[Stage::Execute.index()], 0);
    }
}
