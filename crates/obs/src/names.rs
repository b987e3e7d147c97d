//! The metric-name catalog: one compile-time constant per counter,
//! gauge, and histogram name emitted anywhere in the workspace.
//!
//! Dotted metric names are stringly-typed at the [`crate::Registry`] API,
//! so a typo'd name would silently split a metric in two. Every emitting
//! layer imports its names from here, [`CATALOG`] lists them all with
//! kind and layer, and a workspace-level test asserts that every name
//! observed in a representative run is catalogued. The DESIGN.md metric
//! table is generated from [`markdown_table`] and checked by a test, so
//! docs cannot drift from the catalog.

/// Kind of a catalogued metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-write-wins `i64`.
    Gauge,
    /// Fixed-bucket log₂ histogram of `u64` samples.
    Histogram,
}

impl MetricKind {
    /// Lowercase kind name, matching the CSV export's `kind` column.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalogued metric: name, kind, emitting layer, one-line meaning.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The dotted metric name (the registry key).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The crate/layer that emits it.
    pub layer: &'static str,
    /// One-line description.
    pub help: &'static str,
}

// -- core / engine ------------------------------------------------------
/// Epochs in which a node's next transaction could not be admitted
/// because its stripe footprint or lock names collided with another
/// node's admitted work.
pub const ENGINE_EPOCH_WAITS: &str = "engine.epoch_waits";
/// Simulated cycles per completed record update.
pub const ENGINE_UPDATE_CYCLES: &str = "engine.update_cycles";
/// Transactions finished by abort (voluntary or retry).
pub const TXN_ABORTED: &str = "txn.aborted";
/// Transactions finished by commit.
pub const TXN_COMMITTED: &str = "txn.committed";
/// Synchronous commits of transactions that logged no data record,
/// acknowledged with no commit record and no log force.
pub const TXN_COMMITTED_READ_ONLY: &str = "txn.committed_read_only";
/// Commit-LSN dependencies inherited through violated locks.
pub const TXN_COMMIT_DEPS: &str = "txn.commit_deps";
/// Cascade aborts caused by a crashed commit-dependency predecessor.
pub const TXN_DEP_ABORTS: &str = "txn.dep_aborts";
/// End-to-end simulated cycles from `begin` to commit, per transaction.
pub const TXN_LATENCY_CYCLES: &str = "txn.latency_cycles";

// -- lock ---------------------------------------------------------------
/// Write locks released early at commit-record append (controlled lock
/// violation).
pub const LOCK_EARLY_RELEASED: &str = "lock.early_released";
/// Flat lock-table fast-path grants (no LCB chain walk).
pub const LOCK_FAST_HITS: &str = "lock.fast_hits";
/// Simulated cycles each logical lock was held.
pub const LOCK_HOLD_CYCLES: &str = "lock.hold_cycles";
/// Epoch admissions rejected because a record lock was still held by a
/// transaction admitted for another node (cross-node name collision in
/// the striped lock space).
pub const LOCK_SHARD_CONFLICTS: &str = "lock.shard_conflicts";

// -- sim ----------------------------------------------------------------
/// Buffer-pool line reuses that avoided a stable read.
pub const SIM_BUF_REUSE: &str = "sim.buf_reuse";
/// Open-addressed line-index probe steps. A host-side diagnostic, not a
/// simulated quantity: span operations find most lines in the
/// neighbouring slot and probe less than per-line loops would.
pub const SIM_INDEX_PROBES: &str = "sim.index_probes";
/// Epoch admissions rejected because a data-page stripe was already
/// claimed by another node's execution lane.
pub const SIM_SHARD_CONFLICTS: &str = "sim.shard_conflicts";

// -- wal ----------------------------------------------------------------
/// Undo+redo image bytes appended to in-memory log tails.
pub const WAL_APPEND_BYTES: &str = "wal.append_bytes";
/// Per-node WAL appender drains at an epoch barrier: the lane left an
/// unforced log tail that the barrier had to force.
pub const WAL_APPENDER_STALLS: &str = "wal.appender_stalls";
/// Records made durable per physical force.
pub const WAL_FORCE_RECORDS: &str = "wal.force_records";
/// Physical log forces that reached stable storage.
pub const WAL_PHYSICAL_FORCES: &str = "wal.physical_forces";

// -- recovery / restart -------------------------------------------------
/// Highest checkpoint LSN that bounded the last redo scan.
pub const RESTART_CKPT_BOUND_LSN: &str = "restart.ckpt_bound_lsn";
/// Analysis scans performed (exactly one per recovery).
pub const RESTART_ANALYSIS_SCANS: &str = "restart.analysis_scans";
/// Log records opened by recoveries: the analysis reads the logs'
/// data-record indexes and opens a record only for an index operation,
/// an undo image, or a heap write it applies (follows the crash, never
/// the retained history).
pub const RESTART_LOG_RECORDS_READ: &str = "restart.log_records_read";
/// Simulated cycles to reach the open point of an instant restart (the
/// database serves transactions from here; heap redo is still pending).
pub const RESTART_OPEN_EARLY_CYCLES: &str = "restart.open_early_cycles";
/// Redo writes applied by recoveries.
pub const RESTART_REDO_APPLIED: &str = "restart.redo_applied";
/// Deferred heap redo entries applied by the background drain.
pub const RESTART_REDO_BACKGROUND: &str = "restart.redo_background";
/// Deferred heap redo entries applied inline on first forward-path access.
pub const RESTART_REDO_ON_DEMAND: &str = "restart.redo_on_demand";
/// Redo candidates skipped (cached / stable / superseded).
pub const RESTART_REDO_SKIPPED: &str = "restart.redo_skipped";
/// Log records visited by analysis scans.
pub const RESTART_SCAN_RECORDS: &str = "restart.scan_records";
/// Heap lines restart's undo-tag scans visited: the lines the analysed
/// nodes' tag ledgers name (follows what the crashed nodes wrote, never
/// the size of the caches).
pub const RESTART_TAG_SCAN_LINES: &str = "restart.tag_scan_lines";
/// Transaction-table entries visited by `crash`, `recover` and
/// `checkpoint` (follows the transactions live at the time, never the
/// history behind them).
pub const RESTART_TXN_ENTRIES_VISITED: &str = "restart.txn_entries_visited";
/// Redo candidates per recovery (heap + index), before pruning.
pub const RECOVERY_REDO_BATCH: &str = "recovery.redo_batch";
/// Whole-recovery simulated cycles (makespan delta).
pub const RECOVERY_TOTAL_CYCLES: &str = "recovery.total_cycles";
/// Per-phase simulated cycles: the analysis scan.
pub const RECOVERY_PHASE_STABLE_UNDO: &str = "recovery.phase.stable_undo";
/// Per-phase simulated cycles: lost-line census and index skeleton.
pub const RECOVERY_PHASE_REINSTALL: &str = "recovery.phase.reinstall";
/// Per-phase simulated cycles: stale-cache discard.
pub const RECOVERY_PHASE_CACHE_DISCARD: &str = "recovery.phase.cache_discard";
/// Per-phase simulated cycles: index redo and the heap plan.
pub const RECOVERY_PHASE_REDO: &str = "recovery.phase.redo";
/// Per-phase simulated cycles: undo of doomed transactions.
pub const RECOVERY_PHASE_UNDO: &str = "recovery.phase.undo";
/// Per-phase simulated cycles: lock-table reconstruction.
pub const RECOVERY_PHASE_LOCK_RECOVERY: &str = "recovery.phase.lock_recovery";
/// Per-phase simulated cycles: transaction-table cleanup.
pub const RECOVERY_PHASE_TXN_TABLE: &str = "recovery.phase.txn_table";
/// Per-phase simulated cycles: unrecognised phase names (fallback).
pub const RECOVERY_PHASE_OTHER: &str = "recovery.phase.other";

/// Every catalogued metric, sorted by name.
pub const CATALOG: &[MetricDef] = &[
    MetricDef {
        name: ENGINE_EPOCH_WAITS,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Node-epochs stalled by a stripe or lock admission conflict",
    },
    MetricDef {
        name: ENGINE_UPDATE_CYCLES,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Simulated cycles per completed record update",
    },
    MetricDef {
        name: LOCK_EARLY_RELEASED,
        kind: MetricKind::Counter,
        layer: "lock",
        help: "Write locks released early at commit-record append",
    },
    MetricDef {
        name: LOCK_FAST_HITS,
        kind: MetricKind::Counter,
        layer: "lock",
        help: "Flat lock-table fast-path grants (no LCB chain walk)",
    },
    MetricDef {
        name: LOCK_HOLD_CYCLES,
        kind: MetricKind::Histogram,
        layer: "lock",
        help: "Simulated cycles each logical lock was held",
    },
    MetricDef {
        name: LOCK_SHARD_CONFLICTS,
        kind: MetricKind::Counter,
        layer: "lock",
        help: "Epoch admissions rejected by a cross-node lock-name collision",
    },
    MetricDef {
        name: RECOVERY_PHASE_CACHE_DISCARD,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: stale-cache discard",
    },
    MetricDef {
        name: RECOVERY_PHASE_LOCK_RECOVERY,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: lock-table reconstruction",
    },
    MetricDef {
        name: RECOVERY_PHASE_OTHER,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: unrecognised phase names",
    },
    MetricDef {
        name: RECOVERY_PHASE_REDO,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: index redo, the heap plan",
    },
    MetricDef {
        name: RECOVERY_PHASE_REINSTALL,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: lost-line census, index skeleton",
    },
    MetricDef {
        name: RECOVERY_PHASE_STABLE_UNDO,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: the analysis scan",
    },
    MetricDef {
        name: RECOVERY_PHASE_TXN_TABLE,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: transaction-table cleanup",
    },
    MetricDef {
        name: RECOVERY_PHASE_UNDO,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Recovery phase cycles: undo of doomed transactions",
    },
    MetricDef {
        name: RECOVERY_REDO_BATCH,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Redo candidates per recovery (heap + index), before pruning",
    },
    MetricDef {
        name: RECOVERY_TOTAL_CYCLES,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "Whole-recovery simulated cycles (makespan delta)",
    },
    MetricDef {
        name: RESTART_ANALYSIS_SCANS,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Analysis scans performed (exactly one per recovery)",
    },
    MetricDef {
        name: RESTART_CKPT_BOUND_LSN,
        kind: MetricKind::Gauge,
        layer: "core",
        help: "Highest checkpoint LSN that bounded the last redo scan",
    },
    MetricDef {
        name: RESTART_LOG_RECORDS_READ,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Log records opened by recoveries (index ops, undo images, applied heap writes)",
    },
    MetricDef {
        name: RESTART_OPEN_EARLY_CYCLES,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Simulated cycles to reach the open point of an instant restart",
    },
    MetricDef {
        name: RESTART_REDO_APPLIED,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Redo writes applied by recoveries",
    },
    MetricDef {
        name: RESTART_REDO_BACKGROUND,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Deferred heap redo entries applied by the background drain",
    },
    MetricDef {
        name: RESTART_REDO_ON_DEMAND,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Deferred heap redo entries applied inline on first access",
    },
    MetricDef {
        name: RESTART_REDO_SKIPPED,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Redo candidates skipped (cached / stable / superseded)",
    },
    MetricDef {
        name: RESTART_SCAN_RECORDS,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Log records visited by analysis scans",
    },
    MetricDef {
        name: RESTART_TAG_SCAN_LINES,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Heap lines visited by restart's undo-tag scans (the analysed nodes' tag ledgers)",
    },
    MetricDef {
        name: RESTART_TXN_ENTRIES_VISITED,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Transaction-table entries visited by crash, recover and checkpoint",
    },
    MetricDef {
        name: SIM_BUF_REUSE,
        kind: MetricKind::Counter,
        layer: "sim",
        help: "Buffer-pool line reuses that avoided a stable read",
    },
    MetricDef {
        name: SIM_INDEX_PROBES,
        kind: MetricKind::Counter,
        layer: "sim",
        help: "Open-addressed line-index probe steps (host-side diagnostic: span walks probe less than per-line loops)",
    },
    MetricDef {
        name: SIM_SHARD_CONFLICTS,
        kind: MetricKind::Counter,
        layer: "sim",
        help: "Epoch admissions rejected by a claimed data-page stripe",
    },
    MetricDef {
        name: TXN_ABORTED,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Transactions finished by abort (voluntary or retry)",
    },
    MetricDef {
        name: TXN_COMMIT_DEPS,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Commit-LSN dependencies inherited through violated locks",
    },
    MetricDef {
        name: TXN_COMMITTED,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Transactions finished by commit",
    },
    MetricDef {
        name: TXN_COMMITTED_READ_ONLY,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Read-only commits: no commit record, no log force",
    },
    MetricDef {
        name: TXN_DEP_ABORTS,
        kind: MetricKind::Counter,
        layer: "core",
        help: "Cascade aborts caused by a crashed commit-dependency predecessor",
    },
    MetricDef {
        name: TXN_LATENCY_CYCLES,
        kind: MetricKind::Histogram,
        layer: "core",
        help: "End-to-end simulated cycles from begin to commit/abort",
    },
    MetricDef {
        name: WAL_APPEND_BYTES,
        kind: MetricKind::Counter,
        layer: "wal",
        help: "Undo+redo image bytes appended to in-memory log tails",
    },
    MetricDef {
        name: WAL_APPENDER_STALLS,
        kind: MetricKind::Counter,
        layer: "wal",
        help: "Epoch-barrier forces of an unforced lane log tail",
    },
    MetricDef {
        name: WAL_FORCE_RECORDS,
        kind: MetricKind::Histogram,
        layer: "wal",
        help: "Records made durable per physical force",
    },
    MetricDef {
        name: WAL_PHYSICAL_FORCES,
        kind: MetricKind::Counter,
        layer: "wal",
        help: "Physical log forces that reached stable storage",
    },
];

/// The catalog entry for `name`, if any.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|d| d.name == name)
}

/// The catalog rendered as a GitHub-flavored markdown table (the DESIGN.md
/// metric table is this output verbatim; a test keeps them in sync).
pub fn markdown_table() -> String {
    let mut out = String::from("| name | kind | layer | meaning |\n|---|---|---|---|\n");
    for d in CATALOG {
        out.push_str(&format!("| `{}` | {} | {} | {} |\n", d.name, d.kind.name(), d.layer, d.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for w in CATALOG.windows(2) {
            assert!(w[0].name < w[1].name, "{} must sort before {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn lookup_and_membership_agree() {
        assert_eq!(lookup(LOCK_HOLD_CYCLES).unwrap().kind, MetricKind::Histogram);
        assert!(lookup("lock.hold_cycle").is_none(), "typo'd names are rejected");
        assert!(lookup("no.such.metric").is_none());
    }

    #[test]
    fn markdown_table_lists_every_name() {
        let table = markdown_table();
        assert!(table.starts_with("| name | kind | layer | meaning |"));
        for d in CATALOG {
            assert!(table.contains(d.name), "{} missing from table", d.name);
        }
    }
}
