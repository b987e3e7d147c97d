//! Crash injection and restart recovery (§4.1.2, §4.2).
//!
//! After the simulator's low-level directory restore, the engine's restart
//! recovery must guarantee IFA:
//!
//! * **undo**: all effects of transactions active on crashed nodes are
//!   removed — from surviving caches (where they migrated), from the
//!   stable database (where they were stolen), and from the lock space;
//! * **redo**: no effect of any surviving node's transaction is lost —
//!   updates whose only copies died with a crashed cache are re-applied
//!   from the survivors' (intact) logs; committed transactions of the
//!   crashed nodes themselves are re-applied from their *stable* log
//!   prefixes (their commit force made them durable).
//!
//! For heap records both halves are **one plan** ([`SmDb::heap_plan`]):
//! the analysis reduces the retained logs to the heap lines the crash
//! destroyed plus, per record, its *final* on-page bytes — the redo image
//! of the highest-GSN candidate, or the last committed value under a null
//! tag wherever undo wins (those are written through to the stable image
//! as the plan is built: no later restart could re-derive them). One
//! routine installs a lost page ([`SmDb::install_lost_page`]) and one
//! writes a plan entry ([`SmDb::write_heap_entry`]); an *eager* restart
//! applies the plan before the database opens, every live node reading a
//! share of the pages it needs from the stable database
//! ([`SmDb::apply_heap_plan`]), an *instant* restart leaves the same plan
//! pending and applies it on first access
//! ([`SmDb::ensure_line_recovered`]) or from the background drain
//! ([`SmDb::drain_redo`]).
//!
//! Every restart is the same phased routine over a [`RestartScope`]. The
//! FA-only baseline — abort *every* active transaction and rebuild, the
//! behaviour the paper's protocols exist to avoid — and a total failure
//! are the scope in which every node is analysed and every active
//! transaction is doomed: Redo All "after aborting everyone", always
//! before the open.
//!
//! The two redo schemes of the paper differ in what the plan may skip:
//! **Redo All** discards every cached database line first, **Selective
//! Redo** skips what a surviving cache still holds and then undoes via
//! per-record tags. The tag scan and index redo / undo are not part of the
//! plan; they run inside [`SmDb::recover`].

use crate::config::{ProtocolKind, RestartScheme};
use crate::engine::{tree_ctx, Fate, Join, SmDb};
use crate::error::{req, DbError};
use crate::record::{RecordLayout, NULL_TAG};
use crate::txn::{TxnState, TxnStatus};
use smdb_btree::{BtreeRecoveryStats, TreeCtx};
use smdb_lock::LockRecoveryStats;
use smdb_obs::{names, Event as ObsEvent, PhaseSpan, PhaseTiming};
use smdb_sim::{LineId, NodeId, TxnId};
use smdb_storage::{PageGeometry, PageId};
use smdb_wal::{
    assign_flushers, assign_scanners, DataRef, LogPayload, LogRecord, Lsn, NodeLog, RecId,
};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// Fault-injection site visited between restart-recovery phases (after
/// each of phases 1–6 of every restart). A fire here kills the *recovery
/// node itself*: the crash driver crashes it and calls [`SmDb::recover`]
/// again, which restarts recovery from a fresh survivor over the (possibly
/// larger) crashed set.
pub const FAULT_RECOVERY_PHASE: &str = "recovery.phase";

/// Fault-injection site visited before an instant restart's *on-demand*
/// redo applies a line's pending entries on the forward path (first
/// coherent access after the early open). A fire kills the accessing node
/// mid-drain: the crash driver crashes it and calls [`SmDb::recover`]
/// again, which re-derives the remaining plan from the retained logs.
pub const FAULT_REDO_ON_DEMAND: &str = "restart.redo.on_demand";

/// Fault-injection site visited at the start of every non-empty
/// *background* drain batch ([`SmDb::drain_redo`]). A fire kills the
/// draining node mid-drain, same contract as [`FAULT_REDO_ON_DEMAND`].
pub const FAULT_REDO_BACKGROUND: &str = "restart.redo.background";

/// Fault-injection site of the analysis scan's fan-out
/// ([`SmDb::restart_phases`], phase 1): visited once per reader with a
/// share other than the caller, before its share, on that reader's behalf
/// ([`SmDb::fan_out`]). A fire kills the *reader* mid-scan: the crash
/// driver crashes it and calls [`SmDb::recover`] again, which hands its
/// logs to the readers left.
pub const FAULT_RESTART_SCAN: &str = "restart.scan";

/// Fault-injection site of the restart's stable-database page reads: the
/// index skeleton's ([`SmDb::restart_phases`], phase 2, every restart —
/// the B-tree crate names the pages but reads none) and an eager apply's
/// ([`SmDb::apply_heap_plan`]). Visited once per reader with a share other
/// than the caller, before its share, on that reader's behalf
/// ([`SmDb::fan_out`]). A fire kills the *reader*: the pages the readers
/// before it installed stay behind as stale reinstalls, the crash driver
/// crashes it and calls [`SmDb::recover`] again, which deals the pages out
/// over the readers left.
pub const FAULT_RESTART_INSTALL: &str = "restart.install";

/// What one crash-and-recover episode did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOutcome {
    /// Nodes that crashed.
    pub crashed: Vec<NodeId>,
    /// Transactions rolled back by recovery. Under IFA protocols this is
    /// exactly the set of transactions active on crashed nodes; under the
    /// FA-only baseline it is every active transaction in the machine.
    pub aborted: Vec<TxnId>,
    /// Active transactions on surviving nodes whose effects were
    /// preserved.
    pub preserved_active: Vec<TxnId>,
    /// Cache lines destroyed by the crash.
    pub lost_lines: u64,
    /// Heap plan entries written before the open — one per record, an
    /// entry where undo won included (an instant restart writes none
    /// here; see [`InstantRedoCounters`]).
    pub redo_applied: u64,
    /// Heap redo candidates skipped because the line was still cached on a
    /// survivor (the Selective-Redo probe).
    pub redo_skipped_cached: u64,
    /// Heap plan entries retired before the open without a write, because
    /// nothing was cached and the stable image already agreed.
    pub redo_skipped_stable: u64,
    /// Heap redo candidates dropped by the plan phase because a later
    /// candidate for the same record superseded them.
    pub redo_superseded: u64,
    /// Index redo operations applied.
    pub index_redo_applied: u64,
    /// Undo operations applied: the plan entries written before the open
    /// where undo won, the tag scan's rollbacks, and index undo.
    pub undo_records_applied: u64,
    /// Stale committed tags cleared during the undo scan.
    pub tags_cleared: u64,
    /// Heap lines the tag scan visited: the lines the analysed nodes' tag
    /// ledgers name (0 where no tag scan ran).
    pub tag_scan_lines: u64,
    /// Lock-space recovery counters.
    pub lock_recovery: LockRecoveryStats,
    /// B-tree recovery counters.
    pub btree_recovery: BtreeRecoveryStats,
    /// Simulated cycles spent on recovery (machine makespan delta).
    pub recovery_cycles: u64,
    /// The surviving node that orchestrated reconstruction.
    pub recovery_node: NodeId,
    /// Log records visited by the single analysis scan, over every log.
    pub scan_records: u64,
    /// Log records the busiest reader of that scan visited: every live node
    /// reads a share ([`smdb_wal::assign_scanners`]), so this — not the
    /// sum — is what the scan costs in simulated time.
    pub scan_records_max: u64,
    /// Pages the eager plan read from the stable database before the open,
    /// lost pages and would-be fault-ins each once (0 for an instant
    /// restart, which reads past its open).
    pub pages_read: u64,
    /// Pages the busiest reader of those read
    /// ([`smdb_wal::assign_flushers`]; as for `scan_records_max`).
    pub pages_read_max: u64,
    /// Log records the recovery *opened*: the analysis' slow paths (index
    /// operations, undo images) plus one per heap write it resolved. The
    /// scan itself reads the logs' data-record indexes.
    pub log_records_read: u64,
    /// Highest per-node checkpoint LSN that bounded the redo scan (0 when
    /// no checkpoint had been taken).
    pub ckpt_bound_lsn: u64,
    /// Per-phase simulated-cycle and wall-clock spans of the restart.
    pub phases: Vec<PhaseTiming>,
}

/// Histogram of simulated cycles per recovery phase, keyed by phase name.
fn phase_histogram(phase: &str) -> &'static str {
    match phase {
        "stable_undo" => names::RECOVERY_PHASE_STABLE_UNDO,
        "reinstall" => names::RECOVERY_PHASE_REINSTALL,
        "cache_discard" => names::RECOVERY_PHASE_CACHE_DISCARD,
        "redo" => names::RECOVERY_PHASE_REDO,
        "undo" => names::RECOVERY_PHASE_UNDO,
        "lock_recovery" => names::RECOVERY_PHASE_LOCK_RECOVERY,
        "txn_table" => names::RECOVERY_PHASE_TXN_TABLE,
        _ => names::RECOVERY_PHASE_OTHER,
    }
}

/// Where one log record sits: `lsn` on `node`'s log. The analysis deals
/// in these instead of payload handles, and they are good for exactly the
/// [`SmDb::recover`] call that derived them: nothing truncates a log
/// inside it, a log never moves a retained record, recovery's own appends
/// only extend tails, and an interrupted recovery drops its analysis (the
/// next attempt derives its own positions from the logs as they then are).
#[derive(Clone, Copy, Default)]
struct LogPos {
    node: NodeId,
    lsn: Lsn,
}

/// What an oracle compares per record: `(gsn, writer, after image)`.
pub(crate) type HeapImages = BTreeMap<RecId, (u64, TxnId, bytes::Bytes)>;

/// What restart takes from an analysis, in a form two analyses can be
/// compared in: every list by GSN (restart sorts each where it uses it).
#[derive(Debug, PartialEq)]
pub(crate) struct ScanProducts {
    /// The reduced heap redo plan, each position opened the way recovery
    /// opens it.
    pub(crate) plan: HeapImages,
    /// The last committed values, likewise.
    pub(crate) values: HeapImages,
    /// Where undo wins: the analysed nodes' stable uncommitted records, and
    /// the doomed transactions' updates on surviving logs.
    undo_recs: BTreeSet<RecId>,
    doomed_updates: Vec<(u64, RecId, bytes::Bytes)>,
    index_redo: Vec<(u64, IxRedo)>,
    /// The doomed transactions' index operations, then the analysed nodes'.
    index_undo: [Vec<(u64, IxUndo)>; 2],
    scans: Vec<LogScan>,
}

/// One record the tag scan found: the lowest survivor holding its line,
/// the line, the record, and the crashed node's tag it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TagHit {
    holder: NodeId,
    line: LineId,
    rec: RecId,
    tag: u16,
}

/// One entry of the heap plan: the *final* on-page bytes (tag + payload)
/// of one record, computed by the recovery pass (the tag decision reads
/// transaction statuses, which the last phase flips; the entry owns its
/// bytes, so it outlives the analysis' log positions).
struct HeapWrite {
    rec: RecId,
    line: LineId,
    bytes: Vec<u8>,
    /// Who writes the entry when the plan is applied before the open.
    /// §4.1.2: "each surviving node performs redo for ... record updates
    /// which were made by the local node" — the update's own node if it
    /// survives, else the recovery node, which also writes every undo.
    /// Past the open the writer is whoever touches the line first, or the
    /// draining node.
    node: NodeId,
    /// Undo won: the bytes are the last committed value under a null tag.
    undo: bool,
}

/// Instant-restart redo-work counters. Cumulative over the engine's
/// lifetime, like metrics ([`SmDb::instant_redo_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstantRedoCounters {
    /// Heap redo entries deferred past open points (plan sizes summed).
    pub planned: u64,
    /// Entries applied inline on first forward-path access.
    pub on_demand: u64,
    /// Entries applied by the background drain.
    pub background: u64,
    /// Entries retired without a write because nothing was cached and the
    /// stable image already reflected them.
    pub skipped_stable: u64,
}

/// What carries a restart across an interruption — from [`SmDb::crash`] to
/// a completed [`SmDb::recover`], over however many attempts that takes,
/// and past an instant restart's early open to the end of its drain.
///
/// From `entries` down it is what the restart owes the heap: the plan
/// entries not yet applied and the crash-lost lines not yet installed, plus
/// the scrub set its installs use. An eager restart pays before the open,
/// so it only ever sets `scrub_tags`, and clears it as it returns; an
/// instant restart leaves the rest here past its early open, for first
/// access and the background drain.
#[derive(Default)]
pub(crate) struct RestartState {
    /// Nodes crashed via [`SmDb::crash`] whose recovery has not completed.
    pub(crate) crashed: BTreeSet<NodeId>,
    /// Cache lines destroyed by crashes since the last completed recovery.
    lost_lines: u64,
    /// A crash took every node down; recovery must run over the full scope
    /// even if a survivor has since been rebooted by an interrupted
    /// recovery attempt.
    total_failure: bool,
    /// Heap lines reinstalled from (possibly stale) stable images by a
    /// recovery attempt that did not complete. A re-entered restart must
    /// not mistake them for coherent surviving copies: they are excluded
    /// from the Selective-Redo cached probe and carried into the
    /// reinstalled set of the next attempt. Cleared on completed recovery.
    stale_heap_lines: BTreeSet<LineId>,
    /// Index pages reinstalled from stable images by an incomplete
    /// recovery attempt, each entered before its read (same hazard as
    /// `stale_heap_lines`: their entries are stale until index redo and the
    /// tag scan complete).
    stale_tree_pages: BTreeSet<PageId>,
    /// The deferred plan in its own order; an entry flips to `None` once
    /// retired.
    entries: Vec<Option<HeapWrite>>,
    /// Pending entry indexes per cache line (ascending, hence plan order).
    by_line: BTreeMap<LineId, Vec<usize>>,
    /// Background-drain cursor: every entry below it is retired.
    cursor: usize,
    /// Entries not yet retired.
    pending: usize,
    /// Heap lines destroyed by the crash and not yet installed from
    /// stable, ascending, under their page. A page leaves the map the
    /// moment it is installed ([`SmDb::install_registered`]).
    lost_pages: BTreeMap<PageId, Vec<LineId>>,
    /// Lines under `lost_pages`.
    lost_left: usize,
    /// Node ids whose undo tags an install scrubs from the stable image:
    /// the nodes the restart analyses. Their transactions are rolled back by
    /// this restart, so a tag of theirs on a record no plan entry
    /// overwrites is stale. Set by [`SmDb::restart_phases`], read by
    /// [`SmDb::install_lost_page`], cleared once nothing is owed.
    scrub_tags: BTreeSet<u16>,
    /// Lifetime counters.
    counters: InstantRedoCounters,
}

impl RestartState {
    /// Leave `plan` pending past the open, and the crash-lost lines
    /// registered under their pages.
    fn defer(&mut self, plan: Vec<HeapWrite>, lost_pages: BTreeMap<PageId, Vec<LineId>>) {
        self.lost_left = lost_pages.values().map(Vec::len).sum();
        self.lost_pages = lost_pages;
        for entry in plan {
            self.by_line.entry(entry.line).or_default().push(self.entries.len());
            self.entries.push(Some(entry));
            self.pending += 1;
            self.counters.planned += 1;
        }
    }

    /// Drop the plan (a re-entered recovery re-derives it from the logs).
    fn clear_plan(&mut self) {
        self.entries.clear();
        self.by_line.clear();
        self.cursor = 0;
        self.pending = 0;
        self.lost_pages.clear();
        self.lost_left = 0;
        self.scrub_tags.clear();
    }

    /// Nothing owed any more: no install is left to read the scrub set.
    /// Once no crash is pending either, every reinstalled line and page has
    /// been redone and undone: their contents are authoritative again.
    /// (With a crash pending, the stale knowledge is carried into the next
    /// recovery attempt instead.)
    fn settle(&mut self) {
        if self.pending == 0 && self.lost_left == 0 {
            self.scrub_tags.clear();
        }
        if self.pending == 0 && self.crashed.is_empty() {
            self.stale_heap_lines.clear();
            self.stale_tree_pages.clear();
        }
    }

    /// Whether `line` of `page` is registered lost.
    fn is_lost(&self, page: PageId, line: LineId) -> bool {
        self.lost_pages.get(&page).is_some_and(|lines| lines.contains(&line))
    }

    /// Stop tracking `page`'s lost lines (it is being installed).
    fn take_lost(&mut self, page: PageId) -> Vec<LineId> {
        let lines = self.lost_pages.remove(&page).unwrap_or_default();
        self.lost_left -= lines.len();
        lines
    }

    /// First pending entry in plan order (advances the background cursor).
    fn next_pending(&mut self) -> Option<usize> {
        while self.cursor < self.entries.len() {
            if self.entries[self.cursor].is_some() {
                return Some(self.cursor);
            }
            self.cursor += 1;
        }
        None
    }
}

/// What one restart covers, derived from the pending crash in one place
/// ([`SmDb::restart_scope`]) and read by every phase — and by the oracles
/// of the analysis, so they check what recovery does and not a
/// re-derivation of it. The FA-only baseline and a total failure are the
/// `full` scope: every node analysed, every active transaction doomed.
pub(crate) struct RestartScope {
    /// The nodes read over their stable prefix only, whose transactions'
    /// durable traces are undone: every node that is *currently* down — not
    /// just the ones that failed this instant — or, in the full scope,
    /// every node. A node still down from an earlier crash must not be
    /// mistaken for a survivor: its stable log may contain uncommitted
    /// updates that were already rolled back, and replaying them as
    /// "survivor redo" would resurrect aborted data. (Found by the IFA
    /// property tests.)
    pub(crate) analysed: Vec<NodeId>,
    /// The transactions that die, in the order the last phase retires
    /// them: those with a participant down, then their cascade victims —
    /// or, in the full scope, every active one.
    pub(crate) doomed: Vec<TxnId>,
    /// The cascade victims among `doomed` (controlled lock violation),
    /// counted as dependency aborts.
    cascade: BTreeSet<TxnId>,
    /// Records a doomed dependent reached through a violated lock name:
    /// the dependent's logged before image may be the doomed predecessor's
    /// own uncommitted value, so undo must restore the last committed
    /// payload instead.
    contaminated: BTreeSet<RecId>,
    /// Active transactions whose effects are preserved.
    surviving: Vec<TxnId>,
    /// The node that orchestrates reconstruction: the lowest survivor, or
    /// node 0 (which [`SmDb::recover`] reboots) when there is none.
    recovery_node: NodeId,
    /// What the heap plan may skip: under `full` it is Redo All whatever
    /// the protocol pairs with.
    scheme: RestartScheme,
    /// FA-only or total failure. Where a phase does something else for it,
    /// the read says why.
    full: bool,
}

/// One redo candidate for the index (applied sequentially in GSN order —
/// logical B-tree ops don't commute).
#[derive(Clone, Copy, Debug, PartialEq)]
enum IxRedo {
    Insert { key: u64, value: [u8; 8], txn: TxnId },
    Delete { key: u64, value: [u8; 8], txn: TxnId },
    Remove { key: u64 },
    Unmark { key: u64 },
}

/// The logical inverse of an index operation that restart rolls back.
#[derive(Clone, Copy, Debug, PartialEq)]
enum IxUndo {
    RemoveKey(u64),
    UnmarkKey(u64),
}

/// How restart treats one transaction's log records. Looked up once per
/// run of adjacent same-transaction records ([`SmDb::analyse_stable`]).
#[derive(Clone, Copy)]
struct TxnClass {
    /// Durably committed ([`SmDb::settled_unacked_commits`] or the
    /// transaction table).
    committed: bool,
    /// Dies in this recovery.
    doomed: bool,
    /// Already rolled back by an earlier recovery or a voluntary abort.
    settled_aborted: bool,
}

/// A page-major table over heap records: one chunk of slots per heap
/// page, allocated the first time the analysis scan touches the page
/// (never per database record — a restart that scans 95 log records must
/// not pay for the heap's size), and read back in ascending page and slot,
/// which is [`RecId`] order. A slot the scan never wrote holds
/// `V::default()`.
#[derive(Default)]
struct RecTable<V> {
    /// `pages[p]` is page `p`'s chunk, grown to the highest slot touched;
    /// empty until the first touch.
    pages: Vec<Vec<V>>,
}

impl<V: Default> RecTable<V> {
    fn get(&self, rec: RecId) -> Option<&V> {
        self.pages.get(rec.page.0 as usize)?.get(rec.slot as usize)
    }

    fn slot_mut(&mut self, rec: RecId) -> &mut V {
        let page = rec.page.0 as usize;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, Vec::new);
        }
        let chunk = &mut self.pages[page];
        let slot = rec.slot as usize;
        if slot >= chunk.len() {
            chunk.resize_with(slot + 1, V::default);
        }
        &mut chunk[slot]
    }

    /// Every slot of every touched chunk, ascending.
    fn slots(&self) -> impl Iterator<Item = (RecId, &V)> + '_ {
        self.pages.iter().enumerate().flat_map(|(page, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(move |(slot, v)| (RecId::new(PageId(page as u32), slot as u16), v))
        })
    }
}

/// The highest-GSN update of one class the scan has met for a record: its
/// GSN and where it sits. Plain words, so a chunk of them is born zeroed;
/// GSN 0 is "none yet" (GSNs start at 1).
#[derive(Clone, Copy, Default)]
struct Latest {
    gsn: u64,
    at: LogPos,
}

impl Latest {
    /// The max-GSN fold of the analysis scan.
    fn keep(&mut self, gsn: u64, at: LogPos) {
        if gsn >= self.gsn {
            *self = Latest { gsn, at };
        }
    }

    fn is_some(&self) -> bool {
        self.gsn != 0
    }
}

/// What the scan reduces one heap record's retained history to.
#[derive(Clone, Copy, Default)]
struct RecFold {
    /// The last committed update, over every retained log (the §4.1.2
    /// stable-log source of committed values).
    committed: Latest,
    /// The last redo candidate past the checkpoint bound — superseded
    /// intermediate updates are dropped as the scan meets their successor.
    redo: Latest,
}

/// What reading one log amounted to.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct LogScan {
    /// Records of the prefix the scan covered.
    records: u64,
    /// Heap redo candidates met in it.
    heap_candidates: u64,
}

/// Per-crash analysis of the logs, built by **one pass over each retained
/// log** ([`SmDb::analyse_stable`]): durable traces of not-committed
/// transactions, last-writer commit status for the stale-tag predicate,
/// last committed values, the reduced redo plan past the checkpoint
/// bound, and doomed-transaction undo work. Nothing here is sized by
/// history: every product is bounded by the retained logs.
///
/// The per-record reductions are [`RecTable`]s: the scan meets the same
/// record again and again (a hot record's whole retained history), and
/// each meeting is two array indexings.
#[derive(Default)]
struct StableAnalysis {
    /// Records with a stable-logged update of a *not-committed*
    /// transaction of an analysed node.
    uncommitted_recs: BTreeSet<RecId>,
    /// The inverses of the stable-logged index ops of not-committed
    /// transactions of the analysed nodes, by GSN.
    uncommitted_index: Vec<(u64, IxUndo)>,
    /// Whether the last stable heap-update writer per record committed,
    /// per analysed node (never written = not committed).
    last_rec_committed: BTreeMap<NodeId, RecTable<bool>>,
    /// Whether the last stable index-op writer per (node, key) committed.
    last_key_committed: BTreeMap<(NodeId, u64), bool>,
    /// The last committed update and the last redo candidate per record,
    /// as log positions.
    heap: RecTable<RecFold>,
    /// Undo images of the analysed nodes' stable uncommitted updates per
    /// record: `(gsn, txn, before image)`. The backstop source of a last
    /// committed value when the committed update itself has been
    /// truncated but the record's stable image was stolen over.
    uncommitted_undo: RecTable<Vec<(u64, TxnId, bytes::Bytes)>>,
    /// What each node's log held, by node id (zeroes for a log skipped).
    /// `heap` keeps one of the heap redo candidates per record; the rest
    /// are `redo_superseded`.
    scans: Vec<LogScan>,
    /// Index redo candidates past the checkpoint bound, in scan order
    /// (logical B-tree ops don't commute, so none is superseded).
    index_redo: Vec<(u64, IxRedo)>,
    /// Doomed transactions' updates on surviving logs: `(gsn, rec, before
    /// image)` — a parallel transaction with a crashed participant leaves
    /// intact records on its surviving participants (§9: the entire
    /// transaction must be aborted).
    doomed_updates: Vec<(u64, RecId, bytes::Bytes)>,
    /// The inverses of doomed transactions' index operations on surviving
    /// logs, by GSN.
    doomed_index: Vec<(u64, IxUndo)>,
    /// Log records *opened* — by the scan's slow paths and by whatever
    /// later resolves one of this analysis' positions.
    records_read: Cell<u64>,
    /// Highest per-node checkpoint LSN bounding the redo scan.
    ckpt_bound: u64,
}

impl StableAnalysis {
    /// Open the record at a retained `lsn` of `log`.
    fn open<'l>(&self, log: &'l NodeLog, lsn: Lsn) -> Result<&'l LogRecord, DbError> {
        self.records_read.set(self.records_read.get() + 1);
        req(log.record(lsn), "an analysis position names a retained log record")
    }

    /// The records the reduced redo plan writes, ascending.
    fn planned_recs(&self) -> impl Iterator<Item = (RecId, Latest)> + '_ {
        self.heap.slots().filter(|(_, f)| f.redo.is_some()).map(|(rec, f)| (rec, f.redo))
    }

    /// Heap redo candidates the scan met, over every log.
    fn heap_candidates(&self) -> u64 {
        self.scans.iter().map(|s| s.heap_candidates).sum()
    }

    fn is_committed_rec(&self, node: NodeId, rec: RecId) -> bool {
        self.last_rec_committed.get(&node).and_then(|t| t.get(rec)).copied().unwrap_or(false)
    }

    fn is_committed_key(&self, node: NodeId, key: u64) -> bool {
        self.last_key_committed.get(&(node, key)).copied().unwrap_or(false)
    }
}

/// `lost`, ascending, cut into one run per page.
fn by_page(g: PageGeometry, lost: &[LineId]) -> impl Iterator<Item = (PageId, &[LineId])> {
    let page_of = move |l: &LineId| g.page_of_addr(l.0).0;
    lost.chunk_by(move |a, b| page_of(a) == page_of(b)).map(move |ls| (page_of(&ls[0]), ls))
}

impl SmDb {
    /// Crash the given nodes and run the configured restart-recovery
    /// protocol. Thin wrapper over [`SmDb::crash`] + [`SmDb::recover`];
    /// pair with [`SmDb::check_ifa`] to validate the IFA guarantee.
    pub fn crash_and_recover(&mut self, crashed: &[NodeId]) -> Result<RecoveryOutcome, DbError> {
        self.crash(crashed);
        self.recover()
    }

    /// Crash the given nodes *without* recovering: caches are destroyed,
    /// volatile log tails are truncated to their stable prefixes, and the
    /// simulator's low-level directory restore runs. The nodes join the
    /// pending-recovery set consumed by [`SmDb::recover`]. Returns the
    /// nodes that actually crashed (already-down nodes are skipped).
    ///
    /// Between `crash` and a completed `recover` the database is *not*
    /// IFA-consistent: doomed transactions' effects are still present.
    pub fn crash(&mut self, nodes: &[NodeId]) -> Vec<NodeId> {
        let crashed: Vec<NodeId> =
            nodes.iter().copied().filter(|n| !self.m.is_crashed(*n)).collect();
        if crashed.is_empty() {
            return crashed;
        }
        let report = self.m.crash(&crashed);
        self.restart.lost_lines += report.lost_lines.len() as u64;
        self.logs.crash(&crashed);
        for &n in &crashed {
            self.plt.reset_node(n);
            self.restart.crashed.insert(n);
        }
        if self.m.surviving_nodes().is_empty() {
            // Machine-wide outage. Latch it: even if an interrupted
            // recovery attempt reboots a host node and then dies, later
            // attempts must still run over the full scope (every active
            // transaction died in the outage).
            self.restart.total_failure = true;
        }
        // The commit point is the durable commit record (§4.1.1). A node
        // can die *after* forcing its commit record but before finishing
        // post-commit bookkeeping; such transactions are committed, not
        // doomed, and recovery will redo them from the stable logs.
        self.promote_durably_committed();
        self.m.obs().timeline.on_crash(self.m.max_clock());
        crashed
    }

    /// The not-yet-acknowledged transactions whose commit is nevertheless
    /// durably *settled*: the commit record reached its home's stable log
    /// and every dependency recorded in it is settled — the acknowledgement's
    /// predicate ([`SmDb::deps_settled`]), also counting this fixpoint.
    ///
    /// Acknowledged commits never enter it. An acknowledgement is given
    /// only to a durable record whose predecessors are acknowledged (a
    /// drain) or durable with the whole chain under them (a synchronous
    /// commit), so **acknowledged ⇒ settled** by induction and the
    /// crash-surviving transaction table answers for them. The fixpoint
    /// runs over the active table only — those in flight at the crash plus
    /// recovery victims kept for their commit record
    /// ([`SmDb::settle_aborted`]) — dropping violated chains from the
    /// successor end. A dependency on a record lost with its node's
    /// volatile tail never settles, across any number of later recoveries.
    /// No scan: the per-log commit indexes survive checkpoint truncation.
    pub fn settled_unacked_commits(&self) -> BTreeSet<TxnId> {
        let mut set: BTreeSet<TxnId> = self
            .txns
            .live()
            .filter(|t| self.logs.log(t.id.node()).is_commit_stable(t.id))
            .map(|t| t.id)
            .collect();
        loop {
            let dropped: Vec<TxnId> = set
                .iter()
                .copied()
                .filter(|t| {
                    let deps = self.logs.log(t.node()).index().commit_deps_of(*t);
                    !self.deps_settled(deps, |d| set.contains(&d))
                })
                .collect();
            if dropped.is_empty() {
                break;
            }
            for t in dropped {
                set.remove(&t);
            }
        }
        set
    }

    /// Flip to `Committed` every transaction still marked active that
    /// [`SmDb::settled_unacked_commits`] finds settled (see [`SmDb::crash`]).
    /// That is an acknowledgement's own test, so promotion preserves the
    /// acknowledged ⇒ settled invariant the fixpoint rests on.
    fn promote_durably_committed(&mut self) {
        self.note_table_walk();
        let promoted: Vec<TxnId> = self
            .settled_unacked_commits()
            .into_iter()
            .filter(|t| self.txns.status(*t) == Some(TxnStatus::Active))
            .collect();
        for txn in promoted {
            self.retire(txn, Fate::Committed);
            self.stats.commits += 1;
        }
    }

    /// Run the configured restart-recovery protocol over every node
    /// crashed since the last completed recovery. Re-entrant: if recovery
    /// itself is interrupted (the recovery node dies, surfacing
    /// [`DbError::FaultCrash`] or a crash of its own), call `crash` on the
    /// victim and `recover` again — a fresh survivor is elected and the
    /// restart converges to the same IFA-consistent state. No-op when
    /// nothing is pending. On return every live node's clock stands at the
    /// open.
    pub fn recover(&mut self) -> Result<RecoveryOutcome, DbError> {
        let crashed: Vec<NodeId> = self.restart.crashed.iter().copied().collect();
        let mut outcome = RecoveryOutcome { crashed: crashed.clone(), ..Default::default() };
        if crashed.is_empty() {
            return Ok(outcome);
        }
        outcome.lost_lines = self.restart.lost_lines;
        // A new recovery supersedes any in-progress instant drain: the
        // analysis below re-derives the complete redo plan from the
        // retained logs (a checkpoint cannot have advanced the bound past
        // a pending entry — it drains first), so the stale deferred
        // entries and their coherence marks are dropped wholesale.
        self.restart.clear_plan();
        self.m.clear_all_unrecovered();
        let clock0 = self.m.max_clock();
        let mut scope = self.restart_scope();
        self.note_table_walk();
        let survivors = self.m.surviving_nodes();
        if survivors.is_empty() {
            // Machine-wide outage: reboot node 0 to host the rebuild.
            self.m.reboot_node(NodeId(0));
        } else {
            // The paper's IFA argument holds for *any* surviving host, so
            // the choice is schedulable (choice 0 = lowest survivor, the
            // historical pick) — a prime fuzz target.
            scope.recovery_node =
                survivors[self.sched.choose("core.recovery.host", survivors.len())];
        }
        outcome.recovery_node = scope.recovery_node;

        let protocol = self.cfg.protocol.name();
        let crashed_n = crashed.len() as u16;
        self.m
            .obs()
            .bus
            .emit(self.m.max_clock(), || ObsEvent::RecoveryBegin { crashed: crashed_n, protocol });
        self.restart_phases(&mut outcome, &scope)?;
        self.resolve_commit_pipeline()?;
        outcome.recovery_cycles = self.m.max_clock() - clock0;
        // The open is a barrier: no node runs a transaction at a simulated
        // time before the restart that admitted it was over (an instant
        // restart: before its early open).
        self.m.sync_clocks();
        let cycles = outcome.recovery_cycles;
        let obs = self.m.obs();
        obs.metrics.observe(names::RECOVERY_TOTAL_CYCLES, cycles);
        obs.metrics.add(names::RESTART_SCAN_RECORDS, outcome.scan_records);
        obs.metrics.add(names::RESTART_LOG_RECORDS_READ, outcome.log_records_read);
        obs.metrics.add(names::RESTART_TAG_SCAN_LINES, outcome.tag_scan_lines);
        obs.metrics.add(names::RESTART_REDO_APPLIED, outcome.redo_applied);
        obs.metrics.add(
            names::RESTART_REDO_SKIPPED,
            outcome.redo_skipped_cached + outcome.redo_skipped_stable + outcome.redo_superseded,
        );
        obs.metrics.gauge_set(names::RESTART_CKPT_BOUND_LSN, outcome.ckpt_bound_lsn as i64);
        obs.bus.emit(self.m.max_clock(), || ObsEvent::RecoveryEnd { sim_cycles: cycles });
        obs.timeline.recovery_progress(
            self.m.max_clock(),
            outcome.scan_records,
            outcome.redo_applied,
            outcome.redo_applied + outcome.redo_skipped_cached + outcome.redo_skipped_stable,
        );
        obs.timeline.on_recovery_end(self.m.max_clock());
        self.restart.crashed.clear();
        self.restart.lost_lines = 0;
        self.restart.total_failure = false;
        if self.restart.pending > 0 {
            // Instant restart: the database opens *here*, with the heap
            // redo plan still pending. Mark every affected line so the
            // coherence layer refuses to migrate or replicate its stale
            // bytes before the deferred redo applies. The index is fully
            // recovered (index redo is never deferred), but reinstalled
            // heap lines stay stale until the drain completes.
            for &line in self.restart.by_line.keys() {
                self.m.mark_unrecovered(line);
            }
            self.m.obs().metrics.add(names::RESTART_OPEN_EARLY_CYCLES, cycles);
            self.restart.stale_tree_pages.clear();
        } else {
            self.restart.settle();
        }
        Ok(outcome)
    }

    /// What the restart of the pending crash covers. **The** derivation of
    /// "who is analysed, who is doomed": [`SmDb::recover`] runs over it and
    /// the analysis oracles ([`SmDb::check_redo_plan`],
    /// [`SmDb::check_cached_probe`]) check against it. Recomputed from the
    /// machine on every entry (statuses only flip in the final phase), so
    /// an interrupted recovery re-derives the same — or, after further
    /// crashes, a larger — scope.
    pub(crate) fn restart_scope(&self) -> RestartScope {
        let full = self.cfg.protocol == ProtocolKind::FaOnly || self.restart.total_failure;
        let active: Vec<&TxnState> = self.txns.live().filter(|t| t.is_active()).collect();
        // A transaction dies if *any* node it executes on is down — for
        // single-node transactions that is just the home node; for
        // parallel transactions (§9) it is any participant.
        let crashed_active: Vec<TxnId> = active
            .iter()
            .filter(|t| t.participants.as_slice().iter().any(|p| self.m.is_crashed(*p)))
            .map(|t| t.id)
            .collect();
        // Controlled lock violation: every still-active transaction that
        // inherited a commit-LSN dependency — transitively — on a doomed
        // predecessor saw data that will never commit; it dies with the
        // predecessor (cascade abort).
        let mut dead: BTreeSet<TxnId> = crashed_active.iter().copied().collect();
        let mut cascade: BTreeSet<TxnId> = BTreeSet::new();
        loop {
            let victims: Vec<TxnId> = active
                .iter()
                .filter(|t| !dead.contains(&t.id))
                .filter(|t| t.inherited.iter().any(|d| dead.contains(&d.releaser)))
                .map(|t| t.id)
                .collect();
            if victims.is_empty() {
                break;
            }
            dead.extend(&victims);
            cascade.extend(victims);
        }
        let doomed: Vec<TxnId> = if full {
            active.iter().map(|t| t.id).collect()
        } else {
            crashed_active.into_iter().chain(cascade.iter().copied()).collect()
        };
        let mut contaminated: BTreeSet<RecId> = BTreeSet::new();
        for d in active.iter().filter(|t| doomed.contains(&t.id)).flat_map(|t| &t.inherited) {
            if let Some(slot) = smdb_lock::names::rec_slot_of_name(d.name) {
                if slot < self.cfg.records as u64 {
                    contaminated.insert(self.layout.rec_of_global(slot));
                }
            }
        }
        RestartScope {
            analysed: self.m.node_ids().filter(|n| full || self.m.is_crashed(*n)).collect(),
            surviving: active.iter().map(|t| t.id).filter(|t| !doomed.contains(t)).collect(),
            doomed,
            cascade,
            contaminated,
            recovery_node: self.m.surviving_nodes().first().copied().unwrap_or(NodeId(0)),
            // With every transaction dead no cached copy is worth probing
            // for: the full scope is Redo All "after aborting everyone".
            scheme: if full { RestartScheme::RedoAll } else { self.cfg.protocol.restart_scheme() },
            full,
        }
    }

    /// Whether any crashed node awaits recovery (the window between
    /// [`SmDb::crash`] and a completed [`SmDb::recover`]).
    pub fn recovery_pending(&self) -> bool {
        !self.restart.crashed.is_empty()
    }

    /// Settle the commit pipeline after a completed restart: drop the
    /// pending commits whose transaction it settled (promoted to
    /// `Committed` by the crash, or aborted), and release the locks that
    /// promoted ones still hold — their acknowledgement, which releases,
    /// never ran.
    fn resolve_commit_pipeline(&mut self) -> Result<(), DbError> {
        let (keep, settled): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending_commits)
            .into_iter()
            .partition(|p| self.txns.status(p.txn) == Some(TxnStatus::Active));
        self.pending_commits = keep;
        for p in settled {
            // Crashed homes were scrubbed by lock recovery already.
            if self.acknowledged(p.txn) && p.locks_held && !self.m.is_crashed(p.txn.node()) {
                self.locks.release_all(&mut self.m, &mut self.logs, p.txn)?;
            }
        }
        Ok(())
    }

    /// Crash point between recovery phases: the recovery node itself dies.
    fn phase_crash_point(&self, recovery_node: NodeId) -> Result<(), DbError> {
        if let Some(c) = self.fault.hit(FAULT_RECOVERY_PHASE, recovery_node.0) {
            return Err(DbError::FaultCrash(c));
        }
        Ok(())
    }

    /// Open a named recovery-phase span (bus event + paired clocks).
    fn begin_phase(&self, phase: &'static str) -> PhaseSpan {
        self.m.obs().bus.emit(self.m.max_clock(), || ObsEvent::RecoveryPhaseBegin { phase });
        PhaseSpan::begin(phase, self.m.max_clock())
    }

    /// Close a phase span: bus event, per-phase histogram, and the
    /// outcome's phase table (always recorded, even with observability
    /// off — the bench reports read it).
    fn end_phase(&self, span: PhaseSpan, outcome: &mut RecoveryOutcome) {
        let t = span.end(self.m.max_clock());
        let obs = self.m.obs();
        obs.metrics.observe(phase_histogram(t.phase), t.sim_cycles);
        let (phase, sim_cycles) = (t.phase, t.sim_cycles);
        obs.bus.emit(self.m.max_clock(), || ObsEvent::RecoveryPhaseEnd { phase, sim_cycles });
        // Progress gauges accumulate phase by phase; each phase boundary
        // lands a sample in the availability timeline's current bucket.
        obs.timeline.recovery_progress(
            self.m.max_clock(),
            outcome.scan_records,
            outcome.redo_applied,
            outcome.redo_applied + outcome.redo_skipped_cached + outcome.redo_skipped_stable,
        );
        outcome.phases.push(t);
    }

    // ------------------------------------------------------------------
    // Shared analysis helpers
    // ------------------------------------------------------------------

    /// Analyse the logs — the **single scan** of restart recovery. Each
    /// retained log is covered exactly once (crashed/analysed nodes: the
    /// stable prefix; survivors: the full retained log, volatile tail
    /// included), and every product recovery needs is collected *and
    /// reduced* in that one pass. What the pass reads is the log's
    /// data-record index ([`NodeLog::data_refs`]): until a write is
    /// applied, the analysis needs four words of an `Update` — LSN, GSN,
    /// writer, record — and the log keeps exactly those beside its
    /// records. The index is a pure function of the retained records, so
    /// nothing learnt from it is something a scan of the same prefix would
    /// not have told; the simulated scan charge stays that of the whole
    /// covered prefix.
    ///
    /// * commit status — a predicate, not a set: the transaction table
    ///   answers for every acknowledged commit and
    ///   [`SmDb::settled_unacked_commits`] for the few that are not, so
    ///   it is immune to Commit records reclaimed by checkpoint
    ///   truncation. The (committed, doomed, settled-aborted) class of a
    ///   transaction is looked up once per run of adjacent records of
    ///   that transaction, and only for data records;
    /// * durable uncommitted traces + last-writer commit status of the
    ///   analysed nodes (the undo analysis);
    /// * the position of the highest-GSN retained committed update per
    ///   record (the paper's §4.1.2 stable-log source of committed
    ///   values);
    /// * the redo plan strictly past each log's checkpoint LSN, already
    ///   reduced to the position of the final (highest-GSN) update per
    ///   record — truncation keeps the retained prefix near that bound,
    ///   so the scan cost tracks work since the last checkpoint, not
    ///   history length;
    /// * doomed transactions' effects on surviving logs, for the undo
    ///   phase.
    ///
    /// The log record itself is opened on three slow paths only: an index
    /// operation (key and value live in the payload), an analysed node's
    /// not-committed, not-settled update (its undo image), and a doomed
    /// transaction's update on a survivor's log (its before image).
    ///
    /// A log whose incremental index proves it retains no data records is
    /// skipped without being read at all. Where the scope analyses every
    /// node (FA-only / total failure), only stable prefixes are read and
    /// redo is thereby restricted to committed transactions.
    ///
    /// The logs are independent inputs: every product is a max-GSN fold, a
    /// per-log table, a sum, or a list sorted by GSN where it is used, so
    /// the order they are read in — and hence who reads which — changes
    /// nothing ([`SmDb::check_scan_order`]).
    fn analyse_stable(&self, scope: &RestartScope) -> Result<StableAnalysis, DbError> {
        self.analyse_in_order(scope, self.m.node_ids())
    }

    /// [`Self::analyse_stable`], reading the logs in `order`.
    fn analyse_in_order(
        &self,
        scope: &RestartScope,
        order: impl Iterator<Item = NodeId>,
    ) -> Result<StableAnalysis, DbError> {
        let mut a = StableAnalysis {
            scans: vec![LogScan::default(); self.m.node_count() as usize],
            ..Default::default()
        };
        let doomed: BTreeSet<TxnId> = scope.doomed.iter().copied().collect();
        // Commit status covers *every* node: commit records are always
        // forced, and a parallel transaction's commit lives on its home
        // node, which may differ from the analysed nodes. Under
        // controlled lock violation a durable commit record only counts
        // when its recorded dependencies are durably settled too.
        let unacked = self.settled_unacked_commits();
        let classify = |txn: TxnId| {
            let status = self.txns.status(txn);
            TxnClass {
                committed: status == Some(TxnStatus::Committed) || unacked.contains(&txn),
                doomed: doomed.contains(&txn),
                // A transaction the (crash-surviving, shared-memory) txn
                // table already records as `Aborted` was rolled back by a
                // previous recovery or a voluntary abort — but when its
                // home node is *still down*, its stable log keeps being
                // re-analysed by every subsequent recovery. Its retained
                // records must not re-enter the undo candidate sets: live
                // transactions may have legitimately re-written those
                // records since the rollback, and re-applying the stale
                // before images would destroy their updates. (Found by
                // the schedule fuzzer.) It still feeds the last-writer
                // maps so the stale-tag predicate sees the true history.
                settled_aborted: status == Some(TxnStatus::Aborted),
            }
        };
        let to_arr = |b: &bytes::Bytes| {
            let mut v = [0u8; 8];
            let n = b.len().min(8);
            v[..n].copy_from_slice(&b[..n]);
            v
        };
        for n in order {
            let log = self.logs.log(n);
            let bound = self.ckpt.last().lsn_for(n);
            a.ckpt_bound = a.ckpt_bound.max(bound.0);
            if !log.has_data_after(log.truncation_point()) {
                continue; // index proves no retained data records
            }
            let is_analysed = scope.analysed.contains(&n);
            // The scan is charged for every retained record of the prefix
            // it covers, but only data records carry a GSN; control, lock
            // and structural records need no classification at all, and
            // the log hands out the data records' index entries alone.
            let covered = if is_analysed { log.stable_records() } else { log.records() };
            let mut scan = LogScan { records: covered.len() as u64, heap_candidates: 0 };
            let mut last_rec = is_analysed.then(RecTable::default);
            let mut memo: Option<(TxnId, TxnClass)> = None;
            for d in log.data_refs(is_analysed) {
                let (txn, gsn) = (d.txn, d.gsn);
                // Skip the synthetic recovery transactions (seq 0): an
                // interrupted recovery attempt leaves its redo's
                // IndexInsert records in the (now-crashed) recovery node's
                // stable log, and they re-install *committed* entries —
                // treating them as uncommitted ops would undo committed
                // data on the next attempt.
                if txn.seq() == 0 {
                    continue;
                }
                let class = match memo {
                    Some((t, c)) if t == txn => c,
                    _ => {
                        let c = classify(txn);
                        memo = Some((txn, c));
                        c
                    }
                };
                let TxnClass { committed, doomed: is_doomed, settled_aborted } = class;
                // Redo candidacy: strictly past the checkpoint bound and
                // never doomed; analysed nodes contribute committed work
                // only.
                let redo = d.lsn > bound && !is_doomed && (committed || !is_analysed);
                let Some(rec) = d.rec() else {
                    // An index operation: key and value are log reads.
                    // Only an insert or a delete mark is undone; the
                    // compensations (remove, unmark) are redone alone.
                    let (key, undo, ix) = match a.open(log, d.lsn)?.payload {
                        LogPayload::IndexInsert { key, ref value, .. } => {
                            let value = to_arr(value);
                            (key, Some(IxUndo::RemoveKey(key)), IxRedo::Insert { key, value, txn })
                        }
                        LogPayload::IndexDelete { key, ref value, .. } => {
                            let value = to_arr(value);
                            (key, Some(IxUndo::UnmarkKey(key)), IxRedo::Delete { key, value, txn })
                        }
                        LogPayload::IndexRemove { key, .. } => (key, None, IxRedo::Remove { key }),
                        LogPayload::IndexUnmark { key, .. } => (key, None, IxRedo::Unmark { key }),
                        _ => continue,
                    };
                    if is_analysed {
                        a.last_key_committed.insert((n, key), committed);
                        if let Some(undo) = undo.filter(|_| !committed && !settled_aborted) {
                            a.uncommitted_index.push((gsn, undo));
                        }
                    } else if let Some(undo) = undo.filter(|_| is_doomed) {
                        a.doomed_index.push((gsn, undo));
                    }
                    if redo {
                        a.index_redo.push((gsn, ix));
                    }
                    continue;
                };
                let at = LogPos { node: n, lsn: d.lsn };
                if let Some(last_rec) = &mut last_rec {
                    *last_rec.slot_mut(rec) = committed;
                    if !committed && !settled_aborted {
                        let (_, undo, _) = self.logged_update(&a, at, rec)?;
                        a.uncommitted_undo.slot_mut(rec).push((gsn, txn, undo.clone()));
                        a.uncommitted_recs.insert(rec);
                    }
                } else if is_doomed {
                    let (_, undo, _) = self.logged_update(&a, at, rec)?;
                    a.doomed_updates.push((gsn, rec, undo.clone()));
                }
                if committed || redo {
                    let fold = a.heap.slot_mut(rec);
                    if committed {
                        fold.committed.keep(gsn, at);
                    }
                    if redo {
                        fold.redo.keep(gsn, at);
                        scan.heap_candidates += 1;
                    }
                }
            }
            if let Some(last_rec) = last_rec {
                a.last_rec_committed.insert(n, last_rec);
            }
            a.scans[n.0 as usize] = scan;
        }
        Ok(a)
    }

    /// Open the `Update` of `rec` that `analysis` placed at `at`: its
    /// writer, before image and after image, lent from the log. A position
    /// that opens anything else is a broken invariant of the data-record
    /// index, reported as such.
    fn logged_update<'s>(
        &'s self,
        analysis: &StableAnalysis,
        at: LogPos,
        rec: RecId,
    ) -> Result<(TxnId, &'s bytes::Bytes, &'s bytes::Bytes), DbError> {
        match &analysis.open(self.logs.log(at.node), at.lsn)?.payload {
            LogPayload::Update { txn, rec: logged, undo, redo, .. } if *logged == rec => {
                Ok((*txn, undo, redo))
            }
            _ => Err(DbError::Invariant {
                what: "an analysis position opens an Update of the record it was kept for",
            }),
        }
    }

    /// Reduce the analysis to the **heap plan**: per record, its final
    /// on-page bytes and the node that writes them. Redo entries come
    /// first, in GSN order (GSNs are globally unique, so the order is
    /// total): the analysis already kept one final image per record, a
    /// line in `cached` is skipped before anything is installed (the
    /// Selective-Redo probe), and only an entry that is planned opens its
    /// log record. Then, in record order, the entries where **undo wins**
    /// — a stable-logged uncommitted update of an analysed node, or a
    /// doomed transaction's update on a surviving log: undo runs after
    /// redo, so such a record gets no redo entry and one write of its last
    /// committed value under a null tag instead.
    ///
    /// An entry where undo wins is also written through to the **stable
    /// image**, here, while its transaction still counts as doomed: the
    /// last phase settles it, every later analysis skips a settled
    /// transaction's records, and nothing would re-derive the entry if the
    /// only corrected copy then died with a cache — or with the pending
    /// plan, past an early open — over a stable image that still held the
    /// stolen update.
    fn heap_plan(
        &mut self,
        analysis: &StableAnalysis,
        outcome: &mut RecoveryOutcome,
        scope: &RestartScope,
        cached: &[LineId],
    ) -> Result<Vec<HeapWrite>, DbError> {
        // Doomed updates are rolled back in reverse GSN order, so the
        // lowest-GSN before image is the one that sticks. A doomed
        // dependent that reached the record through a violated lock name
        // (early lock release) logged a contaminated before image —
        // possibly the doomed predecessor's own uncommitted value — and
        // takes the last committed payload instead; every other doomed
        // update keeps the logged image (for parallel transactions on
        // non-analysed survivors it is the only undo source).
        let mut undo: BTreeMap<RecId, Vec<u8>> = BTreeMap::new();
        let mut doomed: Vec<&(u64, RecId, bytes::Bytes)> = analysis.doomed_updates.iter().collect();
        doomed.sort_by_key(|(gsn, _, _)| *gsn);
        for (_, rec, before) in doomed {
            if let std::collections::btree_map::Entry::Vacant(e) = undo.entry(*rec) {
                let value = if scope.contaminated.contains(rec) {
                    self.last_committed_payload(analysis, *rec)?
                } else {
                    before.to_vec()
                };
                e.insert(self.layout.encode(NULL_TAG, &value));
            }
        }
        // The protocol undo follows the doomed rollback, so its last
        // committed values override. WAL guarantees the durable trace
        // exists whenever an uncommitted update was stolen.
        for &rec in &analysis.uncommitted_recs {
            let value = self.last_committed_payload(analysis, rec)?;
            undo.insert(rec, self.layout.encode(NULL_TAG, &value));
        }
        let mut redo: Vec<(RecId, Latest)> = analysis.planned_recs().collect();
        redo.sort_by_key(|(_, kept)| kept.gsn);
        let heap_candidates = analysis.heap_candidates();
        self.m.obs().metrics.observe(
            names::RECOVERY_REDO_BATCH,
            heap_candidates + analysis.index_redo.len() as u64,
        );
        outcome.redo_superseded += heap_candidates - redo.len() as u64;
        let mut plan = Vec::with_capacity(redo.len() + undo.len());
        for (rec, kept) in redo {
            let line = self.rec_line(rec);
            if cached.binary_search(&line).is_ok() {
                outcome.redo_skipped_cached += 1;
                continue;
            }
            if undo.contains_key(&rec) {
                continue;
            }
            let (txn, _, image) = self.logged_update(analysis, kept.at, rec)?;
            let tag = self.live_tag(txn);
            let bytes = self.layout.encode(tag, image);
            if tag != NULL_TAG {
                self.tags.set(tag, line);
            }
            // A full restart reboots the machine (§1): no survivor is up to
            // redo its own updates, the host writes everything.
            let own = !scope.full && !self.m.is_crashed(txn.node());
            let node = if own { txn.node() } else { scope.recovery_node };
            plan.push(HeapWrite { rec, line, bytes, node, undo: false });
        }
        for (rec, bytes) in &undo {
            self.sdb.patch(rec.page, self.layout.page_offset(rec.slot), bytes);
        }
        plan.extend(undo.into_iter().map(|(rec, bytes)| HeapWrite {
            rec,
            line: self.rec_line(rec),
            bytes,
            node: scope.recovery_node,
            undo: true,
        }));
        Ok(plan)
    }

    /// The last committed payload for one record, from the single-pass
    /// analysis. The paper's §4.1.2 source: *"the last committed value of
    /// these records will necessarily be in stable store — either in the
    /// stable log, or in the stable database."*
    ///
    /// Precedence: the highest-GSN retained committed after image wins
    /// unless an uncommitted update follows it (higher GSN). In that case
    /// the final run of uncommitted writes is all by one transaction —
    /// strict 2PL means every transaction interposed since the last
    /// commit either committed or restored the value on abort — so that
    /// transaction's earliest undo image *is* the last committed value.
    /// This stays correct even when the committed update's own log record
    /// has been reclaimed by checkpoint truncation. Records with no
    /// retained log trace take their value from the (checkpoint-flushed)
    /// stable database.
    fn last_committed_payload(
        &self,
        analysis: &StableAnalysis,
        rec: RecId,
    ) -> Result<Vec<u8>, DbError> {
        let committed = analysis.heap.get(rec).map(|f| f.committed).filter(Latest::is_some);
        let logged = |c: Latest| Ok(self.logged_update(analysis, c.at, rec)?.2.to_vec());
        let chain = analysis.uncommitted_undo.get(rec);
        let latest = chain.and_then(|c| c.iter().max_by_key(|(gsn, _, _)| *gsn));
        match (committed, latest) {
            (Some(c), Some((gu, _, _))) if c.gsn > *gu => logged(c),
            (_, Some((_, tstar, _))) => {
                let (_, _, before) = req(
                    req(chain, "latest undo entry drawn from a present chain")?
                        .iter()
                        .filter(|(_, t, _)| t == tstar)
                        .min_by_key(|(gsn, _, _)| *gsn),
                    "t* drawn from its own undo chain",
                )?;
                Ok(before.to_vec())
            }
            (Some(c), None) => logged(c),
            (None, None) => {
                let img = self
                    .sdb
                    .peek_page(rec.page)
                    .ok_or(DbError::StablePageMissing { page: rec.page })?;
                let off = self.layout.payload_offset(rec.slot);
                Ok(img[off..off + self.layout.data_size].to_vec())
            }
        }
    }

    /// The line holding a record.
    pub(crate) fn rec_line(&self, rec: RecId) -> LineId {
        let (line_idx, _) = self.layout.line_and_offset(rec.slot);
        LineId(self.layout.geometry.line_addr(rec.page, line_idx))
    }

    /// The Selective-Redo "cached before reinstall" probe (§4.1.2), asked
    /// only about the lines the reduced redo plan writes: which of them a
    /// surviving cache still holds coherently. Lines reinstalled by an
    /// *interrupted earlier attempt* are excluded — they sit in a
    /// survivor's cache now, but their content is the stale stable image,
    /// not the coherent pre-crash copy. Ascending and without repeats: the
    /// plan's records are, and a record's line grows with it — so one
    /// directory walk ([`Machine::held_lines`](smdb_sim::Machine::held_lines))
    /// finds them, a page's lines in consecutive slots.
    fn cached_plan_lines(&self, analysis: &StableAnalysis) -> Vec<LineId> {
        let mut planned: Vec<LineId> =
            analysis.planned_recs().map(|(rec, _)| self.rec_line(rec)).collect();
        planned.dedup();
        self.m
            .held_lines(&planned)
            .map(|(_, _, line, _)| line)
            .filter(|l| !self.restart.stale_heap_lines.contains(l))
            .collect()
    }

    /// Independent oracle for the Selective-Redo probe. Restart asks "does
    /// a surviving cache still hold this line coherently?" only about the
    /// lines of its reduced redo plan ([`Self::cached_plan_lines`]); this
    /// reference takes the snapshot the long way — every heap line held in
    /// any surviving cache, minus the stale reinstalls of an interrupted
    /// attempt — and compares the two answers for every record of the plan
    /// the pending crash produces. Call between [`SmDb::crash`] and
    /// [`SmDb::recover`] (also after an interrupted `recover`). Returns
    /// human-readable disagreements (empty = the probe is exact).
    pub fn check_cached_probe(&self) -> Vec<String> {
        let analysis = match self.analyse_stable(&self.restart_scope()) {
            Ok(analysis) => analysis,
            Err(e) => return vec![format!("analysis failed: {e}")],
        };
        let probed = self.cached_plan_lines(&analysis);
        let mut snapshot: BTreeSet<LineId> =
            self.m.iter_held().map(|(_, l, _)| l).filter(|l| self.is_heap_line(*l)).collect();
        for line in &self.restart.stale_heap_lines {
            snapshot.remove(line);
        }
        let mut diffs = Vec::new();
        for (rec, _) in analysis.planned_recs() {
            let line = self.rec_line(rec);
            let cached = probed.binary_search(&line).is_ok();
            if cached != snapshot.contains(&line) {
                diffs.push(format!(
                    "{rec:?} on {line:?}: plan-sized probe says cached={cached}, whole-cache snapshot says {}",
                    snapshot.contains(&line)
                ));
            }
        }
        diffs
    }

    /// What restart takes from the analysis of the pending crash with the
    /// logs read in `order`, for the oracles ([`ScanProducts`]).
    pub(crate) fn scan_products(
        &self,
        scope: &RestartScope,
        order: impl Iterator<Item = NodeId>,
    ) -> Result<ScanProducts, DbError> {
        let mut a = self.analyse_in_order(scope, order)?;
        let (mut plan, mut values) = (HeapImages::new(), HeapImages::new());
        for (rec, fold) in a.heap.slots() {
            for (kept, images) in [(fold.redo, &mut plan), (fold.committed, &mut values)] {
                if kept.is_some() {
                    let (txn, _, after) = self.logged_update(&a, kept.at, rec)?;
                    images.insert(rec, (kept.gsn, txn, after.clone()));
                }
            }
        }
        a.doomed_updates.sort_by_key(|(gsn, _, _)| *gsn);
        a.index_redo.sort_by_key(|(gsn, _)| *gsn);
        a.doomed_index.sort_by_key(|(gsn, _)| *gsn);
        a.uncommitted_index.sort_by_key(|(gsn, _)| *gsn);
        Ok(ScanProducts {
            plan,
            values,
            undo_recs: a.uncommitted_recs,
            doomed_updates: a.doomed_updates,
            index_redo: a.index_redo,
            index_undo: [a.doomed_index, a.uncommitted_index],
            scans: a.scans,
        })
    }

    /// The proof that who reads which log cannot matter
    /// ([`smdb_wal::assign_scanners`]): the analysis of the pending crash
    /// with the logs taken in every rotation of node order, each compared
    /// with the first — the reduced heap redo plan and the committed values
    /// (all [`SmDb::check_redo_plan`] looks at, so its verdict is the same
    /// for every order too), where undo wins, the index redo and undo lists,
    /// the per-log counts. Call between [`SmDb::crash`] and
    /// [`SmDb::recover`] (also after an interrupted `recover`). Returns
    /// human-readable disagreements (empty = the per-log reductions commute).
    pub fn check_scan_order(&self) -> Vec<String> {
        let scope = self.restart_scope();
        let nodes: Vec<NodeId> = self.m.node_ids().collect();
        let rotated = |first: usize| {
            self.scan_products(&scope, nodes[first..].iter().chain(&nodes[..first]).copied())
        };
        let base = match rotated(0) {
            Ok(products) => products,
            Err(e) => return vec![format!("analysis failed: {e}")],
        };
        (1..nodes.len())
            .filter_map(|first| match rotated(first) {
                Ok(products) if products == base => None,
                Ok(products) => Some(format!(
                    "logs read from {:?} on: {products:?}\n  from {:?} on: {base:?}",
                    nodes[first], nodes[0]
                )),
                Err(e) => Some(format!("analysis from {:?} on failed: {e}", nodes[first])),
            })
            .collect()
    }

    /// The undo tag a redone effect of `txn` carries: its home node while
    /// the transaction is still active there, null once it has settled (or
    /// under protocols that do not tag).
    fn live_tag(&self, txn: TxnId) -> u16 {
        let live = self.cfg.protocol.uses_undo_tags()
            && !self.m.is_crashed(txn.node())
            && self.txns.status(txn) == Some(TxnStatus::Active);
        if live {
            txn.node().0
        } else {
            NULL_TAG
        }
    }

    /// Replay the analysis' index redo candidates as `recovery_node`:
    /// logical B-tree ops, which do not commute, so none is superseded,
    /// they run sequentially in GSN order, and they are never deferred. A
    /// writer that is still active on a live node keeps its undo tag.
    fn replay_index(
        &mut self,
        outcome: &mut RecoveryOutcome,
        recovery_node: NodeId,
        analysis: &mut StableAnalysis,
    ) -> Result<(), DbError> {
        analysis.index_redo.sort_by_key(|(gsn, _)| *gsn);
        for &(_, op) in &analysis.index_redo {
            let tag = match op {
                IxRedo::Insert { txn, .. } | IxRedo::Delete { txn, .. } => self.live_tag(txn),
                _ => NULL_TAG,
            };
            let tree = req(self.tree.as_mut(), "index op implies an index")?;
            let mut ctx = tree_ctx!(self);
            match op {
                IxRedo::Insert { key, value, .. } => {
                    if tree.redo_insert(&mut ctx, recovery_node, key, value, tag)? {
                        outcome.index_redo_applied += 1;
                    }
                }
                IxRedo::Delete { key, value, .. } => {
                    if tree.redo_delete_mark(&mut ctx, recovery_node, key, value, tag)? {
                        outcome.index_redo_applied += 1;
                    }
                }
                IxRedo::Remove { key } => tree.undo_insert(&mut ctx, recovery_node, key)?,
                IxRedo::Unmark { key } => tree.undo_delete(&mut ctx, recovery_node, key)?,
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Applying the heap plan: before the open, on demand, in the background
    // ------------------------------------------------------------------

    /// Deferred recovery work still pending from an instant restart's
    /// early open: plan entries plus lost lines not yet installed (they
    /// may have no entry of their own). Zero whenever no drain is in
    /// progress (including always, without
    /// [`crate::DbConfig::instant_restart`]). Counting the uninstalled
    /// lost lines matters when the deferred plan is *empty*: the window
    /// is not closed until they are resident again, or a raw full-page
    /// reader (checkpoint flush) trips over a still-lost line.
    pub fn redo_pending(&self) -> usize {
        self.restart.pending + self.restart.lost_left
    }

    /// Lifetime instant-redo counters (entries planned at open points,
    /// applied on demand, applied by the background drain, retired as
    /// stable-image skips).
    pub fn instant_redo_counters(&self) -> InstantRedoCounters {
        self.restart.counters
    }

    /// Whether a pending deferred entry holds `rec`'s final bytes.
    fn pending_covers(&self, rec: RecId) -> bool {
        let line = self.rec_line(rec);
        self.restart.by_line.get(&line).is_some_and(|idxs| {
            idxs.iter().any(|&i| self.restart.entries[i].as_ref().is_some_and(|e| e.rec == rec))
        })
    }

    /// **The** install of a crash-lost heap page: its `lost` lines, from
    /// the stable image, exclusive on `node`, for one disk read. Every
    /// line with no surviving holder is installed — not just the lost ones
    /// — restoring the per-page all-or-nothing residency the line-0 probe
    /// relies on (a write updates the page-LSN header too, so the last
    /// writer sole-holds the header while data lines keep older holders;
    /// Redo-All's discard then strips those, leaving holder-less lines
    /// next to lost ones). Undo tags of the nodes down at plan time are
    /// scrubbed from records no pending entry overwrites (the image is
    /// borrowed; only a line that needs a scrub is copied). Installed
    /// lines are stale reinstalls until the restart, or its drain,
    /// completes. No-op on a page with every line held.
    fn install_lost_page(
        &mut self,
        node: NodeId,
        page: PageId,
        lost: &[LineId],
    ) -> Result<(), DbError> {
        let g = self.layout.geometry;
        let first = g.line_addr(page, 0);
        // One directory walk tells the usual case — every line either held
        // or in `lost` — from the one that needs a probe per line.
        let r = self.m.span_residency(LineId(first), g.lines_per_page);
        let probed: Vec<LineId>;
        let todo = if r.lost == lost.len() && r.lost + r.cached == g.lines_per_page {
            lost
        } else {
            let holderless = |l: &LineId| lost.contains(l) || self.m.holder_count(*l) == 0;
            probed =
                (first..first + g.lines_per_page as u64).map(LineId).filter(holderless).collect();
            &probed
        };
        if todo.is_empty() {
            return Ok(());
        }
        let img = self.sdb.peek_page(page).ok_or(DbError::StablePageMissing { page })?;
        let cost = self.m.config().cost.disk_io;
        self.m.advance(node, cost);
        let (rpl, rec_size) = (self.layout.records_per_line(), self.layout.rec_size());
        for &line in todo {
            let idx = (line.0 - first) as usize;
            let bytes = &img[g.line_offset(idx)..][..g.line_size];
            // Line 0 holds the page LSN and no records; line `idx` holds
            // slots `(idx - 1) * rpl ..`.
            let stale_tag = |k: &usize| {
                let tag = RecordLayout::tag_of(&bytes[k * rec_size..]);
                tag != NULL_TAG
                    && self.restart.scrub_tags.contains(&tag)
                    && !self.pending_covers(RecId::new(page, ((idx - 1) * rpl + k) as u16))
            };
            let scrub: Vec<usize> = (0..if idx == 0 { 0 } else { rpl }).filter(stale_tag).collect();
            if scrub.is_empty() {
                self.m.install_line(node, line, bytes)?;
            } else {
                let mut bytes = bytes.to_vec();
                for k in scrub {
                    bytes[k * rec_size..][..2].copy_from_slice(&NULL_TAG.to_le_bytes());
                }
                self.m.install_line(node, line, &bytes)?;
            }
            self.restart.stale_heap_lines.insert(line);
        }
        Ok(())
    }

    /// [`Self::install_lost_page`] over what is still registered for
    /// `page` past an instant restart's open (possibly nothing).
    fn install_registered(&mut self, node: NodeId, page: PageId) -> Result<(), DbError> {
        let lost = self.restart.take_lost(page);
        self.install_lost_page(node, page, &lost)
    }

    /// Whether the stable image already holds `entry`'s bytes.
    fn stable_agrees(&self, entry: &HeapWrite) -> Result<bool, DbError> {
        let HeapWrite { rec, ref bytes, .. } = *entry;
        let off = self.layout.page_offset(rec.slot);
        let img =
            self.sdb.peek_page(rec.page).ok_or(DbError::StablePageMissing { page: rec.page })?;
        Ok(img[off..off + bytes.len()] == bytes[..])
    }

    /// An entry's page is about to be faulted in from stable: every line of
    /// it is a stale reinstall.
    fn mark_page_stale(&mut self, page: PageId) {
        let g = self.layout.geometry;
        self.restart
            .stale_heap_lines
            .extend((0..g.lines_per_page).map(|idx| LineId(g.line_addr(page, idx))));
    }

    /// **The** heap write of recovery, one plan entry as `actor`: skip when
    /// nothing is cached and the stable image already agrees; otherwise
    /// write through the coherent store. The page is dirty to the next
    /// checkpoint already: a crash keeps the page-LSN entries of the
    /// updates being redone ([`smdb_wal::PageLsnTable::reset_node`]), and
    /// where undo wins over a page flushed since, the plan wrote the entry
    /// through to the stable image. Returns whether a write happened.
    fn write_heap_entry(&mut self, actor: NodeId, entry: &HeapWrite) -> Result<bool, DbError> {
        let HeapWrite { rec, line, ref bytes, .. } = *entry;
        let off = self.layout.page_offset(rec.slot);
        let cached = self.m.probe_cached(line);
        if !cached {
            if self.stable_agrees(entry)? {
                return Ok(false);
            }
            // The fault-in: reached only past an instant restart's open,
            // and charged to whoever touches the line first. Before the
            // open the eager apply has read every such page already
            // ([`Self::apply_heap_plan`]).
            self.mark_page_stale(rec.page);
        }
        // A page with lost lines must be installed before the coherent
        // write can fault it in (the machine refuses lost lines); a page
        // held nowhere is installed the same way, for the tag scrub.
        if !cached || self.restart.lost_pages.contains_key(&rec.page) {
            self.install_registered(actor, rec.page)?;
        }
        let mut ctx = tree_ctx!(self);
        ctx.write(actor, rec.page, off, bytes)?;
        Ok(true)
    }

    /// Apply the plan **before the open** — what makes a restart *eager*.
    ///
    /// First the pages the plan reads from the stable database: the
    /// census' `lost` pages, and each page an entry would fault in — its
    /// line held nowhere, its bytes not the stable image's, the test of
    /// [`Self::write_heap_entry`] taken in plan order, as the writes would
    /// meet it (a page read for an earlier entry holds the line; an entry
    /// the stable image already agrees with is skipped). The reads are a
    /// checkpoint's write-back in the other direction, dealt out the same
    /// way ([`assign_flushers`], nobody excluded): every live node reads a
    /// share on its own clock ([`Self::fan_out`]), between two barriers.
    ///
    /// Then every entry is written as its own node, in plan order; none
    /// faults. Nothing of the deferred window is built: no registration,
    /// no per-line index, no coherence marks.
    fn apply_heap_plan(
        &mut self,
        plan: Vec<HeapWrite>,
        lost: &[LineId],
        outcome: &mut RecoveryOutcome,
        recovery_node: NodeId,
    ) -> Result<(), DbError> {
        let mut reads: BTreeMap<PageId, &[LineId]> = by_page(self.layout.geometry, lost).collect();
        let mut skip = vec![false; plan.len()];
        for (entry, skip) in plan.iter().zip(&mut skip) {
            let page = entry.rec.page;
            if self.m.probe_cached(entry.line) || reads.contains_key(&page) {
                continue;
            }
            if self.stable_agrees(entry)? {
                *skip = true;
            } else {
                self.mark_page_stale(page);
                reads.insert(page, &[]);
            }
        }
        // No reader starts before the recovery node has the plan, and no
        // entry is written before the last page is in.
        let live = self.m.surviving_nodes();
        let shares = assign_flushers(reads.keys().map(|&page| (page, [])), &live);
        let site = Some(FAULT_RESTART_INSTALL);
        (outcome.pages_read, outcome.pages_read_max) =
            self.fan_out(recovery_node, &live, &shares, site, Join::Barrier, |db, node, pages| {
                for page in pages {
                    db.install_lost_page(node, *page, reads[page])?;
                }
                Ok(pages.len() as u64)
            })?;
        for (entry, skip) in plan.iter().zip(skip) {
            if !skip && self.write_heap_entry(entry.node, entry)? {
                outcome.redo_applied += 1;
                outcome.undo_records_applied += entry.undo as u64;
            } else {
                outcome.redo_skipped_stable += 1;
            }
        }
        Ok(())
    }

    /// Apply a line's pending recovery before `node` accesses it
    /// coherently: install its page from stable if the line (or the page's
    /// header) is still lost, then apply its pending plan entries. No-op
    /// when the line carries neither. The engine calls this from every
    /// forward path that can reach an unrecovered heap line: record-lock
    /// grants (reads/updates), commit and acknowledgement tag clears,
    /// abort rollbacks, and lockless dirty reads.
    pub(crate) fn ensure_line_recovered(
        &mut self,
        node: NodeId,
        line: LineId,
    ) -> Result<(), DbError> {
        let (page, _) = self.layout.geometry.page_of_addr(line.0);
        let header = LineId(self.layout.geometry.line_addr(page, 0));
        // The page-LSN header line gates every resident-page probe: if the
        // crash destroyed it (even with the record's own line intact), the
        // page must be installed before any access.
        let lost = self.restart.is_lost(page, line) || self.restart.is_lost(page, header);
        if !lost && !self.restart.by_line.contains_key(&line) {
            return Ok(());
        }
        // Crash point: the accessing node dies before the inline redo.
        if let Some(c) = self.fault.hit(FAULT_REDO_ON_DEMAND, node.0) {
            return Err(DbError::FaultCrash(c));
        }
        if lost {
            self.install_registered(node, page)?;
        }
        if let Some(idxs) = self.restart.by_line.get(&line).cloned() {
            for idx in idxs {
                self.apply_pending_entry(idx, node, false)?;
            }
        }
        Ok(())
    }

    /// Background drain: retire up to `batch` pending entries in plan
    /// order, acting (and charged) as `node`. Returns the number retired.
    /// Call between scheduler steps until [`SmDb::redo_pending`] reaches
    /// zero; each non-empty batch lands a recovery-progress sample in the
    /// availability timeline.
    pub fn drain_redo(&mut self, node: NodeId, batch: usize) -> Result<usize, DbError> {
        // Gate on the whole window (entries OR uninstalled lost lines):
        // a plan with zero entries still owes the install.
        if self.redo_pending() == 0 || batch == 0 {
            return Ok(0);
        }
        if self.m.is_crashed(node) {
            return Err(DbError::NodeDown { node });
        }
        // Crash point: the draining node dies at the batch boundary.
        if let Some(c) = self.fault.hit(FAULT_REDO_BACKGROUND, node.0) {
            return Err(DbError::FaultCrash(c));
        }
        let mut drained = 0usize;
        while drained < batch {
            let Some(idx) = self.restart.next_pending() else {
                break;
            };
            self.apply_pending_entry(idx, node, true)?;
            drained += 1;
        }
        if self.restart.pending == 0 {
            // Plan drained: install what is still lost too, so the
            // fully-drained state matches an eager recovery (every lost
            // line resident again, stale stable tags scrubbed).
            while let Some(&page) = self.restart.lost_pages.keys().next() {
                self.install_registered(node, page)?;
            }
            self.restart.settle();
        }
        let planned = self.restart.entries.len() as u64;
        let retired = planned - self.restart.pending as u64;
        let obs = self.m.obs();
        if obs.is_enabled() {
            obs.timeline.recovery_progress(self.m.max_clock(), 0, retired, planned);
        }
        Ok(drained)
    }

    /// Retire one pending entry as `actor`, and lift the line's coherence
    /// mark once its last entry retires. On failure the entry and the mark
    /// are restored, so an injected crash mid-apply loses nothing.
    fn apply_pending_entry(
        &mut self,
        idx: usize,
        actor: NodeId,
        background: bool,
    ) -> Result<(), DbError> {
        let Some(entry) = self.restart.entries[idx].take() else {
            return Ok(());
        };
        let line = entry.line;
        // Lift the mark for the duration of our own authoritative write —
        // the coherence guard refuses every other writer.
        self.m.clear_unrecovered(line);
        let wrote = match self.write_heap_entry(actor, &entry) {
            Ok(w) => w,
            Err(e) => {
                self.m.mark_unrecovered(line);
                self.restart.entries[idx] = Some(entry);
                return Err(e);
            }
        };
        self.restart.pending -= 1;
        let line_done = match self.restart.by_line.get_mut(&line) {
            Some(list) => {
                list.retain(|&i| i != idx);
                list.is_empty()
            }
            None => true,
        };
        if line_done {
            self.restart.by_line.remove(&line);
        } else {
            self.m.mark_unrecovered(line);
        }
        let obs = self.m.obs();
        if wrote {
            obs.metrics.inc(names::RESTART_REDO_APPLIED);
            if background {
                obs.metrics.inc(names::RESTART_REDO_BACKGROUND);
                self.restart.counters.background += 1;
            } else {
                obs.metrics.inc(names::RESTART_REDO_ON_DEMAND);
                self.restart.counters.on_demand += 1;
            }
        } else {
            obs.metrics.inc(names::RESTART_REDO_SKIPPED);
            self.restart.counters.skipped_stable += 1;
        }
        self.restart.settle();
        Ok(())
    }

    // ------------------------------------------------------------------
    // The restart: seven phases over one scope
    // ------------------------------------------------------------------

    fn restart_phases(
        &mut self,
        outcome: &mut RecoveryOutcome,
        scope: &RestartScope,
    ) -> Result<(), DbError> {
        let recovery_node = scope.recovery_node;
        // Phase 1 ("stable_undo"): the single analysis scan over every
        // retained log. The undo it finds — stolen updates included — is
        // not applied here: it becomes plan entries ([`Self::heap_plan`]).
        let span = self.begin_phase("stable_undo");
        // The stale reinstalls an interrupted attempt left, for the tag
        // scan (this attempt's own installs scrub the analysed nodes' tags).
        let carried: Vec<LineId> = self.restart.stale_heap_lines.iter().copied().collect();
        self.m.obs().metrics.inc(names::RESTART_ANALYSIS_SCANS);
        self.note_table_walk();
        let mut analysis = self.analyse_stable(scope)?;
        // The Selective-Redo probe, taken *before* any install (a line
        // installed from a stale stable image must not be mistaken for a
        // coherent surviving copy) and only over the lines the reduced
        // redo plan will ask about.
        let cached_before = if scope.scheme == RestartScheme::Selective {
            self.cached_plan_lines(&analysis)
        } else {
            Vec::new()
        };
        outcome.ckpt_bound_lsn = analysis.ckpt_bound;
        // The sequential log-device read behind the scan is its reader's
        // ([`assign_scanners`]): restart time scales with the retained log
        // on the busiest reader, not with the sum over the machine, and the
        // recovery node waits for the latest reader (the checkpoint's join).
        let live = self.m.surviving_nodes();
        let covered: Vec<u64> = analysis.scans.iter().map(|s| s.records).collect();
        let shares = assign_scanners(&covered, &live);
        let cost = self.m.config().cost.log_scan_record;
        let mut handed_over = 0;
        let site = Some(FAULT_RESTART_SCAN);
        (outcome.scan_records, outcome.scan_records_max) =
            self.fan_out(recovery_node, &live, &shares, site, Join::Caller, |db, reader, logs| {
                let read = || logs.iter().map(|log| &analysis.scans[log.0 as usize]);
                if reader != recovery_node {
                    handed_over += read().map(|s| s.heap_candidates).sum::<u64>();
                }
                let records = read().map(|s| s.records).sum();
                db.m.advance(reader, cost * records);
                Ok(records)
            })?;
        // What the other readers found has to reach the recovery node,
        // which builds the plan: the heap redo candidates they met, as the
        // data-record references the scan deals in (32 bytes, four to a
        // 128-byte line), one cache-to-cache transfer per line.
        let refs_per_line = (self.cfg.line_size / std::mem::size_of::<DataRef>()).max(1) as u64;
        let merge = self.m.config().cost.remote_transfer * handed_over.div_ceil(refs_per_line);
        self.m.advance(recovery_node, merge);
        self.end_phase(span, outcome);
        self.phase_crash_point(recovery_node)?;

        // Phase 2 ("reinstall"): take the census of what the crash
        // destroyed — the heap lines are installed with the plan, and the
        // tags of the analysed nodes scrubbed as they are — restore the
        // index's skeleton (root, allocation map) from the forced structural
        // records, and read back its lost pages (Redo All: every page).
        let span = self.begin_phase("reinstall");
        if scope.full {
            // No cached line outlives a full restart — the skeleton is read
            // whole, phase 6 zeroes the lock space — so every cache is
            // dropped here, before the skeleton is read back, and a lost
            // heap line is forgotten rather than installed: the stable
            // database and the plan are the authority.
            for node in self.m.surviving_nodes() {
                self.m.discard_matching(node, |_| true);
            }
            let lost: Vec<LineId> = self.m.iter_lost().filter(|l| self.is_heap_line(*l)).collect();
            for line in lost {
                self.m.clear_lost(line);
            }
        }
        let lost: Vec<LineId> = self.m.iter_lost().collect();
        let heap_lost = lost.partition_point(|l| self.is_heap_line(*l));
        self.restart.scrub_tags.extend(scope.analysed.iter().map(|n| n.0));
        // Whether the crash destroyed *any* tree line: if not, every index
        // effect still lives in a coherent cache and the Selective scheme
        // skips index replay — unless an interrupted attempt reinstalled
        // tree pages, whose entries are still the stale stable images.
        let mut tree_lost_any = !self.restart.stale_tree_pages.is_empty();
        let mut skeleton = Vec::new();
        if let Some(tree) = self.tree.as_mut() {
            let g = self.layout.geometry;
            let pages = tree.allocated_pages();
            tree_lost_any |= lost[heap_lost..]
                .iter()
                .any(|l| pages.binary_search(&g.page_of_addr(l.0).0).is_ok());
            let mut ctx = tree_ctx!(self);
            let redo_all = scope.scheme == RestartScheme::RedoAll;
            (outcome.btree_recovery, skeleton) = tree.recover_structure(&mut ctx, redo_all);
        }
        // Dealt as the eager plan's reads are ([`Self::apply_heap_plan`]):
        // after the replay fixed the set, and before index replay.
        let shares = assign_flushers(skeleton.iter().map(|&page| (page, [])), &live);
        let site = Some(FAULT_RESTART_INSTALL);
        (outcome.btree_recovery.pages_reinstalled, _) =
            self.fan_out(recovery_node, &live, &shares, site, Join::Barrier, |db, node, pages| {
                for &page in pages {
                    // Stale before the read: should a later reader die, the
                    // next attempt must not take this page for a survivor's.
                    db.restart.stale_tree_pages.insert(page);
                    tree_ctx!(db).install_page_from_stable(node, page)?;
                }
                Ok(pages.len() as u64)
            })?;
        self.end_phase(span, outcome);
        self.phase_crash_point(recovery_node)?;

        // Phase 3 ("cache_discard", Redo All only): discard every cached
        // heap line on every survivor (phase 2 did the index's), implicitly
        // undoing migrated uncommitted updates of crashed transactions.
        let span = self.begin_phase("cache_discard");
        if scope.scheme == RestartScheme::RedoAll {
            // A pure cache drop (no disk reads — the reinstall cost lands
            // on whoever faults the page back in), and *required* whenever
            // the plan is applied: a migrated uncommitted update of a
            // doomed transaction whose record's last committed update
            // predates the checkpoint bound has no redo candidate, hence
            // no plan entry, and only the discard removes its stale bytes
            // from survivor caches.
            let heap_limit = self.heap_pages as u64 * self.cfg.lines_per_page as u64;
            for node in self.m.surviving_nodes() {
                self.m.discard_matching(node, |l| l.0 < heap_limit);
            }
        }
        self.end_phase(span, outcome);
        self.phase_crash_point(recovery_node)?;

        // Phase 4 ("redo"): the analysis scan gathered the candidates
        // (survivors' full logs + analysed nodes' committed stable records
        // past the checkpoint bound). Index operations are logical and do
        // not commute, so they are replayed here, sequentially in GSN
        // order, whenever any tree line was lost; the heap side is the
        // plan.
        let span = self.begin_phase("redo");
        if tree_lost_any || scope.scheme == RestartScheme::RedoAll {
            self.replay_index(outcome, recovery_node, &mut analysis)?;
        }
        let plan = self.heap_plan(&analysis, outcome, scope, &cached_before)?;
        // The one difference between the eager and the instant restart:
        // *when* the plan is applied. Everything before and after this
        // point is the same code. A full restart leaves no transaction
        // alive to open early for: it always applies here.
        let lost = &lost[..heap_lost];
        if self.cfg.instant_restart && !scope.full {
            let lost_pages = by_page(self.layout.geometry, lost);
            self.restart
                .defer(plan, lost_pages.map(|(page, lines)| (page, lines.to_vec())).collect());
        } else {
            self.apply_heap_plan(plan, lost, outcome, recovery_node)?;
        }
        self.end_phase(span, outcome);
        self.phase_crash_point(recovery_node)?;

        // Phase 5 ("undo"): heap undo that the logs can tell is in the
        // plan already; what is left is the index — the doomed
        // transactions' operations on surviving logs, then the analysed
        // nodes' uncommitted flushed (steal / structural flush) and
        // reloaded entries. Tags are Selective Redo's undo vehicle — §4.1.2's
        // scan of the caches that survive; where every cache was discarded
        // the stable logs are.
        let span = self.begin_phase("undo");
        let doomed_index = std::mem::take(&mut analysis.doomed_index);
        self.undo_index_ops(outcome, recovery_node, doomed_index)?;
        if self.cfg.protocol.uses_undo_tags() && scope.scheme == RestartScheme::Selective {
            self.undo_by_tags(outcome, scope, &analysis, &carried)?;
        } else {
            let uncommitted_index = std::mem::take(&mut analysis.uncommitted_index);
            self.undo_index_ops(outcome, recovery_node, uncommitted_index)?;
        }
        self.end_phase(span, outcome);
        self.phase_crash_point(recovery_node)?;

        // Phase 6 ("lock_recovery"): lock-space recovery (§4.2.2).
        let span = self.begin_phase("lock_recovery");
        if scope.full {
            // Every transaction is dead, so no grant survives to be kept:
            // the lock space is zeroed, not recovered.
            let line_size = self.cfg.line_size;
            for line in self.locks.table().all_lines() {
                self.m.install_line(recovery_node, line, &vec![0u8; line_size])?;
            }
            self.locks.drop_all_chains();
        } else {
            // An early-lock-release committer is still active, but its
            // locks came off, unlogged, at its commit-record append: it
            // has no grant to rebuild.
            let mut surviving: BTreeSet<TxnId> = scope.surviving.iter().copied().collect();
            for p in self.pending_commits.iter().filter(|p| !p.locks_held) {
                surviving.remove(&p.txn);
            }
            outcome.lock_recovery = self.locks.recover(
                &mut self.m,
                &mut self.logs,
                &scope.analysed,
                &surviving,
                recovery_node,
            )?;
            // Phase 6b: release the locks still held by doomed
            // transactions whose home node survived (their LCB entries
            // carry a surviving node id, so the crash scrub did not remove
            // them).
            for &txn in &scope.doomed {
                if !self.m.is_crashed(txn.node()) {
                    let waits = self.txns.get(txn).map_or(Vec::new(), |t| t.waits.clone());
                    for name in waits {
                        self.locks.cancel_wait(&mut self.m, &mut self.logs, txn, name)?;
                    }
                    self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
                    self.logs.append(txn.node(), LogPayload::Abort { txn });
                }
            }
        }
        self.end_phase(span, outcome);
        self.phase_crash_point(recovery_node)?;

        // Phase 7 ("txn_table"): the doomed leave the transaction table.
        let span = self.begin_phase("txn_table");
        for &txn in &scope.doomed {
            self.retire(txn, Fate::Aborted);
        }
        outcome.aborted = scope.doomed.clone();
        self.stats.crash_aborts += scope.doomed.len() as u64;
        self.stats.dep_aborts += scope.cascade.len() as u64;
        if !scope.cascade.is_empty() {
            self.m.obs().metrics.add(names::TXN_DEP_ABORTS, scope.cascade.len() as u64);
        }
        outcome.preserved_active = scope.surviving.clone();
        outcome.log_records_read = analysis.records_read.get();
        self.end_phase(span, outcome);
        Ok(())
    }

    /// The §4.1.2 undo scan over cached heap lines for Volatile LBM with
    /// Selective Redo: every record tagged with a crashed node is a
    /// candidate; committed-but-stale tags (possible only on lines
    /// reinstalled from stale stable images) are merely cleared; genuinely
    /// uncommitted updates get the record's last committed value
    /// installed. The scan visits the lines the analysed nodes' tag
    /// ledgers name ([`Self::tag_scan`]), then drops the ledger bits of
    /// lines that carry the node's tag nowhere any more.
    fn undo_by_tags(
        &mut self,
        outcome: &mut RecoveryOutcome,
        scope: &RestartScope,
        analysis: &StableAnalysis,
        carried: &[LineId],
    ) -> Result<(), DbError> {
        let recovery_node = scope.recovery_node;
        let crashed: BTreeSet<NodeId> = scope.analysed.iter().copied().collect();
        let (candidates, visited) = self.tag_scan(&crashed, carried);
        debug_assert_eq!(
            candidates,
            self.tag_scan_by_directory(&crashed),
            "the tag ledger scan and the whole-cache scan disagree"
        );
        outcome.tag_scan_lines = visited.len() as u64;
        for TagHit { line, rec, tag, .. } in candidates {
            if self.pending_covers(rec) {
                // A pending plan entry holds this record's final bytes;
                // applying it (on access or drain) overwrites tag and
                // payload both.
                continue;
            }
            // A line installed from a stable image, by this restart or by
            // an interrupted earlier attempt, may carry a stale tag on a
            // committed value.
            let committed = self.restart.stale_heap_lines.contains(&line)
                && analysis.is_committed_rec(NodeId(tag), rec);
            // The tagged line survives on another node, but the page's
            // Page-LSN header may still await its install — install it
            // before the coherent write below probes the page for
            // residency.
            let header = LineId(self.layout.geometry.line_addr(rec.page, 0));
            if self.restart.is_lost(rec.page, header) {
                self.install_registered(recovery_node, rec.page)?;
            }
            let off = self.layout.page_offset(rec.slot);
            if committed {
                // Stale tag on a committed value: scrub the tag only.
                let mut ctx = tree_ctx!(self);
                ctx.write(recovery_node, rec.page, off, &NULL_TAG.to_le_bytes())?;
                outcome.tags_cleared += 1;
            } else {
                let value = self.last_committed_payload(analysis, rec)?;
                let bytes = self.layout.encode(NULL_TAG, &value);
                let mut ctx = tree_ctx!(self);
                ctx.write(recovery_node, rec.page, off, &bytes)?;
                outcome.undo_records_applied += 1;
            }
        }
        self.prune_ledgers(&scope.analysed, &visited)?;
        // Index scan (the tree's own tag walk).
        if let Some(tree) = self.tree.as_mut() {
            let mut ctx = tree_ctx!(self);
            let st = tree.undo_by_tags(
                &mut ctx,
                recovery_node,
                &crashed,
                &self.restart.stale_tree_pages,
                |n, k| analysis.is_committed_key(n, k),
            )?;
            outcome.undo_records_applied += st.undo_inserts + st.undo_deletes;
            outcome.tags_cleared += st.tags_cleared;
            outcome.btree_recovery.undo_inserts += st.undo_inserts;
            outcome.btree_recovery.undo_deletes += st.undo_deletes;
            outcome.btree_recovery.tags_cleared += st.tags_cleared;
        }
        Ok(())
    }

    /// The records of cached heap line `line` (its bytes, its lowest
    /// holder) that carry the tag of a node in `crashed`, in slot order.
    fn push_tagged(
        &self,
        crashed: &BTreeSet<NodeId>,
        (holder, line, bytes): (NodeId, LineId, &[u8]),
        hits: &mut Vec<TagHit>,
    ) {
        if !self.is_heap_line(line) {
            return;
        }
        let (page, line_idx) = self.layout.geometry.page_of_addr(line.0);
        if line_idx == 0 {
            return; // Page-LSN line holds no records
        }
        let rpl = self.layout.records_per_line();
        for k in 0..rpl {
            let tag = RecordLayout::tag_of(&bytes[k * self.layout.rec_size()..]);
            if tag != NULL_TAG && crashed.contains(&NodeId(tag)) {
                let rec = RecId::new(page, ((line_idx - 1) * rpl + k) as u16);
                hits.push(TagHit { holder, line, rec, tag });
            }
        }
    }

    /// The tag scan's candidates, and the lines it visited: the lines in
    /// the ledgers of `crashed` ([`crate::tag_ledger`]) and `carried`, the
    /// stale reinstalls an interrupted attempt left. Undo writes advance
    /// clocks and migrate lines, so the order is observable: it is the
    /// order of a survivor-by-survivor cache scan (each line at its lowest
    /// holder, in [`smdb_sim::Machine::iter_held`] order within a holder),
    /// as [`Self::tag_scan_by_directory`] finds it walking every line.
    fn tag_scan(
        &self,
        crashed: &BTreeSet<NodeId>,
        carried: &[LineId],
    ) -> (Vec<TagHit>, Vec<LineId>) {
        let mut lines = self.tags.union(crashed.iter());
        if !carried.is_empty() {
            lines.extend_from_slice(carried);
            lines.sort_unstable();
            lines.dedup();
        }
        let mut keyed: Vec<((NodeId, u64), TagHit)> = Vec::new();
        let mut hits = Vec::new();
        for (holder, at, line, bytes) in self.m.held_lines(&lines) {
            self.push_tagged(crashed, (holder, line, bytes), &mut hits);
            keyed.extend(hits.drain(..).map(|hit| ((holder, at), hit)));
        }
        keyed.sort_by_key(|(key, _)| *key);
        (keyed.into_iter().map(|(_, hit)| hit).collect(), lines)
    }

    /// The tag scan the long way: one pass over every line any survivor
    /// holds ([`smdb_sim::Machine::iter_held`]). The reference
    /// [`Self::tag_scan`] is held to.
    fn tag_scan_by_directory(&self, crashed: &BTreeSet<NodeId>) -> Vec<TagHit> {
        let mut hits = Vec::new();
        for held in self.m.iter_held() {
            self.push_tagged(crashed, held, &mut hits);
        }
        hits.sort_by_key(|hit| hit.holder);
        hits
    }

    /// Drop the bits of `nodes` for the ascending `lines` that carry their
    /// tag nowhere any more: neither on the surviving cached copy nor on
    /// the stable image ([`crate::tag_ledger`]). No pending plan entry can
    /// carry such a tag either. Restart calls this for the analysed nodes
    /// after their tag scan, which rewrote every tag of theirs on a
    /// surviving copy but those a pending entry covers (and this restart's
    /// entries carry live tags only; `recover` dropped any earlier plan).
    /// [`SmDb::checkpoint`] calls it for every node after its flush, with
    /// no entry pending: it drained them first.
    pub(crate) fn prune_ledgers(
        &mut self,
        nodes: &[NodeId],
        lines: &[LineId],
    ) -> Result<(), DbError> {
        let g = self.layout.geometry;
        let (rpl, rec_size) = (self.layout.records_per_line(), self.layout.rec_size());
        let tagged = |bytes: &[u8], tag: u16| {
            (0..rpl).any(|k| RecordLayout::tag_of(&bytes[k * rec_size..]) == tag)
        };
        let mut gone = Vec::new();
        // `lines` is ascending: a page's lines come together.
        let mut image: Option<(PageId, &[u8])> = None;
        for &line in lines {
            let (page, idx) = g.page_of_addr(line.0);
            let img = match image {
                Some((at, img)) if at == page => img,
                _ => self.sdb.peek_page(page).ok_or(DbError::StablePageMissing { page })?,
            };
            image = Some((page, img));
            let stable = &img[g.line_offset(idx)..][..g.line_size];
            let cached = self.m.peek(line);
            for tag in nodes.iter().map(|n| n.0).filter(|&tag| self.tags.has(tag, line)) {
                if !(cached.is_some_and(|c| tagged(c, tag)) || tagged(stable, tag)) {
                    gone.push((tag, line));
                }
            }
        }
        for (tag, line) in gone {
            self.tags.clear(tag, line);
        }
        Ok(())
    }

    /// Independent oracle for the tag scan. Restart visits only the lines
    /// the analysed nodes' tag ledgers name ([`Self::tag_scan`]); this
    /// reference walks every line a survivor holds, as the scan did before
    /// the ledger, and compares the two candidate lists — which records,
    /// in which order — for the pending crash. Call between
    /// [`SmDb::crash`] and [`SmDb::recover`] (also after an interrupted
    /// `recover`). Returns human-readable disagreements (empty = the
    /// ledger is a superset of the tagged lines).
    pub fn check_tag_scan(&self) -> Vec<String> {
        let crashed: BTreeSet<NodeId> = self.restart_scope().analysed.into_iter().collect();
        let carried: Vec<LineId> = self.restart.stale_heap_lines.iter().copied().collect();
        let (got, _) = self.tag_scan(&crashed, &carried);
        let want = self.tag_scan_by_directory(&crashed);
        if got == want {
            return Vec::new();
        }
        let mut diffs: Vec<String> = want
            .iter()
            .filter(|hit| !got.contains(hit))
            .map(|hit| format!("{hit:?}: found by the whole-cache scan, not by the ledger's"))
            .chain(
                got.iter()
                    .filter(|hit| !want.contains(hit))
                    .map(|hit| format!("{hit:?}: found by the ledger's scan only")),
            )
            .collect();
        if diffs.is_empty() {
            diffs.push(format!("same records, other order: ledger {got:?}, whole cache {want:?}"));
        }
        diffs
    }

    /// Apply the logical inverses of index operations that are rolled back
    /// — a doomed transaction's, from a surviving node's intact log, or an
    /// uncommitted crashed transaction's, from its stable log — in reverse
    /// GSN order. No-op without an index.
    fn undo_index_ops(
        &mut self,
        outcome: &mut RecoveryOutcome,
        recovery_node: NodeId,
        mut ops: Vec<(u64, IxUndo)>,
    ) -> Result<(), DbError> {
        let Some(tree) = self.tree.as_mut() else {
            return Ok(());
        };
        ops.sort_by_key(|(gsn, _)| std::cmp::Reverse(*gsn));
        for (_, op) in ops {
            let mut ctx = tree_ctx!(self);
            match op {
                IxUndo::RemoveKey(key) => tree.undo_insert(&mut ctx, recovery_node, key)?,
                IxUndo::UnmarkKey(key) => tree.undo_delete(&mut ctx, recovery_node, key)?,
            }
            outcome.undo_records_applied += 1;
        }
        Ok(())
    }
}
