//! The simulated cache-coherent shared-memory multiprocessor.
//!
//! A [`Machine`] owns a set of nodes (processor/memory pairs), a cache
//! directory, and the coherent line store. All operations are issued *on
//! behalf of* a node and charge simulated cycles to that node's clock.
//!
//! The simulator deliberately models the *observable semantics* of the
//! coherence protocol rather than bus/network timing: which caches hold
//! valid copies, when the only copy migrates, what a node crash destroys,
//! and what the low-level directory-restore step leaves behind. These are
//! exactly the properties the paper's recovery protocols depend on (§2, §3).
//!
//! # Representation
//!
//! The hot path is flat and allocation-free. Each shard keeps its lines
//! in dense columns addressed through a compact open-addressed
//! [`LineIndex`]: the slot array (`Vec<Slot>`: which line, whether
//! occupied), the holder column ([`HolderColumn`]: a bitmask of
//! `nodes.div_ceil(64)` words per slot — one word on machines of up to 64
//! nodes), the marks column (line-lock holder and §5.2 active owner, two
//! `u16`s per slot) and the data arena (`Vec<u8>`, slot `i` owning the
//! `i × line_size` window). Because the coherence protocol keeps every
//! valid copy byte-identical, per-node "caches" reduce to holder bits —
//! replication and migration are bit updates, not byte copies, and a
//! read/write/lock costs one hash probe plus direct array indexing instead
//! of multiple `BTreeMap` walks and a `Box<[u8]>` clone. Freed slots are
//! recycled through a free list, so steady-state operation performs no
//! allocation at all.
//!
//! The directory states of the old representation are derived views:
//! *Exclusive(n)* ⇔ exactly one holder bit, *Shared* ⇔ several, *Lost* ⇔
//! a live slot with no holder bit (its data destroyed by a crash; a free
//! slot's mask is empty too, and only `Slot::live` tells the two apart).
//! Every holder query walks the bits in ascending node order, the order of
//! the sorted sets this column replaced, so every coherence decision and
//! simulated cycle is what it was. A crash ([`Machine::crash`]) is one
//! AND-NOT pass over the holder column and one pass over the marks column;
//! it reads a `Slot` only for the lines it loses (and, on a
//! write-broadcast machine, for those whose line lock it breaks).

use crate::config::{CoherenceKind, SimConfig};
use crate::error::MemError;
use crate::flat::{HolderColumn, LineIndex};
use crate::ids::{LineId, NodeId};
use crate::stats::SimStats;
use crate::STRIPES;
use smdb_fault::FaultInjector;
use smdb_obs::{Event as ObsEvent, Obs};
use std::collections::BTreeSet;
use std::ops::Range;

/// Fault site: a write or `getline` is about to *migrate* the line — the
/// acting node does not hold a copy and will take the only valid one.
/// Crashing here models death mid-`H_ww1`: whatever the LBM policy left in
/// the volatile log is all recovery has.
pub const FAULT_MIGRATE: &str = "sim.migrate";
/// Fault site: a write or `getline` is about to *invalidate* remote copies
/// (the acting node already holds one). Crashing here models death
/// mid-invalidation.
pub const FAULT_INVALIDATE: &str = "sim.invalidate";

/// Obs counter: cumulative open-addressing probe steps on the line-index
/// lookup path (`sim.index_probes`). A healthy index stays near one probe
/// per lookup; growth signals clustering.
pub const METRIC_INDEX_PROBES: &str = smdb_obs::names::SIM_INDEX_PROBES;
/// Obs counter: line-store slots recycled from the free list instead of
/// growing the arena (`sim.buf_reuse`). Non-zero means the steady state is
/// allocation-free.
pub const METRIC_BUF_REUSE: &str = smdb_obs::names::SIM_BUF_REUSE;

/// One line's directory entry. Its holders and marks sit at the same
/// index of the shard's holder and marks columns, its data in the arena at
/// `slot_index × line_size`.
#[derive(Clone, Debug)]
struct Slot {
    /// The line this slot holds (meaningful only while `live`).
    line: LineId,
    /// Whether the slot is occupied (false ⇒ on the free list). A live slot
    /// with no holder is *lost*: every valid copy resided on a crashed
    /// node. The low-level recovery step leaves it so software recovery can
    /// distinguish *lost* from *never existed*.
    live: bool,
}

/// The raw value of an empty [`Marks`] field. Node ids are below
/// `cfg.nodes`, a `u16`, so no node has it.
const NO_NODE: u16 = u16::MAX;

/// A slot's entry in the marks column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Marks {
    /// Line-lock holder, if the line is held in mutually-exclusive state
    /// via `getline` (§5.1).
    locked_by: u16,
    /// The §5.2 "active bit" extension: set while the line carries an
    /// uncommitted update whose log records have not been forced, together
    /// with the node that performed that update. Coherence transitions that
    /// would move or destroy such a line are reported by
    /// [`Machine::pending_triggers`] so a Stable-LBM engine can force the
    /// owner's log first.
    active_owner: u16,
}

impl Marks {
    const NONE: Marks = Marks { locked_by: NO_NODE, active_owner: NO_NODE };

    fn locked_by(self) -> Option<NodeId> {
        (self.locked_by != NO_NODE).then_some(NodeId(self.locked_by))
    }

    fn active_owner(self) -> Option<NodeId> {
        (self.active_owner != NO_NODE).then_some(NodeId(self.active_owner))
    }
}

#[derive(Debug)]
struct NodeState {
    clock: u64,
    crashed: bool,
}

/// One of the [`STRIPES`] stripes of the coherence directory and line
/// store: its own open-addressed index, slot array, data arena, and free
/// list. Shards are the unit of ownership transfer for
/// parallel execution lanes ([`Machine::lane_split`]): a lane machine
/// holds the detached shards it owns and an unowned sentinel (empty,
/// `owned == false`) in every other position, so any access outside the
/// lane's stripe set fails loudly instead of corrupting foreign state.
#[derive(Debug)]
struct CoherShard {
    index: LineIndex,
    slots: Vec<Slot>,
    /// Each slot's holders (empty for a free or lost slot).
    holders: HolderColumn,
    /// Each slot's line lock and active owner ([`Marks::NONE`] when free).
    marks: Vec<Marks>,
    /// Line data arena: slot `i` owns bytes `i*line_size .. (i+1)*line_size`.
    data: Vec<u8>,
    free: Vec<u32>,
    /// Slots recycled from the free list instead of growing the arena.
    buf_reuse: u64,
    /// False only for sentinel positions inside a detached lane machine.
    owned: bool,
}

impl CoherShard {
    fn new(nodes: u16) -> Self {
        CoherShard {
            index: LineIndex::with_capacity(1024),
            slots: Vec::new(),
            holders: HolderColumn::new(nodes),
            marks: Vec::new(),
            data: Vec::new(),
            free: Vec::new(),
            buf_reuse: 0,
            owned: true,
        }
    }

    /// Empty unowned sentinel for lane positions outside the lane's
    /// stripe set. Lookups against it find nothing; mutation paths check
    /// `owned` and fail with [`MemError::ForeignStripe`].
    fn foreign(nodes: u16) -> Self {
        CoherShard { owned: false, ..CoherShard::new(nodes) }
    }
}

/// Internal slot address: shard number + slot index within that shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    sh: u32,
    slot: u32,
}

/// What kind of coherence transition threatens an active line (§5.2).
///
/// *"the latest point at which the Stable LBM policies must be enforced
/// corresponds to the downgrade or invalidation of l (for undo) and the
/// invalidation of l (for redo)"*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// A remote read will downgrade the owner's exclusive copy to shared
    /// (the `H_wr` pattern): the owner's undo log must be stable first.
    Downgrade,
    /// A remote write will invalidate the owner's copy (the `H_ww` pattern):
    /// both undo and redo logs must be stable first.
    Invalidate,
}

/// A pending coherence transition affecting an *active* line, reported
/// before the access is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TriggerEvent {
    /// The line about to be downgraded or invalidated.
    pub line: LineId,
    /// The node whose unforced uncommitted update is on the line.
    pub owner: NodeId,
    /// The transition kind.
    pub kind: TransferKind,
}

/// Result of injecting one or more node crashes.
#[derive(Clone, Debug, Default)]
pub struct CrashReport {
    /// Nodes that failed.
    pub crashed: Vec<NodeId>,
    /// Lines whose every valid copy resided on failed nodes: data destroyed.
    /// Sorted by line id.
    pub lost_lines: Vec<LineId>,
    /// Line locks that were held by failed nodes and were broken by the
    /// low-level recovery step. Sorted by line id.
    pub broken_line_locks: Vec<LineId>,
}

/// Diagnostic view of the flat line store (see
/// [`Machine::flat_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatStats {
    /// Slots currently holding a line (live, including `Lost` markers).
    pub live_lines: usize,
    /// Total slots ever allocated (live + free-listed).
    pub slots: usize,
    /// Slots on the free list awaiting reuse.
    pub free_slots: usize,
    /// Current open-addressed index capacity.
    pub index_capacity: usize,
    /// Cumulative index probe steps (lookups + inserts + removes).
    pub index_probes: u64,
    /// Slots recycled from the free list instead of growing the arena.
    pub buf_reuse: u64,
}

/// Residency of a run of consecutive lines (see
/// [`Machine::span_residency`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanResidency {
    /// Lines whose data a crash destroyed and nothing has reinstalled.
    pub lost: usize,
    /// Lines with a valid copy in some surviving cache.
    pub cached: usize,
}

/// The simulated multiprocessor. See the crate-level docs for an overview.
pub struct Machine {
    cfg: SimConfig,
    shards: Vec<CoherShard>,
    nodes: Vec<NodeState>,
    stats: SimStats,
    obs: Obs,
    fault: FaultInjector,
    next_dynamic: u64,
    /// True for machines produced by [`Machine::lane_split`]: dynamic line
    /// allocation is refused (it would race the parent's allocator) and
    /// accesses outside the owned stripes fail with
    /// [`MemError::ForeignStripe`].
    lane: bool,
    /// Lines an instant restart left with pending redo. Coherent access
    /// (read/write/line lock) is refused until the mark is cleared, so the
    /// coherence protocol can never migrate or replicate stale bytes;
    /// `peek*` and `install_line` stay available for the recovery owner.
    unrecovered: BTreeSet<LineId>,
    /// The lines crashes marked lost, ascending, each with its slot: what
    /// [`Machine::iter_lost`] serves instead of walking every slot. An
    /// install or a `clear_lost` leaves its entry in place and sets
    /// `lost_pruned`; the entries are then checked against their slots as
    /// they are read, and dropped at the next crash or lane split.
    lost: Vec<(LineId, Loc)>,
    /// Some entry of `lost` may name a line that is no longer lost.
    lost_pruned: bool,
}

/// Which bytes of a transfer its lines `lines` hold, when the transfer is
/// `len` bytes long and starts `offset` bytes into line 0 of a run of
/// `line_size`-byte lines (so line 0 holds the first `line_size - offset`
/// bytes). The arithmetic every span operation and its callers share.
#[inline]
pub fn span_bytes(
    line_size: usize,
    offset: usize,
    len: usize,
    lines: Range<usize>,
) -> Range<usize> {
    (lines.start * line_size).saturating_sub(offset)..(lines.end * line_size - offset).min(len)
}

/// Whether the slot at `at` still holds `line`, lost. A slot of a stripe
/// detached into a lane reads as not lost.
fn still_lost(shards: &[CoherShard], line: LineId, at: Loc) -> bool {
    let shard = &shards[at.sh as usize];
    shard.slots.get(at.slot as usize).is_some_and(|sl| sl.live && sl.line == line)
        && shard.holders.is_empty(at.slot)
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.nodes > 0, "machine needs at least one node");
        assert!(cfg.stripe_lines > 0, "stripe granule must be non-zero");
        let nodes = (0..cfg.nodes).map(|_| NodeState { clock: 0, crashed: false }).collect();
        let shards = (0..STRIPES).map(|_| CoherShard::new(cfg.nodes)).collect();
        Machine {
            cfg,
            shards,
            nodes,
            stats: SimStats::default(),
            obs: Obs::new(),
            fault: FaultInjector::new(),
            next_dynamic: LineId::DYNAMIC_BASE,
            lane: false,
            unrecovered: BTreeSet::new(),
            lost: Vec::new(),
            lost_pruned: false,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cache line size in bytes.
    pub fn line_size(&self) -> usize {
        self.cfg.line_size
    }

    /// Number of nodes, including crashed ones.
    pub fn node_count(&self) -> u16 {
        self.cfg.nodes
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.cfg.nodes).map(NodeId)
    }

    /// Nodes that have not crashed.
    pub fn surviving_nodes(&self) -> Vec<NodeId> {
        (0..self.cfg.nodes).map(NodeId).filter(|n| !self.nodes[n.0 as usize].crashed).collect()
    }

    /// Whether a node has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes.get(node.0 as usize).map(|n| n.crashed).unwrap_or(false)
    }

    /// Coherence statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Diagnostic counters for the flat line store (slot/index health),
    /// aggregated across shards.
    pub fn flat_stats(&self) -> FlatStats {
        let mut fs = FlatStats::default();
        for sh in &self.shards {
            fs.live_lines += sh.index.len();
            fs.slots += sh.slots.len();
            fs.free_slots += sh.free.len();
            fs.index_capacity += sh.index.capacity();
            fs.index_probes += sh.index.probe_count();
            fs.buf_reuse += sh.buf_reuse;
        }
        fs
    }

    /// Which stripe (shard) `line` maps to: consecutive runs of
    /// `stripe_lines` line addresses share a stripe, round-robin across
    /// the [`STRIPES`] stripes. Always in range; inside a lane machine
    /// the stripe may be an unowned sentinel.
    #[inline]
    pub fn stripe_of(&self, line: LineId) -> u32 {
        const { assert!(STRIPES.is_power_of_two()) };
        (line.0 / self.cfg.stripe_lines) as u32 & (STRIPES as u32 - 1)
    }

    /// The machine-wide observability handle (event bus + metrics). The
    /// bus is the coherence trace — every transition of the §3.2
    /// data-sharing histories is emitted onto it — and shares one sequence
    /// numbering with the lock, WAL, and recovery events of the higher
    /// layers, so cross-layer causality is visible in a single timeline.
    /// Disabled by default; see [`smdb_obs::Obs::enable`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A clone of the observability handle (shared-handle semantics: it
    /// observes the same bus and registry as [`Machine::obs`]).
    pub fn obs_handle(&self) -> Obs {
        self.obs.clone()
    }

    /// Install a fault injector. The machine hosts the coherence-layer
    /// crash points ([`FAULT_MIGRATE`], [`FAULT_INVALIDATE`]); higher
    /// layers share the same handle for their own sites.
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// A clone of the fault-injection handle.
    pub fn fault_handle(&self) -> FaultInjector {
        self.fault.clone()
    }

    // ------------------------------------------------------------------
    // Clocks
    // ------------------------------------------------------------------

    /// Current simulated time (cycles) on a node's clock.
    pub fn now(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].clock
    }

    /// Advance a node's clock by `cycles` (used by higher layers to charge
    /// disk I/O, log forces, and computation).
    pub fn advance(&mut self, node: NodeId, cycles: u64) {
        self.nodes[node.0 as usize].clock += cycles;
    }

    /// The maximum clock over all nodes: the machine-wide makespan.
    pub fn max_clock(&self) -> u64 {
        self.nodes.iter().map(|n| n.clock).max().unwrap_or(0)
    }

    /// Advance every live node's clock to the machine-wide makespan — a
    /// synchronisation barrier. Benchmarks call this before injecting a
    /// crash so availability windows measured on the makespan clock start
    /// from a common origin instead of being masked by accumulated
    /// inter-node clock skew.
    pub fn sync_clocks(&mut self) {
        let max = self.max_clock();
        for n in self.nodes.iter_mut() {
            if !n.crashed {
                n.clock = max;
            }
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), MemError> {
        let st = self.nodes.get(node.0 as usize).ok_or(MemError::NoSuchNode { node })?;
        if st.crashed {
            return Err(MemError::NodeCrashed { node });
        }
        Ok(())
    }

    fn charge(&mut self, node: NodeId, cycles: u64) {
        self.nodes[node.0 as usize].clock += cycles;
    }

    // ------------------------------------------------------------------
    // Slot plumbing
    // ------------------------------------------------------------------

    /// Error unless `line`'s stripe is owned by this machine. Only lane
    /// machines can fail this check.
    #[inline]
    fn check_owned(&self, line: LineId) -> Result<usize, MemError> {
        let sh = self.stripe_of(line) as usize;
        if self.shards[sh].owned {
            Ok(sh)
        } else {
            Err(MemError::ForeignStripe { line })
        }
    }

    /// Index lookup, mirroring probe steps onto the `sim.index_probes`
    /// counter (one relaxed load + branch when observability is off).
    /// Unowned sentinel shards are empty, so foreign lines simply miss.
    #[inline]
    fn slot_of(&self, line: LineId) -> Option<Loc> {
        let sh = self.stripe_of(line) as usize;
        let shard = &self.shards[sh];
        let before = shard.index.probe_count();
        let slot = shard.index.get(line.0);
        self.obs.metrics.add(METRIC_INDEX_PROBES, shard.index.probe_count() - before);
        slot.map(|slot| Loc { sh: sh as u32, slot })
    }

    /// The directory walk of a span operation: resolve `line`, the
    /// successor of the line resolved to `prev`. Pages are installed line
    /// by line, so consecutive addresses usually sit in consecutive slots
    /// of one shard; the neighbouring slot is checked first (it names the
    /// line it holds, so a hit is exact) and the index is only probed on
    /// a miss. `prev == None` is the plain index lookup.
    #[inline]
    fn next_slot(&self, prev: Option<Loc>, line: LineId) -> Option<Loc> {
        if let Some(p) = prev {
            let slot = p.slot + 1;
            if let Some(sl) = self.shards[p.sh as usize].slots.get(slot as usize) {
                if sl.live && sl.line == line {
                    return Some(Loc { sh: p.sh, slot });
                }
            }
        }
        self.slot_of(line)
    }

    /// The holder column of `l`'s shard (index it with `l.slot`).
    #[inline]
    fn col(&self, l: Loc) -> &HolderColumn {
        &self.shards[l.sh as usize].holders
    }

    #[inline]
    fn col_mut(&mut self, l: Loc) -> &mut HolderColumn {
        &mut self.shards[l.sh as usize].holders
    }

    #[inline]
    fn marks(&self, l: Loc) -> Marks {
        self.shards[l.sh as usize].marks[l.slot as usize]
    }

    #[inline]
    fn marks_mut(&mut self, l: Loc) -> &mut Marks {
        &mut self.shards[l.sh as usize].marks[l.slot as usize]
    }

    /// Whether the live slot `l` is lost: no node holds its line.
    #[inline]
    fn lost_at(&self, l: Loc) -> bool {
        self.col(l).is_empty(l.slot)
    }

    #[inline]
    fn line_data(&self, l: Loc) -> &[u8] {
        let ls = self.cfg.line_size;
        let off = l.slot as usize * ls;
        &self.shards[l.sh as usize].data[off..off + ls]
    }

    /// Occupy a slot for `line` in its stripe's shard, exclusive in
    /// `owner`. Recycles the shard's free list before growing its arena.
    /// The caller must have verified ownership via [`Machine::check_owned`].
    fn alloc_slot(&mut self, line: LineId, owner: NodeId) -> Loc {
        let sh = self.stripe_of(line) as usize;
        debug_assert!(self.shards[sh].owned, "alloc_slot on a foreign stripe");
        let line_size = self.cfg.line_size;
        let shard = &mut self.shards[sh];
        let slot = match shard.free.pop() {
            Some(s) => {
                shard.buf_reuse += 1;
                self.obs.metrics.inc(METRIC_BUF_REUSE);
                s
            }
            None => {
                let s = shard.slots.len() as u32;
                shard.slots.push(Slot { line, live: false });
                shard.holders.push_empty();
                shard.marks.push(Marks::NONE);
                shard.data.resize(shard.data.len() + line_size, 0);
                s
            }
        };
        shard.slots[slot as usize] = Slot { line, live: true };
        shard.holders.set_single(slot, owner);
        shard.index.insert(line.0, slot);
        Loc { sh: sh as u32, slot }
    }

    /// Return a slot to its shard's free list (the line ceases to exist).
    fn free_slot(&mut self, l: Loc) {
        let shard = &mut self.shards[l.sh as usize];
        let sl = &mut shard.slots[l.slot as usize];
        debug_assert!(sl.live);
        self.lost_pruned |= shard.holders.is_empty(l.slot);
        shard.index.remove(sl.line.0);
        sl.live = false;
        shard.holders.clear(l.slot);
        shard.marks[l.slot as usize] = Marks::NONE;
        shard.free.push(l.slot);
    }

    /// Overwrite a slot's data window with `data`, zero-padded to the line
    /// size.
    fn write_line_padded(&mut self, l: Loc, data: &[u8]) {
        let ls = self.cfg.line_size;
        assert!(data.len() <= ls, "initialiser longer than a cache line");
        let off = l.slot as usize * ls;
        let win = &mut self.shards[l.sh as usize].data[off..off + ls];
        win[..data.len()].copy_from_slice(data);
        win[data.len()..].fill(0);
    }

    // ------------------------------------------------------------------
    // Line creation
    // ------------------------------------------------------------------

    /// Create a line at a fixed address, initially exclusive in `node`'s
    /// cache. `data` is zero-padded to the line size. Errors if the address
    /// is already populated (including `Lost` remnants — use
    /// [`Machine::install_line`] during recovery).
    pub fn create_line_at(
        &mut self,
        node: NodeId,
        line: LineId,
        data: &[u8],
    ) -> Result<(), MemError> {
        self.check_node(node)?;
        self.check_owned(line)?;
        if self.slot_of(line).is_some() {
            return Err(MemError::AlreadyExists { line });
        }
        let slot = self.alloc_slot(line, node);
        self.write_line_padded(slot, data);
        self.stats.lines_created += 1;
        self.charge(node, self.cfg.cost.local_hit);
        Ok(())
    }

    /// Dynamically allocate a fresh line (addresses above
    /// [`LineId::DYNAMIC_BASE`]), initially exclusive in `node`'s cache.
    /// Refused inside an execution lane: the dynamic-address allocator is
    /// owned by the parent machine, so the caller must escalate to a
    /// serial (between-epochs) retry.
    pub fn alloc_line(&mut self, node: NodeId, data: &[u8]) -> Result<LineId, MemError> {
        if self.lane {
            return Err(MemError::ForeignStripe { line: LineId(self.next_dynamic) });
        }
        let line = LineId(self.next_dynamic);
        self.next_dynamic += 1;
        self.create_line_at(node, line, data)?;
        Ok(line)
    }

    // ------------------------------------------------------------------
    // Span operations, and the access check read/write/getline share
    // ------------------------------------------------------------------
    //
    // A page is a run of consecutive line addresses, and
    // the layers above touch pages far more often than single lines. Each
    // `*_span` operation is *defined* as the sequence of its single-line
    // calls in address order, stopping at the first error: identical
    // per-line state transitions, statistics, clock charges, fault-site
    // hits and bus events, in identical order. Only work whose
    // answer cannot change inside the span is hoisted out of the per-line
    // step: the acting node's liveness check, the pending-redo lookup, and
    // the directory walk (`next_slot`). The single-line operations are the
    // span of length one.

    /// The lowest line of `first .. first + count` carrying pending redo,
    /// if any: the one pending-redo lookup of a span (only the first such
    /// line can matter, the span stops there).
    #[inline]
    fn first_unrecovered(&self, first: LineId, count: usize) -> Option<LineId> {
        if self.unrecovered.is_empty() {
            return None;
        }
        self.unrecovered.range(first..LineId(first.0 + count as u64)).next().copied()
    }

    /// The per-line access check of a span whose acting node was already
    /// verified: resolve `line` (successor of `prev`) and refuse it unless
    /// it is resident, not lost, not line-locked by another node and not
    /// awaiting redo — in that order.
    #[inline]
    fn access_line(
        &mut self,
        node: NodeId,
        line: LineId,
        prev: Option<Loc>,
        unrecovered: Option<LineId>,
    ) -> Result<Loc, MemError> {
        let Some(slot) = self.next_slot(prev, line) else {
            // Unowned sentinel shards are empty, so a foreign line always
            // lands here; a resident line is necessarily owned.
            self.check_owned(line)?;
            return Err(MemError::NotResident { line });
        };
        if self.lost_at(slot) {
            self.stats.lost_line_accesses += 1;
            return if self.cfg.stall_on_lost {
                Err(MemError::Stalled { line, holder: None })
            } else {
                Err(MemError::LineLost { line })
            };
        }
        if let Some(holder) = self.marks(slot).locked_by() {
            if holder != node {
                self.stats.line_lock_conflicts += 1;
                return Err(MemError::Stalled { line, holder: Some(holder) });
            }
        }
        if unrecovered == Some(line) {
            return Err(MemError::Unrecovered { line });
        }
        Ok(slot)
    }

    fn check_access(&mut self, node: NodeId, line: LineId) -> Result<Loc, MemError> {
        self.check_node(node)?;
        let unrecovered = self.first_unrecovered(line, 1);
        self.access_line(node, line, None, unrecovered)
    }

    /// How many lines a transfer of `len` bytes starting `offset` bytes
    /// into a line covers: the first line takes what fits after `offset`
    /// (an empty transfer still touches it), full lines follow.
    #[inline]
    fn lines_covered(&self, offset: usize, len: usize) -> usize {
        debug_assert!(offset <= self.cfg.line_size, "span offset beyond its first line");
        (offset + len).div_ceil(self.cfg.line_size).max(1)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The coherence transition + accounting for a read, after the access
    /// check succeeded.
    #[inline]
    fn do_read(&mut self, node: NodeId, line: LineId, slot: Loc) {
        self.stats.reads += 1;
        if self.col(slot).contains(slot.slot, node) {
            self.stats.local_hits += 1;
            self.charge(node, self.cfg.cost.local_hit);
            self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::ReadHit {
                node: node.0,
                line: line.0,
            });
        } else {
            // Replicate into `node`'s cache; an exclusive owner is
            // downgraded to shared (the `H_wr` pattern). All copies are
            // identical, so replication is pure membership.
            let downgraded = self.col(slot).count(slot.slot) == 1;
            if downgraded {
                self.stats.replications += 1;
                self.stats.downgrades += 1;
            }
            self.col_mut(slot).insert(slot.slot, node);
            self.stats.remote_transfers += 1;
            self.charge(node, self.cfg.cost.remote_transfer);
            self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::ReadRemote {
                node: node.0,
                line: line.0,
                downgraded,
            });
        }
    }

    /// Coherent read of `count` consecutive lines: per line, the access
    /// check, the read transition, then `sink(i, line bytes)`.
    #[inline]
    fn read_lines(
        &mut self,
        node: NodeId,
        first: LineId,
        count: usize,
        mut sink: impl FnMut(usize, &[u8]),
    ) -> Result<(), MemError> {
        self.check_node(node)?;
        let unrecovered = self.first_unrecovered(first, count);
        let mut prev = None;
        for i in 0..count {
            let line = LineId(first.0 + i as u64);
            let slot = self.access_line(node, line, prev, unrecovered)?;
            self.do_read(node, line, slot);
            sink(i, self.line_data(slot));
            prev = Some(slot);
        }
        Ok(())
    }

    /// Coherent read of `buf.len()` bytes starting `offset` bytes into
    /// `first` and running on through the following line addresses, on
    /// behalf of `node`: exactly the [`Machine::read_into`] calls on each
    /// covered line in address order, stopping at the first error (the
    /// bytes of the lines read before it are already in `buf`).
    pub fn read_span(
        &mut self,
        node: NodeId,
        first: LineId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), MemError> {
        let ls = self.cfg.line_size;
        let count = self.lines_covered(offset, buf.len());
        self.read_lines(node, first, count, |i, data| {
            let part = span_bytes(ls, offset, buf.len(), i..i + 1);
            let within = if i == 0 { offset } else { 0 };
            buf[part.clone()].copy_from_slice(&data[within..within + part.len()]);
        })
    }

    /// Read `buf.len()` bytes at `offset` within `line` into `buf`, on
    /// behalf of `node`. May replicate the line into `node`'s cache
    /// (downgrading a remote exclusive copy — the `H_wr` pattern). The
    /// [`Machine::read_span`] of one line.
    pub fn read_into(
        &mut self,
        node: NodeId,
        line: LineId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), MemError> {
        if offset + buf.len() > self.cfg.line_size {
            self.check_access(node, line)?;
            return Err(MemError::OutOfBounds { line, offset, len: buf.len() });
        }
        self.read_span(node, line, offset, buf)
    }

    /// Coherent full-line read without copying: performs the same
    /// transitions and accounting as [`Machine::read_into`], then hands the
    /// line's bytes to `f`. This is the allocation-free replacement for the
    /// old `read_line` (which returned a fresh `Vec<u8>` per access).
    pub fn read_line_with<R>(
        &mut self,
        node: NodeId,
        line: LineId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemError> {
        let mut f = Some(f);
        let mut out = None;
        self.read_lines(node, line, 1, |_, data| out = f.take().map(|f| f(data)))?;
        Ok(out.expect("a successful one-line read ran the sink"))
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// The coherence transition + accounting for a write, after the access
    /// check succeeded (the caller stores the bytes afterwards).
    fn do_write(&mut self, node: NodeId, line: LineId, slot: Loc) -> Result<(), MemError> {
        self.stats.writes += 1;
        let (holder_count, locally_held) =
            (self.col(slot).count(slot.slot), self.col(slot).contains(slot.slot, node));
        // Crash point: the transition is about to move or destroy copies.
        // Fires *before* any directory or data mutation, so the victim
        // dies exactly as the hardware request would have been issued.
        if !(locally_held && holder_count == 1) {
            let site = if locally_held { FAULT_INVALIDATE } else { FAULT_MIGRATE };
            if let Some(c) = self.fault.hit(site, node.0) {
                return Err(MemError::FaultCrash(c));
            }
        }
        match self.cfg.coherence {
            CoherenceKind::WriteInvalidate => {
                if locally_held && holder_count == 1 {
                    self.stats.local_hits += 1;
                    self.charge(node, self.cfg.cost.local_hit);
                    self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::WriteLocal {
                        node: node.0,
                        line: line.0,
                    });
                } else {
                    // Obtain the data if we don't hold it, then invalidate
                    // every other copy.
                    let migration = !locally_held;
                    let invalidated = (holder_count - locally_held as usize) as u16;
                    if !locally_held {
                        self.stats.remote_transfers += 1;
                        self.stats.migrations += 1;
                        self.charge(node, self.cfg.cost.remote_transfer);
                    } else {
                        self.charge(node, self.cfg.cost.local_hit);
                    }
                    self.stats.invalidations += invalidated as u64;
                    self.charge(node, self.cfg.cost.invalidate * invalidated as u64);
                    self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::WriteTake {
                        node: node.0,
                        line: line.0,
                        invalidated,
                        migration,
                    });
                }
                self.col_mut(slot).set_single(slot.slot, node);
            }
            CoherenceKind::WriteBroadcast => {
                if !locally_held {
                    self.stats.remote_transfers += 1;
                    self.charge(node, self.cfg.cost.remote_transfer);
                } else {
                    self.stats.local_hits += 1;
                    self.charge(node, self.cfg.cost.local_hit);
                }
                // Every other valid copy is updated in place (membership is
                // unchanged; the single stored image serves all holders).
                let updated = (holder_count - locally_held as usize) as u16;
                self.stats.broadcast_updates += updated as u64;
                self.charge(node, self.cfg.cost.broadcast_update * updated as u64);
                self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::WriteBroadcast {
                    node: node.0,
                    line: line.0,
                    updated,
                });
                self.col_mut(slot).insert(slot.slot, node);
            }
        }
        Ok(())
    }

    /// Coherent write of `data` starting `offset` bytes into `first` and
    /// running on through the following line addresses, on behalf of
    /// `node`: exactly the [`Machine::write`] calls on each covered line
    /// in address order, stopping at the first error (the lines before it
    /// stay written).
    pub fn write_span(
        &mut self,
        node: NodeId,
        first: LineId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), MemError> {
        self.check_node(node)?;
        let ls = self.cfg.line_size;
        let count = self.lines_covered(offset, data.len());
        let unrecovered = self.first_unrecovered(first, count);
        let mut prev = None;
        for i in 0..count {
            let line = LineId(first.0 + i as u64);
            let slot = self.access_line(node, line, prev, unrecovered)?;
            self.do_write(node, line, slot)?;
            let part = span_bytes(ls, offset, data.len(), i..i + 1);
            let at = slot.slot as usize * ls + if i == 0 { offset } else { 0 };
            self.shards[slot.sh as usize].data[at..at + part.len()].copy_from_slice(&data[part]);
            prev = Some(slot);
        }
        Ok(())
    }

    /// Write `data` at `offset` within `line`, on behalf of `node`. The
    /// [`Machine::write_span`] of one line.
    ///
    /// Under [`CoherenceKind::WriteInvalidate`] all other cached copies are
    /// invalidated first and the line becomes exclusive in `node`'s cache —
    /// if another node held it, this is a **migration** (`H_ww1`). Under
    /// [`CoherenceKind::WriteBroadcast`] every cached copy is updated in
    /// place and all holders remain valid (§7).
    pub fn write(
        &mut self,
        node: NodeId,
        line: LineId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), MemError> {
        if offset + data.len() > self.cfg.line_size {
            self.check_access(node, line)?;
            return Err(MemError::OutOfBounds { line, offset, len: data.len() });
        }
        self.write_span(node, line, offset, data)
    }

    // ------------------------------------------------------------------
    // Line locks (§5.1)
    // ------------------------------------------------------------------

    /// Acquire a line lock: obtain and hold `line` in mutually-exclusive
    /// state in `node`'s cache. While held, no other node can read, write,
    /// or lock the line (their accesses return [`MemError::Stalled`]).
    /// Re-acquisition by the current holder is a no-op.
    pub fn getline(&mut self, node: NodeId, line: LineId) -> Result<(), MemError> {
        let slot = self.check_access(node, line)?;
        if self.marks(slot).locked_by() == Some(node) {
            return Ok(());
        }
        let (holder_count, locally_held) =
            (self.col(slot).count(slot.slot), self.col(slot).contains(slot.slot, node));
        // Crash point: acquiring the line lock migrates/invalidates copies.
        if !(locally_held && holder_count == 1) {
            let site = if locally_held { FAULT_INVALIDATE } else { FAULT_MIGRATE };
            if let Some(c) = self.fault.hit(site, node.0) {
                return Err(MemError::FaultCrash(c));
            }
        }
        if self.cfg.coherence == CoherenceKind::WriteBroadcast {
            // A broadcast machine's lock primitive does not invalidate
            // remote copies (writes update them in place); it only pins
            // mutual exclusion and ensures a local copy.
            if !locally_held {
                self.col_mut(slot).insert(slot.slot, node);
                self.stats.remote_transfers += 1;
                self.charge(node, self.cfg.cost.remote_transfer);
            }
            self.marks_mut(slot).locked_by = node.0;
            self.stats.line_lock_acquires += 1;
            self.charge(node, self.cfg.cost.line_lock_acquire);
            return Ok(());
        }
        // Bring the line exclusive (same transitions as a write, but the
        // data is not modified).
        if !(holder_count == 1 && locally_held) {
            if !locally_held {
                self.stats.remote_transfers += 1;
                if holder_count == 1 {
                    self.stats.migrations += 1;
                }
                self.charge(node, self.cfg.cost.remote_transfer);
            }
            let invalidated = (holder_count - locally_held as usize) as u64;
            self.stats.invalidations += invalidated;
            self.charge(node, self.cfg.cost.invalidate * invalidated);
        }
        self.col_mut(slot).set_single(slot.slot, node);
        self.marks_mut(slot).locked_by = node.0;
        self.stats.line_lock_acquires += 1;
        self.charge(node, self.cfg.cost.line_lock_acquire);
        self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::LineLock {
            node: node.0,
            line: line.0,
        });
        Ok(())
    }

    /// Release a line lock held by `node`.
    pub fn releaseline(&mut self, node: NodeId, line: LineId) -> Result<(), MemError> {
        self.check_node(node)?;
        self.check_owned(line)?;
        let slot = self.slot_of(line).ok_or(MemError::NotResident { line })?;
        let marks = self.marks_mut(slot);
        if marks.locked_by() != Some(node) {
            return Err(MemError::NotLockHolder { line, node });
        }
        marks.locked_by = NO_NODE;
        self.charge(node, self.cfg.cost.line_lock_release);
        self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::LineUnlock {
            node: node.0,
            line: line.0,
        });
        Ok(())
    }

    /// The current line-lock holder, if any.
    pub fn line_lock_holder(&self, line: LineId) -> Option<NodeId> {
        self.slot_of(line).and_then(|s| self.marks(s).locked_by())
    }

    // ------------------------------------------------------------------
    // Active bit & Stable-LBM triggers (§5.2)
    // ------------------------------------------------------------------

    /// Mark a line *active*: it carries an uncommitted update by `owner`
    /// whose log records have not yet been forced to stable store. This is
    /// the one-bit-per-line coherence extension proposed in §5.2.
    pub fn set_active(&mut self, line: LineId, owner: NodeId) {
        debug_assert!(self.check_owned(line).is_ok(), "set_active on a foreign stripe");
        if let Some(s) = self.slot_of(line) {
            self.marks_mut(s).active_owner = owner.0;
        }
    }

    /// Clear the active bit (called after the owner forces its log). The
    /// [`Machine::clear_active_span`] of one line.
    pub fn clear_active(&mut self, line: LineId) {
        self.clear_active_span(line, 1);
    }

    /// Clear the active bit on `count` consecutive lines starting at
    /// `first` (a flushed page: every update on it is now durable or
    /// covered by forced undo records).
    pub fn clear_active_span(&mut self, first: LineId, count: usize) {
        let mut prev = None;
        for i in 0..count {
            let line = LineId(first.0 + i as u64);
            debug_assert!(self.check_owned(line).is_ok(), "clear_active on a foreign stripe");
            prev = self.next_slot(prev, line);
            if let Some(s) = prev {
                self.marks_mut(s).active_owner = NO_NODE;
            }
        }
    }

    /// The node whose unforced update marks this line active, if any.
    pub fn active_owner(&self, line: LineId) -> Option<NodeId> {
        self.slot_of(line).and_then(|s| self.marks(s).active_owner())
    }

    /// Report the coherence transition that an access by `node` to `line`
    /// would inflict on an *active* line owned by another node, without
    /// performing the access. A Stable-LBM engine consults this before
    /// every access and forces the owner's log when an event is pending —
    /// realising the trigger-based enforcement of §5.2. The
    /// [`Machine::next_trigger`] of one line.
    pub fn pending_triggers(
        &self,
        node: NodeId,
        line: LineId,
        is_write: bool,
    ) -> Option<TriggerEvent> {
        self.next_trigger(node, line, 1, is_write)
    }

    /// The first pending trigger (in address order) among `count`
    /// consecutive lines starting at `first`: what
    /// [`Machine::pending_triggers`] would report for the lowest line that
    /// has one. A line's trigger depends on that line's directory entry
    /// alone, so a caller can run a span operation over the trigger-free
    /// lines below the reported one before enforcing it.
    pub fn next_trigger(
        &self,
        node: NodeId,
        first: LineId,
        count: usize,
        is_write: bool,
    ) -> Option<TriggerEvent> {
        let mut prev = None;
        for i in 0..count {
            let line = LineId(first.0 + i as u64);
            prev = self.next_slot(prev, line);
            if let Some(ev) = prev.and_then(|s| self.trigger_on(s, node, line, is_write)) {
                return Some(ev);
            }
        }
        None
    }

    /// The trigger an access by `node` would fire on one directory entry.
    #[inline]
    fn trigger_on(
        &self,
        slot: Loc,
        node: NodeId,
        line: LineId,
        is_write: bool,
    ) -> Option<TriggerEvent> {
        let owner = self.marks(slot).active_owner()?;
        if owner == node {
            return None;
        }
        // Does `owner` still hold a valid copy that this access endangers?
        // (A lost line has no holder.)
        if !self.col(slot).contains(slot.slot, owner) {
            return None;
        }
        let exclusive = self.col(slot).count(slot.slot) == 1;
        match self.cfg.coherence {
            CoherenceKind::WriteInvalidate => {
                if is_write {
                    Some(TriggerEvent { line, owner, kind: TransferKind::Invalidate })
                } else if exclusive {
                    Some(TriggerEvent { line, owner, kind: TransferKind::Downgrade })
                } else {
                    None
                }
            }
            // Under write-broadcast no copy is destroyed, but the owner's
            // uncommitted update becomes visible on (and dependent on) the
            // accessing node — undo information must be stable first.
            CoherenceKind::WriteBroadcast => {
                if exclusive {
                    Some(TriggerEvent { line, owner, kind: TransferKind::Downgrade })
                } else {
                    None
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Crashes and low-level recovery (§2, FLASH-style)
    // ------------------------------------------------------------------

    /// Crash one or more nodes.
    ///
    /// The contents of the failed nodes' caches/memories are destroyed.
    /// The low-level recovery step (modelled after FLASH: all CPUs stop,
    /// the interconnect restores the cache directories to a state that
    /// reflects the surviving caches) runs as part of this call: directory
    /// entries are purged of failed holders, lines with no surviving copy
    /// are marked [`lost`](Machine::is_lost), and line locks held by failed
    /// nodes are broken.
    ///
    /// The restore is one AND-NOT of the failed nodes' mask over each
    /// shard's holder column and one pass over its marks column; a slot's
    /// `Slot` entry is read only for a line the crash loses or whose line
    /// lock it breaks.
    pub fn crash(&mut self, nodes: &[NodeId]) -> CrashReport {
        let mut report = CrashReport::default();
        for &n in nodes {
            let st = &mut self.nodes[n.0 as usize];
            if st.crashed {
                continue;
            }
            st.crashed = true;
            report.crashed.push(n);
        }
        if report.crashed.is_empty() {
            return report;
        }
        self.prune_lost();
        let mut mask = vec![0u64; (self.cfg.nodes as usize).div_ceil(64)];
        for n in &report.crashed {
            mask[n.0 as usize / 64] |= 1 << (n.0 % 64);
        }
        let failed = |raw: u16| raw != NO_NODE && mask[raw as usize / 64] >> (raw % 64) & 1 != 0;
        let mut lost = Vec::new();
        for (sh, shard) in self.shards.iter_mut().enumerate() {
            let slots = &shard.slots;
            shard.holders.purge(&mask, |slot| {
                lost.push((slots[slot as usize].line, Loc { sh: sh as u32, slot }));
            });
            for (slot, marks) in shard.marks.iter_mut().enumerate() {
                if failed(marks.locked_by) {
                    marks.locked_by = NO_NODE;
                    report.broken_line_locks.push(slots[slot].line);
                }
                if failed(marks.active_owner) {
                    // The owner's volatile log died with it; the active
                    // bit is meaningless now.
                    marks.active_owner = NO_NODE;
                }
            }
        }
        self.stats.lines_lost += lost.len() as u64;
        // Slot order is allocation order; reports are sorted by line id
        // (the order the old BTreeMap directory yielded them in).
        lost.sort_unstable_by_key(|&(line, _)| line);
        report.lost_lines = lost.iter().map(|&(line, _)| line).collect();
        report.broken_line_locks.sort();
        // The entries kept are still lost and the new ones were not: the
        // two lists are disjoint.
        if self.lost.is_empty() {
            self.lost = lost;
        } else {
            self.lost.extend(lost);
            self.lost.sort_unstable_by_key(|&(line, _)| line);
        }
        self.obs.bus.emit(self.max_clock(), || ObsEvent::CrashInjected {
            nodes: report.crashed.len() as u16,
            lost_lines: report.lost_lines.len() as u64,
        });
        report
    }

    /// Bring a previously crashed node back online with an empty cache.
    /// Its clock resumes from the machine-wide maximum (reboot takes time).
    /// Rebooting a node that has *not* crashed is a power-cycle: its cache
    /// contents are destroyed exactly as by a crash first.
    pub fn reboot_node(&mut self, node: NodeId) {
        if !self.nodes[node.0 as usize].crashed {
            let _ = self.crash(&[node]);
        }
        let max = self.max_clock();
        let st = &mut self.nodes[node.0 as usize];
        st.crashed = false;
        st.clock = st.clock.max(max);
    }

    // ------------------------------------------------------------------
    // Recovery-side primitives
    // ------------------------------------------------------------------

    /// Whether the line's data was destroyed by a crash and has not been
    /// reinstalled.
    pub fn is_lost(&self, line: LineId) -> bool {
        self.slot_of(line).is_some_and(|s| self.lost_at(s))
    }

    /// Whether any surviving cache holds a valid copy. This is the §4.1.2
    /// Selective-Redo probe: *"temporarily disabling the cache miss
    /// requests which incur I/O — if a memory reference cannot be satisfied
    /// with a cache line in a surviving node, an invalid flag is
    /// returned."*
    pub fn probe_cached(&self, line: LineId) -> bool {
        self.slot_of(line).is_some_and(|s| !self.lost_at(s))
    }

    /// How many of `count` consecutive lines starting at `first` are lost
    /// ([`Machine::is_lost`]) and how many are cached on a surviving node
    /// ([`Machine::probe_cached`]) — the page-granular form of the two
    /// probes, one directory walk for both. The rest are not resident.
    pub fn span_residency(&self, first: LineId, count: usize) -> SpanResidency {
        let mut r = SpanResidency::default();
        let mut prev = None;
        for i in 0..count {
            prev = self.next_slot(prev, LineId(first.0 + i as u64));
            match prev {
                Some(s) if self.lost_at(s) => r.lost += 1,
                Some(_) => r.cached += 1,
                None => {}
            }
        }
        r
    }

    /// Mark `line` as carrying pending redo from an instant restart: every
    /// coherent access (read, write, line lock) fails with
    /// [`MemError::Unrecovered`] until [`Machine::clear_unrecovered`], so
    /// the coherence protocol cannot migrate or replicate the stale bytes.
    /// `peek`/`peek_local`/`iter_held` (inspection) and `install_line`
    /// (authoritative reinstall) are exempt.
    pub fn mark_unrecovered(&mut self, line: LineId) {
        self.unrecovered.insert(line);
    }

    /// Clear the pending-redo mark on `line` (the owner applied its redo).
    pub fn clear_unrecovered(&mut self, line: LineId) {
        self.unrecovered.remove(&line);
    }

    /// Drop every pending-redo mark (a re-entered recovery re-derives its
    /// own plan from the retained logs).
    pub fn clear_all_unrecovered(&mut self) {
        self.unrecovered.clear();
    }

    /// Whether `line` is currently marked as carrying pending redo.
    pub fn is_unrecovered(&self, line: LineId) -> bool {
        self.unrecovered.contains(&line)
    }

    /// Discard `node`'s cached copy of `line` (no writeback — the caller is
    /// responsible for durability). If this removes the last copy the
    /// directory entry disappears entirely (the line becomes
    /// [`MemError::NotResident`]). Used by Redo-All's step 1 and by the
    /// buffer manager after flushing a page.
    pub fn discard(&mut self, node: NodeId, line: LineId) -> Result<(), MemError> {
        self.check_node(node)?;
        self.check_owned(line)?;
        let slot = match self.slot_of(line) {
            None => return Ok(()), // already gone
            Some(s) => s,
        };
        let col = self.col_mut(slot);
        if col.contains(slot.slot, node) {
            if col.count(slot.slot) == 1 {
                // The last copy goes: the directory entry with it.
                self.free_slot(slot);
            } else {
                col.remove(slot.slot, node);
            }
        }
        self.stats.evictions += 1;
        self.charge(node, self.cfg.cost.local_hit);
        Ok(())
    }

    /// Discard every cached copy of `count` consecutive lines starting at
    /// `first` (no writeback): per line, exactly the [`Machine::discard`]
    /// calls on each holder in ascending node order, so the directory
    /// entries disappear. `Lost` entries have no copies and stay.
    pub fn discard_span(&mut self, first: LineId, count: usize) {
        let local_hit = self.cfg.cost.local_hit;
        let mut prev = None;
        for i in 0..count {
            prev = self.next_slot(prev, LineId(first.0 + i as u64));
            let Some(slot) = prev else { continue };
            if self.lost_at(slot) {
                continue;
            }
            let shard = &self.shards[slot.sh as usize];
            for holder in shard.holders.iter(slot.slot) {
                self.stats.evictions += 1;
                self.nodes[holder.0 as usize].clock += local_hit;
            }
            // Freeing keeps the slot's position, so it still anchors the
            // walk to the next line.
            self.free_slot(slot);
        }
    }

    /// Discard every line in `node`'s cache matching `pred`; returns how
    /// many were discarded. Redo-All step 1 uses this to flush all cached
    /// database objects from surviving nodes. Single allocation-free pass
    /// over the slot array.
    pub fn discard_matching(&mut self, node: NodeId, pred: impl Fn(LineId) -> bool) -> u64 {
        let mut count = 0u64;
        for sh in 0..self.shards.len() {
            for i in 0..self.shards[sh].slots.len() {
                let (live, line, holds) = {
                    let shard = &self.shards[sh];
                    let sl = &shard.slots[i];
                    (sl.live, sl.line, shard.holders.contains(i as u32, node))
                };
                if live && holds && pred(line) {
                    let _ = self.discard(node, line);
                    count += 1;
                }
            }
        }
        count
    }

    /// (Re)install a line's contents as exclusive in `node`'s cache,
    /// overwriting any previous directory state including `Lost`. Used by
    /// restart recovery (reconstructing lines from logs) and by the buffer
    /// manager (fetching pages from the stable database). Clears any
    /// active bit and line lock. `data` is zero-padded to the line size.
    /// The [`Machine::install_span`] of one line.
    pub fn install_line(
        &mut self,
        node: NodeId,
        line: LineId,
        data: &[u8],
    ) -> Result<(), MemError> {
        assert!(data.len() <= self.cfg.line_size, "initialiser longer than a cache line");
        self.install_span(node, line, data)
    }

    /// (Re)install consecutive lines starting at `first` from `image`,
    /// one line per `line_size` bytes (the last one zero-padded; an empty
    /// image installs one zero line), exclusive in `node`'s cache: exactly
    /// the [`Machine::install_line`] calls in address order, stopping at
    /// the first error.
    pub fn install_span(
        &mut self,
        node: NodeId,
        first: LineId,
        image: &[u8],
    ) -> Result<(), MemError> {
        self.check_node(node)?;
        let ls = self.cfg.line_size;
        let mut prev = None;
        for i in 0..self.lines_covered(0, image.len()) {
            let line = LineId(first.0 + i as u64);
            let slot = match self.next_slot(prev, line) {
                Some(s) => {
                    // Install is authoritative: any surviving copies elsewhere
                    // are dropped along with locks and active bits.
                    self.lost_pruned |= self.lost_at(s);
                    *self.marks_mut(s) = Marks::NONE;
                    self.col_mut(s).set_single(s.slot, node);
                    s
                }
                None => {
                    self.check_owned(line)?;
                    self.alloc_slot(line, node)
                }
            };
            self.write_line_padded(slot, &image[span_bytes(ls, 0, image.len(), i..i + 1)]);
            self.charge(node, self.cfg.cost.local_hit);
            self.obs.bus.emit(self.nodes[node.0 as usize].clock, || ObsEvent::Install {
                node: node.0,
                line: line.0,
            });
            prev = Some(slot);
        }
        Ok(())
    }

    /// Forget a `Lost` directory entry (the line will read as
    /// `NotResident`). Recovery calls this once it has ensured the line's
    /// durable state is authoritative and no reinstall is needed.
    pub fn clear_lost(&mut self, line: LineId) {
        debug_assert!(self.check_owned(line).is_ok(), "clear_lost on a foreign stripe");
        if let Some(s) = self.slot_of(line) {
            if self.lost_at(s) {
                self.free_slot(s);
            }
        }
    }

    // ------------------------------------------------------------------
    // Inspection (zero-cost; for recovery scans, oracles, and tests)
    // ------------------------------------------------------------------

    /// Zero-cost, side-effect-free view of a line's current contents from
    /// any surviving holder. `None` if lost or not resident. For use by
    /// recovery bookkeeping, invariant oracles, and tests — *not* part of
    /// the coherent access path.
    pub fn peek(&self, line: LineId) -> Option<&[u8]> {
        let slot = self.slot_of(line)?;
        if self.lost_at(slot) {
            return None;
        }
        Some(self.line_data(slot))
    }

    /// Zero-cost view of `node`'s own cached copy, if valid.
    pub fn peek_local(&self, node: NodeId, line: LineId) -> Option<&[u8]> {
        let slot = self.slot_of(line)?;
        if !self.col(slot).contains(slot.slot, node) {
            return None;
        }
        Some(self.line_data(slot))
    }

    /// Iterate once over every line valid in *some* cache, with its
    /// lowest-numbered holder. This is the sequential cache scan Selective
    /// Redo performs to find records tagged by crashed nodes (§4.1.2).
    /// Iteration is shard-major, in slot (allocation) order within each
    /// shard: a canonical order independent of how many OS threads drove
    /// the machine. Holders are always live nodes (a crash scrubs the
    /// crashed nodes from every holder set), so this visits exactly the
    /// lines a per-survivor scan would visit, each at the survivor that
    /// would have reached it first.
    pub fn iter_held(&self) -> impl Iterator<Item = (NodeId, LineId, &[u8])> {
        let ls = self.cfg.line_size;
        self.shards.iter().flat_map(move |shard| {
            shard.slots.iter().enumerate().filter_map(move |(i, sl)| {
                if !sl.live {
                    return None;
                }
                let holder = shard.holders.first(i as u32)?;
                Some((holder, sl.line, &shard.data[i * ls..(i + 1) * ls]))
            })
        })
    }

    /// [`Machine::iter_held`]'s view of the ascending `lines`: for each one
    /// a survivor holds, its lowest holder, its position in that walk's
    /// order (shard-major, then slot) and its bytes. What a scan over a
    /// chosen set of lines sorts by to visit them in the whole walk's
    /// order. A page's lines sit in consecutive slots of one shard when it
    /// was installed whole, so each line is first looked for as far past
    /// the previous line's slot as it lies past that line; the index is
    /// probed only on a miss.
    pub fn held_lines<'a>(
        &'a self,
        lines: &'a [LineId],
    ) -> impl Iterator<Item = (NodeId, u64, LineId, &'a [u8])> + 'a {
        let mut prev: Option<(LineId, Loc)> = None;
        lines.iter().filter_map(move |&line| {
            let near = prev.and_then(|(before, p)| {
                let d = line.0.checked_sub(before.0).filter(|&d| d <= self.cfg.stripe_lines)?;
                let slot = p.slot.checked_add(d as u32)?;
                let sl = self.shards[p.sh as usize].slots.get(slot as usize)?;
                (sl.live && sl.line == line).then_some(Loc { sh: p.sh, slot })
            });
            let at = near.or_else(|| self.slot_of(line))?;
            prev = Some((line, at));
            let holder = self.col(at).first(at.slot)?;
            Some((holder, (at.sh as u64) << 32 | at.slot as u64, line, self.line_data(at)))
        })
    }

    /// Drop the entries of the lost list whose line an install or a
    /// `clear_lost` has taken back (usually all of them, once a restart
    /// is over).
    fn prune_lost(&mut self) {
        if self.lost_pruned {
            self.lost.retain(|&(line, at)| still_lost(&self.shards, line, at));
            self.lost_pruned = false;
        }
    }

    /// Every line a crash destroyed that has not been reinstalled or
    /// forgotten since ([`Machine::is_lost`]), in ascending address order
    /// — the twin of [`Machine::iter_held`] for the other half of the
    /// directory. Served from the list the crashes collected (no walk of
    /// the slots), so restart finds what to reinstall in time proportional
    /// to what the crash destroyed.
    pub fn iter_lost(&self) -> impl Iterator<Item = LineId> + '_ {
        let check = self.lost_pruned;
        self.lost
            .iter()
            .filter(move |&&(line, at)| !check || still_lost(&self.shards, line, at))
            .map(|&(line, _)| line)
    }

    /// The nodes currently holding valid copies of `line`, ascending
    /// (empty if the line is lost or not resident).
    pub fn holders(&self, line: LineId) -> Vec<NodeId> {
        match self.slot_of(line) {
            Some(s) => self.col(s).iter(s.slot).collect(),
            None => Vec::new(),
        }
    }

    /// Number of nodes holding a valid copy of `line`.
    pub fn holder_count(&self, line: LineId) -> usize {
        self.slot_of(line).map_or(0, |s| self.col(s).count(s.slot))
    }

    /// The exclusive owner of `line`, if it is held exclusively.
    pub fn exclusive_owner(&self, line: LineId) -> Option<NodeId> {
        let slot = self.slot_of(line)?;
        let col = self.col(slot);
        if col.count(slot.slot) == 1 {
            col.first(slot.slot)
        } else {
            None
        }
    }

    /// Whether `line` exists in the directory (in any state, including
    /// `Lost`).
    pub fn line_exists(&self, line: LineId) -> bool {
        self.slot_of(line).is_some()
    }

    /// Check every structural invariant of the flat line store, panicking
    /// with a description on violation — the crashes' lost list
    /// ([`Machine::iter_lost`]) against a walk of every slot included.
    /// O(slots × nodes); meant for tests and property checks, not the hot
    /// path.
    pub fn validate_flat(&self) {
        let nodes = self.cfg.nodes as usize;
        let mut walked = Vec::new();
        for (shn, shard) in self.shards.iter().enumerate() {
            let mut live = 0usize;
            for (i, sl) in shard.slots.iter().enumerate() {
                let slot = i as u32;
                let mask = shard.holders.mask(slot);
                let marks = shard.marks[i];
                for (w, word) in mask.iter().enumerate() {
                    let beyond = if (w + 1) * 64 <= nodes { 0 } else { !0u64 << (nodes - w * 64) };
                    assert_eq!(
                        word & beyond,
                        0,
                        "slot {i} (shard {shn}) has a holder bit at or above node {nodes}"
                    );
                }
                if !sl.live {
                    assert!(
                        shard.free.contains(&slot),
                        "dead slot {i} (shard {shn}) missing from the free list"
                    );
                    // So a live slot with an empty mask is exactly a lost one.
                    assert!(
                        mask.iter().all(|&w| w == 0) && marks == Marks::NONE,
                        "free slot {i} (shard {shn}) keeps holders or marks"
                    );
                    continue;
                }
                live += 1;
                assert_eq!(
                    self.stripe_of(sl.line) as usize,
                    shn,
                    "line {:?} stored in shard {shn} but stripes to {}",
                    sl.line,
                    self.stripe_of(sl.line) as usize
                );
                assert_eq!(
                    shard.index.get(sl.line.0),
                    Some(slot),
                    "live slot {i} (line {:?}) not indexed back to itself",
                    sl.line
                );
                let h: Vec<NodeId> = shard.holders.iter(slot).collect();
                if h.is_empty() {
                    walked.push(sl.line);
                    assert!(marks.locked_by().is_none(), "lost line {:?} still locked", sl.line);
                }
                for n in &h {
                    assert!(
                        !self.nodes[n.0 as usize].crashed,
                        "crashed node {n:?} still holds {:?}",
                        sl.line
                    );
                }
                if let Some(l) = marks.locked_by() {
                    assert!(h.contains(&l), "lock holder {l:?} of {:?} holds no copy", sl.line);
                }
            }
            assert_eq!(
                shard.index.len(),
                live,
                "shard {shn} index size disagrees with live slot count"
            );
            assert_eq!(
                shard.slots.len(),
                live + shard.free.len(),
                "shard {shn} slot accounting: live + free ≠ total"
            );
            assert_eq!(
                (shard.holders.mask_count(), shard.marks.len()),
                (shard.slots.len(), shard.slots.len()),
                "shard {shn} columns disagree with the slot count"
            );
            assert_eq!(
                shard.data.len(),
                shard.slots.len() * self.cfg.line_size,
                "shard {shn} arena size disagrees with slot count"
            );
        }
        walked.sort_unstable();
        assert_eq!(
            self.iter_lost().collect::<Vec<_>>(),
            walked,
            "the crashes' lost list disagrees with a walk of the slots"
        );
    }

    // ------------------------------------------------------------------
    // Execution lanes (parallel epochs)
    // ------------------------------------------------------------------

    /// Detach the given stripes into a *lane machine*: a fully functional
    /// [`Machine`] that owns exactly `stripes` (every other shard position
    /// holds an empty unowned sentinel) and can therefore be moved to
    /// another OS thread and driven concurrently with sibling lanes that
    /// own disjoint stripe sets. The lane shares this machine's
    /// observability and fault handles, starts with zeroed coherence
    /// stats, cloned node clocks, and tracing disabled; any access
    /// outside its stripes fails with [`MemError::ForeignStripe`], and
    /// dynamic line allocation is refused. Reattach with
    /// [`Machine::lane_merge`].
    ///
    /// Panics if a stripe is out of range, listed twice, already
    /// detached, or if this machine is itself a lane, and requires every
    /// pending-redo mark to have been drained first (lanes refuse the
    /// unrecovered set wholesale rather than checking it per access).
    pub fn lane_split(&mut self, stripes: &[u32]) -> Machine {
        assert!(!self.lane, "cannot split a lane machine");
        assert!(self.unrecovered.is_empty(), "lane_split with pending instant-restart redo");
        self.prune_lost();
        let mut shards: Vec<CoherShard> =
            (0..self.shards.len()).map(|_| CoherShard::foreign(self.cfg.nodes)).collect();
        for &s in stripes {
            let s = s as usize;
            assert!(s < self.shards.len(), "stripe {s} out of range");
            assert!(self.shards[s].owned, "stripe {s} already detached");
            std::mem::swap(&mut shards[s], &mut self.shards[s]);
            self.shards[s].owned = false;
            shards[s].owned = true;
        }
        Machine {
            cfg: self.cfg.clone(),
            shards,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeState { clock: n.clock, crashed: n.crashed })
                .collect(),
            stats: SimStats::default(),
            obs: self.obs.clone(),
            fault: self.fault.clone(),
            next_dynamic: self.next_dynamic,
            lane: true,
            unrecovered: BTreeSet::new(),
            lost: self.lost.iter().filter(|(_, at)| stripes.contains(&at.sh)).copied().collect(),
            lost_pruned: false,
        }
    }

    /// Reattach a lane produced by [`Machine::lane_split`]: move its owned
    /// shards back, fold its coherence stats into this machine's, and
    /// adopt its clock for `node` (the node the lane executed for — only
    /// that clock advanced deterministically inside the lane).
    pub fn lane_merge(&mut self, node: NodeId, lane: Machine) {
        assert!(lane.lane, "lane_merge of a non-lane machine");
        for (i, shard) in lane.shards.into_iter().enumerate() {
            if shard.owned {
                assert!(!self.shards[i].owned, "stripe {i} merged twice");
                self.shards[i] = shard;
            }
        }
        self.stats.absorb(&lane.stats);
        self.lost_pruned |= lane.lost_pruned;
        self.nodes[node.0 as usize].clock = lane.nodes[node.0 as usize].clock;
    }

    /// Clear every active mark owned by `node` within the given stripes
    /// (the epoch-barrier drain after the node's pending log window is
    /// forced). Returns how many marks were cleared.
    pub fn clear_active_in_stripes(&mut self, node: NodeId, stripes: &[u32]) -> u64 {
        let mut cleared = 0u64;
        for &s in stripes {
            for marks in self.shards[s as usize].marks.iter_mut() {
                if marks.active_owner == node.0 {
                    marks.active_owner = NO_NODE;
                    cleared += 1;
                }
            }
        }
        cleared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: u16) -> Machine {
        Machine::new(SimConfig::new(n))
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);
    const L: LineId = LineId(42);

    #[test]
    fn create_read_write_roundtrip() {
        let mut m = machine(1);
        m.create_line_at(N0, L, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read_into(N0, L, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        m.write(N0, L, 1, b"a").unwrap();
        m.read_into(N0, L, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hallo");
    }

    #[test]
    fn create_duplicate_rejected() {
        let mut m = machine(1);
        m.create_line_at(N0, L, b"x").unwrap();
        assert_eq!(m.create_line_at(N0, L, b"y"), Err(MemError::AlreadyExists { line: L }));
    }

    #[test]
    fn write_migrates_exclusive_copy() {
        // The H_ww1 history of §3.2: w_x[l]; w_y[l] leaves the only copy
        // on y.
        let mut m = machine(2);
        m.create_line_at(N0, L, &[0]).unwrap();
        m.write(N0, L, 0, &[1]).unwrap();
        assert_eq!(m.exclusive_owner(L), Some(N0));
        m.write(N1, L, 0, &[2]).unwrap();
        assert_eq!(m.exclusive_owner(L), Some(N1));
        assert_eq!(m.holders(L), vec![N1]);
        assert_eq!(m.stats().migrations, 1);
        assert_eq!(m.peek_local(N0, L), None);
    }

    #[test]
    fn read_replicates_and_downgrades() {
        // The H_wr history: w_x[l]; r_y[l] leaves copies on both nodes.
        let mut m = machine(2);
        m.create_line_at(N0, L, &[7]).unwrap();
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap();
        assert_eq!(b, [7]);
        assert_eq!(m.exclusive_owner(L), None);
        // Holder slices are always sorted by node id.
        assert_eq!(m.holders(L), vec![N0, N1]);
        assert_eq!(m.stats().replications, 1);
        assert_eq!(m.stats().downgrades, 1);
    }

    #[test]
    fn h_ww2_shared_then_write_invalidates_all() {
        // H_ww2: w_x[l]; reads spread the line; w_y[l] invalidates all.
        let mut m = machine(3);
        m.create_line_at(N0, L, &[1]).unwrap();
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap();
        m.read_into(N2, L, 0, &mut b).unwrap();
        assert_eq!(m.holder_count(L), 3);
        m.write(N1, L, 0, &[9]).unwrap();
        assert_eq!(m.holders(L), vec![N1]);
        assert_eq!(m.stats().invalidations, 2);
    }

    #[test]
    fn crash_destroys_only_copy() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        m.write(N1, L, 0, &[6]).unwrap(); // migrate to n1
        let rep = m.crash(&[N1]);
        assert_eq!(rep.lost_lines, vec![L]);
        assert!(m.is_lost(L));
        assert!(!m.probe_cached(L));
        let mut b = [0u8];
        assert_eq!(m.read_into(N0, L, 0, &mut b), Err(MemError::LineLost { line: L }));
    }

    #[test]
    fn crash_spares_replicated_copy() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap(); // replicate
        m.crash(&[N0]);
        assert!(!m.is_lost(L));
        assert_eq!(m.exclusive_owner(L), Some(N1)); // collapsed to sole survivor
        m.read_into(N1, L, 0, &mut b).unwrap();
        assert_eq!(b, [5]);
    }

    #[test]
    fn stall_on_lost_mode() {
        let mut m = Machine::new(SimConfig::new(2).with_stall_on_lost(true));
        m.create_line_at(N1, L, &[5]).unwrap();
        m.crash(&[N1]);
        let mut b = [0u8];
        assert_eq!(m.read_into(N0, L, 0, &mut b), Err(MemError::Stalled { line: L, holder: None }));
        assert_eq!(m.stats().lost_line_accesses, 1);
    }

    #[test]
    fn crashed_node_cannot_act() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        m.crash(&[N0]);
        assert_eq!(m.write(N0, L, 0, &[1]), Err(MemError::NodeCrashed { node: N0 }));
        assert!(m.surviving_nodes() == vec![N1]);
    }

    #[test]
    fn line_lock_excludes_other_nodes() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        m.getline(N0, L).unwrap();
        let mut b = [0u8];
        assert!(matches!(m.read_into(N1, L, 0, &mut b), Err(MemError::Stalled { .. })));
        assert!(matches!(m.write(N1, L, 0, &[1]), Err(MemError::Stalled { .. })));
        assert!(matches!(m.getline(N1, L), Err(MemError::Stalled { .. })));
        assert_eq!(m.stats().line_lock_conflicts, 3);
        // Holder proceeds freely; release lets others in.
        m.write(N0, L, 0, &[1]).unwrap();
        m.releaseline(N0, L).unwrap();
        m.write(N1, L, 0, &[2]).unwrap();
    }

    #[test]
    fn line_lock_migrates_line_to_holder() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        m.getline(N1, L).unwrap();
        assert_eq!(m.exclusive_owner(L), Some(N1));
        assert_eq!(m.line_lock_holder(L), Some(N1));
    }

    #[test]
    fn release_by_non_holder_rejected() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        m.getline(N0, L).unwrap();
        assert_eq!(m.releaseline(N1, L), Err(MemError::NotLockHolder { line: L, node: N1 }));
    }

    #[test]
    fn crash_breaks_line_locks() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[5]).unwrap();
        m.getline(N0, L).unwrap();
        let rep = m.crash(&[N0]);
        assert_eq!(rep.broken_line_locks, vec![L]);
        assert_eq!(m.line_lock_holder(L), None);
        assert!(m.is_lost(L)); // only copy was on n0
    }

    #[test]
    fn write_broadcast_updates_all_copies() {
        let mut m = Machine::new(SimConfig::new(2).write_broadcast());
        m.create_line_at(N0, L, &[1]).unwrap();
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap();
        m.write(N0, L, 0, &[9]).unwrap();
        // Both copies reflect the write; no invalidation happened.
        assert_eq!(m.peek_local(N1, L).unwrap()[0], 9);
        assert_eq!(m.holder_count(L), 2);
        assert_eq!(m.stats().invalidations, 0);
        assert_eq!(m.stats().broadcast_updates, 1);
        // Crash of either node leaves the data intact.
        m.crash(&[N0]);
        assert!(!m.is_lost(L));
    }

    #[test]
    fn triggers_fire_for_active_lines() {
        let mut m = machine(3);
        m.create_line_at(N0, L, &[1]).unwrap();
        m.write(N0, L, 0, &[2]).unwrap();
        m.set_active(L, N0);
        // Remote read of exclusive active line → downgrade trigger.
        assert_eq!(
            m.pending_triggers(N1, L, false),
            Some(TriggerEvent { line: L, owner: N0, kind: TransferKind::Downgrade })
        );
        // Remote write → invalidate trigger.
        assert_eq!(
            m.pending_triggers(N1, L, true),
            Some(TriggerEvent { line: L, owner: N0, kind: TransferKind::Invalidate })
        );
        // Owner's own accesses never trigger.
        assert_eq!(m.pending_triggers(N0, L, true), None);
        // Once shared, only writes trigger (owner copy survives reads).
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap();
        assert_eq!(m.pending_triggers(N2, L, false), None);
        assert_eq!(
            m.pending_triggers(N2, L, true),
            Some(TriggerEvent { line: L, owner: N0, kind: TransferKind::Invalidate })
        );
        // After clearing (log forced), no triggers.
        m.clear_active(L);
        assert_eq!(m.pending_triggers(N2, L, true), None);
    }

    #[test]
    fn discard_and_install_roundtrip() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[3]).unwrap();
        m.discard(N0, L).unwrap();
        let mut b = [0u8];
        assert_eq!(m.read_into(N0, L, 0, &mut b), Err(MemError::NotResident { line: L }));
        m.install_line(N1, L, &[4]).unwrap();
        m.read_into(N0, L, 0, &mut b).unwrap();
        assert_eq!(b, [4]);
    }

    #[test]
    fn install_overwrites_lost() {
        let mut m = machine(2);
        m.create_line_at(N1, L, &[3]).unwrap();
        m.crash(&[N1]);
        assert!(m.is_lost(L));
        m.install_line(N0, L, &[8]).unwrap();
        assert!(!m.is_lost(L));
        assert_eq!(m.peek(L).unwrap()[0], 8);
    }

    #[test]
    fn discard_matching_flushes_predicate_lines() {
        let mut m = machine(1);
        m.create_line_at(N0, LineId(1), &[1]).unwrap();
        m.create_line_at(N0, LineId(2), &[2]).unwrap();
        m.create_line_at(N0, LineId(100), &[3]).unwrap();
        let dropped = m.discard_matching(N0, |l| l.0 < 10);
        assert_eq!(dropped, 2);
        assert!(m.probe_cached(LineId(100)));
        assert!(!m.probe_cached(LineId(1)));
        assert!(!m.probe_cached(LineId(2)));
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut m = machine(1);
        m.create_line_at(N0, LineId(1), &[1]).unwrap();
        m.create_line_at(N0, LineId(2), &[2]).unwrap();
        let before = m.flat_stats();
        assert_eq!(before.buf_reuse, 0);
        m.discard(N0, LineId(1)).unwrap();
        assert_eq!(m.flat_stats().free_slots, 1);
        // New line takes the freed slot: no arena growth, stale bytes
        // zeroed.
        m.create_line_at(N0, LineId(3), &[]).unwrap();
        let after = m.flat_stats();
        assert_eq!(after.slots, before.slots);
        assert_eq!(after.free_slots, 0);
        assert_eq!(after.buf_reuse, 1);
        assert!(m.peek(LineId(3)).unwrap().iter().all(|b| *b == 0));
        m.validate_flat();
    }

    #[test]
    fn clear_lost_frees_the_slot() {
        let mut m = machine(2);
        m.create_line_at(N1, L, &[3]).unwrap();
        m.crash(&[N1]);
        assert!(m.line_exists(L));
        m.clear_lost(L);
        assert!(!m.line_exists(L));
        assert_eq!(m.flat_stats().free_slots, 1);
        m.validate_flat();
    }

    #[test]
    fn holders_slice_is_borrowed_and_sorted() {
        let mut m = machine(3);
        m.create_line_at(N2, L, &[1]).unwrap();
        let mut b = [0u8];
        m.read_into(N0, L, 0, &mut b).unwrap();
        m.read_into(N1, L, 0, &mut b).unwrap();
        assert_eq!(m.holders(L), vec![N0, N1, N2]);
        assert_eq!(m.holders(LineId(999)), &[] as &[NodeId]);
        m.validate_flat();
    }

    #[test]
    fn clocks_accumulate_costs() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[1]).unwrap();
        let t0 = m.now(N1);
        m.write(N1, L, 0, &[2]).unwrap();
        let cost = m.now(N1) - t0;
        // Migration: remote transfer + one invalidation.
        let c = &m.config().cost;
        assert_eq!(cost, c.remote_transfer + c.invalidate);
        // Reads after are local hits.
        let t1 = m.now(N1);
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap();
        assert_eq!(m.now(N1) - t1, m.config().cost.local_hit);
    }

    #[test]
    fn reboot_restores_node() {
        let mut m = machine(2);
        m.create_line_at(N0, L, &[1]).unwrap();
        m.advance(N0, 1000);
        m.crash(&[N0]);
        assert!(m.is_crashed(N0));
        m.reboot_node(N0);
        assert!(!m.is_crashed(N0));
        assert!(m.peek_local(N0, L).is_none()); // cache cold after reboot
        m.create_line_at(N0, LineId(9), &[1]).unwrap();
    }

    #[test]
    fn alloc_line_uses_dynamic_addresses() {
        let mut m = machine(1);
        let a = m.alloc_line(N0, &[1]).unwrap();
        let b = m.alloc_line(N0, &[2]).unwrap();
        assert!(a.0 >= LineId::DYNAMIC_BASE);
        assert_eq!(b.0, a.0 + 1);
    }

    #[test]
    fn read_line_with_runs_coherence_transitions() {
        let mut m = machine(2);
        m.create_line_at(N0, L, b"abc").unwrap();
        let first = m.read_line_with(N1, L, |d| d[0]).unwrap();
        assert_eq!(first, b'a');
        // The closure read behaves exactly like read_into: replication +
        // downgrade happened.
        assert_eq!(m.holders(L), vec![N0, N1]);
        assert_eq!(m.stats().remote_transfers, 1);
        assert_eq!(m.stats().replications, 1);
        // Locked lines still stall.
        m.getline(N0, L).unwrap();
        assert!(matches!(m.read_line_with(N1, L, |_| ()), Err(MemError::Stalled { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = machine(1);
        m.create_line_at(N0, L, &[1]).unwrap();
        let size = m.line_size();
        assert!(matches!(m.write(N0, L, size - 1, &[1, 2]), Err(MemError::OutOfBounds { .. })));
        let mut b = vec![0u8; 2];
        assert!(matches!(m.read_into(N0, L, size - 1, &mut b), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn multi_node_crash_in_one_call() {
        let mut m = machine(3);
        m.create_line_at(N0, LineId(1), &[1]).unwrap();
        m.create_line_at(N1, LineId(2), &[2]).unwrap();
        m.create_line_at(N2, LineId(3), &[3]).unwrap();
        let rep = m.crash(&[N0, N1]);
        assert_eq!(rep.crashed, vec![N0, N1]);
        assert_eq!(rep.lost_lines, vec![LineId(1), LineId(2)]);
        assert!(m.probe_cached(LineId(3)));
        m.validate_flat();
    }

    #[test]
    fn iter_lost_walks_lost_lines_in_address_order() {
        let mut m = machine(3);
        // Created out of address order, so slot order differs from it.
        for l in [5u64, 1, 3, 2] {
            m.create_line_at(NodeId(0), LineId(l), &[l as u8]).unwrap();
        }
        m.read_into(NodeId(1), LineId(3), 0, &mut [0u8; 1]).unwrap();
        assert_eq!(m.iter_lost().count(), 0);
        m.crash(&[NodeId(0)]);
        assert_eq!(m.iter_lost().collect::<Vec<_>>(), vec![LineId(1), LineId(2), LineId(5)]);
        m.install_line(NodeId(1), LineId(2), &[9]).unwrap();
        m.clear_lost(LineId(5));
        assert_eq!(m.iter_lost().collect::<Vec<_>>(), vec![LineId(1)]);
    }

    /// A 100-node machine keeps two mask words per slot: node 70's crash
    /// loses the lines it alone held and leaves those it shared, with a
    /// node of either word, on their other holders.
    #[test]
    fn crash_of_a_second_word_node_loses_exactly_its_sole_held_lines() {
        let mut m = machine(100);
        let n70 = NodeId(70);
        for l in 0..8u64 {
            m.create_line_at(n70, LineId(l), &[l as u8]).unwrap();
        }
        m.read_into(N1, LineId(2), 0, &mut [0u8]).unwrap();
        m.read_into(NodeId(71), LineId(5), 0, &mut [0u8]).unwrap();
        m.read_into(NodeId(99), LineId(5), 0, &mut [0u8]).unwrap();
        m.create_line_at(NodeId(69), LineId(8), &[8]).unwrap();
        m.getline(n70, LineId(7)).unwrap();
        let rep = m.crash(&[n70]);
        let lost: Vec<LineId> = [0, 1, 3, 4, 6, 7].map(LineId).to_vec();
        assert_eq!(rep.lost_lines, lost);
        assert_eq!(rep.broken_line_locks, vec![LineId(7)]);
        assert_eq!(m.iter_lost().collect::<Vec<_>>(), lost);
        assert_eq!(m.holders(LineId(2)), vec![N1]);
        assert_eq!(m.holders(LineId(5)), vec![NodeId(71), NodeId(99)]);
        assert_eq!(m.exclusive_owner(LineId(8)), Some(NodeId(69)));
        assert_eq!(m.stats().lines_lost, 6);
        m.validate_flat();
    }

    #[test]
    fn shared_line_survives_partial_crash() {
        let mut m = machine(3);
        m.create_line_at(N0, L, &[1]).unwrap();
        let mut b = [0u8];
        m.read_into(N1, L, 0, &mut b).unwrap();
        m.read_into(N2, L, 0, &mut b).unwrap();
        m.crash(&[N0, N2]);
        assert!(!m.is_lost(L));
        assert_eq!(m.exclusive_owner(L), Some(N1));
    }

    /// The §3.2 histories and a crash, as the bus records them.
    #[test]
    fn sharing_histories_and_crash_appear_on_the_bus() {
        let mut m = machine(2);
        m.obs().enable(32);
        m.create_line_at(N0, L, &[0]).unwrap();
        m.write(N0, L, 0, &[1]).unwrap();
        m.write(N1, L, 0, &[2]).unwrap(); // H_ww1: the line migrates to y
        m.read_into(N0, L, 0, &mut [0u8]).unwrap(); // H_wr: x's read downgrades y
        m.write(N1, L, 0, &[3]).unwrap();
        m.crash(&[N1]);
        let events: Vec<ObsEvent> = m.obs().bus.drain().into_iter().map(|r| r.event).collect();
        let has = |want: ObsEvent| assert!(events.contains(&want), "{want:?} not in {events:?}");
        has(ObsEvent::WriteTake { node: 1, line: L.0, invalidated: 1, migration: true });
        has(ObsEvent::ReadRemote { node: 0, line: L.0, downgraded: true });
        has(ObsEvent::CrashInjected { nodes: 1, lost_lines: 1 });
    }
}
