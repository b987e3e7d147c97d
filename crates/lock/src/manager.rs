//! The shared-memory lock manager.
//!
//! Every LCB update happens inside a line-lock critical section, with the
//! logical lock-log record written *before* the updated line is released —
//! so lock state can never migrate to another node without the acquiring
//! node's log describing it (the Volatile LBM discipline applied to the
//! lock table, §4.2.2 + §5.1). A transaction's final release
//! ([`LockManager::release_all`], [`LockManager::early_release_all`]) is
//! the one update not logged: recovery rebuilds the grants of active
//! transactions only, so a release that ends the transaction's lock
//! state has nothing to tell it.
//!
//! Forward-path fast lane: under strict 2PL only the owning transaction
//! ever releases its own grant, so the volatile per-transaction chain
//! ([`TxnChains`], a flat open-addressed map with inline entry arrays) is
//! an authoritative record of "does `txn` already hold `name`, and how
//! strongly". The dominant re-acquire / compatible-re-read case is
//! answered from the chain alone — no LCB line read, no line lock, no log
//! record (the original grant is already logged) — counted by
//! [`LockStats::fast_hits`] and the `lock.fast_hits` obs counter.

use crate::lcb::{Lcb, LockEntry};
use crate::mode::LockMode;
use crate::table::LockTable;
use smdb_obs::{Event as ObsEvent, ForceReason};
use smdb_sim::{LineId, Machine, MemError, NodeId, TxnId};
use smdb_wal::{LogPayload, LogSet, StructuralKind};
use std::fmt;

/// Histogram of simulated cycles each logical lock was held, recorded on
/// release when observability is enabled.
pub const HOLD_CYCLES_HISTOGRAM: &str = smdb_obs::names::LOCK_HOLD_CYCLES;

/// Counter of acquire requests served entirely from the volatile chain
/// (re-acquire in a sufficient mode): no simulated memory traffic.
pub const FAST_HITS_COUNTER: &str = smdb_obs::names::LOCK_FAST_HITS;

/// Counter of write locks released early at commit-record append
/// (controlled lock violation), before the covering force.
pub const EARLY_RELEASED_COUNTER: &str = smdb_obs::names::LOCK_EARLY_RELEASED;

/// Result of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted.
    Granted,
    /// The transaction already held the lock in a sufficient mode.
    AlreadyHeld,
    /// The request conflicts and was queued; the paper logs queued
    /// requests too (§4.2.2). The caller decides whether to block or (as
    /// the no-wait engines in this reproduction do) abort and retry.
    Waiting,
}

/// Lock-manager errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockError {
    /// Underlying memory error (stall, lost line, crashed node...).
    Mem(MemError),
    /// The LCB's fixed-capacity holder or waiter array is full.
    CapacityExceeded {
        /// The lock whose LCB overflowed.
        name: u64,
    },
    /// Release of a lock the transaction does not hold.
    NotHolder {
        /// The releasing transaction.
        txn: TxnId,
        /// The lock it does not hold.
        name: u64,
    },
}

impl From<MemError> for LockError {
    fn from(e: MemError) -> Self {
        LockError::Mem(e)
    }
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Mem(e) => write!(f, "memory error: {e}"),
            LockError::CapacityExceeded { name } => {
                write!(f, "LCB capacity exceeded for lock {name}")
            }
            LockError::NotHolder { txn, name } => write!(f, "{txn} does not hold lock {name}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Lock-manager counters (several feed the Table 1 overhead report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Granted acquisitions.
    pub acquires: u64,
    /// Granted shared-mode acquisitions.
    pub shared_acquires: u64,
    /// Granted exclusive-mode acquisitions.
    pub exclusive_acquires: u64,
    /// Requests that were queued.
    pub waits: u64,
    /// Releases.
    pub releases: u64,
    /// Waiters promoted to holders by releases.
    pub promotions: u64,
    /// Overflow lines allocated (early-committed structural changes).
    pub overflow_allocs: u64,
    /// Re-acquire requests served from the volatile chain with no LCB
    /// traffic (the fast lane).
    pub fast_hits: u64,
    /// Exclusive locks released early (at commit-record append, before the
    /// covering force) under controlled lock violation.
    pub early_released: u64,
}

impl LockStats {
    /// Fold an execution lane's counters into this one (epoch-barrier
    /// merge; see `LockManager::lane_fork`).
    pub fn absorb(&mut self, other: &LockStats) {
        self.acquires += other.acquires;
        self.shared_acquires += other.shared_acquires;
        self.exclusive_acquires += other.exclusive_acquires;
        self.waits += other.waits;
        self.releases += other.releases;
        self.promotions += other.promotions;
        self.overflow_allocs += other.overflow_allocs;
        self.fast_hits += other.fast_hits;
        self.early_released += other.early_released;
    }
}

const CHAIN_INLINE: usize = 8;

/// Sentinel for "no acquire timestamp recorded" (observability disabled
/// at grant time).
const NO_TIME: u64 = u64::MAX;

/// One held lock in a transaction's chain: the name, the granted mode
/// (kept in lockstep with the LCB holder entry), and the simulated
/// acquire timestamp for the hold-time histogram.
#[derive(Clone, Copy, Debug)]
struct ChainEntry {
    name: u64,
    mode: LockMode,
    acquired_at: u64,
}

const EMPTY_CHAIN_ENTRY: ChainEntry =
    ChainEntry { name: 0, mode: LockMode::Shared, acquired_at: NO_TIME };

/// One transaction's lock chain: an inline small-vec of entries in
/// acquisition order, spilling to the heap only past [`CHAIN_INLINE`]
/// simultaneously-held locks.
#[derive(Clone, Debug)]
struct ChainSlot {
    txn: TxnId,
    len: u32,
    inline: [ChainEntry; CHAIN_INLINE],
    spill: Vec<ChainEntry>,
}

impl ChainSlot {
    fn entry(&self, i: usize) -> &ChainEntry {
        if i < CHAIN_INLINE {
            &self.inline[i]
        } else {
            &self.spill[i - CHAIN_INLINE]
        }
    }

    fn entry_mut(&mut self, i: usize) -> &mut ChainEntry {
        if i < CHAIN_INLINE {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - CHAIN_INLINE]
        }
    }

    fn find(&self, name: u64) -> Option<usize> {
        (0..self.len as usize).find(|&i| self.entry(i).name == name)
    }

    fn push(&mut self, e: ChainEntry) {
        let i = self.len as usize;
        if i < CHAIN_INLINE {
            self.inline[i] = e;
        } else {
            self.spill.push(e);
        }
        self.len += 1;
    }

    /// Order-preserving removal (releases must happen in acquisition
    /// order for log-stream stability).
    fn remove(&mut self, i: usize) -> ChainEntry {
        let n = self.len as usize;
        let e = *self.entry(i);
        for j in i..n - 1 {
            *self.entry_mut(j) = *self.entry(j + 1);
        }
        if n > CHAIN_INLINE {
            self.spill.pop();
        }
        self.len -= 1;
        e
    }
}

const CTRL_EMPTY: u8 = 0;
const CTRL_FULL: u8 = 1;
const CTRL_TOMB: u8 = 2;

/// Flat per-transaction lock chains: an open-addressed `TxnId → slot`
/// index over a recycled slot arena (same flat-slot pattern as the sim's
/// line directory). Replaces the old `BTreeMap<TxnId, Vec<u64>>` chain
/// map *and* the separate `BTreeMap<(TxnId, u64), u64>` acquire-time map,
/// whose entries previously accumulated without bound across
/// transactions: a slot is freed (and reused by later transactions) the
/// moment its last entry is released, so footprint is bounded by the
/// peak number of concurrently lock-holding transactions.
#[derive(Clone, Debug)]
struct TxnChains {
    ctrl: Vec<u8>,
    keys: Vec<u64>,
    slot_of: Vec<u32>,
    slots: Vec<ChainSlot>,
    free: Vec<u32>,
    live: usize,
    used: usize,
}

impl TxnChains {
    fn new() -> Self {
        let cap = 64;
        TxnChains {
            ctrl: vec![CTRL_EMPTY; cap],
            keys: vec![0; cap],
            slot_of: vec![0; cap],
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            used: 0,
        }
    }

    fn start(&self, key: u64) -> usize {
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32;
        h as usize & (self.ctrl.len() - 1)
    }

    fn probe(&self, txn: TxnId) -> Option<u32> {
        let mask = self.ctrl.len() - 1;
        let mut i = self.start(txn.0);
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => return None,
                CTRL_FULL if self.keys[i] == txn.0 => return Some(self.slot_of[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn slot(&self, txn: TxnId) -> Option<&ChainSlot> {
        self.probe(txn).map(|s| &self.slots[s as usize])
    }

    fn slot_mut_or_insert(&mut self, txn: TxnId) -> &mut ChainSlot {
        if let Some(s) = self.probe(txn) {
            return &mut self.slots[s as usize];
        }
        if (self.used + 1) * 8 >= self.ctrl.len() * 7 {
            self.grow();
        }
        let s = match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                slot.txn = txn;
                slot.len = 0;
                slot.spill.clear();
                s
            }
            None => {
                self.slots.push(ChainSlot {
                    txn,
                    len: 0,
                    inline: [EMPTY_CHAIN_ENTRY; CHAIN_INLINE],
                    spill: Vec::new(),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let mask = self.ctrl.len() - 1;
        let mut i = self.start(txn.0);
        let mut first_tomb = None;
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => {
                    let at = first_tomb.unwrap_or(i);
                    if self.ctrl[at] == CTRL_EMPTY {
                        self.used += 1;
                    }
                    self.ctrl[at] = CTRL_FULL;
                    self.keys[at] = txn.0;
                    self.slot_of[at] = s;
                    self.live += 1;
                    return &mut self.slots[s as usize];
                }
                CTRL_TOMB => {
                    first_tomb.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn unlink(&mut self, txn: TxnId) {
        let mask = self.ctrl.len() - 1;
        let mut i = self.start(txn.0);
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => return,
                CTRL_FULL if self.keys[i] == txn.0 => {
                    let s = self.slot_of[i];
                    self.ctrl[i] = CTRL_TOMB;
                    self.live -= 1;
                    self.slots[s as usize].len = 0;
                    self.slots[s as usize].spill.clear();
                    self.free.push(s);
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = self.ctrl.len() * 2;
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![CTRL_EMPTY; cap]);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_slot_of = std::mem::replace(&mut self.slot_of, vec![0; cap]);
        self.used = 0;
        for i in 0..old_ctrl.len() {
            if old_ctrl[i] == CTRL_FULL {
                let mask = cap - 1;
                let mut j = self.start(old_keys[i]);
                while self.ctrl[j] != CTRL_EMPTY {
                    j = (j + 1) & mask;
                }
                self.ctrl[j] = CTRL_FULL;
                self.keys[j] = old_keys[i];
                self.slot_of[j] = old_slot_of[i];
                self.used += 1;
            }
        }
    }

    /// The granted mode of `name` in `txn`'s chain, if held.
    fn mode_of(&self, txn: TxnId, name: u64) -> Option<LockMode> {
        let slot = self.slot(txn)?;
        slot.find(name).map(|i| slot.entry(i).mode)
    }

    /// Record a grant (or strengthen an existing one to `mode`).
    fn grant(&mut self, txn: TxnId, name: u64, mode: LockMode) {
        let slot = self.slot_mut_or_insert(txn);
        match slot.find(name) {
            Some(i) => {
                let e = slot.entry_mut(i);
                e.mode = e.mode.max(mode);
            }
            None => slot.push(ChainEntry { name, mode, acquired_at: NO_TIME }),
        }
    }

    /// Record the acquire timestamp if none was recorded yet (matches the
    /// old `acquired_at.entry(..).or_insert(now)`).
    fn note_acquired(&mut self, txn: TxnId, name: u64, now: u64) {
        if let Some(s) = self.probe(txn) {
            let slot = &mut self.slots[s as usize];
            if let Some(i) = slot.find(name) {
                let e = slot.entry_mut(i);
                if e.acquired_at == NO_TIME {
                    e.acquired_at = now;
                }
            }
        }
    }

    /// Remove `name` from `txn`'s chain, freeing the slot when it empties.
    /// Returns the recorded acquire timestamp, if any.
    fn remove_name(&mut self, txn: TxnId, name: u64) -> Option<u64> {
        let s = self.probe(txn)?;
        let slot = &mut self.slots[s as usize];
        let i = slot.find(name)?;
        let e = slot.remove(i);
        if slot.len == 0 {
            self.unlink(txn);
        }
        (e.acquired_at != NO_TIME).then_some(e.acquired_at)
    }

    /// Drop `txn`'s entire chain (crashed transaction).
    fn drop_txn(&mut self, txn: TxnId) {
        if self.probe(txn).is_some() {
            self.unlink(txn);
        }
    }

    /// The oldest held lock of `txn`: releasing it makes the next one
    /// oldest, so a release-everything loop needs no snapshot of the
    /// chain.
    fn first_entry(&self, txn: TxnId) -> Option<(u64, LockMode)> {
        let slot = self.slot(txn).filter(|s| s.len > 0)?;
        Some((slot.entry(0).name, slot.entry(0).mode))
    }

    /// Held lock names in acquisition order.
    fn names_of(&self, txn: TxnId) -> Vec<u64> {
        match self.slot(txn) {
            Some(slot) => (0..slot.len as usize).map(|i| slot.entry(i).name).collect(),
            None => Vec::new(),
        }
    }

    fn txn_count(&self) -> usize {
        self.live
    }

    /// Every chain entry across all transactions, as `(txn, name, mode)`.
    fn all_entries(&self) -> Vec<(TxnId, u64, LockMode)> {
        let mut out = Vec::new();
        for i in 0..self.ctrl.len() {
            if self.ctrl[i] != CTRL_FULL {
                continue;
            }
            let slot = &self.slots[self.slot_of[i] as usize];
            for j in 0..slot.len as usize {
                let e = slot.entry(j);
                out.push((slot.txn, e.name, e.mode));
            }
        }
        out
    }

    /// (allocated slots, live chains) — slot-arena footprint, for
    /// bounded-growth regression tests.
    fn footprint(&self) -> (usize, usize) {
        (self.slots.len(), self.live)
    }
}

/// The shared-memory lock manager (*SM locking*).
#[derive(Clone, Debug)]
pub struct LockManager {
    table: LockTable,
    /// Per-transaction chains of held lock names (+ granted mode and
    /// acquire timestamp). Volatile derived state: reconstructible from
    /// the LCBs themselves (each entry carries its transaction id),
    /// exactly as §4.2.2 prescribes for pointer-based structures: *"first
    /// restore the data that the pointers are derived from, then
    /// reconstruct the pointers"*.
    chains: TxnChains,
    /// The one decoded LCB the forward path works on: [`LockTable::find`]
    /// decodes into it and the update is encoded back from it, so no
    /// 400-byte `Lcb` value is built or moved per call. Dead between calls.
    scratch: Lcb,
    stats: LockStats,
}

impl LockManager {
    /// Wrap a created [`LockTable`].
    pub fn new(table: LockTable) -> Self {
        LockManager {
            table,
            chains: TxnChains::new(),
            scratch: Lcb::default(),
            stats: LockStats::default(),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// Manager statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// A detached manager for an execution lane (epoch-parallel
    /// execution). The lane sees the same table geometry (its placement
    /// cache is verify-on-hit, so a stale clone self-corrects) but starts
    /// with empty chains and zeroed stats: the deterministic epoch
    /// scheduler grants record locks serially on the *parent* manager
    /// before the lane runs, so the only lock-manager calls a lane makes
    /// are end-of-transaction `release_all`s, which find no chain and
    /// touch no shared memory. Fold the lane back with
    /// [`LockManager::lane_absorb`].
    pub fn lane_fork(&self) -> LockManager {
        LockManager::new(self.table.clone())
    }

    /// Fold a lane manager's counters back into the parent at an epoch
    /// barrier. Counter addition commutes, so sibling-lane merge order
    /// cannot change the totals.
    pub fn lane_absorb(&mut self, lane: &LockManager) {
        self.stats.absorb(&lane.stats);
    }

    /// Locks currently held by `txn` (from the volatile chain), in
    /// acquisition order.
    pub fn held_locks(&self, txn: TxnId) -> Vec<u64> {
        self.chains.names_of(txn)
    }

    /// The mode `txn` holds `name` in, if any (volatile chain lookup; no
    /// simulated memory traffic).
    pub fn held_mode(&self, txn: TxnId, name: u64) -> Option<LockMode> {
        self.chains.mode_of(txn, name)
    }

    /// Number of transactions with at least one held lock.
    pub fn transactions_with_locks(&self) -> usize {
        self.chains.txn_count()
    }

    /// Chain-arena footprint as (allocated slots, live chains): slots are
    /// recycled, so allocated slots track the *peak* concurrent
    /// lock-holding transactions, not the total ever run.
    pub fn chain_footprint(&self) -> (usize, usize) {
        self.chains.footprint()
    }

    /// Lockstep cross-check of the two representations of lock state: the
    /// volatile per-transaction chains (the fast lane's authority) against
    /// the durable LCB table in shared memory (recovery's authority), in
    /// both directions. Every chain entry must appear as an LCB holder in
    /// the same mode, and every LCB holder must appear in its
    /// transaction's chain. Returns human-readable violations (empty =
    /// consistent). Reads run as `node`; call only when the machine is
    /// quiescent and recovered — a crashed node's lines legitimately
    /// diverge until restart scrubs them.
    pub fn verify_chains(&self, m: &mut Machine, node: NodeId) -> Result<Vec<String>, LockError> {
        let mut violations = Vec::new();
        let mut lcb = Lcb::default();
        // Chains → table.
        for (txn, name, mode) in self.chains.all_entries() {
            match self.table.find(m, node, name, &mut lcb)? {
                Some(_) => match lcb.holders.iter().find(|e| e.txn == txn) {
                    Some(h) if h.mode == mode => {}
                    Some(h) => violations.push(format!(
                        "lock {name}: chain says {txn} holds {mode:?}, LCB says {:?}",
                        h.mode
                    )),
                    None => violations.push(format!(
                        "lock {name}: chain says {txn} holds {mode:?}, LCB has no such holder"
                    )),
                },
                None => violations
                    .push(format!("lock {name}: chain says {txn} holds {mode:?}, no LCB exists")),
            }
        }
        // Table → chains.
        for line in self.table.all_lines() {
            let lcbs = m.read_line_with(node, line, |img| self.table.decode_line(img))?;
            for (_, lcb) in lcbs {
                for h in lcb.holders.iter() {
                    match self.chains.mode_of(h.txn, lcb.name) {
                        Some(mode) if mode == h.mode => {}
                        Some(mode) => violations.push(format!(
                            "lock {}: LCB says {} holds {:?}, chain says {mode:?}",
                            lcb.name, h.txn, h.mode
                        )),
                        None => {
                            violations.push(format!(
                                "lock {}: LCB says {} holds {:?}, absent from its chain",
                                lcb.name, h.txn, h.mode
                            ));
                        }
                    }
                }
            }
        }
        Ok(violations)
    }

    /// Acquire `name` in `mode` on behalf of `txn`, executing on its home
    /// node.
    pub fn acquire(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
        mode: LockMode,
    ) -> Result<LockOutcome, LockError> {
        self.acquire_from(m, logs, txn, name, mode, txn.node())
    }

    /// Acquire `name` in `mode` on behalf of `txn`, with the lock-table
    /// work (and the logical log record) executed on `acting` — used by
    /// parallel transactions (§9), whose operations run on several nodes.
    ///
    /// Protocol per §4.2.2/§5.1: locate the LCB; *log the request* (read
    /// locks and queued requests included) on the acting node's log;
    /// update the LCB inside a `getline` critical section; release the
    /// line.
    pub fn acquire_from(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
        mode: LockMode,
        acting: NodeId,
    ) -> Result<LockOutcome, LockError> {
        self.acquire_inner(m, logs, txn, name, mode, acting, true)
    }

    /// [`acquire_from`](Self::acquire_from) with *polling* conflict
    /// semantics: a conflicting request returns [`LockOutcome::Waiting`]
    /// without queueing in the LCB and without a log record — the caller
    /// re-issues the request later (paying the LCB probe traffic each
    /// time) instead of parking a logged waiter it would have to cancel.
    /// Used by the pipelined-commit workload driver, whose blocked
    /// transactions retry in place rather than abort.
    pub fn poll_from(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
        mode: LockMode,
        acting: NodeId,
    ) -> Result<LockOutcome, LockError> {
        self.acquire_inner(m, logs, txn, name, mode, acting, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn acquire_inner(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
        mode: LockMode,
        acting: NodeId,
        queue: bool,
    ) -> Result<LockOutcome, LockError> {
        assert!(name != 0, "lock name 0 is reserved");
        // Fast lane: strict 2PL means a granted lock stays granted until
        // this same transaction releases it, so the volatile chain alone
        // proves a sufficient re-acquire. No LCB read, no line lock, no
        // log record (the original grant is logged already) — the exact
        // semantics of the slow path's AlreadyHeld branch.
        if let Some(held) = self.chains.mode_of(txn, name) {
            if held >= mode {
                self.stats.fast_hits += 1;
                m.obs().metrics.inc(FAST_HITS_COUNTER);
                return Ok(LockOutcome::AlreadyHeld);
            }
        }
        let node = acting;
        // Locate or make room (may allocate an early-committed overflow
        // line).
        let (line, slot) = match self.table.find(m, node, name, &mut self.scratch)? {
            Some(found) => found,
            None => {
                let found = self.ensure_empty_slot(m, logs, txn, name, node)?;
                self.scratch.reset(name);
                found
            }
        };
        let lcb = &mut self.scratch;
        // Critical section: the LCB line cannot migrate between the log
        // write and the LCB update.
        m.getline(node, line)?;
        let result = (|| {
            // Re-read under the line lock (the pre-lock find raced with
            // nothing in this deterministic simulator, but the discipline
            // is the real protocol's).
            if let Some(found) = self.table.find(m, node, name, lcb)? {
                debug_assert_eq!(found, (line, slot));
            }
            if lcb.holds(txn) {
                let held = lcb.holders.iter().find(|e| e.txn == txn).expect("holds() checked").mode;
                if held >= mode {
                    return Ok(LockOutcome::AlreadyHeld);
                }
                // Upgrade S→X: only if sole holder.
                if lcb.holders.len() == 1 && lcb.waiters.is_empty() {
                    logs.append(
                        node,
                        LogPayload::LockAcquire { txn, name, mode: mode.into(), queued: false },
                    );
                    lcb.holders[0].mode = mode;
                    self.table.write_lcb(m, node, line, slot, lcb)?;
                    self.chains.grant(txn, name, mode);
                    self.stats.acquires += 1;
                    self.stats.exclusive_acquires += 1;
                    return Ok(LockOutcome::Granted);
                }
                // Conflicting upgrade: queue it (or, when polling, just
                // report the conflict and leave no trace to cancel).
                if !queue {
                    return Ok(LockOutcome::Waiting);
                }
                if lcb.waiters.len() >= self.table.geometry().max_waiters {
                    return Err(LockError::CapacityExceeded { name });
                }
                logs.append(
                    node,
                    LogPayload::LockAcquire { txn, name, mode: mode.into(), queued: true },
                );
                lcb.waiters.push(LockEntry { txn, mode });
                self.table.write_lcb(m, node, line, slot, lcb)?;
                self.stats.waits += 1;
                return Ok(LockOutcome::Waiting);
            }
            if lcb.can_grant(txn, mode) {
                // A full holder array is backpressure, not corruption: the
                // request is compatible but must wait for a holder slot to
                // free up. Polling callers retry in place; queueing callers
                // park a waiter (promotion re-checks holder capacity).
                if lcb.holders.len() >= self.table.geometry().max_holders {
                    if !queue {
                        return Ok(LockOutcome::Waiting);
                    }
                    if lcb.waiters.len() >= self.table.geometry().max_waiters {
                        return Err(LockError::CapacityExceeded { name });
                    }
                    logs.append(
                        node,
                        LogPayload::LockAcquire { txn, name, mode: mode.into(), queued: true },
                    );
                    lcb.waiters.push(LockEntry { txn, mode });
                    self.table.write_lcb(m, node, line, slot, lcb)?;
                    self.stats.waits += 1;
                    return Ok(LockOutcome::Waiting);
                }
                logs.append(
                    node,
                    LogPayload::LockAcquire { txn, name, mode: mode.into(), queued: false },
                );
                lcb.holders.push(LockEntry { txn, mode });
                self.table.write_lcb(m, node, line, slot, lcb)?;
                self.chains.grant(txn, name, mode);
                self.stats.acquires += 1;
                match mode {
                    LockMode::Shared => self.stats.shared_acquires += 1,
                    LockMode::Exclusive => self.stats.exclusive_acquires += 1,
                }
                Ok(LockOutcome::Granted)
            } else {
                if !queue {
                    return Ok(LockOutcome::Waiting);
                }
                if lcb.waiters.len() >= self.table.geometry().max_waiters {
                    return Err(LockError::CapacityExceeded { name });
                }
                logs.append(
                    node,
                    LogPayload::LockAcquire { txn, name, mode: mode.into(), queued: true },
                );
                lcb.waiters.push(LockEntry { txn, mode });
                self.table.write_lcb(m, node, line, slot, lcb)?;
                self.stats.waits += 1;
                Ok(LockOutcome::Waiting)
            }
        })();
        m.releaseline(node, line)?;
        if m.obs().is_enabled() {
            let now = m.now(node);
            match &result {
                Ok(LockOutcome::Granted) => {
                    self.chains.note_acquired(txn, name, now);
                    m.obs().bus.emit(now, || ObsEvent::LockAcquire {
                        node: node.0,
                        txn: txn.0,
                        name,
                        exclusive: mode == LockMode::Exclusive,
                    });
                }
                Ok(LockOutcome::Waiting) => {
                    m.obs().bus.emit(now, || ObsEvent::LockWouldBlock {
                        node: node.0,
                        txn: txn.0,
                        name,
                    });
                }
                _ => {}
            }
        }
        result
    }

    /// Make room for a new LCB, allocating an overflow line if the chain
    /// is full. Overflow allocation is a structural change: it is logged
    /// and *forced* (early commit, §4.2) before the new space is linked,
    /// so no transaction can become dependent on volatile structural
    /// state. The force is physical and immediate: an early commit by
    /// definition cannot wait for a later force.
    fn ensure_empty_slot(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
        acting: NodeId,
    ) -> Result<(LineId, usize), LockError> {
        let node = acting;
        if let Some(found) = self.table.find_empty_slot(m, node, name)? {
            return Ok(found);
        }
        let chain = self.table.chain_for(m, node, name)?;
        let tail = *chain.last().expect("chain non-empty");
        let new_line = self.table.alloc_overflow(m, node, tail)?;
        let lsn = logs.append(
            node,
            LogPayload::Structural {
                txn,
                kind: StructuralKind::LockSpaceAlloc { line: new_line.0, parent: tail.0 },
            },
        );
        logs.force(m, node, lsn, ForceReason::Commit).map_err(MemError::FaultCrash)?;
        self.stats.overflow_allocs += 1;
        Ok((new_line, 0))
    }

    /// Release `name` held by `txn`; grants any waiters that become
    /// compatible. Returns the promoted entries (the engine resumes those
    /// transactions). Each promotion is logged on the *promoted*
    /// transaction's node so its lock state remains redoable.
    pub fn release(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
    ) -> Result<Vec<LockEntry>, LockError> {
        self.release_one(m, logs, txn, name, true)
    }

    /// [`release`](Self::release), appending the `LockRelease` record only
    /// when `logged`. A transaction's final release is not logged: lock
    /// recovery rebuilds the grants of *active* transactions only, and the
    /// transaction leaves that set before (or, under early lock release,
    /// at) its final release.
    fn release_one(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
        logged: bool,
    ) -> Result<Vec<LockEntry>, LockError> {
        let node = txn.node();
        let lcb = &mut self.scratch;
        let (line, slot) =
            self.table.find(m, node, name, lcb)?.ok_or(LockError::NotHolder { txn, name })?;
        if !lcb.holds(txn) {
            return Err(LockError::NotHolder { txn, name });
        }
        m.getline(node, line)?;
        let result = (|| {
            if logged {
                logs.append(node, LogPayload::LockRelease { txn, name, wait_only: false });
            }
            lcb.remove(txn);
            let promoted = lcb.promote_waiters(self.table.geometry().max_holders);
            for p in promoted.iter() {
                logs.append(
                    p.txn.node(),
                    LogPayload::LockAcquire {
                        txn: p.txn,
                        name,
                        mode: p.mode.into(),
                        queued: false,
                    },
                );
                // A promoted *upgrade* strengthens the existing chain
                // entry; a fresh grant appends one.
                self.chains.grant(p.txn, name, p.mode);
            }
            if lcb.is_empty() {
                self.table.clear_lcb(m, node, line, slot)?;
                self.table.forget_placement(name);
            } else {
                self.table.write_lcb(m, node, line, slot, lcb)?;
            }
            self.stats.releases += 1;
            self.stats.promotions += promoted.len() as u64;
            Ok(promoted)
        })();
        m.releaseline(node, line)?;
        let acquired_at = self.chains.remove_name(txn, name);
        if m.obs().is_enabled() {
            let now = m.now(node);
            if let Ok(promoted) = &result {
                let held = acquired_at.map(|t0| now.saturating_sub(t0)).unwrap_or(0);
                m.obs().metrics.observe(HOLD_CYCLES_HISTOGRAM, held);
                m.obs().bus.emit(now, || ObsEvent::LockRelease {
                    node: node.0,
                    txn: txn.0,
                    name,
                    held_cycles: held,
                });
                for p in promoted.iter() {
                    self.chains.note_acquired(p.txn, name, now);
                    m.obs().bus.emit(now, || ObsEvent::LockAcquire {
                        node: p.txn.node().0,
                        txn: p.txn.0,
                        name,
                        exclusive: p.mode == LockMode::Exclusive,
                    });
                }
            }
        }
        result
    }

    /// Cancel a *queued* (waiting) request by `txn` on `name`. Used by the
    /// engine's no-wait policy: a transaction that would block is aborted,
    /// and its queued request — which was logged — must be withdrawn (with
    /// a matching release record, so log replay converges).
    pub fn cancel_wait(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
        name: u64,
    ) -> Result<bool, LockError> {
        let node = txn.node();
        let lcb = &mut self.scratch;
        let Some((line, slot)) = self.table.find(m, node, name, lcb)? else {
            return Ok(false);
        };
        if !lcb.waiters.iter().any(|w| w.txn == txn) {
            return Ok(false);
        }
        m.getline(node, line)?;
        let result = (|| {
            logs.append(node, LogPayload::LockRelease { txn, name, wait_only: true });
            lcb.waiters.retain(|w| w.txn != txn);
            let promoted = lcb.promote_waiters(self.table.geometry().max_holders);
            for p in promoted.iter() {
                logs.append(
                    p.txn.node(),
                    LogPayload::LockAcquire {
                        txn: p.txn,
                        name,
                        mode: p.mode.into(),
                        queued: false,
                    },
                );
                self.chains.grant(p.txn, name, p.mode);
            }
            self.stats.promotions += promoted.len() as u64;
            if lcb.is_empty() {
                self.table.clear_lcb(m, node, line, slot)?;
                self.table.forget_placement(name);
            } else {
                self.table.write_lcb(m, node, line, slot, lcb)?;
            }
            Ok(true)
        })();
        m.releaseline(node, line)?;
        result
    }

    /// Release every lock held by `txn` (commit/abort path under strict
    /// 2PL: locks are not released until the transaction ends — §2).
    /// Returns all promoted entries with the lock they were granted.
    ///
    /// The releases are not logged (promotions are): this is the
    /// transaction's last act, and lock recovery rebuilds only the grants
    /// of transactions still active at the crash.
    pub fn release_all(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
    ) -> Result<Vec<(u64, LockEntry)>, LockError> {
        let mut promoted = Vec::new();
        while let Some((name, _)) = self.chains.first_entry(txn) {
            let granted = self.release_one(m, logs, txn, name, false)?;
            promoted.extend(granted.into_iter().map(|e| (name, e)));
        }
        Ok(promoted)
    }

    /// Release every lock held by `txn` at commit-record *append* time
    /// (early lock release / controlled lock violation). Mechanically
    /// identical to [`release_all`](Self::release_all) — the same LCB
    /// updates, the same promotions logged, no release logged — but it
    /// additionally reports which names were held exclusively (those
    /// become violation edges: the data they guard carries a
    /// not-yet-durable commit) and counts them in
    /// [`LockStats::early_released`] and the `lock.early_released`
    /// counter. The transaction stays active until its commit settles
    /// while holding nothing: restart leaves it out of the set whose
    /// grants it rebuilds.
    ///
    /// Returns `(released, promoted)`: every released `(name, mode)` in
    /// acquisition order, and the waiter entries promoted by the releases.
    #[allow(clippy::type_complexity)]
    pub fn early_release_all(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        txn: TxnId,
    ) -> Result<(Vec<(u64, LockMode)>, Vec<(u64, LockEntry)>), LockError> {
        let mut released = Vec::new();
        let mut promoted = Vec::new();
        while let Some((name, mode)) = self.chains.first_entry(txn) {
            if mode == LockMode::Exclusive {
                self.stats.early_released += 1;
                m.obs().metrics.inc(EARLY_RELEASED_COUNTER);
            }
            released.push((name, mode));
            let granted = self.release_one(m, logs, txn, name, false)?;
            promoted.extend(granted.into_iter().map(|e| (name, e)));
        }
        Ok((released, promoted))
    }

    /// Forget a transaction's volatile chain without touching LCBs. Used
    /// when the transaction's node crashed (its chain is gone anyway) after
    /// recovery has scrubbed the LCBs.
    pub fn drop_chain(&mut self, txn: TxnId) {
        self.chains.drop_txn(txn);
    }

    /// Forget every transaction's chain (a full restart: every
    /// transaction is dead and the lock space is being reset).
    pub fn drop_all_chains(&mut self) {
        self.chains = TxnChains::new();
    }

    /// Current holders of `name` (coherent read by `node`).
    pub fn holders_of(
        &self,
        m: &mut Machine,
        node: NodeId,
        name: u64,
    ) -> Result<Vec<LockEntry>, LockError> {
        let mut lcb = Lcb::default();
        Ok(self
            .table
            .find(m, node, name, &mut lcb)?
            .map(|_| lcb.holders.to_vec())
            .unwrap_or_default())
    }

    /// Current waiters on `name`.
    pub fn waiters_of(
        &self,
        m: &mut Machine,
        node: NodeId,
        name: u64,
    ) -> Result<Vec<LockEntry>, LockError> {
        let mut lcb = Lcb::default();
        Ok(self
            .table
            .find(m, node, name, &mut lcb)?
            .map(|_| lcb.waiters.to_vec())
            .unwrap_or_default())
    }

    pub(crate) fn table_mut(&mut self) -> &mut LockTable {
        &mut self.table
    }

    /// Replace every volatile chain with `entries` (recovery phase 3:
    /// chains rebuilt from the reconstructed LCBs, in table order).
    /// Acquire timestamps of grants that survive across the rebuild are
    /// preserved for the hold-time histogram.
    pub(crate) fn rebuild_chains(&mut self, entries: &[(TxnId, u64, LockMode)]) {
        let old = std::mem::replace(&mut self.chains, TxnChains::new());
        for &(txn, name, mode) in entries {
            self.chains.grant(txn, name, mode);
            if let Some(slot) = old.slot(txn) {
                if let Some(i) = slot.find(name) {
                    let at = slot.entry(i).acquired_at;
                    if at != NO_TIME {
                        self.chains.note_acquired(txn, name, at);
                    }
                }
            }
        }
    }

    pub(crate) fn stats_mut(&mut self) -> &mut LockStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcb::LcbGeometry;
    use smdb_sim::SimConfig;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    fn setup() -> (Machine, LogSet, LockManager) {
        let mut m = Machine::new(SimConfig::new(4));
        let logs = LogSet::new(4);
        let table = LockTable::create(&mut m, N0, 5000, 16, LcbGeometry::co_located()).unwrap();
        (m, logs, LockManager::new(table))
    }

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn exclusive_grant_then_conflict_queues() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        let ty = t(1, 1);
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Granted
        );
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Waiting
        );
        assert_eq!(mgr.stats().acquires, 1);
        assert_eq!(mgr.stats().waits, 1);
        assert_eq!(mgr.held_locks(tx), &[7]);
        assert!(mgr.held_locks(ty).is_empty());
    }

    #[test]
    fn shared_locks_coexist() {
        let (mut m, mut logs, mut mgr) = setup();
        for node in 0..3 {
            let txn = t(node, 1);
            assert_eq!(
                mgr.acquire(&mut m, &mut logs, txn, 7, LockMode::Shared).unwrap(),
                LockOutcome::Granted
            );
        }
        let holders = mgr.holders_of(&mut m, N0, 7).unwrap();
        assert_eq!(holders.len(), 3);
    }

    #[test]
    fn release_promotes_waiter() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        let ty = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Exclusive).unwrap();
        let promoted = mgr.release(&mut m, &mut logs, tx, 7).unwrap();
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].txn, ty);
        assert_eq!(mgr.held_locks(ty), &[7]);
        let holders = mgr.holders_of(&mut m, N0, 7).unwrap();
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].txn, ty);
    }

    #[test]
    fn release_not_held_is_error() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        assert_eq!(
            mgr.release(&mut m, &mut logs, tx, 7),
            Err(LockError::NotHolder { txn: tx, name: 7 })
        );
    }

    #[test]
    fn already_held_is_idempotent() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap(),
            LockOutcome::AlreadyHeld
        );
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::AlreadyHeld
        );
        assert_eq!(mgr.stats().fast_hits, 2, "both re-acquires served from the chain");
    }

    #[test]
    fn fast_lane_adds_no_log_records_or_traffic() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        let appends = logs.log(N0).stats().appends;
        let reads = m.stats().reads;
        for _ in 0..10 {
            assert_eq!(
                mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap(),
                LockOutcome::AlreadyHeld
            );
        }
        assert_eq!(logs.log(N0).stats().appends, appends, "no new log records");
        assert_eq!(m.stats().reads, reads, "no coherent reads");
        assert_eq!(mgr.stats().fast_hits, 10);
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap();
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Granted
        );
        let holders = mgr.holders_of(&mut m, N0, 7).unwrap();
        assert_eq!(holders[0].mode, LockMode::Exclusive);
        // The chain tracked the strengthened grant: an X re-acquire is now
        // a fast hit, not a queued upgrade.
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::AlreadyHeld
        );
        assert_eq!(mgr.stats().fast_hits, 1);
    }

    #[test]
    fn upgrade_with_other_sharer_waits() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        let ty = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Shared).unwrap();
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Waiting
        );
    }

    #[test]
    fn read_locks_are_logged() {
        // Table 1's "Logging of Read Locks" overhead: the shared request
        // must appear in the acquiring node's log.
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap();
        assert_eq!(logs.log(N1).stats().read_lock_records, 1);
        assert_eq!(logs.log(N0).stats().read_lock_records, 0);
    }

    #[test]
    fn queued_requests_are_logged() {
        let (mut m, mut logs, mut mgr) = setup();
        mgr.acquire(&mut m, &mut logs, t(0, 1), 7, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, t(1, 1), 7, LockMode::Exclusive).unwrap();
        let queued = logs
            .log(N1)
            .records()
            .any(|r| matches!(r.payload, LogPayload::LockAcquire { queued: true, .. }));
        assert!(queued);
    }

    #[test]
    fn release_all_clears_chain() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        for name in [3u64, 4, 5] {
            mgr.acquire(&mut m, &mut logs, tx, name, LockMode::Exclusive).unwrap();
        }
        assert_eq!(mgr.held_locks(tx).len(), 3);
        mgr.release_all(&mut m, &mut logs, tx).unwrap();
        assert!(mgr.held_locks(tx).is_empty());
        for name in [3u64, 4, 5] {
            assert!(mgr.holders_of(&mut m, N0, name).unwrap().is_empty());
        }
    }

    #[test]
    fn early_release_all_reports_modes_and_counts_exclusives() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        let ty = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 3, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, tx, 4, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, tx, 5, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, ty, 3, LockMode::Exclusive).unwrap();
        let (released, promoted) = mgr.early_release_all(&mut m, &mut logs, tx).unwrap();
        assert_eq!(
            released,
            vec![(3, LockMode::Exclusive), (4, LockMode::Shared), (5, LockMode::Exclusive)],
            "released names in acquisition order with their modes"
        );
        assert_eq!(promoted.len(), 1, "ty's queued request was promoted");
        assert_eq!(promoted[0].0, 3);
        assert_eq!(promoted[0].1.txn, ty);
        assert_eq!(mgr.stats().early_released, 2, "only exclusives counted");
        assert!(mgr.held_locks(tx).is_empty());
    }

    #[test]
    fn poll_conflict_leaves_no_queued_state_or_records() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1);
        let ty = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        let appends = logs.log(N1).stats().appends;
        for _ in 0..3 {
            assert_eq!(
                mgr.poll_from(&mut m, &mut logs, ty, 7, LockMode::Exclusive, N1).unwrap(),
                LockOutcome::Waiting
            );
        }
        assert_eq!(logs.log(N1).stats().appends, appends, "polls log nothing");
        assert!(mgr.waiters_of(&mut m, N0, 7).unwrap().is_empty(), "no queued waiter");
        assert_eq!(mgr.stats().waits, 0);
        // Once the holder releases, the next poll is granted normally —
        // with the single LockAcquire record any immediate grant writes.
        mgr.release(&mut m, &mut logs, tx, 7).unwrap();
        assert_eq!(
            mgr.poll_from(&mut m, &mut logs, ty, 7, LockMode::Exclusive, N1).unwrap(),
            LockOutcome::Granted
        );
        assert_eq!(mgr.held_locks(ty), &[7]);
    }

    #[test]
    fn lcb_line_migrates_to_last_toucher() {
        // The §3.1 failure-effect scenario: the last node to acquire a lock
        // holds the only copy of the LCB line.
        let (mut m, mut logs, mut mgr) = setup();
        mgr.acquire(&mut m, &mut logs, t(0, 1), 7, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, t(1, 1), 7, LockMode::Shared).unwrap();
        let line = mgr.table().bucket_line(7);
        assert_eq!(m.exclusive_owner(line), Some(N1));
    }

    #[test]
    fn observability_records_hold_times_and_events() {
        let (mut m, mut logs, mut mgr) = setup();
        m.obs().enable(64);
        let tx = t(0, 1);
        let ty = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        m.advance(N0, 500);
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Waiting
        );
        mgr.release(&mut m, &mut logs, tx, 7).unwrap();
        let h = m.obs().metrics.histogram(HOLD_CYCLES_HISTOGRAM).unwrap();
        assert_eq!(h.count, 1, "one completed hold (the promoted waiter still holds)");
        assert!(h.max >= 500, "hold time includes the advanced cycles: {}", h.max);
        let kinds: Vec<&str> = m.obs().bus.snapshot().iter().map(|r| r.event.kind()).collect();
        for expected in ["lock_acquire", "lock_would_block", "lock_release"] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
    }

    #[test]
    fn overflow_alloc_is_forced_structural_commit() {
        let (mut m, mut logs, mut mgr) = setup();
        // Grab many names colliding into the same bucket until overflow.
        // With 16 buckets and 2 slots each, 33+ distinct names guarantee
        // some bucket overflows.
        for i in 0..64u64 {
            let txn = t(0, i + 1);
            mgr.acquire(&mut m, &mut logs, txn, i + 1, LockMode::Exclusive).unwrap();
        }
        assert!(mgr.stats().overflow_allocs > 0, "expected at least one overflow");
        assert_eq!(logs.log(N0).stats().structural_records, mgr.stats().overflow_allocs);
        // Each structural record was forced (early commit) — physical
        // forces, not merely requests.
        assert_eq!(logs.log(N0).stats().forces, mgr.stats().overflow_allocs);
        let stable = logs.log(N0).stable_records();
        let forced_structural =
            stable.filter(|r| matches!(r.payload, LogPayload::Structural { .. })).count() as u64;
        assert_eq!(forced_structural, mgr.stats().overflow_allocs);
    }

    #[test]
    fn chain_slots_recycle_across_transactions() {
        let (mut m, mut logs, mut mgr) = setup();
        // Sequential transactions each hold a few locks then release all:
        // the arena must stay at the concurrency footprint (1), not grow
        // with transaction count.
        for seq in 1..=200u64 {
            let tx = t(0, seq);
            for name in [3u64, 4, 5] {
                mgr.acquire(&mut m, &mut logs, tx, name, LockMode::Exclusive).unwrap();
            }
            mgr.release_all(&mut m, &mut logs, tx).unwrap();
        }
        let (slots, live) = mgr.chain_footprint();
        assert_eq!(live, 0);
        assert_eq!(slots, 1, "one recycled slot serves every sequential transaction");
    }
}
