//! Lock control blocks and their cache-line encoding.
//!
//! §4.2.2: *"An LCB stores the current mode of the lock, plus two
//! transaction lists, one containing the current holder(s) of the lock,
//! the other containing any transaction(s) waiting for the lock."* LCBs
//! live in shared memory: here they are serialized into simulated cache
//! lines, so the co-location of lock information for many transactions in
//! one line — the root of the recovery problem — is physically real in the
//! simulation.

use crate::mode::LockMode;
use smdb_sim::TxnId;

/// One grant or wait entry: the transaction and the mode it holds/requests.
///
/// The transaction id encodes the node id (§4.2.2), which is what lets
/// recovery classify surviving entries by the fate of their node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockEntry {
    /// Holding or waiting transaction.
    pub txn: TxnId,
    /// Granted or requested mode.
    pub mode: LockMode,
}

/// Layout parameters for LCBs within cache lines.
///
/// `lcbs_per_line > 1` co-locates several locks' state in one line — the
/// paper's §3.1 failure scenario. `lcbs_per_line == 1` is the layout the
/// paper recommends for recovery simplicity: *"it may be feasible to ensure
/// that an LCB spans at most one cache line ... a node crash will either
/// destroy all or none of a specific LCB."*
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LcbGeometry {
    /// Maximum concurrent holders encodable per LCB.
    pub max_holders: usize,
    /// Maximum queued waiters encodable per LCB.
    pub max_waiters: usize,
    /// LCB slots per cache line.
    pub lcbs_per_line: usize,
}

/// Bytes per (txn, mode) entry: 8-byte txn id + 1-byte mode.
const ENTRY_SIZE: usize = 9;
/// Per-slot header: 8-byte name + holder count + waiter count.
const SLOT_HEADER: usize = 10;
/// Trailing overflow pointer (line address of the next bucket in the
/// chain; 0 = none).
const OVERFLOW_PTR_SIZE: usize = 8;

impl LcbGeometry {
    /// Default layout: two LCBs per 128-byte line (lock state for several
    /// locks — and thus potentially many transactions — shares a line).
    pub fn co_located() -> Self {
        LcbGeometry { max_holders: 3, max_waiters: 2, lcbs_per_line: 2 }
    }

    /// One LCB per line with larger queues: the recovery-friendly layout.
    pub fn one_per_line() -> Self {
        LcbGeometry { max_holders: 10, max_waiters: 2, lcbs_per_line: 1 }
    }

    /// Serialized size of one LCB slot.
    pub fn slot_size(&self) -> usize {
        SLOT_HEADER + ENTRY_SIZE * (self.max_holders + self.max_waiters)
    }

    /// Bytes required per bucket line.
    pub fn line_bytes_needed(&self) -> usize {
        self.slot_size() * self.lcbs_per_line + OVERFLOW_PTR_SIZE
    }

    /// Whether this geometry fits in `line_size`-byte cache lines.
    pub fn fits(&self, line_size: usize) -> bool {
        self.line_bytes_needed() <= line_size
    }

    /// Byte offset of slot `i` within the bucket line.
    pub fn slot_offset(&self, i: usize) -> usize {
        assert!(i < self.lcbs_per_line);
        i * self.slot_size()
    }

    /// Byte offset of the overflow pointer within the bucket line.
    pub fn overflow_offset(&self, line_size: usize) -> usize {
        line_size - OVERFLOW_PTR_SIZE
    }
}

/// Upper bound on entries an [`EntryVec`] holds inline: the largest
/// holder capacity of any geometry ([`LcbGeometry::one_per_line`]'s 10)
/// plus slack for transient promote states.
pub const MAX_ENTRIES: usize = 12;

const EMPTY_ENTRY: LockEntry = LockEntry { txn: TxnId(0), mode: LockMode::Shared };

/// Fixed-capacity inline entry list: the LCB's holder/waiter arrays
/// without a heap allocation per decode. Capacity is bounded by the line
/// geometry (an LCB that outgrows its slot is rejected with
/// `CapacityExceeded` before it ever reaches this size), so spilling to
/// the heap is never needed.
#[derive(Clone, Copy)]
pub struct EntryVec {
    entries: [LockEntry; MAX_ENTRIES],
    len: u8,
}

impl EntryVec {
    /// An empty list.
    pub const fn new() -> Self {
        EntryVec { entries: [EMPTY_ENTRY; MAX_ENTRIES], len: 0 }
    }

    /// Append an entry. Panics past [`MAX_ENTRIES`] — callers enforce the
    /// (smaller) geometry capacity first.
    pub fn push(&mut self, e: LockEntry) {
        assert!((self.len as usize) < MAX_ENTRIES, "EntryVec overflow");
        self.entries[self.len as usize] = e;
        self.len += 1;
    }

    /// Drop every entry (the backing array is left as it is).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Remove and return the entry at `i`, shifting later entries down
    /// (order-preserving, like `Vec::remove`).
    pub fn remove(&mut self, i: usize) -> LockEntry {
        let n = self.len as usize;
        assert!(i < n, "EntryVec remove out of bounds");
        let e = self.entries[i];
        self.entries.copy_within(i + 1..n, i);
        self.len -= 1;
        e
    }

    /// Keep only entries matching the predicate (order-preserving).
    pub fn retain(&mut self, mut keep: impl FnMut(&LockEntry) -> bool) {
        let mut w = 0usize;
        for r in 0..self.len as usize {
            if keep(&self.entries[r]) {
                self.entries[w] = self.entries[r];
                w += 1;
            }
        }
        self.len = w as u8;
    }
}

impl Default for EntryVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for EntryVec {
    type Target = [LockEntry];
    fn deref(&self) -> &[LockEntry] {
        &self.entries[..self.len as usize]
    }
}

impl std::ops::DerefMut for EntryVec {
    fn deref_mut(&mut self) -> &mut [LockEntry] {
        let n = self.len as usize;
        &mut self.entries[..n]
    }
}

impl PartialEq for EntryVec {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for EntryVec {}

impl std::fmt::Debug for EntryVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a EntryVec {
    type Item = &'a LockEntry;
    type IntoIter = std::slice::Iter<'a, LockEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// In-memory (decoded) view of one lock control block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lcb {
    /// Lock name (non-zero; 0 marks an empty slot on the wire).
    pub name: u64,
    /// Current holders.
    pub holders: EntryVec,
    /// FIFO wait queue.
    pub waiters: EntryVec,
}

impl Lcb {
    /// A fresh LCB for `name` with no holders or waiters.
    pub fn new(name: u64) -> Self {
        assert!(name != 0, "lock name 0 is reserved for empty slots");
        Lcb { name, holders: EntryVec::new(), waiters: EntryVec::new() }
    }

    /// Turn this LCB into a fresh one for `name` in place — what
    /// [`Lcb::new`] builds, without constructing the entry arrays again.
    pub fn reset(&mut self, name: u64) {
        assert!(name != 0, "lock name 0 is reserved for empty slots");
        self.name = name;
        self.holders.clear();
        self.waiters.clear();
    }

    /// Whether a request in `mode` can be granted now: compatible with all
    /// holders, and no conflicting waiter is queued ahead (§4.2.2: *"If the
    /// requested mode is compatible with the mode stored in the LCB, and
    /// there are no conflicting waiters"*).
    pub fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        let compat_holders = self.holders.iter().all(|e| e.txn == txn || mode.compatible(e.mode));
        let no_conflicting_waiters =
            self.waiters.iter().all(|w| mode.compatible(w.mode) && w.mode.compatible(mode));
        compat_holders && (self.waiters.is_empty() || no_conflicting_waiters)
    }

    /// Whether `txn` already holds the lock (in any mode).
    pub fn holds(&self, txn: TxnId) -> bool {
        self.holders.iter().any(|e| e.txn == txn)
    }

    /// Remove `txn` from holders and waiters. Returns true if anything was
    /// removed.
    pub fn remove(&mut self, txn: TxnId) -> bool {
        let before = self.holders.len() + self.waiters.len();
        self.holders.retain(|e| e.txn != txn);
        self.waiters.retain(|e| e.txn != txn);
        before != self.holders.len() + self.waiters.len()
    }

    /// Grant any waiters that became compatible (FIFO, stopping at the
    /// first incompatible waiter). Returns the promoted entries. A queued
    /// *upgrade* (the waiter already holds the lock in a weaker mode)
    /// strengthens the existing grant rather than duplicating it.
    ///
    /// `max_holders` bounds the holder array: a promotion that would
    /// create a *new* holder entry past the geometry's capacity stops the
    /// FIFO scan (the waiter stays queued for a later release), exactly
    /// like an incompatible waiter. Without the bound, cancelling an
    /// exclusive waiter queued behind a full set of shared holders would
    /// promote a shared waiter into a fourth holder slot and overflow the
    /// encoded LCB. Upgrades never grow the array and are always allowed.
    pub fn promote_waiters(&mut self, max_holders: usize) -> Vec<LockEntry> {
        let mut promoted = Vec::new();
        while let Some(&w) = self.waiters.first() {
            if !self.can_grant_ignoring_waiters(w.txn, w.mode) {
                break;
            }
            let upgrade = self.holders.iter().any(|h| h.txn == w.txn);
            if !upgrade && self.holders.len() >= max_holders {
                break;
            }
            self.waiters.remove(0);
            if let Some(h) = self.holders.iter_mut().find(|h| h.txn == w.txn) {
                h.mode = h.mode.max(w.mode);
            } else {
                self.holders.push(w);
            }
            promoted.push(w);
        }
        promoted
    }

    fn can_grant_ignoring_waiters(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders.iter().all(|e| e.txn == txn || mode.compatible(e.mode))
    }

    /// Whether the LCB carries no state and its slot can be reclaimed.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

fn encode_entry(buf: &mut [u8], e: &LockEntry) {
    buf[..8].copy_from_slice(&e.txn.0.to_le_bytes());
    buf[8] = e.mode.to_byte();
}

fn decode_entry(buf: &[u8]) -> LockEntry {
    let txn = TxnId(u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")));
    let mode = LockMode::from_byte(buf[8]).expect("valid mode byte in encoded entry");
    LockEntry { txn, mode }
}

/// Encode an LCB into its slot within a bucket line buffer. Panics if the
/// LCB exceeds the geometry's capacities (the manager checks before
/// mutating).
pub fn encode_slot(geom: &LcbGeometry, lcb: &Lcb, slot_buf: &mut [u8]) {
    assert!(lcb.holders.len() <= geom.max_holders, "holder overflow");
    assert!(lcb.waiters.len() <= geom.max_waiters, "waiter overflow");
    slot_buf[..geom.slot_size()].fill(0);
    slot_buf[..8].copy_from_slice(&lcb.name.to_le_bytes());
    slot_buf[8] = lcb.holders.len() as u8;
    slot_buf[9] = lcb.waiters.len() as u8;
    let mut off = SLOT_HEADER;
    for e in &lcb.holders {
        encode_entry(&mut slot_buf[off..off + ENTRY_SIZE], e);
        off += ENTRY_SIZE;
    }
    off = SLOT_HEADER + ENTRY_SIZE * geom.max_holders;
    for e in &lcb.waiters {
        encode_entry(&mut slot_buf[off..off + ENTRY_SIZE], e);
        off += ENTRY_SIZE;
    }
}

/// Clear a slot (empty LCB).
pub fn clear_slot(geom: &LcbGeometry, slot_buf: &mut [u8]) {
    slot_buf[..geom.slot_size()].fill(0);
}

/// The lock name stored in a slot buffer; 0 marks an empty slot.
pub fn slot_name(slot_buf: &[u8]) -> u64 {
    u64::from_le_bytes(slot_buf[..8].try_into().expect("8 bytes"))
}

/// Decode the LCB in a slot buffer; `None` if the slot is empty.
pub fn decode_slot(geom: &LcbGeometry, slot_buf: &[u8]) -> Option<Lcb> {
    let name = slot_name(slot_buf);
    if name == 0 {
        return None;
    }
    let mut lcb = Lcb::new(name);
    decode_entries(geom, slot_buf, &mut lcb);
    Some(lcb)
}

/// Decode the slot into `out` if it holds the LCB named `name`;
/// returns whether it did. `out` is untouched on a miss, and reused — not
/// rebuilt — on a hit: the lock manager's find path decodes into one
/// scratch LCB it owns instead of moving a fresh 400-byte value out.
pub fn decode_slot_if_named(geom: &LcbGeometry, slot_buf: &[u8], name: u64, out: &mut Lcb) -> bool {
    if name == 0 || slot_name(slot_buf) != name {
        return false;
    }
    out.reset(name);
    decode_entries(geom, slot_buf, out);
    true
}

/// Append the holder and waiter entries of a non-empty slot to `lcb`.
fn decode_entries(geom: &LcbGeometry, slot_buf: &[u8], lcb: &mut Lcb) {
    let n_holders = slot_buf[8] as usize;
    let n_waiters = slot_buf[9] as usize;
    let mut off = SLOT_HEADER;
    for _ in 0..n_holders {
        lcb.holders.push(decode_entry(&slot_buf[off..off + ENTRY_SIZE]));
        off += ENTRY_SIZE;
    }
    off = SLOT_HEADER + ENTRY_SIZE * geom.max_holders;
    for _ in 0..n_waiters {
        lcb.waiters.push(decode_entry(&slot_buf[off..off + ENTRY_SIZE]));
        off += ENTRY_SIZE;
    }
}

/// Read the overflow pointer from a bucket line image.
pub fn read_overflow(geom: &LcbGeometry, line: &[u8]) -> u64 {
    let off = geom.overflow_offset(line.len());
    u64::from_le_bytes(line[off..off + 8].try_into().expect("8 bytes"))
}

/// Write the overflow pointer into a bucket line image.
pub fn write_overflow(geom: &LcbGeometry, line: &mut [u8], ptr: u64) {
    let off = geom.overflow_offset(line.len());
    line[off..off + 8].copy_from_slice(&ptr.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_sim::NodeId;

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn geometries_fit_128_byte_lines() {
        assert!(LcbGeometry::co_located().fits(128));
        assert!(LcbGeometry::one_per_line().fits(128));
    }

    #[test]
    fn slot_round_trip() {
        let geom = LcbGeometry::co_located();
        let mut lcb = Lcb::new(0xDEAD);
        lcb.holders.push(LockEntry { txn: t(0, 1), mode: LockMode::Shared });
        lcb.holders.push(LockEntry { txn: t(1, 4), mode: LockMode::Shared });
        lcb.waiters.push(LockEntry { txn: t(2, 9), mode: LockMode::Exclusive });
        let mut buf = vec![0u8; geom.slot_size()];
        encode_slot(&geom, &lcb, &mut buf);
        assert_eq!(decode_slot(&geom, &buf), Some(lcb));
    }

    #[test]
    fn empty_slot_decodes_none() {
        let geom = LcbGeometry::co_located();
        let buf = vec![0u8; geom.slot_size()];
        assert_eq!(decode_slot(&geom, &buf), None);
    }

    #[test]
    fn clear_slot_empties() {
        let geom = LcbGeometry::co_located();
        let mut buf = vec![0u8; geom.slot_size()];
        encode_slot(&geom, &Lcb::new(5), &mut buf);
        assert!(decode_slot(&geom, &buf).is_some());
        clear_slot(&geom, &mut buf);
        assert!(decode_slot(&geom, &buf).is_none());
    }

    #[test]
    fn grant_rules() {
        let mut lcb = Lcb::new(1);
        assert!(lcb.can_grant(t(0, 1), LockMode::Exclusive));
        lcb.holders.push(LockEntry { txn: t(0, 1), mode: LockMode::Shared });
        // Compatible share.
        assert!(lcb.can_grant(t(1, 2), LockMode::Shared));
        // Conflicting exclusive.
        assert!(!lcb.can_grant(t(1, 2), LockMode::Exclusive));
        // A queued exclusive waiter blocks new shares (no starvation).
        lcb.waiters.push(LockEntry { txn: t(2, 3), mode: LockMode::Exclusive });
        assert!(!lcb.can_grant(t(3, 4), LockMode::Shared));
    }

    #[test]
    fn promote_waiters_fifo() {
        let mut lcb = Lcb::new(1);
        lcb.holders.push(LockEntry { txn: t(0, 1), mode: LockMode::Exclusive });
        lcb.waiters.push(LockEntry { txn: t(1, 2), mode: LockMode::Shared });
        lcb.waiters.push(LockEntry { txn: t(2, 3), mode: LockMode::Shared });
        lcb.waiters.push(LockEntry { txn: t(3, 4), mode: LockMode::Exclusive });
        assert!(lcb.promote_waiters(usize::MAX).is_empty(), "holder still present");
        lcb.remove(t(0, 1));
        let promoted = lcb.promote_waiters(usize::MAX);
        assert_eq!(promoted.len(), 2, "both shares promoted, exclusive still waits");
        assert_eq!(lcb.waiters.len(), 1);
        lcb.remove(t(1, 2));
        lcb.remove(t(2, 3));
        assert_eq!(lcb.promote_waiters(usize::MAX).len(), 1);
        assert!(lcb.waiters.is_empty());
    }

    #[test]
    fn promotion_respects_holder_capacity() {
        // Three sharers fill a co_located slot; an exclusive waiter queues,
        // then a fourth sharer queues behind it (no-starvation rule). When
        // the exclusive waiter withdraws, the sharer is compatible but
        // there is no holder slot free: it must stay queued, not overflow.
        let geom = LcbGeometry::co_located();
        let mut lcb = Lcb::new(1);
        for seq in 1..=3 {
            lcb.holders.push(LockEntry { txn: t(seq as u16, seq), mode: LockMode::Shared });
        }
        lcb.waiters.push(LockEntry { txn: t(4, 4), mode: LockMode::Shared });
        assert!(lcb.promote_waiters(geom.max_holders).is_empty(), "no free holder slot");
        assert_eq!(lcb.waiters.len(), 1);
        // A slot frees up: now the promotion goes through.
        lcb.remove(t(1, 1));
        assert_eq!(lcb.promote_waiters(geom.max_holders).len(), 1);
        assert_eq!(lcb.holders.len(), geom.max_holders);
        assert!(lcb.waiters.is_empty());
    }

    #[test]
    fn remove_reports_change() {
        let mut lcb = Lcb::new(1);
        lcb.holders.push(LockEntry { txn: t(0, 1), mode: LockMode::Shared });
        assert!(lcb.remove(t(0, 1)));
        assert!(!lcb.remove(t(0, 1)));
        assert!(lcb.is_empty());
    }

    #[test]
    fn overflow_pointer_round_trip() {
        let geom = LcbGeometry::co_located();
        let mut line = vec![0u8; 128];
        assert_eq!(read_overflow(&geom, &line), 0);
        write_overflow(&geom, &mut line, 0xABCD_EF01);
        assert_eq!(read_overflow(&geom, &line), 0xABCD_EF01);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_name_rejected() {
        let _ = Lcb::new(0);
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;
    use smdb_sim::NodeId;

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn promoting_queued_upgrade_strengthens_in_place() {
        let mut lcb = Lcb::new(1);
        lcb.holders.push(LockEntry { txn: t(0, 1), mode: LockMode::Shared });
        lcb.holders.push(LockEntry { txn: t(1, 2), mode: LockMode::Shared });
        // t(0,1) queues an upgrade to X.
        lcb.waiters.push(LockEntry { txn: t(0, 1), mode: LockMode::Exclusive });
        // The other sharer leaves.
        lcb.remove(t(1, 2));
        let promoted = lcb.promote_waiters(usize::MAX);
        assert_eq!(promoted.len(), 1);
        assert_eq!(lcb.holders.len(), 1, "no duplicate holder entry");
        assert_eq!(lcb.holders[0].mode, LockMode::Exclusive);
        assert!(lcb.waiters.is_empty());
    }
}
