//! Flat hot-path data structures backing the [`crate::Machine`].
//!
//! The coherence directory and the per-node cache maps used to be
//! `BTreeMap`s: every access paid pointer-chasing through tree nodes and
//! every replication paid a fresh `Box<[u8]>`. The paper's KSR-1 substrate
//! pays neither, and neither do we any more:
//!
//! * [`LineIndex`] — an open-addressed hash index mapping a sparse
//!   [`LineId`](crate::LineId) address space to dense `u32` slot numbers.
//!   Linear probing over two flat arrays, Fibonacci hashing, tombstone
//!   deletion, amortised O(1) lookup with a single cache miss in the
//!   common case.
//! * [`HolderColumn`] — which nodes hold a valid copy of each slot's line:
//!   one bitmask of `nodes.div_ceil(64)` words per slot, in one dense
//!   column. Every query walks the bits in ascending `NodeId` order, the
//!   order of the `BTreeSet` the directory used before, so "first holder"
//!   choices are unchanged; a crash is one AND-NOT pass over the column.
//! * [`HolderSet`] — a small sorted node set (inline up to
//!   [`HOLDERS_INLINE`] nodes): a transaction's participants.
//!
//! Line *data* lives in one arena owned by the machine (slot `i` owns the
//! `i*line_size..` window): because the hardware coherence protocol keeps
//! every valid copy byte-identical, one copy per line is observationally
//! equivalent to one copy per holder, and replication/migration become
//! pure membership updates with zero byte traffic and zero allocation.

use crate::ids::NodeId;
use std::cell::Cell;

const EMPTY: u32 = u32::MAX;
const TOMB: u32 = u32::MAX - 1;

/// Open-addressed `LineId → slot` index (linear probing, power-of-two
/// capacity, Fibonacci hashing).
#[derive(Debug)]
pub(crate) struct LineIndex {
    keys: Vec<u64>,
    vals: Vec<u32>,
    mask: usize,
    live: usize,
    tombs: usize,
    /// Cumulative probe steps (diagnostic; mirrored to the
    /// `sim.index_probes` observability counter by the machine).
    probes: Cell<u64>,
}

#[inline]
fn fib_hash(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

impl LineIndex {
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(64);
        LineIndex {
            keys: vec![0; cap],
            vals: vec![EMPTY; cap],
            mask: cap - 1,
            live: 0,
            tombs: 0,
            probes: Cell::new(0),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Current table capacity (diagnostic).
    pub fn capacity(&self) -> usize {
        self.vals.len()
    }

    /// Cumulative probe steps across all lookups/inserts/removes.
    pub fn probe_count(&self) -> u64 {
        self.probes.get()
    }

    /// Slot for `key`, if present. One probe step = one (key, val) pair
    /// inspected.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut i = fib_hash(key, self.mask);
        let mut steps = 1u64;
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                self.probes.set(self.probes.get() + steps);
                return None;
            }
            if v != TOMB && self.keys[i] == key {
                self.probes.set(self.probes.get() + steps);
                return Some(v);
            }
            i = (i + 1) & self.mask;
            steps += 1;
        }
    }

    /// Insert or overwrite `key → slot`.
    pub fn insert(&mut self, key: u64, slot: u32) {
        debug_assert!(slot < TOMB);
        if (self.live + self.tombs + 1) * 8 >= self.capacity() * 7 {
            self.grow();
        }
        let mut i = fib_hash(key, self.mask);
        let mut first_tomb: Option<usize> = None;
        let mut steps = 1u64;
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                let at = first_tomb.unwrap_or(i);
                if first_tomb.is_some() {
                    self.tombs -= 1;
                }
                self.keys[at] = key;
                self.vals[at] = slot;
                self.live += 1;
                self.probes.set(self.probes.get() + steps);
                return;
            }
            if v == TOMB {
                if first_tomb.is_none() {
                    first_tomb = Some(i);
                }
            } else if self.keys[i] == key {
                self.vals[i] = slot;
                self.probes.set(self.probes.get() + steps);
                return;
            }
            i = (i + 1) & self.mask;
            steps += 1;
        }
    }

    /// Remove `key`, returning its slot if present.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = fib_hash(key, self.mask);
        let mut steps = 1u64;
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                self.probes.set(self.probes.get() + steps);
                return None;
            }
            if v != TOMB && self.keys[i] == key {
                self.vals[i] = TOMB;
                self.live -= 1;
                self.tombs += 1;
                self.probes.set(self.probes.get() + steps);
                return Some(v);
            }
            i = (i + 1) & self.mask;
            steps += 1;
        }
    }

    fn grow(&mut self) {
        // Double when mostly live; same size when mostly tombstones.
        let target =
            if self.live * 4 >= self.capacity() { self.capacity() * 2 } else { self.capacity() };
        let old_keys = std::mem::replace(&mut self.keys, vec![0; target]);
        let old_vals = std::mem::replace(&mut self.vals, vec![EMPTY; target]);
        self.mask = target - 1;
        self.live = 0;
        self.tombs = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != EMPTY && v != TOMB {
                // Re-insert without the load-factor check (capacity is
                // already sufficient).
                let mut i = fib_hash(k, self.mask);
                while self.vals[i] != EMPTY {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
                self.live += 1;
            }
        }
    }
}

/// The holder sets of a shard's slots: slot `i` owns the `words` words at
/// `i * words`, and bit `n % 64` of word `n / 64` is set while node `n`
/// holds a valid copy. A free slot's mask is all zero, and so is a lost
/// line's: its every copy died with a crashed node. A machine of at most
/// 64 nodes has one-word masks, and the queries on the coherence hot path
/// read that word directly instead of walking a slice.
#[derive(Debug)]
pub(crate) struct HolderColumn {
    words: usize,
    bits: Vec<u64>,
}

impl HolderColumn {
    /// An empty column for a machine of `nodes` nodes.
    pub fn new(nodes: u16) -> Self {
        HolderColumn { words: (nodes as usize).div_ceil(64), bits: Vec::new() }
    }

    /// Number of slot masks.
    pub fn mask_count(&self) -> usize {
        self.bits.len() / self.words
    }

    /// Append one slot with an empty mask.
    pub fn push_empty(&mut self) {
        self.bits.resize(self.bits.len() + self.words, 0);
    }

    /// Slot `slot`'s mask.
    #[inline]
    pub fn mask(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.words;
        &self.bits[at..at + self.words]
    }

    #[inline]
    fn mask_mut(&mut self, slot: u32) -> &mut [u64] {
        let at = slot as usize * self.words;
        &mut self.bits[at..at + self.words]
    }

    /// Whether `n` holds a copy of slot `slot`'s line.
    #[inline]
    pub fn contains(&self, slot: u32, n: NodeId) -> bool {
        let word = self.bits[slot as usize * self.words + n.0 as usize / 64];
        word >> (n.0 % 64) & 1 != 0
    }

    /// Number of holders.
    #[inline]
    pub fn count(&self, slot: u32) -> usize {
        if self.words == 1 {
            return self.bits[slot as usize].count_ones() as usize;
        }
        self.mask(slot).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the slot has no holder (free, or lost).
    #[inline]
    pub fn is_empty(&self, slot: u32) -> bool {
        if self.words == 1 {
            return self.bits[slot as usize] == 0;
        }
        self.mask(slot).iter().all(|&w| w == 0)
    }

    /// The lowest holder, if any.
    #[inline]
    pub fn first(&self, slot: u32) -> Option<NodeId> {
        let (i, w) = self.mask(slot).iter().enumerate().find(|(_, w)| **w != 0)?;
        Some(NodeId((i * 64) as u16 + w.trailing_zeros() as u16))
    }

    /// The holders, ascending.
    pub fn iter(&self, slot: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.mask(slot).iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as u16;
                    w &= w - 1;
                    NodeId((i * 64) as u16 + bit)
                })
            })
        })
    }

    /// Add `n` to the holders.
    #[inline]
    pub fn insert(&mut self, slot: u32, n: NodeId) {
        self.bits[slot as usize * self.words + n.0 as usize / 64] |= 1 << (n.0 % 64);
    }

    /// Remove `n` from the holders.
    #[inline]
    pub fn remove(&mut self, slot: u32, n: NodeId) {
        self.bits[slot as usize * self.words + n.0 as usize / 64] &= !(1 << (n.0 % 64));
    }

    /// Make `n` the only holder.
    #[inline]
    pub fn set_single(&mut self, slot: u32, n: NodeId) {
        if self.words == 1 {
            self.bits[slot as usize] = 1 << n.0;
            return;
        }
        self.clear(slot);
        self.insert(slot, n);
    }

    /// Drop every holder.
    #[inline]
    pub fn clear(&mut self, slot: u32) {
        self.mask_mut(slot).fill(0);
    }

    /// Remove the nodes of `crashed` (a mask of `words` words) from every
    /// slot, and call `lost` with each slot that held a copy only on them,
    /// in slot order. One pass over the column; free and already-lost
    /// slots have empty masks and never report.
    pub fn purge(&mut self, crashed: &[u64], mut lost: impl FnMut(u32)) {
        debug_assert_eq!(crashed.len(), self.words);
        if let &[c] = crashed {
            for (slot, w) in self.bits.iter_mut().enumerate() {
                let before = *w;
                *w = before & !c;
                if before != 0 && *w == 0 {
                    lost(slot as u32);
                }
            }
            return;
        }
        for (slot, ws) in self.bits.chunks_exact_mut(self.words).enumerate() {
            let (mut before, mut after) = (0, 0);
            for (w, c) in ws.iter_mut().zip(crashed) {
                before |= *w;
                *w &= !c;
                after |= *w;
            }
            if before != 0 && after == 0 {
                lost(slot as u32);
            }
        }
    }
}

/// How many holders fit inline (no heap) in a [`HolderSet`]. Lines shared
/// by more nodes — rare outside write-broadcast torture tests — spill to a
/// `Vec`.
pub const HOLDERS_INLINE: usize = 8;

/// Sorted, deduplicated set of nodes (a transaction's participants).
#[derive(Clone, Debug)]
pub enum HolderSet {
    /// Up to [`HOLDERS_INLINE`] holders, stored inline and sorted.
    Inline {
        /// Sorted holder ids; only `..len` are meaningful.
        arr: [NodeId; HOLDERS_INLINE],
        /// Number of live entries in `arr`.
        len: u8,
    },
    /// More than [`HOLDERS_INLINE`] holders (sorted).
    Spill(Vec<NodeId>),
}

impl HolderSet {
    /// The empty set.
    pub fn empty() -> Self {
        HolderSet::Inline { arr: [NodeId(0); HOLDERS_INLINE], len: 0 }
    }

    /// A singleton set.
    pub fn single(n: NodeId) -> Self {
        let mut arr = [NodeId(0); HOLDERS_INLINE];
        arr[0] = n;
        HolderSet::Inline { arr, len: 1 }
    }

    /// The holders, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        match self {
            HolderSet::Inline { arr, len } => &arr[..*len as usize],
            HolderSet::Spill(v) => v,
        }
    }

    /// Number of holders.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            HolderSet::Inline { len, .. } => *len as usize,
            HolderSet::Spill(v) => v.len(),
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `n` holds a copy.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.as_slice().binary_search(&n).is_ok()
    }

    /// Smallest holder id, if any (the "first holder" the directory's
    /// `BTreeSet` used to yield).
    #[inline]
    pub fn first(&self) -> Option<NodeId> {
        self.as_slice().first().copied()
    }

    /// Insert `n`, keeping the set sorted. No-op if present.
    pub fn insert(&mut self, n: NodeId) {
        let slice = self.as_slice();
        let pos = match slice.binary_search(&n) {
            Ok(_) => return,
            Err(p) => p,
        };
        match self {
            HolderSet::Inline { arr, len } => {
                let l = *len as usize;
                if l < HOLDERS_INLINE {
                    arr.copy_within(pos..l, pos + 1);
                    arr[pos] = n;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(l + 1);
                    v.extend_from_slice(&arr[..l]);
                    v.insert(pos, n);
                    *self = HolderSet::Spill(v);
                }
            }
            HolderSet::Spill(v) => v.insert(pos, n),
        }
    }

    /// Remove `n` if present.
    pub fn remove(&mut self, n: NodeId) {
        let pos = match self.as_slice().binary_search(&n) {
            Ok(p) => p,
            Err(_) => return,
        };
        match self {
            HolderSet::Inline { arr, len } => {
                let l = *len as usize;
                arr.copy_within(pos + 1..l, pos);
                *len -= 1;
            }
            HolderSet::Spill(v) => {
                v.remove(pos);
                // Shrink back inline so long-lived lines don't pin spill
                // allocations after a crash thins their holder set.
                if v.len() <= HOLDERS_INLINE {
                    let mut arr = [NodeId(0); HOLDERS_INLINE];
                    arr[..v.len()].copy_from_slice(v);
                    *self = HolderSet::Inline { arr, len: v.len() as u8 };
                }
            }
        }
    }

    /// Keep only holders satisfying `pred` (order preserved).
    pub fn retain(&mut self, mut pred: impl FnMut(NodeId) -> bool) {
        match self {
            HolderSet::Inline { arr, len } => {
                let l = *len as usize;
                let mut w = 0usize;
                for r in 0..l {
                    if pred(arr[r]) {
                        arr[w] = arr[r];
                        w += 1;
                    }
                }
                *len = w as u8;
            }
            HolderSet::Spill(v) => {
                v.retain(|n| pred(*n));
                if v.len() <= HOLDERS_INLINE {
                    let mut arr = [NodeId(0); HOLDERS_INLINE];
                    arr[..v.len()].copy_from_slice(v);
                    *self = HolderSet::Inline { arr, len: v.len() as u8 };
                }
            }
        }
    }

    /// Drop every holder.
    pub fn clear(&mut self) {
        *self = HolderSet::empty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_and_overwrite() {
        let mut ix = LineIndex::with_capacity(4);
        for k in 0..500u64 {
            ix.insert(k * 7, k as u32);
        }
        assert_eq!(ix.len(), 500);
        for k in 0..500u64 {
            assert_eq!(ix.get(k * 7), Some(k as u32));
        }
        assert_eq!(ix.get(1), None);
        ix.insert(7, 999);
        assert_eq!(ix.get(7), Some(999));
        assert_eq!(ix.len(), 500, "overwrite is not an insert");
        assert!(ix.probe_count() > 0);
    }

    #[test]
    fn index_remove_and_reinsert_through_tombstones() {
        let mut ix = LineIndex::with_capacity(4);
        for k in 0..200u64 {
            ix.insert(k, k as u32);
        }
        for k in (0..200u64).step_by(2) {
            assert_eq!(ix.remove(k), Some(k as u32));
        }
        assert_eq!(ix.len(), 100);
        for k in 0..200u64 {
            assert_eq!(ix.get(k), if k % 2 == 1 { Some(k as u32) } else { None });
        }
        // Reinsertion reuses tombstoned space and stays findable.
        for k in (0..200u64).step_by(2) {
            ix.insert(k, (k + 1000) as u32);
        }
        for k in (0..200u64).step_by(2) {
            assert_eq!(ix.get(k), Some((k + 1000) as u32));
        }
        assert_eq!(ix.remove(99999), None);
    }

    #[test]
    fn index_sparse_keys() {
        // The DYNAMIC_BASE split means keys span the full u64 range.
        let mut ix = LineIndex::with_capacity(8);
        let keys = [0u64, 1, u64::from(u32::MAX), 1 << 40, (1 << 40) + 1, u64::MAX - 2];
        for (i, k) in keys.iter().enumerate() {
            ix.insert(*k, i as u32);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(ix.get(*k), Some(i as u32));
        }
    }

    #[test]
    fn holder_set_sorted_inline_and_spill() {
        let mut h = HolderSet::empty();
        assert!(h.is_empty());
        for n in [5u16, 1, 9, 3, 7, 2, 8, 6] {
            h.insert(NodeId(n));
        }
        assert_eq!(h.len(), 8);
        assert!(matches!(h, HolderSet::Inline { .. }));
        assert_eq!(
            h.as_slice().iter().map(|n| n.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 5, 6, 7, 8, 9]
        );
        h.insert(NodeId(4)); // ninth holder spills
        assert!(matches!(h, HolderSet::Spill(_)));
        assert_eq!(h.len(), 9);
        assert_eq!(h.first(), Some(NodeId(1)));
        h.insert(NodeId(4)); // dedup
        assert_eq!(h.len(), 9);
        h.remove(NodeId(1));
        assert!(matches!(h, HolderSet::Inline { .. }), "shrinks back inline");
        assert_eq!(h.first(), Some(NodeId(2)));
        h.retain(|n| n.0 % 2 == 0);
        assert_eq!(h.as_slice().iter().map(|n| n.0).collect::<Vec<_>>(), vec![2, 4, 6, 8]);
        assert!(h.contains(NodeId(4)) && !h.contains(NodeId(5)));
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn holder_column_spans_words_in_ascending_order() {
        let mut col = HolderColumn::new(130);
        for _ in 0..3 {
            col.push_empty();
        }
        assert_eq!((col.mask_count(), col.mask(0).len()), (3, 3));
        for n in [129u16, 0, 64, 63] {
            col.insert(1, NodeId(n));
        }
        col.set_single(2, NodeId(70));
        assert_eq!(col.iter(1).map(|n| n.0).collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!((col.count(1), col.first(1)), (4, Some(NodeId(0))));
        assert!(col.contains(1, NodeId(64)) && !col.contains(1, NodeId(65)));
        assert!(col.is_empty(0) && col.first(0).is_none());
        col.remove(1, NodeId(0));
        assert_eq!(col.first(1), Some(NodeId(63)));
        // Crash 63, 64, 70 and 129: slot 1 and slot 2 lose their last
        // copies, slot 0 was empty already.
        let mut crashed = vec![0u64; 3];
        for n in [63usize, 64, 70, 129] {
            crashed[n / 64] |= 1 << (n % 64);
        }
        let mut lost = Vec::new();
        col.purge(&crashed, |slot| lost.push(slot));
        assert_eq!(lost, vec![1, 2]);
        assert!((0..3).all(|s| col.is_empty(s)));
    }

    #[test]
    fn holder_column_one_word_purge_reports_sole_holders_only() {
        let mut col = HolderColumn::new(8);
        for _ in 0..3 {
            col.push_empty();
        }
        col.set_single(0, NodeId(3));
        col.set_single(1, NodeId(3));
        col.insert(1, NodeId(5));
        let mut lost = Vec::new();
        col.purge(&[1 << 3], |slot| lost.push(slot));
        assert_eq!(lost, vec![0]);
        assert_eq!(col.iter(1).collect::<Vec<_>>(), vec![NodeId(5)]);
    }
}
