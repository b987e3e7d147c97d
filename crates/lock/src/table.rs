//! The shared-memory lock table: hash-addressed bucket lines of LCBs.
//!
//! §4.2.2: *"Using a hash function, the name is translated to an LCB
//! address specific to one lock."* Buckets are cache lines holding
//! [`LcbGeometry::lcbs_per_line`] LCB slots plus an overflow pointer;
//! overflow lines are allocated dynamically — a *structural* change that
//! the manager commits early (§4.2).
//!
//! The table keeps a volatile, open-addressed **placement cache**
//! (name → `(line, slot)`) so the dominant find path costs one coherent
//! line read instead of a chain walk (overflow-pointer read + per-line
//! slot scan). The cache is a hint, never an authority: every hit is
//! verified against the decoded slot under the coherent read, stale
//! entries self-heal by falling back to the chain walk, and recovery
//! invalidates the whole cache before reconstructing lost lines.

use crate::lcb::{self, Lcb, LcbGeometry};
use smdb_sim::{LineId, Machine, MemError, NodeId};
use std::cell::RefCell;

/// Hash a lock name to a bucket index (splitmix64 finalizer: cheap and
/// well-distributed).
fn bucket_hash(name: u64) -> u64 {
    let mut z = name.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Largest slot any supported geometry encodes; bounds the stack buffers
/// used by the allocation-free [`LockTable::write_lcb`] path.
const MAX_SLOT_SIZE: usize = 128;

const CTRL_EMPTY: u8 = 0;
const CTRL_FULL: u8 = 1;
const CTRL_TOMB: u8 = 2;

/// Open-addressed name → `(line, slot)` placement hints (same flat-slot
/// pattern as the sim's `LineIndex`: Fibonacci probing, tombstones,
/// doubling growth at 7/8 load). Volatile host-side bookkeeping — a real
/// implementation would keep this in node-local memory; the simulation
/// charges the coherent verification read on every use.
#[derive(Clone, Debug)]
struct PlacementCache {
    ctrl: Vec<u8>,
    names: Vec<u64>,
    lines: Vec<u64>,
    slots: Vec<u8>,
    len: usize,
    used: usize,
}

impl PlacementCache {
    fn new() -> Self {
        let cap = 64;
        PlacementCache {
            ctrl: vec![CTRL_EMPTY; cap],
            names: vec![0; cap],
            lines: vec![0; cap],
            slots: vec![0; cap],
            len: 0,
            used: 0,
        }
    }

    fn start(&self, name: u64) -> usize {
        let h = (name.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32;
        h as usize & (self.ctrl.len() - 1)
    }

    fn get(&self, name: u64) -> Option<(LineId, usize)> {
        let mask = self.ctrl.len() - 1;
        let mut i = self.start(name);
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => return None,
                CTRL_FULL if self.names[i] == name => {
                    return Some((LineId(self.lines[i]), self.slots[i] as usize));
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn insert(&mut self, name: u64, line: LineId, slot: usize) {
        if (self.used + 1) * 8 >= self.ctrl.len() * 7 {
            self.grow();
        }
        let mask = self.ctrl.len() - 1;
        let mut i = self.start(name);
        let mut first_tomb = None;
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => {
                    let at = first_tomb.unwrap_or(i);
                    if self.ctrl[at] == CTRL_EMPTY {
                        self.used += 1;
                    }
                    self.ctrl[at] = CTRL_FULL;
                    self.names[at] = name;
                    self.lines[at] = line.0;
                    self.slots[at] = slot as u8;
                    self.len += 1;
                    return;
                }
                CTRL_FULL if self.names[i] == name => {
                    self.lines[i] = line.0;
                    self.slots[i] = slot as u8;
                    return;
                }
                CTRL_TOMB => {
                    first_tomb.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn remove(&mut self, name: u64) {
        let mask = self.ctrl.len() - 1;
        let mut i = self.start(name);
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => return,
                CTRL_FULL if self.names[i] == name => {
                    self.ctrl[i] = CTRL_TOMB;
                    self.len -= 1;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn clear(&mut self) {
        self.ctrl.fill(CTRL_EMPTY);
        self.len = 0;
        self.used = 0;
    }

    fn grow(&mut self) {
        let cap = self.ctrl.len() * 2;
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![CTRL_EMPTY; cap]);
        let old_names = std::mem::replace(&mut self.names, vec![0; cap]);
        let old_lines = std::mem::replace(&mut self.lines, vec![0; cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; cap]);
        self.len = 0;
        self.used = 0;
        for i in 0..old_ctrl.len() {
            if old_ctrl[i] == CTRL_FULL {
                self.insert(old_names[i], LineId(old_lines[i]), old_slots[i] as usize);
            }
        }
    }
}

/// The lock table: a fixed array of bucket lines in shared memory, plus
/// dynamically allocated overflow lines.
#[derive(Clone, Debug)]
pub struct LockTable {
    base: u64,
    n_buckets: usize,
    geom: LcbGeometry,
    line_size: usize,
    /// Overflow lines allocated so far, as (parent line, overflow line).
    /// Derived state: each allocation is recorded in a forced structural
    /// log record, so this list is reconstructible from the stable logs;
    /// we keep the materialized copy as volatile bookkeeping.
    overflow_lines: Vec<(LineId, LineId)>,
    /// Volatile placement hints (see module docs). Interior mutability so
    /// read paths (`find`) can maintain it.
    placement: RefCell<PlacementCache>,
}

impl LockTable {
    /// Create the lock table: `n_buckets` zeroed bucket lines starting at
    /// line address `base`, created in `node`'s cache. Pre-allocation means
    /// the base table involves no structural changes at run time.
    pub fn create(
        m: &mut Machine,
        node: NodeId,
        base: u64,
        n_buckets: usize,
        geom: LcbGeometry,
    ) -> Result<LockTable, MemError> {
        assert!(n_buckets > 0, "lock table needs at least one bucket");
        assert!(geom.fits(m.line_size()), "LCB geometry does not fit the cache line size");
        assert!(geom.slot_size() <= MAX_SLOT_SIZE, "slot exceeds the encode stack buffer");
        let zero = vec![0u8; m.line_size()];
        for i in 0..n_buckets {
            m.create_line_at(node, LineId(base + i as u64), &zero)?;
        }
        Ok(LockTable {
            base,
            n_buckets,
            geom,
            line_size: m.line_size(),
            overflow_lines: Vec::new(),
            placement: RefCell::new(PlacementCache::new()),
        })
    }

    /// The LCB geometry in use.
    pub fn geometry(&self) -> &LcbGeometry {
        &self.geom
    }

    /// The bucket line a lock name hashes to.
    pub fn bucket_line(&self, name: u64) -> LineId {
        LineId(self.base + bucket_hash(name) % self.n_buckets as u64)
    }

    /// Every line of the table: base buckets then overflow lines.
    pub fn all_lines(&self) -> Vec<LineId> {
        let mut v: Vec<LineId> =
            (0..self.n_buckets as u64).map(|i| LineId(self.base + i)).collect();
        v.extend(self.overflow_lines.iter().map(|&(_, l)| l));
        v
    }

    /// Drop every placement hint. Recovery calls this before it scrubs and
    /// reconstructs LCB lines: reconstruction repacks slots, so all prior
    /// placements are suspect.
    pub fn invalidate_placement(&self) {
        self.placement.borrow_mut().clear();
    }

    /// Drop the placement hint for one name (slot reclaimed).
    pub fn forget_placement(&self, name: u64) {
        self.placement.borrow_mut().remove(name);
    }

    /// Number of live placement hints (bounded-growth regression checks).
    pub fn placement_len(&self) -> usize {
        self.placement.borrow().len
    }

    /// The overflow line linked from `line`, if any, according to the
    /// coherent contents read by `node`.
    pub fn read_overflow_of(
        &self,
        m: &mut Machine,
        node: NodeId,
        line: LineId,
    ) -> Result<Option<LineId>, MemError> {
        let ptr = m.read_line_with(node, line, |img| lcb::read_overflow(&self.geom, img))?;
        Ok(if ptr == 0 { None } else { Some(LineId(ptr)) })
    }

    /// Walk the bucket chain for `name`, returning the lines in order.
    pub fn chain_for(
        &self,
        m: &mut Machine,
        node: NodeId,
        name: u64,
    ) -> Result<Vec<LineId>, MemError> {
        let mut chain = vec![self.bucket_line(name)];
        loop {
            let last = *chain.last().expect("chain non-empty");
            match self.read_overflow_of(m, node, last)? {
                Some(next) => chain.push(next),
                None => break,
            }
        }
        Ok(chain)
    }

    /// Find the slot holding `name`: returns `(line, slot index)` with the
    /// LCB decoded into `out` — a scratch the caller owns and reuses, so
    /// no decoded LCB is moved out per call. `out` is untouched when the
    /// name is not in the table.
    ///
    /// Fast path: one verified coherent read at the cached placement.
    /// Slow path (cache miss or stale hint): the chain walk, which then
    /// refreshes the cache.
    pub fn find(
        &self,
        m: &mut Machine,
        node: NodeId,
        name: u64,
        out: &mut Lcb,
    ) -> Result<Option<(LineId, usize)>, MemError> {
        let slot_size = self.geom.slot_size();
        let hint = self.placement.borrow().get(name);
        if let Some((line, slot)) = hint {
            let off = self.geom.slot_offset(slot);
            match m.read_line_with(node, line, |img| {
                lcb::decode_slot_if_named(&self.geom, &img[off..off + slot_size], name, out)
            }) {
                Ok(true) => return Ok(Some((line, slot))),
                // Slot empty, reused by another name, or the line is
                // stalled/lost: the hint is stale — heal and fall back to
                // the authoritative walk (which re-raises any real error).
                Ok(false)
                | Err(MemError::LineLost { .. })
                | Err(MemError::Stalled { .. })
                | Err(MemError::NotResident { .. }) => {}
                Err(e) => return Err(e),
            }
            self.placement.borrow_mut().remove(name);
        }
        for line in self.chain_for(m, node, name)? {
            // Scan the line's slots inside the coherent read — no image
            // copy is made.
            let hit = m.read_line_with(node, line, |img| {
                (0..self.geom.lcbs_per_line).find(|&slot| {
                    let off = self.geom.slot_offset(slot);
                    lcb::decode_slot_if_named(&self.geom, &img[off..off + slot_size], name, out)
                })
            })?;
            if let Some(slot) = hit {
                self.placement.borrow_mut().insert(name, line, slot);
                return Ok(Some((line, slot)));
            }
        }
        Ok(None)
    }

    /// Find the first empty slot in the chain for `name`: returns
    /// `(line, slot index)`, or `None` if every line in the chain is full
    /// (the caller must allocate an overflow line).
    pub fn find_empty_slot(
        &self,
        m: &mut Machine,
        node: NodeId,
        name: u64,
    ) -> Result<Option<(LineId, usize)>, MemError> {
        for line in self.chain_for(m, node, name)? {
            let empty = m.read_line_with(node, line, |img| {
                (0..self.geom.lcbs_per_line)
                    .find(|&slot| lcb::slot_name(&img[self.geom.slot_offset(slot)..]) == 0)
            })?;
            if let Some(slot) = empty {
                return Ok(Some((line, slot)));
            }
        }
        Ok(None)
    }

    /// Write `lcb` into `(line, slot)` via a coherent write by `node`.
    /// Allocation-free: encodes into a stack buffer.
    pub fn write_lcb(
        &self,
        m: &mut Machine,
        node: NodeId,
        line: LineId,
        slot: usize,
        lcb_val: &Lcb,
    ) -> Result<(), MemError> {
        let mut buf = [0u8; MAX_SLOT_SIZE];
        let buf = &mut buf[..self.geom.slot_size()];
        lcb::encode_slot(&self.geom, lcb_val, buf);
        m.write(node, line, self.geom.slot_offset(slot), buf)?;
        self.placement.borrow_mut().insert(lcb_val.name, line, slot);
        Ok(())
    }

    /// Clear `(line, slot)` (reclaim the LCB slot).
    pub fn clear_lcb(
        &self,
        m: &mut Machine,
        node: NodeId,
        line: LineId,
        slot: usize,
    ) -> Result<(), MemError> {
        let buf = [0u8; MAX_SLOT_SIZE];
        m.write(node, line, self.geom.slot_offset(slot), &buf[..self.geom.slot_size()])
    }

    /// Allocate and link an overflow line at the end of the chain whose
    /// last line is `tail`. Returns the new line. The *caller* is
    /// responsible for the early-commit protocol (logging a forced
    /// structural record *before* calling, §4.2).
    pub fn alloc_overflow(
        &mut self,
        m: &mut Machine,
        node: NodeId,
        tail: LineId,
    ) -> Result<LineId, MemError> {
        let zero = vec![0u8; self.line_size];
        let new_line = m.alloc_line(node, &zero)?;
        // Link: write the overflow pointer in the tail line.
        let off = self.geom.overflow_offset(self.line_size);
        m.write(node, tail, off, &new_line.0.to_le_bytes())?;
        self.overflow_lines.push((tail, new_line));
        Ok(new_line)
    }

    /// Re-register an overflow link during recovery (the link was replayed
    /// from a structural log record).
    pub fn restore_overflow_registration(&mut self, parent: LineId, line: LineId) {
        if !self.overflow_lines.iter().any(|&(_, l)| l == line) {
            self.overflow_lines.push((parent, line));
        }
    }

    /// Every registered overflow link as `(parent, line)`. The
    /// registration lives in shared memory and survives node crashes, so
    /// recovery can rely on it even when the `LockSpaceAlloc` structural
    /// log record has been reclaimed by checkpoint truncation.
    pub fn overflow_links(&self) -> &[(LineId, LineId)] {
        &self.overflow_lines
    }

    /// Decode every LCB in a raw line image (recovery-time helper).
    pub fn decode_line(&self, img: &[u8]) -> Vec<(usize, Lcb)> {
        let mut out = Vec::new();
        for slot in 0..self.geom.lcbs_per_line {
            let off = self.geom.slot_offset(slot);
            if let Some(l) = lcb::decode_slot(&self.geom, &img[off..off + self.geom.slot_size()]) {
                out.push((slot, l));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcb::LockEntry;
    use crate::mode::LockMode;
    use smdb_sim::{SimConfig, TxnId};

    const N0: NodeId = NodeId(0);
    const BASE: u64 = 1000;

    fn setup() -> (Machine, LockTable) {
        let mut m = Machine::new(SimConfig::new(2));
        let t = LockTable::create(&mut m, N0, BASE, 8, LcbGeometry::co_located()).unwrap();
        (m, t)
    }

    #[test]
    fn bucket_addressing_is_stable_and_in_range() {
        let (_, t) = setup();
        for name in 1..100u64 {
            let b = t.bucket_line(name);
            assert!(b.0 >= BASE && b.0 < BASE + 8);
            assert_eq!(t.bucket_line(name), b, "hash is deterministic");
        }
    }

    #[test]
    fn find_on_empty_table_is_none() {
        let (mut m, t) = setup();
        let mut lcb = Lcb::default();
        assert_eq!(t.find(&mut m, N0, 42, &mut lcb).unwrap(), None);
        assert_eq!(lcb, Lcb::default(), "a miss leaves the scratch alone");
    }

    #[test]
    fn write_then_find_round_trips() {
        let (mut m, t) = setup();
        let (line, slot) = t.find_empty_slot(&mut m, N0, 42).unwrap().unwrap();
        let mut l = Lcb::new(42);
        l.holders.push(LockEntry { txn: TxnId::new(N0, 1), mode: LockMode::Exclusive });
        t.write_lcb(&mut m, N0, line, slot, &l).unwrap();
        // The scratch is reused, not rebuilt: stale contents are replaced.
        let mut found = Lcb::new(9);
        found.waiters.push(LockEntry { txn: TxnId::new(N0, 9), mode: LockMode::Shared });
        assert_eq!(t.find(&mut m, N0, 42, &mut found).unwrap(), Some((line, slot)));
        assert_eq!(found, l);
    }

    #[test]
    fn clear_reclaims_slot() {
        let (mut m, t) = setup();
        let (line, slot) = t.find_empty_slot(&mut m, N0, 42).unwrap().unwrap();
        t.write_lcb(&mut m, N0, line, slot, &Lcb::new(42)).unwrap();
        t.clear_lcb(&mut m, N0, line, slot).unwrap();
        let mut lcb = Lcb::default();
        assert_eq!(t.find(&mut m, N0, 42, &mut lcb).unwrap(), None, "stale hint self-heals");
    }

    #[test]
    fn overflow_chain_extends_bucket() {
        let (mut m, mut t) = setup();
        // Fill the bucket for some name with colliding entries.
        let name = 7u64;
        let bucket = t.bucket_line(name);
        // Occupy all slots of the bucket line with other names.
        for slot in 0..t.geometry().lcbs_per_line {
            t.write_lcb(&mut m, N0, bucket, slot, &Lcb::new(1000 + slot as u64)).unwrap();
        }
        assert_eq!(t.find_empty_slot(&mut m, N0, name).unwrap(), None);
        let of = t.alloc_overflow(&mut m, N0, bucket).unwrap();
        assert!(of.0 >= LineId::DYNAMIC_BASE);
        let (line, slot) = t.find_empty_slot(&mut m, N0, name).unwrap().unwrap();
        assert_eq!(line, of);
        t.write_lcb(&mut m, N0, line, slot, &Lcb::new(name)).unwrap();
        let (fline, _) = t.find(&mut m, N0, name, &mut Lcb::default()).unwrap().unwrap();
        assert_eq!(fline, of);
        assert!(t.all_lines().contains(&of));
        assert_eq!(t.all_lines().len(), 9);
    }

    #[test]
    fn chain_walk_reports_all_lines() {
        let (mut m, mut t) = setup();
        let name = 9u64;
        let bucket = t.bucket_line(name);
        let of1 = t.alloc_overflow(&mut m, N0, bucket).unwrap();
        let of2 = t.alloc_overflow(&mut m, N0, of1).unwrap();
        assert_eq!(t.chain_for(&mut m, N0, name).unwrap(), vec![bucket, of1, of2]);
    }

    #[test]
    fn placement_cache_hits_verify_and_heal() {
        let (mut m, t) = setup();
        let name = 42u64;
        let (line, slot) = t.find_empty_slot(&mut m, N0, name).unwrap().unwrap();
        t.write_lcb(&mut m, N0, line, slot, &Lcb::new(name)).unwrap();
        assert_eq!(t.placement_len(), 1);
        // Reuse the slot for a different name behind the cache's back.
        t.clear_lcb(&mut m, N0, line, slot).unwrap();
        let other = 1042u64;
        t.write_lcb(&mut m, N0, line, slot, &Lcb::new(other)).unwrap();
        let mut lcb = Lcb::default();
        assert_eq!(t.find(&mut m, N0, name, &mut lcb).unwrap(), None, "mismatched hint healed");
        assert!(t.find(&mut m, N0, other, &mut lcb).unwrap().is_some());
        assert_eq!(lcb.name, other);
        t.invalidate_placement();
        assert_eq!(t.placement_len(), 0);
        assert!(t.find(&mut m, N0, other, &mut lcb).unwrap().is_some(), "walk refills the cache");
        assert_eq!(t.placement_len(), 1);
    }

    #[test]
    fn placement_cache_survives_many_names() {
        // Grow through several doublings and stay coherent.
        let mut cache = PlacementCache::new();
        for i in 1..=500u64 {
            cache.insert(i, LineId(i + 7), (i % 2) as usize);
        }
        for i in 1..=500u64 {
            assert_eq!(cache.get(i), Some((LineId(i + 7), (i % 2) as usize)));
        }
        for i in 1..=250u64 {
            cache.remove(i);
        }
        assert_eq!(cache.len, 250);
        for i in 1..=250u64 {
            assert_eq!(cache.get(i), None);
        }
        // Tombstones are reused by fresh inserts.
        for i in 1..=250u64 {
            cache.insert(i, LineId(i), 0);
        }
        assert_eq!(cache.get(17), Some((LineId(17), 0)));
    }
}
