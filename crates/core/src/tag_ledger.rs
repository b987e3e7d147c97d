//! The per-node undo-tag ledger: which heap lines may carry a node's undo
//! tag, in a cached copy or in the stable image.
//!
//! Selective Redo undoes a crashed node's migrated updates by scanning the
//! survivors' caches for records tagged with its id (§4.1.2). The ledger
//! names the lines that scan has to look at, so restart work follows what
//! the crashed node wrote, not the size of the caches.
//!
//! **Set** wherever a non-null tag is written: a forward update
//! ([`SmDb::update_on`](crate::SmDb::update_on)), a heap-plan redo entry
//! that keeps its writer's live tag, and inside an epoch lane, whose ledger
//! the barrier ORs into the engine's. **Cleared** by the node's own
//! restart tag scan and by every [`SmDb::checkpoint`](crate::SmDb::checkpoint),
//! through one predicate (`SmDb::prune_ledgers`): a line whose cached copy
//! and stable image carry no tag of the node loses the node's bit. No
//! pending plan entry can carry that tag either: after a tag scan the
//! entries carry live tags and the node is down, and a checkpoint drains
//! every entry first. A stable image gains a tag only when a tagged cached
//! copy is flushed, and that copy's bit is still set; an install or a
//! fault-in copies the stable image's tags. So by induction every line that
//! carries a node's tag anywhere has the node's bit set: the ledger is a
//! superset of the tagged lines, through steals, reinstalls, checkpoints
//! and forward faults. A checkpoint flushes every page, so after it a
//! ledger names only the lines whose tag outlived the flush (an update
//! still in flight, or a stable image whose tag a commit cleared in the
//! cache alone): a tag scan visits one checkpoint interval's writes, not
//! the node's whole history.

use smdb_sim::{LineId, NodeId};

/// One bitset over line addresses per node. A node's words are allocated
/// as its bits are first set, so an epoch lane's ledger costs nothing
/// until the lane tags a line.
#[derive(Debug)]
pub(crate) struct TagLedger {
    bits: Vec<Vec<u64>>,
}

impl TagLedger {
    pub(crate) fn new(nodes: u16) -> Self {
        TagLedger { bits: vec![Vec::new(); nodes as usize] }
    }

    /// `line` may carry `tag` (a node id) from now on.
    pub(crate) fn set(&mut self, tag: u16, line: LineId) {
        let words = &mut self.bits[tag as usize];
        let w = (line.0 / 64) as usize;
        if words.len() <= w {
            words.resize(w + 1, 0);
        }
        words[w] |= 1 << (line.0 % 64);
    }

    /// Whether `line` may carry `tag`.
    pub(crate) fn has(&self, tag: u16, line: LineId) -> bool {
        let w = (line.0 / 64) as usize;
        self.bits[tag as usize].get(w).is_some_and(|word| word & (1 << (line.0 % 64)) != 0)
    }

    /// `line` carries `tag` nowhere any more.
    pub(crate) fn clear(&mut self, tag: u16, line: LineId) {
        if let Some(word) = self.bits[tag as usize].get_mut((line.0 / 64) as usize) {
            *word &= !(1 << (line.0 % 64));
        }
    }

    /// OR `other` (an epoch lane's ledger) into this one.
    pub(crate) fn absorb(&mut self, other: &TagLedger) {
        for (mine, theirs) in self.bits.iter_mut().zip(&other.bits) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m |= t;
            }
        }
    }

    /// The lines in any of `nodes`' ledgers, ascending.
    pub(crate) fn union<'a>(&self, nodes: impl Iterator<Item = &'a NodeId> + Clone) -> Vec<LineId> {
        let len = nodes.clone().map(|n| self.bits[n.0 as usize].len()).max().unwrap_or(0);
        let mut lines = Vec::new();
        for w in 0..len {
            let mut word = nodes
                .clone()
                .fold(0, |acc, n| acc | self.bits[n.0 as usize].get(w).copied().unwrap_or(0));
            while word != 0 {
                lines.push(LineId(w as u64 * 64 + word.trailing_zeros() as u64));
                word &= word - 1;
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_union_absorb() {
        let mut a = TagLedger::new(3);
        a.set(0, LineId(5));
        a.set(1, LineId(130));
        a.set(1, LineId(5));
        assert!(a.has(0, LineId(5)) && a.has(1, LineId(130)) && !a.has(2, LineId(5)));
        assert!(!a.has(0, LineId(1 << 20)), "past the words is unset");
        let both = [NodeId(0), NodeId(1)];
        assert_eq!(a.union(both.iter()), vec![LineId(5), LineId(130)]);
        assert_eq!(a.union([NodeId(2)].iter()), vec![]);
        a.clear(1, LineId(5));
        a.clear(2, LineId(9)); // no words yet: a no-op
        assert_eq!(a.union([NodeId(1)].iter()), vec![LineId(130)]);
        let mut lane = TagLedger::new(3);
        lane.set(2, LineId(700));
        a.absorb(&lane);
        assert_eq!(a.union([NodeId(2)].iter()), vec![LineId(700)]);
        assert!(a.has(0, LineId(5)), "absorbing keeps what was set");
    }
}
