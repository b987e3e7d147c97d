//! The shared-memory (page, LSN) table enforcing WAL under Volatile LBM.
//!
//! Paper §6: *"Each updating node remembers an LSN equal to its last update
//! to page p. Page p can be written to the StableDB only after all nodes
//! which have updated p have forced their logs up to this LSN. The
//! determination of whether any other node is required to force its log can
//! be computed very fast by maintaining this table of (page,LSN) pairs in
//! shared memory. Recovery problems for this table can be avoided since
//! this information is written only by the local node, and, in the event of
//! a node crash, will be reinitialized on the crashed node."*

use crate::lsn::Lsn;
use smdb_sim::NodeId;
use smdb_storage::PageId;
use std::collections::{btree_map, BTreeMap};
use std::ops::RangeInclusive;

/// Tracks, per page, the last update LSN of every node that has updated it
/// since the page was last flushed.
#[derive(Clone, Debug, Default)]
pub struct PageLsnTable {
    entries: BTreeMap<(PageId, NodeId), Lsn>,
}

type Entries<'a> = btree_map::Range<'a, (PageId, NodeId), Lsn>;

/// The `(node, lsn)` entries of one page, in node order: a cursor into the
/// table, stopped at the page's last entry.
#[derive(Clone, Debug)]
pub struct Updaters<'a> {
    page: PageId,
    rest: Entries<'a>,
}

impl Iterator for Updaters<'_> {
    type Item = (NodeId, Lsn);

    fn next(&mut self) -> Option<(NodeId, Lsn)> {
        match self.rest.next() {
            Some((&(page, node), &lsn)) if page == self.page => Some((node, lsn)),
            _ => None,
        }
    }
}

/// [`PageLsnTable::dirty`]'s walk. Each item's [`Updaters`] is a copy of
/// the cursor where the page begins, so stepping to the next page never
/// waits for (or disturbs) a reader of the last one.
#[derive(Clone, Debug)]
pub struct Dirty<'a> {
    rest: Entries<'a>,
}

impl<'a> Iterator for Dirty<'a> {
    type Item = (PageId, Updaters<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let updaters = self.rest.clone();
        let &(page, _) = self.rest.next()?.0;
        while self.rest.clone().next().is_some_and(|(&(p, _), _)| p == page) {
            self.rest.next();
        }
        Some((page, Updaters { page, rest: updaters }))
    }
}

/// The key range holding every entry of `page`.
fn page_keys(page: PageId) -> RangeInclusive<(PageId, NodeId)> {
    (page, NodeId(0))..=(page, NodeId(u16::MAX))
}

impl PageLsnTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `node` updated `page` with a log record at `lsn`.
    pub fn note_update(&mut self, page: PageId, node: NodeId, lsn: Lsn) {
        let e = self.entries.entry((page, node)).or_insert(Lsn::ZERO);
        if lsn > *e {
            *e = lsn;
        }
    }

    /// The per-node force requirements before `page` may be flushed, in
    /// node order: every `(node, lsn)` pair yielded must satisfy
    /// `stable_lsn(node) >= lsn`. Borrowed from the table — a flush
    /// allocates nothing to learn its WAL rule.
    pub fn updaters(&self, page: PageId) -> Updaters<'_> {
        Updaters { page, rest: self.entries.range(page_keys(page)) }
    }

    /// One ordered walk over the table: each dirty page once, in page
    /// order, with its [`Updaters`]. A checkpoint assigns its flushers
    /// from this without looking any page up.
    pub fn dirty(&self) -> Dirty<'_> {
        Dirty { rest: self.entries.range(..) }
    }

    /// Clear all entries for a page (after it has been flushed): its
    /// `(page, *)` key range, so the cost follows the page's updaters and
    /// not the table (a checkpoint flushes every dirty page in turn).
    pub fn page_flushed(&mut self, page: PageId) {
        while let Some((&key, _)) = self.entries.range(page_keys(page)).next() {
            self.entries.remove(&key);
        }
    }

    /// Reinitialize a crashed node's entries: its LSNs become
    /// [`Lsn::ZERO`] — no force requirement; its volatile log tail is gone
    /// and recovery rolls back or redoes what it held — but the entries
    /// stay. They are the only record that a page differs from its stable
    /// image: a surviving cache may still hold the crashed node's
    /// committed update, and a checkpoint that did not see the page as
    /// dirty would advance the redo bound past it unflushed.
    pub fn reset_node(&mut self, node: NodeId) {
        for (_, lsn) in self.entries.iter_mut().filter(|(&(_, n), _)| n == node) {
            *lsn = Lsn::ZERO;
        }
    }

    /// All pages any node has updated since their last flush (the dirty
    /// page set from the WAL table's point of view).
    pub fn dirty_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dirty().map(|(page, _)| page)
    }

    /// Fold an execution lane's table into this one at an epoch barrier:
    /// per `(page, node)` key, keep the larger LSN. Max-merge commutes,
    /// so the merge order of sibling lanes cannot change the result.
    pub fn absorb(&mut self, other: &PageLsnTable) {
        for (&k, &lsn) in &other.entries {
            let e = self.entries.entry(k).or_insert(Lsn::ZERO);
            if lsn > *e {
                *e = lsn;
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(t: &PageLsnTable, page: PageId) -> Vec<(NodeId, Lsn)> {
        t.updaters(page).collect()
    }

    #[test]
    fn requirements_track_max_lsn_per_node() {
        let mut t = PageLsnTable::new();
        t.note_update(PageId(1), NodeId(0), Lsn(3));
        t.note_update(PageId(1), NodeId(0), Lsn(7));
        t.note_update(PageId(1), NodeId(0), Lsn(5)); // lower: ignored
        t.note_update(PageId(1), NodeId(2), Lsn(1));
        let req = reqs(&t, PageId(1));
        assert_eq!(req, vec![(NodeId(0), Lsn(7)), (NodeId(2), Lsn(1))]);
    }

    #[test]
    fn pages_are_isolated() {
        let mut t = PageLsnTable::new();
        t.note_update(PageId(1), NodeId(0), Lsn(3));
        t.note_update(PageId(2), NodeId(1), Lsn(9));
        assert_eq!(reqs(&t, PageId(1)), vec![(NodeId(0), Lsn(3))]);
        assert_eq!(reqs(&t, PageId(2)), vec![(NodeId(1), Lsn(9))]);
        assert_eq!(reqs(&t, PageId(3)), vec![]);
    }

    #[test]
    fn flush_clears_page_entries() {
        let mut t = PageLsnTable::new();
        t.note_update(PageId(1), NodeId(0), Lsn(3));
        t.note_update(PageId(2), NodeId(0), Lsn(4));
        t.page_flushed(PageId(1));
        assert!(reqs(&t, PageId(1)).is_empty());
        assert_eq!(t.dirty_pages().collect::<Vec<_>>(), vec![PageId(2)]);
    }

    #[test]
    fn flush_leaves_neighbouring_key_ranges_alone() {
        // The boundary keys of the removed range: the last possible node
        // of the page below and the first of the page above.
        let mut t = PageLsnTable::new();
        t.note_update(PageId(4), NodeId(u16::MAX), Lsn(1));
        t.note_update(PageId(5), NodeId(0), Lsn(2));
        t.note_update(PageId(5), NodeId(7), Lsn(3));
        t.note_update(PageId(5), NodeId(u16::MAX), Lsn(4));
        t.note_update(PageId(6), NodeId(0), Lsn(5));
        t.page_flushed(PageId(5));
        assert!(reqs(&t, PageId(5)).is_empty());
        assert_eq!(reqs(&t, PageId(4)), vec![(NodeId(u16::MAX), Lsn(1))]);
        assert_eq!(reqs(&t, PageId(6)), vec![(NodeId(0), Lsn(5))]);
        assert_eq!(t.len(), 2);
        // Flushing a page with no entries is a no-op.
        t.page_flushed(PageId(5));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn crashed_node_entries_reinitialized_but_still_dirty() {
        let mut t = PageLsnTable::new();
        t.note_update(PageId(1), NodeId(0), Lsn(3));
        t.note_update(PageId(1), NodeId(1), Lsn(5));
        t.note_update(PageId(2), NodeId(1), Lsn(6));
        t.reset_node(NodeId(1));
        assert_eq!(reqs(&t, PageId(1)), vec![(NodeId(0), Lsn(3)), (NodeId(1), Lsn::ZERO)]);
        assert_eq!(t.dirty_pages().collect::<Vec<_>>(), vec![PageId(1), PageId(2)]);
    }

    #[test]
    fn dirty_walk_yields_each_page_once_with_its_updaters() {
        let mut t = PageLsnTable::new();
        assert!(t.dirty().next().is_none());
        t.note_update(PageId(4), NodeId(u16::MAX), Lsn(1));
        t.note_update(PageId(5), NodeId(0), Lsn(2));
        t.note_update(PageId(5), NodeId(7), Lsn(3));
        t.note_update(PageId(9), NodeId(3), Lsn(4));
        // Collected first, read afterwards: an item's updaters do not
        // depend on where the walk has got to since.
        let walk: Vec<(PageId, Updaters<'_>)> = t.dirty().collect();
        let walk: Vec<(PageId, Vec<(NodeId, Lsn)>)> =
            walk.into_iter().map(|(p, u)| (p, u.collect())).collect();
        assert_eq!(
            walk,
            vec![
                (PageId(4), vec![(NodeId(u16::MAX), Lsn(1))]),
                (PageId(5), vec![(NodeId(0), Lsn(2)), (NodeId(7), Lsn(3))]),
                (PageId(9), vec![(NodeId(3), Lsn(4))]),
            ]
        );
        for (page, updaters) in t.dirty() {
            assert_eq!(updaters.collect::<Vec<_>>(), reqs(&t, page));
        }
    }
}
