//! B-tree restart-recovery primitives.
//!
//! The engine (smdb-core) orchestrates recovery; this module provides the
//! tree-side mechanics:
//!
//! * **structure recovery** — recompute the root pointer and allocation
//!   high-water mark from the (always forced) structural log records, and
//!   name the pages to reinstall from their stable images (structural
//!   changes flush eagerly, so stable images are structurally current).
//!   This crate reads no page during recovery: the engine deals the named
//!   pages over its live nodes and each reads its share
//!   ([`TreeCtx::install_page_from_stable`]);
//! * **logical redo** — idempotent re-application of `IndexInsert` /
//!   `IndexDelete` effects for surviving transactions whose updates were
//!   lost with a crashed node's cache;
//! * **undo by tag** — the §4.1.2 sequential scan: every leaf entry tagged
//!   with a crashed node is a *candidate* for undo; the engine-supplied
//!   `is_committed` predicate (computed from the crashed nodes' *stable*
//!   logs) filters out entries whose tagging transaction had committed but
//!   whose tag-clear was lost.

use crate::layout::{LeafEntry, NodeKind, NULL_TAG, VAL_SIZE};
use crate::pageio::TreeCtx;
use crate::tree::{BTree, BtreeError};
use smdb_sim::{NodeId, TxnId};
use smdb_storage::PageId;
use smdb_wal::{LogPayload, StructuralKind};
use std::collections::BTreeSet;

/// Counters from one B-tree recovery pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BtreeRecoveryStats {
    /// Pages reinstalled from stable images: the engine's count of the
    /// pages [`BTree::recover_structure`] named, each read once.
    pub pages_reinstalled: u64,
    /// Structural log records replayed for root/allocation recovery.
    pub structural_replays: u64,
    /// Redo: inserts re-applied.
    pub redo_inserts: u64,
    /// Redo: delete marks re-applied.
    pub redo_deletes: u64,
    /// Undo: uncommitted inserts removed.
    pub undo_inserts: u64,
    /// Undo: uncommitted delete marks removed.
    pub undo_deletes: u64,
    /// Stale tags cleared (tagging transaction had committed).
    pub tags_cleared: u64,
}

impl BTree {
    /// Phase 1 of tree recovery: restore the structural skeleton.
    ///
    /// Re-derives the root page and the allocation high-water mark from
    /// structural log records (stable prefixes for crashed nodes, full logs
    /// for survivors — structural records are always forced before use, so
    /// the stable prefixes suffice). With `discard` (Redo All) every cached
    /// line of every tree page is then dropped. Returns the pages that must
    /// be reinstalled from stable storage before the tree is used — those
    /// with lost lines or held nowhere, every page after a discard — in
    /// page order, without reading any of them.
    pub fn recover_structure(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        discard: bool,
    ) -> (BtreeRecoveryStats, Vec<PageId>) {
        let mut stats = BtreeRecoveryStats::default();
        let (first_page, _max) = self.page_range();
        let mut root = PageId(first_page);
        let mut high_water = self.allocated_pages().last().copied().unwrap_or(PageId(first_page));
        for node in ctx.m.node_ids() {
            // Stable prefix for crashed nodes, the full log for survivors.
            // Structural records are rare: the log hands out those alone,
            // by reference.
            for rec in ctx.logs.log(node).structural_records(ctx.m.is_crashed(node)) {
                let LogPayload::Structural { kind, .. } = &rec.payload else { continue };
                match *kind {
                    StructuralKind::BtreeNewRoot { root_page } => {
                        stats.structural_replays += 1;
                        // Later roots supersede earlier ones; root pages
                        // are allocated in increasing order.
                        if root_page >= root.0 {
                            root = PageId(root_page);
                        }
                        high_water = high_water.max(PageId(root_page));
                    }
                    StructuralKind::BtreeSplit { new_page, old_page, .. } => {
                        stats.structural_replays += 1;
                        high_water = high_water.max(PageId(new_page)).max(PageId(old_page));
                    }
                    StructuralKind::LockSpaceAlloc { .. } => {}
                }
            }
        }
        self.set_root(root);
        self.set_next_page(high_water.0 + 1);
        let mut pages = self.allocated_pages();
        if discard {
            pages.iter().for_each(|&page| ctx.evict_page(page));
        }
        pages.retain(|&page| ctx.page_needs_reinstall(page));
        (stats, pages)
    }

    /// Idempotent redo of an insert: ensure a (possibly tagged) entry for
    /// `key` exists with `value`. Used when the insert's effect was lost
    /// with a crashed cache but the inserting transaction survives (or
    /// committed). Tags the entry with `tag` (pass [`NULL_TAG`] for
    /// committed transactions).
    pub fn redo_insert(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
        value: [u8; VAL_SIZE],
        tag: u16,
    ) -> Result<bool, BtreeError> {
        if self.search_any(ctx, node, key)?.is_some() {
            return Ok(false); // effect already present
        }
        self.raw_insert(ctx, node, key, value, tag, false)?;
        Ok(true)
    }

    /// Idempotent redo of a logical delete: ensure the entry for `key` is
    /// delete-marked with `tag`. Re-creates a marked entry if the entry
    /// itself was lost.
    pub fn redo_delete_mark(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
        value: [u8; VAL_SIZE],
        tag: u16,
    ) -> Result<bool, BtreeError> {
        match self.search_any(ctx, node, key)? {
            Some(hit) if hit.entry.deleted => Ok(false),
            Some(hit) => {
                let mut e = hit.entry;
                e.deleted = true;
                e.tag = tag;
                self.write_leaf_entry(ctx, node, hit.page, hit.idx, &e)?;
                Ok(true)
            }
            None => {
                self.raw_insert(ctx, node, key, value, tag, true)?;
                Ok(true)
            }
        }
    }

    /// The §4.1.2 undo scan over the index: every entry tagged with a
    /// crashed node is a candidate; `is_committed(tag_node, key)` (derived
    /// by the engine from the crashed nodes' stable logs) decides whether
    /// the tagging transaction committed. Committed → clear the stale tag;
    /// uncommitted → undo (remove inserts, unmark deletes).
    pub fn undo_by_tags(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        recovery_node: NodeId,
        crashed: &BTreeSet<NodeId>,
        reinstalled: &BTreeSet<PageId>,
        mut is_committed: impl FnMut(NodeId, u64) -> bool,
    ) -> Result<BtreeRecoveryStats, BtreeError> {
        let mut stats = BtreeRecoveryStats::default();
        let mut page = Some(self.first_leaf());
        while let Some(p) = page {
            ctx.read_page_into(recovery_node, p, &mut self.img)?;
            debug_assert_eq!(self.layout().kind(&self.img), Some(NodeKind::Leaf));
            page = self.layout().next_leaf(&self.img);
            // Collect candidate entries first; mutating shifts indices
            // (and the lookups below reuse the image buffer).
            let candidates: Vec<LeafEntry> = self
                .layout()
                .leaf_entries(&self.img)
                .into_iter()
                .filter(|e| e.tag != NULL_TAG && crashed.contains(&NodeId(e.tag)))
                .collect();
            for e in candidates {
                // Entries on pages whose surviving cached copies are
                // coherent carry tags only for genuinely uncommitted
                // updates (commits clear tags synchronously); stale
                // committed tags can only come from reinstalled stale
                // stable images, where the predicate decides.
                if reinstalled.contains(&p) && is_committed(NodeId(e.tag), e.key) {
                    // Tag-clear was lost with the crash; the update itself
                    // is committed. Just scrub the tag (keeping the mark if
                    // it was a committed delete).
                    if let Some(hit) = self.search_any(ctx, recovery_node, e.key)? {
                        if hit.entry.tag == e.tag {
                            let mut fixed = hit.entry;
                            fixed.tag = NULL_TAG;
                            self.write_leaf_entry(ctx, recovery_node, hit.page, hit.idx, &fixed)?;
                            stats.tags_cleared += 1;
                        }
                    }
                } else if e.deleted {
                    self.undo_delete(ctx, recovery_node, e.key)?;
                    stats.undo_deletes += 1;
                } else {
                    self.undo_insert(ctx, recovery_node, e.key)?;
                    stats.undo_inserts += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Insert an entry physically with explicit tag/mark, *without* writing
    /// an `IndexInsert` record (recovery-side redo; the original logical
    /// record already exists). Splits encountered on the way are still
    /// logged and early-committed (they are new structural changes).
    fn raw_insert(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
        value: [u8; VAL_SIZE],
        tag: u16,
        deleted: bool,
    ) -> Result<(), BtreeError> {
        // Reuse the public insert path with a synthetic recovery
        // transaction for structural logging, then fix up the entry.
        let recovery_txn = TxnId::new(node, 0);
        match self.insert(ctx, recovery_txn, key, value) {
            Ok(()) => {}
            Err(BtreeError::DuplicateKey { .. }) => {}
            Err(e) => return Err(e),
        }
        // Strip the synthetic IndexInsert record? The log append is
        // harmless (it belongs to seq-0, never treated as a real
        // transaction), but we avoid the noise by rewriting the entry's
        // metadata only.
        if let Some(hit) = self.search_any(ctx, node, key)? {
            let mut e = hit.entry;
            e.tag = tag;
            e.deleted = deleted;
            e.value = value;
            self.write_leaf_entry(ctx, node, hit.page, hit.idx, &e)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_sim::{Machine, SimConfig};
    use smdb_storage::{PageGeometry, StableDb};
    use smdb_wal::{LbmMode, LogSet, PageLsnTable};

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    struct Owned {
        m: Machine,
        db: StableDb,
        logs: LogSet,
        plt: PageLsnTable,
        gsn: u64,
    }

    fn setup() -> Owned {
        let m = Machine::new(SimConfig::new(3));
        let mut db = StableDb::new(PageGeometry::new(128, 8));
        db.format(64);
        Owned { m, db, logs: LogSet::new(3), plt: PageLsnTable::new(), gsn: 0 }
    }

    macro_rules! ctx {
        ($o:expr) => {
            TreeCtx::new(
                &mut $o.m,
                &mut $o.db,
                &mut $o.logs,
                &mut $o.plt,
                LbmMode::Volatile,
                &mut $o.gsn,
            )
        };
    }

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    fn val(x: u64) -> [u8; VAL_SIZE] {
        x.to_le_bytes()
    }

    #[test]
    fn structure_recovered_after_split_owner_crashes() {
        let mut o = setup();
        let mut tree = {
            let mut c = ctx!(o);
            let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
            for i in 0..200u64 {
                tree.insert(&mut c, t(0, i + 1), i, val(i)).unwrap();
            }
            assert!(tree.stats().root_grows >= 1);
            tree
        };
        let root_before = tree.root();
        let pages_before = tree.allocated_pages();
        o.m.crash(&[N0]);
        o.logs.crash(&[N0]);
        let mut c = ctx!(o);
        let (_, lost) = tree.recover_structure(&mut c, false);
        assert_eq!(tree.root(), root_before, "root recomputed from structural records");
        assert_eq!(tree.allocated_pages(), pages_before, "allocation high-water recomputed");
        assert!(!lost.is_empty(), "the crash lost pages to reinstall");
        for &page in &lost {
            c.install_page_from_stable(N1, page).unwrap();
        }
        tree.check_invariants(&mut c, N1).unwrap();
    }

    /// `recover_structure` as it was before it walked the logs by
    /// reference: every retained payload cloned, none skipped. Returns
    /// (root, high-water page, structural replays).
    fn structure_by_cloning(tree: &BTree, c: &TreeCtx<'_>) -> (PageId, PageId, u64) {
        let (first_page, _) = tree.page_range();
        let mut root = PageId(first_page);
        let mut high_water = tree.allocated_pages().last().copied().unwrap();
        let mut replays = 0;
        for node in c.m.node_ids() {
            let recs: Vec<LogPayload> = if c.m.is_crashed(node) {
                c.logs.log(node).stable_records().map(|r| r.payload.clone()).collect()
            } else {
                c.logs.log(node).records().map(|r| r.payload.clone()).collect()
            };
            for p in recs {
                match p {
                    LogPayload::Structural {
                        kind: StructuralKind::BtreeNewRoot { root_page },
                        ..
                    } => {
                        replays += 1;
                        if root_page >= root.0 {
                            root = PageId(root_page);
                        }
                        high_water = high_water.max(PageId(root_page));
                    }
                    LogPayload::Structural {
                        kind: StructuralKind::BtreeSplit { new_page, old_page, .. },
                        ..
                    } => {
                        replays += 1;
                        high_water = high_water.max(PageId(new_page)).max(PageId(old_page));
                    }
                    _ => {}
                }
            }
        }
        (root, high_water, replays)
    }

    /// Crash n0, then check `recover_structure` on n1 against the cloning
    /// reference and the per-page probes.
    fn assert_structure_recovery_unchanged(o: &mut Owned, tree: &mut BTree) {
        o.m.crash(&[N0]);
        o.logs.crash(&[N0]);
        let mut c = ctx!(o);
        let (root, high_water, replays) = structure_by_cloning(tree, &c);
        let lost: Vec<PageId> = tree
            .allocated_pages()
            .into_iter()
            .filter(|&p| c.page_has_lost_lines(p) || !c.page_cached_anywhere(p))
            .collect();
        let reads = c.db.stats().page_reads;
        let (st, reinstall) = tree.recover_structure(&mut c, false);
        assert_eq!(tree.root(), root);
        assert_eq!(tree.allocated_pages().last().copied(), Some(high_water));
        assert_eq!(st.structural_replays, replays);
        assert_eq!(reinstall, lost);
        assert!(!lost.is_empty(), "the crash destroyed n0's pages");
        assert_eq!(c.db.stats().page_reads, reads, "structure recovery reads no page");
    }

    #[test]
    fn structure_recovery_unchanged_on_a_truncated_log() {
        let mut o = setup();
        let mut tree = {
            let mut c = ctx!(o);
            let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
            for i in 0..200u64 {
                tree.insert(&mut c, t(0, i + 1), i, val(i)).unwrap();
            }
            // n1 splits too, so two logs carry structural records.
            for i in 200..320u64 {
                tree.insert(&mut c, t(1, i + 1), i, val(i)).unwrap();
            }
            tree
        };
        assert!(tree.stats().root_grows >= 1 && tree.stats().splits >= 4);
        // Reclaim the prefix of n0's log that holds its first structural
        // records (the root growth among them), as a checkpoint would.
        let cut = o.logs.log(N0).stable_lsn().0 / 2;
        let before = o.logs.log(N0).stats().structural_records;
        o.logs.truncate_through_checked(N0, smdb_wal::Lsn(cut)).unwrap();
        let retained = o
            .logs
            .log(N0)
            .records()
            .filter(|r| matches!(r.payload, LogPayload::Structural { .. }))
            .count() as u64;
        assert!(0 < retained && retained < before, "the cut falls among the structural records");
        assert_structure_recovery_unchanged(&mut o, &mut tree);
    }

    #[test]
    fn structure_recovery_unchanged_without_structural_records() {
        let mut o = setup();
        let mut tree = {
            let mut c = ctx!(o);
            let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
            for i in 0..20u64 {
                tree.insert(&mut c, t(0, i + 1), i, val(i)).unwrap();
            }
            tree
        };
        assert_eq!(tree.stats().splits, 0);
        assert!(o.logs.iter().all(|l| l.stats().structural_records == 0));
        assert_structure_recovery_unchanged(&mut o, &mut tree);
        assert_eq!(tree.root(), tree.first_leaf());
    }

    #[test]
    fn redo_insert_is_idempotent() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        assert!(tree.redo_insert(&mut c, N1, 5, val(50), 1).unwrap());
        assert!(!tree.redo_insert(&mut c, N1, 5, val(50), 1).unwrap());
        let hit = tree.search(&mut c, N1, 5).unwrap().unwrap();
        assert_eq!(hit.entry.tag, 1);
    }

    #[test]
    fn redo_delete_mark_recreates_missing_entry_marked() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        assert!(tree.redo_delete_mark(&mut c, N1, 5, val(50), 1).unwrap());
        let hit = tree.search_any(&mut c, N1, 5).unwrap().unwrap();
        assert!(hit.entry.deleted);
        assert!(tree.search(&mut c, N1, 5).unwrap().is_none());
        assert!(!tree.redo_delete_mark(&mut c, N1, 5, val(50), 1).unwrap());
    }

    #[test]
    fn undo_by_tags_removes_uncommitted_inserts() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        // n0: committed insert (tag cleared at commit); n1: active insert.
        let t0 = t(0, 1);
        tree.insert(&mut c, t0, 1, val(10)).unwrap();
        tree.commit_key(&mut c, t0, 1).unwrap();
        tree.insert(&mut c, t(1, 1), 2, val(20)).unwrap();
        // n1 crashes with its insert still tagged.
        let crashed: BTreeSet<NodeId> = [N1].into_iter().collect();
        let none: BTreeSet<PageId> = BTreeSet::new();
        let st = tree.undo_by_tags(&mut c, N0, &crashed, &none, |_, _| false).unwrap();
        assert_eq!(st.undo_inserts, 1);
        assert!(tree.search_any(&mut c, N0, 2).unwrap().is_none());
        assert!(tree.search(&mut c, N0, 1).unwrap().is_some(), "committed entry untouched");
    }

    #[test]
    fn undo_by_tags_unmarks_uncommitted_deletes() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        let t0 = t(0, 1);
        tree.insert(&mut c, t0, 1, val(10)).unwrap();
        tree.commit_key(&mut c, t0, 1).unwrap();
        tree.delete(&mut c, t(1, 1), 1).unwrap();
        let crashed: BTreeSet<NodeId> = [N1].into_iter().collect();
        let none: BTreeSet<PageId> = BTreeSet::new();
        let st = tree.undo_by_tags(&mut c, N0, &crashed, &none, |_, _| false).unwrap();
        assert_eq!(st.undo_deletes, 1);
        let hit = tree.search(&mut c, N0, 1).unwrap().unwrap();
        assert_eq!(hit.entry.value, val(10));
        assert_eq!(hit.entry.tag, NULL_TAG);
    }

    #[test]
    fn undo_by_tags_spares_committed_with_stale_tag() {
        // The tag-clear of a committed insert was lost with the line; the
        // is_committed predicate must prevent the undo.
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(1, 1), 3, val(30)).unwrap(); // tagged n1, "committed" per predicate
        let crashed: BTreeSet<NodeId> = [N1].into_iter().collect();
        // Model the page as a reinstalled stale image so the committed
        // predicate is consulted.
        let all: BTreeSet<PageId> = tree.allocated_pages().into_iter().collect();
        let st = tree.undo_by_tags(&mut c, N0, &crashed, &all, |_, _| true).unwrap();
        assert_eq!(st.tags_cleared, 1);
        assert_eq!(st.undo_inserts, 0);
        let hit = tree.search(&mut c, N0, 3).unwrap().unwrap();
        assert_eq!(hit.entry.tag, NULL_TAG);
    }

    #[test]
    fn discard_names_every_page_and_the_reads_restore_flushed_state() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        let txn = t(0, 1);
        tree.insert(&mut c, txn, 9, val(90)).unwrap();
        tree.commit_key(&mut c, txn, 9).unwrap();
        // Flush everything; Redo All then discards every cached tree line.
        for p in tree.allocated_pages() {
            c.flush_page(N0, p).unwrap();
        }
        let (_, pages) = tree.recover_structure(&mut c, true);
        assert_eq!(pages, tree.allocated_pages(), "a discard leaves every page to read");
        assert!(pages.iter().all(|&p| !c.page_cached_anywhere(p)));
        for &page in &pages {
            c.install_page_from_stable(N1, page).unwrap();
        }
        let hit = tree.search(&mut c, N1, 9).unwrap().unwrap();
        assert_eq!(hit.entry.value, val(90));
    }
}
