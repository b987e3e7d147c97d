//! B+-tree algorithms: search, insert (with early-committed splits),
//! logical delete, commit/abort processing.

use crate::layout::{
    BranchRef, LeafEntry, NodeKind, TreeLayout, BRANCH_ENTRY_SIZE, LEAF_ENTRY_SIZE, NULL_TAG,
    VAL_SIZE,
};
use crate::pageio::{LineSpan, TreeCtx};
use bytes::Bytes;
use smdb_sim::{MemError, NodeId, TxnId};
use smdb_storage::PageId;
use smdb_wal::{LogPayload, StructuralKind};
use std::fmt;

/// B-tree operation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BtreeError {
    /// Underlying memory error.
    Mem(MemError),
    /// Insert of a key that already has a live entry.
    DuplicateKey {
        /// The duplicate key.
        key: u64,
    },
    /// Delete/lookup of a key with no live entry.
    KeyNotFound {
        /// The missing key.
        key: u64,
    },
    /// The page budget given to the tree is exhausted.
    TreeFull,
    /// The entry is already carrying another node's uncommitted update —
    /// the record-lock layer should have prevented this.
    ConcurrentUpdate {
        /// The contested key.
        key: u64,
        /// The tag found on the entry.
        tag: u16,
    },
    /// A tree page that should exist in the stable database is missing —
    /// the durable store is corrupt or the caller asked for a page that
    /// was never created. Previously a panic deep in the page-I/O layer;
    /// surfaced as a typed error so a crashed recovery can report it.
    StablePageMissing {
        /// The missing page.
        page: PageId,
    },
    /// A descent reached a page that was never formatted as a tree node:
    /// the structure above it points outside the tree. An invariant
    /// violation, reported instead of panicking so a crashed recovery can
    /// surface it.
    UnformattedPage {
        /// The unformatted page.
        page: PageId,
    },
    /// A key outside the `[lo, hi)` range the tree's order gives it: in
    /// the leaf chain, below its predecessor `lo`; in a node, outside the
    /// range its ancestors' separators give the node.
    OutOfOrder {
        /// The key out of place.
        key: u64,
        /// The range's inclusive lower bound.
        lo: u64,
        /// The range's exclusive upper bound.
        hi: u64,
    },
}

impl From<MemError> for BtreeError {
    fn from(e: MemError) -> Self {
        BtreeError::Mem(e)
    }
}

impl fmt::Display for BtreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtreeError::Mem(e) => write!(f, "memory error: {e}"),
            BtreeError::DuplicateKey { key } => write!(f, "duplicate key {key}"),
            BtreeError::KeyNotFound { key } => write!(f, "key {key} not found"),
            BtreeError::TreeFull => write!(f, "tree page budget exhausted"),
            BtreeError::ConcurrentUpdate { key, tag } => {
                write!(f, "key {key} carries uncommitted update tagged n{tag}")
            }
            BtreeError::StablePageMissing { page } => {
                write!(f, "tree page {page} missing from stable db")
            }
            BtreeError::UnformattedPage { page } => {
                write!(f, "unformatted page {page} reached inside the tree")
            }
            BtreeError::OutOfOrder { key, lo, hi } => {
                write!(f, "key {key} out of order: outside [{lo}, {hi})")
            }
        }
    }
}

impl std::error::Error for BtreeError {}

/// Tree operation counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BtreeStats {
    /// Successful inserts.
    pub inserts: u64,
    /// Successful logical deletes.
    pub deletes: u64,
    /// Searches performed.
    pub searches: u64,
    /// Leaf/branch splits (early-committed structural changes).
    pub splits: u64,
    /// Root growths (early-committed structural changes).
    pub root_grows: u64,
}

/// Result of a successful leaf lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafHit {
    /// The leaf page holding the entry.
    pub page: PageId,
    /// Entry index within the leaf.
    pub idx: usize,
    /// The decoded entry.
    pub entry: LeafEntry,
}

/// The shared-memory B+-tree.
///
/// `root` and `next_page` are volatile bookkeeping: every change to them is
/// recorded in a *forced* structural log record (early commit, §4.2), so
/// the recovery module can re-derive them from the stable logs after any
/// crash.
#[derive(Clone)]
pub struct BTree {
    layout: TreeLayout,
    root: PageId,
    first_page: u32,
    next_page: u32,
    max_pages: u32,
    stats: BtreeStats,
    /// Image of the page under examination. Every level of every descent
    /// reads into this one buffer instead of a fresh page-sized `Vec`.
    pub(crate) img: Vec<u8>,
    /// Image of a child examined while its parent is still in `img`
    /// (insert's look-ahead for full children).
    child_img: Vec<u8>,
}

impl fmt::Debug for BTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The scratch images are not state.
        f.debug_struct("BTree")
            .field("layout", &self.layout)
            .field("root", &self.root)
            .field("first_page", &self.first_page)
            .field("next_page", &self.next_page)
            .field("max_pages", &self.max_pages)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl BTree {
    /// Create a new tree whose pages are drawn from
    /// `[first_page, first_page + max_pages)`. The initial root is an empty
    /// leaf at `first_page`.
    pub fn create(
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        first_page: u32,
        max_pages: u32,
    ) -> Result<BTree, BtreeError> {
        assert!(max_pages >= 1);
        let layout = TreeLayout::new(ctx.geometry().page_size());
        let root = PageId(first_page);
        ctx.create_zero_page(node, root)?;
        let mut img = vec![0u8; layout.page_size];
        layout.format(&mut img, NodeKind::Leaf);
        let (h0, h1) = layout.header_range();
        ctx.write(node, root, h0, &img[h0..h1])?;
        // Creation is a structural change: make the formatted root durable
        // immediately, so a reinstall from stable always yields a valid
        // (empty) leaf.
        ctx.flush_page(node, root)?;
        Ok(BTree {
            layout,
            root,
            first_page,
            next_page: first_page + 1,
            max_pages,
            stats: BtreeStats::default(),
            img,
            child_img: Vec::new(),
        })
    }

    /// The on-page layout.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Current root page.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// First page of the tree's range: also the leftmost leaf (splits only
    /// ever move keys rightward).
    pub fn first_leaf(&self) -> PageId {
        PageId(self.first_page)
    }

    /// Pages allocated so far, in allocation order.
    pub fn allocated_pages(&self) -> Vec<PageId> {
        (self.first_page..self.next_page).map(PageId).collect()
    }

    /// Operation counters.
    pub fn stats(&self) -> &BtreeStats {
        &self.stats
    }

    pub(crate) fn set_root(&mut self, root: PageId) {
        self.root = root;
    }

    pub(crate) fn set_next_page(&mut self, next: u32) {
        self.next_page = next;
    }

    pub(crate) fn page_range(&self) -> (u32, u32) {
        (self.first_page, self.max_pages)
    }

    fn alloc_page(&mut self) -> Result<PageId, BtreeError> {
        if self.next_page >= self.first_page + self.max_pages {
            return Err(BtreeError::TreeFull);
        }
        let p = PageId(self.next_page);
        self.next_page += 1;
        Ok(p)
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Descend to the leaf that should hold `key`; the leaf's image is
    /// left in `self.img`.
    fn descend(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
    ) -> Result<PageId, BtreeError> {
        let mut page = self.root;
        loop {
            ctx.read_page_into(node, page, &mut self.img)?;
            match self.layout.kind(&self.img) {
                Some(NodeKind::Leaf) => return Ok(page),
                Some(NodeKind::Branch) => page = self.layout.child_for(&self.img, key),
                None => return Err(BtreeError::UnformattedPage { page }),
            }
        }
    }

    /// Find the *live* entry for `key` (present and not delete-marked).
    pub fn search(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
    ) -> Result<Option<LeafHit>, BtreeError> {
        self.stats.searches += 1;
        self.find(ctx, node, key, false)
    }

    /// Find any entry for `key`, including delete-marked ones (recovery and
    /// engine-internal use).
    pub fn search_any(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
    ) -> Result<Option<LeafHit>, BtreeError> {
        self.find(ctx, node, key, true)
    }

    /// Descend to `key`'s leaf, read it (a second coherent read: the
    /// descent only classified the page) and look the key up.
    fn find(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
        include_deleted: bool,
    ) -> Result<Option<LeafHit>, BtreeError> {
        let page = self.descend(ctx, node, key)?;
        ctx.read_page_into(node, page, &mut self.img)?;
        let hit = self.layout.find_leaf_entry(&self.img, key, include_deleted);
        Ok(hit.map(|(idx, entry)| LeafHit { page, idx, entry }))
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Insert `key → value` on behalf of `txn`. The entry is tagged with
    /// the transaction's node id (the §4.1.2 Tagging Rule) and a logical
    /// `IndexInsert` record is written to the transaction's volatile log
    /// before the operation completes (Volatile LBM). Any splits performed
    /// on the way down are committed early (§4.2).
    pub fn insert(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        txn: TxnId,
        key: u64,
        value: [u8; VAL_SIZE],
    ) -> Result<(), BtreeError> {
        let node = txn.node();
        // Preemptive descent: split every full node encountered, so the
        // parent always has room for the separator.
        let mut page = self.root;
        ctx.read_page_into(node, page, &mut self.img)?;
        if self.is_full(&self.img) {
            let root_img = std::mem::take(&mut self.img);
            self.grow_root(ctx, txn, &root_img)?;
            self.img = root_img;
            page = self.root;
        }
        loop {
            ctx.read_page_into(node, page, &mut self.img)?;
            match self.layout.kind(&self.img) {
                Some(NodeKind::Leaf) => break,
                Some(NodeKind::Branch) => {
                    let child = self.layout.child_for(&self.img, key);
                    ctx.read_page_into(node, child, &mut self.child_img)?;
                    if self.is_full(&self.child_img) {
                        let child_img = std::mem::take(&mut self.child_img);
                        self.split_child(ctx, txn, page, child, &child_img)?;
                        self.child_img = child_img;
                        // Re-route: the key may now belong to the new
                        // sibling.
                        ctx.read_page_into(node, page, &mut self.img)?;
                        page = self.layout.child_for(&self.img, key);
                    } else {
                        page = child;
                    }
                }
                None => return Err(BtreeError::UnformattedPage { page }),
            }
        }
        // Leaf insert.
        ctx.read_page_into(node, page, &mut self.img)?;
        debug_assert!(!self.is_full(&self.img), "preemptive split guarantees room");
        if self.layout.find_leaf_entry(&self.img, key, false).is_some() {
            return Err(BtreeError::DuplicateKey { key });
        }
        let gsn = ctx.next_gsn();
        let lsn = ctx.logs.append(
            node,
            LogPayload::IndexInsert { txn, key, value: Bytes::copy_from_slice(&value), gsn },
        );
        let n = self.layout.n_entries(&self.img);
        let pos = self.layout.leaf_insert_pos(&self.img, key);
        // Shift entries right in the local image, then write the dirty
        // span (header + moved region) back through the coherent store.
        let (d0, _) = self.layout.leaf_entry_range(pos);
        let (_, d1) = self.layout.leaf_entry_range(n);
        self.img.copy_within(d0..d1 - LEAF_ENTRY_SIZE, d0 + LEAF_ENTRY_SIZE);
        let entry = LeafEntry { key, tag: node.0, deleted: false, value };
        self.layout.set_leaf_entry(&mut self.img, pos, &entry);
        self.layout.set_n_entries(&mut self.img, n + 1);
        let (h0, h1) = self.layout.header_range();
        let header_span = ctx.write(node, page, h0, &self.img[h0..h1])?;
        let data_span = ctx.write(node, page, d0, &self.img[d0..d1])?;
        ctx.note_update(node, page, lsn)?;
        ctx.after_update(node, &[header_span, data_span])?;
        self.stats.inserts += 1;
        Ok(())
    }

    fn is_full(&self, img: &[u8]) -> bool {
        let n = self.layout.n_entries(img);
        match self.layout.kind(img) {
            Some(NodeKind::Leaf) => n >= self.layout.leaf_capacity(),
            Some(NodeKind::Branch) => n >= self.layout.branch_capacity(),
            None => false,
        }
    }

    /// Grow the tree by one level: the current (full) root gets a new
    /// parent. Early-committed structural change.
    fn grow_root(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        txn: TxnId,
        old_root_img: &[u8],
    ) -> Result<(), BtreeError> {
        let node = txn.node();
        let new_root = self.alloc_page()?;
        ctx.create_zero_page(node, new_root)?;
        let mut img = vec![0u8; self.layout.page_size];
        self.layout.format(&mut img, NodeKind::Branch);
        self.layout.set_left_child(&mut img, self.root);
        let (h0, h1) = self.layout.header_range();
        ctx.write(node, new_root, h0, &img[h0..h1])?;
        let old_root = self.root;
        self.root = new_root;
        // Split the (full) old root under its new parent right away.
        self.split_child(ctx, txn, new_root, old_root, old_root_img)?;
        // Early commit: forced structural record + flush of the new root.
        let lsn = ctx.logs.append(
            node,
            LogPayload::Structural {
                txn,
                kind: StructuralKind::BtreeNewRoot { root_page: new_root.0 },
            },
        );
        ctx.note_update(node, new_root, lsn)?;
        ctx.force_node_log(node)?;
        ctx.flush_page(node, new_root)?;
        self.stats.root_grows += 1;
        Ok(())
    }

    /// Split the full `child` of `parent` (parent has room). Moves the
    /// upper half of the child's entries into a freshly allocated sibling
    /// and inserts the separator into the parent. The whole action is a
    /// nested top-level action: its structural log record is forced and the
    /// three affected pages are flushed before returning (§4.2), so no
    /// other transaction can become dependent on volatile structural state.
    fn split_child(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        txn: TxnId,
        parent: PageId,
        child: PageId,
        child_img: &[u8],
    ) -> Result<(), BtreeError> {
        let node = txn.node();
        let new_page = self.alloc_page()?;
        ctx.create_zero_page(node, new_page)?;
        let kind = self.layout.kind(child_img).expect("split target formatted");
        let n = self.layout.n_entries(child_img);
        let mut child_new = child_img.to_vec();
        let mut sibling = vec![0u8; self.layout.page_size];
        self.layout.format(&mut sibling, kind);
        let split_key;
        match kind {
            NodeKind::Leaf => {
                let half = n / 2;
                split_key = self.layout.leaf_entry(child_img, half).key;
                for (j, i) in (half..n).enumerate() {
                    let e = self.layout.leaf_entry(child_img, i);
                    self.layout.set_leaf_entry(&mut sibling, j, &e);
                }
                self.layout.set_n_entries(&mut sibling, n - half);
                self.layout.set_next_leaf(&mut sibling, self.layout.next_leaf(child_img));
                self.layout.set_n_entries(&mut child_new, half);
                self.layout.set_next_leaf(&mut child_new, Some(new_page));
            }
            NodeKind::Branch => {
                let mid = n / 2;
                let promoted = self.layout.branch_ref(child_img, mid);
                split_key = promoted.key;
                self.layout.set_left_child(&mut sibling, promoted.child);
                for (j, i) in (mid + 1..n).enumerate() {
                    let r = self.layout.branch_ref(child_img, i);
                    self.layout.set_branch_ref(&mut sibling, j, &r);
                }
                self.layout.set_n_entries(&mut sibling, n - mid - 1);
                self.layout.set_n_entries(&mut child_new, mid);
            }
        }
        // Write both node images.
        let ps = self.layout.page_size;
        let data_start = smdb_storage::PAGE_DATA_OFFSET;
        ctx.write(node, child, data_start, &child_new[data_start..ps])?;
        ctx.write(node, new_page, data_start, &sibling[data_start..ps])?;
        // Insert the separator into the parent (which has room).
        ctx.read_page_into(node, parent, &mut self.img)?;
        let pn = self.layout.n_entries(&self.img);
        debug_assert!(pn < self.layout.branch_capacity());
        let pos = self.layout.branch_insert_pos(&self.img, split_key);
        let (d0, _) = self.layout.branch_entry_range(pos);
        let (_, d1) = self.layout.branch_entry_range(pn);
        self.img.copy_within(d0..d1 - BRANCH_ENTRY_SIZE, d0 + BRANCH_ENTRY_SIZE);
        let sep = BranchRef { key: split_key, child: new_page };
        self.layout.set_branch_ref(&mut self.img, pos, &sep);
        self.layout.set_n_entries(&mut self.img, pn + 1);
        let (h0, h1) = self.layout.header_range();
        ctx.write(node, parent, h0, &self.img[h0..h1])?;
        ctx.write(node, parent, d0, &self.img[d0..d1])?;
        // Early commit: force the structural record, then flush the three
        // affected pages so the structure is durable before anyone uses it.
        let lsn = ctx.logs.append(
            node,
            LogPayload::Structural {
                txn,
                kind: StructuralKind::BtreeSplit {
                    old_page: child.0,
                    new_page: new_page.0,
                    split_key,
                },
            },
        );
        ctx.note_update(node, child, lsn)?;
        ctx.note_update(node, new_page, lsn)?;
        ctx.note_update(node, parent, lsn)?;
        ctx.force_node_log(node)?;
        ctx.flush_page(node, child)?;
        ctx.flush_page(node, new_page)?;
        ctx.flush_page(node, parent)?;
        self.stats.splits += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Delete (logical, §4.2.1)
    // ------------------------------------------------------------------

    /// Logically delete `key` on behalf of `txn`: the entry is *marked*
    /// deleted and tagged; the space is not reclaimed until the deleter
    /// commits. Because the mark and the record share a cache line, the
    /// undo of a migrated uncommitted delete is merely unmarking (§4.2.1).
    pub fn delete(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        txn: TxnId,
        key: u64,
    ) -> Result<(), BtreeError> {
        let node = txn.node();
        let hit = self.search(ctx, node, key)?.ok_or(BtreeError::KeyNotFound { key })?;
        if hit.entry.tag != NULL_TAG && hit.entry.tag != node.0 {
            return Err(BtreeError::ConcurrentUpdate { key, tag: hit.entry.tag });
        }
        let gsn = ctx.next_gsn();
        let lsn = ctx.logs.append(
            node,
            LogPayload::IndexDelete {
                txn,
                key,
                value: Bytes::copy_from_slice(&hit.entry.value),
                gsn,
            },
        );
        let mut e = hit.entry;
        e.deleted = true;
        e.tag = node.0;
        let touched = self.write_leaf_entry(ctx, node, hit.page, hit.idx, &e)?;
        ctx.note_update(node, hit.page, lsn)?;
        ctx.after_update(node, &[touched])?;
        self.stats.deletes += 1;
        Ok(())
    }

    /// Overwrite leaf entry `idx` of `page` in place.
    pub(crate) fn write_leaf_entry(
        &self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        page: PageId,
        idx: usize,
        e: &LeafEntry,
    ) -> Result<LineSpan, BtreeError> {
        let (at, _) = self.layout.leaf_entry_range(idx);
        ctx.write(node, page, at, &TreeLayout::encode_leaf_entry(e))
    }

    // ------------------------------------------------------------------
    // Commit / abort processing
    // ------------------------------------------------------------------

    /// Post-commit processing for one key `txn` touched: clear the undo
    /// tag; physically reclaim the space of a committed delete (§4.2.1 —
    /// space freed by a delete becomes reusable only now).
    pub fn commit_key(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        txn: TxnId,
        key: u64,
    ) -> Result<(), BtreeError> {
        let node = txn.node();
        let Some(hit) = self.search_any(ctx, node, key)? else {
            return Ok(()); // already compacted
        };
        if hit.entry.tag != node.0 {
            return Ok(()); // not ours (tag already cleared, or reused key)
        }
        if hit.entry.deleted {
            self.remove_entry(ctx, node, hit.page, hit.idx)?;
        } else {
            let mut e = hit.entry;
            e.tag = NULL_TAG;
            self.write_leaf_entry(ctx, node, hit.page, hit.idx, &e)?;
        }
        Ok(())
    }

    /// Undo an uncommitted insert: physically remove the entry
    /// (§4.2.1 — "allocated space can always be freed"). Used by voluntary
    /// aborts and by restart recovery (with the recovery node acting).
    pub fn undo_insert(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
    ) -> Result<(), BtreeError> {
        let Some(hit) = self.search_any(ctx, node, key)? else {
            return Ok(()); // nothing materialized (or already undone)
        };
        self.remove_entry(ctx, node, hit.page, hit.idx)?;
        Ok(())
    }

    /// Undo an uncommitted logical delete: unmark the entry and clear its
    /// tag.
    pub fn undo_delete(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        key: u64,
    ) -> Result<(), BtreeError> {
        let Some(hit) = self.search_any(ctx, node, key)? else {
            return Ok(());
        };
        let mut e = hit.entry;
        e.deleted = false;
        e.tag = NULL_TAG;
        self.write_leaf_entry(ctx, node, hit.page, hit.idx, &e)?;
        Ok(())
    }

    /// Physically remove entry `idx` from leaf `page` (compaction).
    pub(crate) fn remove_entry(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        page: PageId,
        idx: usize,
    ) -> Result<(), BtreeError> {
        ctx.read_page_into(node, page, &mut self.img)?;
        let n = self.layout.n_entries(&self.img);
        debug_assert!(idx < n);
        let (d0, moved_from) = self.layout.leaf_entry_range(idx);
        let (tail_end, _) = self.layout.leaf_entry_range(n);
        self.img.copy_within(moved_from..tail_end, d0);
        self.layout.set_n_entries(&mut self.img, n - 1);
        let (h0, h1) = self.layout.header_range();
        ctx.write(node, page, h0, &self.img[h0..h1])?;
        if n > 1 && idx < n - 1 {
            let d1 = tail_end - LEAF_ENTRY_SIZE;
            ctx.write(node, page, d0, &self.img[d0..d1])?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scans (oracle/tests/examples)
    // ------------------------------------------------------------------

    /// All live `(key, value)` pairs in key order, walking the leaf chain.
    pub fn scan_live(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
    ) -> Result<Vec<(u64, [u8; VAL_SIZE])>, BtreeError> {
        let mut out = Vec::new();
        let mut page = Some(self.first_leaf());
        while let Some(p) = page {
            ctx.read_page_into(node, p, &mut self.img)?;
            debug_assert_eq!(self.layout.kind(&self.img), Some(NodeKind::Leaf));
            for e in self.layout.leaf_entries(&self.img) {
                if !e.deleted {
                    out.push((e.key, e.value));
                }
            }
            page = self.layout.next_leaf(&self.img);
        }
        Ok(out)
    }

    /// Live entries with keys in `[lo, hi]`, in key order: descend to
    /// `lo`'s leaf and walk the chain.
    pub fn range_live(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, [u8; VAL_SIZE])>, BtreeError> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let mut page = Some(self.descend(ctx, node, lo)?);
        while let Some(p) = page {
            ctx.read_page_into(node, p, &mut self.img)?;
            debug_assert_eq!(self.layout.kind(&self.img), Some(NodeKind::Leaf));
            for e in self.layout.leaf_entries(&self.img) {
                if e.key > hi {
                    return Ok(out);
                }
                if e.key >= lo && !e.deleted {
                    out.push((e.key, e.value));
                }
            }
            page = self.layout.next_leaf(&self.img);
        }
        Ok(out)
    }

    /// All entries (live, deleted, tagged) in key order — for recovery and
    /// invariant checks.
    pub fn scan_all(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
    ) -> Result<Vec<LeafEntry>, BtreeError> {
        let mut out = Vec::new();
        let mut page = Some(self.first_leaf());
        while let Some(p) = page {
            ctx.read_page_into(node, p, &mut self.img)?;
            out.extend(self.layout.leaf_entries(&self.img));
            page = self.layout.next_leaf(&self.img);
        }
        Ok(out)
    }

    /// Check structural invariants (sorted leaf chain, every key and
    /// separator inside the range its ancestors give its node). A
    /// violation is a [`BtreeError::OutOfOrder`], like an unreadable page
    /// is its own error.
    pub fn check_invariants(
        &mut self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
    ) -> Result<(), BtreeError> {
        let keys: Vec<u64> = self.scan_all(ctx, node)?.iter().map(|e| e.key).collect();
        if let Some(w) = keys.windows(2).find(|w| w[0] > w[1]) {
            return Err(BtreeError::OutOfOrder { key: w[1], lo: w[0], hi: u64::MAX });
        }
        self.check_subtree(ctx, node, self.root, u64::MIN, u64::MAX)
    }

    fn check_subtree(
        &self,
        ctx: &mut TreeCtx<'_>,
        node: NodeId,
        page: PageId,
        lo: u64,
        hi: u64,
    ) -> Result<(), BtreeError> {
        let in_range = |key| {
            (lo..hi).contains(&key).then_some(()).ok_or(BtreeError::OutOfOrder { key, lo, hi })
        };
        // One image per level: the parent's separators are still needed
        // while its children are walked.
        let mut img = Vec::new();
        ctx.read_page_into(node, page, &mut img)?;
        match self.layout.kind(&img) {
            Some(NodeKind::Leaf) => {
                for e in self.layout.leaf_entries(&img) {
                    in_range(e.key)?;
                }
            }
            Some(NodeKind::Branch) => {
                let refs = self.layout.branch_refs(&img);
                let mut lower = lo;
                let mut child = self.layout.left_child(&img);
                for r in &refs {
                    in_range(r.key)?;
                    self.check_subtree(ctx, node, child, lower, r.key)?;
                    lower = r.key;
                    child = r.child;
                }
                self.check_subtree(ctx, node, child, lower, hi)?;
            }
            None => return Err(BtreeError::UnformattedPage { page }),
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
        let m = Machine::new(SimConfig::new(2));
        let mut db = StableDb::new(PageGeometry::new(128, 8)); // 1 KiB pages
        db.format(64);
        Owned { m, db, logs: LogSet::new(2), plt: PageLsnTable::new(), gsn: 0 }
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
    fn insert_then_search() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 42, val(420)).unwrap();
        let hit = tree.search(&mut c, N0, 42).unwrap().unwrap();
        assert_eq!(hit.entry.value, val(420));
        assert_eq!(hit.entry.tag, 0, "tagged with inserting node");
        assert!(tree.search(&mut c, N0, 43).unwrap().is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 42, val(1)).unwrap();
        assert_eq!(
            tree.insert(&mut c, t(0, 2), 42, val(2)),
            Err(BtreeError::DuplicateKey { key: 42 })
        );
    }

    #[test]
    fn many_inserts_cause_splits_and_stay_sorted() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        // Insert enough to split (leaf capacity with 1 KiB pages is 52).
        let n = 300u64;
        for i in 0..n {
            let key = (i * 7919) % 100_000; // scattered
            tree.insert(&mut c, t(0, i + 1), key, val(key)).unwrap();
        }
        assert!(tree.stats().splits > 0);
        assert!(tree.stats().root_grows >= 1);
        let live = tree.scan_live(&mut c, N0).unwrap();
        assert_eq!(live.len(), n as usize);
        let keys: Vec<u64> = live.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        tree.check_invariants(&mut c, N0).unwrap();
        // Every inserted key findable.
        for i in 0..n {
            let key = (i * 7919) % 100_000;
            assert!(tree.search(&mut c, N0, key).unwrap().is_some(), "key {key} lost");
        }
    }

    #[test]
    fn disordered_leaf_is_an_error_not_a_panic() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 3, val(3)).unwrap();
        tree.insert(&mut c, t(0, 2), 5, val(5)).unwrap();
        // Swap the root leaf's two entries in place.
        let mut img = Vec::new();
        c.read_page_into(N0, tree.root, &mut img).unwrap();
        let (first, second) = (tree.layout.leaf_entry(&img, 0), tree.layout.leaf_entry(&img, 1));
        tree.layout.set_leaf_entry(&mut img, 0, &second);
        tree.layout.set_leaf_entry(&mut img, 1, &first);
        c.write(N0, tree.root, 0, &img).unwrap();
        assert_eq!(
            tree.check_invariants(&mut c, N0),
            Err(BtreeError::OutOfOrder { key: 3, lo: 5, hi: u64::MAX })
        );
    }

    #[test]
    fn logical_delete_hides_then_commit_reclaims() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        let txn = t(0, 1);
        tree.insert(&mut c, txn, 5, val(55)).unwrap();
        tree.commit_key(&mut c, txn, 5).unwrap(); // simulate commit of insert
        let txn2 = t(0, 2);
        tree.delete(&mut c, txn2, 5).unwrap();
        assert!(tree.search(&mut c, N0, 5).unwrap().is_none(), "marked entries invisible");
        // Entry still physically present (space not reclaimed).
        let hit = tree.search_any(&mut c, N0, 5).unwrap().unwrap();
        assert!(hit.entry.deleted);
        assert_eq!(hit.entry.tag, 0);
        tree.commit_key(&mut c, txn2, 5).unwrap();
        assert!(tree.search_any(&mut c, N0, 5).unwrap().is_none(), "space reclaimed after commit");
    }

    #[test]
    fn undo_delete_unmarks() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        let txn = t(0, 1);
        tree.insert(&mut c, txn, 5, val(55)).unwrap();
        tree.commit_key(&mut c, txn, 5).unwrap();
        let txn2 = t(0, 2);
        tree.delete(&mut c, txn2, 5).unwrap();
        tree.undo_delete(&mut c, N0, 5).unwrap();
        let hit = tree.search(&mut c, N0, 5).unwrap().unwrap();
        assert_eq!(hit.entry.value, val(55));
        assert_eq!(hit.entry.tag, NULL_TAG);
    }

    #[test]
    fn undo_insert_removes() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 5, val(55)).unwrap();
        tree.undo_insert(&mut c, N0, 5).unwrap();
        assert!(tree.search_any(&mut c, N0, 5).unwrap().is_none());
    }

    #[test]
    fn delete_of_missing_key_errors() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        assert_eq!(tree.delete(&mut c, t(0, 1), 9), Err(BtreeError::KeyNotFound { key: 9 }));
    }

    #[test]
    fn concurrent_tag_conflict_detected() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 5, val(55)).unwrap();
        // A transaction on n1 tries to delete the uncommitted entry: the
        // lock layer would normally prevent this; the tree detects it.
        assert_eq!(
            tree.delete(&mut c, t(1, 1), 5),
            Err(BtreeError::ConcurrentUpdate { key: 5, tag: 0 })
        );
    }

    #[test]
    fn splits_are_early_committed() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        for i in 0..120u64 {
            tree.insert(&mut c, t(0, i + 1), i, val(i)).unwrap();
        }
        assert!(tree.stats().splits > 0);
        // Every structural record is in the *stable* prefix of the log.
        let structural_total = c.logs.log(N0).stats().structural_records;
        let stable_structural = c
            .logs
            .log(N0)
            .stable_records()
            .filter(|r| matches!(r.payload, LogPayload::Structural { .. }))
            .count() as u64;
        assert_eq!(structural_total, stable_structural);
        assert!(structural_total > 0);
    }

    #[test]
    fn cross_node_inserts_share_lines() {
        // Two nodes inserting adjacent keys touch the same leaf lines —
        // the §4.2.1 migration scenario.
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 10, val(1)).unwrap();
        let before = c.m.stats().invalidations + c.m.stats().migrations;
        tree.insert(&mut c, t(1, 1), 11, val(2)).unwrap();
        // n1 first reads the leaf (replication), then writes: n0's copy is
        // invalidated and the only copy ends up on n1 — the H_ww2 pattern.
        assert!(
            c.m.stats().invalidations + c.m.stats().migrations > before,
            "cross-node insert took the leaf lines away from n0"
        );
        let leaf = tree.first_leaf();
        let line0 = c.line_of(leaf, 20); // first entry's line
        assert_eq!(c.m.holders(line0), vec![N1], "only copy lives on the last writer");
        let live = tree.scan_live(&mut c, N0).unwrap();
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn tree_full_reported() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 2).unwrap();
        let mut hit_full = false;
        for i in 0..200u64 {
            match tree.insert(&mut c, t(0, i + 1), i, val(i)) {
                Ok(()) => {}
                Err(BtreeError::TreeFull) => {
                    hit_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(hit_full);
    }

    #[test]
    fn descending_and_random_order_inserts() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        for i in (0..150u64).rev() {
            tree.insert(&mut c, t(0, 200 - i), i, val(i)).unwrap();
        }
        tree.check_invariants(&mut c, N0).unwrap();
        let live = tree.scan_live(&mut c, N0).unwrap();
        assert_eq!(live.len(), 150);
        assert_eq!(live[0].0, 0);
        assert_eq!(live[149].0, 149);
    }

    #[test]
    fn range_live_respects_bounds_and_marks() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        for i in 0..200u64 {
            tree.insert(&mut c, t(0, i + 1), i * 2, val(i)).unwrap();
            tree.commit_key(&mut c, t(0, i + 1), i * 2).unwrap();
        }
        let txd = t(0, 900);
        tree.delete(&mut c, txd, 100).unwrap(); // marked, uncommitted
        let r = tree.range_live(&mut c, N0, 95, 110).unwrap();
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![96, 98, 102, 104, 106, 108, 110], "100 hidden by the mark");
        assert!(tree.range_live(&mut c, N0, 10, 5).unwrap().is_empty(), "inverted range");
        let all = tree.range_live(&mut c, N0, 0, u64::MAX).unwrap();
        assert_eq!(all.len(), 199);
    }

    #[test]
    fn reads_from_other_node_see_inserts() {
        let mut o = setup();
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, N0, 10, 40).unwrap();
        tree.insert(&mut c, t(0, 1), 7, val(77)).unwrap();
        let hit = tree.search(&mut c, N1, 7).unwrap().unwrap();
        assert_eq!(hit.entry.value, val(77));
    }
}
