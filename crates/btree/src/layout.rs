//! On-page layout of B+-tree nodes.
//!
//! Every tree node occupies one database page. Byte 0..8 is the Page-LSN
//! (the §6 convention — it lives in the first cache line of the page);
//! a small node header follows; fixed-size entries after that. Leaf entries
//! deliberately pack key, **undo tag**, **delete mark**, and value into one
//! contiguous span so that all of them share a cache line with the entry —
//! the §4.1.2 Tagging Rule ("the node ID is stored in the *same cache line*
//! as the active data object") and the §4.2.1 logical-delete property (a
//! migrating line containing an uncommitted delete also contains the
//! original record) hold physically.

use smdb_storage::{PageId, PAGE_DATA_OFFSET};

/// Value payload size for leaf entries, bytes.
pub const VAL_SIZE: usize = 8;
/// The null undo tag: the entry carries no uncommitted update.
pub const NULL_TAG: u16 = u16::MAX;
/// "No next leaf" sentinel in the leaf chain.
pub const NO_PAGE: u32 = u32::MAX;

/// Size of one leaf entry: key (8) + tag (2) + flags (1) + value.
pub const LEAF_ENTRY_SIZE: usize = 8 + 2 + 1 + VAL_SIZE;
/// Size of one branch entry: separator key (8) + child page (4).
pub const BRANCH_ENTRY_SIZE: usize = 8 + 4;

/// Node kind tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Leaf node: holds records.
    Leaf,
    /// Branch (internal) node: holds separator keys and child pointers.
    Branch,
}

impl NodeKind {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            NodeKind::Leaf => 1,
            NodeKind::Branch => 2,
        }
    }

    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Option<NodeKind> {
        match b {
            1 => Some(NodeKind::Leaf),
            2 => Some(NodeKind::Branch),
            _ => None,
        }
    }
}

/// One decoded leaf entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafEntry {
    /// The key.
    pub key: u64,
    /// Undo tag: the node id of the transaction with an uncommitted update
    /// to this entry, or [`NULL_TAG`].
    pub tag: u16,
    /// Logical delete mark (§4.2.1).
    pub deleted: bool,
    /// The value payload.
    pub value: [u8; VAL_SIZE],
}

/// One decoded branch reference: children with keys ≥ `key` live under
/// `child` (until the next separator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchRef {
    /// Separator key.
    pub key: u64,
    /// Child page.
    pub child: PageId,
}

/// Byte-offset calculator for tree pages of a given size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeLayout {
    /// Page size in bytes.
    pub page_size: usize,
}

// Header offsets (all relative to page start).
const KIND_OFF: usize = PAGE_DATA_OFFSET; // 1 byte
const NENTRIES_OFF: usize = PAGE_DATA_OFFSET + 1; // u16
const NEXT_LEAF_OFF: usize = PAGE_DATA_OFFSET + 3; // u32 (leaf only)
const LEFT_CHILD_OFF: usize = PAGE_DATA_OFFSET + 7; // u32 (branch only)
const ENTRIES_OFF: usize = PAGE_DATA_OFFSET + 12;

impl TreeLayout {
    /// Layout for `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        let l = TreeLayout { page_size };
        assert!(l.leaf_capacity() >= 4, "page too small for a useful leaf");
        assert!(l.branch_capacity() >= 4, "page too small for a useful branch");
        l
    }

    /// Offset of the header region (for dirty-range writes).
    pub fn header_range(&self) -> (usize, usize) {
        (KIND_OFF, ENTRIES_OFF)
    }

    /// Maximum leaf entries per node.
    pub fn leaf_capacity(&self) -> usize {
        (self.page_size - ENTRIES_OFF) / LEAF_ENTRY_SIZE
    }

    /// Maximum branch entries per node (in addition to the leftmost
    /// child).
    pub fn branch_capacity(&self) -> usize {
        (self.page_size - ENTRIES_OFF) / BRANCH_ENTRY_SIZE
    }

    /// Byte range of leaf entry `i`.
    pub fn leaf_entry_range(&self, i: usize) -> (usize, usize) {
        let start = ENTRIES_OFF + i * LEAF_ENTRY_SIZE;
        (start, start + LEAF_ENTRY_SIZE)
    }

    /// Byte range of branch entry `i`.
    pub fn branch_entry_range(&self, i: usize) -> (usize, usize) {
        let start = ENTRIES_OFF + i * BRANCH_ENTRY_SIZE;
        (start, start + BRANCH_ENTRY_SIZE)
    }

    // ---- header accessors over a page image ----

    /// Node kind stored in the image (`None` for an unformatted page).
    pub fn kind(&self, img: &[u8]) -> Option<NodeKind> {
        NodeKind::from_byte(img[KIND_OFF])
    }

    /// Set the node kind.
    pub fn set_kind(&self, img: &mut [u8], k: NodeKind) {
        img[KIND_OFF] = k.to_byte();
    }

    /// Entry count.
    pub fn n_entries(&self, img: &[u8]) -> usize {
        u16::from_le_bytes(img[NENTRIES_OFF..NENTRIES_OFF + 2].try_into().expect("u16")) as usize
    }

    /// Set the entry count.
    pub fn set_n_entries(&self, img: &mut [u8], n: usize) {
        img[NENTRIES_OFF..NENTRIES_OFF + 2].copy_from_slice(&(n as u16).to_le_bytes());
    }

    /// Next leaf in the chain, if any.
    pub fn next_leaf(&self, img: &[u8]) -> Option<PageId> {
        let v = u32::from_le_bytes(img[NEXT_LEAF_OFF..NEXT_LEAF_OFF + 4].try_into().expect("u32"));
        if v == NO_PAGE {
            None
        } else {
            Some(PageId(v))
        }
    }

    /// Set the next-leaf pointer.
    pub fn set_next_leaf(&self, img: &mut [u8], next: Option<PageId>) {
        let v = next.map(|p| p.0).unwrap_or(NO_PAGE);
        img[NEXT_LEAF_OFF..NEXT_LEAF_OFF + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Leftmost child of a branch node.
    pub fn left_child(&self, img: &[u8]) -> PageId {
        PageId(u32::from_le_bytes(img[LEFT_CHILD_OFF..LEFT_CHILD_OFF + 4].try_into().expect("u32")))
    }

    /// Set the leftmost child.
    pub fn set_left_child(&self, img: &mut [u8], child: PageId) {
        img[LEFT_CHILD_OFF..LEFT_CHILD_OFF + 4].copy_from_slice(&child.0.to_le_bytes());
    }

    /// Format an image as an empty node of the given kind.
    pub fn format(&self, img: &mut [u8], kind: NodeKind) {
        img[PAGE_DATA_OFFSET..].fill(0);
        self.set_kind(img, kind);
        self.set_n_entries(img, 0);
        if kind == NodeKind::Leaf {
            self.set_next_leaf(img, None);
        }
    }

    // ---- entry accessors ----

    /// Decode leaf entry `i`.
    pub fn leaf_entry(&self, img: &[u8], i: usize) -> LeafEntry {
        let (s, _) = self.leaf_entry_range(i);
        let key = u64::from_le_bytes(img[s..s + 8].try_into().expect("u64"));
        let tag = u16::from_le_bytes(img[s + 8..s + 10].try_into().expect("u16"));
        let deleted = img[s + 10] & 1 != 0;
        let mut value = [0u8; VAL_SIZE];
        value.copy_from_slice(&img[s + 11..s + 11 + VAL_SIZE]);
        LeafEntry { key, tag, deleted, value }
    }

    /// The on-page bytes of one leaf entry.
    pub fn encode_leaf_entry(e: &LeafEntry) -> [u8; LEAF_ENTRY_SIZE] {
        let mut b = [0u8; LEAF_ENTRY_SIZE];
        b[..8].copy_from_slice(&e.key.to_le_bytes());
        b[8..10].copy_from_slice(&e.tag.to_le_bytes());
        b[10] = e.deleted as u8;
        b[11..].copy_from_slice(&e.value);
        b
    }

    /// Encode leaf entry `i`.
    pub fn set_leaf_entry(&self, img: &mut [u8], i: usize, e: &LeafEntry) {
        let (s, t) = self.leaf_entry_range(i);
        img[s..t].copy_from_slice(&Self::encode_leaf_entry(e));
    }

    /// Decode branch entry `i`.
    pub fn branch_ref(&self, img: &[u8], i: usize) -> BranchRef {
        let (s, _) = self.branch_entry_range(i);
        let key = u64::from_le_bytes(img[s..s + 8].try_into().expect("u64"));
        let child = PageId(u32::from_le_bytes(img[s + 8..s + 12].try_into().expect("u32")));
        BranchRef { key, child }
    }

    /// Encode branch entry `i`.
    pub fn set_branch_ref(&self, img: &mut [u8], i: usize, r: &BranchRef) {
        let (s, _) = self.branch_entry_range(i);
        img[s..s + 8].copy_from_slice(&r.key.to_le_bytes());
        img[s + 8..s + 12].copy_from_slice(&r.child.0.to_le_bytes());
    }

    /// All leaf entries of a leaf image.
    pub fn leaf_entries(&self, img: &[u8]) -> Vec<LeafEntry> {
        (0..self.n_entries(img)).map(|i| self.leaf_entry(img, i)).collect()
    }

    /// All branch refs of a branch image.
    pub fn branch_refs(&self, img: &[u8]) -> Vec<BranchRef> {
        (0..self.n_entries(img)).map(|i| self.branch_ref(img, i)).collect()
    }

    // ---- lookups (entries are kept sorted by key) ----

    /// Number of leading entries of a node image whose key satisfies
    /// `below` (binary search; `below` must hold for a prefix of the
    /// key-sorted entries). `stride` is the node kind's entry size.
    fn key_partition(&self, img: &[u8], stride: usize, below: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.n_entries(img));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let s = ENTRIES_OFF + mid * stride;
            if below(u64::from_le_bytes(img[s..s + 8].try_into().expect("u64"))) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child of a branch image under which `key` belongs: the child of
    /// the last separator `<= key`, or the leftmost child.
    pub fn child_for(&self, img: &[u8], key: u64) -> PageId {
        match self.key_partition(img, BRANCH_ENTRY_SIZE, |k| k <= key) {
            0 => self.left_child(img),
            n => self.branch_ref(img, n - 1).child,
        }
    }

    /// Where a new separator `key` goes in a branch image: before the
    /// first separator greater than it.
    pub fn branch_insert_pos(&self, img: &[u8], key: u64) -> usize {
        self.key_partition(img, BRANCH_ENTRY_SIZE, |k| k <= key)
    }

    /// Where a new entry for `key` goes in a leaf image: after every
    /// entry with a key `<= key` (so behind delete-marked entries of the
    /// same key).
    pub fn leaf_insert_pos(&self, img: &[u8], key: u64) -> usize {
        self.key_partition(img, LEAF_ENTRY_SIZE, |k| k <= key)
    }

    /// The first entry for `key` in a leaf image, skipping delete-marked
    /// ones unless `include_deleted`. A key can occupy several adjacent
    /// entries: delete-marked ones awaiting their deleter's commit, then
    /// at most one live re-insert.
    pub fn find_leaf_entry(
        &self,
        img: &[u8],
        key: u64,
        include_deleted: bool,
    ) -> Option<(usize, LeafEntry)> {
        let first = self.key_partition(img, LEAF_ENTRY_SIZE, |k| k < key);
        (first..self.n_entries(img))
            .map(|i| (i, self.leaf_entry(img, i)))
            .take_while(|(_, e)| e.key == key)
            .find(|(_, e)| include_deleted || !e.deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TreeLayout {
        TreeLayout::new(1024)
    }

    #[test]
    fn capacities_are_sane() {
        let l = layout();
        assert_eq!(l.leaf_capacity(), (1024 - 20) / 19);
        assert_eq!(l.branch_capacity(), (1024 - 20) / 12);
    }

    #[test]
    fn leaf_entry_round_trip() {
        let l = layout();
        let mut img = vec![0u8; 1024];
        l.format(&mut img, NodeKind::Leaf);
        let e = LeafEntry { key: 0xFEED, tag: 3, deleted: true, value: *b"eightby!" };
        l.set_leaf_entry(&mut img, 5, &e);
        assert_eq!(l.leaf_entry(&img, 5), e);
    }

    #[test]
    fn branch_ref_round_trip() {
        let l = layout();
        let mut img = vec![0u8; 1024];
        l.format(&mut img, NodeKind::Branch);
        l.set_left_child(&mut img, PageId(9));
        let r = BranchRef { key: 77, child: PageId(13) };
        l.set_branch_ref(&mut img, 0, &r);
        assert_eq!(l.branch_ref(&img, 0), r);
        assert_eq!(l.left_child(&img), PageId(9));
    }

    #[test]
    fn header_round_trip() {
        let l = layout();
        let mut img = vec![0u8; 1024];
        l.format(&mut img, NodeKind::Leaf);
        assert_eq!(l.kind(&img), Some(NodeKind::Leaf));
        assert_eq!(l.n_entries(&img), 0);
        assert_eq!(l.next_leaf(&img), None);
        l.set_n_entries(&mut img, 7);
        l.set_next_leaf(&mut img, Some(PageId(3)));
        assert_eq!(l.n_entries(&img), 7);
        assert_eq!(l.next_leaf(&img), Some(PageId(3)));
    }

    #[test]
    fn unformatted_page_has_no_kind() {
        let l = layout();
        let img = vec![0u8; 1024];
        assert_eq!(l.kind(&img), None);
    }

    #[test]
    fn format_clears_stale_entries() {
        let l = layout();
        let mut img = vec![0xFFu8; 1024];
        l.format(&mut img, NodeKind::Leaf);
        assert_eq!(l.n_entries(&img), 0);
        assert_eq!(l.next_leaf(&img), None);
    }

    #[test]
    fn entries_do_not_clobber_header() {
        let l = layout();
        let mut img = vec![0u8; 1024];
        l.format(&mut img, NodeKind::Leaf);
        l.set_n_entries(&mut img, 1);
        let e = LeafEntry { key: 1, tag: NULL_TAG, deleted: false, value: [0; VAL_SIZE] };
        l.set_leaf_entry(&mut img, 0, &e);
        assert_eq!(l.kind(&img), Some(NodeKind::Leaf));
        assert_eq!(l.n_entries(&img), 1);
    }
}
