//! Model-based property tests: the shared-memory B+-tree against a
//! `BTreeMap` reference model, under random multi-node op sequences with
//! commit/abort processing, plus structural invariants after every
//! operation batch.

use proptest::prelude::*;
use smdb_btree::{
    BTree, BranchRef, BtreeError, LeafEntry, NodeKind, TreeCtx, TreeLayout, NULL_TAG, VAL_SIZE,
};
use smdb_sim::{Machine, NodeId, SimConfig, TxnId};
use smdb_storage::{PageGeometry, PageId, StableDb};
use smdb_wal::{LbmMode, LogSet, PageLsnTable};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    /// Insert key (value derived from key); committed immediately.
    InsertCommit { node: u16, key: u64 },
    /// Insert then roll back.
    InsertAbort { node: u16, key: u64 },
    /// Delete an existing key (if any); committed immediately.
    DeleteCommit { node: u16, key_idx: usize },
    /// Delete an existing key then roll back.
    DeleteAbort { node: u16, key_idx: usize },
    /// Point lookup of an arbitrary key.
    Lookup { node: u16, key: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u64..200;
    prop_oneof![
        4 => (0u16..3, key.clone()).prop_map(|(node, key)| Op::InsertCommit { node, key }),
        2 => (0u16..3, key.clone()).prop_map(|(node, key)| Op::InsertAbort { node, key }),
        2 => (0u16..3, any::<prop::sample::Index>())
            .prop_map(|(node, i)| Op::DeleteCommit { node, key_idx: i.index(1 << 16) }),
        1 => (0u16..3, any::<prop::sample::Index>())
            .prop_map(|(node, i)| Op::DeleteAbort { node, key_idx: i.index(1 << 16) }),
        2 => (0u16..3, key).prop_map(|(node, key)| Op::Lookup { node, key }),
    ]
}

fn val_for(key: u64) -> [u8; VAL_SIZE] {
    (key * 31 + 7).to_le_bytes()
}

struct Owned {
    m: Machine,
    db: StableDb,
    logs: LogSet,
    plt: PageLsnTable,
    gsn: u64,
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn tree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut o = Owned {
            m: Machine::new(SimConfig::new(3)),
            db: {
                let mut db = StableDb::new(PageGeometry::new(128, 8));
                db.format(64);
                db
            },
            logs: LogSet::new(3),
            plt: PageLsnTable::new(),
            gsn: 0,
        };
        let mut c = ctx!(o);
        let mut tree = BTree::create(&mut c, NodeId(0), 10, 50).expect("create");
        let mut model: BTreeMap<u64, [u8; VAL_SIZE]> = BTreeMap::new();
        let mut seq = 0u64;
        for op in ops {
            seq += 1;
            match op {
                Op::InsertCommit { node, key } => {
                    let txn = TxnId::new(NodeId(node), seq);
                    match tree.insert(&mut c, txn, key, val_for(key)) {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&key), "insert succeeded on live key");
                            tree.commit_key(&mut c, txn, key).expect("commit");
                            model.insert(key, val_for(key));
                        }
                        Err(BtreeError::DuplicateKey { .. }) => {
                            prop_assert!(model.contains_key(&key), "spurious duplicate");
                        }
                        Err(BtreeError::TreeFull) => return Ok(()),
                        Err(e) => return Err(TestCaseError::fail(format!("insert: {e}"))),
                    }
                }
                Op::InsertAbort { node, key } => {
                    let txn = TxnId::new(NodeId(node), seq);
                    match tree.insert(&mut c, txn, key, val_for(key)) {
                        Ok(()) => {
                            tree.undo_insert(&mut c, NodeId(node), key).expect("undo");
                            // Model unchanged.
                        }
                        Err(BtreeError::DuplicateKey { .. }) => {}
                        Err(BtreeError::TreeFull) => return Ok(()),
                        Err(e) => return Err(TestCaseError::fail(format!("insert: {e}"))),
                    }
                }
                Op::DeleteCommit { node, key_idx } => {
                    let Some(&key) = model.keys().nth(key_idx % model.len().max(1)) else {
                        continue;
                    };
                    let txn = TxnId::new(NodeId(node), seq);
                    tree.delete(&mut c, txn, key).expect("delete of live key");
                    tree.commit_key(&mut c, txn, key).expect("commit");
                    model.remove(&key);
                }
                Op::DeleteAbort { node, key_idx } => {
                    let Some(&key) = model.keys().nth(key_idx % model.len().max(1)) else {
                        continue;
                    };
                    let txn = TxnId::new(NodeId(node), seq);
                    tree.delete(&mut c, txn, key).expect("delete of live key");
                    tree.undo_delete(&mut c, NodeId(node), key).expect("undo");
                    // Model unchanged; the entry must be live again with a
                    // clean tag.
                    let hit = tree.search(&mut c, NodeId(node), key).expect("search").expect("live");
                    prop_assert_eq!(hit.entry.tag, NULL_TAG);
                }
                Op::Lookup { node, key } => {
                    let hit = tree.search(&mut c, NodeId(node), key).expect("search");
                    match (hit, model.get(&key)) {
                        (Some(h), Some(v)) => prop_assert_eq!(&h.entry.value, v),
                        (None, None) => {}
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "lookup {key}: got {:?}, want {:?}",
                                got.map(|h| h.entry.value),
                                want
                            )))
                        }
                    }
                }
            }
        }
        // Final full comparison + structural invariants.
        let live: BTreeMap<u64, [u8; VAL_SIZE]> =
            tree.scan_live(&mut c, NodeId(0)).expect("scan").into_iter().collect();
        prop_assert_eq!(live, model);
        tree.check_invariants(&mut c, NodeId(0)).expect("invariants");
    }
}

// ----------------------------------------------------------------------
// Binary-search lookups ≡ the linear scans they replaced
// ----------------------------------------------------------------------

/// The old `find_in_leaf`: first entry for `key` in slot order, skipping
/// delete-marked ones unless asked, giving up past the key.
fn linear_find(
    l: &TreeLayout,
    img: &[u8],
    key: u64,
    include_deleted: bool,
) -> Option<(usize, LeafEntry)> {
    for i in 0..l.n_entries(img) {
        let e = l.leaf_entry(img, i);
        if e.key == key && (include_deleted || !e.deleted) {
            return Some((i, e));
        }
        if e.key > key {
            break;
        }
    }
    None
}

/// The old `child_for`: the child of the last separator `<= key`.
fn linear_child(l: &TreeLayout, img: &[u8], key: u64) -> PageId {
    let mut child = l.left_child(img);
    for r in l.branch_refs(img) {
        if key >= r.key {
            child = r.child;
        } else {
            break;
        }
    }
    child
}

proptest! {
    /// Leaves as the tree builds them: key-sorted, and a key may occupy a
    /// run of adjacent entries — delete-marked ones (their deleters not
    /// yet committed or compacted) followed by at most one live re-insert.
    #[test]
    fn leaf_lookups_agree_with_the_linear_scan(
        runs in proptest::collection::vec((1u64..4, 0usize..4, any::<bool>()), 0..16),
        probe_gap in 0u64..3,
    ) {
        let l = TreeLayout::new(1024);
        let mut img = vec![0u8; 1024];
        l.format(&mut img, NodeKind::Leaf);
        let (mut key, mut n) = (0u64, 0usize);
        for (gap, marked, live) in runs {
            key += gap;
            for k in 0..marked + live as usize {
                let e = LeafEntry {
                    key,
                    tag: if k < marked { k as u16 } else { NULL_TAG },
                    deleted: k < marked,
                    value: (n as u64).to_le_bytes(),
                };
                l.set_leaf_entry(&mut img, n, &e);
                n += 1;
            }
        }
        prop_assert!(n <= l.leaf_capacity());
        l.set_n_entries(&mut img, n);
        for probe in 0..key + 1 + probe_gap {
            for include_deleted in [false, true] {
                prop_assert_eq!(
                    l.find_leaf_entry(&img, probe, include_deleted),
                    linear_find(&l, &img, probe, include_deleted),
                    "key {} include_deleted {}", probe, include_deleted
                );
            }
            // A new entry goes before the first entry with a greater key.
            let pos = (0..n).find(|&i| l.leaf_entry(&img, i).key > probe).unwrap_or(n);
            prop_assert_eq!(l.leaf_insert_pos(&img, probe), pos, "insert position of {}", probe);
        }
    }

    #[test]
    fn branch_lookups_agree_with_the_linear_scan(
        gaps in proptest::collection::vec(1u64..5, 0..40),
        probe_gap in 0u64..3,
    ) {
        let l = TreeLayout::new(1024);
        let mut img = vec![0u8; 1024];
        l.format(&mut img, NodeKind::Branch);
        l.set_left_child(&mut img, PageId(1000));
        let mut key = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            key += gap;
            l.set_branch_ref(&mut img, i, &BranchRef { key, child: PageId(i as u32) });
        }
        l.set_n_entries(&mut img, gaps.len());
        for probe in 0..key + 1 + probe_gap {
            prop_assert_eq!(l.child_for(&img, probe), linear_child(&l, &img, probe));
            let pos = l.branch_refs(&img).iter().position(|r| r.key > probe).unwrap_or(gaps.len());
            prop_assert_eq!(l.branch_insert_pos(&img, probe), pos);
        }
    }
}
