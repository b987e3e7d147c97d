//! The restart's stable-database reads are made by every live node: the
//! eager plan's crash-lost pages and each page an entry would fault in, and
//! the index skeleton's pages, every one read once, dealt out like a
//! checkpoint's write-back (`smdb_wal::assign_flushers`), between two
//! barriers. An instant restart reads no heap page before its open; it
//! reads the skeleton as an eager one does.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{
    DbConfig, ProtocolKind, RecoveryOutcome, RestartScheme, SmDb, FAULT_RESTART_INSTALL,
};
use smdb_obs::Event;
use smdb_sim::NodeId;
use smdb_storage::PageId;
use std::collections::{BTreeMap, BTreeSet};

const NODES: u16 = 4;

/// Every record committed once: the first half round every node, so node 0
/// is the last writer of a share of those pages' lines, the second half
/// round the others only; then one update per node still in flight.
fn history(cfg: DbConfig) -> SmDb {
    let mut db = SmDb::new(cfg.without_index());
    let half = db.record_count() as u64 / 2;
    for slot in 0..2 * half {
        let node = if slot < half { slot % NODES as u64 } else { 1 + slot % (NODES as u64 - 1) };
        let t = db.begin(NodeId(node as u16)).unwrap();
        db.update(t, slot, &slot.to_le_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    for n in 0..NODES {
        let t = db.begin(NodeId(n)).unwrap();
        db.update(t, 3 * n as u64 + 1, b"in flight").unwrap();
    }
    db
}

fn phase(outcome: &RecoveryOutcome, name: &str) -> u64 {
    outcome.phases.iter().find(|p| p.phase == name).map(|p| p.sim_cycles).expect("phase ran")
}

fn page_of(db: &SmDb, line: u64) -> PageId {
    db.record_layout().geometry.page_of_addr(line).0
}

/// The heap pages holding a line the crash destroyed.
fn lost_pages(db: &SmDb) -> BTreeSet<PageId> {
    let heap_lines = db.heap_pages() as u64 * db.config().lines_per_page as u64;
    db.machine().iter_lost().filter(|l| l.0 < heap_lines).map(|l| page_of(db, l.0)).collect()
}

/// The database's lines: the heap's, then the index's (the lock table lies
/// beyond).
fn db_lines(db: &SmDb) -> u64 {
    let cfg = db.config();
    (db.heap_pages() + cfg.index_pages) as u64 * cfg.lines_per_page as u64
}

/// What one restart read: who installed each heap or tree page, and how
/// often any of their lines was installed twice.
struct Reads {
    reader: BTreeMap<PageId, BTreeSet<u16>>,
    twice: usize,
}

impl Reads {
    /// The tree pages read, and by whom.
    fn tree(&self, db: &SmDb) -> BTreeMap<PageId, BTreeSet<u16>> {
        let heap = PageId(db.heap_pages());
        self.reader.range(heap..).map(|(&page, nodes)| (page, nodes.clone())).collect()
    }
}

/// Crash `crashed` behind a clock barrier and recover, watching the bus.
fn crash_and_watch(
    db: &mut SmDb,
    crashed: &[NodeId],
) -> (RecoveryOutcome, BTreeSet<PageId>, Reads) {
    db.sync_clocks();
    db.crash(crashed);
    let lost = lost_pages(db);
    db.enable_observability(1 << 16);
    let outcome = db.recover().unwrap();
    let db_lines = db_lines(db);
    let mut reads = Reads { reader: BTreeMap::new(), twice: 0 };
    let mut seen = BTreeSet::new();
    for record in db.observability().bus.drain() {
        if let Event::Install { node, line } = record.event {
            if line < db_lines {
                reads.reader.entry(page_of(db, line)).or_default().insert(node);
                reads.twice += !seen.insert(line) as usize;
            }
        }
    }
    (outcome, lost, reads)
}

/// Every page the plan needs is read once, by one node: the lost pages —
/// all Selective Redo reads, its survivors' caches hold the rest — and,
/// under Redo All, which dropped every cached line first, each page an
/// entry would fault in: here every page the history wrote.
#[test]
fn every_page_is_read_exactly_once() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = history(DbConfig::small(NODES, protocol));
        let (outcome, lost, reads) = crash_and_watch(&mut db, &[NodeId(0)]);
        db.check_ifa(outcome.recovery_node).assert_ok();
        assert!(!lost.is_empty(), "{protocol:?}: the crash lost no heap page");
        assert_eq!(reads.twice, 0, "{protocol:?}: a line was installed twice");
        assert!(reads.reader.values().all(|r| r.len() == 1), "{protocol:?}: a page read twice");
        let read: BTreeSet<PageId> = reads.reader.keys().copied().collect();
        let faulted: BTreeSet<PageId> = read.difference(&lost).copied().collect();
        assert!(lost.is_subset(&read), "{protocol:?}: a lost page was not read");
        assert_eq!(outcome.pages_read, (lost.len() + faulted.len()) as u64, "{protocol:?}");
        if protocol.restart_scheme() == RestartScheme::RedoAll {
            let written = (0..db.heap_pages()).map(PageId).collect::<BTreeSet<_>>();
            assert_eq!(read, written, "{protocol:?}: Redo All reads every written page");
            assert!(!faulted.is_empty(), "{protocol:?}");
        } else {
            assert_eq!(faulted, BTreeSet::new(), "{protocol:?}: Selective Redo faults nothing");
        }
    }
}

/// The pages are dealt out over the live nodes, least-loaded first: no
/// reader has more than ⌈pages / live⌉, and the redo phase costs what the
/// busiest reader reads — plus, at most, the plan's writes — not the sum.
#[test]
fn the_redo_phase_costs_the_busiest_reader() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = history(DbConfig::small(NODES, protocol));
        let (outcome, _, reads) = crash_and_watch(&mut db, &[NodeId(0)]);
        let live = NODES as u64 - 1;
        assert_eq!(outcome.pages_read_max, outcome.pages_read.div_ceil(live), "{protocol:?}");
        let mut shares = BTreeMap::<u16, u64>::new();
        for readers in reads.reader.values() {
            *shares.entry(*readers.first().unwrap()).or_default() += 1;
        }
        assert_eq!(shares.values().max(), Some(&outcome.pages_read_max), "{protocol:?}");
        assert!(!shares.contains_key(&0), "{protocol:?}: the dead node read a page");

        let cfg = db.config();
        let cost = &cfg.cost;
        let read = outcome.pages_read_max * cost.disk_io;
        // A reader also pays a local hit per line it installs; a write at
        // worst takes its line from another cache and invalidates the rest.
        let installs = outcome.pages_read_max * cfg.lines_per_page as u64 * cost.local_hit;
        let writes =
            outcome.redo_applied * (cost.remote_transfer + (NODES as u64 - 1) * cost.invalidate);
        let redo = phase(&outcome, "redo");
        assert!(
            read <= redo && redo <= read + installs + writes,
            "{protocol:?}: redo {redo} cycles, busiest reader {read}, installs ≤ {installs}, \
             writes ≤ {writes}"
        );
        // Three readers: the phase is well under the pages read one by one.
        assert!(3 * redo < 2 * outcome.pages_read * cost.disk_io, "{protocol:?}: {outcome:?}");
    }
}

/// With one live node — node 0, rebooted after a machine-wide outage —
/// there is nobody to share with and no barrier to wait at: that node reads
/// every page, and the phase is the reads, the installs and the writes of
/// that one node, to the cycle — what the restart charged before the reads
/// were dealt out.
#[test]
fn a_lone_reader_reads_everything() {
    let all: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    for protocol in [ProtocolKind::VolatileSelectiveRedo, ProtocolKind::StableTriggered] {
        let mut db = history(DbConfig::small(NODES, protocol));
        let (outcome, _, reads) = crash_and_watch(&mut db, &all);
        db.check_ifa(NodeId(0)).assert_ok();
        assert_eq!(outcome.recovery_node, NodeId(0));
        assert!(outcome.pages_read > 0, "{protocol:?}");
        assert_eq!(outcome.pages_read_max, outcome.pages_read, "{protocol:?}");
        assert!(reads.reader.values().all(|r| r == &BTreeSet::from([0])), "{protocol:?}");
        let installed = reads.reader.len() as u64 * db.config().lines_per_page as u64;
        let cost = &db.config().cost;
        // Every line is node 0's: each write is a local hit.
        let want =
            outcome.pages_read * cost.disk_io + (installed + outcome.redo_applied) * cost.local_hit;
        assert_eq!(phase(&outcome, "redo"), want, "{protocol:?}");
    }
}

/// An instant restart opens before it reads a page: the plan's reads are
/// left to first access and the drain, where they always were.
#[test]
fn an_instant_restart_reads_no_page_before_the_open() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = history(DbConfig::small(NODES, protocol).with_instant_restart());
        let (outcome, lost, reads) = crash_and_watch(&mut db, &[NodeId(0)]);
        assert!(!lost.is_empty(), "{protocol:?}");
        assert_eq!((outcome.pages_read, outcome.pages_read_max), (0, 0), "{protocol:?}");
        assert!(reads.reader.is_empty(), "{protocol:?}: a page was read before the open");
        assert!(db.redo_pending() > 0, "{protocol:?}: nothing was deferred");
        while db.redo_pending() > 0 {
            db.drain_redo(NodeId(1), 64).unwrap();
        }
        db.check_ifa(NodeId(1)).assert_ok();
    }
}

/// Node 0 alone builds the index — `keys` committed inserts of even keys,
/// one a transaction — so it holds every line of every tree page, and its
/// crash leaves the whole skeleton to read back.
fn indexed_history(cfg: DbConfig, keys: u64) -> SmDb {
    let mut db = SmDb::new(cfg);
    for key in 0..keys {
        let t = db.begin(NodeId(0)).unwrap();
        db.insert(t, 2 * key, key.to_le_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    db
}

/// The tree's pages: its first leaf, and one per split or root growth.
fn tree_pages(db: &SmDb) -> BTreeSet<PageId> {
    let s = db.tree_stats();
    let first = db.heap_pages();
    (first..first + 1 + (s.splits + s.root_grows) as u32).map(PageId).collect()
}

/// What one tree page costs its reader: a disk read and a local hit per
/// line installed.
fn page_read_cycles(db: &SmDb) -> u64 {
    let cfg = db.config();
    cfg.cost.disk_io + cfg.lines_per_page as u64 * cfg.cost.local_hit
}

/// Every tree page the crash left to read is read once, by a live node —
/// eager or instant, the skeleton is read before the open.
#[test]
fn each_tree_page_is_read_exactly_once_by_a_live_node() {
    for protocol in ProtocolKind::ifa_protocols() {
        for instant in [false, true] {
            let at = format!("{protocol:?} instant={instant}");
            let cfg = DbConfig::small(NODES, protocol);
            let mut db =
                indexed_history(if instant { cfg.with_instant_restart() } else { cfg }, 200);
            let pages = tree_pages(&db);
            assert!(pages.len() >= 6, "{at}: the index has {} pages", pages.len());
            let (outcome, _, reads) = crash_and_watch(&mut db, &[NodeId(0)]);
            let tree = reads.tree(&db);
            assert_eq!(tree.keys().copied().collect::<BTreeSet<_>>(), pages, "{at}");
            assert!(tree.values().all(|r| r.len() == 1 && !r.contains(&0)), "{at}: {tree:?}");
            assert_eq!(reads.twice, 0, "{at}: a line was installed twice");
            assert_eq!(outcome.btree_recovery.pages_reinstalled, pages.len() as u64, "{at}");
            db.check_index_invariants(NodeId(1)).unwrap();
            db.check_ifa(NodeId(1)).assert_ok();
        }
    }
}

/// The skeleton is dealt round the live nodes in page order: the busiest
/// reader has ⌈pages / live⌉ of them, and that is what the reinstall phase
/// costs — not the pages one after the other.
#[test]
fn the_reinstall_phase_costs_the_busiest_reader() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = indexed_history(DbConfig::small(NODES, protocol), 200);
        let pages = tree_pages(&db).len() as u64;
        let (outcome, _, reads) = crash_and_watch(&mut db, &[NodeId(0)]);
        let live = NODES as u64 - 1;
        let mut shares = BTreeMap::<u16, u64>::new();
        for readers in reads.tree(&db).values() {
            *shares.entry(*readers.first().unwrap()).or_default() += 1;
        }
        assert_eq!(shares.len() as u64, live, "{protocol:?}: {shares:?}");
        assert_eq!(shares.values().max(), Some(&pages.div_ceil(live)), "{protocol:?}");
        let busiest = pages.div_ceil(live) * page_read_cycles(&db);
        assert_eq!(phase(&outcome, "reinstall"), busiest, "{protocol:?}");
    }
}

/// With one survivor there is nobody to share with: it reads every tree
/// page, and the phase is those reads one after the other, to the cycle.
#[test]
fn a_lone_survivor_reads_every_tree_page() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = indexed_history(DbConfig::small(NODES, protocol), 200);
        let pages = tree_pages(&db);
        let crashed = [NodeId(0), NodeId(2), NodeId(3)];
        let (outcome, _, reads) = crash_and_watch(&mut db, &crashed);
        assert_eq!(outcome.recovery_node, NodeId(1));
        let tree = reads.tree(&db);
        assert_eq!(tree.keys().copied().collect::<BTreeSet<_>>(), pages, "{protocol:?}");
        assert!(tree.values().all(|r| r == &BTreeSet::from([1])), "{protocol:?}");
        let alone = pages.len() as u64 * page_read_cycles(&db);
        assert_eq!(phase(&outcome, "reinstall"), alone, "{protocol:?}");
        db.check_ifa(NodeId(1)).assert_ok();
    }
}

/// Redo All discards every cached tree line and reads every page back —
/// once, and counted — where Selective Redo reads only what no survivor
/// holds. Node 1 scans the index first, so it holds a copy of every leaf.
#[test]
fn redo_all_reads_every_tree_page_once_and_counts_it() {
    let mut read = BTreeMap::new();
    for protocol in [ProtocolKind::VolatileRedoAll, ProtocolKind::VolatileSelectiveRedo] {
        let mut db = indexed_history(DbConfig::small(NODES, protocol), 200);
        db.index_scan(NodeId(1)).unwrap();
        let t = db.begin(NodeId(0)).unwrap();
        db.insert(t, 41, [41; 8]).unwrap();
        db.commit(t).unwrap();
        let pages = tree_pages(&db);
        let (outcome, _, reads) = crash_and_watch(&mut db, &[NodeId(0)]);
        let tree = reads.tree(&db);
        assert!(tree.values().all(|r| r.len() == 1), "{protocol:?}: a page read twice");
        assert_eq!(reads.twice, 0, "{protocol:?}: a line was installed twice");
        assert_eq!(outcome.btree_recovery.pages_reinstalled, tree.len() as u64, "{protocol:?}");
        if protocol.restart_scheme() == RestartScheme::RedoAll {
            assert_eq!(tree.keys().copied().collect::<BTreeSet<_>>(), pages);
        }
        db.check_ifa(NodeId(1)).assert_ok();
        read.insert(protocol.restart_scheme() == RestartScheme::RedoAll, tree.len());
    }
    assert!(read[&false] < read[&true], "Selective Redo reads fewer pages: {read:?}");
}

/// A skeleton reader dies before its share: the pages the readers before it
/// installed are stale images — here, leaves whose committed keys still
/// carry the tag their commit cleared in the lost cache. The re-entered
/// restart does not read them again (a survivor holds them), so it must
/// have learned they are stale *before* the reader died, or its tag scan
/// undoes the committed keys.
#[test]
fn a_skeleton_reader_dying_leaves_committed_keys_in_place() {
    for visit in [0, 1] {
        let mut db =
            indexed_history(DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo), 200);
        // One transaction inserts an odd key beside every tenth even one:
        // a key on every leaf. Its tags reach the stable images...
        let keys: Vec<u64> = (0..200).step_by(10).map(|k| 2 * k + 1).collect();
        let t = db.begin(NodeId(0)).unwrap();
        for &key in &keys {
            db.insert(t, key, key.to_le_bytes()).unwrap();
        }
        for page in tree_pages(&db) {
            db.flush_page(NodeId(0), page).unwrap();
        }
        // ...and its commit clears them in node 0's cache alone.
        db.commit(t).unwrap();
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        db.crash(&[NodeId(0)]);
        fault.arm(FaultPlan::single(CrashPoint::new(FAULT_RESTART_INSTALL, visit)));
        // Node 1 hosts the restart; nodes 2 and 3 read beside it.
        let err = db.recover().expect_err("the reader died");
        let c = *err.fault_crash().unwrap();
        assert_eq!((c.site, c.node), (FAULT_RESTART_INSTALL, 2 + visit as u16));
        db.crash(&[NodeId(c.node)]);
        db.recover().unwrap();
        let present: BTreeSet<u64> =
            db.index_scan(NodeId(1)).unwrap().into_iter().map(|(k, _)| k).collect();
        let missing: Vec<_> = keys.iter().filter(|k| !present.contains(k)).collect();
        assert!(missing.is_empty(), "reader {} died: committed keys undone: {missing:?}", c.node);
        db.check_index_invariants(NodeId(1)).unwrap();
        db.check_ifa(NodeId(1)).assert_ok();
    }
}
