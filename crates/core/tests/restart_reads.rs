//! The eager plan's stable-database reads are made by every live node: the
//! crash-lost pages and each page an entry would fault in, every one read
//! once, dealt out like a checkpoint's write-back
//! (`smdb_wal::assign_flushers`), between two barriers. An instant restart
//! reads none of them before its open.

use smdb_core::{DbConfig, ProtocolKind, RecoveryOutcome, RestartScheme, SmDb};
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

/// What one restart read: who installed each heap page, and how often any
/// heap line was installed twice.
struct Reads {
    reader: BTreeMap<PageId, BTreeSet<u16>>,
    twice: usize,
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
    let heap_lines = db.heap_pages() as u64 * db.config().lines_per_page as u64;
    let mut reads = Reads { reader: BTreeMap::new(), twice: 0 };
    let mut seen = BTreeSet::new();
    for record in db.observability().bus.drain() {
        if let Event::Install { node, line } = record.event {
            if line < heap_lines {
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
