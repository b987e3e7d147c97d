//! The undo-tag ledger: restart's tag scan visits only the lines the
//! analysed nodes' ledgers name, so every way a node's tag can come to sit
//! on a surviving copy must have set that node's bit.
//!
//! One test per hazard. Each builds the hazard, asserts that a surviving
//! copy really carries the tag (the whole-cache scan would find it), and
//! holds the ledger's scan to the whole-cache scan with
//! `SmDb::check_tag_scan` between the crash and its recovery; the
//! recovered state must then be the committed one.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, MtTxn, Op, ProtocolKind, SmDb, FAULT_RESTART_INSTALL};
use smdb_sim::{LineId, NodeId};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);
const NULL_TAG: u16 = u16::MAX;

fn mk(instant: bool) -> SmDb {
    let cfg = DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo);
    SmDb::new(if instant { cfg.with_instant_restart() } else { cfg })
}

/// The ledger's scan of the pending crash finds what the whole-cache scan
/// finds, in the same order.
fn ledger_exact(db: &SmDb, at: &str) {
    let diffs = db.check_tag_scan();
    assert!(diffs.is_empty(), "tag scan diverged {at}:\n  {}", diffs.join("\n  "));
}

/// The tag of `slot` on the copy a survivor holds (what the whole-cache
/// scan reads), if a survivor holds the record's line.
fn held_tag(db: &SmDb, slot: u64) -> Option<u16> {
    let layout = db.record_layout();
    let rec = layout.rec_of_global(slot);
    let line = LineId(layout.geometry.line_addr(rec.page, layout.line_and_offset(rec.slot).0));
    db.machine().peek(line).map(|_| db.current_tag(slot).unwrap())
}

fn commit_value(db: &mut SmDb, node: NodeId, slot: u64, value: &[u8]) {
    let t = db.begin(node).unwrap();
    db.update(t, slot, value).unwrap();
    db.commit(t).unwrap();
}

fn drain_all(db: &mut SmDb) {
    let host = db.machine().surviving_nodes()[0];
    while db.redo_pending() > 0 {
        db.drain_redo(host, 8).unwrap();
    }
}

/// Recover, drain, and require the committed state (and no tag left on
/// `slot`).
fn recover_clean(db: &mut SmDb, slot: u64) {
    db.recover().unwrap();
    drain_all(db);
    assert_eq!(db.current_value(slot).unwrap(), db.read_committed(slot).unwrap());
    assert_eq!(db.current_tag(slot).unwrap(), NULL_TAG, "the tag scan cleared the tag");
    db.check_ifa(db.machine().surviving_nodes()[0]).assert_ok();
}

/// A stolen update's tag reaches the stable image; a crash of another node
/// destroys the line, and its restart reinstalls the image with the tag
/// (the writer is alive, so the tag is not scrubbed). The writer's later
/// crash must find it on the reinstalled line.
#[test]
fn steal_flush_then_a_crash_that_reinstalls_the_tagged_image() {
    let mut db = mk(false);
    commit_value(&mut db, N3, 0, b"base");
    let t = db.begin(N1).unwrap();
    db.update(t, 0, b"stolen").unwrap();
    let page = db.record_layout().rec_of_global(0).page;
    db.flush_page(N3, page).unwrap();
    // N2 takes the line (slot 1 shares it) and is its only holder.
    commit_value(&mut db, N2, 1, b"n2");
    db.crash(&[N2]);
    ledger_exact(&db, "after N2's crash");
    db.recover().unwrap();
    assert_eq!(held_tag(&db, 0), Some(N1.0), "the reinstalled image carries N1's tag");
    // A survivor other than the writer holds a copy too.
    db.read_dirty(N3, 2).unwrap();
    db.crash(&[N1]);
    assert_eq!(held_tag(&db, 0), Some(N1.0), "a survivor's copy carries the tag");
    ledger_exact(&db, "after N1's crash");
    recover_clean(&mut db, 0);
}

/// Early lock release: the successor re-tags the record before the
/// predecessor's acknowledgement, which then leaves the tag alone. The
/// successor's crash must find its tag.
#[test]
fn elr_successor_retags_a_record_whose_predecessor_skips_the_clear() {
    let cfg = DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo)
        .without_index()
        .with_early_lock_release();
    let mut db = SmDb::new(cfg);
    commit_value(&mut db, N3, 0, b"base");
    let p = db.begin(N1).unwrap();
    db.update(p, 0, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let s = db.begin(N2).unwrap();
    db.update(s, 0, b"from-s").unwrap();
    db.drain_commit_pipeline().unwrap();
    assert_eq!(held_tag(&db, 0), Some(N2.0), "P's acknowledgement left S's tag");
    db.read_dirty(N3, 1).unwrap();
    db.crash(&[N2]);
    assert_eq!(held_tag(&db, 0), Some(N2.0), "a survivor's copy carries S's tag");
    ledger_exact(&db, "after the successor's crash");
    recover_clean(&mut db, 0);
    assert_eq!(&db.current_value(0).unwrap()[..6], b"from-p");
}

/// A parallel transaction's update on a participant carries the
/// participant's tag, not the home node's: the participant's crash must
/// find it.
#[test]
fn parallel_participant_tag_is_the_participants() {
    let mut db = mk(false);
    commit_value(&mut db, N3, 0, b"base");
    let t = db.begin(N0).unwrap();
    db.attach(t, N1).unwrap();
    db.update_on(t, N1, 0, b"on-n1").unwrap();
    db.read_dirty(N2, 1).unwrap();
    db.crash(&[N1]);
    assert_eq!(held_tag(&db, 0), Some(N1.0), "the participant's tag survives on N2");
    ledger_exact(&db, "after the participant's crash");
    recover_clean(&mut db, 0);
}

/// A committed value's tag outlives the commit in the stable image (a
/// steal flushed it while the writer was active, and the commit's clear
/// stays in the cache). A total failure discards every cache. The writer's
/// next crash finds the line cached nowhere, so its scan must keep the bit
/// for the stable image's sake; a forward read then faults the tagged
/// image back in, and the writer's crash after that must find the tag.
#[test]
fn total_failure_then_a_forward_fault_of_a_tagged_image() {
    let mut db = mk(false);
    commit_value(&mut db, N3, 0, b"base");
    let t = db.begin(N1).unwrap();
    db.update(t, 0, b"kept").unwrap();
    db.checkpoint(N3).unwrap();
    db.commit(t).unwrap();
    let all: Vec<NodeId> = (0..4).map(NodeId).collect();
    db.crash(&all);
    ledger_exact(&db, "after the total failure");
    db.recover().unwrap();
    for n in 1..4 {
        db.reboot(NodeId(n));
    }
    db.crash(&[N1]);
    ledger_exact(&db, "after N1's first crash");
    db.recover().unwrap();
    db.reboot(N1);
    let r = db.begin(N2).unwrap();
    db.read(r, 0).unwrap();
    db.commit(r).unwrap();
    db.crash(&[N1]);
    assert_eq!(held_tag(&db, 0), Some(N1.0), "the faulted-in image carries N1's tag");
    ledger_exact(&db, "after N1's second crash");
    recover_clean(&mut db, 0);
    assert_eq!(&db.current_value(0).unwrap()[..4], b"kept");
}

/// A tag written inside an epoch lane lives in the lane's ledger until
/// the barrier ORs it into the engine's. Lanes are not crash-hardened: a
/// lane's transaction commits (clearing its tag) or rolls back before the
/// barrier, so no surviving copy carries the tag past it, and what shows
/// is the ledger itself — the writer's next tag scan visits the line.
#[test]
fn tag_written_inside_an_epoch_lane() {
    let mut db = mk(false);
    commit_value(&mut db, N3, 0, b"base");
    let lane_txn = MtTxn { node: N1, ops: vec![Op::Update(0, *b"in-lane!")] };
    assert_eq!(db.run_epochs(vec![lane_txn], 1).unwrap().committed, 1);
    let t = db.begin(N1).unwrap();
    db.update(t, 3, b"outside").unwrap();
    db.read_dirty(N2, 4).unwrap();
    db.crash(&[N1]);
    ledger_exact(&db, "after the lane node's crash");
    let outcome = db.recover().unwrap();
    assert_eq!(outcome.tag_scan_lines, 2, "the scan visits the lane's line and the outside one");
    assert_eq!(db.current_value(3).unwrap(), db.read_committed(3).unwrap());
    assert_eq!(&db.current_value(0).unwrap()[..8], b"in-lane!");
    db.check_ifa(N2).assert_ok();
}

/// An interrupted restart: page readers install lost pages from stable
/// images that carry a live node's stolen tags, then that node dies as the
/// next reader, before its share. Its tags sit on stale reinstalls held by
/// the readers before it, and the re-entered restart, which analyses it,
/// must find them.
#[test]
fn interrupted_restart_leaves_tagged_stale_reinstalls() {
    for k in 0..4 {
        let mut db = mk(false);
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        let rpp = db.record_layout().records_per_page() as u64;
        let pages = 6;
        // On each page N3 steals an update of the first record; N2 then
        // commits the second and is its line's only holder.
        let t = db.begin(N3).unwrap();
        for p in 0..pages {
            db.update(t, p * rpp, b"stolen").unwrap();
            db.flush_page(N1, db.record_layout().rec_of_global(p * rpp).page).unwrap();
        }
        for p in 0..pages {
            commit_value(&mut db, N2, p * rpp + 1, b"n2");
        }
        db.crash(&[N2]);
        fault.arm(FaultPlan::single(CrashPoint::new(FAULT_RESTART_INSTALL, k)));
        let Err(err) = db.recover() else { continue };
        let reader = NodeId(err.fault_crash().expect("a crash point").node);
        if reader != N3 {
            continue;
        }
        db.crash(&[reader]);
        let stale = (0..pages).filter(|p| held_tag(&db, p * rpp) == Some(N3.0)).count();
        assert!(stale > 0, "the readers before N3 hold its tags");
        ledger_exact(&db, "after the reader's crash");
        let outcome = db.recover().unwrap();
        assert_eq!(outcome.aborted, vec![t]);
        for p in 0..pages {
            assert_eq!(db.current_value(p * rpp).unwrap(), db.read_committed(p * rpp).unwrap());
            assert_eq!(db.current_tag(p * rpp).unwrap(), NULL_TAG);
        }
        db.check_ifa(N0).assert_ok();
        return;
    }
    panic!("no install point took N3 after another reader's share");
}

/// An instant restart leaves an undo entry pending for a record whose
/// survivor copy still carries the victim's tag: the scan skips it (the
/// entry overwrites tag and payload), so the victim's bit must stay. The
/// victim is rebooted and crashes again before the drain: the re-entered
/// restart drops the plan, and only the tag scan finds the record.
#[test]
fn instant_restart_keeps_the_bit_of_a_pending_entry() {
    let mut db = mk(true);
    commit_value(&mut db, N3, 0, b"base");
    let t = db.begin(N0).unwrap();
    db.update(t, 0, b"doomed").unwrap();
    // A commit on N0 forces its log past T's update: the analysis sees
    // T's record, so undo wins and becomes a plan entry.
    commit_value(&mut db, N0, 40, b"other");
    db.read_dirty(N1, 1).unwrap();
    db.crash(&[N0]);
    ledger_exact(&db, "after the first crash");
    db.recover().unwrap();
    assert!(db.redo_pending() > 0, "the undo entry is pending");
    assert_eq!(held_tag(&db, 0), Some(N0.0), "the survivor's copy still carries the tag");
    db.reboot(N0);
    db.crash(&[N0]);
    ledger_exact(&db, "after the second crash");
    recover_clean(&mut db, 0);
}

/// The page of record `slot`.
fn page_of(db: &SmDb, slot: u64) -> smdb_storage::PageId {
    db.record_layout().rec_of_global(slot).page
}

/// A checkpoint flushes every page, so the lines a node wrote and
/// committed carry its tag nowhere afterwards: their bits go, and the
/// node's next crash visits only the line of its in-flight update, whose
/// bit the stolen image keeps.
#[test]
fn a_checkpoint_clears_the_bits_of_committed_lines() {
    for instant in [false, true] {
        let mut db = mk(instant);
        let rpp = db.record_layout().records_per_page() as u64;
        for p in 0..4 {
            commit_value(&mut db, N1, p * rpp, b"done");
        }
        let t = db.begin(N1).unwrap();
        db.update(t, 4 * rpp, b"inflight").unwrap();
        db.read_dirty(N2, 4 * rpp + 1).unwrap();
        db.checkpoint(N3).unwrap();
        db.crash(&[N1]);
        ledger_exact(&db, "after the writer's crash");
        let outcome = db.recover().unwrap();
        assert_eq!(outcome.tag_scan_lines, 1, "instant={instant}: only the in-flight line");
        drain_all(&mut db);
        assert_eq!(db.current_tag(4 * rpp).unwrap(), NULL_TAG);
        db.check_ifa(N2).assert_ok();
    }
}

/// An uncommitted update the checkpoint steals keeps its tag on the
/// survivor's copy and on the stable image: its bit stays, and the
/// writer's crash after the checkpoint finds it.
#[test]
fn a_steal_flushed_update_keeps_its_bit_across_the_checkpoint() {
    let mut db = mk(false);
    commit_value(&mut db, N3, 0, b"base");
    let t = db.begin(N1).unwrap();
    db.update(t, 0, b"stolen").unwrap();
    db.read_dirty(N2, 1).unwrap();
    db.checkpoint(N3).unwrap();
    db.evict_page(page_of(&db, 0));
    assert_eq!(db.current_tag(0).unwrap(), N1.0, "the checkpoint stole the tagged value");
    db.read_dirty(N2, 1).unwrap();
    db.crash(&[N1]);
    assert_eq!(held_tag(&db, 0), Some(N1.0), "a survivor's copy carries the tag");
    ledger_exact(&db, "after the writer's crash");
    recover_clean(&mut db, 0);
}

/// The commit clears a tag in the cache only; a steal had already taken
/// the tagged value to the stable image, and a later checkpoint flushes
/// nothing of the page (no update dirtied it since). The cached copy is
/// clean but the image is not, so the bit stays — and once the page is
/// evicted and faulted back in, the writer's crash finds the tag.
#[test]
fn a_line_whose_stable_image_keeps_the_tag_keeps_its_bit() {
    let mut db = mk(false);
    commit_value(&mut db, N3, 0, b"base");
    let t = db.begin(N1).unwrap();
    db.update(t, 0, b"kept").unwrap();
    db.checkpoint(N3).unwrap();
    db.commit(t).unwrap();
    assert_eq!(db.current_tag(0).unwrap(), NULL_TAG, "the commit cleared the cached tag");
    db.checkpoint(N3).unwrap();
    db.evict_page(page_of(&db, 0));
    assert_eq!(db.current_tag(0).unwrap(), N1.0, "the stable image still carries the tag");
    let r = db.begin(N2).unwrap();
    db.read(r, 0).unwrap();
    db.commit(r).unwrap();
    db.crash(&[N1]);
    assert_eq!(held_tag(&db, 0), Some(N1.0), "the faulted-in image carries N1's tag");
    ledger_exact(&db, "after the writer's crash");
    recover_clean(&mut db, 0);
    assert_eq!(&db.current_value(0).unwrap()[..4], b"kept");
}
