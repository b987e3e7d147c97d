//! Restart's commit predicate against its independent oracle.
//!
//! Restart decides "durably committed?" from the transaction table
//! (acknowledged ⇒ settled) plus a dependency fixpoint over the few
//! unacknowledged commits. [`SmDb::check_commit_predicate`] recomputes the
//! answer by the whole-history fixpoint over every stable commit record,
//! never reading the table. These scenarios drive the corners where the
//! two could part: a violated-lock chain whose head lost its commit
//! record, LSN reuse on the rebooted node, lane-merged transaction tables,
//! a machine-wide outage under the FA-only baseline, and a read-only
//! transaction whose only obligation is a read of an early-released write.

use smdb_core::{DbConfig, DbError, MtTxn, Op, ProtocolKind, SmDb, TxnStatus};
use smdb_sim::{NodeId, TxnId};
use smdb_wal::LogPayload;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

fn assert_predicate_exact(db: &SmDb, at: &str) {
    let diffs = db.check_commit_predicate();
    assert!(diffs.is_empty(), "commit predicate diverged {at}:\n  {}", diffs.join("\n  "));
}

fn crash_and_recover_checked(db: &mut SmDb, nodes: &[NodeId]) {
    db.crash(nodes);
    assert_predicate_exact(db, "after crash");
    db.recover().expect("recovery");
    assert_predicate_exact(db, "after recover");
}

/// P (node 0) releases its lock early; S (node 1) overwrites P's value,
/// inherits the commit dependency, and gets its own commit record forced
/// — by an unrelated synchronous commit on node 1 — while P's still sits
/// in node 0's volatile tail. Node 0 dies: P's record is gone for good, so
/// S's *durable* commit record must never count, neither now, nor after
/// node 0 reboots and re-uses P's commit LSN for a different, forced
/// record, nor when S's own home log is re-analysed later.
#[test]
fn elr_chain_with_lost_predecessor_stays_excluded_across_lsn_reuse() {
    let cfg = DbConfig::small(4, ProtocolKind::StableEager)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = SmDb::new(cfg);
    let base = db.begin(N2).unwrap();
    db.update(base, 7, b"base").unwrap();
    db.commit(base).unwrap();

    let p = db.begin(N0).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let p_commit_lsn = db.logs().log(N0).last_lsn();
    let s = db.begin(N1).unwrap();
    db.update(s, 7, b"from-s").unwrap();
    db.commit_pipelined(s).unwrap();
    // Force node 1's log past S's commit record without acknowledging S.
    let bystander = db.begin(N1).unwrap();
    db.update(bystander, 100, b"bystander").unwrap();
    db.commit(bystander).unwrap();
    assert!(db.logs().log(N1).is_commit_stable(s), "S's commit record is durable");
    assert!(!db.logs().log(N0).is_commit_stable(p), "P's is still volatile");
    assert_predicate_exact(&db, "before the crash");

    crash_and_recover_checked(&mut db, &[N0]);
    assert_eq!(db.txn_status(p), Some(TxnStatus::Aborted));
    assert_eq!(db.txn_status(s), Some(TxnStatus::Aborted), "cascade abort");
    assert_eq!(&db.current_value(7).unwrap()[..4], b"base");
    db.check_ifa(N1).assert_ok();

    // Node 0 comes back and appends past P's old commit LSN; everything
    // is forced, so a stable record now sits at exactly that LSN. The
    // restart checkpoint then reclaims both logs' old records — the
    // commit index entries outlive them.
    db.reboot(N0);
    while db.logs().log(N0).stable_lsn() < p_commit_lsn {
        let t = db.begin(N0).unwrap();
        db.update(t, 30, b"reuse").unwrap();
        db.commit(t).unwrap();
    }
    db.checkpoint(N2).unwrap();
    assert!(db.logs().log(N1).is_commit_stable(s), "S's commit entry survives truncation");
    assert_predicate_exact(&db, "after LSN reuse");

    // Later recoveries meet S's durable commit entry again; it must
    // never resurrect "from-s".
    crash_and_recover_checked(&mut db, &[N1]);
    assert_eq!(&db.current_value(7).unwrap()[..4], b"base");
    db.check_ifa(N0).assert_ok();
    crash_and_recover_checked(&mut db, &[N2]);
    assert_eq!(&db.current_value(7).unwrap()[..4], b"base");
    db.check_ifa(N0).assert_ok();
}

/// The durable half of the same chain: both commit records reach stable
/// storage before the crash but neither is acknowledged. Both must be
/// promoted — the successor through the fixpoint, not the table.
#[test]
fn elr_chain_with_durable_predecessor_is_promoted_whole() {
    let cfg = DbConfig::small(4, ProtocolKind::StableTriggered)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = SmDb::new(cfg);
    let p = db.begin(N0).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let s = db.begin(N1).unwrap();
    db.update(s, 7, b"from-s").unwrap();
    db.commit_pipelined(s).unwrap();
    for (node, slot) in [(N0, 60), (N1, 100)] {
        let t = db.begin(node).unwrap();
        db.update(t, slot, b"force").unwrap();
        db.commit(t).unwrap();
    }
    assert_predicate_exact(&db, "before the crash");
    crash_and_recover_checked(&mut db, &[N0]);
    assert_eq!(db.txn_status(p), Some(TxnStatus::Committed));
    assert_eq!(db.txn_status(s), Some(TxnStatus::Committed));
    db.drain_commit_pipeline().unwrap();
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-s");
    db.check_ifa(N1).assert_ok();
}

/// A *synchronous* commit on top of a pipelined chain acknowledges at
/// once, so it must make the whole chain durable first — not just its
/// direct predecessor — or the acknowledgement would outrun a commit
/// record that can still be lost (acknowledged ⇒ settled would break).
/// Q (node 0) → P (node 1, overwrites Q) → T (node 2, overwrites another
/// record of P's, commits synchronously).
#[test]
fn sync_commit_over_a_pipelined_chain_settles_the_whole_chain() {
    let cfg = DbConfig::small(4, ProtocolKind::StableEager)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = SmDb::new(cfg);
    let q = db.begin(N0).unwrap();
    db.update(q, 7, b"from-q").unwrap();
    db.commit_pipelined(q).unwrap();
    let p = db.begin(N1).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.update(p, 90, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let t = db.begin(N2).unwrap();
    db.update(t, 90, b"from-t").unwrap();
    db.commit(t).unwrap();
    assert_eq!(db.txn_status(t), Some(TxnStatus::Committed));
    assert!(db.logs().log(N1).is_commit_stable(p), "direct predecessor forced");
    assert!(db.logs().log(N0).is_commit_stable(q), "and its predecessor too");
    assert_predicate_exact(&db, "after the synchronous commit");
    crash_and_recover_checked(&mut db, &[N0]);
    db.drain_commit_pipeline().unwrap();
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-p");
    assert_eq!(&db.current_value(90).unwrap()[..6], b"from-t");
    db.check_ifa(N1).assert_ok();
}

/// Transactions committed inside epoch lanes reach the parent's table by
/// `lane_merge`; the predicate must know every one of them.
#[test]
fn run_epochs_lane_merged_table_answers_for_lane_commits() {
    let cfg = DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo).without_index();
    let mut db = SmDb::new(cfg);
    let txns: Vec<MtTxn> = (0..64u64)
        .map(|i| MtTxn {
            node: NodeId((i % 4) as u16),
            ops: vec![Op::Update((i * 3) % 256, i.to_le_bytes()), Op::Read((i * 7) % 256)],
        })
        .collect();
    let out = db.run_epochs(txns, 2).unwrap();
    assert_eq!(out.committed, 64);
    assert_predicate_exact(&db, "after run_epochs");
    let active = db.begin(N1).unwrap();
    db.update(active, 200, b"in-flight").unwrap();
    crash_and_recover_checked(&mut db, &[N1]);
    db.check_ifa(N0).assert_ok();
    crash_and_recover_checked(&mut db, &[N0, N2]);
    db.check_ifa(NodeId(3)).assert_ok();
}

/// FA-only baseline, every node down at once: full restart over stable
/// prefixes only, with a pipelined commit that never reached the disk and
/// one that did.
#[test]
fn fa_only_total_failure() {
    let cfg = DbConfig::small(4, ProtocolKind::FaOnly).without_index();
    let mut db = SmDb::new(cfg);
    for i in 0..12u64 {
        let t = db.begin(NodeId((i % 4) as u16)).unwrap();
        db.update(t, i * 5, &i.to_le_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    let durable = db.begin(N0).unwrap();
    db.update(durable, 90, b"durable").unwrap();
    db.commit_pipelined(durable).unwrap();
    let forcer = db.begin(N0).unwrap();
    db.update(forcer, 91, b"forcer").unwrap();
    db.commit(forcer).unwrap();
    let lost = db.begin(N1).unwrap();
    db.update(lost, 92, b"lost").unwrap();
    db.commit_pipelined(lost).unwrap();
    let all: Vec<NodeId> = (0..4).map(NodeId).collect();
    crash_and_recover_checked(&mut db, &all);
    assert_eq!(db.txn_status(durable), Some(TxnStatus::Committed));
    assert_eq!(db.txn_status(lost), Some(TxnStatus::Aborted));
    assert_eq!(&db.current_value(90).unwrap()[..7], b"durable");
    db.check_ifa(N0).assert_ok();
    // A second outage re-analyses the same stable prefixes.
    crash_and_recover_checked(&mut db, &all);
    db.check_ifa(N0).assert_ok();
}

/// The engine the three corner tests below share: StableEager with early
/// lock release, so a pipelined committer's successor inherits a
/// commit-LSN dependency instead of waiting for the force.
fn elr_db() -> SmDb {
    SmDb::new(
        DbConfig::small(4, ProtocolKind::StableEager)
            .without_index()
            .with_early_lock_release()
            .with_lock_polling(),
    )
}

/// P1 then P2 (both node 0) pipeline-commit over record 7, P2 inheriting
/// P1's commit dependency; T (node 1) overwrites record 7 and returns
/// from `commit` with P1 and P2 unacknowledged.
fn sync_commit_over_two_pipelined_predecessors(db: &mut SmDb) -> [TxnId; 3] {
    let p1 = db.begin(N0).unwrap();
    db.update(p1, 7, b"from-p1").unwrap();
    db.commit_pipelined(p1).unwrap();
    let p2 = db.begin(N0).unwrap();
    db.update(p2, 7, b"from-p2").unwrap();
    db.commit_pipelined(p2).unwrap();
    let t = db.begin(N1).unwrap();
    db.update(t, 7, b"from-t").unwrap();
    db.commit(t).unwrap();
    [p1, p2, t]
}

/// A synchronous commit whose chain holds two pipelined predecessors on
/// one home node makes both durable before it acknowledges itself.
#[test]
fn sync_commit_over_two_predecessors_on_one_home_settles_both() {
    let mut db = elr_db();
    let [p1, p2, t] = sync_commit_over_two_pipelined_predecessors(&mut db);
    assert_eq!(db.txn_status(t), Some(TxnStatus::Committed));
    assert!(db.logs().log(N1).is_commit_stable(t), "its own record is durable");
    assert!(db.logs().log(N0).is_commit_stable(p2), "direct predecessor durable");
    assert!(db.logs().log(N0).is_commit_stable(p1), "and the one it rests on");
    assert_predicate_exact(&db, "after the synchronous commit");
    crash_and_recover_checked(&mut db, &[N0]);
    assert_eq!(db.txn_status(p1), Some(TxnStatus::Committed));
    assert_eq!(db.txn_status(p2), Some(TxnStatus::Committed));
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-t");
    db.check_ifa(N1).assert_ok();
}

/// A predecessor whose home crashed with its commit record still volatile
/// can never settle: the dependent's synchronous commit is refused with
/// `WouldBlock` before anything reaches its own home log.
#[test]
fn sync_commit_over_a_lost_predecessor_would_block_and_appends_nothing() {
    let mut db = elr_db();
    let p = db.begin(N0).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let t = db.begin(N1).unwrap();
    db.update(t, 7, b"from-t").unwrap();
    db.crash(&[N0]);
    let before = db.logs().log(N1).last_lsn();
    assert!(matches!(db.commit(t), Err(DbError::WouldBlock { txn, .. }) if txn == t));
    assert_eq!(db.logs().log(N1).last_lsn(), before, "nothing appended to T's home log");
    assert_eq!(db.txn_status(t), Some(TxnStatus::Active));
    db.abort(t).unwrap();
    assert_predicate_exact(&db, "after the refused commit");
    db.recover().unwrap();
    assert_predicate_exact(&db, "after recover");
    assert_eq!(db.txn_status(p), Some(TxnStatus::Aborted));
    db.check_ifa(N1).assert_ok();
}

/// A synchronous commit acknowledges only itself: its predecessors stay
/// pending, and the next drain acknowledges them without a physical
/// force, because the synchronous commit already made their records
/// durable.
#[test]
fn predecessors_of_a_sync_commit_stay_pending_and_drain_without_a_force() {
    let mut db = elr_db();
    let [p1, p2, _] = sync_commit_over_two_pipelined_predecessors(&mut db);
    assert_eq!(db.pending_commit_count(), 2);
    assert_eq!(db.txn_status(p1), Some(TxnStatus::Active));
    assert_eq!(db.txn_status(p2), Some(TxnStatus::Active));
    let forces = db.total_log_forces();
    assert_eq!(db.drain_commit_pipeline().unwrap(), 2);
    assert_eq!(db.total_log_forces(), forces, "no new physical force");
    assert_eq!(db.pending_commit_count(), 0);
    assert_eq!(db.txn_status(p1), Some(TxnStatus::Committed));
    assert_eq!(db.txn_status(p2), Some(TxnStatus::Committed));
    assert_predicate_exact(&db, "after the drain");
}

/// A synchronous commit forces each home on its chain once, through the
/// highest chain LSN there — not once per predecessor. T inherits from
/// two independent pipelined commits on node 0; the commit costs one
/// force on node 0 and one for its own record on node 1. (A volatile
/// protocol, so no LBM force covers the records first.)
#[test]
fn sync_commit_forces_each_home_of_its_chain_once() {
    let cfg = DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = SmDb::new(cfg);
    for slot in [7, 8] {
        let p = db.begin(N0).unwrap();
        db.update(p, slot, b"from-p").unwrap();
        db.commit_pipelined(p).unwrap();
    }
    let t = db.begin(N1).unwrap();
    db.update(t, 7, b"from-t").unwrap();
    db.update(t, 8, b"from-t").unwrap();
    let forces = db.total_log_forces();
    db.commit(t).unwrap();
    assert_eq!(db.total_log_forces() - forces, 2);
    assert_predicate_exact(&db, "after the synchronous commit");
}

/// A volatile protocol with early lock release: no LBM force covers a
/// pipelined committer's records, so a reader's commit is the first thing
/// that can make its predecessor durable.
fn volatile_elr_db() -> SmDb {
    SmDb::new(
        DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo)
            .without_index()
            .with_early_lock_release()
            .with_lock_polling(),
    )
}

/// P (node 0) updates record 7 and pipeline-commits, releasing its lock
/// at the append; R (node 1) then reads record 7 under a shared lock and
/// so inherits a commit dependency on P. Returns `[p, r]`.
fn reader_over_an_early_released_writer(db: &mut SmDb) -> [TxnId; 2] {
    let p = db.begin(N0).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let r = db.begin(N1).unwrap();
    assert_eq!(&db.read(r, 7).unwrap()[..6], b"from-p");
    [p, r]
}

/// A reader's only obligation is its read dependency on an early-released
/// writer: its synchronous commit returns only once the writer's commit
/// record is durable.
#[test]
fn read_only_commit_over_an_early_released_writer_makes_the_writer_durable() {
    let mut db = volatile_elr_db();
    let [p, r] = reader_over_an_early_released_writer(&mut db);
    assert!(!db.logs().log(N0).is_commit_stable(p), "P's record is still volatile");
    db.commit(r).unwrap();
    assert_eq!(db.txn_status(r), Some(TxnStatus::Committed));
    assert!(db.logs().log(N0).is_commit_stable(p), "the read dependency is durable");
    assert_predicate_exact(&db, "after the read-only commit");
    crash_and_recover_checked(&mut db, &[N0]);
    assert_eq!(db.txn_status(p), Some(TxnStatus::Committed));
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-p");
    db.check_ifa(N1).assert_ok();
}

/// The same reader, but the writer's home crashes with its commit record
/// still volatile: the reader saw data that will never commit, so its
/// commit is `WouldBlock` and nothing reaches its home log.
#[test]
fn read_only_commit_over_a_lost_writer_would_block_and_appends_nothing() {
    let mut db = volatile_elr_db();
    let [p, r] = reader_over_an_early_released_writer(&mut db);
    db.crash(&[N0]);
    let (before_lsn, before_len) = (db.logs().log(N1).last_lsn(), db.logs().log(N1).len());
    assert!(matches!(db.commit(r), Err(DbError::WouldBlock { txn, .. }) if txn == r));
    assert_eq!(db.logs().log(N1).last_lsn(), before_lsn, "nothing appended to R's home log");
    assert_eq!(db.logs().log(N1).len(), before_len);
    assert_eq!(db.txn_status(r), Some(TxnStatus::Active));
    db.abort(r).unwrap();
    assert_predicate_exact(&db, "after the refused commit");
    db.recover().unwrap();
    assert_predicate_exact(&db, "after recover");
    assert_eq!(db.txn_status(p), Some(TxnStatus::Aborted));
    db.check_ifa(N1).assert_ok();
}

/// A committed read-only transaction stays committed across a crash and
/// recovery of its home node.
#[test]
fn read_only_commit_survives_a_crash_of_its_home() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo).without_index());
    let w = db.begin(N0).unwrap();
    db.update(w, 7, b"from-w").unwrap();
    db.commit(w).unwrap();
    let r = db.begin(N1).unwrap();
    assert_eq!(&db.read(r, 7).unwrap()[..6], b"from-w");
    db.read(r, 90).unwrap();
    db.commit(r).unwrap();
    assert_eq!(db.txn_status(r), Some(TxnStatus::Committed));
    crash_and_recover_checked(&mut db, &[N1]);
    assert_eq!(db.txn_status(r), Some(TxnStatus::Committed));
    assert_eq!(db.txn_status(w), Some(TxnStatus::Committed));
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-w");
    db.check_ifa(N0).assert_ok();
}

/// A read-only commit appends nothing — no commit record, and its shared
/// locks' releases are not logged — and adds no physical force; an
/// updating commit on the same node still forces exactly once.
#[test]
fn read_only_commit_appends_no_commit_record_and_forces_nothing() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo).without_index());
    let w = db.begin(N0).unwrap();
    db.update(w, 7, b"from-w").unwrap();
    db.commit(w).unwrap();
    let r = db.begin(N1).unwrap();
    db.read(r, 7).unwrap();
    db.read(r, 90).unwrap();
    let (tip, forces) = (db.logs().log(N1).last_lsn(), db.total_log_forces());
    db.commit(r).unwrap();
    assert_eq!(db.txn_status(r), Some(TxnStatus::Committed));
    assert_eq!(db.total_log_forces(), forces, "no physical force");
    assert_eq!(db.logs().log(N1).index().commit_lsn(r), None, "no commit record");
    let appended: Vec<&LogPayload> =
        db.logs().log(N1).records_after(tip).map(|rec| &rec.payload).collect();
    assert!(appended.is_empty(), "{appended:?}");
    let u = db.begin(N1).unwrap();
    db.update(u, 91, b"from-u").unwrap();
    let forces = db.total_log_forces();
    db.commit(u).unwrap();
    assert_eq!(db.total_log_forces() - forces, 1, "an updating commit forces once");
    assert!(db.logs().log(N1).is_commit_stable(u));
    assert_predicate_exact(&db, "after both commits");
}
