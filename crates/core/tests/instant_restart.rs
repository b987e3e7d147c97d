//! Instant restart: the engine opens for transactions right after the
//! analysis pass, with heap redo deferred to first access (on-demand)
//! and a background drain. These tests pin the contract: the open-early
//! database serves exactly the committed pre-crash values, the drained
//! end state is byte-identical to an eager recovery of the same history,
//! and the safety interlocks (checkpoint drain, oracle gate, total
//! failure) hold.

use smdb_core::{DbConfig, DbError, ProtocolKind, SmDb};
use smdb_sim::NodeId;
use smdb_storage::PageId;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

fn mk(p: ProtocolKind, instant: bool) -> SmDb {
    let cfg = DbConfig::small(4, p);
    SmDb::new(if instant { cfg.with_instant_restart() } else { cfg })
}

/// A fixed history whose committed effects live in N0's cache when N0
/// crashes: recovering them requires redo, which instant restart defers.
fn seed_history(db: &mut SmDb) {
    for (slot, val) in [(0u64, b"n0-commit-a" as &[u8]), (5, b"n0-commit-b"), (9, b"n0-commit-c")] {
        let t = db.begin(N0).unwrap();
        db.update(t, slot, val).unwrap();
        db.commit(t).unwrap();
    }
    // A committed update on a survivor too — its line is not lost, so it
    // must not be disturbed by the deferred plan.
    let t = db.begin(N1).unwrap();
    db.update(t, 20, b"n1-commit").unwrap();
    db.commit(t).unwrap();
}

fn drain_all(db: &mut SmDb, node: NodeId) {
    while db.redo_pending() > 0 {
        db.drain_redo(node, 2).unwrap();
    }
}

/// Undo work for the heap plan, left in flight by N0: an update a
/// checkpoint *steals* into the stable database (committed value
/// underneath), and — with `on_survivor`, the transaction runs on N2 as
/// well — a doomed update on a log, and in a cache, that survive N0's crash.
fn seed_undo_work(db: &mut SmDb, on_survivor: bool) {
    let t = db.begin(N0).unwrap();
    db.update(t, 40, b"committed-40").unwrap();
    db.commit(t).unwrap();
    let t = db.begin(N0).unwrap();
    db.update(t, 40, b"stolen-wip").unwrap();
    if on_survivor {
        db.attach(t, N2).unwrap();
        db.update_on(t, N2, 44, b"doomed-wip").unwrap();
    }
    db.checkpoint(N1).unwrap();
}

/// Tag and payload of every record as the stable database holds them:
/// one checkpoint, then every heap page evicted, so the inspection reads
/// fall through to the stable images.
fn stable_records(db: &mut SmDb, node: NodeId) -> Vec<(u16, Vec<u8>)> {
    db.checkpoint(node).unwrap();
    for page in 0..db.heap_pages() {
        db.evict_page(PageId(page));
    }
    (0..db.record_count() as u64)
        .map(|slot| (db.current_tag(slot).unwrap(), db.current_value(slot).unwrap()))
        .collect()
}

#[test]
fn instant_recovery_defers_redo_then_drains_to_eager_state() {
    for p in ProtocolKind::ifa_protocols() {
        let mut eager = mk(p, false);
        let mut instant = mk(p, true);
        for db in [&mut eager, &mut instant] {
            seed_undo_work(db, true);
            seed_history(db);
            db.crash_and_recover(&[N0]).unwrap();
        }
        assert_eq!(eager.redo_pending(), 0, "{p:?}: eager must not defer");
        assert!(
            instant.redo_pending() > 0,
            "{p:?}: instant recovery should leave deferred heap redo"
        );
        drain_all(&mut instant, N1);
        for slot in 0..instant.record_count() as u64 {
            assert_eq!(
                eager.current_value(slot).unwrap(),
                instant.current_value(slot).unwrap(),
                "{p:?}: slot {slot} diverged from eager recovery"
            );
            assert_eq!(
                eager.current_tag(slot).unwrap(),
                instant.current_tag(slot).unwrap(),
                "{p:?}: slot {slot}'s tag diverged from eager recovery"
            );
        }
        assert_eq!(&eager.current_value(40).unwrap()[..12], b"committed-40", "{p:?}");
        assert_eq!(eager.current_value(44).unwrap(), eager.read_committed(44).unwrap(), "{p:?}");
        eager.check_ifa(N1).assert_ok();
        instant.check_ifa(N1).assert_ok();
        let c = instant.instant_redo_counters();
        assert_eq!(
            c.planned,
            c.on_demand + c.background + c.skipped_stable,
            "{p:?}: every planned entry must retire exactly once"
        );
        assert!(c.background > 0, "{p:?}: the drain should have retired entries");
        assert_eq!(
            stable_records(&mut eager, N1),
            stable_records(&mut instant, N1),
            "{p:?}: stable images diverged one checkpoint after recovery"
        );
    }
}

/// The restart that plans a stolen update's undo also writes it through to
/// the stable image: its last phase settles the transaction, and a settled
/// transaction's records are skipped by every later analysis — so the
/// corrected value must not live in a cache alone, nor in a plan still
/// pending past an early open. A second crash of whoever holds the undone
/// copies, after the drain or (instant restart) before it, leaves the
/// record at its last committed value, and one checkpoint later so does
/// every stable image.
#[test]
fn stolen_update_undo_reaches_disk() {
    for p in ProtocolKind::ifa_protocols() {
        for instant in [false, true] {
            for second_crash in [None, Some("after drain"), Some("before drain")] {
                let at = format!("{p:?} instant={instant} second crash={second_crash:?}");
                let mut db = mk(p, instant);
                // Not before the drain: see the known defect below.
                seed_undo_work(&mut db, second_crash != Some("before drain"));
                let host = db.crash_and_recover(&[N0]).unwrap().recovery_node;
                if second_crash != Some("before drain") {
                    drain_all(&mut db, host);
                }
                let survivor = if second_crash.is_some() {
                    db.crash_and_recover(&[host]).unwrap();
                    let survivor = db.machine().surviving_nodes()[0];
                    drain_all(&mut db, survivor);
                    survivor
                } else {
                    host
                };
                assert_eq!(&db.current_value(40).unwrap()[..12], b"committed-40", "{at}");
                db.check_ifa(survivor).assert_ok();
                let committed: Vec<(u16, Vec<u8>)> = (0..db.record_count() as u64)
                    .map(|slot| (u16::MAX, db.read_committed(slot).unwrap()))
                    .collect();
                assert_eq!(stable_records(&mut db, survivor), committed, "{at}");
            }
        }
    }
}

/// Known defect, as old as instant restart: a pending undo entry over a
/// line a *survivor still caches* is not re-derived when a second crash
/// drops the plan before the drain reaches it — its transaction settled
/// with the first restart, so the analysis skips the record and the cached
/// copy keeps the rolled-back bytes. (Where the crash destroyed the line,
/// the stable image the plan wrote through is what comes back.) One of the
/// uncompensated-rollback family: ROADMAP item 1.
#[test]
#[ignore = "known defect: a second crash before the drain loses a pending undo entry over a survivor-cached line"]
fn known_defect_pending_undo_over_a_cached_line_must_survive_a_second_crash() {
    let mut db = mk(ProtocolKind::StableEager, true);
    seed_undo_work(&mut db, true);
    let host = db.crash_and_recover(&[N0]).unwrap().recovery_node;
    assert_ne!(host, N2, "N2's cache must outlive the second crash");
    db.crash_and_recover(&[host]).unwrap();
    drain_all(&mut db, N2);
    db.check_ifa(N2).assert_ok();
}

#[test]
fn on_demand_redo_serves_committed_value_before_any_drain() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        db.crash_and_recover(&[N0]).unwrap();
        assert!(db.redo_pending() > 0, "{p:?}");
        // First forward-path access: the record lock grant applies the
        // line's pending redo inline before the coherent read.
        let t = db.begin(N1).unwrap();
        let got = db.read(t, 0).unwrap();
        assert_eq!(&got[..11], b"n0-commit-a", "{p:?}");
        db.commit(t).unwrap();
        assert!(db.instant_redo_counters().on_demand > 0, "{p:?}");
        drain_all(&mut db, N1);
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn dirty_read_applies_pending_redo_without_locks() {
    let mut db = mk(ProtocolKind::VolatileRedoAll, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    assert!(db.redo_pending() > 0);
    let got = db.read_dirty(N1, 5).unwrap();
    assert_eq!(&got[..11], b"n0-commit-b");
    assert!(db.instant_redo_counters().on_demand > 0);
    drain_all(&mut db, N1);
    db.check_ifa(N1).assert_ok();
}

#[test]
fn degraded_read_stays_available_and_never_recovers_lines() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    let before = db.redo_pending();
    assert!(before > 0);
    // Degraded reads trade freshness for availability: no inline redo.
    for slot in 0..db.record_count() as u64 {
        db.read_degraded(N1, slot).unwrap();
    }
    assert_eq!(db.redo_pending(), before, "degraded reads must not touch the plan");
    drain_all(&mut db, N1);
    db.check_ifa(N1).assert_ok();
}

#[test]
fn checkpoint_drains_all_pending_redo_first() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        db.crash_and_recover(&[N0]).unwrap();
        assert!(db.redo_pending() > 0, "{p:?}");
        db.checkpoint(N1).unwrap();
        assert_eq!(db.redo_pending(), 0, "{p:?}: checkpoint must not orphan deferred redo");
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn check_ifa_refuses_to_compare_while_redo_is_pending() {
    let mut db = mk(ProtocolKind::VolatileRedoAll, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    assert!(db.redo_pending() > 0);
    let report = db.check_ifa(N1);
    assert!(
        report.violations.iter().any(|v| v.contains("redo entries pending")),
        "expected a pending-redo refusal, got {:?}",
        report.violations
    );
    drain_all(&mut db, N1);
    db.check_ifa(N1).assert_ok();
}

#[test]
fn total_failure_always_recovers_eagerly() {
    let mut db = mk(ProtocolKind::StableEager, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0, N1, N2, N3]).unwrap();
    assert_eq!(db.redo_pending(), 0, "total failure must not open early");
    assert_eq!(&db.current_value(0).unwrap()[..11], b"n0-commit-a");
    db.check_ifa(db.machine().surviving_nodes()[0]).assert_ok();
}

#[test]
fn crash_during_drain_window_replans_and_still_converges() {
    for p in ProtocolKind::ifa_protocols() {
        let mut eager = mk(p, false);
        let mut instant = mk(p, true);
        seed_history(&mut eager);
        seed_history(&mut instant);
        eager.crash_and_recover(&[N0]).unwrap();
        eager.crash_and_recover(&[N2]).unwrap();
        instant.crash_and_recover(&[N0]).unwrap();
        assert!(instant.redo_pending() > 0, "{p:?}");
        // Retire one batch, then lose another node mid-drain: the plan is
        // dropped and re-derived by the second recovery.
        instant.drain_redo(N1, 1).unwrap();
        instant.crash_and_recover(&[N2]).unwrap();
        drain_all(&mut instant, N1);
        for slot in 0..instant.record_count() as u64 {
            assert_eq!(
                eager.current_value(slot).unwrap(),
                instant.current_value(slot).unwrap(),
                "{p:?}: slot {slot} diverged after crash-mid-drain"
            );
        }
        instant.check_ifa(N1).assert_ok();
    }
}

#[test]
fn surviving_active_txn_commits_through_the_drain_window() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        // An in-flight survivor txn holding an updated record across the
        // crash: its commit's tag clear must not bypass pending redo.
        let t = db.begin(N1).unwrap();
        db.update(t, 30, b"survivor-wip").unwrap();
        db.crash_and_recover(&[N0]).unwrap();
        db.commit(t).unwrap();
        // The committed update may itself still sit in the deferred plan
        // (non-tagging commits never touch the heap): a coherent read
        // must observe it regardless, via the on-demand hook.
        let r = db.begin(N2).unwrap();
        let got = db.read(r, 30).unwrap();
        assert_eq!(&got[..12], b"survivor-wip", "{p:?}");
        db.commit(r).unwrap();
        drain_all(&mut db, N1);
        assert_eq!(&db.current_value(30).unwrap()[..12], b"survivor-wip", "{p:?}");
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn surviving_active_txn_aborts_through_the_drain_window() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        let setup = db.begin(N1).unwrap();
        db.update(setup, 30, b"pre-crash").unwrap();
        db.commit(setup).unwrap();
        seed_history(&mut db);
        let t = db.begin(N1).unwrap();
        db.update(t, 30, b"wip-undone").unwrap();
        db.crash_and_recover(&[N0]).unwrap();
        db.abort(t).unwrap();
        assert_eq!(&db.current_value(30).unwrap()[..9], b"pre-crash", "{p:?}");
        drain_all(&mut db, N1);
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn drain_refuses_crashed_nodes_and_noops_when_empty() {
    let mut db = mk(ProtocolKind::VolatileRedoAll, true);
    seed_history(&mut db);
    db.crash(&[N0]);
    db.recover().unwrap();
    assert!(matches!(db.drain_redo(N0, 8), Err(DbError::NodeDown { .. })));
    drain_all(&mut db, N1);
    assert_eq!(db.drain_redo(N1, 8).unwrap(), 0);
}

#[test]
fn instant_restart_reaches_first_txn_faster_than_eager() {
    // The availability claim at its smallest: on an identical history the
    // open point (recover() return) comes earlier in simulated time under
    // instant restart, because deferred redo cycles are not charged
    // before open. Measured with the engine's own availability timeline.
    let mut eager = mk(ProtocolKind::VolatileRedoAll, false);
    let mut instant = mk(ProtocolKind::VolatileRedoAll, true);
    for db in [&mut eager, &mut instant] {
        db.enable_observability(0);
        // Symmetric load: every node's clock advances comparably, so the
        // makespan-based timeline sees the recovery work (TTFT markers
        // are taken at max-clock; skewed load would hide it).
        for round in 0..6u64 {
            for (n, node) in [N0, N1, N2, N3].into_iter().enumerate() {
                let slot = (n as u64) * 20 + round * 3;
                let t = db.begin(node).unwrap();
                db.update(t, slot, format!("r{round}n{n}").as_bytes()).unwrap();
                db.commit(t).unwrap();
            }
        }
        db.crash_and_recover(&[N0]).unwrap();
        let t = db.begin(N1).unwrap();
        db.read(t, 0).unwrap();
        db.commit(t).unwrap();
    }
    let ttft_eager = eager
        .observability()
        .timeline
        .time_to_first_txn()
        .expect("eager timeline records a first txn");
    let ttft_instant = instant
        .observability()
        .timeline
        .time_to_first_txn()
        .expect("instant timeline records a first txn");
    assert!(
        ttft_instant < ttft_eager,
        "instant TTFT {ttft_instant} should beat eager TTFT {ttft_eager}"
    );
    drain_all(&mut instant, N1);
    eager.check_ifa(N1).assert_ok();
    instant.check_ifa(N1).assert_ok();
}

/// Selective Redo's tag-driven undo can meet a page that is only half
/// there: the victim's uncommitted, tagged record survives on another
/// node (a dirty read replicated its line) while the page's Page-LSN
/// header line — sole-held by the victim — is lost and, under instant
/// restart, still awaiting its deferred reinstall. The undo write must
/// install the page first instead of failing on the lost header.
#[test]
fn tag_undo_installs_a_deferred_lost_header_before_writing() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo, true);
    let t = db.begin(N0).unwrap();
    db.update(t, 0, b"uncommitted").unwrap();
    // Slot 1 shares slot 0's line: the dirty read replicates it onto N1
    // without touching the header line.
    db.read_dirty(N1, 1).unwrap();
    assert_eq!(db.current_tag(0).unwrap(), N0.0, "the survivor's copy carries the victim's tag");
    let outcome = db.crash_and_recover(&[N0]).expect("recovery over a half-lost page");
    assert_eq!(outcome.aborted, vec![t]);
    assert!(outcome.undo_records_applied > 0, "the tagged record is rolled back");
    drain_all(&mut db, N1);
    assert_eq!(db.current_value(0).unwrap(), db.read_committed(0).unwrap());
    assert_eq!(db.current_tag(0).unwrap(), u16::MAX, "the undo clears the tag");
    db.check_ifa(N1).assert_ok();
}
