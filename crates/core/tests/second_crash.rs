//! A second crash, and what only it exposes.
//!
//! After a checkpoint: committed data whose only up-to-date copy sits in a
//! cache must still be *dirty* to the checkpoint that advances the redo
//! bound past its log records. A crash used to erase the crashed node's
//! page-LSN entries — the only record that a page differs from its stable
//! image, whether the full restart has just redone the value into a cache
//! or another node still caches it. Each of the three scenarios
//! acknowledged a commit and then read the pre-update bytes.
//!
//! With no checkpoint between: what the first restart knew about a
//! transaction it rolled back is gone by the second (the cascade-victim
//! scenario).
//!
//! And a checkpoint is written back by every live node: any of them can be
//! the one that dies mid-flush, and a node that is down takes no share.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_obs::Event;
use smdb_sim::NodeId;
use smdb_storage::{PageId, FAULT_FLUSH_LINE};
use std::collections::BTreeSet;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

/// The protocols whose restart skips what a surviving cache still holds.
const SELECTIVE: [ProtocolKind; 3] =
    [ProtocolKind::VolatileSelectiveRedo, ProtocolKind::StableEager, ProtocolKind::StableTriggered];

fn mk(p: ProtocolKind, instant: bool) -> SmDb {
    let cfg = DbConfig::small(2, p);
    SmDb::new(if instant { cfg.with_instant_restart() } else { cfg })
}

fn recover_and_drain(db: &mut SmDb, crashed: &[NodeId]) {
    db.crash_and_recover(crashed).unwrap();
    let host = db.machine().surviving_nodes()[0];
    while db.redo_pending() > 0 {
        db.drain_redo(host, 8).unwrap();
    }
}

#[test]
fn full_restart_redo_is_dirty_to_the_next_checkpoint() {
    for p in ProtocolKind::all() {
        for instant in [false, true] {
            let mut db = mk(p, instant);
            let t = db.begin(N0).unwrap();
            db.update(t, 5, b"kept").unwrap();
            db.commit(t).unwrap();
            // Total failure: the value is redone into the host's cache.
            recover_and_drain(&mut db, &[N0, N1]);
            db.reboot(N1);
            db.checkpoint(N0).unwrap();
            recover_and_drain(&mut db, &[N0, N1]);
            assert_eq!(&db.current_value(5).unwrap()[..4], b"kept", "{p:?} instant={instant}");
            assert_eq!(db.current_value(5).unwrap(), db.read_committed(5).unwrap());
        }
    }
}

#[test]
fn crashed_writers_page_stays_dirty_while_a_survivor_caches_it() {
    for p in SELECTIVE {
        for instant in [false, true] {
            let mut db = mk(p, instant);
            let t = db.begin(N0).unwrap();
            db.update(t, 5, b"kept").unwrap();
            db.commit(t).unwrap();
            let r = db.begin(N1).unwrap();
            db.read(r, 5).unwrap();
            db.commit(r).unwrap();
            // Redo is skipped: N1 still caches the line.
            recover_and_drain(&mut db, &[N0]);
            db.checkpoint(N1).unwrap();
            db.reboot(N0);
            recover_and_drain(&mut db, &[N1]);
            assert_eq!(&db.current_value(5).unwrap()[..4], b"kept", "{p:?} instant={instant}");
            db.check_ifa(N0).assert_ok();
        }
    }
}

#[test]
fn crashed_inserters_index_page_stays_dirty_while_a_survivor_caches_it() {
    for p in SELECTIVE {
        for instant in [false, true] {
            let mut db = mk(p, instant);
            let t = db.begin(N0).unwrap();
            db.insert(t, 77, *b"kept-77.").unwrap();
            db.commit(t).unwrap();
            let r = db.begin(N1).unwrap();
            assert_eq!(db.lookup(r, 77).unwrap(), Some(*b"kept-77."));
            db.commit(r).unwrap();
            // No tree line is lost, so index replay is skipped.
            recover_and_drain(&mut db, &[N0]);
            db.checkpoint(N1).unwrap();
            db.reboot(N0);
            recover_and_drain(&mut db, &[N1]);
            let r = db.begin(N0).unwrap();
            assert_eq!(db.lookup(r, 77).unwrap(), Some(*b"kept-77."), "{p:?} instant={instant}");
            db.commit(r).unwrap();
            db.check_ifa(N0).assert_ok();
        }
    }
}

/// Early lock release: T overwrites P's uncommitted value, so the before
/// image T logs is not a committed value. When P's node dies with P's
/// update still in its volatile tail, the restart rolls T back to the last
/// committed value because it knows the record is contaminated — knowledge
/// that goes away with T's inherited dependencies. A later restart must
/// therefore never undo T again from its surviving log: the before image
/// there is P's. (Redo All is left out: it replays T's *after* image from
/// that log — the uncompensated-rollback defect, ROADMAP item 1.)
#[test]
fn cascade_victims_before_image_is_never_written_by_a_later_restart() {
    for p in [ProtocolKind::VolatileSelectiveRedo, ProtocolKind::StableEager] {
        for instant in [false, true] {
            let cfg = DbConfig::small(4, p).with_early_lock_release();
            let mut db = SmDb::new(if instant { cfg.with_instant_restart() } else { cfg });
            let base = db.begin(NodeId(2)).unwrap();
            db.update(base, 7, b"base").unwrap();
            db.commit(base).unwrap();
            let pred = db.begin(N0).unwrap();
            db.update(pred, 7, b"from-p").unwrap();
            db.commit_pipelined(pred).unwrap();
            let victim = db.begin(N1).unwrap();
            db.update(victim, 7, b"from-t").unwrap();
            db.commit_pipelined(victim).unwrap();
            recover_and_drain(&mut db, &[N0]);
            assert_eq!(&db.current_value(7).unwrap()[..4], b"base", "{p:?} instant={instant}");
            // An unrelated node, before any checkpoint.
            recover_and_drain(&mut db, &[NodeId(3)]);
            assert_eq!(&db.current_value(7).unwrap()[..4], b"base", "{p:?} instant={instant}");
            db.check_ifa(N1).assert_ok();
        }
    }
}

/// Slots on six different heap pages (24 records to a page).
const SIX_PAGES: [u64; 6] = [0, 30, 60, 90, 120, 150];

/// Four nodes, six committed updates by node 0 on six pages: pages that
/// node 0 never flushes while another node is up.
fn six_dirty_pages(p: ProtocolKind) -> SmDb {
    let mut db = SmDb::new(DbConfig::small(4, p));
    for (i, slot) in SIX_PAGES.into_iter().enumerate() {
        let t = db.begin(N0).unwrap();
        db.update(t, slot, format!("kept-{i}").as_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    db
}

fn assert_six_kept(db: &SmDb, what: &str) {
    for (i, slot) in SIX_PAGES.into_iter().enumerate() {
        assert_eq!(&db.current_value(slot).unwrap()[..6], format!("kept-{i}").as_bytes(), "{what}");
    }
    for slot in 0..db.record_count() as u64 {
        assert_eq!(db.current_value(slot).unwrap(), db.read_committed(slot).unwrap(), "{what}");
    }
}

fn dirty(db: &SmDb) -> BTreeSet<PageId> {
    db.page_lsn_table().dirty_pages().collect()
}

#[test]
fn a_flusher_that_is_not_the_host_dies_mid_checkpoint() {
    for p in ProtocolKind::ifa_protocols() {
        // Who visits the flush site, in order, when nothing fires.
        let mut db = six_dirty_pages(p);
        let f = FaultInjector::new();
        db.set_fault_injector(f.clone());
        f.start_counting();
        db.checkpoint(N0).unwrap();
        let visits = f.take_visits();
        let flushes = &visits.iter().find(|v| v.site == FAULT_FLUSH_LINE).expect("flushed").nodes;
        // The last flusher dies one sector into its first page: a torn
        // page, its share unflushed, every earlier flusher's share done.
        let victim = *flushes.last().unwrap();
        assert_ne!(victim, N0.0, "{p:?}: the updater flushed its own pages");
        let first = flushes.iter().position(|&n| n == victim).unwrap();
        let sectors = db.record_layout().geometry.lines_per_page;
        let (done, left) = (first / sectors, (flushes.len() - first) / sectors);

        let mut db = six_dirty_pages(p);
        let f = FaultInjector::new();
        db.set_fault_injector(f.clone());
        let before = dirty(&db);
        assert_eq!(before.len(), done + left);
        f.arm(FaultPlan::single(CrashPoint::new(FAULT_FLUSH_LINE, first as u64 + 1)));
        let err = db.checkpoint(N0).unwrap_err();
        assert_eq!(err.fault_crash().map(|c| c.node), Some(victim), "{p:?}: {err}");
        assert_eq!(db.checkpoint_store().checkpoints_taken, 0, "{p:?}");
        let after = dirty(&db);
        assert_eq!(after.len(), left, "{p:?}: the victim's share is still dirty");
        assert!(after.is_subset(&before), "{p:?}");

        db.crash(&[NodeId(victim)]);
        db.recover().unwrap();
        db.check_ifa(N0).assert_ok();
        assert_six_kept(&db, &format!("{p:?} after the flusher's crash"));
        db.checkpoint(N0).unwrap();
        assert_eq!(db.checkpoint_store().checkpoints_taken, 1, "{p:?}");
        assert!(dirty(&db).is_empty(), "{p:?}");
        // The stable images alone now carry the six values.
        db.reboot(NodeId(victim));
        db.crash_and_recover(&[N0, N1, NodeId(2), NodeId(3)]).unwrap();
        assert_six_kept(&db, &format!("{p:?} after a total crash"));
    }
}

#[test]
fn a_checkpoint_assigns_nothing_to_a_down_node() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = six_dirty_pages(p);
        db.crash_and_recover(&[N1]).unwrap();
        db.enable_observability(0);
        db.checkpoint(N0).unwrap();
        let flushers: BTreeSet<u16> = (db.observability().bus.drain().iter())
            .filter_map(|r| match r.event {
                Event::BufFlush { node, .. } | Event::BufSteal { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        // Not the node that is down, and not the updater while two others
        // are up.
        assert_eq!(flushers, BTreeSet::from([2, 3]), "{p:?}");
        assert!(dirty(&db).is_empty(), "{p:?}");
        db.reboot(N1);
        db.crash_and_recover(&[N0]).unwrap();
        assert_six_kept(&db, &format!("{p:?}"));
    }
}
