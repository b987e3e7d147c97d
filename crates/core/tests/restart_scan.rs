//! The restart's analysis scan is read by every live node: each reads its
//! own log and a share of the down nodes' (`smdb_wal::assign_scanners`),
//! through the engine's one fan-out (DESIGN §9). The recovery node joins
//! the latest reader that had a share — a node with nothing to read takes
//! no part — and pays for what the others hand it, and the open is a
//! barrier for every live clock.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, ProtocolKind, RecoveryOutcome, SmDb, FAULT_RESTART_SCAN};
use smdb_sim::NodeId;

const NODES: u16 = 4;

/// An un-checkpointed history on every node — record updates round a
/// shared footprint and index inserts, some deleted again — with one
/// transaction per node still in flight (a record update, an insert, a
/// delete mark), node 0's forced to its stable log behind a later commit.
fn history(cfg: DbConfig) -> SmDb {
    let mut db = SmDb::new(cfg);
    for i in 0..120u64 {
        let t = db.begin(NodeId((i % NODES as u64) as u16)).unwrap();
        db.update(t, i % 48, &i.to_le_bytes()).unwrap();
        db.insert(t, 1_000 + i, i.to_le_bytes()).unwrap();
        if i % 5 == 4 {
            db.delete(t, 1_000 + i - 3).unwrap();
        }
        db.commit(t).unwrap();
    }
    for n in 0..NODES {
        let t = db.begin(NodeId(n)).unwrap();
        db.update(t, 200 + n as u64, b"in flight").unwrap();
        db.insert(t, 5_000 + n as u64, [n as u8; 8]).unwrap();
        db.delete(t, 1_002 + 5 * n as u64).unwrap();
    }
    let t = db.begin(NodeId(0)).unwrap();
    db.update(t, 250, b"forces node 0's log").unwrap();
    db.commit(t).unwrap();
    db
}

fn small(protocol: ProtocolKind) -> DbConfig {
    DbConfig::small(NODES, protocol)
}

fn phase(outcome: &RecoveryOutcome, name: &str) -> u64 {
    outcome.phases.iter().find(|p| p.phase == name).map(|p| p.sim_cycles).expect("phase ran")
}

/// Finish an instant restart's drain, roll back what is still in flight,
/// check IFA; every record's value afterwards.
fn settle(db: &mut SmDb) -> Vec<Vec<u8>> {
    let node = db.machine().surviving_nodes()[0];
    while db.redo_pending() > 0 {
        db.drain_redo(node, 64).unwrap();
    }
    for t in db.active_txns(None) {
        db.abort(t).unwrap();
    }
    db.check_ifa(node).assert_ok();
    (0..db.record_count() as u64).map(|slot| db.current_value(slot).unwrap()).collect()
}

/// The analysis phase costs what its busiest reader reads, plus the merge —
/// not the sum over the logs.
#[test]
fn the_scan_costs_its_busiest_reader() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = history(small(protocol));
        db.sync_clocks();
        let outcome = db.crash_and_recover(&[NodeId(0)]).unwrap();
        db.check_ifa(NodeId(1)).assert_ok();
        let cost = &db.config().cost;
        let scan = outcome.scan_records_max * cost.log_scan_record;
        // Every heap redo candidate is a scanned record, four references to
        // a line: a bound on the merge charge from the outcome alone.
        let merge_bound = cost.remote_transfer * outcome.scan_records.div_ceil(4);
        let measured = phase(&outcome, "stable_undo");
        assert!(
            scan <= measured && measured <= scan + merge_bound,
            "{protocol:?}: stable_undo {measured} cycles, busiest reader {scan}, merge ≤ {merge_bound}"
        );
        // Three readers share four logs of about the same length: the
        // busiest reads two of them, nobody reads them all.
        assert!(outcome.scan_records_max < outcome.scan_records * 2 / 3, "{outcome:?}");
        assert!(outcome.scan_records_max > outcome.scan_records / 3, "{outcome:?}");
    }
}

/// With one live node left — one survivor, or node 0 rebooted after a
/// machine-wide outage — that node reads every log and there is nobody to
/// hand anything over: the phase is the whole scan, to the cycle.
#[test]
fn a_lone_reader_reads_everything_and_merges_nothing() {
    let all: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let cells = [
        (ProtocolKind::VolatileSelectiveRedo, vec![NodeId(0), NodeId(1), NodeId(3)], NodeId(2)),
        (ProtocolKind::StableTriggered, all, NodeId(0)),
    ];
    for (protocol, crashed, host) in cells {
        let mut db = history(small(protocol));
        db.sync_clocks();
        let outcome = db.crash_and_recover(&crashed).unwrap();
        db.check_ifa(host).assert_ok();
        assert_eq!(outcome.recovery_node, host);
        assert!(outcome.scan_records > 0);
        assert_eq!(outcome.scan_records_max, outcome.scan_records);
        let whole_scan = outcome.scan_records * db.config().cost.log_scan_record;
        assert_eq!(phase(&outcome, "stable_undo"), whole_scan, "{protocol:?}");
    }
}

/// The per-log reductions commute — with index operations in the logs:
/// redo candidates, a doomed transaction's inverses on a surviving log and
/// the analysed nodes' uncommitted ones all present.
#[test]
fn the_analysis_does_not_depend_on_the_order_the_logs_are_read_in() {
    for protocol in ProtocolKind::ifa_protocols() {
        let mut db = history(small(protocol));
        // A parallel transaction homed on node 0 with a survivor as
        // participant: its records on node 2's intact log are doomed.
        let t = db.begin(NodeId(0)).unwrap();
        db.attach(t, NodeId(2)).unwrap();
        db.update_on(t, NodeId(2), 230, b"doomed on a survivor").unwrap();
        db.crash(&[NodeId(0), NodeId(3)]);
        let diffs = [db.check_scan_order(), db.check_redo_plan()].concat();
        assert!(diffs.is_empty(), "{protocol:?}:\n  {}", diffs.join("\n  "));
        let outcome = db.recover().unwrap();
        assert!(outcome.index_redo_applied > 0, "{protocol:?}: no index redo in the scenario");
        assert!(outcome.undo_records_applied > 0, "{protocol:?}: no undo in the scenario");
        db.check_ifa(NodeId(1)).assert_ok();
    }
}

/// A reader other than the recovery node can die mid-scan: the site is
/// visited once per such reader, on its behalf, and the restart re-entered
/// over the larger crashed set converges to the uninterrupted state.
#[test]
fn a_reader_can_die_mid_scan() {
    for protocol in ProtocolKind::ifa_protocols() {
        for instant in [false, true] {
            let at = format!("{protocol:?} instant={instant}");
            let cfg =
                if instant { small(protocol).with_instant_restart() } else { small(protocol) };
            let mut db = history(cfg.clone());
            db.crash_and_recover(&[NodeId(0)]).unwrap();
            let want = settle(&mut db);
            // Node 1 hosts the restart; nodes 2 and 3 read beside it.
            for k in 0..3 {
                let mut db = history(cfg.clone());
                let fault = FaultInjector::new();
                db.set_fault_injector(fault.clone());
                db.crash(&[NodeId(0)]);
                fault.arm(FaultPlan::single(CrashPoint::new(FAULT_RESTART_SCAN, k)));
                let Err(err) = db.recover() else {
                    assert_eq!(k, 2, "{at}: visit {k} of two did not fire");
                    continue;
                };
                let c = *err.fault_crash().unwrap_or_else(|| panic!("{at}: {err}"));
                assert_eq!((c.site, c.node), (FAULT_RESTART_SCAN, 2 + k as u16), "{at}");
                db.crash(&[NodeId(c.node)]);
                let diffs = [db.check_redo_plan(), db.check_scan_order()].concat();
                assert!(diffs.is_empty(), "{at} #{k}:\n  {}", diffs.join("\n  "));
                let outcome = db.recover().unwrap_or_else(|e| panic!("{at} #{k}: {e}"));
                assert_eq!(outcome.crashed, vec![NodeId(0), NodeId(c.node)], "{at}");
                assert!(settle(&mut db) == want, "{at} #{k}: converged to another state");
            }
        }
    }
}

/// The open is a barrier: every live node's clock stands at the end of the
/// restart, so a first transaction anywhere runs after it.
#[test]
fn every_live_clock_joins_the_open() {
    for instant in [false, true] {
        let cfg = small(ProtocolKind::VolatileSelectiveRedo);
        let mut db = history(if instant { cfg.with_instant_restart() } else { cfg });
        db.sync_clocks();
        let crashed_at = db.max_clock();
        let outcome = db.crash_and_recover(&[NodeId(0)]).unwrap();
        let open = crashed_at + outcome.recovery_cycles;
        for n in 1..NODES {
            assert_eq!(db.machine().now(NodeId(n)), open, "instant={instant}: node {n}");
        }
        // Not the recovery node (node 1), and still not early.
        let t = db.begin(NodeId(3)).unwrap();
        db.read(t, 7).unwrap();
        db.commit(t).unwrap();
        assert!(db.machine().now(NodeId(3)) > open);
        settle(&mut db);
    }
}
