//! A fixed lock script whose machine-visible footprint is pinned: the
//! lock manager's host-side representation (decoded-LCB scratch, inline
//! entry lists, chain walks) may change, but every `Machine` call it makes
//! — pre-lock find, re-find under `getline`, overflow-pointer reads, slot
//! writes — and every log record it appends must stay, in the same order.
//! The numbers below were recorded at the commit *before* the manager
//! started decoding into an owned scratch; a change that adds, drops or
//! reorders a coherent access moves a counter or a node clock here.

use smdb_lock::{LcbGeometry, LockManager, LockMode, LockOutcome, LockTable};
use smdb_sim::{Machine, NodeId, SimConfig, TxnId};
use smdb_wal::{LogSet, NodeLogStats};

const NODES: u16 = 4;
const S: LockMode = LockMode::Shared;
const X: LockMode = LockMode::Exclusive;

fn t(node: u16, seq: u64) -> TxnId {
    TxnId::new(NodeId(node), seq)
}

#[test]
fn machine_calls_and_log_records_of_a_fixed_script_are_pinned() {
    let mut m = Machine::new(SimConfig::new(NODES));
    let mut logs = LogSet::new(NODES);
    // Two buckets of two slots: the third name in a bucket takes the
    // overflow path (structural record, forced, chain walk).
    let table = LockTable::create(&mut m, NodeId(0), 9000, 2, LcbGeometry::co_located())
        .expect("create table");
    let mut mgr = LockManager::new(table);
    let (a, b, c, d) = (t(0, 1), t(1, 1), t(2, 1), t(3, 1));

    use LockOutcome::{AlreadyHeld, Granted, Waiting};
    // Acquire, re-acquire (fast lane), shared co-holders.
    assert_eq!(mgr.acquire(&mut m, &mut logs, a, 7, S).unwrap(), Granted);
    assert_eq!(mgr.acquire(&mut m, &mut logs, a, 7, S).unwrap(), AlreadyHeld);
    assert_eq!(mgr.acquire(&mut m, &mut logs, b, 7, S).unwrap(), Granted);
    // Conflicting polls leave no trace but pay the probe traffic.
    for _ in 0..3 {
        assert_eq!(mgr.poll_from(&mut m, &mut logs, c, 7, X, NodeId(2)).unwrap(), Waiting);
    }
    // A conflicting upgrade queues; an exclusive stranger queues behind it.
    assert_eq!(mgr.acquire(&mut m, &mut logs, a, 7, X).unwrap(), Waiting);
    assert_eq!(mgr.acquire(&mut m, &mut logs, c, 7, X).unwrap(), Waiting);
    // The stranger gives up (no-wait cancel), the co-holder leaves: the
    // queued upgrade is promoted in place.
    assert!(mgr.cancel_wait(&mut m, &mut logs, c, 7).unwrap());
    let promoted = mgr.release(&mut m, &mut logs, b, 7).unwrap();
    assert_eq!(promoted.len(), 1);
    assert_eq!((promoted[0].txn, promoted[0].mode), (a, X));
    // Sole-holder upgrade on a second name, from another acting node.
    assert_eq!(mgr.acquire_from(&mut m, &mut logs, d, 8, S, NodeId(1)).unwrap(), Granted);
    assert_eq!(mgr.acquire(&mut m, &mut logs, d, 8, X).unwrap(), Granted);
    // Fill the buckets until a chain overflows, then walk the chains.
    for name in 20..28 {
        assert_eq!(mgr.acquire(&mut m, &mut logs, c, name, X).unwrap(), Granted);
    }
    assert!(mgr.stats().overflow_allocs > 0, "script must cross an overflow link");
    assert_eq!(mgr.poll_from(&mut m, &mut logs, b, 27, S, NodeId(1)).unwrap(), Waiting);
    // Queue behind an exclusive holder, then release with promotion.
    assert_eq!(mgr.acquire(&mut m, &mut logs, b, 20, S).unwrap(), Waiting);
    assert_eq!(mgr.acquire(&mut m, &mut logs, d, 20, S).unwrap(), Waiting);
    let promoted = mgr.release_all(&mut m, &mut logs, c).unwrap();
    assert_eq!(promoted.iter().map(|(n, e)| (*n, e.txn)).collect::<Vec<_>>(), [(20, b), (20, d)]);
    let (released, promoted) = mgr.early_release_all(&mut m, &mut logs, a).unwrap();
    assert_eq!(released, [(7, X)]);
    assert!(promoted.is_empty());
    mgr.release_all(&mut m, &mut logs, b).unwrap();
    mgr.release_all(&mut m, &mut logs, d).unwrap();
    assert_eq!(mgr.transactions_with_locks(), 0);

    let clocks: Vec<u64> = (0..NODES).map(|n| m.now(NodeId(n))).collect();
    let log_stats: Vec<&NodeLogStats> = (0..NODES).map(|n| logs.log(NodeId(n)).stats()).collect();
    let got = format!("{:?}\n{clocks:?}\n{log_stats:?}\n{:?}", m.stats(), mgr.stats());
    assert_eq!(got, EXPECTED, "a coherent access or log record was added, dropped or reordered");
}

/// `SimStats`, node clocks, per-node `NodeLogStats`, `LockStats` after the
/// script. The appends count acquisitions, queued requests, promotions,
/// the withdrawn wait, the single-name release and the overflow records:
/// a transaction's final release (`release_all` / `early_release_all`)
/// logs nothing.
const EXPECTED: &str = "\
SimStats { reads: 145, writes: 34, local_hits: 162, remote_transfers: 17, migrations: 0, \
replications: 17, invalidations: 17, downgrades: 17, broadcast_updates: 0, \
line_lock_acquires: 34, line_lock_conflicts: 0, lost_line_accesses: 0, lines_created: 6, \
lines_lost: 0, evictions: 0 }\n\
[2970, 7330, 4015310, 4120]\n\
[NodeLogStats { appends: 3, bytes_appended: 78, forces: 0, forces_requested: 0, \
forces_coalesced: 0, records_forced: 0, read_lock_records: 1, structural_records: 0 }, \
NodeLogStats { appends: 5, bytes_appended: 130, forces: 0, forces_requested: 0, \
forces_coalesced: 0, records_forced: 0, read_lock_records: 4, structural_records: 0 }, \
NodeLogStats { appends: 14, bytes_appended: 388, forces: 4, forces_requested: 4, \
forces_coalesced: 0, records_forced: 13, read_lock_records: 0, structural_records: 4 }, \
NodeLogStats { appends: 3, bytes_appended: 78, forces: 0, forces_requested: 0, \
forces_coalesced: 0, records_forced: 0, read_lock_records: 2, structural_records: 0 }]\n\
LockStats { acquires: 12, shared_acquires: 3, exclusive_acquires: 9, waits: 4, releases: 13, \
promotions: 3, overflow_allocs: 4, fast_hits: 1, early_released: 1 }";
