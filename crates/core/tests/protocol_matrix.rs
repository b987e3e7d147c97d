//! Cross-product coverage: every protocol × both coherence modes × a
//! battery of crash patterns, over one fixed multi-feature workload
//! (records + index + conflicts + steal + checkpoint), with the oracle
//! battery on both sides of every recovery.

use smdb_core::{DbConfig, DbError, ProtocolKind, SmDb};
use smdb_sim::{CoherenceKind, NodeId};

fn workload(db: &mut SmDb) {
    // Committed record work from all nodes, with overlap in the shared
    // low slots.
    for i in 0..24u64 {
        let node = NodeId((i % 4) as u16);
        let t = db.begin(node).unwrap();
        match db.update(t, i % 10, &i.to_le_bytes()) {
            Ok(()) => {
                db.update(t, 100 + i, &i.to_le_bytes()).unwrap();
                db.insert(t, 1000 + i, i.to_le_bytes()).unwrap();
                db.commit(t).unwrap();
            }
            Err(DbError::WouldBlock { .. }) => db.abort(t).unwrap(),
            Err(e) => panic!("{e}"),
        }
    }
    // A steal.
    let page = db.record_layout().rec_of_global(100).page;
    db.flush_page(NodeId(0), page).unwrap();
    // A checkpoint halfway.
    db.checkpoint(NodeId(1)).unwrap();
    // More work after the checkpoint.
    for i in 24..36u64 {
        let node = NodeId((i % 4) as u16);
        let t = db.begin(node).unwrap();
        match db.update(t, 100 + i, &i.to_le_bytes()) {
            Ok(()) => db.commit(t).unwrap(),
            Err(DbError::WouldBlock { .. }) => db.abort(t).unwrap(),
            Err(e) => panic!("{e}"),
        }
    }
    // In-flight work on every node (one will die with the crash).
    for n in 0..4u16 {
        let t = db.begin(NodeId(n)).unwrap();
        let _ = db.update(t, 200 + n as u64, b"inflight");
        let _ = db.delete(t, 1000 + n as u64);
    }
}

fn grid_case(protocol: ProtocolKind, coherence: CoherenceKind, crashes: &[Vec<NodeId>]) {
    let cfg = DbConfig::small(4, protocol).with_coherence(coherence);
    let mut db = SmDb::new(cfg);
    workload(&mut db);
    for crash in crashes {
        let at = format!("{protocol:?}/{coherence:?} crash {crash:?}");
        db.crash(crash);
        db.recover_checked().unwrap_or_else(|v| panic!("{at}: {v}")).unwrap();
    }
}

#[test]
fn full_grid_single_crash() {
    for protocol in ProtocolKind::all() {
        for coherence in [CoherenceKind::WriteInvalidate, CoherenceKind::WriteBroadcast] {
            grid_case(protocol, coherence, &[vec![NodeId(2)]]);
        }
    }
}

#[test]
fn full_grid_double_crash() {
    for protocol in ProtocolKind::all() {
        for coherence in [CoherenceKind::WriteInvalidate, CoherenceKind::WriteBroadcast] {
            grid_case(protocol, coherence, &[vec![NodeId(0), NodeId(3)]]);
        }
    }
}

#[test]
fn full_grid_sequential_crashes() {
    for protocol in ProtocolKind::ifa_protocols() {
        for coherence in [CoherenceKind::WriteInvalidate, CoherenceKind::WriteBroadcast] {
            grid_case(protocol, coherence, &[vec![NodeId(1)], vec![NodeId(2)]]);
        }
    }
}
