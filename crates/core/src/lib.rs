//! # smdb-core — recovery protocols for shared-memory database systems
//!
//! The primary contribution of *Recovery Protocols for Shared Memory
//! Database Systems* (Molesky & Ramamritham, SIGMOD 1995): a multi-node
//! database engine on a cache-coherent shared-memory multiprocessor whose
//! crash-recovery protocols guarantee **Isolated Failure Atomicity (IFA)**
//! — if one or more nodes crash, *all* effects of active transactions
//! running on the crashed nodes are undone, and *no* effects of
//! transactions running on surviving nodes are undone.
//!
//! The engine ([`SmDb`]) composes:
//!
//! * the simulated cache-coherent multiprocessor (`smdb-sim`),
//! * per-node write-ahead logs with volatile tails (`smdb-wal`),
//! * a no-force/steal buffer manager over the stable database
//!   (`smdb-storage`),
//! * shared-memory record locking with strict 2PL (`smdb-lock`),
//! * a shared-memory B+-tree index (`smdb-btree`),
//!
//! and implements on top of them:
//!
//! * the **LBM (Logging-Before-Migration) policies** — Volatile LBM
//!   (§5.1, enforced with line locks) and Stable LBM (§5.2, eager or
//!   coherence-trigger based);
//! * **undo tagging** (§4.1.2) — each record carries the node id of its
//!   uncommitted updater *in the same cache line*;
//! * the **Redo All** and **Selective Redo** restart-recovery schemes
//!   (§4.1.2), plus the stable-log-driven undo used with Stable LBM;
//! * the **FA-only baseline** (§3.3's strawman: a crash aborts every
//!   active transaction in the machine), against which the IFA protocols'
//!   saved aborts are measured;
//! * a [`ShadowDb`] oracle that checks the IFA guarantee after every
//!   crash-recovery episode.
//!
//! ## Quick start
//!
//! ```
//! use smdb_core::{DbConfig, ProtocolKind, SmDb};
//! use smdb_sim::NodeId;
//!
//! let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
//! // A transfer on node 0 commits; a transaction on node 1 stays active.
//! let t0 = db.begin(NodeId(0)).unwrap();
//! db.update(t0, 0, b"alice=90").unwrap();
//! db.update(t0, 1, b"bob=110.").unwrap();
//! db.commit(t0).unwrap();
//! let t1 = db.begin(NodeId(1)).unwrap();
//! db.update(t1, 2, b"carol=5.").unwrap();
//! // Node 2 crashes: IFA recovery runs; neither t0's committed effects
//! // nor t1's in-flight effects are lost.
//! let outcome = db.crash_and_recover(&[NodeId(2)]).unwrap();
//! assert!(outcome.aborted.is_empty());
//! // Payloads are zero-padded to the configured record size.
//! assert_eq!(&db.read_committed(0).unwrap()[..8], b"alice=90");
//! db.commit(t1).unwrap();
//! db.check_ifa(NodeId(0)).assert_ok();
//! ```

mod config;
mod engine;
mod error;
pub mod mt;
mod oracle;
mod record;
mod restart;
mod stats;
mod tag_ledger;
mod txn;

pub use config::{DbConfig, ProtocolKind, RestartScheme};
pub use engine::{SmDb, FAULT_COMMIT, FAULT_COMMIT_DEP};
pub use error::DbError;
pub use mt::{MtOutcome, MtTxn, SITE_ADMIT};
pub use oracle::{IfaReport, OracleViolation, ShadowDb};
pub use record::RecordLayout;
pub use restart::{
    InstantRedoCounters, RecoveryOutcome, FAULT_RECOVERY_PHASE, FAULT_REDO_BACKGROUND,
    FAULT_REDO_ON_DEMAND, FAULT_RESTART_INSTALL, FAULT_RESTART_SCAN,
};
pub use stats::EngineStats;
pub use txn::{Op, TxnOp, TxnState, TxnStatus};

/// Re-export of the fault-injection crate: crash drivers need the
/// injector, plan, and sweep types alongside the engine.
pub use smdb_fault as fault;
