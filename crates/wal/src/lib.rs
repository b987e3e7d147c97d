//! # smdb-wal — write-ahead logging for the shared-memory database
//!
//! Implements the logging machinery of the paper's system model (§2, §4.1.1,
//! §6):
//!
//! * **Per-node logs** ([`NodeLog`]): each node maintains its own log. The
//!   tail is *volatile* (it lives in the node's cache, aligned so it never
//!   migrates — §2) and is destroyed by a crash of that node; the *stable
//!   prefix* has been forced to a shared disk and survives all crashes.
//! * **Log records** ([`LogRecord`]/[`LogPayload`]): physical undo/redo
//!   images for record updates, logical records for lock acquisition and
//!   release (*including read locks* — a distinguishing IFA overhead, §7
//!   Table 1), index operations, early-committed structural changes
//!   (nested top-level actions, §4.2), and transaction control records.
//! * **WAL enforcement state** ([`PageLsnTable`]): the shared-memory
//!   (page, node) → LSN table of §6 that tells the buffer manager which
//!   nodes must force their logs before a page may be flushed.
//! * **Checkpoints** ([`CheckpointStore`]): sharp checkpoints bounding how
//!   far back restart recovery must scan.
//!
//! Note on fidelity: the paper stores each volatile log in cache lines that
//! are *guaranteed never to migrate* ("a cache line which contains local
//! log information stores no other sharable information"). Since such lines
//! can never be observed by another node nor survive the owner's crash,
//! modelling them as a per-node vector destroyed on crash is observationally
//! identical and avoids burning simulated-cache space; the simulated cost
//! of log appends and forces is still charged via the cost model.

mod checkpoint;
mod log_set;
mod lsn;
mod page_lsn;
mod record;

mod lbm;

pub use checkpoint::{assign_flushers, assign_scanners, CheckpointMeta, CheckpointStore};
pub use lbm::LbmMode;
pub use log_set::{LogSet, FAULT_CHECKPOINT_RECORD, FAULT_FORCE_RECORD, FAULT_TRUNCATE};
pub use lsn::Lsn;
pub use page_lsn::{Dirty, PageLsnTable, Updaters};
pub use record::{
    CommitDep, DataRef, LockModeRepr, LogIndex, LogPayload, LogRecord, NodeLog, NodeLogStats,
    RecId, Records, StructuralKind,
};
