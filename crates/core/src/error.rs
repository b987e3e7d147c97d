//! Engine errors.

use smdb_btree::BtreeError;
use smdb_fault::FaultCrash;
use smdb_lock::LockError;
use smdb_sim::{MemError, TxnId};
use smdb_storage::PageId;
use smdb_wal::Lsn;
use std::fmt;

/// Errors surfaced by the [`crate::SmDb`] engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// Underlying simulated-memory error.
    Mem(MemError),
    /// Lock-manager error.
    Lock(LockError),
    /// B-tree error.
    Btree(BtreeError),
    /// The lock request conflicts; under the engine's no-wait policy the
    /// caller should abort and retry the transaction. (The lock manager
    /// has queued the request and logged it; [`crate::SmDb::abort`]
    /// removes it.)
    WouldBlock {
        /// The blocked transaction.
        txn: TxnId,
        /// The contested lock name.
        lock: u64,
    },
    /// Operation on a transaction that is not active.
    TxnNotActive {
        /// The transaction.
        txn: TxnId,
    },
    /// Operation of a parallel transaction issued on a node it was never
    /// [attached](crate::SmDb::attach) to.
    NotParticipant {
        /// The transaction.
        txn: TxnId,
        /// The node it does not run on.
        node: smdb_sim::NodeId,
    },
    /// Record slot outside the configured heap.
    NoSuchRecord {
        /// Global slot index requested.
        slot: u64,
    },
    /// An update's payload is longer than a record's data area.
    PayloadTooLarge {
        /// Bytes offered.
        len: usize,
        /// Bytes a record holds ([`crate::DbConfig`]'s `rec_data_size`).
        max: usize,
    },
    /// Operation issued for a node that has crashed and not been rebooted.
    NodeDown {
        /// The node.
        node: smdb_sim::NodeId,
    },
    /// The engine was built without an index.
    NoIndex,
    /// A transaction was submitted for a node the machine does not have.
    NoSuchNode {
        /// The node.
        node: smdb_sim::NodeId,
    },
    /// An index operation was submitted to the epoch scheduler
    /// ([`crate::SmDb::run_epochs`]), which admits record reads and
    /// updates only: an index operation's page footprint is data-dependent,
    /// so admission cannot claim it up front. Use the serial API.
    IndexOpInEpoch {
        /// The index key of the refused operation.
        key: u64,
    },
    /// The epoch scheduler ([`crate::SmDb::run_epochs`]) was asked to run
    /// on an engine it does not support — it needs a quiescent engine, every
    /// node up and the serial feature set — or could not finish an epoch.
    EpochRefused {
        /// The precondition that does not hold.
        requires: &'static str,
    },
    /// The epoch barrier found a transaction a lane committed whose commit
    /// record is not durable on its home log: the lane returned without
    /// its commit force, and merging it would let the parent observe a
    /// commit a crash can still lose.
    LaneCommitNotDurable {
        /// The transaction the lane committed.
        txn: TxnId,
        /// Its commit record's LSN.
        lsn: Lsn,
        /// The home log's durable LSN at the barrier.
        durable: Lsn,
    },
    /// An armed fault-injection point fired: the acting node must be
    /// treated as crashed at this instant. The crash driver catches this
    /// variant, calls [`crate::SmDb::crash`] on the victim, and then
    /// [`crate::SmDb::recover`]. Flattened out of every lower layer so one
    /// match arm suffices regardless of where the point fired.
    FaultCrash(FaultCrash),
    /// A page recovery relies on is missing from the stable database —
    /// the durable state itself is inconsistent. Previously a panic on the
    /// restart path.
    StablePageMissing {
        /// The missing page.
        page: PageId,
    },
    /// An internal invariant did not hold on a reachable engine path.
    /// Typed replacement for the `expect`/`unwrap` calls that used to sit
    /// on the forward and recovery paths: the shared structures they read
    /// (txn table, index handle) live in simulated shared memory that
    /// crashes mutate concurrently, so "checked three lines up" is not a
    /// proof — and a violation should surface as an error the caller can
    /// report, not take the whole process down mid-recovery.
    Invariant {
        /// The invariant that was violated.
        what: &'static str,
    },
}

/// `Option` → `Result` sugar for engine invariants:
/// `req(self.tree.as_mut(), "index op implies an index")?`.
pub(crate) fn req<T>(opt: Option<T>, what: &'static str) -> Result<T, DbError> {
    opt.ok_or(DbError::Invariant { what })
}

impl DbError {
    /// The injected crash, if this error is one (crash drivers match on
    /// this to distinguish "victim died as scheduled" from a real error).
    pub fn fault_crash(&self) -> Option<&FaultCrash> {
        match self {
            DbError::FaultCrash(c) => Some(c),
            _ => None,
        }
    }
}

impl From<FaultCrash> for DbError {
    fn from(c: FaultCrash) -> Self {
        DbError::FaultCrash(c)
    }
}

impl From<MemError> for DbError {
    fn from(e: MemError) -> Self {
        match e {
            MemError::FaultCrash(c) => DbError::FaultCrash(c),
            other => DbError::Mem(other),
        }
    }
}

impl From<LockError> for DbError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Mem(m) => DbError::from(m),
            other => DbError::Lock(other),
        }
    }
}

impl From<BtreeError> for DbError {
    fn from(e: BtreeError) -> Self {
        match e {
            BtreeError::Mem(m) => DbError::from(m),
            other => DbError::Btree(other),
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Mem(e) => write!(f, "memory: {e}"),
            DbError::Lock(e) => write!(f, "lock: {e}"),
            DbError::Btree(e) => write!(f, "btree: {e}"),
            DbError::WouldBlock { txn, lock } => {
                write!(f, "{txn} would block on lock {lock} (no-wait policy)")
            }
            DbError::TxnNotActive { txn } => write!(f, "{txn} is not active"),
            DbError::NotParticipant { txn, node } => {
                write!(f, "{txn} does not run on {node}: attach() it first")
            }
            DbError::NoSuchRecord { slot } => write!(f, "no record slot {slot}"),
            DbError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the record's {max}")
            }
            DbError::NodeDown { node } => write!(f, "{node} is down"),
            DbError::NoIndex => write!(f, "engine configured without an index"),
            DbError::NoSuchNode { node } => write!(f, "the machine has no {node}"),
            DbError::IndexOpInEpoch { key } => {
                write!(f, "index operation on key {key} submitted to the epoch scheduler")
            }
            DbError::EpochRefused { requires } => {
                write!(f, "the epoch scheduler requires {requires}")
            }
            DbError::LaneCommitNotDurable { txn, lsn, durable } => write!(
                f,
                "{txn} committed in a lane, but its commit record {lsn:?} is above \
                 the durable LSN {durable:?}"
            ),
            DbError::FaultCrash(c) => write!(f, "injected crash point fired: {c}"),
            DbError::StablePageMissing { page } => {
                write!(f, "stable database page {page} missing during recovery")
            }
            DbError::Invariant { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_sim::{LineId, NodeId};

    #[test]
    fn conversions_flatten_mem_errors() {
        let m = MemError::LineLost { line: LineId(4) };
        assert_eq!(DbError::from(LockError::Mem(m.clone())), DbError::Mem(m.clone()));
        assert_eq!(DbError::from(BtreeError::Mem(m.clone())), DbError::Mem(m));
    }

    #[test]
    fn fault_crash_flattens_from_every_layer() {
        let c = FaultCrash { site: "sim.migrate", hit: 3, node: 1 };
        assert_eq!(DbError::from(MemError::FaultCrash(c)), DbError::FaultCrash(c));
        assert_eq!(DbError::from(LockError::Mem(MemError::FaultCrash(c))), DbError::FaultCrash(c));
        assert_eq!(DbError::from(BtreeError::Mem(MemError::FaultCrash(c))), DbError::FaultCrash(c));
        assert_eq!(DbError::FaultCrash(c).fault_crash(), Some(&c));
        assert_eq!(DbError::NoIndex.fault_crash(), None);
    }

    #[test]
    fn display_mentions_txn() {
        let t = TxnId::new(NodeId(1), 2);
        let e = DbError::WouldBlock { txn: t, lock: 9 };
        assert!(e.to_string().contains("t1.2"));
    }
}
