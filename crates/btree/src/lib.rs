//! # smdb-btree — a shared-memory B+-tree index (§4.2.1)
//!
//! A B+-tree whose nodes are database pages living in the simulated
//! shared memory (and paged against the stable database), so that index
//! operations exhibit exactly the cache-line sharing patterns that drive
//! the paper's recovery problems:
//!
//! * leaf records are co-located many-per-cache-line, so an uncommitted
//!   insert can migrate to another node's cache (§4.2.1);
//! * **non-structural** changes (insert, delete) are recovered with the
//!   record-oriented techniques: logical `IndexInsert`/`IndexDelete` log
//!   records written under the LBM discipline, plus per-entry **undo tags**
//!   (the node id of the updating transaction) stored *in the same cache
//!   line* as the entry;
//! * **deletes are logical** — the entry is marked deleted, so the undo of
//!   a migrated uncommitted delete is effected by merely *unmarking* it
//!   (§4.2.1), and the space is not reused until the deleter commits;
//! * **structural** changes (page splits, root growth) are nested
//!   top-level actions committed early (§4.2): the structural log record is
//!   forced and the affected pages are flushed before the new structure can
//!   be used by any other transaction, so no inter-node abort dependency
//!   can form through it.
//!
//! All byte traffic goes through the coherent [`smdb_sim::Machine`]; pages
//! are faulted from the [`smdb_storage::StableDb`] on first touch and
//! flushed respecting the WAL rule via the shared
//! [`smdb_wal::PageLsnTable`].

mod layout;
mod pageio;
mod recovery;
mod tree;

pub use layout::{BranchRef, LeafEntry, NodeKind, TreeLayout, NULL_TAG, VAL_SIZE};
pub use pageio::{LineSpan, TreeCtx, APPEND_BYTES_COUNTER};
pub use recovery::BtreeRecoveryStats;
pub use tree::{BTree, BtreeError, BtreeStats, LeafHit};
