//! # smdb-sim — cache-coherent shared-memory multiprocessor simulator
//!
//! This crate models the hardware substrate assumed by *Recovery Protocols
//! for Shared Memory Database Systems* (Molesky & Ramamritham, SIGMOD 1995):
//! a cache-coherent shared-memory multiprocessor (in the mold of the KSR-1
//! or Stanford FLASH) in which
//!
//! * each **node** is a processor/memory pair with its own cache,
//! * coherence is maintained in hardware with a **write-invalidate**
//!   protocol (a **write-broadcast** mode is also provided, cf. §7 of the
//!   paper),
//! * **line locks** (`getline`/`releaseline`, the KSR-1 `gsp`/`rsp`
//!   primitives) pin a cache line in mutually-exclusive state,
//! * **individual node failures are isolated**: a crash destroys exactly the
//!   failed node's cache/memory, and a low-level recovery step restores the
//!   cache directory to a consistent state reflecting the surviving caches.
//!
//! The simulator is deterministic and single-threaded: callers issue memory
//! operations *on behalf of* a node, and the simulator charges simulated
//! cycles to that node's clock according to a configurable [`CostModel`].
//! Determinism is what makes exhaustive crash-point testing of the recovery
//! protocols feasible; see `DESIGN.md` §5.
//!
//! Every coherence transition (read hit, remote read, write, migration,
//! line lock, install, crash) is emitted onto the shared observability bus
//! ([`obs`], off by default) — the machine keeps no trace ring of its own,
//! so its events are numbered in one sequence with every other layer's.
//!
//! The central type is [`Machine`]. A minimal session:
//!
//! ```
//! use smdb_sim::{Machine, SimConfig, NodeId, LineId};
//!
//! let mut m = Machine::new(SimConfig::new(2));
//! let n0 = NodeId(0);
//! let n1 = NodeId(1);
//! let line = LineId(7);
//! m.create_line_at(n0, line, &[0xAB; 128]).unwrap();
//! // n1 writes: under write-invalidate the line *migrates* to n1.
//! m.write(n1, line, 0, &[0xCD]).unwrap();
//! assert_eq!(m.exclusive_owner(line), Some(n1));
//! // Crash n1: the only copy dies with it.
//! m.crash(&[n1]);
//! assert!(m.is_lost(line));
//! ```

mod config;
mod contention;
mod cost;
mod error;
mod flat;
mod ids;
mod machine;
mod stats;

pub use config::{CoherenceKind, SimConfig};
pub use contention::{contended_line_lock_costs, ContentionOutcome};
pub use cost::CostModel;
pub use error::MemError;
pub use flat::{HolderSet, HOLDERS_INLINE};
pub use ids::{LineId, NodeId, TxnId};
pub use machine::{
    span_bytes, CrashReport, FlatStats, Machine, SpanResidency, TransferKind, TriggerEvent,
    FAULT_INVALIDATE, FAULT_MIGRATE, METRIC_BUF_REUSE, METRIC_INDEX_PROBES,
};
pub use stats::SimStats;

/// Re-export of the observability layer the [`Machine`] emits into, so
/// downstream crates can name event and metric types without a separate
/// dependency edge.
pub use smdb_obs as obs;

/// Re-export of the fault-injection layer (the [`Machine`] hosts crash
/// points on its coherence paths), so downstream crates can name injector
/// types without a separate dependency edge.
pub use smdb_fault as fault;

/// Cache line size used by default throughout the reproduction: 128 bytes,
/// the line size of both the KSR-1/KSR-2 and Stanford FLASH (paper, §3).
pub const DEFAULT_LINE_SIZE: usize = 128;
