//! The machine-wide event bus: a sequence-numbered, bounded timeline of
//! typed events from every layer.
//!
//! The bus is the machine's coherence trace — the simulator emits every
//! cache-line transition onto it — and a shared handle that lock, WAL,
//! buffer, and recovery code emit into as well, so one global sequence
//! numbering orders events *across* layers: a line lock, the cache-line
//! migration it allowed, and the log force that migration triggered appear
//! in causal order.
//!
//! Field types are raw integers (`u16` nodes, `u64` lines/pages/txns) to
//! keep this crate dependency-free; the emitting layers unwrap their
//! newtypes at the call site.

use crate::ring::Ring;
use crate::Switch;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Ring capacity when [`crate::Obs::enable`] is given 0.
const DEFAULT_CAPACITY: usize = 4096;

/// One typed cross-layer event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    // -- Cache coherence (emitted by `sim::Machine`) --------------------
    /// Read served from the local cache.
    ReadHit {
        /// Reading node.
        node: u16,
        /// Line read.
        line: u64,
    },
    /// Read fetched the line from a remote cache (`H_wr` when `downgraded`).
    ReadRemote {
        /// Reading node.
        node: u16,
        /// Line read.
        line: u64,
        /// Whether an exclusive owner was downgraded.
        downgraded: bool,
    },
    /// Write that stayed local.
    WriteLocal {
        /// Writing node.
        node: u16,
        /// Line written.
        line: u64,
    },
    /// Write that took the line from other caches (`H_ww1` when `migration`).
    WriteTake {
        /// Writing node.
        node: u16,
        /// Line written.
        line: u64,
        /// Remote copies invalidated.
        invalidated: u16,
        /// Whether the line migrated from a remote exclusive owner.
        migration: bool,
    },
    /// Write-broadcast update of remote copies.
    WriteBroadcast {
        /// Writing node.
        node: u16,
        /// Line written.
        line: u64,
        /// Remote copies updated.
        updated: u16,
    },
    /// Line lock (`getline`) acquired.
    LineLock {
        /// Acquiring node.
        node: u16,
        /// Locked line.
        line: u64,
    },
    /// Line lock (`releaseline`) released.
    LineUnlock {
        /// Releasing node.
        node: u16,
        /// Unlocked line.
        line: u64,
    },
    /// Line (re)installed by recovery or page fault.
    Install {
        /// Installing node.
        node: u16,
        /// Installed line.
        line: u64,
    },
    /// Crash injected: nodes failed, lines whose every copy died.
    CrashInjected {
        /// How many nodes failed.
        nodes: u16,
        /// Lines destroyed machine-wide.
        lost_lines: u64,
    },

    // -- Lock manager ---------------------------------------------------
    /// Logical lock granted.
    LockAcquire {
        /// Requesting node.
        node: u16,
        /// Requesting transaction.
        txn: u64,
        /// Lock name.
        name: u64,
        /// Exclusive vs shared mode.
        exclusive: bool,
    },
    /// Lock request blocked behind an incompatible holder.
    LockWouldBlock {
        /// Requesting node.
        node: u16,
        /// Requesting transaction.
        txn: u64,
        /// Lock name.
        name: u64,
    },
    /// Lock released; `held_cycles` is the simulated hold time.
    LockRelease {
        /// Releasing node.
        node: u16,
        /// Releasing transaction.
        txn: u64,
        /// Lock name.
        name: u64,
        /// Simulated cycles the lock was held.
        held_cycles: u64,
    },

    // -- WAL / LBM ------------------------------------------------------
    /// Log record appended to a node's in-memory WAL tail.
    WalAppend {
        /// Appending node.
        node: u16,
        /// Assigned LSN.
        lsn: u64,
    },
    /// A node's WAL forced to stable storage.
    WalForce {
        /// Forcing node.
        node: u16,
        /// Records made durable by this force.
        records: u64,
        /// What prompted the force.
        reason: ForceReason,
    },
    /// Stable-LBM bookkeeping forced a *remote* node's log before a line
    /// migration could proceed (the triggered-force path).
    LbmTriggeredForce {
        /// Node whose log was forced.
        owner: u16,
        /// Migrating line that triggered it.
        line: u64,
    },

    // -- Buffer manager -------------------------------------------------
    /// Dirty page stolen (written back before commit).
    BufSteal {
        /// Stealing node.
        node: u16,
        /// Page written back.
        page: u64,
    },
    /// Page flushed to stable storage.
    BufFlush {
        /// Flushing node.
        node: u16,
        /// Page flushed.
        page: u64,
    },

    // -- Crash recovery -------------------------------------------------
    /// IFA restart began for the given crashed nodes.
    RecoveryBegin {
        /// How many nodes are being recovered.
        crashed: u16,
        /// Protocol name (e.g. `"VolatileRedoAll"`).
        protocol: &'static str,
    },
    /// A recovery phase started.
    RecoveryPhaseBegin {
        /// Phase name (e.g. `"redo"`).
        phase: &'static str,
    },
    /// A recovery phase finished.
    RecoveryPhaseEnd {
        /// Phase name.
        phase: &'static str,
        /// Simulated cycles the phase consumed.
        sim_cycles: u64,
    },
    /// IFA restart finished.
    RecoveryEnd {
        /// Total simulated recovery cycles.
        sim_cycles: u64,
    },
}

/// Why a WAL force happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForceReason {
    /// Commit-time force.
    Commit,
    /// Stable-LBM eager or triggered force.
    Lbm,
    /// WAL ahead of a page flush (write-ahead rule).
    PageFlush,
    /// Checkpoint force.
    Checkpoint,
}

impl Event {
    /// Short stable name of the variant, for filtering and CSV output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ReadHit { .. } => "read_hit",
            Event::ReadRemote { .. } => "read_remote",
            Event::WriteLocal { .. } => "write_local",
            Event::WriteTake { .. } => "write_take",
            Event::WriteBroadcast { .. } => "write_broadcast",
            Event::LineLock { .. } => "line_lock",
            Event::LineUnlock { .. } => "line_unlock",
            Event::Install { .. } => "install",
            Event::CrashInjected { .. } => "crash_injected",
            Event::LockAcquire { .. } => "lock_acquire",
            Event::LockWouldBlock { .. } => "lock_would_block",
            Event::LockRelease { .. } => "lock_release",
            Event::WalAppend { .. } => "wal_append",
            Event::WalForce { .. } => "wal_force",
            Event::LbmTriggeredForce { .. } => "lbm_triggered_force",
            Event::BufSteal { .. } => "buf_steal",
            Event::BufFlush { .. } => "buf_flush",
            Event::RecoveryBegin { .. } => "recovery_begin",
            Event::RecoveryPhaseBegin { .. } => "recovery_phase_begin",
            Event::RecoveryPhaseEnd { .. } => "recovery_phase_end",
            Event::RecoveryEnd { .. } => "recovery_end",
        }
    }
}

/// One bus entry: global sequence number, simulated timestamp, event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Global, monotonically increasing sequence number. Survives ring
    /// eviction and drains, so gaps reveal evicted history.
    pub seq: u64,
    /// Simulated clock (max across nodes) when the event was emitted.
    pub at: u64,
    /// The event itself.
    pub event: Event,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>6} t={:>8}] {:?}", self.seq, self.at, self.event)
    }
}

struct BusInner {
    ring: Ring<Record>,
    next_seq: u64,
}

/// Bounded, sequence-numbered event timeline. `Clone` shares the ring.
#[derive(Clone)]
pub struct Bus {
    on: Switch,
    inner: Arc<Mutex<BusInner>>,
}

impl Bus {
    pub(crate) fn new(on: Switch) -> Self {
        Bus {
            on,
            inner: Arc::new(Mutex::new(BusInner {
                ring: Ring::new(DEFAULT_CAPACITY),
                next_seq: 0,
            })),
        }
    }

    /// Resize the ring (0 means [`DEFAULT_CAPACITY`]). Shrinking below the
    /// current backlog drops the *oldest* entries; sequence numbering
    /// continues unchanged.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let capacity = if capacity == 0 { DEFAULT_CAPACITY } else { capacity };
        self.inner.lock().unwrap().ring.set_capacity(capacity);
    }

    /// Record an event. `at` is the simulated timestamp; the closure is
    /// only evaluated when observability is on, so emission sites pay one
    /// branch when it is off.
    #[inline]
    pub fn emit(&self, at: u64, event: impl FnOnce() -> Event) {
        if !self.on.is_on() {
            return;
        }
        self.emit_slow(at, event());
    }

    fn emit_slow(&self, at: u64, event: Event) {
        let mut g = self.inner.lock().unwrap();
        let seq = g.next_seq;
        g.next_seq += 1;
        g.ring.push(Record { seq, at, event });
    }

    /// Copy of the current backlog, oldest first.
    pub fn snapshot(&self) -> Vec<Record> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Take the backlog, leaving the ring empty (sequence numbers keep
    /// increasing across drains).
    pub fn drain(&self) -> Vec<Record> {
        self.inner.lock().unwrap().ring.drain()
    }

    /// Buffered record count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().ring.capacity()
    }

    /// Total events ever emitted (= next sequence number).
    pub fn emitted(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn ev(line: u64) -> Event {
        Event::WriteLocal { node: 0, line }
    }

    /// A bus switched on with a ring of `capacity`, and its handle.
    fn bus(capacity: usize) -> (Obs, Bus) {
        let obs = Obs::new();
        obs.enable(capacity);
        (obs.clone(), obs.bus)
    }

    #[test]
    fn disabled_bus_never_calls_closure() {
        let bus = Obs::new().bus;
        bus.emit(1, || panic!("closure evaluated while disabled"));
        assert!(bus.is_empty());
        assert_eq!(bus.emitted(), 0);
    }

    #[test]
    fn eviction_preserves_global_seq_ordering() {
        let (_, bus) = bus(4);
        for i in 0..10 {
            bus.emit(i, || ev(i));
        }
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 4, "ring bounded at capacity");
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, newest kept");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(bus.emitted(), 10, "eviction does not rewind numbering");
    }

    #[test]
    fn seq_numbering_survives_drain_and_reenable() {
        let (obs, bus) = bus(8);
        bus.emit(0, || ev(1));
        bus.emit(0, || ev(2));
        let first = bus.drain();
        assert_eq!(first.len(), 2);
        bus.emit(0, || ev(3));
        let second = bus.drain();
        assert_eq!(second[0].seq, 2, "drain does not reset seq");
        obs.enable(8);
        bus.emit(0, || ev(4));
        assert_eq!(bus.snapshot()[0].seq, 3, "re-enable does not reset seq");
    }

    #[test]
    fn shrinking_capacity_trims_oldest() {
        let (obs, bus) = bus(8);
        for i in 0..8 {
            bus.emit(i, || ev(i));
        }
        obs.enable(3);
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, 5, "kept the newest three");
        assert_eq!(bus.capacity(), 3);
    }

    #[test]
    fn zero_capacity_means_default() {
        let (_, bus) = bus(0);
        assert_eq!(bus.capacity(), DEFAULT_CAPACITY);
    }
}
