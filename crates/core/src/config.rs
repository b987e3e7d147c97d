//! Engine configuration: protocol selection and machine/database sizing.

use smdb_lock::LcbGeometry;
use smdb_sim::{CoherenceKind, CostModel};
use smdb_wal::LbmMode;

/// Which restart-recovery scheme runs after a crash (§4.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartScheme {
    /// **Redo All**: every surviving node discards all cached database
    /// lines, then rebuilds its cache from its local redo log (records not
    /// reflected in the stable database). Discarding implicitly undoes any
    /// migrated uncommitted updates of crashed transactions. No undo tags
    /// needed.
    RedoAll,
    /// **Selective Redo**: each survivor redoes only its own updates that
    /// were resident exclusively on crashed nodes (found with the
    /// cache-probe that disables I/O misses), then undoes crashed
    /// transactions' surviving updates via the per-record undo tags.
    Selective,
}

/// The crash-recovery protocol the engine runs. The three middle variants
/// are the paper's Table 1 columns; `FaOnly` is the §3.3 baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Baseline that guarantees plain failure atomicity but **not** IFA:
    /// any node crash aborts *every* active transaction in the machine
    /// ("abort all transactions which are dependent on the memory of
    /// remote nodes ... this method is overkill" — §3.3; with shared
    /// support structures effectively every transaction is dependent).
    FaOnly,
    /// Volatile LBM + Redo All (Table 1, column 3).
    VolatileRedoAll,
    /// Volatile LBM + Selective Redo with undo tagging (Table 1, column 2).
    VolatileSelectiveRedo,
    /// Stable LBM with the log force performed on every update (§5.2's
    /// naive enforcement).
    StableEager,
    /// Stable LBM with coherence-triggered forcing (§5.2's proposed
    /// active-bit extension): the force happens at the latest admissible
    /// point — downgrade or invalidation of the active line.
    StableTriggered,
}

impl ProtocolKind {
    /// Short stable name (reports, observability events).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::FaOnly => "FaOnly",
            ProtocolKind::VolatileRedoAll => "VolatileRedoAll",
            ProtocolKind::VolatileSelectiveRedo => "VolatileSelectiveRedo",
            ProtocolKind::StableEager => "StableEager",
            ProtocolKind::StableTriggered => "StableTriggered",
        }
    }

    /// The LBM policy this protocol uses during normal operation.
    pub fn lbm_mode(self) -> LbmMode {
        match self {
            // The FA-only baseline still logs volatilely (it needs commit
            // durability and abort support), it just doesn't use the log
            // to isolate failures.
            ProtocolKind::FaOnly => LbmMode::Volatile,
            ProtocolKind::VolatileRedoAll | ProtocolKind::VolatileSelectiveRedo => {
                LbmMode::Volatile
            }
            ProtocolKind::StableEager => LbmMode::StableEager,
            ProtocolKind::StableTriggered => LbmMode::StableTriggered,
        }
    }

    /// The restart scheme this protocol pairs with.
    pub fn restart_scheme(self) -> RestartScheme {
        match self {
            ProtocolKind::VolatileRedoAll => RestartScheme::RedoAll,
            // FA-only performs a full rebuild, structurally the same pass
            // as Redo All (but after aborting everyone).
            ProtocolKind::FaOnly => RestartScheme::RedoAll,
            ProtocolKind::VolatileSelectiveRedo
            | ProtocolKind::StableEager
            | ProtocolKind::StableTriggered => RestartScheme::Selective,
        }
    }

    /// Whether records carry undo tags (Table 1: only Volatile LBM with
    /// Selective Redo requires them; Stable LBM protocols can undo from
    /// their stable logs, and we still maintain tags there only as cheap
    /// redundancy — accounting reports them only where required).
    pub fn uses_undo_tags(self) -> bool {
        matches!(self, ProtocolKind::VolatileSelectiveRedo)
    }

    /// Whether this protocol guarantees IFA.
    pub fn guarantees_ifa(self) -> bool {
        !matches!(self, ProtocolKind::FaOnly)
    }

    /// All protocol variants (bench sweeps).
    pub fn all() -> [ProtocolKind; 5] {
        [
            ProtocolKind::FaOnly,
            ProtocolKind::VolatileRedoAll,
            ProtocolKind::VolatileSelectiveRedo,
            ProtocolKind::StableEager,
            ProtocolKind::StableTriggered,
        ]
    }

    /// The IFA-guaranteeing variants (Table 1 columns).
    pub fn ifa_protocols() -> [ProtocolKind; 4] {
        [
            ProtocolKind::VolatileRedoAll,
            ProtocolKind::VolatileSelectiveRedo,
            ProtocolKind::StableEager,
            ProtocolKind::StableTriggered,
        ]
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Number of nodes.
    pub nodes: u16,
    /// Recovery protocol.
    pub protocol: ProtocolKind,
    /// Hardware coherence protocol.
    pub coherence: CoherenceKind,
    /// Simulated cost model.
    pub cost: CostModel,
    /// Cache line size, bytes.
    pub line_size: usize,
    /// Cache lines per page.
    pub lines_per_page: usize,
    /// Number of heap record slots to create.
    pub records: u32,
    /// Record payload size, bytes. Together with `line_size` this controls
    /// how many records co-locate in one cache line — the knob behind the
    /// paper's §3.1 failure scenarios.
    pub rec_data_size: usize,
    /// Lock-table bucket lines.
    pub lock_buckets: usize,
    /// LCB layout.
    pub lcb_geometry: LcbGeometry,
    /// Page budget for the B+-tree index; 0 creates no index.
    pub index_pages: u32,
    /// §4.2.2 hardware stall option for references to lost lines.
    pub stall_on_lost: bool,
    /// Early lock release (controlled lock violation): a committing
    /// transaction releases its write locks at commit-record *append* time
    /// instead of after the commit force. A transaction that then touches a
    /// violated name inherits a commit-LSN dependency on the releaser and
    /// is only acknowledged once a physical force covers the whole
    /// dependency chain; if a predecessor's node crashes before that
    /// covering force, dependents abort in cascade. Recovery itself is
    /// unchanged — the commit point is still the durable commit record.
    pub early_lock_release: bool,
    /// Poll conflicting lock requests instead of queueing them: a
    /// conflicting acquire returns [`crate::DbError::WouldBlock`] without
    /// parking a logged waiter in the LCB, and the caller re-issues the
    /// request later (paying the LCB probe each time). Used by the
    /// pipelined-commit drivers, whose blocked transactions retry in place
    /// rather than abort — polling keeps the log-record stream identical
    /// whether or not a request happened to conflict, which is what lets
    /// the E10-elr experiment compare durability volume across lock
    /// policies.
    pub lock_poll: bool,
    /// Instant restart (on-demand redo): the IFA restart stops after
    /// analysis, reinstall, index redo, undo, and lock recovery — the
    /// *heap* redo plan is not applied. Instead every heap line with a
    /// pending redo entry is marked *unrecovered* in the machine, and the
    /// final image is applied on first forward-path access (charged to the
    /// accessing transaction's force-wait stage) or by
    /// [`crate::SmDb::drain_redo`] in GSN order between scheduler steps.
    /// Time-to-first-transaction then tracks the analysis scan instead of
    /// the full redo pass. The FA-only baseline and total failures always
    /// recover eagerly.
    pub instant_restart: bool,
    /// Number of independent shards the simulated machine's coherence
    /// directory and line store are striped into. `1` (the default)
    /// reproduces the historical single-array layout byte-for-byte; larger
    /// values enable the multicore execution engine
    /// ([`crate::mt`]), which detaches disjoint stripe sets into
    /// per-thread execution lanes. The stripe granule is always
    /// `lines_per_page` so one page never straddles shards.
    pub sim_shards: usize,
}

impl DbConfig {
    /// A compact configuration suitable for tests and examples: 1 KiB
    /// pages, 40-byte records (3 records per 128-byte line), 256 records,
    /// a 32-bucket lock table, and a small index.
    pub fn small(nodes: u16, protocol: ProtocolKind) -> Self {
        DbConfig {
            nodes,
            protocol,
            coherence: CoherenceKind::WriteInvalidate,
            cost: CostModel::default(),
            line_size: 128,
            lines_per_page: 8,
            records: 256,
            rec_data_size: 40,
            lock_buckets: 32,
            lcb_geometry: LcbGeometry::co_located(),
            index_pages: 64,
            stall_on_lost: false,
            early_lock_release: false,
            lock_poll: false,
            instant_restart: false,
            sim_shards: 1,
        }
    }

    /// A larger configuration for benchmarks: 4 KiB pages, more records
    /// and lock buckets.
    pub fn bench(nodes: u16, protocol: ProtocolKind) -> Self {
        DbConfig {
            nodes,
            protocol,
            coherence: CoherenceKind::WriteInvalidate,
            cost: CostModel::default(),
            line_size: 128,
            lines_per_page: 32,
            records: 4096,
            rec_data_size: 40,
            lock_buckets: 256,
            lcb_geometry: LcbGeometry::co_located(),
            index_pages: 256,
            stall_on_lost: false,
            early_lock_release: false,
            lock_poll: false,
            instant_restart: false,
            sim_shards: 1,
        }
    }

    /// Switch the coherence protocol.
    pub fn with_coherence(mut self, k: CoherenceKind) -> Self {
        self.coherence = k;
        self
    }

    /// Use a custom record payload size.
    pub fn with_rec_data_size(mut self, bytes: usize) -> Self {
        self.rec_data_size = bytes;
        self
    }

    /// Use a custom cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Disable the index.
    pub fn without_index(mut self) -> Self {
        self.index_pages = 0;
        self
    }

    /// Whether the engine has a B+-tree index.
    pub fn has_index(&self) -> bool {
        self.index_pages > 0
    }

    /// Run `StableEager` as `StableTriggered` and change nothing else:
    /// coalesced forces deferred each eager force request to the §5.2
    /// trigger, which *is* StableTriggered's policy. Kept only because
    /// the benchmark's `hot_pipelined` workload (`perf/`) calls it;
    /// ROADMAP item 5 deletes it.
    pub fn with_coalesced_forces(mut self) -> Self {
        if self.protocol == ProtocolKind::StableEager {
            self.protocol = ProtocolKind::StableTriggered;
        }
        self
    }

    /// Enable early lock release (controlled lock violation).
    pub fn with_early_lock_release(mut self) -> Self {
        self.early_lock_release = true;
        self
    }

    /// Poll conflicting lock requests instead of queueing them.
    pub fn with_lock_polling(mut self) -> Self {
        self.lock_poll = true;
        self
    }

    /// Enable instant restart (open early after analysis; on-demand +
    /// background heap redo).
    pub fn with_instant_restart(mut self) -> Self {
        self.instant_restart = true;
        self
    }

    /// Stripe the machine's coherence directory into `shards` shards
    /// (enables [`crate::mt`] execution lanes). Must be non-zero.
    pub fn with_sim_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        self.sim_shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_properties_match_table1() {
        use ProtocolKind::*;
        // Undo tagging: only Volatile LBM with Selective Redo.
        assert!(VolatileSelectiveRedo.uses_undo_tags());
        assert!(!VolatileRedoAll.uses_undo_tags());
        assert!(!StableEager.uses_undo_tags());
        assert!(!StableTriggered.uses_undo_tags());
        // Higher frequency of log forces: only Stable LBM.
        assert!(StableEager.lbm_mode().forces_eagerly());
        assert!(StableTriggered.lbm_mode().uses_triggers());
        assert_eq!(VolatileRedoAll.lbm_mode(), LbmMode::Volatile);
        // IFA guarantee.
        assert!(!FaOnly.guarantees_ifa());
        for p in ProtocolKind::ifa_protocols() {
            assert!(p.guarantees_ifa());
        }
    }

    #[test]
    fn small_config_is_consistent() {
        let c = DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo);
        assert_eq!(c.nodes, 4);
        assert!(c.lcb_geometry.fits(c.line_size));
        assert!(c.rec_data_size + 2 <= c.line_size, "record plus tag fits a line");
    }

    #[test]
    fn coalesced_forces_remap_only_stable_eager() {
        for p in ProtocolKind::all() {
            let base = DbConfig::small(4, p)
                .with_early_lock_release()
                .with_lock_polling()
                .with_instant_restart()
                .with_sim_shards(8);
            let remapped = base.clone().with_coalesced_forces();
            let want =
                if p == ProtocolKind::StableEager { ProtocolKind::StableTriggered } else { p };
            assert_eq!(remapped.protocol, want);
            let expected = format!("{:?}", DbConfig { protocol: want, ..base });
            assert_eq!(format!("{remapped:?}"), expected, "{p:?}: only the protocol may change");
        }
    }
}
