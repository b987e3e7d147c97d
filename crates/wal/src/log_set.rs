//! The collection of all nodes' logs.

use crate::lsn::Lsn;
use crate::record::{LogPayload, NodeLog};
use smdb_fault::{FaultCrash, FaultInjector};
use smdb_obs::{names, Event, ForceReason};
use smdb_sim::{LineId, Machine, NodeId, TxnId};

/// Fault site: visited once per volatile record a log force is about to
/// make durable. Firing at ordinal `k` of a force means the force wrote
/// exactly `k` records and then the node died — the classic torn log
/// force. The acting node is the log owner.
pub const FAULT_FORCE_RECORD: &str = "wal.force.record";

/// Fault site: visited once per live node as the checkpoint is about to
/// append that node's Checkpoint marker record. Firing kills the node
/// before its marker exists — the checkpoint is torn across the machine:
/// some logs carry the new marker, some never will, and the checkpoint
/// metadata is never installed. The acting node is the marker's owner.
pub const FAULT_CHECKPOINT_RECORD: &str = "wal.checkpoint.record";

/// Fault site: visited once per live node as checkpoint-driven log
/// reclamation is about to truncate that node's redo-free prefix. Firing
/// kills the node after the checkpoint metadata is installed but with
/// truncation incomplete: some logs are trimmed to the checkpoint, others
/// still carry (and will re-scan) records below it. The acting node is
/// the log owner.
pub const FAULT_TRUNCATE: &str = "wal.truncate";

/// All per-node logs of the machine, indexed by [`NodeId`].
#[derive(Clone, Debug)]
pub struct LogSet {
    logs: Vec<NodeLog>,
    fault: FaultInjector,
}

impl LogSet {
    /// Create one empty log per node.
    pub fn new(nodes: u16) -> Self {
        LogSet {
            logs: (0..nodes).map(|n| NodeLog::new(NodeId(n))).collect(),
            fault: FaultInjector::new(),
        }
    }

    /// Install a fault injector; the log set hosts the per-record force
    /// crash point ([`FAULT_FORCE_RECORD`]).
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// Force `node`'s log up to `lsn` (inclusive), visiting the
    /// [`FAULT_FORCE_RECORD`] crash point once per record written. When the
    /// point fires mid-force, the records already visited are durable, the
    /// rest are not, and the error demands the node be crashed — exactly a
    /// power failure between two log-disk writes.
    pub fn force_to_checked(&mut self, node: NodeId, lsn: Lsn) -> Result<bool, FaultCrash> {
        let fault = &self.fault;
        let log = &mut self.logs[node.0 as usize];
        let count = log.unforced_count_to(lsn);
        for k in 0..count {
            if let Some(c) = fault.hit(FAULT_FORCE_RECORD, node.0) {
                if k > 0 {
                    log.force_records(k);
                }
                return Err(c);
            }
        }
        Ok(log.force_to(lsn))
    }

    /// **The** physical log force: force `node`'s log through `upto`
    /// ([`LogSet::force_to_checked`]: one [`FAULT_FORCE_RECORD`] visit per
    /// record), and if the stable boundary moved, charge the force latency
    /// (the cost model's `log_force`) to `node`'s clock and record the force once —
    /// `wal.physical_forces`, the `wal.force_records` histogram (records
    /// made durable) and a [`Event::WalForce`] with `reason`. Returns the
    /// cycles charged (0 when the log was already stable that far). Every
    /// caller keeps only its own count of why it forced.
    pub fn force(
        &mut self,
        m: &mut Machine,
        node: NodeId,
        upto: Lsn,
        reason: ForceReason,
    ) -> Result<u64, FaultCrash> {
        self.force_announced(m, node, upto, reason, None)
    }

    /// [`LogSet::force`] of all of `owner`'s log for the §5.2 coherence
    /// trigger on `line`: a physical force is announced by an
    /// [`Event::LbmTriggeredForce`] just before its own `WalForce`.
    pub fn force_triggered(
        &mut self,
        m: &mut Machine,
        owner: NodeId,
        line: LineId,
    ) -> Result<u64, FaultCrash> {
        let last = self.log(owner).last_lsn();
        self.force_announced(m, owner, last, ForceReason::Lbm, Some(line))
    }

    fn force_announced(
        &mut self,
        m: &mut Machine,
        node: NodeId,
        upto: Lsn,
        reason: ForceReason,
        trigger: Option<LineId>,
    ) -> Result<u64, FaultCrash> {
        let records = self.log(node).unforced_count_to(upto);
        if !self.force_to_checked(node, upto)? {
            return Ok(0);
        }
        let cost = m.config().cost.log_force;
        m.advance(node, cost);
        let obs = m.obs();
        if obs.is_enabled() {
            let at = m.now(node);
            if let Some(line) = trigger {
                obs.bus.emit(at, || Event::LbmTriggeredForce { owner: node.0, line: line.0 });
            }
            obs.metrics.observe(names::WAL_FORCE_RECORDS, records);
            obs.metrics.inc(names::WAL_PHYSICAL_FORCES);
            obs.bus.emit(at, || Event::WalForce { node: node.0, records, reason });
        }
        Ok(cost)
    }

    /// Append `node`'s sharp-checkpoint marker record, visiting the
    /// [`FAULT_CHECKPOINT_RECORD`] crash point first: a fire means the
    /// node died before the marker was written.
    pub fn append_checkpoint_checked(&mut self, node: NodeId) -> Result<Lsn, FaultCrash> {
        if let Some(c) = self.fault.hit(FAULT_CHECKPOINT_RECORD, node.0) {
            return Err(c);
        }
        Ok(self.append(node, LogPayload::Checkpoint))
    }

    /// Truncate `node`'s log through `lsn`, visiting the [`FAULT_TRUNCATE`]
    /// crash point first: a fire means the node died with its prefix still
    /// in place (truncation is all-or-nothing per log).
    pub fn truncate_through_checked(&mut self, node: NodeId, lsn: Lsn) -> Result<(), FaultCrash> {
        if let Some(c) = self.fault.hit(FAULT_TRUNCATE, node.0) {
            return Err(c);
        }
        self.log_mut(node).truncate_through(lsn);
        Ok(())
    }

    /// Number of logs (== number of nodes).
    pub fn len(&self) -> usize {
        self.logs.len()
    }

    /// Whether there are no logs.
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Immutable access to one node's log.
    pub fn log(&self, node: NodeId) -> &NodeLog {
        &self.logs[node.0 as usize]
    }

    /// Mutable access to one node's log.
    pub fn log_mut(&mut self, node: NodeId) -> &mut NodeLog {
        &mut self.logs[node.0 as usize]
    }

    /// Append to `node`'s log.
    pub fn append(&mut self, node: NodeId, payload: LogPayload) -> Lsn {
        self.log_mut(node).append(payload)
    }

    /// `txn` has settled and appends nothing further to any log: retire
    /// its first-record entries (see [`NodeLog::retire_txn`]). Every log is
    /// told — a transaction's lock and update records land on each node it
    /// acted on, not only its home.
    pub fn retire_txn(&mut self, txn: TxnId) {
        for l in &mut self.logs {
            l.retire_txn(txn);
        }
    }

    /// Crash the given nodes' logs (volatile tails vanish).
    pub fn crash(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.log_mut(n).crash();
        }
    }

    /// Iterate over all logs.
    pub fn iter(&self) -> impl Iterator<Item = &NodeLog> {
        self.logs.iter()
    }

    /// Iterate mutably over all logs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut NodeLog> {
        self.logs.iter_mut()
    }

    /// Enable or disable force coalescing on every node's log.
    pub fn set_coalescing(&mut self, on: bool) {
        for l in &mut self.logs {
            l.set_coalescing(on);
        }
    }

    /// Logical durability request for `node`'s log under coalescing: defer
    /// into the pending-force window instead of forcing physically (see
    /// [`NodeLog::request_force_to`]). No crash point is visited — nothing
    /// is written until a later physical force drains the window.
    pub fn request_force_to(&mut self, node: NodeId, lsn: Lsn) -> bool {
        self.log_mut(node).request_force_to(lsn)
    }

    /// Total number of physical forces across all logs.
    pub fn total_forces(&self) -> u64 {
        self.logs.iter().map(|l| l.stats().forces).sum()
    }

    /// Total records made stable by forces across all logs.
    pub fn total_records_forced(&self) -> u64 {
        self.logs.iter().map(|l| l.stats().records_forced).sum()
    }

    /// Detach `node`'s log into a fresh [`LogSet`] for an execution lane
    /// (see `Machine::lane_split`): the returned set carries the real
    /// [`NodeLog`] for `node` — the lane is that node's sole WAL
    /// appender for the duration of an epoch — and empty sentinel logs
    /// for every other node. A lane append to a foreign log is a
    /// scheduling bug; [`LogSet::lane_merge`] asserts the sentinels came
    /// back untouched.
    pub fn lane_split(&mut self, node: NodeId) -> LogSet {
        let mut lane = LogSet::new(self.logs.len() as u16);
        lane.fault = self.fault.clone();
        std::mem::swap(&mut lane.logs[node.0 as usize], &mut self.logs[node.0 as usize]);
        lane
    }

    /// Reattach the log a lane took with [`LogSet::lane_split`]. Panics
    /// if the lane appended to any log other than its own (the epoch
    /// scheduler admitted a transaction whose footprint was wrong).
    pub fn lane_merge(&mut self, node: NodeId, mut lane: LogSet) {
        assert_eq!(lane.logs.len(), self.logs.len(), "lane log set mismatched");
        for (i, l) in lane.logs.iter().enumerate() {
            if i != node.0 as usize {
                assert!(l.stats().appends == 0, "lane for {node} appended to n{i}'s log");
            }
        }
        std::mem::swap(&mut lane.logs[node.0 as usize], &mut self.logs[node.0 as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_logs_are_independent() {
        let mut set = LogSet::new(3);
        let t0 = TxnId::new(NodeId(0), 1);
        let t2 = TxnId::new(NodeId(2), 1);
        set.append(NodeId(0), LogPayload::Abort { txn: t0 });
        set.append(NodeId(2), LogPayload::Abort { txn: t2 });
        assert_eq!(set.log(NodeId(0)).len(), 1);
        assert_eq!(set.log(NodeId(1)).len(), 0);
        assert_eq!(set.log(NodeId(2)).len(), 1);
    }

    #[test]
    fn crash_hits_only_named_nodes() {
        let mut set = LogSet::new(2);
        let t0 = TxnId::new(NodeId(0), 1);
        let t1 = TxnId::new(NodeId(1), 1);
        set.append(NodeId(0), LogPayload::Abort { txn: t0 });
        set.append(NodeId(1), LogPayload::Abort { txn: t1 });
        set.crash(&[NodeId(0)]);
        assert!(set.log(NodeId(0)).is_empty());
        assert_eq!(set.log(NodeId(1)).len(), 1);
    }
}
