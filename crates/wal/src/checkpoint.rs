//! Sharp checkpoints.
//!
//! Restart recovery processes each surviving node's redo log *forward from
//! the last checkpoint* (§4.1.2). We implement sharp checkpoints: taking a
//! checkpoint forces every node's log and flushes every dirty page, so
//! recovery never needs to look at records older than the per-node
//! checkpoint LSNs recorded here.

use crate::lsn::Lsn;
use smdb_sim::NodeId;
use smdb_storage::PageId;

/// Durable metadata describing the most recent checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// For each node (indexed by `NodeId`), the LSN of its checkpoint
    /// record. Recovery scans each node's log strictly after this LSN.
    pub node_lsns: Vec<Lsn>,
}

impl CheckpointMeta {
    /// A "beginning of time" checkpoint for `nodes` nodes: recovery scans
    /// entire logs.
    pub fn genesis(nodes: u16) -> Self {
        CheckpointMeta { node_lsns: vec![Lsn::ZERO; nodes as usize] }
    }

    /// Checkpoint LSN for one node.
    pub fn lsn_for(&self, node: NodeId) -> Lsn {
        self.node_lsns.get(node.0 as usize).copied().unwrap_or(Lsn::ZERO)
    }
}

/// Who writes which dirty page back: `dirty` is each dirty page once, in
/// page order, with the nodes that updated it since its last flush
/// ([`crate::PageLsnTable::dirty`]); `live` the nodes that can do I/O, in
/// ascending id order. Returns one page list per node of `live`.
///
/// Each page goes to the node with the fewest pages so far among the live
/// nodes that did *not* update it (ties to the lowest id), so the write
/// back is spread over the machine and its coherent page read leaves a
/// second cached copy of every checkpointed line outside its writer — a
/// crash of the writer right after loses nothing a restart must redo.
/// A page every live node updated goes to the least-loaded node. With one
/// live node this is "that node flushes everything".
///
/// The same page I/O in the other direction is dealt out here too: an
/// eager restart's reads from the stable database (the crash-lost pages
/// and the pages its plan would fault in) pass each page with no updaters,
/// so nobody is excluded and each page goes to the least-loaded live node,
/// ties to the lowest id — round the live nodes in page order, the shares
/// differing by at most one. Both uses hand the shares to the engine's one
/// fan-out (`SmDb::fan_out` in `smdb-core`, DESIGN §9), which runs each on
/// its node's clock and joins them.
pub fn assign_flushers<U: IntoIterator<Item = NodeId>>(
    dirty: impl IntoIterator<Item = (PageId, U)>,
    live: &[NodeId],
) -> Vec<Vec<PageId>> {
    debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "live nodes in ascending id order");
    let mut shares = vec![Vec::new(); live.len()];
    if live.is_empty() {
        return shares;
    }
    let mut updated = vec![false; live.len()];
    for (page, updaters) in dirty {
        updated.fill(false);
        for node in updaters {
            if let Ok(i) = live.binary_search(&node) {
                updated[i] = true;
            }
        }
        // `min_by_key` keeps the first of equal minima: the lowest id.
        let flusher = (0..live.len())
            .filter(|&i| !updated[i])
            .min_by_key(|&i| shares[i].len())
            .or_else(|| (0..live.len()).min_by_key(|&i| shares[i].len()))
            .expect("live is not empty");
        shares[flusher].push(page);
    }
    shares
}

/// Who reads which log at restart: `covered[n]` is how many records of node
/// `n`'s log the analysis covers (a down node's stable prefix, a live
/// node's whole retained log; 0 where there is nothing to read), `live` the
/// nodes that can read, in ascending id order. Returns one list of logs per
/// node of `live`.
///
/// A live node reads its own log, where it is. A down node's log goes
/// *whole* — a log is one sequential device stream; two readers do not make
/// the disk stream faster — to the live node with the fewest records so far
/// (ties to the lowest id), the longest such log first (ties to the lowest
/// id). A log with nothing covered is nobody's. With one live node this is
/// "that node reads everything".
pub fn assign_scanners(covered: &[u64], live: &[NodeId]) -> Vec<Vec<NodeId>> {
    debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "live nodes in ascending id order");
    let of = |log: NodeId| covered[log.0 as usize];
    let mut shares: Vec<Vec<NodeId>> =
        live.iter().map(|&n| if of(n) > 0 { vec![n] } else { Vec::new() }).collect();
    let mut loads: Vec<u64> = live.iter().map(|&n| of(n)).collect();
    let mut orphans: Vec<NodeId> = (0..covered.len() as u16)
        .map(NodeId)
        .filter(|&log| of(log) > 0 && live.binary_search(&log).is_err())
        .collect();
    // A stable sort: equal lengths stay in id order.
    orphans.sort_by_key(|&log| std::cmp::Reverse(of(log)));
    for log in orphans {
        // `min_by_key` keeps the first of equal minima: the lowest id.
        let Some(reader) = (0..live.len()).min_by_key(|&i| loads[i]) else { break };
        shares[reader].push(log);
        loads[reader] += of(log);
    }
    shares
}

/// Durable storage for checkpoint metadata (conceptually a well-known
/// location on the shared disks; survives all node crashes).
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    last: CheckpointMeta,
    /// Number of checkpoints taken.
    pub checkpoints_taken: u64,
}

impl CheckpointStore {
    /// Create a store holding the genesis checkpoint for `nodes` nodes.
    pub fn new(nodes: u16) -> Self {
        CheckpointStore { last: CheckpointMeta::genesis(nodes), checkpoints_taken: 0 }
    }

    /// Durably install a new checkpoint.
    pub fn install(&mut self, meta: CheckpointMeta) {
        self.last = meta;
        self.checkpoints_taken += 1;
    }

    /// The most recent checkpoint.
    pub fn last(&self) -> &CheckpointMeta {
        &self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_all_zero() {
        let m = CheckpointMeta::genesis(3);
        assert_eq!(m.lsn_for(NodeId(0)), Lsn::ZERO);
        assert_eq!(m.lsn_for(NodeId(2)), Lsn::ZERO);
        assert_eq!(m.lsn_for(NodeId(9)), Lsn::ZERO, "out of range defaults to zero");
    }

    #[test]
    fn install_replaces_last() {
        let mut s = CheckpointStore::new(2);
        s.install(CheckpointMeta { node_lsns: vec![Lsn(4), Lsn(9)] });
        assert_eq!(s.last().lsn_for(NodeId(1)), Lsn(9));
        assert_eq!(s.checkpoints_taken, 1);
    }
}
