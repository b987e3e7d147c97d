//! Multicore driver for the record-update mix: the same deterministic
//! generator as [`run_mix`](crate::run_mix), executed through the
//! engine's epoch scheduler ([`smdb_core::mt`]) on real OS threads.
//!
//! The whole workload is generated up front (the generator never observes
//! execution, so generation order equals the serial driver's program
//! order), handed to [`SmDb::run_epochs`], and summarised in the same
//! [`MixReport`] shape the serial driver produces — byte-identical at
//! every thread count, which is what the determinism regression tests
//! assert.

use crate::mix::{Generator, Meter, MixParams, MixReport};
use smdb_core::mt::{MtOutcome, MtTxn};
use smdb_core::{DbError, SmDb};
use smdb_sim::NodeId;

/// Generate the mix and run it through the epoch scheduler on up to
/// `threads` OS threads. Returns the usual report plus the scheduler's
/// outcome. Requires the serial feature set: no index operations
/// (`index_fraction == 0`), no checkpoints, no pipelined commits.
pub fn run_mix_mt(
    db: &mut SmDb,
    params: MixParams,
    threads: usize,
) -> Result<(MixReport, MtOutcome), DbError> {
    assert_eq!(params.index_fraction, 0.0, "mt mix excludes index operations");
    assert_eq!(params.checkpoint_every, 0, "mt mix excludes checkpoints");
    assert_eq!(params.commit_window, 0, "mt mix excludes pipelined commits");
    let mut g = Generator::new(db, params);
    let nodes = g.nodes;
    let mut txns = Vec::with_capacity(g.params.txns);
    for i in 0..g.params.txns {
        let node = NodeId((i % nodes as usize) as u16);
        txns.push(MtTxn { node, ops: g.gen_txn_ops(node) });
    }
    let total_ops: u64 = txns.iter().map(|t| t.ops.len() as u64).sum();

    let meter = Meter::start(db);
    let out = db.run_epochs(txns, threads)?;
    let mut report = MixReport {
        committed: out.committed,
        conflict_aborts: out.lock_conflicts,
        ops: total_ops,
        lock_stalls: out.epoch_waits,
        ..Default::default()
    };
    meter.stamp(db, &mut report);
    Ok((report, out))
}
