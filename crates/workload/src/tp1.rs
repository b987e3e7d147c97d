//! TP1 / debit-credit style workload.
//!
//! The paper motivates SM database performance with the TP1 benchmark on a
//! Sequent Symmetry (§8, [27]). Our TP1 variant follows the classic
//! debit-credit shape: each transaction updates one account, one teller,
//! and one branch record, and inserts a history row (an index insert).
//! Branch records are few and touched by every node — a built-in source of
//! heavy inter-node ww sharing; accounts are plentiful and mostly local.
//!
//! Each balance update is one [`Op::Add`] (the engine's read-modify-write),
//! so TP1 is a transaction source for the one serial driver
//! ([`driver::run`], window 1): conflicts abort and retry there.

use crate::driver::{self, Hooks, Window};
use crate::mix::{home, Meter, MixReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smdb_core::{DbError, Op, SmDb};
use smdb_sim::NodeId;

/// TP1 sizing and behaviour.
#[derive(Clone, Debug)]
pub struct Tp1Params {
    /// Transactions to commit.
    pub txns: usize,
    /// Number of branch records (shared by everyone; the classic scaling
    /// unit).
    pub branches: u64,
    /// Tellers per branch.
    pub tellers_per_branch: u64,
    /// Probability an account access goes to a *remote* branch's account
    /// range (cross-node traffic beyond the branch records).
    pub remote_fraction: f64,
    /// Record a history row via an index insert.
    pub with_history: bool,
    /// RNG seed.
    pub seed: u64,
    /// No-wait retry budget per transaction.
    pub retries: usize,
}

impl Default for Tp1Params {
    fn default() -> Self {
        Tp1Params {
            txns: 100,
            branches: 4,
            tellers_per_branch: 4,
            remote_fraction: 0.15,
            with_history: true,
            seed: 7,
            retries: 16,
        }
    }
}

/// Slot layout: branches, then tellers, then accounts fill the rest.
struct Tp1Layout {
    branches: u64,
    tellers: u64,
    accounts: u64,
}

impl Tp1Layout {
    fn new(db: &SmDb, p: &Tp1Params) -> Self {
        let total = db.record_count() as u64;
        let branches = p.branches;
        let tellers = p.branches * p.tellers_per_branch;
        assert!(
            branches + tellers < total,
            "record heap too small for the TP1 layout ({total} slots)"
        );
        Tp1Layout { branches, tellers, accounts: total - branches - tellers }
    }

    fn branch_slot(&self, b: u64) -> u64 {
        b % self.branches
    }

    fn teller_slot(&self, b: u64, t: u64) -> u64 {
        self.branches
            + (b % self.branches) * (self.tellers / self.branches)
            + t % (self.tellers / self.branches)
    }

    fn account_slot(&self, a: u64) -> u64 {
        self.branches + self.tellers + a % self.accounts
    }
}

/// TP1 as a transaction source for [`driver::run`].
struct Tp1Hooks {
    params: Tp1Params,
    layout: Tp1Layout,
    rng: StdRng,
    /// Whether transactions insert a history row (asked for, and the engine
    /// has an index).
    history: bool,
    issued: usize,
    /// History keys live in their own key space, offset by the seed so
    /// repeated runs against one engine don't collide. Advanced only by a
    /// commit, so a given-up transaction uses no key.
    next_history_key: u64,
}

impl Hooks for Tp1Hooks {
    type Fatal = DbError;

    fn next_txn(&mut self, db: &SmDb) -> Option<(usize, NodeId, Vec<Op>)> {
        let (i, p, l) = (self.issued, &self.params, &self.layout);
        if i == p.txns {
            return None;
        }
        self.issued += 1;
        // Home branch follows the node; sometimes the account is remote.
        let node = home(db, i);
        let branch = node.0 as u64 % l.branches;
        let teller = self.rng.gen_range(0..p.tellers_per_branch);
        let account = if self.rng.gen_bool(p.remote_fraction) {
            self.rng.gen_range(0..l.accounts)
        } else {
            // Account in the home branch's shard of the account space.
            let shard = l.accounts / l.branches;
            branch * shard + self.rng.gen_range(0..shard.max(1))
        };
        let delta: i64 = self.rng.gen_range(-999..=999);
        let mut ops = vec![
            Op::Add(l.account_slot(account), delta),
            Op::Add(l.teller_slot(branch, teller), delta),
            Op::Add(l.branch_slot(branch), delta),
        ];
        if self.history {
            ops.push(Op::Insert(self.next_history_key, delta.to_le_bytes()));
        }
        Some((i, node, ops))
    }

    fn committed(&mut self, _: &[Op]) {
        self.next_history_key += 1;
    }
}

/// Run the TP1 workload: `txns` transactions, homed round-robin over the
/// live nodes, one at a time. Panics on an engine error other than a lock
/// conflict.
pub fn run_tp1(db: &mut SmDb, params: Tp1Params) -> MixReport {
    let shape = Window { window: 1, drain_every: 0, retries: params.retries };
    let mut hooks = Tp1Hooks {
        layout: Tp1Layout::new(db, &params),
        rng: StdRng::seed_from_u64(params.seed),
        history: params.with_history && db.config().has_index(),
        issued: 0,
        next_history_key: (1u64 << 32) + params.seed.wrapping_mul(1 << 20),
        params,
    };
    let meter = Meter::start(db);
    let mut report = MixReport::default();
    driver::run(db, shape, &mut hooks, &mut report)
        .unwrap_or_else(|e| panic!("tp1 transaction failed: {e}"));
    meter.stamp(db, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_core::{DbConfig, ProtocolKind};

    /// Branch, teller and account balance totals.
    fn totals(db: &SmDb) -> [i64; 3] {
        let layout = Tp1Layout::new(db, &Tp1Params::default());
        let sum = |range: std::ops::Range<u64>| -> i64 {
            range
                .map(|s| {
                    let v = db.current_value(s).unwrap();
                    i64::from_le_bytes(v[..8].try_into().unwrap())
                })
                .sum()
        };
        let tellers = layout.branches + layout.tellers;
        [
            sum(0..layout.branches),
            sum(layout.branches..tellers),
            sum(tellers..db.record_count() as u64),
        ]
    }

    #[test]
    fn tp1_commits_and_conserves_money() {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
        let report = run_tp1(&mut db, Tp1Params { txns: 60, ..Default::default() });
        assert!(report.committed >= 50, "committed {}", report.committed);
        db.check_ifa(NodeId(0)).assert_ok();
        // Debit-credit conservation: sum over branches == sum over tellers
        // == sum over accounts of applied deltas.
        let [branch, teller, account] = totals(&db);
        assert_eq!(branch, teller);
        assert_eq!(branch, account);
    }

    #[test]
    fn tp1_survives_mid_run_crash() {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
        run_tp1(&mut db, Tp1Params { txns: 30, ..Default::default() });
        db.crash_and_recover(&[NodeId(2)]).unwrap();
        db.check_ifa(NodeId(0)).assert_ok();
        let report = run_tp1(&mut db, Tp1Params { txns: 30, seed: 99, ..Default::default() });
        assert!(report.committed > 0);
        db.check_ifa(NodeId(0)).assert_ok();
    }

    #[test]
    fn tp1_branch_records_are_hot() {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
        let before = db.machine().stats().clone();
        run_tp1(&mut db, Tp1Params { txns: 40, ..Default::default() });
        let delta = db.machine().stats().delta_since(&before);
        assert!(
            delta.migrations + delta.invalidations > 0,
            "branch sharing must generate coherence traffic"
        );
    }
}
