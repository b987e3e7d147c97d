//! TP1 / debit-credit style workload.
//!
//! The paper motivates SM database performance with the TP1 benchmark on a
//! Sequent Symmetry (§8, [27]). Our TP1 variant follows the classic
//! debit-credit shape: each transaction updates one account, one teller,
//! and one branch record, and inserts a history row (an index insert).
//! Branch records are few and touched by every node — a built-in source of
//! heavy inter-node ww sharing; accounts are plentiful and mostly local.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smdb_core::{DbError, SmDb};
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

/// Outcome of a TP1 run.
#[derive(Clone, Debug, Default)]
pub struct Tp1Report {
    /// Committed transactions.
    pub committed: u64,
    /// No-wait conflict aborts.
    pub conflict_aborts: u64,
    /// Abandoned transactions.
    pub gave_up: u64,
    /// Simulated cycles for the whole run.
    pub sim_cycles: u64,
    /// Committed transactions per million simulated cycles.
    pub tps_per_mcycle: f64,
    /// Log-force requests made during the run: physical forces plus
    /// requests absorbed by the coalescing window.
    pub forces_requested: u64,
    /// Physical log forces performed (each paid the full force latency).
    pub physical_forces: u64,
    /// Log records made durable by those physical forces.
    pub records_forced: u64,
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

/// Run the TP1 workload.
pub fn run_tp1(db: &mut SmDb, params: Tp1Params) -> Tp1Report {
    let layout = Tp1Layout::new(db, &params);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let nodes = db.config().nodes as u64;
    let mut report = Tp1Report::default();
    let clock0 = db.max_clock();
    let requested0 = db.logs().total_forces_requested();
    let physical0 = db.logs().total_forces();
    let records0 = db.logs().total_records_forced();
    // History keys live in their own key space, offset by the seed so
    // repeated runs against one engine don't collide.
    let mut next_history_key = (1u64 << 32) + params.seed.wrapping_mul(1 << 20);
    for i in 0..params.txns {
        // Round-robin over nodes, routing around any that are down.
        let mut node = NodeId((i as u64 % nodes) as u16);
        if db.machine().is_crashed(node) {
            let survivors = db.machine().surviving_nodes();
            node = survivors[i % survivors.len()];
        }
        // Home branch follows the node; sometimes the account is remote.
        let home_branch = node.0 as u64 % layout.branches;
        let branch = home_branch;
        let teller = rng.gen_range(0..params.tellers_per_branch);
        let account = if rng.gen_bool(params.remote_fraction) {
            rng.gen_range(0..layout.accounts)
        } else {
            // Account in the home branch's shard of the account space.
            let shard = layout.accounts / layout.branches;
            home_branch * shard + rng.gen_range(0..shard.max(1))
        };
        let delta: i64 = rng.gen_range(-999..=999);
        let history_key = next_history_key;
        let mut attempts = 0;
        loop {
            let result = (|| -> Result<(), DbError> {
                let txn = db.begin(node)?;
                let r = (|| {
                    // Read-modify-write of the account balance.
                    let a_slot = layout.account_slot(account);
                    let cur = db.read(txn, a_slot)?;
                    let bal = i64::from_le_bytes(cur[..8].try_into().expect("8 bytes"));
                    db.update(txn, a_slot, &(bal + delta).to_le_bytes())?;
                    // Teller and branch accumulate the delta too.
                    for slot in [layout.teller_slot(branch, teller), layout.branch_slot(branch)] {
                        let cur = db.read(txn, slot)?;
                        let bal = i64::from_le_bytes(cur[..8].try_into().expect("8 bytes"));
                        db.update(txn, slot, &(bal + delta).to_le_bytes())?;
                    }
                    if params.with_history && db.config().with_index {
                        match db.insert(txn, history_key, delta.to_le_bytes()) {
                            // A retry after a conflict later in the
                            // transaction may re-insert the same history
                            // key; the row is already there.
                            Err(DbError::Btree(smdb_btree::BtreeError::DuplicateKey {
                                ..
                            })) => {}
                            other => other?,
                        }
                    }
                    Ok(())
                })();
                match r {
                    Ok(()) => db.commit(txn),
                    Err(e) => {
                        let _ = db.abort(txn);
                        Err(e)
                    }
                }
            })();
            match result {
                Ok(()) => {
                    report.committed += 1;
                    next_history_key += 1;
                    break;
                }
                Err(DbError::WouldBlock { .. }) => {
                    report.conflict_aborts += 1;
                    attempts += 1;
                    if attempts > params.retries {
                        report.gave_up += 1;
                        break;
                    }
                }
                Err(e) => panic!("tp1 transaction failed: {e}"),
            }
        }
    }
    report.sim_cycles = db.max_clock() - clock0;
    report.tps_per_mcycle =
        report.committed as f64 / (report.sim_cycles as f64 / 1_000_000.0).max(f64::EPSILON);
    report.forces_requested = db.logs().total_forces_requested() - requested0;
    report.physical_forces = db.logs().total_forces() - physical0;
    report.records_forced = db.logs().total_records_forced() - records0;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_core::{DbConfig, ProtocolKind};

    #[test]
    fn tp1_commits_and_conserves_money() {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
        let report = run_tp1(&mut db, Tp1Params { txns: 60, ..Default::default() });
        assert!(report.committed >= 50, "committed {}", report.committed);
        db.check_ifa(NodeId(0)).assert_ok();
        // Debit-credit conservation: sum over branches == sum over tellers
        // == sum over accounts of applied deltas. Verify branch total
        // equals account total.
        let layout = Tp1Layout::new(&db, &Tp1Params::default());
        let sum = |range: std::ops::Range<u64>, db: &SmDb| -> i64 {
            range
                .map(|s| {
                    let v = db.current_value(s).unwrap();
                    i64::from_le_bytes(v[..8].try_into().unwrap())
                })
                .sum()
        };
        let branch_total = sum(0..layout.branches, &db);
        let teller_total = sum(layout.branches..layout.branches + layout.tellers, &db);
        let account_total = sum(layout.branches + layout.tellers..db.record_count() as u64, &db);
        assert_eq!(branch_total, teller_total);
        assert_eq!(branch_total, account_total);
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
