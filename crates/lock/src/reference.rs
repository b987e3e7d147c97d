//! A pure-logic reference lock manager for differential testing.
//!
//! [`ReferenceLockManager`] mirrors every *decision* the real
//! [`LockManager`](crate::LockManager) makes — grant / already-held /
//! upgrade / queue / promote, capacity errors included — over plain
//! `BTreeMap` state, with none of the shared-memory machinery (no cache
//! lines, no placement hints, no line locks, no overflow chains). Placement
//! never affects a decision: grants depend only on the per-name holder and
//! waiter lists plus the geometry's capacity limits, which is exactly the
//! state this model keeps.
//!
//! It also records the logical lock-log stream (acquires — queued ones
//! included — and the releases that are logged: single-name releases and
//! withdrawn waits, not a transaction's final release) per node, in the
//! same order the real manager
//! appends them, so a differential test can assert that the flat-slot
//! implementation would drive recovery identically.
//!
//! This model is *test infrastructure*: nothing in the forward or recovery
//! path depends on it.

use crate::lcb::{Lcb, LockEntry};
use crate::manager::{LockError, LockOutcome};
use crate::mode::LockMode;
use smdb_sim::{NodeId, TxnId};
use std::collections::BTreeMap;

/// One logical lock-log record, as the reference model sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefLockRecord {
    /// A grant or a queued request.
    Acquire {
        /// Requesting transaction.
        txn: TxnId,
        /// Lock name.
        name: u64,
        /// Requested mode.
        mode: LockMode,
        /// Whether the request was queued rather than granted.
        queued: bool,
    },
    /// A release (or a withdrawn queued request).
    Release {
        /// Releasing transaction.
        txn: TxnId,
        /// Lock name.
        name: u64,
        /// `true` when only a queued request was withdrawn.
        wait_only: bool,
    },
}

/// The reference model. Same decision procedure as the real manager,
/// minimal state.
#[derive(Clone, Debug, Default)]
pub struct ReferenceLockManager {
    max_holders: usize,
    max_waiters: usize,
    lcbs: BTreeMap<u64, Lcb>,
    chains: BTreeMap<TxnId, Vec<u64>>,
    logs: BTreeMap<u16, Vec<RefLockRecord>>,
}

impl ReferenceLockManager {
    /// Build a model with the geometry's capacity limits.
    pub fn new(max_holders: usize, max_waiters: usize) -> Self {
        ReferenceLockManager { max_holders, max_waiters, ..Default::default() }
    }

    /// The recorded lock-log stream of `node`.
    pub fn log_of(&self, node: NodeId) -> &[RefLockRecord] {
        self.logs.get(&node.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Current holders of `name`.
    pub fn holders_of(&self, name: u64) -> Vec<LockEntry> {
        self.lcbs.get(&name).map(|l| l.holders.to_vec()).unwrap_or_default()
    }

    /// Current waiters on `name`.
    pub fn waiters_of(&self, name: u64) -> Vec<LockEntry> {
        self.lcbs.get(&name).map(|l| l.waiters.to_vec()).unwrap_or_default()
    }

    /// Names held by `txn`, in acquisition order.
    pub fn held_locks(&self, txn: TxnId) -> Vec<u64> {
        self.chains.get(&txn).cloned().unwrap_or_default()
    }

    fn log(&mut self, node: NodeId, rec: RefLockRecord) {
        self.logs.entry(node.0).or_default().push(rec);
    }

    fn chain_grant(&mut self, txn: TxnId, name: u64) {
        let chain = self.chains.entry(txn).or_default();
        if !chain.contains(&name) {
            chain.push(name);
        }
    }

    fn chain_drop(&mut self, txn: TxnId, name: u64) {
        if let Some(chain) = self.chains.get_mut(&txn) {
            chain.retain(|&n| n != name);
            if chain.is_empty() {
                self.chains.remove(&txn);
            }
        }
    }

    /// Mirror of [`LockManager::acquire_from`](crate::LockManager::acquire_from).
    pub fn acquire_from(
        &mut self,
        txn: TxnId,
        name: u64,
        mode: LockMode,
        acting: NodeId,
    ) -> Result<LockOutcome, LockError> {
        assert!(name != 0, "lock name 0 is reserved");
        let max_holders = self.max_holders;
        let max_waiters = self.max_waiters;
        let lcb = self.lcbs.entry(name).or_insert_with(|| Lcb::new(name));
        if lcb.holds(txn) {
            let held = lcb.holders.iter().find(|e| e.txn == txn).expect("holds() checked").mode;
            if held >= mode {
                return Ok(LockOutcome::AlreadyHeld);
            }
            if lcb.holders.len() == 1 && lcb.waiters.is_empty() {
                lcb.holders[0].mode = mode;
                self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: false });
                return Ok(LockOutcome::Granted);
            }
            if lcb.waiters.len() >= max_waiters {
                return Err(LockError::CapacityExceeded { name });
            }
            lcb.waiters.push(LockEntry { txn, mode });
            self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: true });
            return Ok(LockOutcome::Waiting);
        }
        if lcb.can_grant(txn, mode) {
            // Mirror of the manager's backpressure rule: a compatible
            // request against a full holder array parks a waiter instead
            // of failing.
            if lcb.holders.len() >= max_holders {
                if lcb.waiters.len() >= max_waiters {
                    return Err(LockError::CapacityExceeded { name });
                }
                lcb.waiters.push(LockEntry { txn, mode });
                self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: true });
                return Ok(LockOutcome::Waiting);
            }
            lcb.holders.push(LockEntry { txn, mode });
            self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: false });
            self.chain_grant(txn, name);
            Ok(LockOutcome::Granted)
        } else {
            if lcb.waiters.len() >= max_waiters {
                return Err(LockError::CapacityExceeded { name });
            }
            lcb.waiters.push(LockEntry { txn, mode });
            self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: true });
            Ok(LockOutcome::Waiting)
        }
    }

    /// Mirror of [`LockManager::poll_from`](crate::LockManager::poll_from):
    /// the same decision procedure as [`acquire_from`](Self::acquire_from),
    /// but a conflict reports [`LockOutcome::Waiting`] without queueing a
    /// waiter, logging a record, or checking waiter capacity — polling
    /// leaves no trace to cancel.
    pub fn poll_from(
        &mut self,
        txn: TxnId,
        name: u64,
        mode: LockMode,
        acting: NodeId,
    ) -> Result<LockOutcome, LockError> {
        assert!(name != 0, "lock name 0 is reserved");
        let max_holders = self.max_holders;
        let lcb = self.lcbs.entry(name).or_insert_with(|| Lcb::new(name));
        if lcb.holds(txn) {
            let held = lcb.holders.iter().find(|e| e.txn == txn).expect("holds() checked").mode;
            if held >= mode {
                return Ok(LockOutcome::AlreadyHeld);
            }
            if lcb.holders.len() == 1 && lcb.waiters.is_empty() {
                lcb.holders[0].mode = mode;
                self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: false });
                return Ok(LockOutcome::Granted);
            }
            return Ok(LockOutcome::Waiting);
        }
        if lcb.can_grant(txn, mode) {
            // Full holder array: backpressure — polling retries in place.
            if lcb.holders.len() >= max_holders {
                return Ok(LockOutcome::Waiting);
            }
            lcb.holders.push(LockEntry { txn, mode });
            self.log(acting, RefLockRecord::Acquire { txn, name, mode, queued: false });
            self.chain_grant(txn, name);
            Ok(LockOutcome::Granted)
        } else {
            Ok(LockOutcome::Waiting)
        }
    }

    /// Mirror of [`LockManager::early_release_all`](crate::LockManager::early_release_all):
    /// identical LCB transitions and log records to
    /// [`release_all`](Self::release_all) (no release logged), additionally
    /// reporting the released `(name, mode)` pairs in acquisition order
    /// (the exclusive ones become violation edges).
    #[allow(clippy::type_complexity)]
    pub fn early_release_all(
        &mut self,
        txn: TxnId,
    ) -> Result<(Vec<(u64, LockMode)>, Vec<(u64, LockEntry)>), LockError> {
        let names = self.held_locks(txn);
        let mut released = Vec::with_capacity(names.len());
        let mut promoted = Vec::new();
        for name in names {
            let mode = self
                .lcbs
                .get(&name)
                .and_then(|l| l.holders.iter().find(|e| e.txn == txn))
                .expect("held_locks listed it")
                .mode;
            released.push((name, mode));
            promoted.extend(self.release_one(txn, name, false)?.into_iter().map(|e| (name, e)));
        }
        Ok((released, promoted))
    }

    /// Mirror of [`LockManager::release`](crate::LockManager::release).
    pub fn release(&mut self, txn: TxnId, name: u64) -> Result<Vec<LockEntry>, LockError> {
        self.release_one(txn, name, true)
    }

    /// [`release`](Self::release), logging the release only when `logged`
    /// (a transaction's final release is not logged).
    fn release_one(
        &mut self,
        txn: TxnId,
        name: u64,
        logged: bool,
    ) -> Result<Vec<LockEntry>, LockError> {
        let holds = self.lcbs.get(&name).map(|l| l.holds(txn)).unwrap_or(false);
        if !holds {
            return Err(LockError::NotHolder { txn, name });
        }
        if logged {
            self.log(txn.node(), RefLockRecord::Release { txn, name, wait_only: false });
        }
        let max_holders = self.max_holders;
        let lcb = self.lcbs.get_mut(&name).expect("holds checked");
        lcb.remove(txn);
        let promoted = lcb.promote_waiters(max_holders);
        let empty = lcb.is_empty();
        for p in promoted.iter() {
            self.log(
                p.txn.node(),
                RefLockRecord::Acquire { txn: p.txn, name, mode: p.mode, queued: false },
            );
            self.chain_grant(p.txn, name);
        }
        if empty {
            self.lcbs.remove(&name);
        }
        self.chain_drop(txn, name);
        Ok(promoted)
    }

    /// Mirror of [`LockManager::cancel_wait`](crate::LockManager::cancel_wait).
    pub fn cancel_wait(&mut self, txn: TxnId, name: u64) -> Result<bool, LockError> {
        let waiting =
            self.lcbs.get(&name).map(|l| l.waiters.iter().any(|w| w.txn == txn)).unwrap_or(false);
        if !waiting {
            return Ok(false);
        }
        self.log(txn.node(), RefLockRecord::Release { txn, name, wait_only: true });
        let max_holders = self.max_holders;
        let lcb = self.lcbs.get_mut(&name).expect("waiting checked");
        lcb.waiters.retain(|w| w.txn != txn);
        let promoted = lcb.promote_waiters(max_holders);
        let empty = lcb.is_empty();
        for p in promoted.iter() {
            self.log(
                p.txn.node(),
                RefLockRecord::Acquire { txn: p.txn, name, mode: p.mode, queued: false },
            );
            self.chain_grant(p.txn, name);
        }
        if empty {
            self.lcbs.remove(&name);
        }
        Ok(true)
    }

    /// Mirror of [`LockManager::release_all`](crate::LockManager::release_all):
    /// the releases are not logged, the promotions are.
    pub fn release_all(&mut self, txn: TxnId) -> Result<Vec<(u64, LockEntry)>, LockError> {
        let names = self.held_locks(txn);
        let mut promoted = Vec::new();
        for name in names {
            promoted.extend(self.release_one(txn, name, false)?.into_iter().map(|e| (name, e)));
        }
        Ok(promoted)
    }

    /// Crash `node`: every entry of its transactions disappears from the
    /// lock space and unblocked waiters are promoted — the state the real
    /// manager must arrive at after `recover`. The crashed node's log
    /// stream is discarded (its volatile tail is gone; stable prefixes
    /// aren't modelled here).
    pub fn crash_node(&mut self, node: NodeId) -> Vec<(u64, LockEntry)> {
        self.logs.remove(&node.0);
        self.chains.retain(|txn, _| txn.node() != node);
        let mut promoted_all = Vec::new();
        let max_holders = self.max_holders;
        let names: Vec<u64> = self.lcbs.keys().copied().collect();
        for name in names {
            let lcb = self.lcbs.get_mut(&name).expect("keys just listed");
            lcb.holders.retain(|e| e.txn.node() != node);
            lcb.waiters.retain(|e| e.txn.node() != node);
            let promoted = lcb.promote_waiters(max_holders);
            let empty = lcb.is_empty();
            for p in promoted.iter() {
                self.chain_grant(p.txn, name);
                promoted_all.push((name, *p));
            }
            if empty {
                self.lcbs.remove(&name);
            }
        }
        promoted_all
    }
}
