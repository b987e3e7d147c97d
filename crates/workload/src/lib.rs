//! # smdb-workload — workload generators and crash schedules
//!
//! Deterministic (seeded) transaction workloads for the experiments in
//! `DESIGN.md`:
//!
//! * [`MixParams`]/[`run_mix`] — a record-update mix with controllable
//!   read fraction, inter-node **sharing rate** (the probability that an
//!   operation targets the shared region rather than the node's private
//!   partition — the knob that produces the paper's §3.2 ww/wr patterns),
//!   and optional index operations;
//! * [`Tp1Params`]/[`run_tp1`] — a TP1/debit-credit-style workload
//!   (account + teller + branch updates, history insert) in the spirit of
//!   the Sequent benchmark the paper cites (reference \[27\]);
//! * [`spawn_active`] — populate every node with in-flight transactions,
//!   the setup for the crash/abort-count experiments (E2);
//! * [`CrashPlan`] — mid-workload crash scheduling.
//!
//! All conflicts are handled with the engine's no-wait policy: a blocked
//! transaction aborts and retries with fresh timing.

pub mod driver;
mod mix;
mod mt;
mod tp1;
mod zipf;

pub use mix::{
    run_mix, run_mix_with_crash, spawn_active, spawn_active_parallel, CrashPlan, MixParams,
    MixReport,
};
pub use mt::{run_mix_mt, threads_from_env};
pub use tp1::{run_tp1, Tp1Params, Tp1Report};
pub use zipf::Zipf;
