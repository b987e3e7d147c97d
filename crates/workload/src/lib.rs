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
//! * [`CrashPlan`] — mid-workload crash scheduling;
//! * [`driver`] — the one interactive transaction loop. [`run_mix`] and
//!   [`run_mix_with_crash`] are a transaction source plugged into it, and
//!   so is the schedule fuzzer (`smdb-vopr`): a serial window aborts and
//!   retries a blocked transaction (the engine's no-wait policy), a
//!   pipelined window (`MixParams::commit_window > 1`) stalls it in place.
//!   [`run_tp1`] is a source too: its read-modify-writes are `Op::Add`s.
//!   Only [`run_mix_mt`] runs elsewhere: it hands the mix to the engine's
//!   epoch scheduler.

pub mod driver;
mod mix;
mod mt;
mod tp1;
mod zipf;

pub use mix::{
    run_mix, run_mix_with_crash, spawn_active, spawn_active_parallel, CrashPlan, MixParams,
    MixReport,
};
pub use mt::run_mix_mt;
pub use tp1::{run_tp1, Tp1Params};
pub use zipf::Zipf;
