//! # smdb-bench — experiment harness
//!
//! One function per experiment in `DESIGN.md` §3, each returning
//! structured data in simulated cycles; [`report::render`] turns them into
//! the paper-mapped tables the `report` binary prints. Host time is not
//! measured here: that is `perf/`'s job. See `EXPERIMENTS.md` for
//! paper-vs-measured records.

pub mod experiments;
pub mod harness;
pub mod report;
pub mod table;

pub use experiments::*;
pub use harness::{json_escape, peak_rss_kb};
