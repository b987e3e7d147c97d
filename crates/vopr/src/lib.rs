//! VOPR-style deterministic schedule fuzzer for the shared-memory
//! database stack, with auto-shrinking one-line repros.
//!
//! One `u64` seed deterministically derives everything a schedule runs:
//!
//! - the **scenario** ([`VoprConfig::draw`]): protocol, node count,
//!   workload mix, pipelining/ELR/checkpoint knobs;
//! - the **fault plan** ([`draw_plan`]): zero, one, or two crash points
//!   from the stack's instrumented-site catalog ([`FAULT_SITES`]),
//!   including nested crash-during-recovery pairs;
//! - the **interleaving**: every ordering decision — which node hosts a
//!   transaction, which in-flight transaction steps next, drain timing,
//!   per-node force order, ack order, recovery host — is drawn from a
//!   recorded schedule tape (see `smdb_fault::Scheduler`).
//!
//! The standing oracles are the engine's battery (DESIGN §8):
//! `SmDb::check_before_recover` after every crash,
//! `SmDb::check_after_recover` after every recovery and every round, and
//! `SmDb::check_predicate_alone` after a recovery a nested crash
//! interrupts. A panic anywhere in the run fails it too, as the `panic`
//! oracle. A
//! failing schedule is [auto-shrunk](shrink) along three axes and
//! reported as a single [`Repro`] line that [`replay_line`] re-executes
//! byte-identically.
//!
//! Two runs of the same seed produce identical event logs, tapes, and
//! verdicts: the stack has no wall-clock, no thread scheduling, and no
//! other entropy source.

mod config;
mod driver;
mod repro;
mod shrink;

pub use config::VoprConfig;
pub use driver::{run_schedule, run_schedule_with, ExtraOracle, RunOutcome, SchedInput};
pub use repro::{
    decode_plan, decode_tape, encode_plan, encode_tape, site_by_name, Repro, DRAWN_SITES,
    FAULT_SITES,
};
pub use shrink::{shrink, ShrinkStats};

use config::splitmix64;
use smdb_fault::{CrashPoint, FaultPlan};
use std::collections::BTreeSet;

/// Draw a fault plan from the schedule seed: ~25% no faults, ~50% a
/// single crash point, ~25% a nested (crash-during-recovery) pair. Sites
/// come from the front of the [`FAULT_SITES`] catalog ([`DRAWN_SITES`]);
/// ordinals are bounded so most armed points actually fire inside the
/// bounded workloads the fuzzer drives (an unreached point simply never
/// fires — still a valid run).
pub fn draw_plan(seed: u64) -> FaultPlan {
    let mut rng = seed ^ 0xFA17_7F1A_4B0B_CA7A;
    let n = match splitmix64(&mut rng) % 4 {
        0 => 0,
        1 | 2 => 1,
        _ => 2,
    };
    let mut points = Vec::with_capacity(n);
    for k in 0..n {
        let site = FAULT_SITES[(splitmix64(&mut rng) % DRAWN_SITES as u64) as usize];
        // Nested (secondary) points get a tighter ordinal bound: recovery
        // visits far fewer points than the forward workload.
        let bound = if k == 0 { 24 } else { 6 };
        points.push(CrashPoint::new(site, splitmix64(&mut rng) % bound));
    }
    FaultPlan { points }
}

/// One failing schedule the fuzzer found, with its shrunk repro.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Schedule index within the fuzz run.
    pub schedule: u64,
    /// The schedule seed (derives scenario, plan, and interleaving).
    pub seed: u64,
    /// Name of the failed oracle.
    pub oracle: String,
    /// The oracle's failure detail.
    pub detail: String,
    /// The shrunk one-line repro ([`Repro::to_line`]).
    pub line: String,
    /// Shrink statistics.
    pub shrink: ShrinkStats,
}

/// Aggregate outcome of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzOutcome {
    /// Schedules executed.
    pub schedules: u64,
    /// Total commits across all schedules.
    pub committed: u64,
    /// Total crash points fired across all schedules.
    pub fired: u64,
    /// Total lock stalls observed.
    pub stalls: u64,
    /// Every failing schedule, shrunk.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzOutcome {
    /// Whether every schedule passed its oracles.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `budget` schedules from `master_seed`. Each schedule gets its own
/// derived seed; a failing schedule is shrunk under `shrink_budget`
/// candidate replays and reported as a one-line repro. Fully
/// deterministic: the same `(master_seed, budget)` yields the same
/// verdicts and repro lines.
pub fn fuzz(master_seed: u64, budget: u64, shrink_budget: u64) -> FuzzOutcome {
    fuzz_with(master_seed, budget, shrink_budget, None, &mut |_| {})
}

/// [`fuzz`] with an extra per-round oracle (test hook) and a per-failure
/// callback (progress reporting for the CLI).
pub fn fuzz_with(
    master_seed: u64,
    budget: u64,
    shrink_budget: u64,
    extra: Option<ExtraOracle<'_>>,
    on_failure: &mut dyn FnMut(&FuzzFailure),
) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    let no_skip = BTreeSet::new();
    for i in 0..budget {
        let mut s = master_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut s);
        let cfg = VoprConfig::draw(seed);
        let plan = draw_plan(seed);
        let run = run_schedule_with(&cfg, seed, &no_skip, &plan, SchedInput::Record(seed), extra);
        out.schedules += 1;
        out.committed += run.committed;
        out.stalls += run.stalls;
        out.fired += run.fired.len() as u64;
        if let Some((oracle, detail)) = run.failure.clone() {
            let (repro, stats) = shrink(&cfg, seed, &plan, &run, shrink_budget, extra);
            let failure = FuzzFailure {
                schedule: i,
                seed,
                oracle,
                detail,
                line: repro.to_line(),
                shrink: stats,
            };
            on_failure(&failure);
            out.failures.push(failure);
        }
    }
    out
}

/// Outcome of replaying a repro line.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The parsed repro.
    pub repro: Repro,
    /// The replayed run.
    pub outcome: RunOutcome,
    /// Whether the replay failed the same oracle the line names (or, for
    /// a line with no oracle, failed at all).
    pub reproduced: bool,
}

/// Parse a repro line — either the fuzzer's own `VOPR seed=… cfg=…` form
/// or a crash-sweep `FAIL scenario=… seed=… plan=… cfg=…` line — and
/// replay it. A `VOPR` line replays byte-identically (same scenario, op
/// streams, tape, and plan). A sweep `FAIL` line replays the same
/// scenario shape and fault plan under the fuzzer's driver with the
/// canonical (all-zero) schedule.
pub fn replay_line(line: &str) -> Result<ReplayReport, String> {
    replay_line_with(line, None)
}

/// [`replay_line`] with an extra per-round oracle (test hook).
pub fn replay_line_with(
    line: &str,
    extra: Option<ExtraOracle<'_>>,
) -> Result<ReplayReport, String> {
    let repro = parse_any_line(line)?;
    let cfg = repro.config()?;
    let skip: BTreeSet<usize> = repro.skip.iter().copied().collect();
    let outcome = run_schedule_with(
        &cfg,
        repro.seed,
        &skip,
        &repro.fault_plan(),
        SchedInput::Replay(repro.tape.clone()),
        extra,
    );
    let reproduced = if repro.oracle.is_empty() || repro.oracle == "?" {
        outcome.failure.is_some()
    } else {
        outcome.failed_oracle() == Some(repro.oracle.as_str())
    };
    Ok(ReplayReport { repro, outcome, reproduced })
}

/// Parse either repro-line form into a [`Repro`].
fn parse_any_line(line: &str) -> Result<Repro, String> {
    if line.contains("VOPR ") {
        return Repro::parse_line(line);
    }
    if line.contains("FAIL ") && line.contains("scenario=") {
        return parse_sweep_line(line);
    }
    Err("line is neither a VOPR repro nor a sweep FAIL line".into())
}

/// Parse a crash-sweep failure line:
/// `FAIL scenario=L seed=N plan=site#hit+… cfg=p:…,n:… :: detail`.
fn parse_sweep_line(line: &str) -> Result<Repro, String> {
    let start = line.find("FAIL ").ok_or_else(|| "no FAIL marker in line".to_string())?;
    let mut seed = None;
    let mut cfg = None;
    let mut plan = Vec::new();
    for tok in line[start + 5..].split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else { break };
        match k {
            "scenario" => {}
            "seed" => {
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed {tok:?}"))?);
            }
            "plan" => plan = decode_plan(v)?,
            "cfg" => {
                if v == "-" {
                    return Err("sweep line carries no cfg= context".into());
                }
                cfg = Some(v.to_string());
            }
            _ => break,
        }
    }
    let seed = seed.ok_or("sweep line missing seed=")?;
    let cfg = cfg.ok_or("sweep line missing cfg=")?;
    VoprConfig::decode(&cfg)?;
    Ok(Repro { seed, cfg, skip: Vec::new(), tape: Vec::new(), plan, oracle: String::new() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_plan_is_deterministic_and_mixed() {
        for s in 0..50 {
            assert_eq!(draw_plan(s).points, draw_plan(s).points, "seed {s}");
        }
        let sizes: Vec<usize> = (0..100).map(|s| draw_plan(s).points.len()).collect();
        for want in [0usize, 1, 2] {
            assert!(sizes.contains(&want), "no plan of {want} points drawn");
        }
    }

    #[test]
    fn sweep_fail_line_parses_into_repro() {
        let line = format!(
            "FAIL scenario=stable_eager seed=1594083022 plan={}#3 \
             cfg=p:SE,n:4,t:16,o:4,rf:20,sh:60,ix:25,ck:5,w:1,d:0,elr:0 :: IFA: boom",
            smdb_sim::FAULT_MIGRATE
        );
        let r = parse_any_line(&line).expect("parses");
        assert_eq!(r.seed, 1594083022);
        assert_eq!(r.plan, vec![(smdb_sim::FAULT_MIGRATE, 3)]);
        assert!(r.tape.is_empty() && r.skip.is_empty());
        let cfg = r.config().expect("cfg decodes");
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.txns, 16);
    }

    #[test]
    fn sweep_fail_line_without_context_is_rejected() {
        assert!(parse_any_line("FAIL scenario=x seed=1 plan=- cfg=- :: boom").is_err());
        assert!(parse_any_line("unrelated text").is_err());
    }
}
