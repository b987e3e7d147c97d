//! Integration tests for the schedule fuzzer itself (DESIGN.md §13):
//! replay determinism, shrinker soundness, and one named regression per
//! engine bug the fuzzer found — each asserts that the shrunk repro line
//! the fuzzer emitted at discovery time now passes all oracles.
//!
//! Tape compatibility. The fuzzer's rounds are the workload crate's
//! transaction driver (DESIGN.md §12), whose step rule draws among the
//! in-flight entries *not yet stepped this round, in current window
//! order*. A `w:1` line replays byte-identically to the day it was found
//! (`window_one_schedules_match_golden` pins that). A `w>1` line recorded
//! before the shared driver replays a different, still deterministic,
//! schedule wherever a commit lands mid-round — the old loop drew from a
//! snapshot of the round's starting order — so such a line still parses
//! and still has to pass every oracle, but it no longer retraces the
//! interleaving that exposed its bug; the engine-level regression tests
//! (`crates/core/tests`) carry that burden.

use smdb_core::SmDb;
use smdb_obs::names;
use smdb_vopr::{
    draw_plan, encode_tape, replay_line, replay_line_with, run_schedule, SchedInput, VoprConfig,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Two recordings of the same seed must be byte-identical, and replaying
/// the recorded tape must reproduce the run exactly. This is the fuzzer's
/// foundational property: without it, repro lines are worthless.
#[test]
fn replay_is_deterministic() {
    for seed in [0xC0DEu64, 0x17293b09efde3a51, 0xd04f5fd560e27ddd] {
        let cfg = VoprConfig::draw(seed);
        let plan = draw_plan(seed);
        let skip = BTreeSet::new();
        let a = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Record(seed));
        let b = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Record(seed));
        assert_eq!(a.events, b.events, "seed {seed:#x}: recorded events diverged");
        assert_eq!(a.tape, b.tape, "seed {seed:#x}: recorded tapes diverged");
        assert_eq!(a.failure, b.failure, "seed {seed:#x}: verdicts diverged");
        let c = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Replay(a.tape.clone()));
        assert_eq!(a.events, c.events, "seed {seed:#x}: tape replay diverged from recording");
        assert_eq!(a.failure, c.failure, "seed {seed:#x}: tape replay verdict diverged");
        assert_eq!(a.committed, c.committed, "seed {seed:#x}: tape replay commits diverged");
    }
}

/// Shrinker soundness, tested with a canary oracle that the engine cannot
/// fix: every schedule fails, and whatever the shrinker keeps must still
/// reproduce the *same* oracle under byte-identical replay of the line.
#[test]
fn shrinker_output_still_reproduces() {
    let canary: &dyn Fn(&mut smdb_core::SmDb, u64) -> Result<(), String> = &|_db, committed| {
        if committed >= 2 {
            Err(format!("canary tripped at {committed} commits"))
        } else {
            Ok(())
        }
    };
    let mut lines = Vec::new();
    smdb_vopr::fuzz_with(0xCAFE, 3, 60, Some(canary), &mut |f| {
        assert_eq!(f.oracle, "canary", "unexpected oracle {}", f.oracle);
        lines.push(f.line.clone());
    });
    assert!(!lines.is_empty(), "canary oracle should fail some schedule");
    for line in &lines {
        let report = replay_line_with(line, Some(canary))
            .unwrap_or_else(|e| panic!("shrunk line {line:?} does not parse: {e}"));
        assert!(report.reproduced, "shrunk line no longer reproduces its verdict: {line}");
    }
}

/// A panic anywhere in a round is a finding, not a dead harness: an extra
/// oracle that panics fails the run as the `panic` oracle with the panic's
/// message, the fuzzer shrinks it to a repro line like any other, and the
/// line replays to the same verdict.
#[test]
fn a_panic_in_a_round_is_a_finding() {
    let boom: &dyn Fn(&mut smdb_core::SmDb, u64) -> Result<(), String> = &|_db, committed| {
        if committed >= 2 {
            panic!("boom at {committed} commits");
        }
        Ok(())
    };
    let mut lines = Vec::new();
    smdb_vopr::fuzz_with(0xCAFE, 3, 20, Some(boom), &mut |f| {
        assert_eq!(f.oracle, "panic", "unexpected oracle {}", f.oracle);
        assert!(f.detail.starts_with("boom at "), "panic message lost: {}", f.detail);
        lines.push(f.line.clone());
    });
    assert!(!lines.is_empty(), "the panicking oracle should fail some schedule");
    for line in &lines {
        assert!(line.ends_with(" oracle=panic"), "repro line names another oracle: {line}");
        let report = replay_line_with(line, Some(boom)).expect("repro line parses");
        assert!(report.reproduced, "shrunk line no longer reproduces its panic: {line}");
    }
}

/// Replay a repro line the fuzzer emitted when it found a (now fixed)
/// engine bug, and assert the schedule passes every oracle today.
fn assert_repro_fixed(line: &str) {
    let report = replay_line(line).expect("repro line parses");
    assert!(
        report.outcome.failure.is_none(),
        "regression: {line}\n  failed {:?}",
        report.outcome.failure
    );
    assert!(!report.reproduced, "line should no longer reproduce: {line}");
}

/// ELR predecessor/successor pending-write ambiguity: under early lock
/// release both a committing predecessor and its successor can hold
/// pending writes on one slot; the oracle must accept either value.
#[test]
fn regression_elr_pending_write_ambiguity() {
    assert_repro_fixed(
        "VOPR seed=0x12879fa94cefe854 cfg=p:SE,n:5,t:11,o:6,rf:0,sh:30,ss:4,zf:0,ix:0,ck:0,w:6,d:3,elr:1 skip=0,1,2,3,4,5,6,7,8 sched=23 plan=- oracle=IFA",
    );
    assert_repro_fixed(
        "VOPR seed=0x8056e5c0756a3d4 cfg=p:ST,n:4,t:8,o:6,rf:0,sh:100,ss:16,zf:95,ix:0,ck:0,w:6,d:0,elr:1 skip=0,1,2,3,4,5 sched=- plan=- oracle=IFA",
    );
}

/// LCB-array backpressure: a full holder array with a compatible grant
/// must park the requester as a waiter, not error with CapacityExceeded.
#[test]
fn regression_lcb_backpressure_capacity() {
    assert_repro_fixed(
        "VOPR seed=0x3b823cb606bb2d52 cfg=p:ST,n:3,t:10,o:5,rf:50,sh:60,ss:4,zf:95,ix:0,ck:3,w:6,d:0,elr:1 skip=0,5,6,7,8,9 sched=- plan=- oracle=engine-error",
    );
}

/// Settled-aborted re-undo: a still-down node's stable log is re-analysed
/// on every later recovery; updates of a transaction the txn table already
/// records as Aborted must not re-enter the undo-candidate sets, or the
/// old undo tramples live re-writes of the same slots.
#[test]
fn regression_settled_aborted_not_reundone() {
    assert_repro_fixed(
        "VOPR seed=0xf8f0592ae1c2fcde cfg=p:ST,n:4,t:11,o:5,rf:0,sh:60,ss:32,zf:95,ix:0,ck:5,w:6,d:0,elr:0 skip=2,4,5,6,7,8,9,10 sched=- plan=sim.migrate#9+core.commit.dep#0 oracle=IFA",
    );
}

/// Orphaned overflow LCB line: when checkpoint truncation reclaims the
/// `LockSpaceAlloc` structural record, lock recovery must fall back on the
/// shared-memory overflow registration list to relink the parent's
/// overflow pointer — and reinstall the *parent* too if it died.
#[test]
fn regression_overflow_relink_survives_truncation() {
    assert_repro_fixed(
        "VOPR seed=0xd04f5fd560e27ddd cfg=p:ST,n:3,t:10,o:6,rf:50,sh:30,ss:16,zf:0,ix:0,ck:3,w:4,d:2,elr:1 skip=- sched=00000000000000000000000000001000022 plan=core.commit.dep#7 oracle=lock-chains",
    );
}

/// Redo must re-mark pages in the WAL table: the crash wipes the crashed
/// node's Page-LSN entries, and a redone page that stays "clean" lets the
/// next checkpoint advance the redo bound without flushing it — a second
/// crash then loses committed data.
#[test]
fn regression_redo_remarks_wal_table() {
    assert_repro_fixed(
        "VOPR seed=0xeb3f784cabff9521 cfg=p:VRA,n:4,t:8,o:2,rf:20,sh:0,ss:32,zf:95,ix:0,ck:5,w:2,d:2,elr:1 skip=- sched=0000002001 plan=core.commit.dep#3+core.commit#4 oracle=IFA",
    );
    assert_repro_fixed(
        "VOPR seed=0x95584bd6ed606e89 cfg=p:VRA,n:2,t:12,o:4,rf:50,sh:0,ss:4,zf:0,ix:0,ck:3,w:2,d:3,elr:0 skip=1,2,3,4,5 sched=0100001 plan=storage.flush.line#6+core.commit.dep#4 oracle=IFA",
    );
    assert_repro_fixed(
        "VOPR seed=0x1506568a5a4f0989 cfg=p:SE,n:3,t:16,o:4,rf:0,sh:0,ss:16,zf:95,ix:0,ck:5,w:1,d:0,elr:0 skip=- sched=- plan=storage.flush.line#1+wal.checkpoint.record#2 oracle=IFA",
    );
}

/// Out-of-order pipelined commit settle: per-node force acks can settle
/// two dependent ELR commits in either order; the shadow oracle must apply
/// committed writes in *write* order (the physical last-writer-wins
/// truth), not commit-settle order.
#[test]
fn regression_shadow_commit_write_order() {
    assert_repro_fixed(
        "VOPR seed=0x17293b09efde3a51 cfg=p:VRA,n:3,t:12,o:4,rf:0,sh:30,ss:4,zf:95,ix:0,ck:3,w:4,d:0,elr:1 skip=0,1,2,3,5,6,7,8,11 sched=- plan=wal.force.record#20 oracle=IFA",
    );
}

/// Empty-plan drain window: an instant recovery whose deferred *redo*
/// plan is empty can still owe deferred lost-line reinstalls (the lost
/// lines' last committed updates were already flushed, so nothing needs
/// redo — but the lines are gone from every surviving cache). The window
/// must stay open (`redo_pending > 0`) until they are resident again:
/// both repros crashed a later checkpoint's raw full-page flush on a
/// still-lost line after the drain loops had already gone idle.
#[test]
fn regression_empty_plan_window_still_reinstalls_lost_lines() {
    assert_repro_fixed(
        "VOPR seed=0x53 cfg=p:VSR,n:3,t:12,o:5,rf:20,sh:30,ss:16,zf:0,ix:0,ck:3,w:2,d:3,elr:0,ir:1 skip=2,3,6,7,8 sched=1200000001 plan=sim.invalidate#10 oracle=engine-error",
    );
    assert_repro_fixed(
        "VOPR seed=0x60 cfg=p:ST,n:4,t:16,o:6,rf:50,sh:60,ss:32,zf:0,ix:50,ck:3,w:1,d:0,elr:0,ir:1 skip=1,5,6,7,10,14 sched=- plan=sim.migrate#5+wal.truncate#3 oracle=engine-error",
    );
}

/// Tag-driven undo over a half-lost page: under Selective Redo with
/// instant restart, a crashed node's tagged record can survive on another
/// node while the page's Page-LSN header line is still deferred-lost;
/// `undo_by_tags` must install the page before its coherent write.
/// (Engine-level twin: `tag_undo_installs_a_deferred_lost_header_before_writing`.)
#[test]
fn regression_tag_undo_installs_deferred_lost_header() {
    assert_repro_fixed(
        "VOPR seed=0xfda8ddaf1a7174b2 cfg=p:VSR,n:3,t:11,o:5,rf:20,sh:100,ss:16,zf:95,ix:0,ck:0,w:6,d:3,elr:0,ir:1,mt:0 skip=0,1,2,3,4,5,6,9,10 sched=- plan=wal.force.record#1 oracle=recovery-error",
    );
}

/// The two remaining red schedules of master seed `0x5EED` (run it with
/// `scripts/fuzz.sh 0x5EED`; the default battery leaves it out). Both are
/// suspected instances of the uncompensated-rollback defect: recovery
/// rolls a crashed node's doomed transaction back without compensation
/// records, so a later recovery can replay the stale updates from that
/// node's retained stable log (`rebooted_node_log_must_not_resurrect_
/// recovery_aborted_updates` in `crates/core/tests/engine_recovery.rs`).
#[test]
#[ignore = "known defect: crash mid-invalidate leaves a doomed index insert live (IFA: unexpected entry); suspected uncompensated rollback"]
fn known_defect_mt_preamble_invalidate_crash() {
    assert_repro_fixed(
        "VOPR seed=0x3e29b4550e206c3 cfg=p:VSR,n:5,t:7,o:6,rf:0,sh:0,ss:16,zf:95,ix:25,ck:5,w:1,d:0,elr:0,ir:0,mt:1 skip=0,2,3,4,5,6 sched=- plan=sim.invalidate#7 oracle=IFA",
    );
}

#[test]
#[ignore = "known defect: second crash during on-demand redo restores a stale record value (IFA); suspected replay of the first victim's uncompensated rollback"]
fn known_defect_commit_crash_then_on_demand_redo_crash() {
    assert_repro_fixed(
        "VOPR seed=0xf710fe6e6e9a40fc cfg=p:ST,n:4,t:14,o:3,rf:50,sh:100,ss:32,zf:95,ix:0,ck:3,w:4,d:2,elr:0,ir:1,mt:0 skip=- sched=- plan=core.commit#12+restart.redo.on_demand#0 oracle=IFA",
    );
}

/// A fixed-seed battery with instant restart forced on: every schedule
/// whose fault plan fires recovers open-early, the driver retires the
/// deferred redo between rounds, and all standing oracles hold through
/// and after the drain window. Seed 0x3d's plan lands its second crash
/// on `restart.redo.background#0` — the draining node itself dies
/// mid-batch and the second recovery re-derives the plan.
#[test]
fn fixed_seed_instant_battery_is_green() {
    let skip = BTreeSet::new();
    for seed in [0x1u64, 0x27, 0x3d, 0x5e] {
        let mut cfg = VoprConfig::draw(seed);
        cfg.instant = true;
        let plan = draw_plan(seed);
        let run = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Record(seed));
        assert!(
            !run.fired.is_empty(),
            "seed {seed:#x}: battery seed no longer fires its plan {plan:?}"
        );
        assert!(
            run.failure.is_none(),
            "seed {seed:#x} cfg={} failed: {:?}",
            cfg.encode(),
            run.failure
        );
    }
}

/// The multicore-preamble knob: `mt:1` scenarios run an epoch-scheduled
/// batch before the interactive rounds. The preamble's admission
/// deferrals draw from the shared tape, so recording and replay must
/// stay byte-identical, and every standing oracle must hold on the
/// merged post-epoch state — including across the crashes the
/// interactive phase then injects.
#[test]
fn fixed_seed_mt_battery_is_green() {
    let skip = BTreeSet::new();
    let mut deferred_somewhere = false;
    for seed in [0x2u64, 0x11, 0x42, 0x7c] {
        let mut cfg = VoprConfig::draw(seed);
        cfg.mt = true;
        cfg.elr = false; // the epoch scheduler excludes early lock release
        let plan = draw_plan(seed);
        let a = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Record(seed));
        assert!(
            a.events.first().is_some_and(|e| e.starts_with("mt ")),
            "seed {seed:#x}: preamble event missing from {:?}",
            a.events.first()
        );
        assert!(a.failure.is_none(), "seed {seed:#x} cfg={} failed: {:?}", cfg.encode(), a.failure);
        let b = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Replay(a.tape.clone()));
        assert_eq!(a.events, b.events, "seed {seed:#x}: mt replay diverged from recording");
        assert_eq!(a.committed, b.committed, "seed {seed:#x}: mt replay commits diverged");
        deferred_somewhere |= a.events[0].split(" d").nth(1) != Some("0");
    }
    assert!(deferred_somewhere, "no battery seed ever exercised a tape deferral");
}

/// A bounded fixed-seed fuzz sweep stays green (the CI smoke). Kept small
/// so `cargo test` stays fast; scripts/fuzz.sh runs the larger budgets.
#[test]
fn fixed_seed_smoke_sweep_is_green() {
    let out = smdb_vopr::fuzz(0xC0DE, 20, 100);
    assert_eq!(out.schedules, 20);
    for f in &out.failures {
        eprintln!("{}", f.line);
    }
    assert!(out.passed(), "{} schedules failed", out.failures.len());
}

/// Serial-window schedules are pinned byte for byte: sixteen fixed seeds
/// with the commit window forced to 1 (the first eight fire their fault
/// plan), each recording the event log, the schedule tape, the commit
/// count and the verdict. The fixture predates the shared transaction
/// driver, so a pass proves a window-1 schedule still runs — and a
/// window-1 repro line still replays — exactly as it did before.
/// Regenerate only for an intentional change, with `UPDATE_GOLDEN=1`.
#[test]
fn window_one_schedules_match_golden() {
    const FIRING: [u64; 8] = [0x100, 0x102, 0x106, 0x108, 0x10e, 0x110, 0x11b, 0x139];
    const QUIET: [u64; 8] = [0x101, 0x103, 0x105, 0x107, 0x112, 0x129, 0x132, 0x13d];
    let skip = BTreeSet::new();
    let mut got = String::new();
    for (seeds, fires) in [(FIRING, true), (QUIET, false)] {
        for seed in seeds {
            let mut cfg = VoprConfig::draw(seed);
            (cfg.window, cfg.drain_every, cfg.elr) = (1, 0, false);
            let plan = draw_plan(seed);
            let run = run_schedule(&cfg, seed, &skip, &plan, SchedInput::Record(seed));
            assert_eq!(!run.fired.is_empty(), fires, "seed {seed:#x}: plan {plan:?}");
            let _ = writeln!(got, "[seed={seed:#x} cfg={}]", cfg.encode());
            let _ = writeln!(got, "fired: {:?}", run.fired);
            let _ = writeln!(got, "verdict: {:?}", run.failure);
            let _ = writeln!(got, "committed: {}", run.committed);
            let _ = writeln!(got, "tape: {}", encode_tape(&run.tape));
            let _ = writeln!(got, "events: {}\n", run.events.join(" "));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/window1.golden");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir fixtures");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture present (UPDATE_GOLDEN=1 writes it)");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "window-1 schedule diverged from the fixture at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "fixture length");
}

/// The fuzzer reaches the read-only commit path: its scenarios draw the
/// read fraction, so some transactions draw only reads and commit with no
/// record and no force. An extra oracle switches each schedule's engine's
/// observability on at its first round and reads `txn.committed_read_only`
/// at every round after it; every schedule must still pass.
#[test]
fn fixed_seed_sweep_reaches_read_only_commits() {
    let (total, last) = (Cell::new(0u64), Cell::new(0u64));
    let count = |db: &mut SmDb, _: u64| {
        let obs = db.observability();
        if !obs.is_enabled() {
            // A fresh engine: the previous schedule's count is final.
            total.set(total.get() + last.replace(0));
            db.enable_observability(64);
        }
        last.set(obs.metrics.counter(names::TXN_COMMITTED_READ_ONLY));
        Ok(())
    };
    let out = smdb_vopr::fuzz_with(0xC0DE, 500, 0, Some(&count), &mut |f| eprintln!("{}", f.line));
    let read_only = total.get() + last.get();
    println!("0xC0DE x 500: committed={} read_only={read_only}", out.committed);
    assert!(out.passed(), "{} schedules failed", out.failures.len());
    assert!(read_only > 0, "no schedule committed a read-only transaction");
}
