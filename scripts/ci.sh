#!/usr/bin/env bash
# Full CI gate, runnable offline: the workspace resolves every third-party
# dependency to the stand-ins under vendor/, so no network or crates.io
# cache is needed. .github/workflows/ci.yml runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
# The epoch-scheduler gates (mt_determinism, mt_schedule.golden, the
# run_mix_mt cells of driver_corners.golden) each run at 1, 2, 3 and 4 OS
# threads and assert byte-identical results; 3 divides none of the lane
# counts they produce, so the longest-first assignment (DESIGN §15) has
# something to decide.
cargo test -q --workspace

echo "== crash-point sweep (bounded) =="
# Deterministic fault-injection sweep over all protocols (DESIGN §8);
# release build keeps the bounded sweep fast. The checkpoint-machinery
# crash points (wal.checkpoint.record, wal.truncate), the analysis
# scan's (restart.scan: a log reader beside the recovery node dies) and
# the restart's page reads' — the index skeleton's, the fourth user of the
# fan-out, and the eager plan's (restart.install: a page reader beside the
# recovery node dies before its share; cells where node 0 owns the tree
# pages put two readers on the skeleton) — are replayed exhaustively even
# in this bounded run. wal.force.record is visited by every physical log
# force, the early commit of a lock-space overflow line included. Every
# engine runs the striped coherence directory (DESIGN §15). The
# exhaustive variant of the whole sweep is scripts/crash_sweep.sh.
cargo test --release -q --test crash_sweep

echo "== oracle battery =="
# Every crash harness reaches the standing oracles through two SmDb calls
# (DESIGN §8): check_before_recover between a crash and its recovery
# (commit predicate, redo plan, scan order, tag scan, cached-line probe),
# check_after_recover after it (commit predicate, IFA, B+-tree
# invariants, lock chains, committed data), the predicate alone after an
# interrupted recover. oracle_battery: a crash and an interrupted
# recovery pass under every protocol, eager and instant, and so does a
# crash of the node that split the index with inserts in flight; a
# violation names its oracle; oracle reads leave an armed crash point
# alone. The step-boundary harnesses run the battery around every
# recovery.
cargo test --release -q -p smdb-core --test oracle_battery --test protocol_matrix
cargo test --release -q --test crash_point_sweep --test ifa_proptest

echo "== span-op lockstep (2000 cases) =="
# Every simulator span operation against its per-line sequence on a twin
# machine (DESIGN §10): same result, same machine state, stats, clocks
# and event bus. Every case runs the striped machine with stripes short
# enough that spans cross them, half the cases a line range that wraps
# from the last stripe to stripe 0, a quarter one-line stripes with two
# pieces of the range in one stripe, and half a lane machine whose
# foreign stripes the spans run into. The workspace test steps above run
# the default 256 cases; this one digs deeper (~1 s in release).
PROPTEST_CASES=2000 cargo test --release -q -p smdb-sim --test coherence_proptest span_ops

echo "== transaction-table lockstep (2000 cases) + live-entries count =="
# The active table + settled-status index against a whole-history map
# kept beside the engine, after every step of random begin / commit /
# pipelined commit / abort / checkpoint / crash / interrupted recover /
# reboot / run_epochs scripts (DESIGN §9), and between every crash and
# its recovery the oracle battery's first call (check_before_recover:
# commit predicate, redo plan, scan order, tag scan, cached-line probe);
# after a recovery, interrupted or not, the commit predicate
# (check_predicate_alone; the battery's second call there
# meets two pinned IFA defects, ROADMAP item 1); the same target holds the
# count test (what crash + recover + checkpoint visit in the table is
# identical after 5 000 and after 50 000 settled transactions) and the
# cascade-victim scenario. The workspace test steps run 256 cases.
PROPTEST_CASES=2000 cargo test --release -q -p smdb-core --test txn_table

echo "== one commit rule: drain_for, one acknowledgement, one settled predicate, read-only commits =="
# Every commit-record force is SmDb::drain_for over an unacknowledged
# chain, and every acknowledgement is SmDb::acknowledge (DESIGN §12).
# commit_predicate: restart's commit predicate equals the whole-history
# fixpoint across ELR chains, LSN reuse, lane merges and an FA-only
# outage; a synchronous commit over a pipelined chain makes the chain
# durable and acknowledges only itself, forcing each home once; a
# predecessor lost with its home is WouldBlock with nothing appended; the
# next drain acknowledges the predecessors with no new force. Its
# read-only corners: a reader of an early-released write commits only once
# the writer's record is durable, and is WouldBlock with nothing appended
# when the writer's home crashed first; a read-only commit stays Committed
# across a crash of its home; it appends no commit record and adds no
# force, while an updating commit on the same node forces once.
# force_accounting: every physical force is counted once, in the logs,
# the metrics and the event bus.
# e17_read_only_commit: on VolatileSelectiveRedo the serial mix's
# physical forces equal its writing commits (committed minus read-only
# commits), and cycles per transaction fall as the read fraction rises.
# fixed_seed_sweep_reaches_read_only_commits: over 0xC0DE x 500 the
# fuzzer's schedules commit read-only transactions (txn.committed_read_only
# > 0) and every one passes the restated commit-predicate oracle.
cargo test --release -q -p smdb-core --test commit_predicate
cargo test --release -q --test force_accounting
cargo test --release -q -p smdb-bench --test e17_read_only_commit
cargo test --release -q -p smdb-vopr --test vopr fixed_seed_sweep_reaches_read_only_commits

echo "== epoch group commit: one commit force per lane per epoch =="
# Inside an epoch lane a commit appends its record unforced; the lane's
# last act, on every exit, is one force through its last commit record
# (DESIGN §15, "Lane group commit"). The mt unit tests: a failing lane
# still forces what it committed, and the barrier refuses a lane commit
# left volatile with a typed error. mt_group_commit: after run_epochs the
# commit predicate holds and every commit record is durable; a fixed
# batch pays exactly one commit force per (epoch, lane that committed a
# writer); an all-read lane forces nothing and leaves its grant records
# to the barrier. e12_multicore: commit forces <= epochs x nodes on both
# E12 cells. experiments_tables holds EXPERIMENTS.md's E12 table (and the
# other marked ones) to report_fast.golden.
cargo test --release -q -p smdb-core --lib mt::
cargo test --release -q -p smdb-core --test mt_group_commit
cargo test --release -q -p smdb-bench --test e12_multicore --test experiments_tables

echo "== lock releases: a transaction's final release is not logged =="
# release_all and early_release_all log no LockRelease (DESIGN §4): lock
# recovery rebuilds only the grants of transactions still active at the
# crash, and restart leaves out an early-lock-release committer, which is
# active but holds nothing. lock_release: that committer holds nothing
# after its released name's LCB line dies; a surviving holder gets exactly
# its S and X locks back; a fault inside release_all leaves no grant of
# its victim; and a record handed from n0 to n1 on StableTriggered makes
# the trigger force nothing on n0. flat_vs_reference: the lock manager
# equals its reference model, lock-record streams included, and after a
# crash recovery told only the live transactions rebuilds the same
# state. lock_proptest: LCB invariants hold under random traffic and after
# a crash. Both at 2000 cases (the workspace steps run 64 and 48). E10:
# lock waiting drops under ELR on every protocol, the durability volume
# does not change, and on the Stable protocols ELR pays at least strict
# 2PL's physical forces. E4: with commits pipelined, StableTriggered's
# forces grow with sharing, strictly between Volatile's and StableEager's;
# in the serial mix it pays commit forces only (at most one trigger force
# in twenty transactions). experiments_tables holds EXPERIMENTS.md's E4
# and E10-elr tables (and the other marked ones) to report_fast.golden.
cargo test --release -q -p smdb-core --test lock_release
PROPTEST_CASES=2000 cargo test --release -q -p smdb-lock --test flat_vs_reference --test lock_proptest
cargo test --release -q -p smdb-bench --test e10_elr --test e9_latency --test e4_log_forces --test experiments_tables

echo "== unlogged begin: a transaction's first record is its first lock or data record =="
# begin appends nothing; a silent open transaction pins no truncation (DESIGN §10.2).
cargo test --release -q -p smdb-core --test begin_unlogged

echo "== segmented-log model (2000 cases) =="
# The segmented NodeLog against one plain Vec<LogRecord> with a
# whole-history index, after every step of random append / force / torn
# force / coalesced request / crash / truncate / settle scripts at
# segment lengths of 1-5 records (DESIGN §10.2): every reader, LSN,
# counter and index answer. The same package holds the in-place test
# (record 1 does not move across 100 000 appends). The workspace test
# steps run 256 cases.
PROPTEST_CASES=2000 cargo test --release -q -p smdb-wal

echo "== analysis index: records-opened count =="
# Restart analysis reads the logs' data-record indexes and opens a log
# record only for what it applies (DESIGN §9): restart.log_records_read
# is identical after 5 000 and after 50 000 un-checkpointed transactions
# while restart.scan_records differs tenfold. (That the index-derived
# analysis equals a fold over every retained record — check_redo_plan —
# is held by the transaction-table lockstep above, between every crash
# and recovery of its random scripts, so this step takes no case count.)
cargo test --release -q -p smdb-core --test analysis_index

echo "== one heap-recovery path: second crash + eager vs instant =="
# Every restart builds one heap plan and applies it through one write
# routine, before the open (eager) or after it (instant) — DESIGN §9,
# §14. second_crash: a checkpoint between two crashes must still see the
# pages a dead node dirtied, and the full restart's redo, as dirty (each
# scenario lost an acknowledged commit); and a later restart must never
# write a cascade victim's logged before image. instant_restart: the
# drained instant state equals the eager one — values, tags, and one
# checkpoint later the stable images — on a history with a stolen update
# and a doomed update on a surviving log, and a stolen update's undo
# survives a crash of the cache that held it, or of the plan that still
# owed it.
cargo test --release -q -p smdb-core --test second_crash --test instant_restart

echo "== crash walk and ledger prune =="
# A crash costs what it destroys (DESIGN §9). The directory keeps each
# shard's holder sets as a dense bitmask column, and a crash is one
# AND-NOT pass over it: the reference-model properties draw machines of
# 4, 70 and 130 nodes (one, two and three mask words) and check every step
# against the model and validate_flat; the sim unit tests crash node 70 of
# a 100-node machine. Restart's Selective-Redo tag scan visits the lines
# the analysed nodes' tag ledgers name instead of every cached line, and
# every checkpoint prunes the ledgers. tag_ledger: one scenario per way a
# tag can reach a surviving copy (a stolen image reinstalled, an
# early-lock-release successor's re-tag, a parallel participant's tag, a
# total failure then a forward fault, an epoch lane, an interrupted
# restart's stale lines, an instant restart's pending entry) and per bit a
# checkpoint must clear or keep, each held to the whole-cache scan
# (check_tag_scan). tag_scan_lines: on the crash_eager shape the scan
# visits at most one checkpoint interval's lines (≤ 250). The fixed-seed
# VOPR batteries run check_tag_scan between every crash and its recovery.
PROPTEST_CASES=2000 cargo test --release -q -p smdb-sim --test coherence_proptest _coherence
cargo test --release -q -p smdb-sim --lib
cargo test --release -q -p smdb-core --test tag_ledger
cargo test --release -q -p smdb-bench --test tag_scan_lines
cargo test --release -q -p smdb-vopr --test vopr fixed_seed

echo "== E13-E16: each live node does a share (one fan-out) =="
# The checkpoint's write-back, the restart's analysis scan, an eager
# restart's page reads and every restart's index-skeleton reads (the
# fourth user) go through one helper, SmDb::fan_out (DESIGN §9).
# E13: the same 84-page dirty set checkpointed at 1 / 2 / 4 / 8 nodes,
# makespan at 8 nodes <= 1/6 of one node's, no more lines lost by a crash
# of the updater right after. E14: the analysis scan grows 4x from 2 to 8
# nodes, its phase by <= 10 %. E15: every lost page read once, the redo
# phase at 8 nodes <= 1/4 of its value at 2. E16: every lost tree page
# read once, the reinstall phase at 8 nodes <= 1/4 of its value at 2.
# Beside them the core tests of the scan (join, merge charge, the open)
# and of the reads (each heap and tree page once, the busiest reader's
# charge, the lone reader, no heap page before an instant open, a
# skeleton reader's death). Simulated cycles only, in the release build
# the report is printed from. The two assigners' own tests run in the
# segmented-log step above (the whole smdb-wal package, at 2000 cases).
cargo test --release -q -p smdb-bench --test e13_checkpoint --test e14_restart_scan \
    --test e15_restart_reads --test e16_restart_skeleton
cargo test --release -q -p smdb-core --test restart_scan --test restart_reads

echo "== schedule fuzz (bounded, fixed seeds) =="
# Deterministic VOPR-style schedule fuzz (DESIGN §13): three fixed master
# seeds (500 schedules each), so this step replays the same schedules on
# every run. A failure prints shrunk one-line repros (and scripts/fuzz.sh
# collects them in results/fuzz_failures.txt); replay any line with
#   cargo run -q --release -p smdb-bench --bin fuzz -- --replay "LINE"
# These are scripts/fuzz.sh's default seeds; 0x5EED (two known-red
# schedules, pinned as ignored tests) runs only when named.
SMDB_FUZZ_BUDGET="${SMDB_FUZZ_BUDGET:-500}" scripts/fuzz.sh 0xC0DE 0xBEEF 0xD00D1234

echo "== benchmark smoke (perf --smoke) =="
# The repo's benchmark (perf/, BENCHMARK.json) is a package of its own,
# outside the workspace, so none of the steps above build it. Run every
# workload at 1/50 scale with all output checks on (IFA after each crash
# episode, committed-state digest, cross-repetition determinism) and its
# unit tests (which pin BENCHMARK.json to the harness), so the benchmark
# cannot rot unnoticed. No timing is gated here.
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --smoke

echo "== benchmark smoke, traced (perf --smoke --traced) =="
# The same at --trace 1 (~3 s): the per-layer ledger, the standalone
# probes and the Chrome-trace writer, which nothing else in CI runs.
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --smoke --traced
cargo test --release --offline -q --manifest-path perf/Cargo.toml

echo "== rustfmt =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping"
fi

echo "CI OK"
