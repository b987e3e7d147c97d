#!/usr/bin/env bash
# Exhaustive crash-point sweep (DESIGN §8): replay the seeded workload
# once per *every* enumerated crash point under each protocol, plus the
# full nested-schedule budget — restart.scan (a log reader of the restart's
# analysis dies mid-scan) and restart.install (a page reader of the index
# skeleton or of the eager plan dies before its share) included: they are
# enumerated with every other site recovery visits, and swept on their
# own — restart.scan for every protocol, eager and instant;
# restart.install for every protocol, eager and instant, with and without
# an index node 0 grew, plus the FA-only and total-failure scopes.
# wal.force.record (a log force torn after a durable prefix) is visited by
# every physical force, the early commit of a lock-space overflow line
# included. The bounded variant
# runs in tier-1 CI (scripts/ci.sh); this one is for local soak runs and
# release gates.
#
# Every failure prints a one-line repro:
#   FAIL scenario=<label> seed=<seed> plan=<site#hit[+site#hit]> :: <msg>
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export SMDB_FULL_SWEEP=1

cargo test --release --test crash_sweep -- --nocapture
