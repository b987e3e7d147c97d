//! Standalone probes of single layers: each times one public operation of
//! `Machine`, `LockManager`, `LogSet`, `StableDb`, `BTree`, `Zipf` or the
//! engine's per-call API in isolation — at least 200 k operations in five
//! batches, reporting the median batch in ns per operation.
//!
//! Probes of an upper layer include the lower-layer calls it makes (a lock
//! acquire drives the machine and appends a log record), so shares
//! computed from them are inclusive, not additive.

use crate::report::Values;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::NODES;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smdb_btree::{BTree, TreeCtx};
use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_lock::{LcbGeometry, LockManager, LockMode, LockTable};
use smdb_sim::{LineId, Machine, NodeId, SimConfig, TxnId};
use smdb_storage::{PageGeometry, PageId, StableDb};
use smdb_wal::{LbmMode, LogPayload, LogSet, Lsn, PageLsnTable, RecId};
use smdb_workload::{run_tp1, Tp1Params, Zipf};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Median over [`BATCHES`] batches of ns per operation; `batch` runs `ops`
/// operations and returns the time they took (set-up it does first is not
/// timed).
fn probe(ops: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES).map(|_| batch().as_nanos() as f64 / ops as f64).collect();
    median(&per_op)
}

const LINES: u64 = 1024;

/// A machine with `LINES` lines, all exclusive in node 0's cache.
fn machine() -> Machine {
    let mut m = Machine::new(SimConfig::new(NODES));
    for l in 0..LINES {
        m.create_line_at(N0, LineId(l), &[0u8; 128]).expect("fresh line");
    }
    m
}

fn sim(v: &mut Values, ops: usize) {
    let passes = ops.div_ceil(LINES as usize);
    let ops = passes * LINES as usize;
    let mut buf = [0u8; 8];
    let mut m = machine();
    v.set(
        "sim.read_hit_ns",
        probe(ops, || {
            timed(|| {
                for _ in 0..passes {
                    for l in 0..LINES {
                        m.read_into(N0, LineId(l), 0, &mut buf).expect("read");
                    }
                }
                black_box(&buf);
            })
        }),
    );
    v.set(
        "sim.write_hit_ns",
        probe(ops, || {
            timed(|| {
                for p in 0..passes {
                    for l in 0..LINES {
                        m.write(N0, LineId(l), 0, &(p as u64).to_le_bytes()).expect("write");
                    }
                }
            })
        }),
    );
    // Every write takes the only copy away from the other node (H_ww).
    v.set(
        "sim.write_migrate_ns",
        probe(ops, || {
            timed(|| {
                for p in 0..passes {
                    let node = NodeId((p % 2 + 1) as u16);
                    for l in 0..LINES {
                        m.write(node, LineId(l), 0, &(p as u64).to_le_bytes()).expect("write");
                    }
                }
            })
        }),
    );
    // Node 0 takes every line exclusive (untimed), node 1's reads then
    // each downgrade and replicate one (H_wr).
    v.set(
        "sim.read_replicate_ns",
        probe(ops, || {
            let mut total = Duration::ZERO;
            for p in 0..passes {
                for l in 0..LINES {
                    m.write(N0, LineId(l), 0, &(p as u64).to_le_bytes()).expect("write");
                }
                total += timed(|| {
                    for l in 0..LINES {
                        m.read_into(N1, LineId(l), 0, &mut buf).expect("read");
                    }
                });
            }
            total
        }),
    );
    let mut m = machine();
    v.set(
        "sim.getline_release_ns",
        probe(ops, || {
            timed(|| {
                for _ in 0..passes {
                    for l in 0..LINES {
                        m.getline(N0, LineId(l)).expect("getline");
                        m.releaseline(N0, LineId(l)).expect("releaseline");
                    }
                }
            })
        }),
    );
    // One node of eight dies on a machine of `ops / 8` lines.
    let lines = (ops / 8).max(1024) as u64;
    let crash_ms: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut m = Machine::new(SimConfig::new(NODES));
            for l in 0..lines {
                m.create_line_at(NodeId((l % NODES as u64) as u16), LineId(l), &[0u8; 128])
                    .expect("fresh line");
            }
            timed(|| {
                black_box(m.crash(&[NodeId(3)]));
            })
            .as_secs_f64()
                * 1e3
        })
        .collect();
    v.set("sim.crash_ms", median(&crash_ms));
}

fn txn(node: u16, seq: u64) -> TxnId {
    TxnId::new(NodeId(node), seq)
}

fn lock_setup() -> (Machine, LogSet, LockManager) {
    let mut m = Machine::new(SimConfig::new(NODES));
    let logs = LogSet::new(NODES);
    let table =
        LockTable::create(&mut m, N0, 1 << 20, 256, LcbGeometry::co_located()).expect("lock table");
    (m, logs, LockManager::new(table))
}

fn lock(v: &mut Values, ops: usize) {
    const X: LockMode = LockMode::Exclusive;
    v.set(
        "lock.acquire_release_ns",
        probe(ops, || {
            let (mut m, mut logs, mut mgr) = lock_setup();
            let t = txn(0, 1);
            timed(|| {
                for i in 0..ops as u64 {
                    let name = 1 + i % 4096;
                    mgr.acquire(&mut m, &mut logs, t, name, X).expect("acquire");
                    mgr.release(&mut m, &mut logs, t, name).expect("release");
                }
            })
        }),
    );
    v.set(
        "lock.reacquire_fast_ns",
        probe(ops, || {
            let (mut m, mut logs, mut mgr) = lock_setup();
            let t = txn(0, 1);
            for name in 1..=4 {
                mgr.acquire(&mut m, &mut logs, t, name, X).expect("acquire");
            }
            timed(|| {
                for i in 0..ops as u64 {
                    black_box(mgr.acquire(&mut m, &mut logs, t, 1 + i % 4, X).expect("reacquire"));
                }
            })
        }),
    );
    v.set(
        "lock.poll_conflict_ns",
        probe(ops, || {
            let (mut m, mut logs, mut mgr) = lock_setup();
            let (holder, poller) = (txn(0, 1), txn(1, 1));
            for name in 1..=4 {
                mgr.acquire(&mut m, &mut logs, holder, name, X).expect("acquire");
            }
            timed(|| {
                for i in 0..ops as u64 {
                    black_box(
                        mgr.poll_from(&mut m, &mut logs, poller, 1 + i % 4, X, N1).expect("poll"),
                    );
                }
            })
        }),
    );
    // A four-lock transaction's release at commit; ns per `release_all`.
    let calls = ops / 4;
    v.set(
        "lock.release_all_ns",
        probe(calls, || {
            let (mut m, mut logs, mut mgr) = lock_setup();
            let mut total = Duration::ZERO;
            for i in 0..calls as u64 {
                let t = txn(0, i + 1);
                for k in 0..4 {
                    mgr.acquire(&mut m, &mut logs, t, 1 + (i * 4 + k) % 4096, X).expect("acquire");
                }
                total += timed(|| {
                    black_box(mgr.release_all(&mut m, &mut logs, t).expect("release_all"));
                });
            }
            total
        }),
    );
}

fn update_record(i: u64, image: &Bytes) -> LogPayload {
    LogPayload::Update {
        txn: txn(0, 1),
        rec: RecId::new(PageId((i % 512) as u32), (i % 64) as u16),
        undo: image.clone(),
        redo: image.clone(),
        gsn: i,
    }
}

fn wal(v: &mut Values, ops: usize) {
    let image = Bytes::copy_from_slice(&[7u8; 40]);
    v.set(
        "wal.append_ns",
        probe(ops, || {
            let mut logs = LogSet::new(NODES);
            timed(|| {
                for i in 0..ops as u64 {
                    black_box(logs.append(N0, update_record(i, &image)));
                }
            })
        }),
    );
    // One record per physical force: the append is untimed.
    v.set(
        "wal.force_ns",
        probe(ops, || {
            let mut logs = LogSet::new(NODES);
            let mut total = Duration::ZERO;
            for chunk in 0..ops.div_ceil(1024) as u64 {
                for i in 0..1024 {
                    logs.append(N0, update_record(chunk * 1024 + i, &image));
                }
                let last = logs.log(N0).last_lsn().0;
                total += timed(|| {
                    for lsn in last - 1023..=last {
                        black_box(logs.force_to_checked(N0, Lsn(lsn)).expect("no fault armed"));
                    }
                });
            }
            total
        }),
    );
    v.set(
        "wal.request_force_coalesced_ns",
        probe(ops, || {
            let mut logs = LogSet::new(NODES);
            logs.set_coalescing(true);
            let mut total = Duration::ZERO;
            for chunk in 0..ops.div_ceil(1024) as u64 {
                for i in 0..1024 {
                    logs.append(N0, update_record(chunk * 1024 + i, &image));
                }
                let last = logs.log(N0).last_lsn().0;
                total += timed(|| {
                    for lsn in last - 1023..=last {
                        black_box(logs.request_force_to(N0, Lsn(lsn)));
                    }
                });
            }
            total
        }),
    );
}

const PAGE: PageGeometry = PageGeometry { line_size: 128, lines_per_page: 32 };

fn storage(v: &mut Values, ops: usize) {
    let mut sdb = StableDb::new(PAGE);
    sdb.format(1024);
    let image = vec![5u8; PAGE.page_size()];
    v.set(
        "storage.read_page_ns",
        probe(ops, || {
            timed(|| {
                for i in 0..ops as u32 {
                    black_box(sdb.read_page(PageId(i % 1024)));
                }
            })
        }),
    );
    v.set(
        "storage.write_page_ns",
        probe(ops, || {
            timed(|| {
                for i in 0..ops as u32 {
                    sdb.write_page(PageId(i % 1024), &image);
                }
            })
        }),
    );
}

/// Insert, search and delete every key of a `keys`-key tree, five trees.
fn btree(v: &mut Values, keys: usize) {
    let (mut ins, mut sea, mut del) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..BATCHES {
        let mut m = Machine::new(SimConfig::new(NODES));
        let mut sdb = StableDb::new(PAGE);
        let pages = (keys / 16).max(64) as u32;
        sdb.format(pages);
        let mut logs = LogSet::new(NODES);
        let mut plt = PageLsnTable::new();
        let mut gsn = 0u64;
        let mut ctx =
            TreeCtx::new(&mut m, &mut sdb, &mut logs, &mut plt, LbmMode::Volatile, &mut gsn);
        let mut tree = BTree::create(&mut ctx, N0, 0, pages).expect("tree");
        let t = txn(0, b as u64 + 1);
        // An odd multiplier permutes the 64-bit keys: distinct, unordered.
        let key = |i: usize| (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
        let per_op = |d: Duration| d.as_nanos() as f64 / keys as f64;
        ins.push(per_op(timed(|| {
            for i in 0..keys {
                tree.insert(&mut ctx, t, key(i), (i as u64).to_le_bytes()).expect("insert");
            }
        })));
        sea.push(per_op(timed(|| {
            for i in 0..keys {
                black_box(tree.search(&mut ctx, N0, key(i)).expect("search"));
            }
        })));
        del.push(per_op(timed(|| {
            for i in 0..keys {
                tree.delete(&mut ctx, t, key(i)).expect("delete");
            }
        })));
    }
    v.set("btree.insert_ns", median(&ins));
    v.set("btree.search_ns", median(&sea));
    v.set("btree.delete_ns", median(&del));
}

fn zipf(v: &mut Values, ops: usize) {
    let z = Zipf::new(8184, 0.95);
    let mut rng = StdRng::seed_from_u64(1);
    v.set(
        "workload.zipf_sample_ns",
        probe(ops, || {
            timed(|| {
                for _ in 0..ops {
                    black_box(z.sample(&mut rng));
                }
            })
        }),
    );
}

fn tp1_engine() -> SmDb {
    let mut c = DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo);
    c.records = 65536;
    c.index_pages = 16384;
    SmDb::new(c)
}

/// A TP1-shaped loop the harness issues call by call (read, three updates,
/// a history insert, commit), with a span around each call: the engine's
/// per-call host time, which the `run_tp1` driver hides.
fn engine_calls(v: &mut Values, txns: usize, tr: &mut Tracer) {
    let mut db = tp1_engine();
    // Warm the engine so first-touch page faults are not in the spans.
    run_tp1(&mut db, Tp1Params { txns: txns.min(1024), branches: 8, ..Default::default() });
    assert!(tr.is_on(), "probes run in the traced pass");
    let mut txn_us = Vec::with_capacity(txns);
    for i in 0..txns as u64 {
        let node = NodeId((i % NODES as u64) as u16);
        let (branch, teller) = (node.0 as u64, 8 + node.0 as u64 * 4 + i % 4);
        // A 512-account working set per node, so the pages are resident
        // after the first few hundred transactions.
        let account = 40 + node.0 as u64 * 8187 + (i.wrapping_mul(2_654_435_761) % 512);
        let val = i.to_le_bytes();
        tr.round = i as u32;
        let t0 = Instant::now();
        let whole = tr.begin("core.engine.txn");
        let s = tr.begin("core.engine.begin");
        let t = db.begin(node).expect("begin");
        tr.end(s);
        let s = tr.begin("core.engine.read");
        black_box(db.read(t, account).expect("read"));
        tr.end(s);
        for slot in [account, teller, branch] {
            let s = tr.begin("core.engine.update");
            db.update(t, slot, &val).expect("update");
            tr.end(s);
        }
        let s = tr.begin("core.engine.insert");
        db.insert(t, (1 << 40) + i, val).expect("insert");
        tr.end(s);
        let s = tr.begin("core.engine.commit");
        db.commit(t).expect("commit");
        tr.end(s);
        tr.end(whole);
        txn_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    for call in ["begin", "read", "update", "insert", "commit"] {
        v.set(&format!("core.engine.{call}_ns"), tr.mean_ns(&format!("core.engine.{call}")));
    }
    v.set("core.engine.txn_host_us_p50", median(&txn_us));
    v.set("core.engine.txn_host_us_p99", percentile(&txn_us, 0.99));
}

/// `run_tp1` with the engine's own observability (bus of 4096 + metrics)
/// on, over the same run with it off.
fn engine_obs_overhead(v: &mut Values, txns: usize) {
    let run = |obs: bool| {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let mut db = tp1_engine();
                if obs {
                    db.enable_observability(4096);
                }
                timed(|| {
                    black_box(run_tp1(
                        &mut db,
                        Tp1Params { txns, branches: 8, ..Default::default() },
                    ));
                })
                .as_secs_f64()
            })
            .collect();
        median(&times)
    };
    let off = run(false);
    v.set("obs.engine_obs_overhead_ratio", run(true) / off);
}

/// Run every probe. `div` scales the operation counts down (smoke runs).
pub fn run_all(v: &mut Values, div: usize, tr: &mut Tracer) {
    let ops = (40_000 / div).max(1024);
    let s = tr.begin("probes");
    sim(v, ops);
    lock(v, ops);
    wal(v, ops);
    storage(v, ops);
    btree(v, (20_000 / div).max(512));
    zipf(v, ops);
    engine_calls(v, (4096 / div).max(64), tr);
    engine_obs_overhead(v, (8192 / div).max(64));
    tr.end(s);
}
