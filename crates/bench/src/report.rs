//! The paper-mapped tables and figures (DESIGN.md §3), rendered from the
//! experiment functions in simulated cycles only — host time is `perf`'s
//! question (`perf/README.md`).
//!
//! [`render`] is the one entry point: the `report` binary prints what it
//! returns, and `tests/golden_stats.rs` pins the `--fast` rendering byte
//! for byte (`tests/golden/report_fast.golden`). Each cell declares its
//! table as one column list ([`crate::table`]).

use crate as x;
use crate::table::{csv, text_table, Align::L, Align::R, Col};

/// The rendered output of one experiment cell: its stdout section and,
/// for the cells that have one, the contents of `results/<cell name>.csv`.
struct Section {
    text: String,
    csv: Option<String>,
}

/// An experiment cell: its unique name (also the stem of its CSV file)
/// and the deterministic function producing its section at `--fast` or
/// full scale.
pub struct Cell {
    /// Name on the `report` command line and under `results/`.
    pub name: &'static str,
    run: fn(bool) -> Section,
}

/// Every cell, in report order.
pub const CELLS: [Cell; 21] = [
    Cell { name: "table1", run: table1 },
    Cell { name: "e1_line_lock", run: e1_line_lock },
    Cell { name: "e2_abort_counts", run: e2_abort_counts },
    Cell { name: "e3_recovery_cost", run: e3_recovery_cost },
    Cell { name: "e4_log_forces", run: e4_log_forces },
    Cell { name: "e5_coherence", run: e5_coherence },
    Cell { name: "e6_update_protocol", run: e6_update_protocol },
    Cell { name: "e7_lock_recovery", run: e7_lock_recovery },
    Cell { name: "e7_recovery_scaling", run: e7_recovery_scaling },
    Cell { name: "e9_colocation", run: e9_colocation },
    Cell { name: "e8_btree_recovery", run: e8_btree_recovery },
    Cell { name: "e9_latency", run: e9_latency },
    Cell { name: "e10_blast_radius", run: e10_blast_radius },
    Cell { name: "e10_elr", run: e10_elr },
    Cell { name: "e11_instant_restart", run: e11_instant_restart },
    Cell { name: "e12_multicore", run: e12_multicore },
    Cell { name: "e13_checkpoint", run: e13_checkpoint },
    Cell { name: "e14_restart_scan", run: e14_restart_scan },
    Cell { name: "e15_restart_reads", run: e15_restart_reads },
    Cell { name: "e16_restart_skeleton", run: e16_restart_skeleton },
    Cell { name: "e17_read_only_commit", run: e17_read_only_commit },
];

/// A rendered report: what `report` prints, and the CSV files `--csv`
/// writes under `results/` (file stem, contents).
pub struct Report {
    /// The stdout text.
    pub text: String,
    /// One `(cell name, file contents)` per cell that has a CSV.
    pub csvs: Vec<(&'static str, String)>,
}

/// Render the named cells (all of them when `names` is empty) in report
/// order. An unknown name is refused with the list of known ones.
pub fn render(fast: bool, names: &[String]) -> Result<Report, String> {
    if let Some(bad) = names.iter().find(|n| !CELLS.iter().any(|c| c.name == n.as_str())) {
        let known: Vec<&str> = CELLS.iter().map(|c| c.name).collect();
        return Err(format!("unknown cell `{bad}`; the cells are:\n  {}", known.join("\n  ")));
    }
    let mut text = String::from(
        "smdb experiment report — Recovery Protocols for Shared Memory Database Systems\n\
         (Molesky & Ramamritham, SIGMOD 1995) — simulated reproduction\n\n",
    );
    let mut csvs = Vec::new();
    for cell in CELLS.iter().filter(|c| names.is_empty() || names.iter().any(|n| n == c.name)) {
        let section = (cell.run)(fast);
        text += &section.text;
        csvs.extend(section.csv.map(|file| (cell.name, file)));
    }
    text += "done.\n";
    Ok(Report { text, csvs })
}

/// TP1 transactions per cell at the given scale.
fn t1_txns(fast: bool) -> usize {
    if fast {
        120
    } else {
        400
    }
}

/// Mix transactions per cell at the given scale.
fn mix_txns(fast: bool) -> usize {
    if fast {
        60
    } else {
        200
    }
}

fn on_off(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

fn table1(fast: bool) -> Section {
    let txns = t1_txns(fast);
    type C = Col<x::OverheadRow>;
    let cols = [
        C::new("protocol", L(24), "protocol", |r| r.protocol.clone()),
        C::new("structural\nearly-cmts", R(10), "structural_early_commits", |r| {
            r.structural_early_commits
        }),
        C::new("read-lock\nlog recs", R(10), "read_lock_records", |r| r.read_lock_records),
        C::new("undo-tag\nwrites", R(9), "undo_tag_writes", |r| r.undo_tag_writes),
        C::new("LBM\nforces", R(10), "lbm_forces", |r| r.lbm_forces),
        C::csv_only("commit_forces", |r| r.commit_forces),
        C::new("committed\ntxns", R(9), "committed", |r| r.committed),
    ];
    let rows = x::table1_overheads(txns);
    // The paper's matrix is the transpose: one row per overhead class, one
    // column per protocol, a checkmark where the measured count is non-zero.
    type Class = (&'static str, fn(&x::OverheadRow) -> u64);
    let classes: [Class; 4] = [
        ("early commit of structural chgs", |r| r.structural_early_commits),
        ("logging of read locks", |r| r.read_lock_records),
        ("undo tagging", |r| r.undo_tag_writes),
        ("higher frequency of log forces", |r| r.lbm_forces),
    ];
    let protocol = |heading, width, name: &str| {
        let row = rows.iter().find(|r| r.protocol.contains(name)).expect("row").clone();
        let mark = move |class: &Class| if class.1(&row) > 0 { "✓" } else { "—" };
        Col::text_only(heading, R(width), mark)
    };
    let matrix = [
        Col::text_only("overhead", L(32), |class: &Class| class.0),
        protocol("Stable LBM", 12, "StableEager"),
        protocol("Vol.+SelectiveRedo", 18, "VolatileSelective"),
        protocol("Vol.+RedoAll", 12, "VolatileRedoAll"),
    ];
    let text = format!(
        "== Table 1: incremental overheads of protocols ensuring IFA ==\n   \
         workload: TP1 debit-credit, 8 nodes, {txns} transactions, history index\n\n\
         {}\n   \
         paper's checkmark matrix (✓ = overhead incurred), derived from the counts:\n\
         {}\n",
        text_table(&cols, &rows),
        text_table(&matrix, &classes)
    );
    Section { text, csv: Some(csv(&cols, &rows)) }
}

fn e1_line_lock(_fast: bool) -> Section {
    type C = Col<x::LineLockPoint>;
    let cols = [
        C::new("contenders", R(10), "contenders", |p| p.contenders),
        C::new("mean (µs)", R(12), "mean_us", |p| p.mean_us)
            .text_as(|p| format!("{:.2}", p.mean_us)),
        C::new("max (µs)", R(12), "max_us", |p| p.max_us).text_as(|p| format!("{:.2}", p.max_us)),
    ];
    let pts = x::e1_line_lock_contention(32);
    let shown = pts.iter().filter(|p| [1, 2, 4, 8, 16, 24, 32].contains(&p.contenders));
    let text = format!(
        "== E1 (§5.1): line-lock acquisition latency vs contention ==\n   \
         paper (KSR-1 measurements): <10 µs uncontended, <40 µs at 32-way\n\n\
         {}\n",
        text_table(&cols, shown)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e2_abort_counts(fast: bool) -> Section {
    type C = Col<x::AbortCountPoint>;
    let cols = [
        C::new("nodes", R(6), "nodes", |p| p.nodes),
        C::new("active", R(8), "active", |p| p.active),
        C::new("FA-only aborts", R(16), "fa_only_aborts", |p| p.fa_only_aborts),
        C::new("IFA aborts", R(12), "ifa_aborts", |p| p.ifa_aborts),
        C::text_only("saved", R(8), |p| format!("{}x", p.fa_only_aborts / p.ifa_aborts.max(1))),
    ];
    let sizes: &[u16] = if fast { &[2, 8, 32] } else { &[2, 8, 32, 128, 1088] };
    let pts = x::e2_abort_counts(sizes, 3);
    let text = format!(
        "== E2 (§1/§3.3): transactions aborted by a single node crash ==\n   \
         (per-node active txns: 3; the paper's motivation — at KSR-1 scale a\n    \
         single failure would otherwise affect thousands of transactions)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e3_recovery_cost(fast: bool) -> Section {
    type C = Col<x::RecoveryCostPoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("sharing", R(8), "sharing", |p| p.sharing).text_as(|p| format!("{:.1}", p.sharing)),
        C::new("redo", R(8), "redo_applied", |p| p.redo_applied),
        C::new("skipped", R(9), "redo_skipped_cached", |p| p.redo_skipped_cached),
        C::new("undo", R(8), "undo_applied", |p| p.undo_applied),
        C::new("scanned", R(8), "scan_records", |p| p.scan_records),
        C::new("rec cycles", R(12), "recovery_cycles", |p| p.recovery_cycles),
        C::new("lost", R(7), "lost_lines", |p| p.lost_lines),
        C::new("st-undo", R(8), "phase_stable_undo_cycles", |p| p.phase_stable_undo),
        C::new("reinstall", R(9), "phase_reinstall_cycles", |p| p.phase_reinstall),
        C::new("discard", R(8), "phase_cache_discard_cycles", |p| p.phase_cache_discard),
        C::new("redo", R(8), "phase_redo_cycles", |p| p.phase_redo),
        C::new("undo", R(8), "phase_undo_cycles", |p| p.phase_undo),
        C::new("locks", R(8), "phase_lock_recovery_cycles", |p| p.phase_lock_recovery),
        C::new("txn-tbl", R(8), "phase_txn_table_cycles", |p| p.phase_txn_table),
    ];
    let pts = x::e3_recovery_cost(mix_txns(fast), &[0.1, 0.5, 0.9]);
    let (totals, phases) = cols.split_at(8);
    let text = format!(
        "== E3 (§4.1.2): Redo All vs Selective Redo recovery cost ==\n\n\
         {}\n   \
         per-phase breakdown of recovery cycles (IFA restart phases):\n\n\
         {}\n",
        text_table(totals, &pts),
        text_table(totals[..2].iter().chain(phases), &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e4_log_forces(fast: bool) -> Section {
    type C = Col<x::LogForcePoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("sharing", R(8), "sharing", |p| p.sharing).text_as(|p| format!("{:.1}", p.sharing)),
        C::new("window", R(7), "window", |p| p.window),
        C::new("forces", R(8), "total_forces", |p| p.total_forces),
        C::new("commit", R(8), "commit_forces", |p| p.commit_forces),
        C::new("LBM", R(8), "lbm_forces", |p| p.lbm_forces),
        C::new("txns", R(8), "committed", |p| p.committed),
        C::new("cyc/txn", R(12), "cycles_per_txn", |p| p.cycles_per_txn),
    ];
    let sharings = [0.0, 0.5, 1.0];
    let mut pts = x::e4_log_forces(mix_txns(fast), &sharings, false, 1);
    pts.extend(x::e4_log_forces(mix_txns(fast), &sharings, false, 8));
    let nvram = x::e4_log_forces(mix_txns(fast), &[0.5], true, 1);
    let text = format!(
        "== E4 (§5.2/§7): log-force frequency by LBM policy and sharing rate ==\n\n\
         {}\n   \
         ablation: NVRAM log device (§7: Stable LBM becomes affordable)\n\n\
         {}\n",
        text_table(&cols, &pts),
        text_table([&cols[0], &cols[1], &cols[3], &cols[7]], &nvram)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e5_coherence(fast: bool) -> Section {
    type C = Col<x::CoherencePoint>;
    let cols = [
        C::text_only("coherence", L(18), |p| p.coherence.clone()),
        C::text_only("lost", R(7), |p| p.lost_lines),
        C::text_only("redo", R(7), |p| p.redo_applied),
        C::text_only("undo", R(7), |p| p.undo_applied),
        C::text_only("traffic (msgs)", R(14), |p| p.coherence_traffic),
    ];
    let text = format!(
        "== E5 (§7): write-invalidate vs write-broadcast recovery demands ==\n\n{}\n",
        text_table(&cols, &x::e5_coherence_comparison(mix_txns(fast)))
    );
    Section { text, csv: None }
}

fn e6_update_protocol(fast: bool) -> Section {
    type C = Col<x::UpdateProtocolPoint>;
    let cols = [
        C::text_only("primitive", L(14), |p| p.primitive.clone()),
        C::text_only("cyc/txn", R(12), |p| p.cycles_per_txn),
        C::text_only("µs per update", R(14), |p| format!("{:.2}", p.us_per_update)),
        C::text_only("crit. section µs", R(18), |p| format!("{:.2}", p.critical_section_us)),
    ];
    let text = format!(
        "== E6 (§6): update-protocol cost, line locks vs semaphores ==\n\n{}\n",
        text_table(&cols, &x::e6_update_protocol(mix_txns(fast)))
    );
    Section { text, csv: None }
}

fn e7_lock_recovery(_fast: bool) -> Section {
    type C = Col<x::LockRecoveryPoint>;
    let cols = [
        C::text_only("LCB layout", L(28), |p| p.layout.clone()),
        C::text_only("lines", R(9), |p| p.lines_reinstalled),
        C::text_only("released", R(9), |p| p.crashed_entries_released),
        C::text_only("rebuilt", R(9), |p| p.lcbs_reconstructed),
        C::text_only("restored", R(9), |p| p.survivor_entries_restored),
        C::text_only("promoted", R(9), |p| p.promotions),
    ];
    let text = format!(
        "== E7 (§4.2.2): lock-space recovery after a node crash ==\n\n{}\n",
        text_table(&cols, &x::e7_lock_recovery(4))
    );
    Section { text, csv: None }
}

fn e7_recovery_scaling(fast: bool) -> Section {
    type C = Col<x::RecoveryScalingPoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("history", R(8), "history_txns", |p| p.history_txns),
        C::new("ckpt", R(6), "checkpoint_every", |p| p.checkpoint_every),
        C::new("scanned", R(9), "scan_records", |p| p.scan_records),
        C::new("redo", R(8), "redo_applied", |p| p.redo_applied),
        C::new("skipped", R(9), "redo_skipped", |p| p.redo_skipped),
        C::csv_only("ckpt_bound_lsn", |p| p.ckpt_bound_lsn),
        C::new("rec cycles", R(12), "recovery_cycles", |p| p.recovery_cycles),
    ];
    let interval = 25;
    let lens: &[usize] = if fast { &[50, 200] } else { &[50, 200, 400] };
    let pts = x::e7_recovery_scaling(lens, interval);
    let text = format!(
        "== E7b: checkpoint-bounded restart — recovery cost vs history length ==\n   \
         sharp checkpoint every {interval} txns vs none; crash one of 8 nodes after the mix\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e9_colocation(fast: bool) -> Section {
    type C = Col<x::ColocationPoint>;
    let cols = [
        C::text_only("recs/line", R(9), |p| p.records_per_line),
        C::text_only("rec size", R(9), |p| p.rec_data_size),
        C::text_only("ww traffic", R(12), |p| p.coherence_traffic),
        C::text_only("lost", R(7), |p| p.lost_lines),
        C::text_only("recovery ops", R(13), |p| p.recovery_work),
        C::text_only("B/rec slot", R(11), |p| p.bytes_per_record_slot),
    ];
    let text = format!(
        "== E9 (§3.1 ablation): record co-location per cache line ==\n\n{}\n",
        text_table(&cols, &x::e9_colocation(mix_txns(fast)))
    );
    Section { text, csv: None }
}

fn e8_btree_recovery(fast: bool) -> Section {
    let pt = x::e8_btree_recovery(mix_txns(fast));
    let text = format!(
        "== E8 (§4.2.1): B-tree recovery ==\n\n\
         committed index ops:        {}\n\
         structural early commits:   {}\n\
         tree pages reinstalled:     {}\n\
         index redo ops applied:     {}\n\
         index undo ops applied:     {}\n\n",
        pt.committed_ops,
        pt.structural_changes,
        pt.pages_reinstalled,
        pt.index_redo_applied,
        pt.index_undo_applied
    );
    Section { text, csv: None }
}

fn e9_latency(fast: bool) -> Section {
    // A stage: its cycles in the CSV, its share of the total in the text.
    fn stage(
        heading: &'static str,
        csv: &'static str,
        cycles: fn(&x::LatencyPoint) -> u64,
    ) -> Col<x::LatencyPoint> {
        Col::new(heading, R(7), csv, cycles).text_as(move |p| {
            format!("{:.1}%", 100.0 * cycles(p) as f64 / p.total_latency_cycles.max(1) as f64)
        })
    }
    type C = Col<x::LatencyPoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("txns", R(6), "committed", |p| p.committed),
        C::csv_only("aborted", |p| p.aborted),
        C::new("cyc/txn", R(10), "cycles_per_txn", |p| p.cycles_per_txn),
        C::new("physical", R(9), "physical_forces", |p| p.physical_forces),
        C::csv_only("mean_cycles", |p| p.mean_cycles),
        C::new("p50", R(10), "p50_cycles", |p| p.p50_cycles),
        C::new("p99", R(10), "p99_cycles", |p| p.p99_cycles),
        C::new("p999", R(10), "p999_cycles", |p| p.p999_cycles),
        C::csv_only("max_cycles", |p| p.max_cycles),
        C::csv_only("total_latency_cycles", |p| p.total_latency_cycles),
        stage("lock%", "lock_wait_cycles", |p| p.lock_wait_cycles),
        stage("exec%", "execute_cycles", |p| p.execute_cycles),
        stage("appnd%", "log_append_cycles", |p| p.log_append_cycles),
        stage("force%", "force_wait_cycles", |p| p.force_wait_cycles),
        stage("commit%", "commit_cycles", |p| p.commit_cycles),
        C::csv_only("attributed_fraction", |p| p.attributed_fraction),
    ];
    let txns = t1_txns(fast);
    let pts = x::e9_latency(txns);
    let text = format!(
        "== E9-lat: transaction-latency breakdown by protocol ==\n   \
         (8 nodes, {txns} TP1 transactions per protocol, spans enabled;\n    \
         cycles attributed lock-wait / execute / log-append / force-wait /\n    \
         commit; latencies in simulated cycles)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e10_blast_radius(_fast: bool) -> Section {
    type C = Col<x::ParallelBlastPoint>;
    let cols = [
        C::text_only("fan", R(5), |p| p.fan),
        C::text_only("active", R(8), |p| p.active),
        C::text_only("aborted", R(9), |p| p.aborted),
        C::text_only("kill fraction", R(14), |p| format!("{:.0}%", p.kill_fraction * 100.0)),
    ];
    let text = format!(
        "== E10 (§9 extension): parallel transactions widen the blast radius ==\n   \
         (8 nodes, 2 active txns homed per node, crash one node)\n\n\
         {}\n",
        text_table(&cols, &x::e10_parallel_blast_radius(2))
    );
    Section { text, csv: None }
}

fn e10_elr(fast: bool) -> Section {
    type C = Col<x::ElrPoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("elr", R(4), "elr", |p| p.elr).text_as(|p| on_off(p.elr)),
        C::new("txns", R(6), "committed", |p| p.committed),
        C::new("cyc/txn", R(10), "cycles_per_txn", |p| p.cycles_per_txn),
        C::new("lock-wait", R(12), "lock_wait_cycles", |p| p.lock_wait_cycles),
        C::new("stalls", R(8), "lock_stalls", |p| p.lock_stalls),
        C::new("violated", R(9), "early_released", |p| p.early_released),
        C::new("deps", R(6), "commit_deps", |p| p.commit_deps),
        C::csv_only("dep_aborts", |p| p.dep_aborts),
        C::csv_only("physical_forces", |p| p.physical_forces),
        C::new("rec-frcd", R(9), "records_forced", |p| p.records_forced),
    ];
    let txns = mix_txns(fast);
    let pts = x::e10_elr(txns);
    let text = format!(
        "== E10-elr: early lock release + pipelined group commit ==\n   \
         (8 nodes, {txns} contended Zipf TP1 txns per cell, pipelined\n    \
         commit window 8, polling locks; ELR releases write locks at\n    \
         commit-record append)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e11_instant_restart(fast: bool) -> Section {
    type C = Col<x::InstantRestartPoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("instant", R(8), "instant", |p| p.instant).text_as(|p| on_off(p.instant)),
        C::new("ttft-cyc", R(12), "ttft_cycles", |p| p.ttft_cycles),
        C::new("recovery", R(12), "recovery_cycles", |p| p.recovery_cycles),
        C::new("redo", R(6), "redo_total", |p| p.redo_total),
        C::new("on-dem", R(9), "redo_on_demand", |p| p.redo_on_demand),
        C::new("bkgnd", R(7), "redo_background", |p| p.redo_background),
        C::new("skip", R(7), "redo_skipped_stable", |p| p.redo_skipped_stable),
        C::csv_only("state_digest", |p| format!("{:016x}", p.state_digest)),
        C::new("state", R(6), "matches_committed", |p| p.matches_committed).text_as(|p| {
            if p.matches_committed {
                "ok"
            } else {
                "BAD"
            }
        }),
    ];
    let (txns, ckpt) = if fast { (200, 25) } else { (600, 50) };
    let pts = x::e11_instant_restart(txns, ckpt);
    let mut text = format!(
        "== E11: instant restart — serve transactions during recovery ==\n   \
         (8 nodes, E7b-scale history: {txns} txns, checkpoint every {ckpt};\n    \
         crash node 0, first txn = locked read in its partition; drain to\n    \
         completion, then compare end state byte-for-byte with eager)\n\n\
         {}",
        text_table(&cols, &pts)
    );
    for pair in pts.chunks(2) {
        if let [eager, instant] = pair {
            text += &format!(
                "   {}: TTFT {:.1}x lower, end state {}\n",
                eager.protocol,
                eager.ttft_cycles as f64 / instant.ttft_cycles.max(1) as f64,
                if eager.state_digest == instant.state_digest { "identical" } else { "DIVERGED" },
            );
        }
    }
    text.push('\n');
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e12_multicore(fast: bool) -> Section {
    type C = Col<x::MulticorePoint>;
    let cols = [
        C::new("cell", L(16), "cell", |p| p.cell.clone()),
        C::new("threads", R(7), "threads", |p| p.threads),
        C::new("txns", R(6), "committed", |p| p.committed),
        C::csv_only("sim_cycles", |p| p.sim_cycles),
        C::new("cyc/txn", R(8), "cycles_per_txn", |p| p.sim_cycles / p.committed.max(1)),
        C::new("forces", R(7), "commit_forces", |p| p.commit_forces),
        C::new("epochs", R(7), "epochs", |p| p.epochs),
        C::new("max-ep", R(7), "max_epoch_txns", |p| p.max_epoch_txns),
        C::new("d-conf", R(7), "data_conflicts", |p| p.data_conflicts),
        C::new("l-conf", R(7), "lock_conflicts", |p| p.lock_conflicts),
        C::csv_only("epoch_waits", |p| p.epoch_waits),
        C::new("retries", R(8), "serial_retries", |p| p.serial_retries),
        C::csv_only("state_digest", |p| format!("{:016x}", p.state_digest)),
    ];
    let txns = if fast { 800 } else { 4000 };
    let pts = x::e12_multicore(txns);
    let text = format!(
        "== E12: true multicore execution — epoch lanes on OS threads ==\n   \
         (8 nodes, 64 coherence shards, {txns} update txns per cell; every\n    \
         column is simulated and must not vary with the thread count)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e13_checkpoint(_fast: bool) -> Section {
    type C = Col<x::CheckpointPoint>;
    let cols = [
        C::new("nodes", R(6), "nodes", |p| p.nodes),
        C::new("flushed", R(8), "pages_flushed", |p| p.pages_flushed),
        C::new("max/node", R(9), "max_pages_per_flusher", |p| p.max_pages_per_flusher),
        C::new("makespan", R(12), "makespan_cycles", |p| p.makespan_cycles),
        C::new("lost", R(7), "lost_lines", |p| p.lost_lines),
    ];
    let pages = 84;
    let pts = x::e13_checkpoint(pages);
    let text = format!(
        "== E13: a checkpoint written back by every live node ==\n   \
         (node 0 commits two updates on each of {pages} pages, clocks are\n    \
         synchronised, node 0 hosts a checkpoint and then crashes; a page is\n    \
         flushed by the least-loaded live node that did not update it)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e14_restart_scan(_fast: bool) -> Section {
    type C = Col<x::RestartScanPoint>;
    let cols = [
        C::new("nodes", R(6), "nodes", |p| p.nodes),
        C::new("scanned", R(9), "scan_records", |p| p.scan_records),
        C::new("max/node", R(9), "scan_records_max", |p| p.scan_records_max),
        C::new("st-undo", R(12), "phase_stable_undo_cycles", |p| p.stable_undo_cycles),
        C::new("rec cycles", R(12), "recovery_cycles", |p| p.recovery_cycles),
    ];
    let txns = 150;
    let pts = x::e14_restart_scan(txns);
    let text = format!(
        "== E14: every live node scans a log ==\n   \
         (every node commits the same {txns} two-update transactions in its own\n    \
         partition, no checkpoint; clocks are synchronised, node 0 crashes; a\n    \
         survivor reads its own log, the least-loaded one node 0's as well)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e15_restart_reads(_fast: bool) -> Section {
    type C = Col<x::RestartReadsPoint>;
    let cols = [
        C::new("nodes", R(6), "nodes", |p| p.nodes),
        C::new("lost", R(6), "lost_pages", |p| p.lost_pages),
        C::new("read", R(6), "pages_read", |p| p.pages_read),
        C::new("max/node", R(9), "pages_read_max", |p| p.pages_read_max),
        C::new("redo", R(12), "phase_redo_cycles", |p| p.redo_cycles),
        C::new("rec cycles", R(12), "recovery_cycles", |p| p.recovery_cycles),
    ];
    let pages = 84;
    let pts = x::e15_restart_reads(pages);
    let text = format!(
        "== E15: every live node reads a share of the restart's pages ==\n   \
         (node 0 commits one update on each of {pages} pages, clocks are\n    \
         synchronised, node 0 crashes; each lost page is read back by the\n    \
         least-loaded live node, between two barriers)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e16_restart_skeleton(_fast: bool) -> Section {
    type C = Col<x::RestartSkeletonPoint>;
    let cols = [
        C::new("nodes", R(6), "nodes", |p| p.nodes),
        C::new("lost", R(6), "lost_tree_pages", |p| p.lost_pages),
        C::new("read", R(6), "tree_pages_read", |p| p.pages_read),
        C::new("reinstall", R(12), "phase_reinstall_cycles", |p| p.reinstall_cycles),
        C::new("rec cycles", R(12), "recovery_cycles", |p| p.recovery_cycles),
    ];
    let keys = 2000;
    let pts = x::e16_restart_skeleton(keys);
    let text = format!(
        "== E16: every live node reads a share of the index skeleton ==\n   \
         (node 0 commits {keys} index inserts, writes its tree pages back and\n    \
         checkpoints; clocks are synchronised, node 0 crashes; each tree page\n    \
         is read back by the least-loaded live node, between two barriers)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}

fn e17_read_only_commit(fast: bool) -> Section {
    type C = Col<x::ReadOnlyCommitPoint>;
    let cols = [
        C::new("protocol", L(24), "protocol", |p| p.protocol.clone()),
        C::new("reads", R(6), "read_fraction", |p| p.read_fraction),
        C::new("txns", R(6), "committed", |p| p.committed),
        C::new("read-only", R(10), "read_only_commits", |p| p.read_only_commits),
        C::new("forces", R(7), "physical_forces", |p| p.physical_forces),
        C::new("frc/txn", R(8), "forces_per_txn", |p| {
            format!("{:.3}", p.physical_forces as f64 / p.committed.max(1) as f64)
        }),
        C::new("cyc/txn", R(10), "cycles_per_txn", |p| p.cycles_per_txn),
    ];
    let txns = mix_txns(fast);
    let pts = x::e17_read_only_commit(txns);
    let text = format!(
        "== E17: a read-only commit writes no commit record and forces nothing ==\n   \
         (8 nodes, {txns} serial mix txns of 4 ops per cell, no index, no\n    \
         checkpoint; a transaction that logged no data record is\n    \
         acknowledged once the writes it read are durable)\n\n\
         {}\n",
        text_table(&cols, &pts)
    );
    Section { text, csv: Some(csv(&cols, &pts)) }
}
