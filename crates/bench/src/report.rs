//! The paper-mapped tables and figures (DESIGN.md §3), rendered from the
//! experiment functions in simulated cycles only — host time is `perf`'s
//! question (`perf/README.md`).
//!
//! [`render`] is the one entry point: the `report` binary prints what it
//! returns, and `tests/report.rs` pins the `--fast` rendering byte for
//! byte (`tests/golden/report_fast.golden`).

use crate as x;
use std::fmt::Write as _;

/// The rendered output of one experiment cell: its stdout section and,
/// for the cells that have one, the rows of `results/<cell name>.csv`.
struct Section {
    text: String,
    csv: Option<Csv>,
}

struct Csv {
    header: &'static str,
    rows: Vec<String>,
}

impl Section {
    fn text_only(text: String) -> Section {
        Section { text, csv: None }
    }
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
pub const CELLS: [Cell; 17] = [
    Cell { name: "table1", run: table1_cell },
    Cell { name: "e1_line_lock", run: e1_cell },
    Cell { name: "e2_abort_counts", run: e2_cell },
    Cell { name: "e3_recovery_cost", run: e3_cell },
    Cell { name: "e4_log_forces", run: e4_cell },
    Cell { name: "e5_coherence", run: e5_cell },
    Cell { name: "e6_update_protocol", run: e6_cell },
    Cell { name: "e7_lock_recovery", run: e7_cell },
    Cell { name: "e7_recovery_scaling", run: e7scale_cell },
    Cell { name: "e9_colocation", run: e9_cell },
    Cell { name: "e8_btree_recovery", run: e8_cell },
    Cell { name: "e8_forward_throughput", run: e8fwd_cell },
    Cell { name: "e9_latency", run: e9lat_cell },
    Cell { name: "e10_blast_radius", run: e10_cell },
    Cell { name: "e10_elr", run: e10elr_cell },
    Cell { name: "e11_instant_restart", run: e11instant_cell },
    Cell { name: "e12_multicore", run: e12mt_cell },
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
        if let Some(csv) = section.csv {
            let mut file = format!("{}\n", csv.header);
            for row in &csv.rows {
                file += row;
                file.push('\n');
            }
            csvs.push((cell.name, file));
        }
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

fn table1_cell(fast: bool) -> Section {
    let t1_txns = t1_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== Table 1: incremental overheads of protocols ensuring IFA ==");
    let _ = writeln!(
        p,
        "   workload: TP1 debit-credit, 8 nodes, {t1_txns} transactions, history index\n"
    );
    let rows = x::table1_overheads(t1_txns);
    let _ = writeln!(
        p,
        "{:<24} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "protocol", "structural", "read-lock", "undo-tag", "LBM", "committed"
    );
    let _ = writeln!(
        p,
        "{:<24} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "", "early-cmts", "log recs", "writes", "forces", "txns"
    );
    for r in &rows {
        let _ = writeln!(
            p,
            "{:<24} {:>10} {:>10} {:>9} {:>10} {:>9}",
            r.protocol,
            r.structural_early_commits,
            r.read_lock_records,
            r.undo_tag_writes,
            r.lbm_forces,
            r.committed
        );
    }
    let csv = Some(Csv {
        header: "protocol,structural_early_commits,read_lock_records,undo_tag_writes,lbm_forces,commit_forces,committed",
        rows: rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{}",
                    r.protocol,
                    r.structural_early_commits,
                    r.read_lock_records,
                    r.undo_tag_writes,
                    r.lbm_forces,
                    r.commit_forces,
                    r.committed
                )
            })
            .collect(),
    });
    let _ = writeln!(
        p,
        "\n   paper's checkmark matrix (✓ = overhead incurred), derived from the counts:"
    );
    let _ = writeln!(
        p,
        "{:<32} {:>12} {:>18} {:>12}",
        "overhead", "Stable LBM", "Vol.+SelectiveRedo", "Vol.+RedoAll"
    );
    let find = |s: &str| rows.iter().find(|r| r.protocol.contains(s)).expect("row");
    let sel = find("VolatileSelective");
    let all = find("VolatileRedoAll");
    let stable = find("StableTriggered");
    let mark = |v: u64| if v > 0 { "✓" } else { "—" };
    let _ = writeln!(
        p,
        "{:<32} {:>12} {:>18} {:>12}",
        "early commit of structural chgs",
        mark(stable.structural_early_commits),
        mark(sel.structural_early_commits),
        mark(all.structural_early_commits)
    );
    let _ = writeln!(
        p,
        "{:<32} {:>12} {:>18} {:>12}",
        "logging of read locks",
        mark(stable.read_lock_records),
        mark(sel.read_lock_records),
        mark(all.read_lock_records)
    );
    let _ = writeln!(
        p,
        "{:<32} {:>12} {:>18} {:>12}",
        "undo tagging",
        mark(stable.undo_tag_writes),
        mark(sel.undo_tag_writes),
        mark(all.undo_tag_writes)
    );
    let _ = writeln!(
        p,
        "{:<32} {:>12} {:>18} {:>12}",
        "higher frequency of log forces",
        mark(stable.lbm_forces),
        mark(sel.lbm_forces),
        mark(all.lbm_forces)
    );
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e1_cell(_fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E1 (§5.1): line-lock acquisition latency vs contention ==");
    let _ = writeln!(p, "   paper (KSR-1 measurements): <10 µs uncontended, <40 µs at 32-way\n");
    let _ = writeln!(p, "{:>10} {:>12} {:>12}", "contenders", "mean (µs)", "max (µs)");
    let pts = x::e1_line_lock_contention(32);
    for pt in &pts {
        if [1, 2, 4, 8, 16, 24, 32].contains(&pt.contenders) {
            let _ = writeln!(p, "{:>10} {:>12.2} {:>12.2}", pt.contenders, pt.mean_us, pt.max_us);
        }
    }
    let csv = Some(Csv {
        header: "contenders,mean_us,max_us",
        rows: pts
            .iter()
            .map(|pt| format!("{},{},{}", pt.contenders, pt.mean_us, pt.max_us))
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e2_cell(fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E2 (§1/§3.3): transactions aborted by a single node crash ==");
    let _ = writeln!(p, "   (per-node active txns: 3; the paper's motivation — at KSR-1 scale a");
    let _ = writeln!(p, "    single failure would otherwise affect thousands of transactions)\n");
    let sizes: &[u16] = if fast { &[2, 8, 32] } else { &[2, 8, 32, 128, 1088] };
    let _ = writeln!(
        p,
        "{:>6} {:>8} {:>16} {:>12} {:>8}",
        "nodes", "active", "FA-only aborts", "IFA aborts", "saved"
    );
    let pts = x::e2_abort_counts(sizes, 3);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:>6} {:>8} {:>16} {:>12} {:>7}x",
            pt.nodes,
            pt.active,
            pt.fa_only_aborts,
            pt.ifa_aborts,
            pt.fa_only_aborts / pt.ifa_aborts.max(1)
        );
    }
    let csv = Some(Csv {
        header: "nodes,active,fa_only_aborts,ifa_aborts",
        rows: pts
            .iter()
            .map(|pt| format!("{},{},{},{}", pt.nodes, pt.active, pt.fa_only_aborts, pt.ifa_aborts))
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e3_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E3 (§4.1.2): Redo All vs Selective Redo recovery cost ==\n");
    let _ = writeln!(
        p,
        "{:<24} {:>8} {:>8} {:>9} {:>8} {:>8} {:>12} {:>7}",
        "protocol", "sharing", "redo", "skipped", "undo", "scanned", "rec cycles", "lost"
    );
    let pts = x::e3_recovery_cost(mix_txns, &[0.1, 0.5, 0.9]);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>8.1} {:>8} {:>9} {:>8} {:>8} {:>12} {:>7}",
            pt.protocol,
            pt.sharing,
            pt.redo_applied,
            pt.redo_skipped_cached,
            pt.undo_applied,
            pt.scan_records,
            pt.recovery_cycles,
            pt.lost_lines
        );
    }
    let _ = writeln!(p, "\n   per-phase breakdown of recovery cycles (IFA restart phases):\n");
    let _ = writeln!(
        p,
        "{:<24} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "protocol",
        "sharing",
        "st-undo",
        "reinstall",
        "discard",
        "redo",
        "undo",
        "locks",
        "txn-tbl"
    );
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>8.1} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
            pt.protocol,
            pt.sharing,
            pt.phase_stable_undo,
            pt.phase_reinstall,
            pt.phase_cache_discard,
            pt.phase_redo,
            pt.phase_undo,
            pt.phase_lock_recovery,
            pt.phase_txn_table
        );
    }
    let csv = Some(Csv {
        header: "protocol,sharing,redo_applied,redo_skipped_cached,undo_applied,scan_records,recovery_cycles,lost_lines,\
             phase_stable_undo_cycles,phase_reinstall_cycles,phase_cache_discard_cycles,phase_redo_cycles,\
             phase_undo_cycles,phase_lock_recovery_cycles,phase_txn_table_cycles",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    pt.protocol,
                    pt.sharing,
                    pt.redo_applied,
                    pt.redo_skipped_cached,
                    pt.undo_applied,
                    pt.scan_records,
                    pt.recovery_cycles,
                    pt.lost_lines,
                    pt.phase_stable_undo,
                    pt.phase_reinstall,
                    pt.phase_cache_discard,
                    pt.phase_redo,
                    pt.phase_undo,
                    pt.phase_lock_recovery,
                    pt.phase_txn_table
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e4_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E4 (§5.2/§7): log-force frequency by LBM policy and sharing rate ==\n");
    let _ = writeln!(
        p,
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "protocol", "sharing", "forces", "commit", "LBM", "txns", "cyc/txn"
    );
    let pts = x::e4_log_forces(mix_txns, &[0.0, 0.5, 1.0], false);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>8.1} {:>8} {:>8} {:>8} {:>8} {:>12}",
            pt.protocol,
            pt.sharing,
            pt.total_forces,
            pt.commit_forces,
            pt.lbm_forces,
            pt.committed,
            pt.cycles_per_txn
        );
    }
    let csv = Some(Csv {
        header: "protocol,sharing,total_forces,forces_requested,commit_forces,lbm_forces,committed,cycles_per_txn",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{}",
                    pt.protocol,
                    pt.sharing,
                    pt.total_forces,
                    pt.forces_requested,
                    pt.commit_forces,
                    pt.lbm_forces,
                    pt.committed,
                    pt.cycles_per_txn
                )
            })
            .collect(),
    });
    let _ = writeln!(p, "\n   ablation: NVRAM log device (§7: Stable LBM becomes affordable)\n");
    let _ = writeln!(p, "{:<24} {:>8} {:>8} {:>12}", "protocol", "sharing", "forces", "cyc/txn");
    for pt in x::e4_log_forces(mix_txns, &[0.5], true) {
        let _ = writeln!(
            p,
            "{:<24} {:>8.1} {:>8} {:>12}",
            pt.protocol, pt.sharing, pt.total_forces, pt.cycles_per_txn
        );
    }
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e5_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E5 (§7): write-invalidate vs write-broadcast recovery demands ==\n");
    let _ = writeln!(
        p,
        "{:<18} {:>7} {:>7} {:>7} {:>14}",
        "coherence", "lost", "redo", "undo", "traffic (msgs)"
    );
    for pt in x::e5_coherence_comparison(mix_txns) {
        let _ = writeln!(
            p,
            "{:<18} {:>7} {:>7} {:>7} {:>14}",
            pt.coherence, pt.lost_lines, pt.redo_applied, pt.undo_applied, pt.coherence_traffic
        );
    }
    let _ = writeln!(p);
    Section::text_only(s)
}

fn e6_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E6 (§6): update-protocol cost, line locks vs semaphores ==\n");
    let _ = writeln!(
        p,
        "{:<14} {:>12} {:>14} {:>18}",
        "primitive", "cyc/txn", "µs per update", "crit. section µs"
    );
    let pts = x::e6_update_protocol(mix_txns);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<14} {:>12} {:>14.2} {:>18.2}",
            pt.primitive, pt.cycles_per_txn, pt.us_per_update, pt.critical_section_us
        );
    }
    let _ = writeln!(p);
    Section::text_only(s)
}

fn e7_cell(_fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E7 (§4.2.2): lock-space recovery after a node crash ==\n");
    let _ = writeln!(
        p,
        "{:<28} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "LCB layout", "lines", "released", "rebuilt", "restored", "promoted"
    );
    for pt in x::e7_lock_recovery(4) {
        let _ = writeln!(
            p,
            "{:<28} {:>9} {:>9} {:>9} {:>9} {:>9}",
            pt.layout,
            pt.lines_reinstalled,
            pt.crashed_entries_released,
            pt.lcbs_reconstructed,
            pt.survivor_entries_restored,
            pt.promotions
        );
    }
    let _ = writeln!(p);
    Section::text_only(s)
}

fn e7scale_cell(fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E7b: checkpoint-bounded restart — recovery cost vs history length ==");
    let interval = 25;
    let lens: &[usize] = if fast { &[50, 200] } else { &[50, 200, 400] };
    let _ = writeln!(
        p,
        "   sharp checkpoint every {interval} txns vs none; crash one of 8 nodes after the mix\n"
    );
    let _ = writeln!(
        p,
        "{:<24} {:>8} {:>6} {:>9} {:>8} {:>9} {:>12}",
        "protocol", "history", "ckpt", "scanned", "redo", "skipped", "rec cycles"
    );
    let pts = x::e7_recovery_scaling(lens, interval);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>8} {:>6} {:>9} {:>8} {:>9} {:>12}",
            pt.protocol,
            pt.history_txns,
            pt.checkpoint_every,
            pt.scan_records,
            pt.redo_applied,
            pt.redo_skipped,
            pt.recovery_cycles
        );
    }
    let csv = Some(Csv {
        header: "protocol,history_txns,checkpoint_every,scan_records,redo_applied,redo_skipped,\
             ckpt_bound_lsn,recovery_cycles",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{}",
                    pt.protocol,
                    pt.history_txns,
                    pt.checkpoint_every,
                    pt.scan_records,
                    pt.redo_applied,
                    pt.redo_skipped,
                    pt.ckpt_bound_lsn,
                    pt.recovery_cycles
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e9_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E9 (§3.1 ablation): record co-location per cache line ==\n");
    let _ = writeln!(
        p,
        "{:>9} {:>9} {:>12} {:>7} {:>13} {:>11}",
        "recs/line", "rec size", "ww traffic", "lost", "recovery ops", "B/rec slot"
    );
    for pt in x::e9_colocation(mix_txns) {
        let _ = writeln!(
            p,
            "{:>9} {:>9} {:>12} {:>7} {:>13} {:>11}",
            pt.records_per_line,
            pt.rec_data_size,
            pt.coherence_traffic,
            pt.lost_lines,
            pt.recovery_work,
            pt.bytes_per_record_slot
        );
    }
    let _ = writeln!(p);
    Section::text_only(s)
}

fn e8_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E8 (§4.2.1): B-tree recovery ==\n");
    let pt = x::e8_btree_recovery(mix_txns);
    let _ = writeln!(p, "committed index ops:        {}", pt.committed_ops);
    let _ = writeln!(p, "structural early commits:   {}", pt.structural_changes);
    let _ = writeln!(p, "tree pages reinstalled:     {}", pt.pages_reinstalled);
    let _ = writeln!(p, "index redo ops applied:     {}", pt.index_redo_applied);
    let _ = writeln!(p, "index undo ops applied:     {}", pt.index_undo_applied);
    let _ = writeln!(p);
    Section::text_only(s)
}

fn e8fwd_cell(fast: bool) -> Section {
    let t1_txns = t1_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E8-fwd: forward-path fast lane — TP1 with coalesced log forces ==");
    let _ = writeln!(p, "   (8 nodes, {t1_txns} TP1 transactions per cell; coalescing defers LBM");
    let _ = writeln!(p, "    force requests to the coherence trigger / next covering force)\n");
    let _ = writeln!(
        p,
        "{:<24} {:>9} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "protocol", "coalesce", "txns", "cyc/txn", "requested", "physical", "fast-hits"
    );
    let pts = x::e8_forward_throughput(t1_txns);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>9} {:>8} {:>12} {:>10} {:>10} {:>10}",
            pt.protocol,
            if pt.coalesce { "on" } else { "off" },
            pt.committed,
            pt.cycles_per_txn,
            pt.forces_requested,
            pt.physical_forces,
            pt.lock_fast_hits
        );
    }
    let csv = Some(Csv {
        header: "protocol,coalesce,committed,cycles_per_txn,tps_per_mcycle,forces_requested,\
             physical_forces,records_forced,lock_fast_hits",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{},{}",
                    pt.protocol,
                    pt.coalesce,
                    pt.committed,
                    pt.cycles_per_txn,
                    pt.tps_per_mcycle,
                    pt.forces_requested,
                    pt.physical_forces,
                    pt.records_forced,
                    pt.lock_fast_hits
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e9lat_cell(fast: bool) -> Section {
    let t1_txns = t1_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E9-lat: transaction-latency breakdown by protocol ==");
    let _ = writeln!(p, "   (8 nodes, {t1_txns} TP1 transactions per protocol, spans enabled;");
    let _ = writeln!(p, "    cycles attributed lock-wait / execute / log-append / force-wait /");
    let _ = writeln!(p, "    commit; latencies in simulated cycles)\n");
    let _ = writeln!(
        p,
        "{:<24} {:>6} {:>10} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "protocol", "txns", "p50", "p99", "p999", "lock%", "exec%", "appnd%", "force%", "commit%"
    );
    let pts = x::e9_latency(t1_txns);
    for pt in &pts {
        let total = pt.total_latency_cycles.max(1) as f64;
        let pct = |c: u64| 100.0 * c as f64 / total;
        let _ = writeln!(
            p,
            "{:<24} {:>6} {:>10} {:>10} {:>10} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            pt.protocol,
            pt.committed,
            pt.p50_cycles,
            pt.p99_cycles,
            pt.p999_cycles,
            pct(pt.lock_wait_cycles),
            pct(pt.execute_cycles),
            pct(pt.log_append_cycles),
            pct(pt.force_wait_cycles),
            pct(pt.commit_cycles)
        );
    }
    let csv = Some(Csv {
        header: "protocol,committed,aborted,mean_cycles,p50_cycles,p99_cycles,p999_cycles,\
             max_cycles,total_latency_cycles,lock_wait_cycles,execute_cycles,\
             log_append_cycles,force_wait_cycles,commit_cycles,attributed_fraction",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    pt.protocol,
                    pt.committed,
                    pt.aborted,
                    pt.mean_cycles,
                    pt.p50_cycles,
                    pt.p99_cycles,
                    pt.p999_cycles,
                    pt.max_cycles,
                    pt.total_latency_cycles,
                    pt.lock_wait_cycles,
                    pt.execute_cycles,
                    pt.log_append_cycles,
                    pt.force_wait_cycles,
                    pt.commit_cycles,
                    pt.attributed_fraction
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e10elr_cell(fast: bool) -> Section {
    let mix_txns = mix_txns(fast);
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E10-elr: early lock release + pipelined group commit ==");
    let _ = writeln!(p, "   (8 nodes, {mix_txns} contended Zipf TP1 txns per cell, pipelined");
    let _ = writeln!(p, "    commit window 8, polling locks, coalesced forces; ELR releases");
    let _ = writeln!(p, "    write locks at commit-record append)\n");
    let _ = writeln!(
        p,
        "{:<24} {:>4} {:>6} {:>10} {:>12} {:>8} {:>9} {:>6} {:>9}",
        "protocol", "elr", "txns", "cyc/txn", "lock-wait", "stalls", "violated", "deps", "rec-frcd"
    );
    let pts = x::e10_elr(mix_txns);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>4} {:>6} {:>10} {:>12} {:>8} {:>9} {:>6} {:>9}",
            pt.protocol,
            if pt.elr { "on" } else { "off" },
            pt.committed,
            pt.cycles_per_txn,
            pt.lock_wait_cycles,
            pt.lock_stalls,
            pt.early_released,
            pt.commit_deps,
            pt.records_forced
        );
    }
    let csv = Some(Csv {
        header: "protocol,elr,committed,cycles_per_txn,lock_wait_cycles,lock_stalls,\
             early_released,commit_deps,dep_aborts,forces_requested,physical_forces,\
             records_forced",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{}",
                    pt.protocol,
                    pt.elr,
                    pt.committed,
                    pt.cycles_per_txn,
                    pt.lock_wait_cycles,
                    pt.lock_stalls,
                    pt.early_released,
                    pt.commit_deps,
                    pt.dep_aborts,
                    pt.forces_requested,
                    pt.physical_forces,
                    pt.records_forced
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e11instant_cell(fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let (txns, ckpt) = if fast { (200, 25) } else { (600, 50) };
    let _ = writeln!(p, "== E11: instant restart — serve transactions during recovery ==");
    let _ = writeln!(p, "   (8 nodes, E7b-scale history: {txns} txns, checkpoint every {ckpt};");
    let _ = writeln!(p, "    crash node 0, first txn = locked read in its partition; drain to");
    let _ = writeln!(p, "    completion, then compare end state byte-for-byte with eager)\n");
    let _ = writeln!(
        p,
        "{:<24} {:>8} {:>12} {:>12} {:>6} {:>9} {:>7} {:>7} {:>6}",
        "protocol", "instant", "ttft-cyc", "recovery", "redo", "on-dem", "bkgnd", "skip", "state"
    );
    let pts = x::e11_instant_restart(txns, ckpt);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<24} {:>8} {:>12} {:>12} {:>6} {:>9} {:>7} {:>7} {:>6}",
            pt.protocol,
            if pt.instant { "on" } else { "off" },
            pt.ttft_cycles,
            pt.recovery_cycles,
            pt.redo_total,
            pt.redo_on_demand,
            pt.redo_background,
            pt.redo_skipped_stable,
            if pt.matches_committed { "ok" } else { "BAD" },
        );
    }
    for pair in pts.chunks(2) {
        if let [eager, instant] = pair {
            let _ = writeln!(
                p,
                "   {}: TTFT {:.1}x lower, end state {}",
                eager.protocol,
                eager.ttft_cycles as f64 / instant.ttft_cycles.max(1) as f64,
                if eager.state_digest == instant.state_digest { "identical" } else { "DIVERGED" },
            );
        }
    }
    let csv = Some(Csv {
        header: "protocol,instant,ttft_cycles,recovery_cycles,redo_total,redo_on_demand,\
             redo_background,redo_skipped_stable,state_digest,matches_committed",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{},{:016x},{}",
                    pt.protocol,
                    pt.instant,
                    pt.ttft_cycles,
                    pt.recovery_cycles,
                    pt.redo_total,
                    pt.redo_on_demand,
                    pt.redo_background,
                    pt.redo_skipped_stable,
                    pt.state_digest,
                    pt.matches_committed
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e12mt_cell(fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let txns = if fast { 800 } else { 4000 };
    let _ = writeln!(p, "== E12: true multicore execution — epoch lanes on OS threads ==");
    let _ = writeln!(p, "   (8 nodes, 64 coherence shards, {txns} update txns per cell; every");
    let _ = writeln!(p, "    column is simulated and must not vary with the thread count)\n");
    let _ = writeln!(
        p,
        "{:<16} {:>7} {:>6} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "cell", "threads", "txns", "epochs", "max-ep", "d-conf", "l-conf", "retries"
    );
    let pts = x::e12_multicore(txns);
    for pt in &pts {
        let _ = writeln!(
            p,
            "{:<16} {:>7} {:>6} {:>7} {:>7} {:>7} {:>7} {:>8}",
            pt.cell,
            pt.threads,
            pt.committed,
            pt.epochs,
            pt.max_epoch_txns,
            pt.data_conflicts,
            pt.lock_conflicts,
            pt.serial_retries,
        );
    }
    let csv = Some(Csv {
        header: "cell,threads,committed,sim_cycles,epochs,max_epoch_txns,\
             data_conflicts,lock_conflicts,epoch_waits,serial_retries,state_digest",
        rows: pts
            .iter()
            .map(|pt| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{:016x}",
                    pt.cell,
                    pt.threads,
                    pt.committed,
                    pt.sim_cycles,
                    pt.epochs,
                    pt.max_epoch_txns,
                    pt.data_conflicts,
                    pt.lock_conflicts,
                    pt.epoch_waits,
                    pt.serial_retries,
                    pt.state_digest
                )
            })
            .collect(),
    });
    let _ = writeln!(p);
    Section { text: s, csv }
}

fn e10_cell(_fast: bool) -> Section {
    let mut s = String::new();
    let p = &mut s;
    let _ = writeln!(p, "== E10 (§9 extension): parallel transactions widen the blast radius ==");
    let _ = writeln!(p, "   (8 nodes, 2 active txns homed per node, crash one node)\n");
    let _ = writeln!(p, "{:>5} {:>8} {:>9} {:>14}", "fan", "active", "aborted", "kill fraction");
    for pt in x::e10_parallel_blast_radius(2) {
        let _ = writeln!(
            p,
            "{:>5} {:>8} {:>9} {:>13.0}%",
            pt.fan,
            pt.active,
            pt.aborted,
            pt.kill_fraction * 100.0
        );
    }
    let _ = writeln!(p);
    Section::text_only(s)
}
