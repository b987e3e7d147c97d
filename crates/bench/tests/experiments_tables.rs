//! The E-tables `EXPERIMENTS.md` quotes cannot drift from `report`: every
//! table marked `<!-- golden: <cell> -->` (the marker on the line above the
//! table) is compared, row by row and number by number, with that cell's
//! CSV section of `report_fast.golden` — which `golden_report_fast` pins to
//! `report --fast`. Thousands separators and backticks are stripped. Files
//! only: no report runs. A table joins by getting a marker.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every marked table of `doc`: its cell, and its body rows' cells with
/// thousands separators and backticks stripped.
fn marked_tables(doc: &str) -> Vec<(&str, Vec<Vec<String>>)> {
    let mut tables = Vec::new();
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        let marker = line.trim().strip_prefix("<!-- golden: ");
        let Some(cell) = marker.and_then(|rest| rest.strip_suffix(" -->")) else { continue };
        let rows = lines
            .by_ref()
            .take_while(|l| l.starts_with('|'))
            .skip(2) // the header and the alignment row
            .map(|row| {
                row.trim_matches('|').split('|').map(|c| c.trim().replace([',', '`'], "")).collect()
            })
            .collect();
        tables.push((cell, rows));
    }
    tables
}

/// The rows of `cell`'s CSV section of the golden, its header dropped.
fn golden_rows(golden: &str, cell: &str) -> Vec<Vec<String>> {
    let head = format!("--- results/{cell}.csv ---");
    let section = golden.split(&head).nth(1).unwrap_or_else(|| panic!("no `{head}` in the golden"));
    section
        .lines()
        .skip(2) // the rest of the marker line and the CSV header
        .take_while(|l| !l.starts_with("--- "))
        .filter(|l| !l.is_empty())
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

#[test]
fn marked_experiment_tables_match_the_report_golden() {
    let doc = read("../../EXPERIMENTS.md");
    let golden = read("tests/golden/report_fast.golden");
    let tables = marked_tables(&doc);
    let cells: Vec<&str> = tables.iter().map(|(cell, _)| *cell).collect();
    let required = [
        "table1",
        "e3_recovery_cost",
        "e4_log_forces",
        "e10_elr",
        "e11_instant_restart",
        "e12_multicore",
        "e13_checkpoint",
        "e14_restart_scan",
        "e15_restart_reads",
        "e16_restart_skeleton",
        "e17_read_only_commit",
    ];
    for cell in required {
        assert!(cells.contains(&cell), "EXPERIMENTS.md lost its `{cell}` marker: {cells:?}");
    }
    for (cell, rows) in &tables {
        let want = golden_rows(&golden, cell);
        assert!(!rows.is_empty(), "{cell}: no table right below the marker");
        assert_eq!(rows.len(), want.len(), "{cell}: EXPERIMENTS.md has another row count");
        for (row, want) in rows.iter().zip(&want) {
            assert_eq!(row, want, "{cell}: EXPERIMENTS.md row differs from report_fast.golden");
        }
    }
}
