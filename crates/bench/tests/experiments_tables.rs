//! The E-tables `EXPERIMENTS.md` quotes cannot drift from `report`: every
//! table marked `<!-- golden: <cell> -->` (the marker on the line above the
//! table) is compared, row by row and number by number, with that cell's
//! CSV section of `report_fast.golden` — which `golden_report_fast` pins to
//! `report --fast`. Thousands separators and backticks are stripped. Files
//! only: no report runs. A table joins by getting a marker.
//!
//! A table that shows only some of the CSV's columns names them, in its
//! own order, by their CSV field names — its column map:
//! `<!-- golden: <cell> columns: <field>, <field>, … -->`.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One marked table: its cell, its column map (`None`: every CSV
/// column, in CSV order) and its body rows' cells with thousands
/// separators and backticks stripped.
struct Marked<'a> {
    cell: &'a str,
    columns: Option<Vec<&'a str>>,
    rows: Vec<Vec<String>>,
}

/// Every marked table of `doc`.
fn marked_tables(doc: &str) -> Vec<Marked<'_>> {
    let mut tables = Vec::new();
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        let marker = line.trim().strip_prefix("<!-- golden: ");
        let Some(body) = marker.and_then(|rest| rest.strip_suffix(" -->")) else { continue };
        let (cell, columns) = match body.split_once(" columns: ") {
            Some((cell, cols)) => (cell, Some(cols.split(',').map(str::trim).collect())),
            None => (body, None),
        };
        let rows = lines
            .by_ref()
            .take_while(|l| l.starts_with('|'))
            .skip(2) // the header and the alignment row
            .map(|row| {
                row.trim_matches('|').split('|').map(|c| c.trim().replace([',', '`'], "")).collect()
            })
            .collect();
        tables.push(Marked { cell, columns, rows });
    }
    tables
}

/// The rows of `cell`'s CSV section of the golden, projected onto
/// `columns` (field names) when given.
fn golden_rows(golden: &str, cell: &str, columns: Option<&[&str]>) -> Vec<Vec<String>> {
    let head = format!("--- results/{cell}.csv ---");
    let section = golden.split(&head).nth(1).unwrap_or_else(|| panic!("no `{head}` in the golden"));
    let mut lines = section.lines().skip(1); // the rest of the marker line
    let fields: Vec<&str> = lines.next().expect("a CSV header").split(',').collect();
    let picks: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                let at = fields.iter().position(|f| f == c);
                at.unwrap_or_else(|| panic!("{cell}: no CSV field `{c}` in {fields:?}"))
            })
            .collect(),
        None => (0..fields.len()).collect(),
    };
    lines
        .take_while(|l| !l.starts_with("--- "))
        .filter(|l| !l.is_empty())
        .map(|l| {
            let row: Vec<&str> = l.split(',').collect();
            picks.iter().map(|&i| row[i].to_string()).collect()
        })
        .collect()
}

#[test]
fn marked_experiment_tables_match_the_report_golden() {
    let doc = read("../../EXPERIMENTS.md");
    let golden = read("tests/golden/report_fast.golden");
    let tables = marked_tables(&doc);
    let cells: Vec<&str> = tables.iter().map(|t| t.cell).collect();
    let required = [
        "table1",
        "e3_recovery_cost",
        "e4_log_forces",
        "e7_recovery_scaling",
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
    for Marked { cell, columns, rows } in &tables {
        let want = golden_rows(&golden, cell, columns.as_deref());
        assert!(!rows.is_empty(), "{cell}: no table right below the marker");
        assert_eq!(rows.len(), want.len(), "{cell}: EXPERIMENTS.md has another row count");
        for (row, want) in rows.iter().zip(&want) {
            assert_eq!(row, want, "{cell}: EXPERIMENTS.md row differs from report_fast.golden");
        }
    }
}
