//! The `report` registry: one table of uniquely named cells, selected by
//! name. (What the cells print is pinned by `report_fast.golden`, in
//! `golden_stats.rs`.)

use smdb_bench::report::{render, CELLS};

#[test]
fn cell_names_are_unique_and_each_renders_alone() {
    for (i, cell) in CELLS.iter().enumerate() {
        assert!(CELLS[..i].iter().all(|c| c.name != cell.name), "duplicate cell {}", cell.name);
        let text = render(true, &[cell.name.to_string()]).expect("a registered name").text;
        let headings = text.lines().filter(|l| l.starts_with("== ")).count();
        assert_eq!(headings, 1, "{}: exactly its own section\n{text}", cell.name);
        // Banner (3 lines) + "done." around a heading, a table header and a row at least.
        assert!(text.lines().count() >= 4 + 5, "{}: empty section\n{text}", cell.name);
    }
}

#[test]
fn unknown_name_is_refused_with_the_list() {
    let err = render(true, &["table1".to_string(), "e13".to_string()]).err().expect("refused");
    assert!(err.contains("`e13`"), "{err}");
    for cell in &CELLS {
        assert!(err.contains(cell.name), "{err}");
    }
}
