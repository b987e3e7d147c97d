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
    let err = render(true, &["table1".to_string(), "e99".to_string()]).err().expect("refused");
    assert!(err.contains("`e99`"), "{err}");
    for cell in &CELLS {
        assert!(err.contains(cell.name), "{err}");
    }
}

mod toy_table {
    use smdb_bench::table::{csv, text_table, Align::L, Align::R, Col};

    struct Row {
        name: &'static str,
        on: bool,
        share: f64,
    }

    const ROWS: [Row; 2] =
        [Row { name: "a", on: true, share: 0.25 }, Row { name: "long", on: false, share: 1.0 }];

    /// Left-aligned both-forms, right-aligned two-form (`on` / `true`),
    /// CSV-only, text-only with a two-line heading.
    fn cols() -> [Col<Row>; 4] {
        [
            Col::new("name", L(6), "name", |r: &Row| r.name),
            Col::new("sw", R(4), "switched", |r: &Row| r.on).text_as(|r| {
                if r.on {
                    "on"
                } else {
                    "off"
                }
            }),
            Col::csv_only("share", |r: &Row| r.share),
            Col::text_only("share\n(%)", R(6), |r: &Row| format!("{:.0}%", r.share * 100.0)),
        ]
    }

    #[test]
    fn text_table_pads_aligns_and_skips_csv_only_columns() {
        let want = [
            "name     sw  share",
            "               (%)",
            "a        on    25%",
            "long    off   100%",
            "",
        ];
        assert_eq!(text_table(&cols(), &ROWS), want.join("\n"));
    }

    #[test]
    fn csv_uses_field_names_plain_values_and_skips_text_only_columns() {
        assert_eq!(csv(&cols(), &ROWS), "name,switched,share\na,true,0.25\nlong,false,1\n");
    }

    #[test]
    fn a_second_text_table_over_a_sub_list_and_fewer_rows() {
        let cols = cols();
        let want = ["name    share", "          (%)", "long     100%", ""];
        assert_eq!(text_table([&cols[0], &cols[3]], ROWS.iter().skip(1)), want.join("\n"));
    }
}
