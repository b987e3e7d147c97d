//! Regenerate the paper-mapped tables and figures (DESIGN.md §3).
//!
//! ```text
//! cargo run -p smdb-bench --bin report --release                  # everything
//! cargo run -p smdb-bench --bin report --release -- --fast table1 e3_recovery_cost
//! ```
//!
//! `report [--fast] [--csv] [NAME…]`: the named cells (all of them when
//! none is named; an unknown name prints the list), at `--fast` or full
//! scale; `--csv` also writes each cell's `results/<name>.csv`.

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    if let Some(bad) = flags.iter().find(|f| *f != "--fast" && *f != "--csv") {
        eprintln!("unknown flag `{bad}`; usage: report [--fast] [--csv] [NAME…]");
        std::process::exit(2);
    }
    let fast = flags.iter().any(|f| f == "--fast");
    let report = match smdb_bench::report::render(fast, &names) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    print!("{}", report.text);
    if flags.iter().any(|f| f == "--csv") {
        std::fs::create_dir_all("results").expect("create results/");
        for (name, contents) in &report.csvs {
            let path = format!("results/{name}.csv");
            std::fs::write(&path, contents).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}
