//! `perf` — the repo's benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! * `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//!   one workload in this process and ends with one JSON line on stdout:
//!   the end-to-end metrics (`--trace 0`) or the per-layer ledger
//!   (`--trace 1`). This is the form `BENCHMARK.json`'s command takes.
//! * Without `--workload` it runs every workload, each in a child process
//!   of its own (so `peak_rss_mb` is per workload), and prints one table.
//!   `--traced` asks the children for the ledger, `--aa` runs the untraced
//!   pass twice and compares the two against the bounds, `--smoke` runs
//!   everything at 1/50 scale with one repetition.

mod ledger;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Def, RunResult, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{run_rep, Rep, Workload};

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
const RUN_SECONDS: u64 = 15;
/// `--seconds` when not given: all six workloads then fit in 90 s.
const DEFAULT_SECONDS: f64 = 10.0;
/// Scale divisor of `--smoke`.
const SMOKE_DIV: usize = 50;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
    aa: bool,
    out: Option<String>,
    benchmark_json: bool,
}

fn usage() -> String {
    format!(
        "usage: perf [--workload <{}>] [--seed N] [--seconds S] [--reps N] \
         [--trace 0|1 | --traced] [--smoke] [--aa] [--out FILE] [--benchmark-json]",
        workloads::ALL.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        reps: None,
        trace: false,
        smoke: false,
        aa: false,
        out: None,
        benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{}", usage()));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = Some(num(&flag, value()?)?),
            "--reps" => a.reps = Some(num(&flag, value()?)?),
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--out" => a.out = Some(value()?),
            "--benchmark-json" => a.benchmark_json = true,
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) || a.reps == Some(0) {
        return Err("--seconds must be in (0, 600] and --reps at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => match workloads::by_name(name) {
            Some(w) => run_workload(w, &args),
            None => {
                eprintln!("unknown workload {name}\n{}", usage());
                return ExitCode::from(2);
            }
        },
        None if args.aa => run_aa(&args),
        None => run_all(&args).is_some_and(|r| r.iter().all(|(_, r)| r.correct)),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ----------------------------------------------------------------------
// One workload, in this process
// ----------------------------------------------------------------------

/// Host seconds of a repetition's measured part: forward phases plus
/// crash → drained.
fn measured_s(r: &Rep) -> f64 {
    r.forward_s.iter().sum::<f64>() + r.episodes.iter().map(|e| e.drained_ms / 1e3).sum::<f64>()
}

fn run_workload(w: &Workload, args: &Args) -> bool {
    let div = if args.smoke { SMOKE_DIV } else { 1 };
    let reps_wanted = if args.smoke { Some(1) } else { args.reps };
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    // The traced pass spends the other half of its time on the untraced
    // twin repetition and the standalone probes.
    let budget = if args.trace { seconds / 2.0 } else { seconds };
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(args.trace);
    let mut errors = Vec::new();

    // One discarded quarter-length repetition: the first run of a fresh
    // process is slower (cold allocator, cold caches).
    run_rep(w, args.seed, div * 4, w.threads, &mut off);

    let start = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        reps.push(run_rep(w, args.seed, div, w.threads, &mut tr));
        if reps.len() == 1 {
            peak_rss_mb = smdb_bench::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        }
        let done = match reps_wanted {
            Some(n) => reps.len() >= n,
            None => start.elapsed().as_secs_f64() >= budget,
        };
        if done {
            break;
        }
    }
    // Deterministic values must repeat exactly; a repetition's own failed
    // checks (IFA, committed values, failed operations) count as well.
    let check = |r: &Rep, what: &str, errors: &mut Vec<String>| {
        if r.fingerprint() != reps[0].fingerprint() {
            errors.push(format!(
                "{}: {what} differs from repetition 0 in a deterministic value \
                 (simulated cycles, counts or the committed-state digest)",
                w.name
            ));
        }
        errors.extend(r.tally.errors.iter().cloned());
    };
    for (i, r) in reps.iter().enumerate() {
        check(r, &format!("repetition {i}"), &mut errors);
    }

    let values = if args.trace {
        let mut v = ledger::per_layer(&reps, &tr);
        // The same repetition with the tracer off: what the spans cost.
        let plain = run_rep(w, args.seed, div, w.threads, &mut off);
        check(&plain, "the untraced repetition", &mut errors);
        let traced_s: Vec<f64> = reps.iter().map(measured_s).collect();
        v.set("obs.harness_span_overhead_ratio", stats::median(&traced_s) / measured_s(&plain));
        if w.threads > 1 {
            let one = run_rep(w, args.seed, div, 1, &mut off);
            check(&one, "the 1-thread repetition", &mut errors);
            let fwd = |r: &Rep| r.forward_s.iter().sum::<f64>();
            v.set("core.mt.speedup_2t", fwd(&one) / fwd(&plain));
        }
        probes::run_all(&mut v, div, &mut tr);
        ledger::print_shares(w, &ledger::end_to_end(&reps, peak_rss_mb), &v);
        write_trace(w, &tr);
        v
    } else {
        ledger::end_to_end(&reps, peak_rss_mb)
    };

    let (mut attempted, mut failed) = (0, 0);
    for r in &reps {
        attempted += r.tally.attempted;
        failed += r.tally.failed;
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let result = RunResult::from_values(errors.is_empty(), attempted, failed, &values);
    eprintln!(
        "\n{} seed {} — {} repetitions, {} operations attempted, {} failed, {:.1} s",
        w.name,
        args.seed,
        reps.len(),
        attempted,
        failed,
        start.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<48} {value:>18.4} {unit}");
    }
    println!("{}", result.to_json());
    result.correct
}

fn write_trace(w: &Workload, tr: &Tracer) {
    let path = format!("results/perf_trace_{}.json", w.name);
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, tr.chrome_json(w.name)));
    match written {
        Ok(()) => eprintln!("{}: {} spans written to {path}", w.name, tr.len()),
        Err(e) => eprintln!("{}: could not write {path}: {e}", w.name),
    }
}

// ----------------------------------------------------------------------
// Every workload, one child process each
// ----------------------------------------------------------------------

fn run_child(w: &Workload, args: &Args) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    // All six traced children together stay under a minute.
    let seconds = args.seconds.unwrap_or(if args.trace { 4.0 } else { DEFAULT_SECONDS });
    cmd.args(["--seconds", &seconds.to_string()]);
    if let Some(n) = args.reps {
        cmd.args(["--reps", &n.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = RunResult::parse(stdout.lines().last()?)?;
    // A child that failed a check exits non-zero *and* says so in its line.
    (out.status.success() == result.correct).then_some(result)
}

fn run_all(args: &Args) -> Option<Vec<(&'static Workload, RunResult)>> {
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut results = Vec::new();
    for w in workloads::ALL {
        match run_child(w, args) {
            Some(r) => results.push((w, r)),
            None => {
                eprintln!("{}: child process gave no result", w.name);
                return None;
            }
        }
    }
    print_table(defs, &results);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, results_json(args, &results)) {
            eprintln!("could not write {path}: {e}");
            return None;
        }
    }
    Some(results)
}

fn print_table(defs: &[Def], results: &[(&Workload, RunResult)]) {
    let row = |label: &str, unit: &str, cell: &dyn Fn(&Workload, &RunResult) -> String| {
        print!("{label:<48} {unit:<7}");
        for (w, r) in results {
            print!(" {:>14}", cell(w, r));
        }
        println!();
    };
    row("metric", "unit", &|w, _| w.name.to_string());
    for d in defs {
        row(d.name, d.unit, &|_, r| format!("{:.4}", r.get(d.name).unwrap_or(f64::NAN)));
    }
    row("failed_txn_share", "ratio", &|_, r| {
        format!("{:.4}", r.failed as f64 / r.attempted as f64)
    });
    row("output checks", "", &|_, r| if r.correct { "pass" } else { "FAIL" }.to_string());
}

fn results_json(args: &Args, results: &[(&Workload, RunResult)]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\"seed\": {}, \"traced\": {}, \"smoke\": {}, \"host_cores\": {cores}, \"workloads\": {{\n",
        args.seed, args.trace, args.smoke
    );
    for (i, (w, r)) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        writeln!(out, "  \"{}\": {}{sep}", smdb_bench::json_escape(w.name), r.to_json())
            .expect("write to string");
    }
    out.push_str("}}\n");
    out
}

/// A/A: the untraced benchmark twice on the same code. Every host metric
/// must agree within its own bound, every deterministic one exactly.
fn run_aa(args: &Args) -> bool {
    let (Some(a), Some(b)) = (run_all(args), run_all(args)) else { return false };
    let mut ok = true;
    println!("\nA/A: relative difference of the second pass against the first, and the bound");
    for d in END_TO_END {
        for ((w, ra), (_, rb)) in a.iter().zip(&b) {
            let (va, vb) = (ra.get(d.name).unwrap_or(f64::NAN), rb.get(d.name).unwrap_or(f64::NAN));
            let diff = stats::worse_by(va, vb, d.better).abs();
            let bound = if d.exact { 0.0 } else { d.bound };
            let within = diff <= bound;
            ok &= within && ra.correct && rb.correct;
            println!(
                "  {:<26} {:<14} {:>16.4} {:>16.4}  {:>7.2} % of {:>5.1} %  {}",
                d.name,
                w.name,
                va,
                vb,
                100.0 * diff,
                100.0 * bound,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
    }
    println!("A/A {}", if ok { "passed" } else { "FAILED" });
    ok
}

// ----------------------------------------------------------------------
// BENCHMARK.json
// ----------------------------------------------------------------------

/// The contents of `BENCHMARK.json`, generated from the tables the binary
/// itself uses (`perf --benchmark-json > BENCHMARK.json`).
fn benchmark_json() -> String {
    let rows = |defs: &[Def], bounds: bool| {
        let rows: Vec<String> = defs
            .iter()
            .map(|d| {
                let bound =
                    if bounds { format!(", \"bound\": {}", d.bound) } else { String::new() };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect();
        rows.join(",\n")
    };
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                smdb_bench::json_escape(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        rows(END_TO_END, true),
        rows(PER_LAYER, false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_what_the_binary_generates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `perf --benchmark-json`");
    }

    #[test]
    fn workload_table_meets_the_contract() {
        assert!((2..=8).contains(&workloads::ALL.len()));
        for w in workloads::ALL {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is one short line",
                w.name
            );
            assert!(w.threads <= 2, "never more than two threads");
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    /// Every workload at 1/200 scale: the whole repetition (forward, crash
    /// episode, output checks) runs, repeats exactly, and fills every
    /// end-to-end metric with a non-zero value.
    #[test]
    fn tiny_repetitions_are_deterministic_and_complete() {
        for w in workloads::ALL {
            let mut off = Tracer::new(false);
            let a = run_rep(w, 7, 200, w.threads, &mut off);
            let b = run_rep(w, 7, 200, 1, &mut off);
            assert!(a.tally.errors.is_empty(), "{}: {:?}", w.name, a.tally.errors);
            assert_eq!(a.tally.failed, 0, "{}", w.name);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{} repeats exactly", w.name);
            let c = run_rep(w, 8, 200, w.threads, &mut off);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}: the seed makes the inputs", w.name);
            let v = ledger::end_to_end(&[a, b], 1.0);
            for (d, value) in v.rows() {
                assert!(value > 0.0, "{}: {} is {value}", w.name, d.name);
            }
        }
    }
}
