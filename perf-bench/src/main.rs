//! `perf-bench --workload W [--seed N] [--seconds S] [--trace [0|1]]`
//! `perf-bench compare A B`

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use perf_bench::compare::{bounds, compare, parse_results, render, Verdict};
use perf_bench::json::Json;
use perf_bench::plan::{Kind, Scale};
use perf_bench::run::run_plain;
use perf_bench::traced::run_traced;

const USAGE: &str = "usage: perf-bench --workload ooo_stall|dvr_gap|sampled|mix4 [--seed N] \
                     [--seconds S] [--trace [0|1]]\n       perf-bench compare A B";

/// Where traced runs write their Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = "target/perf-bench";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 0, false);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                workload = Some(Kind::parse(w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => seed = value("--seed")?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                seconds = value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?
            }
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                let explicit = it.next_if(|v| *v == "0" || *v == "1");
                trace = explicit.is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = Json::parse(&read("BENCHMARK.json")?)?;
    let rows = compare(&bounds(&spec)?, &parse_results(&read(a)?)?, &parse_results(&read(b)?)?);
    if rows.is_empty() {
        return Err("no workload has runs in both files".to_string());
    }
    print!("{}", render(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match run_compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(args.workload, Scale::PAPER, args.seed, Path::new(TRACE_DIR))
    } else {
        run_plain(args.workload, Scale::PAPER, args.seed, args.seconds)
    };
    print!("{}", outcome.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
