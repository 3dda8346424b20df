//! `dvrsim` — run a benchmark (or your own `.s` kernel) on the simulator.
//!
//! ```text
//! dvrsim --bench bfs --input kr --technique dvr
//! dvrsim --bench camel --technique all --instrs 300000 --size paper
//! dvrsim --asm kernel.s --technique dvr
//! dvrsim --bench bfs --sanitize
//! dvrsim lint --all
//! dvrsim lint --asm kernel.s
//! dvrsim --list
//! ```

use std::process::ExitCode;

use dvr_sim::{
    evaluate_mix, measure_emitted, measure_periods_via_workers, parallel_map, sample_emit,
    sampled_report_from, simulate, simulate_mix, FaultConfig, MixSpec, Placement, SampleConfig,
    SimConfig, SimReport, Technique,
};
use sim_sample::merge_periods;
use workloads::{gather_attack, Benchmark, GraphInput, SizeClass, Workload};

struct Options {
    bench: Option<Benchmark>,
    asm_path: Option<String>,
    input: Option<GraphInput>,
    techniques: Vec<Technique>,
    size: SizeClass,
    instrs: u64,
    seed: u64,
    rob: Option<usize>,
    inject: Option<FaultConfig>,
    watchdog: Option<u64>,
    sanitize: bool,
    verbose: bool,
    json: bool,
}

const USAGE: &str = "\
usage: dvrsim [--list] (--bench NAME | --asm FILE.s) [options]
       dvrsim lint (--all | --bench NAME | --asm FILE.s) [--bounds] [--size S] [--seed N]
                     [--verbose] [--json]
       dvrsim audit (--all | --bench NAME) [--size S] [--seed N] [--instrs N] [--json]
       dvrsim lint-taint (--all | --bench NAME | --attack | --asm FILE.s) [--size S]
                     [--seed N] [--json]
       dvrsim leak-audit (--all | --bench NAME | --attack) [--size S] [--seed N]
                     [--instrs N] [--json]
       dvrsim bounds-audit (--all | --bench NAME | --attack | --oob) [--size S] [--seed N]
                     [--instrs N] [--json]
       dvrsim sample (--all | --bench NAME) [--technique T] [--size S] [--instrs N]
                     [--interval N] [--warmup N] [--period N] [--placement systematic|random]
                     [--sample-seed N] [--no-exact] [--threads N] [--jobs N] [--json]
       dvrsim sample-worker --bench NAME --technique T --checkpoint FILE.ckpt
                     [--input G] [--size S] [--seed N] [--instrs N] [--interval N]
                     [--warmup N] [--period N] [--placement P] [--sample-seed N] [--json]
       dvrsim mix (--spec LIST | --cores N) [--technique T] [--size S] [--seed N]
                  [--instrs N] [--threads N] [--solo] [--sanitize] [--json]
       dvrsim sweep [--bench LIST|all|gap|hpcdb] [--input LIST|all] [--technique T]
                    [--size S] [--seed N] [--instrs N] [--out DIR] [--cache DIR]
                    [--no-cache] [--jobs N] [--timeout-ms N] [--retries N]
                    [--backoff-ms N] [--backoff-seed N] [--keep-going] [--gc]
                    [--inject-sweep SPEC] [--json]
       dvrsim sweep-worker CELL-KEY
       dvrsim serve --socket PATH [--cache DIR | --no-cache]

options:
  --bench NAME          benchmark (see --list)
  --asm FILE.s          run a textual-assembly kernel instead
  --input kr|ljn|ork|tw|ur   GAP graph input        (default: kr)
  --technique NAME      ooo|pre|imp|vr|dvr|dvr-offload|dvr-discovery|oracle|all
                                                    (default: all)
  --size test|small|paper    input scale            (default: small)
  --instrs N            ROI length                  (default: 200000)
  --seed N              synthetic-input seed        (default: 42)
  --rob N               override ROB size
  --inject SPEC         deterministic fault injection; SPEC is comma-separated
                        key=value pairs: seed=N, drop=N (1-in-N demand misses
                        never complete), delay=N (1-in-N DRAM reads delayed),
                        delay-cycles=N, poison=N (1-in-N prefetches dropped),
                        fatal=N (fail on the Nth demand access)
  --watchdog N          cycles without a commit before the run is declared
                        deadlocked (0 disables; default 2000000)
  --sanitize            run the cycle-model invariant sanitizer (summary on
                        stderr; stdout/JSON output is byte-identical)
  --verbose             per-run engine detail
  --json                emit one JSON object per run (stdout)

the `lint` subcommand statically analyzes assembled programs (CFG, dataflow,
loop classification) instead of simulating; `lint --all` checks every
benchmark in the suite. With --bounds it instead runs the interval-based
bounds verifier: every reachable load and store is checked against the
program's declared `.region` footprint, and unprovable or out-of-bounds
accesses are reported (workload memory feeds read-only content bounds).

the `audit` subcommand diffs the static DVR coverage prediction against a
traced simulation's actual Discovery decisions and classifies every
divergence; unexplained divergences fail the audit.

the `lint-taint` subcommand runs the secret-taint information-flow pass:
programs declare secret ranges with the `.secret ADDR LEN` directive, and
every secret-dependent branch, secret-addressed load, and speculative
gather gadget (a secret-addressed dependent load the DVR coverage
predictor expects to vectorize) is reported. --attack lints the bundled
secret-dependent-gather attack kernel.

the `leak-audit` subcommand diffs those static leak predictions against
the dynamic taint oracle: simulations under OoO/VR/DVR with the
hierarchy's secret-taint fill log armed, plus an architectural replay.
`--all` audits every benchmark plus the attack kernel; a PASS means the
static and dynamic sides agree (for the attack kernel both sides agree it
*leaks*), and unexplained divergences fail the audit.

the `bounds-audit` subcommand diffs the static bounds claims against two
dynamic observers: an architectural replay with a per-pc extent tracker
(any access escaping its inferred interval is a soundness bug), and
simulations under OoO/VR/DVR with the hierarchy's speculative-extent map
armed. `--all` audits every benchmark plus the attack kernel; `--oob`
audits the bundled out-of-bounds gather kernel, whose static errors the
dynamic side confirms. Unexplained divergences and static errors fail the
command.

the `sample` subcommand runs checkpoint-parallel sampled simulation: one
functional fast-forward pass per benchmark emits a checkpoint at every
period (shared across techniques), then each (warmup + measured) interval
is measured independently — fanned across --threads in-process workers,
or across --jobs spawned `dvrsim sample-worker` processes when --jobs > 0.
Results merge deterministically, so output is byte-identical (modulo
wall-clock fields) for every --threads/--jobs combination. Unless
--no-exact, an exact run of the same region is compared; a sampled mean
whose 95% confidence interval misses the exact IPC fails the command.

the `sample-worker` subcommand is the internal worker of `sample --jobs`:
it measures one period from a checkpoint file and prints one integer-JSON
result line on stdout.

the `mix` subcommand runs a multi-programmed multi-core simulation: one
out-of-order core per mix entry, private L1/L2 each, one shared L3 and one
shared DRAM bandwidth calendar, all driven by the deterministic event
scheduler. --spec takes comma-separated `bench[/input][:technique]`
entries (e.g. `bfs/UR:dvr,NAS-IS:ooo`); --cores N instead rotates the
13-benchmark suite. --solo also runs each program alone on a private
hierarchy and reports system throughput (STP, sum of normalized progress)
and fairness (harmonic-mean slowdown); --threads parallelizes only those
solo baselines — the mix itself is single-threaded and byte-identical for
every --threads value. --sanitize extends the invariant sweeps to the
shared L3's prefetch-provenance state (summary on stderr; stdout stays
byte-identical).

the `sweep` subcommand runs a crash-safe grid of (benchmark, input,
technique) cells: every settled cell is appended to a write-ahead journal
(`<out>/journal.dvrj`), so a killed sweep rerun with the same flags resumes
exactly where it stopped and produces a byte-identical `summary.json`.
Results are also stored in a content-addressed cache (`--cache`, default
`.dvr-cache`) keyed by program bytes, canonical config, and code version;
corrupt entries are quarantined and recomputed, never served. With
--jobs > 0 cells run in supervised `sweep-worker` processes with per-cell
--timeout-ms, --retries, and exponential backoff seeded by --backoff-seed.
Without --keep-going the first failed cell stops the sweep (after
journaling it); with it, failures land in summary.json as typed outcomes.
--gc removes cache entries not reachable from the selected grid.
--inject-sweep takes kill=N,hang=N,flip=N,trunc=N,trunc-bytes=N,abort=N
to deterministically injure the Nth worker/cache-write/journal-append.

the `serve` subcommand keeps one process resident on a Unix socket; each
line `run CELL-KEY` replies with one JSON result (served from the cache
when possible), `stats`/`ping`/`shutdown` manage the service.

exit status: 0 if every run completed (lint: no errors; lint-taint: no
gather gadgets; audit/leak-audit: no unexplained divergences;
bounds-audit: no unexplained divergences and no static bounds errors;
sample: every CI contains the exact IPC), 1 otherwise.
";

/// Shared rejection for an unrecognized flag in any subcommand's argument
/// loop: one message shape, one exit code.
fn unknown_flag(cmd: &str, flag: &str) -> ExitCode {
    eprintln!("error: unknown {cmd} option '{flag}' (see 'dvrsim --help')");
    ExitCode::from(2)
}

fn parse_inject(spec: &str) -> Result<FaultConfig, String> {
    let mut f = FaultConfig::default();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) =
            part.split_once('=').ok_or(format!("bad --inject entry '{part}' (want key=value)"))?;
        let n: u64 = v.parse().map_err(|e| format!("--inject {k}: {e}"))?;
        match k {
            "seed" => f.seed = n,
            "drop" => f.drop_demand_1_in = n,
            "delay" => f.delay_dram_1_in = n,
            "delay-cycles" => f.delay_cycles = n,
            "poison" => f.poison_prefetch_1_in = n,
            "fatal" => f.fatal_at_demand_access = n,
            _ => {
                return Err(format!(
                    "unknown --inject key '{k}' (seed, drop, delay, delay-cycles, poison, fatal)"
                ))
            }
        }
    }
    Ok(f)
}

fn parse_technique(s: &str) -> Option<Vec<Technique>> {
    Some(match s {
        "ooo" | "baseline" => vec![Technique::Baseline],
        "pre" => vec![Technique::Pre],
        "imp" => vec![Technique::Imp],
        "vr" => vec![Technique::Vr],
        "dvr" => vec![Technique::Dvr],
        "dvr-offload" => vec![Technique::DvrOffload],
        "dvr-discovery" => vec![Technique::DvrDiscovery],
        "oracle" => vec![Technique::Oracle],
        "all" => {
            let mut v = vec![Technique::Baseline];
            v.extend(Technique::FIG7);
            v
        }
        _ => return None,
    })
}

/// The CLI spelling of a technique — the inverse of [`parse_technique`]
/// for single techniques, used to build `sample-worker` command lines.
fn technique_flag(t: Technique) -> &'static str {
    match t {
        Technique::Baseline => "ooo",
        Technique::Pre => "pre",
        Technique::Imp => "imp",
        Technique::Vr => "vr",
        Technique::Dvr => "dvr",
        Technique::DvrOffload => "dvr-offload",
        Technique::DvrDiscovery => "dvr-discovery",
        Technique::Oracle => "oracle",
    }
}

fn size_flag(s: SizeClass) -> &'static str {
    match s {
        SizeClass::Test => "test",
        SizeClass::Small => "small",
        SizeClass::Paper => "paper",
    }
}

fn parse_bench(s: &str) -> Option<Benchmark> {
    Benchmark::ALL.iter().copied().find(|b| b.name().eq_ignore_ascii_case(s))
}

fn parse_size(s: &str) -> Option<SizeClass> {
    match s {
        "test" => Some(SizeClass::Test),
        "small" => Some(SizeClass::Small),
        "paper" => Some(SizeClass::Paper),
        _ => None,
    }
}

fn parse_input(s: &str) -> Option<GraphInput> {
    GraphInput::ALL.iter().copied().find(|g| g.name().eq_ignore_ascii_case(s))
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        bench: None,
        asm_path: None,
        input: None,
        techniques: parse_technique("all").expect("static"),
        size: SizeClass::Small,
        instrs: 200_000,
        seed: 42,
        rob: None,
        inject: None,
        watchdog: None,
        sanitize: false,
        verbose: false,
        json: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                println!("benchmarks:");
                for b in Benchmark::ALL {
                    let inputs = if b.is_gap() { "  (takes --input)" } else { "" };
                    println!("  {}{}", b.name(), inputs);
                }
                std::process::exit(0);
            }
            "--bench" => {
                let v = value(&mut i)?;
                o.bench = Some(parse_bench(&v).ok_or(format!("unknown benchmark '{v}'"))?);
            }
            "--asm" => o.asm_path = Some(value(&mut i)?),
            "--input" => {
                let v = value(&mut i)?;
                o.input = Some(parse_input(&v).ok_or(format!("unknown input '{v}'"))?);
            }
            "--technique" => {
                let v = value(&mut i)?;
                o.techniques = parse_technique(&v).ok_or(format!("unknown technique '{v}'"))?;
            }
            "--size" => {
                let v = value(&mut i)?;
                o.size = parse_size(&v).ok_or_else(|| format!("unknown size '{v}'"))?;
            }
            "--instrs" => o.instrs = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => o.seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--rob" => o.rob = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?),
            "--inject" => o.inject = Some(parse_inject(&value(&mut i)?)?),
            "--watchdog" => o.watchdog = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?),
            "--sanitize" => o.sanitize = true,
            "--verbose" => o.verbose = true,
            "--json" => o.json = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if o.bench.is_none() && o.asm_path.is_none() {
        return Err("one of --bench or --asm is required (try --list)".to_string());
    }
    Ok(o)
}

fn load_workload(o: &Options) -> Result<Workload, String> {
    if let Some(path) = &o.asm_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let prog = sim_isa::parse_program(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(Workload {
            name: path.clone(),
            prog,
            mem: sim_isa::SparseMemory::new(),
            description: "user kernel (zero-initialized memory)".to_string(),
            regions: vec![],
        });
    }
    let b = o.bench.expect("validated in parse_args");
    Ok(b.build(o.input, o.size, o.seed))
}

fn print_report(r: &SimReport, base_ipc: Option<f64>, verbose: bool) {
    let speedup = base_ipc.map(|b| format!("{:>7.2}x", r.ipc / b)).unwrap_or_default();
    println!(
        "{:14} IPC {:>7.3}{} | MLP {:>5.2} | {:>5.1} MPKI | DRAM {:>8} | stall {:>4.0}% | {:>5.2} Mi/s",
        r.technique.name(),
        r.ipc,
        speedup,
        r.mlp,
        r.llc_mpki(),
        r.mem.dram_reads(),
        100.0 * r.core.rob_full_stall_fraction(),
        r.host_minstr_per_sec(),
    );
    if verbose && !r.engine.detail.is_empty() {
        println!("               {}", r.engine.detail);
    }
    if verbose {
        if let Some(t) = r.timeliness() {
            println!(
                "               timeliness L1 {:.0}% / L2 {:.0}% / L3 {:.0}% / off-chip {:.0}%",
                100.0 * t[0],
                100.0 * t[1],
                100.0 * t[2],
                100.0 * t[3]
            );
        }
    }
}

/// `dvrsim lint`: static analysis of assembled programs — CFG + dataflow
/// diagnostics plus the Discovery-Mode loop-classification report.
fn lint_main(args: &[String]) -> ExitCode {
    let mut all = false;
    let mut bench: Option<Benchmark> = None;
    let mut asm: Option<String> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut bounds = false;
    let mut verbose = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--bounds" => bounds = true,
            "--verbose" => verbose = true,
            "--json" => json = true,
            "--bench" | "--asm" | "--size" | "--seed" => {
                let Some(v) = args.get(i + 1).cloned() else {
                    eprintln!("error: {} needs a value", args[i]);
                    return ExitCode::from(2);
                };
                match args[i].as_str() {
                    "--bench" => match parse_bench(&v) {
                        Some(b) => bench = Some(b),
                        None => {
                            eprintln!("error: unknown benchmark '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--asm" => asm = Some(v),
                    "--size" => match parse_size(&v) {
                        Some(s) => size = s,
                        None => {
                            eprintln!("error: unknown size '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    _ => match v.parse() {
                        Ok(n) => seed = n,
                        Err(e) => {
                            eprintln!("error: --seed: {e}");
                            return ExitCode::from(2);
                        }
                    },
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return unknown_flag("lint", other),
        }
        i += 1;
    }

    // Programs carry their initial memory image when built from the suite:
    // the bounds verifier scans read-only regions for content bounds. A
    // user .s kernel lints without an image (sound, less precise).
    let programs: Vec<(String, sim_isa::Program, Option<sim_isa::SparseMemory>)> = if all {
        Benchmark::ALL
            .iter()
            .map(|b| {
                let wl = b.build(None, size, seed);
                (wl.name, wl.prog, Some(wl.mem))
            })
            .collect()
    } else if let Some(b) = bench {
        let wl = b.build(None, size, seed);
        vec![(wl.name, wl.prog, Some(wl.mem))]
    } else if let Some(path) = asm {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match sim_isa::parse_program(&text) {
            Ok(prog) => vec![(path, prog, None)],
            Err(e) => {
                eprintln!("{path}: error[parse]: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("error: lint needs --all, --bench NAME, or --asm FILE.s\n\n{USAGE}");
        return ExitCode::from(2);
    };

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for (name, prog, mem) in &programs {
        if bounds {
            let report = sim_lint::check_bounds(prog, mem.as_ref());
            if json {
                println!("{}", report.to_json(name, Some(prog)));
            } else {
                println!(
                    "{name}: {} memory ops, {} proven, {} errors, {} warnings",
                    report.ops.len(),
                    report.proven(),
                    report.errors(),
                    report.warnings()
                );
                for d in &report.diags {
                    println!("  {}", d.render(Some(prog)));
                }
                if verbose {
                    for o in &report.ops {
                        println!(
                            "  pc={} {} w={} addr={} {}",
                            o.pc,
                            if o.is_load { "load" } else { "store" },
                            o.width,
                            o.addr,
                            o.verdict
                        );
                    }
                }
            }
            total_errors += report.errors();
            total_warnings += report.warnings();
            continue;
        }
        let report = sim_lint::analyze(prog);
        if json {
            println!("{}", report.to_json(name, Some(prog)));
        } else {
            println!(
                "{name}: {} instrs, {} loops, {} errors, {} warnings",
                prog.len(),
                report.loops.len(),
                report.errors(),
                report.warnings()
            );
            for d in &report.diags {
                println!("  {}", d.render(Some(prog)));
            }
            if verbose || !report.loops.is_empty() {
                for l in &report.loops {
                    println!("  {}", l.describe(Some(prog)));
                }
            }
        }
        total_errors += report.errors();
        total_warnings += report.warnings();
    }
    if !json {
        println!(
            "lint{}: {} program{} checked, {total_errors} errors, {total_warnings} warnings",
            if bounds { " --bounds" } else { "" },
            programs.len(),
            if programs.len() == 1 { "" } else { "s" }
        );
    }
    if total_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The selectors and knobs the three audit subcommands share.
struct AuditArgs {
    all: bool,
    attack: bool,
    oob: bool,
    bench: Option<Benchmark>,
    size: SizeClass,
    seed: u64,
    instrs: u64,
    json: bool,
}

/// The one argument loop of `audit`, `leak-audit` and `bounds-audit`.
/// `kernels` lists the bundled-kernel selectors `cmd` accepts (`--attack`,
/// `--oob`); every other flag outside the shared set is rejected with the
/// subcommand's name. `Err` is the exit code: 0 after `--help`, 2 on a
/// usage error (already reported on stderr).
fn parse_audit_args(cmd: &str, args: &[String], kernels: &[&str]) -> Result<AuditArgs, ExitCode> {
    let usage_error = |msg: String| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    };
    let mut a = AuditArgs {
        all: false,
        attack: false,
        oob: false,
        bench: None,
        size: SizeClass::Test,
        seed: 42,
        instrs: 60_000,
        json: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => a.all = true,
            "--json" => a.json = true,
            "--attack" if kernels.contains(&"--attack") => a.attack = true,
            "--oob" if kernels.contains(&"--oob") => a.oob = true,
            flag @ ("--bench" | "--size" | "--seed" | "--instrs") => {
                let Some(v) = args.get(i + 1) else {
                    return Err(usage_error(format!("{flag} needs a value")));
                };
                let set = match flag {
                    "--bench" => parse_bench(v)
                        .map(|b| a.bench = Some(b))
                        .ok_or_else(|| format!("unknown benchmark '{v}'")),
                    "--size" => parse_size(v)
                        .map(|s| a.size = s)
                        .ok_or_else(|| format!("unknown size '{v}'")),
                    "--seed" => v.parse().map(|n| a.seed = n).map_err(|e| format!("--seed: {e}")),
                    _ => v.parse().map(|n| a.instrs = n).map_err(|e| format!("--instrs: {e}")),
                };
                set.map_err(usage_error)?;
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            other => return Err(unknown_flag(cmd, other)),
        }
        i += 1;
    }
    if !a.all && !a.attack && !a.oob && a.bench.is_none() {
        let mut selectors = vec!["--all", "--bench NAME"];
        selectors.extend(kernels);
        let needs = match selectors.split_last() {
            Some((last, [first])) => format!("{first} or {last}"),
            Some((last, rest)) => format!("{}, or {last}", rest.join(", ")),
            None => unreachable!("two shared selectors"),
        };
        eprintln!("error: {cmd} needs {needs}\n\n{USAGE}");
        return Err(ExitCode::from(2));
    }
    Ok(a)
}

/// One audited workload as the audit subcommands print it.
struct Audited {
    /// The text report, or its one-line JSON object under `--json`.
    out: String,
    divergences: usize,
    unexplained: usize,
}

impl Audited {
    fn new<K, J>(json: bool, text: String, js: String, d: &dvr_sim::Divergences<K, J>) -> Self {
        let out = if json { js + "\n" } else { text };
        Audited { out, divergences: d.len(), unexplained: d.unexplained() }
    }
}

/// `dvrsim audit` / `leak-audit` / `bounds-audit`: the static-vs-dynamic
/// audits — Discovery coverage, secret-dependent gathers, and
/// out-of-bounds lanes. Each audited workload prints its report; the text
/// form ends with one summary line. Exits 1 on any unexplained divergence
/// (bounds-audit also on any static bounds error).
fn audits_main(cmd: &str, args: &[String]) -> ExitCode {
    let kernels: &[&str] = match cmd {
        "audit" => &[],
        "leak-audit" => &["--attack"],
        _ => &["--attack", "--oob"],
    };
    let a = match parse_audit_args(cmd, args, kernels) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let (size, seed, instrs, json) = (a.size, a.seed, a.instrs, a.json);
    let benches: Vec<Benchmark> =
        if a.all { Benchmark::ALL.to_vec() } else { a.bench.into_iter().collect() };
    let with_attack = a.attack || a.all;
    // (reports, the noun they count, the summary's tail, a non-divergence failure)
    let (audited, noun, tail, failed): (Vec<Audited>, _, _, _) = match cmd {
        "audit" => {
            let audited = benches
                .iter()
                .map(|&b| {
                    let r = dvr_sim::audit_benchmark(b, size, seed, instrs);
                    Audited::new(json, r.render(), r.to_json(), &r.divergences)
                })
                .collect();
            (audited, "benchmark", String::new(), false)
        }
        "leak-audit" => {
            let mut reports: Vec<_> = benches
                .iter()
                .map(|&b| dvr_sim::leak_audit_benchmark(b, size, seed, instrs))
                .collect();
            if with_attack {
                reports.push(dvr_sim::leak_audit_attack(size, seed, instrs));
            }
            let confirmed: usize = reports.iter().map(|r| r.confirmed_gadgets()).sum();
            let audited = reports
                .iter()
                .map(|r| Audited::new(json, r.render(), r.to_json(), &r.divergences))
                .collect();
            (audited, "workload", format!(", {confirmed} gadgets dynamically confirmed"), false)
        }
        _ => {
            let mut reports: Vec<_> = benches
                .iter()
                .map(|&b| dvr_sim::bounds_audit_benchmark(b, size, seed, instrs))
                .collect();
            if with_attack {
                reports.push(dvr_sim::bounds_audit_attack(size, seed, instrs));
            }
            if a.oob {
                reports.push(dvr_sim::bounds_audit_oob(size, seed, instrs));
            }
            let static_errors: usize = reports.iter().map(|r| r.static_errors()).sum();
            let confirmed: usize = reports.iter().map(|r| r.confirmed_oob()).sum();
            let audited = reports
                .iter()
                .map(|r| Audited::new(json, r.render(), r.to_json(), &r.divergences))
                .collect();
            let tail =
                format!(", {static_errors} static errors ({confirmed} dynamically confirmed)");
            (audited, "workload", tail, static_errors > 0)
        }
    };
    let total: usize = audited.iter().map(|r| r.divergences).sum();
    let unexplained: usize = audited.iter().map(|r| r.unexplained).sum();
    for r in &audited {
        print!("{}", r.out);
    }
    if !json {
        println!(
            "{cmd}: {} {noun}{} checked, {total} divergences, {unexplained} unexplained{tail}",
            audited.len(),
            if audited.len() == 1 { "" } else { "s" }
        );
    }
    if unexplained > 0 || failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `dvrsim lint-taint`: the secret-taint information-flow pass — report
/// every secret-dependent branch, secret-addressed load, and speculative
/// gather gadget in a program with `.secret` declarations.
fn lint_taint_main(args: &[String]) -> ExitCode {
    let mut all = false;
    let mut attack = false;
    let mut bench: Option<Benchmark> = None;
    let mut asm: Option<String> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--attack" => attack = true,
            "--json" => json = true,
            "--bench" | "--asm" | "--size" | "--seed" => {
                let Some(v) = args.get(i + 1).cloned() else {
                    eprintln!("error: {} needs a value", args[i]);
                    return ExitCode::from(2);
                };
                match args[i].as_str() {
                    "--bench" => match parse_bench(&v) {
                        Some(b) => bench = Some(b),
                        None => {
                            eprintln!("error: unknown benchmark '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--asm" => asm = Some(v),
                    "--size" => match parse_size(&v) {
                        Some(s) => size = s,
                        None => {
                            eprintln!("error: unknown size '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    _ => match v.parse() {
                        Ok(n) => seed = n,
                        Err(e) => {
                            eprintln!("error: --seed: {e}");
                            return ExitCode::from(2);
                        }
                    },
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return unknown_flag("lint-taint", other),
        }
        i += 1;
    }

    let mut programs: Vec<(String, sim_isa::Program)> = Vec::new();
    if all {
        for b in Benchmark::ALL {
            let wl = b.build(None, size, seed);
            programs.push((wl.name, wl.prog));
        }
    } else if let Some(b) = bench {
        let wl = b.build(None, size, seed);
        programs.push((wl.name, wl.prog));
    } else if let Some(path) = &asm {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match sim_isa::parse_program(&text) {
            Ok(prog) => programs.push((path.clone(), prog)),
            Err(e) => {
                eprintln!("{path}: error[parse]: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if attack || all {
        let wl = gather_attack(size, seed);
        programs.push((wl.name, wl.prog));
    }
    if programs.is_empty() {
        eprintln!("error: lint-taint needs --all, --bench NAME, --attack, or --asm FILE.s\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut total_gadgets = 0usize;
    let mut total_warnings = 0usize;
    for (name, prog) in &programs {
        let r = sim_lint::analyze_taint(prog);
        if json {
            println!("{}", r.to_json(name, Some(prog)));
        } else {
            println!(
                "{name}: {} secret sources, {} gadgets, {} warnings",
                r.sources.len(),
                r.errors(),
                r.warnings()
            );
            for d in &r.leaks {
                println!("  {}", d.render(Some(prog)));
            }
        }
        total_gadgets += r.errors();
        total_warnings += r.warnings();
    }
    if !json {
        println!(
            "lint-taint: {} program{} checked, {total_gadgets} gadgets, \
             {total_warnings} warnings",
            programs.len(),
            if programs.len() == 1 { "" } else { "s" }
        );
    }
    if total_gadgets > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `dvrsim sample`: checkpointed sampled simulation — functional
/// fast-forward with warming between seeded detailed intervals, reported
/// with a 95% confidence interval and (by default) validated against an
/// exact run of the same region.
fn sample_main(args: &[String]) -> ExitCode {
    let mut all = false;
    let mut bench: Option<Benchmark> = None;
    let mut input: Option<GraphInput> = None;
    let mut techniques = vec![Technique::Baseline];
    let mut size = SizeClass::Small;
    let mut seed = 42u64;
    let mut instrs = 200_000u64;
    let mut scfg = SampleConfig::default();
    let mut no_exact = false;
    let mut json = false;
    let mut threads = 1usize;
    let mut jobs = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--no-exact" => no_exact = true,
            "--json" => json = true,
            "--bench" | "--input" | "--technique" | "--size" | "--seed" | "--instrs"
            | "--interval" | "--warmup" | "--period" | "--placement" | "--sample-seed"
            | "--threads" | "--jobs" => {
                let Some(v) = args.get(i + 1).cloned() else {
                    eprintln!("error: {} needs a value", args[i]);
                    return ExitCode::from(2);
                };
                let parse_u64 = |flag: &str, v: &str| -> Result<u64, ExitCode> {
                    v.parse().map_err(|e| {
                        eprintln!("error: {flag}: {e}");
                        ExitCode::from(2)
                    })
                };
                match args[i].as_str() {
                    "--bench" => match parse_bench(&v) {
                        Some(b) => bench = Some(b),
                        None => {
                            eprintln!("error: unknown benchmark '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--input" => match parse_input(&v) {
                        Some(g) => input = Some(g),
                        None => {
                            eprintln!("error: unknown input '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--technique" => match parse_technique(&v) {
                        Some(t) => techniques = t,
                        None => {
                            eprintln!("error: unknown technique '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--size" => match parse_size(&v) {
                        Some(s) => size = s,
                        None => {
                            eprintln!("error: unknown size '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--placement" => {
                        scfg.placement = match v.as_str() {
                            "systematic" => Placement::Systematic,
                            "random" => Placement::Random,
                            _ => {
                                eprintln!("error: unknown placement '{v}'");
                                return ExitCode::from(2);
                            }
                        };
                    }
                    flag => {
                        let n = match parse_u64(flag, &v) {
                            Ok(n) => n,
                            Err(code) => return code,
                        };
                        match flag {
                            "--seed" => seed = n,
                            "--instrs" => instrs = n,
                            "--interval" => scfg.interval = n,
                            "--warmup" => scfg.warmup = n,
                            "--period" => scfg.period = n,
                            "--sample-seed" => scfg.seed = n,
                            "--threads" => threads = n as usize,
                            "--jobs" => jobs = n as usize,
                            _ => unreachable!("covered by the outer match"),
                        }
                    }
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return unknown_flag("sample", other),
        }
        i += 1;
    }
    let benches: Vec<Benchmark> = if all {
        Benchmark::ALL.to_vec()
    } else if let Some(b) = bench {
        vec![b]
    } else {
        eprintln!("error: sample needs --all or --bench NAME (see 'dvrsim --help')");
        return ExitCode::from(2);
    };
    if let Err(e) = scfg.with_max_instructions(instrs).validate() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    // Sampled runs: the functional fast-forward pass is paid ONCE per
    // benchmark — its emitted checkpoints seed the measure phase of every
    // technique — and each technique's periods are measured either on
    // in-process worker threads (--threads) or spawned sample-worker
    // processes (--jobs > 0). Both paths merge deterministically, so the
    // reports are byte-identical modulo wall-clock fields.
    let mut cells: Vec<(Benchmark, Technique)> = Vec::new();
    let mut sampled_reports: Vec<SimReport> = Vec::new();
    let scratch_root = std::env::temp_dir().join(format!("dvrsim-sample-{}", std::process::id()));
    for b in &benches {
        let wl = b.build(b.is_gap().then(|| input.unwrap_or(GraphInput::Kr)), size, seed);
        let cfg0 = SimConfig::new(techniques[0]).with_max_instructions(instrs);
        let t_emit = std::time::Instant::now();
        let emit = sample_emit(&wl, &cfg0, &scfg);
        let emit_secs = t_emit.elapsed().as_secs_f64();
        for t in &techniques {
            cells.push((*b, *t));
            let cfg = SimConfig::new(*t).with_max_instructions(instrs);
            let t0 = std::time::Instant::now();
            let result = match &emit {
                Ok(emit) if jobs > 0 => {
                    let scratch = scratch_root.join(format!("{}-{}", b.name(), technique_flag(*t)));
                    worker_command(*b, input, *t, size, seed, instrs, &scfg).and_then(|argv| {
                        measure_periods_via_workers(&argv, &emit.checkpoints, jobs, &scratch)
                            .map(|periods| merge_periods(periods, emit.total_retired, emit.halted))
                    })
                }
                Ok(emit) => measure_emitted(&wl, &cfg, &scfg, &emit.checkpoints, threads)
                    .map(|periods| merge_periods(periods, emit.total_retired, emit.halted)),
                // The shared emit failed; re-run it (deterministic) so each
                // cell reports the real typed error.
                Err(_) => sample_emit(&wl, &cfg, &scfg).and_then(|emit| {
                    measure_emitted(&wl, &cfg, &scfg, &emit.checkpoints, threads)
                        .map(|periods| merge_periods(periods, emit.total_retired, emit.halted))
                }),
            };
            let mut report = sampled_report_from(&wl, &cfg, &scfg, result);
            report.host_seconds = emit_secs / techniques.len() as f64 + t0.elapsed().as_secs_f64();
            sampled_reports.push(report);
        }
    }
    if jobs > 0 {
        let _ = std::fs::remove_dir_all(&scratch_root);
    }

    // Exact-comparison runs stay cell-parallel: they share nothing.
    let exacts: Vec<Option<SimReport>> = if no_exact {
        (0..cells.len()).map(|_| None).collect()
    } else {
        parallel_map(cells.len(), threads, |i| {
            let (b, t) = cells[i];
            let wl = b.build(b.is_gap().then(|| input.unwrap_or(GraphInput::Kr)), size, seed);
            Some(simulate(&wl, &SimConfig::new(t).with_max_instructions(instrs)))
        })
    };

    let mut failed = 0usize;
    for (sampled, exact) in sampled_reports.iter().zip(&exacts) {
        if json {
            println!("{}", sampled.to_json());
        }
        let Some(s) = &sampled.sampling else {
            let e = sampled.outcome.error().map(|e| e.to_string()).unwrap_or_default();
            eprintln!("{} {}: sampled run failed: {e}", sampled.workload, sampled.technique.name());
            failed += 1;
            continue;
        };
        match exact {
            Some(exact) => {
                let within = (exact.ipc - s.ipc_mean).abs() <= s.ipc_ci95;
                if !json {
                    println!(
                        "{:16} {:14} exact {:.4}  sampled {:.4} +/- {:.4} (n={:3})  \
                         err {:+.2}%  {}  host speedup {:.1}x",
                        sampled.workload,
                        sampled.technique.name(),
                        exact.ipc,
                        s.ipc_mean,
                        s.ipc_ci95,
                        s.intervals,
                        100.0 * (s.ipc_mean - exact.ipc) / exact.ipc.max(1e-12),
                        if within { "within CI" } else { "OUTSIDE CI" },
                        exact.host_seconds / sampled.host_seconds.max(1e-9),
                    );
                }
                if !within || !exact.outcome.is_complete() {
                    failed += 1;
                }
            }
            None if !json => {
                println!(
                    "{:16} {:14} sampled {:.4} +/- {:.4} (n={:3})  {:.2} Minstr/s",
                    sampled.workload,
                    sampled.technique.name(),
                    s.ipc_mean,
                    s.ipc_ci95,
                    s.intervals,
                    sampled.host_minstr_per_sec(),
                );
            }
            None => {}
        }
    }
    if failed > 0 {
        eprintln!("sample: {failed} of {} runs failed or missed their CI", sampled_reports.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `dvrsim mix`: a multi-programmed mix on the discrete-event scheduler —
/// N cores with private L1/L2 over one shared L3 + DRAM, with optional solo
/// baselines for throughput/fairness metrics.
fn mix_main(args: &[String]) -> ExitCode {
    let mut spec_str: Option<String> = None;
    let mut cores = 0usize;
    let mut technique = Technique::Dvr;
    let mut size = SizeClass::Small;
    let mut seed = 42u64;
    let mut instrs = 200_000u64;
    let mut threads = 1usize;
    let mut solo = false;
    let mut sanitize = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--solo" => solo = true,
            "--sanitize" => sanitize = true,
            "--json" => json = true,
            "--spec" | "--cores" | "--technique" | "--size" | "--seed" | "--instrs"
            | "--threads" => {
                let Some(v) = args.get(i + 1).cloned() else {
                    eprintln!("error: {} needs a value", args[i]);
                    return ExitCode::from(2);
                };
                match args[i].as_str() {
                    "--spec" => spec_str = Some(v),
                    "--technique" => match parse_technique(&v).as_deref() {
                        Some([t]) => technique = *t,
                        _ => {
                            eprintln!("error: mix needs a single technique, got '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--size" => match parse_size(&v) {
                        Some(s) => size = s,
                        None => {
                            eprintln!("error: unknown size '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    flag => {
                        let n: u64 = match v.parse() {
                            Ok(n) => n,
                            Err(e) => {
                                eprintln!("error: {flag}: {e}");
                                return ExitCode::from(2);
                            }
                        };
                        match flag {
                            "--cores" => cores = n as usize,
                            "--seed" => seed = n,
                            "--instrs" => instrs = n,
                            "--threads" => threads = n as usize,
                            _ => unreachable!("covered by the outer match"),
                        }
                    }
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return unknown_flag("mix", other),
        }
        i += 1;
    }
    let spec = match (&spec_str, cores) {
        (Some(s), _) => match MixSpec::parse(s, technique) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: --spec: {e}");
                return ExitCode::from(2);
            }
        },
        (None, n) if n > 0 => MixSpec::round_robin(n, technique),
        _ => {
            eprintln!("error: mix needs --spec LIST or --cores N (see 'dvrsim --help')");
            return ExitCode::from(2);
        }
    };

    let base = SimConfig::new(technique).with_max_instructions(instrs).with_sanitize(sanitize);
    let t0 = std::time::Instant::now();
    let mix = simulate_mix(&spec, size, seed, &base);
    // Solo baselines are independent single-core runs: cell-parallel.
    let solos: Option<Vec<SimReport>> = solo.then(|| {
        parallel_map(spec.cores.len(), threads, |i| {
            let c = spec.cores[i];
            let mut cfg = base;
            cfg.technique = c.technique;
            cfg.core.imp_prefetcher = c.technique == Technique::Imp;
            let wl = c.bench.build(c.input, size, seed);
            simulate(&wl, &cfg)
        })
    });
    // Wall timing lives only at this level (stderr): mix stdout is
    // byte-identical across re-runs and --threads values.
    eprintln!(
        "mix: {} cores, {} cycles in {:.2}s host",
        mix.cores.len(),
        mix.cycles,
        t0.elapsed().as_secs_f64()
    );

    let eval = solos.as_ref().map(|s| evaluate_mix(&mix, s));
    if json {
        println!("{}", mix.to_json());
        if let Some(eval) = &eval {
            let slowdowns: Vec<String> = eval.slowdowns.iter().map(|s| format!("{s:.6}")).collect();
            println!(
                "{{\"throughput\":{:.6},\"fairness\":{:.6},\"slowdowns\":[{}]}}",
                eval.throughput,
                eval.fairness,
                slowdowns.join(",")
            );
        }
    } else {
        println!("mix {} ({} cores, seed {seed})", mix.label, mix.cores.len());
        for (i, r) in mix.cores.iter().enumerate() {
            let sh = &mix.shared[i];
            let slowdown = eval
                .as_ref()
                .map(|e| format!(" | slowdown {:>5.2}x", e.slowdowns[i]))
                .unwrap_or_default();
            println!(
                "core {i}: {:24} IPC {:>7.3} | {:>9} cycles | L3 hits {:>8} | \
                 DRAM {:>8} | xcore {:>6}{slowdown}",
                spec.cores[i].label(),
                r.ipc,
                r.core.cycles,
                sh.l3_hits,
                sh.dram_reads,
                sh.cross_core_hits,
            );
        }
        println!("aggregate IPC {:.3} over {} cycles", mix.aggregate_ipc, mix.cycles);
        if let Some(eval) = &eval {
            println!(
                "throughput (STP) {:.3} of {} | fairness (hmean slowdown) {:.3}",
                eval.throughput,
                mix.cores.len(),
                eval.fairness
            );
        }
    }

    let mut failed = 0usize;
    for r in &mix.cores {
        if let Some(san) = &r.sanitizer {
            eprintln!("sanitize[{}]: {}", r.workload, san.summary());
            if !san.is_clean() {
                for m in &san.first {
                    eprintln!("sanitize[{}]:   {m}", r.workload);
                }
                failed += 1;
            }
        }
        if let Some(e) = r.outcome.error() {
            eprintln!("mix: {} failed ({}): {e}", r.workload, e.kind());
            failed += 1;
        }
    }
    if let Some(san) = &mix.shared_sanitizer {
        eprintln!("sanitize[shared L3]: {}", san.summary());
        if !san.is_clean() {
            for m in &san.first {
                eprintln!("sanitize[shared L3]:   {m}");
            }
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("mix: {failed} of {} runs failed", mix.cores.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Builds the `dvrsim sample-worker ...` command line that reconstructs
/// one (workload, technique, sampling) cell in a child process. The
/// workload is rebuilt from its deterministic (bench, input, size, seed)
/// recipe, so only the small checkpoint file crosses the process
/// boundary.
fn worker_command(
    b: Benchmark,
    input: Option<GraphInput>,
    t: Technique,
    size: SizeClass,
    seed: u64,
    instrs: u64,
    scfg: &SampleConfig,
) -> Result<Vec<String>, dvr_sim::SampleError> {
    let exe = std::env::current_exe().map_err(|e| {
        dvr_sim::SampleError::Worker(format!("cannot locate the dvrsim binary: {e}"))
    })?;
    let mut v: Vec<String> = vec![
        exe.to_string_lossy().into_owned(),
        "sample-worker".into(),
        "--bench".into(),
        b.name().into(),
        "--technique".into(),
        technique_flag(t).into(),
        "--size".into(),
        size_flag(size).into(),
        "--seed".into(),
        seed.to_string(),
        "--instrs".into(),
        instrs.to_string(),
        "--interval".into(),
        scfg.interval.to_string(),
        "--warmup".into(),
        scfg.warmup.to_string(),
        "--period".into(),
        scfg.period.to_string(),
        "--placement".into(),
        match scfg.placement {
            Placement::Systematic => "systematic".into(),
            Placement::Random => "random".into(),
        },
        "--sample-seed".into(),
        scfg.seed.to_string(),
        "--json".into(),
    ];
    if b.is_gap() {
        v.push("--input".into());
        v.push(input.unwrap_or(GraphInput::Kr).name().into());
    }
    Ok(v)
}

/// `dvrsim sample-worker`: measures ONE sampling period from a checkpoint
/// file and prints one integer-JSON result line on stdout — the worker
/// half of `dvrsim sample --jobs N`.
fn sample_worker_main(args: &[String]) -> ExitCode {
    let mut bench: Option<Benchmark> = None;
    let mut input: Option<GraphInput> = None;
    let mut techniques: Vec<Technique> = vec![];
    let mut size = SizeClass::Small;
    let mut seed = 42u64;
    let mut instrs = 200_000u64;
    let mut scfg = SampleConfig::default();
    let mut checkpoint: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            // Output is always one JSON line; the flag is accepted for
            // symmetry with the other subcommands.
            "--json" => {}
            "--bench" | "--input" | "--technique" | "--size" | "--seed" | "--instrs"
            | "--interval" | "--warmup" | "--period" | "--placement" | "--sample-seed"
            | "--checkpoint" => {
                let Some(v) = args.get(i + 1).cloned() else {
                    eprintln!("error: {} needs a value", args[i]);
                    return ExitCode::from(2);
                };
                match args[i].as_str() {
                    "--bench" => match parse_bench(&v) {
                        Some(b) => bench = Some(b),
                        None => {
                            eprintln!("error: unknown benchmark '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--input" => match parse_input(&v) {
                        Some(g) => input = Some(g),
                        None => {
                            eprintln!("error: unknown input '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--technique" => match parse_technique(&v) {
                        Some(t) if t.len() == 1 => techniques = t,
                        _ => {
                            eprintln!("error: sample-worker needs a single technique, got '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--size" => match parse_size(&v) {
                        Some(s) => size = s,
                        None => {
                            eprintln!("error: unknown size '{v}'");
                            return ExitCode::from(2);
                        }
                    },
                    "--placement" => {
                        scfg.placement = match v.as_str() {
                            "systematic" => Placement::Systematic,
                            "random" => Placement::Random,
                            _ => {
                                eprintln!("error: unknown placement '{v}'");
                                return ExitCode::from(2);
                            }
                        };
                    }
                    "--checkpoint" => checkpoint = Some(v),
                    flag => {
                        let n: u64 = match v.parse() {
                            Ok(n) => n,
                            Err(e) => {
                                eprintln!("error: {flag}: {e}");
                                return ExitCode::from(2);
                            }
                        };
                        match flag {
                            "--seed" => seed = n,
                            "--instrs" => instrs = n,
                            "--interval" => scfg.interval = n,
                            "--warmup" => scfg.warmup = n,
                            "--period" => scfg.period = n,
                            "--sample-seed" => scfg.seed = n,
                            _ => unreachable!("covered by the outer match"),
                        }
                    }
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return unknown_flag("sample-worker", other),
        }
        i += 1;
    }
    let (Some(b), Some(path), [t]) = (bench, checkpoint, techniques.as_slice()) else {
        eprintln!("error: sample-worker needs --bench, --technique, and --checkpoint");
        return ExitCode::from(2);
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let ck = match dvr_sim::PeriodCheckpoint::decode(&bytes) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = b.build(b.is_gap().then(|| input.unwrap_or(GraphInput::Kr)), size, seed);
    let cfg = SimConfig::new(*t).with_max_instructions(instrs);
    let scfg = scfg.with_max_instructions(instrs);
    match sim_sample::measure_period(&wl.prog, &wl.mem, cfg.core, cfg.hierarchy, &scfg, &ck, || {
        dvr_sim::engine_factory(&cfg)
    }) {
        Ok(p) => {
            println!("{}", p.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sample-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        return lint_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("lint-taint") {
        return lint_taint_main(&argv[1..]);
    }
    if let Some(cmd @ ("audit" | "leak-audit" | "bounds-audit")) = argv.first().map(String::as_str)
    {
        return audits_main(cmd, &argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("sample") {
        return sample_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("sample-worker") {
        return sample_worker_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("mix") {
        return mix_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("sweep") {
        return sweep_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("sweep-worker") {
        return sweep_worker_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = match load_workload(&o) {
        Ok(wl) => wl,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !o.json {
        println!("{} — {}", wl.name, wl.description);
        println!(
            "{} static instructions, {} byte memory image\n",
            wl.prog.len(),
            wl.mem.footprint_bytes()
        );
    }

    let mut base_ipc = None;
    let mut failed = 0usize;
    for t in &o.techniques {
        let mut cfg = SimConfig::new(*t).with_max_instructions(o.instrs);
        if let Some(rob) = o.rob {
            cfg = cfg.with_rob(rob);
        }
        if let Some(fault) = o.inject {
            cfg = cfg.with_faults(fault);
        }
        if let Some(w) = o.watchdog {
            cfg = cfg.with_watchdog_cycles(w);
        }
        if o.sanitize {
            cfg = cfg.with_sanitize(true);
        }
        let r = simulate(&wl, &cfg);
        if *t == Technique::Baseline {
            base_ipc = Some(r.ipc);
        }
        if o.json {
            println!("{}", r.to_json());
        } else {
            print_report(&r, if *t == Technique::Baseline { None } else { base_ipc }, o.verbose);
        }
        // The sanitizer speaks only on stderr so stdout (and especially
        // --json) stays byte-identical with the sanitizer on or off.
        if let Some(san) = &r.sanitizer {
            eprintln!("sanitize[{}]: {}", r.technique.name(), san.summary());
            if !san.is_clean() {
                for m in &san.first {
                    eprintln!("sanitize[{}]:   {m}", r.technique.name());
                }
                failed += 1;
            }
        }
        if let Some(e) = r.outcome.error() {
            failed += 1;
            if !o.json {
                println!("               FAILED ({}): {e}", e.kind());
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} runs failed", o.techniques.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// sweep / sweep-worker / serve — the crash-safe sweep service
// ---------------------------------------------------------------------------

struct SweepOpts {
    benches: Vec<Benchmark>,
    inputs: Vec<GraphInput>,
    techniques: Vec<Technique>,
    size: SizeClass,
    seed: u64,
    instrs: u64,
    out: std::path::PathBuf,
    cache: Option<std::path::PathBuf>,
    jobs: usize,
    timeout_ms: u64,
    retries: u32,
    backoff_ms: u64,
    backoff_seed: u64,
    keep_going: bool,
    gc: bool,
    fault: sim_sweep::SweepFault,
    json: bool,
}

fn parse_bench_list(spec: &str) -> Result<Vec<Benchmark>, String> {
    match spec {
        "all" => Ok(Benchmark::ALL.to_vec()),
        "gap" => Ok(Benchmark::ALL.iter().copied().filter(|b| b.is_gap()).collect()),
        "hpcdb" => Ok(Benchmark::ALL.iter().copied().filter(|b| !b.is_gap()).collect()),
        list => list
            .split(',')
            .map(|s| parse_bench(s).ok_or(format!("unknown benchmark '{s}'")))
            .collect(),
    }
}

fn parse_input_list(spec: &str) -> Result<Vec<GraphInput>, String> {
    match spec {
        "all" => Ok(GraphInput::ALL.to_vec()),
        list => {
            list.split(',').map(|s| parse_input(s).ok_or(format!("unknown input '{s}'"))).collect()
        }
    }
}

fn parse_technique_list(spec: &str) -> Result<Vec<Technique>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let ts = parse_technique(part).ok_or(format!("unknown technique '{part}'"))?;
        for t in ts {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("no techniques in '{spec}'"));
    }
    Ok(out)
}

fn parse_sweep_args(args: &[String]) -> Result<SweepOpts, String> {
    let mut o = SweepOpts {
        benches: Benchmark::ALL.to_vec(),
        inputs: vec![GraphInput::Kr],
        techniques: parse_technique("all").expect("static"),
        size: SizeClass::Small,
        seed: 42,
        instrs: 200_000,
        out: "sweep-out".into(),
        cache: Some(".dvr-cache".into()),
        jobs: 0,
        timeout_ms: 0,
        retries: 2,
        backoff_ms: 50,
        backoff_seed: 42,
        keep_going: false,
        gc: false,
        fault: sim_sweep::SweepFault::default(),
        json: false,
    };
    let mut i = 0usize;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => o.benches = parse_bench_list(&value(&mut i)?)?,
            "--input" => o.inputs = parse_input_list(&value(&mut i)?)?,
            "--technique" => o.techniques = parse_technique_list(&value(&mut i)?)?,
            "--size" => {
                let v = value(&mut i)?;
                o.size =
                    dvr_sim::sweep::parse_size_token(&v).ok_or(format!("unknown size '{v}'"))?;
            }
            "--seed" => o.seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--instrs" => o.instrs = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--out" => o.out = value(&mut i)?.into(),
            "--cache" => o.cache = Some(value(&mut i)?.into()),
            "--no-cache" => o.cache = None,
            "--jobs" => o.jobs = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--timeout-ms" => o.timeout_ms = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--retries" => o.retries = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--backoff-ms" => o.backoff_ms = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--backoff-seed" => {
                o.backoff_seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--keep-going" => o.keep_going = true,
            "--gc" => o.gc = true,
            "--inject-sweep" => {
                o.fault =
                    sim_sweep::SweepFault::parse(&value(&mut i)?).map_err(|e| e.to_string())?
            }
            "--json" => o.json = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                let _ = unknown_flag("sweep", other);
                std::process::exit(2);
            }
        }
        i += 1;
    }
    Ok(o)
}

fn sweep_grid(o: &SweepOpts) -> Vec<dvr_sim::SweepCell> {
    dvr_sim::SweepCell::grid(&o.benches, &o.inputs, &o.techniques, o.size, o.seed, o.instrs)
}

fn sweep_main(args: &[String]) -> ExitCode {
    let o = match parse_sweep_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cells = sweep_grid(&o);
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    let exe = (o.jobs > 0).then(|| std::env::current_exe().ok()).flatten();
    let runner = dvr_sim::DvrSweepRunner::new(exe);
    let cache = match &o.cache {
        None => None,
        Some(dir) => match sim_sweep::ResultCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    if o.gc {
        let Some(cache) = cache else {
            eprintln!("error: --gc needs a cache (drop --no-cache)");
            return ExitCode::from(2);
        };
        use sim_sweep::CellRunner;
        let keep: std::collections::HashSet<String> =
            keys.iter().filter_map(|k| runner.cache_key(k)).map(|d| d.hex()).collect();
        return match cache.gc(&keep) {
            Ok(stats) => {
                println!(
                    "sweep gc: kept={} removed={} quarantine_purged={}",
                    stats.kept, stats.removed, stats.quarantine_purged
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("error: create {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    let opts = sim_sweep::SweepOptions {
        jobs: o.jobs,
        timeout_ms: o.timeout_ms,
        retries: o.retries,
        backoff_ms: o.backoff_ms,
        seed: o.backoff_seed,
        keep_going: o.keep_going,
        fault: o.fault,
    };
    let journal = o.out.join("journal.dvrj");
    let run = match sim_sweep::run_sweep(&keys, &runner, &journal, cache.as_ref(), &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in &run.warnings {
        eprintln!("sweep: warning[{}]: {w}", w.kind());
    }
    let s = &run.stats;
    eprintln!(
        "sweep: cells={} journal={} cache={} computed={} failed={} spawns={} \
         cache_hits={} cache_misses={} cache_corrupt={} cache_stores={} replay_dropped_bytes={}",
        s.total,
        s.from_journal,
        s.from_cache,
        s.computed,
        s.failed,
        s.spawns,
        s.cache.hits,
        s.cache.misses,
        s.cache.corrupt,
        s.cache.stores,
        s.replay.dropped_bytes,
    );
    let summary = sim_sweep::render_summary(&keys, &run.outcomes, &runner);
    let path = o.out.join("summary.json");
    if let Err(e) = sim_sweep::write_atomic(&path, &summary) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if o.json {
        print!("{summary}");
    } else {
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn sweep_worker_main(args: &[String]) -> ExitCode {
    // The supervisor appends --test-hang under an injected hang fault;
    // honoring it exercises the timeout/kill path deterministically.
    if args.iter().any(|a| a == sim_sweep::WORKER_HANG_FLAG) {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }
    match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(flag) if flag.starts_with("--") => return unknown_flag("sweep-worker", flag),
        _ => {}
    }
    let Some(cell) = args.first() else {
        eprintln!("usage: dvrsim sweep-worker CELL-KEY");
        return ExitCode::from(2);
    };
    use sim_sweep::CellRunner;
    let runner = dvr_sim::DvrSweepRunner::new(None);
    match runner.run(cell) {
        Ok(payload) => println!("{}", sim_sweep::ok_line(&payload)),
        Err((kind, message)) => println!("{}", sim_sweep::fail_line(&kind, &message)),
    }
    ExitCode::SUCCESS
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut socket: Option<std::path::PathBuf> = None;
    let mut cache_dir: Option<std::path::PathBuf> = Some(".dvr-cache".into());
    let mut i = 0usize;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => match value(&mut i) {
                Ok(v) => socket = Some(v.into()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--cache" => match value(&mut i) {
                Ok(v) => cache_dir = Some(v.into()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => cache_dir = None,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return unknown_flag("serve", other),
        }
        i += 1;
    }
    let Some(socket) = socket else {
        eprintln!("error: serve needs --socket PATH\n\n{USAGE}");
        return ExitCode::from(2);
    };
    serve_loop(&socket, cache_dir.as_deref())
}

#[cfg(unix)]
fn serve_loop(socket: &std::path::Path, cache_dir: Option<&std::path::Path>) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixListener;

    let cache = match cache_dir {
        None => None,
        Some(dir) => match sim_sweep::ResultCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let _ = std::fs::remove_file(socket); // a stale socket from a killed server
    let listener = match UnixListener::bind(socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serve: listening on {}", socket.display());
    let runner = dvr_sim::DvrSweepRunner::new(None);
    let mut served = 0u64;
    'accept: for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        });
        let mut stream = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // client hung up
                Ok(_) => {}
            }
            let reply = match line.trim() {
                "" => continue,
                "ping" => "{\"ok\":true}".to_string(),
                "shutdown" => {
                    let _ = stream.write_all(b"{\"ok\":true}\n");
                    break 'accept;
                }
                "stats" => {
                    let c = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
                    format!(
                        "{{\"served\":{served},\"cache_hits\":{},\"cache_misses\":{},\
                         \"cache_corrupt\":{},\"cache_stores\":{}}}",
                        c.hits, c.misses, c.corrupt, c.stores
                    )
                }
                req => match req.strip_prefix("run ") {
                    Some(key) => {
                        served += 1;
                        serve_run(&runner, cache.as_ref(), key)
                    }
                    None => format!(
                        "{{\"error\":\"unknown request {}\"}}",
                        req.split_whitespace().next().unwrap_or("")
                    ),
                },
            };
            if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                break;
            }
        }
    }
    let _ = std::fs::remove_file(socket);
    ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn serve_loop(_socket: &std::path::Path, _cache_dir: Option<&std::path::Path>) -> ExitCode {
    eprintln!("error: dvrsim serve --socket requires a Unix platform");
    ExitCode::FAILURE
}

#[cfg(unix)]
fn serve_run(
    runner: &dvr_sim::DvrSweepRunner,
    cache: Option<&sim_sweep::ResultCache>,
    key: &str,
) -> String {
    let cell = match dvr_sim::SweepCell::parse(key) {
        Ok(cell) => cell,
        Err(e) => return format!("{{\"error\":\"bad cell: {e}\",\"kind\":\"bad_cell\"}}"),
    };
    let digest = dvr_sim::cache_key(&runner.workload(&cell), &cell.config(), None);
    if let Some(cache) = cache {
        match cache.lookup(digest) {
            sim_sweep::CacheLookup::Hit(payload) => match dvr_sim::decode_report(&payload) {
                Ok(report) => {
                    return format!("{{\"cached\":true,\"report\":{}}}", report.to_json())
                }
                Err(e) => eprintln!("serve: warning: undecodable cache payload: {e}"),
            },
            sim_sweep::CacheLookup::Corrupt(e) => eprintln!("serve: warning[{}]: {e}", e.kind()),
            sim_sweep::CacheLookup::Miss => {}
        }
    }
    let mut report = runner.run_report(&cell);
    match &report.outcome {
        dvr_sim::RunOutcome::Complete => {
            if let (Some(cache), Ok(payload)) = (cache, dvr_sim::encode_report(&report)) {
                if let Err(e) = cache.store(digest, &payload) {
                    eprintln!("serve: warning: {e}");
                }
            }
            // Deterministic responses: the wall clock never crosses the
            // service boundary, so cached and fresh replies are identical.
            report.host_seconds = 0.0;
            format!("{{\"cached\":false,\"report\":{}}}", report.to_json())
        }
        dvr_sim::RunOutcome::Failed(e) => {
            format!(
                "{{\"error\":\"{}\",\"kind\":\"{}\"}}",
                e.to_string().replace('\\', "\\\\").replace('"', "\\\""),
                e.kind()
            )
        }
    }
}
