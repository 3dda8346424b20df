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

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dvr_sim::sweep::{parse_size_token, parse_technique_token};
use dvr_sim::{
    evaluate_mix, parallel_map, simulate, simulate_mix, simulate_sampled_cells, FaultConfig,
    Measure, MixSpec, Placement, SampleConfig, SampleError, SanitizeReport, SimConfig, SimReport,
    SweepCell, Technique,
};
use workloads::{gather_attack, Benchmark, GraphInput, SizeClass, Workload};

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
       dvrsim sample-worker CELL-KEY --checkpoint FILE.ckpt [--interval N] [--warmup N]
                     [--period N] [--placement P] [--sample-seed N]
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
                        stderr; stdout is byte-identical apart from the
                        --verbose work line, as it steps every cycle)
  --verbose             per-run engine detail, prefetch timeliness, demand-hit
                        levels, prefetch accuracy and the cycle loop's work
                        (cycles stepped and skipped, issue candidates)
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
period and serves every technique, measuring each (warmup + measured)
interval independently as the pass emits it, in batches — one period per
--threads in-process worker, or per --jobs spawned `dvrsim sample-worker`
process when --jobs > 0. Results merge deterministically, so output is
byte-identical (modulo wall-clock fields) for every --threads/--jobs
combination. Unless --no-exact, an exact run of the same region is
compared; a sampled mean whose 95% confidence interval misses the exact
IPC fails the command.

the `sample-worker` subcommand is the internal worker of `sample --jobs`:
it measures one period of the cell CELL-KEY (the key `sweep-worker` takes)
from a checkpoint file and answers like `sweep-worker`, with one
SWEEPOK1/SWEEPFAIL1 line on stdout.

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

/// The one argument reader behind every entry point. It words the four
/// common flag errors; `main` prints each as one `error:` line on stderr
/// and exits 2:
///
/// - `--F needs a value` ([`Args::value`]);
/// - `--F: <parse error>` ([`Args::number`]);
/// - `unknown <what> '<v>'` ([`Args::named`]);
/// - `unknown <cmd> option '--F' (see 'dvrsim --help')` ([`Args::unknown`]).
struct Args<'a> {
    /// The entry point named in unknown-option errors (`dvrsim` for the
    /// top-level run).
    cmd: &'a str,
    rest: std::slice::Iter<'a, String>,
    /// The argument [`Args::next`] returned last.
    flag: &'a str,
}

impl<'a> Args<'a> {
    fn new(cmd: &'a str, args: &'a [String]) -> Self {
        Args { cmd, rest: args.iter(), flag: "" }
    }

    /// The next flag or positional argument. `--help` (or `-h`) anywhere
    /// prints the usage text and exits 0.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?.as_str();
        if matches!(self.flag, "--help" | "-h") {
            print!("{USAGE}");
            std::process::exit(0);
        }
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, String> {
        self.rest.next().map(String::as_str).ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value as a number.
    fn number<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let flag = self.flag;
        self.value()?.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// The current flag's value as a name `parse` knows; `what` says what
    /// kind of name (`benchmark`, `size`, ...).
    fn named<T>(&mut self, what: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let v = self.value()?;
        parse(v).ok_or_else(|| format!("unknown {what} '{v}'"))
    }

    /// The error for a flag this entry point does not take.
    fn unknown(&self) -> String {
        format!("unknown {} option '{}' (see 'dvrsim --help')", self.cmd, self.flag)
    }
}

/// Reads the current flag into `scfg` if it is one of the five sampling
/// flags `sample` and `sample-worker` share; `Ok(false)` if it is not.
fn sampling_flag(a: &mut Args, scfg: &mut SampleConfig) -> Result<bool, String> {
    match a.flag {
        "--interval" => scfg.interval = a.number()?,
        "--warmup" => scfg.warmup = a.number()?,
        "--period" => scfg.period = a.number()?,
        "--placement" => scfg.placement = a.named("placement", Placement::parse)?,
        "--sample-seed" => scfg.seed = a.number()?,
        _ => return Ok(false),
    }
    Ok(true)
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

/// A `--technique` value: a technique token, `baseline`, or `all` (the
/// baseline plus the Figure 7 techniques).
fn parse_technique(s: &str) -> Option<Vec<Technique>> {
    match s {
        "all" => Some([Technique::Baseline].into_iter().chain(Technique::FIG7).collect()),
        "baseline" => Some(vec![Technique::Baseline]),
        _ => parse_technique_token(s).map(|t| vec![t]),
    }
}

/// The top-level run: one benchmark or `.s` kernel under each selected
/// technique.
fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut bench, mut asm_path, mut input) = (None, None, None);
    let mut techniques = parse_technique("all").expect("static");
    let mut size = SizeClass::Small;
    let (mut instrs, mut seed) = (200_000, 42);
    let (mut rob, mut inject, mut watchdog) = (None, None, None);
    let (mut sanitize, mut verbose, mut json) = (false, false, false);
    let mut a = Args::new("dvrsim", args);
    while let Some(flag) = a.next() {
        match flag {
            "--list" => {
                println!("benchmarks:");
                for b in Benchmark::ALL {
                    let inputs = if b.is_gap() { "  (takes --input)" } else { "" };
                    println!("  {}{}", b.name(), inputs);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--bench" => bench = Some(a.named("benchmark", Benchmark::parse)?),
            "--asm" => asm_path = Some(a.value()?),
            "--input" => input = Some(a.named("input", GraphInput::parse)?),
            "--technique" => techniques = a.named("technique", parse_technique)?,
            "--size" => size = a.named("size", parse_size_token)?,
            "--instrs" => instrs = a.number()?,
            "--seed" => seed = a.number()?,
            "--rob" => rob = Some(a.number()?),
            "--inject" => inject = Some(parse_inject(a.value()?)?),
            "--watchdog" => watchdog = Some(a.number()?),
            "--sanitize" => sanitize = true,
            "--verbose" => verbose = true,
            "--json" => json = true,
            _ => return Err(a.unknown()),
        }
    }
    let wl = match (asm_path, bench) {
        (Some(path), _) => {
            let prog = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| sim_isa::parse_program(&text).map_err(|e| e.to_string()));
            match prog {
                Ok(prog) => Workload {
                    name: path.to_string(),
                    prog,
                    mem: sim_isa::SparseMemory::new(),
                    description: "user kernel (zero-initialized memory)".to_string(),
                    regions: vec![],
                },
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        (None, Some(b)) => b.build(input, size, seed),
        (None, None) => {
            return Err(format!("one of --bench or --asm is required (try --list)\n\n{USAGE}"))
        }
    };
    if !json {
        println!("{} — {}", wl.name, wl.description);
        println!(
            "{} static instructions, {} byte memory image\n",
            wl.prog.len(),
            wl.mem.footprint_bytes()
        );
    }

    let mut base_ipc = None;
    let mut failed = 0usize;
    for t in &techniques {
        let mut cfg = SimConfig::new(*t).with_max_instructions(instrs);
        if let Some(rob) = rob {
            cfg = cfg.with_rob(rob);
        }
        if let Some(fault) = inject {
            cfg = cfg.with_faults(fault);
        }
        if let Some(w) = watchdog {
            cfg = cfg.with_watchdog_cycles(w);
        }
        if sanitize {
            cfg = cfg.with_sanitize(true);
        }
        let r = simulate(&wl, &cfg);
        if *t == Technique::Baseline {
            base_ipc = Some(r.ipc);
        }
        if json {
            println!("{}", r.to_json());
        } else {
            print_report(&r, if *t == Technique::Baseline { None } else { base_ipc }, verbose);
        }
        // The sanitizer speaks only on stderr so stdout (and especially
        // --json) stays byte-identical with the sanitizer on or off.
        failed += sanitizer_failures(r.technique.name(), r.sanitizer.as_ref());
        if let Some(e) = r.outcome.error() {
            failed += 1;
            if !json {
                println!("               FAILED ({}): {e}", e.kind());
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} runs failed", techniques.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints a sanitizer ledger to stderr as `sanitize[label]: summary`,
/// plus its first messages when it is not clean; returns 1 for a ledger
/// with violations, else 0.
fn sanitizer_failures(label: &str, san: Option<&SanitizeReport>) -> usize {
    let Some(san) = san else { return 0 };
    eprintln!("sanitize[{label}]: {}", san.summary());
    if san.is_clean() {
        return 0;
    }
    for m in &san.first {
        eprintln!("sanitize[{label}]:   {m}");
    }
    1
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
        // Where demand loads hit, and how many prefetches the technique's
        // own engine issued and what fraction of them were used.
        let (h, inflight) = (r.mem.demand_hits, r.mem.demand_inflight);
        let pct = |n: u64| 100.0 * n as f64 / (h.iter().sum::<u64>() + inflight).max(1) as f64;
        let prefetch = r.prefetch_source().map_or(String::new(), |src| {
            let acc = 100.0 * r.mem.accuracy(src).unwrap_or(0.0);
            format!(" | prefetch {} issued, accuracy {acc:.0}%", r.mem.prefetch_issued[src.index()])
        });
        println!(
            "               demand L1 {:.0}% / L2 {:.0}% / L3 {:.0}% / DRAM {:.0}% / in-flight \
             {:.0}%{prefetch}",
            pct(h[0]),
            pct(h[1]),
            pct(h[2]),
            pct(h[3]),
            pct(inflight)
        );
        // The cycle loop's own work (a sanitized run steps every cycle).
        println!("               work: {}", r.work);
    }
}

/// A program `lint` or `lint-taint` checks, with the memory image it was
/// built with (none for a user `.s` kernel).
type Linted = (String, sim_isa::Program, Option<sim_isa::SparseMemory>);

/// The programs `lint` and `lint-taint` check: every benchmark (`--all`),
/// else one (`--bench`), else a `.s` kernel (`--asm`); empty when none is
/// selected. `Err` is the exit code after a read or parse failure (already
/// reported).
fn load_programs(
    all: bool,
    bench: Option<Benchmark>,
    asm: Option<&str>,
    size: SizeClass,
    seed: u64,
) -> Result<Vec<Linted>, ExitCode> {
    let built = |b: Benchmark| {
        let wl = b.build(None, size, seed);
        (wl.name, wl.prog, Some(wl.mem))
    };
    if all {
        return Ok(Benchmark::ALL.into_iter().map(built).collect());
    }
    if let Some(b) = bench {
        return Ok(vec![built(b)]);
    }
    let Some(path) = asm else { return Ok(vec![]) };
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: {path}: {e}");
        ExitCode::FAILURE
    })?;
    match sim_isa::parse_program(&text) {
        Ok(prog) => Ok(vec![(path.to_string(), prog, None)]),
        Err(e) => {
            eprintln!("{path}: error[parse]: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `dvrsim lint`: static analysis of assembled programs — CFG + dataflow
/// diagnostics plus the Discovery-Mode loop-classification report.
fn lint_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut all, mut bounds, mut verbose, mut json) = (false, false, false, false);
    let (mut bench, mut asm) = (None, None);
    let (mut size, mut seed) = (SizeClass::Test, 42);
    let mut a = Args::new("lint", args);
    while let Some(flag) = a.next() {
        match flag {
            "--all" => all = true,
            "--bounds" => bounds = true,
            "--verbose" => verbose = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.named("benchmark", Benchmark::parse)?),
            "--asm" => asm = Some(a.value()?),
            "--size" => size = a.named("size", parse_size_token)?,
            "--seed" => seed = a.number()?,
            _ => return Err(a.unknown()),
        }
    }

    // Programs carry their initial memory image when built from the suite:
    // the static model scans read-only regions for content bounds. A user
    // .s kernel lints without an image (sound, less precise).
    let programs = match load_programs(all, bench, asm, size, seed) {
        Ok(p) if p.is_empty() => {
            return Err(format!("lint needs --all, --bench NAME, or --asm FILE.s\n\n{USAGE}"))
        }
        Ok(p) => p,
        Err(code) => return Ok(code),
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
    Ok(if total_errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
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

/// The argument loop of `audit`, `leak-audit` and `bounds-audit`.
/// `kernels` lists the bundled-kernel selectors `cmd` accepts (`--attack`,
/// `--oob`); every other flag outside the shared set is rejected with the
/// subcommand's name.
fn parse_audit_args(cmd: &str, args: &[String], kernels: &[&str]) -> Result<AuditArgs, String> {
    let mut x = AuditArgs {
        all: false,
        attack: false,
        oob: false,
        bench: None,
        size: SizeClass::Test,
        seed: 42,
        instrs: 60_000,
        json: false,
    };
    let mut a = Args::new(cmd, args);
    while let Some(flag) = a.next() {
        match flag {
            "--all" => x.all = true,
            "--json" => x.json = true,
            "--attack" if kernels.contains(&"--attack") => x.attack = true,
            "--oob" if kernels.contains(&"--oob") => x.oob = true,
            "--bench" => x.bench = Some(a.named("benchmark", Benchmark::parse)?),
            "--size" => x.size = a.named("size", parse_size_token)?,
            "--seed" => x.seed = a.number()?,
            "--instrs" => x.instrs = a.number()?,
            _ => return Err(a.unknown()),
        }
    }
    if !x.all && !x.attack && !x.oob && x.bench.is_none() {
        let mut selectors = vec!["--all", "--bench NAME"];
        selectors.extend(kernels);
        let needs = match selectors.split_last() {
            Some((last, [first])) => format!("{first} or {last}"),
            Some((last, rest)) => format!("{}, or {last}", rest.join(", ")),
            None => unreachable!("two shared selectors"),
        };
        return Err(format!("{cmd} needs {needs}\n\n{USAGE}"));
    }
    Ok(x)
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
fn audits_main(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    let kernels: &[&str] = match cmd {
        "audit" => &[],
        "leak-audit" => &["--attack"],
        _ => &["--attack", "--oob"],
    };
    let a = parse_audit_args(cmd, args, kernels)?;
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
    Ok(if unexplained > 0 || failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim lint-taint`: the secret-taint information-flow pass — report
/// every secret-dependent branch, secret-addressed load, and speculative
/// gather gadget in a program with `.secret` declarations.
fn lint_taint_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut all, mut attack, mut json) = (false, false, false);
    let (mut bench, mut asm) = (None, None);
    let (mut size, mut seed) = (SizeClass::Test, 42);
    let mut a = Args::new("lint-taint", args);
    while let Some(flag) = a.next() {
        match flag {
            "--all" => all = true,
            "--attack" => attack = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.named("benchmark", Benchmark::parse)?),
            "--asm" => asm = Some(a.value()?),
            "--size" => size = a.named("size", parse_size_token)?,
            "--seed" => seed = a.number()?,
            _ => return Err(a.unknown()),
        }
    }

    let mut programs = match load_programs(all, bench, asm, size, seed) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    if attack || all {
        let wl = gather_attack(size, seed);
        programs.push((wl.name, wl.prog, Some(wl.mem)));
    }
    if programs.is_empty() {
        eprintln!("error: lint-taint needs --all, --bench NAME, --attack, or --asm FILE.s\n");
        eprint!("{USAGE}");
        return Ok(ExitCode::from(2));
    }

    let mut total_gadgets = 0usize;
    let mut total_warnings = 0usize;
    for (name, prog, mem) in &programs {
        let r = sim_lint::analyze_taint(prog, mem.as_ref());
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
    Ok(if total_gadgets > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim sample`: checkpointed sampled simulation — functional
/// fast-forward with warming between seeded detailed intervals, reported
/// with a 95% confidence interval and (by default) validated against an
/// exact run of the same region.
fn sample_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut all, mut no_exact, mut json) = (false, false, false);
    let (mut bench, mut input) = (None, None);
    let mut techniques = vec![Technique::Baseline];
    let mut size = SizeClass::Small;
    let (mut seed, mut instrs) = (42, 200_000);
    let mut scfg = SampleConfig::default();
    let (mut threads, mut jobs) = (1, 0);
    let mut a = Args::new("sample", args);
    while let Some(flag) = a.next() {
        match flag {
            "--all" => all = true,
            "--no-exact" => no_exact = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.named("benchmark", Benchmark::parse)?),
            "--input" => input = Some(a.named("input", GraphInput::parse)?),
            "--technique" => techniques = a.named("technique", parse_technique)?,
            "--size" => size = a.named("size", parse_size_token)?,
            "--seed" => seed = a.number()?,
            "--instrs" => instrs = a.number()?,
            "--threads" => threads = a.number()?,
            "--jobs" => jobs = a.number()?,
            _ if sampling_flag(&mut a, &mut scfg)? => {}
            _ => return Err(a.unknown()),
        }
    }
    let benches: Vec<Benchmark> = match (all, bench) {
        (true, _) => Benchmark::ALL.to_vec(),
        (false, Some(b)) => vec![b],
        (false, None) => {
            return Err("sample needs --all or --bench NAME (see 'dvrsim --help')".into())
        }
    };
    scfg.with_max_instructions(instrs).validate()?;

    // One functional pass per benchmark serves every technique; each batch
    // of periods is measured on --threads or in --jobs worker processes.
    let inputs = [input.unwrap_or(GraphInput::Kr)];
    let cells = SweepCell::grid(&benches, &inputs, &techniques, size, seed, instrs);
    let sampled_reports = if jobs > 0 {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the dvrsim binary: {e}"))?;
        let scratch = std::env::temp_dir().join(format!("dvrsim-sample-{}", std::process::id()));
        let reports = simulate_sampled_cells(
            &cells,
            &scfg,
            Measure::Workers { exe: &exe, jobs, scratch: &scratch },
        );
        let _ = std::fs::remove_dir_all(&scratch);
        reports
    } else {
        simulate_sampled_cells(&cells, &scfg, Measure::Threads(threads))
    };

    let exacts: Vec<Option<SimReport>> = if no_exact {
        (0..cells.len()).map(|_| None).collect()
    } else {
        exact_reports(&cells, threads).into_iter().map(Some).collect()
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
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The exact-comparison runs of `dvrsim sample`, fanned out over the cells
/// of one grid on `threads` workers. The cells of one benchmark (adjacent
/// in the grid) share one build, dropped once the last of them finishes,
/// so no more workloads are alive at once than there are workers.
fn exact_reports(cells: &[SweepCell], threads: usize) -> Vec<SimReport> {
    // One slot per benchmark: its build, and how many of its cells are
    // still to finish.
    let (mut slots, mut slot_of) = (Vec::new(), Vec::with_capacity(cells.len()));
    for group in cells.chunk_by(|a, b| (a.bench, a.input) == (b.bench, b.input)) {
        slot_of.extend(std::iter::repeat_n(slots.len(), group.len()));
        slots.push((Mutex::new(None::<Arc<Workload>>), AtomicUsize::new(group.len())));
    }
    parallel_map(cells.len(), threads, |i| {
        let (c, (build, left)) = (cells[i], &slots[slot_of[i]]);
        let poisoned = "a workload build panicked";
        let wl = Arc::clone(
            build
                .lock()
                .expect(poisoned)
                .get_or_insert_with(|| Arc::new(c.bench.build(c.input, c.size, c.seed))),
        );
        let report = simulate(&wl, &c.config());
        if left.fetch_sub(1, Ordering::SeqCst) == 1 {
            *build.lock().expect(poisoned) = None;
        }
        report
    })
}

/// `dvrsim sample-worker`: measures ONE sampling period of a sweep cell
/// from a checkpoint file and answers with one `SWEEPOK1`/`SWEEPFAIL1`
/// line on stdout — the worker half of `dvrsim sample --jobs N`.
fn sample_worker_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut key, mut checkpoint) = (None, None);
    let mut scfg = SampleConfig::default();
    let mut a = Args::new("sample-worker", args);
    while let Some(flag) = a.next() {
        match flag {
            "--checkpoint" => checkpoint = Some(a.value()?),
            _ if sampling_flag(&mut a, &mut scfg)? => {}
            cell if key.is_none() && !cell.starts_with("--") => key = Some(cell),
            _ => return Err(a.unknown()),
        }
    }
    let (Some(key), Some(path)) = (key, checkpoint) else {
        return Err("sample-worker needs CELL-KEY and --checkpoint FILE".into());
    };
    let cell = match SweepCell::parse(key) {
        Ok(cell) => cell,
        Err(e) => {
            println!("{}", sim_sweep::fail_line("bad_cell", &e));
            return Ok(ExitCode::SUCCESS);
        }
    };
    let cfg = cell.config();
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let ck = dvr_sim::PeriodCheckpoint::decode(cfg.hierarchy, &bytes)
        .map_err(|e| format!("{path}: {e}"))?;
    let wl = cell.bench.build(cell.input, cell.size, cell.seed);
    let scfg = scfg.with_max_instructions(cell.instrs);
    let line = match sim_sample::measure_period(
        &wl.prog,
        &wl.mem,
        cfg.core,
        cfg.hierarchy,
        &scfg,
        &ck,
        || dvr_sim::engine_factory(&cfg),
    ) {
        Ok(p) => sim_sweep::ok_line(&p.to_bytes()),
        Err(e) => {
            let kind = match &e {
                SampleError::Sim(e) => e.kind(),
                _ => "sample",
            };
            sim_sweep::fail_line(kind, &e.to_string())
        }
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// `dvrsim mix`: a multi-programmed mix on the discrete-event scheduler —
/// N cores with private L1/L2 over one shared L3 + DRAM, with optional solo
/// baselines for throughput/fairness metrics.
fn mix_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut spec_str, mut cores) = (None, 0);
    let mut technique = Technique::Dvr;
    let mut size = SizeClass::Small;
    let (mut seed, mut instrs, mut threads) = (42, 200_000, 1);
    let (mut solo, mut sanitize, mut json) = (false, false, false);
    let mut a = Args::new("mix", args);
    while let Some(flag) = a.next() {
        match flag {
            "--solo" => solo = true,
            "--sanitize" => sanitize = true,
            "--json" => json = true,
            "--spec" => spec_str = Some(a.value()?),
            "--cores" => cores = a.number()?,
            "--technique" => {
                let v = a.value()?;
                technique = match parse_technique(v).as_deref() {
                    Some([t]) => *t,
                    _ => return Err(format!("mix needs a single technique, got '{v}'")),
                };
            }
            "--size" => size = a.named("size", parse_size_token)?,
            "--seed" => seed = a.number()?,
            "--instrs" => instrs = a.number()?,
            "--threads" => threads = a.number()?,
            _ => return Err(a.unknown()),
        }
    }
    let spec = match (spec_str, cores) {
        (Some(s), _) => MixSpec::parse(s, technique).map_err(|e| format!("--spec: {e}"))?,
        (None, n) if n > 0 => MixSpec::round_robin(n, technique),
        _ => return Err("mix needs --spec LIST or --cores N (see 'dvrsim --help')".into()),
    };

    let base = SimConfig::new(technique).with_max_instructions(instrs).with_sanitize(sanitize);
    let t0 = std::time::Instant::now();
    let mix = simulate_mix(&spec, size, seed, &base);
    // Solo baselines are independent single-core runs: cell-parallel.
    let solos: Option<Vec<SimReport>> = solo.then(|| {
        parallel_map(spec.cores.len(), threads, |i| {
            let c = spec.cores[i];
            let wl = c.bench.build(c.input, size, seed);
            simulate(&wl, &base.with_technique(c.technique))
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
        failed += sanitizer_failures(&r.workload, r.sanitizer.as_ref());
        if let Some(e) = r.outcome.error() {
            eprintln!("mix: {} failed ({}): {e}", r.workload, e.kind());
            failed += 1;
        }
    }
    failed += sanitizer_failures("shared L3", mix.shared_sanitizer.as_ref());
    if failed > 0 {
        eprintln!("mix: {failed} of {} runs failed", mix.cores.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let run = match argv.first().map(String::as_str) {
        Some("lint") => lint_main(rest),
        Some("lint-taint") => lint_taint_main(rest),
        Some(cmd @ ("audit" | "leak-audit" | "bounds-audit")) => audits_main(cmd, rest),
        Some("sample") => sample_main(rest),
        Some("sample-worker") => sample_worker_main(rest),
        Some("mix") => mix_main(rest),
        Some("sweep") => sweep_main(rest),
        Some("sweep-worker") => sweep_worker_main(rest),
        Some("serve") => serve_main(rest),
        _ => run_main(&argv),
    };
    run.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

// ---------------------------------------------------------------------------
// sweep / sweep-worker / serve — the crash-safe sweep service
// ---------------------------------------------------------------------------

fn parse_bench_list(spec: &str) -> Result<Vec<Benchmark>, String> {
    match spec {
        "all" => Ok(Benchmark::ALL.to_vec()),
        "gap" => Ok(Benchmark::ALL.iter().copied().filter(|b| b.is_gap()).collect()),
        "hpcdb" => Ok(Benchmark::ALL.iter().copied().filter(|b| !b.is_gap()).collect()),
        list => list
            .split(',')
            .map(|s| Benchmark::parse(s).ok_or(format!("unknown benchmark '{s}'")))
            .collect(),
    }
}

fn parse_input_list(spec: &str) -> Result<Vec<GraphInput>, String> {
    match spec {
        "all" => Ok(GraphInput::ALL.to_vec()),
        list => list
            .split(',')
            .map(|s| GraphInput::parse(s).ok_or(format!("unknown input '{s}'")))
            .collect(),
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

fn sweep_main(args: &[String]) -> Result<ExitCode, String> {
    let mut benches = Benchmark::ALL.to_vec();
    let mut inputs = vec![GraphInput::Kr];
    let mut techniques = parse_technique("all").expect("static");
    let mut size = SizeClass::Small;
    let (mut seed, mut instrs) = (42, 200_000);
    let mut out = PathBuf::from("sweep-out");
    let mut cache_dir = Some(PathBuf::from(".dvr-cache"));
    let (mut gc, mut json) = (false, false);
    let mut opts = sim_sweep::SweepOptions::default();
    let mut a = Args::new("sweep", args);
    while let Some(flag) = a.next() {
        match flag {
            "--bench" => benches = parse_bench_list(a.value()?)?,
            "--input" => inputs = parse_input_list(a.value()?)?,
            "--technique" => techniques = parse_technique_list(a.value()?)?,
            "--size" => size = a.named("size", parse_size_token)?,
            "--seed" => seed = a.number()?,
            "--instrs" => instrs = a.number()?,
            "--out" => out = a.value()?.into(),
            "--cache" => cache_dir = Some(a.value()?.into()),
            "--no-cache" => cache_dir = None,
            "--jobs" => opts.jobs = a.number()?,
            "--timeout-ms" => opts.timeout_ms = a.number()?,
            "--retries" => opts.retries = a.number()?,
            "--backoff-ms" => opts.backoff_ms = a.number()?,
            "--backoff-seed" => opts.seed = a.number()?,
            "--keep-going" => opts.keep_going = true,
            "--gc" => gc = true,
            "--inject-sweep" => {
                opts.fault = sim_sweep::SweepFault::parse(a.value()?).map_err(|e| e.to_string())?
            }
            "--json" => json = true,
            _ => return Err(a.unknown()),
        }
    }
    let keys: Vec<String> =
        dvr_sim::SweepCell::grid(&benches, &inputs, &techniques, size, seed, instrs)
            .iter()
            .map(|c| c.key())
            .collect();
    let exe = (opts.jobs > 0).then(|| std::env::current_exe().ok()).flatten();
    let runner = dvr_sim::DvrSweepRunner::new(exe);
    let Ok(cache) = open_cache(cache_dir.as_deref()) else {
        return Ok(ExitCode::FAILURE);
    };

    if gc {
        let Some(cache) = cache else {
            return Err("--gc needs a cache (drop --no-cache)".into());
        };
        use sim_sweep::CellRunner;
        let keep: std::collections::HashSet<String> =
            keys.iter().filter_map(|k| runner.cache_key(k)).map(|d| d.hex()).collect();
        return Ok(match cache.gc(&keep) {
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
        });
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: create {}: {e}", out.display());
        return Ok(ExitCode::FAILURE);
    }
    let journal = out.join("journal.dvrj");
    let run = match sim_sweep::run_sweep(&keys, &runner, &journal, cache.as_ref(), &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("sweep: {e}");
            return Ok(ExitCode::FAILURE);
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
    let path = out.join("summary.json");
    if let Err(e) = sim_sweep::write_atomic(&path, &summary) {
        eprintln!("error: {e}");
        return Ok(ExitCode::FAILURE);
    }
    if json {
        print!("{summary}");
    } else {
        println!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn sweep_worker_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut cell, mut hang) = (None, false);
    let mut a = Args::new("sweep-worker", args);
    while let Some(arg) = a.next() {
        match arg {
            // The supervisor appends this under an injected hang fault;
            // honoring it exercises the timeout/kill path deterministically.
            sim_sweep::WORKER_HANG_FLAG => hang = true,
            key if cell.is_none() && !key.starts_with("--") => cell = Some(key),
            _ => return Err(a.unknown()),
        }
    }
    if hang {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }
    let Some(cell) = cell else {
        eprintln!("usage: dvrsim sweep-worker CELL-KEY");
        return Ok(ExitCode::from(2));
    };
    use sim_sweep::CellRunner;
    let runner = dvr_sim::DvrSweepRunner::new(None);
    match runner.run(cell) {
        Ok(payload) => println!("{}", sim_sweep::ok_line(&payload)),
        Err((kind, message)) => println!("{}", sim_sweep::fail_line(&kind, &message)),
    }
    Ok(ExitCode::SUCCESS)
}

/// Opens the `--cache` directory, if one is set; a cache that cannot be
/// opened is reported on stderr as `error: ...`.
fn open_cache(dir: Option<&Path>) -> Result<Option<sim_sweep::ResultCache>, ()> {
    dir.map(sim_sweep::ResultCache::open).transpose().map_err(|e| eprintln!("error: {e}"))
}

fn serve_main(args: &[String]) -> Result<ExitCode, String> {
    let mut socket: Option<PathBuf> = None;
    let mut cache_dir = Some(PathBuf::from(".dvr-cache"));
    let mut a = Args::new("serve", args);
    while let Some(flag) = a.next() {
        match flag {
            "--socket" => socket = Some(a.value()?.into()),
            "--cache" => cache_dir = Some(a.value()?.into()),
            "--no-cache" => cache_dir = None,
            _ => return Err(a.unknown()),
        }
    }
    let Some(socket) = socket else {
        return Err(format!("serve needs --socket PATH\n\n{USAGE}"));
    };
    Ok(serve_loop(&socket, cache_dir.as_deref()))
}

#[cfg(unix)]
fn serve_loop(socket: &std::path::Path, cache_dir: Option<&std::path::Path>) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixListener;

    let Ok(cache) = open_cache(cache_dir) else {
        return ExitCode::FAILURE;
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
        Err(e) => {
            let e = sim_sweep::escape_json(&e);
            return format!("{{\"error\":\"bad cell: {e}\",\"kind\":\"bad_cell\"}}");
        }
    };
    let key = dvr_sim::report_key(&runner.workload(&cell), &cell.config(), None);
    let slot = cache.zip(key);
    if let Some((cache, key)) = slot {
        match dvr_sim::lookup_report(cache, key) {
            Ok(Some(report)) => {
                return format!("{{\"cached\":true,\"report\":{}}}", report.to_json())
            }
            Ok(None) => {}
            Err(e) => eprintln!("serve: warning[{}]: {e}", e.kind()),
        }
    }
    let mut report = runner.run_report(&cell);
    if let Some(e) = report.outcome.error() {
        return format!(
            "{{\"error\":\"{}\",\"kind\":\"{}\"}}",
            sim_sweep::escape_json(&e.to_string()),
            e.kind()
        );
    }
    if let Some((cache, key)) = slot {
        if let Err(e) = dvr_sim::store_report(cache, key, &report) {
            eprintln!("serve: warning: {e}");
        }
    }
    // Deterministic responses: the wall clock never crosses the service
    // boundary, so cached and fresh replies are identical.
    report.host_seconds = 0.0;
    format!("{{\"cached\":false,\"report\":{}}}", report.to_json())
}
