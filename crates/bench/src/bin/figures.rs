//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p bench --release --bin figures -- <experiment> [options]
//!
//! experiments: table1 table2 fig2 fig7 fig8 fig9 fig10 fig11 fig12 ablation mix all
//! options:
//!   --size test|small|paper   input scale          (default: paper)
//!   --instrs N                ROI length per run   (default: 500000)
//!   --seed N                  synthetic-input seed (default: 42)
//!   --threads N               simulation worker threads; 0 = all cores
//!                             (default: 1; output is identical either way)
//!   --svg DIR                 also render each figure as an SVG chart
//!   --keep-going              don't abort on a failed cell: mark it in the
//!                             output (text section + chart ✕) and continue
//!   --force-fail LABEL        panic the cell with this combo/technique
//!                             label (failure-path smoke testing)
//!   --sanitize                run every cell under the cycle-model invariant
//!                             sanitizer (stderr summary; stdout unchanged)
//!   --sample                  run every cell sampled (functional fast-forward
//!                             with warming between seeded detailed intervals)
//!                             instead of exactly — several-fold faster, with
//!                             the statistical error EXPERIMENTS.md describes;
//!                             one functional pass per combo and hierarchy
//!   --sample-period N         sampling period in instructions (implies
//!                             --sample; default 20000)
//!   --cache DIR               serve completed cells from (and store them
//!                             into) the content-addressed result cache that
//!                             `dvrsim sweep --cache` maintains; output is
//!                             byte-identical, warm reruns skip simulation
//!   --bench-json DIR          persist the perf trajectory as
//!                             DIR/BENCH_<experiment>.json: wall seconds per
//!                             figure, covered instructions per wall second, a
//!                             sequential-vs-parallel sample measure-phase probe,
//!                             result-cache hit counters, and a sweep
//!                             cold-vs-resume overhead probe (the wall-clock
//!                             probes self-skip on a single-core host, where
//!                             their speedups would be meaningless)
//! ```
//!
//! Exit status: 0 on success; 2 on a usage error (an unknown option, a
//! missing or malformed value); without `--keep-going` a failed cell
//! aborts the process with a diagnostic naming the cell; with
//! `--sanitize` any invariant violation exits 1.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use bench::{
    run_experiment_full, sample_speedup_probe, sweep_resume_probe, Ctx, Experiment, EXPERIMENTS,
};
use dvr_sim::sweep::parse_size_token;
use workloads::SizeClass;

/// Reports a usage error and exits 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The value after `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
}

/// The value after `flag`, as a number.
fn number<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: Display,
{
    value(args, flag).parse().unwrap_or_else(|e| usage_error(format!("{flag}: {e}")))
}

fn main() {
    let mut experiment = "all".to_string();
    let mut size = SizeClass::Paper;
    let mut instrs: u64 = 500_000;
    let mut seed: u64 = 42;
    let mut threads: usize = 1;
    let mut svg_dir: Option<String> = None;
    let mut keep_going = false;
    let mut force_fail: Option<String> = None;
    let mut sanitize = false;
    let mut sample = false;
    let mut sample_period: Option<u64> = None;
    let mut bench_json: Option<String> = None;
    let mut cache_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let a = &mut args;
        match arg.as_str() {
            "--size" => {
                let v = value(a, "--size");
                size = parse_size_token(&v).unwrap_or_else(|| usage_error(format!("unknown size '{v}'")));
            }
            "--instrs" => instrs = number(a, "--instrs"),
            "--seed" => seed = number(a, "--seed"),
            "--threads" => threads = number(a, "--threads"),
            "--svg" => svg_dir = Some(value(a, "--svg")),
            "--bench-json" => bench_json = Some(value(a, "--bench-json")),
            "--cache" => cache_dir = Some(value(a, "--cache")),
            "--keep-going" => keep_going = true,
            "--sanitize" => sanitize = true,
            "--sample" => sample = true,
            "--sample-period" => sample_period = Some(number(a, "--sample-period")),
            "--force-fail" => force_fail = Some(value(a, "--force-fail")),
            other if !other.starts_with("--") => experiment = other.to_string(),
            other => usage_error(format!("unknown figures option '{other}' (see the module docs or crates/bench/src/bin/figures.rs for the option list)")),
        }
    }

    let mut ctx = Ctx::new(size, instrs, seed)
        .with_threads(threads)
        .with_keep_going(keep_going)
        .with_sanitize(sanitize);
    if sample || sample_period.is_some() {
        let mut scfg = dvr_sim::SampleConfig::default();
        if let Some(p) = sample_period {
            scfg = scfg.with_period(p);
        }
        ctx = ctx.with_sample(scfg);
    }
    if let Some(label) = force_fail {
        ctx = ctx.with_force_fail(label);
    }
    if let Some(dir) = &cache_dir {
        ctx = match ctx.with_result_cache(std::path::Path::new(dir)) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("[figures] --cache {dir}: {e}");
                std::process::exit(2);
            }
        };
    }

    // Run each experiment separately so the trajectory JSON can attribute
    // wall seconds per figure; "all" separates them with a blank line.
    let names: Vec<&str> = if experiment == "all" {
        EXPERIMENTS.iter().map(|&(name, _)| name).collect()
    } else {
        vec![experiment.as_str()]
    };
    let t0 = std::time::Instant::now();
    let mut result = Experiment::default();
    let mut timings: Vec<(&str, f64)> = Vec::new();
    for name in &names {
        let t = std::time::Instant::now();
        let e = run_experiment_full(name, &mut ctx);
        timings.push((name, t.elapsed().as_secs_f64()));
        result.text.push_str(&e.text);
        if experiment == "all" {
            result.text.push('\n');
        }
        result.charts.extend(e.charts);
    }
    print!("{}", result.text);
    if let Some(dir) = svg_dir {
        std::fs::create_dir_all(&dir).expect("create --svg directory");
        for chart in &result.charts {
            let path = format!("{dir}/{}.svg", chart.slug);
            std::fs::write(&path, chart.to_svg()).expect("write SVG");
            eprintln!("[figures] wrote {path}");
        }
    }
    let total_wall = t0.elapsed().as_secs_f64();
    // Timing goes to stderr: stdout must stay byte-identical across
    // --threads settings.
    eprintln!(
        "[figures] {experiment} done in {:?} on {} thread(s): {}",
        t0.elapsed(),
        dvr_sim::resolve_threads(threads),
        ctx.throughput_summary()
    );
    if cache_dir.is_some() {
        let (hits, misses, stores, corrupt) = ctx.cache_totals();
        eprintln!(
            "[figures] result cache: {hits} hit(s), {misses} miss(es), {stores} store(s), \
             {corrupt} corrupt"
        );
    }
    if let Some(dir) = bench_json {
        let path = write_bench_json(&dir, &experiment, &mut ctx, &timings, total_wall);
        eprintln!("[figures] wrote {path}");
    }
    if !ctx.failures().is_empty() {
        eprintln!("[figures] {} cell(s) failed (marked in the output)", ctx.failures().len());
    }
    if sanitize {
        let (checks, violations) = ctx.sanitize_totals();
        eprintln!("[figures] sanitize: {checks} invariant checks, {violations} violations");
        if violations > 0 {
            std::process::exit(1);
        }
    }
}

/// Persists the run's perf trajectory as `DIR/BENCH_<experiment>.json`:
/// wall seconds per figure, covered instructions per wall second, a
/// sequential-vs-4-thread sampled measure-phase probe, the result-cache
/// counters of this run, and a sweep cold-vs-resume overhead probe.
/// Returns the path.
///
/// The two wall-clock probes compare sequential against parallel
/// execution, so on a single-core host every "speedup" they report is
/// scheduling noise; there they self-skip and their JSON fields carry the
/// marker string `"skipped_single_core"` instead of an object (`host_cores`
/// is always recorded, `0` meaning unknown — unknown parallelism runs the
/// probes).
fn write_bench_json(
    dir: &str,
    experiment: &str,
    ctx: &mut Ctx,
    timings: &[(&str, f64)],
    total_wall: f64,
) -> String {
    let (runs, sim_instrs, _) = ctx.throughput_totals();
    let minstr_per_sec = if total_wall > 0.0 { sim_instrs as f64 / total_wall / 1e6 } else { 0.0 };
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let run_probes = host_cores != 1;
    let probe = run_probes.then(|| sample_speedup_probe(ctx, 4));
    match &probe {
        Some(probe) => eprintln!(
            "[figures] sample probe: {} x{} instrs sequential {:.2}s vs {}-thread {:.2}s ({:.2}x)",
            probe.bench,
            probe.instrs,
            probe.sequential_seconds,
            probe.threads,
            probe.parallel_seconds,
            probe.speedup
        ),
        None => eprintln!("[figures] sample probe: skipped on a single-core host"),
    }
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"experiment\":\"{experiment}\",\"size\":\"{:?}\",\"instrs\":{},\"seed\":{},\
         \"threads\":{},\"sampled\":{},\"host_cores\":{host_cores},",
        ctx.size,
        ctx.instrs,
        ctx.seed,
        ctx.threads,
        ctx.sample.is_some()
    );
    let _ = write!(j, "\"figures\":[");
    for (k, (name, secs)) in timings.iter().enumerate() {
        let sep = if k + 1 == timings.len() { "" } else { "," };
        let _ = write!(j, "{{\"name\":\"{name}\",\"wall_seconds\":{secs:.3}}}{sep}");
    }
    let _ = write!(
        j,
        "],\"total_wall_seconds\":{total_wall:.3},\"runs\":{runs},\
         \"simulated_minstr\":{:.3},\"host_minstr_per_sec\":{minstr_per_sec:.3},",
        sim_instrs as f64 / 1e6
    );
    match &probe {
        Some(probe) => {
            let _ = write!(
                j,
                "\"sample_probe\":{{\"bench\":\"{}\",\"instrs\":{},\"sequential_seconds\":{:.3},\
                 \"parallel_seconds\":{:.3},\"threads\":{},\"speedup\":{:.3}}},",
                probe.bench,
                probe.instrs,
                probe.sequential_seconds,
                probe.parallel_seconds,
                probe.threads,
                probe.speedup
            );
        }
        None => {
            let _ = write!(j, "\"sample_probe\":\"skipped_single_core\",");
        }
    }
    let (hits, misses, stores, corrupt) = ctx.cache_totals();
    let hit_rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
    let _ = write!(
        j,
        "\"result_cache\":{{\"hits\":{hits},\"misses\":{misses},\"stores\":{stores},\
         \"corrupt\":{corrupt},\"hit_rate\":{hit_rate:.3}}},"
    );
    match run_probes.then(|| sweep_resume_probe(ctx)) {
        Some(sweep) => {
            eprintln!(
                "[figures] sweep probe: {} cells cold {:.2}s, resume {:.3}s ({:.3}x), \
                 warm-cache hit rate {:.0}%",
                sweep.cells,
                sweep.cold_seconds,
                sweep.resume_seconds,
                sweep.resume_overhead,
                100.0 * sweep.cache_hit_rate
            );
            let _ = write!(
                j,
                "\"sweep_probe\":{{\"cells\":{},\"cold_seconds\":{:.3},\"resume_seconds\":{:.3},\
                 \"resume_overhead\":{:.3},\"cache_hit_rate\":{:.3}}}}}",
                sweep.cells,
                sweep.cold_seconds,
                sweep.resume_seconds,
                sweep.resume_overhead,
                sweep.cache_hit_rate
            );
        }
        None => {
            eprintln!("[figures] sweep probe: skipped on a single-core host");
            let _ = write!(j, "\"sweep_probe\":\"skipped_single_core\"}}");
        }
    }
    std::fs::create_dir_all(dir).expect("create --bench-json directory");
    let path = format!("{dir}/BENCH_{experiment}.json");
    std::fs::write(&path, j).expect("write BENCH json");
    path
}
