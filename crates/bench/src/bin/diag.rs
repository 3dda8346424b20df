//! `diag` — a developer diagnostics probe: prints demand-hit level
//! distributions, latency, traffic attribution, and prefetch timeliness
//! for the baseline, VR, and DVR on two representative benchmarks.
//! Used while calibrating the model (see EXPERIMENTS.md); kept as a
//! debugging aid.
//!
//! `--threads N` fans the technique×benchmark runs over worker threads
//! (0 = all cores); the report is printed in the same fixed order either
//! way. `--keep-going` prints a FAILED line for a crashed or failed run
//! instead of aborting the probe. `--audit` instead prints the full
//! static-vs-dynamic Discovery audit for the probe benchmarks (see
//! `dvrsim audit` for the whole suite).

use dvr_sim::{audit_benchmark, simulate, try_parallel_map, PrefetchSource, SimConfig, Technique};
use workloads::{Benchmark, SizeClass};

fn main() {
    let mut threads: usize = 1;
    let mut keep_going = false;
    let mut audit = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let usage_error = |msg: String| -> ! {
                    eprintln!("error: {msg}");
                    std::process::exit(2)
                };
                let v =
                    args.next().unwrap_or_else(|| usage_error("--threads needs a value".into()));
                threads = v.parse().unwrap_or_else(|e| usage_error(format!("--threads: {e}")));
            }
            "--keep-going" => keep_going = true,
            "--audit" => audit = true,
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }

    let benches = [(Benchmark::Hj8, 300_000u64), (Benchmark::Camel, 300_000)];

    if audit {
        let mut clean = true;
        for &(b, instrs) in &benches {
            let r = audit_benchmark(b, SizeClass::Paper, 42, instrs);
            print!("{}", r.render());
            clean &= r.divergences.is_clean();
        }
        std::process::exit(if clean { 0 } else { 1 });
    }

    let workloads: Vec<_> =
        benches.iter().map(|&(b, _)| b.build(None, SizeClass::Paper, 42)).collect();

    // One cell per (technique, benchmark), in print order.
    let cells: Vec<(Technique, usize)> = [Technique::Baseline, Technique::Vr, Technique::Dvr]
        .into_iter()
        .flat_map(|t| (0..benches.len()).map(move |k| (t, k)))
        .collect();
    let results = try_parallel_map(cells.len(), threads, |i| {
        let (t, k) = cells[i];
        simulate(&workloads[k], &SimConfig::new(t).with_max_instructions(benches[k].1))
    });

    for ((t, k), result) in cells.into_iter().zip(results) {
        let wl = &workloads[k];
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                if !keep_going {
                    eprintln!("diag: {} {} crashed: {e}", wl.name, t.name());
                    std::process::exit(1);
                }
                println!("{:10} {:8} FAILED: {e}", wl.name, t.name());
                continue;
            }
        };
        if let Some(e) = r.outcome.error() {
            if !keep_going {
                eprintln!("diag: {} {} failed: {e}", wl.name, t.name());
                std::process::exit(1);
            }
            println!("{:10} {:8} FAILED ({}): {e}", wl.name, t.name(), e.kind());
            continue;
        }
        let h = r.mem.demand_hits;
        let total: u64 = h.iter().sum::<u64>() + r.mem.demand_inflight;
        println!(
            "{:10} {:8} ipc={:.3} cyc={} L1={:.2} L2={:.2} L3={:.2} Mem={:.2} InFl={:.2} \
             dram(dem={} ra={}) commit_blocked={} stall_frac={:.2}",
            wl.name,
            t.name(),
            r.ipc,
            r.core.cycles,
            h[0] as f64 / total as f64,
            h[1] as f64 / total as f64,
            h[2] as f64 / total as f64,
            h[3] as f64 / total as f64,
            r.mem.demand_inflight as f64 / total as f64,
            r.mem.dram_demand,
            r.mem.dram_runahead(),
            r.core.commit_blocked_engine_cycles,
            r.core.rob_full_stall_fraction(),
        );
        println!(
            "           avg_demand_lat={:.1} mlp={:.2} loads={} mispred_mpki={:.1}",
            r.mem.avg_demand_latency(),
            r.mlp,
            r.mem.demand_loads,
            r.core.mpki()
        );
        let src = if t == Technique::Vr { PrefetchSource::Vr } else { PrefetchSource::Dvr };
        if let Some(tl) = r.mem.timeliness(src) {
            println!(
                "           prefetch: issued={} acc={:.2} timeliness L1={:.2} L2={:.2} L3={:.2} off={:.2}",
                r.mem.prefetch_issued[src.index()],
                r.mem.accuracy(src).unwrap_or(0.0),
                tl[0], tl[1], tl[2], tl[3]
            );
        }
        // Per-cell simulation cost — stderr, like all timing output.
        eprintln!(
            "[diag] {} {}: {:.2}M simulated instrs/host-second ({:.2}s)",
            wl.name,
            t.name(),
            r.sim_instrs_per_host_second() / 1e6,
            r.host_seconds
        );
    }
}
