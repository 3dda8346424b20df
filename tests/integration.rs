//! Cross-crate integration tests: the whole stack (ISA → core → hierarchy →
//! engines → workloads) driven through the public `dvr-sim` API.

use dvr_sim::sweep::ALL_TECHNIQUES;
use dvr_sim::{simulate, MixSpec, SimConfig, SimReport, Technique};
use workloads::{Benchmark, GraphInput, SizeClass};

const INSTRS: u64 = 40_000;

fn cfg(t: Technique) -> SimConfig {
    SimConfig::new(t).with_max_instructions(INSTRS)
}

#[test]
fn every_technique_completes_on_bfs() {
    let wl = Benchmark::Bfs.build(Some(GraphInput::Ur), SizeClass::Test, 7);
    for t in [
        Technique::Baseline,
        Technique::Pre,
        Technique::Imp,
        Technique::Vr,
        Technique::Dvr,
        Technique::DvrOffload,
        Technique::DvrDiscovery,
        Technique::Oracle,
    ] {
        let r = simulate(&wl, &cfg(t));
        assert!(r.ipc > 0.0, "{} produced zero IPC", t.name());
        assert!(r.core.committed > 0);
        assert!(r.core.cycles > 0);
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let wl = Benchmark::Sssp.build(Some(GraphInput::Kr), SizeClass::Test, 3);
    let a = simulate(&wl, &cfg(Technique::Dvr));
    let b = simulate(&wl, &cfg(Technique::Dvr));
    assert_eq!(a.core.cycles, b.core.cycles);
    assert_eq!(a.mem.dram_reads(), b.mem.dram_reads());
    assert_eq!(a.engine.episodes, b.engine.episodes);
}

#[test]
fn timing_never_perturbs_architectural_results() {
    // The same workload must compute the same memory values under a purely
    // functional run and under every timing configuration.
    let wl = Benchmark::NasIs.build(None, SizeClass::Test, 5);
    let hist = wl.region("hist");

    // Functional reference.
    let mut fmem = wl.mem.clone();
    let mut cpu = sim_isa::Cpu::new();
    cpu.run(&wl.prog, &mut fmem, 50_000_000).expect("functional run");
    assert!(cpu.is_halted());

    for t in [Technique::Baseline, Technique::Vr, Technique::Dvr] {
        let mut mem = wl.mem.clone();
        let mut hier = dvr_sim::MemoryHierarchy::new(dvr_sim::HierarchyConfig::default());
        let mut core = dvr_sim::OooCore::new(dvr_sim::CoreConfig::default());
        match t {
            Technique::Vr => {
                let mut e = dvr_sim::VrEngine::default();
                core.run(&wl.prog, &mut mem, &mut hier, &mut e, u64::MAX).expect("run failed");
            }
            Technique::Dvr => {
                let mut e = dvr_sim::DvrEngine::default();
                core.run(&wl.prog, &mut mem, &mut hier, &mut e, u64::MAX).expect("run failed");
            }
            _ => {
                let mut e = dvr_sim::NullEngine;
                core.run(&wl.prog, &mut mem, &mut hier, &mut e, u64::MAX).expect("run failed");
            }
        }
        for k in (0..1024u64).step_by(17) {
            assert_eq!(
                mem.read_u64(hist + 8 * k),
                fmem.read_u64(hist + 8 * k),
                "{} diverged from functional execution at hist[{k}]",
                t.name()
            );
        }
    }
}

#[test]
fn idle_skip_matches_stepping_for_every_technique() {
    // A plain run jumps over the cycles in which no stage can act; a
    // sanitized run steps through each of them and checks that nothing
    // happened. The two must report the same bytes.
    let strip = |mut r: SimReport| {
        r.host_seconds = 0.0;
        r.to_json()
    };
    let cells = [
        (Benchmark::Hj8, None),
        (Benchmark::Camel, None),
        (Benchmark::Bfs, Some(GraphInput::Ur)),
        (Benchmark::NasIs, None),
    ];
    for (bench, input) in cells {
        let wl = bench.build(input, SizeClass::Test, 42);
        for t in ALL_TECHNIQUES {
            let cfg = SimConfig::new(t).with_max_instructions(10_000);
            let plain = simulate(&wl, &cfg);
            let sane = simulate(&wl, &cfg.with_sanitize(true));
            let what = format!("{} under {}", wl.name, t.name());
            let ledger = sane.sanitizer.as_ref().expect("sanitizer ledger attached");
            assert!(ledger.is_clean(), "{what}: {} {:?}", ledger.summary(), ledger.first);
            assert_eq!(sane.work.skipped, 0, "{what}: a sanitized run steps every cycle");
            if t == Technique::Baseline {
                assert!(plain.work.skipped > 0, "{what}: no idle cycle was skipped");
            }
            assert_eq!(
                strip(plain),
                strip(sane),
                "{what}: skipping idle cycles changed the report"
            );
        }
    }
}

#[test]
fn idle_skip_matches_stepping_on_small_and_odd_windows() {
    // The core indexes its ROB, fetch queue, issue window and ready set by
    // ring slot. Small ROBs wrap the ring every few dozen instructions, an
    // odd size leaves slots the ROB never fills at once, a one-entry IQ or
    // fetch queue moves the window end on every issue, and an IQ at least
    // as large as the ROB never closes the window. The sanitizer checks
    // each slot every cycle; skipping must still match stepping.
    let strip = |mut r: SimReport| {
        r.host_seconds = 0.0;
        r.to_json()
    };
    // (rob_size, iq_size, fetch_queue, lq_size and sq_size)
    let windows = [(8, 1, 1, 128, 72), (8, 8, 8, 2, 2), (33, 1, 8, 2, 2), (33, 64, 1, 128, 72)];
    let cells = [(Benchmark::Camel, None), (Benchmark::Bfs, Some(GraphInput::Ur))];
    for (bench, input) in cells {
        let wl = bench.build(input, SizeClass::Test, 42);
        for (rob_size, iq_size, fetch_queue, lq_size, sq_size) in windows {
            for t in [Technique::Baseline, Technique::Vr, Technique::Dvr] {
                let mut cfg = SimConfig::new(t).with_max_instructions(5_000);
                cfg.core = dvr_sim::CoreConfig {
                    rob_size,
                    iq_size,
                    fetch_queue,
                    lq_size,
                    sq_size,
                    ..cfg.core
                };
                let plain = simulate(&wl, &cfg);
                let sane = simulate(&wl, &cfg.with_sanitize(true));
                let what = format!(
                    "{} under {} (rob {rob_size}, iq {iq_size}, fetch queue {fetch_queue}, \
                     lq/sq {lq_size}/{sq_size})",
                    wl.name,
                    t.name()
                );
                assert!(plain.outcome.is_complete(), "{what}: {:?}", plain.outcome);
                let ledger = sane.sanitizer.as_ref().expect("sanitizer ledger attached");
                assert!(ledger.is_clean(), "{what}: {} {:?}", ledger.summary(), ledger.first);
                assert_eq!(strip(plain), strip(sane), "{what}: skipping changed the report");
            }
        }
    }
}

#[test]
fn work_counters_match_the_golden_file() {
    // The cycle loop's work is deterministic, so a change that stops
    // skipping idle cycles or examines more issue candidates diffs here,
    // where a wall-clock bound would flake. `scripts/check.sh` diffs the
    // same lines from `dvrsim --verbose`. Cells are `bench[/input]:technique`.
    let got: String = ["hj8:ooo", "camel:vr", "nas-is:dvr", "bfs/ur:oracle"]
        .into_iter()
        .map(|cell| {
            let core = MixSpec::parse(cell, Technique::Baseline).expect("valid cell").cores[0];
            let wl = core.bench.build(core.input, SizeClass::Test, 42);
            let r = simulate(&wl, &SimConfig::new(core.technique).with_max_instructions(20_000));
            format!("{cell} work: {}\n", r.work)
        })
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/work_counters.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (BLESS=1 to generate)"));
    assert_eq!(got, want, "work counters drifted; BLESS=1 to re-bless after review");
}

#[test]
fn stats_are_internally_consistent() {
    let wl = Benchmark::Camel.build(None, SizeClass::Test, 11);
    let r = simulate(&wl, &cfg(Technique::Dvr));
    // Demand hit buckets partition demand accesses.
    let buckets: u64 = r.mem.demand_hits.iter().sum::<u64>() + r.mem.demand_inflight;
    assert_eq!(buckets, r.mem.demand_loads + r.mem.demand_stores);
    // IPC is committed/cycles.
    assert!((r.ipc - r.core.committed as f64 / r.core.cycles as f64).abs() < 1e-12);
    // Prefetch accounting balances.
    for src in dvr_sim::PrefetchSource::ALL {
        let used: u64 = r.mem.prefetch_found[src.index()].iter().sum();
        assert_eq!(
            used + r.mem.prefetch_unused[src.index()],
            r.mem.prefetch_issued[src.index()],
            "prefetch accounting for {src:?}"
        );
    }
}

#[test]
fn all_workloads_build_at_every_size() {
    for size in [SizeClass::Test, SizeClass::Small] {
        for b in Benchmark::ALL {
            let wl = b.build(None, size, 1);
            assert!(!wl.prog.is_empty(), "{} empty at {size:?}", wl.name);
            assert!(!wl.regions.is_empty());
        }
    }
}

#[test]
fn gap_benchmarks_accept_every_input() {
    for b in Benchmark::GAP {
        for g in GraphInput::ALL {
            let wl = b.build(Some(g), SizeClass::Test, 2);
            let r =
                simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(5_000));
            assert!(r.core.committed > 0, "{} on {}", b.name(), g.name());
        }
    }
}

#[test]
fn instruction_budget_is_respected() {
    let wl = Benchmark::Pr.build(Some(GraphInput::Kr), SizeClass::Test, 9);
    let r = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(12_345));
    // The core stops within one commit-width of the budget.
    assert!(r.core.committed >= 12_345 && r.core.committed < 12_345 + 5);
}

/// Every `dvrsim` entry point words a flag error the same way: one
/// `error:` line naming the flag, then exit status 2.
#[test]
fn every_entry_point_reports_usage_errors_the_same_way() {
    // (entry point, a flag taking a value, a flag taking a number); the
    // top-level run is `dvrsim` itself, the rest are subcommands.
    let entry_points = [
        ("dvrsim", Some("--instrs"), Some("--instrs")),
        ("lint", Some("--seed"), Some("--seed")),
        ("audit", Some("--instrs"), Some("--instrs")),
        ("lint-taint", Some("--size"), Some("--seed")),
        ("leak-audit", Some("--bench"), Some("--seed")),
        ("bounds-audit", Some("--seed"), Some("--instrs")),
        ("sample", Some("--placement"), Some("--interval")),
        ("sample-worker", Some("--checkpoint"), Some("--warmup")),
        ("mix", Some("--spec"), Some("--cores")),
        ("sweep", Some("--out"), Some("--timeout-ms")),
        ("sweep-worker", None, None),
        ("serve", Some("--socket"), None),
    ];
    for (cmd, valued, numeric) in entry_points {
        let prefix: &[&str] = if cmd == "dvrsim" { &[] } else { &[cmd] };
        let first_error_line = |args: &[&str]| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_dvrsim"))
                .args(prefix)
                .args(args)
                .output()
                .expect("run dvrsim");
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(2), "{cmd} {args:?}: {stderr}");
            stderr.lines().next().unwrap_or_default().to_string()
        };
        assert_eq!(
            first_error_line(&["--bogus"]),
            format!("error: unknown {cmd} option '--bogus' (see 'dvrsim --help')")
        );
        if let Some(flag) = valued {
            assert_eq!(first_error_line(&[flag]), format!("error: {flag} needs a value"));
        }
        if let Some(flag) = numeric {
            assert_eq!(
                first_error_line(&[flag, "x"]),
                format!("error: {flag}: invalid digit found in string")
            );
        }
    }
}
