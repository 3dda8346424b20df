//! Checkpoint-parallel sampling acceptance tests: the sequential driver,
//! the in-process thread fan-out, and the multi-process worker fan-out
//! must produce byte-identical reports on every benchmark; a broken
//! worker must surface a typed error instead of hanging the orchestrator,
//! and a killed one must be retried.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use dvr_sim::{
    measure_emitted, measure_periods_via_workers, sample_emit, sample_worker_args,
    sampled_report_from, simulate_sampled, simulate_sampled_threads, PeriodCheckpoint, Placement,
    SampleConfig, SampleError, SimConfig, SimReport, SweepCell, Technique,
};
use proptest::prelude::*;
use sim_sample::merge_periods;
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

/// Region of interest: 3 periods of the default sampling configuration.
const INSTRS: u64 = 60_000;

fn suite() -> &'static Vec<Workload> {
    static SUITE: OnceLock<Vec<Workload>> = OnceLock::new();
    SUITE.get_or_init(|| {
        Benchmark::ALL
            .into_iter()
            .map(|b| b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Small, 42))
            .collect()
    })
}

/// Reports with the wall-clock fields zeroed: everything that remains
/// must be bit-identical across dispatch strategies.
fn normalized_json(mut r: SimReport) -> String {
    r.host_seconds = 0.0;
    r.to_json()
}

/// The worker command line the orchestrator builds for this cell,
/// pointed at the freshly built `dvrsim` binary under test.
fn worker_args(b: Benchmark, t: Technique, scfg: &SampleConfig) -> Vec<String> {
    worker_args_at(b, t, SizeClass::Small, INSTRS, scfg)
}

/// [`worker_args`] for a cell of another size and region of interest.
fn worker_args_at(
    b: Benchmark,
    t: Technique,
    size: SizeClass,
    instrs: u64,
    scfg: &SampleConfig,
) -> Vec<String> {
    let input = b.is_gap().then_some(GraphInput::Kr);
    let cell = SweepCell { bench: b, input, technique: t, size, seed: 42, instrs };
    sample_worker_args(Path::new(env!("CARGO_BIN_EXE_dvrsim")), &cell, scfg)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dvrsim-test-{}-{tag}", std::process::id()))
}

/// Runs the full multi-process path: emit checkpoints in-process, measure
/// every period in spawned `dvrsim sample-worker` processes, merge.
fn sampled_via_workers(
    wl: &Workload,
    b: Benchmark,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    jobs: usize,
    tag: &str,
) -> SimReport {
    let argv = worker_args(b, cfg.technique, scfg);
    sampled_via(wl, &argv, cfg, scfg, jobs, tag)
}

/// [`sampled_via_workers`] with an explicit worker command line.
fn sampled_via(
    wl: &Workload,
    argv: &[String],
    cfg: &SimConfig,
    scfg: &SampleConfig,
    jobs: usize,
    tag: &str,
) -> SimReport {
    let dir = scratch(tag);
    let result = sample_emit(wl, cfg, scfg).and_then(|emit| {
        let periods = measure_periods_via_workers(argv, &emit.checkpoints, jobs, &dir)?;
        Ok(merge_periods(periods, emit.total_retired, emit.halted))
    });
    let _ = std::fs::remove_dir_all(&dir);
    sampled_report_from(wl, cfg, scfg, result)
}

/// Acceptance criterion: on all 13 benchmarks, the sequential driver, the
/// 4-thread in-process fan-out, and the multi-process worker fan-out
/// produce byte-identical reports once wall-clock fields are stripped.
#[test]
fn all_three_dispatch_paths_are_byte_identical_on_every_benchmark() {
    let scfg = SampleConfig::default();
    for (i, b) in Benchmark::ALL.into_iter().enumerate() {
        let wl = &suite()[i];
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(INSTRS);
        let seq = normalized_json(simulate_sampled(wl, &cfg, &scfg));
        let threaded = normalized_json(simulate_sampled_threads(wl, &cfg, &scfg, 4));
        let procs =
            normalized_json(sampled_via_workers(wl, b, &cfg, &scfg, 2, &format!("all13-{i}")));
        assert_eq!(seq, threaded, "{}: threads diverged from sequential", wl.name);
        assert_eq!(seq, procs, "{}: worker processes diverged from sequential", wl.name);
    }
}

/// The streamed in-process driver under the runahead engines: for VR, DVR
/// and PRE on four engine-heavy benchmarks, the streamed sequential run,
/// the streamed 4-thread run (six periods: a batch of four, then two),
/// the collected emit-then-measure path, and the worker processes all
/// produce byte-identical reports.
#[test]
fn streamed_collected_and_worker_paths_agree_under_the_engines() {
    const ROI: u64 = 120_000;
    let scfg = SampleConfig::default();
    for b in [Benchmark::Hj8, Benchmark::Camel, Benchmark::NasIs, Benchmark::Bfs] {
        let wl = b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Test, 42);
        for t in [Technique::Vr, Technique::Dvr, Technique::Pre] {
            let cfg = SimConfig::new(t).with_max_instructions(ROI);
            let streamed = normalized_json(simulate_sampled(&wl, &cfg, &scfg));
            let threaded = normalized_json(simulate_sampled_threads(&wl, &cfg, &scfg, 4));
            let result = sample_emit(&wl, &cfg, &scfg).and_then(|emit| {
                let periods = measure_emitted(&wl, &cfg, &scfg, &emit.checkpoints, 1)?;
                Ok(merge_periods(periods, emit.total_retired, emit.halted))
            });
            let collected = normalized_json(sampled_report_from(&wl, &cfg, &scfg, result));
            let argv = worker_args_at(b, t, SizeClass::Test, ROI, &scfg);
            let tag = format!("engines-{}-{}", b.name(), t.name());
            let procs = normalized_json(sampled_via(&wl, &argv, &cfg, &scfg, 2, &tag));
            let label = format!("{}/{}", wl.name, t.name());
            assert!(streamed.contains("\"outcome\":\"complete\""), "{label}: {streamed}");
            assert_eq!(streamed, threaded, "{label}: 4 threads diverged from streamed");
            assert_eq!(streamed, collected, "{label}: collected path diverged from streamed");
            assert_eq!(streamed, procs, "{label}: worker processes diverged from streamed");
        }
    }
}

/// In-process, a period's hierarchy is built around the typed warm caches
/// of its checkpoint; a worker reads them back from the checkpoint file.
/// Both must measure every period the same.
#[test]
fn typed_and_file_warm_caches_measure_every_period_the_same() {
    let scfg = SampleConfig::default();
    let cfg = SimConfig::new(Technique::Dvr).with_max_instructions(INSTRS);
    for b in [Benchmark::NasIs, Benchmark::Camel, Benchmark::Bfs] {
        let wl = b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Test, 42);
        let emit = sample_emit(&wl, &cfg, &scfg).expect("emit");
        assert!(!emit.checkpoints.is_empty(), "{}", wl.name);
        let read: Vec<PeriodCheckpoint> = emit
            .checkpoints
            .iter()
            .map(|ck| PeriodCheckpoint::decode(cfg.hierarchy, &ck.to_bytes()).expect("decodes"))
            .collect();
        let typed = measure_emitted(&wl, &cfg, &scfg, &emit.checkpoints, 1).expect("measure");
        let from_file = measure_emitted(&wl, &cfg, &scfg, &read, 1).expect("measure");
        assert_eq!(typed.len(), emit.checkpoints.len(), "{}", wl.name);
        assert_eq!(typed, from_file, "{}: the file's warm caches measured differently", wl.name);
    }
}

/// The emitter lends its warm tag arrays to each checkpoint and takes
/// them back before warming resumes, copying them only if the checkpoint
/// is still held, and keeps its memory delta running from share to share.
/// So each checkpoint is the same bytes whether the caller holds them all
/// (`emit_checkpoints`), measures and drops each before the next
/// (batches of one), or holds a batch of several (batches of four).
#[test]
fn held_and_streamed_checkpoints_are_the_same_bytes() {
    let hier = SimConfig::new(Technique::Dvr).hierarchy;
    let scfg = SampleConfig::default().with_max_instructions(INSTRS);
    for b in [Benchmark::NasIs, Benchmark::Camel, Benchmark::Bfs] {
        let wl = b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Test, 42);
        let emit = sim_sample::emit_checkpoints(&wl.prog, &wl.mem, hier, &scfg).expect("emit");
        let held: Vec<Vec<u8>> = emit.checkpoints.iter().map(PeriodCheckpoint::to_bytes).collect();
        assert_eq!(held.len(), 3, "{}: three periods in the region", wl.name);
        for batch in [1, 4] {
            let mut streamed = Vec::new();
            let runs =
                sim_sample::drive_sampled(&wl.prog, &wl.mem, hier, &scfg, 1, batch, |_, _, cks| {
                    streamed.extend(cks.iter().map(PeriodCheckpoint::to_bytes));
                    Ok(Vec::new())
                });
            assert!(runs[0].is_ok(), "{}: batch {batch}", wl.name);
            assert_eq!(streamed.len(), held.len(), "{}: batch {batch}", wl.name);
            for (k, (s, h)) in streamed.iter().zip(&held).enumerate() {
                assert!(
                    s == h,
                    "{}: period {k} streamed at batch {batch} differs from held",
                    wl.name
                );
            }
        }
    }
}

/// `json` without its three host-clock fields (`host_seconds` and the two
/// rates derived from it), like `strip_clock` in `scripts/check.sh`.
fn strip_clock(json: &str) -> String {
    let start = json.find("\"host_seconds\":").expect("a host_seconds field");
    let rate = start + json[start..].find("\"host_minstr_per_sec\":").expect("a rate field");
    let end = rate + json[rate..].find(',').expect("a field after the rate") + 1;
    format!("{}{}", &json[..start], &json[end..])
}

/// `dvrsim sample --technique all` serves every technique of a benchmark
/// from one functional pass. Each technique's line must be the bytes of
/// `simulate_sampled` on that cell, whether each batch of periods is
/// measured on one thread, on three (two batches of three periods) or in
/// two worker processes (three batches of two).
#[test]
fn the_cli_prints_simulate_sampled_for_every_technique() {
    const ROI: u64 = 120_000;
    let scfg = SampleConfig::default();
    for b in [Benchmark::Camel, Benchmark::Bfs] {
        let wl = b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Test, 42);
        let want: Vec<String> = [Technique::Baseline]
            .into_iter()
            .chain(Technique::FIG7)
            .map(|t| {
                let cfg = SimConfig::new(t).with_max_instructions(ROI);
                strip_clock(&simulate_sampled(&wl, &cfg, &scfg).to_json())
            })
            .collect();
        for dispatch in [["--threads", "1"], ["--threads", "3"], ["--jobs", "2"]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_dvrsim"))
                .args(["sample", "--bench", b.name(), "--technique", "all", "--size", "test"])
                .args(["--instrs", &ROI.to_string(), "--no-exact", "--json"])
                .args(dispatch)
                .output()
                .expect("dvrsim runs");
            let label = format!("{} {}", b.name(), dispatch.join(" "));
            assert!(out.status.success(), "{label}: {}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let got: Vec<String> = stdout.lines().map(strip_clock).collect();
            assert_eq!(got, want, "{label}: the CLI diverged from simulate_sampled");
        }
    }
}

/// A worker command line that cannot even parse its arguments (no cell
/// key) must come back as a typed [`SampleError::Worker`] — the
/// orchestrator reaps the dead children instead of hanging on them.
#[test]
fn broken_worker_command_surfaces_a_typed_error() {
    let wl = &suite()[0];
    let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(INSTRS);
    let scfg = SampleConfig::default();
    let emit = sample_emit(wl, &cfg, &scfg).expect("emit succeeds");
    assert!(!emit.checkpoints.is_empty());
    let argv: Vec<String> =
        vec![env!("CARGO_BIN_EXE_dvrsim").into(), "sample-worker".into(), "--json".into()];
    let dir = scratch("broken");
    let res = measure_periods_via_workers(&argv, &emit.checkpoints, 2, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match res {
        Err(SampleError::Worker(msg)) => {
            assert!(!msg.is_empty(), "worker error carries a message")
        }
        other => panic!("expected SampleError::Worker, got {other:?}"),
    }
}

/// A worker that dies mid-run is an infrastructure failure: the
/// supervisor retries its period, and the merged report is still the
/// sequential one byte for byte.
#[test]
fn a_killed_sample_worker_is_retried_without_changing_the_report() {
    let b = Benchmark::Bfs;
    let wl = &suite()[Benchmark::ALL.iter().position(|&x| x == b).expect("bfs is in the suite")];
    let cfg = SimConfig::new(Technique::Dvr).with_max_instructions(INSTRS);
    let scfg = SampleConfig::default();
    // The first spawn to create the marker directory SIGKILLs itself;
    // every other spawn (the retry included) runs the real worker.
    let marker = scratch("killed-marker");
    let _ = std::fs::remove_dir_all(&marker);
    let script = format!("mkdir '{}' 2>/dev/null && kill -9 $$; exec \"$@\"", marker.display());
    let mut argv: Vec<String> = vec!["/bin/sh".into(), "-c".into(), script, "sh".into()];
    argv.extend(worker_args(b, cfg.technique, &scfg));

    let seq = normalized_json(simulate_sampled(wl, &cfg, &scfg));
    let procs = normalized_json(sampled_via(wl, &argv, &cfg, &scfg, 2, "killed"));
    assert!(marker.is_dir(), "the first worker ran the kill branch");
    let _ = std::fs::remove_dir_all(&marker);
    assert_eq!(seq, procs, "a retried worker changed the merged report");
}

proptest! {
    // Every case runs three full sampled simulations (one of them across
    // worker processes); keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity is a property of *any* sampling configuration, not
    /// just the default: random benchmark, placement policy, placement
    /// seed, thread count, and job count all agree with the sequential
    /// driver.
    #[test]
    fn dispatch_paths_agree_on_random_configs(
        which in 0usize..13,
        random_placement in any::<bool>(),
        sample_seed in 1u64..1000,
        threads in 1usize..5,
        jobs in 1usize..4,
    ) {
        let b = Benchmark::ALL[which];
        let wl = &suite()[which];
        let technique = if which % 2 == 0 { Technique::Baseline } else { Technique::Dvr };
        let cfg = SimConfig::new(technique).with_max_instructions(INSTRS);
        let placement =
            if random_placement { Placement::Random } else { Placement::Systematic };
        let scfg = SampleConfig::default().with_placement(placement).with_seed(sample_seed);

        let seq = normalized_json(simulate_sampled(wl, &cfg, &scfg));
        let threaded = normalized_json(simulate_sampled_threads(wl, &cfg, &scfg, threads));
        let tag = format!("prop-{which}-{sample_seed}-{threads}-{jobs}");
        let procs = normalized_json(sampled_via_workers(wl, b, &cfg, &scfg, jobs, &tag));
        prop_assert_eq!(&seq, &threaded, "{}: threads diverged", wl.name);
        prop_assert_eq!(&seq, &procs, "{}: worker processes diverged", wl.name);
    }
}
