//! Checkpoint-parallel sampling acceptance tests: the sequential driver,
//! the in-process thread fan-out, and the multi-process worker fan-out
//! must produce byte-identical reports on every benchmark; a broken
//! worker must surface a typed error instead of hanging the orchestrator,
//! and a killed one must be retried.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use dvr_sim::{
    measure_periods_via_workers, sample_emit, sample_worker_args, sampled_report_from,
    simulate_sampled, simulate_sampled_threads, Placement, SampleConfig, SampleError, SimConfig,
    SimReport, SweepCell, Technique,
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
    let input = b.is_gap().then_some(GraphInput::Kr);
    let cell = SweepCell {
        bench: b,
        input,
        technique: t,
        size: SizeClass::Small,
        seed: 42,
        instrs: INSTRS,
    };
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
