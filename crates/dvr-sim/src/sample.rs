//! Sampled simulation: wires the [`sim_sample`] checkpoint-parallel
//! pipeline into the technique/report facade.
//!
//! [`simulate_sampled`] is the sampled counterpart of
//! [`simulate`](crate::simulate): same workload, same [`SimConfig`], but
//! only the seeded detailed intervals pay cycle-level cost — the rest of
//! the region of interest is covered by the functional fast-forward
//! executor with cache and branch-predictor warming. The headline `ipc`
//! becomes the mean of per-interval IPCs and the report carries a
//! [`SamplingSummary`] with the variance and 95% confidence interval.
//!
//! Because each period is measured from its own checkpoint, the measure
//! phase fans out: [`simulate_sampled_threads`] measures periods on
//! in-process worker threads as the emitter hands them over, and
//! [`measure_periods_via_workers`] dispatches collected checkpoints to
//! `dvrsim sample-worker` processes under the sweep supervisor. All paths
//! merge through [`sim_sample::merge_periods`], so the resulting reports
//! are byte-identical (modulo wall-clock fields).

use std::path::Path;
use std::sync::atomic::AtomicU64;

use sim_isa::SparseMemory;
use sim_ooo::{RunaheadEngine, SimError};
use sim_sample::{
    emit_checkpoints, measure_period, merge_periods, shared_copy, stream_checkpoints, EmitResult,
    PeriodCheckpoint, PeriodResult, SampleConfig, SampleError, SampledRun,
};
use sim_sweep::{Supervisor, SweepOptions};
use workloads::Workload;

use crate::config::SimConfig;
use crate::report::{EngineSummary, RunOutcome, SamplingSummary, SimReport};
use crate::runner::{resolve_threads, try_parallel_map, AnyEngine};
use crate::sweep::SweepCell;

/// Builds a fresh runahead engine for one detailed interval — the same
/// engine [`simulate`](crate::simulate) runs (including the Figure 8
/// ablation overrides).
///
/// The sampling driver constructs a new engine per detailed interval, so
/// engine state — including DVR's runahead subthread — quiesces (is
/// dropped) cleanly at every interval boundary.
pub fn engine_factory(cfg: &SimConfig) -> Box<dyn RunaheadEngine> {
    AnyEngine::for_config(cfg).boxed()
}

fn failed(e: SampleError) -> RunOutcome {
    RunOutcome::Failed(match e {
        SampleError::Sim(e) => e,
        // A fast-forward fault is the same malformed-program condition the
        // detailed core reports, just caught outside a cycle loop.
        SampleError::Exec(source) => SimError::ExecFault { pc: 0, cycle: 0, source },
        SampleError::Config(msg) => {
            SimError::Panic { message: format!("invalid sample config: {msg}") }
        }
        SampleError::Checkpoint(msg) => {
            SimError::Panic { message: format!("bad period checkpoint: {msg}") }
        }
        SampleError::Worker(msg) => {
            SimError::Panic { message: format!("sample worker failed: {msg}") }
        }
    })
}

/// Phase 1 for one workload: runs the functional fast-forward pass and
/// emits every period checkpoint.
///
/// The emit phase is technique-independent (warming touches only cache
/// tags and predictor tables), so one [`EmitResult`] can seed the
/// measure phase of every technique sharing the workload, region, and
/// sampling configuration — the functional pass is paid once, not once
/// per technique.
///
/// # Errors
///
/// Propagates [`sim_sample::emit_checkpoints`] failures.
pub fn sample_emit(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
) -> Result<EmitResult, SampleError> {
    let scfg = scfg.with_max_instructions(cfg.max_instructions);
    emit_checkpoints(&workload.prog, &workload.mem, cfg.hierarchy, &scfg)
}

/// Phase 2 in-process: measures every emitted checkpoint on up to
/// `threads` worker threads (0 = all available cores).
///
/// Work is distributed by [`try_parallel_map`]'s atomic work-stealing
/// index; results come back in period order regardless of which thread
/// measured what, so the downstream merge is deterministic. Every period
/// restores from one shared copy of the workload image, taken once per
/// call.
///
/// # Errors
///
/// The first period failure ([`SampleError`]); a panicking cell surfaces
/// as [`SampleError::Worker`].
pub fn measure_emitted(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    checkpoints: &[PeriodCheckpoint],
    threads: usize,
) -> Result<Vec<PeriodResult>, SampleError> {
    let scfg = scfg.with_max_instructions(cfg.max_instructions);
    measure_from(workload, cfg, &scfg, &shared_copy(&workload.mem), checkpoints, 0, threads)
}

/// Measures `checkpoints`, the emitted checkpoints from position `first`
/// on, restoring each from `base`; a panicking cell is reported by its
/// position among all emitted checkpoints. `scfg` already carries the
/// region of interest.
fn measure_from(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    base: &SparseMemory,
    checkpoints: &[PeriodCheckpoint],
    first: usize,
    threads: usize,
) -> Result<Vec<PeriodResult>, SampleError> {
    let results = try_parallel_map(checkpoints.len(), threads, |i| {
        measure_period(&workload.prog, base, cfg.core, cfg.hierarchy, scfg, &checkpoints[i], || {
            engine_factory(cfg)
        })
    });
    let mut periods = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(Ok(p)) => periods.push(p),
            Ok(Err(e)) => return Err(e),
            Err(mut cell) => {
                cell.index += first;
                return Err(SampleError::Worker(cell.to_string()));
            }
        }
    }
    Ok(periods)
}

/// Runs one workload sampled with the measure phase fanned across
/// `threads` in-process workers (0 = all available cores), returning the
/// merged [`SampledRun`].
///
/// Periods are measured as they are emitted, in batches of `threads`, and
/// each checkpoint is dropped once measured, so at most `threads` periods
/// are alive at once. A fast-forward fault anywhere in the region of
/// interest still takes precedence over a period's failure, as in
/// [`sim_sample::run_sampled`].
///
/// `threads == 1` runs inline and is the sequential reference; every
/// other value produces a bit-identical result.
///
/// # Errors
///
/// The emit failure, or else the first failing period by index
/// ([`SampleError`]).
pub fn run_sampled_threads(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    threads: usize,
) -> Result<SampledRun, SampleError> {
    let scfg = scfg.with_max_instructions(cfg.max_instructions);
    let base = shared_copy(&workload.mem);
    let batch_len = resolve_threads(threads).max(1);
    let mut batch = Vec::with_capacity(batch_len);
    let mut measured = Ok(Vec::new());
    let flush = |batch: &mut Vec<PeriodCheckpoint>,
                 measured: &mut Result<Vec<PeriodResult>, SampleError>| {
        if let Ok(periods) = measured {
            match measure_from(workload, cfg, &scfg, &base, batch, periods.len(), threads) {
                Ok(done) => periods.extend(done),
                Err(e) => *measured = Err(e),
            }
        }
        batch.clear();
    };
    let (total_retired, halted) =
        stream_checkpoints(&workload.prog, &base, cfg.hierarchy, &scfg, |ck| {
            // After a failure the pass still runs to the end of the region,
            // so that a later fast-forward fault takes precedence.
            if measured.is_ok() {
                batch.push(ck);
                if batch.len() == batch_len {
                    flush(&mut batch, &mut measured);
                }
            }
        })?;
    flush(&mut batch, &mut measured);
    Ok(merge_periods(measured?, total_retired, halted))
}

/// The `dvrsim sample-worker` command line that measures periods of
/// `cell`: the cell key rebuilds the workload and configuration, the five
/// sampling flags the [`SampleConfig`]. [`measure_periods_via_workers`]
/// appends `--checkpoint FILE` per period.
pub fn sample_worker_args(exe: &Path, cell: &SweepCell, scfg: &SampleConfig) -> Vec<String> {
    let mut argv = vec![exe.display().to_string(), "sample-worker".into(), cell.key()];
    for (flag, value) in [
        ("--interval", scfg.interval.to_string()),
        ("--warmup", scfg.warmup.to_string()),
        ("--period", scfg.period.to_string()),
        ("--placement", scfg.placement.name().to_string()),
        ("--sample-seed", scfg.seed.to_string()),
    ] {
        argv.extend([flag.to_string(), value]);
    }
    argv
}

/// Phase 2 out-of-process: measures each checkpoint in a worker process
/// (see [`sample_worker_args`]), at most `jobs` at a time (0 is treated
/// as 1).
///
/// Each checkpoint is written to `scratch_dir` as `period_NNNNN.ckpt` and
/// measured by `argv ++ ["--checkpoint", path]` under a
/// [`sim_sweep::Supervisor`] with [`SweepOptions::default`]'s retries and
/// backoff and no timeout. The worker answers with a `SWEEPOK1` line whose
/// payload is the period's [`PeriodResult::to_json`]. A worker that dies
/// or prints garbage is retried; a typed `SWEEPFAIL1` answer and a binary
/// that cannot be spawned at all are not. Checkpoint files are removed on
/// all paths.
///
/// # Errors
///
/// [`SampleError::Worker`] for the first period, in period order, that
/// still fails after its retries, or whose answer is not its own result.
pub fn measure_periods_via_workers(
    argv: &[String],
    checkpoints: &[PeriodCheckpoint],
    jobs: usize,
    scratch_dir: &Path,
) -> Result<Vec<PeriodResult>, SampleError> {
    if argv.is_empty() {
        return Err(SampleError::Worker("empty worker command line".to_string()));
    }
    std::fs::create_dir_all(scratch_dir).map_err(|e| {
        SampleError::Worker(format!("cannot create scratch dir {}: {e}", scratch_dir.display()))
    })?;

    let mut files = Vec::with_capacity(checkpoints.len());
    let mut write_err = None;
    for ck in checkpoints {
        let path = scratch_dir.join(format!("period_{:05}.ckpt", ck.index));
        if let Err(e) = std::fs::write(&path, ck.to_bytes()) {
            write_err = Some(SampleError::Worker(format!(
                "cannot write checkpoint {}: {e}",
                path.display()
            )));
            break;
        }
        files.push(path);
    }

    let opts = SweepOptions::default();
    let spawns = AtomicU64::new(0);
    let supervisor = Supervisor {
        timeout_ms: 0,
        retries: opts.retries,
        backoff_ms: opts.backoff_ms,
        seed: opts.seed,
        fault: &opts.fault,
        spawns: &spawns,
    };
    let measure = |i: usize| -> Result<PeriodResult, SampleError> {
        let index = checkpoints[i].index;
        let mut period_argv = argv.to_vec();
        period_argv.extend(["--checkpoint".to_string(), files[i].display().to_string()]);
        let payload = supervisor
            .run_cell(&format!("period-{index}"), &period_argv)
            .map_err(|e| SampleError::Worker(e.to_string()))?;
        match std::str::from_utf8(&payload).ok().and_then(PeriodResult::from_json) {
            Some(p) if p.index == index => Ok(p),
            Some(p) => Err(SampleError::Worker(format!(
                "period {index}: worker answered for period {}",
                p.index
            ))),
            None => Err(SampleError::Worker(format!("period {index}: unparseable worker payload"))),
        }
    };
    let result = match write_err {
        Some(e) => Err(e),
        None => try_parallel_map(checkpoints.len(), jobs.max(1), measure)
            .into_iter()
            .map(|r| r.unwrap_or_else(|cell| Err(SampleError::Worker(cell.to_string()))))
            .collect(),
    };
    for path in &files {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Builds the [`SimReport`] for a sampled result (successful or failed).
///
/// This is the single report-construction path shared by the sequential,
/// thread-parallel, and worker-process drivers, so everything except
/// `host_seconds` (set by the caller from its own clock) is a pure
/// function of the [`SampledRun`] — byte-identical across dispatch
/// modes.
pub fn sampled_report_from(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    result: Result<SampledRun, SampleError>,
) -> SimReport {
    let scfg = scfg.with_max_instructions(cfg.max_instructions);
    let mut report = SimReport {
        technique: cfg.technique,
        workload: workload.name.clone(),
        core: Default::default(),
        mem: Default::default(),
        ipc: 0.0,
        mlp: 0.0,
        simulated_instructions: 0,
        host_seconds: 0.0,
        sampling: None,
        engine: EngineSummary::default(),
        outcome: RunOutcome::Complete,
        sanitizer: None,
        work: Default::default(),
    };
    match result {
        Ok(run) => {
            let r = &run.report;
            report.ipc = r.ipc_mean;
            report.mlp = r.mlp_mean;
            report.simulated_instructions = r.total_retired;
            report.core = run.core;
            report.mem = run.mem;
            report.sampling = Some(SamplingSummary {
                intervals: r.interval_count(),
                interval_len: scfg.interval,
                warmup_len: scfg.warmup,
                period: scfg.period,
                placement: scfg.placement.name(),
                seed: scfg.seed,
                ipc_mean: r.ipc_mean,
                ipc_variance: r.ipc_variance,
                ipc_ci95: r.ipc_ci95,
                mlp_mean: r.mlp_mean,
                detailed_instructions: r.detailed_instructions,
                warmup_instructions: r.warmup_instructions,
                ffwd_instructions: r.ffwd_instructions,
            });
            report.engine.detail = format!(
                "sampled: {} intervals of {} instrs, fresh engine per interval",
                r.interval_count(),
                scfg.interval
            );
        }
        Err(e) => report.outcome = failed(e),
    }
    report
}

/// Runs one workload sampled under one configuration and returns a report.
///
/// The region of interest is [`SimConfig::max_instructions`] — it
/// overrides whatever `scfg` carries, so exact and sampled runs of the
/// same `SimConfig` always cover the same region. In the returned report:
///
/// - `ipc` is the mean of per-interval IPCs, `mlp` the mean of
///   per-interval MLPs;
/// - `core`/`mem` counters cover detailed execution only (functional
///   warming contributes no demand traffic by construction);
/// - `simulated_instructions` is the total instructions retired across
///   the region (fast-forward + detailed), the honest numerator for
///   [`SimReport::host_minstr_per_sec`];
/// - `sampling` carries the per-interval statistics
///   ([`SamplingSummary`]).
///
/// Engine activity counters reset with each interval's fresh engine, so
/// [`EngineSummary`] reports only a detail line for sampled runs.
///
/// Like [`simulate`](crate::simulate), failures come back as data: a
/// report with [`RunOutcome::Failed`] and zeroed statistics.
pub fn simulate_sampled(workload: &Workload, cfg: &SimConfig, scfg: &SampleConfig) -> SimReport {
    simulate_sampled_threads(workload, cfg, scfg, 1)
}

/// Like [`simulate_sampled`], but fanning the measure phase across
/// `threads` in-process workers (0 = all available cores).
///
/// Everything except `host_seconds` is byte-identical to
/// [`simulate_sampled`] for every thread count.
pub fn simulate_sampled_threads(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    threads: usize,
) -> SimReport {
    let t0 = std::time::Instant::now();
    let result = run_sampled_threads(workload, cfg, scfg, threads);
    let mut report = sampled_report_from(workload, cfg, scfg, result);
    report.host_seconds = t0.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Technique;
    use workloads::{Benchmark, SizeClass};

    fn scfg() -> SampleConfig {
        SampleConfig::default().with_interval(2_000).with_warmup(1_000).with_period(20_000)
    }

    #[test]
    fn sampled_report_carries_statistics() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(200_000);
        let r = simulate_sampled(&wl, &cfg, &scfg());
        assert!(r.outcome.is_complete(), "{:?}", r.outcome);
        let s = r.sampling.as_ref().expect("sampling section");
        assert!(s.intervals >= 2, "{s:?}");
        assert!(r.ipc > 0.0 && (r.ipc - s.ipc_mean).abs() < 1e-12);
        assert!(s.ipc_ci95.is_finite());
        assert!(r.simulated_instructions >= s.detailed_instructions + s.warmup_instructions);
        assert!(r.to_json().contains("\"sampling\":{"));
    }

    #[test]
    fn sampled_run_is_deterministic_and_far_cheaper_in_detail() {
        let wl = Benchmark::Camel.build(None, SizeClass::Test, 3);
        let cfg = SimConfig::new(Technique::Dvr).with_max_instructions(200_000);
        let a = simulate_sampled(&wl, &cfg, &scfg());
        let b = simulate_sampled(&wl, &cfg, &scfg());
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.sampling, b.sampling);
        // Detailed execution covers a small fraction of the region.
        let s = a.sampling.unwrap();
        assert!(s.detailed_instructions + s.warmup_instructions < a.simulated_instructions / 2);
    }

    #[test]
    fn thread_fanout_is_byte_identical_to_sequential() {
        let wl = Benchmark::Bfs.build(Some(workloads::GraphInput::Kr), SizeClass::Test, 2);
        let cfg = SimConfig::new(Technique::Dvr).with_max_instructions(120_000);
        let mut seq = simulate_sampled(&wl, &cfg, &scfg());
        let mut par = simulate_sampled_threads(&wl, &cfg, &scfg(), 4);
        seq.host_seconds = 0.0;
        par.host_seconds = 0.0;
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn sampled_ci_contains_exact_ipc() {
        // Small size: the statistical contract is tuned for real working
        // sets (the tiny Test inputs are all transient, which no sampling
        // regime represents well).
        let wl = Benchmark::NasIs.build(None, SizeClass::Small, 1);
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(200_000);
        let exact = crate::simulate(&wl, &cfg);
        let sampled = simulate_sampled(&wl, &cfg, &scfg());
        let s = sampled.sampling.as_ref().unwrap();
        assert!(
            (exact.ipc - s.ipc_mean).abs() <= s.ipc_ci95,
            "exact {} outside sampled {} +/- {}",
            exact.ipc,
            s.ipc_mean,
            s.ipc_ci95
        );
    }

    #[test]
    fn a_failed_period_reports_the_same_bytes_on_every_path() {
        // No OoO period of this cell fits in 2 000 cycles.
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let cfg = SimConfig::new(Technique::Baseline)
            .with_max_instructions(200_000)
            .with_cycle_budget(2_000);
        let json = |mut r: SimReport| {
            r.host_seconds = 0.0;
            r.to_json()
        };
        let streamed = json(simulate_sampled(&wl, &cfg, &scfg()));
        assert!(streamed.contains("\"outcome\":\"cycle_budget_exceeded\""), "{streamed}");
        let threaded = json(simulate_sampled_threads(&wl, &cfg, &scfg(), 4));
        let result = sample_emit(&wl, &cfg, &scfg()).and_then(|emit| {
            let periods = measure_emitted(&wl, &cfg, &scfg(), &emit.checkpoints, 4)?;
            Ok(merge_periods(periods, emit.total_retired, emit.halted))
        });
        let collected = json(sampled_report_from(&wl, &cfg, &scfg(), result));
        assert_eq!(streamed, threaded);
        assert_eq!(streamed, collected);
    }

    #[test]
    fn invalid_config_comes_back_as_failed_outcome() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(50_000);
        let r = simulate_sampled(&wl, &cfg, &SampleConfig::default().with_interval(0));
        assert_eq!(r.outcome.kind(), "panic");
        assert!(r.outcome.error().unwrap().to_string().contains("sample config"));
        assert!(r.sampling.is_none());
    }

    #[test]
    fn engine_factory_matches_technique() {
        let want = [
            (Technique::Baseline, "ooo"),
            (Technique::Pre, "pre"),
            (Technique::Imp, "ooo"),
            (Technique::Vr, "vr"),
            (Technique::Dvr, "dvr"),
            (Technique::DvrOffload, "dvr"),
            (Technique::DvrDiscovery, "dvr"),
            (Technique::Oracle, "oracle"),
        ];
        for (t, name) in want {
            // Factories must be constructible repeatedly (one per interval).
            let cfg = SimConfig::new(t);
            assert_eq!(engine_factory(&cfg).name(), name, "{}", t.name());
            assert_eq!(engine_factory(&cfg).name(), name, "{}", t.name());
        }
    }

    #[test]
    fn missing_worker_binary_fails_without_retry_hang() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(100_000);
        let emit = sample_emit(&wl, &cfg, &scfg()).unwrap();
        let scratch =
            std::env::temp_dir().join(format!("dvrsim-no-exe-worker-{}", std::process::id()));
        let argv = vec!["/nonexistent/dvrsim-worker-binary".to_string()];
        let err = measure_periods_via_workers(&argv, &emit.checkpoints, 2, &scratch)
            .expect_err("unspawnable workers must fail");
        assert!(matches!(err, SampleError::Worker(ref m) if m.contains("spawn")), "{err}");
        let _ = std::fs::remove_dir(&scratch);
    }

    #[test]
    fn dead_worker_surfaces_a_typed_error_without_hanging() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(100_000);
        let emit = sample_emit(&wl, &cfg, &scfg()).unwrap();
        assert!(!emit.checkpoints.is_empty());
        let scratch =
            std::env::temp_dir().join(format!("dvrsim-dead-worker-{}", std::process::id()));
        let argv = vec!["/bin/sh".to_string(), "-c".to_string(), "kill -9 $$".to_string()];
        let err = measure_periods_via_workers(&argv, &emit.checkpoints, 2, &scratch)
            .expect_err("killed workers must fail, not hang");
        assert!(matches!(err, SampleError::Worker(_)), "{err}");
        let _ = std::fs::remove_dir(&scratch);
    }
}
