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
//! Each period is measured from its own checkpoint, so the measure phase
//! fans out. Every entry point runs [`drive_sampled`], which hands the
//! checkpoints over in batches: [`simulate_sampled_configs`] serves many
//! configurations of one workload, one pass per cache geometry, and
//! measures them on threads; [`simulate_sampled_cells`] serves several
//! techniques from one pass, on threads or in `dvrsim sample-worker`
//! processes ([`measure_periods_via_workers`]). The reports are
//! byte-identical either way (modulo wall-clock fields).

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use sim_isa::SparseMemory;
use sim_ooo::{RunaheadEngine, SimError};
use sim_sample::{
    drive_sampled, emit_checkpoints, measure_period, EmitResult, PeriodCheckpoint, PeriodResult,
    SampleConfig, SampleError, SampledRun,
};
use sim_sweep::{resolve_threads, try_parallel_map, Supervisor, SweepOptions};
use workloads::Workload;

use crate::config::SimConfig;
use crate::report::{EngineSummary, RunOutcome, SamplingSummary, SimReport};
use crate::runner::AnyEngine;
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
        other => SimError::Panic { message: other.to_string() },
    })
}

/// Phase 1 for one workload, collected: runs the functional fast-forward
/// pass and returns every period checkpoint. Sampled runs stream through
/// [`drive_sampled`] instead; this and [`measure_emitted`] serve callers
/// that time the two phases apart.
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
/// `threads` worker threads (0 = all available cores), in period order,
/// each restored from one shared copy of the workload image per call.
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
    measure_from(workload, cfg, scfg, &workload.mem.shared_clone(), checkpoints, threads)
}

/// Measures `checkpoints` on up to `threads` worker threads, restoring
/// each from `base`; the region of interest is `cfg`'s.
fn measure_from(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    base: &SparseMemory,
    checkpoints: &[PeriodCheckpoint],
    threads: usize,
) -> Result<Vec<PeriodResult>, SampleError> {
    let scfg = scfg.with_max_instructions(cfg.max_instructions);
    map_periods(checkpoints, threads, |ck| {
        measure_period(&workload.prog, base, cfg.core, cfg.hierarchy, &scfg, ck, || {
            engine_factory(cfg)
        })
    })
}

/// `measure` over `checkpoints` on up to `threads` threads
/// ([`try_parallel_map`]): the results in period order, or the first
/// failure. A panicking cell surfaces as [`SampleError::Worker`], named by
/// its checkpoint's period index (its position among all emitted
/// checkpoints).
fn map_periods<F>(
    checkpoints: &[PeriodCheckpoint],
    threads: usize,
    measure: F,
) -> Result<Vec<PeriodResult>, SampleError>
where
    F: Fn(&PeriodCheckpoint) -> Result<PeriodResult, SampleError> + Sync,
{
    try_parallel_map(checkpoints.len(), threads, |i| measure(&checkpoints[i]))
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|mut cell| {
                cell.index = checkpoints[cell.index].index as usize;
                Err(SampleError::Worker(cell.to_string()))
            })
        })
        .collect()
}

/// Where [`simulate_sampled_cells`] measures each batch of periods; a
/// batch holds one period per thread or job.
#[derive(Clone, Copy, Debug)]
pub enum Measure<'a> {
    /// In-process, on up to this many threads (0 = all available cores).
    Threads(usize),
    /// In `sample-worker` processes ([`measure_periods_via_workers`]).
    Workers {
        /// The `dvrsim` binary.
        exe: &'a Path,
        /// Worker processes at a time (0 is treated as 1).
        jobs: usize,
        /// Directory for the checkpoint files of the batch in flight.
        scratch: &'a Path,
    },
}

/// Runs `workload` sampled once per configuration in `cfgs` (which share
/// cache geometries and a region of interest) from one functional pass:
/// [`drive_sampled`] with batches of `batch` and `measure`. Each report's
/// `host_seconds` is its run's own measure time plus an equal share of
/// the functional pass.
fn sample_runs<M>(
    workload: &Workload,
    cfgs: &[SimConfig],
    scfg: &SampleConfig,
    batch: usize,
    mut measure: M,
) -> Vec<SimReport>
where
    M: FnMut(usize, &SparseMemory, &[PeriodCheckpoint]) -> Result<Vec<PeriodResult>, SampleError>,
{
    let t0 = Instant::now();
    let (prog, mem, hier) = (&workload.prog, &workload.mem, cfgs[0].hierarchy);
    let roi = scfg.with_max_instructions(cfgs[0].max_instructions);
    let mut own_secs = vec![0.0; cfgs.len()];
    let runs = drive_sampled(prog, mem, hier, &roi, cfgs.len(), batch, |run, base, cks| {
        let t = Instant::now();
        let periods = measure(run, base, cks);
        own_secs[run] += t.elapsed().as_secs_f64();
        periods
    });
    let pass_share =
        (t0.elapsed().as_secs_f64() - own_secs.iter().sum::<f64>()) / cfgs.len() as f64;
    runs.into_iter()
        .zip(cfgs)
        .zip(own_secs)
        .map(|((run, cfg), secs)| {
            let mut report = sampled_report_from(workload, cfg, scfg, run);
            report.host_seconds = pass_share + secs;
            report
        })
        .collect()
}

/// Runs every cell sampled and returns its report, in cell order.
///
/// Consecutive cells that differ only in technique share one workload and
/// one functional pass ([`drive_sampled`]), which holds one batch of
/// checkpoints (and under [`Measure::Workers`] one batch of checkpoint
/// files) at a time. Each report is [`simulate_sampled`] of its cell's
/// workload and [`SweepCell::config`], byte for byte, except that
/// `host_seconds` is the technique's own measure time plus an equal share
/// of the functional pass.
pub fn simulate_sampled_cells(
    cells: &[SweepCell],
    scfg: &SampleConfig,
    measure: Measure<'_>,
) -> Vec<SimReport> {
    cells
        .chunk_by(|a, b| SweepCell { technique: a.technique, ..*b } == *a)
        .flat_map(|group| {
            let c = group[0];
            let wl = c.bench.build(c.input, c.size, c.seed);
            let cfgs: Vec<SimConfig> = group.iter().map(SweepCell::config).collect();
            match measure {
                Measure::Threads(threads) => simulate_sampled_configs(&wl, &cfgs, scfg, threads),
                Measure::Workers { exe, jobs, scratch } => {
                    sample_runs(&wl, &cfgs, scfg, jobs, |run, _, checkpoints| {
                        let argv = sample_worker_args(exe, &group[run], scfg);
                        measure_periods_via_workers(&argv, checkpoints, jobs, scratch)
                    })
                }
            }
        })
        .collect()
}

/// Runs `workload` sampled under every configuration in `cfgs` and
/// returns the reports in `cfgs` order.
///
/// Configurations that share a region of interest and the three cache
/// geometries share one functional pass ([`drive_sampled`]): warming
/// records only the L1, L2 and L3 tag arrays, and each period rebuilds
/// its configuration's own hierarchy (MSHRs, DRAM, faults) around them.
/// The passes run in order of each one's first configuration. Each batch
/// of periods holds one period per thread and is measured on up to
/// `threads` worker threads (0 = all available cores). Each report is
/// [`simulate_sampled`] of its own configuration, byte for byte, except
/// that `host_seconds` is its own measure time plus an equal share of its
/// pass.
pub fn simulate_sampled_configs(
    workload: &Workload,
    cfgs: &[SimConfig],
    scfg: &SampleConfig,
    threads: usize,
) -> Vec<SimReport> {
    let pass_key =
        |c: &SimConfig| (c.hierarchy.l1, c.hierarchy.l2, c.hierarchy.l3, c.max_instructions);
    let batch = resolve_threads(threads);
    // Reports are gathered as passes end: preallocating them before the
    // first pass raised perf-bench `sampled`'s peak RSS by 1.6 MiB.
    let mut reports: Vec<(usize, SimReport)> = Vec::new();
    // A pass starts at each configuration no earlier pass has served.
    for first in 0..cfgs.len() {
        if reports.iter().any(|&(i, _)| i == first) {
            continue;
        }
        let key = pass_key(&cfgs[first]);
        let pass: Vec<usize> = (first..cfgs.len()).filter(|&i| pass_key(&cfgs[i]) == key).collect();
        let group: Vec<SimConfig> = pass.iter().map(|&i| cfgs[i]).collect();
        let runs = sample_runs(workload, &group, scfg, batch, |run, base, checkpoints| {
            measure_from(workload, &group[run], scfg, base, checkpoints, threads)
        });
        reports.extend(pass.into_iter().zip(runs));
    }
    reports.sort_by_key(|&(i, _)| i);
    reports.into_iter().map(|(_, report)| report).collect()
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
/// payload is the period's [`PeriodResult::to_bytes`]. A worker that dies
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

    let file = |ck: &PeriodCheckpoint| scratch_dir.join(format!("period_{:05}.ckpt", ck.index));
    let written = checkpoints.iter().try_for_each(|ck| {
        std::fs::write(file(ck), ck.to_bytes()).map_err(|e| {
            SampleError::Worker(format!("cannot write checkpoint {}: {e}", file(ck).display()))
        })
    });

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
    let measure = |ck: &PeriodCheckpoint| -> Result<PeriodResult, SampleError> {
        let index = ck.index;
        let mut period_argv = argv.to_vec();
        period_argv.extend(["--checkpoint".to_string(), file(ck).display().to_string()]);
        let payload = supervisor
            .run_cell(&format!("period-{index}"), &period_argv)
            .map_err(|e| SampleError::Worker(e.to_string()))?;
        match PeriodResult::decode(&payload) {
            Ok(p) if p.index == index => Ok(p),
            Ok(p) => Err(SampleError::Worker(format!(
                "period {index}: worker answered for period {}",
                p.index
            ))),
            Err(e) => Err(SampleError::Worker(format!("period {index}: {e}"))),
        }
    };
    let result = written.and_then(|()| map_periods(checkpoints, jobs.max(1), measure));
    for ck in checkpoints {
        let _ = std::fs::remove_file(file(ck));
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
/// Periods are measured as they are emitted, in batches of one per
/// thread, and each batch is dropped once measured, so at most `threads`
/// checkpoints are alive at once. `threads == 1` runs inline and is the
/// sequential reference. Everything except `host_seconds` is
/// byte-identical to [`simulate_sampled`] for every thread count.
pub fn simulate_sampled_threads(
    workload: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    threads: usize,
) -> SimReport {
    let mut reports = simulate_sampled_configs(workload, std::slice::from_ref(cfg), scfg, threads);
    reports.pop().expect("one configuration, one report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Technique;
    use sim_sample::merge_periods;
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
