//! The simulation runner.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dvr_core::{DvrConfig, DvrEngine, DvrTrace, OracleEngine, PreEngine, VrEngine};
use sim_mem::{LaneObservations, MemoryHierarchy};
use sim_multi::Scheduler;
use sim_ooo::{DynInst, EngineCtx, NullEngine, OooCore, RunaheadEngine, SanitizeReport};
use workloads::Workload;

use crate::config::{SimConfig, Technique};
use crate::multi::CoreComponent;
use crate::report::{EngineSummary, SimReport};

/// The technique-selected runahead engine as one concrete type, so the
/// scheduler's core component is not generic over the engine. Delegates
/// every [`RunaheadEngine`] hook and knows how to render its own
/// [`EngineSummary`] — the per-technique summary strings the reports have
/// always carried.
pub(crate) enum AnyEngine {
    Null(NullEngine),
    Pre(PreEngine),
    Vr(VrEngine),
    Dvr(Box<DvrEngine>),
    Oracle(OracleEngine),
}

impl AnyEngine {
    /// Builds the engine for a configuration, applying the Figure 8
    /// ablation overrides.
    pub(crate) fn for_config(cfg: &SimConfig) -> AnyEngine {
        match cfg.technique {
            Technique::Baseline | Technique::Imp => AnyEngine::Null(NullEngine),
            Technique::Pre => AnyEngine::Pre(PreEngine::default()),
            Technique::Vr => AnyEngine::Vr(VrEngine::default()),
            Technique::Dvr | Technique::DvrOffload | Technique::DvrDiscovery => {
                let dcfg = match cfg.technique {
                    Technique::DvrOffload => {
                        DvrConfig { discovery: false, nested: false, ..cfg.dvr }
                    }
                    Technique::DvrDiscovery => DvrConfig { nested: false, ..cfg.dvr },
                    _ => cfg.dvr,
                };
                AnyEngine::Dvr(Box::new(DvrEngine::new(dcfg)))
            }
            Technique::Oracle => AnyEngine::Oracle(OracleEngine::new()),
        }
    }

    /// The engine itself, boxed behind the hook trait (no enum dispatch
    /// left in the way).
    pub(crate) fn boxed(self) -> Box<dyn RunaheadEngine> {
        match self {
            AnyEngine::Null(e) => Box::new(e),
            AnyEngine::Pre(e) => Box::new(e),
            AnyEngine::Vr(e) => Box::new(e),
            AnyEngine::Dvr(e) => e,
            AnyEngine::Oracle(e) => Box::new(e),
        }
    }

    /// Starts recording the Discovery/spawn event trace (DVR engines only;
    /// a no-op for the rest).
    fn enable_trace(&mut self) {
        if let AnyEngine::Dvr(e) = self {
            e.enable_trace();
        }
    }

    /// Takes the Discovery/spawn event trace (empty for non-DVR engines).
    fn take_trace(&mut self) -> DvrTrace {
        match self {
            AnyEngine::Dvr(e) => e.take_trace().unwrap_or_default(),
            _ => DvrTrace::default(),
        }
    }

    /// The per-technique activity summary for the report.
    pub(crate) fn summary(&self) -> EngineSummary {
        match self {
            AnyEngine::Null(_) => EngineSummary::default(),
            AnyEngine::Pre(e) => {
                let s = *e.stats();
                EngineSummary {
                    episodes: s.episodes,
                    runahead_loads: s.prefetches,
                    detail: format!(
                        "pre: {} instrs pre-executed, {} poisoned loads",
                        s.instructions, s.poisoned_loads
                    ),
                    ..EngineSummary::default()
                }
            }
            AnyEngine::Vr(e) => {
                let s = *e.stats();
                EngineSummary {
                    episodes: s.episodes,
                    runahead_loads: s.lane_loads,
                    lanes_lost: s.lanes_lost,
                    detail: format!(
                        "vr: {} no-stride stalls, {} delayed-termination cycles",
                        s.no_stride_found, s.delayed_termination_cycles
                    ),
                    ..EngineSummary::default()
                }
            }
            AnyEngine::Dvr(e) => {
                let s = *e.stats();
                EngineSummary {
                    episodes: s.episodes,
                    runahead_loads: s.lane_loads,
                    nested_episodes: s.ndm_episodes,
                    detail: format!(
                        "dvr: {} lanes spawned, {} diverged episodes, {} innermost switches, \
                         {} chains without dependent loads",
                        s.lanes_spawned,
                        s.diverged_episodes,
                        s.innermost_switches,
                        s.no_dependent_chain
                    ),
                    ..EngineSummary::default()
                }
            }
            AnyEngine::Oracle(e) => {
                let s = *e.stats();
                EngineSummary {
                    detail: format!(
                        "oracle: {} misses hidden, {} natural hits",
                        s.hidden_misses, s.natural_hits
                    ),
                    ..EngineSummary::default()
                }
            }
        }
    }
}

impl RunaheadEngine for AnyEngine {
    fn name(&self) -> &'static str {
        match self {
            AnyEngine::Null(e) => e.name(),
            AnyEngine::Pre(e) => e.name(),
            AnyEngine::Vr(e) => e.name(),
            AnyEngine::Dvr(e) => e.name(),
            AnyEngine::Oracle(e) => e.name(),
        }
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCtx<'_>, di: &DynInst) {
        match self {
            AnyEngine::Null(e) => e.on_dispatch(ctx, di),
            AnyEngine::Pre(e) => e.on_dispatch(ctx, di),
            AnyEngine::Vr(e) => e.on_dispatch(ctx, di),
            AnyEngine::Dvr(e) => e.on_dispatch(ctx, di),
            AnyEngine::Oracle(e) => e.on_dispatch(ctx, di),
        }
    }

    fn on_full_rob_stall(&mut self, ctx: &mut EngineCtx<'_>, head_complete_at: u64) -> u64 {
        match self {
            AnyEngine::Null(e) => e.on_full_rob_stall(ctx, head_complete_at),
            AnyEngine::Pre(e) => e.on_full_rob_stall(ctx, head_complete_at),
            AnyEngine::Vr(e) => e.on_full_rob_stall(ctx, head_complete_at),
            AnyEngine::Dvr(e) => e.on_full_rob_stall(ctx, head_complete_at),
            AnyEngine::Oracle(e) => e.on_full_rob_stall(ctx, head_complete_at),
        }
    }

    fn override_load(&mut self, ctx: &mut EngineCtx<'_>, addr: u64) -> Option<u64> {
        match self {
            AnyEngine::Null(e) => e.override_load(ctx, addr),
            AnyEngine::Pre(e) => e.override_load(ctx, addr),
            AnyEngine::Vr(e) => e.override_load(ctx, addr),
            AnyEngine::Dvr(e) => e.override_load(ctx, addr),
            AnyEngine::Oracle(e) => e.override_load(ctx, addr),
        }
    }
}

/// The prefetch-is-timing-only check: replays the workload on a fresh
/// functional [`sim_isa::Cpu`] for exactly as many instructions as the
/// timing core fetched, then diffs architectural registers and the memory
/// checksum. The timing core executes at fetch and engines only *read*
/// memory, so any divergence means a timing structure leaked into
/// architectural state.
///
/// Valid for every [`RunOutcome`] — even a failed run has functionally
/// executed every instruction it fetched.
pub(crate) fn digest_check(
    workload: &Workload,
    core: &OooCore,
    timing_mem: &sim_isa::SparseMemory,
) -> SanitizeReport {
    let mut san = SanitizeReport::default();
    let mut replay_mem = workload.mem.clone();
    let mut cpu = sim_isa::Cpu::new();
    let steps = core.functional_retired();
    let replayed = cpu.run(&workload.prog, &mut replay_mem, steps);
    match replayed {
        Ok(n) => {
            san.check(n == steps, || {
                format!("digest: functional replay halted after {n} of {steps} instructions")
            });
            let (got, want) = (core.functional_regs(), cpu.regs());
            san.check(got == want, || {
                let r = (0..got.len()).find(|&i| got[i] != want[i]).unwrap_or(0);
                format!(
                    "digest: architectural r{r} diverged (timing {:#x}, functional {:#x})",
                    got[r], want[r]
                )
            });
            san.check(timing_mem.checksum() == replay_mem.checksum(), || {
                "digest: architectural memory checksum diverged from functional replay \
                 (a timing-only structure wrote architectural memory)"
                    .to_string()
            });
        }
        Err(e) => san.check(false, || format!("digest: functional replay faulted: {e}")),
    }
    san
}

/// What an observed run ([`simulate_observed`]) saw besides its report:
/// the dynamic side of the static-vs-dynamic audits.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// DVR Discovery/spawn events (empty unless the technique is a DVR
    /// variant).
    pub dvr_trace: DvrTrace,
    /// What the runahead lanes touched: secret-tainted fills and per-pc
    /// address extents (both empty for techniques without lanes).
    pub lanes: LaneObservations,
}

/// Runs one workload under one configuration and returns the report.
///
/// The workload is not consumed: its memory image is cloned, so the same
/// built workload can be replayed under every technique (deterministically
/// identical initial state).
///
/// A run that fails (watchdog, budget, injected fault, ...) still returns a
/// report: counters reflect the state at the failure point and
/// [`SimReport::outcome`] carries the typed error.
pub fn simulate(workload: &Workload, cfg: &SimConfig) -> SimReport {
    run(workload, cfg, false).0
}

/// [`simulate`] with observation on: the DVR engine records its event
/// trace and the memory hierarchy records what the runahead lanes touch.
/// Observation never feeds timing, so the report serializes
/// byte-identically to a plain [`simulate`] of the same configuration.
pub fn simulate_observed(workload: &Workload, cfg: &SimConfig) -> (SimReport, Observed) {
    run(workload, cfg, true)
}

/// The one runner behind [`simulate`] and [`simulate_observed`].
fn run(workload: &Workload, cfg: &SimConfig, observe: bool) -> (SimReport, Observed) {
    let t0 = std::time::Instant::now();
    let mut mem = workload.mem.clone();
    let mut hier = MemoryHierarchy::new(cfg.hierarchy);
    let mut core = OooCore::new(cfg.core);
    let mut engine = AnyEngine::for_config(cfg);
    if observe {
        hier.observe();
        engine.enable_trace();
    }

    // One core on the event scheduler: the single-core run is the n = 1
    // special case of the multi-core path (see `crate::multi`), and wakes
    // at the same cycles as `OooCore::run`.
    let outcome = {
        let mut comp = CoreComponent::new(
            &mut core,
            &workload.prog,
            &mut mem,
            &mut hier,
            &mut engine,
            cfg.max_instructions,
            None,
        );
        let mut sched = Scheduler::new();
        sched.schedule(0, 0);
        sched.run(&mut [&mut comp]);
        comp.take_outcome()
    };
    let observed = Observed {
        dvr_trace: engine.take_trace(),
        lanes: hier.take_observations().unwrap_or_default(),
    };
    let engine_summary = engine.summary();

    let sanitizer = if cfg.core.sanitize {
        let digest = digest_check(workload, &core, &mem);
        core.sanitize_report_mut().merge(&digest);
        Some(core.sanitize_report().clone())
    } else {
        None
    };

    let core_stats = *core.stats();
    let mem_stats = hier.stats().clone();
    let cycles = core_stats.cycles.max(1);
    let report = SimReport {
        technique: cfg.technique,
        workload: workload.name.clone(),
        ipc: core_stats.ipc(),
        mlp: hier.mshr_busy_integral(core_stats.cycles) as f64 / cycles as f64,
        simulated_instructions: core_stats.committed,
        host_seconds: t0.elapsed().as_secs_f64(),
        sampling: None,
        core: core_stats,
        mem: mem_stats,
        engine: engine_summary,
        outcome,
        sanitizer,
        work: core.work(),
    };
    (report, observed)
}

/// Convenience: run one workload under several techniques, sharing the
/// built input.
pub fn simulate_all(workload: &Workload, cfgs: &[SimConfig]) -> Vec<SimReport> {
    cfgs.iter().map(|c| simulate(workload, c)).collect()
}

/// Resolves a user-facing thread-count knob: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        threads
    }
}

/// A failed cell in a batched parallel run.
///
/// Produced by [`try_parallel_map`] when a work item panics (twice — each
/// cell gets one retry) or when a worker thread dies without reporting a
/// result for an index it claimed.
#[derive(Clone, PartialEq, Debug)]
pub struct CellError {
    /// Index of the failed work item.
    pub index: usize,
    /// Worker thread that ran the item (`usize::MAX` when unknown — the
    /// worker died before reporting).
    pub worker: usize,
    /// The panic payload, rendered as text.
    pub message: String,
    /// Whether the failure survived the automatic retry.
    pub retried: bool,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let worker = if self.worker == usize::MAX {
            "unknown worker".to_string()
        } else {
            format!("worker {}", self.worker)
        };
        let retried = if self.retried { ", retried once" } else { "" };
        write!(f, "cell {} failed on {worker}{retried}: {}", self.index, self.message)
    }
}

impl std::error::Error for CellError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`parallel_map`], but isolating panics: each cell runs under
/// `catch_unwind`, gets **one retry**, and failures come back as
/// [`CellError`]s in the result vector instead of tearing down the whole
/// batch. A worker that dies without reporting a claimed index yields a
/// `CellError` naming that index with `worker == usize::MAX`.
///
/// The retry assumes `f` is idempotent — true for the deterministic
/// simulations this crate runs.
pub fn try_parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<Result<T, CellError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_cell = |i: usize, worker: usize| -> Result<T, CellError> {
        let mut first_failure = None;
        for _attempt in 0..2 {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => return Ok(v),
                Err(payload) => first_failure = Some(panic_message(payload.as_ref())),
            }
        }
        Err(CellError {
            index: i,
            worker,
            message: first_failure.unwrap_or_default(),
            retried: true,
        })
    };
    let threads = resolve_threads(threads).min(n);
    if threads <= 1 {
        return (0..n).map(|i| run_cell(i, 0)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Result<T, CellError>)>> = std::thread::scope(|scope| {
        let next = &next;
        let run_cell = &run_cell;
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run_cell(i, w)));
                    }
                    local
                })
            })
            .collect();
        // A worker can only die on a non-unwinding abort (run_cell catches
        // panics); joining still never blocks forever, and missing indices
        // are reported as CellErrors below.
        workers.into_iter().filter_map(|w| w.join().ok()).collect()
    });
    let mut out: Vec<Option<Result<T, CellError>>> = (0..n).map(|_| None).collect();
    for (i, v) in parts.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(CellError {
                    index: i,
                    worker: usize::MAX,
                    message: "worker died without reporting a result for this cell".to_string(),
                    retried: false,
                })
            })
        })
        .collect()
}

/// Maps `f` over `0..n` on up to `threads` scoped OS threads (`0` = all
/// available cores) and returns the results **in index order**.
///
/// Work is distributed by an atomic work-stealing index, so threads that
/// draw short items move on to the next one immediately. Each worker
/// collects `(index, value)` pairs locally — no per-slot locking — and the
/// results are reassembled after the join. With deterministic `f` the
/// output is identical for every thread count, including `threads == 1`,
/// which runs inline without spawning.
///
/// Built on [`try_parallel_map`], so a transiently panicking cell is
/// retried once before the batch fails.
///
/// # Panics
///
/// Panics with a message naming the failed cell index and worker if any
/// cell still fails after its retry. Callers that need partial results
/// should use [`try_parallel_map`] instead.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_parallel_map(n, threads, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("parallel_map: {e}"),
        })
        .collect()
}

/// Like [`simulate_all`], but running configurations on OS threads
/// (simulations are independent and deterministic, so results are identical
/// to the serial version and returned in input order).
///
/// `threads = 0` uses the machine's available parallelism.
pub fn simulate_all_parallel(
    workload: &Workload,
    cfgs: &[SimConfig],
    threads: usize,
) -> Vec<SimReport> {
    parallel_map(cfgs.len(), threads, |i| simulate(workload, &cfgs[i]))
}
#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, SizeClass};

    #[test]
    fn baseline_run_produces_sane_numbers() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let r = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(30_000));
        assert!(r.ipc > 0.05 && r.ipc < 5.0, "ipc {}", r.ipc);
        assert!(r.core.committed >= 29_000);
        assert!(r.mem.demand_loads > 0);
        assert!(r.mlp >= 0.0);
    }

    #[test]
    fn workload_is_reusable_across_techniques() {
        let wl = Benchmark::Camel.build(None, SizeClass::Test, 2);
        let a = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(20_000));
        let b = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(20_000));
        assert_eq!(a.core.cycles, b.core.cycles, "simulation must be deterministic");
    }

    #[test]
    fn parallel_matches_serial() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 4);
        let cfgs: Vec<SimConfig> = [Technique::Baseline, Technique::Vr, Technique::Dvr]
            .into_iter()
            .map(|t| SimConfig::new(t).with_max_instructions(10_000))
            .collect();
        let serial = simulate_all(&wl, &cfgs);
        let parallel = simulate_all_parallel(&wl, &cfgs, 3);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.core.cycles, p.core.cycles);
            assert_eq!(s.technique, p.technique);
            assert_eq!(s.mem.dram_reads(), p.mem.dram_reads());
        }
    }

    #[test]
    fn parallel_map_preserves_order_for_any_thread_count() {
        for threads in [0, 1, 2, 3, 7, 64] {
            let v = parallel_map(17, threads, |i| i * i);
            assert_eq!(v, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn simulation_reports_host_time() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let r = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(30_000));
        assert!(r.host_seconds > 0.0);
        assert!(r.sim_instrs_per_host_second() > 0.0);
    }

    #[test]
    fn completed_runs_report_a_complete_outcome() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let r = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(10_000));
        assert!(r.outcome.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.outcome.kind(), "complete");
    }

    #[test]
    fn exhausted_cycle_budget_fails_with_partial_stats() {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
        let cfg = SimConfig::new(Technique::Baseline).with_cycle_budget(2_000);
        let r = simulate(&wl, &cfg);
        assert_eq!(r.outcome.kind(), "cycle_budget_exceeded", "{:?}", r.outcome);
        assert_eq!(r.core.cycles, 2_000, "stats must reflect the failure point");
        assert!(r.core.committed > 0, "partial progress must be visible");
        assert!(r.to_json().contains("\"outcome\":\"cycle_budget_exceeded\""));
    }

    #[test]
    fn try_parallel_map_retries_once_then_reports_the_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let attempts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
            let out = try_parallel_map(8, threads, |i| {
                let attempt = attempts[i].fetch_add(1, Ordering::SeqCst);
                // Cell 3 fails once then recovers; cell 5 always fails.
                if i == 3 && attempt == 0 {
                    panic!("transient failure");
                }
                if i == 5 {
                    panic!("permanent failure in cell five");
                }
                i * 10
            });
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i * 10, "threads={threads}"),
                    Err(e) => {
                        assert_eq!(i, 5, "only cell 5 may fail (threads={threads}): {e}");
                        assert_eq!(e.index, 5);
                        assert!(e.retried);
                        assert!(e.message.contains("permanent failure"), "{e}");
                    }
                }
            }
            assert_eq!(attempts[3].load(Ordering::SeqCst), 2, "cell 3 must be retried");
            assert_eq!(attempts[5].load(Ordering::SeqCst), 2, "cell 5 gets exactly one retry");
        }
    }

    #[test]
    #[should_panic(expected = "cell 2 failed")]
    fn parallel_map_panic_names_the_failed_cell() {
        let _ = parallel_map(4, 1, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn sanitized_run_is_clean_and_byte_identical() {
        let wl = Benchmark::Camel.build(None, SizeClass::Test, 5);
        let cfg = SimConfig::new(Technique::Dvr).with_max_instructions(30_000);
        let plain = simulate(&wl, &cfg);
        let sane = simulate(&wl, &cfg.with_sanitize(true));
        let san = sane.sanitizer.as_ref().expect("sanitizer ledger attached");
        assert!(san.is_clean(), "{}", san.summary());
        assert!(san.checks > 0);
        assert!(plain.sanitizer.is_none());
        // Byte-identical reports modulo wall-clock fields.
        let strip = |mut r: SimReport| {
            r.host_seconds = 0.0;
            r.to_json()
        };
        assert_eq!(strip(plain), strip(sane));
    }

    #[test]
    fn dvr_reports_engine_activity() {
        let wl = Benchmark::Camel.build(None, SizeClass::Small, 3);
        let r = simulate(&wl, &SimConfig::new(Technique::Dvr).with_max_instructions(100_000));
        assert!(r.engine.episodes > 0, "DVR must trigger on Camel: {:?}", r.engine);
        assert!(r.engine.runahead_loads > 0);
    }
}
