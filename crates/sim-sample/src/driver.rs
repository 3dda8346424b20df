//! The checkpoint-parallel sampling driver.
//!
//! Sampling is a two-phase pipeline:
//!
//! 1. **Emit** ([`stream_checkpoints`]): one functional fast-forward pass
//!    over the whole region of interest, warming cache tags and
//!    branch-predictor tables as it goes, which takes a
//!    [`PeriodCheckpoint`] at every period's warmup start and hands it to
//!    a consumer at once. [`emit_checkpoints`] is the consumer that
//!    collects them all.
//! 2. **Measure** ([`measure_period`]): every (warmup + measured)
//!    interval restores its checkpoint into a fresh engine and runs
//!    independently of every other period — in this thread, a worker
//!    thread, or another process entirely.
//!
//! [`merge_periods`] combines the per-period results in period order
//! into a [`SampledRun`]; because each period is a pure function of its
//! checkpoint, the merged result is byte-identical no matter where or in
//! what order the periods ran. [`drive_sampled`], the one driver, streams
//! the checkpoints of one pass in batches to every run it serves;
//! [`run_sampled`] is its sequential reference.
//!
//! Memory images are copy-on-write ([`SparseMemory::share`]): the live
//! image forks from a shared copy of the workload image, a checkpoint
//! shares the pages written in its own period, and a period restores from
//! the shared base without copying it.
//!
//! The emitter's per-period work follows what the period wrote, not the
//! size of the image or of the caches:
//!
//! * each share visits only the pages written since the last one, and a
//!   [`RunningDelta`] folds them into the memory delta against the base,
//!   so a checkpoint compares only those pages;
//! * the warm tag arrays move into the checkpoint's `Arc` and back
//!   ([`MemoryHierarchy::lend_warm_caches`]), so a checkpoint measured and
//!   dropped before warming resumes costs no copy of them on the emit
//!   side; its period makes the one copy, into its own hierarchy. A
//!   checkpoint still held when warming resumes (a collected emit, a
//!   batch of several) costs one emit-side copy.
//!
//! A period still pays, in time with the mapped image and the cache
//! sizes, for cloning the base's page table and slot vector
//! ([`SparseMemory::restore_from`]), for its copy of the tag arrays, and
//! for dropping both.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use sim_isa::{Cpu, ExecError, Program, RunningDelta, SparseMemory};
use sim_mem::{HierarchyConfig, MemStats, MemoryHierarchy};
use sim_ooo::{
    CoreConfig, CoreStats, OooCore, RunaheadEngine, SimError, TageConfig, TagePredictor,
};

use crate::checkpoint::PeriodCheckpoint;
use crate::config::{Placement, SampleConfig};
use crate::rng::SplitMix64;
use crate::stats::{IntervalStat, SampledReport};
use crate::warm::WarmingSink;

/// Failure of a sampled run.
#[derive(Clone, Debug)]
pub enum SampleError {
    /// The sampling configuration is inconsistent.
    Config(String),
    /// The functional fast-forward executor faulted.
    Exec(ExecError),
    /// A detailed interval failed.
    Sim(SimError),
    /// A period checkpoint failed to serialize or restore.
    Checkpoint(String),
    /// A sample worker (thread or process) died or produced garbage.
    Worker(String),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Config(msg) => write!(f, "invalid sample config: {msg}"),
            SampleError::Exec(e) => write!(f, "fast-forward fault: {e}"),
            SampleError::Sim(e) => write!(f, "detailed interval failed: {e}"),
            SampleError::Checkpoint(msg) => write!(f, "bad period checkpoint: {msg}"),
            SampleError::Worker(msg) => write!(f, "sample worker failed: {msg}"),
        }
    }
}

impl Error for SampleError {}

impl From<ExecError> for SampleError {
    fn from(e: ExecError) -> Self {
        SampleError::Exec(e)
    }
}

impl From<SimError> for SampleError {
    fn from(e: SimError) -> Self {
        SampleError::Sim(e)
    }
}

/// The result of a sampled run: the statistical report plus the aggregate
/// detailed-mode counters a `SimReport` is built from.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// Per-interval samples and their aggregation.
    pub report: SampledReport,
    /// Core counters summed over *measured* intervals only.
    pub core: CoreStats,
    /// Hierarchy counters accumulated over all detailed execution
    /// (warmup + measured; functional warming contributes nothing).
    pub mem: MemStats,
    /// MSHR-occupancy integral accumulated inside measured intervals.
    pub measured_mshr_integral: u64,
    /// Whether the program ran to completion (halted) within the region
    /// of interest.
    pub halted: bool,
}

/// Output of the emit phase: the per-period checkpoints plus the
/// whole-region facts only the full functional pass knows.
#[derive(Clone, Debug)]
pub struct EmitResult {
    /// One checkpoint per period whose warmup start lies inside the
    /// region of interest, in period order.
    pub checkpoints: Vec<PeriodCheckpoint>,
    /// Instructions the functional pass retired (the whole region of
    /// interest, or less if the program halted first).
    pub total_retired: u64,
    /// Whether the program halted inside the region of interest.
    pub halted: bool,
}

/// The integer-only measurement of one period — everything
/// [`merge_periods`] needs, in a form that survives the round-trip
/// through a worker process ([`PeriodResult::to_bytes`]) bit-exactly (no
/// floats cross the process boundary; derived rates are recomputed at
/// merge time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeriodResult {
    /// Period number (the merge key).
    pub index: u64,
    /// Functional frontier at the start of the measured interval
    /// (0 when `measured` is false).
    pub start_retired: u64,
    /// Instructions committed by the discarded detailed warmup.
    pub warmup_committed: u64,
    /// MSHR-occupancy integral over the measured interval.
    pub mshr_integral: u64,
    /// Whether the measured interval actually ran (false when the
    /// program halted inside the warmup or the region ended first).
    pub measured: bool,
    /// Core counters of the measured interval only.
    pub core: CoreStats,
    /// Hierarchy counters of this period's detailed execution
    /// (warmup + measured), finalized.
    pub mem: MemStats,
}

/// Field-wise `f(a, b)` of two counter sets, through their flat encoding.
fn zip_with(a: &CoreStats, b: &CoreStats, f: fn(u64, u64) -> u64) -> CoreStats {
    let (a, b) = (a.to_flat(), b.to_flat());
    let v: [u64; CoreStats::FLAT_LEN] = std::array::from_fn(|i| f(a[i], b[i]));
    CoreStats::from_flat(&v).expect("same length by construction")
}

/// Phase 1, collected: runs [`stream_checkpoints`] from a shared copy of
/// `base_mem` and returns every checkpoint, in period order.
///
/// # Errors
///
/// As [`stream_checkpoints`].
pub fn emit_checkpoints(
    prog: &Program,
    base_mem: &SparseMemory,
    hier_cfg: HierarchyConfig,
    scfg: &SampleConfig,
) -> Result<EmitResult, SampleError> {
    let base = base_mem.shared_clone();
    let mut checkpoints = Vec::new();
    let (total_retired, halted) =
        stream_checkpoints(prog, &base, hier_cfg, scfg, |ck| checkpoints.push(ck))?;
    Ok(EmitResult { checkpoints, total_retired, halted })
}

/// Phase 1: one functional fast-forward pass over the region of interest
/// that takes a [`PeriodCheckpoint`] at every period's warmup start and
/// hands it to `on_checkpoint` at once, in period order. Returns
/// `(total_retired, halted)`: the instructions the pass retired (the whole
/// region of interest, or less if the program halted first) and whether
/// the program halted inside it.
///
/// The pass warms cache tags and branch-predictor tables continuously —
/// including through the windows the detailed phase will re-execute — so
/// each checkpoint's warm state is a pure function of the instruction
/// stream up to its warmup start, independent of how any other period is
/// later measured. Interval placement draws from the same seeded
/// [`SplitMix64`] stream in the same order for every placement policy,
/// so checkpoint positions are deterministic.
///
/// The live image forks from `base`, and every checkpoint is a delta
/// against it, kept as a [`RunningDelta`]. With a shared `base`
/// ([`SparseMemory::shared_clone`]) the fork copies no page, and each
/// checkpoint copies and compares only the pages written in its own
/// period; any other `base` gives the same checkpoints, at the cost of
/// copying and comparing every page at the first. A checkpoint's warm
/// caches are the pass's own tag arrays, lent
/// ([`MemoryHierarchy::lend_warm_caches`]): they are copied back only if
/// `on_checkpoint` still holds the checkpoint when it returns.
///
/// # Errors
///
/// [`SampleError::Config`] for inconsistent configurations, otherwise
/// the first fast-forward fault, even if it comes after checkpoints were
/// handed out.
pub fn stream_checkpoints<F>(
    prog: &Program,
    base: &SparseMemory,
    hier_cfg: HierarchyConfig,
    scfg: &SampleConfig,
    mut on_checkpoint: F,
) -> Result<(u64, bool), SampleError>
where
    F: FnMut(PeriodCheckpoint),
{
    scfg.validate().map_err(SampleError::Config)?;

    let mut mem = base.clone();
    let mut delta = RunningDelta::new();
    let mut cpu = Cpu::new();
    let mut bp = TagePredictor::default();
    let mut hier = MemoryHierarchy::new(hier_cfg);
    let mut rng = SplitMix64::new(scfg.seed);

    let roi = scfg.max_instructions;
    // Offsets of the measured interval inside its period: at least `warmup`
    // in (so the warmup fits in the same period), at most flush with the
    // period's end.
    let slack = scfg.period - scfg.warmup - scfg.interval;
    let systematic_off = scfg.warmup + rng.next_below(slack + 1);

    for k in 0..scfg.periods() {
        if cpu.is_halted() {
            break;
        }
        let off = match scfg.placement {
            Placement::Systematic => systematic_off,
            Placement::Random => scfg.warmup + rng.next_below(slack + 1),
        };
        let measure_at = k * scfg.period + off;
        if measure_at >= roi {
            break;
        }

        // Fast-forward (with warming) to the warmup start. `warm_at` is
        // strictly increasing across periods (it lies in
        // [k*period, (k+1)*period - interval - warmup]), so the frontier
        // never has to move backwards.
        let warm_at = measure_at - scfg.warmup;
        if cpu.retired() < warm_at {
            let todo = warm_at - cpu.retired();
            let mut sink = WarmingSink::new(&mut hier, &mut bp);
            cpu.run_warming(prog, &mut mem, todo, &mut sink)?;
            if cpu.is_halted() {
                break;
            }
        }
        // Freeze this period's writes so the checkpoint shares them; the
        // live image copies a page again only when it next writes to it.
        delta.fold(base, mem.share());
        hier.lend_warm_caches(|warm| {
            let warm = Arc::new(warm);
            on_checkpoint(PeriodCheckpoint {
                index: k,
                measure_at,
                cpu: cpu.checkpoint(),
                mem: delta.checkpoint(),
                warm_mem: Arc::clone(&warm),
                warm_bp: bp.state_bytes(),
            });
            Arc::unwrap_or_clone(warm)
        });
    }

    // Cover the tail of the region functionally so `total_retired` spans
    // the full ROI (and the program gets to halt if it can).
    if !cpu.is_halted() && cpu.retired() < roi {
        let todo = roi - cpu.retired();
        let mut sink = WarmingSink::new(&mut hier, &mut bp);
        cpu.run_warming(prog, &mut mem, todo, &mut sink)?;
    }

    Ok((cpu.retired(), cpu.is_halted()))
}

/// Phase 2: measures one period from its checkpoint, independently of
/// every other period.
///
/// Restores the architectural state (`base_mem` with `ck`'s memory delta
/// applied; with a shared base, see [`SparseMemory::shared_clone`], no
/// page is copied until the period writes it), warm hierarchy (around its
/// own copy of `ck`'s tag arrays), and warm predictor from `ck`, runs the
/// discarded detailed warmup and then the measured interval on one
/// detailed core (via resumable segments, so measurement starts from the
/// warm pipeline the warmup filled), and returns the
/// integer-only [`PeriodResult`]. `make_engine` supplies this period's
/// fresh runahead engine — engine state (including DVR's runahead
/// subthread) dies with the period, which is how the engine "quiesces
/// cleanly" at interval boundaries.
///
/// # Errors
///
/// [`SampleError::Checkpoint`] if the warm caches were taken under another
/// cache geometry than `hier_cfg`'s or the warm predictor image fails
/// validation, otherwise the first detailed-interval failure.
pub fn measure_period<F>(
    prog: &Program,
    base_mem: &SparseMemory,
    core_cfg: CoreConfig,
    hier_cfg: HierarchyConfig,
    scfg: &SampleConfig,
    ck: &PeriodCheckpoint,
    make_engine: F,
) -> Result<PeriodResult, SampleError>
where
    F: FnOnce() -> Box<dyn RunaheadEngine>,
{
    scfg.validate().map_err(SampleError::Config)?;
    let roi = scfg.max_instructions;

    let mut mem = SparseMemory::restore_from(base_mem, &ck.mem);
    let cpu = Cpu::from_checkpoint(&ck.cpu);
    let mut hier = MemoryHierarchy::from_warm_caches(hier_cfg, (*ck.warm_mem).clone())
        .map_err(|e| SampleError::Checkpoint(format!("period {}: {e}", ck.index)))?;
    // Emit warms, and the detailed core runs, the default predictor geometry.
    let bp = TagePredictor::from_state_bytes(TageConfig::default(), &ck.warm_bp).map_err(|e| {
        SampleError::Checkpoint(format!("period {}: invalid warm predictor image: {e}", ck.index))
    })?;

    let mut core = OooCore::with_state(core_cfg, cpu, bp);
    let mut engine = make_engine();
    let warmup_budget = ck.measure_at.saturating_sub(core.functional_retired());
    if warmup_budget > 0 {
        core.run_segment(prog, &mut mem, &mut hier, engine.as_mut(), warmup_budget)?;
    }
    let warm_snap = *core.stats();
    let mut res = PeriodResult {
        index: ck.index,
        start_retired: 0,
        warmup_committed: warm_snap.committed,
        mshr_integral: 0,
        measured: false,
        core: CoreStats::default(),
        mem: MemStats::default(),
    };

    // A commit shortfall means the program halted inside the warmup; a
    // zero budget means the region of interest ended before the interval.
    let budget = scfg.interval.min(roi.saturating_sub(core.functional_retired()));
    if warm_snap.committed >= warmup_budget && budget > 0 {
        let integral_before = hier.mshr_busy_integral(warm_snap.cycles);
        res.start_retired = core.functional_retired();
        core.run_segment(prog, &mut mem, &mut hier, engine.as_mut(), budget)?;
        res.core = zip_with(core.stats(), &warm_snap, |after, before| after - before);
        res.mshr_integral = hier.mshr_busy_integral(core.stats().cycles) - integral_before;
        res.measured = true;
    }
    hier.finalize();
    res.mem = hier.stats().clone();
    Ok(res)
}

/// Combines per-period results (in any order) into a [`SampledRun`].
///
/// Results are sorted by period index before merging, and every derived
/// float (per-interval IPC and MLP, the report's aggregates) is
/// recomputed here from the integer counters — so the merged run is
/// byte-identical no matter which thread or process measured each
/// period. `total_retired` and `halted` come from the emit phase
/// ([`EmitResult`]).
pub fn merge_periods(
    mut periods: Vec<PeriodResult>,
    total_retired: u64,
    halted: bool,
) -> SampledRun {
    periods.sort_by_key(|p| p.index);

    let mut intervals = Vec::new();
    let mut agg = CoreStats::default();
    let mut mem = MemStats::default();
    let mut warmup_total = 0u64;
    let mut measured_integral = 0u64;
    for p in &periods {
        warmup_total += p.warmup_committed;
        mem.accumulate(&p.mem);
        if p.measured {
            intervals.push(IntervalStat {
                start_retired: p.start_retired,
                committed: p.core.committed,
                cycles: p.core.cycles,
                ipc: p.core.ipc(),
                mlp: p.mshr_integral as f64 / p.core.cycles.max(1) as f64,
            });
            agg = zip_with(&agg, &p.core, |a, b| a + b);
            measured_integral += p.mshr_integral;
        }
    }

    let report = SampledReport::from_intervals(intervals, warmup_total, total_retired);
    SampledRun { report, core: agg, mem, measured_mshr_integral: measured_integral, halted }
}

/// The one sampled driver: a single functional pass over the region of
/// interest ([`stream_checkpoints`] from a [`SparseMemory::shared_clone`]
/// of `base_mem`) serves `runs` sampled runs at once.
///
/// The checkpoints are gathered into batches of `batch` (at least 1; the
/// last may be shorter), and each batch goes to `measure(run, base,
/// checkpoints)` for every run still alive, in run order, then is dropped.
/// `measure` restores periods from `base` and returns the batch's
/// results, or the failure of its first failing period, after which that
/// run gets no further batch. The pass always runs to the end of the
/// region: a fast-forward fault anywhere in it, like an invalid
/// configuration, fails every run; otherwise each run reports its own
/// first failing period. Returns each run merged ([`merge_periods`]), in
/// run order.
pub fn drive_sampled<M>(
    prog: &Program,
    base_mem: &SparseMemory,
    hier_cfg: HierarchyConfig,
    scfg: &SampleConfig,
    runs: usize,
    batch: usize,
    mut measure: M,
) -> Vec<Result<SampledRun, SampleError>>
where
    M: FnMut(usize, &SparseMemory, &[PeriodCheckpoint]) -> Result<Vec<PeriodResult>, SampleError>,
{
    let base = base_mem.shared_clone();
    let batch = batch.max(1);
    let mut measured: Vec<Result<Vec<PeriodResult>, SampleError>> =
        (0..runs).map(|_| Ok(Vec::new())).collect();
    let mut flush = |checkpoints: &[PeriodCheckpoint]| {
        for (run, periods) in measured.iter_mut().enumerate() {
            if let Ok(done) = periods {
                match measure(run, &base, checkpoints) {
                    Ok(more) => done.extend(more),
                    Err(e) => *periods = Err(e),
                }
            }
        }
    };
    let mut pending = Vec::with_capacity(batch);
    let streamed = stream_checkpoints(prog, &base, hier_cfg, scfg, |ck| {
        pending.push(ck);
        if pending.len() == batch {
            flush(&pending);
            pending.clear();
        }
    });
    let (total_retired, halted) = match streamed {
        Ok(end) => end,
        Err(e) => return vec![Err(e); runs],
    };
    if !pending.is_empty() {
        flush(&pending);
    }
    measured.into_iter().map(|m| m.map(|p| merge_periods(p, total_retired, halted))).collect()
}

/// Runs `prog` sampled, per [`SampleConfig`]: [`drive_sampled`] with one
/// run and batches of one, measured by [`measure_period`] — the reference
/// semantics that thread- and process-parallel dispatchers must reproduce
/// byte-identically. Only the detailed (warmup + measured) windows pay
/// cycle-level cost, and only one checkpoint is alive at a time.
/// `make_engine` supplies a fresh runahead engine per period.
///
/// Everything is deterministic: same program, configs, and seed produce a
/// bit-identical [`SampledRun`] regardless of host, thread count, or
/// whether periods were measured in-process or by workers.
///
/// # Errors
///
/// [`SampleError::Config`] for inconsistent configurations; otherwise a
/// fast-forward fault anywhere in the region of interest, and failing
/// that the first period (by index) whose checkpoint or detailed interval
/// failed.
pub fn run_sampled<F>(
    prog: &Program,
    base_mem: &SparseMemory,
    core_cfg: CoreConfig,
    hier_cfg: HierarchyConfig,
    scfg: &SampleConfig,
    mut make_engine: F,
) -> Result<SampledRun, SampleError>
where
    F: FnMut() -> Box<dyn RunaheadEngine>,
{
    let mut runs = drive_sampled(prog, base_mem, hier_cfg, scfg, 1, 1, |_, base, checkpoints| {
        checkpoints
            .iter()
            .map(|ck| measure_period(prog, base, core_cfg, hier_cfg, scfg, ck, &mut make_engine))
            .collect()
    });
    runs.pop().expect("one run asked for, one served")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Asm, Instr, Reg};
    use sim_ooo::NullEngine;

    /// A strided-load loop long enough for several periods.
    fn strided_loop() -> (Program, SparseMemory) {
        let mut asm = Asm::new();
        let (base, i, n, t, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        asm.li(base, 0x10_000);
        asm.li(i, 0);
        asm.li(n, 100_000);
        let top = asm.here();
        asm.ld8_idx(t, base, i, 3);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        (asm.finish().unwrap(), SparseMemory::new())
    }

    fn scfg() -> SampleConfig {
        SampleConfig::default()
            .with_interval(5_000)
            .with_warmup(2_000)
            .with_period(25_000)
            .with_max_instructions(200_000)
    }

    #[test]
    fn sampled_run_measures_every_period() {
        let (prog, mem) = strided_loop();
        let run = run_sampled(
            &prog,
            &mem,
            CoreConfig::default(),
            HierarchyConfig::default(),
            &scfg(),
            || Box::new(NullEngine),
        )
        .unwrap();
        assert_eq!(run.report.interval_count(), 8);
        assert!(run.report.ipc_mean > 0.0);
        assert!(run.report.ipc_ci95.is_finite());
        assert_eq!(
            run.report.detailed_instructions
                + run.report.warmup_instructions
                + run.report.ffwd_instructions,
            run.report.total_retired
        );
        assert!(run.report.ffwd_instructions > run.report.detailed_instructions);
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let (prog, mem) = strided_loop();
        let go = || {
            run_sampled(
                &prog,
                &mem,
                CoreConfig::default(),
                HierarchyConfig::default(),
                &scfg(),
                || Box::new(NullEngine),
            )
            .unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.report, b.report);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.measured_mshr_integral, b.measured_mshr_integral);
    }

    #[test]
    fn emitted_checkpoints_roundtrip_and_match_the_sequential_run() {
        let (prog, mem) = strided_loop();
        let cfg = scfg();
        let emit = emit_checkpoints(&prog, &mem, HierarchyConfig::default(), &cfg).unwrap();
        assert_eq!(emit.checkpoints.len(), 8);

        // Measuring from byte-roundtripped checkpoints, in reverse order,
        // merges to the same run as the sequential driver.
        let mut periods: Vec<PeriodResult> = emit
            .checkpoints
            .iter()
            .rev()
            .map(|ck| {
                let bytes = ck.to_bytes();
                let back = PeriodCheckpoint::decode(HierarchyConfig::default(), &bytes)
                    .expect("checkpoint parses");
                assert_eq!(back.to_bytes(), bytes);
                measure_period(
                    &prog,
                    &mem,
                    CoreConfig::default(),
                    HierarchyConfig::default(),
                    &cfg,
                    &back,
                    || Box::new(NullEngine),
                )
                .unwrap()
            })
            .collect();
        periods.reverse();
        let merged = merge_periods(periods, emit.total_retired, emit.halted);

        let reference = run_sampled(
            &prog,
            &mem,
            CoreConfig::default(),
            HierarchyConfig::default(),
            &cfg,
            || Box::new(NullEngine),
        )
        .unwrap();
        assert_eq!(merged.report, reference.report);
        assert_eq!(merged.core.to_flat(), reference.core.to_flat());
        assert_eq!(merged.mem.to_flat(), reference.mem.to_flat());
        assert_eq!(merged.measured_mshr_integral, reference.measured_mshr_integral);
        assert_eq!(merged.halted, reference.halted);
    }

    #[test]
    fn random_placement_stays_within_periods() {
        let (prog, mem) = strided_loop();
        let cfg = scfg().with_placement(Placement::Random).with_seed(7);
        let run = run_sampled(
            &prog,
            &mem,
            CoreConfig::default(),
            HierarchyConfig::default(),
            &cfg,
            || Box::new(NullEngine),
        )
        .unwrap();
        assert!(run.report.interval_count() >= 7);
        for (k, s) in run.report.intervals.iter().enumerate() {
            assert!(s.start_retired >= k as u64 * cfg.period + cfg.warmup);
            assert!(s.start_retired < (k as u64 + 1) * cfg.period);
        }
    }

    #[test]
    fn short_program_halts_cleanly() {
        let mut asm = Asm::new();
        asm.li(Reg::R1, 10);
        let top = asm.here();
        asm.addi(Reg::R1, Reg::R1, -1);
        asm.bnz(Reg::R1, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        let run = run_sampled(
            &prog,
            &SparseMemory::new(),
            CoreConfig::default(),
            HierarchyConfig::default(),
            &SampleConfig::default()
                .with_interval(10)
                .with_warmup(0)
                .with_period(20)
                .with_max_instructions(1_000),
            || Box::new(NullEngine),
        )
        .unwrap();
        assert!(run.halted);
        assert!(run.report.total_retired < 1_000);
    }

    #[test]
    fn invalid_config_is_reported() {
        let (prog, mem) = strided_loop();
        let err = run_sampled(
            &prog,
            &mem,
            CoreConfig::default(),
            HierarchyConfig::default(),
            &SampleConfig::default().with_interval(0),
            || Box::new(NullEngine),
        )
        .unwrap_err();
        assert!(matches!(err, SampleError::Config(_)));
    }

    #[test]
    fn a_failed_period_fails_the_streamed_run() {
        // Every period fails its detailed warmup on the cycle budget; the
        // pass still runs to the end of the region, then reports it.
        let (prog, mem) = strided_loop();
        let starved = CoreConfig { max_cycles: 10, ..CoreConfig::default() };
        let err = run_sampled(&prog, &mem, starved, HierarchyConfig::default(), &scfg(), || {
            Box::new(NullEngine)
        })
        .unwrap_err();
        assert!(matches!(err, SampleError::Sim(SimError::CycleBudgetExceeded { .. })), "{err}");
    }

    /// A stand-in for a period's measurement that `merge_periods` accepts,
    /// so the driver's batching is tested without detailed simulation.
    fn stand_in(ck: &PeriodCheckpoint) -> PeriodResult {
        PeriodResult {
            index: ck.index,
            start_retired: ck.measure_at,
            warmup_committed: 0,
            mshr_integral: 0,
            measured: true,
            core: CoreStats { cycles: 2, committed: 1, ..CoreStats::default() },
            mem: MemStats::default(),
        }
    }

    #[test]
    fn the_driver_hands_every_run_each_batch_in_period_order() {
        let (prog, mem) = strided_loop();
        // Seven periods: batches of 3 end with one, batches of 4 with three.
        let (cfg, hier) = (scfg().with_max_instructions(175_000), HierarchyConfig::default());
        for batch in [1, 3, 4] {
            for runs in [1, 3] {
                let mut calls = Vec::new();
                let merged = drive_sampled(&prog, &mem, hier, &cfg, runs, batch, |run, _, cks| {
                    calls.push((run, cks.iter().map(|ck| ck.index).collect::<Vec<_>>()));
                    Ok(cks.iter().map(stand_in).collect())
                });
                let periods: Vec<u64> = (0..7).collect();
                let want: Vec<(usize, Vec<u64>)> = periods
                    .chunks(batch)
                    .flat_map(|b| (0..runs).map(move |run| (run, b.to_vec())))
                    .collect();
                assert_eq!(calls, want, "batch {batch}, runs {runs}");
                assert_eq!(merged.len(), runs);
                for run in merged {
                    let run = run.expect("every run merges");
                    assert_eq!(run.report.interval_count(), 7, "batch {batch}, runs {runs}");
                    assert_eq!(run.core.cycles, 14);
                }
            }
        }
    }

    #[test]
    fn a_failing_run_stops_alone() {
        let (prog, mem) = strided_loop();
        let (cfg, hier) = (scfg().with_max_instructions(175_000), HierarchyConfig::default());
        let mut calls = [0; 3];
        let merged = drive_sampled(&prog, &mem, hier, &cfg, 3, 3, |run, _, cks| {
            calls[run] += 1;
            if run == 1 && cks.iter().any(|ck| ck.index == 4) {
                return Err(SampleError::Worker("run 1 fails in period 4".to_string()));
            }
            Ok(cks.iter().map(stand_in).collect())
        });
        assert_eq!(calls, [3, 2, 3], "run 1 gets no batch after its failing one");
        assert!(matches!(&merged[1], Err(SampleError::Worker(m)) if m.contains("period 4")));
        for run in [0, 2] {
            let ok = merged[run].as_ref().expect("the other runs finish");
            assert_eq!(ok.report.interval_count(), 7);
        }
    }

    #[test]
    fn a_fast_forward_fault_fails_every_run() {
        // 60 k instructions, then a wild jump: two or three periods are
        // handed out before the fault.
        let mut asm = Asm::new();
        asm.li(Reg::R2, 0);
        asm.li(Reg::R3, 20_000);
        let top = asm.here();
        asm.addi(Reg::R2, Reg::R2, 1);
        asm.slt(Reg::R4, Reg::R2, Reg::R3);
        asm.bnz(Reg::R4, top);
        asm.emit(Instr::Jump { target: 1 << 20 });
        let prog = asm.finish().unwrap();
        let (mem, hier) = (SparseMemory::new(), HierarchyConfig::default());
        let mut measured = 0;
        let merged = drive_sampled(&prog, &mem, hier, &scfg(), 2, 1, |_, _, cks| {
            measured += cks.len();
            Ok(cks.iter().map(stand_in).collect())
        });
        assert!(measured >= 4, "both runs measured the periods before the fault");
        assert_eq!(merged.len(), 2);
        for run in &merged {
            assert!(
                matches!(run, Err(SampleError::Exec(ExecError::PcOutOfRange { .. }))),
                "{run:?}"
            );
        }

        let bad = SampleConfig::default().with_interval(0);
        let merged = drive_sampled(&prog, &mem, hier, &bad, 2, 1, |_, _, _| {
            unreachable!("an invalid configuration emits no checkpoint")
        });
        assert!(merged.iter().all(|run| matches!(run, Err(SampleError::Config(_)))));
    }

    #[test]
    fn corrupt_checkpoint_reports_a_checkpoint_error() {
        let (prog, mem) = strided_loop();
        let cfg = scfg();
        let emit = emit_checkpoints(&prog, &mem, HierarchyConfig::default(), &cfg).unwrap();
        let mut ck = emit.checkpoints[0].clone();
        ck.warm_bp.truncate(4);
        let err = measure_period(
            &prog,
            &mem,
            CoreConfig::default(),
            HierarchyConfig::default(),
            &cfg,
            &ck,
            || Box::new(NullEngine),
        )
        .unwrap_err();
        assert!(matches!(err, SampleError::Checkpoint(_)));
    }
}
