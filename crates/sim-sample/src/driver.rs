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
//! what order the periods ran. [`run_sampled`] composes the three steps
//! serially, measuring each period as it is emitted, and is the reference
//! against which every parallel dispatch is checked.
//!
//! Memory images are copy-on-write ([`SparseMemory::share`]): the live
//! image forks from a shared copy of the workload image, a checkpoint
//! shares the pages written in its own period, and a period restores from
//! the shared base without copying it.

use std::error::Error;
use std::fmt;

use sim_isa::{Cpu, ExecError, Program, SparseMemory};
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
#[derive(Debug)]
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
/// [`merge_periods`] needs, in a form that survives a JSON round-trip
/// through a worker process bit-exactly (no floats cross the wire;
/// derived rates are recomputed at merge time).
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

fn accumulate(into: &mut CoreStats, s: &CoreStats) {
    into.cycles += s.cycles;
    into.committed += s.committed;
    into.rob_full_stall_cycles += s.rob_full_stall_cycles;
    into.full_rob_stall_events += s.full_rob_stall_events;
    into.commit_blocked_engine_cycles += s.commit_blocked_engine_cycles;
    into.cond_branches += s.cond_branches;
    into.branch_mispredicts += s.branch_mispredicts;
    into.loads += s.loads;
    into.stores += s.stores;
    into.store_forwards += s.store_forwards;
}

/// Field-wise `after - before` of two cumulative-counter snapshots (a
/// measured segment inside one core's run).
fn delta(after: &CoreStats, before: &CoreStats) -> CoreStats {
    CoreStats {
        cycles: after.cycles - before.cycles,
        committed: after.committed - before.committed,
        rob_full_stall_cycles: after.rob_full_stall_cycles - before.rob_full_stall_cycles,
        full_rob_stall_events: after.full_rob_stall_events - before.full_rob_stall_events,
        commit_blocked_engine_cycles: after.commit_blocked_engine_cycles
            - before.commit_blocked_engine_cycles,
        cond_branches: after.cond_branches - before.cond_branches,
        branch_mispredicts: after.branch_mispredicts - before.branch_mispredicts,
        loads: after.loads - before.loads,
        stores: after.stores - before.stores,
        store_forwards: after.store_forwards - before.store_forwards,
    }
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
    let base = shared_copy(base_mem);
    let mut checkpoints = Vec::new();
    let (total_retired, halted) =
        stream_checkpoints(prog, &base, hier_cfg, scfg, |ck| checkpoints.push(ck))?;
    Ok(EmitResult { checkpoints, total_retired, halted })
}

/// A copy of `mem` whose pages are all shared, for use as the base image
/// of [`stream_checkpoints`] and [`measure_period`]: forking from it and
/// restoring from it then copy no page.
pub fn shared_copy(mem: &SparseMemory) -> SparseMemory {
    let mut base = mem.clone();
    base.share();
    base
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
/// against it. With a shared `base` ([`shared_copy`]) the fork copies no
/// page and each checkpoint copies only the pages written in its own
/// period; any other `base` gives the same checkpoints, at the cost of
/// copying.
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
        mem.share();
        on_checkpoint(PeriodCheckpoint {
            index: k,
            measure_at,
            cpu: cpu.checkpoint(),
            mem: mem.checkpoint_delta(base),
            warm_mem: hier.warm_state_bytes(),
            warm_bp: bp.state_bytes(),
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
/// applied; with a shared base, see [`shared_copy`], no page is copied
/// until the period writes it), warm hierarchy, and warm predictor
/// from `ck`, runs the discarded detailed warmup and then the measured
/// interval on one detailed core (via resumable segments, so measurement
/// starts from the warm pipeline the warmup filled), and returns the
/// integer-only [`PeriodResult`]. `make_engine` supplies this period's
/// fresh runahead engine — engine state (including DVR's runahead
/// subthread) dies with the period, which is how the engine "quiesces
/// cleanly" at interval boundaries.
///
/// # Errors
///
/// [`SampleError::Checkpoint`] if a warm-state image fails validation,
/// otherwise the first detailed-interval failure.
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
    let mut hier = MemoryHierarchy::from_warm_state(hier_cfg, &ck.warm_mem).map_err(|e| {
        SampleError::Checkpoint(format!("period {}: invalid warm hierarchy image: {e}", ck.index))
    })?;
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
        res.core = delta(core.stats(), &warm_snap);
        res.mshr_integral = hier.mshr_busy_integral(core.stats().cycles) - integral_before;
        res.measured = true;
    }
    hier.quiesce();
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
            accumulate(&mut agg, &p.core);
            measured_integral += p.mshr_integral;
        }
    }

    let report = SampledReport::from_intervals(intervals, warmup_total, total_retired);
    SampledRun { report, core: agg, mem, measured_mshr_integral: measured_integral, halted }
}

/// Runs `prog` sampled: emits every period checkpoint in one functional
/// pass, measures each period from its checkpoint as soon as it is
/// emitted, and merges the results, per [`SampleConfig`].
///
/// This is the sequential composition of [`stream_checkpoints`],
/// [`measure_period`], and [`merge_periods`] — the reference semantics
/// that thread- and process-parallel dispatchers must reproduce
/// byte-identically. Only the fraction inside detailed (warmup +
/// measured) windows pays cycle-level cost, and only one checkpoint is
/// alive at a time. `make_engine` supplies a fresh runahead engine per
/// period.
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
    let base = shared_copy(base_mem);
    let mut measured = Ok(Vec::new());
    let (total_retired, halted) = stream_checkpoints(prog, &base, hier_cfg, scfg, |ck| {
        // After a failure the pass still runs to the end of the region, so
        // that a later fast-forward fault takes precedence.
        if let Ok(periods) = &mut measured {
            match measure_period(prog, &base, core_cfg, hier_cfg, scfg, &ck, &mut make_engine) {
                Ok(p) => periods.push(p),
                Err(e) => measured = Err(e),
            }
        }
    })?;
    Ok(merge_periods(measured?, total_retired, halted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Asm, Reg};
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
                let back = PeriodCheckpoint::decode(&bytes).expect("checkpoint parses");
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
