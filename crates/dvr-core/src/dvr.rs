//! The Decoupled Vector Runahead engine (paper Section 4).
//!
//! DVR's lifecycle, all driven from the main thread's dispatch stream:
//!
//! 1. **Idle** — train the stride detector on demand loads.
//! 2. **Discovery Mode** — on a confident stride, follow one loop iteration
//!    (taint tracking, FLR, loop-bound inference; Section 4.1).
//! 3. **Spawn** — when the striding load dispatches again, seed up to 128
//!    scalar-equivalent lanes and run the in-order, SIMT subthread
//!    decoupled from the main pipeline (Section 4.2). The subthread's
//!    gathers contend for the same MSHRs and DRAM bandwidth as the main
//!    thread; its issue rate models spare-slot stealing.
//! 4. **Nested Vector Runahead** — when the inferred bound is too small to
//!    saturate the memory system, skip the inner loop, vectorize the outer
//!    striding load by 16, and gather up to 128 inner-loop iterations from
//!    multiple future invocations (Section 4.3).
//!
//! Unlike VR, nothing here waits for a full-ROB stall, and the main thread
//! keeps committing while the subthread prefetches — the two properties the
//! paper's Figure 8 attributes most of the speedup to.

use sim_isa::{exec_lane, FxHashMap, Instr, NUM_REGS};
use sim_mem::{AccessClass, PrefetchSource};
use sim_ooo::{DynInst, EngineCtx, RunaheadEngine};

use crate::detector::StrideDetector;
use crate::discovery::{BoundSrc, DiscoveredChain, Discovery, DiscoveryEvent, ShadowRegs};
use crate::trace::{DvrTrace, TraceEvent};
use crate::walker::{
    fixup_address_regs, stride_seeds, stride_seeds_from, walk_vectorized, LaneSeed, Termination,
    WalkPolicy, MAX_LANES, RUNAHEAD_TIMEOUT, VECTOR_WIDTH,
};

/// Inferred loop bound (in lanes) below which Nested Vector Runahead
/// engages (paper: 64).
const NESTED_THRESHOLD: usize = 64;

/// DVR configuration: the ablation knobs of Figure 8 and the lane count.
/// The subthread's issue rate and timeout are [`WalkPolicy::dvr`]'s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DvrConfig {
    /// Run Discovery Mode (loop bounds, FLR). `false` = the "Offload"
    /// ablation: vectorize 128 lanes blindly on every confident stride.
    pub discovery: bool,
    /// Enable Nested Vector Runahead for short inner loops.
    pub nested: bool,
    /// Maximum scalar-equivalent lanes per invocation (paper: 128).
    pub max_lanes: usize,
}

impl Default for DvrConfig {
    fn default() -> Self {
        DvrConfig { discovery: true, nested: true, max_lanes: MAX_LANES }
    }
}

impl DvrConfig {
    /// The "Offload" ablation of Figure 8: subthread on every stride, no
    /// Discovery Mode, no NDM.
    pub fn offload_only() -> Self {
        DvrConfig { discovery: false, nested: false, ..DvrConfig::default() }
    }
}

/// Counters exposed for the harness and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct DvrStats {
    /// Subthread invocations.
    pub episodes: u64,
    /// Invocations that used Nested Vector Runahead.
    pub ndm_episodes: u64,
    /// Total lanes spawned.
    pub lanes_spawned: u64,
    /// Scalar-equivalent lane loads issued.
    pub lane_loads: u64,
    /// Episodes in which lanes diverged.
    pub diverged_episodes: u64,
    /// Discovery passes that gave up.
    pub discovery_aborts: u64,
    /// Discovery passes that found no dependent load (no spawn).
    pub no_dependent_chain: u64,
    /// Discovery passes that switched to a more-inner stride.
    pub innermost_switches: u64,
    /// Spawns skipped because the lanes were already covered by an earlier
    /// episode of the same striding load.
    pub covered_skips: u64,
}

#[derive(Clone, Debug)]
enum Phase {
    Idle,
    Discovering(Box<Discovery>),
}

/// The DVR runahead engine. Attach to [`sim_ooo::OooCore::run`].
#[derive(Clone, Debug)]
pub struct DvrEngine {
    cfg: DvrConfig,
    detector: StrideDetector,
    shadow: ShadowRegs,
    phase: Phase,
    busy_until: u64,
    /// Per-striding-load prefetch frontier: the next *iteration index
    /// offset* is derived from this next-uncovered address, so back-to-back
    /// episodes extend coverage instead of re-prefetching it.
    covered: FxHashMap<usize, u64>,
    stats: DvrStats,
    /// Event buffer for the static-vs-dynamic audit; `None` (the default)
    /// emits nothing. Tracing is an observer: no event computation feeds a
    /// timing decision, so reports are identical with or without it.
    trace: Option<Box<DvrTrace>>,
}

impl Default for DvrEngine {
    fn default() -> Self {
        DvrEngine::new(DvrConfig::default())
    }
}

impl DvrEngine {
    /// Creates a DVR engine.
    pub fn new(cfg: DvrConfig) -> Self {
        DvrEngine {
            cfg,
            detector: StrideDetector::new(32),
            shadow: ShadowRegs::new(),
            phase: Phase::Idle,
            busy_until: 0,
            covered: FxHashMap::default(),
            stats: DvrStats::default(),
            trace: None,
        }
    }

    /// Starts recording Discovery/spawn events into an audit trace.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Box::default());
    }

    /// Takes the recorded trace, leaving tracing enabled with an empty
    /// buffer. `None` if tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<DvrTrace> {
        self.trace.as_mut().map(|t| std::mem::take(&mut **t))
    }

    fn emit(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.events.push(ev());
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &DvrStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> DvrConfig {
        self.cfg
    }

    /// First future-iteration offset not yet covered by a prior episode of
    /// this striding load (1 = the next iteration).
    fn first_uncovered(&self, stride_pc: usize, trigger_addr: u64, stride: i64) -> u64 {
        let Some(&cov) = self.covered.get(&stride_pc) else { return 1 };
        let delta = cov.wrapping_sub(trigger_addr) as i64;
        if stride == 0 || delta % stride != 0 {
            return 1;
        }
        let iters = delta / stride;
        // Stale or regressed coverage (new loop invocation, re-scan):
        // restart from the next iteration.
        if iters <= 0 || iters > 4 * self.cfg.max_lanes as i64 {
            1
        } else {
            iters as u64
        }
    }

    fn spawn(&mut self, ctx: &mut EngineCtx<'_>, trigger_addr: u64, chain: &DiscoveredChain) {
        let lanes = chain.lanes.min(self.cfg.max_lanes);
        let use_ndm = self.cfg.nested
            && chain.bound_known
            && lanes < NESTED_THRESHOLD
            && chain.cmp.is_some()
            && chain.loop_branch_pc.is_some();

        let end = if use_ndm {
            self.stats.ndm_episodes += 1;
            self.emit(|| TraceEvent::Spawn { pc: chain.stride_pc, lanes, nested: true });
            self.nested_spawn(ctx, trigger_addr, chain)
        } else {
            if lanes == 0 {
                return;
            }
            // Extend the prefetch frontier instead of re-covering it.
            let first = self.first_uncovered(chain.stride_pc, trigger_addr, chain.stride);
            if first > lanes as u64 {
                self.stats.covered_skips += 1;
                self.emit(|| TraceEvent::CoveredSkip { pc: chain.stride_pc });
                return;
            }
            self.emit(|| TraceEvent::Spawn { pc: chain.stride_pc, lanes, nested: false });
            let count = lanes - (first as usize - 1);
            let mut regs = self.shadow.regs();
            if let Some(instr) = ctx.prog.fetch(chain.stride_pc) {
                fixup_address_regs(instr, &mut regs, trigger_addr);
            }
            let seeds = stride_seeds_from(regs, trigger_addr, chain.stride, first, count);
            self.covered.insert(
                chain.stride_pc,
                trigger_addr.wrapping_add(
                    (chain.stride.wrapping_mul((first + count as u64) as i64)) as u64,
                ),
            );
            let out = walk_vectorized(
                ctx.prog,
                ctx.mem,
                ctx.hier,
                ctx.cycle,
                &seeds,
                Termination { flr_pc: chain.flr_pc, stride_pc: chain.stride_pc },
                &WalkPolicy::dvr(),
            );
            self.stats.lanes_spawned += seeds.len() as u64;
            self.stats.lane_loads += out.lane_loads;
            if out.diverged {
                self.stats.diverged_episodes += 1;
            }
            // The subthread is free once it has *generated* its prefetches.
            out.issue_done
        };
        self.stats.episodes += 1;
        self.busy_until = end;
    }

    /// Nested Vector Runahead (Section 4.3): find future invocations of the
    /// inner loop by skipping it, vectorizing the outer striding load, and
    /// collecting inner-iteration seeds from many outer iterations.
    fn nested_spawn(
        &mut self,
        ctx: &mut EngineCtx<'_>,
        trigger_addr: u64,
        chain: &DiscoveredChain,
    ) -> u64 {
        let prog = ctx.prog;
        let mem = ctx.mem;
        let inner_pc = chain.stride_pc;
        // Callers only hand over bound-known chains, but a malformed chain
        // must degrade to "no spawn", not bring down a whole sweep.
        let (Some(loop_b), Some(cmp)) = (chain.loop_branch_pc, chain.cmp) else {
            return ctx.cycle;
        };
        let mut t = ctx.cycle;
        // The scalar walk's secret-taint mask, reported with every step
        // while the hierarchy observes (see `walk_vectorized`).
        let observing = ctx.hier.observing();
        let mut st: u16 = 0;

        // --- NDM phase 1: scalar walk with the loop branch forced
        // not-taken, looking for an outer striding load (pc < inner). ----
        let mut regs = self.shadow.regs();
        if let Some(instr) = prog.fetch(inner_pc) {
            fixup_address_regs(instr, &mut regs, trigger_addr);
        }
        let mut pc = inner_pc;
        let mut outer: Option<(usize, u64, i64)> = None;
        for step in 0..RUNAHEAD_TIMEOUT {
            let Some(instr) = prog.fetch(pc) else { break };
            if matches!(instr, Instr::Halt) {
                break;
            }
            if let Instr::Load { addr, .. } = instr {
                if pc < inner_pc {
                    if let Some(e) = self.detector.lookup(pc) {
                        if e.is_confident() {
                            let a = addr.effective(|r| regs[r.index()]);
                            outer = Some((pc, a, e.stride));
                            t += (step as u64) / 2;
                            break;
                        }
                    }
                }
            }
            if pc == loop_b && instr.is_cond_branch() {
                pc += 1; // altered branch direction: skip the inner loop
                continue;
            }
            let eff = exec_lane(prog, pc, &mut regs, mem);
            if let Some((a, _)) = eff.load {
                let acc = ctx.hier.load(t, a, AccessClass::Prefetch(PrefetchSource::Dvr));
                self.stats.lane_loads += 1;
                // Scalar chain: the subthread waits for its own loads.
                t = t.max(acc.complete_at);
            }
            if observing {
                ctx.hier.observe_lane_step(prog, pc, instr, &mut st, eff.load, PrefetchSource::Dvr);
            }
            if eff.halted {
                break;
            }
            pc = eff.next_pc;
        }

        let Some((outer_pc, outer_addr, outer_stride)) = outer else {
            // No outer stride within the budget: resort to the discovered
            // inner bound (paper Section 4.3.1, last paragraph).
            let lanes = chain.lanes.min(self.cfg.max_lanes);
            if lanes == 0 {
                return t;
            }
            let mut regs = self.shadow.regs();
            if let Some(instr) = prog.fetch(inner_pc) {
                fixup_address_regs(instr, &mut regs, trigger_addr);
            }
            let seeds = stride_seeds(regs, trigger_addr, chain.stride, lanes);
            let out = walk_vectorized(
                prog,
                mem,
                ctx.hier,
                t,
                &seeds,
                Termination { flr_pc: chain.flr_pc, stride_pc: inner_pc },
                &WalkPolicy::dvr(),
            );
            self.stats.lanes_spawned += seeds.len() as u64;
            self.stats.lane_loads += out.lane_loads;
            return out.issue_done;
        };

        // --- NDM phase 2: vectorize the outer striding load by 16 and run
        // each outer lane's dependents down to the inner striding load. ---
        let Some(outer_instr) = prog.fetch(outer_pc).copied() else {
            return t;
        };
        let Instr::Load { rd: outer_rd, width: outer_w, .. } = outer_instr else {
            return t;
        };
        const OUTER_LANES: usize = 16;

        // Issue the outer gather.
        let mut outer_done = t + (OUTER_LANES / VECTOR_WIDTH) as u64;
        let mut outer_ctxs: Vec<([u64; NUM_REGS], u16)> = Vec::with_capacity(OUTER_LANES);
        for j in 0..OUTER_LANES {
            let addr_j = outer_addr.wrapping_add((outer_stride.wrapping_mul(j as i64)) as u64);
            let acc = ctx.hier.load(t, addr_j, AccessClass::Prefetch(PrefetchSource::Dvr));
            outer_done = outer_done.max(acc.complete_at);
            self.stats.lane_loads += 1;
            // A fresh mask: the outer lane inherits the scalar walk's taint
            // plus whatever its own gathered element adds.
            let mut lt = 0;
            if observing {
                let load = Some((addr_j, outer_w.bytes()));
                let src = PrefetchSource::Dvr;
                ctx.hier.observe_lane_step(prog, outer_pc, &outer_instr, &mut lt, load, src);
            }
            let mut lr = regs;
            lr[outer_rd.index()] = mem.read(addr_j, outer_w.bytes());
            fixup_address_regs(&outer_instr, &mut lr, addr_j);
            outer_ctxs.push((lr, st | lt));
        }
        t = outer_done;

        // Walk each outer lane to the inner striding load, collecting
        // inner-loop iteration seeds.
        let mut inner_seeds: Vec<LaneSeed> = Vec::new();
        let mut dep_done = t;
        for (mut lr, mut lt) in outer_ctxs {
            let mut pc = outer_pc + 1;
            let mut reached = false;
            for _ in 0..RUNAHEAD_TIMEOUT {
                if pc == inner_pc {
                    reached = true;
                    break;
                }
                let Some(instr) = prog.fetch(pc) else { break };
                if matches!(instr, Instr::Halt) {
                    break;
                }
                let eff = exec_lane(prog, pc, &mut lr, mem);
                if let Some((a, _)) = eff.load {
                    let acc = ctx.hier.load(t, a, AccessClass::Prefetch(PrefetchSource::Dvr));
                    dep_done = dep_done.max(acc.complete_at);
                    self.stats.lane_loads += 1;
                }
                if observing {
                    let src = PrefetchSource::Dvr;
                    ctx.hier.observe_lane_step(prog, pc, instr, &mut lt, eff.load, src);
                }
                if eff.halted {
                    break;
                }
                pc = eff.next_pc;
            }
            if !reached || inner_seeds.len() >= self.cfg.max_lanes {
                continue;
            }
            // Per-invocation inner trip count from the LCR-derived compare.
            let bound_val = match cmp.bound {
                BoundSrc::Reg(r) => lr[r.index()],
                BoundSrc::Imm(i) => i as u64,
            };
            let count = cmp.remaining(lr[cmp.ind_reg.index()], bound_val).min(MAX_LANES as u64);
            let Some(Instr::Load { addr, .. }) = prog.fetch(inner_pc) else { continue };
            let addr0 = addr.effective(|r| lr[r.index()]);
            for k in 0..count {
                if inner_seeds.len() >= self.cfg.max_lanes {
                    break;
                }
                let mut sr = lr;
                sr[cmp.ind_reg.index()] = sr[cmp.ind_reg.index()]
                    .wrapping_add((cmp.increment.wrapping_mul(k as i64)) as u64);
                inner_seeds.push(LaneSeed {
                    regs: sr,
                    stride_addr: addr0.wrapping_add((chain.stride.wrapping_mul(k as i64)) as u64),
                });
            }
        }
        t = t.max(dep_done);

        // --- NDM phase 3: full vectorized runahead over the collected
        // inner iterations. --------------------------------------------
        if inner_seeds.is_empty() {
            return t;
        }
        self.stats.lanes_spawned += inner_seeds.len() as u64;
        let out = walk_vectorized(
            prog,
            mem,
            ctx.hier,
            t,
            &inner_seeds,
            Termination { flr_pc: chain.flr_pc, stride_pc: inner_pc },
            &WalkPolicy::dvr(),
        );
        self.stats.lane_loads += out.lane_loads;
        if out.diverged {
            self.stats.diverged_episodes += 1;
        }
        out.issue_done
    }
}

impl RunaheadEngine for DvrEngine {
    fn name(&self) -> &'static str {
        "dvr"
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCtx<'_>, di: &DynInst) {
        self.shadow.update(di);
        let confident = match (di.is_load(), di.mem) {
            (true, Some(m)) => self.detector.observe(di.pc, m.addr),
            _ => false,
        };

        // The subthread is busy: keep training but do not re-trigger
        // (Section 4.2.4 — the main thread becomes eligible again after
        // termination).
        if ctx.cycle < self.busy_until {
            return;
        }

        match &mut self.phase {
            Phase::Idle => {
                if confident {
                    // A confident trigger always comes from an observed load
                    // with a destination; if any of that is missing the
                    // trigger degrades to "no spawn" rather than crashing a
                    // whole sweep.
                    let Some(m) = di.mem else { return };
                    let Some(stride) = self.detector.lookup(di.pc).map(|e| e.stride) else {
                        return;
                    };
                    if self.cfg.discovery {
                        let Some(dst) = di.instr.dst() else { return };
                        self.phase = Phase::Discovering(Box::new(Discovery::begin(
                            di.pc,
                            stride,
                            dst,
                            &self.shadow,
                        )));
                        self.emit(|| TraceEvent::DiscoveryBegin { pc: di.pc, stride });
                    } else {
                        // Offload ablation: vectorize immediately, blindly.
                        let chain = DiscoveredChain {
                            stride_pc: di.pc,
                            stride,
                            has_dependent_load: true,
                            flr_pc: None,
                            lanes: self.cfg.max_lanes,
                            bound_known: false,
                            loop_branch_pc: None,
                            cmp: None,
                        };
                        self.spawn(ctx, m.addr, &chain);
                    }
                }
            }
            Phase::Discovering(d) => {
                let from_pc = d.trigger_pc();
                match d.observe(di, &self.detector, &self.shadow) {
                    DiscoveryEvent::Continue => {}
                    DiscoveryEvent::Switched => {
                        self.stats.innermost_switches += 1;
                        let to_pc = d.trigger_pc();
                        if let Some(t) = self.trace.as_mut() {
                            t.events.push(TraceEvent::DiscoverySwitch { from_pc, to_pc });
                        }
                    }
                    DiscoveryEvent::Aborted => {
                        self.stats.discovery_aborts += 1;
                        self.phase = Phase::Idle;
                        self.emit(|| TraceEvent::DiscoveryAbort { pc: from_pc });
                    }
                    DiscoveryEvent::Finished(chain) => {
                        let dep_loads = d.take_dep_loads();
                        self.phase = Phase::Idle;
                        if chain.has_dependent_load {
                            self.emit(|| TraceEvent::DiscoveryEnd {
                                pc: chain.stride_pc,
                                stride: chain.stride,
                                flr_pc: chain.flr_pc,
                                lanes: chain.lanes,
                                bound_known: chain.bound_known,
                                dep_loads,
                            });
                            // Finish fires on the stride load; without its
                            // access there is nothing to seed lanes from, so
                            // skip.
                            let Some(m) = di.mem else { return };
                            self.spawn(ctx, m.addr, &chain);
                            // Mark in the detector for diagnostics.
                            self.detector.set_innermost(chain.stride_pc, true);
                        } else {
                            self.stats.no_dependent_chain += 1;
                            self.emit(|| TraceEvent::NoDependentChain { pc: chain.stride_pc });
                        }
                    }
                }
            }
        }
    }
}
