//! The cycle-level out-of-order core timing model.
//!
//! Execution-driven, execute-at-fetch: the functional [`Cpu`] runs the
//! architecturally correct path at the fetch frontier; the timing model
//! tracks register dependencies, structural hazards (ROB/IQ/LSQ capacity,
//! functional units, L1 ports), memory latencies through the shared
//! [`MemoryHierarchy`], and branch-misprediction redirects (fetch stalls
//! from resolution plus the 15-cycle front-end refill).
//!
//! Pipeline state is indexed by ring slot, `seq & ring_mask`: one ring
//! holds the ROB and, behind it, the fetch queue, and the issue window and
//! the ready set are one bit per slot, so each per-instruction step is a
//! constant number of word operations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use sim_isa::{AluOp, Cpu, FxHashMap, Instr, MemAccess, Program, SparseMemory, NUM_REGS};
use sim_mem::{
    AccessClass, HitLevel, ImpConfig, ImpPrefetcher, MemoryHierarchy, PrefetchSource,
    StridePrefetcher, NEVER_COMPLETES,
};

use crate::branch::TagePredictor;
use crate::config::CoreConfig;
use crate::engine::{ArchSnapshot, EngineCtx, RunaheadEngine};
use crate::error::{DeadlockSnapshot, SimError};
use crate::sanitize::SanitizeReport;
use crate::stats::{CoreStats, WorkCounters};

/// A dynamic (fetched) instruction, carrying both functional outcomes and
/// timing state.
#[derive(Clone, Copy, Debug)]
pub struct DynInst {
    /// Global sequence number (program order).
    pub seq: u64,
    /// Static PC.
    pub pc: usize,
    /// The instruction.
    pub instr: Instr,
    /// Memory access performed (loads/stores).
    pub mem: Option<MemAccess>,
    /// Branch outcome for conditional branches.
    pub branch_taken: Option<bool>,
    /// Operand values, aligned with [`Instr::srcs`] order.
    pub src_values: [u64; 3],
    /// Value written to the destination register, if any.
    pub dst_value: Option<u64>,
    /// Whether the direction predictor mispredicted this branch.
    pub mispredicted: bool,
    /// Producers this entry waits for: the in-flight writers of its source
    /// operands, in [`Instr::srcs`] order, then (for a load) the youngest
    /// older in-flight store to the same address at [`MEM_DEP`].
    deps: [Option<u64>; 4],
    /// Functional-unit class, computed once at fetch.
    class: FuClass,
    /// Issued to execution.
    issued: bool,
    /// Completion cycle (`u64::MAX` until issued).
    complete_at: u64,
    /// Producers in `deps` that have not issued yet.
    pending: u32,
    /// Earliest cycle this entry may issue: the cycle after dispatch, or
    /// the latest completion among its issued producers.
    ready_at: u64,
}

/// Index in [`DynInst::deps`] of a load's store producer.
const MEM_DEP: usize = 3;

impl DynInst {
    /// What a ring slot holds before fetch first writes it.
    const VACANT: DynInst = DynInst {
        seq: 0,
        pc: 0,
        instr: Instr::Nop,
        mem: None,
        branch_taken: None,
        src_values: [0; 3],
        dst_value: None,
        mispredicted: false,
        deps: [None; 4],
        class: FuClass::Alu,
        issued: false,
        complete_at: u64::MAX,
        pending: 0,
        ready_at: u64::MAX,
    };

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.instr.is_load()
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        self.instr.is_store()
    }

    /// Completion cycle (meaningful once issued).
    pub fn complete_at(&self) -> u64 {
        self.complete_at
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FuClass {
    Alu,
    Mul,
    Div,
    Load,
    Store,
}

fn fu_class(instr: &Instr) -> FuClass {
    match instr {
        Instr::Load { .. } => FuClass::Load,
        Instr::Store { .. } => FuClass::Store,
        Instr::Alu { op, .. } | Instr::AluImm { op, .. } => match op {
            AluOp::Mul => FuClass::Mul,
            AluOp::Div | AluOp::Rem => FuClass::Div,
            _ => FuClass::Alu,
        },
        _ => FuClass::Alu,
    }
}

fn exec_latency(instr: &Instr) -> u64 {
    match instr {
        Instr::Alu { op, .. } | Instr::AluImm { op, .. } => op.latency() as u64,
        _ => 1,
    }
}

/// One bit per ring slot, addressed by sequence number. The ring has a
/// whole number of 64-slot words, so a word never straddles the wrap.
#[derive(Clone, Debug)]
struct SlotBits {
    words: Vec<u64>,
    mask: u64,
}

impl SlotBits {
    fn new(slots: usize) -> Self {
        SlotBits { words: vec![0; slots / 64], mask: slots as u64 - 1 }
    }

    fn set(&mut self, seq: u64) {
        let s = seq & self.mask;
        self.words[(s >> 6) as usize] |= 1 << (s & 63);
    }

    fn clear(&mut self, seq: u64) {
        let s = seq & self.mask;
        self.words[(s >> 6) as usize] &= !(1 << (s & 63));
    }

    fn get(&self, seq: u64) -> bool {
        let s = seq & self.mask;
        self.words[(s >> 6) as usize] >> (s & 63) & 1 != 0
    }

    /// The oldest sequence number in `[from, to)` whose bit is set.
    fn first(&self, from: u64, to: u64) -> Option<u64> {
        let mut seq = from;
        while seq < to {
            let s = seq & self.mask;
            let word = self.words[(s >> 6) as usize] >> (s & 63);
            if word != 0 {
                let hit = seq + u64::from(word.trailing_zeros());
                return (hit < to).then_some(hit);
            }
            seq += 64 - (s & 63);
        }
        None
    }
}

/// Live bookkeeping for an in-progress stepwise run: the state
/// [`OooCore::run`] used to keep on its own stack (instruction target,
/// watchdog reference cycle), externalized so a discrete-event scheduler
/// can interleave cores step by step.
/// Obtain one from [`OooCore::begin_run`]; feed it to every
/// [`OooCore::step_cycle`] call for that run.
#[derive(Debug)]
pub struct StepSession {
    /// Stop once `stats.committed` reaches this absolute count.
    target: u64,
    /// Cycle of the most recent commit, for the forward-progress watchdog.
    last_commit_cycle: u64,
}

/// Outcome of one [`OooCore::step_cycle`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// The core wants another step, at cycle [`OooCore::cycle`] + 1 (the
    /// step may have jumped over idle cycles to get there).
    Running,
    /// The instruction target was reached or the program halted and the
    /// pipeline drained; stop stepping this session.
    Done,
}

/// The out-of-order core.
///
/// Drive it with [`OooCore::run`], which simulates until the program halts
/// or an instruction budget is reached.
///
/// # Example
///
/// ```
/// use sim_isa::{Asm, Reg, SparseMemory};
/// use sim_mem::{HierarchyConfig, MemoryHierarchy};
/// use sim_ooo::{CoreConfig, NullEngine, OooCore};
///
/// let mut asm = Asm::new();
/// asm.li(Reg::R1, 4);
/// let top = asm.here();
/// asm.addi(Reg::R1, Reg::R1, -1);
/// asm.bnz(Reg::R1, top);
/// asm.halt();
/// let prog = asm.finish()?;
///
/// let mut core = OooCore::new(CoreConfig::default());
/// let mut mem = SparseMemory::new();
/// let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
/// let stats = core.run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000_000)?;
/// assert_eq!(stats.committed, 10); // li + 4x(addi+bnz) + halt
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    cpu: Cpu,
    bp: TagePredictor,
    stride_pf: StridePrefetcher,
    imp: Option<ImpPrefetcher>,

    cycle: u64,
    /// The oldest ROB entry. The ROB is `[head_seq, dispatch_seq)` and the
    /// fetch queue `[dispatch_seq, seq_next)`.
    head_seq: u64,
    /// The oldest fetched entry not yet dispatched.
    dispatch_seq: u64,
    /// The next sequence number fetch hands out.
    seq_next: u64,
    /// The ROB and the fetch queue, entry `seq` at slot `seq & ring_mask`.
    /// The ring holds at least `rob_size + fetch_queue` slots, so live
    /// entries never share one.
    ring: Vec<DynInst>,
    ring_mask: u64,
    /// Unissued ROB entries.
    unissued: SlotBits,
    /// How many bits `unissued` has set.
    unissued_count: usize,
    /// The `iq_size`-th unissued entry, counting the oldest as the 0th:
    /// the first one outside the issue window (`u64::MAX` when all fit).
    window_end: u64,
    /// Unissued entries whose producers have all completed.
    ready: SlotBits,
    /// Entries whose producers have all issued and which become ready next
    /// cycle: the next issue stage drains them.
    wake_next: Vec<u64>,
    /// The later wakes, keyed by `(ready_at, seq)`.
    calendar: BinaryHeap<Reverse<(u64, u64)>>,
    /// Consumer lists, one per ring slot: the entries waiting for that one
    /// to issue.
    consumers: Vec<Vec<u64>>,
    rename: [Option<u64>; NUM_REGS],
    /// The youngest in-flight store to each address, for a dispatching
    /// load's store producer.
    store_index: FxHashMap<u64, u64>,
    /// Post-commit store buffer: recently retired store addresses still
    /// forwardable to younger loads (drained write combining).
    retired_stores: VecDeque<u64>,
    /// Multiplicity index over `retired_stores` so the forwarding check is
    /// a hash probe, not a 64-entry scan.
    retired_index: FxHashMap<u64, u32>,
    loads_in_rob: usize,
    stores_in_rob: usize,

    fetch_blocked_on: Option<u64>,
    fetch_stall_until: u64,
    commit_block_until: u64,
    stall_episode_armed: bool,
    rob_full_counted_this_cycle: bool,
    /// Set once [`OooCore::run`] returns; a second call fails with
    /// [`SimError::CoreReused`] instead of silently corrupting stats.
    finished: bool,

    /// Invariant-sanitizer ledger (populated when `cfg.sanitize` is set).
    san: SanitizeReport,
    /// The idle span the sanitizer is checking (sanitized runs step every
    /// cycle instead of jumping over it).
    predicted_idle: Option<IdleSpan>,
    stats: CoreStats,
    work: WorkCounters,
}

impl OooCore {
    /// Creates a core in its reset state.
    pub fn new(cfg: CoreConfig) -> Self {
        let ring = (cfg.rob_size + cfg.fetch_queue).next_power_of_two().max(64);
        OooCore {
            cfg,
            cpu: Cpu::new(),
            bp: TagePredictor::default(),
            stride_pf: StridePrefetcher::paper_default(),
            imp: cfg.imp_prefetcher.then(|| ImpPrefetcher::new(ImpConfig::default())),
            cycle: 0,
            head_seq: 0,
            dispatch_seq: 0,
            seq_next: 0,
            ring: vec![DynInst::VACANT; ring],
            ring_mask: ring as u64 - 1,
            unissued: SlotBits::new(ring),
            unissued_count: 0,
            window_end: u64::MAX,
            ready: SlotBits::new(ring),
            wake_next: Vec::new(),
            calendar: BinaryHeap::new(),
            consumers: vec![Vec::new(); ring],
            rename: [None; NUM_REGS],
            store_index: FxHashMap::default(),
            retired_stores: VecDeque::new(),
            retired_index: FxHashMap::default(),
            loads_in_rob: 0,
            stores_in_rob: 0,
            fetch_blocked_on: None,
            fetch_stall_until: 0,
            commit_block_until: 0,
            stall_episode_armed: true,
            rob_full_counted_this_cycle: false,
            finished: false,
            san: SanitizeReport::default(),
            predicted_idle: None,
            stats: CoreStats::default(),
            work: WorkCounters::default(),
        }
    }

    /// Creates a core whose architectural CPU and branch predictor start
    /// from the given (typically checkpointed or warmed) state instead of
    /// reset. Microarchitectural state (ROB, queues, cycle counter) still
    /// starts empty — this is how the sampling driver threads one
    /// architectural thread through a sequence of detailed intervals.
    pub fn with_state(cfg: CoreConfig, cpu: Cpu, bp: TagePredictor) -> Self {
        OooCore { cpu, bp, ..OooCore::new(cfg) }
    }

    /// The configuration in use.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Current cycle: the last one stepped, or the last one skipped when
    /// the step jumped over idle cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// How much work the cycle loop has done so far.
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// Seals the core and opens a [`StepSession`] covering `max_instrs`
    /// committed instructions, for scheduler-driven execution: a
    /// discrete-event harness calls [`OooCore::step_cycle`] at the tick
    /// before each cycle it asks for and [`OooCore::finish_run`] when the
    /// session reports [`Step::Done`].
    /// [`OooCore::run`] is exactly this sequence, so a stepped core is
    /// cycle-identical to a looped one.
    ///
    /// # Errors
    ///
    /// [`SimError::CoreReused`] if the core already completed a sealed run.
    pub fn begin_run(&mut self, max_instrs: u64) -> Result<StepSession, SimError> {
        if self.finished {
            return Err(SimError::CoreReused);
        }
        self.finished = true;
        Ok(self.open_session(max_instrs))
    }

    fn open_session(&self, target: u64) -> StepSession {
        StepSession {
            target,
            // Starts at the current cycle (not 0) so a resumed segment
            // doesn't inherit phantom commit-free cycles from earlier
            // segments.
            last_commit_cycle: self.cycle,
        }
    }

    /// End-of-run accounting for a stepped run: the deep sanitizer sweep,
    /// the final cycle count, and [`MemoryHierarchy::finalize`]. Call once
    /// per core when its [`StepSession`] ends (on [`Step::Done`] or an
    /// error); [`OooCore::run`] does this itself.
    pub fn finish_run(&mut self, hier: &mut MemoryHierarchy) {
        if self.cfg.sanitize {
            self.sanitize_deep(hier);
        }
        self.stats.cycles = self.cycle;
        hier.finalize();
    }

    /// Runs the program until it halts or `max_instrs` commit.
    ///
    /// Returns the accumulated statistics.
    ///
    /// # Errors
    ///
    /// Every failure mode is reported as a [`SimError`] instead of a
    /// panic: a functional executor fault ([`SimError::ExecFault`]), a
    /// wedged pipeline caught by the forward-progress watchdog or by an
    /// idle span that never ends ([`SimError::Deadlock`], with a
    /// diagnostic snapshot), an exceeded cycle budget, a fatal injected
    /// fault from the fault-injection harness, or a second call on the
    /// same core ([`SimError::CoreReused`]). Statistics up to the failure
    /// point stay readable through [`OooCore::stats`] either way.
    pub fn run<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        max_instrs: u64,
    ) -> Result<&CoreStats, SimError> {
        let mut session = self.begin_run(max_instrs)?;
        let result = self.drive(prog, mem, hier, engine, &mut session);
        // Finalization happens on both paths so partial statistics are
        // coherent (cycles set, unused prefetches accounted) even when the
        // run failed.
        self.finish_run(hier);
        result.map(|()| &self.stats)
    }

    /// Like [`OooCore::run`], but **resumable**: commits `max_instrs`
    /// *more* instructions (or fewer, if the program halts) and returns
    /// with the pipeline live, so a later `run_segment` call continues the
    /// same warm pipeline and cycle stream. Sampled simulation measures an
    /// interval in the very pipeline its detailed warmup filled — tearing
    /// the core down between warmup and measurement would charge every
    /// interval a pipeline refill the uninterrupted run never pays.
    ///
    /// Statistics are cumulative across segments; callers measure a
    /// segment by diffing [`OooCore::stats`] snapshots. End-of-run
    /// accounting ([`MemoryHierarchy::finalize`]) is *not* performed here —
    /// run it once when detailed execution for the region ends.
    ///
    /// # Errors
    ///
    /// Exactly the failure modes of [`OooCore::run`], except that only a
    /// core sealed by a completed [`OooCore::run`] reports
    /// [`SimError::CoreReused`].
    pub fn run_segment<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        max_instrs: u64,
    ) -> Result<&CoreStats, SimError> {
        if self.finished {
            return Err(SimError::CoreReused);
        }
        let target = self.stats.committed.saturating_add(max_instrs);
        let mut session = self.open_session(target);
        let result = self.drive(prog, mem, hier, engine, &mut session);
        if self.cfg.sanitize {
            self.sanitize_deep(hier);
        }
        self.stats.cycles = self.cycle;
        result.map(|()| &self.stats)
    }

    /// Steps the session to completion over [`OooCore::step_cycle`], which
    /// jumps over the cycles in which no stage can act.
    fn drive<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        session: &mut StepSession,
    ) -> Result<(), SimError> {
        loop {
            match self.step_cycle(prog, mem, hier, engine, session)? {
                Step::Running => {}
                Step::Done => return Ok(()),
            }
        }
    }

    /// Steps the core through one cycle under an open [`StepSession`], then
    /// jumps over the idle cycles that follow it.
    ///
    /// The pipeline walks stages in reverse order (commit → issue →
    /// dispatch → fetch) so a value produced this cycle is consumed next
    /// cycle, then polls faults, sanitizer sweeps, the forward-progress
    /// watchdog and the cycle budget. Last, the core moves
    /// [`OooCore::cycle`] to the cycle before the next one in which any
    /// stage can act, adding what the skipped cycles would have added to
    /// the per-cycle counters; the skip is exact, so the run is
    /// cycle-identical to stepping every cycle (which sanitized runs do,
    /// checking each predicted-idle cycle). A discrete-event scheduler
    /// calls this at tick [`OooCore::cycle`] for each `(tick, core)` event;
    /// interleaving cores between calls is safe because all cross-core
    /// state lives in the shared LLC.
    ///
    /// Returns [`Step::Done`] when the session's instruction target is
    /// reached or the program has halted and drained; the caller must then
    /// run [`OooCore::finish_run`] (or stop stepping, for segments).
    ///
    /// # Errors
    ///
    /// The failure modes of [`OooCore::run`]; the session is dead after an
    /// error. An idle span that never ends (a dropped memory response with
    /// the watchdog and the cycle budget off) is a [`SimError::Deadlock`]
    /// at the cycle it starts, sanitized or not.
    pub fn step_cycle<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        session: &mut StepSession,
    ) -> Result<Step, SimError> {
        if self.stats.committed >= session.target {
            return Ok(Step::Done);
        }
        self.cycle += 1;
        self.work.stepped += 1;
        self.rob_full_counted_this_cycle = false;
        let committed_before = self.stats.committed;
        let before = self.cfg.sanitize.then(|| self.activity());

        self.commit(hier);
        self.issue(prog, mem, hier, engine);
        self.dispatch(prog, mem, hier, engine);
        self.fetch(prog, mem)?;

        if let Some(ev) = hier.take_fault() {
            return Err(SimError::InjectedFault(ev));
        }

        if let Some(before) = before {
            self.sanitize_cycle(hier, before);
            // The per-set cache sweeps walk every way; amortize them.
            if self.cycle & 0xFFF == 0 {
                self.sanitize_deep(hier);
            }
        }

        if self.stats.committed > committed_before {
            session.last_commit_cycle = self.cycle;
        } else if self.cfg.watchdog_cycles != 0
            && self.cycle - session.last_commit_cycle >= self.cfg.watchdog_cycles
        {
            return Err(self.deadlock(hier, session));
        }

        if self.cfg.max_cycles != 0 && self.cycle >= self.cfg.max_cycles {
            return Err(SimError::CycleBudgetExceeded {
                cycle: self.cycle,
                budget: self.cfg.max_cycles,
            });
        }

        if self.cpu.is_halted() && self.seq_next == self.head_seq {
            return Ok(Step::Done);
        }
        // `run` and `run_segment` read `stats.cycles` from the cycle that
        // reached the target, so the core never jumps past it.
        if self.stats.committed < session.target {
            let span = self.idle_span(session);
            if span.until >= NEVER_COMPLETES {
                // Only a response that never arrives ends no idle span.
                return Err(self.deadlock(hier, session));
            }
            if !self.cfg.sanitize {
                self.skip(span);
            } else if self.predicted_idle.is_none_or(|p| p.until <= self.cycle + 1) {
                self.predicted_idle = Some(span);
            }
        }
        Ok(Step::Running)
    }

    /// The cycles after this one in which no stage can act: nothing
    /// commits, issues, dispatches or fetches, and the stall trigger stays
    /// quiet. Nothing else changes in them either: the hierarchy and the
    /// engines work from the timestamps the core hands them, so only the
    /// core's per-cycle counters move, and [`IdleSpan`] says by how much.
    fn idle_span(&self, session: &StepSession) -> IdleSpan {
        let soon = self.cycle + 1;
        let busy = IdleSpan { until: soon, window_full: false, blocked: (0, 0) };
        // Issue: a ready entry inside the window issues next cycle (issuing
        // moved the window), and a wake due next cycle makes one ready;
        // otherwise the calendar names the next wake.
        if !self.wake_next.is_empty() || self.ready.first(self.head_seq, self.issue_end()).is_some()
        {
            return busy;
        }
        let mut until = self.calendar.peek().map_or(u64::MAX, |&Reverse((at, _))| at);
        // Dispatch: acts next cycle unless the window is full. A window
        // full on the LQ or SQ alone leaves ROB room, so dispatch re-arms
        // the stall trigger and it fires on every such cycle.
        if let Some(front) = self.fetch_front() {
            let armed = self.stall_episode_armed || self.rob_len() < self.cfg.rob_size;
            if !self.window_full(front) || (armed && self.head_waits_on_memory(soon)) {
                return busy;
            }
        }
        // Commit: the head retires once it completes and the engine lets
        // commit go; until then each cycle past its completion counts as
        // blocked by the engine.
        let mut blocked = (0, 0);
        if let Some(head) = self.rob_head().filter(|h| h.issued) {
            until = until.min(head.complete_at.max(self.commit_block_until));
            blocked = (head.complete_at, self.commit_block_until);
        }
        // Fetch: resumes when a redirect's refill ends.
        if !self.cpu.is_halted()
            && self.fetch_blocked_on.is_none()
            && self.fetch_len() < self.cfg.fetch_queue
        {
            until = until.min(self.fetch_stall_until);
        }
        // Deadlines: the watchdog and the cycle budget.
        if self.cfg.watchdog_cycles != 0 {
            until = until.min(session.last_commit_cycle.saturating_add(self.cfg.watchdog_cycles));
        }
        if self.cfg.max_cycles != 0 {
            until = until.min(self.cfg.max_cycles);
        }
        IdleSpan { until: until.max(soon), window_full: self.fetch_len() > 0, blocked }
    }

    /// Jumps over an idle span: adds what its cycles would have added to
    /// the per-cycle counters and leaves the core on the cycle before
    /// `span.until`.
    fn skip(&mut self, span: IdleSpan) {
        let from = self.cycle + 1;
        if span.until <= from {
            return;
        }
        let n = span.until - from;
        if span.window_full {
            self.stats.rob_full_stall_cycles += n;
        }
        self.stats.commit_blocked_engine_cycles += span.blocked_cycles(from, span.until);
        if self.rob_len() < self.cfg.rob_size {
            self.stall_episode_armed = true;
        }
        self.work.skipped += n;
        self.cycle = span.until - 1;
    }

    /// What a stage changes when it acts, for the sanitizer's idle check.
    fn activity(&self) -> Activity {
        Activity {
            committed: self.stats.committed,
            dispatched: self.dispatch_seq,
            fetched: self.seq_next,
            halted: self.cpu.is_halted(),
            unissued: self.unissued_count,
            stall_triggers: self.stats.full_rob_stall_events,
            rob_full_cycles: self.stats.rob_full_stall_cycles,
            blocked_cycles: self.stats.commit_blocked_engine_cycles,
        }
    }

    /// The invariant-sanitizer ledger (populated when
    /// [`CoreConfig::sanitize`] is set).
    pub fn sanitize_report(&self) -> &SanitizeReport {
        &self.san
    }

    /// Mutable ledger access, for folding in checks the core cannot run
    /// itself (the runner's architectural-state digest diff).
    pub fn sanitize_report_mut(&mut self) -> &mut SanitizeReport {
        &mut self.san
    }

    /// Instructions the functional executor has retired at the fetch
    /// frontier (the replay length for the digest check).
    pub fn functional_retired(&self) -> u64 {
        self.cpu.retired()
    }

    /// The functional executor's architectural register file.
    pub fn functional_regs(&self) -> [u64; NUM_REGS] {
        self.cpu.regs()
    }

    /// The ring slot of entry `seq`.
    fn slot(&self, seq: u64) -> usize {
        (seq & self.ring_mask) as usize
    }

    /// Whether `seq` is in the ROB.
    fn in_rob(&self, seq: u64) -> bool {
        seq >= self.head_seq && seq < self.dispatch_seq
    }

    fn rob_len(&self) -> usize {
        (self.dispatch_seq - self.head_seq) as usize
    }

    fn fetch_len(&self) -> usize {
        (self.seq_next - self.dispatch_seq) as usize
    }

    fn rob_head(&self) -> Option<&DynInst> {
        (self.head_seq < self.dispatch_seq).then(|| &self.ring[self.slot(self.head_seq)])
    }

    fn fetch_front(&self) -> Option<&DynInst> {
        (self.dispatch_seq < self.seq_next).then(|| &self.ring[self.slot(self.dispatch_seq)])
    }

    /// Seq one past the entries the issue stage may look at: the window
    /// end, or the ROB's end when every unissued entry fits the window.
    fn issue_end(&self) -> u64 {
        self.window_end.min(self.dispatch_seq)
    }

    /// One read-only structural sweep of the pipeline. Every condition is
    /// computed from `&self` state; findings go to the ledger only, so the
    /// sweep cannot perturb timing. `before` is the [`Activity`] as the
    /// cycle started, for checking a cycle the core predicted idle.
    fn sanitize_cycle(&mut self, hier: &MemoryHierarchy, before: Activity) {
        // Take the ledger out so the checks below can borrow `self` freely.
        let mut san = std::mem::take(&mut self.san);
        let cycle = self.cycle;

        // A cycle predicted idle changed nothing but the counters the skip
        // would have added in bulk.
        if let Some(span) = self.predicted_idle.filter(|p| cycle < p.until) {
            let want = Activity {
                rob_full_cycles: before.rob_full_cycles + span.window_full as u64,
                blocked_cycles: before.blocked_cycles + span.blocked_cycles(cycle, cycle + 1),
                ..before
            };
            let got = self.activity();
            san.check(got == want, || {
                format!(
                    "cycle {cycle}: predicted idle until {}: expected {want:?}, got {got:?}",
                    span.until
                )
            });
        }

        san.check(self.rob_len() <= self.cfg.rob_size, || {
            format!("cycle {cycle}: rob holds {} > {} entries", self.rob_len(), self.cfg.rob_size)
        });
        san.check(self.fetch_len() <= self.cfg.fetch_queue, || {
            format!(
                "cycle {cycle}: fetch queue holds {} > {} entries",
                self.fetch_len(),
                self.cfg.fetch_queue
            )
        });

        // Each ring slot holds the entry its sequence number names, and
        // nothing is "complete" without having issued.
        let mut loads = 0usize;
        let mut stores = 0usize;
        for seq in self.head_seq..self.seq_next {
            let di = &self.ring[self.slot(seq)];
            san.check(di.seq == seq, || {
                format!("cycle {cycle}: ring slot of seq {seq} holds seq {}", di.seq)
            });
            san.check(di.issued || di.complete_at == u64::MAX, || {
                format!("cycle {cycle}: seq {seq} has a completion time but never issued")
            });
            if seq < self.dispatch_seq {
                loads += di.is_load() as usize;
                stores += di.is_store() as usize;
            } else {
                san.check(!di.issued, || format!("cycle {cycle}: undispatched seq {seq} issued"));
            }
        }

        // LQ/SQ counters balance against the ROB contents and capacity.
        san.check(loads == self.loads_in_rob, || {
            format!("cycle {cycle}: LQ counter {} but {loads} loads in rob", self.loads_in_rob)
        });
        san.check(stores == self.stores_in_rob, || {
            format!("cycle {cycle}: SQ counter {} but {stores} stores in rob", self.stores_in_rob)
        });
        san.check(self.loads_in_rob <= self.cfg.lq_size, || {
            format!("cycle {cycle}: LQ over capacity: {} > {}", self.loads_in_rob, self.cfg.lq_size)
        });
        san.check(self.stores_in_rob <= self.cfg.sq_size, || {
            format!(
                "cycle {cycle}: SQ over capacity: {} > {}",
                self.stores_in_rob, self.cfg.sq_size
            )
        });

        self.sanitize_window(&mut san);
        self.sanitize_wakeup(&mut san);

        // Rename table points at live producers of the right register.
        for (r, slot) in self.rename.iter().enumerate() {
            if let Some(seq) = *slot {
                let ok = self.in_rob(seq)
                    && self.ring[self.slot(seq)].instr.dst().map(|d| d.index()) == Some(r);
                san.check(ok, || {
                    format!("cycle {cycle}: rename[r{r}] = {seq} is not a live producer of r{r}")
                });
            }
        }

        // Post-commit store buffer and its multiplicity index agree.
        san.check(self.retired_stores.len() <= 64, || {
            format!("cycle {cycle}: post-commit store buffer overflow")
        });
        let indexed: u32 = self.retired_index.values().sum();
        san.check(indexed as usize == self.retired_stores.len(), || {
            format!(
                "cycle {cycle}: retired-store index counts {indexed} but buffer holds {}",
                self.retired_stores.len()
            )
        });

        // MSHR allocate/release balance.
        san.absorb(hier.check_invariants(cycle, false));
        self.san = san;
    }

    /// The issue window: a slot's unissued bit is set exactly when it holds
    /// an unissued ROB entry, the count matches, and the window end is the
    /// `iq_size`-th of those entries.
    fn sanitize_window(&self, san: &mut SanitizeReport) {
        let cycle = self.cycle;
        let (mut count, mut end, mut stray) = (0usize, u64::MAX, None);
        for seq in self.head_seq..self.head_seq + self.ring.len() as u64 {
            let live = self.in_rob(seq) && !self.ring[self.slot(seq)].issued;
            if self.unissued.get(seq) != live {
                stray.get_or_insert(seq);
            }
            if live {
                if count == self.cfg.iq_size {
                    end = seq;
                }
                count += 1;
            }
        }
        san.check(stray.is_none(), || {
            format!("cycle {cycle}: unissued bit of seq {stray:?} disagrees with the rob")
        });
        san.check(count == self.unissued_count, || {
            format!(
                "cycle {cycle}: {count} unissued rob entries but an unissued count of {}",
                self.unissued_count
            )
        });
        san.check(end == self.window_end, || {
            format!("cycle {cycle}: window end {} but the window ends at {end}", self.window_end)
        });
    }

    /// The wakeup bookkeeping: each unissued entry waits on producers, sits
    /// in the calendar or the next-cycle lane, or is ready (exactly one of
    /// the four), its pending count is the number of its producers that
    /// have not issued, its store producer is the youngest older in-flight
    /// store to its address, the store index names the youngest in-flight
    /// store of each address, and the consumer lists hold exactly the
    /// pending waits.
    fn sanitize_wakeup(&self, san: &mut SanitizeReport) {
        // Plain loops and one ledger check in all: this runs on every
        // sanitized cycle, in debug builds too.
        let (cycle, head, len) = (self.cycle, self.head_seq, self.rob_len());
        let waits = |seq: u64| self.in_rob(seq) && !self.ring[self.slot(seq)].issued;
        let mut places = vec![0u32; len];
        let mut bad: Option<String> = None;
        for &Reverse((at, seq)) in &self.calendar {
            if waits(seq) && self.ring[self.slot(seq)].ready_at == at && at > cycle {
                places[(seq - head) as usize] += 1;
            } else {
                bad.get_or_insert_with(|| format!("calendar entry ({at}, {seq}) is not a wake"));
            }
        }
        for &seq in &self.wake_next {
            if waits(seq) && self.ring[self.slot(seq)].ready_at == cycle + 1 {
                places[(seq - head) as usize] += 1;
            } else {
                bad.get_or_insert_with(|| format!("next-cycle wake {seq} is not due next cycle"));
            }
        }
        for seq in head..head + self.ring.len() as u64 {
            if !self.ready.get(seq) {
                continue;
            }
            if waits(seq) && self.ring[self.slot(seq)].ready_at <= cycle {
                places[(seq - head) as usize] += 1;
            } else {
                bad.get_or_insert_with(|| format!("ready bit of seq {seq} is set but not ready"));
            }
        }
        let mut pending = 0usize;
        let mut youngest_store: FxHashMap<u64, u64> = FxHashMap::default();
        for (i, seq) in (head..self.dispatch_seq).enumerate() {
            let di = &self.ring[self.slot(seq)];
            let want_store = match di.mem {
                Some(m) if di.class == FuClass::Load => youngest_store.get(&m.addr).copied(),
                Some(m) if di.class == FuClass::Store => {
                    youngest_store.insert(m.addr, seq);
                    None
                }
                _ => None,
            };
            if di.issued {
                continue;
            }
            // Committed producers have issued; in-flight ones either issued
            // (and bound `ready_at`) or are pending.
            let (mut unissued, mut covered) = (0u32, true);
            for p in di.deps.into_iter().flatten().filter(|&p| self.in_rob(p)) {
                let producer = &self.ring[self.slot(p)];
                if producer.issued {
                    covered &= producer.complete_at <= di.ready_at;
                } else {
                    unissued += 1;
                }
            }
            let store = di.deps[MEM_DEP].filter(|&p| self.in_rob(p));
            let ok = places[i] + (di.pending > 0) as u32 == 1
                && di.pending == unissued
                && covered
                && store == want_store;
            if !ok {
                bad.get_or_insert_with(|| {
                    format!(
                        "seq {} (pending {} of {unissued} producers, store producer {store:?} \
                         of {want_store:?}) is not in exactly one wakeup state",
                        di.seq, di.pending
                    )
                });
            }
            pending += di.pending as usize;
        }
        if youngest_store != self.store_index {
            bad.get_or_insert_with(|| {
                format!(
                    "store index names {} addresses, not the youngest in-flight store of each \
                     of {}",
                    self.store_index.len(),
                    youngest_store.len()
                )
            });
        }
        let listed: usize = self.consumers.iter().map(Vec::len).sum();
        if listed != pending {
            bad.get_or_insert_with(|| format!("consumer lists hold {listed} waits for {pending}"));
        }
        san.check(bad.is_none(), || format!("cycle {cycle}: wakeup: {}", bad.unwrap_or_default()));
    }

    /// The amortized sweep: per-set cache consistency on top of the MSHR
    /// balance. Run every 4 Ki cycles and once at the end of the run.
    fn sanitize_deep(&mut self, hier: &MemoryHierarchy) {
        let mut san = std::mem::take(&mut self.san);
        san.absorb(hier.check_invariants(self.cycle, true));
        self.san = san;
    }

    /// A deadlock at the current cycle, with the pipeline's diagnostic
    /// snapshot.
    fn deadlock(&self, hier: &MemoryHierarchy, session: &StepSession) -> SimError {
        SimError::Deadlock(Box::new(DeadlockSnapshot {
            cycle: self.cycle,
            last_commit_cycle: session.last_commit_cycle,
            committed: self.stats.committed,
            rob_len: self.rob_len(),
            rob_head: self.rob_head().map(|di| {
                format!(
                    "seq {} pc {} {:?} (issued: {}, complete_at: {})",
                    di.seq, di.pc, di.instr, di.issued, di.complete_at
                )
            }),
            iq_unissued: self.unissued_count,
            fetchq_len: self.fetch_len(),
            mshrs_in_use: hier.mshrs_in_use(self.cycle),
            dram_calendar_depth: hier.dram_calendar_depth(),
        }))
    }

    fn commit(&mut self, hier: &mut MemoryHierarchy) {
        // Engine-imposed commit block (VR delayed termination).
        if self.commit_block_until > self.cycle {
            if let Some(head) = self.rob_head() {
                if head.issued && head.complete_at <= self.cycle {
                    self.stats.commit_blocked_engine_cycles += 1;
                }
            }
            return;
        }
        let mut n = 0;
        while n < self.cfg.width {
            let Some(head) = self.rob_head() else { break };
            if !head.issued || head.complete_at > self.cycle {
                break;
            }
            let (seq, instr, mem, mispredicted) =
                (head.seq, head.instr, head.mem, head.mispredicted);
            self.head_seq += 1;
            if let Some(dst) = instr.dst() {
                if self.rename[dst.index()] == Some(seq) {
                    self.rename[dst.index()] = None;
                }
            }
            if instr.is_load() {
                self.loads_in_rob -= 1;
            }
            if instr.is_store() {
                self.stores_in_rob -= 1;
                let m = mem.expect("store has a memory access");
                hier.store(self.cycle, m.addr, AccessClass::Demand);
                // Stores commit in order; move the forwarding entry into the
                // post-commit store buffer.
                if self.store_index.get(&m.addr) == Some(&seq) {
                    self.store_index.remove(&m.addr);
                }
                self.retired_stores.push_back(m.addr);
                *self.retired_index.entry(m.addr).or_insert(0) += 1;
                if self.retired_stores.len() > 64 {
                    let old = self.retired_stores.pop_front().expect("len > 64");
                    let n = self.retired_index.get_mut(&old).expect("indexed");
                    *n -= 1;
                    if *n == 0 {
                        self.retired_index.remove(&old);
                    }
                }
            }
            if instr.is_cond_branch() {
                self.stats.cond_branches += 1;
                if mispredicted {
                    self.stats.branch_mispredicts += 1;
                }
            }
            self.stats.committed += 1;
            n += 1;
        }
    }

    /// Issues the oldest ready entries inside the window, up to the FU
    /// limits and the issue width. The window is the oldest `iq_size`
    /// unissued entries as the stage starts; an entry is ready once every
    /// producer it waits on (register writers, and a load's older store to
    /// the same address) has completed. Consumers learn of a producer when
    /// it issues, so the stage looks only at ready entries.
    fn issue<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
    ) {
        for seq in self.wake_next.drain(..) {
            self.ready.set(seq);
        }
        while let Some(&Reverse((at, seq))) = self.calendar.peek() {
            if at > self.cycle {
                break;
            }
            self.calendar.pop();
            self.ready.set(seq);
        }
        let mut slots = self.cfg.issue_width;
        let mut alu = self.cfg.int_alu;
        let mut mul = self.cfg.int_mul;
        let mut div = self.cfg.int_div;
        let mut ld = self.cfg.load_ports;
        let mut st = self.cfg.store_ports;

        let end = self.issue_end();
        let mut from = self.head_seq;
        while slots > 0 {
            let Some(seq) = self.ready.first(from, end) else { break };
            from = seq + 1;
            self.work.issue_candidates += 1;
            let idx = self.slot(seq);
            let class = self.ring[idx].class;
            let unit = match class {
                FuClass::Alu => &mut alu,
                FuClass::Mul => &mut mul,
                FuClass::Div => &mut div,
                FuClass::Load => &mut ld,
                FuClass::Store => &mut st,
            };
            if *unit == 0 {
                continue;
            }

            // Issue it.
            *unit -= 1;
            slots -= 1;
            self.ready.clear(seq);
            self.unissued.clear(seq);
            self.unissued_count -= 1;
            if self.window_end != u64::MAX {
                // The window slides to take in the next unissued entry.
                self.window_end =
                    self.unissued.first(self.window_end + 1, self.dispatch_seq).unwrap_or(u64::MAX);
            }
            let cycle = self.cycle;
            let di = &mut self.ring[idx];
            di.issued = true;
            let instr = di.instr;
            let m = di.mem;
            let pcv = di.pc;
            let store = di.deps[MEM_DEP];
            let complete_at = if class == FuClass::Load {
                let m = m.expect("load access");
                self.stats.loads += 1;
                if self.forwards(store, m.addr) {
                    self.stats.store_forwards += 1;
                    cycle + 1
                } else {
                    let mut ctx = EngineCtx { cycle, prog, frontier: None, mem, hier };
                    match engine.override_load(&mut ctx, m.addr) {
                        Some(lat) => cycle + lat,
                        None => {
                            let acc = hier.load(cycle, m.addr, AccessClass::Demand);
                            // Hardware prefetchers train on demand loads.
                            for &p in self.stride_pf.train(pcv, m.addr).prefetches() {
                                hier.prefetch(cycle, p, PrefetchSource::Stride);
                            }
                            if let Some(imp) = &mut self.imp {
                                let was_miss = acc.level != HitLevel::L1;
                                for p in
                                    imp.observe_load(pcv, m.addr, m.value, m.width, was_miss, mem)
                                {
                                    hier.prefetch(cycle, p, PrefetchSource::Imp);
                                }
                            }
                            acc.complete_at
                        }
                    }
                }
            } else if class == FuClass::Store {
                self.stats.stores += 1;
                cycle + 1
            } else {
                cycle + exec_latency(&instr)
            };
            let di = &mut self.ring[idx];
            di.complete_at = complete_at;

            // A resolving mispredicted branch redirects fetch.
            if di.mispredicted && self.fetch_blocked_on == Some(seq) {
                self.fetch_stall_until = complete_at + self.cfg.frontend_penalty;
                self.fetch_blocked_on = None;
            }
            self.wake_consumers(seq, complete_at);
        }
    }

    /// Hands an issued producer's completion time to the entries waiting on
    /// it. One whose last producer this was is scheduled for the cycle it
    /// becomes ready.
    fn wake_consumers(&mut self, producer: u64, complete_at: u64) {
        let slot = self.slot(producer);
        let mut consumers = std::mem::take(&mut self.consumers[slot]);
        for &seq in &consumers {
            let idx = self.slot(seq);
            let di = &mut self.ring[idx];
            di.ready_at = di.ready_at.max(complete_at);
            di.pending -= 1;
            if di.pending == 0 {
                let at = di.ready_at;
                self.schedule(seq, at);
            }
        }
        consumers.clear();
        self.consumers[slot] = consumers;
    }

    /// Files an entry whose producers have all issued under the cycle `at`
    /// it becomes ready: the ready set if that is now, the next-cycle lane,
    /// or the calendar.
    fn schedule(&mut self, seq: u64, at: u64) {
        if at <= self.cycle {
            self.ready.set(seq);
        } else if at == self.cycle + 1 {
            self.wake_next.push(seq);
        } else {
            self.calendar.push(Reverse((at, seq)));
        }
    }

    /// Whether a load of `addr` whose store producer is `store` takes its
    /// data from an older store: an in-flight one (the load waited for it,
    /// so it has completed) or one still in the post-commit store buffer.
    /// Stores commit in order, so once the youngest older store to `addr`
    /// retires, every older one has too.
    fn forwards(&self, store: Option<u64>, addr: u64) -> bool {
        store.is_some_and(|s| s >= self.head_seq) || self.retired_index.contains_key(&addr)
    }

    fn dispatch<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
    ) {
        if self.rob_len() < self.cfg.rob_size {
            self.stall_episode_armed = true;
        }
        let mut n = 0;
        while n < self.cfg.width {
            let Some(next) = self.fetch_front() else { break };
            if self.window_full(next) {
                self.note_window_full(prog, mem, hier, engine);
                break;
            }

            let seq = self.dispatch_seq;
            let idx = self.slot(seq);
            let di = &mut self.ring[idx];
            for (k, r) in di.instr.srcs().enumerate() {
                di.deps[k] = self.rename[r.index()];
            }
            if let Some(dst) = di.instr.dst() {
                self.rename[dst.index()] = Some(seq);
            }
            match di.class {
                FuClass::Load => {
                    self.loads_in_rob += 1;
                    let m = di.mem.expect("load access");
                    di.deps[MEM_DEP] = self.store_index.get(&m.addr).copied();
                }
                FuClass::Store => {
                    self.stores_in_rob += 1;
                    let m = di.mem.expect("store access");
                    self.store_index.insert(m.addr, seq);
                }
                _ => {}
            }

            let mut ctx = EngineCtx { cycle: self.cycle, prog, frontier: None, mem, hier };
            engine.on_dispatch(&mut ctx, &self.ring[idx]);

            self.dispatch_seq += 1;
            self.register(seq);
            self.unissued.set(seq);
            self.unissued_count += 1;
            if self.unissued_count == self.cfg.iq_size + 1 {
                self.window_end = seq;
            }
            n += 1;
        }
    }

    /// Whether the instruction window cannot take `next`: the ROB — or,
    /// for load-heavy code, the LQ/SQ — is full. All three back-pressure
    /// dispatch and constitute the classic runahead trigger when a load
    /// miss blocks the head.
    fn window_full(&self, next: &DynInst) -> bool {
        self.rob_len() >= self.cfg.rob_size
            || (next.is_load() && self.loads_in_rob >= self.cfg.lq_size)
            || (next.is_store() && self.stores_in_rob >= self.cfg.sq_size)
    }

    /// Counts a dispatching entry's unissued producers and puts it on
    /// their consumer lists; an entry without one is scheduled for the
    /// cycle it becomes ready.
    fn register(&mut self, seq: u64) {
        let idx = self.slot(seq);
        let mut ready_at = self.cycle + 1;
        let mut pending = 0;
        for p in self.ring[idx].deps.into_iter().flatten() {
            let producer = &self.ring[self.slot(p)];
            if producer.issued {
                ready_at = ready_at.max(producer.complete_at);
            } else {
                pending += 1;
                let slot = self.slot(p);
                self.consumers[slot].push(seq);
            }
        }
        let di = &mut self.ring[idx];
        di.ready_at = ready_at;
        di.pending = pending;
        if pending == 0 {
            self.schedule(seq, ready_at);
        }
    }

    /// The classic runahead trigger's condition at cycle `at`: a
    /// *long-latency* load blocks the head (an L2-hit blip does not send
    /// the core into runahead).
    fn head_waits_on_memory(&self, at: u64) -> bool {
        self.rob_head().is_some_and(|h| h.is_load() && h.issued && h.complete_at > at + 30)
    }

    fn note_window_full<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
    ) {
        if !self.rob_full_counted_this_cycle {
            self.stats.rob_full_stall_cycles += 1;
            self.rob_full_counted_this_cycle = true;
        }
        if self.stall_episode_armed && self.head_waits_on_memory(self.cycle) {
            self.stall_episode_armed = false;
            self.stats.full_rob_stall_events += 1;
            let head_complete = self.rob_head().expect("a load blocks the head").complete_at;
            let mut ctx = EngineCtx {
                cycle: self.cycle,
                prog,
                frontier: Some(ArchSnapshot::of(&self.cpu)),
                mem,
                hier,
            };
            let block = engine.on_full_rob_stall(&mut ctx, head_complete);
            self.commit_block_until = self.commit_block_until.max(block);
        }
    }

    fn fetch(&mut self, prog: &Program, mem: &mut SparseMemory) -> Result<(), SimError> {
        if self.cpu.is_halted()
            || self.fetch_blocked_on.is_some()
            || self.cycle < self.fetch_stall_until
        {
            return Ok(());
        }
        let mut n = 0;
        while n < self.cfg.width && self.fetch_len() < self.cfg.fetch_queue {
            let pc = self.cpu.pc();
            let Some(instr) = prog.fetch(pc).copied() else {
                // Off the end: the functional step reports Halted for a
                // clean fall-through and PcOutOfRange for a wild jump.
                match self.cpu.step(prog, mem) {
                    Err(e) => {
                        return Err(SimError::ExecFault { pc, cycle: self.cycle, source: e });
                    }
                    Ok(_) => break,
                }
            };
            let mut src_values = [0u64; 3];
            for (k, r) in instr.srcs().enumerate() {
                src_values[k] = self.cpu.reg(r);
            }
            match self.cpu.step(prog, mem) {
                Ok(sim_isa::StepEvent::Executed(step)) => {
                    let seq = self.seq_next;
                    let mut mispredicted = false;
                    if let Some(taken) = step.branch_taken {
                        let predicted = self.bp.predict(pc);
                        self.bp.update(pc, taken, predicted);
                        if predicted != taken {
                            mispredicted = true;
                            self.fetch_blocked_on = Some(seq);
                        }
                    }
                    let idx = self.slot(seq);
                    self.ring[idx] = DynInst {
                        seq,
                        pc,
                        instr: step.instr,
                        mem: step.mem,
                        branch_taken: step.branch_taken,
                        src_values,
                        dst_value: step.dst_value,
                        mispredicted,
                        class: fu_class(&step.instr),
                        ..DynInst::VACANT
                    };
                    self.seq_next += 1;
                    n += 1;
                    if mispredicted {
                        break;
                    }
                }
                Ok(sim_isa::StepEvent::Halted) => break,
                Err(e) => return Err(SimError::ExecFault { pc, cycle: self.cycle, source: e }),
            }
        }
        Ok(())
    }
}

/// Cycles after the current one in which no stage can act: the skip
/// jumps to `until`, and the sanitizer checks each of them instead.
#[derive(Clone, Copy, Debug)]
struct IdleSpan {
    /// The first cycle in which a stage may act again.
    until: u64,
    /// Dispatch is held by a full window: each idle cycle is a full-window
    /// stall cycle.
    window_full: bool,
    /// Idle cycles in `[blocked.0, blocked.1)` count as commit blocked by
    /// the engine: the head has completed but the engine holds commit.
    blocked: (u64, u64),
}

impl IdleSpan {
    /// Idle cycles in `[from, to)` on which commit is blocked by the engine.
    fn blocked_cycles(&self, from: u64, to: u64) -> u64 {
        to.min(self.blocked.1).saturating_sub(from.max(self.blocked.0))
    }
}

/// What a stage changes when it acts, plus the two counters an idle cycle
/// moves: the sanitizer compares them across each predicted-idle cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Activity {
    committed: u64,
    dispatched: u64,
    fetched: u64,
    halted: bool,
    unissued: usize,
    stall_triggers: u64,
    rob_full_cycles: u64,
    blocked_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use sim_isa::{Asm, Reg};
    use sim_mem::HierarchyConfig;

    fn run_program(prog: &Program, mem: &mut SparseMemory, max: u64) -> CoreStats {
        let mut core = OooCore::new(CoreConfig::default());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        *core.run(prog, mem, &mut hier, &mut NullEngine, max).expect("run failed")
    }

    #[test]
    fn straight_line_alu_reaches_high_ipc() {
        let mut asm = Asm::new();
        // 64 independent chains of adds interleaved: plenty of ILP.
        for i in 0..500 {
            let r = Reg::from_index(1 + (i % 8)).unwrap();
            asm.addi(r, r, 1);
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let stats = run_program(&prog, &mut mem, 1_000_000);
        assert_eq!(stats.committed, 501);
        assert!(stats.ipc() > 3.0, "IPC {} too low for pure ILP", stats.ipc());
    }

    #[test]
    fn serial_dependency_chain_limits_ipc() {
        let mut asm = Asm::new();
        for _ in 0..500 {
            asm.addi(Reg::R1, Reg::R1, 1); // one long chain
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let stats = run_program(&prog, &mut mem, 1_000_000);
        assert!(stats.ipc() < 1.2, "serial chain must be ~1 IPC, got {}", stats.ipc());
    }

    #[test]
    fn program_result_is_architecturally_correct() {
        // Timing model must not perturb functional results.
        let mut asm = Asm::new();
        let (acc, i, n, t, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        asm.li(acc, 0);
        asm.li(i, 0);
        asm.li(n, 100);
        let top = asm.here();
        asm.mul(t, i, i);
        asm.add(acc, acc, t);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.li(Reg::R8, 0x9000);
        asm.st8(acc, Reg::R8, 0);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        run_program(&prog, &mut mem, 10_000_000);
        let expect: u64 = (0..100u64).map(|x| x * x).sum();
        assert_eq!(mem.read_u64(0x9000), expect);
    }

    #[test]
    fn dependent_misses_fill_the_rob() {
        // A pointer chase: each load depends on the previous one; misses
        // serialize and the ROB backs up behind them.
        let mut asm = Asm::new();
        let (p, i, n, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        asm.li(p, 0x10_0000);
        asm.li(i, 0);
        asm.li(n, 200);
        let top = asm.here();
        asm.ld8(p, p, 0);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        let prog = asm.finish().unwrap();

        // Build a pointer chain spanning many distinct lines.
        let mut mem = SparseMemory::new();
        let mut addr = 0x10_0000u64;
        let mut x: u64 = 1;
        for _ in 0..256 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let next = 0x10_0000 + ((x >> 20) & 0xFFFF) * 64;
            mem.write_u64(addr, next);
            addr = next;
        }
        let stats = run_program(&prog, &mut mem, 10_000_000);
        assert!(stats.ipc() < 0.5, "pointer chase should be memory-bound, IPC {}", stats.ipc());
        assert!(stats.loads >= 200);
    }

    #[test]
    fn store_forwarding_works() {
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x8000);
        asm.li(Reg::R2, 1234);
        asm.st8(Reg::R2, Reg::R1, 0);
        asm.ld8(Reg::R3, Reg::R1, 0); // should forward, not miss to DRAM
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let stats = run_program(&prog, &mut mem, 1000);
        assert_eq!(stats.store_forwards, 1);
        assert!(stats.cycles < 100, "forwarded load must not wait for DRAM");
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        // Data-dependent unpredictable branches vs. perfectly biased ones.
        let run_with_pattern = |values: &[u64]| -> (u64, u64) {
            let mut asm = Asm::new();
            let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(base, 0x4_0000);
            asm.li(i, 0);
            asm.li(n, values.len() as i64);
            let top = asm.here();
            let skip = asm.label();
            asm.ld8_idx(v, base, i, 3);
            asm.bez(v, skip);
            asm.addi(Reg::R6, Reg::R6, 1);
            asm.bind(skip);
            asm.addi(i, i, 1);
            asm.slt(c, i, n);
            asm.bnz(c, top);
            asm.halt();
            let prog = asm.finish().unwrap();
            let mut mem = SparseMemory::new();
            mem.write_u64_slice(0x4_0000, values);
            let stats = run_program(&prog, &mut mem, 10_000_000);
            (stats.cycles, stats.branch_mispredicts)
        };

        let biased: Vec<u64> = vec![1; 4096];
        let mut x: u64 = 88172645463325252;
        let random: Vec<u64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1
            })
            .collect();
        let (cycles_biased, mp_biased) = run_with_pattern(&biased);
        let (cycles_random, mp_random) = run_with_pattern(&random);
        assert!(mp_random > mp_biased * 10, "{mp_random} vs {mp_biased}");
        assert!(cycles_random > cycles_biased, "{cycles_random} vs {cycles_biased}");
    }

    #[test]
    fn rob_full_stall_detected_on_memory_bound_code() {
        let mut asm = Asm::new();
        let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        asm.li(base, 0x20_0000);
        asm.li(i, 0);
        asm.li(n, 2000);
        let top = asm.here();
        // A dependent chain long enough to block the ROB head.
        asm.ld8_idx(v, base, i, 3);
        asm.ld8_idx(v, base, v, 3);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        // Pseudo-random in-range indices over a DRAM-sized region.
        let mut x: u64 = 7;
        let vals: Vec<u64> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(25214903917).wrapping_add(11);
                (x >> 16) % 4096
            })
            .collect();
        mem.write_u64_slice(0x20_0000, &vals);

        let mut core = OooCore::new(CoreConfig::default());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let stats =
            *core.run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000).expect("run failed");
        assert!(stats.full_rob_stall_events > 0, "expected full-ROB stalls");
        assert!(stats.rob_full_stall_cycles > 0);
    }

    #[test]
    fn watchdog_reports_deadlock_with_snapshot() {
        // Drop every demand-miss response: the first missing load never
        // completes, commit wedges at the ROB head, and the watchdog must
        // return a structured diagnostic instead of panicking.
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x10_0000);
        asm.ld8(Reg::R2, Reg::R1, 0);
        asm.addi(Reg::R2, Reg::R2, 1);
        asm.halt();
        let prog = asm.finish().unwrap();
        let deadlock = |sanitize: bool| {
            let mut mem = SparseMemory::new();
            let cfg = CoreConfig { watchdog_cycles: 10_000, sanitize, ..CoreConfig::default() };
            let mut core = OooCore::new(cfg);
            let fault = Some(sim_mem::FaultConfig::seeded(1).with_drop(1));
            let mut hier =
                MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
            let err = core
                .run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000_000)
                .expect_err("dropped response must wedge the pipeline");
            let crate::SimError::Deadlock(snap) = err else {
                panic!("expected Deadlock, got {err:?}");
            };
            // Partial stats stay coherent after the failure.
            assert_eq!(core.stats().cycles, snap.cycle);
            snap
        };
        let snap = deadlock(false);
        // The idle skip stops exactly at the watchdog deadline.
        assert_eq!(snap.cycle, snap.last_commit_cycle + 10_000);
        assert!(snap.rob_len >= 1);
        let head = snap.rob_head.as_deref().expect("a load blocks the head");
        assert!(head.contains("Load"), "head should be the wedged load: {head}");
        assert!(snap.mshrs_in_use >= 1, "the dropped miss still holds its MSHR");
        assert_eq!(deadlock(true), snap, "a sanitized run steps every cycle to the same deadlock");
    }

    #[test]
    fn watchdog_can_be_disabled_but_cycle_budget_still_binds() {
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x10_0000);
        asm.ld8(Reg::R2, Reg::R1, 0);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let cfg = CoreConfig { watchdog_cycles: 0, max_cycles: 30_000, ..CoreConfig::default() };
        let mut core = OooCore::new(cfg);
        let fault = Some(sim_mem::FaultConfig::seeded(1).with_drop(1));
        let mut hier =
            MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
        let err = core
            .run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000_000)
            .expect_err("cycle budget must trip");
        assert!(
            matches!(err, crate::SimError::CycleBudgetExceeded { cycle: 30_000, budget: 30_000 }),
            "{err:?}"
        );
    }

    #[test]
    fn reusing_a_core_is_an_error() {
        let mut asm = Asm::new();
        asm.addi(Reg::R1, Reg::R1, 1);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let mut core = OooCore::new(CoreConfig::default());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        core.run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000).expect("first run");
        let committed = core.stats().committed;
        let err = core
            .run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000)
            .expect_err("second run must be rejected");
        assert_eq!(err, crate::SimError::CoreReused);
        assert_eq!(core.stats().committed, committed, "stats untouched by the rejected call");
    }

    #[test]
    fn sanitizer_is_clean_and_timing_neutral() {
        let build = || {
            let mut asm = Asm::new();
            let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(base, 0x20_0000);
            asm.li(i, 0);
            asm.li(n, 500);
            let top = asm.here();
            asm.ld8_idx(v, base, i, 3);
            asm.ld8_idx(v, base, v, 3);
            asm.st8(v, base, 0x8000);
            asm.addi(i, i, 1);
            asm.slt(c, i, n);
            asm.bnz(c, top);
            asm.halt();
            asm.finish().unwrap()
        };
        let build_mem = || {
            let mut mem = SparseMemory::new();
            let mut x: u64 = 7;
            let vals: Vec<u64> = (0..4096)
                .map(|_| {
                    x = x.wrapping_mul(25214903917).wrapping_add(11);
                    (x >> 16) % 4096
                })
                .collect();
            mem.write_u64_slice(0x20_0000, &vals);
            mem
        };
        let mut results = vec![];
        for sanitize in [false, true] {
            let prog = build();
            let mut mem = build_mem();
            let mut core = OooCore::new(CoreConfig { sanitize, ..CoreConfig::default() });
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let stats = *core
                .run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000)
                .expect("run failed");
            if sanitize {
                let report = core.sanitize_report();
                assert!(report.is_clean(), "violations: {:?}", report.first);
                assert!(report.checks > 0);
            } else {
                assert_eq!(core.sanitize_report().checks, 0, "sanitizer must stay off");
            }
            results.push((stats.cycles, stats.committed, stats.loads, stats.branch_mispredicts));
        }
        assert_eq!(results[0], results[1], "sanitizer changed timing");
    }

    #[test]
    fn smaller_rob_stalls_more() {
        let build = || {
            let mut asm = Asm::new();
            let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(base, 0x20_0000);
            asm.li(i, 0);
            asm.li(n, 1000);
            let top = asm.here();
            asm.ld8_idx(v, base, i, 3);
            asm.ld8_idx(v, base, v, 3);
            asm.addi(i, i, 1);
            asm.slt(c, i, n);
            asm.bnz(c, top);
            asm.halt();
            asm.finish().unwrap()
        };
        let mut fractions = vec![];
        for rob in [64usize, 350] {
            let prog = build();
            let mut mem = SparseMemory::new();
            let mut x: u64 = 7;
            let vals: Vec<u64> = (0..4096)
                .map(|_| {
                    x = x.wrapping_mul(25214903917).wrapping_add(11);
                    (x >> 16) % 4096
                })
                .collect();
            mem.write_u64_slice(0x20_0000, &vals);
            let mut core = OooCore::new(CoreConfig::with_rob(rob));
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let stats = *core
                .run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000)
                .expect("run failed");
            fractions.push(stats.rob_full_stall_fraction());
        }
        assert!(
            fractions[0] > fractions[1],
            "64-entry ROB should stall more than 350: {fractions:?}"
        );
    }
}
