//! The vectorized lane walker: speculative, in-order execution of an
//! indirect chain across many scalar-equivalent lanes.
//!
//! This is the machinery shared by Vector Runahead and the DVR subthread
//! (Sections 2.3 and 4.2): up to 128 lanes execute the same instruction
//! sequence in lockstep, loads become gathers split into scalar cache
//! accesses (each allocating an MSHR), and control flow either masks
//! diverging lanes off (VR) or runs them later via a GPU-style
//! reconvergence stack (DVR, Section 4.2.3). Taint from the striding load
//! decides which instructions are vectorized (16 vector uops) versus scalar
//! (1 uop) for Vector-Issue-Register timing.

use sim_isa::{exec_lane, Instr, Program, SparseMemory, NUM_REGS};
use sim_mem::{AccessClass, MemoryHierarchy, PrefetchSource};

/// Lanes per invocation in the paper's configuration (Section 4.2:
/// 16 AVX-512 vectors × 8 scalar-equivalent lanes).
pub const MAX_LANES: usize = 128;

/// Hard ceiling on lanes the walker supports — twice the paper's setup,
/// for the Section 6.1 "wider 256-element DVR" extension (a larger VRAT
/// and more physical vector registers).
pub const ABSOLUTE_MAX_LANES: usize = 256;

/// Scalar-equivalent lanes per vector uop (8 × 64-bit in AVX-512).
pub const VECTOR_WIDTH: usize = 8;

/// Instructions one runahead invocation executes before it times out
/// (paper: 200), for VR's chain and DVR's subthread alike.
pub(crate) const RUNAHEAD_TIMEOUT: usize = 200;

/// How diverging lanes are handled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivergenceMode {
    /// Vector Runahead: follow lane 0's control flow; lanes that diverge
    /// are invalidated (Section 3, observation 5).
    MaskOff,
    /// DVR: GPU-style divergence with an 8-entry reconvergence stack
    /// (Section 4.2.3).
    Reconverge,
}

/// Walker policy knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalkPolicy {
    /// Divergence handling.
    pub divergence: DivergenceMode,
    /// Vector uops issued per cycle (spare-slot budget for the subthread;
    /// VR runs during a stall and gets more).
    pub issue_rate: u32,
    /// Instruction timeout per invocation ([`WalkPolicy::dvr`] and
    /// [`WalkPolicy::vr`] use the paper's 200).
    pub timeout: usize,
    /// Provenance for prefetched lines.
    pub source: PrefetchSource,
    /// Reconvergence-stack entries (paper: 8).
    pub stack_depth: usize,
}

impl WalkPolicy {
    /// The DVR subthread policy.
    pub fn dvr() -> Self {
        WalkPolicy {
            divergence: DivergenceMode::Reconverge,
            issue_rate: 2,
            timeout: RUNAHEAD_TIMEOUT,
            source: PrefetchSource::Dvr,
            stack_depth: 8,
        }
    }

    /// The VR runahead policy.
    pub fn vr() -> Self {
        WalkPolicy {
            divergence: DivergenceMode::MaskOff,
            issue_rate: 4,
            timeout: RUNAHEAD_TIMEOUT,
            source: PrefetchSource::Vr,
            stack_depth: 0,
        }
    }
}

/// When a lane group stops walking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Termination {
    /// The Final-Load-Register PC: terminate after executing this load.
    /// `None` when Discovery Mode suppressed the FLR (divergent paths,
    /// footnote 1) or never found one.
    pub flr_pc: Option<usize>,
    /// The striding load's PC: reaching it again means the next iteration
    /// started — the chain for this lane is complete.
    pub stride_pc: usize,
}

/// The starting state of one lane.
#[derive(Clone, Copy, Debug)]
pub struct LaneSeed {
    /// Initial architectural registers for the lane.
    pub regs: [u64; NUM_REGS],
    /// Overridden address for the lane's copy of the striding load.
    pub stride_addr: u64,
}

/// Builds lane seeds for `count` future iterations of a striding load:
/// lane *i* covers `trigger_addr + (i+1)·stride` (Section 4.2's Vectorizer).
pub fn stride_seeds(
    regs: [u64; NUM_REGS],
    trigger_addr: u64,
    stride: i64,
    count: usize,
) -> Vec<LaneSeed> {
    stride_seeds_from(regs, trigger_addr, stride, 1, count)
}

/// Like [`stride_seeds`], but starting `first` iterations ahead: lane *i*
/// covers `trigger_addr + (first + i)·stride`. Used by DVR's coverage
/// tracking so consecutive episodes extend the prefetch frontier rather
/// than re-covering it.
pub fn stride_seeds_from(
    regs: [u64; NUM_REGS],
    trigger_addr: u64,
    stride: i64,
    first: u64,
    count: usize,
) -> Vec<LaneSeed> {
    (0..count.min(ABSOLUTE_MAX_LANES) as u64)
        .map(|i| LaneSeed {
            regs,
            stride_addr: trigger_addr
                .wrapping_add((stride.wrapping_mul((first + i) as i64)) as u64),
        })
        .collect()
}

/// Outcome of one walker invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkOutcome {
    /// Cycle the last memory data returned (full chain completion).
    pub end_cycle: u64,
    /// Cycle the last vector uop *issued*. Runahead terminates once the
    /// final prefetches have been generated (paper Section 2.3 "delayed
    /// termination" ends at generation, and the DVR subthread frees at
    /// termination, not at fill): use this for commit-unblock / re-arm.
    pub issue_done: u64,
    /// Lockstep instructions executed.
    pub instructions: usize,
    /// Scalar-equivalent lane loads issued to the hierarchy.
    pub lane_loads: u64,
    /// Whether any control-flow divergence occurred.
    pub diverged: bool,
    /// Lanes invalidated by divergence (MaskOff mode) or stack overflow.
    pub lanes_lost: usize,
}

#[derive(Clone, Debug)]
struct Group {
    pc: usize,
    /// Active lane indices (ordered).
    lanes: Vec<usize>,
}

/// Walks a vectorized indirect chain.
///
/// `t0` is the spawn cycle; the walker issues gathers through `hier`
/// (contending for MSHRs and DRAM bandwidth with the main thread) and
/// returns when every lane has terminated, timed out, or been invalidated.
///
/// The walker is purely speculative: it reads the live memory image and
/// never writes it (stores are suppressed, matching transient runahead
/// semantics).
pub fn walk_vectorized(
    prog: &Program,
    mem: &SparseMemory,
    hier: &mut MemoryHierarchy,
    t0: u64,
    seeds: &[LaneSeed],
    term: Termination,
    policy: &WalkPolicy,
) -> WalkOutcome {
    let mut out = WalkOutcome { end_cycle: t0, issue_done: t0, ..WalkOutcome::default() };
    if seeds.is_empty() {
        return out;
    }
    let n = seeds.len().min(ABSOLUTE_MAX_LANES);
    let mut lanes: Vec<[u64; NUM_REGS]> = seeds[..n].iter().map(|s| s.regs).collect();

    let stride_instr = match prog.fetch(term.stride_pc) {
        Some(i) => *i,
        None => return out,
    };

    let mut vtt: u16 = 0;
    // Scoreboard: cycle at which each architectural register's (vectorized)
    // value is available. The subthread issues in order, but completes out
    // of order — the Vector Issue Register overlaps vector copies
    // (Section 4.2.2), so only *true dependences* wait on memory.
    let mut reg_ready = [t0; NUM_REGS];
    let mut issue_cursor = t0;

    // --- Execute the vectorized striding load itself. -------------------
    let (rd, width) = match stride_instr {
        Instr::Load { rd, width, .. } => (rd, width),
        _ => return out,
    };
    // Observation for the audits: while the hierarchy observes, every lane
    // step is reported with its static pc, and each lane carries a
    // secret-taint mask seeded by its own striding load. The plain path
    // allocates and computes nothing, and no mask bit ever feeds timing.
    let observing = hier.observing();
    let mut taint: Vec<u16> = if observing { vec![0u16; n] } else { Vec::new() };
    let uops = n.div_ceil(VECTOR_WIDTH) as u64;
    let span = uops.div_ceil(policy.issue_rate as u64);
    let mut done_at = issue_cursor + span;
    for (i, seed) in seeds[..n].iter().enumerate() {
        let t_issue = issue_cursor + (i / VECTOR_WIDTH) as u64 / policy.issue_rate as u64;
        let acc = hier.load(t_issue, seed.stride_addr, AccessClass::Prefetch(policy.source));
        done_at = done_at.max(acc.complete_at);
        out.lane_loads += 1;
        if observing {
            let (pc, load) = (term.stride_pc, Some((seed.stride_addr, width.bytes())));
            hier.observe_lane_step(prog, pc, &stride_instr, &mut taint[i], load, policy.source);
        }
        // Functional effect: load the value and fix up the address registers
        // so dependent instructions compute lane-correct values.
        lanes[i][rd.index()] = mem.read(seed.stride_addr, width.bytes());
        fixup_address_regs(&stride_instr, &mut lanes[i], seed.stride_addr);
    }
    issue_cursor += span;
    reg_ready[rd.index()] = done_at;
    out.issue_done = issue_cursor;
    out.end_cycle = done_at;
    vtt |= rd.bit();
    out.instructions += 1;

    // --- Lockstep walk of the dependent chain. --------------------------
    let mut current = Group { pc: term.stride_pc + 1, lanes: (0..n).collect() };
    let mut stack: Vec<Group> = Vec::new();
    let mut budget = policy.timeout;

    'walk: loop {
        if budget == 0 {
            break;
        }
        budget -= 1;

        let pc = current.pc;
        // Coming back around to the striding load = next iteration: the
        // chain is complete for this group.
        if pc == term.stride_pc {
            if !next_group(&mut current, &mut stack) {
                break;
            }
            continue;
        }
        let Some(instr) = prog.fetch(pc).copied() else {
            if !next_group(&mut current, &mut stack) {
                break;
            }
            continue;
        };
        if matches!(instr, Instr::Halt) {
            if !next_group(&mut current, &mut stack) {
                break;
            }
            continue;
        }

        // Taint: does this instruction depend (transitively) on the stride?
        let tainted = instr.srcs().any(|r| vtt & r.bit() != 0);
        if let Some(dst) = instr.dst() {
            if tainted {
                vtt |= dst.bit();
            } else {
                vtt &= !dst.bit();
            }
        }

        // Timing: vectorized instructions issue one uop per VECTOR_WIDTH
        // lanes; scalar (untainted) work is a single uop. Issue waits for
        // in-order slots and for the instruction's *sources* (scoreboard);
        // independent loads overlap.
        let uops = if tainted { (n.div_ceil(VECTOR_WIDTH)) as u64 } else { 1 };
        let issue_span = uops.div_ceil(policy.issue_rate as u64).max(1);
        let srcs_ready = instr.srcs().map(|r| reg_ready[r.index()]).max().unwrap_or(issue_cursor);
        let start = issue_cursor.max(srcs_ready);

        // Execute per lane.
        let mut next_pcs: Vec<(usize, usize)> = Vec::with_capacity(current.lanes.len());
        let mut load_done = start + issue_span;
        for (k, &lane) in current.lanes.iter().enumerate() {
            let eff = exec_lane(prog, pc, &mut lanes[lane], mem);
            if let Some((addr, _)) = eff.load {
                let t_issue = start + (k / VECTOR_WIDTH) as u64 / policy.issue_rate as u64;
                let acc = hier.load(t_issue, addr, AccessClass::Prefetch(policy.source));
                load_done = load_done.max(acc.complete_at);
                out.lane_loads += 1;
            }
            if observing {
                hier.observe_lane_step(prog, pc, &instr, &mut taint[lane], eff.load, policy.source);
            }
            next_pcs.push((lane, eff.next_pc));
        }
        out.instructions += 1;
        issue_cursor = start + issue_span;
        out.issue_done = out.issue_done.max(issue_cursor);
        if let Some(dst) = instr.dst() {
            reg_ready[dst.index()] = if instr.is_load() { load_done } else { start + issue_span };
        }
        out.end_cycle = out.end_cycle.max(load_done);

        // FLR termination: the final dependent load has executed.
        if Some(pc) == term.flr_pc {
            if !next_group(&mut current, &mut stack) {
                break;
            }
            continue;
        }

        // Control flow.
        let first_pc = next_pcs[0].1;
        if next_pcs.iter().all(|(_, p)| *p == first_pc) {
            current.pc = first_pc;
            continue;
        }
        out.diverged = true;
        match policy.divergence {
            DivergenceMode::MaskOff => {
                // Keep only lanes agreeing with the group's first lane.
                let keep: Vec<usize> =
                    next_pcs.iter().filter(|(_, p)| *p == first_pc).map(|(l, _)| *l).collect();
                out.lanes_lost += current.lanes.len() - keep.len();
                current = Group { pc: first_pc, lanes: keep };
            }
            DivergenceMode::Reconverge => {
                // Partition lanes by target; follow the first group, stack
                // the rest (dropping overflow beyond the stack depth).
                let mut targets: Vec<(usize, Vec<usize>)> = Vec::new();
                for (lane, p) in &next_pcs {
                    match targets.iter_mut().find(|(tp, _)| tp == p) {
                        Some((_, v)) => v.push(*lane),
                        None => targets.push((*p, vec![*lane])),
                    }
                }
                let mut iter = targets.into_iter();
                let (tp, tl) = iter.next().expect("divergence implies lanes");
                current = Group { pc: tp, lanes: tl };
                for (tp, tl) in iter {
                    if stack.len() < policy.stack_depth {
                        stack.push(Group { pc: tp, lanes: tl });
                    } else {
                        out.lanes_lost += tl.len();
                    }
                }
            }
        }
        if current.lanes.is_empty() && !next_group(&mut current, &mut stack) {
            break 'walk;
        }
    }

    out.end_cycle = out.end_cycle.max(out.issue_done);
    out
}

/// Pops the next divergent group off the reconvergence stack into
/// `current`; returns `false` when the stack is empty (walk complete).
fn next_group(current: &mut Group, stack: &mut Vec<Group>) -> bool {
    match stack.pop() {
        Some(g) => {
            *current = g;
            true
        }
        None => false,
    }
}

/// After overriding a striding load's address for a lane, make the lane's
/// address registers consistent so later uses of the index (or bumped
/// pointer) compute lane-correct values.
pub fn fixup_address_regs(instr: &Instr, regs: &mut [u64; NUM_REGS], actual_addr: u64) {
    if let Instr::Load { addr, .. } = instr {
        match addr.index {
            Some(ix) => {
                // base + (index << scale) + offset = actual
                let base = regs[addr.base.index()].wrapping_add(addr.offset as u64);
                regs[ix.index()] = actual_addr.wrapping_sub(base) >> addr.scale;
            }
            None => {
                // Pointer-bump style: adjust the base.
                regs[addr.base.index()] = actual_addr.wrapping_sub(addr.offset as u64);
            }
        }
    }
}

/// Scalar forward walk used to locate a striding load ahead of the frontier
/// (VR's pre-vectorization scan) or to skip an inner loop (Nested Discovery
/// Mode, with `force_not_taken` set to the loop-back branch PC).
///
/// Returns the PC where `stop` matched, with `regs` updated in place, or
/// `None` if the budget expired first.
pub fn walk_scalar_until(
    prog: &Program,
    mem: &SparseMemory,
    regs: &mut [u64; NUM_REGS],
    start_pc: usize,
    budget: usize,
    force_not_taken: Option<usize>,
    mut stop: impl FnMut(usize, &Instr, &[u64; NUM_REGS]) -> bool,
) -> Option<usize> {
    let mut pc = start_pc;
    for _ in 0..budget {
        let instr = prog.fetch(pc)?;
        if stop(pc, instr, regs) {
            return Some(pc);
        }
        if matches!(instr, Instr::Halt) {
            return None;
        }
        if force_not_taken == Some(pc) && instr.is_cond_branch() {
            pc += 1;
            continue;
        }
        let eff = exec_lane(prog, pc, regs, mem);
        if eff.halted {
            return None;
        }
        pc = eff.next_pc;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Reg;
    use sim_isa::{Asm, MemWidth};
    use sim_mem::{HierarchyConfig, HitLevel};

    /// Program: for i { v = A[i]; w = B[v]; C_flag = w&1; if flag { x = D[w] } }
    fn chain_program() -> (Program, usize, usize) {
        chain_program_with(false)
    }

    fn chain_program_with(secret_a: bool) -> (Program, usize, usize) {
        let mut asm = Asm::new();
        if secret_a {
            asm.secret(0x10_0000, 8 * 2048);
        }
        let (a, b, d, i, n, v, w, c, f) =
            (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9);
        asm.li(a, 0x10_0000);
        asm.li(b, 0x20_0000);
        asm.li(d, 0x30_0000);
        asm.li(i, 0);
        asm.li(n, 1000);
        let top = asm.here();
        let stride_pc = asm.pc();
        asm.ld8_idx(v, a, i, 3); // striding load
        let dep_pc = asm.pc();
        asm.ld8_idx(w, b, v, 3); // dependent load (FLR candidate)
        asm.andi(f, w, 1);
        let skip = asm.label();
        asm.bez(f, skip);
        asm.ld8_idx(c, d, w, 3); // conditional dependent load
        asm.bind(skip);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        (asm.finish().unwrap(), stride_pc, dep_pc)
    }

    fn setup_mem() -> SparseMemory {
        let mut mem = SparseMemory::new();
        let mut x: u64 = 42;
        for k in 0..2048u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            mem.write_u64(0x10_0000 + 8 * k, (x >> 33) % 1024);
            mem.write_u64(0x20_0000 + 8 * k, (x >> 21) % 1024);
        }
        mem
    }

    fn seeds_for(prog: &Program, _stride_pc: usize, count: usize) -> Vec<LaneSeed> {
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::R1.index()] = 0x10_0000;
        regs[Reg::R2.index()] = 0x20_0000;
        regs[Reg::R3.index()] = 0x30_0000;
        regs[Reg::R5.index()] = 1000;
        let _ = prog;
        stride_seeds(regs, 0x10_0000, 8, count)
    }

    #[test]
    fn walker_prefetches_all_levels_of_the_chain() {
        let (prog, stride_pc, _dep) = chain_program();
        let mem = setup_mem();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let seeds = seeds_for(&prog, stride_pc, 32);
        let out = walk_vectorized(
            &prog,
            &mem,
            &mut hier,
            0,
            &seeds,
            Termination { flr_pc: None, stride_pc },
            &WalkPolicy::dvr(),
        );
        // 32 stride loads + 32 dependent loads + conditional D loads.
        assert!(out.lane_loads >= 64, "lane loads {}", out.lane_loads);
        assert!(out.end_cycle > 200, "must have waited for memory");
        // The lines for A[1..33] must now be resident/prefetched.
        for i in 1..=32u64 {
            let addr = 0x10_0000 + 8 * i;
            let acc = hier.load(out.end_cycle + 10_000, addr, AccessClass::Demand);
            assert_ne!(acc.level, HitLevel::Mem, "A[{i}] should be on chip");
        }
    }

    /// Program with loads down *both* branch arms:
    /// for i { v=A[i]; w=B[v]; if (w&1) x=D[w]; else x=E[w]; }
    fn ifelse_program() -> (Program, usize) {
        let mut asm = Asm::new();
        let (a, b, d, e) = (Reg::R1, Reg::R2, Reg::R3, Reg::R10);
        let (i, n, v, w, c, f, x) =
            (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R11);
        asm.li(a, 0x10_0000);
        asm.li(b, 0x20_0000);
        asm.li(d, 0x30_0000);
        asm.li(e, 0x40_0000);
        asm.li(i, 0);
        asm.li(n, 1000);
        let top = asm.here();
        let stride_pc = asm.pc();
        asm.ld8_idx(v, a, i, 3);
        asm.ld8_idx(w, b, v, 3);
        asm.andi(f, w, 1);
        let else_arm = asm.label();
        let join = asm.label();
        asm.bez(f, else_arm);
        asm.ld8_idx(x, d, w, 3);
        asm.jmp(join);
        asm.bind(else_arm);
        asm.ld8_idx(x, e, w, 3);
        asm.bind(join);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        (asm.finish().unwrap(), stride_pc)
    }

    #[test]
    fn secret_fills_logged_only_when_armed_and_timing_neutral() {
        let (prog, stride_pc, dep_pc) = chain_program_with(true);
        let mem = setup_mem();
        let run = |armed: bool| {
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            if armed {
                hier.observe();
            }
            let seeds = seeds_for(&prog, stride_pc, 32);
            let out = walk_vectorized(
                &prog,
                &mem,
                &mut hier,
                0,
                &seeds,
                Termination { flr_pc: None, stride_pc },
                &WalkPolicy::dvr(),
            );
            (out, hier)
        };
        let (armed, mut hier) = run(true);
        let (plain, _) = run(false);
        assert_eq!(armed.end_cycle, plain.end_cycle, "shadow must not change timing");
        assert_eq!(armed.lane_loads, plain.lane_loads);
        let log = hier.take_observations().expect("armed observer").taint_fills;
        // Every lane's B[v] gather (and conditional D[w]) has a
        // secret-derived address: at least the 32 dependent loads transmit.
        assert!(log.len() >= 32, "fills {}", log.len());
        assert!(log.iter().all(|f| f.source == PrefetchSource::Dvr));
        assert!(log.iter().all(|f| f.pc == dep_pc || f.pc == dep_pc + 3), "{log:?}");
        // Without the secret declaration nothing transmits.
        let (prog2, stride2, _) = chain_program();
        let mut hier2 = MemoryHierarchy::new(HierarchyConfig::default());
        hier2.observe();
        let seeds = seeds_for(&prog2, stride2, 32);
        walk_vectorized(
            &prog2,
            &mem,
            &mut hier2,
            0,
            &seeds,
            Termination { flr_pc: None, stride_pc: stride2 },
            &WalkPolicy::dvr(),
        );
        assert_eq!(hier2.take_observations().unwrap().taint_fills, vec![]);
    }

    #[test]
    fn reconvergence_covers_divergent_lanes() {
        let (prog, stride_pc) = ifelse_program();
        let mem = setup_mem();

        let run = |mode| {
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let seeds = seeds_for(&prog, stride_pc, 64);
            let mut policy = WalkPolicy::dvr();
            policy.divergence = mode;
            walk_vectorized(
                &prog,
                &mem,
                &mut hier,
                0,
                &seeds,
                Termination { flr_pc: None, stride_pc },
                &policy,
            )
        };
        let reconv = run(DivergenceMode::Reconverge);
        let maskoff = run(DivergenceMode::MaskOff);
        assert!(reconv.diverged && maskoff.diverged);
        // Every lane loads A, B, and exactly one of D/E: reconvergence
        // covers all 64x3; mask-off loses the lanes on the other arm.
        assert_eq!(reconv.lane_loads, 64 * 3);
        assert!(
            reconv.lane_loads > maskoff.lane_loads,
            "reconvergence ({}) must cover more lanes than mask-off ({})",
            reconv.lane_loads,
            maskoff.lane_loads
        );
        assert!(maskoff.lanes_lost > 0);
        assert_eq!(reconv.lanes_lost, 0, "8-deep stack suffices for one if/else");
    }

    #[test]
    fn walker_respects_timeout() {
        // An infinite inner loop the walker cannot leave.
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x1000);
        let stride_pc = asm.pc();
        asm.ld8(Reg::R2, Reg::R1, 0);
        let spin = asm.here();
        asm.addi(Reg::R3, Reg::R3, 1);
        asm.jmp(spin);
        let prog = asm.finish().unwrap();
        let mem = SparseMemory::new();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let seeds = stride_seeds([0; NUM_REGS], 0x1000, 8, 16);
        let mut policy = WalkPolicy::dvr();
        policy.timeout = 50;
        let out = walk_vectorized(
            &prog,
            &mem,
            &mut hier,
            0,
            &seeds,
            Termination { flr_pc: None, stride_pc },
            &policy,
        );
        assert!(out.instructions <= 52, "instructions {}", out.instructions);
    }

    #[test]
    fn flr_terminates_early() {
        let (prog, stride_pc, dep_pc) = chain_program();
        let mem = setup_mem();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let seeds = seeds_for(&prog, stride_pc, 16);
        let out = walk_vectorized(
            &prog,
            &mem,
            &mut hier,
            0,
            &seeds,
            Termination { flr_pc: Some(dep_pc), stride_pc },
            &WalkPolicy::dvr(),
        );
        // Stride + the one dependent load; no conditional D loads, no loop
        // tail.
        assert_eq!(out.instructions, 2);
        assert_eq!(out.lane_loads, 32);
    }

    #[test]
    fn fixup_keeps_index_register_consistent() {
        let (prog, stride_pc, _) = chain_program();
        let instr = *prog.fetch(stride_pc).unwrap();
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::R1.index()] = 0x10_0000;
        regs[Reg::R4.index()] = 5;
        fixup_address_regs(&instr, &mut regs, 0x10_0000 + 8 * 77);
        assert_eq!(regs[Reg::R4.index()], 77);
    }

    #[test]
    fn scalar_walk_stops_at_predicate() {
        let (prog, stride_pc, _) = chain_program();
        let mem = setup_mem();
        let mut regs = [0u64; NUM_REGS];
        let hit = walk_scalar_until(&prog, &mem, &mut regs, 0, 300, None, |pc, i, _| {
            i.is_load() && pc == stride_pc
        });
        assert_eq!(hit, Some(stride_pc));
    }

    #[test]
    fn scalar_walk_budget_expires() {
        let (prog, _, _) = chain_program();
        let mem = setup_mem();
        let mut regs = [0u64; NUM_REGS];
        let hit = walk_scalar_until(&prog, &mem, &mut regs, 0, 10, None, |_, _, _| false);
        assert_eq!(hit, None);
    }

    #[test]
    fn stride_seeds_cover_future_iterations() {
        let seeds = stride_seeds([7; NUM_REGS], 1000, 16, 4);
        let addrs: Vec<u64> = seeds.iter().map(|s| s.stride_addr).collect();
        assert_eq!(addrs, vec![1016, 1032, 1048, 1064]);
        assert!(stride_seeds([0; NUM_REGS], 0, 8, 1000).len() <= ABSOLUTE_MAX_LANES);
    }

    #[test]
    fn empty_seeds_is_a_noop() {
        let (prog, stride_pc, _) = chain_program();
        let mem = SparseMemory::new();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let out = walk_vectorized(
            &prog,
            &mem,
            &mut hier,
            99,
            &[],
            Termination { flr_pc: None, stride_pc },
            &WalkPolicy::dvr(),
        );
        assert_eq!(out.end_cycle, 99);
        assert_eq!(out.lane_loads, 0);
    }

    #[test]
    fn loads_use_memwidth() {
        // 4-byte striding loads work too.
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x5000);
        let stride_pc = asm.pc();
        asm.load(Reg::R2, sim_isa::MemAddr::indexed(Reg::R1, Reg::R3, 2), MemWidth::B4);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        mem.write_u32(0x5004, 0xDEAD);
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::R1.index()] = 0x5000;
        let seeds = stride_seeds(regs, 0x5000, 4, 1);
        let out = walk_vectorized(
            &prog,
            &mem,
            &mut hier,
            0,
            &seeds,
            Termination { flr_pc: None, stride_pc },
            &WalkPolicy::dvr(),
        );
        assert_eq!(out.lane_loads, 1);
    }
}
