//! Symbolic affine address analysis.
//!
//! Classifies every load and store by how its effective address evolves
//! across iterations of its innermost natural loop:
//!
//! * [`AddrClass::Affine`] — the address moves by a fixed stride per
//!   iteration (stride 0 = loop-invariant). These are the loads DVR's
//!   stride detector locks on.
//! * [`AddrClass::PointerChase`] — the address is data-dependent on a value
//!   loaded inside the loop; `depth` is the number of loads on the longest
//!   static chain feeding the address. These are the dependent loads
//!   Discovery's Vector Taint Tracker gathers.
//! * [`AddrClass::Irregular`] — the address depends on a non-affine,
//!   non-load recurrence (e.g. `i*i`); neither striding nor chaseable.
//!
//! The per-loop value lattice is
//! `Top > Affine{delta} > LoadDerived{depth} > Unknown`, updated
//! monotonically, so the fixed point always terminates;
//! chase depths saturate at [`MAX_CHASE_DEPTH`] so self-recurrent chains
//! (`p = *p`) converge too. On top of the same machinery, a value-range
//! walk of the cmp+branch latch idiom recovers static loop trip counts.

use sim_isa::{AluOp, BranchCond, Instr, Reg, NUM_REGS};

use crate::absint::{AbsInt, Interval};
use crate::cfg::Cfg;
use crate::dfg::{const_of_defs, const_use, DefSet, DefUseGraph};
use crate::loops::LoopInfo;

/// Chase depths saturate here; a reported depth of `MAX_CHASE_DEPTH` means
/// "at least this deep" (typically a loop-carried `p = *p` recurrence).
pub const MAX_CHASE_DEPTH: usize = 8;

/// How a memory access's address evolves across iterations of its
/// innermost loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddrClass {
    /// Address advances by `stride` bytes per iteration (0 = invariant).
    Affine {
        /// Per-iteration address delta in bytes.
        stride: i64,
    },
    /// Address depends on a value loaded inside the loop; `depth` counts
    /// the loads on the longest chain feeding the address (1 = classic
    /// `a[b[i]]`, saturating at [`MAX_CHASE_DEPTH`]).
    PointerChase {
        /// Static dependent-load chain depth.
        depth: usize,
    },
    /// Address depends on a non-affine, non-load value.
    Irregular,
}

impl std::fmt::Display for AddrClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddrClass::Affine { stride } => write!(f, "affine{stride:+}"),
            AddrClass::PointerChase { depth } => write!(f, "chase(d{depth})"),
            AddrClass::Irregular => write!(f, "irregular"),
        }
    }
}

/// One classified load or store.
#[derive(Clone, Debug)]
pub struct MemOp {
    /// Program counter of the access.
    pub pc: usize,
    /// Whether this is a store.
    pub is_store: bool,
    /// Access width in bytes.
    pub width: u64,
    /// Index into the analysis's loop slice of the innermost loop
    /// containing the access, or `None` outside any loop.
    pub loop_idx: Option<usize>,
    /// The address classification (relative to the innermost loop;
    /// `Affine {stride: 0}` outside loops).
    pub class: AddrClass,
    /// Resolved constant value of the base register, when provable — with
    /// the workload `Layout` convention this names the memory region the
    /// access stays in.
    pub region_base: Option<u64>,
}

/// Per-loop results of the address pass.
#[derive(Clone, Debug)]
pub struct LoopAddr {
    /// Basic induction variables: registers whose single in-loop definition
    /// is `r = r ± imm`, with the per-iteration step.
    pub ivs: Vec<(Reg, i64)>,
    /// Statically inferred trip count (body executions per entry), when the
    /// cmp+branch idiom resolves against a constant bound.
    pub trip_count: Option<u64>,
    /// Inclusive `[lo, hi]` bounds on the trip count. Always present when
    /// `trip_count` is (as `(t, t)`); additionally inferred from the
    /// interval abstract interpretation when the exact walk gives up
    /// because the bound or initial value is only known as a range.
    pub trip_bounds: Option<(u64, u64)>,
}

/// Result of [`analyze_addresses`].
pub struct AddrAnalysis {
    /// Every load and store, ascending by pc.
    pub mem_ops: Vec<MemOp>,
    /// Per-loop info, parallel to the `loops` slice passed in.
    pub loop_addr: Vec<LoopAddr>,
    /// Constant-propagation results per defining pc (re-exported so later
    /// passes share one computation).
    pub known: Vec<Option<u64>>,
}

impl AddrAnalysis {
    /// The classified access at `pc`, if it is a load or store.
    pub fn mem_op_at(&self, pc: usize) -> Option<&MemOp> {
        self.mem_ops.iter().find(|m| m.pc == pc)
    }
}

/// Per-loop value class of a definition site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ValClass {
    /// Not yet computed.
    Top,
    /// Changes by `delta` per iteration (0 = loop-invariant).
    Affine(i64),
    /// Data-dependent on an in-loop load; `depth` = loads on the chain so
    /// far (a root load's value has depth 0).
    LoadDerived(usize),
    /// None of the above.
    Unknown,
}

fn meet(a: ValClass, b: ValClass) -> ValClass {
    use ValClass::*;
    match (a, b) {
        (Top, x) | (x, Top) => x,
        (Unknown, _) | (_, Unknown) => Unknown,
        (Affine(d1), Affine(d2)) => {
            if d1 == d2 {
                Affine(d1)
            } else {
                Unknown
            }
        }
        (LoadDerived(k1), LoadDerived(k2)) => LoadDerived(k1.max(k2).min(MAX_CHASE_DEPTH)),
        (Affine(_), LoadDerived(k)) | (LoadDerived(k), Affine(_)) => LoadDerived(k),
    }
}

/// Everything one loop's classification pass needs to share.
struct LoopCtx<'a> {
    instrs: &'a [Instr],
    dfg: &'a DefUseGraph,
    known: &'a [Option<u64>],
    /// pc -> in this loop's body.
    in_loop: Vec<bool>,
    ivs: Vec<(Reg, i64)>,
    /// Per-pc value class of the definition at that pc (in-loop defs only).
    class: Vec<ValClass>,
}

impl LoopCtx<'_> {
    fn iv_step(&self, reg: Reg) -> Option<i64> {
        self.ivs.iter().find(|(r, _)| *r == reg).map(|&(_, s)| s)
    }

    /// The per-iteration class of the value read from `reg` at `pc`.
    fn use_class(&self, pc: usize, reg: Reg) -> ValClass {
        if let Some(step) = self.iv_step(reg) {
            return ValClass::Affine(step);
        }
        let Some(defs) = self.dfg.defs_for_use(pc, reg) else {
            return ValClass::Unknown;
        };
        self.defs_class(defs)
    }

    fn defs_class(&self, defs: &DefSet) -> ValClass {
        let in_defs: Vec<usize> = defs.pcs.iter().copied().filter(|&d| self.in_loop[d]).collect();
        let has_out = defs.entry || defs.pcs.iter().any(|&d| !self.in_loop[d]);
        if in_defs.is_empty() {
            // Only definitions from outside the loop reach: the value never
            // changes while the loop runs.
            return ValClass::Affine(0);
        }
        let inner = in_defs.iter().fold(ValClass::Top, |acc, &d| meet(acc, self.class[d]));
        if !has_out {
            return inner;
        }
        // Loop-carried recurrence that is not a basic IV. When the in-loop
        // side is a load chain this is a pointer chase (`p = *p`: the entry
        // definition is just the chain head); anything else is beyond the
        // affine model.
        match inner {
            ValClass::LoadDerived(k) => ValClass::LoadDerived(k),
            ValClass::Top => ValClass::Top,
            _ => ValClass::Unknown,
        }
    }

    /// Constant value of the read of `reg` at `pc`, if provable.
    fn use_const(&self, pc: usize, reg: Reg) -> Option<u64> {
        const_use(self.dfg, self.known, pc, reg)
    }

    fn transfer(&self, pc: usize) -> ValClass {
        use ValClass::*;
        match self.instrs[pc] {
            Instr::Imm { .. } => Affine(0),
            Instr::Load { addr, .. } => match self.addr_class_at(pc, &addr) {
                AddrClass::PointerChase { depth } => LoadDerived(depth.min(MAX_CHASE_DEPTH)),
                _ => LoadDerived(0),
            },
            Instr::Alu { op, ra, rb, .. } => {
                let ca = self.use_class(pc, ra);
                let cb = self.use_class(pc, rb);
                self.alu_class(op, ca, cb, self.use_const(pc, ra), self.use_const(pc, rb))
            }
            Instr::AluImm { op, ra, imm, .. } => {
                let ca = self.use_class(pc, ra);
                self.alu_class(op, ca, Affine(0), self.use_const(pc, ra), Some(imm as u64))
            }
            // Branches/stores/halt define nothing; treat defensively.
            _ => Unknown,
        }
    }

    fn alu_class(
        &self,
        op: AluOp,
        ca: ValClass,
        cb: ValClass,
        va: Option<u64>,
        vb: Option<u64>,
    ) -> ValClass {
        use ValClass::*;
        match (ca, cb) {
            (Top, _) | (_, Top) => return Top,
            (Unknown, _) | (_, Unknown) => return Unknown,
            (LoadDerived(k1), LoadDerived(k2)) => return LoadDerived(k1.max(k2)),
            // Arithmetic on a loaded value keeps the data dependence (this
            // mirrors Discovery's taint propagation bit-for-bit).
            (LoadDerived(k), _) | (_, LoadDerived(k)) => return LoadDerived(k),
            (Affine(_), Affine(_)) => {}
        }
        let (da, db) = match (ca, cb) {
            (Affine(da), Affine(db)) => (da, db),
            _ => unreachable!("non-affine handled above"),
        };
        match op {
            AluOp::Add => Affine(da.wrapping_add(db)),
            AluOp::Sub => Affine(da.wrapping_sub(db)),
            AluOp::Shl if db == 0 => match (da, vb) {
                (0, _) => Affine(0),
                (_, Some(c)) if c < 63 => Affine(da.wrapping_shl(c as u32)),
                _ => Unknown,
            },
            AluOp::Mul => match (da, db, va, vb) {
                (0, 0, _, _) => Affine(0),
                (_, 0, _, Some(c)) => Affine(da.wrapping_mul(c as i64)),
                (0, _, Some(c), _) => Affine(db.wrapping_mul(c as i64)),
                _ => Unknown,
            },
            // Everything else preserves invariance but not affinity.
            _ if da == 0 && db == 0 => Affine(0),
            _ => Unknown,
        }
    }

    /// Address class of the access at `pc` given the current value classes.
    fn addr_class_at(&self, pc: usize, addr: &sim_isa::MemAddr) -> AddrClass {
        let base = self.use_class(pc, addr.base);
        let (index, scale) = match addr.index {
            Some(ix) => (self.use_class(pc, ix), addr.scale),
            None => (ValClass::Affine(0), 0),
        };
        use ValClass::*;
        match (base, index) {
            (Top, _) | (_, Top) => AddrClass::Irregular, // resolves next round
            (Unknown, _) | (_, Unknown) => AddrClass::Irregular,
            (LoadDerived(k1), LoadDerived(k2)) => {
                AddrClass::PointerChase { depth: (k1.max(k2) + 1).min(MAX_CHASE_DEPTH) }
            }
            (LoadDerived(k), Affine(_)) | (Affine(_), LoadDerived(k)) => {
                AddrClass::PointerChase { depth: (k + 1).min(MAX_CHASE_DEPTH) }
            }
            (Affine(db), Affine(di)) => {
                AddrClass::Affine { stride: db.wrapping_add(di.wrapping_shl(scale as u32)) }
            }
        }
    }
}

/// Whether `pc` falls inside the body of `l`.
pub(crate) fn pc_in_loop(cfg: &Cfg, l: &LoopInfo, pc: usize) -> bool {
    l.body.contains(&cfg.block_of(pc))
}

fn body_pc_count(cfg: &Cfg, l: &LoopInfo) -> usize {
    l.body.iter().map(|&b| cfg.blocks[b].end - cfg.blocks[b].start).sum()
}

/// Index into `loops` of the innermost loop containing `pc`.
pub(crate) fn innermost_loop(cfg: &Cfg, loops: &[LoopInfo], pc: usize) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, l)| pc_in_loop(cfg, l, pc))
        .min_by_key(|(_, l)| body_pc_count(cfg, l))
        .map(|(i, _)| i)
}

fn collect_ivs(cfg: &Cfg, instrs: &[Instr], l: &LoopInfo) -> Vec<(Reg, i64)> {
    let mut defs = [0usize; NUM_REGS];
    let pcs: Vec<usize> =
        l.body.iter().flat_map(|&b| cfg.blocks[b].start..cfg.blocks[b].end).collect();
    for &pc in &pcs {
        if let Some(rd) = instrs[pc].dst() {
            defs[rd.index()] += 1;
        }
    }
    let mut ivs = Vec::new();
    for &pc in &pcs {
        if let Instr::AluImm { op, rd, ra, imm } = instrs[pc] {
            let step = match op {
                AluOp::Add => imm,
                AluOp::Sub => -imm,
                _ => continue,
            };
            if rd == ra && defs[rd.index()] == 1 {
                ivs.push((rd, step));
            }
        }
    }
    ivs
}

/// Runs the address pass: per-loop value classification, per-access
/// [`AddrClass`], and trip-count inference. `loops` must come from
/// [`crate::find_loops`] on the same CFG.
pub fn analyze_addresses(
    cfg: &Cfg,
    instrs: &[Instr],
    dfg: &DefUseGraph,
    loops: &[LoopInfo],
) -> AddrAnalysis {
    analyze_addresses_with(cfg, instrs, dfg, loops, None)
}

/// [`analyze_addresses`] with an optional interval analysis
/// ([`crate::analyze_intervals`]) over the same program. When supplied,
/// loops whose exact trip count is unprovable may still get
/// [`LoopAddr::trip_bounds`] from the corner values of the IV-initial and
/// bound intervals.
pub fn analyze_addresses_with(
    cfg: &Cfg,
    instrs: &[Instr],
    dfg: &DefUseGraph,
    loops: &[LoopInfo],
    intervals: Option<&AbsInt>,
) -> AddrAnalysis {
    let known = crate::dfg::known_constants(instrs, dfg);
    addresses_over(cfg, instrs, dfg, known, loops, intervals)
}

/// [`analyze_addresses_with`] over constants the caller already propagated
/// (`known`, which the result then owns as [`AddrAnalysis::known`]).
pub(crate) fn addresses_over(
    cfg: &Cfg,
    instrs: &[Instr],
    dfg: &DefUseGraph,
    known: Vec<Option<u64>>,
    loops: &[LoopInfo],
    intervals: Option<&AbsInt>,
) -> AddrAnalysis {
    // Classify per loop, innermost-first is irrelevant: each access is
    // classified against its own innermost loop only.
    let mut per_loop_ctx: Vec<LoopCtx> = loops
        .iter()
        .map(|l| {
            let mut in_loop = vec![false; instrs.len()];
            for &b in &l.body {
                in_loop[cfg.blocks[b].start..cfg.blocks[b].end].fill(true);
            }
            LoopCtx {
                instrs,
                dfg,
                known: &known,
                in_loop,
                ivs: collect_ivs(cfg, instrs, l),
                class: vec![ValClass::Top; instrs.len()],
            }
        })
        .collect();

    for ctx in &mut per_loop_ctx {
        // Monotone fixed point; the lattice height bounds the rounds but we
        // cap defensively anyway.
        let max_rounds = 4 * (MAX_CHASE_DEPTH + 2) + instrs.len();
        for _ in 0..max_rounds {
            let mut changed = false;
            for (pc, ins) in instrs.iter().enumerate() {
                if !ctx.in_loop[pc] || ins.dst().is_none() {
                    continue;
                }
                let next = ctx.transfer(pc);
                let merged = meet(ctx.class[pc], next);
                if merged != ctx.class[pc] {
                    ctx.class[pc] = merged;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Anything still Top after the fixed point is unreachable or
        // blocked on an unreachable cycle; resolve pessimistically.
        for c in &mut ctx.class {
            if *c == ValClass::Top {
                *c = ValClass::Unknown;
            }
        }
    }

    // Classify every access against its innermost loop.
    let mut mem_ops = Vec::new();
    for (pc, instr) in instrs.iter().enumerate() {
        let (addr, width, is_store) = match *instr {
            Instr::Load { addr, width, .. } => (addr, width.bytes(), false),
            Instr::Store { addr, width, .. } => (addr, width.bytes(), true),
            _ => continue,
        };
        let loop_idx = innermost_loop(cfg, loops, pc);
        let class = match loop_idx {
            Some(li) => per_loop_ctx[li].addr_class_at(pc, &addr),
            None => AddrClass::Affine { stride: 0 },
        };
        let region_base = const_use(dfg, &known, pc, addr.base);
        mem_ops.push(MemOp { pc, is_store, width, loop_idx, class, region_base });
    }

    let loop_addr: Vec<LoopAddr> = loops
        .iter()
        .zip(&per_loop_ctx)
        .map(|(l, ctx)| {
            let trip_count = trip_count(cfg, instrs, dfg, &known, l, &ctx.ivs);
            let trip_bounds = match trip_count {
                Some(t) => Some((t, t)),
                None => intervals.and_then(|ai| trip_bounds(cfg, instrs, dfg, l, &ctx.ivs, ai)),
            };
            LoopAddr { ivs: ctx.ivs.clone(), trip_count, trip_bounds }
        })
        .collect();

    AddrAnalysis { mem_ops, loop_addr, known }
}

/// The matched `cmp` + backward-branch latch idiom, shared between the
/// exact trip-count walk and the interval trip-bounds walk.
struct LatchIdiom {
    op: AluOp,
    cond: BranchCond,
    cmp_pc: usize,
    iv_reg: Reg,
    step: i64,
    iv_is_lhs: bool,
    /// The non-IV compare operand: `Ok(reg)` for a register, `Err(imm)`
    /// for an immediate bound.
    bound: Result<Reg, u64>,
    /// The IV's single in-loop definition (first body pc defining it).
    iv_def_pc: usize,
    /// Increments executed before the k-th compare: 1 per completed
    /// iteration, plus this iteration's if the increment precedes the cmp.
    pre: i64,
}

fn match_latch_idiom(
    cfg: &Cfg,
    instrs: &[Instr],
    l: &LoopInfo,
    ivs: &[(Reg, i64)],
) -> Option<LatchIdiom> {
    let cmp_pc = l.cmp_pc?;
    let Instr::Branch { cond, target, .. } = instrs[l.latch_pc] else {
        return None;
    };
    if target != l.head_pc {
        return None;
    }

    // The compare: one side the IV, the other the loop bound.
    let (op, iv, iv_is_lhs, bound) = match instrs[cmp_pc] {
        Instr::Alu { op, ra, rb, .. } if op.is_compare() => {
            let a_iv = ivs.iter().find(|(r, _)| *r == ra);
            let b_iv = ivs.iter().find(|(r, _)| *r == rb);
            match (a_iv, b_iv) {
                (Some(&iv), None) => (op, iv, true, Ok(rb)),
                (None, Some(&iv)) => (op, iv, false, Ok(ra)),
                _ => return None,
            }
        }
        Instr::AluImm { op, ra, imm, .. } if op.is_compare() => {
            let iv = *ivs.iter().find(|(r, _)| *r == ra)?;
            (op, iv, true, Err(imm as u64))
        }
        _ => return None,
    };
    let (iv_reg, step) = iv;
    if step == 0 {
        return None;
    }
    let iv_def_pc = l
        .body
        .iter()
        .flat_map(|&b| cfg.blocks[b].start..cfg.blocks[b].end)
        .find(|&pc| instrs[pc].dst() == Some(iv_reg))?;
    let pre = i64::from(iv_def_pc < cmp_pc);
    Some(LatchIdiom { op, cond, cmp_pc, iv_reg, step, iv_is_lhs, bound, iv_def_pc, pre })
}

/// The IV's value the `k`-th time the compare executes, computed without
/// wrapping: `None` when the exact affine progression leaves the signed
/// 64-bit range. The executor would wrap there, and a walk through a wrap
/// proves nothing about when the loop exits.
fn iv_value_at(init: i64, step: i64, pre: i64, k: u64) -> Option<u64> {
    let hops = (k as i128) - 1 + i128::from(pre);
    let v = i128::from(init).checked_add(i128::from(step).checked_mul(hops)?)?;
    i64::try_from(v).ok().map(|x| x as u64)
}

/// Binary-searches the first failing compare of an `slt`/`sltu` latch for
/// concrete initial and bound values. With the progression confined to the
/// signed range the signed continue predicate is monotone in `k`, so a
/// single true→false switch point exists. `nonneg` further confines every
/// probed value to `[0, 2^63)`, where the signed and unsigned orders
/// agree — required for `sltu` (whose unsigned view is not monotone across
/// a sign change) and for the interval walk's corner argument.
fn count_lt(idiom: &LatchIdiom, init: i64, bound: u64, nonneg: bool) -> Option<u64> {
    let continues = |k: u64| -> Option<bool> {
        let v = iv_value_at(init, idiom.step, idiom.pre, k)?;
        if nonneg && (v as i64) < 0 {
            return None;
        }
        let (x, y) = if idiom.iv_is_lhs { (v, bound) } else { (bound, v) };
        Some(idiom.cond.taken(idiom.op.eval(x, y)))
    };
    if !continues(1)? {
        return Some(1);
    }
    let (mut lo, mut hi) = (1u64, 1u64 << 42);
    if continues(hi)? {
        return None;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if continues(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Infers the loop's trip count (body executions per entry from the
/// preheader) from the cmp + backward-branch idiom against a constant
/// bound, mirroring the executor's compare semantics exactly.
fn trip_count(
    cfg: &Cfg,
    instrs: &[Instr],
    dfg: &DefUseGraph,
    known: &[Option<u64>],
    l: &LoopInfo,
    ivs: &[(Reg, i64)],
) -> Option<u64> {
    let idiom = match_latch_idiom(cfg, instrs, l, ivs)?;
    let bound = match idiom.bound {
        Ok(reg) => const_use(dfg, known, idiom.cmp_pc, reg)?,
        Err(imm) => imm,
    };

    // IV initial value: the out-of-loop definitions reaching the IV's
    // single in-loop definition.
    let defs = dfg.defs_for_use(idiom.iv_def_pc, idiom.iv_reg)?;
    let outside = DefSet {
        pcs: defs.pcs.iter().copied().filter(|&d| !pc_in_loop(cfg, l, d)).collect(),
        entry: defs.entry,
    };
    let init = const_of_defs(&outside, known)? as i64;

    match idiom.op {
        AluOp::Slt | AluOp::Sltu => count_lt(&idiom, init, bound, idiom.op == AluOp::Sltu),
        AluOp::Sne => {
            // Continue while v != bound: exits only when the IV lands
            // exactly on the bound. 128-bit exact division, so a countdown
            // whose delta wraps the signed range cannot panic
            // (`i64::MIN % -1`) or fabricate a count.
            let first = iv_value_at(init, idiom.step, idiom.pre, 1)?;
            let delta = i128::from(bound as i64) - i128::from(first as i64);
            let step = i128::from(idiom.step);
            if delta % step != 0 {
                return None;
            }
            u64::try_from(delta / step).ok()?.checked_add(1)
        }
        _ => None,
    }
}

/// Interval generalization of [`trip_count`]: inclusive `[lo, hi]` trip
/// bounds when the IV's initial value or the loop bound is only known as a
/// range. Only the `slt`/`sltu` walk generalizes: with every probed value
/// confined to `[0, 2^63)` the trip count is monotone in both the initial
/// value and the bound, so its extremes over the two intervals are
/// attained at the four corners.
fn trip_bounds(
    cfg: &Cfg,
    instrs: &[Instr],
    dfg: &DefUseGraph,
    l: &LoopInfo,
    ivs: &[(Reg, i64)],
    ai: &AbsInt,
) -> Option<(u64, u64)> {
    let idiom = match_latch_idiom(cfg, instrs, l, ivs)?;
    if !matches!(idiom.op, AluOp::Slt | AluOp::Sltu) {
        return None;
    }
    let bound_iv = match idiom.bound {
        Ok(reg) => ai.reg_before(idiom.cmp_pc, reg)?,
        Err(imm) => Interval::exact(imm),
    };

    // IV initial interval: join of the out-of-loop definitions reaching
    // the IV's single in-loop definition (the entry contributes exactly
    // 0); interval-unreachable definitions contribute nothing.
    let defs = dfg.defs_for_use(idiom.iv_def_pc, idiom.iv_reg)?;
    let mut init_iv: Option<Interval> = defs.entry.then(|| Interval::exact(0));
    for &d in defs.pcs.iter().filter(|&&d| !pc_in_loop(cfg, l, d)) {
        if let Some(dv) = ai.def_interval(d) {
            init_iv = Some(match init_iv {
                Some(acc) => acc.join(dv),
                None => dv,
            });
        }
    }
    let init_iv = init_iv?;
    if !init_iv.signed_nonneg() || !bound_iv.signed_nonneg() {
        return None;
    }

    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for init in [init_iv.lo, init_iv.hi] {
        for bound in [bound_iv.lo, bound_iv.hi] {
            let t = count_lt(&idiom, init as i64, bound, true)?;
            lo = lo.min(t);
            hi = hi.max(t);
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use sim_isa::parse_program;

    fn analyze(text: &str) -> (AddrAnalysis, Vec<LoopInfo>) {
        let p = parse_program(text).unwrap();
        let instrs = p.instrs().to_vec();
        let cfg = Cfg::build(&instrs);
        let dfg = DefUseGraph::build(&cfg, &instrs);
        let loops = find_loops(&cfg, &instrs);
        (analyze_addresses(&cfg, &instrs, &dfg, &loops), loops)
    }

    #[test]
    fn striding_load_is_affine() {
        let (a, _) = analyze(
            "li r1, 4096\nli r2, 0\nli r3, 8\ntop:\nld8 r5, [r1 + r2<<3 + 0]\n\
             addi r2, r2, 1\nslt r6, r2, r3\nbnz r6, top\nhalt",
        );
        let m = a.mem_op_at(3).unwrap();
        assert_eq!(m.class, AddrClass::Affine { stride: 8 });
        assert_eq!(m.region_base, Some(4096));
        assert_eq!(a.loop_addr[0].trip_count, Some(8));
    }

    #[test]
    fn indirect_load_is_chase_depth_one() {
        let (a, _) = analyze(
            "li r1, 4096\nli r2, 8192\nli r3, 0\nli r4, 100\ntop:\n\
             ld8 r5, [r1 + r3<<3 + 0]\nld8 r6, [r2 + r5<<3 + 0]\n\
             addi r3, r3, 1\nslt r7, r3, r4\nbnz r7, top\nhalt",
        );
        assert_eq!(a.mem_op_at(4).unwrap().class, AddrClass::Affine { stride: 8 });
        assert_eq!(a.mem_op_at(5).unwrap().class, AddrClass::PointerChase { depth: 1 });
        assert_eq!(a.mem_op_at(5).unwrap().region_base, Some(8192));
        assert_eq!(a.loop_addr[0].trip_count, Some(100));
    }

    #[test]
    fn two_level_chase_is_depth_two() {
        let (a, _) = analyze(
            "li r1, 4096\nli r2, 8192\nli r8, 12288\nli r3, 0\nli r4, 100\ntop:\n\
             ld8 r5, [r1 + r3<<3 + 0]\nld8 r6, [r2 + r5<<3 + 0]\nld8 r7, [r8 + r6<<3 + 0]\n\
             addi r3, r3, 1\nslt r7, r3, r4\nbnz r7, top\nhalt",
        );
        assert_eq!(a.mem_op_at(7).unwrap().class, AddrClass::PointerChase { depth: 2 });
    }

    #[test]
    fn self_chase_saturates() {
        // while (p) p = *p — loop-carried load recurrence.
        let (a, _) = analyze("li r1, 4096\ntop:\nld8 r1, [r1 + 0]\nbnz r1, top\nhalt");
        match a.mem_op_at(1).unwrap().class {
            AddrClass::PointerChase { depth } => assert_eq!(depth, MAX_CHASE_DEPTH),
            c => panic!("expected chase, got {c:?}"),
        }
    }

    #[test]
    fn derived_iv_through_shift_is_affine() {
        // addr = base + (i << 3) computed in a separate register.
        let (a, _) = analyze(
            "li r1, 4096\nli r2, 0\nli r3, 16\ntop:\nshli r4, r2, 3\nadd r5, r1, r4\n\
             ld8 r6, [r5 + 0]\naddi r2, r2, 1\nslt r7, r2, r3\nbnz r7, top\nhalt",
        );
        assert_eq!(a.mem_op_at(5).unwrap().class, AddrClass::Affine { stride: 8 });
    }

    #[test]
    fn iv_squared_is_irregular() {
        let (a, _) = analyze(
            "li r1, 4096\nli r2, 0\nli r3, 16\ntop:\nmul r4, r2, r2\n\
             ld8 r6, [r1 + r4<<3 + 0]\naddi r2, r2, 1\nslt r7, r2, r3\nbnz r7, top\nhalt",
        );
        assert_eq!(a.mem_op_at(4).unwrap().class, AddrClass::Irregular);
    }

    #[test]
    fn store_through_chase_value_is_chase() {
        let (a, _) = analyze(
            "li r1, 4096\nli r2, 8192\nli r3, 0\nli r4, 100\ntop:\n\
             ld8 r5, [r1 + r3<<3 + 0]\nst8 r3, [r2 + r5<<3 + 0]\n\
             addi r3, r3, 1\nslt r7, r3, r4\nbnz r7, top\nhalt",
        );
        let st = a.mem_op_at(5).unwrap();
        assert!(st.is_store);
        assert_eq!(st.class, AddrClass::PointerChase { depth: 1 });
    }

    #[test]
    fn countdown_loop_trip_count() {
        // for (i = 10; i != 0; i--)
        let (a, _) = analyze(
            "li r1, 10\nli r2, 0\ntop:\naddi r1, r1, -1\nsne r3, r1, r2\nbnz r3, top\nhalt",
        );
        assert_eq!(a.loop_addr[0].trip_count, Some(10));
        assert_eq!(a.loop_addr[0].trip_bounds, Some((10, 10)));
    }

    #[test]
    fn wrapping_countdown_cannot_panic_or_fabricate_a_count() {
        // An sne countdown whose first-value-to-bound delta is exactly
        // i64::MIN: the old wrapping walk evaluated `i64::MIN % -1` and
        // panicked. The checked walk reports "unknown" instead.
        let (a, _) = analyze(
            "li r1, -9223372036854775807\nli r2, 0\ntop:\naddi r1, r1, -1\n\
             sne r3, r1, r2\nbnz r3, top\nhalt",
        );
        assert_eq!(a.loop_addr[0].trip_count, None);
        assert_eq!(a.loop_addr[0].trip_bounds, None);
    }

    #[test]
    fn interval_bound_yields_trip_bounds() {
        // The loop bound is loaded from a read-only region at an address
        // only known as a range, so the exact walk fails; the interval
        // walk brackets the trip count from the region's content bounds.
        let text = ".region data 0x1000 16\n\
             li r1, 4096\nli r6, 8192\nld8 r5, [r6 + 0]\nandi r5, r5, 1\n\
             ld8 r4, [r1 + r5<<3 + 0]\nli r2, 0\ntop:\n\
             addi r2, r2, 1\nslt r3, r2, r4\nbnz r3, top\nhalt";
        let p = parse_program(text).unwrap();
        let mut mem = sim_isa::SparseMemory::new();
        mem.write_u64(4096, 5);
        mem.write_u64(4104, 9);
        let instrs = p.instrs().to_vec();
        let cfg = Cfg::build(&instrs);
        let dfg = DefUseGraph::build(&cfg, &instrs);
        let loops = find_loops(&cfg, &instrs);
        let ai = crate::absint::analyze_intervals(&p, Some(&mem));
        let a = analyze_addresses_with(&cfg, &instrs, &dfg, &loops, Some(&ai));
        assert_eq!(a.loop_addr[0].trip_count, None);
        assert_eq!(a.loop_addr[0].trip_bounds, Some((5, 9)));
    }

    #[test]
    fn outside_loop_access_is_invariant() {
        let (a, _) = analyze("li r1, 4096\nld8 r2, [r1 + 0]\nhalt");
        let m = a.mem_op_at(1).unwrap();
        assert_eq!(m.loop_idx, None);
        assert_eq!(m.class, AddrClass::Affine { stride: 0 });
    }
}
