//! Flow-sensitive interval abstract interpretation over the CFG.
//!
//! Every register is tracked as an unsigned interval `[lo, hi]` per program
//! point, computed by a classic worklist fixed point with delayed
//! threshold widening at join points and a short narrowing pass. Two
//! refinements make the domain strong enough to bound the CSR-style loops
//! the benchmarks are built from:
//!
//! * **Conditional-branch edge refinement** — when a branch tests the
//!   result of a compare (`slt`/`sltu`/`seq`/`sne`) whose operands are
//!   still live, the taken/fall-through successor states are narrowed by
//!   the compare's outcome, so `i < n` loops carry `i ∈ [.., n-1]` into
//!   the body.
//! * **Read-only-region content bounds** — regions declared with
//!   `.region` that no store can target keep their initial contents for
//!   the whole run, so an 8-byte load whose address interval is proven
//!   inside such a region is bounded by the minimum/maximum word stored
//!   there at program start. This is what bounds a loaded loop bound like
//!   `end = offs[v + 1]` and, transitively, the inner-loop induction
//!   variable and every address computed from it.
//!
//! The content-bound refinement is *conditional*: a store is attributed to
//! the region its constant-resolvable base register points into, and a
//! store whose base cannot be resolved (or escapes every region)
//! pessimizes **all** regions to writable. The bounds verifier
//! ([`verify_bounds`](crate::verify_bounds)) independently checks that
//! every store stays inside its region, and the dynamic bounds oracle
//! cross-checks the static intervals against observed addresses, so a
//! workload that violates the attribution is flagged rather than silently
//! mis-bounded.
//!
//! Determinism: the worklist is a plain vector of block indices, all maps
//! are vectors indexed by pc/block, and the widening threshold set is a
//! sorted `Vec` — no hash-map iteration anywhere, so results are identical
//! across hosts.

use std::fmt;

use sim_isa::{AluOp, Instr, MemAddr, MemWidth, Program, Reg, SparseMemory, NUM_REGS};

use crate::cfg::Cfg;
use crate::dfg::{const_use, known_constants, DefUseGraph};

/// An unsigned 64-bit interval `[lo, hi]`, `lo <= hi`. The bottom element
/// (unreachable code) is represented externally as `Option<_> = None`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u64,
    /// Largest possible value.
    pub hi: u64,
}

/// The signed sign bit: values at or above this are negative as `i64`.
const SIGN: u64 = 1 << 63;

impl Interval {
    /// The full domain `[0, u64::MAX]`.
    pub const TOP: Interval = Interval { lo: 0, hi: u64::MAX };

    /// The interval holding exactly `v`.
    pub fn exact(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; panics (debug) when `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Interval {
        debug_assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// `Some(v)` when the interval is the singleton `{v}`.
    pub fn as_const(self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether the interval is the whole domain.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Greatest lower bound, `None` when the intervals are disjoint.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Whether every value is non-negative as a signed 64-bit integer.
    pub fn signed_nonneg(self) -> bool {
        self.hi < SIGN
    }

    /// Whether every value is negative as a signed 64-bit integer.
    fn signed_neg(self) -> bool {
        self.lo >= SIGN
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            f.write_str("[0, 2^64)")
        } else if let Some(v) = self.as_const() {
            write!(f, "{v:#x}")
        } else {
            write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
        }
    }
}

/// One abstract register file: an interval per architectural register.
pub type RegIntervals = [Interval; NUM_REGS];

/// Transfer function for a binary ALU operation on intervals.
///
/// Wrapping cases (and signed cases the unsigned domain cannot express)
/// fall back to [`Interval::TOP`]; singleton operands evaluate exactly via
/// [`AluOp::eval`], so the function agrees with the executor bit for bit
/// on constants.
pub fn alu_interval(op: AluOp, a: Interval, b: Interval) -> Interval {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Interval::exact(op.eval(x, y));
    }
    match op {
        AluOp::Add => match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => Interval::TOP,
        },
        AluOp::Sub => {
            if a.lo >= b.hi {
                Interval::new(a.lo - b.hi, a.hi - b.lo)
            } else {
                Interval::TOP
            }
        }
        AluOp::Mul => match a.hi.checked_mul(b.hi) {
            // Unsigned multiplication is monotone, so if the upper corner
            // fits, the lower corner does too.
            Some(hi) => Interval::new(a.lo * b.lo, hi),
            None => Interval::TOP,
        },
        // Division and remainder are signed; model only the all-non-negative,
        // nonzero-divisor case where they coincide with unsigned.
        AluOp::Div => {
            if a.signed_nonneg() && b.signed_nonneg() && b.lo >= 1 {
                Interval::new(a.lo / b.hi, a.hi / b.lo)
            } else {
                Interval::TOP
            }
        }
        AluOp::Rem => {
            if a.signed_nonneg() && b.signed_nonneg() && b.lo >= 1 {
                Interval::new(0, a.hi.min(b.hi - 1))
            } else {
                Interval::TOP
            }
        }
        AluOp::And => Interval::new(0, a.hi.min(b.hi)),
        AluOp::Or => Interval::new(a.lo.max(b.lo), bit_cover(a.hi | b.hi)),
        AluOp::Xor => Interval::new(0, bit_cover(a.hi | b.hi)),
        AluOp::Shl => match b.as_const() {
            Some(s) => {
                let s = (s & 63) as u32;
                if a.hi <= u64::MAX >> s {
                    Interval::new(a.lo << s, a.hi << s)
                } else {
                    Interval::TOP
                }
            }
            None => Interval::TOP,
        },
        AluOp::Shr => match b.as_const() {
            Some(s) => {
                let s = (s & 63) as u32;
                Interval::new(a.lo >> s, a.hi >> s)
            }
            // An unknown logical shift can only shrink the value.
            None => Interval::new(0, a.hi),
        },
        AluOp::Sra => {
            if a.signed_nonneg() {
                // Non-negative operands shift like `shr`.
                alu_interval(AluOp::Shr, a, b)
            } else {
                Interval::TOP
            }
        }
        AluOp::Slt => compare_interval(lt_signed(a, b)),
        AluOp::Sltu => compare_interval(lt_unsigned(a, b)),
        AluOp::Seq => {
            if a.meet(b).is_none() {
                Interval::exact(0)
            } else {
                Interval::new(0, 1)
            }
        }
        AluOp::Sne => {
            if a.meet(b).is_none() {
                Interval::exact(1)
            } else {
                Interval::new(0, 1)
            }
        }
        AluOp::Min | AluOp::Max => {
            if a.signed_nonneg() && b.signed_nonneg() {
                if op == AluOp::Min {
                    Interval::new(a.lo.min(b.lo), a.hi.min(b.hi))
                } else {
                    Interval::new(a.lo.max(b.lo), a.hi.max(b.hi))
                }
            } else {
                Interval::TOP
            }
        }
    }
}

/// Smallest all-ones mask covering `v` (e.g. `0b1010 -> 0b1111`): an upper
/// bound for any bitwise combination of values `<= v`.
fn bit_cover(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::MAX >> v.leading_zeros()
    }
}

/// Decides `a < b` over intervals; `None` when undecidable.
fn lt_unsigned(a: Interval, b: Interval) -> Option<bool> {
    if a.hi < b.lo {
        Some(true)
    } else if a.lo >= b.hi {
        Some(false)
    } else {
        None
    }
}

/// Signed `<` is decidable when neither interval straddles the sign
/// boundary: within one sign class the unsigned order matches the signed
/// order, and a negative interval is below a non-negative one.
fn lt_signed(a: Interval, b: Interval) -> Option<bool> {
    match (a.signed_neg(), b.signed_neg(), a.signed_nonneg(), b.signed_nonneg()) {
        (true, _, _, true) => Some(true),
        (_, true, true, _) => Some(false),
        (true, true, _, _) | (_, _, true, true) => lt_unsigned(a, b),
        _ => None,
    }
}

fn compare_interval(decided: Option<bool>) -> Interval {
    match decided {
        Some(true) => Interval::exact(1),
        Some(false) => Interval::exact(0),
        None => Interval::new(0, 1),
    }
}

/// Interval of the effective address `base + (index << scale) + offset` in
/// the abstract register file `st`.
pub fn addr_interval_in(st: &RegIntervals, addr: &MemAddr) -> Interval {
    let mut iv = st[addr.base.index()];
    if let Some(ix) = addr.index {
        let shifted =
            alu_interval(AluOp::Shl, st[ix.index()], Interval::exact(u64::from(addr.scale)));
        iv = alu_interval(AluOp::Add, iv, shifted);
    }
    // The offset is added with wrapping semantics; map a negative offset to
    // a subtraction so small intervals survive.
    if addr.offset >= 0 {
        iv = alu_interval(AluOp::Add, iv, Interval::exact(addr.offset as u64));
    } else {
        iv = alu_interval(AluOp::Sub, iv, Interval::exact(addr.offset.unsigned_abs()));
    }
    iv
}

/// How many times an edge may grow a block's entry state by plain join
/// before widening kicks in.
const WIDEN_DELAY: u32 = 3;

/// How many decreasing (narrowing) sweeps run after the widened fixed
/// point.
const NARROW_ROUNDS: usize = 2;

/// Result of the interval analysis: per-pc abstract register files plus
/// per-region writability and content bounds.
pub struct AbsInt {
    /// Abstract register file *before* executing each pc; `None` when the
    /// pc is unreachable.
    entry: Vec<Option<RegIntervals>>,
    /// Effective-address interval per memory instruction (`None`
    /// elsewhere or when unreachable).
    addr: Vec<Option<Interval>>,
    /// Interval of the value written by the instruction at each pc
    /// (`None` for non-defining or unreachable instructions).
    def: Vec<Option<Interval>>,
    /// Per declared region (in `Program::regions` order): whether no store
    /// can target it.
    pub read_only: Vec<bool>,
    /// Per declared region: bounds over *every* byte-offset 8-byte window
    /// of its initial image (sound for unaligned loads), available only
    /// for read-only regions of at least 8 bytes.
    pub content: Vec<Option<Interval>>,
    /// Per declared region: bounds over only the 8-byte-aligned words of
    /// its initial image — much tighter than [`AbsInt::content`], used
    /// when the access is provably 8-aligned.
    pub content_aligned: Vec<Option<Interval>>,
}

impl AbsInt {
    /// The abstract register file holding before `pc` executes, or `None`
    /// when `pc` is unreachable (or past the end).
    pub fn entry_state(&self, pc: usize) -> Option<&RegIntervals> {
        self.entry.get(pc).and_then(|s| s.as_ref())
    }

    /// Interval of `reg` just before `pc` executes.
    pub fn reg_before(&self, pc: usize, reg: Reg) -> Option<Interval> {
        self.entry_state(pc).map(|s| s[reg.index()])
    }

    /// Interval of the effective address of the load/store at `pc`.
    pub fn addr_interval(&self, pc: usize) -> Option<Interval> {
        self.addr.get(pc).copied().flatten()
    }

    /// Interval of the value the instruction at `pc` writes to its
    /// destination register.
    pub fn def_interval(&self, pc: usize) -> Option<Interval> {
        self.def.get(pc).copied().flatten()
    }
}

struct Engine<'a> {
    instrs: &'a [Instr],
    cfg: &'a Cfg,
    dfg: &'a DefUseGraph,
    /// `(base, len)` per declared region, in `Program::regions` order.
    regions: Vec<(u64, u64)>,
    read_only: Vec<bool>,
    content: Vec<Option<Interval>>,
    content_aligned: Vec<Option<Interval>>,
    /// Sorted, deduplicated widening thresholds.
    thresholds: Vec<u64>,
}

/// Runs the interval analysis over `prog`. When `mem` (the workload's
/// initial memory image) is provided, read-only regions contribute content
/// bounds to 8-byte loads proven inside them; without it every load is
/// bounded only by its width.
pub fn analyze_intervals(prog: &Program, mem: Option<&SparseMemory>) -> AbsInt {
    let instrs = prog.instrs();
    let cfg = Cfg::build(instrs);
    let dfg = DefUseGraph::build(&cfg, instrs);
    let known = known_constants(instrs, &dfg);
    intervals_over(prog, &cfg, &dfg, &known, mem)
}

/// [`analyze_intervals`] over a CFG, def-use graph and constants the
/// caller already built for `prog`.
pub(crate) fn intervals_over(
    prog: &Program,
    cfg: &Cfg,
    dfg: &DefUseGraph,
    known: &[Option<u64>],
    mem: Option<&SparseMemory>,
) -> AbsInt {
    let instrs = prog.instrs();
    let regions: Vec<(u64, u64)> = prog.regions().iter().map(|&(_, b, l)| (b, l)).collect();

    // Region writability: attribute each store to the region its
    // constant-resolvable base register (plus offset) points into; an
    // unresolvable or region-escaping store pessimizes everything.
    let mut read_only = vec![true; regions.len()];
    for (pc, instr) in instrs.iter().enumerate() {
        let Instr::Store { addr, .. } = instr else { continue };
        let target = const_use(dfg, known, pc, addr.base)
            .map(|b| b.wrapping_add(addr.offset as u64))
            .and_then(|t| regions.iter().position(|&(b, l)| t.wrapping_sub(b) < l));
        match target {
            Some(r) => read_only[r] = false,
            None => {
                read_only.iter_mut().for_each(|w| *w = false);
                break;
            }
        }
    }

    // Content bounds of each read-only region's initial image: every
    // byte-offset 8-byte window for the general (possibly unaligned)
    // case, and the much tighter aligned-words-only scan for accesses
    // proven 8-aligned.
    // Cost cap: very large regions (paper-scale tables) skip the scan —
    // a pure precision loss, never a soundness one.
    const CONTENT_SCAN_MAX: u64 = 1 << 22;
    let mut content: Vec<Option<Interval>> = vec![None; regions.len()];
    let mut content_aligned: Vec<Option<Interval>> = vec![None; regions.len()];
    if let Some(mem) = mem {
        for (i, (&(base, len), &ro)) in regions.iter().zip(&read_only).enumerate() {
            if !ro || !(8..=CONTENT_SCAN_MAX).contains(&len) {
                continue;
            }
            let mut any: Option<Interval> = None;
            let mut aligned: Option<Interval> = None;
            for off in 0..=len - 8 {
                let v = Interval::exact(mem.read_u64(base + off));
                any = Some(any.map_or(v, |acc| acc.join(v)));
                if (base + off) % 8 == 0 {
                    aligned = Some(aligned.map_or(v, |acc| acc.join(v)));
                }
            }
            content[i] = any;
            content_aligned[i] = aligned;
        }
    }

    // Widening thresholds: the program's own constants (and their
    // neighbors, so `i < n` style bounds land exactly), region corners,
    // content bounds, and the domain corners.
    let mut thresholds = vec![0, 1, i64::MAX as u64, SIGN, u64::MAX];
    let mut push = |v: u64| {
        thresholds.push(v.wrapping_sub(1));
        thresholds.push(v);
        thresholds.push(v.wrapping_add(1));
    };
    for instr in instrs {
        match *instr {
            Instr::Imm { value, .. } => push(value as u64),
            Instr::AluImm { imm, .. } => push(imm as u64),
            _ => {}
        }
    }
    for (i, &(base, len)) in regions.iter().enumerate() {
        push(base);
        push(base + len);
        for c in [content[i], content_aligned[i]].into_iter().flatten() {
            push(c.lo);
            push(c.hi);
        }
    }
    thresholds.sort_unstable();
    thresholds.dedup();

    let engine =
        Engine { instrs, cfg, dfg, regions, read_only, content, content_aligned, thresholds };
    engine.run()
}

impl Engine<'_> {
    fn run(self) -> AbsInt {
        let len = self.instrs.len();
        let nb = self.cfg.len();
        let mut ins: Vec<Option<RegIntervals>> = vec![None; nb];
        if nb > 0 {
            // Registers are architecturally zero at program entry.
            ins[0] = Some([Interval::exact(0); NUM_REGS]);
        }

        // Upward phase: worklist with delayed threshold widening.
        let mut joins = vec![0u32; nb];
        let mut work: Vec<usize> = if nb > 0 { vec![0] } else { Vec::new() };
        while let Some(b) = work.pop() {
            let Some(st) = ins[b] else { continue };
            let out = self.transfer_block(b, st);
            for (succ, kind) in self.block_edges(b) {
                let Some(refined) = self.refine_edge(&out, b, kind) else { continue };
                let joined = match &ins[succ] {
                    Some(old) => {
                        let mut j = *old;
                        for (r, n) in j.iter_mut().zip(&refined) {
                            *r = r.join(*n);
                        }
                        j
                    }
                    None => refined,
                };
                if Some(&joined) == ins[succ].as_ref() {
                    continue;
                }
                joins[succ] += 1;
                let next = match &ins[succ] {
                    Some(old) if joins[succ] > WIDEN_DELAY => self.widen(old, &joined),
                    _ => joined,
                };
                ins[succ] = Some(next);
                if !work.contains(&succ) {
                    work.push(succ);
                }
            }
        }

        // Downward phase: recompute entries from predecessor outputs a few
        // times without widening; meeting with the fixed point keeps the
        // result sound while clawing back widening losses.
        let mut incoming: Vec<Vec<(usize, Option<bool>)>> = vec![Vec::new(); nb];
        for b in 0..nb {
            for (succ, kind) in self.block_edges(b) {
                incoming[succ].push((b, kind));
            }
        }
        for _ in 0..NARROW_ROUNDS {
            for b in 0..nb {
                let mut fresh: Option<RegIntervals> =
                    (b == 0).then(|| [Interval::exact(0); NUM_REGS]);
                for &(p, kind) in &incoming[b] {
                    let Some(pst) = ins[p] else { continue };
                    let out = self.transfer_block(p, pst);
                    let Some(refined) = self.refine_edge(&out, p, kind) else { continue };
                    fresh = Some(match fresh {
                        Some(mut f) => {
                            for (r, n) in f.iter_mut().zip(&refined) {
                                *r = r.join(*n);
                            }
                            f
                        }
                        None => refined,
                    });
                }
                ins[b] = match (ins[b], fresh) {
                    (Some(old), Some(f)) => {
                        let mut m = f;
                        for (r, o) in m.iter_mut().zip(&old) {
                            *r = r.meet(*o).unwrap_or(*r);
                        }
                        Some(m)
                    }
                    (_, f) => f,
                };
            }
        }

        // Final sweep: per-pc entry states, address and definition
        // intervals.
        let mut entry: Vec<Option<RegIntervals>> = vec![None; len];
        let mut addr: Vec<Option<Interval>> = vec![None; len];
        let mut def: Vec<Option<Interval>> = vec![None; len];
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            let Some(mut st) = ins[b] else { continue };
            for pc in block.start..block.end {
                entry[pc] = Some(st);
                if let Instr::Load { addr: a, .. } | Instr::Store { addr: a, .. } = &self.instrs[pc]
                {
                    addr[pc] = Some(addr_interval_in(&st, a));
                }
                self.transfer(&mut st, pc);
                if let Some(rd) = self.instrs[pc].dst() {
                    def[pc] = Some(st[rd.index()]);
                }
            }
        }

        AbsInt {
            entry,
            addr,
            def,
            read_only: self.read_only,
            content: self.content,
            content_aligned: self.content_aligned,
        }
    }

    fn transfer_block(&self, b: usize, mut st: RegIntervals) -> RegIntervals {
        let block = &self.cfg.blocks[b];
        for pc in block.start..block.end {
            self.transfer(&mut st, pc);
        }
        st
    }

    fn transfer(&self, st: &mut RegIntervals, pc: usize) {
        match self.instrs[pc] {
            Instr::Imm { rd, value } => st[rd.index()] = Interval::exact(value as u64),
            Instr::Alu { op, rd, ra, rb } => {
                st[rd.index()] = alu_interval(op, st[ra.index()], st[rb.index()]);
            }
            Instr::AluImm { op, rd, ra, imm } => {
                st[rd.index()] = alu_interval(op, st[ra.index()], Interval::exact(imm as u64));
            }
            Instr::Load { rd, addr, width } => {
                let aligned = access_align8(st, &addr);
                st[rd.index()] = self.load_value(addr_interval_in(st, &addr), width, aligned);
            }
            Instr::Store { .. }
            | Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Nop
            | Instr::Halt => {}
        }
    }

    /// Value interval of a load: width-bounded, tightened to the region's
    /// initial content bounds when the whole access range is proven inside
    /// a read-only region (the aligned-words-only bounds when the access
    /// is provably 8-aligned).
    fn load_value(&self, addr: Interval, width: MemWidth, aligned: bool) -> Interval {
        let bytes = width.bytes();
        if bytes < 8 {
            return Interval::new(0, (1u64 << (8 * bytes)) - 1);
        }
        let inside = self.regions.iter().enumerate().find(|&(_, &(base, len))| {
            addr.lo >= base && bytes <= len && addr.hi.wrapping_sub(base) <= len - bytes
        });
        match inside {
            Some((r, _)) if self.read_only[r] => {
                let c = if aligned {
                    self.content_aligned[r].or(self.content[r])
                } else {
                    self.content[r]
                };
                c.unwrap_or(Interval::TOP)
            }
            _ => Interval::TOP,
        }
    }

    /// Outgoing edges of block `b` as `(successor block, branch kind)`
    /// where the kind is `Some(taken?)` for conditional branches.
    fn block_edges(&self, b: usize) -> Vec<(usize, Option<bool>)> {
        let last = self.cfg.blocks[b].end - 1;
        let len = self.instrs.len();
        let mut out = Vec::new();
        let mut push = |pc: usize, kind: Option<bool>| {
            if pc < len {
                out.push((self.cfg.block_of(pc), kind));
            }
        };
        match self.instrs[last] {
            Instr::Halt => {}
            Instr::Jump { target } => push(target, None),
            Instr::Branch { target, .. } => {
                push(target, Some(true));
                push(last + 1, Some(false));
            }
            _ => push(last + 1, None),
        }
        out
    }

    /// Applies branch-outcome refinement to the block-exit state for the
    /// edge of kind `kind` out of block `b`; `None` when the edge is
    /// infeasible.
    fn refine_edge(
        &self,
        out: &RegIntervals,
        b: usize,
        kind: Option<bool>,
    ) -> Option<RegIntervals> {
        let Some(taken) = kind else { return Some(*out) };
        let last = self.cfg.blocks[b].end - 1;
        let Instr::Branch { cond, rs, .. } = self.instrs[last] else { return Some(*out) };
        let mut st = *out;

        // The branch register itself: zero on the not-taken side of `bnz`
        // (and the taken side of `bez`), nonzero on the other.
        let rs_zero = taken == matches!(cond, sim_isa::BranchCond::Eqz);
        let iv = st[rs.index()];
        if rs_zero {
            st[rs.index()] = iv.meet(Interval::exact(0))?;
        } else {
            if iv.as_const() == Some(0) {
                return None;
            }
            if iv.lo == 0 {
                st[rs.index()] = Interval::new(1, iv.hi);
            }
        }

        // When `rs` is the result of exactly one compare in this block and
        // neither it nor the compare operands were redefined since, the
        // branch outcome decides the compare and narrows its operands.
        let defs = self.dfg.defs_for_use(last, rs)?;
        let &[c] = defs.pcs.as_slice() else { return Some(st) };
        if defs.entry || self.cfg.block_of(c) != b {
            return Some(st);
        }
        let (op, ra, rb_iv, rb) = match self.instrs[c] {
            Instr::Alu { op, ra, rb, .. } if op.is_compare() => (op, ra, st[rb.index()], Some(rb)),
            Instr::AluImm { op, ra, imm, .. } if op.is_compare() => {
                (op, ra, Interval::exact(imm as u64), None)
            }
            _ => return Some(st),
        };
        let clobbered = |r: Reg| (c..=last).any(|pc| self.instrs[pc].dst() == Some(r));
        if clobbered(ra) || rb.is_some_and(&clobbered) {
            return Some(st);
        }
        // Compares produce 0/1, so "nonzero" means the compare held.
        let truth = !rs_zero;
        let (na, nb) = refine_compare(op, st[ra.index()], rb_iv, truth)?;
        st[ra.index()] = na;
        if let Some(rb) = rb {
            st[rb.index()] = nb;
        }
        Some(st)
    }

    /// Threshold widening: a bound that moved since the last state jumps
    /// to the nearest enclosing threshold instead of crawling.
    fn widen(&self, old: &RegIntervals, new: &RegIntervals) -> RegIntervals {
        let mut out = *new;
        for (w, (o, n)) in out.iter_mut().zip(old.iter().zip(new)) {
            let lo = if n.lo < o.lo {
                // Largest threshold at or below the new low bound.
                match self.thresholds.partition_point(|&t| t <= n.lo) {
                    0 => 0,
                    i => self.thresholds[i - 1],
                }
            } else {
                n.lo
            };
            let hi = if n.hi > o.hi {
                // Smallest threshold at or above the new high bound.
                *self
                    .thresholds
                    .get(self.thresholds.partition_point(|&t| t < n.hi))
                    .unwrap_or(&u64::MAX)
            } else {
                n.hi
            };
            *w = Interval::new(lo, hi);
        }
        out
    }
}

/// Whether every concrete address of the access is provably 8-byte
/// aligned: the base must be exact, the scaled index must contribute a
/// multiple of 8 (scale >= 3, or an exact index), and the sum with the
/// offset must be aligned.
fn access_align8(st: &RegIntervals, addr: &MemAddr) -> bool {
    let Some(base) = st[addr.base.index()].as_const() else { return false };
    let scaled = match addr.index {
        None => 0u64,
        Some(_) if addr.scale >= 3 => 0,
        Some(ix) => match st[ix.index()].as_const() {
            Some(v) => v.wrapping_shl(u32::from(addr.scale)),
            None => return false,
        },
    };
    base.wrapping_add(scaled).wrapping_add(addr.offset as u64) % 8 == 0
}

/// Narrows compare operands under a known outcome; `None` when the
/// combination is infeasible.
fn refine_compare(
    op: AluOp,
    a: Interval,
    b: Interval,
    truth: bool,
) -> Option<(Interval, Interval)> {
    let lt = |a: Interval, b: Interval| -> Option<(Interval, Interval)> {
        // a < b: a <= b.hi - 1, b >= a.lo + 1.
        let na = a.meet(Interval::new(0, b.hi.checked_sub(1)?))?;
        let nb = b.meet(Interval::new(a.lo.checked_add(1)?, u64::MAX))?;
        Some((na, nb))
    };
    let ge = |a: Interval, b: Interval| -> Option<(Interval, Interval)> {
        // a >= b: a >= b.lo, b <= a.hi.
        let na = a.meet(Interval::new(b.lo, u64::MAX))?;
        let nb = b.meet(Interval::new(0, a.hi))?;
        Some((na, nb))
    };
    let exclude = |from: Interval, v: Interval| -> Option<Interval> {
        match v.as_const() {
            Some(x) if from.as_const() == Some(x) => None,
            Some(x) if from.lo == x => Some(Interval::new(x + 1, from.hi)),
            Some(x) if from.hi == x => Some(Interval::new(from.lo, x - 1)),
            _ => Some(from),
        }
    };
    match (op, truth) {
        // Signed compares refine only when the unsigned order matches the
        // signed order on both operands (same sign class).
        (AluOp::Slt, _)
            if !(a.signed_nonneg() && b.signed_nonneg() || a.signed_neg() && b.signed_neg()) =>
        {
            Some((a, b))
        }
        (AluOp::Slt | AluOp::Sltu, true) => lt(a, b),
        (AluOp::Slt | AluOp::Sltu, false) => ge(a, b),
        (AluOp::Seq, true) | (AluOp::Sne, false) => {
            let m = a.meet(b)?;
            Some((m, m))
        }
        (AluOp::Seq, false) | (AluOp::Sne, true) => Some((exclude(a, b)?, exclude(b, a)?)),
        _ => Some((a, b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::parse_program;

    fn analyze(text: &str) -> AbsInt {
        analyze_intervals(&parse_program(text).unwrap(), None)
    }

    #[test]
    fn straight_line_constants_are_exact() {
        let a = analyze("li r1, 6\nshli r2, r1, 3\nadd r3, r2, r1\nhalt");
        assert_eq!(a.def_interval(0), Some(Interval::exact(6)));
        assert_eq!(a.def_interval(1), Some(Interval::exact(48)));
        assert_eq!(a.def_interval(2), Some(Interval::exact(54)));
        // Registers start at zero.
        assert_eq!(a.reg_before(0, Reg::R5), Some(Interval::exact(0)));
    }

    #[test]
    fn counted_loop_iv_is_bounded_by_branch_refinement() {
        // for (i = 0; i < 100; i++) — at the body load, i in [0, 99].
        let a = analyze(
            "li r1, 4096\nli r2, 0\nli r3, 100\ntop:\nld8 r5, [r1 + r2<<3 + 0]\n\
             addi r2, r2, 1\nsltu r6, r2, r3\nbnz r6, top\nhalt",
        );
        assert_eq!(a.reg_before(3, Reg::R2), Some(Interval::new(0, 99)));
        // Address of the striding load: 4096 + i*8 with i in [0, 99].
        assert_eq!(a.addr_interval(3), Some(Interval::new(4096, 4096 + 99 * 8)));
        // After the loop, i == 100 exactly (the exit edge knows i >= 100
        // and the latch keeps i <= 100).
        assert_eq!(a.reg_before(7, Reg::R2), Some(Interval::exact(100)));
    }

    #[test]
    fn masked_index_is_bounded_without_branches() {
        // The mask source is a loaded (unknown) value, not a register
        // still holding its architectural zero.
        let a = analyze(
            "li r1, 8192\nld8 r7, [r1 + 0]\nandi r2, r7, 1023\nld8 r3, [r1 + r2<<3 + 0]\nhalt",
        );
        assert_eq!(a.reg_before(3, Reg::R2), Some(Interval::new(0, 1023)));
        assert_eq!(a.addr_interval(3), Some(Interval::new(8192, 8192 + 1023 * 8)));
    }

    #[test]
    fn unreachable_code_has_no_state() {
        let a = analyze("jmp @2\nnop\nhalt");
        assert!(a.entry_state(1).is_none());
        assert!(a.entry_state(2).is_some());
    }

    #[test]
    fn infeasible_edge_is_pruned() {
        // r1 = 0, bnz never takes: the target stays unreachable.
        let a = analyze("li r1, 0\nbnz r1, @4\nli r2, 7\nhalt\nli r2, 9\nhalt");
        assert_eq!(a.def_interval(2), Some(Interval::exact(7)));
        assert!(a.entry_state(4).is_none());
    }

    #[test]
    fn loads_are_width_bounded() {
        let a = analyze("li r1, 4096\nld1 r2, [r1 + 0]\nld4 r3, [r1 + 0]\nld8 r4, [r1 + 0]\nhalt");
        assert_eq!(a.def_interval(1), Some(Interval::new(0, 0xFF)));
        assert_eq!(a.def_interval(2), Some(Interval::new(0, 0xFFFF_FFFF)));
        assert_eq!(a.def_interval(3), Some(Interval::TOP));
    }

    #[test]
    fn read_only_region_bounds_loaded_values() {
        let mut mem = SparseMemory::new();
        for k in 0..8u64 {
            mem.write_u64(0x1000 + 8 * k, 10 + k);
        }
        let p = parse_program(".region table 0x1000 0x40\nli r1, 0x1000\nld8 r2, [r1 + 0]\nhalt")
            .unwrap();
        let a = analyze_intervals(&p, Some(&mem));
        assert_eq!(a.read_only, vec![true]);
        // Every 8-byte window contains at least one data byte, so the low
        // bound is the smallest aligned word; straddled windows push the
        // high bound past the largest aligned word.
        let c = a.content[0].unwrap();
        assert_eq!(c.lo, 10);
        assert!(c.hi >= 17);
        // The aligned-words-only scan is exact, and this load is provably
        // 8-aligned, so its value interval uses the tight bounds.
        assert_eq!(a.content_aligned[0], Some(Interval::new(10, 17)));
        assert_eq!(a.def_interval(1), Some(Interval::new(10, 17)));
    }

    #[test]
    fn a_store_makes_its_region_writable() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1000, 42);
        let p = parse_program(
            ".region a 0x1000 0x40\n.region b 0x2000 0x40\n\
             li r1, 0x2000\nst8 r2, [r1 + 0]\nli r3, 0x1000\nld8 r4, [r3 + 0]\nhalt",
        )
        .unwrap();
        let a = analyze_intervals(&p, Some(&mem));
        assert_eq!(a.read_only, vec![true, false]);
        assert!(a.content[1].is_none());
        assert!(a.def_interval(3).is_some_and(|v| !v.is_top()));
    }

    #[test]
    fn unresolvable_store_pessimizes_all_regions() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1000, 42);
        let p = parse_program(
            ".region a 0x1000 0x40\n\
             ld8 r1, [r2 + 0]\nst8 r3, [r1 + 0]\nli r4, 0x1000\nld8 r5, [r4 + 0]\nhalt",
        )
        .unwrap();
        let a = analyze_intervals(&p, Some(&mem));
        assert_eq!(a.read_only, vec![false]);
        assert_eq!(a.def_interval(3), Some(Interval::TOP));
    }

    #[test]
    fn widening_terminates_on_unbounded_growth() {
        // i grows without a recognized bound: interval widens to TOP-ish
        // instead of looping forever.
        let a = analyze("li r1, 1\ntop:\nadd r1, r1, r1\nbnz r1, top\nhalt");
        assert!(a.entry_state(1).is_some());
        assert!(a.reg_before(1, Reg::R1).unwrap().hi >= 1);
    }

    #[test]
    fn alu_interval_matches_eval_on_constants() {
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Sra,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Seq,
            AluOp::Sne,
            AluOp::Min,
            AluOp::Max,
        ] {
            for a in [0u64, 1, 7, u64::MAX - 1, u64::MAX, 1 << 63] {
                for b in [0u64, 1, 3, 63, u64::MAX] {
                    let iv = alu_interval(op, Interval::exact(a), Interval::exact(b));
                    assert_eq!(iv.as_const(), Some(op.eval(a, b)), "{op:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn alu_interval_is_sound_on_corners() {
        let cases = [
            Interval::new(0, 5),
            Interval::new(3, 9),
            Interval::new(0, u64::MAX),
            Interval::new(u64::MAX - 3, u64::MAX),
            Interval::new((1 << 63) - 2, (1 << 63) + 2),
        ];
        for op in [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Div, AluOp::Rem, AluOp::And] {
            for a in cases {
                for b in cases {
                    let iv = alu_interval(op, a, b);
                    for &x in &[a.lo, a.hi] {
                        for &y in &[b.lo, b.hi] {
                            assert!(
                                iv.contains(op.eval(x, y)),
                                "{op:?} {x} {y} -> {} outside {iv}",
                                op.eval(x, y)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interval_display_forms() {
        assert_eq!(Interval::TOP.to_string(), "[0, 2^64)");
        assert_eq!(Interval::exact(16).to_string(), "0x10");
        assert_eq!(Interval::new(0, 255).to_string(), "[0x0, 0xff]");
    }
}
