//! Reaching-definitions def-use graph ("SSA-lite") and sparse constant
//! propagation.
//!
//! Every use site is linked to the set of definitions that may reach it —
//! including the *virtual entry definition* (registers are architecturally
//! zero at program start). Because no register is ever renamed the graph is
//! not true SSA, but every query the address-flow and dependence passes
//! need (which defs feed this operand? which uses does this def feed?) is
//! answered precisely per the CFG, which is all SSA would buy on programs
//! this small.

use sim_isa::{Instr, Reg, NUM_REGS};

use crate::cfg::Cfg;

/// The set of definition sites of one register reaching one program point.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DefSet {
    /// Defining pcs, ascending, deduplicated.
    pub pcs: Vec<usize>,
    /// Whether the architectural zero from program entry also reaches.
    pub entry: bool,
}

impl DefSet {
    /// True when no definition (not even the entry zero) reaches — only
    /// possible at unreachable program points.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty() && !self.entry
    }
}

/// Dense bitset over `len + 1` definition sites; bit `len` is the virtual
/// entry definition.
#[derive(Clone, PartialEq, Eq)]
struct PcSet {
    words: Vec<u64>,
}

impl PcSet {
    fn empty(len: usize) -> Self {
        PcSet { words: vec![0; (len + 1).div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    fn union(&mut self, other: &PcSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| (0..64).filter(move |b| w >> b & 1 != 0).map(move |b| wi * 64 + b))
    }

    fn to_def_set(&self, len: usize) -> DefSet {
        let mut pcs = Vec::new();
        let mut entry = false;
        for i in self.iter() {
            if i == len {
                entry = true;
            } else {
                pcs.push(i);
            }
        }
        DefSet { pcs, entry }
    }
}

/// One operand read: which register, and which definitions may feed it.
#[derive(Clone, Debug)]
pub struct UseSite {
    /// The register read.
    pub reg: Reg,
    /// The definitions that may reach this read.
    pub defs: DefSet,
}

/// Reaching-definitions def-use graph over a [`Cfg`].
pub struct DefUseGraph {
    len: usize,
    /// Per pc: one [`UseSite`] per distinct source register, in the order
    /// [`Instr::srcs`] first yields them.
    uses: Vec<Vec<UseSite>>,
    /// Per defining pc: the use pcs its value may feed.
    def_uses: Vec<Vec<usize>>,
}

impl DefUseGraph {
    /// Builds the graph with a classic forward union reaching-definitions
    /// fixed point (per-register def-site bitsets, worklist over blocks).
    pub fn build(cfg: &Cfg, instrs: &[Instr]) -> DefUseGraph {
        let len = instrs.len();
        let nb = cfg.len();
        let mut ins: Vec<Vec<PcSet>> =
            (0..nb).map(|_| (0..NUM_REGS).map(|_| PcSet::empty(len)).collect()).collect();
        if nb == 0 {
            return DefUseGraph { len, uses: Vec::new(), def_uses: Vec::new() };
        }
        // The virtual entry definition of every register reaches block 0.
        for set in &mut ins[0] {
            set.insert(len);
        }

        // Block transfer: the last in-block def of a register kills
        // everything incoming; otherwise the block is transparent.
        let last_def = |b: usize, r: usize| -> Option<usize> {
            let block = &cfg.blocks[b];
            (block.start..block.end).rev().find(|&pc| instrs[pc].dst().map(Reg::index) == Some(r))
        };

        let mut work: Vec<usize> = (0..nb).collect();
        let mut out: Vec<PcSet> = (0..NUM_REGS).map(|_| PcSet::empty(len)).collect();
        while let Some(b) = work.pop() {
            for (r, (o, i)) in out.iter_mut().zip(&ins[b]).enumerate() {
                o.clear();
                match last_def(b, r) {
                    Some(pc) => o.insert(pc),
                    None => {
                        o.union(i);
                    }
                }
            }
            for &s in &cfg.blocks[b].succs {
                let mut grew = false;
                for (i, o) in ins[s].iter_mut().zip(&out) {
                    grew |= i.union(o);
                }
                if grew && !work.contains(&s) {
                    work.push(s);
                }
            }
        }

        // Walk each block once more to attach per-use def sets.
        let mut uses: Vec<Vec<UseSite>> = vec![Vec::new(); len];
        let mut def_uses: Vec<Vec<usize>> = vec![Vec::new(); len];
        for (block, block_ins) in cfg.blocks.iter().zip(&ins) {
            let mut cur: Vec<PcSet> = block_ins.clone();
            for pc in block.start..block.end {
                let mut seen: u16 = 0;
                for src in instrs[pc].srcs() {
                    if seen & src.bit() != 0 {
                        continue;
                    }
                    seen |= src.bit();
                    let defs = cur[src.index()].to_def_set(len);
                    for &d in &defs.pcs {
                        def_uses[d].push(pc);
                    }
                    uses[pc].push(UseSite { reg: src, defs });
                }
                if let Some(rd) = instrs[pc].dst() {
                    cur[rd.index()].clear();
                    cur[rd.index()].insert(pc);
                }
            }
        }
        for u in &mut def_uses {
            u.sort_unstable();
            u.dedup();
        }

        DefUseGraph { len, uses, def_uses }
    }

    /// The definitions reaching the read of `reg` at `pc`, or `None` when
    /// the instruction does not read `reg`.
    pub fn defs_for_use(&self, pc: usize, reg: Reg) -> Option<&DefSet> {
        self.uses[pc].iter().find(|u| u.reg == reg).map(|u| &u.defs)
    }

    /// Every operand read at `pc` with its reaching definitions.
    pub fn uses_at(&self, pc: usize) -> &[UseSite] {
        &self.uses[pc]
    }

    /// The use pcs the definition at `def_pc` may feed.
    pub fn uses_of_def(&self, def_pc: usize) -> &[usize] {
        &self.def_uses[def_pc]
    }

    /// Number of instructions the graph was built over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the program was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Sparse conditional-free constant propagation over the def-use graph.
///
/// `result[pc]` is `Some(v)` when the value written by the definition at
/// `pc` is provably `v` on every execution. The virtual entry definition is
/// the constant 0 (registers are architecturally zeroed). The fixed point
/// is pessimistic — a cell becomes `Some` only once all operand definitions
/// have resolved to one equal constant, so each cell is written at most
/// once and termination is immediate.
pub fn known_constants(instrs: &[Instr], dfg: &DefUseGraph) -> Vec<Option<u64>> {
    let mut known: Vec<Option<u64>> = vec![None; instrs.len()];
    loop {
        let mut changed = false;
        for (pc, instr) in instrs.iter().enumerate() {
            if known[pc].is_some() || instr.dst().is_none() {
                continue;
            }
            let value = match *instr {
                Instr::Imm { value, .. } => Some(value as u64),
                Instr::Alu { op, ra, rb, .. } => {
                    match (const_use(dfg, &known, pc, ra), const_use(dfg, &known, pc, rb)) {
                        (Some(a), Some(b)) => Some(op.eval(a, b)),
                        _ => None,
                    }
                }
                Instr::AluImm { op, ra, imm, .. } => {
                    const_use(dfg, &known, pc, ra).map(|a| op.eval(a, imm as u64))
                }
                // Loads (and everything else producing a value from memory)
                // are never constant to this pass.
                _ => None,
            };
            if value.is_some() {
                known[pc] = value;
                changed = true;
            }
        }
        if !changed {
            return known;
        }
    }
}

/// The constant value of the read of `reg` at `pc`, when every reaching
/// definition agrees on one.
pub fn const_use(dfg: &DefUseGraph, known: &[Option<u64>], pc: usize, reg: Reg) -> Option<u64> {
    let defs = dfg.defs_for_use(pc, reg)?;
    const_of_defs(defs, known)
}

/// The constant value shared by every definition in `defs`, if any.
pub fn const_of_defs(defs: &DefSet, known: &[Option<u64>]) -> Option<u64> {
    let mut value: Option<u64> = defs.entry.then_some(0);
    for &d in &defs.pcs {
        match (known[d], value) {
            (Some(v), None) => value = Some(v),
            (Some(v), Some(prev)) if v == prev => {}
            _ => return None,
        }
    }
    if defs.is_empty() {
        return None;
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::parse_program;

    fn build(text: &str) -> (Cfg, Vec<Instr>, DefUseGraph) {
        let p = parse_program(text).unwrap();
        let instrs = p.instrs().to_vec();
        let cfg = Cfg::build(&instrs);
        let dfg = DefUseGraph::build(&cfg, &instrs);
        (cfg, instrs, dfg)
    }

    #[test]
    fn straight_line_links_use_to_def() {
        let (_, _, dfg) = build("li r1, 5\nadd r2, r1, r1\nhalt");
        let defs = dfg.defs_for_use(1, Reg::R1).unwrap();
        assert_eq!(defs.pcs, vec![0]);
        assert!(!defs.entry);
        assert_eq!(dfg.uses_of_def(0), &[1]);
    }

    #[test]
    fn entry_zero_reaches_unwritten_reads() {
        let (_, _, dfg) = build("add r2, r1, r1\nhalt");
        let defs = dfg.defs_for_use(0, Reg::R1).unwrap();
        assert!(defs.entry);
        assert!(defs.pcs.is_empty());
    }

    #[test]
    fn loop_carried_def_reaches_use_at_head() {
        // r1 at the addi reads both the li (entry path) and itself (loop
        // path).
        let (_, _, dfg) = build("li r1, 3\ntop:\naddi r1, r1, -1\nbnz r1, top\nhalt");
        let defs = dfg.defs_for_use(1, Reg::R1).unwrap();
        assert_eq!(defs.pcs, vec![0, 1]);
        assert!(!defs.entry);
    }

    #[test]
    fn diamond_joins_both_defs() {
        let (_, _, dfg) = build("bnz r1, @3\nli r2, 1\njmp @4\nli r2, 2\nadd r3, r2, r2\nhalt");
        let defs = dfg.defs_for_use(4, Reg::R2).unwrap();
        assert_eq!(defs.pcs, vec![1, 3]);
        assert!(!defs.entry);
    }

    #[test]
    fn constants_fold_through_alu() {
        let (_, instrs, dfg) = build("li r1, 6\nshli r2, r1, 3\nadd r3, r2, r1\nhalt");
        let known = known_constants(&instrs, &dfg);
        assert_eq!(known[0], Some(6));
        assert_eq!(known[1], Some(48));
        assert_eq!(known[2], Some(54));
    }

    #[test]
    fn loop_carried_value_is_not_constant() {
        let (_, instrs, dfg) = build("li r1, 3\ntop:\naddi r1, r1, -1\nbnz r1, top\nhalt");
        let known = known_constants(&instrs, &dfg);
        assert_eq!(known[0], Some(3));
        assert_eq!(known[1], None);
    }

    #[test]
    fn entry_zero_is_constant() {
        let (_, instrs, dfg) = build("addi r2, r1, 7\nhalt");
        let known = known_constants(&instrs, &dfg);
        assert_eq!(known[0], Some(7));
    }
}
