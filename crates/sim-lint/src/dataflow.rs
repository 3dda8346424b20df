//! Dataflow analyses over the CFG: dominators, reachability, and the
//! may-uninitialized reads the def-use graph's entry definition reaches.

use sim_isa::Instr;

use crate::cfg::Cfg;
use crate::dfg::DefUseGraph;

/// A dense bitset over block indices (programs are small; a few words).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockSet {
    words: Vec<u64>,
}

impl BlockSet {
    /// An empty set sized for `n` blocks.
    pub fn empty(n: usize) -> Self {
        BlockSet { words: vec![0; n.div_ceil(64)] }
    }

    /// A full set over `n` blocks.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for (i, w) in s.words.iter_mut().enumerate() {
            let remaining = n.saturating_sub(i * 64);
            *w = if remaining >= 64 { u64::MAX } else { (1u64 << remaining) - 1 };
        }
        s
    }

    /// Tests membership.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Inserts `i`; returns whether it was newly added.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let added = *w & bit == 0;
        *w |= bit;
        added
    }

    /// Intersects with `other` in place; returns whether anything changed.
    pub fn intersect(&mut self, other: &BlockSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

/// Blocks reachable from the entry (block 0).
pub fn reachable(cfg: &Cfg) -> BlockSet {
    let mut seen = BlockSet::empty(cfg.len());
    if cfg.is_empty() {
        return seen;
    }
    let mut work = vec![0usize];
    seen.insert(0);
    while let Some(b) = work.pop() {
        for &s in &cfg.blocks[b].succs {
            if seen.insert(s) {
                work.push(s);
            }
        }
    }
    seen
}

/// Iterative dominator sets: `doms[b]` contains every block that dominates
/// `b` (including `b` itself). Unreachable blocks keep the full set, which
/// conservatively keeps them out of back-edge detection.
pub fn dominators(cfg: &Cfg) -> Vec<BlockSet> {
    let n = cfg.len();
    let mut doms: Vec<BlockSet> = (0..n).map(|_| BlockSet::full(n)).collect();
    if n == 0 {
        return doms;
    }
    doms[0] = BlockSet::empty(n);
    doms[0].insert(0);
    let reach = reachable(cfg);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            if !reach.contains(b) {
                continue;
            }
            let mut new = BlockSet::full(n);
            for &p in &cfg.preds[b] {
                if reach.contains(p) {
                    new.intersect(&doms[p]);
                }
            }
            new.insert(b);
            if new != doms[b] {
                doms[b] = new;
                changed = true;
            }
        }
    }
    doms
}

/// Result of the may-uninitialized analysis.
pub struct UninitAnalysis {
    /// `(pc, reg_index)` pairs where a possibly-unwritten register is read,
    /// deduplicated and sorted by pc then register.
    pub reads: Vec<(usize, usize)>,
}

/// A register is "may-uninit" at a read when the virtual entry definition
/// (registers are architecturally zero) reaches it along some path — the
/// uses whose [`DefUseGraph`] reaching set has
/// [`entry`](crate::DefSet::entry). Reads in unreachable code see no
/// definition at all and stay silent.
pub fn may_uninit(cfg: &Cfg, instrs: &[Instr]) -> UninitAnalysis {
    let dfg = DefUseGraph::build(cfg, instrs);
    let mut reads: Vec<(usize, usize)> = (0..dfg.len())
        .flat_map(|pc| {
            dfg.uses_at(pc).iter().filter(|u| u.defs.entry).map(move |u| (pc, u.reg.index()))
        })
        .collect();
    reads.sort_unstable();
    UninitAnalysis { reads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::parse_program;

    fn cfg_of(text: &str) -> (Cfg, Vec<Instr>) {
        let p = parse_program(text).unwrap();
        (Cfg::build(p.instrs()), p.instrs().to_vec())
    }

    #[test]
    fn dominators_of_a_diamond() {
        // 0: branch -> (1 | 2) -> 3
        let (cfg, _) = cfg_of("bnz r1, @3\nnop\njmp @4\nnop\nhalt");
        // blocks: [bnz][nop jmp][nop][halt]
        assert_eq!(cfg.len(), 4);
        let doms = dominators(&cfg);
        assert!(doms[3].contains(0));
        assert!(!doms[3].contains(1));
        assert!(!doms[3].contains(2));
    }

    #[test]
    fn loop_head_dominates_latch() {
        let (cfg, _) = cfg_of("li r1, 3\ntop:\naddi r1, r1, -1\nbnz r1, top\nhalt");
        let doms = dominators(&cfg);
        assert!(doms[1].contains(1));
        assert!(doms[1].contains(0));
    }

    #[test]
    fn uninit_read_detected_and_cleared() {
        let (cfg, instrs) = cfg_of("add r3, r1, r2\nli r1, 1\nadd r4, r1, r1\nhalt");
        let a = may_uninit(&cfg, &instrs);
        // r1 and r2 read uninitialized at pc 0; r1 is clean at pc 2.
        assert_eq!(a.reads, vec![(0, 1), (0, 2)]);
        // Sorted by register, not by operand order.
        let (cfg, instrs) = cfg_of("add r3, r2, r1\nhalt");
        assert_eq!(may_uninit(&cfg, &instrs).reads, vec![(0, 1), (0, 2)]);
        // Reads in unreachable code stay silent.
        let (cfg, instrs) = cfg_of("jmp @2\nadd r3, r1, r1\nhalt");
        assert_eq!(may_uninit(&cfg, &instrs).reads, Vec::<(usize, usize)>::new());
    }

    #[test]
    fn join_keeps_may_uninit() {
        // r2 written on only one side of the diamond -> still may-uninit after.
        let (cfg, instrs) = cfg_of("li r1, 1\nbnz r1, @3\nli r2, 7\nadd r3, r2, r2\nhalt");
        let a = may_uninit(&cfg, &instrs);
        assert!(a.reads.contains(&(3, 2)));
    }

    #[test]
    fn bitset_full_and_intersect() {
        let mut a = BlockSet::full(70);
        assert!(a.contains(69));
        let b = BlockSet::empty(70);
        assert!(a.intersect(&b));
        assert!(!a.contains(0));
    }
}
