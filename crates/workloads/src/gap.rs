//! The five GAP-suite kernels (bc, bfs, cc, pr, sssp), re-expressed for the
//! simulator ISA.
//!
//! Each kernel reproduces the memory-access *shape* the paper's evaluation
//! depends on: an outer striding load over a worklist or vertex range, a
//! data-dependent inner loop over a CSR edge list (striding), and one or
//! more loads indirect on the edge value — plus the data-dependent branches
//! (bfs/sssp/bc) that exercise divergence. Frontier-based kernels simulate
//! the *largest* top-down step, set up host-side, which is the
//! representative phase of the 500 M-instruction ROIs the paper samples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_isa::{Asm, Reg, SparseMemory};

use crate::graphs::{largest_frontier, Csr, GraphInput};
use crate::hpcdb::busy_work;
use crate::suite::{Layout, SizeClass, Workload};

/// Writes a CSR graph into memory as two u64 arrays; returns
/// `(offsets_base, edges_base)`.
fn write_csr(mem: &mut SparseMemory, layout: &mut Layout, g: &Csr) -> (u64, u64) {
    let offs = layout.alloc_words(g.n + 1);
    let edges = layout.alloc_words(g.m());
    mem.write_u64_slice(offs, &g.offsets);
    for (k, e) in g.edges.iter().enumerate() {
        mem.write_u64(edges + 8 * k as u64, *e as u64);
    }
    (offs, edges)
}

/// Address where kernels store their final result (for host validation).
pub const RESULT_ADDR: u64 = 0x8_0000;

/// Breadth-first search: one top-down step of Algorithm 1 over the largest
/// frontier.
pub fn bfs(input: GraphInput, size: SizeClass, seed: u64) -> Workload {
    let g = input.generate(size.graph_scale_shift(), seed);
    build_bfs_like("bfs", &g, input.name())
}

/// Graph500 is BFS on a Graph500-parameter Kronecker graph; shared builder.
pub(crate) fn build_bfs_like(name: &str, g: &Csr, input_name: &str) -> Workload {
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let (offs, edges) = write_csr(&mut mem, &mut layout, g);

    let depth = g.bfs_depths(0);
    let (fd, frontier) = largest_frontier(&depth);
    let visited = layout.alloc_words(g.n);
    for (v, d) in depth.iter().enumerate() {
        if *d != u32::MAX && *d <= fd {
            mem.write_u64(visited + 8 * v as u64, 1);
        }
    }
    let wl = layout.alloc_words(frontier.len().max(1));
    for (k, v) in frontier.iter().enumerate() {
        mem.write_u64(wl + 8 * k as u64, *v as u64);
    }
    let nextwl = layout.alloc_words(g.m().max(1));

    // Register plan:
    //   r1 wl, r2 offs, r3 edges, r4 visited, r5 nextwl
    //   r6 j, r7 wl_n, r8 v, r9 e_end, r10 i, r11 u, r12 flag,
    //   r13 c, r14 next_n, r15 tmp, r0 one
    let mut asm = Asm::new();
    asm.region("offsets", offs, 8 * (g.n as u64 + 1));
    asm.region("edges", edges, 8 * g.m().max(1) as u64);
    asm.region("visited", visited, 8 * g.n as u64);
    asm.region("worklist", wl, 8 * frontier.len().max(1) as u64);
    asm.region("next_worklist", nextwl, 8 * g.m().max(1) as u64);
    asm.region("result", RESULT_ADDR, 8);
    let (rwl, roffs, redges, rvis, rnext) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    let (j, wl_n, v, e_end, i, u, flag, c, next_n, tmp, one) = (
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
        Reg::R0,
    );
    asm.li(rwl, wl as i64);
    asm.li(roffs, offs as i64);
    asm.li(redges, edges as i64);
    asm.li(rvis, visited as i64);
    asm.li(rnext, nextwl as i64);
    asm.li(j, 0);
    asm.li(wl_n, frontier.len() as i64);
    asm.li(next_n, 0);
    asm.li(one, 1);
    asm.name("outer");
    let outer = asm.here();
    let inner_done = asm.label();
    asm.ld8_idx(v, rwl, j, 3); // v = wl[j]            (outer striding)
    asm.ld8_idx(i, roffs, v, 3); // i = offs[v]        (dependent)
    asm.add(tmp, v, one);
    asm.ld8_idx(e_end, roffs, tmp, 3); // e = offs[v+1]
    asm.slt(c, i, e_end);
    asm.bez(c, inner_done);
    asm.name("inner");
    let inner = asm.here();
    let skip = asm.label();
    asm.ld8_idx(u, redges, i, 3); // u = edges[i]       (inner striding)
    asm.ld8_idx(flag, rvis, u, 3); // visited[u]        (dependent indirect)
    asm.bnz(flag, skip); // data-dependent branch
    asm.st8_idx(one, rvis, u, 3); // visited[u] = 1
    asm.st8_idx(u, rnext, next_n, 3); // nextwl[next_n++] = u
    asm.addi(next_n, next_n, 1);
    asm.bind(skip);
    busy_work(&mut asm, flag, u, 5);
    asm.addi(i, i, 1);
    asm.slt(c, i, e_end);
    asm.bnz(c, inner);
    asm.bind(inner_done);
    asm.addi(j, j, 1);
    asm.slt(c, j, wl_n);
    asm.bnz(c, outer);
    asm.li(tmp, RESULT_ADDR as i64);
    asm.st8(next_n, tmp, 0);
    asm.halt();

    Workload {
        name: name.to_string(),
        prog: asm.finish().expect("bfs assembles"),
        mem,
        description: format!(
            "top-down BFS step on {input_name}: worklist -> offsets -> edges -> visited, \
             data-dependent inner loop and branch (Algorithm 1)"
        ),
        regions: vec![
            ("offsets".into(), offs),
            ("edges".into(), edges),
            ("visited".into(), visited),
            ("worklist".into(), wl),
            ("next_worklist".into(), nextwl),
        ],
    }
}

/// PageRank: one pull-style iteration (integer ranks).
pub fn pr(input: GraphInput, size: SizeClass, seed: u64) -> Workload {
    let g = input.generate(size.graph_scale_shift(), seed);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let (offs, edges) = write_csr(&mut mem, &mut layout, &g);
    let rank = layout.alloc_words(g.n);
    let newrank = layout.alloc_words(g.n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7072);
    for v in 0..g.n {
        mem.write_u64(rank + 8 * v as u64, rng.random_range(1..1000));
    }

    // r1 offs, r2 edges, r3 rank, r4 newrank;
    // r5 v, r6 n, r7 i, r8 e_end, r9 u, r10 sum, r11 ru, r13 c, r15 tmp
    let mut asm = Asm::new();
    asm.region("offsets", offs, 8 * (g.n as u64 + 1));
    asm.region("edges", edges, 8 * g.m().max(1) as u64);
    asm.region("rank", rank, 8 * g.n as u64);
    asm.region("newrank", newrank, 8 * g.n as u64);
    let (roffs, redges, rrank, rnew) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    let (v, n, i, e_end, u, sum, ru, c, tmp) =
        (Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R13, Reg::R15);
    asm.li(roffs, offs as i64);
    asm.li(redges, edges as i64);
    asm.li(rrank, rank as i64);
    asm.li(rnew, newrank as i64);
    asm.li(v, 0);
    asm.li(n, g.n as i64);
    let outer = asm.here();
    let inner_done = asm.label();
    asm.ld8_idx(i, roffs, v, 3);
    asm.addi(tmp, v, 1);
    asm.ld8_idx(e_end, roffs, tmp, 3);
    asm.li(sum, 0);
    asm.slt(c, i, e_end);
    asm.bez(c, inner_done);
    let inner = asm.here();
    asm.ld8_idx(u, redges, i, 3); // inner striding
    asm.ld8_idx(ru, rrank, u, 3); // indirect rank load
    asm.add(sum, sum, ru);
    busy_work(&mut asm, u, ru, 5);
    asm.addi(i, i, 1);
    asm.slt(c, i, e_end);
    asm.bnz(c, inner);
    asm.bind(inner_done);
    asm.st8_idx(sum, rnew, v, 3);
    asm.addi(v, v, 1);
    asm.slt(c, v, n);
    asm.bnz(c, outer);
    asm.halt();

    Workload {
        name: "pr".to_string(),
        prog: asm.finish().expect("pr assembles"),
        mem,
        description: format!(
            "pull-style PageRank iteration on {}: edges -> rank indirect gather per vertex",
            input.name()
        ),
        regions: vec![
            ("offsets".into(), offs),
            ("edges".into(), edges),
            ("rank".into(), rank),
            ("newrank".into(), newrank),
        ],
    }
}

/// Connected components: one label-propagation sweep (branchless min).
pub fn cc(input: GraphInput, size: SizeClass, seed: u64) -> Workload {
    let g = input.generate(size.graph_scale_shift(), seed);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let (offs, edges) = write_csr(&mut mem, &mut layout, &g);
    let comp = layout.alloc_words(g.n);
    for v in 0..g.n {
        mem.write_u64(comp + 8 * v as u64, v as u64);
    }

    // r1 offs, r2 edges, r3 comp; r5 v, r6 n, r7 i, r8 e_end, r9 u,
    // r10 cv, r11 cu, r13 c, r15 tmp
    let mut asm = Asm::new();
    asm.region("offsets", offs, 8 * (g.n as u64 + 1));
    asm.region("edges", edges, 8 * g.m().max(1) as u64);
    asm.region("comp", comp, 8 * g.n as u64);
    let (roffs, redges, rcomp) = (Reg::R1, Reg::R2, Reg::R3);
    let (v, n, i, e_end, u, cv, cu, c, tmp) =
        (Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R13, Reg::R15);
    asm.li(roffs, offs as i64);
    asm.li(redges, edges as i64);
    asm.li(rcomp, comp as i64);
    asm.li(v, 0);
    asm.li(n, g.n as i64);
    let outer = asm.here();
    let inner_done = asm.label();
    asm.ld8_idx(i, roffs, v, 3);
    asm.addi(tmp, v, 1);
    asm.ld8_idx(e_end, roffs, tmp, 3);
    asm.ld8_idx(cv, rcomp, v, 3);
    asm.slt(c, i, e_end);
    asm.bez(c, inner_done);
    let inner = asm.here();
    asm.ld8_idx(u, redges, i, 3); // inner striding
    asm.ld8_idx(cu, rcomp, u, 3); // indirect component load
    asm.alu(sim_isa::AluOp::Min, cv, cv, cu);
    busy_work(&mut asm, u, cu, 5);
    asm.addi(i, i, 1);
    asm.slt(c, i, e_end);
    asm.bnz(c, inner);
    asm.bind(inner_done);
    asm.st8_idx(cv, rcomp, v, 3);
    asm.addi(v, v, 1);
    asm.slt(c, v, n);
    asm.bnz(c, outer);
    asm.halt();

    Workload {
        name: "cc".to_string(),
        prog: asm.finish().expect("cc assembles"),
        mem,
        description: format!(
            "connected-components label sweep on {}: edges -> comp indirect min",
            input.name()
        ),
        regions: vec![("offsets".into(), offs), ("edges".into(), edges), ("comp".into(), comp)],
    }
}

/// Single-source shortest path: one Bellman-Ford relaxation pass over the
/// largest frontier.
pub fn sssp(input: GraphInput, size: SizeClass, seed: u64) -> Workload {
    let g = input.generate(size.graph_scale_shift(), seed);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let (offs, edges) = write_csr(&mut mem, &mut layout, &g);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7373);
    let weights = layout.alloc_words(g.m().max(1));
    for k in 0..g.m() {
        mem.write_u64(weights + 8 * k as u64, rng.random_range(1..16));
    }
    let depth = g.bfs_depths(0);
    let (_, frontier) = largest_frontier(&depth);
    // Mid-algorithm snapshot: approximate distances with per-vertex slack
    // so the relaxation branch fires on a realistic fraction of edges.
    let dist = layout.alloc_words(g.n);
    for (v, dv) in depth.iter().enumerate() {
        let d = if *dv == u32::MAX { 1 << 40 } else { *dv as u64 * 16 + rng.random_range(0..32) };
        mem.write_u64(dist + 8 * v as u64, d);
    }
    let wl = layout.alloc_words(frontier.len().max(1));
    for (k, v) in frontier.iter().enumerate() {
        mem.write_u64(wl + 8 * k as u64, *v as u64);
    }

    // r1 wl, r2 offs, r3 edges, r4 weights, r5 dist;
    // r6 j, r7 wl_n, r8 v, r9 e_end, r10 i, r11 u, r12 w, r13 c,
    // r14 dv, r15 nd, r0 du
    let mut asm = Asm::new();
    asm.region("offsets", offs, 8 * (g.n as u64 + 1));
    asm.region("edges", edges, 8 * g.m().max(1) as u64);
    asm.region("weights", weights, 8 * g.m().max(1) as u64);
    asm.region("dist", dist, 8 * g.n as u64);
    asm.region("worklist", wl, 8 * frontier.len().max(1) as u64);
    let (rwl, roffs, redges, rwts, rdist) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    let (j, wl_n, v, e_end, i, u, w, c, dv, nd, du) = (
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
        Reg::R0,
    );
    asm.li(rwl, wl as i64);
    asm.li(roffs, offs as i64);
    asm.li(redges, edges as i64);
    asm.li(rwts, weights as i64);
    asm.li(rdist, dist as i64);
    asm.li(j, 0);
    asm.li(wl_n, frontier.len() as i64);
    let outer = asm.here();
    let inner_done = asm.label();
    asm.ld8_idx(v, rwl, j, 3); // outer striding
    asm.ld8_idx(dv, rdist, v, 3);
    asm.ld8_idx(i, roffs, v, 3);
    asm.addi(nd, v, 1);
    asm.ld8_idx(e_end, roffs, nd, 3);
    asm.slt(c, i, e_end);
    asm.bez(c, inner_done);
    let inner = asm.here();
    let skip = asm.label();
    asm.ld8_idx(u, redges, i, 3); // inner striding
    asm.ld8_idx(w, rwts, i, 3); // parallel striding
    asm.add(nd, dv, w);
    asm.ld8_idx(du, rdist, u, 3); // dependent indirect
    asm.slt(c, nd, du);
    asm.bez(c, skip); // data-dependent branch
    asm.st8_idx(nd, rdist, u, 3); // relax
    asm.bind(skip);
    busy_work(&mut asm, w, u, 5);
    asm.addi(i, i, 1);
    asm.slt(c, i, e_end);
    asm.bnz(c, inner);
    asm.bind(inner_done);
    asm.addi(j, j, 1);
    asm.slt(c, j, wl_n);
    asm.bnz(c, outer);
    asm.halt();

    Workload {
        name: "sssp".to_string(),
        prog: asm.finish().expect("sssp assembles"),
        mem,
        description: format!(
            "Bellman-Ford relaxation pass on {}: edges+weights -> dist indirect compare/update",
            input.name()
        ),
        regions: vec![
            ("offsets".into(), offs),
            ("edges".into(), edges),
            ("weights".into(), weights),
            ("dist".into(), dist),
            ("worklist".into(), wl),
        ],
    }
}

/// Betweenness centrality: one level of the forward sigma-accumulation
/// phase (Brandes).
pub fn bc(input: GraphInput, size: SizeClass, seed: u64) -> Workload {
    let g = input.generate(size.graph_scale_shift(), seed);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let (offs, edges) = write_csr(&mut mem, &mut layout, &g);

    let depth = g.bfs_depths(0);
    let (fd, frontier) = largest_frontier(&depth);
    let depths_arr = layout.alloc_words(g.n);
    let sigma = layout.alloc_words(g.n);
    for (v, dv) in depth.iter().enumerate() {
        let d = if *dv == u32::MAX { 1 << 30 } else { *dv as u64 };
        mem.write_u64(depths_arr + 8 * v as u64, d);
        mem.write_u64(sigma + 8 * v as u64, 1);
    }
    let wl = layout.alloc_words(frontier.len().max(1));
    for (k, v) in frontier.iter().enumerate() {
        mem.write_u64(wl + 8 * k as u64, *v as u64);
    }

    // r1 wl, r2 offs, r3 edges, r4 depth, r5 sigma;
    // r6 j, r7 wl_n, r8 v, r9 e_end, r10 i, r11 u, r12 du, r13 c,
    // r14 sv, r15 tmp, r0 next_depth
    let mut asm = Asm::new();
    asm.region("offsets", offs, 8 * (g.n as u64 + 1));
    asm.region("edges", edges, 8 * g.m().max(1) as u64);
    asm.region("depth", depths_arr, 8 * g.n as u64);
    asm.region("sigma", sigma, 8 * g.n as u64);
    asm.region("worklist", wl, 8 * frontier.len().max(1) as u64);
    let (rwl, roffs, redges, rdep, rsig) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    let (j, wl_n, v, e_end, i, u, du, c, sv, tmp, nextd) = (
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
        Reg::R0,
    );
    asm.li(rwl, wl as i64);
    asm.li(roffs, offs as i64);
    asm.li(redges, edges as i64);
    asm.li(rdep, depths_arr as i64);
    asm.li(rsig, sigma as i64);
    asm.li(j, 0);
    asm.li(wl_n, frontier.len() as i64);
    asm.li(nextd, fd as i64 + 1);
    let outer = asm.here();
    let inner_done = asm.label();
    asm.ld8_idx(v, rwl, j, 3); // outer striding
    asm.ld8_idx(sv, rsig, v, 3);
    asm.ld8_idx(i, roffs, v, 3);
    asm.addi(tmp, v, 1);
    asm.ld8_idx(e_end, roffs, tmp, 3);
    asm.slt(c, i, e_end);
    asm.bez(c, inner_done);
    let inner = asm.here();
    let skip = asm.label();
    asm.ld8_idx(u, redges, i, 3); // inner striding
    asm.ld8_idx(du, rdep, u, 3); // dependent indirect
    asm.seq(c, du, nextd);
    asm.bez(c, skip); // highly data-dependent branch
    asm.ld8_idx(tmp, rsig, u, 3); // second-level indirect
    asm.add(tmp, tmp, sv);
    asm.st8_idx(tmp, rsig, u, 3);
    asm.bind(skip);
    busy_work(&mut asm, du, u, 5);
    asm.addi(i, i, 1);
    asm.slt(c, i, e_end);
    asm.bnz(c, inner);
    asm.bind(inner_done);
    asm.addi(j, j, 1);
    asm.slt(c, j, wl_n);
    asm.bnz(c, outer);
    asm.halt();

    Workload {
        name: "bc".to_string(),
        prog: asm.finish().expect("bc assembles"),
        mem,
        description: format!(
            "betweenness-centrality sigma level on {}: edges -> depth -> sigma, broad divergence",
            input.name()
        ),
        regions: vec![
            ("offsets".into(), offs),
            ("edges".into(), edges),
            ("depth".into(), depths_arr),
            ("sigma".into(), sigma),
            ("worklist".into(), wl),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Cpu;

    fn run_functional(wl: &mut Workload, max: u64) -> Cpu {
        let mut cpu = Cpu::new();
        cpu.run(&wl.prog, &mut wl.mem, max).expect("kernel executes");
        cpu
    }

    #[test]
    fn bfs_visits_exactly_the_next_frontier() {
        let input = GraphInput::Ur;
        let g = input.generate(SizeClass::Test.graph_scale_shift(), 7);
        let depth = g.bfs_depths(0);
        let (fd, frontier) = largest_frontier(&depth);
        // Expected newly visited: distinct depth == fd+1 vertices reachable
        // from the frontier.
        let mut expect = 0u64;
        let mut seen = vec![false; g.n];
        for &v in &frontier {
            for &u in g.neighbors(v as usize) {
                if depth[u as usize] == fd + 1 && !seen[u as usize] {
                    seen[u as usize] = true;
                    expect += 1;
                }
            }
        }
        let mut wl = bfs(input, SizeClass::Test, 7);
        let cpu = run_functional(&mut wl, 200_000_000);
        assert!(cpu.is_halted(), "bfs kernel must halt");
        assert_eq!(wl.mem.read_u64(RESULT_ADDR), expect);
    }

    #[test]
    fn pr_computes_neighbor_sums() {
        let input = GraphInput::Ur;
        let mut wl = pr(input, SizeClass::Test, 3);
        let g = input.generate(SizeClass::Test.graph_scale_shift(), 3);
        let rank = wl.region("rank");
        let newrank = wl.region("newrank");
        // Snapshot ranks before running.
        let ranks: Vec<u64> = (0..g.n).map(|v| wl.mem.read_u64(rank + 8 * v as u64)).collect();
        let cpu = run_functional(&mut wl, 400_000_000);
        assert!(cpu.is_halted());
        for v in 0..g.n.min(500) {
            let want: u64 = g
                .neighbors(v)
                .iter()
                .map(|&u| ranks[u as usize])
                .fold(0u64, |a, b| a.wrapping_add(b));
            assert_eq!(wl.mem.read_u64(newrank + 8 * v as u64), want, "vertex {v}");
        }
    }

    #[test]
    fn cc_labels_decrease_monotonically() {
        let input = GraphInput::Ur;
        let mut wl = cc(input, SizeClass::Test, 9);
        let g = input.generate(SizeClass::Test.graph_scale_shift(), 9);
        let comp = wl.region("comp");
        let cpu = run_functional(&mut wl, 400_000_000);
        assert!(cpu.is_halted());
        let mut changed = 0;
        for v in 0..g.n {
            let label = wl.mem.read_u64(comp + 8 * v as u64);
            assert!(label <= v as u64, "labels only shrink");
            if label != v as u64 {
                changed += 1;
            }
        }
        assert!(changed > 0, "at least some labels must propagate");
    }

    #[test]
    fn sssp_relaxations_never_increase_dist() {
        let input = GraphInput::Ur;
        let g = input.generate(SizeClass::Test.graph_scale_shift(), 11);
        let mut wl = sssp(input, SizeClass::Test, 11);
        let dist = wl.region("dist");
        let before: Vec<u64> = (0..g.n).map(|v| wl.mem.read_u64(dist + 8 * v as u64)).collect();
        let cpu = run_functional(&mut wl, 400_000_000);
        assert!(cpu.is_halted());
        let mut relaxed = 0;
        for (v, b) in before.iter().enumerate() {
            let after = wl.mem.read_u64(dist + 8 * v as u64);
            assert!(after <= *b);
            if after < *b {
                relaxed += 1;
            }
        }
        assert!(relaxed > 0, "some distance must relax");
    }

    #[test]
    fn bc_accumulates_sigma() {
        let input = GraphInput::Kr;
        let mut wl = bc(input, SizeClass::Test, 13);
        let cpu = run_functional(&mut wl, 400_000_000);
        assert!(cpu.is_halted());
    }

    #[test]
    fn all_gap_kernels_have_indirect_loads() {
        for build in [bfs, pr, cc, sssp, bc] {
            let wl = build(GraphInput::Ur, SizeClass::Test, 1);
            // Static check: at least two indexed loads (striding + indirect).
            let indexed_loads = wl
                .prog
                .instrs()
                .iter()
                .filter(|i| matches!(i, sim_isa::Instr::Load { addr, .. } if addr.index.is_some()))
                .count();
            assert!(indexed_loads >= 3, "{}: {indexed_loads} indexed loads", wl.name);
        }
    }
}
