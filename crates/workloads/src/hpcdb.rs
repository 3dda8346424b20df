//! The eight hpc-db benchmarks (database and HPC kernels with indirect
//! memory accesses), as used by the paper and its predecessors
//! (Ainsworth & Jones; Naithani et al.).
//!
//! Where the original programs are not redistributable, each kernel is a
//! faithful re-expression of the published access pattern (see DESIGN.md
//! §2): the striding index stream, the depth of the dependent chain, the
//! hash/address arithmetic between levels, and the presence or absence of
//! data-dependent branches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_isa::{Asm, Reg, SparseMemory};

use crate::graphs::{rmat, GRAPH500_ABC};
use crate::suite::{Layout, SizeClass, Workload};

/// Knuth's multiplicative-hash constant (fits in an i64 immediate).
const HASH_K: i64 = 0x2545_F491_4F6C_DD1D;

fn fill_random(mem: &mut SparseMemory, base: u64, n: usize, modulo: u64, rng: &mut StdRng) {
    for k in 0..n {
        mem.write_u64(base + 8 * k as u64, rng.random_range(0..modulo));
    }
}

/// Stand-in for the per-iteration compute of the original benchmarks
/// (payload checksums, key comparisons, rank arithmetic) that the lean
/// kernels would otherwise omit. Keeps instructions-per-miss near the
/// paper's regime so the 350-entry window holds a realistic number of
/// iterations (DESIGN.md §2).
pub(crate) fn busy_work(asm: &mut Asm, acc: Reg, val: Reg, rounds: usize) {
    for k in 0..rounds {
        asm.xor(acc, acc, val);
        asm.alui(sim_isa::AluOp::Add, acc, acc, 0x9E37 + k as i64);
    }
}

/// Camel: the paper's Figure 1 pattern, `C[hash(B[hash(A[i])])]++` — a
/// two-level hashed indirect chain with a read-modify-write at the end.
pub fn camel(size: SizeClass, seed: u64) -> Workload {
    let n = size.elems(1 << 20);
    let table = size.elems(1 << 21);
    let mask = (table - 1) as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let a = layout.alloc_words(n);
    let b = layout.alloc_words(table);
    let c_arr = layout.alloc_words(table);
    fill_random(&mut mem, a, n, u64::MAX, &mut rng);
    fill_random(&mut mem, b, table, u64::MAX, &mut rng);

    // r1 A, r2 B, r3 C; r4 i, r5 n, r6 v, r7 h, r8 k, r13 cnd, r15 tmp
    let mut asm = Asm::new();
    asm.region("A", a, 8 * n as u64);
    asm.region("B", b, 8 * table as u64);
    asm.region("C", c_arr, 8 * table as u64);
    let (ra, rb, rc) = (Reg::R1, Reg::R2, Reg::R3);
    let (i, nn, v, h, kreg, cnd, tmp) =
        (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R13, Reg::R15);
    asm.li(ra, a as i64);
    asm.li(rb, b as i64);
    asm.li(rc, c_arr as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    asm.li(kreg, HASH_K);
    let top = asm.here();
    asm.ld8_idx(v, ra, i, 3); // A[i]           (striding)
    asm.mul(h, v, kreg); // hash
    asm.shri(h, h, 24);
    asm.andi(h, h, mask);
    asm.ld8_idx(v, rb, h, 3); // B[hash]        (indirect level 1)
    asm.mul(h, v, kreg);
    asm.shri(h, h, 24);
    asm.andi(h, h, mask);
    asm.ld8_idx(tmp, rc, h, 3); // C[hash]       (indirect level 2)
    asm.addi(tmp, tmp, 1);
    asm.st8_idx(tmp, rc, h, 3); // C[hash]++
    busy_work(&mut asm, h, v, 8);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    asm.halt();

    Workload {
        name: "Camel".to_string(),
        prog: asm.finish().expect("camel assembles"),
        mem,
        description: "Figure-1 pattern: C[hash(B[hash(A[i])])]++, two hashed levels".to_string(),
        regions: vec![("A".into(), a), ("B".into(), b), ("C".into(), c_arr)],
    }
}

/// Graph500: top-down BFS on a Graph500-parameter Kronecker graph.
pub fn graph500(size: SizeClass, seed: u64) -> Workload {
    let scale = 16u32.saturating_sub(size.graph_scale_shift()).max(6);
    let g = rmat(scale, 16, GRAPH500_ABC, seed ^ 0x500);
    let mut wl = crate::gap::build_bfs_like("Graph500", &g, "Kron(graph500)");
    wl.description = "Graph500 top-down BFS step on a scale-16 Kronecker graph".to_string();
    wl
}

/// Hash join probe with `levels` chained bucket elements per tuple (HJ2 /
/// HJ8 in the paper: hash joins with two and eight elements per bucket):
/// each element dereference depends on the previous one, giving a deep
/// dependent chain that no stride or affine prefetcher can follow.
pub fn hashjoin(levels: usize, size: SizeClass, seed: u64) -> Workload {
    assert!(levels >= 1, "hash join needs at least one element per bucket");
    let n = size.elems(1 << 20);
    let table = size.elems(1 << 21);
    let mask = (table - 1) as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ (0x6A + levels as u64));
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let keys = layout.alloc_words(n);
    let ht = layout.alloc_words(table);
    let out = layout.alloc_words(n);
    fill_random(&mut mem, keys, n, u64::MAX, &mut rng);
    fill_random(&mut mem, ht, table, u64::MAX, &mut rng);

    // r1 keys, r2 HT, r3 out; r4 i, r5 n, r6 k, r7 h, r8 K, r9 v,
    // r10 acc, r13 c
    let mut asm = Asm::new();
    asm.region("keys", keys, 8 * n as u64);
    asm.region("table", ht, 8 * table as u64);
    asm.region("out", out, 8 * n as u64);
    let (rk, rht, rout) = (Reg::R1, Reg::R2, Reg::R3);
    let (i, nn, k, h, kc, v, acc, cnd) =
        (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R10, Reg::R13);
    asm.li(rk, keys as i64);
    asm.li(rht, ht as i64);
    asm.li(rout, out as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    asm.li(kc, HASH_K);
    let top = asm.here();
    asm.ld8_idx(k, rk, i, 3); // keys[i]        (striding)
    asm.li(acc, 0);
    for _ in 0..levels {
        // h = hash(k); v = HT[h]; k += v — each element dereference
        // depends on the previous one (bucket-chain walk).
        asm.mul(h, k, kc);
        asm.shri(h, h, 24);
        asm.andi(h, h, mask);
        asm.ld8_idx(v, rht, h, 3); // bucket element  (dependent indirect)
        asm.add(k, k, v);
        asm.add(acc, acc, v);
    }
    asm.st8_idx(acc, rout, i, 3);
    busy_work(&mut asm, h, acc, 8);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    asm.halt();

    Workload {
        name: format!("HJ{levels}"),
        prog: asm.finish().expect("hashjoin assembles"),
        mem,
        description: format!("hash-join probe: {levels} chained bucket-element loads per tuple"),
        regions: vec![("keys".into(), keys), ("table".into(), ht), ("out".into(), out)],
    }
}

/// Kangaroo: data-dependent pointer hops where *which* table is hopped
/// into depends on the value — broad per-lane divergence.
pub fn kangaroo(size: SizeClass, seed: u64) -> Workload {
    let n = size.elems(1 << 20);
    let table = size.elems(1 << 20);
    let mask = (table - 1) as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let a = layout.alloc_words(n);
    let t1 = layout.alloc_words(table);
    let t2 = layout.alloc_words(table);
    fill_random(&mut mem, a, n, u64::MAX, &mut rng);
    fill_random(&mut mem, t1, table, u64::MAX, &mut rng);
    fill_random(&mut mem, t2, table, u64::MAX, &mut rng);

    // r1 A, r2 T1, r3 T2; r4 i, r5 n, r6 x, r7 h, r8 acc, r12 parity,
    // r13 c
    let mut asm = Asm::new();
    asm.region("A", a, 8 * n as u64);
    asm.region("T1", t1, 8 * table as u64);
    asm.region("T2", t2, 8 * table as u64);
    let (ra, rt1, rt2) = (Reg::R1, Reg::R2, Reg::R3);
    let (i, nn, x, h, acc, parity, cnd) =
        (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R12, Reg::R13);
    asm.li(ra, a as i64);
    asm.li(rt1, t1 as i64);
    asm.li(rt2, t2 as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    let top = asm.here();
    asm.ld8_idx(x, ra, i, 3); // A[i]            (striding)
    for _ in 0..3 {
        // Hop: x = (x&1 ? T1 : T2)[(x>>1) & mask] — value-dependent table.
        let else_arm = asm.label();
        let join = asm.label();
        asm.andi(parity, x, 1);
        asm.shri(h, x, 1);
        asm.andi(h, h, mask);
        asm.bez(parity, else_arm); // data-dependent branch
        asm.ld8_idx(x, rt1, h, 3); // hop into T1    (indirect)
        asm.jmp(join);
        asm.bind(else_arm);
        asm.ld8_idx(x, rt2, h, 3); // hop into T2    (indirect)
        asm.bind(join);
    }
    asm.add(acc, acc, x);
    busy_work(&mut asm, h, x, 8);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    asm.halt();

    Workload {
        name: "Kangaroo".to_string(),
        prog: asm.finish().expect("kangaroo assembles"),
        mem,
        description: "3 value-dependent pointer hops per key across two tables (divergent)"
            .to_string(),
        regions: vec![("A".into(), a), ("T1".into(), t1), ("T2".into(), t2)],
    }
}

/// NAS-CG kernel: sparse matrix-vector multiply (CSR, integer values).
pub fn nas_cg(size: SizeClass, seed: u64) -> Workload {
    let rows = size.elems(1 << 18);
    let nnz_per_row = 12usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC6);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let offs = layout.alloc_words(rows + 1);
    let cols = layout.alloc_words(rows * nnz_per_row);
    let vals = layout.alloc_words(rows * nnz_per_row);
    let x = layout.alloc_words(rows);
    let y = layout.alloc_words(rows);
    for r in 0..=rows {
        mem.write_u64(offs + 8 * r as u64, (r * nnz_per_row) as u64);
    }
    for k in 0..rows * nnz_per_row {
        mem.write_u64(cols + 8 * k as u64, rng.random_range(0..rows as u64));
        mem.write_u64(vals + 8 * k as u64, rng.random_range(1..100));
    }
    fill_random(&mut mem, x, rows, 1000, &mut rng);

    // r1 offs, r2 cols, r3 vals, r4 x, r5 y; r6 row, r7 n, r8 i, r9 e,
    // r10 cidx, r11 xv, r12 vv, r13 c, r14 sum, r15 tmp
    let mut asm = Asm::new();
    asm.region("offsets", offs, 8 * (rows as u64 + 1));
    asm.region("cols", cols, 8 * (rows * nnz_per_row) as u64);
    asm.region("vals", vals, 8 * (rows * nnz_per_row) as u64);
    asm.region("x", x, 8 * rows as u64);
    asm.region("y", y, 8 * rows as u64);
    let (roffs, rcols, rvals, rx, ry) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    let (row, n, i, e, cidx, xv, vv, cnd, sum, tmp) = (
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
    );
    asm.li(roffs, offs as i64);
    asm.li(rcols, cols as i64);
    asm.li(rvals, vals as i64);
    asm.li(rx, x as i64);
    asm.li(ry, y as i64);
    asm.li(row, 0);
    asm.li(n, rows as i64);
    let outer = asm.here();
    let inner_done = asm.label();
    asm.ld8_idx(i, roffs, row, 3);
    asm.addi(tmp, row, 1);
    asm.ld8_idx(e, roffs, tmp, 3);
    asm.li(sum, 0);
    asm.slt(cnd, i, e);
    asm.bez(cnd, inner_done);
    let inner = asm.here();
    asm.ld8_idx(cidx, rcols, i, 3); // col index     (striding)
    asm.ld8_idx(vv, rvals, i, 3); // value          (striding)
    asm.ld8_idx(xv, rx, cidx, 3); // x[col]         (indirect)
    asm.mul(xv, xv, vv);
    asm.add(sum, sum, xv);
    busy_work(&mut asm, xv, vv, 4);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, e);
    asm.bnz(cnd, inner);
    asm.bind(inner_done);
    asm.st8_idx(sum, ry, row, 3);
    asm.addi(row, row, 1);
    asm.slt(cnd, row, n);
    asm.bnz(cnd, outer);
    asm.halt();

    Workload {
        name: "NAS-CG".to_string(),
        prog: asm.finish().expect("nas-cg assembles"),
        mem,
        description: "CSR SpMV: col/val stride streams, x[col] indirect gather per row".to_string(),
        regions: vec![
            ("offsets".into(), offs),
            ("cols".into(), cols),
            ("vals".into(), vals),
            ("x".into(), x),
            ("y".into(), y),
        ],
    }
}

/// NAS-IS kernel: counting-sort histogram, `C[keys[i]]++`.
pub fn nas_is(size: SizeClass, seed: u64) -> Workload {
    let n = size.elems(1 << 21);
    // NAS-IS class keys span a narrower range than GUPS's table: the
    // histogram is partially cache-resident (hot head, cold tail).
    let range = size.elems(1 << 19);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x15);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let keys = layout.alloc_words(n);
    let hist = layout.alloc_words(range);
    for k in 0..n {
        mem.write_u64(keys + 8 * k as u64, rng.random_range(0..range as u64));
    }

    // r1 keys, r2 hist; r4 i, r5 n, r6 k, r7 tmp, r13 c
    let mut asm = Asm::new();
    asm.region("keys", keys, 8 * n as u64);
    asm.region("hist", hist, 8 * range as u64);
    let (rk, rh) = (Reg::R1, Reg::R2);
    let (i, nn, k, tmp, cnd) = (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R13);
    asm.li(rk, keys as i64);
    asm.li(rh, hist as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    let top = asm.here();
    asm.ld8_idx(k, rk, i, 3); // keys[i]     (striding)
    asm.ld8_idx(tmp, rh, k, 3); // C[key]    (simple indirect)
    asm.addi(tmp, tmp, 1);
    asm.st8_idx(tmp, rh, k, 3); // C[key]++
    busy_work(&mut asm, k, tmp, 8);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    asm.halt();

    Workload {
        name: "NAS-IS".to_string(),
        prog: asm.finish().expect("nas-is assembles"),
        mem,
        description: "integer-sort histogram: single-level affine indirection C[keys[i]]++"
            .to_string(),
        regions: vec![("keys".into(), keys), ("hist".into(), hist)],
    }
}

/// RandomAccess (HPCC GUPS): `T[V[i]] ^= V[i]` over a huge table.
pub fn random_access(size: SizeClass, seed: u64) -> Workload {
    let n = size.elems(1 << 20);
    // GUPS updates a table far larger than the LLC: virtually every update
    // is a DRAM access.
    let table = size.elems(1 << 22);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let v = layout.alloc_words(n);
    let t = layout.alloc_words(table);
    for k in 0..n {
        mem.write_u64(v + 8 * k as u64, rng.random_range(0..table as u64));
    }

    // r1 V, r2 T; r4 i, r5 n, r6 idx, r7 tmp, r13 c
    let mut asm = Asm::new();
    asm.region("V", v, 8 * n as u64);
    asm.region("T", t, 8 * table as u64);
    let (rv, rt) = (Reg::R1, Reg::R2);
    let (i, nn, idx, tmp, cnd) = (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R13);
    asm.li(rv, v as i64);
    asm.li(rt, t as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    let top = asm.here();
    asm.ld8_idx(idx, rv, i, 3); // V[i]      (striding)
    asm.ld8_idx(tmp, rt, idx, 3); // T[idx]  (indirect)
    asm.xor(tmp, tmp, idx);
    asm.st8_idx(tmp, rt, idx, 3); // update
    busy_work(&mut asm, idx, tmp, 8);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    asm.halt();

    Workload {
        name: "RandomAccess".to_string(),
        prog: asm.finish().expect("randomaccess assembles"),
        mem,
        description: "GUPS: T[V[i]] ^= V[i], single-level random indirection".to_string(),
        regions: vec![("V".into(), v), ("T".into(), t)],
    }
}

/// The secret-dependent-gather attack kernel for the leak audit.
///
/// The index array S is declared secret (`.secret`) and every iteration
/// gathers `x = B[S[i]]` — the exact dependent-load chain that runahead
/// vectorization turns into a speculative side channel (Karuppanan &
/// Mirbagher Ajorpaz): under VR/DVR the subthread gathers `B[S[i+1..k]]`
/// transiently, encoding future secret values in which lines get filled.
/// Deliberately **not** part of [`crate::Benchmark::ALL`]: it exists to be
/// *flagged* by the taint lint and the leak audit, not to be scored.
pub fn gather_attack(size: SizeClass, seed: u64) -> Workload {
    let n = size.elems(1 << 20);
    let table = size.elems(1 << 21);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let s = layout.alloc_words(n);
    let b = layout.alloc_words(table);
    for k in 0..n {
        mem.write_u64(s + 8 * k as u64, rng.random_range(0..table as u64));
    }
    fill_random(&mut mem, b, table, u64::MAX, &mut rng);

    // r1 S, r2 B; r4 i, r5 n, r6 v, r7 x, r10 acc, r13 c
    let mut asm = Asm::new();
    let (rs, rb) = (Reg::R1, Reg::R2);
    let (i, nn, v, x, acc, cnd) = (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R10, Reg::R13);
    asm.secret(s, 8 * n as u64);
    asm.region("S", s, 8 * n as u64);
    asm.region("B", b, 8 * table as u64);
    asm.li(rs, s as i64);
    asm.li(rb, b as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    let top = asm.here();
    asm.ld8_idx(v, rs, i, 3); // S[i]   (striding, secret source)
    asm.ld8_idx(x, rb, v, 3); // B[S[i]] (the gather gadget)
    asm.xor(acc, acc, x);
    busy_work(&mut asm, acc, x, 4);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    asm.halt();

    Workload {
        name: "gather-attack".to_string(),
        prog: asm.finish().expect("gather-attack assembles"),
        mem,
        description: "secret-dependent gather x = B[S[i]] with S declared .secret".to_string(),
        regions: vec![("S".into(), s), ("B".into(), b)],
    }
}

/// Intentionally out-of-bounds gather for the bounds audit: `B[A[i]]`
/// where A's index values were generated for a table **twice** B's
/// declared size (the classic stale-size-constant bug), plus a
/// one-past-the-end constant load after the loop. Deliberately **not**
/// part of [`crate::Benchmark::ALL`]: it exists to be *flagged* by the
/// static bounds verifier and *confirmed* by the dynamic bounds oracle,
/// not to be scored.
pub fn oob_gather(size: SizeClass, seed: u64) -> Workload {
    let n = size.elems(1 << 20);
    let table = size.elems(1 << 21);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00B);
    let mut mem = SparseMemory::new();
    let mut layout = Layout::new();
    let a = layout.alloc_words(n);
    let b = layout.alloc_words(table);
    // The bug under test: indices drawn as if B had 2*table entries.
    for k in 0..n {
        mem.write_u64(a + 8 * k as u64, rng.random_range(0..2 * table as u64));
    }
    fill_random(&mut mem, b, table, u64::MAX, &mut rng);

    // r1 A, r2 B; r4 i, r5 n, r6 v, r7 x, r10 acc, r13 c
    let mut asm = Asm::new();
    asm.region("A", a, 8 * n as u64);
    asm.region("B", b, 8 * table as u64);
    let (ra, rb) = (Reg::R1, Reg::R2);
    let (i, nn, v, x, acc, cnd) = (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R10, Reg::R13);
    asm.li(ra, a as i64);
    asm.li(rb, b as i64);
    asm.li(i, 0);
    asm.li(nn, n as i64);
    let top = asm.here();
    asm.ld8_idx(v, ra, i, 3); // A[i]    (striding)
    asm.ld8_idx(x, rb, v, 3); // B[A[i]] — half the indices land past B
    asm.xor(acc, acc, x);
    busy_work(&mut asm, acc, x, 4);
    asm.addi(i, i, 1);
    asm.slt(cnd, i, nn);
    asm.bnz(cnd, top);
    // One-past-the-end epilogue read: provably outside every region.
    asm.li(v, (b + 8 * table as u64) as i64);
    asm.ld8(x, v, 0);
    asm.xor(acc, acc, x);
    asm.halt();

    Workload {
        name: "oob-gather".to_string(),
        prog: asm.finish().expect("oob-gather assembles"),
        mem,
        description: "out-of-bounds gather B[A[i]]: index values sized for a table 2x the \
                      declared region, plus a one-past-the-end epilogue load"
            .to_string(),
        regions: vec![("A".into(), a), ("B".into(), b)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Cpu;

    fn runs_to_halt(mut wl: Workload) -> Workload {
        let mut cpu = Cpu::new();
        cpu.run(&wl.prog, &mut wl.mem, 500_000_000).expect("kernel executes");
        assert!(cpu.is_halted(), "{} must halt", wl.name);
        wl
    }

    #[test]
    fn gather_attack_declares_secrets_and_halts() {
        let wl = runs_to_halt(gather_attack(SizeClass::Test, 3));
        assert_eq!(wl.name, "gather-attack");
        let secrets = wl.prog.secrets();
        assert_eq!(secrets.len(), 1, "one secret range (the index array S)");
        assert_eq!(secrets[0].0, wl.region("S"));
        assert!(wl.prog.is_secret_addr(wl.region("S")));
        assert!(!wl.prog.is_secret_addr(wl.region("B")));
    }

    #[test]
    fn camel_increments_histogram() {
        let wl = runs_to_halt(camel(SizeClass::Test, 1));
        let c = wl.region("C");
        let table = SizeClass::Test.elems(1 << 21);
        let total: u64 = (0..table).map(|k| wl.mem.read_u64(c + 8 * k as u64)).sum();
        assert_eq!(total, SizeClass::Test.elems(1 << 20) as u64);
    }

    #[test]
    fn nas_is_histogram_sums_to_n() {
        let wl = runs_to_halt(nas_is(SizeClass::Test, 2));
        let h = wl.region("hist");
        let range = SizeClass::Test.elems(1 << 21);
        let total: u64 = (0..range).map(|k| wl.mem.read_u64(h + 8 * k as u64)).sum();
        assert_eq!(total, SizeClass::Test.elems(1 << 21) as u64);
    }

    #[test]
    fn random_access_xors_table() {
        let before = random_access(SizeClass::Test, 3);
        let t = before.region("T");
        let table = SizeClass::Test.elems(1 << 21);
        let zeros_before =
            (0..table).filter(|k| before.mem.read_u64(t + 8 * *k as u64) == 0).count();
        let wl = runs_to_halt(before);
        let zeros_after = (0..table).filter(|k| wl.mem.read_u64(t + 8 * *k as u64) == 0).count();
        assert_ne!(zeros_before, zeros_after, "table must change");
    }

    #[test]
    fn hashjoin_depth_reflected_in_program() {
        let hj2 = hashjoin(2, SizeClass::Test, 4);
        let hj8 = hashjoin(8, SizeClass::Test, 4);
        let loads = |wl: &Workload| wl.prog.instrs().iter().filter(|i| i.is_load()).count();
        assert_eq!(loads(&hj8) - loads(&hj2), 6, "HJ8 has 6 more probe loads than HJ2");
        runs_to_halt(hj2);
        runs_to_halt(hj8);
    }

    #[test]
    fn kangaroo_has_branches_in_chain() {
        let wl = kangaroo(SizeClass::Test, 5);
        let branches = wl.prog.instrs().iter().filter(|i| i.is_cond_branch()).count();
        assert!(branches >= 4, "3 hop branches + loop branch, got {branches}");
        runs_to_halt(wl);
    }

    #[test]
    fn nas_cg_computes_spmv() {
        let wl = runs_to_halt(nas_cg(SizeClass::Test, 6));
        let rows = SizeClass::Test.elems(1 << 18);
        let (offs, cols, vals, x, y) = (
            wl.region("offsets"),
            wl.region("cols"),
            wl.region("vals"),
            wl.region("x"),
            wl.region("y"),
        );
        for r in 0..rows.min(64) {
            let s = wl.mem.read_u64(offs + 8 * r as u64);
            let e = wl.mem.read_u64(offs + 8 * (r + 1) as u64);
            let mut want = 0u64;
            for k in s..e {
                let c = wl.mem.read_u64(cols + 8 * k);
                let v = wl.mem.read_u64(vals + 8 * k);
                want = want.wrapping_add(v.wrapping_mul(wl.mem.read_u64(x + 8 * c)));
            }
            assert_eq!(wl.mem.read_u64(y + 8 * r as u64), want, "row {r}");
        }
    }

    #[test]
    fn graph500_is_bfs_shaped() {
        let wl = graph500(SizeClass::Test, 7);
        assert_eq!(wl.name, "Graph500");
        assert!(wl.regions.iter().any(|(n, _)| n == "visited"));
        runs_to_halt(wl);
    }

    #[test]
    fn oob_gather_indices_walk_past_declared_region() {
        let wl = oob_gather(SizeClass::Test, 3);
        let (_, _, b_len) =
            wl.prog.regions().iter().find(|(n, _, _)| n == "B").cloned().expect("B declared");
        let a = wl.region("A");
        let n = SizeClass::Test.elems(1 << 20);
        let words = b_len / 8;
        assert!(
            (0..n).any(|k| wl.mem.read_u64(a + 8 * k as u64) >= words),
            "some index must point past B's declared {words} words"
        );
        runs_to_halt(wl);
    }

    #[test]
    fn every_benchmark_declares_its_footprint_regions() {
        use crate::suite::Benchmark;
        for b in Benchmark::ALL {
            let wl = b.build(None, SizeClass::Test, 1);
            assert!(!wl.prog.regions().is_empty(), "{}: no .region declarations", wl.name);
            // Every named base the host knows about is a declared region.
            for (name, base) in &wl.regions {
                let found = wl.prog.regions().iter().any(|(n, a, _)| n == name && a == base);
                assert!(found, "{}: region {name}@{base:#x} not declared in program", wl.name);
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = camel(SizeClass::Test, 42);
        let b = camel(SizeClass::Test, 42);
        assert_eq!(a.prog.instrs(), b.prog.instrs());
        let ra = a.region("A");
        for k in 0..64 {
            assert_eq!(a.mem.read_u64(ra + 8 * k), b.mem.read_u64(ra + 8 * k));
        }
    }
}
