//! Synthetic graph generation (Table 2 surrogates).
//!
//! The paper evaluates the GAP suite on five inputs: Kron (KR), LiveJournal
//! (LJN), Orkut (ORK), Twitter (TW), and Urand (UR). The real crawls are
//! not redistributable, so we generate synthetic surrogates that preserve
//! the properties DVR is sensitive to: the *degree distribution* (inner-loop
//! trip counts — short uniform degrees on UR, heavy power-law tails on
//! KR/TW) and a *working set larger than the 8 MB LLC* (scaled ~1000× down
//! from Table 2; see DESIGN.md §2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A directed graph in Compressed Sparse Row form.
///
/// `offsets` has `n + 1` entries; the neighbours of vertex `v` are
/// `edges[offsets[v]..offsets[v+1]]`.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Vertex count.
    pub n: usize,
    /// Per-vertex edge offsets (`n + 1` entries).
    pub offsets: Vec<u64>,
    /// Flattened destination lists.
    pub edges: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list (duplicates kept, self-loops kept).
    pub fn from_edges(n: usize, edge_list: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u64; n];
        for (u, _) in edge_list {
            degree[*u as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0u32; edge_list.len()];
        for (u, v) in edge_list {
            edges[cursor[*u as usize] as usize] = *v;
            cursor[*u as usize] += 1;
        }
        Csr { n, offsets, edges }
    }

    /// Edge count.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// A breadth-first traversal from `src`; returns per-vertex depth
    /// (`u32::MAX` = unreached). Used host-side to set up frontier-based
    /// kernels (bfs, bc, sssp).
    pub fn bfs_depths(&self, src: usize) -> Vec<u32> {
        let mut depth = vec![u32::MAX; self.n];
        depth[src] = 0;
        let mut frontier = vec![src as u32];
        let mut d = 0;
        while !frontier.is_empty() {
            let mut next = vec![];
            for &v in &frontier {
                for &u in self.neighbors(v as usize) {
                    if depth[u as usize] == u32::MAX {
                        depth[u as usize] = d + 1;
                        next.push(u);
                    }
                }
            }
            frontier = next;
            d += 1;
        }
        depth
    }
}

/// The depth whose frontier is largest, with that frontier — the most
/// representative single top-down step — from a [`Csr::bfs_depths`] result.
/// Ties go to the shallowest depth; the frontier lists its vertices in
/// increasing order.
pub fn largest_frontier(depth: &[u32]) -> (u32, Vec<u32>) {
    let mut counts: Vec<usize> = Vec::new();
    for &d in depth.iter().filter(|&&d| d != u32::MAX) {
        let d = d as usize;
        if d >= counts.len() {
            counts.resize(d + 1, 0);
        }
        counts[d] += 1;
    }
    let largest = counts.iter().max().copied().unwrap_or(0);
    let fd = counts.iter().position(|&c| c == largest).unwrap_or(0) as u32;
    let frontier = (0..depth.len() as u32).filter(|&v| depth[v as usize] == fd).collect();
    (fd, frontier)
}

/// Generates a uniform-random graph: every edge endpoint uniform over `n`.
pub fn uniform(n: usize, edges: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let list: Vec<(u32, u32)> = (0..edges)
        .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
        .collect();
    Csr::from_edges(n, &list)
}

/// Graph500's RMAT quadrant probabilities `(a, b, c)`.
pub const GRAPH500_ABC: [f64; 3] = [0.57, 0.19, 0.19];

/// Generates an RMAT (Kronecker-style power-law) graph.
///
/// `abc` holds the recursive quadrant probabilities `(a, b, c)` (the
/// fourth is `1 - a - b - c`), all nonnegative; Graph500 uses
/// [`GRAPH500_ABC`].
///
/// Each level draws 53 random bits `k` and picks its quadrant by comparing
/// `k` with three integer thresholds, so the bits of `u` and `v` are set
/// without branches. The edges are exactly those of the textbook draw,
/// one `f64` `r = k · 2^-53` per level tested as `r < a`, `r < a + b`,
/// `r < a + b + c`: scaling by a power of two is exact, so `r < p` holds
/// exactly when `k < p · 2^53`, and for an integer `k` exactly when
/// `k < ceil(p · 2^53)`.
pub fn rmat(scale: u32, edges_per_vertex: usize, abc: [f64; 3], seed: u64) -> Csr {
    Csr::from_edges(1 << scale, &rmat_edges(scale, edges_per_vertex, abc, seed))
}

/// The edge list of [`rmat`], in draw order.
fn rmat_edges(scale: u32, edges_per_vertex: usize, abc: [f64; 3], seed: u64) -> Vec<(u32, u32)> {
    let [a, b, c] = abc;
    let [ta, tab, tabc] = [a, a + b, a + b + c].map(draw_threshold);
    let mut rng = StdRng::seed_from_u64(seed);
    let m = edges_per_vertex << scale;
    let mut list = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let k = rng.next_u64() >> 11;
            // The quadrant is the number of thresholds `k` reaches: `u` is
            // set in quadrants 2 and 3, `v` in quadrants 1 and 3.
            let (ra, rab, rabc) = (u32::from(k >= ta), u32::from(k >= tab), u32::from(k >= tabc));
            u = u << 1 | rab;
            v = v << 1 | (ra ^ rab ^ rabc);
        }
        list.push((u, v));
    }
    list
}

/// `ceil(p · 2^53)`: a 53-bit draw `k` has `k · 2^-53 < p` exactly when
/// `k < draw_threshold(p)`.
fn draw_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The paper's five GAP inputs (Table 2), as synthetic surrogates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphInput {
    /// Kron: Graph500-parameter RMAT, heavy power-law skew.
    Kr,
    /// LiveJournal surrogate: moderate-skew RMAT.
    Ljn,
    /// Orkut surrogate: dense moderate-skew RMAT.
    Ork,
    /// Twitter surrogate: high-skew RMAT.
    Tw,
    /// Urand: uniform random — uniformly small degrees (the paper's
    /// "vertices smaller than the 128-edge target" case).
    Ur,
}

impl GraphInput {
    /// All inputs in Table 2 order.
    pub const ALL: [GraphInput; 5] =
        [GraphInput::Kr, GraphInput::Ljn, GraphInput::Ork, GraphInput::Tw, GraphInput::Ur];

    /// Parses a graph-input name (the [`GraphInput::name`] spelling,
    /// case-insensitively). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<GraphInput> {
        GraphInput::ALL.into_iter().find(|g| g.name().eq_ignore_ascii_case(s))
    }

    /// Short lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GraphInput::Kr => "KR",
            GraphInput::Ljn => "LJN",
            GraphInput::Ork => "ORK",
            GraphInput::Tw => "TW",
            GraphInput::Ur => "UR",
        }
    }

    /// The RMAT parameters of a power-law surrogate: its log2 vertex count
    /// at Paper size, edges per vertex, quadrant probabilities `(a, b, c)`
    /// and seed salt. `None` for UR, which is uniform.
    fn rmat_params(self) -> Option<(u32, usize, [f64; 3], u64)> {
        match self {
            GraphInput::Kr => Some((17, 16, GRAPH500_ABC, 0x4b52)),
            GraphInput::Ljn => Some((16, 14, [0.48, 0.22, 0.22], 0x4c4a)),
            GraphInput::Ork => Some((15, 60, [0.45, 0.22, 0.22], 0x4f52)),
            GraphInput::Tw => Some((16, 24, GRAPH500_ABC, 0x5457)),
            GraphInput::Ur => None,
        }
    }

    /// Generates the surrogate at a size scale.
    ///
    /// `scale_shift` subtracts from the default log2 vertex count: 0 is the
    /// "paper" (scaled-down ~1000×) size, larger values shrink further for
    /// tests.
    pub fn generate(self, scale_shift: u32, seed: u64) -> Csr {
        let s = |base: u32| base.saturating_sub(scale_shift).max(6);
        match self.rmat_params() {
            Some((scale, epv, abc, salt)) => rmat(s(scale), epv, abc, seed ^ salt),
            None => {
                let n = 1usize << s(17);
                uniform(n, n * 16, seed ^ 0x5552)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn csr_roundtrip() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (3, 0)]);
        assert_eq!(g.n, 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn bfs_depths_are_correct() {
        // 0 -> 1 -> 2 -> 3, plus shortcut 0 -> 2
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let d = g.bfs_depths(0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
        assert_eq!(d[3], 2);
        assert_eq!(d[4], u32::MAX);
    }

    #[test]
    fn uniform_has_uniformish_degrees() {
        let g = uniform(1024, 16 * 1024, 1);
        assert_eq!(g.m(), 16 * 1024);
        let max_deg = (0..g.n).map(|v| g.degree(v)).max().unwrap();
        // Poisson(16): max degree stays small.
        assert!(max_deg < 64, "uniform max degree {max_deg}");
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 16, GRAPH500_ABC, 2);
        let mut degs: Vec<usize> = (0..g.n).map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Power law: the top vertex has far more than the mean degree.
        assert!(degs[0] > 16 * 8, "rmat top degree {} not skewed", degs[0]);
        // And many vertices have low degree.
        let low = degs.iter().filter(|&&d| d < 8).count();
        assert!(low > g.n / 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphInput::Kr.generate(7, 42);
        let b = GraphInput::Kr.generate(7, 42);
        assert_eq!(a.edges, b.edges);
        let c = GraphInput::Kr.generate(7, 43);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn largest_frontier_nonempty() {
        let g = GraphInput::Ur.generate(8, 5);
        let (_, frontier) = largest_frontier(&g.bfs_depths(0));
        assert!(!frontier.is_empty());
    }

    #[test]
    fn largest_frontier_takes_the_shallowest_tie() {
        let depth = [2, 1, u32::MAX, 0, 2, 1, 3];
        assert_eq!(largest_frontier(&depth), (1, vec![1, 5]));
    }

    /// The textbook RMAT draw that [`rmat_edges`] must match edge for edge:
    /// one `f64` per level, walked through a branch chain.
    fn rmat_edges_f64(scale: u32, epv: usize, [a, b, c]: [f64; 3], seed: u64) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..epv << scale)
            .map(|_| {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..scale {
                    u <<= 1;
                    v <<= 1;
                    let r: f64 = rng.random();
                    if r < a {
                        // top-left
                    } else if r < a + b {
                        v |= 1;
                    } else if r < a + b + c {
                        u |= 1;
                    } else {
                        u |= 1;
                        v |= 1;
                    }
                }
                (u, v)
            })
            .collect()
    }

    /// Every RMAT parameter set the suite generates: edges per vertex and
    /// `(a, b, c)` of the four power-law surrogates and of Graph500.
    fn suite_rmat_params() -> Vec<(usize, [f64; 3])> {
        let inputs = GraphInput::ALL.into_iter().filter_map(GraphInput::rmat_params);
        inputs.map(|(_, epv, abc, _)| (epv, abc)).chain([(16, GRAPH500_ABC)]).collect()
    }

    #[test]
    fn integer_draw_gives_the_f64_draws_edges() {
        for (epv, abc) in suite_rmat_params() {
            for scale in [6, 9] {
                for seed in [0, 7, 42, 0x4b52 ^ 42, u64::MAX] {
                    assert_eq!(
                        rmat_edges(scale, epv, abc, seed),
                        rmat_edges_f64(scale, epv, abc, seed),
                        "epv {epv} abc {abc:?} scale {scale} seed {seed}"
                    );
                }
            }
        }
    }

    /// Hands out fixed bits, so that `random::<f64>()` reads a chosen draw.
    struct Bits(u64);

    impl Rng for Bits {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Probabilities in (0, 1]: any positive `f64` up to 1 (subnormals
    /// included), values with bits below 2^-53, and the suite's own sums.
    fn probability() -> impl Strategy<Value = f64> {
        let sums = suite_rmat_params().into_iter().flat_map(|(_, [a, b, c])| [a, a + b, a + b + c]);
        prop_oneof![
            (1u64..0x3ff0_0000_0000_0001).prop_map(f64::from_bits),
            (1u64..u64::MAX).prop_map(|x| x as f64 / 2f64.powi(64)),
            prop::sample::select(sums.chain([1.0]).collect()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn integer_threshold_is_exact(k in 0u64..1 << 53, p in probability()) {
            let t = draw_threshold(p);
            let around = [t.checked_sub(1), Some(t), t.checked_add(1)];
            for k in around.into_iter().flatten().chain([k]).filter(|&k| k < 1 << 53) {
                let r: f64 = Bits(k << 11).random();
                prop_assert_eq!(r < p, k < t, "k {} p {:e} threshold {}", k, p, t);
            }
        }
    }

    #[test]
    fn inputs_have_distinct_shapes() {
        let kr = GraphInput::Kr.generate(8, 1);
        let ur = GraphInput::Ur.generate(8, 1);
        let max_kr = (0..kr.n).map(|v| kr.degree(v)).max().unwrap();
        let max_ur = (0..ur.n).map(|v| ur.degree(v)).max().unwrap();
        assert!(max_kr > 4 * max_ur, "KR must be far more skewed than UR ({max_kr} vs {max_ur})");
    }
}
