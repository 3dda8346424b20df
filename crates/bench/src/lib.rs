//! # bench — figure/table regeneration harness for the DVR reproduction
//!
//! One entry point per table and figure of the paper (see DESIGN.md §3),
//! listed by name in [`EXPERIMENTS`]; each declares its cells once as a
//! grid ([`Ctx::run_grid`]). The `figures` binary drives
//! [`run_experiment_full`]; `--svg DIR` additionally renders each figure as
//! a chart via [`chart::Chart`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chart::{Chart, ChartKind, Series};
use dvr_sim::sim_sweep::{Digest128, ResultCache};
use dvr_sim::{
    evaluate_mix, lookup_report, measure_emitted, report_key, resolve_threads, sample_emit,
    simulate, simulate_mix, simulate_sampled_configs, store_report, try_parallel_map, CellError,
    CoreStats, EngineSummary, MemStats, MixSpec, RunOutcome, SampleConfig, SimConfig, SimError,
    SimReport, Technique,
};
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

/// A (benchmark, input) pair: one row of an experiment grid. The input is
/// `None` for non-GAP benchmarks.
pub type Combo = (Benchmark, Option<GraphInput>);

/// One experiment cell: a (benchmark, input) pair simulated under one
/// configuration. Experiments declare their cells up front as a grid
/// ([`Ctx::run_grid`]) so [`Ctx::run_batch`] can fan them out over worker
/// threads.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The benchmark to run.
    pub benchmark: Benchmark,
    /// Graph input (GAP benchmarks only).
    pub input: Option<GraphInput>,
    /// Full simulation configuration.
    pub cfg: SimConfig,
}

impl Cell {
    /// Creates a cell.
    pub fn new(benchmark: Benchmark, input: Option<GraphInput>, cfg: SimConfig) -> Self {
        Cell { benchmark, input, cfg }
    }

    /// Diagnostic label: `combo/technique` (e.g. `bfs_KR/DVR`).
    pub fn label(&self) -> String {
        format!("{}/{}", combo_name(self.benchmark, self.input), self.cfg.technique.name())
    }
}

/// A cell that failed during a keep-going batch (worker panic or a typed
/// simulation error such as a watchdog deadlock).
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// The cell's `combo/technique` label.
    pub label: String,
    /// What went wrong.
    pub message: String,
}

/// Shared experiment context: sizing knobs, the worker-thread count, and a
/// workload cache (building a paper-scale Kronecker graph costs seconds;
/// every figure reuses it). Workloads are built once and shared immutably
/// via [`Arc`] — each simulation clones only the memory image it mutates.
pub struct Ctx {
    /// Input size class.
    pub size: SizeClass,
    /// Instruction budget per run (the ROI length).
    pub instrs: u64,
    /// Seed for all synthetic inputs.
    pub seed: u64,
    /// Worker threads for [`Ctx::run_batch`] (`0` = available
    /// parallelism). Results are independent of this setting.
    pub threads: usize,
    /// When set, failed cells are recorded and replaced by zero-IPC
    /// placeholder reports instead of aborting the batch.
    pub keep_going: bool,
    /// Test/CI hook: a cell whose [`Cell::label`] equals this panics in the
    /// worker instead of simulating.
    pub force_fail: Option<String>,
    /// Run every cell under the cycle-model invariant sanitizer. Checks are
    /// timing-neutral, so figure text stays byte-identical; violation totals
    /// surface through [`Ctx::sanitize_totals`].
    pub sanitize: bool,
    /// When set, every cell runs sampled instead of exactly: functional
    /// fast-forward with warming between seeded detailed intervals. Figure
    /// numbers then carry the sampling error the config's confidence
    /// intervals describe, in exchange for a several-fold host-time
    /// speedup. Sampled runs are deterministic, so output stays
    /// byte-identical across thread counts.
    pub sample: Option<SampleConfig>,
    cache: HashMap<(Benchmark, Option<GraphInput>), Arc<Workload>>,
    result_cache: Option<ResultCache>,
    failures: Vec<CellFailure>,
    runs: u64,
    sim_committed: u64,
    san_checks: u64,
    san_violations: u64,
}

impl Ctx {
    /// Creates a serial (one-thread) context.
    pub fn new(size: SizeClass, instrs: u64, seed: u64) -> Self {
        Ctx {
            size,
            instrs,
            seed,
            threads: 1,
            keep_going: false,
            force_fail: None,
            sanitize: false,
            sample: None,
            cache: HashMap::new(),
            result_cache: None,
            failures: Vec::new(),
            runs: 0,
            sim_committed: 0,
            san_checks: 0,
            san_violations: 0,
        }
    }

    /// Attaches a content-addressed result cache (the same store `dvrsim
    /// sweep --cache` uses): completed reports are persisted keyed by
    /// (program bytes, canonical config, code version) and served on the
    /// next invocation instead of resimulating. Corrupt entries are
    /// quarantined and recomputed. Sanitized and force-fail runs bypass
    /// the cache — the sanitizer ledger is not part of the cached payload.
    /// Figure text is byte-identical with and without the cache.
    pub fn with_result_cache(mut self, dir: &Path) -> Result<Self, String> {
        self.result_cache = Some(ResultCache::open(dir).map_err(|e| e.to_string())?);
        Ok(self)
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Records failed cells and keeps going instead of aborting the batch.
    pub fn with_keep_going(mut self, keep_going: bool) -> Self {
        self.keep_going = keep_going;
        self
    }

    /// Forces the cell with the given [`Cell::label`] to panic (CI smoke
    /// tests for the failure paths).
    pub fn with_force_fail(mut self, label: impl Into<String>) -> Self {
        self.force_fail = Some(label.into());
        self
    }

    /// Runs every cell under the cycle-model invariant sanitizer (see
    /// [`dvr_sim::SimConfig::with_sanitize`]).
    pub fn with_sanitize(mut self, sanitize: bool) -> Self {
        self.sanitize = sanitize;
        self
    }

    /// Runs every cell sampled with the given configuration (see
    /// [`Ctx::sample`]).
    pub fn with_sample(mut self, scfg: SampleConfig) -> Self {
        self.sample = Some(scfg);
        self
    }

    /// Every cell failure recorded so far (keep-going mode only).
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Builds (or fetches the cached) workload, shared immutably.
    pub fn workload(&mut self, b: Benchmark, g: Option<GraphInput>) -> Arc<Workload> {
        let key = (b, if b.is_gap() { g.or(Some(GraphInput::Kr)) } else { None });
        let (size, seed) = (self.size, self.seed);
        Arc::clone(self.cache.entry(key).or_insert_with(|| Arc::new(b.build(key.1, size, seed))))
    }

    /// The default per-cell configuration for a technique.
    fn tcfg(&self, t: Technique) -> SimConfig {
        SimConfig::new(t).with_max_instructions(self.instrs).with_sanitize(self.sanitize)
    }

    /// Aggregate result-cache counters:
    /// `(hits, misses, stores, corrupt)`. All zero unless
    /// [`Ctx::with_result_cache`] attached a cache.
    pub fn cache_totals(&self) -> (u64, u64, u64, u64) {
        let s = self.result_cache.as_ref().map(ResultCache::stats).unwrap_or_default();
        (s.hits, s.misses, s.stores, s.corrupt)
    }

    /// Runs a batch of cells on up to [`Ctx::threads`] worker threads and
    /// returns the reports **in cell order**.
    ///
    /// Distinct workloads are built once, serially, before the fan-out;
    /// the workers then share them immutably. Exact cells fan out one by
    /// one; sampled cells by combo, as one [`simulate_sampled_configs`]
    /// call each, which measures on the threads the combos leave spare.
    /// Simulation is deterministic, so the returned reports — and any text
    /// rendered from them — are byte-identical for every thread count.
    ///
    /// Each unit of work is panic-isolated (with one retry); a sampled
    /// combo that panics fails each of its cells. A cell that panics, or
    /// whose run ends in a typed failure ([`SimReport::outcome`]), either
    /// aborts the batch with a diagnostic naming the cell (the default), or
    /// — with [`Ctx::keep_going`] — is recorded in [`Ctx::failures`] and
    /// replaced by a zero-IPC placeholder so the rest of the figure still
    /// renders.
    ///
    /// # Panics
    ///
    /// Without `keep_going`, panics on the first failed cell, naming its
    /// index and label and carrying the underlying diagnostic (for a
    /// deadlock, the full watchdog snapshot).
    pub fn run_batch(&mut self, cells: &[Cell]) -> Vec<SimReport> {
        let jobs: Vec<Arc<Workload>> =
            cells.iter().map(|c| self.workload(c.benchmark, c.input)).collect();
        let labels: Vec<String> = cells.iter().map(Cell::label).collect();
        // Cache pre-pass: resolve cacheable cells serially, then fan out
        // only the remainder. Hits are full-fidelity reports (modulo the
        // wall clock), so the rendered figures cannot tell the difference.
        // A corrupt entry is recomputed. Force-fail runs bypass the cache.
        let cache = self.result_cache.as_ref().filter(|_| self.force_fail.is_none());
        let keys: Vec<Option<Digest128>> = cells
            .iter()
            .zip(&jobs)
            .map(|(c, wl)| cache.and_then(|_| report_key(wl, &c.cfg, self.sample.as_ref())))
            .collect();
        let cached: Vec<Option<SimReport>> =
            keys.iter().map(|k| lookup_report(cache?, (*k)?).ok().flatten()).collect();
        // The uncached cells in units of work, in order of first cell: one
        // cell each when exact; one per workload when sampled. A force-fail
        // cell is a unit of its own.
        let (force_fail, sample) = (self.force_fail.as_deref(), self.sample);
        let grouped = |i: usize| sample.is_some() && force_fail != Some(labels[i].as_str());
        let (mut units, mut unit_of) = (Vec::<Vec<usize>>::new(), vec![0; cells.len()]);
        for i in (0..cells.len()).filter(|&i| cached[i].is_none()) {
            let joins =
                |u: &Vec<usize>| grouped(u[0]) && grouped(i) && Arc::ptr_eq(&jobs[u[0]], &jobs[i]);
            unit_of[i] = units.iter().position(joins).unwrap_or_else(|| {
                units.push(Vec::new());
                units.len() - 1
            });
            units[unit_of[i]].push(i);
        }
        let measure_threads = (resolve_threads(self.threads) / units.len().max(1)).max(1);
        let results = try_parallel_map(units.len(), self.threads, |u| {
            let i = units[u][0];
            if force_fail == Some(labels[i].as_str()) {
                panic!("forced failure requested for cell '{}'", labels[i]);
            }
            match &sample {
                Some(scfg) => {
                    let cfgs: Vec<SimConfig> = units[u].iter().map(|&i| cells[i].cfg).collect();
                    simulate_sampled_configs(&jobs[i], &cfgs, scfg, measure_threads)
                }
                None => vec![simulate(&jobs[i], &cells[i].cfg)],
            }
        });
        let mut fresh: Vec<_> = results.into_iter().map(|r| r.map(Vec::into_iter)).collect();
        let mut reports = Vec::with_capacity(cells.len());
        for (i, hit) in cached.into_iter().enumerate() {
            let report = match hit {
                Some(r) => r,
                None => match &mut fresh[unit_of[i]] {
                    Ok(unit_reports) => {
                        let r = unit_reports.next().expect("one report per cell");
                        if let (Some(cache), Some(key)) = (cache, keys[i]) {
                            // A failed store costs only a later recompute.
                            let _ = store_report(cache, key, &r);
                        }
                        r
                    }
                    // A failed unit fails each of its cells, named by cell index.
                    Err(e) => {
                        let e = CellError { index: i, ..e.clone() };
                        if !self.keep_going {
                            panic!("cell {i} ({}) failed: {e}", labels[i]);
                        }
                        let message = e.message;
                        failed_report(&cells[i], &jobs[i].name, SimError::Panic { message })
                    }
                },
            };
            if let Some(err) = report.outcome.error() {
                if !self.keep_going {
                    panic!("cell {i} ({}) failed: {err}", labels[i]);
                }
                self.failures
                    .push(CellFailure { label: labels[i].clone(), message: err.to_string() });
            }
            reports.push(report);
        }
        self.account(&reports);
        reports
    }

    /// Runs every configuration on every combo as one [`Ctx::run_batch`]
    /// and returns the reports as `grid[combo][config]`. Cells run in
    /// combo-major order, so keep-going failures are listed that way too.
    pub fn run_grid(&mut self, combos: &[Combo], cfgs: &[SimConfig]) -> Vec<Vec<SimReport>> {
        let cells: Vec<Cell> = combos
            .iter()
            .flat_map(|&(b, g)| cfgs.iter().map(move |&cfg| Cell::new(b, g, cfg)))
            .collect();
        let mut reports = self.run_batch(&cells).into_iter();
        combos.iter().map(|_| reports.by_ref().take(cfgs.len()).collect()).collect()
    }

    fn account(&mut self, reports: &[SimReport]) {
        for r in reports {
            self.runs += 1;
            // Covered instructions: committed for exact runs, fast-forward +
            // detailed for sampled ones (the honest throughput numerator).
            self.sim_committed += r.simulated_instructions;
            if let Some(san) = &r.sanitizer {
                self.san_checks += san.checks;
                self.san_violations += san.violations;
            }
        }
    }

    /// Aggregate sanitizer counts over every run: `(checks, violations)`.
    /// Both zero unless [`Ctx::sanitize`] was set.
    pub fn sanitize_totals(&self) -> (u64, u64) {
        (self.san_checks, self.san_violations)
    }

    /// Aggregate simulation work over every run through this context:
    /// `(runs, covered instructions)`. Covered means committed for exact
    /// runs and fast-forward + detailed for sampled ones.
    pub fn throughput_totals(&self) -> (u64, u64) {
        (self.runs, self.sim_committed)
    }

    /// One-line aggregate throughput summary over a run that took
    /// `wall_seconds` of wall clock, workload builds included: covered
    /// instructions per wall second, as `BENCH_*.json` records it (for
    /// stderr diagnostics — never part of experiment text, which must stay
    /// deterministic).
    pub fn throughput_summary(&self, wall_seconds: f64) -> String {
        let (runs, instrs) = self.throughput_totals();
        let ips = if wall_seconds > 0.0 { instrs as f64 / wall_seconds / 1e6 } else { 0.0 };
        format!(
            "{runs} runs, {:.1}M instrs simulated in {wall_seconds:.2}s wall clock \
             ({ips:.2}M instr/s)",
            instrs as f64 / 1e6
        )
    }
}

/// Wall-clock comparison of the sequential vs parallel sampled measure
/// phase on one benchmark — the perf-trajectory probe persisted into
/// `BENCH_<name>.json`. Its seconds are measure-phase seconds only.
#[derive(Clone, Debug)]
pub struct SampleProbe {
    /// The probed workload's name.
    pub bench: String,
    /// Region-of-interest length of the emitted checkpoints.
    pub instrs: u64,
    /// Wall seconds measuring every checkpoint on one thread.
    pub sequential_seconds: f64,
    /// Wall seconds measuring every checkpoint on
    /// [`SampleProbe::threads`] in-process workers.
    pub parallel_seconds: f64,
    /// Worker-thread count of the parallel measure.
    pub threads: usize,
    /// `sequential_seconds / parallel_seconds`.
    pub speedup: f64,
}

/// Measure-phase runs per side of [`sample_speedup_probe`]; each side
/// keeps its fastest, since at fig9's Paper ROI one run lasts under 0.1 s
/// and a single timing of it is mostly host noise.
const PROBE_REPEATS: usize = 5;

/// Probes the checkpoint-parallel speedup: one benchmark (BFS on the KR
/// graph under DVR) at the context's size/seed/ROI emits its checkpoints
/// once, which are then measured on one thread and on `threads` workers,
/// each side timed as the fastest of [`PROBE_REPEATS`] runs. The periods
/// are byte-identical; only the wall clock differs. Runs are not
/// accounted into the context's throughput totals.
pub fn sample_speedup_probe(ctx: &mut Ctx, threads: usize) -> SampleProbe {
    let wl = ctx.workload(Benchmark::Bfs, Some(GraphInput::Kr));
    let cfg = SimConfig::new(Technique::Dvr).with_max_instructions(ctx.instrs);
    let scfg = ctx.sample.unwrap_or_default();
    let checkpoints = sample_emit(&wl, &cfg, &scfg).map(|e| e.checkpoints).unwrap_or_default();
    let [sequential_seconds, parallel_seconds] = [1, threads].map(|n| {
        let runs = (0..PROBE_REPEATS).map(|_| {
            let t = std::time::Instant::now();
            let _ = measure_emitted(&wl, &cfg, &scfg, &checkpoints, n);
            t.elapsed().as_secs_f64()
        });
        runs.fold(f64::INFINITY, f64::min)
    });
    SampleProbe {
        bench: wl.name.clone(),
        instrs: cfg.max_instructions,
        sequential_seconds,
        parallel_seconds,
        threads,
        speedup: sequential_seconds / parallel_seconds.max(1e-9),
    }
}

/// Wall-clock probe of the crash-safe sweep service (`dvrsim sweep`):
/// one tiny grid swept cold, resumed from its journal, and served from a
/// warm cache — the robustness-overhead numbers persisted into
/// `BENCH_<name>.json`.
#[derive(Clone, Debug)]
pub struct SweepProbe {
    /// Cells in the probe grid.
    pub cells: usize,
    /// Wall seconds of the cold sweep (compute + journal + cache store).
    pub cold_seconds: f64,
    /// Wall seconds rerunning against the completed journal (pure
    /// replay; nothing is recomputed).
    pub resume_seconds: f64,
    /// `resume_seconds / cold_seconds` — the cost of crash-safety on a
    /// finished sweep.
    pub resume_overhead: f64,
    /// Fraction of cells served by the content-addressed cache when the
    /// journal is fresh but the cache is warm.
    pub cache_hit_rate: f64,
}

static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);

/// Runs the sweep probe on a private scratch directory: a 2-cell grid
/// (BFS/KR under OoO and DVR at test scale) swept cold, resumed, and
/// re-swept with a fresh journal against the warm cache. Runs are not
/// accounted into the context's throughput totals.
pub fn sweep_resume_probe(ctx: &Ctx) -> SweepProbe {
    use dvr_sim::sim_sweep::{run_sweep, SweepOptions};
    use dvr_sim::{DvrSweepRunner, SweepCell};

    let dir = std::env::temp_dir().join(format!(
        "bench-sweep-probe-{}-{}",
        std::process::id(),
        SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create sweep-probe scratch");
    let cells: Vec<String> = SweepCell::grid(
        &[Benchmark::Bfs],
        &[GraphInput::Kr],
        &[Technique::Baseline, Technique::Dvr],
        SizeClass::Test,
        ctx.seed,
        20_000,
    )
    .iter()
    .map(SweepCell::key)
    .collect();
    let runner = DvrSweepRunner::new(None);
    let cache = ResultCache::open(&dir.join("cache")).ok();
    let journal = dir.join("journal.dvrj");
    let opts = SweepOptions::default();

    let t0 = std::time::Instant::now();
    let _ = run_sweep(&cells, &runner, &journal, cache.as_ref(), &opts);
    let cold_seconds = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let _ = run_sweep(&cells, &runner, &journal, cache.as_ref(), &opts);
    let resume_seconds = t1.elapsed().as_secs_f64();
    let warm = run_sweep(&cells, &runner, &dir.join("journal-warm.dvrj"), cache.as_ref(), &opts);
    let cache_hit_rate =
        warm.map(|r| r.stats.from_cache as f64 / (r.stats.total.max(1)) as f64).unwrap_or(0.0);
    let _ = std::fs::remove_dir_all(&dir);
    SweepProbe {
        cells: cells.len(),
        cold_seconds,
        resume_seconds,
        resume_overhead: resume_seconds / cold_seconds.max(1e-9),
        cache_hit_rate,
    }
}

/// A zero-IPC placeholder standing in for a cell that produced no report
/// (worker panic). Downstream math must survive it: `speedup_over` and the
/// figure normalizers treat a zero-IPC baseline as 0.
fn failed_report(cell: &Cell, workload_name: &str, err: SimError) -> SimReport {
    SimReport {
        technique: cell.cfg.technique,
        workload: workload_name.to_string(),
        core: CoreStats::default(),
        mem: MemStats::default(),
        ipc: 0.0,
        mlp: 0.0,
        simulated_instructions: 0,
        host_seconds: 0.0,
        sampling: None,
        engine: EngineSummary::default(),
        outcome: RunOutcome::Failed(err),
        sanitizer: None,
        work: Default::default(),
    }
}

/// A rendered experiment: the text report plus zero or more charts.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// The aligned-table report (also the charts' accessible table view).
    pub text: String,
    /// Charts to render with `--svg`.
    pub charts: Vec<Chart>,
}

impl Experiment {
    fn text_only(text: String) -> Self {
        Experiment { text, charts: vec![] }
    }
}

/// The benchmark-input combinations of Figure 7 (GAP × 5 inputs, then the
/// eight hpc-db benchmarks).
pub fn fig7_combos() -> Vec<Combo> {
    let mut v = Vec::new();
    for b in Benchmark::GAP {
        for g in GraphInput::ALL {
            v.push((b, Some(g)));
        }
    }
    for b in Benchmark::HPC_DB {
        v.push((b, None));
    }
    v
}

/// The 13-benchmark set with GAP pinned to KR (used by Figures 2, 8, 9,
/// 10, 11, 12 to bound runtime).
pub fn combos_kr() -> Vec<Combo> {
    Benchmark::ALL.iter().map(|&b| (b, b.is_gap().then_some(GraphInput::Kr))).collect()
}

/// Harmonic mean (the paper's average for speedups).
pub fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x.max(1e-12)).sum::<f64>()
}

/// Label for a combo.
pub fn combo_name(b: Benchmark, g: Option<GraphInput>) -> String {
    match g {
        Some(g) if b.is_gap() => format!("{}_{}", b.name(), g.name()),
        _ => b.name().to_string(),
    }
}

/// An experiment's entry point.
pub type ExperimentFn = fn(&mut Ctx) -> Experiment;

/// Every experiment, by name, in paper order (the paper's tables and
/// figures, then our extensions).
pub const EXPERIMENTS: [(&str, ExperimentFn); 11] = [
    ("table1", |_| Experiment::text_only(table1())),
    ("table2", |ctx| Experiment::text_only(table2(ctx))),
    ("fig2", fig2),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("ablation", |ctx| Experiment::text_only(ablation(ctx))),
    ("mix", mix_figure),
];

/// Runs a named experiment, returning its printable report (text only).
pub fn run_experiment(name: &str, ctx: &mut Ctx) -> String {
    run_experiment_full(name, ctx).text
}

/// Runs a named experiment (one of [`EXPERIMENTS`]), returning text and
/// charts; an unknown name yields a one-line text report saying so.
///
/// In keep-going mode, cells that failed during the experiment are listed
/// in a trailing text section and their categories marked on the charts.
pub fn run_experiment_full(name: &str, ctx: &mut Ctx) -> Experiment {
    let Some(&(_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        return Experiment::text_only(format!("unknown experiment '{name}'\n"));
    };
    let mark = ctx.failures.len();
    let mut e = run(ctx);
    annotate_failures(&mut e, &ctx.failures[mark..]);
    e
}

/// Appends a failed-cells section to the experiment text and marks failed
/// categories (matched by the `combo/` prefix of the failure label) on its
/// charts.
fn annotate_failures(e: &mut Experiment, failures: &[CellFailure]) {
    if failures.is_empty() {
        return;
    }
    let _ = writeln!(e.text, "-- {} FAILED cell(s), shown as 0 above --", failures.len());
    for f in failures {
        let _ = writeln!(e.text, "   {}: {}", f.label, f.message);
    }
    for chart in &mut e.charts {
        chart.failed = chart
            .categories
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                failures.iter().any(|f| {
                    f.label.strip_prefix(c.as_str()).is_some_and(|rest| rest.starts_with('/'))
                })
            })
            .map(|(i, _)| i)
            .collect();
    }
}

/// Table 1: the active baseline configuration.
pub fn table1() -> String {
    let cfg = SimConfig::new(Technique::Baseline);
    let mut s = String::new();
    let _ = writeln!(s, "== Table 1: baseline configuration ==");
    let c = cfg.core;
    let h = cfg.hierarchy;
    let _ = writeln!(s, "ROB size               {}", c.rob_size);
    let _ = writeln!(
        s,
        "Queue sizes            issue ({}), load ({}), store ({})",
        c.iq_size, c.lq_size, c.sq_size
    );
    let _ = writeln!(s, "Processor width        {}-wide fetch/dispatch/commit", c.width);
    let _ = writeln!(s, "Pipeline depth         {} front-end stages", c.frontend_penalty);
    let _ = writeln!(s, "Branch predictor       TAGE + loop predictor (8 KB class)");
    let _ = writeln!(
        s,
        "Functional units       {} int add, {} int mult, {} int div, {} ld ports, {} st ports",
        c.int_alu, c.int_mul, c.int_div, c.load_ports, c.store_ports
    );
    let _ = writeln!(
        s,
        "L1 D-cache             {} KB, assoc {}, {}-cycle, {} MSHRs, stride prefetcher",
        h.l1.size_bytes / 1024,
        h.l1.assoc,
        h.l1.latency,
        h.mshrs
    );
    let _ = writeln!(
        s,
        "Private L2 cache       {} KB, assoc {}, {}-cycle",
        h.l2.size_bytes / 1024,
        h.l2.assoc,
        h.l2.latency
    );
    let _ = writeln!(
        s,
        "Shared L3 cache        {} MB, assoc {}, {}-cycle",
        h.l3.size_bytes / 1024 / 1024,
        h.l3.assoc,
        h.l3.latency
    );
    let _ = writeln!(
        s,
        "Memory                 {}-cycle min latency, 1 line / {} cycles bandwidth",
        h.dram.min_latency, h.dram.cycles_per_line
    );
    s
}

/// Table 2: graph inputs and LLC MPKI aggregated over the five GAP
/// benchmarks per input, on the baseline core.
pub fn table2(ctx: &mut Ctx) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Table 2: graph inputs (scaled surrogates) ==");
    let _ = writeln!(s, "{:6} {:>10} {:>12} {:>10}", "Input", "Nodes", "Edges", "LLC MPKI");
    let combos: Vec<Combo> =
        GraphInput::ALL.into_iter().flat_map(|g| Benchmark::GAP.map(|b| (b, Some(g)))).collect();
    let grid = ctx.run_grid(&combos, &[ctx.tcfg(Technique::Baseline)]);
    for (g, rows) in GraphInput::ALL.into_iter().zip(grid.chunks(Benchmark::GAP.len())) {
        let graph = g.generate(ctx.size.graph_scale_shift(), ctx.seed);
        let misses: u64 = rows.iter().map(|row| row[0].mem.dram_demand).sum();
        let instrs: u64 = rows.iter().map(|row| row[0].core.committed).sum();
        let mpki = 1000.0 * misses as f64 / instrs.max(1) as f64;
        let _ = writeln!(s, "{:6} {:>10} {:>12} {:>10.1}", g.name(), graph.n, graph.m(), mpki);
    }
    s
}

const ROB_SWEEP: [usize; 5] = [128, 192, 224, 350, 512];

/// The ROB sweep behind Figures 2 and 12: per [`combos_kr`] combo, the
/// OoO-350 baseline plus two variant configs per [`ROB_SWEEP`] point.
/// Returns, per point, the h-mean speedup of each variant over the
/// baseline and the mean full-window stall fraction of the first variant.
fn rob_sweep(ctx: &mut Ctx, variants: &[[SimConfig; 2]]) -> [Vec<f64>; 3] {
    let mut cfgs = vec![ctx.tcfg(Technique::Baseline)];
    cfgs.extend(variants.iter().flatten());
    let grid = ctx.run_grid(&combos_kr(), &cfgs);
    // Variant `v` at sweep point `i` is column `1 + 2 * i + v`.
    let hmeans = |v: usize| -> Vec<f64> {
        (0..variants.len())
            .map(|i| {
                let speedups: Vec<f64> =
                    grid.iter().map(|row| row[1 + 2 * i + v].speedup_over(&row[0])).collect();
                hmean(&speedups)
            })
            .collect()
    };
    let stall = (0..variants.len())
        .map(|i| {
            grid.iter().map(|row| row[1 + 2 * i].core.rob_full_stall_fraction()).sum::<f64>()
                / grid.len() as f64
        })
        .collect();
    [hmeans(0), hmeans(1), stall]
}

/// Figure 2: OoO & VR performance vs ROB size (normalized to OoO-350) and
/// full-window stall fraction.
pub fn fig2(ctx: &mut Ctx) -> Experiment {
    let variants = ROB_SWEEP
        .map(|rob| [Technique::Baseline, Technique::Vr].map(|t| ctx.tcfg(t).with_rob(rob)));
    let [ooo_pts, vr_pts, stall_pts] = rob_sweep(ctx, &variants);

    let cats: Vec<String> = ROB_SWEEP.iter().map(|r| r.to_string()).collect();
    let perf = Chart {
        title: "Figure 2: OoO & VR vs ROB size (norm. to OoO-350)".into(),
        y_label: "normalized IPC (h-mean)".into(),
        categories: cats.clone(),
        series: vec![Series::new("OoO", ooo_pts.clone()), Series::new("VR", vr_pts.clone())],
        kind: ChartKind::Lines,
        baseline: Some(1.0),
        slug: "fig02_perf".into(),
        failed: vec![],
    };
    let stall = Chart {
        title: "Figure 2 (right axis): full-window stall fraction".into(),
        y_label: "fraction of cycles".into(),
        categories: cats,
        series: vec![Series::new("window-full", stall_pts.clone())],
        kind: ChartKind::Lines,
        baseline: None,
        slug: "fig02_stall".into(),
        failed: vec![],
    };

    let mut text = String::new();
    let _ = writeln!(text, "== Figure 2: OoO & VR vs ROB size (norm. to OoO-350) ==");
    let _ =
        writeln!(text, "{:>6} {:>10} {:>10} {:>12}", "ROB", "OoO(norm)", "VR(norm)", "stall-frac");
    for (i, rob) in ROB_SWEEP.iter().enumerate() {
        let _ = writeln!(
            text,
            "{:>6} {:>10.3} {:>10.3} {:>12.3}",
            rob, ooo_pts[i], vr_pts[i], stall_pts[i]
        );
    }
    Experiment { text, charts: vec![perf, stall] }
}

/// The speedup table behind Figures 7 and 8: per combo, each technique's
/// speedup over the OoO baseline, an H-MEAN row and a grouped-bar chart.
/// A column is `(technique, header, width)`; `ooo_ipc` leads with the
/// baseline's own IPC.
fn speedup_figure(
    ctx: &mut Ctx,
    combos: &[Combo],
    cols: &[(Technique, &str, usize)],
    ooo_ipc: bool,
    heading: &str,
    title: &str,
    slug: &str,
) -> Experiment {
    let mut cfgs = vec![ctx.tcfg(Technique::Baseline)];
    cfgs.extend(cols.iter().map(|&(t, ..)| ctx.tcfg(t)));
    let grid = ctx.run_grid(combos, &cfgs);
    let speedups: Vec<Vec<f64>> = (1..cfgs.len())
        .map(|i| grid.iter().map(|row| row[i].speedup_over(&row[0])).collect())
        .collect();
    let cats: Vec<String> = combos.iter().map(|&(b, g)| combo_name(b, g)).collect();

    // Built column by column: the header, one row per combo, the H-MEAN.
    let mut header = format!("{:16}", "benchmark");
    let mut rows: Vec<String> = cats.iter().map(|c| format!("{c:16}")).collect();
    let mut total = format!("{:16}", "H-MEAN");
    if ooo_ipc {
        let _ = write!(header, " {:>8}", "OoO-IPC");
        for (row, reports) in rows.iter_mut().zip(&grid) {
            let _ = write!(row, " {:>8.3}", reports[0].ipc);
        }
        let _ = write!(total, " {:>8}", "");
    }
    for (&(_, name, w), col) in cols.iter().zip(&speedups) {
        let _ = write!(header, " {name:>w$}");
        for (row, x) in rows.iter_mut().zip(col) {
            let _ = write!(row, " {x:>w$.2}");
        }
        let _ = write!(total, " {:>w$.2}", hmean(col));
    }
    let mut text = format!("== {heading} ==\n");
    for line in [&header].into_iter().chain(&rows).chain([&total]) {
        let _ = writeln!(text, "{line}");
    }

    let chart = Chart {
        title: title.into(),
        y_label: "speedup (x)".into(),
        categories: cats,
        series: cols
            .iter()
            .zip(speedups)
            .map(|(&(_, name, _), col)| Series::new(name, col))
            .collect(),
        kind: ChartKind::GroupedBars,
        baseline: Some(1.0),
        slug: slug.into(),
        failed: vec![],
    };
    Experiment { text, charts: vec![chart] }
}

/// Figure 7: speedup of each technique over the baseline, per
/// benchmark-input combination.
pub fn fig7(ctx: &mut Ctx) -> Experiment {
    let cols = Technique::FIG7.map(|t| (t, t.name(), 7));
    speedup_figure(
        ctx,
        &fig7_combos(),
        &cols,
        true,
        "Figure 7: normalized performance (speedup over OoO)",
        "Figure 7: speedup over the OoO baseline",
        "fig07_performance",
    )
}

/// Figure 8: the DVR breakdown (VR → Offload → +Discovery → +Nested).
pub fn fig8(ctx: &mut Ctx) -> Experiment {
    let [vr, offload, discovery, dvr] = Technique::FIG8;
    let cols =
        [(vr, "VR", 7), (offload, "Offload", 9), (discovery, "+Discovery", 11), (dvr, "DVR", 7)];
    let title = "Figure 8: DVR breakdown (speedup over OoO)";
    speedup_figure(ctx, &combos_kr(), &cols, false, title, title, "fig08_breakdown")
}

/// Figure 9: memory-level parallelism (average MSHRs in use per cycle).
pub fn fig9(ctx: &mut Ctx) -> Experiment {
    let combos = combos_kr();
    let techs = [Technique::Baseline, Technique::Vr, Technique::Dvr];
    let grid = ctx.run_grid(&combos, &techs.map(|t| ctx.tcfg(t)));
    let cats: Vec<String> = combos.iter().map(|&(b, g)| combo_name(b, g)).collect();
    let cols: Vec<Vec<f64>> =
        (0..techs.len()).map(|i| grid.iter().map(|row| row[i].mlp).collect()).collect();

    let mut text = String::new();
    let _ = writeln!(text, "== Figure 9: MLP (avg MSHRs used per cycle) ==");
    let _ = writeln!(text, "{:16} {:>7} {:>7} {:>7}", "benchmark", "OoO", "VR", "DVR");
    for (k, c) in cats.iter().enumerate() {
        let _ =
            writeln!(text, "{:16} {:>7.2} {:>7.2} {:>7.2}", c, cols[0][k], cols[1][k], cols[2][k]);
    }
    let n = cats.len() as f64;
    let _ = writeln!(
        text,
        "{:16} {:>7.2} {:>7.2} {:>7.2}",
        "MEAN",
        cols[0].iter().sum::<f64>() / n,
        cols[1].iter().sum::<f64>() / n,
        cols[2].iter().sum::<f64>() / n
    );

    let chart = Chart {
        title: "Figure 9: memory-level parallelism (MSHRs per cycle)".into(),
        y_label: "avg MSHRs in use".into(),
        categories: cats,
        series: vec![
            Series::new("OoO", cols[0].clone()),
            Series::new("VR", cols[1].clone()),
            Series::new("DVR", cols[2].clone()),
        ],
        kind: ChartKind::GroupedBars,
        baseline: None,
        slug: "fig09_mlp".into(),
        failed: vec![],
    };
    Experiment { text, charts: vec![chart] }
}

/// Figure 10: DRAM reads normalized to the baseline, split into demand vs
/// runahead traffic (accuracy/coverage).
pub fn fig10(ctx: &mut Ctx) -> Experiment {
    let combos = combos_kr();
    let techs = [Technique::Baseline, Technique::Vr, Technique::Dvr];
    let grid = ctx.run_grid(&combos, &techs.map(|t| ctx.tcfg(t)));
    let cats: Vec<String> = combos.iter().map(|&(b, g)| combo_name(b, g)).collect();
    // Per technique: (demand fraction, runahead fraction), normalized to
    // the baseline's total reads.
    let mut vr_demand = Vec::new();
    let mut vr_ra = Vec::new();
    let mut dvr_demand = Vec::new();
    let mut dvr_ra = Vec::new();
    for row in &grid {
        let (base, vr, dvr) = (&row[0], &row[1], &row[2]);
        let base_reads = base.mem.dram_reads().max(1) as f64;
        vr_ra.push(vr.mem.dram_runahead() as f64 / base_reads);
        vr_demand.push((vr.mem.dram_reads() - vr.mem.dram_runahead()) as f64 / base_reads);
        dvr_ra.push(dvr.mem.dram_runahead() as f64 / base_reads);
        dvr_demand.push((dvr.mem.dram_reads() - dvr.mem.dram_runahead()) as f64 / base_reads);
    }

    let mut text = String::new();
    let _ = writeln!(text, "== Figure 10: DRAM accesses normalized to OoO (demand+runahead) ==");
    let _ = writeln!(
        text,
        "{:16} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "VR-total", "VR-ra%", "DVR-total", "DVR-ra%"
    );
    for (k, c) in cats.iter().enumerate() {
        let vr_t = vr_demand[k] + vr_ra[k];
        let dvr_t = dvr_demand[k] + dvr_ra[k];
        let _ = writeln!(
            text,
            "{:16} {:>9.2} {:>8.0}% {:>9.2} {:>8.0}%",
            c,
            vr_t,
            100.0 * vr_ra[k] / vr_t.max(1e-12),
            dvr_t,
            100.0 * dvr_ra[k] / dvr_t.max(1e-12),
        );
    }

    let mk = |name: &str, demand: &[f64], ra: &[f64], slug: &str| Chart {
        title: format!("Figure 10: {name} DRAM reads (normalized to OoO)"),
        y_label: "DRAM line reads / OoO total".into(),
        categories: cats.clone(),
        series: vec![Series::new("demand", demand.to_vec()), Series::new("runahead", ra.to_vec())],
        kind: ChartKind::StackedBars,
        baseline: Some(1.0),
        slug: slug.into(),
        failed: vec![],
    };
    Experiment {
        text,
        charts: vec![
            mk("VR", &vr_demand, &vr_ra, "fig10_vr_traffic"),
            mk("DVR", &dvr_demand, &dvr_ra, "fig10_dvr_traffic"),
        ],
    }
}

/// Figure 11: timeliness of DVR prefetches (where the main thread found
/// the prefetched lines).
pub fn fig11(ctx: &mut Ctx) -> Experiment {
    let combos = combos_kr();
    let grid = ctx.run_grid(&combos, &[ctx.tcfg(Technique::Dvr)]);
    let cats: Vec<String> = combos.iter().map(|&(b, g)| combo_name(b, g)).collect();
    let mut buckets: [Vec<f64>; 4] = Default::default();
    for row in &grid {
        for (bucket, v) in buckets.iter_mut().zip(row[0].timeliness().unwrap_or([0.0; 4])) {
            bucket.push(v);
        }
    }

    let mut text = String::new();
    let _ = writeln!(text, "== Figure 11: DVR prefetch timeliness ==");
    let _ = writeln!(
        text,
        "{:16} {:>7} {:>7} {:>7} {:>9}",
        "benchmark", "L1%", "L2%", "L3%", "off-chip%"
    );
    for (k, c) in cats.iter().enumerate() {
        let _ = writeln!(
            text,
            "{:16} {:>6.0}% {:>6.0}% {:>6.0}% {:>8.0}%",
            c,
            100.0 * buckets[0][k],
            100.0 * buckets[1][k],
            100.0 * buckets[2][k],
            100.0 * buckets[3][k]
        );
    }

    let chart = Chart {
        title: "Figure 11: DVR prefetch timeliness".into(),
        y_label: "fraction of prefetched lines".into(),
        categories: cats,
        series: vec![
            Series::new("L1", buckets[0].clone()),
            Series::new("L2", buckets[1].clone()),
            Series::new("L3", buckets[2].clone()),
            Series::new("off-chip", buckets[3].clone()),
        ],
        kind: ChartKind::StackedBars,
        baseline: None,
        slug: "fig11_timeliness".into(),
        failed: vec![],
    };
    Experiment { text, charts: vec![chart] }
}

/// Figure 12: DVR performance vs ROB size, normalized to OoO-350.
pub fn fig12(ctx: &mut Ctx) -> Experiment {
    let variants = ROB_SWEEP.map(|rob| {
        let dvr = ctx.tcfg(Technique::Dvr);
        [dvr.with_rob(rob), dvr.with_scaled_backend(rob)]
    });
    let [dvr_pts, scaled_pts, _] = rob_sweep(ctx, &variants);

    let mut text = String::new();
    let _ = writeln!(text, "== Figure 12: DVR vs ROB size (norm. to OoO-350) ==");
    let _ = writeln!(text, "{:>6} {:>10} {:>12}", "ROB", "DVR(norm)", "DVR(scaled)");
    for (i, rob) in ROB_SWEEP.iter().enumerate() {
        let _ = writeln!(text, "{:>6} {:>10.3} {:>12.3}", rob, dvr_pts[i], scaled_pts[i]);
    }

    let chart = Chart {
        title: "Figure 12: DVR vs ROB size (norm. to OoO-350)".into(),
        y_label: "normalized IPC (h-mean)".into(),
        categories: ROB_SWEEP.iter().map(|r| r.to_string()).collect(),
        series: vec![Series::new("DVR", dvr_pts), Series::new("DVR scaled-backend", scaled_pts)],
        kind: ChartKind::Lines,
        baseline: Some(1.0),
        slug: "fig12_dvr_rob".into(),
        failed: vec![],
    };
    Experiment { text, charts: vec![chart] }
}

/// Our ablations: MSHR-count and lane-count sensitivity (including the
/// paper's Section 6.1 "wider 256-element DVR" extension).
pub fn ablation(ctx: &mut Ctx) -> String {
    const MSHR_COMBOS: [Combo; 2] =
        [(Benchmark::Hj8, None), (Benchmark::Bfs, Some(GraphInput::Kr))];
    const MSHR_SWEEP: [usize; 3] = [12, 24, 48];
    const DRAM_COMBOS: [Combo; 2] = [(Benchmark::Camel, None), (Benchmark::NasCg, None)];
    const LANE_COMBOS: [Combo; 3] =
        [(Benchmark::NasCg, None), (Benchmark::NasIs, None), (Benchmark::Hj8, None)];
    const LANE_SWEEP: [usize; 4] = [32, 64, 128, 256];

    // One grid per section, in output order.
    let mut s = String::new();
    let _ = writeln!(s, "== Ablations: MSHR count sensitivity (DVR) ==");
    let _ = writeln!(s, "{:16} {:>8} {:>9} {:>7}", "benchmark", "MSHRs", "DVR-IPC", "MLP");
    let grid =
        ctx.run_grid(&MSHR_COMBOS, &MSHR_SWEEP.map(|m| ctx.tcfg(Technique::Dvr).with_mshrs(m)));
    for ((b, g), row) in MSHR_COMBOS.into_iter().zip(&grid) {
        for (mshrs, r) in MSHR_SWEEP.into_iter().zip(row) {
            let _ =
                writeln!(s, "{:16} {:>8} {:>9.3} {:>7.2}", combo_name(b, g), mshrs, r.ipc, r.mlp);
        }
    }

    // Banked open-page DRAM (our extension): row-buffer locality matters
    // more for the baseline's sequential streams than for hashed chains.
    let _ = writeln!(s, "\n== Ablations: open-page banked DRAM (extension) ==");
    let _ = writeln!(
        s,
        "{:16} {:>9} {:>9} {:>11} {:>11}",
        "benchmark", "OoO-flat", "OoO-bank", "DVR-flat", "DVR-banked"
    );
    let cfgs = [Technique::Baseline, Technique::Dvr]
        .map(|t| [ctx.tcfg(t), ctx.tcfg(t).with_banked_dram()])
        .concat();
    let grid = ctx.run_grid(&DRAM_COMBOS, &cfgs);
    for ((b, g), row) in DRAM_COMBOS.into_iter().zip(&grid) {
        let mut line = format!("{:16}", combo_name(b, g));
        for r in row {
            let _ = write!(line, " {:>9.3}", r.ipc);
        }
        let _ = writeln!(s, "{line}");
    }

    let _ = writeln!(s, "\n== Ablations: DVR lane count (Section 6.1 extension) ==");
    let _ = writeln!(
        s,
        "{:16} {:>7} {:>9} {:>9} {:>8}",
        "benchmark", "lanes", "DVR-IPC", "speedup", "Oracle"
    );
    let mut cfgs = vec![ctx.tcfg(Technique::Baseline), ctx.tcfg(Technique::Oracle)];
    cfgs.extend(LANE_SWEEP.map(|lanes| ctx.tcfg(Technique::Dvr).with_dvr_lanes(lanes)));
    let grid = ctx.run_grid(&LANE_COMBOS, &cfgs);
    for ((b, g), row) in LANE_COMBOS.into_iter().zip(&grid) {
        let base = &row[0];
        let oracle = row[1].speedup_over(base);
        for (lanes, r) in LANE_SWEEP.into_iter().zip(&row[2..]) {
            let _ = writeln!(
                s,
                "{:16} {:>7} {:>9.3} {:>8.2}x {:>7.2}x",
                combo_name(b, g),
                lanes,
                r.ipc,
                r.speedup_over(base),
                oracle
            );
        }
    }
    s
}

/// Core counts of the mix-scaling figure.
const MIX_CORES: [usize; 3] = [1, 2, 4];

/// Multi-programmed mixes (our extension): round-robin DVR mixes of 1, 2,
/// and 4 cores run on the discrete-event scheduler against a shared
/// L3/DRAM, reported as aggregate throughput (STP — the sum of per-core
/// IPCs normalized to each program's solo IPC) and fairness (the harmonic
/// mean of per-core slowdowns vs solo) versus core count.
///
/// Solo baselines go through [`Ctx::run_grid`], so they fan out over the
/// worker threads and are served by the result cache; the mixes themselves
/// run on the (single-threaded, deterministic) scheduler. Mixes have no
/// sampled mode, so sampling is suspended for this experiment — the solo
/// baselines must be exact too or the slowdowns would compare a sampled
/// estimate against an exact run. The 1-core mix is the scheduler's
/// identity anchor: its report is byte-identical to the solo run, so its
/// row reads exactly STP 1.000 / fairness 1.000.
pub fn mix_figure(ctx: &mut Ctx) -> Experiment {
    let sampling = ctx.sample.take();
    let specs: Vec<MixSpec> =
        MIX_CORES.iter().map(|&n| MixSpec::round_robin(n, Technique::Dvr)).collect();

    // Solo baselines for every distinct (benchmark, input) any mix uses.
    let mut combos: Vec<Combo> = Vec::new();
    for spec in &specs {
        for c in &spec.cores {
            if !combos.contains(&(c.bench, c.input)) {
                combos.push((c.bench, c.input));
            }
        }
    }
    let solos = ctx.run_grid(&combos, &[ctx.tcfg(Technique::Dvr)]);

    let base = ctx.tcfg(Technique::Dvr);
    let mut stp_pts = Vec::new();
    let mut fair_pts = Vec::new();
    let mut rows = Vec::new();
    for spec in &specs {
        let mix = simulate_mix(spec, ctx.size, ctx.seed, &base);
        let solo: Vec<SimReport> = spec
            .cores
            .iter()
            .map(|c| {
                let k = combos.iter().position(|&x| x == (c.bench, c.input)).expect("solo ran");
                solos[k][0].clone()
            })
            .collect();
        let eval = evaluate_mix(&mix, &solo);
        // Fold the mix's runs (and sanitizer ledgers, shared one included)
        // into the context totals so `--sanitize` covers the shared path.
        ctx.account(&mix.cores);
        if let Some(shared) = &mix.shared_sanitizer {
            ctx.san_checks += shared.checks;
            ctx.san_violations += shared.violations;
        }
        stp_pts.push(eval.throughput);
        fair_pts.push(eval.fairness);
        let benches: Vec<&str> = spec.cores.iter().map(|c| c.bench.name()).collect();
        let slowdowns: Vec<String> = eval.slowdowns.iter().map(|s| format!("{s:.2}")).collect();
        rows.push((spec.cores.len(), benches.join("+"), slowdowns.join(",")));
    }
    ctx.sample = sampling;

    let mut text = String::new();
    let _ = writeln!(text, "== Mix: multi-programmed throughput & fairness vs core count (DVR) ==");
    let _ =
        writeln!(text, "{:>6} {:>10} {:>9} {:>18}  mix", "cores", "STP", "fairness", "slowdowns");
    for (i, (n, benches, slowdowns)) in rows.iter().enumerate() {
        let _ = writeln!(
            text,
            "{:>6} {:>10.3} {:>9.3} {:>18}  {}",
            n, stp_pts[i], fair_pts[i], slowdowns, benches
        );
    }

    let chart = Chart {
        title: "Mix: throughput & fairness vs core count (DVR)".into(),
        y_label: "STP (x) / h-mean slowdown".into(),
        categories: MIX_CORES.iter().map(|n| n.to_string()).collect(),
        series: vec![
            Series::new("throughput (STP)", stp_pts),
            Series::new("fairness (hmean slowdown)", fair_pts),
        ],
        kind: ChartKind::Lines,
        baseline: Some(1.0),
        slug: "mix_scaling".into(),
        failed: vec![],
    };
    Experiment { text, charts: vec![chart] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmean_math() {
        assert!((hmean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((hmean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((hmean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert_eq!(hmean(&[]), 0.0);
    }

    #[test]
    fn combo_sets_have_expected_sizes() {
        assert_eq!(fig7_combos().len(), 5 * 5 + 8);
        assert_eq!(combos_kr().len(), 13);
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("350"));
        assert!(t.contains("MSHRs"));
        assert!(t.contains("TAGE"));
    }

    #[test]
    fn small_experiment_runs_and_charts_validate() {
        let mut ctx = Ctx::new(SizeClass::Test, 20_000, 7);
        let e = run_experiment_full("fig9", &mut ctx);
        assert!(e.text.contains("bfs_KR"));
        assert!(e.text.contains("MEAN"));
        assert_eq!(e.charts.len(), 1);
        for c in &e.charts {
            c.validate().expect("chart consistent");
            let svg = c.to_svg();
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        }
    }

    #[test]
    fn fig8_text_is_identical_across_thread_counts() {
        let serial = {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7).with_threads(1);
            run_experiment_full("fig8", &mut ctx)
        };
        let parallel = {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7).with_threads(4);
            run_experiment_full("fig8", &mut ctx)
        };
        assert_eq!(serial.text, parallel.text, "experiment text must not depend on threads");
        assert_eq!(
            serial.charts.iter().map(Chart::to_svg).collect::<Vec<_>>(),
            parallel.charts.iter().map(Chart::to_svg).collect::<Vec<_>>(),
            "rendered charts must not depend on threads"
        );
    }

    #[test]
    fn keep_going_replaces_failed_cells_and_records_them() {
        let mut ctx = Ctx::new(SizeClass::Test, 5_000, 7)
            .with_threads(2)
            .with_keep_going(true)
            .with_force_fail("NAS-IS/VR");
        let cells: Vec<Cell> = [Technique::Baseline, Technique::Vr, Technique::Dvr]
            .map(|t| Cell::new(Benchmark::NasIs, None, ctx.tcfg(t)))
            .to_vec();
        let reports = ctx.run_batch(&cells);
        assert_eq!(reports.len(), 3, "failed cell must still occupy its slot");
        assert!(reports[0].outcome.is_complete());
        assert_eq!(reports[1].outcome.kind(), "panic");
        assert_eq!(reports[1].ipc, 0.0);
        assert!(reports[2].outcome.is_complete());
        assert_eq!(ctx.failures().len(), 1);
        assert_eq!(ctx.failures()[0].label, "NAS-IS/VR");
        assert!(ctx.failures()[0].message.contains("forced failure"));
    }

    #[test]
    #[should_panic(expected = "NAS-IS/VR")]
    fn fail_fast_batch_names_the_failed_cell() {
        let mut ctx = Ctx::new(SizeClass::Test, 5_000, 7).with_force_fail("NAS-IS/VR");
        let cells = vec![Cell::new(Benchmark::NasIs, None, ctx.tcfg(Technique::Vr))];
        let _ = ctx.run_batch(&cells);
    }

    #[test]
    fn keep_going_experiment_marks_failures_in_text_and_chart() {
        let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7)
            .with_keep_going(true)
            .with_force_fail("bfs_KR/DVR");
        let e = run_experiment_full("fig9", &mut ctx);
        assert!(e.text.contains("FAILED cell(s)"), "{}", e.text);
        assert!(e.text.contains("bfs_KR/DVR"), "{}", e.text);
        let chart = &e.charts[0];
        assert_eq!(chart.failed.len(), 1, "one category marked: {:?}", chart.failed);
        assert_eq!(chart.categories[chart.failed[0]], "bfs_KR");
        chart.validate().expect("chart with failure markers stays consistent");
        assert!(chart.to_svg().contains("&#x2715;"), "cross marker rendered");
    }

    #[test]
    fn keep_going_output_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7)
                .with_threads(threads)
                .with_keep_going(true)
                .with_force_fail("NAS-IS/VR");
            run_experiment_full("fig8", &mut ctx)
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(serial.text.contains("FAILED cell(s)"));
        assert_eq!(serial.text, parallel.text, "failure paths must stay deterministic");
    }

    #[test]
    fn batch_reports_come_back_in_cell_order() {
        let mut ctx = Ctx::new(SizeClass::Test, 5_000, 7).with_threads(3);
        let cells: Vec<Cell> = [Technique::Baseline, Technique::Vr, Technique::Dvr]
            .map(|t| Cell::new(Benchmark::NasIs, None, ctx.tcfg(t)))
            .to_vec();
        let reports = ctx.run_batch(&cells);
        let techs: Vec<Technique> = reports.iter().map(|r| r.technique).collect();
        assert_eq!(techs, vec![Technique::Baseline, Technique::Vr, Technique::Dvr]);
        let (runs, instrs) = ctx.throughput_totals();
        assert_eq!(runs, 3);
        assert!(instrs > 0);
        assert!(ctx.throughput_summary(1.0).contains("3 runs"));
    }

    #[test]
    fn stacked_timeliness_fractions_are_sane() {
        let mut ctx = Ctx::new(SizeClass::Test, 20_000, 7);
        let e = run_experiment_full("fig11", &mut ctx);
        let chart = &e.charts[0];
        for k in 0..chart.categories.len() {
            let sum: f64 = chart.series.iter().map(|s| s.values[k]).sum();
            assert!(sum <= 1.0 + 1e-9, "fractions exceed 1 at {k}: {sum}");
        }
    }

    #[test]
    fn sanitized_experiment_is_clean_and_text_identical() {
        let plain = {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7);
            run_experiment("fig9", &mut ctx)
        };
        let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7).with_sanitize(true);
        let sane = run_experiment("fig9", &mut ctx);
        let (checks, violations) = ctx.sanitize_totals();
        assert!(checks > 0, "sanitizer must have run");
        assert_eq!(violations, 0, "cycle-model invariants must hold");
        assert_eq!(plain, sane, "sanitizer must not perturb experiment text");
    }

    #[test]
    fn sampled_figure_text_is_identical_across_measure_threads() {
        let run = |threads: usize| {
            let mut ctx = Ctx::new(SizeClass::Test, 60_000, 7)
                .with_sample(SampleConfig::default())
                .with_threads(threads);
            run_experiment("fig9", &mut ctx)
        };
        assert_eq!(run(1), run(4), "measure-phase fan-out must not perturb figure text");
    }

    #[test]
    fn sampled_grid_reports_equal_each_cell_sampled_alone() {
        // Warming records only the cache tags, so the ROB-128, 12-MSHR and
        // banked-DRAM columns share the first functional pass; the half-L1
        // column warms other tags and makes a second. A shared half-L1
        // pass would read differently.
        let combos = [(Benchmark::NasIs, None), (Benchmark::Bfs, Some(GraphInput::Kr))];
        let scfg = SampleConfig::default();
        let mut ctx = Ctx::new(SizeClass::Test, 60_000, 7).with_sample(scfg).with_threads(4);
        let dvr = ctx.tcfg(Technique::Dvr);
        let mut half_l1 = dvr;
        half_l1.hierarchy.l1.size_bytes /= 2;
        let cfgs = [
            ctx.tcfg(Technique::Baseline),
            dvr,
            dvr.with_rob(128),
            dvr.with_mshrs(12),
            dvr.with_banked_dram(),
            half_l1,
        ];
        let grid = ctx.run_grid(&combos, &cfgs);
        let json = |mut r: SimReport| {
            r.host_seconds = 0.0;
            r.to_json()
        };
        for (&(b, g), row) in combos.iter().zip(grid) {
            let wl = ctx.workload(b, g);
            for (k, (cfg, report)) in cfgs.iter().zip(row).enumerate() {
                let alone = dvr_sim::simulate_sampled(&wl, cfg, &scfg);
                assert_eq!(json(report), json(alone), "{} column {k}", combo_name(b, g));
            }
        }
    }

    #[test]
    fn sampled_keep_going_fails_only_the_forced_cell() {
        let mut ctx = Ctx::new(SizeClass::Test, 60_000, 7)
            .with_sample(SampleConfig::default())
            .with_threads(2)
            .with_keep_going(true)
            .with_force_fail("NAS-IS/VR");
        let cfgs = [Technique::Baseline, Technique::Vr, Technique::Dvr].map(|t| ctx.tcfg(t));
        let row = ctx.run_grid(&[(Benchmark::NasIs, None)], &cfgs).remove(0);
        assert_eq!(ctx.failures().len(), 1);
        assert_eq!(ctx.failures()[0].label, "NAS-IS/VR");
        assert!(ctx.failures()[0].message.contains("forced failure"));
        assert_eq!(row[1].outcome.kind(), "panic");
        for r in [&row[0], &row[2]] {
            assert!(r.outcome.is_complete() && r.sampling.is_some() && r.ipc > 0.0);
        }
    }

    #[test]
    fn speedup_probe_reports_positive_wall_clock() {
        let mut ctx = Ctx::new(SizeClass::Test, 60_000, 7).with_sample(SampleConfig::default());
        let p = sample_speedup_probe(&mut ctx, 2);
        assert!(p.sequential_seconds > 0.0 && p.parallel_seconds > 0.0);
        assert!(p.speedup > 0.0);
        assert_eq!(p.threads, 2);
        assert_eq!(p.instrs, 60_000);
    }

    #[test]
    fn result_cache_round_trip_preserves_figure_text() {
        let dir = std::env::temp_dir().join(format!("bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7);
            run_experiment("fig9", &mut ctx)
        };
        let cold = {
            let mut ctx =
                Ctx::new(SizeClass::Test, 10_000, 7).with_result_cache(&dir).expect("cache opens");
            let text = run_experiment("fig9", &mut ctx);
            let (hits, misses, stores, corrupt) = ctx.cache_totals();
            assert_eq!(hits, 0, "cold cache cannot hit");
            assert_eq!(misses, stores, "every miss must be stored");
            assert!(misses > 0 && corrupt == 0);
            text
        };
        let warm = {
            let mut ctx =
                Ctx::new(SizeClass::Test, 10_000, 7).with_result_cache(&dir).expect("cache opens");
            let text = run_experiment("fig9", &mut ctx);
            let (hits, misses, _, _) = ctx.cache_totals();
            assert!(hits > 0, "warm cache must hit");
            assert_eq!(misses, 0, "warm run must not resimulate");
            text
        };
        assert_eq!(plain, cold, "attaching a cache must not perturb figure text");
        assert_eq!(plain, warm, "cache-served figures must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("bench-cache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |cache: bool| {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7);
            if cache {
                ctx = ctx.with_result_cache(&dir).expect("cache opens");
            }
            let text = run_experiment("fig9", &mut ctx);
            (text, ctx.cache_totals())
        };
        let (plain, _) = run(false);
        assert_eq!(run(true).1, (0, 39, 39, 0), "the cold run stores all 39 cells");
        // Flip the last byte of one entry: its checksum no longer matches.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "res"))
            .expect("a stored entry");
        let mut raw = std::fs::read(&entry).unwrap();
        *raw.last_mut().unwrap() ^= 0xff;
        std::fs::write(&entry, raw).unwrap();
        let (text, totals) = run(true);
        assert_eq!(text, plain, "a corrupt entry must be recomputed, never served");
        assert_eq!(totals, (38, 0, 1, 1), "(hits, misses, stores, corrupt)");
        assert_eq!(std::fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitized_runs_bypass_the_result_cache() {
        let dir = std::env::temp_dir().join(format!("bench-cache-san-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = Ctx::new(SizeClass::Test, 5_000, 7)
            .with_sanitize(true)
            .with_result_cache(&dir)
            .expect("cache opens");
        let cell = Cell::new(Benchmark::NasIs, None, ctx.tcfg(Technique::Baseline));
        let r = ctx.run_batch(&[cell]).remove(0);
        assert!(r.sanitizer.is_some(), "sanitizer output must survive");
        assert_eq!(ctx.cache_totals(), (0, 0, 0, 0), "sanitized cells must not touch the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mix_experiment_anchors_at_one_core_and_charts_validate() {
        let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7);
        let e = run_experiment_full("mix", &mut ctx);
        // The 1-core mix is byte-identical to the solo run, so its row is
        // the exact identity: STP 1.000, fairness 1.000.
        let one = e.text.lines().find(|l| l.trim_start().starts_with("1 ")).expect("1-core row");
        assert!(one.contains("1.000"), "identity anchor missing: {one}");
        assert!(e.text.contains("bc+bfs+cc+pr"), "{}", e.text);
        assert_eq!(e.charts.len(), 1);
        e.charts[0].validate().expect("chart consistent");
        assert!(e.charts[0].to_svg().starts_with("<svg"));
    }

    #[test]
    fn mix_experiment_text_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7).with_threads(threads);
            run_experiment("mix", &mut ctx)
        };
        assert_eq!(run(1), run(4), "mix figure must not depend on --threads");
    }

    #[test]
    fn sampled_context_still_runs_mixes_exactly() {
        // Mixes have no sampled mode; the experiment suspends sampling so
        // solos stay comparable, then restores it for later figures.
        let plain = {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7);
            run_experiment("mix", &mut ctx)
        };
        let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7).with_sample(SampleConfig::default());
        let sampled = run_experiment("mix", &mut ctx);
        assert_eq!(plain, sampled, "sampling must not perturb the mix figure");
        assert!(ctx.sample.is_some(), "sampling knob must be restored");
    }

    #[test]
    fn sanitized_mix_experiment_is_clean_and_text_identical() {
        let plain = {
            let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7);
            run_experiment("mix", &mut ctx)
        };
        let mut ctx = Ctx::new(SizeClass::Test, 10_000, 7).with_sanitize(true);
        let sane = run_experiment("mix", &mut ctx);
        let (checks, violations) = ctx.sanitize_totals();
        assert!(checks > 0, "sanitizer must have run (shared ledger included)");
        assert_eq!(violations, 0, "shared-LLC provenance invariants must hold");
        assert_eq!(plain, sane, "sanitizer must not perturb the mix figure");
    }

    #[test]
    fn unknown_experiment_reports() {
        let mut ctx = Ctx::new(SizeClass::Test, 1000, 7);
        assert!(run_experiment("nope", &mut ctx).contains("unknown"));
    }
}
