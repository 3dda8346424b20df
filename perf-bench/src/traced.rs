//! The traced run: times each layer from outside, through its public
//! calls, and records one span tree per cell.

use std::path::Path;
use std::time::Instant;

use dvr_sim::{
    engine_factory, measure_emitted, merge_periods, sample_emit, simulate, simulate_mix, CoreStats,
    MemStats, MemoryHierarchy, OooCore, SampleConfig, SimConfig, SimError, SimReport,
};
use sim_isa::{Cpu, StepEvent};
use sim_mem::{AccessClass, HierarchyConfig};
use sim_ooo::{DynInst, EngineCtx, RunaheadEngine};
use workloads::Workload;

use crate::plan::{mix_base, mix_spec, Cell, Kind, Mode, Scale};
use crate::report::{chrome_trace, digest, mean, ratio, Metric, Outcome, Span};
use crate::run::{check, guarded, model_json, setup};

/// Calls into one engine hook and the host time they took.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct HookStat {
    /// Calls made.
    pub calls: u64,
    /// Total ns, timer cost included.
    pub ns: u64,
}

impl HookStat {
    fn record(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// A [`RunaheadEngine`] that forwards every hook to `inner` and times it.
/// Calls are aggregated per hook, not recorded one span each.
pub struct Timed<E: ?Sized> {
    /// `on_dispatch` calls.
    pub dispatch: HookStat,
    /// `on_full_rob_stall` calls.
    pub stall: HookStat,
    /// `override_load` calls.
    pub load: HookStat,
    inner: Box<E>,
}

impl<E: RunaheadEngine + ?Sized> Timed<E> {
    /// Wraps an engine.
    pub fn new(inner: Box<E>) -> Self {
        Timed {
            dispatch: HookStat::default(),
            stall: HookStat::default(),
            load: HookStat::default(),
            inner,
        }
    }

    /// Calls and ns summed over the three hooks.
    pub fn total(&self) -> HookStat {
        let hooks = [self.dispatch, self.stall, self.load];
        HookStat {
            calls: hooks.iter().map(|h| h.calls).sum(),
            ns: hooks.iter().map(|h| h.ns).sum(),
        }
    }
}

impl<E: RunaheadEngine + ?Sized> RunaheadEngine for Timed<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_dispatch(&mut self, ctx: &mut EngineCtx<'_>, di: &DynInst) {
        let t = Instant::now();
        self.inner.on_dispatch(ctx, di);
        self.dispatch.record(t);
    }

    fn on_full_rob_stall(&mut self, ctx: &mut EngineCtx<'_>, head_complete_at: u64) -> u64 {
        let t = Instant::now();
        let until = self.inner.on_full_rob_stall(ctx, head_complete_at);
        self.stall.record(t);
        until
    }

    fn override_load(&mut self, ctx: &mut EngineCtx<'_>, addr: u64) -> Option<u64> {
        let t = Instant::now();
        let latency = self.inner.override_load(ctx, addr);
        self.load.record(t);
        latency
    }
}

/// One direct `OooCore::run` of a workload on a fresh core, memory image
/// and hierarchy — what `simulate()` does without its scheduler and report.
///
/// # Errors
///
/// The run's [`SimError`].
pub fn direct_run<E: RunaheadEngine + ?Sized>(
    wl: &Workload,
    cfg: &SimConfig,
    engine: &mut E,
) -> Result<(CoreStats, MemStats), SimError> {
    let mut core = OooCore::new(cfg.core);
    let mut mem = wl.mem.clone();
    let mut hier = MemoryHierarchy::new(cfg.hierarchy);
    let stats = *core.run(&wl.prog, &mut mem, &mut hier, engine, cfg.max_instructions)?;
    Ok((stats, hier.stats().clone()))
}

/// Host ns of one `Instant::now()` + `elapsed()` pair, the cost each timed
/// hook call adds; the minimum over five batches.
fn timer_ns() -> f64 {
    const N: u32 = 100_000;
    (0..5)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..N {
                let t = Instant::now();
                total += std::hint::black_box(t).elapsed().as_nanos();
            }
            total as f64 / f64::from(N)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Spans kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, parent: Option<usize>, name: String, layer: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { parent, name, layer, start_ns, dur_ns: 0, args: Vec::new() });
        self.spans.len() - 1
    }

    /// Ends a span and returns its length in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
        span.dur_ns as f64 / 1e9
    }

    /// Times `f` as a child span of `parent`.
    fn timed<T>(
        &mut self,
        parent: usize,
        name: &str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(Some(parent), name.to_string(), layer);
        let v = f();
        (v, self.close(id))
    }

    /// Attaches counters to the most recently opened span.
    fn args(&mut self, args: Vec<(&'static str, f64)>) {
        if let Some(last) = self.spans.last_mut() {
            last.args = args;
        }
    }
}

/// Sums over every cell of the traced run.
#[derive(Default)]
struct Layers {
    build_s: f64,
    footprint_bytes: f64,
    func_s: f64,
    func_instrs: f64,
    replay_s: f64,
    replay_accesses: f64,
    mem: MemStats,
    simulate_s: f64,
    direct_s: f64,
    timed_s: f64,
    cycles: f64,
    committed: f64,
    rob_full_cycles: f64,
    hooks: HookStat,
    episodes: f64,
    runahead_loads: f64,
    mix_s: f64,
    emit_s: f64,
    emit_instrs: f64,
    measure_s: f64,
    checkpoints: f64,
    checkpoint_bytes: f64,
    ci_misses: f64,
    err_pct: Vec<f64>,
}

impl Layers {
    fn metrics(&self, mode: Mode, timer_ns: f64) -> Vec<Metric> {
        const MIB: f64 = 1024.0 * 1024.0;
        let m = &self.mem;
        let demand: u64 = m.demand_hits.iter().sum::<u64>() + m.demand_inflight;
        let used: u64 = m.prefetch_found.iter().flatten().sum();
        let issued: u64 = m.prefetch_issued.iter().sum();
        let engine_s = (self.hooks.ns as f64 - self.hooks.calls as f64 * timer_ns).max(0.0) / 1e9;
        let overhead_s = self.simulate_s - self.direct_s;
        let sampled = mode == Mode::Sampled;
        vec![
            Metric::new("workloads.build_s", "s", self.build_s),
            Metric::new("workloads.footprint_mb", "MiB", self.footprint_bytes / MIB),
            Metric::new("isa.func_s", "s", self.func_s),
            Metric::new(
                "isa.func_minstr_per_s",
                "Minstr/s",
                ratio(self.func_instrs / 1e6, self.func_s),
            ),
            Metric::new(
                "mem.replay_ns_per_access",
                "ns",
                ratio(self.replay_s * 1e9, self.replay_accesses),
            ),
            Metric::new("mem.l1_hit_frac", "ratio", ratio(m.demand_hits[0] as f64, demand as f64)),
            Metric::new("mem.dram_reads", "count", m.dram_reads() as f64),
            Metric::new("mem.avg_load_latency_cyc", "cycles", m.avg_demand_latency()),
            Metric::new("mem.prefetch_accuracy", "ratio", ratio(used as f64, issued as f64)),
            Metric::new("ooo.run_s", "s", self.direct_s),
            Metric::new("ooo.self_s", "s", self.direct_s - engine_s),
            Metric::new("ooo.cycles", "count", self.cycles),
            Metric::new("ooo.ipc", "ratio", ratio(self.committed, self.cycles)),
            Metric::new("ooo.rob_full_frac", "ratio", ratio(self.rob_full_cycles, self.cycles)),
            Metric::new("ooo.ns_per_cycle", "ns", ratio(self.direct_s * 1e9, self.cycles)),
            Metric::new("ooo.mcycles_per_s", "Mcycles/s", ratio(self.cycles / 1e6, self.direct_s)),
            Metric::new("engine.self_s", "s", engine_s),
            Metric::new("engine.calls", "count", self.hooks.calls as f64),
            Metric::new("engine.ns_per_call", "ns", ratio(engine_s * 1e9, self.hooks.calls as f64)),
            Metric::new("engine.self_frac", "ratio", ratio(engine_s, self.direct_s)),
            Metric::new("engine.episodes", "count", self.episodes),
            Metric::new("engine.runahead_loads", "count", self.runahead_loads),
            Metric::new("multi.overhead_s", "s", overhead_s),
            Metric::new("multi.overhead_frac", "ratio", ratio(overhead_s, self.direct_s)),
            Metric::new("multi.mix_over_solo", "ratio", ratio(self.mix_s, self.simulate_s)),
            Metric::new("sample.emit_s", "s", self.emit_s),
            Metric::new(
                "sample.emit_minstr_per_s",
                "Minstr/s",
                ratio(self.emit_instrs / 1e6, self.emit_s),
            ),
            Metric::new("sample.measure_s", "s", self.measure_s),
            Metric::new("sample.checkpoints", "count", self.checkpoints),
            Metric::new("sample.checkpoint_mb", "MiB", self.checkpoint_bytes / MIB),
            Metric::new("sample.ci_misses", "count", self.ci_misses),
            Metric::new("sample.reference_s", "s", if sampled { self.simulate_s } else { 0.0 }),
            Metric::new("sample.err_pct", "%", mean(&self.err_pct)),
            Metric::new("trace.overhead_frac", "ratio", ratio(self.timed_s, self.direct_s) - 1.0),
            Metric::new("trace.timer_ns", "ns", timer_ns),
        ]
    }
}

/// The demand address stream of the ROI, as `(cycle, addr, is_store)` with
/// one instruction per cycle.
fn record_stream(wl: &Workload, roi: u64) -> Vec<(u64, u64, bool)> {
    let mut cpu = Cpu::new();
    let mut mem = wl.mem.clone();
    let mut stream = Vec::new();
    for i in 0..roi {
        match cpu.step(&wl.prog, &mut mem) {
            Ok(StepEvent::Executed(s)) => {
                if let Some(m) = s.mem {
                    stream.push((i, m.addr, m.is_store));
                }
            }
            _ => break,
        }
    }
    stream
}

/// Replays a demand stream through a fresh hierarchy.
fn replay(stream: &[(u64, u64, bool)], cfg: HierarchyConfig) -> MemStats {
    let mut hier = MemoryHierarchy::new(cfg);
    for &(cycle, addr, is_store) in stream {
        if is_store {
            hier.store(cycle, addr, AccessClass::Demand);
        } else {
            hier.load(cycle, addr, AccessClass::Demand);
        }
    }
    hier.finalize();
    hier.stats().clone()
}

/// Steps 1–6 for one cell under its root span; returns the `simulate()`
/// report's model JSON and a summary line.
fn trace_cell(
    tr: &mut Tracer,
    root: usize,
    cell: &Cell,
    wl: &Workload,
    mode: Mode,
    acc: &mut Layers,
) -> Result<(String, String), String> {
    let cfg = cell.config();
    let (report, sim_s): (SimReport, f64) =
        tr.timed(root, "simulate", "dvr-sim", || simulate(wl, &cfg));
    check(&report, wl, cell.roi)?;

    let (plain, direct_s) = tr.timed(root, "OooCore::run", "sim-ooo", || {
        direct_run(wl, &cfg, &mut *engine_factory(&cfg))
    });
    let mut engine = Timed::new(engine_factory(&cfg));
    let (timed, timed_s) =
        tr.timed(root, "OooCore::run + Timed<E>", "dvr-core", || direct_run(wl, &cfg, &mut engine));
    tr.args(vec![
        ("on_dispatch_calls", engine.dispatch.calls as f64),
        ("on_dispatch_ns", engine.dispatch.ns as f64),
        ("on_full_rob_stall_calls", engine.stall.calls as f64),
        ("on_full_rob_stall_ns", engine.stall.ns as f64),
        ("override_load_calls", engine.load.calls as f64),
        ("override_load_ns", engine.load.ns as f64),
    ]);
    let expect = (report.core, report.mem.clone());
    for (name, got) in [("plain", plain), ("Timed<E>", timed)] {
        match got {
            Ok(stats) if stats == expect => {}
            Ok(_) => {
                return Err(format!("direct {name} OooCore::run stats differ from simulate()"))
            }
            Err(e) => return Err(format!("direct {name} OooCore::run failed: {e}")),
        }
    }

    let mut func_mem = wl.mem.clone();
    let (func, func_s) =
        tr.timed(root, "Cpu::run", "sim-isa", || Cpu::new().run(&wl.prog, &mut func_mem, cell.roi));
    let func = func.map_err(|e| format!("Cpu::run: {e}"))?;
    drop(func_mem);
    let (stream, _) = tr.timed(root, "Cpu::step record", "sim-isa", || record_stream(wl, cell.roi));
    let (replayed, replay_s) =
        tr.timed(root, "MemoryHierarchy::load/store", "sim-mem", || replay(&stream, cfg.hierarchy));
    tr.args(vec![("accesses", stream.len() as f64), ("dram_reads", replayed.dram_reads() as f64)]);

    if mode == Mode::Sampled {
        let scfg = SampleConfig::default();
        let (emit, emit_s) =
            tr.timed(root, "sample_emit", "sim-sample", || sample_emit(wl, &cfg, &scfg));
        let emit = emit.map_err(|e| format!("sample_emit: {e}"))?;
        let (periods, measure_s) = tr.timed(root, "measure_emitted", "sim-sample", || {
            measure_emitted(wl, &cfg, &scfg, &emit.checkpoints, 1)
        });
        let periods = periods.map_err(|e| format!("measure_emitted: {e}"))?;
        acc.emit_s += emit_s;
        acc.emit_instrs += emit.total_retired as f64;
        acc.measure_s += measure_s;
        acc.checkpoints += emit.checkpoints.len() as f64;
        acc.checkpoint_bytes +=
            emit.checkpoints.iter().map(|c| c.to_bytes().len() as f64).sum::<f64>();
        let run = merge_periods(periods, emit.total_retired, emit.halted);
        acc.ci_misses += f64::from(u8::from(!run.report.ci_contains(report.ipc)));
        acc.err_pct.push(100.0 * run.report.relative_error(report.ipc).abs());
    }

    acc.simulate_s += sim_s;
    acc.direct_s += direct_s;
    acc.timed_s += timed_s;
    let hooks = engine.total();
    acc.hooks.calls += hooks.calls;
    acc.hooks.ns += hooks.ns;
    acc.func_s += func_s;
    acc.func_instrs += func as f64;
    acc.replay_s += replay_s;
    acc.replay_accesses += stream.len() as f64;
    acc.mem.accumulate(&report.mem);
    acc.cycles += report.core.cycles as f64;
    acc.committed += report.core.committed as f64;
    acc.rob_full_cycles += report.core.rob_full_stall_cycles as f64;
    acc.episodes += report.engine.episodes as f64;
    acc.runahead_loads += report.engine.runahead_loads as f64;
    let note = format!(
        "simulate={sim_s:.3}s OooCore::run={direct_s:.3}s timed={timed_s:.3}s hook_calls={} \
         Cpu::run={func_s:.4}s replay={replay_s:.4}s ipc={:.4}",
        hooks.calls, report.ipc
    );
    Ok((model_json(&report), note))
}

/// The traced run: one traced pass over the cells (for `mix4`, the four
/// cores solo and then the mix), writing
/// `<trace_dir>/trace-<workload>-<seed>.json`. Reports every per-layer
/// metric.
pub fn run_traced(kind: Kind, scale: Scale, seed: u64, trace_dir: &Path) -> Outcome {
    let cells = kind.cells(scale.roi);
    let mode = kind.mode();
    let (wls, build_s) = setup(&cells, scale, seed);
    let timer_ns = timer_ns();
    let mut acc = Layers {
        build_s,
        footprint_bytes: wls.iter().map(|w| w.mem.footprint_bytes() as f64).sum(),
        ..Layers::default()
    };
    let mut tr = Tracer { origin: Instant::now(), spans: Vec::new() };
    let mut notes = Vec::new();
    let mut jsons = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |label: String, res: Result<(String, String), String>| {
        attempted += 1;
        match res {
            Ok((json, note)) => {
                jsons.push(json);
                notes.push(format!("{label} {note}"));
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("FAILED {label}: {e}"));
            }
        }
    };

    for (cell, wl) in cells.iter().zip(&wls) {
        let label = cell.label();
        let root = tr.open(None, format!("cell {label}"), "perf-bench");
        let res = guarded(|| trace_cell(&mut tr, root, cell, wl, mode, &mut acc));
        tr.close(root);
        tally(label, res);
    }
    if mode == Mode::Mix {
        let spec = mix_spec(&cells);
        let root = tr.open(None, format!("mix {}", spec.label()), "perf-bench");
        let res = guarded(|| {
            let (m, mix_s) = tr.timed(root, "simulate_mix", "sim-multi", || {
                simulate_mix(&spec, scale.size, seed, &mix_base(&cells))
            });
            acc.mix_s = mix_s;
            for ((r, cell), wl) in m.cores.iter().zip(&cells).zip(&wls) {
                check(r, wl, cell.roi).map_err(|e| format!("core {}: {e}", cell.label()))?;
            }
            Ok((m.to_json(), format!("simulate_mix={mix_s:.3}s ipc={:.4}", m.aggregate_ipc)))
        });
        tr.close(root);
        tally(spec.label(), res);
    }

    let path = trace_dir.join(format!("trace-{}-{seed}.json", kind.name()));
    attempted += 1;
    match std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(&tr.spans)))
    {
        Ok(()) => notes.push(format!("trace {} ({} spans)", path.display(), tr.spans.len())),
        Err(e) => {
            failed += 1;
            notes.push(format!("FAILED trace file {}: {e}", path.display()));
        }
    }

    Outcome {
        workload: kind,
        seed,
        trace: true,
        passes: 1,
        attempted,
        failed,
        metrics: acc.metrics(mode, timer_ns),
        info: Vec::new(),
        model_digest: digest(jsons.iter().map(String::as_str)),
        notes,
    }
}
