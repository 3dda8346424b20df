//! Multi-programmed multi-core simulation.
//!
//! Builds on three substrates: the deterministic discrete-event scheduler
//! ([`sim_multi::Scheduler`]), the core step API
//! ([`sim_ooo::OooCore::step_cycle`]), and the shared-L3/DRAM state
//! ([`sim_mem::SharedLlc`]). Each core of a [`MixSpec`] runs its own
//! workload with private L1/L2 in front of one shared L3 and one shared
//! DRAM bandwidth calendar, so co-running programs contend for capacity
//! and bandwidth exactly as the paper's Table 1 system would.
//!
//! Determinism: every component reschedules itself at a fixed integer
//! tick, the scheduler breaks ties by component id, and nothing here reads
//! the wall clock — a mix report serializes byte-identically across
//! re-runs and host thread counts ([`MixReport::to_json`] pins per-core
//! `host_seconds` to zero for exactly this reason).
//!
//! ## Example
//!
//! ```
//! use dvr_sim::{simulate_mix, MixSpec, SimConfig, Technique};
//! use workloads::SizeClass;
//!
//! let spec = MixSpec::parse("bfs/UR:dvr,NAS-IS:ooo", Technique::Baseline).unwrap();
//! let base = SimConfig::new(Technique::Baseline).with_max_instructions(10_000);
//! let mix = simulate_mix(&spec, SizeClass::Test, 42, &base);
//! assert_eq!(mix.cores.len(), 2);
//! assert!(mix.aggregate_ipc > 0.0);
//! ```

use std::cell::Cell;
use std::rc::Rc;

use sim_isa::{Program, SparseMemory};
use sim_mem::{MemoryHierarchy, SharedCoreCounters, SharedLlc, SharedLlcHandle};
use sim_multi::{Component, Scheduler, Tick};
use sim_ooo::{OooCore, SanitizeReport, SimError, Step, StepSession};
use sim_sweep::escape_json;
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

use crate::config::{SimConfig, Technique};
use crate::report::{RunOutcome, SimReport};
use crate::runner::{core_report, AnyEngine};

/// How often (in core cycles) the shared-LLC component sweeps the
/// provenance invariant under `--sanitize`. Matches the deep-sweep cadence
/// of the core sanitizer (every 4096 cycles) so mixes stay fast.
const LLC_SWEEP_PERIOD: u64 = 4096;

/// One core of a mix driven as a scheduler [`Component`]: owns the step
/// session and calls [`OooCore::step_cycle`] once per event, waking again
/// at the next cycle in which the core can act.
///
/// Also used by the single-core [`crate::simulate`] path (n = 1), which is
/// how the refactor keeps one code path for both.
pub(crate) struct CoreComponent<'a> {
    core: &'a mut OooCore,
    prog: &'a Program,
    mem: &'a mut SparseMemory,
    hier: &'a mut MemoryHierarchy,
    engine: &'a mut AnyEngine,
    session: Option<StepSession>,
    error: Option<SimError>,
    /// Count of still-running cores, shared with the LLC component so it
    /// knows when to stop sweeping. `None` on the single-core path.
    live: Option<Rc<Cell<usize>>>,
}

impl<'a> CoreComponent<'a> {
    /// Opens the core's run session. A core that cannot start (e.g. a
    /// reused core) records the error and reports [`Tick::Done`] on its
    /// first tick, mirroring [`OooCore::run`]'s early return.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        core: &'a mut OooCore,
        prog: &'a Program,
        mem: &'a mut SparseMemory,
        hier: &'a mut MemoryHierarchy,
        engine: &'a mut AnyEngine,
        max_instrs: u64,
        live: Option<Rc<Cell<usize>>>,
    ) -> Self {
        let (session, error) = match core.begin_run(max_instrs) {
            Ok(s) => (Some(s), None),
            Err(e) => (None, Some(e)),
        };
        if session.is_none() {
            if let Some(live) = &live {
                live.set(live.get() - 1);
            }
        }
        CoreComponent { core, prog, mem, hier, engine, session, error, live }
    }

    /// End-of-session bookkeeping: final accounting on the core and one
    /// fewer live core for the LLC sweeper.
    fn retire(&mut self) {
        self.session = None;
        self.core.finish_run(self.hier);
        if let Some(live) = &self.live {
            live.set(live.get() - 1);
        }
    }

    /// The run outcome, in [`crate::simulate`]'s terms. Call after the
    /// scheduler drains.
    pub(crate) fn take_outcome(&mut self) -> RunOutcome {
        match self.error.take() {
            Some(e) => RunOutcome::Failed(e),
            None => RunOutcome::Complete,
        }
    }
}

impl Component for CoreComponent<'_> {
    fn tick(&mut self, now: u64) -> Tick {
        let Some(session) = self.session.as_mut() else {
            return Tick::Done;
        };
        debug_assert_eq!(self.core.cycle(), now, "a core steps cycle tick + 1");
        match self.core.step_cycle(self.prog, self.mem, self.hier, &mut *self.engine, session) {
            // The core steps cycle `tick + 1` at each tick, and a step leaves
            // it on the cycle before the next one it can act in.
            Ok(Step::Running) => Tick::Reschedule(self.core.cycle()),
            Ok(Step::Done) => {
                self.retire();
                Tick::Done
            }
            Err(e) => {
                self.error = Some(e);
                self.retire();
                Tick::Done
            }
        }
    }
}

/// The shared L3 + DRAM as a scheduler component: periodically sweeps the
/// prefetch-provenance invariant (under `--sanitize`) and retires once
/// every core has.
struct LlcComponent {
    shared: SharedLlcHandle,
    live: Rc<Cell<usize>>,
    sanitize: bool,
    san: SanitizeReport,
}

impl Component for LlcComponent {
    fn tick(&mut self, now: u64) -> Tick {
        if self.sanitize {
            let msgs = self.shared.borrow().check_invariants();
            self.san.check(msgs.is_empty(), || format!("shared L3: {}", msgs.join("; ")));
        }
        if self.live.get() == 0 {
            // The last core retired before this tick, so this sweep covered
            // the final shared state.
            Tick::Done
        } else {
            Tick::Reschedule(now + LLC_SWEEP_PERIOD)
        }
    }
}

/// A malformed mix configuration string.
///
/// Typed (not a panic) so the CLI can print the offending entry with a
/// hint instead of a backtrace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// The spec had no entries (empty string or only separators).
    EmptySpec,
    /// One entry could not be parsed; `reason` says why.
    BadEntry {
        /// The entry as written.
        entry: String,
        /// Human-readable reason with the accepted spellings.
        reason: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptySpec => {
                write!(f, "empty mix spec (expected comma-separated bench[/input][:technique])")
            }
            ConfigError::BadEntry { entry, reason } => {
                write!(f, "bad mix entry {entry:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One core's program in a multi-programmed mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MixCore {
    /// The benchmark this core runs.
    pub bench: Benchmark,
    /// Graph input for GAP benchmarks (`None` = the benchmark's default).
    pub input: Option<GraphInput>,
    /// The technique this core runs under.
    pub technique: Technique,
}

impl MixCore {
    /// `bench[/input]:TECH`, e.g. `bfs/UR:DVR`.
    pub fn label(&self) -> String {
        let input = self.input.map(|g| format!("/{}", g.name())).unwrap_or_default();
        format!("{}{input}:{}", self.bench.name(), self.technique.name())
    }
}

/// A multi-programmed workload mix: one [`MixCore`] per simulated core.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MixSpec {
    /// Per-core programs, in core-id order.
    pub cores: Vec<MixCore>,
}

impl MixSpec {
    /// Parses a comma-separated mix spec. Each entry is
    /// `bench[/input][:technique]`: `bench` is a [`Benchmark::name`]
    /// spelling, `input` a [`GraphInput::name`] spelling (GAP benchmarks
    /// only), and `technique` a [`Technique::parse`] spelling (defaulting
    /// to `default_technique`). All matching is case-insensitive.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first offending entry.
    pub fn parse(spec: &str, default_technique: Technique) -> Result<MixSpec, ConfigError> {
        let mut cores = Vec::new();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (wl, technique) = match entry.split_once(':') {
                None => (entry, default_technique),
                Some((wl, t)) => {
                    let technique = Technique::parse(t).ok_or_else(|| ConfigError::BadEntry {
                        entry: entry.to_string(),
                        reason: format!(
                            "unknown technique {t:?} (expected ooo, pre, imp, vr, dvr, \
                             dvr-offload, dvr-discovery, or oracle)"
                        ),
                    })?;
                    (wl, technique)
                }
            };
            let (bench_name, input) = match wl.split_once('/') {
                None => (wl, None),
                Some((b, g)) => {
                    let input = GraphInput::parse(g).ok_or_else(|| ConfigError::BadEntry {
                        entry: entry.to_string(),
                        reason: format!(
                            "unknown graph input {g:?} (expected KR, LJN, ORK, TW, or UR)"
                        ),
                    })?;
                    (b, Some(input))
                }
            };
            let bench = Benchmark::parse(bench_name).ok_or_else(|| ConfigError::BadEntry {
                entry: entry.to_string(),
                reason: format!(
                    "unknown benchmark {bench_name:?} (expected one of {})",
                    Benchmark::ALL.map(Benchmark::name).join(", ")
                ),
            })?;
            if input.is_some() && !bench.is_gap() {
                return Err(ConfigError::BadEntry {
                    entry: entry.to_string(),
                    reason: format!("benchmark {:?} takes no graph input", bench.name()),
                });
            }
            cores.push(MixCore { bench, input, technique });
        }
        if cores.is_empty() {
            return Err(ConfigError::EmptySpec);
        }
        Ok(MixSpec { cores })
    }

    /// A default `n`-core mix rotating through the 13 benchmarks in paper
    /// order, every core under `technique`.
    pub fn round_robin(n: usize, technique: Technique) -> MixSpec {
        let cores = (0..n)
            .map(|i| MixCore {
                bench: Benchmark::ALL[i % Benchmark::ALL.len()],
                input: None,
                technique,
            })
            .collect();
        MixSpec { cores }
    }

    /// Per-core labels joined with `+`, e.g. `bfs:DVR+NAS-IS:OoO`.
    pub fn label(&self) -> String {
        self.cores.iter().map(MixCore::label).collect::<Vec<_>>().join("+")
    }
}

/// The result of one multi-programmed mix run.
#[derive(Clone, Debug)]
pub struct MixReport {
    /// The mix's [`MixSpec::label`].
    pub label: String,
    /// Per-core reports, in core-id order. `host_seconds` is pinned to
    /// zero (the scheduler interleaves cores, so per-core wall time is
    /// meaningless — and the pin keeps mix JSON byte-identical across
    /// re-runs).
    pub cores: Vec<SimReport>,
    /// Per-core shared-L3/DRAM contention counters, in core-id order.
    pub shared: Vec<SharedCoreCounters>,
    /// Shared-LLC provenance-invariant ledger (`Some` only when the base
    /// config enables the sanitizer). Per-core ledgers live in
    /// [`SimReport::sanitizer`]. Deliberately **not** part of
    /// [`MixReport::to_json`], matching the single-core convention.
    pub shared_sanitizer: Option<SanitizeReport>,
    /// Mix makespan: the slowest core's cycle count.
    pub cycles: u64,
    /// Sum of per-core IPCs (raw aggregate throughput).
    pub aggregate_ipc: f64,
}

impl MixReport {
    /// Serializes the mix report as one JSON object (for scripting around
    /// `dvrsim mix --json`). Deterministic: contains no wall-clock fields.
    pub fn to_json(&self) -> String {
        let per_core: Vec<String> = self.cores.iter().map(SimReport::to_json).collect();
        let shared: Vec<String> = self
            .shared
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        "{{\"l3_hits\":{},\"l3_fills\":{},\"dram_reads\":{},",
                        "\"dram_writebacks\":{},\"prov_installed\":{},\"prov_evicted\":{},",
                        "\"cross_core_hits\":{}}}"
                    ),
                    c.l3_hits,
                    c.l3_fills,
                    c.dram_reads,
                    c.dram_writebacks,
                    c.prov_installed,
                    c.prov_evicted,
                    c.cross_core_hits,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"mix\":\"{}\",\"cores\":{},\"cycles\":{},\"aggregate_ipc\":{:.6},",
                "\"per_core\":[{}],\"shared\":[{}]}}"
            ),
            escape_json(&self.label),
            self.cores.len(),
            self.cycles,
            self.aggregate_ipc,
            per_core.join(","),
            shared.join(","),
        )
    }
}

/// Throughput and fairness of a mix relative to solo runs (the standard
/// multi-programmed metrics).
#[derive(Clone, PartialEq, Debug)]
pub struct MixEvaluation {
    /// System throughput (STP): sum of per-core normalized progress,
    /// `Σ mix_ipc_i / solo_ipc_i`. Equals the core count when sharing
    /// costs nothing.
    pub throughput: f64,
    /// Harmonic mean of per-core slowdowns (`solo_ipc / mix_ipc`); `1.0`
    /// is perfectly fair and contention-free, larger is worse.
    pub fairness: f64,
    /// Per-core slowdowns, in core-id order.
    pub slowdowns: Vec<f64>,
}

/// Evaluates a mix against per-core solo runs (same workload, technique,
/// and instruction budget on a private hierarchy).
///
/// A core with no measurable IPC (a failed cell) contributes zero
/// progress and an infinite slowdown.
///
/// # Panics
///
/// Panics if `solo` does not have one report per mix core.
pub fn evaluate_mix(mix: &MixReport, solo: &[SimReport]) -> MixEvaluation {
    assert_eq!(mix.cores.len(), solo.len(), "one solo baseline per mix core");
    let mut throughput = 0.0;
    let slowdowns: Vec<f64> = mix
        .cores
        .iter()
        .zip(solo)
        .map(|(m, s)| {
            if s.ipc > 0.0 {
                throughput += m.ipc / s.ipc;
            }
            if m.ipc > 0.0 {
                s.ipc / m.ipc
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let inv_sum: f64 = slowdowns.iter().map(|s| 1.0 / s).sum();
    let fairness = if inv_sum > 0.0 { slowdowns.len() as f64 / inv_sum } else { f64::INFINITY };
    MixEvaluation { throughput, fairness, slowdowns }
}

/// Runs a multi-programmed mix: one [`OooCore`] per [`MixCore`], private
/// L1/L2 each, one shared L3 + DRAM, all driven in lockstep-equivalent
/// order by the event scheduler (cores tick in core-id order within a
/// cycle; the shared-LLC sweeper ticks last).
///
/// `base` supplies everything but the per-core technique: hierarchy
/// geometry, instruction budget, sanitizer knob. Per-core configs
/// are `base` with the entry's technique applied
/// ([`SimConfig::with_technique`]).
///
/// The run is deterministic and single-threaded; the report carries no
/// wall-clock state, so its JSON is byte-identical across re-runs.
pub fn simulate_mix(spec: &MixSpec, size: SizeClass, seed: u64, base: &SimConfig) -> MixReport {
    assert!(!spec.cores.is_empty(), "mix must have at least one core");
    let n = spec.cores.len();
    let cfgs: Vec<SimConfig> =
        spec.cores.iter().map(|c| base.with_technique(c.technique)).collect();
    let mut workloads: Vec<Workload> =
        spec.cores.iter().map(|c| c.bench.build(c.input, size, seed)).collect();
    // Each core runs on a clone that shares the built image's pages and
    // copies only the pages it writes; the image itself stays as built for
    // the sanitizer's digest replay.
    for w in &mut workloads {
        w.mem.share();
    }

    let shared = SharedLlc::new_handle(base.hierarchy.l3, base.hierarchy.dram);
    let mut mems: Vec<SparseMemory> = workloads.iter().map(|w| w.mem.clone()).collect();
    let mut hiers: Vec<MemoryHierarchy> =
        cfgs.iter().map(|cfg| MemoryHierarchy::attach_shared(cfg.hierarchy, &shared)).collect();
    let mut cores: Vec<OooCore> = cfgs.iter().map(|cfg| OooCore::new(cfg.core)).collect();
    let mut engines: Vec<AnyEngine> = cfgs.iter().map(AnyEngine::for_config).collect();

    let sanitize = cfgs.iter().any(|c| c.core.sanitize);
    let live = Rc::new(Cell::new(n));
    let mut llc = LlcComponent {
        shared: Rc::clone(&shared),
        live: Rc::clone(&live),
        sanitize,
        san: SanitizeReport::default(),
    };

    let mut comps: Vec<CoreComponent<'_>> = cores
        .iter_mut()
        .zip(mems.iter_mut())
        .zip(hiers.iter_mut())
        .zip(engines.iter_mut())
        .zip(cfgs.iter().zip(workloads.iter()))
        .map(|((((core, mem), hier), engine), (cfg, wl))| {
            CoreComponent::new(
                core,
                &wl.prog,
                mem,
                hier,
                engine,
                cfg.max_instructions,
                Some(Rc::clone(&live)),
            )
        })
        .collect();

    let mut sched = Scheduler::new();
    {
        let mut slots: Vec<&mut dyn Component> =
            comps.iter_mut().map(|c| c as &mut dyn Component).collect();
        slots.push(&mut llc);
        for id in 0..slots.len() as u32 {
            sched.schedule(0, id);
        }
        sched.run(&mut slots);
    }
    let outcomes: Vec<RunOutcome> = comps.iter_mut().map(CoreComponent::take_outcome).collect();
    drop(comps);

    let reports: Vec<SimReport> = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            let (wl, cfg) = (&workloads[i], &cfgs[i]);
            core_report(wl, cfg, &mut cores[i], &mems[i], &hiers[i], &engines[i], outcome)
        })
        .collect();

    let shared_counters: Vec<SharedCoreCounters> = {
        let sh = shared.borrow();
        (0..n as u32).map(|i| sh.counters(i)).collect()
    };
    let cycles = reports.iter().map(|r| r.core.cycles).max().unwrap_or(0);
    let aggregate_ipc = reports.iter().map(|r| r.ipc).sum();
    MixReport {
        label: spec.label(),
        cores: reports,
        shared: shared_counters,
        shared_sanitizer: sanitize.then_some(llc.san),
        cycles,
        aggregate_ipc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_entries() {
        let spec = MixSpec::parse("bfs/UR:dvr, NAS-IS:ooo ,Camel", Technique::Vr).unwrap();
        assert_eq!(spec.cores.len(), 3);
        assert_eq!(spec.cores[0].bench, Benchmark::Bfs);
        assert_eq!(spec.cores[0].input, Some(GraphInput::Ur));
        assert_eq!(spec.cores[0].technique, Technique::Dvr);
        assert_eq!(spec.cores[1].bench, Benchmark::NasIs);
        assert_eq!(spec.cores[1].technique, Technique::Baseline);
        assert_eq!(spec.cores[2].technique, Technique::Vr, "default technique applies");
        assert_eq!(spec.label(), "bfs/UR:DVR+NAS-IS:OoO+Camel:VR");
    }

    #[test]
    fn parse_is_case_insensitive() {
        let spec = MixSpec::parse("BFS/kr:DVR", Technique::Baseline).unwrap();
        assert_eq!(spec.cores[0].bench, Benchmark::Bfs);
        assert_eq!(spec.cores[0].input, Some(GraphInput::Kr));
    }

    #[test]
    fn parse_rejects_unknowns_with_typed_errors() {
        let bad_bench = MixSpec::parse("nope:dvr", Technique::Dvr).unwrap_err();
        assert!(
            matches!(&bad_bench, ConfigError::BadEntry { reason, .. }
            if reason.contains("unknown benchmark")),
            "{bad_bench}"
        );
        let bad_tech = MixSpec::parse("bfs:warp", Technique::Dvr).unwrap_err();
        assert!(
            matches!(&bad_tech, ConfigError::BadEntry { reason, .. }
            if reason.contains("unknown technique")),
            "{bad_tech}"
        );
        let bad_input = MixSpec::parse("bfs/XX", Technique::Dvr).unwrap_err();
        assert!(
            matches!(&bad_input, ConfigError::BadEntry { reason, .. }
            if reason.contains("unknown graph input")),
            "{bad_input}"
        );
        let input_on_hpcdb = MixSpec::parse("Camel/KR", Technique::Dvr).unwrap_err();
        assert!(
            matches!(&input_on_hpcdb, ConfigError::BadEntry { reason, .. }
            if reason.contains("takes no graph input")),
            "{input_on_hpcdb}"
        );
        assert_eq!(MixSpec::parse(" , ,", Technique::Dvr).unwrap_err(), ConfigError::EmptySpec);
        assert!(!format!("{}", ConfigError::EmptySpec).is_empty());
    }

    #[test]
    fn round_robin_rotates_the_registry() {
        let spec = MixSpec::round_robin(15, Technique::Dvr);
        assert_eq!(spec.cores.len(), 15);
        assert_eq!(spec.cores[0].bench, Benchmark::Bc);
        assert_eq!(spec.cores[13].bench, Benchmark::Bc, "wraps after 13");
        assert!(spec.cores.iter().all(|c| c.technique == Technique::Dvr));
    }

    #[test]
    fn evaluation_math() {
        let spec = MixSpec::parse("bfs,pr", Technique::Baseline).unwrap();
        let base = SimConfig::new(Technique::Baseline).with_max_instructions(5_000);
        let mix = simulate_mix(&spec, SizeClass::Test, 7, &base);
        // Synthetic solo baselines: core 0 ran at 2x the mix speed, core 1
        // at the same speed.
        let mut solo = mix.cores.clone();
        solo[0].ipc = 2.0 * mix.cores[0].ipc;
        let eval = evaluate_mix(&mix, &solo);
        assert!((eval.slowdowns[0] - 2.0).abs() < 1e-12);
        assert!((eval.slowdowns[1] - 1.0).abs() < 1e-12);
        assert!((eval.throughput - 1.5).abs() < 1e-12);
        // hmean(2, 1) = 4/3.
        assert!((eval.fairness - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mix_report_json_shape() {
        let spec = MixSpec::parse("NAS-IS:ooo,NAS-IS:ooo", Technique::Baseline).unwrap();
        let base = SimConfig::new(Technique::Baseline).with_max_instructions(5_000);
        let mix = simulate_mix(&spec, SizeClass::Test, 7, &base);
        let j = mix.to_json();
        assert!(j.contains("\"mix\":\"NAS-IS:OoO+NAS-IS:OoO\""), "{j}");
        assert!(j.contains("\"cores\":2"), "{j}");
        assert!(j.contains("\"per_core\":[{"), "{j}");
        assert!(j.contains("\"cross_core_hits\":"), "{j}");
        assert!(j.contains("\"host_seconds\":0.000000"), "deterministic JSON: {j}");
    }
}
