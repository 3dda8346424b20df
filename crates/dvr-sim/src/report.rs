//! Simulation results.

use sim_mem::{MemStats, PrefetchSource};
use sim_ooo::{CoreStats, SanitizeReport, SimError, WorkCounters};
use sim_sweep::escape_json;

use crate::config::Technique;

/// How a simulation run ended.
///
/// A failed run still carries a full [`SimReport`]: the statistics up to
/// the failure point are coherent, and batch harnesses record the cell as
/// data instead of aborting the sweep.
#[derive(Clone, PartialEq, Debug)]
pub enum RunOutcome {
    /// The run finished (program halted or the instruction budget hit).
    Complete,
    /// The run failed with a typed error.
    Failed(SimError),
}

impl RunOutcome {
    /// Whether the run completed.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }

    /// The error, if the run failed.
    pub fn error(&self) -> Option<&SimError> {
        match self {
            RunOutcome::Complete => None,
            RunOutcome::Failed(e) => Some(e),
        }
    }

    /// Stable machine-readable label ("complete" or the error kind).
    pub fn kind(&self) -> &'static str {
        match self {
            RunOutcome::Complete => "complete",
            RunOutcome::Failed(e) => e.kind(),
        }
    }
}

/// Technique-specific activity counters, normalized across engines.
#[derive(Clone, Debug, Default)]
pub struct EngineSummary {
    /// Runahead episodes / subthread invocations (0 for Baseline/IMP).
    pub episodes: u64,
    /// Scalar-equivalent runahead loads issued.
    pub runahead_loads: u64,
    /// Nested (NDM) episodes (DVR only).
    pub nested_episodes: u64,
    /// Lanes lost to divergence (VR) / stack overflow (DVR).
    pub lanes_lost: u64,
    /// Free-form detail line for reports.
    pub detail: String,
}

/// Summary of a sampled run's statistics, attached to a [`SimReport`] by
/// [`crate::simulate_sampled`]. All fields are deterministic (no wall
/// clock), so sampled reports stay byte-identical across thread counts.
#[derive(Clone, PartialEq, Debug)]
pub struct SamplingSummary {
    /// Number of measured detailed intervals.
    pub intervals: usize,
    /// Configured measured-interval length (instructions).
    pub interval_len: u64,
    /// Configured detailed-warmup length (instructions).
    pub warmup_len: u64,
    /// Configured period length (instructions).
    pub period: u64,
    /// Placement policy name (`"systematic"` or `"random"`).
    pub placement: &'static str,
    /// Placement seed.
    pub seed: u64,
    /// Mean of per-interval IPCs (the report's headline `ipc`).
    pub ipc_mean: f64,
    /// Unbiased sample variance of per-interval IPCs.
    pub ipc_variance: f64,
    /// Half-width of the 95% confidence interval on the mean IPC.
    pub ipc_ci95: f64,
    /// Mean of per-interval MLPs.
    pub mlp_mean: f64,
    /// Instructions committed inside measured intervals.
    pub detailed_instructions: u64,
    /// Instructions committed inside discarded warmups.
    pub warmup_instructions: u64,
    /// Instructions covered by functional fast-forward.
    pub ffwd_instructions: u64,
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Technique simulated.
    pub technique: Technique,
    /// Workload name.
    pub workload: String,
    /// Core-side counters.
    pub core: CoreStats,
    /// Memory-side counters.
    pub mem: MemStats,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Average MSHRs occupied per cycle (the paper's MLP metric, Fig. 9).
    pub mlp: f64,
    /// Instructions the run covered architecturally: committed instructions
    /// for an exact run, total retired (fast-forward + detailed) for a
    /// sampled one. The numerator of [`SimReport::host_minstr_per_sec`].
    pub simulated_instructions: u64,
    /// Host wall-clock seconds spent inside [`crate::simulate`] for this
    /// run (simulation cost, not simulated time).
    pub host_seconds: f64,
    /// Sampling statistics (`Some` only for [`crate::simulate_sampled`]
    /// runs).
    pub sampling: Option<SamplingSummary>,
    /// Engine activity.
    pub engine: EngineSummary,
    /// How the run ended; statistics above are partial when it failed.
    pub outcome: RunOutcome,
    /// Invariant-sanitizer ledger (`Some` only when the run was configured
    /// with [`SimConfig::with_sanitize`](crate::SimConfig::with_sanitize)).
    /// Deliberately **not** part of [`SimReport::to_json`]: sanitized and
    /// unsanitized runs must serialize byte-identically.
    pub sanitizer: Option<SanitizeReport>,
    /// The work the core's cycle loop did ([`sim_ooo::OooCore::work`]);
    /// zero for sampled and decoded reports. Like `sanitizer`, not part of
    /// [`SimReport::to_json`] or the report codec: a sanitized run steps
    /// every cycle, so its counts differ from a plain run's.
    pub work: WorkCounters,
}

impl SimReport {
    /// Simulator throughput: simulated (committed) instructions per host
    /// second. `0.0` when the run was too short for the clock to resolve.
    pub fn sim_instrs_per_host_second(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.core.committed as f64 / self.host_seconds
        } else {
            0.0
        }
    }

    /// Simulator throughput in millions of *covered* instructions per host
    /// second ([`SimReport::simulated_instructions`] per second / 1e6).
    /// Unlike [`SimReport::sim_instrs_per_host_second`] this credits a
    /// sampled run for its fast-forwarded instructions, which is the point
    /// of sampling. `0.0` when the clock did not resolve.
    pub fn host_minstr_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.simulated_instructions as f64 / self.host_seconds / 1e6
        } else {
            0.0
        }
    }

    /// Speedup of this run relative to a baseline run of the same workload.
    ///
    /// Returns `0.0` when the baseline has no measurable IPC (e.g. a failed
    /// cell in a `--keep-going` sweep), keeping downstream figures finite.
    ///
    /// # Panics
    ///
    /// Panics if the workloads differ (comparing apples to oranges).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        assert_eq!(self.workload, baseline.workload, "speedup must compare the same workload");
        if baseline.ipc <= 0.0 {
            return 0.0;
        }
        self.ipc / baseline.ipc
    }

    /// Fraction of this run's DRAM reads issued by runahead engines.
    pub fn runahead_traffic_fraction(&self) -> f64 {
        let total = self.mem.dram_reads();
        if total == 0 {
            0.0
        } else {
            self.mem.dram_runahead() as f64 / total as f64
        }
    }

    /// The prefetch source of this run's technique; `None` for the
    /// baseline and the Oracle, which have no prefetching engine of their
    /// own.
    pub fn prefetch_source(&self) -> Option<PrefetchSource> {
        match self.technique {
            Technique::Pre => Some(PrefetchSource::Pre),
            Technique::Imp => Some(PrefetchSource::Imp),
            Technique::Vr => Some(PrefetchSource::Vr),
            Technique::Dvr | Technique::DvrOffload | Technique::DvrDiscovery => {
                Some(PrefetchSource::Dvr)
            }
            Technique::Baseline | Technique::Oracle => None,
        }
    }

    /// Timeliness buckets (L1/L2/L3/off-chip fractions) for this
    /// technique's own prefetch source, if it issued any (Figure 11).
    pub fn timeliness(&self) -> Option<[f64; 4]> {
        self.mem.timeliness(self.prefetch_source()?)
    }

    /// LLC misses per kilo-instruction (Table 2's MPKI column).
    pub fn llc_mpki(&self) -> f64 {
        if self.core.committed == 0 {
            0.0
        } else {
            1000.0 * self.mem.dram_demand as f64 / self.core.committed as f64
        }
    }

    /// Serializes the report as a flat JSON object (for scripting around
    /// `dvrsim --json`). Hand-rolled to keep the simulator dependency-free;
    /// all values are numbers or plain ASCII names.
    pub fn to_json(&self) -> String {
        let t = self.timeliness().unwrap_or([0.0; 4]);
        let sampling = match &self.sampling {
            None => String::new(),
            Some(s) => format!(
                concat!(
                    "\"sampling\":{{\"intervals\":{},\"interval_len\":{},\"warmup_len\":{},",
                    "\"period\":{},\"placement\":\"{}\",\"seed\":{},\"ipc_mean\":{:.6},",
                    "\"ipc_variance\":{:.6},\"ipc_ci95\":{},\"mlp_mean\":{:.4},",
                    "\"detailed_instructions\":{},\"warmup_instructions\":{},",
                    "\"ffwd_instructions\":{}}},"
                ),
                s.intervals,
                s.interval_len,
                s.warmup_len,
                s.period,
                s.placement,
                s.seed,
                s.ipc_mean,
                s.ipc_variance,
                // A single-interval run has an unbounded CI: JSON null.
                if s.ipc_ci95.is_finite() { format!("{:.6}", s.ipc_ci95) } else { "null".into() },
                s.mlp_mean,
                s.detailed_instructions,
                s.warmup_instructions,
                s.ffwd_instructions,
            ),
        };
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"technique\":\"{}\",\"ipc\":{:.6},\"mlp\":{:.4},",
                "\"cycles\":{},\"committed\":{},\"llc_mpki\":{:.3},",
                "\"branch_mpki\":{:.3},\"window_full_frac\":{:.4},",
                "\"commit_blocked_cycles\":{},\"demand_loads\":{},\"demand_stores\":{},",
                "\"avg_demand_latency\":{:.2},\"dram_reads\":{},\"dram_demand\":{},",
                "\"dram_runahead\":{},\"dram_writebacks\":{},",
                "\"runahead_episodes\":{},\"runahead_loads\":{},\"nested_episodes\":{},",
                "\"timeliness_l1\":{:.4},\"timeliness_l2\":{:.4},\"timeliness_l3\":{:.4},",
                "\"timeliness_offchip\":{:.4},\"simulated_instructions\":{},{}",
                "\"host_seconds\":{:.6},\"sim_instrs_per_host_second\":{:.0},",
                "\"host_minstr_per_sec\":{:.3},",
                "\"outcome\":\"{}\",\"error\":\"{}\"}}"
            ),
            escape_json(&self.workload),
            self.technique.name(),
            self.ipc,
            self.mlp,
            self.core.cycles,
            self.core.committed,
            self.llc_mpki(),
            self.core.mpki(),
            self.core.rob_full_stall_fraction(),
            self.core.commit_blocked_engine_cycles,
            self.mem.demand_loads,
            self.mem.demand_stores,
            self.mem.avg_demand_latency(),
            self.mem.dram_reads(),
            self.mem.dram_demand,
            self.mem.dram_runahead(),
            self.mem.dram_writebacks,
            self.engine.episodes,
            self.engine.runahead_loads,
            self.engine.nested_episodes,
            t[0],
            t[1],
            t[2],
            t[3],
            self.simulated_instructions,
            sampling,
            self.host_seconds,
            self.sim_instrs_per_host_second(),
            self.host_minstr_per_sec(),
            self.outcome.kind(),
            self.outcome.error().map(|e| escape_json(&e.to_string())).unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, ipc: f64) -> SimReport {
        SimReport {
            technique: Technique::Baseline,
            workload: workload.to_string(),
            core: CoreStats::default(),
            mem: MemStats::default(),
            ipc,
            mlp: 0.0,
            simulated_instructions: 0,
            host_seconds: 0.0,
            sampling: None,
            engine: EngineSummary::default(),
            outcome: RunOutcome::Complete,
            sanitizer: None,
            work: Default::default(),
        }
    }

    #[test]
    fn throughput_handles_zero_time() {
        let mut r = report("bfs", 1.0);
        assert_eq!(r.sim_instrs_per_host_second(), 0.0);
        assert_eq!(r.host_minstr_per_sec(), 0.0);
        r.core.committed = 1_000_000;
        r.simulated_instructions = 5_000_000;
        r.host_seconds = 0.5;
        assert!((r.sim_instrs_per_host_second() - 2_000_000.0).abs() < 1e-6);
        assert!((r.host_minstr_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_section_serializes_when_present() {
        let mut r = report("bfs", 1.0);
        assert!(!r.to_json().contains("\"sampling\""));
        r.sampling = Some(SamplingSummary {
            intervals: 4,
            interval_len: 1000,
            warmup_len: 500,
            period: 5000,
            placement: "systematic",
            seed: 42,
            ipc_mean: 1.0,
            ipc_variance: 0.01,
            ipc_ci95: 0.2,
            mlp_mean: 3.0,
            detailed_instructions: 4000,
            warmup_instructions: 2000,
            ffwd_instructions: 14_000,
        });
        let j = r.to_json();
        assert!(j.contains("\"sampling\":{\"intervals\":4,"), "{j}");
        assert!(j.contains("\"ipc_ci95\":0.200000"), "{j}");
        assert!(j.contains("\"simulated_instructions\":0,\"sampling\""), "{j}");
        assert_eq!(j.matches('{').count(), 2);
        assert_eq!(j.matches('}').count(), 2);
        // An unbounded CI is JSON null, not "inf".
        r.sampling.as_mut().unwrap().ipc_ci95 = f64::INFINITY;
        assert!(r.to_json().contains("\"ipc_ci95\":null"));
    }

    #[test]
    fn speedup_math() {
        let base = report("bfs", 0.5);
        let fast = report("bfs", 1.25);
        assert!((fast.speedup_over(&base) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn speedup_across_workloads_panics() {
        let a = report("bfs", 1.0);
        let b = report("pr", 1.0);
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn traffic_fraction_handles_zero() {
        let r = report("bfs", 1.0);
        assert_eq!(r.runahead_traffic_fraction(), 0.0);
        assert_eq!(r.llc_mpki(), 0.0);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = report("bfs\"KR\\", 1.5);
        r.core.cycles = 100;
        r.core.committed = 150;
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ipc\":1.5"));
        assert!(j.contains("\\\"KR\\\\"), "quotes/backslashes must be escaped: {j}");
        assert!(j.contains("\"outcome\":\"complete\",\"error\":\"\""));
        assert_eq!(j.matches('{').count(), 1);
    }

    #[test]
    fn failed_outcome_serializes_its_kind_and_message() {
        let mut r = report("bfs", 0.0);
        r.outcome = RunOutcome::Failed(SimError::CycleBudgetExceeded { cycle: 500, budget: 500 });
        assert_eq!(r.outcome.kind(), "cycle_budget_exceeded");
        assert!(!r.outcome.is_complete());
        let j = r.to_json();
        assert!(j.contains("\"outcome\":\"cycle_budget_exceeded\""), "{j}");
        assert!(j.contains("budget"), "error message must be present: {j}");
        assert_eq!(j.matches('{').count(), 1);
    }

    #[test]
    fn zero_ipc_baseline_yields_zero_speedup() {
        let base = report("bfs", 0.0);
        let fast = report("bfs", 1.25);
        assert_eq!(fast.speedup_over(&base), 0.0);
    }
}
