//! Simulation configuration.

use dvr_core::DvrConfig;
use sim_mem::HierarchyConfig;
use sim_ooo::CoreConfig;

/// The prefetching/runahead techniques the paper evaluates (Section 6),
/// plus the DVR ablations of Figure 8.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Technique {
    /// The plain out-of-order core (with its always-on stride prefetcher).
    Baseline,
    /// Precise Runahead Execution (HPCA '20).
    Pre,
    /// Indirect Memory Prefetcher (MICRO '15): baseline core + IMP at L1-D.
    Imp,
    /// Vector Runahead (ISCA '21).
    Vr,
    /// Decoupled Vector Runahead — the paper's contribution.
    Dvr,
    /// Figure 8 ablation: DVR's subthread offload without Discovery Mode.
    DvrOffload,
    /// Figure 8 ablation: offload + Discovery Mode, no Nested Runahead.
    DvrDiscovery,
    /// The perfect-knowledge Oracle.
    Oracle,
}

impl Technique {
    /// The five techniques of Figure 7, in plot order.
    pub const FIG7: [Technique; 5] =
        [Technique::Pre, Technique::Imp, Technique::Vr, Technique::Dvr, Technique::Oracle];

    /// The Figure 8 breakdown, in plot order (VR, Offload, +Discovery,
    /// +Nested = full DVR).
    pub const FIG8: [Technique; 4] =
        [Technique::Vr, Technique::DvrOffload, Technique::DvrDiscovery, Technique::Dvr];

    /// Parses a [`technique_token`](crate::sweep::technique_token) or
    /// `baseline`, case-insensitively. Returns `None` for anything else
    /// (callers render their own hint).
    pub fn parse(s: &str) -> Option<Technique> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" => Some(Technique::Baseline),
            token => crate::sweep::parse_technique_token(token),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Technique::Baseline => "OoO",
            Technique::Pre => "PRE",
            Technique::Imp => "IMP",
            Technique::Vr => "VR",
            Technique::Dvr => "DVR",
            Technique::DvrOffload => "DVR(offload)",
            Technique::DvrDiscovery => "DVR(+discovery)",
            Technique::Oracle => "Oracle",
        }
    }
}

/// Everything needed to run one simulation.
///
/// A non-consuming builder (the [guideline-recommended] flavour): defaults
/// are the paper's Table 1; the `with_*` methods adjust single knobs for
/// the sweeps.
///
/// [guideline-recommended]: https://rust-lang.github.io/api-guidelines/
///
/// # Example
///
/// ```
/// use dvr_sim::{SimConfig, Technique};
/// let cfg = SimConfig::new(Technique::Dvr).with_rob(512).with_max_instructions(100_000);
/// assert_eq!(cfg.core.rob_size, 512);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimConfig {
    /// Core pipeline parameters (Table 1).
    pub core: CoreConfig,
    /// Memory hierarchy parameters (Table 1).
    pub hierarchy: HierarchyConfig,
    /// Active technique.
    pub technique: Technique,
    /// DVR engine knobs (used by the DVR techniques; the ablation variants
    /// override the discovery/nested flags but keep the rest).
    pub dvr: DvrConfig,
    /// Instruction budget (the ROI length).
    pub max_instructions: u64,
}

impl SimConfig {
    /// A Table 1 configuration with the given technique and a 2 M-instruction
    /// ROI.
    pub fn new(technique: Technique) -> Self {
        let mut core = CoreConfig::icelake_like();
        core.imp_prefetcher = technique == Technique::Imp;
        SimConfig {
            core,
            hierarchy: HierarchyConfig::default(),
            technique,
            dvr: DvrConfig::default(),
            max_instructions: 2_000_000,
        }
    }

    /// Overrides the ROB size (Figures 2 and 12).
    pub fn with_rob(mut self, rob: usize) -> Self {
        self.core.rob_size = rob;
        self
    }

    /// Overrides the ROB size, scaling IQ/LQ/SQ proportionally
    /// (Section 6.5's scaled-back-end variant). Every other core knob —
    /// the sanitizer, the watchdog and the budgets included — is kept.
    pub fn with_scaled_backend(mut self, rob: usize) -> Self {
        let s = CoreConfig::with_scaled_backend(rob);
        self.core = CoreConfig {
            rob_size: s.rob_size,
            iq_size: s.iq_size,
            lq_size: s.lq_size,
            sq_size: s.sq_size,
            ..self.core
        };
        self
    }

    /// Overrides the instruction budget.
    pub fn with_max_instructions(mut self, n: u64) -> Self {
        self.max_instructions = n;
        self
    }

    /// Overrides the L1-D MSHR count (MLP-sensitivity ablation).
    pub fn with_mshrs(mut self, n: usize) -> Self {
        self.hierarchy.mshrs = n;
        self
    }

    /// Overrides DVR's per-invocation lane count (the paper's Section 6.1
    /// discussion of wider 256-element DVR units; hard-capped at 256).
    pub fn with_dvr_lanes(mut self, lanes: usize) -> Self {
        self.dvr.max_lanes = lanes.min(dvr_core::ABSOLUTE_MAX_LANES);
        self
    }

    /// Switches DRAM from the paper's request-based model to the optional
    /// open-page banked model (our extension; see `sim_mem::DramConfig`).
    pub fn with_banked_dram(mut self) -> Self {
        self.hierarchy.dram = sim_mem::DramConfig::banked();
        self
    }

    /// Enables deterministic fault injection in the memory hierarchy (see
    /// `sim_mem::FaultConfig`).
    pub fn with_faults(mut self, fault: sim_mem::FaultConfig) -> Self {
        self.hierarchy.fault = Some(fault);
        self
    }

    /// Overrides the forward-progress watchdog threshold (cycles without a
    /// commit before the run fails with a deadlock snapshot; `0` disables).
    pub fn with_watchdog_cycles(mut self, cycles: u64) -> Self {
        self.core.watchdog_cycles = cycles;
        self
    }

    /// Caps the run at a total cycle budget (`0` = unlimited).
    pub fn with_cycle_budget(mut self, cycles: u64) -> Self {
        self.core.max_cycles = cycles;
        self
    }

    /// Enables the cycle-model invariant sanitizer: read-only structural
    /// checks inside the core and hierarchy every cycle, plus an
    /// architectural-state digest diff against a fresh functional replay at
    /// the end of the run. Timing-neutral by construction; findings land in
    /// [`SimReport::sanitizer`](crate::SimReport).
    pub fn with_sanitize(mut self, on: bool) -> Self {
        self.core.sanitize = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imp_flag_follows_technique() {
        assert!(SimConfig::new(Technique::Imp).core.imp_prefetcher);
        assert!(!SimConfig::new(Technique::Dvr).core.imp_prefetcher);
    }

    #[test]
    fn builder_composes() {
        let cfg = SimConfig::new(Technique::Vr).with_rob(128).with_mshrs(8);
        assert_eq!(cfg.core.rob_size, 128);
        assert_eq!(cfg.hierarchy.mshrs, 8);
        assert_eq!(cfg.technique, Technique::Vr);
    }

    #[test]
    fn robustness_knobs_compose() {
        let cfg = SimConfig::new(Technique::Baseline)
            .with_faults(sim_mem::FaultConfig::seeded(7).with_drop(100))
            .with_watchdog_cycles(50_000)
            .with_cycle_budget(1_000_000);
        assert!(cfg.hierarchy.fault.expect("fault config set").is_active());
        assert_eq!(cfg.core.watchdog_cycles, 50_000);
        assert_eq!(cfg.core.max_cycles, 1_000_000);
        assert!(SimConfig::new(Technique::Baseline).hierarchy.fault.is_none());

        // Scaling the back end resizes the queues and keeps every other knob.
        let mut knobs = cfg.with_sanitize(true);
        knobs.core.max_wall_ms = 9_000;
        knobs.core.mem_cap_bytes = 1 << 30;
        let scaled = knobs.with_scaled_backend(128);
        assert_eq!(scaled.core.rob_size, 128);
        assert!(scaled.core.iq_size < knobs.core.iq_size);
        assert!(scaled.core.sanitize);
        assert_eq!(scaled.core.watchdog_cycles, 50_000);
        assert_eq!(scaled.core.max_cycles, 1_000_000);
        assert_eq!(scaled.core.max_wall_ms, 9_000);
        assert_eq!(scaled.core.mem_cap_bytes, 1 << 30);
    }

    #[test]
    fn sanitize_defaults_off() {
        assert!(!SimConfig::new(Technique::Dvr).core.sanitize);
        assert!(SimConfig::new(Technique::Dvr).with_sanitize(true).core.sanitize);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Technique::Dvr.name(), "DVR");
        assert_eq!(Technique::FIG7.len(), 5);
        assert_eq!(Technique::FIG8[3], Technique::Dvr);
    }
}
