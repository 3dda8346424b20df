//! Deterministic, seeded fault injection for the memory hierarchy.
//!
//! The harness uses these faults to prove the stack fails *as data*: a
//! dropped MSHR response wedges the pipeline so the core's forward-progress
//! watchdog must fire; delayed DRAM slots and poisoned prefetches perturb
//! timing without ever touching architectural state; and a fatal injected
//! fault aborts a run at a deterministic point so batch harnesses can
//! rehearse their failure paths.
//!
//! All randomness comes from a per-[`MemoryHierarchy`] xorshift stream
//! seeded from [`FaultConfig::seed`], so outcomes depend only on the access
//! stream — never on host threads or wall-clock time.
//!
//! [`MemoryHierarchy`]: crate::MemoryHierarchy

/// What kind of fault fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// A demand-class MSHR response was dropped: the fill never completes
    /// and the requester waits forever (the watchdog's job to notice).
    DroppedResponse,
    /// A DRAM line read was delayed by [`FaultConfig::delay_cycles`].
    DelayedDram,
    /// A prefetch-class fill was poisoned and discarded (timing-only:
    /// the line simply never arrives; architectural state is untouched).
    PoisonedPrefetch,
    /// The configured fatal fault: aborts the run when the core polls it.
    Fatal,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::DroppedResponse => "dropped MSHR response",
            FaultKind::DelayedDram => "delayed DRAM slot",
            FaultKind::PoisonedPrefetch => "poisoned prefetch",
            FaultKind::Fatal => "fatal injected fault",
        };
        f.write_str(s)
    }
}

/// A fault that fired, for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// What fired.
    pub kind: FaultKind,
    /// Cycle of the access that triggered it.
    pub cycle: u64,
    /// Cache-line address involved.
    pub line: u64,
}

/// Seeded fault-injection configuration (all rates are `1-in-N`; `0`
/// disables that fault class).
///
/// Lives inside [`HierarchyConfig`](crate::HierarchyConfig) so a fault
/// plan travels with the rest of the simulation configuration and stays
/// `Copy`/`Eq`-comparable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultConfig {
    /// Seed for the injection RNG.
    pub seed: u64,
    /// Drop 1-in-N demand-class miss responses (`0` = never). A dropped
    /// response never completes; the core's watchdog reports a deadlock.
    pub drop_demand_1_in: u64,
    /// Delay 1-in-N DRAM line reads (`0` = never).
    pub delay_dram_1_in: u64,
    /// Extra cycles added by a delayed DRAM read.
    pub delay_cycles: u64,
    /// Poison (discard) 1-in-N prefetch-class fills (`0` = never).
    pub poison_prefetch_1_in: u64,
    /// Raise a fatal fault on exactly the Nth demand access (`0` = never).
    pub fatal_at_demand_access: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            drop_demand_1_in: 0,
            delay_dram_1_in: 0,
            delay_cycles: 400,
            poison_prefetch_1_in: 0,
            fatal_at_demand_access: 0,
        }
    }
}

impl FaultConfig {
    /// A no-fault configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig { seed, ..FaultConfig::default() }
    }

    /// Drops 1-in-N demand-class miss responses.
    pub fn with_drop(mut self, one_in: u64) -> Self {
        self.drop_demand_1_in = one_in;
        self
    }

    /// Delays 1-in-N DRAM reads by `cycles`.
    pub fn with_delay(mut self, one_in: u64, cycles: u64) -> Self {
        self.delay_dram_1_in = one_in;
        self.delay_cycles = cycles;
        self
    }

    /// Poisons 1-in-N prefetch-class fills.
    pub fn with_poison(mut self, one_in: u64) -> Self {
        self.poison_prefetch_1_in = one_in;
        self
    }

    /// Raises a fatal fault on the Nth demand access.
    pub fn with_fatal_at(mut self, nth_demand_access: u64) -> Self {
        self.fatal_at_demand_access = nth_demand_access;
        self
    }

    /// Whether any fault class is armed.
    pub fn is_active(&self) -> bool {
        self.drop_demand_1_in != 0
            || self.delay_dram_1_in != 0
            || self.poison_prefetch_1_in != 0
            || self.fatal_at_demand_access != 0
    }
}

/// Completion cycle assigned to a dropped response: far enough in the
/// future that it never completes within any realistic run, small enough
/// that downstream arithmetic (latency additions, slot alignment) cannot
/// overflow.
pub const NEVER_COMPLETES: u64 = u64::MAX / 4;

/// Runtime injection state, owned by one `MemoryHierarchy` instance — the
/// RNG stream follows the hierarchy's access stream, so results are
/// independent of how many host threads run other simulations.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    cfg: FaultConfig,
    rng: u64,
    demand_accesses: u64,
    pending_fatal: Option<FaultEvent>,
}

impl FaultState {
    pub(crate) fn new(cfg: FaultConfig) -> Self {
        // splitmix64 of the seed, forced odd so the xorshift state is
        // never the all-zero fixed point.
        let mut z = cfg.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        FaultState { cfg, rng: (z ^ (z >> 31)) | 1, demand_accesses: 0, pending_fatal: None }
    }

    fn roll(&mut self, one_in: u64) -> bool {
        if one_in == 0 {
            return false;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.is_multiple_of(one_in)
    }

    /// Called once per demand access; arms the fatal event on the
    /// configured access ordinal.
    pub(crate) fn note_demand_access(&mut self, cycle: u64, line: u64) {
        self.demand_accesses += 1;
        if self.cfg.fatal_at_demand_access != 0
            && self.demand_accesses == self.cfg.fatal_at_demand_access
            && self.pending_fatal.is_none()
        {
            self.pending_fatal = Some(FaultEvent { kind: FaultKind::Fatal, cycle, line });
        }
    }

    pub(crate) fn drop_demand_response(&mut self) -> bool {
        let n = self.cfg.drop_demand_1_in;
        self.roll(n)
    }

    pub(crate) fn dram_delay(&mut self) -> Option<u64> {
        let n = self.cfg.delay_dram_1_in;
        self.roll(n).then_some(self.cfg.delay_cycles)
    }

    pub(crate) fn poison_prefetch(&mut self) -> bool {
        let n = self.cfg.poison_prefetch_1_in;
        self.roll(n)
    }

    pub(crate) fn take_fatal(&mut self) -> Option<FaultEvent> {
        self.pending_fatal.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_rates_never_fire() {
        let mut s = FaultState::new(FaultConfig::seeded(42));
        for _ in 0..1000 {
            assert!(!s.drop_demand_response());
            assert!(s.dram_delay().is_none());
            assert!(!s.poison_prefetch());
        }
        s.note_demand_access(0, 0);
        assert!(s.take_fatal().is_none());
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let cfg = FaultConfig::seeded(7).with_drop(3);
        let mut a = FaultState::new(cfg);
        let mut b = FaultState::new(cfg);
        let seq_a: Vec<bool> = (0..200).map(|_| a.drop_demand_response()).collect();
        let seq_b: Vec<bool> = (0..200).map(|_| b.drop_demand_response()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&x| x), "1-in-3 must fire within 200 rolls");
        assert!(seq_a.iter().any(|&x| !x));
        let mut c = FaultState::new(FaultConfig::seeded(8).with_drop(3));
        let seq_c: Vec<bool> = (0..200).map(|_| c.drop_demand_response()).collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn fatal_fires_exactly_once_on_the_nth_access() {
        let mut s = FaultState::new(FaultConfig::seeded(1).with_fatal_at(3));
        s.note_demand_access(10, 1);
        s.note_demand_access(20, 2);
        assert!(s.take_fatal().is_none());
        s.note_demand_access(30, 3);
        let ev = s.take_fatal().expect("fatal armed on the 3rd access");
        assert_eq!(ev.kind, FaultKind::Fatal);
        assert_eq!(ev.cycle, 30);
        assert_eq!(ev.line, 3);
        s.note_demand_access(40, 4);
        assert!(s.take_fatal().is_none(), "fatal fires once");
    }

    #[test]
    fn config_builders_compose_and_report_activity() {
        assert!(!FaultConfig::seeded(5).is_active());
        let cfg = FaultConfig::seeded(5).with_delay(10, 99).with_poison(4);
        assert!(cfg.is_active());
        assert_eq!(cfg.delay_cycles, 99);
        assert_eq!(cfg.poison_prefetch_1_in, 4);
    }
}
