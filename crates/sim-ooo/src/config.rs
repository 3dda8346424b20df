//! Core configuration (paper Table 1 defaults).

/// Configuration of the out-of-order core's pipeline resources.
///
/// Defaults reproduce the paper's Table 1 baseline: a 4 GHz, 5-wide
/// out-of-order core inspired by Intel Ice Lake, with a 350-entry ROB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreConfig {
    /// Fetch/dispatch/rename/commit width.
    pub width: u32,
    /// Maximum instructions issued to execution per cycle (FU-port bound).
    pub issue_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries (instructions eligible for wakeup/select).
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue entries.
    pub sq_size: usize,
    /// Front-end refill penalty after a branch misprediction, in cycles
    /// (15 front-end stages).
    pub frontend_penalty: u64,
    /// Decoded micro-op (front-end) buffer entries.
    pub fetch_queue: usize,
    /// Simple integer ALUs (1-cycle ops, branches, address generation).
    pub int_alu: u32,
    /// Integer multipliers (3-cycle).
    pub int_mul: u32,
    /// Integer dividers (18-cycle).
    pub int_div: u32,
    /// L1-D load ports.
    pub load_ports: u32,
    /// L1-D store ports.
    pub store_ports: u32,
    /// Whether the IMP indirect prefetcher is enabled.
    pub imp_prefetcher: bool,
    /// Forward-progress watchdog: if no instruction commits for this many
    /// cycles the run fails with [`SimError::Deadlock`](crate::SimError)
    /// and a diagnostic snapshot. `0` disables the watchdog.
    pub watchdog_cycles: u64,
    /// Hard cycle budget: the run fails with
    /// [`SimError::CycleBudgetExceeded`](crate::SimError) past this many
    /// cycles. `0` = unlimited.
    pub max_cycles: u64,
    /// Run the cycle-model invariant sanitizer: step every cycle instead of
    /// skipping idle ones, with read-only structural checks over the
    /// ROB/wakeup/rename/LSQ state each cycle plus amortized MSHR/cache
    /// sweeps, reported through [`OooCore::sanitize_report`](crate::OooCore).
    /// Skipping is exact and checks are side-effect-free, so enabling this
    /// never changes timing.
    pub sanitize: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            width: 5,
            issue_width: 8,
            rob_size: 350,
            iq_size: 128,
            lq_size: 128,
            sq_size: 72,
            frontend_penalty: 15,
            fetch_queue: 8,
            int_alu: 4,
            int_mul: 1,
            int_div: 1,
            load_ports: 2,
            store_ports: 1,
            imp_prefetcher: false,
            watchdog_cycles: 2_000_000,
            max_cycles: 0,
            sanitize: false,
        }
    }
}

impl CoreConfig {
    /// The Table 1 baseline (alias of `Default`).
    pub fn icelake_like() -> Self {
        CoreConfig::default()
    }

    /// The baseline with a different ROB size (Figures 2 and 12 sweeps).
    pub fn with_rob(rob_size: usize) -> Self {
        CoreConfig { rob_size, ..CoreConfig::default() }
    }

    /// Scales the back-end queues proportionally to a new ROB size, as in
    /// the paper's Section 6.5 scaled-back-end experiment.
    pub fn with_scaled_backend(rob_size: usize) -> Self {
        let scale = rob_size as f64 / 350.0;
        let s = |v: usize| ((v as f64 * scale).round() as usize).max(8);
        CoreConfig {
            rob_size,
            iq_size: s(128),
            lq_size: s(128),
            sq_size: s(72),
            ..CoreConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        assert_eq!(c.width, 5);
        assert_eq!(c.rob_size, 350);
        assert_eq!(c.iq_size, 128);
        assert_eq!(c.lq_size, 128);
        assert_eq!(c.sq_size, 72);
        assert_eq!(c.frontend_penalty, 15);
        assert_eq!(c.int_alu, 4);
        assert_eq!(c.watchdog_cycles, 2_000_000);
        assert_eq!(c.max_cycles, 0);
    }

    #[test]
    fn scaled_backend_scales_queues() {
        let c = CoreConfig::with_scaled_backend(128);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.iq_size, 47);
        assert_eq!(c.sq_size, 26);
        let big = CoreConfig::with_scaled_backend(512);
        assert_eq!(big.iq_size, 187);
    }
}
