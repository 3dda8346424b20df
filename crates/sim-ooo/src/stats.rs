//! Core-level statistics.

use std::fmt;

/// Counters accumulated by [`OooCore`](crate::OooCore) over a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Cycles in which dispatch was blocked by a full ROB (the paper's
    /// "processor stall time due to a full ROB", Figure 2's right axis).
    pub rob_full_stall_cycles: u64,
    /// Distinct full-ROB stall episodes with a load miss at the ROB head
    /// (runahead trigger opportunities).
    pub full_rob_stall_events: u64,
    /// Cycles in which commit was ready but blocked by the engine
    /// (VR's delayed termination, Section 3 observation 2).
    pub commit_blocked_engine_cycles: u64,
    /// Conditional branches committed.
    pub cond_branches: u64,
    /// Conditional branch direction mispredictions.
    pub branch_mispredicts: u64,
    /// Demand loads executed.
    pub loads: u64,
    /// Demand stores executed.
    pub stores: u64,
    /// Loads that forwarded from an in-flight store.
    pub store_forwards: u64,
}

impl CoreStats {
    /// Length of the [`CoreStats::to_flat`] encoding.
    pub const FLAT_LEN: usize = 10;

    /// Flattens the counters into a fixed-order array — the `core` array
    /// of a sample worker's period payload.
    pub fn to_flat(&self) -> [u64; Self::FLAT_LEN] {
        [
            self.cycles,
            self.committed,
            self.rob_full_stall_cycles,
            self.full_rob_stall_events,
            self.commit_blocked_engine_cycles,
            self.cond_branches,
            self.branch_mispredicts,
            self.loads,
            self.stores,
            self.store_forwards,
        ]
    }

    /// Rebuilds from a [`CoreStats::to_flat`] array; `None` if the length
    /// is wrong.
    pub fn from_flat(v: &[u64]) -> Option<Self> {
        let v: &[u64; Self::FLAT_LEN] = v.try_into().ok()?;
        Some(CoreStats {
            cycles: v[0],
            committed: v[1],
            rob_full_stall_cycles: v[2],
            full_rob_stall_events: v[3],
            commit_blocked_engine_cycles: v[4],
            cond_branches: v[5],
            branch_mispredicts: v[6],
            loads: v[7],
            stores: v[8],
            store_forwards: v[9],
        })
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles spent dispatch-stalled on a full ROB.
    pub fn rob_full_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rob_full_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Branch mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.branch_mispredicts as f64 / self.committed as f64
        }
    }
}

/// How much work the core's cycle loop did, as opposed to what it
/// simulated: the counts [`OooCore::work`](crate::OooCore::work) returns.
/// They are deterministic, so a change that stops skipping idle cycles
/// shows up as a diff rather than as a slower clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkCounters {
    /// Cycles stepped through every pipeline stage.
    pub stepped: u64,
    /// Cycles jumped over because no stage could act in them.
    pub skipped: u64,
    /// Ready entries the issue stage examined.
    pub issue_candidates: u64,
}

impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles stepped, {} skipped, {} issue candidates",
            self.stepped, self.skipped, self.issue_candidates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = CoreStats {
            cycles: 1000,
            committed: 2500,
            rob_full_stall_cycles: 250,
            branch_mispredicts: 5,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.rob_full_stall_fraction() - 0.25).abs() < 1e-12);
        assert!((s.mpki() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.rob_full_stall_fraction(), 0.0);
        assert_eq!(s.mpki(), 0.0);
    }
}
