//! Typed simulation failures.
//!
//! Every way a timing run can go wrong is represented as data, so batch
//! harnesses can record a failed cell and keep sweeping instead of
//! aborting the process. See [`OooCore::run`](crate::OooCore::run).

use std::error::Error;
use std::fmt;

use sim_isa::ExecError;
use sim_mem::FaultEvent;

/// Pipeline state captured when the forward-progress watchdog fires.
///
/// The snapshot answers the first questions a deadlock triage asks: where
/// was the ROB head stuck, was the machine waiting on memory (MSHRs in
/// use, DRAM calendar depth) or starved of work (empty IQ/fetch queue)?
#[derive(Clone, PartialEq, Debug)]
pub struct DeadlockSnapshot {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Last cycle on which an instruction committed.
    pub last_commit_cycle: u64,
    /// Instructions committed before the wedge.
    pub committed: u64,
    /// ROB occupancy.
    pub rob_len: usize,
    /// Rendering of the ROB head instruction, if any.
    pub rob_head: Option<String>,
    /// Instructions sitting unissued in the issue queue.
    pub iq_unissued: usize,
    /// Fetch-queue occupancy.
    pub fetchq_len: usize,
    /// L1-D MSHRs in use at the firing cycle.
    pub mshrs_in_use: usize,
    /// Number of busy intervals in the DRAM slot calendar.
    pub dram_calendar_depth: usize,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no commit since cycle {} (now {}): {} committed, ROB {} entries (head: {}), \
             {} unissued in IQ, {} in fetch queue, {} MSHRs in use, DRAM calendar depth {}",
            self.last_commit_cycle,
            self.cycle,
            self.committed,
            self.rob_len,
            self.rob_head.as_deref().unwrap_or("empty"),
            self.iq_unissued,
            self.fetchq_len,
            self.mshrs_in_use,
            self.dram_calendar_depth,
        )
    }
}

/// Why a simulation run failed.
///
/// Carried from the executor and the memory hierarchy through
/// [`OooCore::run`](crate::OooCore::run) into the harness's per-cell
/// reports. [`SimError::kind`] gives a stable label for serialized output.
#[derive(Clone, PartialEq, Debug)]
pub enum SimError {
    /// The functional executor faulted (malformed program).
    ExecFault {
        /// PC at which the fault occurred.
        pc: usize,
        /// Cycle at which the fault surfaced.
        cycle: u64,
        /// The underlying executor error.
        source: ExecError,
    },
    /// The forward-progress watchdog fired: no instruction committed for
    /// [`CoreConfig::watchdog_cycles`](crate::CoreConfig::watchdog_cycles).
    Deadlock(Box<DeadlockSnapshot>),
    /// The run exceeded [`CoreConfig::max_cycles`](crate::CoreConfig::max_cycles).
    CycleBudgetExceeded {
        /// Cycle reached.
        cycle: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A fatal injected fault (fault-injection harness) was delivered.
    InjectedFault(FaultEvent),
    /// [`OooCore::run`](crate::OooCore::run) was called on a core that
    /// already finished a program.
    CoreReused,
    /// A worker panicked while simulating this cell (caught by the batch
    /// harness, not raised by the core itself).
    Panic {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl SimError {
    /// Stable machine-readable label for serialized reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::ExecFault { .. } => "exec_fault",
            SimError::Deadlock(_) => "deadlock",
            SimError::CycleBudgetExceeded { .. } => "cycle_budget_exceeded",
            SimError::InjectedFault(_) => "injected_fault",
            SimError::CoreReused => "core_reused",
            SimError::Panic { .. } => "panic",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ExecFault { pc, cycle, source } => {
                write!(f, "functional execution fault at pc {pc}, cycle {cycle}: {source}")
            }
            SimError::Deadlock(snap) => write!(f, "pipeline deadlock: {snap}"),
            SimError::CycleBudgetExceeded { cycle, budget } => {
                write!(f, "cycle budget exceeded: {cycle} cycles (budget {budget})")
            }
            SimError::InjectedFault(ev) => {
                write!(f, "injected fault: {} at cycle {}, line {:#x}", ev.kind, ev.cycle, ev.line)
            }
            SimError::CoreReused => write!(f, "core reused: OooCore::run called twice"),
            SimError::Panic { message } => write!(f, "worker panic: {message}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::ExecFault { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let snap = DeadlockSnapshot {
            cycle: 100,
            last_commit_cycle: 3,
            committed: 2,
            rob_len: 1,
            rob_head: None,
            iq_unissued: 0,
            fetchq_len: 0,
            mshrs_in_use: 0,
            dram_calendar_depth: 0,
        };
        let all = [
            SimError::ExecFault { pc: 1, cycle: 2, source: ExecError::PcOutOfRange { pc: 1 } },
            SimError::Deadlock(Box::new(snap)),
            SimError::CycleBudgetExceeded { cycle: 5, budget: 4 },
            SimError::CoreReused,
            SimError::Panic { message: "boom".into() },
        ];
        let kinds: Vec<&str> = all.iter().map(SimError::kind).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn deadlock_display_names_the_head() {
        let snap = DeadlockSnapshot {
            cycle: 2_000_100,
            last_commit_cycle: 100,
            committed: 42,
            rob_len: 350,
            rob_head: Some("seq 42 pc 7 Load".into()),
            iq_unissued: 3,
            fetchq_len: 8,
            mshrs_in_use: 24,
            dram_calendar_depth: 2,
        };
        let s = SimError::Deadlock(Box::new(snap)).to_string();
        assert!(s.contains("seq 42 pc 7 Load"), "{s}");
        assert!(s.contains("24 MSHRs"), "{s}");
    }
}
