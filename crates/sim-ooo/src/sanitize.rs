//! The cycle-model invariant sanitizer's violation ledger.
//!
//! When [`CoreConfig::sanitize`](crate::CoreConfig) is set, the core steps
//! every cycle instead of jumping over idle ones and runs read-only
//! structural checks on each (ROB age-ordering, the issue stage's wakeup
//! bookkeeping, that a cycle predicted idle changed nothing, rename-table
//! validity, LSQ counter balance, MSHR allocate/release balance) plus
//! amortized per-set cache sweeps, and the runner diffs the timing core's
//! architectural state against a fresh functional replay
//! (prefetch-is-timing-only). Findings land here; the simulation itself is
//! never perturbed — every check takes `&self` on the structures it
//! inspects and results go to this ledger only, so reports stay
//! byte-identical with the sanitizer on or off.

/// Counts of invariant checks run and violations found, with the first few
/// violation messages retained for diagnosis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Individual invariant assertions evaluated.
    pub checks: u64,
    /// Assertions that failed.
    pub violations: u64,
    /// The first few violation messages (capped so a systematically broken
    /// invariant cannot balloon memory).
    pub first: Vec<String>,
}

/// How many violation messages are retained verbatim.
pub const MAX_RETAINED: usize = 8;

impl SanitizeReport {
    /// Records one assertion: `ok == true` counts a passing check, `false`
    /// counts a violation and retains the (lazily built) message. Public so
    /// the runner can fold its architectural-digest checks into the ledger.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations += 1;
            if self.first.len() < MAX_RETAINED {
                self.first.push(msg());
            }
        }
    }

    /// Records an externally produced batch of violation messages against
    /// one logical check (used for the hierarchy sweeps).
    pub(crate) fn absorb(&mut self, messages: Vec<String>) {
        self.checks += 1;
        for m in messages {
            self.violations += 1;
            if self.first.len() < MAX_RETAINED {
                self.first.push(m);
            }
        }
    }

    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("{} invariant checks, 0 violations", self.checks)
        } else {
            format!(
                "{} invariant checks, {} VIOLATIONS (first: {})",
                self.checks,
                self.violations,
                self.first.first().map(String::as_str).unwrap_or("<none>")
            )
        }
    }

    /// Merges another report into this one (used by the runner to fold the
    /// architectural-digest check into the core's ledger).
    pub fn merge(&mut self, other: &SanitizeReport) {
        self.checks += other.checks;
        self.violations += other.violations;
        for m in &other.first {
            if self.first.len() < MAX_RETAINED {
                self.first.push(m.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_and_caps_messages() {
        let mut r = SanitizeReport::default();
        r.check(true, || unreachable!());
        for i in 0..20 {
            r.check(false, || format!("violation {i}"));
        }
        assert_eq!(r.checks, 21);
        assert_eq!(r.violations, 20);
        assert_eq!(r.first.len(), MAX_RETAINED);
        assert!(!r.is_clean());
        assert!(r.summary().contains("VIOLATIONS"));
    }

    #[test]
    fn merge_folds_counts() {
        let mut a = SanitizeReport::default();
        a.check(true, String::new);
        let mut b = SanitizeReport::default();
        b.check(false, || "digest mismatch".into());
        a.merge(&b);
        assert_eq!(a.checks, 2);
        assert_eq!(a.violations, 1);
        assert_eq!(a.first, vec!["digest mismatch".to_string()]);
    }
}
