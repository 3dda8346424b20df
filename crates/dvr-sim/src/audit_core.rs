//! What the three static-vs-dynamic audits share.
//!
//! The Discovery, leak and bounds audits have one shape: a static claim,
//! a dynamic observation, and a diff whose every disagreement is a typed
//! [`Divergence`] — *justified* by a known, documented gap between the two
//! models, or *unexplained*, which fails the audit. This module holds that
//! shape once: the divergence list with its verdict and its golden-pinned
//! text and JSON renderings, the observed Baseline/VR/DVR runs the leak
//! and bounds audits both read, and the functional replay that is their
//! architectural ground truth. Each audit module keeps only its kinds,
//! justifications, diff rules and header lines.

use std::fmt::{Display, Write};

use sim_isa::{Cpu, Step, StepEvent};
use sim_sweep::escape_json;
use workloads::Workload;

use crate::config::{SimConfig, Technique};
use crate::runner::{simulate_observed, Observed};

/// One static/dynamic disagreement, with its (attempted) explanation.
#[derive(Clone, Debug)]
pub struct Divergence<K, J> {
    /// What kind of disagreement.
    pub kind: K,
    /// The pc it concerns.
    pub pc: usize,
    /// Human-readable specifics (counts, extents, techniques).
    pub detail: String,
    /// The typed explanation, or `None` = unexplained (a bug).
    pub justification: Option<J>,
}

/// Every disagreement one audit found, in (pc, kind) order. Dereferences
/// to the divergence slice.
#[derive(Clone, Debug)]
pub struct Divergences<K, J>(Vec<Divergence<K, J>>);

impl<K: Copy + Ord, J> Divergences<K, J> {
    /// Orders a diff's findings by pc, then by kind in declaration order.
    pub(crate) fn new(mut found: Vec<Divergence<K, J>>) -> Self {
        found.sort_by_key(|d| (d.pc, d.kind));
        Divergences(found)
    }
}

impl<K, J> Divergences<K, J> {
    /// Divergences with no typed justification.
    pub fn unexplained(&self) -> usize {
        self.0.iter().filter(|d| d.justification.is_none()).count()
    }

    /// Whether every divergence is explained — the audit's PASS.
    pub fn is_clean(&self) -> bool {
        self.unexplained() == 0
    }
}

impl<K: Display, J: Display> Divergences<K, J> {
    /// Appends the tail of a text report: the `divergences:` block, the
    /// audit's own `footer` lines, then `PASS` or `FAIL`.
    pub(crate) fn render_tail(&self, s: &mut String, footer: &str) {
        let _ =
            writeln!(s, "divergences: {} total, {} unexplained", self.len(), self.unexplained());
        for d in &self.0 {
            let j = d.justification.as_ref().map_or("UNEXPLAINED".to_string(), J::to_string);
            let _ = writeln!(s, "  [{}] pc={} {} :: {}", d.kind, d.pc, d.detail, j);
        }
        s.push_str(footer);
        let _ = writeln!(s, "{}", if self.is_clean() { "PASS" } else { "FAIL" });
    }

    /// Appends `"divergences":[...],"unexplained":N}`, closing a report's
    /// flat JSON object.
    pub(crate) fn json_tail(&self, s: &mut String) {
        s.push_str("\"divergences\":[");
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let j = d.justification.as_ref().map_or("null".to_string(), |j| format!("\"{j}\""));
            let _ = write!(
                s,
                "{{\"kind\":\"{}\",\"pc\":{},\"justification\":{},\"detail\":\"{}\"}}",
                d.kind,
                d.pc,
                j,
                escape_json(&d.detail),
            );
        }
        let _ = write!(s, "],\"unexplained\":{}}}", self.unexplained());
    }
}

impl<K, J> std::ops::Deref for Divergences<K, J> {
    type Target = [Divergence<K, J>];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// The observed runs the leak and bounds audits read, one per audited
/// technique: Baseline (whose lanes structurally observe nothing), VR and
/// DVR.
pub(crate) fn observed_runs(wl: &Workload, instrs: u64) -> [(Technique, Observed); 3] {
    [Technique::Baseline, Technique::Vr, Technique::Dvr]
        .map(|t| (t, simulate_observed(wl, &SimConfig::new(t).with_max_instructions(instrs)).1))
}

/// The architectural ground truth: replays up to `instrs` instructions of
/// `wl` functionally, handing every executed step to `observe`.
pub(crate) fn replay(wl: &Workload, instrs: u64, mut observe: impl FnMut(&Step)) {
    let mut cpu = Cpu::new();
    let mut mem = wl.mem.clone();
    for _ in 0..instrs {
        match cpu.step(&wl.prog, &mut mem).expect("functional replay executes") {
            StepEvent::Executed(step) => observe(&step),
            StepEvent::Halted => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_tail_escapes_control_characters_in_details() {
        let found = vec![Divergence {
            kind: "spawn",
            pc: 7,
            detail: "lanes\t\"4\"".to_string(),
            justification: None::<&str>,
        }];
        let mut s = String::new();
        Divergences(found).json_tail(&mut s);
        assert!(s.contains(r#""detail":"lanes\u0009\"4\"""#), "{s}");
    }
}
