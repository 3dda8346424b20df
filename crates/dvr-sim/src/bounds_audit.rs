//! The static-vs-dynamic bounds audit.
//!
//! Closes the loop between `sim-lint`'s interval bounds verifier and two
//! dynamic observers: run [`check_bounds`] over a workload's program, run
//! observed simulations under Baseline/VR/DVR (which fold every lane
//! access into per-pc extents), replay the program functionally with the
//! architectural [`BoundsTracker`], and diff the three views.
//!
//! The architectural side is a *soundness oracle*: every concrete address
//! an architectural access touches must lie inside the statically inferred
//! interval for that pc — an escape is a bug in the abstract interpreter,
//! never justified. The speculative side is looser by design: runahead
//! lanes execute with forced control flow and fixed-up registers, so their
//! extents may exceed the architectural interval; the audit classifies
//! each such escape and only an access that escapes a region it was
//! statically *proven* inside counts as unexplained.
//!
//! A PASS does **not** mean "in bounds": for the [`workloads::oob_gather`]
//! kernel both sides *agree* the accesses escape the declared footprint,
//! and that agreement is what passes (the CLI still exits nonzero on the
//! static errors). FAIL means the static verifier and the dynamics
//! disagree.

use sim_isa::BoundsTracker;
use sim_lint::{check_bounds, BoundsReport, BoundsVerdict};
use workloads::{gather_attack, oob_gather, Benchmark, SizeClass, Workload};

use crate::audit_core::{observed_runs, replay, Divergence, Divergences};
use crate::config::Technique;

/// The ways static bounds claims and dynamic observation can disagree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BoundsDivergenceKind {
    /// An architectural access escaped the static address interval for its
    /// pc (or executed a pc the analysis called unreachable) — a soundness
    /// bug in the abstract interpreter. Never justified.
    ArchEscapedInterval,
    /// An architectural access at a pc statically proven in-bounds escaped
    /// its proven region. Never justified (the proof was wrong).
    ArchEscapedRegion,
    /// A runahead access escaped the static interval for its pc.
    SpecEscapedInterval,
    /// The baseline (no-runahead) run recorded a speculative extent —
    /// structurally impossible (only runahead engines feed the map), so
    /// always unexplained.
    BaselineSpecAccess,
    /// A static error-severity bounds finding whose pc no dynamic side
    /// ever observed escaping the declared regions.
    OobNeverObserved,
}

impl std::fmt::Display for BoundsDivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BoundsDivergenceKind::ArchEscapedInterval => "arch-escaped-interval",
            BoundsDivergenceKind::ArchEscapedRegion => "arch-escaped-region",
            BoundsDivergenceKind::SpecEscapedInterval => "spec-escaped-interval",
            BoundsDivergenceKind::BaselineSpecAccess => "baseline-spec-access",
            BoundsDivergenceKind::OobNeverObserved => "oob-never-observed",
        })
    }
}

/// A typed explanation for a bounds [`Divergence`]: a known, documented gap
/// between the static model and the dynamics. Anything the audit cannot
/// justify counts as *unexplained*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoundsJustification {
    /// The speculative extent escaped the static interval but stayed
    /// inside the region the op was proven against: runahead lanes touch
    /// later iterations of the same footprint — the mechanism working as
    /// designed.
    WithinProvenRegion,
    /// The speculative extent still overlaps the proven region but runs
    /// past its edge: the engine spawns a full vector of lanes from the
    /// trigger without consulting the loop bound, so the last lanes
    /// overshoot the array by up to `lanes × stride` bytes (Section 4.2's
    /// speculative overrun, bounded and architecturally invisible).
    RunaheadOvershoot,
    /// The static side already declined to bound the op (unproven
    /// verdict), so a wider dynamic extent contradicts nothing.
    UnprovenStatically,
    /// The op is statically flagged out-of-bounds; the observed escape is
    /// the predicted bug — agreement, not contradiction.
    StaticallyFlagged,
    /// Runahead's forced control flow executed a memory op on a path the
    /// static analysis never reaches architecturally.
    SpeculativeControl,
    /// The flagged pc never executed (architecturally or speculatively)
    /// with this input/ROI, so no escape could be observed.
    DeadDynamicPath,
    /// The static error is an escalated unproven-bounds warning (a
    /// may-alarm on an expected-spawn gather); the dynamics staying inside
    /// the footprint does not contradict a may-claim.
    EscalatedMayAlarm,
}

impl std::fmt::Display for BoundsJustification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BoundsJustification::WithinProvenRegion => "within-proven-region",
            BoundsJustification::RunaheadOvershoot => "runahead-overshoot",
            BoundsJustification::UnprovenStatically => "unproven-statically",
            BoundsJustification::StaticallyFlagged => "statically-flagged",
            BoundsJustification::SpeculativeControl => "speculative-control",
            BoundsJustification::DeadDynamicPath => "dead-dynamic-path",
            BoundsJustification::EscalatedMayAlarm => "escalated-may-alarm",
        })
    }
}

/// Per-pc access extents `(pc, min addr, max inclusive end)`, pc-sorted.
pub type PcExtents = Vec<(usize, u64, u64)>;

/// The bounds-audit result for one workload.
#[derive(Clone, Debug)]
pub struct BoundsAuditReport {
    /// Workload name.
    pub bench: String,
    /// Input seed used on all sides.
    pub seed: u64,
    /// ROI length of the simulated and replayed runs.
    pub instrs: u64,
    /// Declared regions `(name, base, len)`.
    pub regions: Vec<(String, u64, u64)>,
    /// The static verifier's claims and findings.
    pub stat: BoundsReport,
    /// Architectural per-pc extents `(pc, min, max_inclusive)`; `None` =
    /// skipped (no regions declared).
    pub arch: Option<Vec<(usize, u64, u64)>>,
    /// Speculative extents per technique; `None` = skipped.
    pub spec: Option<[(Technique, PcExtents); 3]>,
    /// Every disagreement found, keyed by memory-op pc.
    pub divergences: Divergences<BoundsDivergenceKind, BoundsJustification>,
}

fn in_one_region(regions: &[(String, u64, u64)], lo: u64, hi: u64) -> bool {
    regions.iter().any(|&(_, base, len)| lo >= base && hi >= lo && hi - base < len)
}

/// Statically flagged (error-severity) pcs, ascending.
fn error_pcs(stat: &BoundsReport) -> Vec<usize> {
    let mut v: Vec<usize> = stat
        .diags
        .iter()
        .filter(|d| d.severity == sim_lint::Severity::Error)
        .map(|d| d.pc)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Whether an observed extent at `pc` (architectural or speculative)
/// escapes every declared region.
fn escapes(
    regions: &[(String, u64, u64)],
    pc: usize,
    arch: &[(usize, u64, u64)],
    spec: &[(Technique, PcExtents)],
) -> bool {
    let esc = |e: &[(usize, u64, u64)]| {
        e.iter().any(|&(p, lo, hi)| p == pc && !in_one_region(regions, lo, hi))
    };
    esc(arch) || spec.iter().any(|(_, e)| esc(e))
}

fn render_extents(e: &[(usize, u64, u64)]) -> String {
    if e.is_empty() {
        return "(none)".to_string();
    }
    e.iter()
        .map(|&(pc, lo, hi)| format!("pc={pc} [{lo:#x}, {hi:#x}]"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl BoundsAuditReport {
    /// Error-severity static findings (drive the CLI exit status).
    pub fn static_errors(&self) -> usize {
        self.stat.errors()
    }

    /// Statically flagged (error-severity) pcs whose escape of the
    /// declared footprint at least one dynamic side observed.
    pub fn confirmed_oob(&self) -> usize {
        let arch = self.arch.as_deref().unwrap_or_default();
        let spec = self.spec.as_ref().map_or(&[][..], |s| &s[..]);
        error_pcs(&self.stat)
            .into_iter()
            .filter(|&pc| escapes(&self.regions, pc, arch, spec))
            .count()
    }

    /// Deterministic multi-line report (the golden-pinned format).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ =
            writeln!(s, "bounds-audit {}: seed={} instrs={}", self.bench, self.seed, self.instrs);
        let regions = self
            .regions
            .iter()
            .map(|(n, base, len)| format!("{n}=[{base:#x},+{len:#x})"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(s, "regions: {}", if regions.is_empty() { "(none)" } else { &regions });
        let _ = writeln!(
            s,
            "static: ops={} proven={} errors={} warnings={}",
            self.stat.ops.len(),
            self.stat.proven(),
            self.stat.errors(),
            self.stat.warnings()
        );
        for o in &self.stat.ops {
            let _ = writeln!(
                s,
                "  pc={} {} w={} addr={} {}{}",
                o.pc,
                if o.is_load { "load" } else { "store" },
                o.width,
                o.addr,
                o.verdict,
                if o.in_spawn_chain { " spawn-chain" } else { "" },
            );
        }
        match &self.arch {
            None => {
                let _ = writeln!(s, "architectural: skipped (no regions declared)");
            }
            Some(a) => {
                let _ = writeln!(s, "architectural: {}", render_extents(a));
            }
        }
        match &self.spec {
            None => {
                let _ = writeln!(s, "speculative: skipped (no regions declared)");
            }
            Some(spec) => {
                for (t, e) in spec {
                    let _ = writeln!(s, "speculative {}: {}", t.name(), render_extents(e));
                }
            }
        }
        let footer = format!(
            "confirmed-oob: {} of {} static errors\n",
            self.confirmed_oob(),
            self.static_errors()
        );
        self.divergences.render_tail(&mut s, &footer);
        s
    }

    /// Flat JSON object for `dvrsim bounds-audit --json` (hand-rolled,
    /// like [`LeakAuditReport::to_json`](crate::LeakAuditReport::to_json)).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            concat!(
                "{{\"bench\":\"{}\",\"seed\":{},\"instrs\":{},",
                "\"static_errors\":{},\"static_warnings\":{},\"proven\":{},",
                "\"confirmed_oob\":{},"
            ),
            self.bench,
            self.seed,
            self.instrs,
            self.stat.errors(),
            self.stat.warnings(),
            self.stat.proven(),
            self.confirmed_oob(),
        );
        let extents_json = |s: &mut String, e: &[(usize, u64, u64)]| {
            s.push('[');
            for (i, &(pc, lo, hi)) in e.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"pc\":{pc},\"lo\":{lo},\"hi\":{hi}}}");
            }
            s.push(']');
        };
        s.push_str("\"arch\":");
        match &self.arch {
            None => s.push_str("null"),
            Some(a) => extents_json(&mut s, a),
        }
        s.push_str(",\"spec\":");
        match &self.spec {
            None => s.push_str("null"),
            Some(spec) => {
                s.push('{');
                for (i, (t, e)) in spec.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":", t.name());
                    extents_json(&mut s, e);
                }
                s.push('}');
            }
        }
        s.push(',');
        self.divergences.json_tail(&mut s);
        s
    }
}

/// Runs the full bounds audit for one workload: static verifier,
/// observed simulations under Baseline/VR/DVR, architectural replay with
/// the bounds tracker, and the diff.
pub fn bounds_audit_workload(wl: &Workload, seed: u64, instrs: u64) -> BoundsAuditReport {
    let stat = check_bounds(&wl.prog, Some(&wl.mem));
    let regions: Vec<(String, u64, u64)> = wl.prog.regions().to_vec();

    if regions.is_empty() {
        // Bounds checking is opt-in per workload: with no declared
        // footprint neither side has a claim to check.
        return BoundsAuditReport {
            bench: wl.name.clone(),
            seed,
            instrs,
            regions,
            stat,
            arch: None,
            spec: None,
            divergences: Divergences::new(Vec::new()),
        };
    }

    // Dynamic side: the observed runs' lane extents.
    let spec = observed_runs(wl, instrs).map(|(t, o)| (t, o.lanes.extents.extents()));

    // Architectural ground truth: functional replay with the same budget.
    let mut tracker = BoundsTracker::default();
    replay(wl, instrs, |step| tracker.observe(step));
    let arch = tracker.extents();

    let divergences = diff(&stat, &regions, &arch, &spec);
    BoundsAuditReport {
        bench: wl.name.clone(),
        seed,
        instrs,
        regions,
        stat,
        arch: Some(arch),
        spec: Some(spec),
        divergences,
    }
}

/// [`bounds_audit_workload`] for a registered benchmark.
pub fn bounds_audit_benchmark(
    bench: Benchmark,
    size: SizeClass,
    seed: u64,
    instrs: u64,
) -> BoundsAuditReport {
    bounds_audit_workload(&bench.build(None, size, seed), seed, instrs)
}

/// [`bounds_audit_workload`] for the secret-dependent-gather attack kernel.
pub fn bounds_audit_attack(size: SizeClass, seed: u64, instrs: u64) -> BoundsAuditReport {
    bounds_audit_workload(&gather_attack(size, seed), seed, instrs)
}

/// [`bounds_audit_workload`] for the out-of-bounds gather kernel (the
/// workload the audit exists to flag; not part of the benchmark registry).
pub fn bounds_audit_oob(size: SizeClass, seed: u64, instrs: u64) -> BoundsAuditReport {
    bounds_audit_workload(&oob_gather(size, seed), seed, instrs)
}

/// Diffs the static claims against the architectural and speculative
/// extents, classifying every disagreement.
fn diff(
    stat: &BoundsReport,
    regions: &[(String, u64, u64)],
    arch: &[(usize, u64, u64)],
    spec: &[(Technique, PcExtents); 3],
) -> Divergences<BoundsDivergenceKind, BoundsJustification> {
    let mut out = Vec::new();

    // Interval containment of an observed [lo, hi] extent: the static
    // claim covers [addr.lo, addr.hi + width - 1].
    let within_interval = |pc: usize, lo: u64, hi: u64| {
        stat.op_at(pc).map(|o| lo >= o.addr.lo && hi <= o.addr.hi.saturating_add(o.width - 1))
    };

    // Architectural soundness: every concrete access must sit inside the
    // inferred interval, and a proven op inside its proven region.
    for &(pc, lo, hi) in arch {
        match within_interval(pc, lo, hi) {
            None => out.push(Divergence {
                kind: BoundsDivergenceKind::ArchEscapedInterval,
                pc,
                detail: format!(
                    "architectural access [{lo:#x}, {hi:#x}] at a pc the analysis \
                     found unreachable"
                ),
                justification: None,
            }),
            Some(false) => {
                let o = stat.op_at(pc).expect("checked above");
                out.push(Divergence {
                    kind: BoundsDivergenceKind::ArchEscapedInterval,
                    pc,
                    detail: format!(
                        "architectural extent [{lo:#x}, {hi:#x}] outside static {} (width {})",
                        o.addr, o.width
                    ),
                    justification: None,
                });
            }
            Some(true) => {
                let o = stat.op_at(pc).expect("checked above");
                if let BoundsVerdict::Proven { region } = &o.verdict {
                    let inside = regions
                        .iter()
                        .any(|(n, base, len)| n == region && lo >= *base && hi - base < *len);
                    if !inside {
                        out.push(Divergence {
                            kind: BoundsDivergenceKind::ArchEscapedRegion,
                            pc,
                            detail: format!(
                                "architectural extent [{lo:#x}, {hi:#x}] outside proven \
                                 region {region}"
                            ),
                            justification: None,
                        });
                    }
                }
            }
        }
    }

    // Speculative extents against the static claims.
    for (t, extents) in spec {
        for &(pc, lo, hi) in extents {
            if *t == Technique::Baseline {
                out.push(Divergence {
                    kind: BoundsDivergenceKind::BaselineSpecAccess,
                    pc,
                    detail: format!("extent [{lo:#x}, {hi:#x}] under {}", t.name()),
                    justification: None,
                });
                continue;
            }
            match within_interval(pc, lo, hi) {
                Some(true) => {} // agreement
                None => out.push(Divergence {
                    kind: BoundsDivergenceKind::SpecEscapedInterval,
                    pc,
                    detail: format!(
                        "speculative extent [{lo:#x}, {hi:#x}] under {} at a pc with no \
                         static claim",
                        t.name()
                    ),
                    justification: Some(BoundsJustification::SpeculativeControl),
                }),
                Some(false) => {
                    let o = stat.op_at(pc).expect("checked above");
                    let justification = match &o.verdict {
                        BoundsVerdict::Proven { region } => regions
                            .iter()
                            .find(|(n, _, _)| n == region)
                            .and_then(|&(_, base, len)| {
                                if lo >= base && hi - base < len {
                                    Some(BoundsJustification::WithinProvenRegion)
                                } else if lo.max(base) <= hi.min(base + (len - 1)) {
                                    Some(BoundsJustification::RunaheadOvershoot)
                                } else {
                                    None
                                }
                            }),
                        BoundsVerdict::Unproven => Some(BoundsJustification::UnprovenStatically),
                        BoundsVerdict::OutOfBounds => Some(BoundsJustification::StaticallyFlagged),
                    };
                    out.push(Divergence {
                        kind: BoundsDivergenceKind::SpecEscapedInterval,
                        pc,
                        detail: format!(
                            "speculative extent [{lo:#x}, {hi:#x}] under {} outside static \
                             {} ({})",
                            t.name(),
                            o.addr,
                            o.verdict
                        ),
                        justification,
                    });
                }
            }
        }
    }

    // Static errors the dynamics never confirmed.
    for pc in error_pcs(stat) {
        if escapes(regions, pc, arch, spec) {
            continue;
        }
        let arch_ran = arch.iter().any(|&(p, _, _)| p == pc);
        let spec_ran = spec.iter().any(|(_, e)| e.iter().any(|&(p, _, _)| p == pc));
        let escalated = stat
            .op_at(pc)
            .is_some_and(|o| matches!(o.verdict, BoundsVerdict::Unproven) && o.in_spawn_chain);
        let justification = if !arch_ran && !spec_ran {
            Some(BoundsJustification::DeadDynamicPath)
        } else if escalated {
            Some(BoundsJustification::EscalatedMayAlarm)
        } else {
            None
        };
        out.push(Divergence {
            kind: BoundsDivergenceKind::OobNeverObserved,
            pc,
            detail: format!("arch-ran={arch_ran} spec-ran={spec_ran}"),
            justification,
        });
    }

    Divergences::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oob_workload_is_flagged_and_dynamically_confirmed() {
        let r = bounds_audit_oob(SizeClass::Test, 42, 60_000);
        println!("{}", r.render());
        assert!(r.static_errors() >= 2, "gather escalation + epilogue: {:?}", r.stat.diags);
        assert!(r.confirmed_oob() >= 1, "dynamics must confirm an escape:\n{}", r.render());
        assert!(r.divergences.is_clean(), "audit must explain itself:\n{}", r.render());
    }

    #[test]
    fn clean_benchmark_audit_passes_with_no_static_errors() {
        let r = bounds_audit_benchmark(Benchmark::Camel, SizeClass::Test, 42, 60_000);
        println!("{}", r.render());
        assert_eq!(r.static_errors(), 0, "{:?}", r.stat.diags);
        assert!(r.divergences.is_clean(), "{}", r.render());
        assert!(r.arch.is_some() && r.spec.is_some());
        // The baseline leg never produces speculative extents.
        let spec = r.spec.as_ref().unwrap();
        assert!(spec[0].1.is_empty(), "baseline extents: {:?}", spec[0].1);
    }

    #[test]
    fn regionless_program_short_circuits() {
        let wl = Workload {
            name: "bare".to_string(),
            prog: sim_isa::parse_program("li r1, 4096\nld8 r2, [r1 + 0]\nhalt").unwrap(),
            mem: sim_isa::SparseMemory::new(),
            description: String::new(),
            regions: vec![],
        };
        let r = bounds_audit_workload(&wl, 1, 1_000);
        assert!(r.arch.is_none() && r.spec.is_none());
        assert!(r.divergences.is_empty() && r.divergences.is_clean());
        assert!(r.render().contains("skipped"));
    }
}
