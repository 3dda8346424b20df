//! The static-vs-dynamic secret-leakage audit.
//!
//! Closes the loop between `sim-lint`'s secret-taint pass and the dynamic
//! taint oracle: run the static analyzer over a workload's program, run
//! observed simulations under Baseline/VR/DVR (which record every
//! secret-tainted lane fill), replay the program functionally with the
//! architectural taint tracker, and diff the three views. Every
//! disagreement becomes a typed [`Divergence`]; the audit then tries to
//! *explain* each one from the known, documented gaps between the static
//! model and the dynamics. A divergence with no justification is a bug in
//! one of the sides — the audit suite pins all thirteen (secret-free)
//! benchmarks plus the [`workloads::gather_attack`] kernel at zero
//! unexplained.
//!
//! A PASS does **not** mean "no leak": for the attack workload both sides
//! *agree* the speculative-gather gadget fires, and that agreement is what
//! passes. FAIL means the static lint and the dynamic oracle disagree.

use sim_isa::{FxHashMap, SecretTaint};
use sim_lint::{analyze_taint, LintKind};
use sim_mem::TaintFill;
use workloads::{gather_attack, Benchmark, SizeClass, Workload};

use crate::audit_core::{observed_runs, replay, Divergence, Divergences};
use crate::config::Technique;

/// The ways static leak prediction and dynamic observation can disagree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LeakDivergenceKind {
    /// Static flagged a speculative-gather gadget, but neither VR nor DVR
    /// ever filled a line through it.
    GadgetNeverFired,
    /// A runahead engine filled a line through a secret-derived address at
    /// a pc the static pass did not flag as a gadget.
    UnpredictedFill,
    /// The baseline (no-prefetch) run recorded a secret-tainted fill —
    /// structurally impossible (only runahead engines feed the log), so
    /// always unexplained.
    BaselineFill,
    /// A static gadget pc that the architectural replay never observed
    /// transmitting (no secret-tainted address ever reached it).
    GadgetNotArchitectural,
}

impl std::fmt::Display for LeakDivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LeakDivergenceKind::GadgetNeverFired => "gadget-never-fired",
            LeakDivergenceKind::UnpredictedFill => "unpredicted-fill",
            LeakDivergenceKind::BaselineFill => "baseline-fill",
            LeakDivergenceKind::GadgetNotArchitectural => "gadget-not-architectural",
        })
    }
}

/// A typed explanation for a leak [`Divergence`]: a known, documented gap
/// between the static model, the runahead dynamics, and the architectural
/// replay. Anything the audit cannot justify counts as *unexplained*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeakJustification {
    /// The runahead engine never spawned a vectorized chain inside the ROI
    /// (the DVR trace records zero spawns), so no transient gather could
    /// have happened — the gadget is real but dormant at this ROI/input.
    NoSpawnInRoi,
    /// The fill's pc carries a warning-severity static finding (a
    /// secret-addressed load) but the coverage predictor did not expect
    /// VR/DVR to vectorize it; the engine vectorized it anyway (warm
    /// detector, bimodal shadowing — the documented coverage gaps).
    CoverageUnderPredicted,
    /// The gadget sits on a path the program never executed with this
    /// input (the static pass is a may-analysis over all paths).
    DeadStaticPath,
}

impl std::fmt::Display for LeakJustification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LeakJustification::NoSpawnInRoi => "no-spawn-in-roi",
            LeakJustification::CoverageUnderPredicted => "coverage-under-predicted",
            LeakJustification::DeadStaticPath => "dead-static-path",
        })
    }
}

/// Aggregated secret-tainted fills for one technique: per transmitting pc,
/// the fill count and the number of *distinct* cache lines touched (the
/// side-channel capacity proxy).
#[derive(Clone, Debug, Default)]
pub struct FillSummary {
    /// `(pc, fills, distinct_lines)`, pc-ascending.
    pub per_pc: Vec<(usize, u64, usize)>,
}

impl FillSummary {
    fn from_log(log: &[TaintFill]) -> Self {
        let mut counts: FxHashMap<usize, (u64, FxHashMap<u64, ()>)> = FxHashMap::default();
        for f in log {
            let e = counts.entry(f.pc).or_default();
            e.0 += 1;
            e.1.insert(f.line, ());
        }
        let mut per_pc: Vec<(usize, u64, usize)> =
            counts.into_iter().map(|(pc, (n, lines))| (pc, n, lines.len())).collect();
        per_pc.sort_unstable();
        FillSummary { per_pc }
    }

    /// Total fills at `pc` (0 if the pc never transmitted).
    pub fn fills_at(&self, pc: usize) -> u64 {
        self.per_pc.iter().find(|&&(p, _, _)| p == pc).map_or(0, |&(_, n, _)| n)
    }

    fn render(&self) -> String {
        if self.per_pc.is_empty() {
            return "(none)".to_string();
        }
        self.per_pc
            .iter()
            .map(|&(pc, n, lines)| format!("pc={pc} fills={n} lines={lines}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The leak-audit result for one workload.
#[derive(Clone, Debug)]
pub struct LeakAuditReport {
    /// Workload name.
    pub bench: String,
    /// Input seed used on all sides.
    pub seed: u64,
    /// ROI length of the simulated and replayed runs.
    pub instrs: u64,
    /// Static secret-source pcs.
    pub sources: Vec<usize>,
    /// Static speculative-gather-gadget pcs (error severity).
    pub gadgets: Vec<usize>,
    /// Static warning-severity findings (transmitters the coverage
    /// predictor does not expect to vectorize), pc-ascending.
    pub warned: Vec<usize>,
    /// The architectural taint shadow after the functional replay (`None`
    /// = skipped, no secrets).
    pub arch: Option<SecretTaint>,
    /// Fill summaries per technique, `None` = dynamic side skipped
    /// because the program declares no secrets (the oracle is then
    /// structurally silent: taint seeds only from declared ranges).
    pub fills: Option<[(Technique, FillSummary); 3]>,
    /// Every disagreement found, keyed by transmitting pc.
    pub divergences: Divergences<LeakDivergenceKind, LeakJustification>,
}

impl LeakAuditReport {
    /// Whether the *dynamic oracle* confirmed at least one static gadget
    /// (a fill at a gadget pc under VR or DVR).
    pub fn confirmed_gadgets(&self) -> usize {
        let Some(fills) = &self.fills else { return 0 };
        self.gadgets
            .iter()
            .filter(|&&g| fills.iter().any(|(t, s)| *t != Technique::Baseline && s.fills_at(g) > 0))
            .count()
    }

    /// Deterministic multi-line report (the golden-pinned format).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "leak-audit {}: seed={} instrs={}", self.bench, self.seed, self.instrs);
        let _ = writeln!(
            s,
            "static: sources={:?} gadgets={:?} warned={:?}",
            self.sources, self.gadgets, self.warned
        );
        match &self.arch {
            None => {
                let _ = writeln!(s, "architectural: skipped (no secrets declared)");
            }
            Some(a) => {
                let _ = writeln!(
                    s,
                    "architectural: secret-reads={} tainted-addrs={} tainted-branches={} \
                     transmits={:?}",
                    a.secret_reads,
                    a.tainted_addr_accesses,
                    a.tainted_branches,
                    a.transmit_pcs()
                );
            }
        }
        match &self.fills {
            None => {
                let _ = writeln!(s, "dynamic: skipped (no secrets declared)");
            }
            Some(fills) => {
                for (t, f) in fills {
                    let _ = writeln!(s, "fills {}: {}", t.name(), f.render());
                }
            }
        }
        self.divergences.render_tail(&mut s, "");
        s
    }

    /// Flat JSON object for `dvrsim leak-audit --json` (hand-rolled, like
    /// [`AuditReport::to_json`](crate::AuditReport::to_json)).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            concat!(
                "{{\"bench\":\"{}\",\"seed\":{},\"instrs\":{},",
                "\"sources\":{:?},\"gadgets\":{:?},\"warned\":{:?},",
                "\"confirmed_gadgets\":{},\"fills\":"
            ),
            self.bench,
            self.seed,
            self.instrs,
            self.sources,
            self.gadgets,
            self.warned,
            self.confirmed_gadgets(),
        );
        match &self.fills {
            None => s.push_str("null"),
            Some(fills) => {
                s.push('{');
                for (i, (t, f)) in fills.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":[", t.name());
                    for (j, &(pc, n, lines)) in f.per_pc.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        let _ =
                            write!(s, "{{\"pc\":{pc},\"fills\":{n},\"distinct_lines\":{lines}}}");
                    }
                    s.push(']');
                }
                s.push('}');
            }
        }
        s.push(',');
        self.divergences.json_tail(&mut s);
        s
    }
}

/// Runs the full leak audit for one workload: static taint pass,
/// observed simulations under Baseline/VR/DVR, architectural replay, and
/// the diff.
pub fn leak_audit_workload(wl: &Workload, seed: u64, instrs: u64) -> LeakAuditReport {
    // Static side.
    let taint = analyze_taint(&wl.prog, Some(&wl.mem));
    let gadgets = taint.gadget_pcs();
    let mut warned: Vec<usize> = taint
        .leaks
        .iter()
        .filter(|d| d.kind == LintKind::SecretAddressedLoad)
        .map(|d| d.pc)
        .collect();
    warned.sort_unstable();
    warned.dedup();

    if wl.prog.secrets().is_empty() {
        // The oracle seeds taint exclusively from declared ranges, so both
        // dynamic sides are structurally silent; running them would only
        // burn cycles to confirm a tautology.
        return LeakAuditReport {
            bench: wl.name.clone(),
            seed,
            instrs,
            sources: taint.sources,
            gadgets,
            warned,
            arch: None,
            fills: None,
            divergences: Divergences::new(Vec::new()),
        };
    }

    // Dynamic side: the observed runs' lane fills. The DVR run's event
    // trace lets "never spawned" divergences be justified from evidence.
    let runs = observed_runs(wl, instrs);
    let fills = runs.each_ref().map(|(t, o)| (*t, FillSummary::from_log(&o.lanes.taint_fills)));
    let [.., (_, dvr)] = &runs;
    let dvr_spawns: u64 =
        dvr.dvr_trace.summarize().values().map(|s| s.spawns + s.nested_spawns).sum();

    // Architectural ground truth: functional replay with the same budget.
    let mut arch = SecretTaint::default();
    replay(wl, instrs, |step| arch.observe(&wl.prog, step));

    let divergences = diff(&gadgets, &warned, &arch, &fills, dvr_spawns);
    LeakAuditReport {
        bench: wl.name.clone(),
        seed,
        instrs,
        sources: taint.sources,
        gadgets,
        warned,
        arch: Some(arch),
        fills: Some(fills),
        divergences,
    }
}

/// [`leak_audit_workload`] for a registered benchmark.
pub fn leak_audit_benchmark(
    bench: Benchmark,
    size: SizeClass,
    seed: u64,
    instrs: u64,
) -> LeakAuditReport {
    leak_audit_workload(&bench.build(None, size, seed), seed, instrs)
}

/// [`leak_audit_workload`] for the secret-dependent-gather attack kernel
/// (the workload the audit exists to flag; not part of the benchmark
/// registry).
pub fn leak_audit_attack(size: SizeClass, seed: u64, instrs: u64) -> LeakAuditReport {
    leak_audit_workload(&gather_attack(size, seed), seed, instrs)
}

/// Diffs the static findings against the dynamic fill logs and the
/// architectural replay, classifying every disagreement.
fn diff(
    gadgets: &[usize],
    warned: &[usize],
    arch: &SecretTaint,
    fills: &[(Technique, FillSummary); 3],
    dvr_spawns: u64,
) -> Divergences<LeakDivergenceKind, LeakJustification> {
    let mut out = Vec::new();
    let fill_at = |t: Technique, pc: usize| {
        fills.iter().find(|&&(tt, _)| tt == t).map_or(0, |(_, s)| s.fills_at(pc))
    };

    for &g in gadgets {
        let vr = fill_at(Technique::Vr, g);
        let dvr = fill_at(Technique::Dvr, g);
        let arch_hits = arch.transmit_pcs().iter().find(|&&(p, _)| p == g).map_or(0, |&(_, n)| n);
        if vr == 0 && dvr == 0 {
            out.push(Divergence {
                kind: LeakDivergenceKind::GadgetNeverFired,
                pc: g,
                detail: format!("vr=0 dvr=0 dvr-spawns={dvr_spawns}"),
                justification: (dvr_spawns == 0).then_some(LeakJustification::NoSpawnInRoi),
            });
        }
        if arch_hits == 0 {
            out.push(Divergence {
                kind: LeakDivergenceKind::GadgetNotArchitectural,
                pc: g,
                detail: format!("vr={vr} dvr={dvr} arch=0"),
                // A dormant may-path gadget is explainable; a pc the
                // runahead engine transmitted through but the replay never
                // did contradicts the oracle itself.
                justification: (vr == 0 && dvr == 0).then_some(LeakJustification::DeadStaticPath),
            });
        }
    }

    // Fills the static pass has no gadget for.
    for &(t, ref s) in fills {
        for &(pc, n, lines) in &s.per_pc {
            if t == Technique::Baseline {
                out.push(Divergence {
                    kind: LeakDivergenceKind::BaselineFill,
                    pc,
                    detail: format!("fills={n} lines={lines} under {}", t.name()),
                    justification: None,
                });
            } else if !gadgets.contains(&pc) {
                out.push(Divergence {
                    kind: LeakDivergenceKind::UnpredictedFill,
                    pc,
                    detail: format!("fills={n} lines={lines} under {}", t.name()),
                    justification: warned
                        .contains(&pc)
                        .then_some(LeakJustification::CoverageUnderPredicted),
                });
            }
        }
    }

    Divergences::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_workload_fires_under_both_runahead_engines() {
        let r = leak_audit_attack(SizeClass::Test, 42, 60_000);
        println!("{}", r.render());
        assert_eq!(r.gadgets.len(), 1, "one static gather gadget");
        let fills = r.fills.as_ref().expect("dynamic side ran");
        let g = r.gadgets[0];
        for (t, s) in fills {
            match t {
                Technique::Baseline => {
                    assert!(s.per_pc.is_empty(), "baseline must never fill: {:?}", s.per_pc)
                }
                _ => assert!(s.fills_at(g) > 0, "{} recorded no fills at gadget pc {g}", t.name()),
            }
        }
        assert_eq!(r.confirmed_gadgets(), 1);
        assert!(r.divergences.is_clean(), "audit must explain itself:\n{}", r.render());
    }

    #[test]
    fn secret_free_benchmark_short_circuits() {
        let r = leak_audit_benchmark(Benchmark::Camel, SizeClass::Test, 42, 60_000);
        assert!(r.fills.is_none() && r.arch.is_none());
        assert!(r.gadgets.is_empty() && r.divergences.is_empty());
        assert!(r.divergences.is_clean());
        assert!(r.render().contains("dynamic: skipped"));
    }
}
