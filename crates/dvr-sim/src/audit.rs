//! The static-vs-dynamic Discovery audit.
//!
//! Closes the loop between `sim-lint`'s static DVR coverage predictor and
//! the engine's actual Discovery decisions: run the static analyzer over a
//! benchmark's program, run the simulator with DVR event tracing on, and
//! diff the two views. Every disagreement becomes a typed [`Divergence`];
//! the audit then tries to *explain* each one from the known, documented
//! gaps between the static model and the dynamics (bimodal inner-loop
//! shadowing, detector state persisting across loop invocations, data that
//! happens to stride, conditional chains). A divergence with no
//! justification is a bug in one of the two sides — the audit suite pins
//! all thirteen benchmarks at zero unexplained.

use dvr_core::PcSummary;
use sim_isa::FxHashMap;
use sim_lint::{AddrClass, CoveragePrediction, PredictedChain, SkipReason, StaticModel};
use workloads::{Benchmark, SizeClass};

use crate::audit_core::{Divergence, Divergences};
use crate::config::{SimConfig, Technique};
use crate::runner::simulate_observed;

/// The four ways static prediction and dynamic observation can disagree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DivergenceKind {
    /// Static predicted a spawn; the engine never vectorized that load.
    MissedStride,
    /// The engine vectorized a load static predicted it would not.
    SpuriousVectorization,
    /// Both agree on the chain, but the dependent-load depth differs.
    ChainDepthMismatch,
    /// The observed stride contradicts the static affine classification —
    /// the analyzer's region-disjointness (alias) assumption did not hold.
    AliasUnsound,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DivergenceKind::MissedStride => "missed-stride",
            DivergenceKind::SpuriousVectorization => "spurious-vectorization",
            DivergenceKind::ChainDepthMismatch => "chain-depth-mismatch",
            DivergenceKind::AliasUnsound => "alias-unsound",
        })
    }
}

/// A typed explanation for a divergence: a known, documented gap between
/// the static model and the engine's dynamics. Anything the audit cannot
/// justify with one of these counts as *unexplained* and fails the suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Justification {
    /// The trigger never reached detector confidence inside the ROI (too
    /// few dynamic iterations, or the region of interest ended first).
    NoTriggerInRoi,
    /// Every discovery pass on this trigger switched to a more-inner
    /// striding load before the loop closed.
    ShadowedDynamically,
    /// Discovery ran out of budget on this trigger (very long iterations).
    DiscoveryAborted,
    /// Statically shadowed by an inner loop, but the inner loop's dynamic
    /// trip count is bimodal — invocations with fewer than two iterations
    /// let the outer trigger survive discovery.
    BimodalShadow,
    /// Statically too few iterations per invocation, but the stride
    /// detector's state persists across invocations of the same loop, so
    /// confidence (and a spawn) still built up.
    WarmDetectorAcrossInvocations,
    /// A predicted detector-slot conflict did not materialize dynamically
    /// (the conflicting loads' episodes did not interleave).
    SlotConflictResolved,
    /// A statically irregular or pointer-chasing load whose *data* happened
    /// to produce a constant stride (e.g. an identity-ish index array).
    DataCoincidentStride,
    /// The traced discovery iteration took a branch path that skipped part
    /// of the static (may-analysis) chain.
    ConditionalChainPruned,
    /// The static chain depth saturated at
    /// [`MAX_CHASE_DEPTH`](sim_lint::MAX_CHASE_DEPTH) because the chain is
    /// loop-carried (`p = *p`-style), while Discovery's taint tracker only
    /// ever observes one iteration and reports the per-iteration depth.
    LoopCarriedDepthSaturated,
}

impl std::fmt::Display for Justification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Justification::NoTriggerInRoi => "no-trigger-in-roi",
            Justification::ShadowedDynamically => "shadowed-dynamically",
            Justification::DiscoveryAborted => "discovery-aborted",
            Justification::BimodalShadow => "bimodal-shadow",
            Justification::WarmDetectorAcrossInvocations => "warm-detector-across-invocations",
            Justification::SlotConflictResolved => "slot-conflict-resolved",
            Justification::DataCoincidentStride => "data-coincident-stride",
            Justification::ConditionalChainPruned => "conditional-chain-pruned",
            Justification::LoopCarriedDepthSaturated => "loop-carried-depth-saturated",
        })
    }
}

/// The audit result for one benchmark.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Benchmark name.
    pub bench: String,
    /// Input seed used for both sides.
    pub seed: u64,
    /// ROI length of the traced run.
    pub instrs: u64,
    /// Natural loops found statically.
    pub loops: usize,
    /// The static prediction.
    pub chains: Vec<PredictedChain>,
    /// Dynamic per-trigger-pc summaries, pc-sorted.
    pub dynamic: Vec<(usize, PcSummary)>,
    /// Every disagreement found, keyed by static load / trigger pc.
    pub divergences: Divergences<DivergenceKind, Justification>,
}

impl AuditReport {
    /// Deterministic multi-line report (the golden-pinned format).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let expected = self.chains.iter().filter(|c| c.expect_spawn).count();
        let _ = writeln!(
            s,
            "audit {}: {} loops, {} static roots, {} expected spawns",
            self.bench,
            self.loops,
            self.chains.len(),
            expected
        );
        let _ = writeln!(s, "static chains:");
        for c in &self.chains {
            // Exact count when the walk proved one, interval bounds when
            // only the abstract interpretation could bracket it.
            let trips = match (c.trip_count, c.trip_bounds) {
                (Some(t), _) => t.to_string(),
                (None, Some((lo, hi))) => format!("[{lo},{hi}]"),
                (None, None) => "?".to_string(),
            };
            let verdict = match &c.skip {
                None => "spawn".to_string(),
                Some(r) => format!("skip({r})"),
            };
            let _ = writeln!(
                s,
                "  pc={} stride={} depth={} deps={:?} trips={} aliases={} -> {}",
                c.stride_pc,
                c.stride,
                c.chain_depth,
                c.dependents,
                trips,
                c.alias_edges.len(),
                verdict
            );
        }
        let _ = writeln!(s, "dynamic:");
        for (pc, d) in &self.dynamic {
            let mut deps: Vec<(usize, u8)> =
                d.dep_loads.iter().map(|(&p, &dep)| (p, dep)).collect();
            deps.sort_unstable();
            let _ = writeln!(
                s,
                "  pc={pc}: disc={} chains={} spawns={} ndm={} covered={} nodep={} \
                 aborts={} sw={}/{} strides={:?} deps={:?}",
                d.discoveries,
                d.chains,
                d.spawns,
                d.nested_spawns,
                d.covered_skips,
                d.no_dep_chain,
                d.aborts,
                d.switched_away,
                d.switched_to,
                d.strides,
                deps
            );
        }
        self.divergences.render_tail(&mut s, "");
        s
    }

    /// Flat JSON object for `dvrsim audit --json` (hand-rolled, like
    /// [`SimReport::to_json`](crate::SimReport::to_json)).
    pub fn to_json(&self) -> String {
        let expected = self.chains.iter().filter(|c| c.expect_spawn).count();
        let spawned_pcs = self.dynamic.iter().filter(|(_, d)| d.spawns > 0).count();
        let mut s = format!(
            concat!(
                "{{\"bench\":\"{}\",\"seed\":{},\"instrs\":{},\"loops\":{},",
                "\"static_roots\":{},\"expected_spawns\":{},\"dynamic_spawn_pcs\":{},"
            ),
            self.bench,
            self.seed,
            self.instrs,
            self.loops,
            self.chains.len(),
            expected,
            spawned_pcs,
        );
        self.divergences.json_tail(&mut s);
        s
    }
}

/// Runs the full audit for one benchmark: static prediction, traced DVR
/// simulation, and the diff.
pub fn audit_benchmark(bench: Benchmark, size: SizeClass, seed: u64, instrs: u64) -> AuditReport {
    let wl = bench.build(None, size, seed);

    // Static side. The model sees the workload's initial memory image so
    // read-only-region content bounds (and hence trip bounds for loops
    // bounded by loaded values) are available.
    let StaticModel { loops, addr, coverage, .. } = StaticModel::build(&wl.prog, Some(&wl.mem));

    // Dynamic side.
    let sim_cfg = SimConfig::new(Technique::Dvr).with_max_instructions(instrs);
    let summary = simulate_observed(&wl, &sim_cfg).1.dvr_trace.summarize();
    let mut dynamic: Vec<(usize, PcSummary)> =
        summary.iter().map(|(&pc, s)| (pc, s.clone())).collect();
    dynamic.sort_by_key(|&(pc, _)| pc);

    let divergences = diff(&coverage, &addr, &summary);
    AuditReport {
        bench: wl.name,
        seed,
        instrs,
        loops: loops.len(),
        chains: coverage.chains,
        dynamic,
        divergences,
    }
}

/// Diffs the static prediction against the dynamic summary and classifies
/// every disagreement.
fn diff(
    prediction: &CoveragePrediction,
    addr: &sim_lint::AddrAnalysis,
    dynamic: &FxHashMap<usize, PcSummary>,
) -> Divergences<DivergenceKind, Justification> {
    let mut out = Vec::new();

    for c in &prediction.chains {
        let d = dynamic.get(&c.stride_pc);
        let spawned = d.is_some_and(|s| s.spawns > 0 || s.covered_skips > 0);
        let discovered = d.is_some_and(|s| s.discoveries > 0 || s.switched_to > 0);

        if c.expect_spawn && !spawned {
            let justification = match d {
                _ if !discovered => Some(Justification::NoTriggerInRoi),
                Some(s) if s.switched_away > 0 && s.chains == 0 => {
                    Some(Justification::ShadowedDynamically)
                }
                Some(s) if s.aborts > 0 && s.chains == 0 => Some(Justification::DiscoveryAborted),
                Some(s) if s.no_dep_chain > 0 => Some(Justification::ConditionalChainPruned),
                _ => None,
            };
            let detail = match d {
                None => "never discovered".to_string(),
                Some(s) => format!(
                    "disc={} chains={} nodep={} aborts={} sw-away={}",
                    s.discoveries, s.chains, s.no_dep_chain, s.aborts, s.switched_away
                ),
            };
            out.push(Divergence {
                kind: DivergenceKind::MissedStride,
                pc: c.stride_pc,
                detail,
                justification,
            });
        }

        if !c.expect_spawn && spawned {
            let justification = match c.skip {
                Some(SkipReason::ShadowedByInner { .. }) => Some(Justification::BimodalShadow),
                Some(SkipReason::TooFewIterations { .. }) => {
                    Some(Justification::WarmDetectorAcrossInvocations)
                }
                Some(SkipReason::DetectorSlotConflict { .. }) => {
                    Some(Justification::SlotConflictResolved)
                }
                Some(SkipReason::NoDependentLoads) | None => None,
            };
            let skip = c.skip.map(|r| r.to_string()).unwrap_or_default();
            let spawns = d.map_or(0, |s| s.spawns + s.covered_skips);
            out.push(Divergence {
                kind: DivergenceKind::SpuriousVectorization,
                pc: c.stride_pc,
                detail: format!("static skip({skip}), dynamic spawns={spawns}"),
                justification,
            });
        }

        if let Some(s) = d {
            // Depth comparison: only meaningful when both sides saw a chain.
            if s.chains > 0 && !c.dependents.is_empty() {
                let dyn_depth = s.dep_loads.values().copied().max().unwrap_or(0) as usize;
                if dyn_depth != c.chain_depth {
                    let justification = if dyn_depth >= c.chain_depth {
                        None // deeper than the static may-analysis: unsound
                    } else if c.chain_depth == sim_lint::MAX_CHASE_DEPTH {
                        Some(Justification::LoopCarriedDepthSaturated)
                    } else {
                        Some(Justification::ConditionalChainPruned)
                    };
                    out.push(Divergence {
                        kind: DivergenceKind::ChainDepthMismatch,
                        pc: c.stride_pc,
                        detail: format!("static={} dynamic={}", c.chain_depth, dyn_depth),
                        justification,
                    });
                }
            }
            // Stride comparison: the detector contradicting the static
            // affine stride means the analyzer's alias/invariance
            // assumptions broke.
            if !s.strides.is_empty() && !s.strides.contains(&c.stride) {
                out.push(Divergence {
                    kind: DivergenceKind::AliasUnsound,
                    pc: c.stride_pc,
                    detail: format!("static stride={} dynamic strides={:?}", c.stride, s.strides),
                    justification: None,
                });
            }
        }
    }

    // Dynamic triggers the static prediction has no root for.
    let mut extra: Vec<usize> = dynamic
        .iter()
        .filter(|(pc, s)| {
            (s.spawns > 0 || s.covered_skips > 0) && prediction.chain_at(**pc).is_none()
        })
        .map(|(&pc, _)| pc)
        .collect();
    extra.sort_unstable();
    for pc in extra {
        let s = &dynamic[&pc];
        let class = addr.mem_op_at(pc).map(|m| m.class);
        let justification = match class {
            Some(AddrClass::PointerChase { .. }) | Some(AddrClass::Irregular) => {
                Some(Justification::DataCoincidentStride)
            }
            _ => None,
        };
        let class_str =
            class.map(|c| c.to_string()).unwrap_or_else(|| "not-a-static-load".to_string());
        out.push(Divergence {
            kind: DivergenceKind::SpuriousVectorization,
            pc,
            detail: format!("static class {class_str}, dynamic spawns={}", s.spawns),
            justification,
        });
    }

    Divergences::new(out)
}
