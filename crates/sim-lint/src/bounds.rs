//! Static bounds verification against declared `.region` footprints.
//!
//! Programs declare their legal memory footprint with the
//! `.region <name> <addr> <len>` directive (or
//! [`Asm::region`](sim_isa::Asm::region)); this pass asks, for every
//! reachable load and store, whether the [`StaticModel`]'s interval
//! analysis can prove the access stays inside one declared region:
//!
//! * **proven** — the address interval (widened by the access width) is
//!   contained in a single region; no diagnostic.
//! * **out-of-bounds-access** (error) — the interval is disjoint from
//!   *every* region: each execution of the instruction touches memory the
//!   workload never declared.
//! * **unproven-bounds** (warning) — the interval straddles a region
//!   boundary or is unbounded; the access *may* escape. Escalated to an
//!   error when the load belongs to a Discovery chain the coverage
//!   prediction expects to spawn, because VR/DVR will replay it dozens of
//!   lanes at a time under speculation — a statically unprovable gather is
//!   exactly the access pattern that drags speculative traffic outside the
//!   declared footprint. [`analyze_taint`](crate::analyze_taint)
//!   escalates its gather gadgets from the same model's prediction.
//!
//! Programs that declare no regions produce an empty report: bounds
//! checking is opt-in per workload, so the pass stays silent rather than
//! flagging every access of an unannotated program.

use std::fmt::{self, Write};

use sim_isa::{Instr, Program, SparseMemory};

use crate::absint::Interval;
use crate::diag::{count, diags_json, json_str, Diagnostic, LintKind, Severity};
use crate::model::StaticModel;

/// Per-memory-op verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoundsVerdict {
    /// Provably inside the named region.
    Proven {
        /// Name of the containing region.
        region: String,
    },
    /// Provably outside every declared region.
    OutOfBounds,
    /// Neither provable: the interval straddles a boundary or is unbounded.
    Unproven,
}

impl fmt::Display for BoundsVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsVerdict::Proven { region } => write!(f, "proven({region})"),
            BoundsVerdict::OutOfBounds => f.write_str("out-of-bounds"),
            BoundsVerdict::Unproven => f.write_str("unproven"),
        }
    }
}

/// The static claim for one reachable load or store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemOpBounds {
    /// Program counter of the access.
    pub pc: usize,
    /// `true` for loads, `false` for stores.
    pub is_load: bool,
    /// Access width in bytes.
    pub width: u64,
    /// Interval of the access's *start* address.
    pub addr: Interval,
    /// The verdict.
    pub verdict: BoundsVerdict,
    /// Whether the access is a load of a Discovery chain the coverage
    /// prediction expects to spawn (root or dependent).
    pub in_spawn_chain: bool,
}

/// Result of [`check_bounds`]: one [`MemOpBounds`] per reachable memory
/// instruction, plus the diagnostics for the unproven/out-of-bounds ones.
#[derive(Clone, Debug, Default)]
pub struct BoundsReport {
    /// Every reachable load/store, ascending by pc.
    pub ops: Vec<MemOpBounds>,
    /// All findings, ascending by pc.
    pub diags: Vec<Diagnostic>,
}

impl BoundsReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        count(&self.diags, Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        count(&self.diags, Severity::Warning)
    }

    /// Whether the program has no error-severity bounds findings.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Number of accesses proven inside a region.
    pub fn proven(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o.verdict, BoundsVerdict::Proven { .. })).count()
    }

    /// The claim for the access at `pc`, if it is a reachable memory op.
    pub fn op_at(&self, pc: usize) -> Option<&MemOpBounds> {
        self.ops.iter().find(|o| o.pc == pc)
    }

    /// Serializes the report as one flat JSON object (for `dvrsim lint
    /// --bounds --json`). Hand-rolled to keep the analyzer dependency-free.
    pub fn to_json(&self, name: &str, prog: Option<&Program>) -> String {
        let mut out = format!(
            "{{\"program\":\"{}\",\"errors\":{},\"warnings\":{},\"proven\":{},\"ops\":[",
            json_str(name),
            self.errors(),
            self.warnings(),
            self.proven(),
        );
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pc\":{},\"kind\":\"{}\",\"width\":{},\"lo\":{},\"hi\":{},\
                 \"verdict\":\"{}\",\"in_spawn_chain\":{}}}",
                o.pc,
                if o.is_load { "load" } else { "store" },
                o.width,
                o.addr.lo,
                o.addr.hi,
                o.verdict,
                o.in_spawn_chain,
            );
        }
        out.push_str("],\"diags\":");
        diags_json(&mut out, &self.diags, prog);
        out.push('}');
        out
    }
}

/// Runs the bounds verifier over `prog`. `mem` (the workload's initial
/// memory image) feeds read-only-region content bounds to the
/// [`StaticModel`]'s interval analysis; passing `None` weakens precision
/// but stays sound.
///
/// Programs with no `.region` declarations always produce an empty report.
pub fn check_bounds(prog: &Program, mem: Option<&SparseMemory>) -> BoundsReport {
    let instrs = prog.instrs();
    let regions = prog.regions();
    if regions.is_empty() || instrs.is_empty() {
        return BoundsReport::default();
    }
    let StaticModel { intervals, coverage, .. } = StaticModel::build(prog, mem);

    // Loads a spawned subthread would replay speculatively: the root and
    // every dependent of each expected-spawn chain.
    let mut spawn_loads: Vec<usize> = Vec::new();
    for c in coverage.expected_spawns() {
        spawn_loads.push(c.stride_pc);
        spawn_loads.extend(c.dependents.iter().map(|&(pc, _)| pc));
    }
    spawn_loads.sort_unstable();
    spawn_loads.dedup();

    let mut report = BoundsReport::default();
    for (pc, instr) in instrs.iter().enumerate() {
        let (is_load, width) = match instr {
            Instr::Load { width, .. } => (true, width.bytes()),
            Instr::Store { width, .. } => (false, width.bytes()),
            _ => continue,
        };
        // Unreachable accesses make no claim (and execute no access).
        let Some(addr_iv) = intervals.addr_interval(pc) else { continue };

        // The access covers [lo, hi + width - 1]; a wrap past the top of
        // the address space can never be proven in-bounds.
        let end = addr_iv.hi.checked_add(width - 1);
        let containing = end.and_then(|end| {
            regions
                .iter()
                .find(|&&(_, base, len)| addr_iv.lo >= base && end - base < len)
                .map(|(name, _, _)| name.clone())
        });
        let disjoint = match end {
            // Interval fully below or fully above each region: every
            // concrete address the access can take is undeclared.
            // `base + len - 1` cannot overflow: regions are validated to
            // fit in the address space and be non-empty.
            Some(end) => {
                regions.iter().all(|&(_, base, len)| end < base || addr_iv.lo > base + (len - 1))
            }
            None => false,
        };
        let in_spawn_chain = is_load && spawn_loads.binary_search(&pc).is_ok();

        let verdict = match (containing, disjoint) {
            (Some(region), _) => BoundsVerdict::Proven { region },
            (None, true) => {
                report.diags.push(Diagnostic::new(
                    LintKind::OutOfBoundsAccess,
                    pc,
                    format!(
                        "{} of address {addr_iv} (width {width}) lies outside every \
                         declared region",
                        if is_load { "load" } else { "store" },
                    ),
                ));
                BoundsVerdict::OutOfBounds
            }
            (None, false) => {
                let escalation = if in_spawn_chain {
                    "; a Discovery chain expected to spawn replays this load speculatively \
                     across a full vector of lanes"
                } else {
                    ""
                };
                let mut d = Diagnostic::new(
                    LintKind::UnprovenBounds,
                    pc,
                    format!(
                        "cannot prove {} of address {addr_iv} (width {width}) stays inside \
                         a declared region{escalation}",
                        if is_load { "load" } else { "store" },
                    ),
                );
                if in_spawn_chain {
                    d.severity = Severity::Error;
                }
                report.diags.push(d);
                BoundsVerdict::Unproven
            }
        };
        report.ops.push(MemOpBounds { pc, is_load, width, addr: addr_iv, verdict, in_spawn_chain });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::parse_program;

    #[test]
    fn no_regions_is_vacuously_empty() {
        let p = parse_program("li r1, 4096\nld8 r2, [r1 + 0]\nhalt").unwrap();
        let r = check_bounds(&p, None);
        assert!(r.ops.is_empty());
        assert!(r.diags.is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn masked_index_is_proven_inside_its_region() {
        // data is 8 words; the index is masked to [0, 7].
        let p = parse_program(
            ".region data 0x1000 64
             li r1, 0x1000
             li r2, 0
             li r3, 8
          top:
             andi r4, r2, 7
             ld8 r5, [r1 + r4<<3 + 0]
             add r6, r6, r5
             addi r2, r2, 1
             slt r7, r2, r3
             bnz r7, top
             halt",
        )
        .unwrap();
        let r = check_bounds(&p, None);
        assert!(r.is_clean());
        assert_eq!(r.warnings(), 0, "{:?}", r.diags);
        assert_eq!(r.proven(), 1);
        assert_eq!(
            r.op_at(4).unwrap().verdict,
            BoundsVerdict::Proven { region: "data".to_string() }
        );
    }

    #[test]
    fn constant_access_past_the_end_is_an_error() {
        let p = parse_program(
            ".region data 0x1000 64
             li r1, 0x1040
             ld8 r2, [r1 + 0]
             halt",
        )
        .unwrap();
        let r = check_bounds(&p, None);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.diags[0].kind, LintKind::OutOfBoundsAccess);
        assert_eq!(r.diags[0].pc, 1);
        assert_eq!(r.op_at(1).unwrap().verdict, BoundsVerdict::OutOfBounds);
    }

    #[test]
    fn straddling_access_is_an_unproven_warning() {
        // Mask allows [0, 15] but the region holds 8 words: indices 8..=15
        // escape, 0..=7 do not — neither proven nor disjoint. Straight-line
        // code (no loop), so no Discovery chain escalates it.
        let p = parse_program(
            ".region data 0x1000 64
             .region scratch 0x2000 8
             li r1, 0x1000
             li r2, 0x2000
             ld8 r3, [r2 + 0]
             andi r3, r3, 15
             ld8 r4, [r1 + r3<<3 + 0]
             halt",
        )
        .unwrap();
        let r = check_bounds(&p, None);
        assert!(r.is_clean(), "warning only: {:?}", r.diags);
        assert_eq!(r.warnings(), 1, "{:?}", r.diags);
        let d = r.diags.iter().find(|d| d.pc == 4).unwrap();
        assert_eq!(d.kind, LintKind::UnprovenBounds);
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn unproven_gather_in_spawn_chain_escalates_to_error() {
        // Striding load feeds a dependent gather whose index bound (from
        // the region's content) exceeds the table region — the oob_gather
        // shape. The chain is expected to spawn, so the warning escalates.
        let p = parse_program(
            ".region idx 0x1000 64
             .region table 0x2000 64
             li r1, 0x1000
             li r2, 0x2000
             li r3, 0
             li r4, 8
          top:
             ld8 r5, [r1 + r3<<3 + 0]
             ld8 r6, [r2 + r5<<3 + 0]
             xor r7, r7, r6
             addi r3, r3, 1
             slt r8, r3, r4
             bnz r8, top
             halt",
        )
        .unwrap();
        // Index values 0..16: half of them land past table's 8 words.
        let mut mem = sim_isa::SparseMemory::new();
        for k in 0..8u64 {
            mem.write_u64(0x1000 + 8 * k, 2 * k);
        }
        let r = check_bounds(&p, Some(&mem));
        assert!(!r.is_clean());
        let d = r.diags.iter().find(|d| d.pc == 5).expect("gather flagged");
        assert_eq!(d.kind, LintKind::UnprovenBounds);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("Discovery chain"), "{}", d.message);
        assert!(r.op_at(5).unwrap().in_spawn_chain);
        // The striding root itself is proven.
        assert_eq!(r.op_at(4).unwrap().verdict, BoundsVerdict::Proven { region: "idx".into() });
    }

    #[test]
    fn json_shape_is_stable() {
        let p = parse_program(
            ".region data 0x1000 64
             li r1, 0x1040
             ld8 r2, [r1 + 0]
             halt",
        )
        .unwrap();
        let r = check_bounds(&p, None);
        let j = r.to_json("t", Some(&p));
        assert!(j.contains("\"program\":\"t\""), "{j}");
        assert!(j.contains("\"verdict\":\"out-of-bounds\""), "{j}");
        assert!(j.contains("\"kind\":\"out-of-bounds-access\""), "{j}");
        // A TAB and a quote in the name (a `--asm` path) stay valid JSON.
        let j = r.to_json("a\tb\"c", Some(&p));
        assert!(j.contains(r#""program":"a\u0009b\"c""#), "{j}");
    }
}
