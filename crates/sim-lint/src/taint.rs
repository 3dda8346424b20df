//! Forward secret-taint information flow.
//!
//! Programs declare secret memory with the `.secret <addr> <len>` directive
//! (or [`Asm::secret`](sim_isa::Asm::secret)); this pass propagates a taint
//! lattice forward over the reaching-definitions graph and reports every
//! *transmitter* — an instruction whose execution would modulate a
//! micro-architectural channel with a secret-derived value:
//!
//! * **secret-dependent-branch** (warning) — a conditional branch whose
//!   condition register carries taint; leaks one bit per execution through
//!   the branch predictor / fetch stream.
//! * **secret-addressed-load** (warning) — a load or store whose *address*
//!   registers carry taint; leaks through the cache-line it touches.
//! * **speculative-gather-gadget** (error, the highest severity) — a
//!   secret-addressed load that is *also* a dependent load of a Discovery
//!   chain the [`StaticModel`]'s coverage prediction expects to spawn:
//!   VR/DVR will gather it dozens of lanes at a time under speculation,
//!   with no architectural instruction ever touching the secret-indexed
//!   line (the attack class of Karuppanan & Mirbagher Ajorpaz).
//!
//! The lattice is a plain may-taint bit per definition site, seeded at
//! loads that provably read a declared secret range (via the address pass's
//! constant `region_base`) and closed under ALU flow, load-value flow, and
//! store→load flow at region granularity (a store of a tainted value to a
//! statically named region marks every later load of that region tainted).
//! Like every static pass here it *under*-approximates: a load whose base
//! register is not statically constant is never considered a secret source
//! — the dynamic taint oracle (`dvrsim leak-audit`) exists to catch what
//! this pass cannot see.

use sim_isa::{Instr, Program, Reg, SparseMemory};

use crate::dfg::{const_use, DefUseGraph};
use crate::diag::{count, diags_json, json_str, Diagnostic, LintKind, Severity};
use crate::model::StaticModel;

/// Result of [`analyze_taint`].
#[derive(Clone, Debug, Default)]
pub struct TaintReport {
    /// All findings, sorted by program counter then kind.
    pub leaks: Vec<Diagnostic>,
    /// Definition sites (pcs) whose value may carry secret taint, ascending.
    pub tainted_defs: Vec<usize>,
    /// The secret-source loads (pcs that provably read a declared secret
    /// range), ascending.
    pub sources: Vec<usize>,
}

impl TaintReport {
    /// Number of error-severity findings (gather gadgets).
    pub fn errors(&self) -> usize {
        count(&self.leaks, Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        count(&self.leaks, Severity::Warning)
    }

    /// Whether the program has no speculative gather gadgets.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Pcs of the speculative-gather-gadget findings, ascending.
    pub fn gadget_pcs(&self) -> Vec<usize> {
        self.leaks
            .iter()
            .filter(|d| d.kind == LintKind::SpeculativeGatherGadget)
            .map(|d| d.pc)
            .collect()
    }

    /// Serializes the report as one flat JSON object (for `dvrsim
    /// lint-taint --json`). Hand-rolled to keep the analyzer
    /// dependency-free.
    pub fn to_json(&self, name: &str, prog: Option<&Program>) -> String {
        let mut out = format!(
            "{{\"program\":\"{}\",\"gadgets\":{},\"warnings\":{},\"sources\":{:?},\
             \"tainted_defs\":{:?},\"leaks\":",
            json_str(name),
            self.errors(),
            self.warnings(),
            self.sources,
            self.tainted_defs,
        );
        diags_json(&mut out, &self.leaks, prog);
        out.push('}');
        out
    }
}

/// Whether the read of `reg` at `pc` may observe a tainted definition.
fn use_tainted(dfg: &DefUseGraph, tainted: &[bool], pc: usize, reg: Reg) -> bool {
    dfg.defs_for_use(pc, reg).is_some_and(|defs| defs.pcs.iter().any(|&d| tainted[d]))
}

/// The statically named region a memory access targets: the constant value
/// of its base register plus the constant offset, when provable. With the
/// workload `Layout` convention this is the region's base address.
fn static_region(
    dfg: &DefUseGraph,
    known: &[Option<u64>],
    pc: usize,
    addr: &sim_isa::MemAddr,
) -> Option<u64> {
    const_use(dfg, known, pc, addr.base).map(|b| b.wrapping_add(addr.offset as u64))
}

/// Runs the secret-taint pass over `prog`. `mem` (the workload's initial
/// memory image) reaches the coverage prediction through the
/// [`StaticModel`], so a loop whose bound is read from memory escalates
/// exactly as [`check_bounds`](crate::check_bounds) and the Discovery
/// audit predict; passing `None` weakens precision but stays sound.
///
/// Programs with no `.secret` declarations always produce an empty report.
pub fn analyze_taint(prog: &Program, mem: Option<&SparseMemory>) -> TaintReport {
    let instrs = prog.instrs();
    if prog.secrets().is_empty() || instrs.is_empty() {
        return TaintReport::default();
    }
    let StaticModel { dfg, addr, coverage, .. } = StaticModel::build(prog, mem);

    // May-taint bit per definition site, plus the set of region bases that
    // tainted stores have written. Both grow monotonically, so the nested
    // fixed point terminates; the round cap is defensive.
    let mut tainted = vec![false; instrs.len()];
    let mut tainted_regions: Vec<u64> = Vec::new();
    let mut sources: Vec<usize> = Vec::new();
    let max_rounds = 2 * instrs.len() + 2;
    for _ in 0..max_rounds {
        let mut changed = false;
        for (pc, instr) in instrs.iter().enumerate() {
            match *instr {
                Instr::Load { addr: a, .. } if !tainted[pc] => {
                    let region = static_region(&dfg, &addr.known, pc, &a);
                    let reads_secret = region.is_some_and(|r| prog.is_secret_addr(r));
                    let reads_tainted_region = region.is_some_and(|r| tainted_regions.contains(&r));
                    // A load's value is tainted when it reads secret (or
                    // secret-written) memory, or when its address already
                    // carries taint (the loaded value is then
                    // secret-selected).
                    let addr_tainted = a.regs().any(|r| use_tainted(&dfg, &tainted, pc, r));
                    if reads_secret && !sources.contains(&pc) {
                        sources.push(pc);
                    }
                    if reads_secret || reads_tainted_region || addr_tainted {
                        tainted[pc] = true;
                        changed = true;
                    }
                }
                Instr::Store { rs, addr: a, .. } if use_tainted(&dfg, &tainted, pc, rs) => {
                    if let Some(r) = static_region(&dfg, &addr.known, pc, &a) {
                        if !tainted_regions.contains(&r) {
                            tainted_regions.push(r);
                            changed = true;
                        }
                    }
                }
                Instr::Alu { .. } | Instr::AluImm { .. }
                    if !tainted[pc] && instr.srcs().any(|r| use_tainted(&dfg, &tainted, pc, r)) =>
                {
                    tainted[pc] = true;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Transmitters.
    let mut leaks = Vec::new();
    for (pc, instr) in instrs.iter().enumerate() {
        match *instr {
            Instr::Branch { rs, .. } if use_tainted(&dfg, &tainted, pc, rs) => {
                leaks.push(Diagnostic::new(
                    LintKind::SecretDependentBranch,
                    pc,
                    "branch condition carries secret taint (control channel)".to_string(),
                ));
            }
            Instr::Load { addr: a, .. } | Instr::Store { addr: a, .. } => {
                if !a.regs().any(|r| use_tainted(&dfg, &tainted, pc, r)) {
                    continue;
                }
                let what = if instr.is_store() { "store" } else { "load" };
                // A secret-addressed dependent load of a chain the engine
                // is predicted to spawn from is the gather gadget.
                let gadget = coverage
                    .chains
                    .iter()
                    .find(|c| c.expect_spawn && c.dependents.iter().any(|&(dpc, _)| dpc == pc));
                match gadget {
                    Some(c) => leaks.push(Diagnostic::new(
                        LintKind::SpeculativeGatherGadget,
                        pc,
                        format!(
                            "secret-addressed {what} is a dependent load of the Discovery \
                             chain rooted at pc {} (stride {:+}): VR/DVR will gather it \
                             speculatively",
                            c.stride_pc, c.stride
                        ),
                    )),
                    None => leaks.push(Diagnostic::new(
                        LintKind::SecretAddressedLoad,
                        pc,
                        format!("{what} address carries secret taint (cache channel)"),
                    )),
                }
            }
            _ => {}
        }
    }

    leaks.sort_by_key(|d| (d.pc, d.kind));
    sources.sort_unstable();
    let tainted_defs = (0..instrs.len()).filter(|&pc| tainted[pc]).collect();
    TaintReport { leaks, tainted_defs, sources }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::parse_program;

    fn taint(text: &str) -> TaintReport {
        analyze_taint(&parse_program(text).unwrap(), None)
    }

    /// `x = B[S[i]]` over a declared-secret S with enough iterations for
    /// Discovery to spawn.
    const GATHER: &str = "\
        .secret 0x1000 0x2000
        li r1, 0x1000
        li r2, 0x8000
        li r3, 0
        li r4, 1000
        top:
        ld8 r5, [r1 + r3<<3 + 0]
        ld8 r6, [r2 + r5<<3 + 0]
        addi r3, r3, 1
        slt r7, r3, r4
        bnz r7, top
        halt";

    #[test]
    fn no_secrets_no_findings() {
        let r = taint(
            "li r1, 4096\nli r2, 8192\nli r3, 0\nli r4, 1000\ntop:\n\
             ld8 r5, [r1 + r3<<3 + 0]\nld8 r6, [r2 + r5<<3 + 0]\n\
             addi r3, r3, 1\nslt r7, r3, r4\nbnz r7, top\nhalt",
        );
        assert!(r.leaks.is_empty());
        assert!(r.tainted_defs.is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn gather_over_secret_index_is_a_gadget() {
        let r = taint(GATHER);
        assert_eq!(r.sources, vec![4], "the S[i] load reads the secret range");
        assert_eq!(r.gadget_pcs(), vec![5], "the B[S[i]] load is the gadget");
        assert_eq!(r.errors(), 1);
        assert!(!r.is_clean());
        let d = r.leaks.iter().find(|d| d.kind == LintKind::SpeculativeGatherGadget).unwrap();
        assert!(d.message.contains("rooted at pc 4"), "{}", d.message);
        assert!(d.render(None).starts_with("error[speculative-gather-gadget] pc 5"));
    }

    #[test]
    fn short_loop_downgrades_gadget_to_plain_transmitter() {
        // Same shape, but only 3 iterations: Discovery never spawns, so the
        // dependent load is a warning-severity transmitter, not a gadget.
        let r = taint(&GATHER.replace("li r4, 1000", "li r4, 3"));
        assert_eq!(r.gadget_pcs(), Vec::<usize>::new());
        assert_eq!(r.errors(), 0);
        let d = r.leaks.iter().find(|d| d.pc == 5).unwrap();
        assert_eq!(d.kind, LintKind::SecretAddressedLoad);
    }

    #[test]
    fn secret_dependent_branch_is_flagged() {
        let r = taint(
            ".secret 0x1000 8\n\
             li r1, 0x1000\nld8 r2, [r1 + 0]\nbnz r2, @4\nnop\nhalt",
        );
        assert!(r.leaks.iter().any(|d| d.kind == LintKind::SecretDependentBranch && d.pc == 2));
        assert!(r.is_clean(), "a branch alone is not a gadget");
    }

    #[test]
    fn taint_flows_through_alu_and_memory() {
        // Secret loaded, masked, stored to a scratch region, reloaded, and
        // used as an index: the final load is still secret-addressed.
        let r = taint(
            ".secret 0x1000 8\n\
             li r1, 0x1000\nli r8, 0x4000\nli r9, 0x8000\n\
             ld8 r2, [r1 + 0]\nandi r3, r2, 255\nst8 r3, [r8 + 0]\n\
             ld8 r4, [r8 + 0]\nld8 r5, [r9 + r4<<3 + 0]\nhalt",
        );
        assert!(r.tainted_defs.contains(&6), "reload of secret-written region is tainted");
        assert!(r.leaks.iter().any(|d| d.kind == LintKind::SecretAddressedLoad && d.pc == 7));
    }

    #[test]
    fn untainted_programs_with_secrets_stay_quiet() {
        // A secret is declared but never read: nothing to report.
        let r = taint(".secret 0x1000 8\nli r1, 0x2000\nld8 r2, [r1 + 0]\nhalt");
        assert!(r.leaks.is_empty());
        assert!(r.sources.is_empty());
    }

    #[test]
    fn gather_attack_workload_is_flagged_as_gadget() {
        let wl = workloads::gather_attack(workloads::SizeClass::Test, 42);
        let r = analyze_taint(&wl.prog, Some(&wl.mem));
        assert!(!r.sources.is_empty(), "the striding S[i] load is a provable secret source");
        assert!(!r.is_clean(), "B[S[i]] must be an error-severity gadget");
        assert_eq!(r.gadget_pcs().len(), 1, "exactly one gather gadget: the B[S[i]] load");
        let benign = workloads::Benchmark::Camel.build(None, workloads::SizeClass::Test, 42);
        assert!(
            analyze_taint(&benign.prog, Some(&benign.mem)).leaks.is_empty(),
            "no secrets declared, no report"
        );
    }
}
