//! Typed diagnostics produced by every pass: the CFG lint, the secret-taint
//! pass and the bounds verifier report through one [`Diagnostic`] type,
//! rendered, counted and serialized here.

use std::fmt::{self, Write};

use sim_isa::Program;

use crate::loops::LoopInfo;

/// How serious a finding is.
///
/// Only [`Severity::Error`] findings make a program "fail" the lint:
/// registers are architecturally zero-initialized and unreachable code is
/// legal, so those are warnings, while a branch outside the program or a
/// loop with no exit path can never be correct.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but well-defined; the program still runs.
    Warning,
    /// The program is malformed or can never terminate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The kind of defect a diagnostic reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LintKind {
    /// A register is read on some path before any instruction writes it.
    UninitRead,
    /// A basic block no path from the entry can reach.
    UnreachableBlock,
    /// A branch or jump target past the end of the program (`== len` is a
    /// legal fall-off-the-end halt; `> len` is not).
    BadBranchTarget,
    /// A control-flow loop with no exit edge — the program can never halt.
    InfiniteLoop,
    /// A conditional branch tests a secret-tainted register.
    SecretDependentBranch,
    /// A load (or store) forms its address from a secret-tainted register.
    SecretAddressedLoad,
    /// A secret-addressed dependent load inside a Discovery chain that the
    /// coverage prediction expects VR/DVR to vectorize.
    SpeculativeGatherGadget,
    /// The access interval is disjoint from every declared region.
    OutOfBoundsAccess,
    /// The access interval cannot be proven inside one declared region.
    UnprovenBounds,
}

impl LintKind {
    /// The default severity for this kind of finding. Of the leakage
    /// transmitters only the gather gadget is an error, because it is the
    /// one the runahead engine itself amplifies.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::UninitRead
            | LintKind::UnreachableBlock
            | LintKind::SecretDependentBranch
            | LintKind::SecretAddressedLoad
            | LintKind::UnprovenBounds => Severity::Warning,
            LintKind::BadBranchTarget
            | LintKind::InfiniteLoop
            | LintKind::SpeculativeGatherGadget
            | LintKind::OutOfBoundsAccess => Severity::Error,
        }
    }

    /// Stable kebab-case name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::UninitRead => "uninit-read",
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::BadBranchTarget => "bad-branch-target",
            LintKind::InfiniteLoop => "infinite-loop",
            LintKind::SecretDependentBranch => "secret-dependent-branch",
            LintKind::SecretAddressedLoad => "secret-addressed-load",
            LintKind::SpeculativeGatherGadget => "speculative-gather-gadget",
            LintKind::OutOfBoundsAccess => "out-of-bounds-access",
            LintKind::UnprovenBounds => "unproven-bounds",
        }
    }
}

/// One finding, anchored to the program counter of the offending
/// instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// What kind of defect this is.
    pub kind: LintKind,
    /// [`LintKind::severity`], except `unproven-bounds` on a load of an
    /// expected-spawn Discovery chain, which the bounds verifier escalates
    /// to an error.
    pub severity: Severity,
    /// Program counter (instruction index) of the offending instruction.
    pub pc: usize,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(kind: LintKind, pc: usize, message: String) -> Self {
        Diagnostic { kind, severity: kind.severity(), pc, message }
    }

    /// Renders the diagnostic, pointing at the workload source line when the
    /// program was parsed from text (satellite of the assembler-diagnostics
    /// work: `Program::source_line`).
    pub fn render(&self, prog: Option<&Program>) -> String {
        let loc = match prog.and_then(|p| p.source_line(self.pc)) {
            Some(line) => format!("pc {} (line {})", self.pc, line),
            None => format!("pc {}", self.pc),
        };
        format!("{}[{}] {}: {}", self.severity, self.kind.name(), loc, self.message)
    }
}

/// Everything the analyzer found for one program.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by program counter then kind.
    pub diags: Vec<Diagnostic>,
    /// Natural loops with their Discovery-Mode conformance classification,
    /// sorted by loop-head program counter.
    pub loops: Vec<LoopInfo>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        count(&self.diags, Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        count(&self.diags, Severity::Warning)
    }

    /// Whether the program is free of error-severity findings.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Serializes the report as one flat JSON object (for `dvrsim lint
    /// --json`). Hand-rolled to keep the analyzer dependency-free.
    pub fn to_json(&self, name: &str, prog: Option<&Program>) -> String {
        let mut out = format!(
            "{{\"program\":\"{}\",\"errors\":{},\"warnings\":{},\"diags\":",
            json_str(name),
            self.errors(),
            self.warnings()
        );
        diags_json(&mut out, &self.diags, prog);
        out.push_str(",\"loops\":[");
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                concat!(
                    "{{\"head_pc\":{},\"latch_pc\":{},\"class\":\"{}\",",
                    "\"striding_loads\":{:?},\"dependent_loads\":{:?},\"stores\":{}}}"
                ),
                l.head_pc, l.latch_pc, l.class, l.striding_loads, l.dependent_loads, l.stores
            );
        }
        out.push_str("]}");
        out
    }
}

/// Number of `diags` at `severity` — the one count behind every report's
/// `errors` and `warnings`.
pub(crate) fn count(diags: &[Diagnostic], severity: Severity) -> usize {
    diags.iter().filter(|d| d.severity == severity).count()
}

/// `s` as the body of a JSON string: quotes and backslashes escaped, and
/// control characters written as `\u00XX`.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        let _ = match c {
            '"' | '\\' => write!(out, "\\{c}"),
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)),
            c => write!(out, "{c}"),
        };
    }
    out
}

/// Appends `diags` to `out` as a JSON array of finding objects — the one
/// writer behind every report's `to_json`.
pub(crate) fn diags_json(out: &mut String, diags: &[Diagnostic], prog: Option<&Program>) {
    out.push('[');
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let line = prog
            .and_then(|p| p.source_line(d.pc))
            .map_or_else(|| "null".to_string(), |l| l.to_string());
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"severity\":\"{}\",\"pc\":{},\"line\":{},\"message\":\"{}\"}}",
            d.kind.name(),
            d.severity,
            d.pc,
            line,
            json_str(&d.message)
        );
    }
    out.push(']');
}
