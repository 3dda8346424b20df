//! Static-vs-dynamic audit tests — Discovery coverage, secret leakage and
//! bounds. Every workload's report is pinned by a golden file with zero
//! unexplained divergences; the attack kernel's gadget is confirmed under
//! both runahead engines and never under the baseline, while a secret
//! gather too short to spawn is a warning in every pass; the out-of-bounds
//! kernel is flagged statically and both escapes are confirmed
//! dynamically; recording the Discovery trace is timing-neutral — an
//! observed run's `SimReport` serializes byte-identically to a plain one
//! under every technique (the `--sanitize` convention; the taint and
//! bounds observations are checked the same way in `tests/leak_audit.rs`
//! and `tests/bounds_audit.rs`); and the three audit subcommands share
//! one argument loop.

mod common;

use std::process::Command;

use common::observe_neutrally;
use dvr_sim::sim_lint::check_bounds;
use dvr_sim::{
    audit_benchmark, bounds_audit_attack, bounds_audit_benchmark, bounds_audit_oob,
    leak_audit_attack, leak_audit_benchmark, leak_audit_workload, simulate_observed, SimConfig,
    Technique,
};
use sim_isa::SparseMemory;
use workloads::{Benchmark, SizeClass, Workload};

/// The parameters the golden files were generated under (the audit
/// subcommands' defaults).
const SIZE: SizeClass = SizeClass::Test;
const SEED: u64 = 42;
const INSTRS: u64 = 60_000;

/// Golden-file slug for a benchmark ("NAS-CG" -> "nas_cg").
fn slug(b: Benchmark) -> String {
    b.name().to_lowercase().replace('-', "_")
}

/// Compares `got` with `tests/golden/<prefix>_<slug>.txt`, or rewrites
/// that file under `BLESS=1`.
fn check_golden(prefix: &str, slug: &str, got: &str) {
    let path = format!("{}/../../tests/golden/{prefix}_{slug}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (BLESS=1 to generate)"));
    assert_eq!(got, want, "{prefix}_{slug}: report drifted; BLESS=1 to re-bless after review");
}

#[test]
fn audit_matches_golden_files_with_zero_unexplained() {
    for b in Benchmark::ALL {
        let report = audit_benchmark(b, SIZE, SEED, INSTRS);
        assert_eq!(
            report.divergences.unexplained(),
            0,
            "{}: every divergence must carry a typed justification:\n{}",
            b.name(),
            report.render()
        );
        check_golden("audit", &slug(b), &report.render());
    }
}

#[test]
fn audit_finds_real_discovery_activity() {
    // The audit is vacuous if the trace never records anything. The
    // flagship dependent-load kernels must both predict and observe
    // vectorization, and the predictions must agree.
    for b in [Benchmark::Camel, Benchmark::NasIs, Benchmark::RandomAccess] {
        let r = audit_benchmark(b, SIZE, SEED, INSTRS);
        let expected: Vec<usize> =
            r.chains.iter().filter(|c| c.expect_spawn).map(|c| c.stride_pc).collect();
        assert!(!expected.is_empty(), "{}: no static spawn roots", b.name());
        for pc in &expected {
            let spawned = r.dynamic.iter().any(|(p, d)| p == pc && d.spawns + d.covered_skips > 0);
            assert!(spawned, "{}: predicted root pc={pc} never spawned\n{}", b.name(), r.render());
        }
    }
}

#[test]
fn trace_only_attaches_to_dvr_runs() {
    // Observing a technique with no Discovery engine records no trace — a
    // no-op, not an error.
    let wl = Benchmark::Bfs.build(None, SIZE, SEED);
    let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(20_000);
    let (r, observed) = simulate_observed(&wl, &cfg);
    assert!(observed.dvr_trace.events.is_empty());
    assert!(r.core.cycles > 0);
}

#[test]
fn audit_json_is_well_formed_and_consistent() {
    let r = audit_benchmark(Benchmark::NasIs, SIZE, SEED, INSTRS);
    let json = r.to_json();
    assert!(json.starts_with("{\"bench\":\"NAS-IS\""), "{json}");
    let unexplained = r.divergences.unexplained();
    assert!(json.ends_with(&format!("\"unexplained\":{unexplained}}}")), "{json}");
    // Every divergence kind renders with its kebab-case name.
    for d in r.divergences.iter() {
        assert!(json.contains(&format!("\"kind\":\"{}\"", d.kind)), "{json}");
    }
}

#[test]
fn leak_audit_matches_golden_files_with_zero_unexplained() {
    for b in Benchmark::ALL {
        let r = leak_audit_benchmark(b, SIZE, SEED, INSTRS);
        assert_eq!(r.divergences.unexplained(), 0, "{}:\n{}", b.name(), r.render());
        // The suite's benchmarks declare no secrets, so both dynamic
        // sides short-circuit and the static pass must stay silent.
        assert!(r.gadgets.is_empty(), "{}: unexpected gadget", b.name());
        assert!(r.fills.is_none() && r.arch.is_none());
        check_golden("leak_audit", &slug(b), &r.render());
    }
    let attack = leak_audit_attack(SIZE, SEED, INSTRS);
    assert_eq!(attack.divergences.unexplained(), 0, "attack:\n{}", attack.render());
    check_golden("leak_audit", "gather_attack", &attack.render());
}

#[test]
fn attack_gadget_is_confirmed_by_vr_and_dvr_but_not_baseline() {
    let r = leak_audit_attack(SIZE, SEED, INSTRS);
    assert!(!r.gadgets.is_empty(), "static side must flag the B[S[i]] gather");
    assert_eq!(r.confirmed_gadgets(), r.gadgets.len(), "\n{}", r.render());
    let fills = r.fills.as_ref().expect("dynamic side ran");
    for (t, s) in fills {
        let total: u64 = s.per_pc.iter().map(|&(_, n, _)| n).sum();
        match t {
            Technique::Baseline => {
                assert_eq!(total, 0, "baseline recorded secret-tainted fills:\n{}", r.render())
            }
            _ => {
                assert!(total > 0, "{} recorded no secret-tainted fills:\n{}", t.name(), r.render())
            }
        }
    }
    // The architectural replay agrees: the secret is read and transmitted.
    let arch = r.arch.as_ref().expect("architectural replay ran");
    assert!(arch.secret_reads > 0 && arch.tainted_addr_accesses > 0);
    for &g in &r.gadgets {
        assert!(arch.transmit_pcs().iter().any(|&(pc, n)| pc == g && n > 0));
    }
}

#[test]
fn leak_audit_json_is_well_formed_and_consistent() {
    let r = leak_audit_attack(SIZE, SEED, INSTRS);
    let json = r.to_json();
    assert!(json.starts_with("{\"bench\":\"gather-attack\""), "{json}");
    let unexplained = r.divergences.unexplained();
    assert!(json.ends_with(&format!("\"unexplained\":{unexplained}}}")), "{json}");
    assert!(json.contains(&format!("\"confirmed_gadgets\":{}", r.confirmed_gadgets())), "{json}");
    for d in r.divergences.iter() {
        assert!(json.contains(&format!("\"kind\":\"{}\"", d.kind)), "{json}");
    }
    // A secret-free benchmark reports the skipped dynamic side as null.
    let clean = leak_audit_benchmark(Benchmark::Bfs, SIZE, SEED, INSTRS);
    assert!(clean.to_json().contains("\"fills\":null"), "{}", clean.to_json());
}

#[test]
fn gather_too_short_to_spawn_is_warned_not_a_gadget() {
    // `x = B[T[i]]` over a secret T, but the loop bound is loaded from
    // N[0] = 3: only the memory image shows the loop is too short for
    // Discovery to spawn. Every pass reads that one prediction, so the
    // gather is a warning, the bounds lint marks no spawn chain, and the
    // leak audit has nothing to explain away.
    let prog = sim_isa::parse_program(
        ".secret 8192 64
         .region T 8192 64
         .region B 16384 4096
         .region N 4096 8
         li r1, 4096
         ld8 r4, [r1 + 0]
         li r2, 0
         li r3, 8192
         li r8, 16384
         top:
         ld8 r5, [r3 + r2<<3 + 0]
         ld8 r6, [r8 + r5<<3 + 0]
         addi r2, r2, 1
         slt r7, r2, r4
         bnz r7, top
         halt",
    )
    .unwrap();
    let mut mem = SparseMemory::new();
    mem.write_u64(4096, 3);
    for k in 0..8 {
        mem.write_u64(8192 + 8 * k, 3 * k);
    }
    let wl = Workload {
        name: "short-gather".to_string(),
        prog,
        mem,
        description: "secret gather whose trip count lives in memory".to_string(),
        regions: vec![("T".into(), 8192), ("B".into(), 16384), ("N".into(), 4096)],
    };
    let r = leak_audit_workload(&wl, SEED, INSTRS);
    assert_eq!(r.gadgets, Vec::<usize>::new(), "\n{}", r.render());
    assert_eq!(r.warned, vec![6], "\n{}", r.render());
    assert_eq!(r.divergences.len(), 0, "\n{}", r.render());
    let bounds = check_bounds(&wl.prog, Some(&wl.mem));
    assert!(bounds.ops.iter().all(|o| !o.in_spawn_chain), "{:?}", bounds.ops);
}

#[test]
fn bounds_audit_matches_golden_files_with_zero_unexplained() {
    for b in Benchmark::ALL {
        let r = bounds_audit_benchmark(b, SIZE, SEED, INSTRS);
        assert_eq!(r.divergences.unexplained(), 0, "{}:\n{}", b.name(), r.render());
        assert_eq!(r.static_errors(), 0, "{}:\n{}", b.name(), r.render());
        // Every suite benchmark declares regions, so both dynamic sides
        // run and the architectural replay must stay inside the intervals.
        assert!(r.arch.is_some() && r.spec.is_some(), "{}: observation skipped", b.name());
        check_golden("bounds_audit", &slug(b), &r.render());
    }
    let attack = bounds_audit_attack(SIZE, SEED, INSTRS);
    assert_eq!(attack.divergences.unexplained(), 0, "attack:\n{}", attack.render());
    assert_eq!(attack.static_errors(), 0);
    check_golden("bounds_audit", "gather_attack", &attack.render());
}

#[test]
fn oob_kernel_is_flagged_statically_and_confirmed_dynamically() {
    let r = bounds_audit_oob(SIZE, SEED, INSTRS);
    // Static side: the unproven spawn-chain gather escalates to an error
    // and the epilogue's one-past-the-end constant load is out-of-bounds.
    assert!(r.static_errors() >= 2, "\n{}", r.render());
    // Dynamic side: every static error is observed escaping at runtime.
    assert_eq!(r.confirmed_oob(), r.static_errors(), "\n{}", r.render());
    // The two sides *agree*, so the audit itself has nothing unexplained —
    // the CLI still exits nonzero on the static errors.
    assert_eq!(r.divergences.unexplained(), 0, "\n{}", r.render());
    check_golden("bounds_audit", "oob_gather", &r.render());
}

#[test]
fn bounds_audit_json_is_well_formed_and_consistent() {
    let r = bounds_audit_oob(SIZE, SEED, INSTRS);
    let json = r.to_json();
    assert!(json.starts_with("{\"bench\":\"oob-gather\""), "{json}");
    let unexplained = r.divergences.unexplained();
    assert!(json.ends_with(&format!("\"unexplained\":{unexplained}}}")), "{json}");
    assert!(json.contains(&format!("\"confirmed_oob\":{}", r.confirmed_oob())), "{json}");
    assert!(json.contains(&format!("\"static_errors\":{}", r.static_errors())), "{json}");
    for d in r.divergences.iter() {
        assert!(json.contains(&format!("\"kind\":\"{}\"", d.kind)), "{json}");
    }
}

#[test]
fn trace_hook_is_timing_neutral() {
    // Recording the Discovery trace must observe, never perturb, under all
    // eight techniques — and must not be vacuous: Camel exercises
    // Discovery under DVR, while the baseline has nothing to observe.
    let wl = Benchmark::Camel.build(None, SizeClass::Small, SEED);
    for (t, o) in observe_neutrally(&wl) {
        let seen =
            [o.dvr_trace.events.len(), o.lanes.taint_fills.len(), o.lanes.extents.extents().len()];
        match t {
            Technique::Baseline => assert_eq!(seen, [0; 3], "baseline observed {seen:?}"),
            Technique::Dvr => assert!(seen[0] > 0, "Camel must exercise Discovery"),
            _ => {}
        }
    }
}

/// Runs the `dvrsim` binary with `args`; returns (exit code, stdout, stderr).
fn dvrsim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dvrsim")).args(args).output().expect("run dvrsim");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn audit_subcommands_share_one_argument_loop() {
    for (cmd, noun, foreign) in [
        ("audit", "benchmark", "--attack"),
        ("leak-audit", "workload", "--oob"),
        ("bounds-audit", "workload", "--bogus"),
    ] {
        // A flag the subcommand does not take is rejected by name.
        let (code, _, err) = dvrsim(&[cmd, foreign]);
        assert_eq!(code, Some(2), "{cmd} {foreign}: {err}");
        assert!(err.contains(&format!("unknown {cmd} option '{foreign}'")), "{cmd}: {err}");
        // Without a selector there is nothing to audit.
        let (code, _, err) = dvrsim(&[cmd]);
        assert_eq!(code, Some(2), "{cmd}: {err}");
        assert!(err.starts_with(&format!("error: {cmd} needs --all")), "{err}");
        // One clean benchmark passes and ends with the summary line.
        let (code, out, err) = dvrsim(&[cmd, "--bench", "NAS-IS"]);
        assert_eq!(code, Some(0), "{cmd} --bench NAS-IS: {err}\n{out}");
        let summary = out.lines().last().unwrap_or_default();
        assert!(summary.starts_with(&format!("{cmd}: 1 {noun} checked, ")), "{cmd}: {out}");
        assert!(summary.contains(" 0 unexplained"), "{cmd}: {summary}");
    }
}
