//! Multi-programmed mix integration tests: the scheduler-driven multi-core
//! path against the single-core golden path, determinism across re-runs,
//! and contention sanity under a shared L3/DRAM.

use dvr_sim::{
    evaluate_mix, simulate, simulate_mix, FaultConfig, MixSpec, SimConfig, SimReport, Technique,
};
use workloads::SizeClass;

/// A 1-core mix is the single-core simulation on the scheduler: every
/// deterministic field of its per-core report must match `simulate` on a
/// private hierarchy byte-for-byte (a 1-core "shared" L3 is private), and
/// so must the sanitizer ledger. Besides the plain run this covers a
/// sanitized one and one whose dropped responses end it in a deadlock
/// under OoO.
#[test]
fn one_core_mix_matches_the_single_core_golden_path() {
    let drops = FaultConfig { seed: 3, drop_demand_1_in: 50, ..FaultConfig::default() };
    for technique in [Technique::Baseline, Technique::Dvr, Technique::Vr] {
        let plain = SimConfig::new(technique).with_max_instructions(20_000);
        let configs = [
            ("plain", plain),
            ("sanitize", plain.with_sanitize(true)),
            ("drop", plain.with_faults(drops).with_watchdog_cycles(5_000)),
        ];
        for (what, base) in configs {
            let label = format!("{technique:?}, {what}");
            let spec = MixSpec::round_robin(1, technique);
            let mix = simulate_mix(&spec, SizeClass::Test, 3, &base);
            let wl = spec.cores[0].bench.build(spec.cores[0].input, SizeClass::Test, 3);
            let mut solo = simulate(&wl, &base);
            solo.host_seconds = 0.0;
            assert_eq!(
                mix.cores[0].to_json(),
                solo.to_json(),
                "1-core mix must be byte-identical to simulate() ({label})"
            );
            assert_eq!(mix.cycles, solo.core.cycles, "{label}");
            let ledger = |r: &SimReport| r.sanitizer.as_ref().map(|s| (s.checks, s.violations));
            assert_eq!(ledger(&mix.cores[0]), ledger(&solo), "{label}");
            assert_eq!(ledger(&solo).is_some(), what == "sanitize", "{label}");
            if what == "drop" && technique == Technique::Baseline {
                assert_eq!(solo.outcome.kind(), "deadlock", "{label}");
            }
        }
    }
}

#[test]
fn mix_reports_are_byte_identical_across_reruns() {
    let spec = MixSpec::parse("bfs/UR:dvr,NAS-IS:ooo", Technique::Baseline).unwrap();
    let base = SimConfig::new(Technique::Baseline).with_max_instructions(15_000);
    let a = simulate_mix(&spec, SizeClass::Test, 11, &base);
    let b = simulate_mix(&spec, SizeClass::Test, 11, &base);
    assert_eq!(a.to_json(), b.to_json());
}

/// Under a capacity-constrained shared L3, co-runners with different access
/// patterns evict each other's lines and queue behind each other's DRAM
/// requests, so each core runs slower than solo — and the contention
/// counters must account for every core's traffic coherently.
///
/// (With a Table 1-sized L3 and cache-resident test inputs, a core can even
/// come out marginally *faster*: mixes share one physical line space, so a
/// co-runner's fills can hit — the `cross_core_hits` counter. The tiny L3
/// here makes destructive interference dominate deterministically.)
#[test]
fn two_core_contention_slows_cores_and_is_accounted() {
    let spec = MixSpec::parse("pr:ooo,RandomAccess:ooo", Technique::Baseline).unwrap();
    let mut base = SimConfig::new(Technique::Baseline).with_max_instructions(15_000);
    base.hierarchy.l3.size_bytes = 16 * 1024;
    let mix = simulate_mix(&spec, SizeClass::Test, 5, &base);
    let solo: Vec<_> = spec
        .cores
        .iter()
        .map(|c| {
            let wl = c.bench.build(c.input, SizeClass::Test, 5);
            simulate(&wl, &base)
        })
        .collect();
    for (m, s) in mix.cores.iter().zip(&solo) {
        assert!(m.outcome.is_complete(), "{:?}", m.outcome);
        assert!(
            m.core.cycles >= s.core.cycles,
            "contention cannot speed a core up: mix {} vs solo {} ({})",
            m.core.cycles,
            s.core.cycles,
            m.workload
        );
    }
    let eval = evaluate_mix(&mix, &solo);
    assert_eq!(eval.slowdowns.len(), 2);
    assert!(eval.slowdowns.iter().all(|&s| s >= 1.0 - 1e-9), "{:?}", eval.slowdowns);
    assert!(eval.throughput > 0.0 && eval.throughput <= 2.0 + 1e-9, "{}", eval.throughput);
    assert!(eval.fairness >= 1.0 - 1e-9, "{}", eval.fairness);
    // Shared-side accounting: each core issued DRAM reads, and the shared
    // per-core counters agree with the private MemStats totals.
    for (m, sh) in mix.cores.iter().zip(&mix.shared) {
        assert_eq!(sh.dram_reads, m.mem.dram_reads(), "{}", m.workload);
        assert!(sh.l3_fills > 0, "{}", m.workload);
    }
}

/// The provenance invariant extends to the shared L3: a sanitized 2-core
/// mix (with cross-core prefetch traffic from DVR) must come back clean,
/// on every core and on the shared-LLC sweeper.
#[test]
fn sanitized_two_core_mix_is_clean() {
    let spec = MixSpec::parse("bfs/UR:dvr,Camel:dvr", Technique::Dvr).unwrap();
    let base = SimConfig::new(Technique::Dvr).with_max_instructions(15_000).with_sanitize(true);
    let mix = simulate_mix(&spec, SizeClass::Test, 9, &base);
    for r in &mix.cores {
        let san = r.sanitizer.as_ref().expect("per-core ledger attached");
        assert!(san.is_clean(), "{}: {}", r.workload, san.summary());
        assert!(san.checks > 0);
    }
    let shared = mix.shared_sanitizer.as_ref().expect("shared ledger attached");
    assert!(shared.is_clean(), "{}", shared.summary());
    assert!(shared.checks > 0, "sweeper must have run");
    // Sanitizing is timing-neutral in the mix too.
    let plain = simulate_mix(&spec, SizeClass::Test, 9, &base.with_sanitize(false));
    assert_eq!(plain.to_json(), mix.to_json());
}

#[test]
fn mix_scales_to_four_cores_deterministically() {
    let spec = MixSpec::round_robin(4, Technique::Dvr);
    let base = SimConfig::new(Technique::Dvr).with_max_instructions(10_000);
    let a = simulate_mix(&spec, SizeClass::Test, 1, &base);
    assert_eq!(a.cores.len(), 4);
    assert!(a.cores.iter().all(|r| r.outcome.is_complete()));
    assert!(a.aggregate_ipc > 0.0);
    let b = simulate_mix(&spec, SizeClass::Test, 1, &base);
    assert_eq!(a.to_json(), b.to_json());
}
