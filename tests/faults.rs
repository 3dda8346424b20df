//! Fault-injection and watchdog test suite: proves the simulator degrades
//! gracefully under injected memory-system faults, that reports stay
//! well-formed on every failure path, and that prefetch-path faults are
//! timing-only (architectural state and committed counts are bit-identical
//! to a fault-free run).

use dvr_sim::{
    parallel_map, simulate, DvrEngine, FaultConfig, FaultKind, HierarchyConfig, MemoryHierarchy,
    OooCore, RunOutcome, SimConfig, SimError, Technique,
};
use workloads::{Benchmark, GraphInput, SizeClass};

/// Dropping every demand-miss response wedges the ROB head; the watchdog
/// must fire with a snapshot that names the stuck state.
#[test]
fn watchdog_fires_on_a_dropped_response_with_a_diagnostic_snapshot() {
    let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
    let cfg = SimConfig::new(Technique::Baseline)
        .with_max_instructions(100_000)
        .with_faults(FaultConfig::seeded(9).with_drop(1))
        .with_watchdog_cycles(20_000);
    let r = simulate(&wl, &cfg);
    match &r.outcome {
        RunOutcome::Failed(SimError::Deadlock(snap)) => {
            assert!(snap.cycle >= 20_000, "watchdog threshold respected: {snap:?}");
            assert!(snap.cycle - snap.last_commit_cycle >= 20_000);
            assert!(snap.rob_len > 0, "a wedged run has ROB entries: {snap:?}");
            assert!(snap.mshrs_in_use >= 1, "the dropped miss holds its MSHR: {snap:?}");
            let shown = format!("{}", SimError::Deadlock(snap.clone()));
            assert!(shown.contains("deadlock"), "{shown}");
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert_eq!(r.outcome.kind(), "deadlock");
    assert!(r.mem.injected_drops >= 1, "the drop must be accounted");
    // The report is still fully populated and serializable.
    let j = r.to_json();
    assert!(j.contains("\"outcome\":\"deadlock\""), "{j}");
    assert!(j.starts_with('{') && j.ends_with('}'));
}

/// A dropped response holds its MSHR until the run stops, and no longer:
/// MLP stays within the MSHR count instead of charging the entry to its
/// never-completing end.
#[test]
fn dropped_responses_charge_mlp_only_until_the_run_stops() {
    let wl = Benchmark::Hj8.build(None, SizeClass::Test, 42);
    let cfg = SimConfig::new(Technique::Baseline)
        .with_max_instructions(20_000)
        .with_faults(FaultConfig::seeded(3).with_drop(50))
        .with_watchdog_cycles(5_000);
    let r = simulate(&wl, &cfg);
    assert_eq!(r.outcome.kind(), "deadlock", "{:?}", r.outcome);
    assert!(r.mem.injected_drops >= 1, "the drop must be accounted");
    let mshrs = cfg.hierarchy.mshrs as f64;
    assert!(r.mlp > 0.0 && r.mlp <= mshrs, "mlp {} outside (0, {mshrs}]", r.mlp);
}

/// With the watchdog off, a dropped response still ends the run: the idle
/// span after it never ends, so the core reports a deadlock where the span
/// starts instead of jumping to the never-completing cycle. A sanitized
/// run, which steps every cycle, stops at the same cycle.
#[test]
fn a_wedged_run_with_the_watchdog_off_is_a_deadlock() {
    let wl = Benchmark::NasIs.build(None, SizeClass::Test, 42);
    let cfg = SimConfig::new(Technique::Baseline)
        .with_max_instructions(20_000)
        .with_faults(FaultConfig::seeded(1).with_drop(1))
        .with_watchdog_cycles(0);
    let snapshot = |sanitize: bool| {
        let r = simulate(&wl, &cfg.with_sanitize(sanitize));
        let RunOutcome::Failed(SimError::Deadlock(snap)) = &r.outcome else {
            panic!("expected a deadlock, got {:?}", r.outcome);
        };
        assert_eq!(r.core.cycles, snap.cycle, "the run stops where the wedge starts");
        assert!(r.to_json().contains("\"outcome\":\"deadlock\""));
        if let Some(ledger) = &r.sanitizer {
            assert!(ledger.is_clean(), "{} {:?}", ledger.summary(), ledger.first);
        }
        snap.clone()
    };
    let plain = snapshot(false);
    assert!(plain.cycle < 1_000_000, "no jump towards the never-completing cycle: {plain:?}");
    assert!(plain.rob_len > 0 && plain.mshrs_in_use >= 1, "{plain:?}");
    assert_eq!(snapshot(true), plain, "stepping and skipping stop at the same wedge");
}

/// A fatal injected fault surfaces as a typed error with the faulting
/// line, and partial statistics remain coherent.
#[test]
fn fatal_fault_fails_the_run_with_the_fault_event() {
    let wl = Benchmark::NasIs.build(None, SizeClass::Test, 1);
    let cfg = SimConfig::new(Technique::Baseline)
        .with_max_instructions(100_000)
        .with_faults(FaultConfig::seeded(3).with_fatal_at(50));
    let r = simulate(&wl, &cfg);
    match r.outcome.error() {
        Some(SimError::InjectedFault(ev)) => {
            assert_eq!(ev.kind, FaultKind::Fatal);
            assert!(ev.cycle > 0);
        }
        other => panic!("expected an injected fault, got {other:?}"),
    }
    assert_eq!(r.mem.injected_fatal, 1);
    assert!(r.core.committed > 0, "partial progress up to the fault is reported");
    assert!(r.core.committed < 100_000, "the fault cut the run short");
}

/// Poisoned (dropped) prefetches are timing-only by construction: the
/// committed instruction count and the final architectural memory state
/// must be bit-identical to a fault-free run.
#[test]
fn prefetch_faults_never_change_architectural_state() {
    let wl = Benchmark::Camel.build(None, SizeClass::Test, 3);
    let run = |fault: Option<FaultConfig>| {
        let mut mem = wl.mem.clone();
        let mut hier =
            MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
        let mut core = OooCore::new(dvr_sim::CoreConfig::default());
        let mut engine = DvrEngine::new(dvr_sim::DvrConfig::default());
        let stats =
            *core.run(&wl.prog, &mut mem, &mut hier, &mut engine, 50_000).expect("run completes");
        (stats.committed, mem.checksum(), hier.stats().injected_poisons)
    };
    let (clean_committed, clean_checksum, zero_poisons) = run(None);
    assert_eq!(zero_poisons, 0);
    // Poison every other prefetch: aggressive enough to matter.
    let (committed, checksum, poisons) = run(Some(FaultConfig::seeded(11).with_poison(2)));
    assert!(poisons > 0, "the workload must actually issue prefetches for this test to bite");
    assert_eq!(committed, clean_committed, "poison must not change committed counts");
    assert_eq!(checksum, clean_checksum, "poison must not change architectural state");
}

/// DRAM delay faults are also timing-only: the run completes, slower, with
/// identical architectural results.
#[test]
fn delay_faults_slow_the_run_but_complete_it() {
    let wl = Benchmark::NasIs.build(None, SizeClass::Test, 2);
    let base_cfg = SimConfig::new(Technique::Baseline).with_max_instructions(30_000);
    let clean = simulate(&wl, &base_cfg);
    let delayed = simulate(&wl, &base_cfg.with_faults(FaultConfig::seeded(5).with_delay(2, 3_000)));
    assert!(clean.outcome.is_complete());
    assert!(delayed.outcome.is_complete(), "{:?}", delayed.outcome);
    assert!(delayed.mem.injected_delays > 0, "delays must fire");
    assert_eq!(delayed.core.committed, clean.core.committed);
    assert!(
        delayed.core.cycles > clean.core.cycles,
        "3000-cycle delays must cost time: {} vs {}",
        delayed.core.cycles,
        clean.core.cycles
    );
}

/// Fault injection is seeded and per-run: the same seed produces
/// byte-identical reports for every worker-thread count.
#[test]
fn same_seed_is_byte_identical_across_thread_counts() {
    let wl = Benchmark::Bfs.build(Some(GraphInput::Kr), SizeClass::Test, 7);
    let fault = FaultConfig::seeded(21).with_delay(4, 500).with_poison(3);
    let cfgs: Vec<SimConfig> = [Technique::Baseline, Technique::Vr, Technique::Dvr]
        .into_iter()
        .map(|t| SimConfig::new(t).with_max_instructions(20_000).with_faults(fault))
        .collect();
    let render = |threads: usize| -> Vec<String> {
        parallel_map(cfgs.len(), threads, |i| simulate(&wl, &cfgs[i]))
            .into_iter()
            .map(|mut r| {
                // Host time is the one legitimately nondeterministic field.
                r.host_seconds = 0.0;
                r.to_json()
            })
            .collect()
    };
    let serial = render(1);
    for threads in [2, 4] {
        assert_eq!(serial, render(threads), "fault injection must not depend on threads");
    }
    assert!(serial.iter().all(|j| j.contains("\"outcome\":\"complete\"")), "{serial:?}");
}

/// Different seeds genuinely change where faults land.
#[test]
fn different_seeds_change_fault_placement() {
    let wl = Benchmark::NasIs.build(None, SizeClass::Test, 2);
    let cycles_with = |seed: u64| {
        let cfg = SimConfig::new(Technique::Baseline)
            .with_max_instructions(30_000)
            .with_faults(FaultConfig::seeded(seed).with_delay(3, 2_000));
        simulate(&wl, &cfg).core.cycles
    };
    let a = cycles_with(1);
    assert!((1..=16).map(cycles_with).any(|c| c != a), "16 seeds, all identical timing");
}

/// The watchdog stays quiet on healthy runs at its default threshold.
#[test]
fn healthy_runs_do_not_trip_the_default_watchdog() {
    let wl = Benchmark::Camel.build(None, SizeClass::Test, 5);
    for t in [Technique::Baseline, Technique::Vr, Technique::Dvr] {
        let r = simulate(&wl, &SimConfig::new(t).with_max_instructions(30_000));
        assert!(r.outcome.is_complete(), "{t:?}: {:?}", r.outcome);
    }
}
