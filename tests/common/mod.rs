//! The timing-neutrality check shared by the audit test targets.

use dvr_sim::sweep::ALL_TECHNIQUES;
use dvr_sim::{simulate, simulate_observed, Observed, SimConfig, SimReport, Technique, Workload};

/// Runs `wl` plain and observed under each of the eight techniques and
/// asserts that observing never perturbs: equal cycle counts and a report
/// byte-identical modulo wall clock (the `--sanitize` convention).
/// Returns what each observed run saw, in technique order.
pub fn observe_neutrally(wl: &Workload) -> Vec<(Technique, Observed)> {
    let strip = |mut r: SimReport| {
        r.host_seconds = 0.0; // wall clock is the only nondeterministic field
        r.to_json()
    };
    ALL_TECHNIQUES
        .into_iter()
        .map(|t| {
            let cfg = SimConfig::new(t).with_max_instructions(50_000);
            let plain = simulate(wl, &cfg);
            let (observed, o) = simulate_observed(wl, &cfg);
            let what = format!("{} under {}", wl.name, t.name());
            assert_eq!(plain.core.cycles, observed.core.cycles, "{what}: observing changed timing");
            assert_eq!(strip(plain), strip(observed), "{what}: observing perturbed the report");
            (t, o)
        })
        .collect()
}
