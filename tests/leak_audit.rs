//! Secret-leakage observation test: recording the runahead lanes'
//! secret-tainted fills (the taint oracle the leak audit reads) is
//! timing-neutral — an observed run's `SimReport` serializes
//! byte-identically to a plain one under every technique. The leak
//! audit's golden-file and gadget tests live in `tests/audit.rs`.

mod common;

use common::observe_neutrally;
use dvr_sim::Technique;
use workloads::{gather_attack, SizeClass};

#[test]
fn taint_oracle_is_timing_neutral_for_every_technique() {
    // The attack kernel is the one workload where the tracker actually
    // works: both runahead engines fill through its secret-indexed
    // gather, the baseline has no lanes to observe.
    for (t, o) in observe_neutrally(&gather_attack(SizeClass::Test, 42)) {
        let fills = o.lanes.taint_fills.len();
        match t {
            Technique::Baseline => assert_eq!(fills, 0, "baseline recorded secret-tainted fills"),
            Technique::Vr | Technique::Dvr => {
                assert!(fills > 0, "{} recorded no secret-tainted fills", t.name())
            }
            _ => {}
        }
    }
}
