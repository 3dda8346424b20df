//! Bounds observation test: recording the runahead lanes' per-pc address
//! extents (the bounds oracle the bounds audit reads) is timing-neutral —
//! an observed run's `SimReport` serializes byte-identically to a plain
//! one under every technique. The bounds audit's golden-file and
//! out-of-bounds tests live in `tests/audit.rs`.

mod common;

use common::observe_neutrally;
use dvr_sim::Technique;
use workloads::{gather_attack, oob_gather, SizeClass};

#[test]
fn bounds_oracle_is_timing_neutral_for_every_technique() {
    // Both gather kernels give the runahead engines lane loads to
    // observe; the baseline has no lanes.
    for wl in [gather_attack(SizeClass::Test, 42), oob_gather(SizeClass::Test, 42)] {
        for (t, o) in observe_neutrally(&wl) {
            let extents = o.lanes.extents.extents().len();
            match t {
                Technique::Baseline => {
                    assert_eq!(extents, 0, "{}: baseline recorded lane extents", wl.name)
                }
                Technique::Vr | Technique::Dvr => {
                    assert!(extents > 0, "{} under {}: no lane extents", wl.name, t.name())
                }
                _ => {}
            }
        }
    }
}
