//! The loop predictor — the "L" of the paper's 8 KB TAGE-SC-L.
//!
//! Detects branches that govern loops with *stable trip counts* and, once
//! confident, predicts the exact exit iteration — something no
//! history-based predictor can do for long loops. This matters for kernels
//! with fixed inner-loop lengths (e.g. NAS-CG's constant row degree),
//! where the only misprediction left is the loop exit itself.

use sim_isa::bytes::{ensure, DecodeError, Reader};

/// One loop-table entry.
#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    tag: u16,
    /// Trip count observed on the last completed loop execution.
    trip: u32,
    /// Taken iterations of the in-flight execution.
    current: u32,
    /// Confidence that `trip` repeats (saturating 0..=3).
    confidence: u8,
    valid: bool,
}

/// A small direct-mapped loop predictor.
///
/// # Example
///
/// ```
/// use sim_ooo::LoopPredictor;
/// let mut lp = LoopPredictor::new(6);
/// // A loop branch: taken 9 times, then not taken, repeatedly.
/// let pc = 0x88;
/// for _ in 0..5 {
///     for i in 0..10 {
///         lp.update(pc, i != 9);
///     }
/// }
/// // Confident now: predicts the exit exactly.
/// let mut correct = 0;
/// for i in 0..10 {
///     let p = lp.predict(pc);
///     if p == Some(i != 9) { correct += 1; }
///     lp.update(pc, i != 9);
/// }
/// assert_eq!(correct, 10);
/// ```
#[derive(Clone, Debug)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    index_bits: u32,
}

impl LoopPredictor {
    /// Creates a predictor with `2^index_bits` entries (TAGE-SC-L uses a
    /// 64-entry table).
    pub fn new(index_bits: u32) -> Self {
        LoopPredictor { entries: vec![LoopEntry::default(); 1 << index_bits], index_bits }
    }

    fn slot(&self, pc: usize) -> usize {
        (pc ^ (pc >> self.index_bits as usize)) & ((1 << self.index_bits) - 1)
    }

    fn tag(pc: usize) -> u16 {
        ((pc >> 2) & 0x3FFF) as u16
    }

    /// Predicts the branch at `pc`, or `None` when the predictor has no
    /// confident loop for it (fall back to TAGE).
    pub fn predict(&self, pc: usize) -> Option<bool> {
        let e = &self.entries[self.slot(pc)];
        if !e.valid || e.tag != Self::tag(pc) || e.confidence < 3 || e.trip == 0 {
            return None;
        }
        // Taken while inside the loop; not-taken on the exit iteration.
        Some(e.current + 1 < e.trip + 1 && e.current < e.trip)
    }

    /// Serializes the table for a sampling checkpoint (little-endian,
    /// appended to `out`); [`LoopPredictor::load_state`] restores it.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.index_bits.to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.tag.to_le_bytes());
            out.extend_from_slice(&e.trip.to_le_bytes());
            out.extend_from_slice(&e.current.to_le_bytes());
            out.push(e.confidence);
            out.push(e.valid as u8);
        }
    }

    /// Restores a [`LoopPredictor::save_state`] image from `r` into this
    /// table, whose size the image must match.
    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        ensure(r.u32("loop index_bits")? == self.index_bits, "loop index_bits")?;
        for e in &mut self.entries {
            e.tag = r.u16("loop tag")?;
            e.trip = r.u32("loop trip")?;
            e.current = r.u32("loop current")?;
            e.confidence = r.u8("loop confidence")?;
            e.valid = r.bool("loop valid")?;
            ensure(e.confidence <= 3, "loop confidence")?;
        }
        Ok(())
    }

    /// Trains on the actual outcome.
    pub fn update(&mut self, pc: usize, taken: bool) {
        let slot = self.slot(pc);
        let tag = Self::tag(pc);
        let e = &mut self.entries[slot];
        if !e.valid || e.tag != tag {
            // Allocate on a not-taken outcome (a candidate loop exit).
            if !taken {
                *e = LoopEntry { tag, trip: 0, current: 0, confidence: 0, valid: true };
            }
            return;
        }
        if taken {
            e.current = e.current.saturating_add(1);
            // A loop running far past its recorded trip count is not the
            // loop we learned: reset confidence.
            if e.confidence > 0 && e.current > e.trip {
                e.confidence = 0;
            }
        } else {
            if e.current == e.trip {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.trip = e.current;
                e.confidence = 0;
            }
            e.current = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(lp: &mut LoopPredictor, pc: usize, trip: usize, executions: usize) {
        for _ in 0..executions {
            for i in 0..=trip {
                lp.update(pc, i != trip);
            }
        }
    }

    #[test]
    fn learns_fixed_trip_count() {
        let mut lp = LoopPredictor::new(6);
        train(&mut lp, 0x40, 7, 5);
        // Now predict a full execution perfectly.
        for i in 0..=7 {
            assert_eq!(lp.predict(0x40), Some(i != 7), "iteration {i}");
            lp.update(0x40, i != 7);
        }
    }

    #[test]
    fn no_prediction_before_confidence() {
        let mut lp = LoopPredictor::new(6);
        train(&mut lp, 0x44, 5, 1);
        assert_eq!(lp.predict(0x44), None, "one execution is not enough");
    }

    #[test]
    fn varying_trip_counts_never_confident() {
        let mut lp = LoopPredictor::new(6);
        for trip in [3usize, 9, 4, 11, 2, 8, 5, 12] {
            train(&mut lp, 0x48, trip, 1);
        }
        assert_eq!(lp.predict(0x48), None);
    }

    #[test]
    fn relearnes_after_trip_change() {
        // Five executions to confidence: one allocates (on the first
        // not-taken), one learns the trip count, three confirm it.
        let mut lp = LoopPredictor::new(6);
        train(&mut lp, 0x4c, 6, 5);
        assert!(lp.predict(0x4c).is_some());
        // The loop length changes: must drop confidence, then relearn.
        train(&mut lp, 0x4c, 10, 1);
        assert_eq!(lp.predict(0x4c), None);
        train(&mut lp, 0x4c, 10, 4);
        assert!(lp.predict(0x4c).is_some());
    }

    #[test]
    fn tag_conflicts_do_not_mispredict() {
        let mut lp = LoopPredictor::new(2); // tiny: force conflicts
        train(&mut lp, 0x10, 4, 4);
        // A different PC mapping to the same slot must not inherit the loop.
        assert_eq!(lp.predict(0x10 + (1 << 2) * 4 * 16), None);
    }
}
