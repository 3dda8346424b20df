//! A TAGE-family conditional branch predictor.
//!
//! The paper's Table 1 specifies the 8 KB TAGE-SC-L from CBP 2016. We
//! implement the TAGE core — a bimodal base predictor plus four
//! partially-tagged tables indexed with geometrically increasing history
//! lengths — plus the loop predictor, within a comparable storage budget;
//! the statistical corrector is omitted (documented delta in DESIGN.md).
//!
//! Branch *targets* in our ISA are static (encoded in the instruction), so
//! no BTB is modelled; a misprediction is always a direction misprediction.
//!
//! A [`LoopPredictor`](crate::LoopPredictor) (the "L" of TAGE-SC-L)
//! overrides TAGE for branches governing loops with stable trip counts.

use sim_isa::bytes::{ensure, DecodeError, Reader};

/// Configuration of the TAGE predictor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub base_bits: u32,
    /// log2 entries of each tagged table.
    pub tagged_bits: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// History lengths of the tagged tables (geometric series).
    pub history_lengths: [u32; 4],
}

impl Default for TageConfig {
    fn default() -> Self {
        // ~8 KB total: 4K x 2b base (1 KB) + 4 x 1K x ~14b tagged (~7 KB).
        TageConfig {
            base_bits: 12,
            tagged_bits: 10,
            tag_bits: 9,
            history_lengths: [4, 16, 64, 130],
        }
    }
}

/// `"DVRT"`: magic prefix of a serialized predictor image
/// ([`TagePredictor::state_bytes`]).
pub const TAGE_STATE_MAGIC: u32 = 0x4456_5254;

/// The configuration words that follow the magic in a
/// [`TagePredictor::state_bytes`] image.
fn config_words(cfg: &TageConfig) -> [u32; 7] {
    let [h0, h1, h2, h3] = cfg.history_lengths;
    [cfg.base_bits, cfg.tagged_bits, cfg.tag_bits, h0, h1, h2, h3]
}

/// The newest `len` bits of the global history XOR-folded into `width`
/// bits (bit `i` of the history lands on bit `i % width`), kept current one
/// outcome at a time instead of refolded on every lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FoldedHistory {
    value: u64,
    len: u32,
    width: u32,
}

impl FoldedHistory {
    /// The fold of `ghist`'s newest `len` bits (at most 127).
    fn of(ghist: u128, len: u32, width: u32) -> Self {
        let len = len.min(127);
        let mut h = ghist & ((1u128 << len) - 1);
        let mut value = 0;
        while width != 0 && h != 0 {
            value ^= (h as u64) & ((1u64 << width) - 1);
            h >>= width;
        }
        FoldedHistory { value, len, width }
    }

    /// Shifts `taken` into the history whose newest bits were `ghist`: the
    /// fold rotates left by one, takes `taken` at bit 0 and drops the bit
    /// that leaves the window.
    fn push(&mut self, ghist: u128, taken: bool) {
        if self.len == 0 || self.width == 0 {
            return;
        }
        let leaving = (ghist >> (self.len - 1)) as u64 & 1;
        let v = ((self.value << 1) | taken as u64) ^ (leaving << (self.len % self.width));
        self.value = (v & ((1 << self.width) - 1)) ^ (v >> self.width);
    }
}

/// One tagged table's three folds: its index, its tag, and the tag's
/// second fold one bit narrower.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TableFolds {
    index: FoldedHistory,
    tag: FoldedHistory,
    tag2: FoldedHistory,
}

impl TableFolds {
    fn of(ghist: u128, cfg: &TageConfig, table: usize) -> Self {
        let len = cfg.history_lengths[table];
        TableFolds {
            index: FoldedHistory::of(ghist, len, cfg.tagged_bits),
            tag: FoldedHistory::of(ghist, len, cfg.tag_bits),
            tag2: FoldedHistory::of(ghist, len, cfg.tag_bits.saturating_sub(1)),
        }
    }

    fn push(&mut self, ghist: u128, taken: bool) {
        self.index.push(ghist, taken);
        self.tag.push(ghist, taken);
        self.tag2.push(ghist, taken);
    }
}

/// Where a branch's lookup lands in each tagged table.
#[derive(Clone, Copy, Debug)]
struct Lookup {
    index: [usize; 4],
    tag: [u16; 4],
}

#[derive(Clone, Copy, Debug, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter (-4..=3); taken if >= 0.
    ctr: i8,
    /// 2-bit useful counter.
    useful: u8,
}

/// The TAGE predictor.
///
/// # Example
///
/// ```
/// use sim_ooo::TagePredictor;
/// let mut bp = TagePredictor::default();
/// // A loop branch: taken 7 times, not-taken once, repeating.
/// let pc = 0x40;
/// let mut correct = 0;
/// let mut total = 0;
/// for _ in 0..200 {
///     for i in 0..8 {
///         let actual = i != 7;
///         let predicted = bp.predict(pc);
///         bp.update(pc, actual, predicted);
///         total += 1;
///         if predicted == actual { correct += 1; }
///     }
/// }
/// assert!(correct as f64 / total as f64 > 0.85);
/// ```
#[derive(Clone, Debug)]
pub struct TagePredictor {
    cfg: TageConfig,
    /// Bimodal: 2-bit counters (0..=3), taken if >= 2.
    base: Vec<u8>,
    tables: Vec<Vec<TaggedEntry>>,
    loop_pred: crate::loop_pred::LoopPredictor,
    /// Global history (newest outcome in bit 0).
    ghist: u128,
    /// `ghist` folded for each tagged table: derived state, rebuilt from
    /// `ghist` on restore.
    folds: [TableFolds; 4],
    /// For `useful`-bit aging.
    tick: u64,
    lookups: u64,
    mispredicts: u64,
}

impl Default for TagePredictor {
    fn default() -> Self {
        TagePredictor::new(TageConfig::default())
    }
}

impl TagePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(cfg: TageConfig) -> Self {
        TagePredictor {
            cfg,
            base: vec![2; 1 << cfg.base_bits], // weakly taken
            tables: (0..4).map(|_| vec![TaggedEntry::default(); 1 << cfg.tagged_bits]).collect(),
            loop_pred: crate::loop_pred::LoopPredictor::new(6),
            ghist: 0,
            folds: Self::folds_of(0, &cfg),
            tick: 0,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn folds_of(ghist: u128, cfg: &TageConfig) -> [TableFolds; 4] {
        std::array::from_fn(|t| TableFolds::of(ghist, cfg, t))
    }

    /// Each tagged table's index and tag for the branch at `pc`.
    fn lookup(&self, pc: usize) -> Lookup {
        let pc = pc as u64;
        let index_mask = (1 << self.cfg.tagged_bits) - 1;
        let tag_mask = (1 << self.cfg.tag_bits) - 1;
        let pc_index = pc ^ (pc >> self.cfg.tagged_bits);
        let mut l = Lookup { index: [0; 4], tag: [0; 4] };
        for (t, f) in self.folds.iter().enumerate() {
            l.index[t] = ((pc_index ^ f.index.value) & index_mask) as usize;
            l.tag[t] = ((pc ^ f.tag.value ^ (f.tag2.value << 1)) & tag_mask) as u16;
        }
        l
    }

    fn base_index(&self, pc: usize) -> usize {
        pc & ((1 << self.cfg.base_bits) - 1)
    }

    /// Finds the provider (longest matching tagged table), if any.
    fn provider(&self, l: &Lookup) -> Option<usize> {
        (0..4).rev().find(|&t| self.tables[t][l.index[t]].tag == l.tag[t])
    }

    /// Predicts the direction of the conditional branch at `pc`.
    ///
    /// A confident loop-predictor hit overrides TAGE (exact loop-exit
    /// prediction); otherwise the longest matching tagged table provides.
    pub fn predict(&mut self, pc: usize) -> bool {
        self.lookups += 1;
        if let Some(p) = self.loop_pred.predict(pc) {
            return p;
        }
        let l = self.lookup(pc);
        match self.provider(&l) {
            Some(t) => self.tables[t][l.index[t]].ctr >= 0,
            None => self.base[self.base_index(pc)] >= 2,
        }
    }

    /// Updates the predictor with the actual outcome. `predicted` must be
    /// the value returned by the matching [`TagePredictor::predict`] call.
    pub fn update(&mut self, pc: usize, taken: bool, predicted: bool) {
        let mispredicted = predicted != taken;
        if mispredicted {
            self.mispredicts += 1;
        }
        self.loop_pred.update(pc, taken);

        let l = self.lookup(pc);
        let provider = self.provider(&l);

        // Update the provider (or base) counter.
        match provider {
            Some(t) => {
                let idx = l.index[t];
                let base_pred = self.base[self.base_index(pc)] >= 2;
                let e = &mut self.tables[t][idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                // Useful bit: provider was correct and base would differ.
                if !mispredicted && (e.ctr >= 0) != base_pred {
                    e.useful = (e.useful + 1).min(3);
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }

        // On a misprediction, allocate in a longer-history table.
        if mispredicted {
            let start = provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in start..4 {
                let e = &mut self.tables[t][l.index[t]];
                if e.useful == 0 {
                    *e = TaggedEntry { tag: l.tag[t], ctr: if taken { 0 } else { -1 }, useful: 0 };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Decay useful bits so future allocations can succeed.
                for t in start..4 {
                    let e = &mut self.tables[t][l.index[t]];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        // Periodic global aging of useful bits.
        self.tick += 1;
        if self.tick.is_multiple_of(256 * 1024) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        // Advance history.
        for f in &mut self.folds {
            f.push(self.ghist, taken);
        }
        self.ghist = (self.ghist << 1) | (taken as u128);
    }

    /// Serializes the complete predictor state — configuration, bimodal
    /// base, tagged tables, loop predictor, global history, and counters —
    /// as a magic-prefixed little-endian image for a sampling checkpoint.
    ///
    /// [`TagePredictor::from_state_bytes`] restores it exactly: prediction
    /// behavior after restore is indistinguishable from the original.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&TAGE_STATE_MAGIC.to_le_bytes());
        for w in config_words(&self.cfg) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.ghist.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&self.lookups.to_le_bytes());
        out.extend_from_slice(&self.mispredicts.to_le_bytes());
        out.extend_from_slice(&self.base);
        for table in &self.tables {
            for e in table {
                out.extend_from_slice(&e.tag.to_le_bytes());
                out.push(e.ctr as u8);
                out.push(e.useful);
            }
        }
        self.loop_pred.save_state(&mut out);
        out
    }

    /// Rebuilds a predictor of geometry `cfg` from a
    /// [`TagePredictor::state_bytes`] image. The image's configuration must
    /// be `cfg`, checked before anything is allocated, and every counter in
    /// the range the predictor keeps it in.
    pub fn from_state_bytes(cfg: TageConfig, b: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(b);
        r.magic(TAGE_STATE_MAGIC)?;
        for want in config_words(&cfg) {
            ensure(r.u32("config")? == want, "config")?;
        }
        let mut bp = TagePredictor::new(cfg);
        bp.ghist = r.u128("ghist")?;
        bp.folds = Self::folds_of(bp.ghist, &cfg);
        bp.tick = r.u64("tick")?;
        bp.lookups = r.u64("lookups")?;
        bp.mispredicts = r.u64("mispredicts")?;
        bp.base.copy_from_slice(r.take(1 << cfg.base_bits, "base")?);
        ensure(bp.base.iter().all(|&c| c <= 3), "base")?;
        for e in bp.tables.iter_mut().flatten() {
            let (tag, ctr, useful) = (r.u16("tag")?, r.u8("ctr")? as i8, r.u8("useful")?);
            let fits = u64::from(tag) < 1 << cfg.tag_bits && (-4..=3).contains(&ctr);
            ensure(fits && useful <= 3, "tagged entry")?;
            *e = TaggedEntry { tag, ctr, useful };
        }
        bp.loop_pred.load_state(&mut r)?;
        r.finish()?;
        Ok(bp)
    }

    /// Number of predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate (0 if no lookups yet).
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern(bp: &mut TagePredictor, pc: usize, pattern: &[bool], reps: usize) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..reps {
            for &actual in pattern {
                let p = bp.predict(pc);
                bp.update(pc, actual, p);
                total += 1;
                if p == actual {
                    correct += 1;
                }
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn always_taken_is_learned() {
        let mut bp = TagePredictor::default();
        let acc = run_pattern(&mut bp, 0x10, &[true], 1000);
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn short_loop_pattern_is_learned() {
        let mut bp = TagePredictor::default();
        // taken x7, not-taken x1 — needs history to nail the exit.
        let mut pattern = vec![true; 7];
        pattern.push(false);
        let acc = run_pattern(&mut bp, 0x20, &pattern, 500);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn alternating_pattern_is_learned() {
        let mut bp = TagePredictor::default();
        let acc = run_pattern(&mut bp, 0x30, &[true, false], 1000);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn random_pattern_is_hard() {
        let mut bp = TagePredictor::default();
        // Deterministic pseudo-random outcomes.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let pattern: Vec<bool> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect();
        let acc = run_pattern(&mut bp, 0x40, &pattern, 1);
        assert!(acc < 0.65, "random data should not be predictable, got {acc}");
    }

    #[test]
    fn distinct_pcs_do_not_destructively_interfere() {
        let mut bp = TagePredictor::default();
        // Train two opposite-biased branches simultaneously.
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..2000 {
            for (pc, actual) in [(0x100usize, true), (0x204usize, false)] {
                let p = bp.predict(pc);
                bp.update(pc, actual, p);
                total += 1;
                if p == actual {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.98);
    }

    #[test]
    fn state_roundtrip_preserves_prediction_behavior() {
        let mut bp = TagePredictor::default();
        // Train a mix of patterns, including a stable-trip loop so the
        // loop predictor carries state too.
        let mut pattern = vec![true; 9];
        pattern.push(false);
        run_pattern(&mut bp, 0x20, &pattern, 200);
        run_pattern(&mut bp, 0x60, &[true, false], 300);
        let bytes = bp.state_bytes();
        let mut restored =
            TagePredictor::from_state_bytes(TageConfig::default(), &bytes).expect("image parses");
        assert_eq!(restored.state_bytes(), bytes, "re-serialization is byte-identical");
        assert_eq!(restored.lookups(), bp.lookups());
        assert_eq!(restored.mispredicts(), bp.mispredicts());
        // Both predictors must stay in lockstep on fresh traffic.
        for rep in 0..50 {
            for (pc, &actual) in [(0x20usize, &pattern[rep % 10]), (0x60, &(rep % 2 == 0))] {
                let a = bp.predict(pc);
                let b = restored.predict(pc);
                assert_eq!(a, b, "pc {pc:#x} rep {rep}");
                bp.update(pc, actual, a);
                restored.update(pc, actual, b);
            }
        }
        assert_eq!(restored.state_bytes(), bp.state_bytes());
    }

    /// The newest `len` (at most 127) bits of `ghist` XOR-folded into
    /// `width` bits, computed from scratch.
    fn direct_fold(ghist: u128, len: u32, width: u32) -> u64 {
        let mut h = ghist & ((1u128 << len.min(127)) - 1);
        let mut folded = 0;
        while h != 0 {
            folded ^= (h as u64) & ((1u64 << width) - 1);
            h >>= width;
        }
        folded
    }

    #[test]
    fn incremental_folds_match_the_direct_fold_of_the_history() {
        let cfg = TageConfig::default();
        let mut bp = TagePredictor::default();
        let mut restored: Option<TagePredictor> = None;
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 257 pcs, each with its own period, and one outcome in 16 forced taken.
            let pc = 4 * ((x >> 20) % 257) as usize;
            let taken = !(i / (1 + pc as u64 % 5)).is_multiple_of(3) || x >> 60 == 0;

            let l = bp.lookup(pc);
            for (t, &len) in cfg.history_lengths.iter().enumerate() {
                let folds = &bp.folds[t];
                assert_eq!(folds.index.value, direct_fold(bp.ghist, len, cfg.tagged_bits));
                assert_eq!(folds.tag.value, direct_fold(bp.ghist, len, cfg.tag_bits));
                assert_eq!(folds.tag2.value, direct_fold(bp.ghist, len, cfg.tag_bits - 1));
                let p = pc as u64;
                let index =
                    (p ^ (p >> cfg.tagged_bits) ^ direct_fold(bp.ghist, len, cfg.tagged_bits))
                        & ((1 << cfg.tagged_bits) - 1);
                let tag = (p
                    ^ direct_fold(bp.ghist, len, cfg.tag_bits)
                    ^ (direct_fold(bp.ghist, len, cfg.tag_bits - 1) << 1))
                    & ((1 << cfg.tag_bits) - 1);
                assert_eq!(
                    (l.index[t], l.tag[t]),
                    (index as usize, tag as u16),
                    "table {t} at {i}"
                );
            }

            let predicted = bp.predict(pc);
            bp.update(pc, taken, predicted);
            if let Some(r) = &mut restored {
                let p = r.predict(pc);
                assert_eq!(p, predicted, "the restored predictor diverged at branch {i}");
                r.update(pc, taken, p);
            }
            if i == 50_000 {
                let image = bp.state_bytes();
                let r = TagePredictor::from_state_bytes(cfg, &image).expect("image parses");
                assert_eq!(r.folds, bp.folds, "restore rebuilds the folds from ghist");
                restored = Some(r);
            }
        }
        assert_eq!(restored.expect("restored mid-stream").state_bytes(), bp.state_bytes());
        assert!(bp.mispredict_rate() < 0.5, "the stream must exercise the tagged tables");
    }

    #[test]
    fn corrupt_state_images_are_rejected() {
        let cfg = TageConfig::default();
        let bp = TagePredictor::default();
        let bytes = bp.state_bytes();
        assert!(TagePredictor::from_state_bytes(cfg, &bytes[1..]).is_err());
        assert!(TagePredictor::from_state_bytes(cfg, &bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(TagePredictor::from_state_bytes(cfg, &trailing).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xFF;
        assert!(TagePredictor::from_state_bytes(cfg, &bad_magic).is_err());
        // Images of any other geometry are rejected from the header alone,
        // including those whose history folding would never terminate.
        let mut history_lengths = cfg.history_lengths;
        history_lengths[3] += 1;
        for other in [
            TageConfig { tag_bits: 1, ..cfg },
            TageConfig { tagged_bits: 0, ..cfg },
            TageConfig { history_lengths, ..cfg },
        ] {
            let image = TagePredictor::new(other).state_bytes();
            assert_eq!(
                TagePredictor::from_state_bytes(cfg, &image).err(),
                Some(DecodeError::Invalid { field: "config" }),
                "{other:?}"
            );
        }
    }

    #[test]
    fn stats_count() {
        let mut bp = TagePredictor::default();
        let p = bp.predict(0x8);
        bp.update(0x8, !p, p);
        assert_eq!(bp.lookups(), 1);
        assert_eq!(bp.mispredicts(), 1);
        assert_eq!(bp.mispredict_rate(), 1.0);
    }
}
