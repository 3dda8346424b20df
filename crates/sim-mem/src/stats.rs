//! Memory-system statistics backing Figures 9, 10, and 11.

use crate::hierarchy::PrefetchSource;

/// Where the main thread eventually found a prefetched line — the buckets of
/// the paper's timeliness plot (Figure 11).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimelinessBucket {
    /// Found ready in the L1-D.
    L1,
    /// Evicted to (and found in) the L2.
    L2,
    /// Evicted to (and found in) the L3.
    L3,
    /// Still in flight from memory, refetched from DRAM, or never used
    /// (an inaccurate prefetch).
    OffChip,
}

impl TimelinessBucket {
    /// All buckets, in Figure 11 order.
    pub const ALL: [TimelinessBucket; 4] = [
        TimelinessBucket::L1,
        TimelinessBucket::L2,
        TimelinessBucket::L3,
        TimelinessBucket::OffChip,
    ];

    fn index(self) -> usize {
        match self {
            TimelinessBucket::L1 => 0,
            TimelinessBucket::L2 => 1,
            TimelinessBucket::L3 => 2,
            TimelinessBucket::OffChip => 3,
        }
    }
}

const SOURCES: usize = PrefetchSource::COUNT;

/// Counters accumulated by [`MemoryHierarchy`](crate::MemoryHierarchy).
///
/// All counts are events, not rates; the harness divides by cycles or
/// instructions as the figures require.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Demand loads issued.
    pub demand_loads: u64,
    /// Demand stores issued.
    pub demand_stores: u64,
    /// Demand accesses that hit ready in L1/L2/L3 or missed to memory:
    /// indices 0..4 = L1, L2, L3, Mem.
    pub demand_hits: [u64; 4],
    /// Demand accesses that found the line still in flight (MSHR merge).
    pub demand_inflight: u64,
    /// Sum over demand loads of `(complete_at - request_cycle)` — divide by
    /// `demand_loads` for the average load latency the main thread saw.
    pub demand_latency_sum: u64,
    /// DRAM line reads triggered by demand accesses.
    pub dram_demand: u64,
    /// DRAM line reads triggered by each prefetch source.
    pub dram_prefetch: [u64; SOURCES],
    /// DRAM writebacks of dirty lines.
    pub dram_writebacks: u64,
    /// Prefetches issued per source (that actually fetched a missing line).
    pub prefetch_issued: [u64; SOURCES],
    /// Prefetches dropped per source (no free MSHR).
    pub prefetch_dropped: [u64; SOURCES],
    /// First demand touch of a prefetched line, bucketed per Figure 11.
    pub prefetch_found: [[u64; 4]; SOURCES],
    /// Prefetched lines never demanded before the end of the run
    /// (finalized into `OffChip` by [`MemStats::wasted`]).
    pub prefetch_unused: [u64; SOURCES],
    /// Injected faults: demand responses dropped (never complete).
    pub injected_drops: u64,
    /// Injected faults: DRAM reads delayed.
    pub injected_delays: u64,
    /// Injected faults: prefetches poisoned (discarded).
    pub injected_poisons: u64,
    /// Injected faults: fatal events delivered to the core.
    pub injected_fatal: u64,
}

impl MemStats {
    /// Length of the [`MemStats::to_flat`] encoding.
    pub const FLAT_LEN: usize = 14 + 8 * SOURCES;

    /// Flattens every counter into a fixed-order `u64` array — the `mem`
    /// array of a sample worker's period payload and the basis of
    /// [`MemStats::accumulate`]. All counters are event counts, so the
    /// encoding is lossless and summable.
    pub fn to_flat(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(Self::FLAT_LEN);
        v.extend([self.demand_loads, self.demand_stores]);
        v.extend(self.demand_hits);
        v.extend([self.demand_inflight, self.demand_latency_sum, self.dram_demand]);
        v.extend(self.dram_prefetch);
        v.push(self.dram_writebacks);
        v.extend(self.prefetch_issued);
        v.extend(self.prefetch_dropped);
        v.extend(self.prefetch_found.iter().flatten());
        v.extend(self.prefetch_unused);
        v.extend([
            self.injected_drops,
            self.injected_delays,
            self.injected_poisons,
            self.injected_fatal,
        ]);
        debug_assert_eq!(v.len(), Self::FLAT_LEN);
        v
    }

    /// Rebuilds a `MemStats` from a [`MemStats::to_flat`] array; `None` if
    /// the length is wrong.
    pub fn from_flat(v: &[u64]) -> Option<Self> {
        if v.len() != Self::FLAT_LEN {
            return None;
        }
        let mut it = v.iter().copied();
        let mut next = || it.next().expect("length checked");
        let mut s = MemStats { demand_loads: next(), demand_stores: next(), ..MemStats::default() };
        s.demand_hits = std::array::from_fn(|_| next());
        s.demand_inflight = next();
        s.demand_latency_sum = next();
        s.dram_demand = next();
        s.dram_prefetch = std::array::from_fn(|_| next());
        s.dram_writebacks = next();
        s.prefetch_issued = std::array::from_fn(|_| next());
        s.prefetch_dropped = std::array::from_fn(|_| next());
        s.prefetch_found = std::array::from_fn(|_| std::array::from_fn(|_| next()));
        s.prefetch_unused = std::array::from_fn(|_| next());
        s.injected_drops = next();
        s.injected_delays = next();
        s.injected_poisons = next();
        s.injected_fatal = next();
        Some(s)
    }

    /// Adds every counter of `other` into `self` — merging the per-period
    /// statistics of independently measured sampling intervals.
    pub fn accumulate(&mut self, other: &MemStats) {
        let sum: Vec<u64> =
            self.to_flat().iter().zip(other.to_flat()).map(|(a, b)| a + b).collect();
        *self = MemStats::from_flat(&sum).expect("same length by construction");
    }

    /// Average latency observed by demand loads, in cycles.
    pub fn avg_demand_latency(&self) -> f64 {
        if self.demand_loads == 0 {
            0.0
        } else {
            self.demand_latency_sum as f64 / self.demand_loads as f64
        }
    }

    /// Total DRAM line reads (demand + all prefetch sources).
    pub fn dram_reads(&self) -> u64 {
        self.dram_demand + self.dram_prefetch.iter().sum::<u64>()
    }

    /// DRAM reads attributable to runahead engines (PRE/VR/DVR), the
    /// "runahead mode" slice of Figure 10.
    pub fn dram_runahead(&self) -> u64 {
        PrefetchSource::ALL
            .iter()
            .filter(|s| s.is_runahead())
            .map(|s| self.dram_prefetch[s.index()])
            .sum()
    }

    /// Records a demand hit at a level index (0=L1..3=Mem).
    pub(crate) fn record_demand_level(&mut self, level_idx: usize) {
        self.demand_hits[level_idx] += 1;
    }

    /// Records where a prefetched line was found on first use.
    pub(crate) fn record_found(&mut self, src: PrefetchSource, bucket: TimelinessBucket) {
        self.prefetch_found[src.index()][bucket.index()] += 1;
    }

    /// Prefetches per source that were issued but never used.
    pub fn wasted(&self, src: PrefetchSource) -> u64 {
        self.prefetch_unused[src.index()]
    }

    /// Timeliness fractions for a source in Figure 11 order
    /// (L1, L2, L3, off-chip), where off-chip includes unused prefetches.
    ///
    /// Returns `None` if the source issued no prefetches.
    pub fn timeliness(&self, src: PrefetchSource) -> Option<[f64; 4]> {
        let i = src.index();
        let found = self.prefetch_found[i];
        let total: u64 = found.iter().sum::<u64>() + self.prefetch_unused[i];
        if total == 0 {
            return None;
        }
        let t = total as f64;
        Some([
            found[0] as f64 / t,
            found[1] as f64 / t,
            found[2] as f64 / t,
            (found[3] + self.prefetch_unused[i]) as f64 / t,
        ])
    }

    /// Fraction of issued prefetches that were eventually used (accuracy).
    pub fn accuracy(&self, src: PrefetchSource) -> Option<f64> {
        let i = src.index();
        let used: u64 = self.prefetch_found[i].iter().sum();
        let total = used + self.prefetch_unused[i];
        if total == 0 {
            None
        } else {
            Some(used as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeliness_fractions_sum_to_one() {
        let mut s = MemStats::default();
        let src = PrefetchSource::Dvr;
        s.record_found(src, TimelinessBucket::L1);
        s.record_found(src, TimelinessBucket::L1);
        s.record_found(src, TimelinessBucket::L3);
        s.prefetch_unused[src.index()] = 1;
        let t = s.timeliness(src).unwrap();
        assert!((t.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((t[0] - 0.5).abs() < 1e-12);
        assert!((t[3] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_source_reports_none() {
        let s = MemStats::default();
        assert!(s.timeliness(PrefetchSource::Stride).is_none());
        assert!(s.accuracy(PrefetchSource::Stride).is_none());
    }

    #[test]
    fn flat_encoding_roundtrips_and_accumulates() {
        let mut a = MemStats { demand_loads: 7, demand_hits: [1, 2, 3, 4], ..Default::default() };
        a.dram_prefetch[PrefetchSource::Dvr.index()] = 5;
        a.prefetch_found[PrefetchSource::Vr.index()][2] = 9;
        a.injected_fatal = 1;
        let flat = a.to_flat();
        assert_eq!(flat.len(), MemStats::FLAT_LEN);
        let b = MemStats::from_flat(&flat).unwrap();
        assert_eq!(b.to_flat(), flat);
        let mut sum = a.clone();
        sum.accumulate(&b);
        assert_eq!(sum.demand_loads, 14);
        assert_eq!(sum.prefetch_found[PrefetchSource::Vr.index()][2], 18);
        assert!(MemStats::from_flat(&flat[1..]).is_none());
    }

    #[test]
    fn runahead_traffic_excludes_hw_prefetchers() {
        let mut s = MemStats::default();
        s.dram_prefetch[PrefetchSource::Stride.index()] = 5;
        s.dram_prefetch[PrefetchSource::Dvr.index()] = 7;
        s.dram_prefetch[PrefetchSource::Vr.index()] = 2;
        s.dram_demand = 100;
        assert_eq!(s.dram_runahead(), 9);
        assert_eq!(s.dram_reads(), 114);
    }
}
