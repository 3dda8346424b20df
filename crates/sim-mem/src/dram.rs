//! DRAM: fixed minimum latency plus a request-based bandwidth model.

/// DRAM timing parameters.
///
/// The paper's Table 1: 50 ns minimum latency (200 cycles at 4 GHz) and
/// 51.2 GB/s bandwidth with a *request-based contention model* — at 4 GHz
/// that is 12.8 B/cycle, i.e. one 64 B line every 5 cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramConfig {
    /// Minimum (uncontended) access latency in core cycles.
    pub min_latency: u64,
    /// Cycles between line transfers at full bandwidth.
    pub cycles_per_line: u64,
    /// Number of banks for the optional open-page model. `0` (the paper's
    /// request-based model) disables banking: every access pays
    /// `min_latency`.
    pub banks: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig { min_latency: 200, cycles_per_line: 5, banks: 0 }
    }
}

impl DramConfig {
    /// An open-page banked variant (16 banks, 8 KiB rows): sequential
    /// streams get row-buffer hits, random traffic pays full latency.
    pub fn banked() -> Self {
        DramConfig { banks: 16, ..DramConfig::default() }
    }
}

/// The DRAM channel: serializes line transfers at the configured bandwidth
/// and adds the fixed access latency.
///
/// Bandwidth is modelled as a *slot calendar*: each transfer occupies one
/// `cycles_per_line`-wide slot, and a request takes the earliest free slot
/// at or after its own cycle. This keeps the model fair under bursts — a
/// demand read arriving in the middle of a large prefetch burst is served
/// in the next free slot near its arrival time (as a real FR-FCFS
/// controller would), instead of behind the whole burst.
///
/// # Example
///
/// ```
/// use sim_mem::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig::default());
/// let a = dram.request(100); // arrives at 100+200
/// let b = dram.request(100); // next slot: one line per 5 cycles
/// assert_eq!(a, 300);
/// assert_eq!(b, 305);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Busy slot indices as sorted, disjoint, non-adjacent `[start, end)`
    /// intervals. Requests mostly arrive at monotonically increasing
    /// cycles, so nearly every acquisition extends the last interval —
    /// a bounds check and an increment, no hashing.
    busy: Vec<(u64, u64)>,
    /// Open row per bank (open-page mode only).
    open_rows: Vec<Option<u64>>,
    reads: u64,
    writes: u64,
    row_hits: u64,
}

/// Latency of a row-buffer hit in the open-page model.
const ROW_HIT_LATENCY: u64 = 120;

/// Consecutive lines per DRAM row in the open-page model (row size / 64 B;
/// 128 = 8 KiB rows).
const LINES_PER_ROW: u64 = 128;

impl Dram {
    /// Creates an idle DRAM channel.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            busy: Vec::new(),
            open_rows: vec![None; cfg.banks],
            reads: 0,
            writes: 0,
            row_hits: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Takes the first free slot index at or after `idx`.
    fn acquire_slot(&mut self, idx: u64) -> u64 {
        // Fast path: at or past the busy frontier.
        match self.busy.last_mut() {
            None => {
                self.busy.push((idx, idx + 1));
                return idx;
            }
            Some(last) => {
                if idx == last.1 {
                    last.1 += 1;
                    return idx;
                }
                if idx > last.1 {
                    self.busy.push((idx, idx + 1));
                    return idx;
                }
            }
        }
        // General case: find the interval at or before `idx`.
        let p = self.busy.partition_point(|&(s, _)| s <= idx);
        if p > 0 && idx < self.busy[p - 1].1 {
            // Inside a busy interval: take its end slot (free, since
            // intervals are kept non-adjacent) and extend.
            let slot = self.busy[p - 1].1;
            self.busy[p - 1].1 = slot + 1;
            if p < self.busy.len() && self.busy[p].0 == slot + 1 {
                self.busy[p - 1].1 = self.busy[p].1;
                self.busy.remove(p);
            }
            return slot;
        }
        // `idx` itself is free; claim it, coalescing with neighbours.
        let left = p > 0 && self.busy[p - 1].1 == idx;
        let right = p < self.busy.len() && self.busy[p].0 == idx + 1;
        match (left, right) {
            (true, true) => {
                self.busy[p - 1].1 = self.busy[p].1;
                self.busy.remove(p);
            }
            (true, false) => self.busy[p - 1].1 = idx + 1,
            (false, true) => self.busy[p].0 = idx,
            (false, false) => self.busy.insert(p, (idx, idx + 1)),
        }
        idx
    }

    /// Issues a line read at `cycle`; returns the completion cycle.
    ///
    /// Without banking (the default, the paper's request-based model) the
    /// line address is ignored and the fixed latency applies. Call
    /// [`Dram::request_line`] to let the open-page model see the address.
    pub fn request(&mut self, cycle: u64) -> u64 {
        self.request_line(cycle, 0)
    }

    /// Issues a read of `line` at `cycle`; returns the completion cycle.
    /// In open-page mode the latency depends on whether the line's row is
    /// open in its bank.
    pub fn request_line(&mut self, cycle: u64, line: u64) -> u64 {
        self.reads += 1;
        let idx = cycle.div_ceil(self.cfg.cycles_per_line);
        let slot = self.acquire_slot(idx);
        slot * self.cfg.cycles_per_line + self.access_latency(line)
    }

    fn access_latency(&mut self, line: u64) -> u64 {
        if self.cfg.banks == 0 {
            return self.cfg.min_latency;
        }
        let row = line / LINES_PER_ROW;
        let bank = (row as usize) % self.cfg.banks;
        if self.open_rows[bank] == Some(row) {
            self.row_hits += 1;
            ROW_HIT_LATENCY
        } else {
            self.open_rows[bank] = Some(row);
            self.cfg.min_latency
        }
    }

    /// Issues a line writeback at `cycle`; consumes a bandwidth slot but
    /// nobody waits for it.
    pub fn writeback(&mut self, cycle: u64) {
        self.writes += 1;
        let idx = cycle.div_ceil(self.cfg.cycles_per_line);
        self.acquire_slot(idx);
    }

    /// Total line reads issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total line writebacks issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Row-buffer hits observed (open-page mode only).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Number of busy intervals in the slot calendar (a cheap congestion
    /// signal for deadlock diagnostics).
    pub fn calendar_intervals(&self) -> usize {
        self.busy.len()
    }

    /// Drains the slot calendar and closes all open rows, returning the
    /// channel to an idle state. Read/write/row-hit counters are preserved.
    ///
    /// Used at sampling interval boundaries: calendar slots are absolute
    /// cycles of the previous interval's clock and must not contend with
    /// the next interval's cycle-0 restart.
    pub fn quiesce(&mut self) {
        self.busy.clear();
        self.open_rows.iter_mut().for_each(|r| *r = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_latency() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.request(1000), 1200);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        let mut d = Dram::new(DramConfig::default());
        let c: Vec<u64> = (0..4).map(|_| d.request(0)).collect();
        assert_eq!(c, vec![200, 205, 210, 215]);
        assert_eq!(d.reads(), 4);
    }

    #[test]
    fn idle_gap_keeps_later_requests_uncontended() {
        let mut d = Dram::new(DramConfig::default());
        d.request(0);
        assert_eq!(d.request(10_000), 10_200);
    }

    #[test]
    fn late_arrival_is_not_starved_by_earlier_burst() {
        let mut d = Dram::new(DramConfig::default());
        // A burst issued (in call order) for far-future slots...
        for k in 0..100 {
            d.request(1000 + 5 * k);
        }
        // ...must not delay a request for an *earlier* window.
        assert_eq!(d.request(0), 200);
        // And a request inside the (contiguous) burst window takes the
        // first slot after it.
        assert_eq!(d.request(1002), 1500 + 200);
    }

    #[test]
    fn open_page_rewards_locality() {
        let mut d = Dram::new(DramConfig::banked());
        // First access to a row opens it; the rest of the row hits.
        let base = d.request_line(0, 1000 * 128);
        let hit = d.request_line(10_000, 1000 * 128 + 1);
        assert_eq!(base, 200);
        assert_eq!(hit, 10_000 + 120);
        assert_eq!(d.row_hits(), 1);
        // A different row in the same bank closes it.
        let far = d.request_line(20_000, (1000 + 16) * 128);
        assert_eq!(far, 20_000 + 200);
        let reopened = d.request_line(30_000, 1000 * 128 + 2);
        assert_eq!(reopened, 30_000 + 200, "row was closed by the conflict");
    }

    #[test]
    fn flat_model_ignores_addresses() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.request_line(0, 0), 200);
        assert_eq!(d.request_line(10_000, 1), 10_200);
        assert_eq!(d.row_hits(), 0);
    }

    #[test]
    fn writebacks_consume_bandwidth() {
        let mut d = Dram::new(DramConfig::default());
        d.writeback(0);
        assert_eq!(d.request(0), 205);
        assert_eq!(d.writes(), 1);
    }
}
