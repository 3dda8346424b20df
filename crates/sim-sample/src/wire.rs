//! The sample-worker payload codec: one [`PeriodResult`] as a line of
//! integer JSON.
//!
//! A `dvrsim sample-worker` process measures one period and answers with
//! a `SWEEPOK1` line of the sweep supervisor's protocol (`sim-sweep`)
//! whose payload is this JSON line; the orchestrator decodes it back and
//! merges. The payload carries **integers only** — every derived float
//! (IPC, MLP, the report aggregates) is recomputed at merge time from the
//! counters — so a result that crosses the process boundary is bit-exactly
//! the result that would have been produced in-process.
//!
//! The format is fixed-order and machine-generated on both ends, so the
//! parser is deliberately strict: field order, spelling, and shape must
//! match [`PeriodResult::to_json`] exactly, and any deviation (including
//! trailing garbage) parses to `None` rather than a guess.

use sim_mem::MemStats;
use sim_ooo::CoreStats;

use crate::driver::PeriodResult;

/// Current version of the payload format (the leading `"v"` field).
pub const WIRE_VERSION: u64 = 1;

fn put_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

impl PeriodResult {
    /// Serializes to one line of fixed-order integer JSON (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"v\":{},\"period\":{},\"start_retired\":{},\"warmup_committed\":{},\
             \"mshr_integral\":{},\"measured\":{},\"core\":",
            WIRE_VERSION,
            self.index,
            self.start_retired,
            self.warmup_committed,
            self.mshr_integral,
            u64::from(self.measured),
        ));
        put_array(&mut s, &self.core.to_flat());
        s.push_str(",\"mem\":");
        put_array(&mut s, &self.mem.to_flat());
        s.push('}');
        s
    }

    /// Parses a [`PeriodResult::to_json`] line (surrounding ASCII
    /// whitespace tolerated). Returns `None` on any deviation from the
    /// fixed format: wrong version, reordered or missing fields, non-0/1
    /// `measured`, wrong array lengths, or trailing bytes.
    pub fn from_json(s: &str) -> Option<PeriodResult> {
        let mut p = Parser { b: s.trim().as_bytes(), i: 0 };
        p.lit("{\"v\":")?;
        if p.u64()? != WIRE_VERSION {
            return None;
        }
        p.lit(",\"period\":")?;
        let index = p.u64()?;
        p.lit(",\"start_retired\":")?;
        let start_retired = p.u64()?;
        p.lit(",\"warmup_committed\":")?;
        let warmup_committed = p.u64()?;
        p.lit(",\"mshr_integral\":")?;
        let mshr_integral = p.u64()?;
        p.lit(",\"measured\":")?;
        let measured = match p.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        p.lit(",\"core\":")?;
        let core = CoreStats::from_flat(&p.array(CoreStats::FLAT_LEN)?)?;
        p.lit(",\"mem\":")?;
        let mem = MemStats::from_flat(&p.array(MemStats::FLAT_LEN)?)?;
        p.lit("}")?;
        if p.i != p.b.len() {
            return None;
        }
        Some(PeriodResult {
            index,
            start_retired,
            warmup_committed,
            mshr_integral,
            measured,
            core,
            mem,
        })
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn lit(&mut self, s: &str) -> Option<()> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Some(())
        } else {
            None
        }
    }

    fn u64(&mut self) -> Option<u64> {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i]).ok()?.parse().ok()
    }

    fn array(&mut self, len: usize) -> Option<Vec<u64>> {
        self.lit("[")?;
        let mut v = Vec::with_capacity(len);
        for i in 0..len {
            if i > 0 {
                self.lit(",")?;
            }
            v.push(self.u64()?);
        }
        self.lit("]")?;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> PeriodResult {
        let core =
            CoreStats { cycles: 4_321, committed: 5_000, loads: 1_234, ..Default::default() };
        let mem = MemStats {
            demand_loads: 1_234,
            demand_hits: [900, 200, 100, 34],
            dram_writebacks: 7,
            ..Default::default()
        };
        PeriodResult {
            index: 5,
            start_retired: 127_455,
            warmup_committed: 2_000,
            mshr_integral: 9_876,
            measured: true,
            core,
            mem,
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = sample_result();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = PeriodResult::from_json(&line).expect("line parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), line);
        // Surrounding whitespace (a worker's trailing newline) is fine.
        assert_eq!(PeriodResult::from_json(&format!("{line}\n")).unwrap(), r);
    }

    #[test]
    fn unmeasured_period_roundtrips() {
        let r = PeriodResult {
            index: 9,
            start_retired: 0,
            warmup_committed: 123,
            mshr_integral: 0,
            measured: false,
            core: CoreStats::default(),
            mem: MemStats::default(),
        };
        assert_eq!(PeriodResult::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let line = sample_result().to_json();
        assert!(PeriodResult::from_json(&line[1..]).is_none(), "truncated front");
        assert!(PeriodResult::from_json(&line[..line.len() - 1]).is_none(), "truncated back");
        assert!(PeriodResult::from_json(&format!("{line}x")).is_none(), "trailing garbage");
        assert!(
            PeriodResult::from_json(&line.replace("\"v\":1", "\"v\":2")).is_none(),
            "unknown version"
        );
        assert!(
            PeriodResult::from_json(&line.replace("\"measured\":1", "\"measured\":3")).is_none(),
            "bad measured flag"
        );
        assert!(PeriodResult::from_json("").is_none());
    }
}
