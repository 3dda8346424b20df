//! Rendering a run's result: metric lines, the one-line result JSON, and
//! the Chrome trace-event file. Nothing here reads the clock.

use std::fmt::Write as _;

use crate::plan::Kind;

/// One measured metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) becomes 0 so the
    /// result stays valid JSON.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of a sample (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of a sample (0 when empty).
pub(crate) fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The sum of each sample's median: the time of a typical round, taken
/// part by part so a burst of host noise that slows one part of one round
/// does not count.
pub(crate) fn sum_of_medians(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| median(s)).sum()
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Kind,
    /// Its input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Timed passes over the cells (1 for the traced run).
    pub passes: usize,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed a check, panicked or did not complete.
    pub failed: u64,
    /// The metrics of the result JSON: every end-to-end metric, or every
    /// per-layer one for the traced run.
    pub metrics: Vec<Metric>,
    /// Metrics printed but kept out of the result JSON because they are 0
    /// on a correct run of some workload.
    pub info: Vec<Metric>,
    /// FNV-1a digest of every cell report's JSON (wall-clock fields
    /// zeroed): a fingerprint of the simulated statistics.
    pub model_digest: u64,
    /// Per-cell summaries and failure messages.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every attempted cell run passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed cell runs over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The full standard output of the run; the last line is the result
    /// JSON.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# perf-bench workload={} seed={} trace={} passes={} host_cores={}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.passes,
            std::thread::available_parallelism().map_or(1, usize::from)
        );
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let failed = Metric::new("failed_frac", "ratio", self.failed_frac());
        for m in self.metrics.iter().chain(&self.info).chain([&failed]) {
            let _ = writeln!(out, "metric {} {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "model_digest {:016x}", self.model_digest);
        out.push_str(&self.to_json());
        out.push('\n');
        out
    }

    /// The one-line result JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// FNV-1a over a sequence of strings, each terminated so boundaries count.
pub(crate) fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One recorded span of the traced run.
#[derive(Clone, Debug)]
pub(crate) struct Span {
    /// The span that caused this one (`None` for a cell's root span).
    pub parent: Option<usize>,
    /// What was timed, e.g. `simulate` or `cell bfs/UR:DVR`.
    pub name: String,
    /// The layer (crate) the timed call enters.
    pub layer: &'static str,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Counters recorded at this boundary.
    pub args: Vec<(&'static str, f64)>,
}

/// Renders spans as Chrome trace-event JSON (complete `"X"` events on one
/// thread, so nesting follows from the intervals).
pub(crate) fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut args = format!("\"id\":{id}");
            if let Some(p) = s.parent {
                let _ = write!(args, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                let _ = write!(args, ",\"{k}\":{v}");
            }
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                s.name.replace(['"', '\\'], "_"),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            )
        })
        .collect();
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}
