//! `perf-bench compare A B`: judges a change (B) against its parent (A)
//! from result files of alternating runs, by the end-to-end bounds in
//! `BENCHMARK.json`.
//!
//! A result file is the concatenated standard output of any number of
//! plain runs; each run's `# perf-bench workload=...` header names the
//! workload of the result JSON that ends it. The i-th run of a workload in
//! A is paired with the i-th run of that workload in B.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::median;

/// One end-to-end metric's bound, from `BENCHMARK.json`.
#[derive(Clone, PartialEq, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let entries = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field =
                |k: &str| e.get(k).ok_or(format!("BENCHMARK.json: end_to_end entry lacks {k}"));
            let text = |k: &str| {
                field(k)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {k} is not a string"))
            };
            let better = text("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!(
                    "BENCHMARK.json: better must be higher or lower, not {better:?}"
                ));
            }
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: better == "higher",
                bound: field("bound")?.as_f64().ok_or("BENCHMARK.json: bound is not a number")?,
            })
        })
        .collect()
}

/// One run's result: its workload and metric values.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Workload named by the run's header line.
    pub workload: String,
    /// `(name, value)` for each metric of the result JSON.
    pub metrics: Vec<(String, f64)>,
}

/// Extracts every run from a result file, in order.
///
/// # Errors
///
/// A message naming the line of a result JSON that does not parse or that
/// has no header before it.
pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    let mut workload: Option<String> = None;
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("# perf-bench ") {
            workload = rest
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("workload="))
                .map(str::to_string);
        } else if line.starts_with('{') {
            let j = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let w = workload.take().ok_or(format!("line {}: result without a header", n + 1))?;
            let metrics = j
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or(format!("line {}: no metrics object", n + 1))?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            runs.push(RunResult { workload: w, metrics });
        }
    }
    Ok(runs)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method); a single value is all three.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        return [d.first().copied().unwrap_or(0.0); 3];
    }
    let m = n as i64 + 1;
    std::array::from_fn(|k| {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B wins at least nine tenths of the pairs, and the medians differ by
    /// more than A's interquartile distance.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's own spread is wider than the bound and B does not beat every
    /// run of A.
    Unresolved,
}

impl Verdict {
    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// A's first quartile, median and third quartile.
    pub a: [f64; 3],
    /// B's first quartile, median and third quartile.
    pub b: [f64; 3],
    /// Pairs compared.
    pub pairs: usize,
    /// Share of pairs B won; ties count for neither side.
    pub win_frac: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from A's and B's values (same length, paired).
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&pa, &pb)| better(pb, pa)).count();
    let win_frac = if pairs == 0 { 0.0 } else { wins as f64 / pairs as f64 };
    let (qa, mb) = (quartiles(a), median(b));
    let ma = qa[1];
    let worse_by = if bound.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    let spread = (qa[2] - qa[0]) / ma.abs();
    let beats_all = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
    let verdict = if win_frac >= 0.9 && worse_by < 0.0 && (mb - ma).abs() > qa[2] - qa[0] {
        Verdict::Improved
    } else if spread > bound.bound && !beats_all {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (win_frac, verdict)
}

/// Compares every end-to-end metric of every workload present in both A
/// and B, workloads in order of first appearance in A.
pub fn compare(bounds: &[Bound], a: &[RunResult], b: &[RunResult]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let values = |runs: &[RunResult], w: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
            .collect()
    };
    let mut rows = Vec::new();
    for w in workloads {
        for bound in bounds {
            let (mut va, mut vb) = (values(a, w, &bound.name), values(b, w, &bound.name));
            let pairs = va.len().min(vb.len());
            if pairs == 0 {
                continue;
            }
            va.truncate(pairs);
            vb.truncate(pairs);
            let (win_frac, verdict) = judge(bound, &va, &vb);
            rows.push(Row {
                workload: w.to_string(),
                metric: bound.name.clone(),
                unit: bound.unit.clone(),
                a: quartiles(&va),
                b: quartiles(&vb),
                pairs,
                win_frac,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<18} {:<9} {:>34} {:>34} {:>5} {:>5}  verdict\n",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "pairs", "win"
    );
    let q = |v: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", v[1], v[0], v[2]);
    for r in rows {
        let few = if r.pairs < 10 { " (fewer than 10 pairs)" } else { "" };
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:<9} {:>34} {:>34} {:>5} {:>5.2}  {}{few}",
            r.workload,
            r.metric,
            r.unit,
            q(r.a),
            q(r.b),
            r.pairs,
            r.win_frac,
            r.verdict.name()
        );
    }
    out
}
