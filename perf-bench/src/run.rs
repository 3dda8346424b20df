//! The end-to-end run: build the inputs, then time passes over the cells
//! with tracing off, checking every cell's result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dvr_sim::{simulate, simulate_mix, simulate_sampled, SampleConfig, SimReport};
use sim_isa::Cpu;
use workloads::Workload;

use crate::plan::{mix_base, mix_spec, Cell, Kind, Mode, Scale};
use crate::report::{digest, mean, ratio, sum_of_medians, Metric, Outcome};

/// Passes every run makes, however short its time budget.
const MIN_PASSES: usize = 3;
/// Passes after which a run stops, however long its time budget.
const MAX_PASSES: usize = 50;
/// Rounds of input builds every run makes.
const MIN_SETUP_ROUNDS: usize = 3;
/// Further rounds are built while all rounds so far took less than this.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Rounds of input builds after which set-up stops.
const MAX_SETUP_ROUNDS: usize = 9;

/// Builds one input per cell, round after round — at least
/// [`MIN_SETUP_ROUNDS`], more while they stay within [`SETUP_BUDGET`] —
/// and returns the last round with the set-up time: the sum over cells of
/// each cell's median build time.
pub(crate) fn setup(cells: &[Cell], scale: Scale, seed: u64) -> (Vec<Workload>, f64) {
    let start = Instant::now();
    let mut times = vec![Vec::new(); cells.len()];
    let mut inputs = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_SETUP_ROUNDS || (start.elapsed() < SETUP_BUDGET && rounds < MAX_SETUP_ROUNDS)
    {
        inputs.clear();
        for (cell, t) in cells.iter().zip(&mut times) {
            let t0 = Instant::now();
            inputs.push(cell.build(scale.size, seed));
            t.push(t0.elapsed().as_secs_f64());
        }
        rounds += 1;
    }
    (inputs, sum_of_medians(&times))
}

/// Checks that a cell run ended `complete` and covered its ROI, or that
/// the program halts before the ROI.
pub(crate) fn check(r: &SimReport, wl: &Workload, roi: u64) -> Result<(), String> {
    if let Some(e) = r.outcome.error() {
        return Err(format!("outcome {}: {e}", r.outcome.kind()));
    }
    let halts_first =
        || matches!(Cpu::new().run(&wl.prog, &mut wl.mem.clone(), roi), Ok(n) if n < roi);
    if r.simulated_instructions < roi && !halts_first() {
        return Err(format!(
            "covered {} of its {roi}-instruction ROI, yet the program does not halt",
            r.simulated_instructions
        ));
    }
    Ok(())
}

/// A report's JSON with its wall-clock field zeroed: the simulated
/// statistics only, which must repeat exactly.
pub(crate) fn model_json(r: &SimReport) -> String {
    let mut r = r.clone();
    r.host_seconds = 0.0;
    r.to_json()
}

/// What one cell run (or one whole mix) produced.
struct UnitRun {
    instrs: u64,
    json: String,
    ipc: f64,
    ci95: Option<f64>,
}

fn exact_unit(cell: &Cell, wl: &Workload) -> Result<UnitRun, String> {
    let r = simulate(wl, &cell.config());
    check(&r, wl, cell.roi)?;
    Ok(UnitRun { instrs: r.simulated_instructions, json: model_json(&r), ipc: r.ipc, ci95: None })
}

fn sampled_unit(cell: &Cell, wl: &Workload) -> Result<UnitRun, String> {
    let r = simulate_sampled(wl, &cell.config(), &SampleConfig::default());
    check(&r, wl, cell.roi)?;
    let ci95 = r.sampling.as_ref().map(|s| s.ipc_ci95);
    Ok(UnitRun { instrs: r.simulated_instructions, json: model_json(&r), ipc: r.ipc, ci95 })
}

fn mix_unit(cells: &[Cell], wls: &[Workload], scale: Scale, seed: u64) -> Result<UnitRun, String> {
    let m = simulate_mix(&mix_spec(cells), scale.size, seed, &mix_base(cells));
    for ((r, cell), wl) in m.cores.iter().zip(cells).zip(wls) {
        check(r, wl, cell.roi).map_err(|e| format!("core {}: {e}", cell.label()))?;
    }
    let instrs = m.cores.iter().map(|r| r.simulated_instructions).sum();
    Ok(UnitRun { instrs, json: m.to_json(), ipc: m.aggregate_ipc, ci95: None })
}

/// Runs `f`, turning a panic into an error message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// A pass is a sequence of timed units: one per cell, or the whole mix.
fn unit_labels(mode: Mode, cells: &[Cell]) -> Vec<String> {
    match mode {
        Mode::Mix => vec![mix_spec(cells).label()],
        Mode::Exact | Mode::Sampled => cells.iter().map(Cell::label).collect(),
    }
}

/// Runs unit `i` of a pass and returns it with its wall time.
fn run_unit(
    mode: Mode,
    i: usize,
    cells: &[Cell],
    wls: &[Workload],
    scale: Scale,
    seed: u64,
) -> (Result<UnitRun, String>, f64) {
    let t = Instant::now();
    let run = match mode {
        Mode::Exact => guarded(|| exact_unit(&cells[i], &wls[i])),
        Mode::Sampled => guarded(|| sampled_unit(&cells[i], &wls[i])),
        Mode::Mix => guarded(|| mix_unit(cells, wls, scale, seed)),
    };
    (run, t.elapsed().as_secs_f64())
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

/// The end-to-end run: at least [`MIN_PASSES`] passes, then more until
/// `seconds` of passes have elapsed. Every end-to-end metric is reported;
/// `sample_err_pct` is printed beside them.
pub fn run_plain(kind: Kind, scale: Scale, seed: u64, seconds: u64) -> Outcome {
    let cells = kind.cells(scale.roi);
    let (wls, setup_s) = setup(&cells, scale, seed);
    let mode = kind.mode();
    let labels = unit_labels(mode, &cells);
    let mut notes = Vec::new();

    // One untimed exact reference per sampled cell, for the sampling error.
    let exact: Vec<f64> = match mode {
        Mode::Sampled => {
            cells.iter().zip(&wls).map(|(c, wl)| simulate(wl, &c.config()).ipc).collect()
        }
        _ => Vec::new(),
    };

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes = 0;
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut first: Vec<Option<UnitRun>> = (0..labels.len()).map(|_| None).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while passes < MIN_PASSES || (start.elapsed() < budget && passes < MAX_PASSES) {
        passes += 1;
        for (i, label) in labels.iter().enumerate() {
            let (run, secs) = run_unit(mode, i, &cells, &wls, scale, seed);
            times[i].push(secs);
            attempted += 1;
            let problem = match run {
                Err(e) => Some(e),
                Ok(run) => match first[i].as_ref().map(|r| r.json != run.json) {
                    None => {
                        first[i] = Some(run);
                        None
                    }
                    Some(differs) => differs
                        .then(|| "simulated statistics differ from an earlier pass".to_string()),
                },
            };
            if let Some(p) = problem {
                failed += 1;
                notes.push(format!("FAILED pass {passes} {label}: {p}"));
            }
        }
    }

    let done: Vec<&UnitRun> = first.iter().flatten().collect();
    let instrs: u64 = done.iter().map(|u| u.instrs).sum();
    for ((label, unit), t) in labels.iter().zip(&first).zip(&times) {
        if let Some(u) = unit {
            let t: Vec<String> = t.iter().map(|s| format!("{s:.3}")).collect();
            notes.push(format!(
                "cell {label} instrs={} ipc={:.4} s: {}",
                u.instrs,
                u.ipc,
                t.join(" ")
            ));
        }
    }
    let mut err_pct = Vec::new();
    for ((cell, unit), exact_ipc) in cells.iter().zip(&first).zip(&exact) {
        if let Some(u) = unit {
            let err = 100.0 * ratio((u.ipc - exact_ipc).abs(), *exact_ipc);
            let ci = u.ci95.unwrap_or(f64::INFINITY);
            let miss = if (u.ipc - exact_ipc).abs() > ci { " CI-MISS" } else { "" };
            notes.push(format!(
                "sampled {} ipc={:.4} ci95={ci:.4} exact={exact_ipc:.4} err={err:.2}%{miss}",
                cell.label(),
                u.ipc
            ));
            err_pct.push(err);
        }
    }

    let pass_walls: Vec<String> =
        (0..passes).map(|p| format!("{:.3}", times.iter().map(|t| t[p]).sum::<f64>())).collect();
    notes.push(format!("pass walls s: {}", pass_walls.join(" ")));
    let wall = sum_of_medians(&times);
    Outcome {
        workload: kind,
        seed,
        trace: false,
        passes,
        attempted,
        failed,
        metrics: vec![
            Metric::new("host_minstr_per_s", "Minstr/s", ratio(instrs as f64 / 1e6, wall)),
            Metric::new("wall_s", "s", wall),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mib()),
        ],
        info: vec![Metric::new("sample_err_pct", "%", mean(&err_pct))],
        model_digest: digest(done.iter().map(|u| u.json.as_str())),
        notes,
    }
}
