//! End-to-end checks of the benchmark at `SizeClass::Test` with tiny ROIs.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use dvr_sim::{engine_factory, simulate, Benchmark, GraphInput, SimConfig, SizeClass, Technique};
use perf_bench::compare::{judge, parse_results, quartiles, Bound, Verdict};
use perf_bench::json::Json;
use perf_bench::plan::{Kind, Mode, Scale};
use perf_bench::report::Outcome;
use perf_bench::run::run_plain;
use perf_bench::traced::{direct_run, run_traced, Timed};

const TINY: Scale = Scale { size: SizeClass::Test, roi: Some(40_000) };
const SEED: u64 = 7;

fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-bench-traces")
}

/// One plain and one traced run of every workload, shared by the tests.
fn runs() -> &'static [(Kind, Outcome, Outcome)] {
    static RUNS: OnceLock<Vec<(Kind, Outcome, Outcome)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        Kind::ALL
            .iter()
            .map(|&k| (k, run_plain(k, TINY, SEED, 0), run_traced(k, TINY, SEED, &trace_dir())))
            .collect()
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    let metrics = spec.get(key).and_then(Json::as_array).expect(key);
    metrics.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

#[test]
fn every_workload_runs_clean_with_failed_frac_zero() {
    for (kind, plain, traced) in runs() {
        for out in [plain, traced] {
            assert!(out.correct(), "{}:\n{}", kind.name(), out.render());
            assert_eq!(out.failed_frac(), 0.0);
            assert!(out.render().contains("\nmetric failed_frac 0 ratio\n"));
        }
        assert_eq!(plain.passes, 3, "no time budget means exactly the minimum passes");
        let path = trace_dir().join(format!("trace-{}-{SEED}.json", kind.name()));
        let trace = Json::parse(&std::fs::read_to_string(path).expect("trace file written"))
            .expect("trace file is JSON");
        let events = trace.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        let children =
            events.iter().filter(|e| e.get("args").and_then(|a| a.get("parent")).is_some());
        assert!(children.count() >= 5 * kind.cells(None).len(), "{}", kind.name());
    }
}

#[test]
fn every_benchmark_json_metric_is_printed_with_its_unit() {
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    for (kind, plain, traced) in runs() {
        for (out, metrics) in [(plain, &end_to_end), (traced, &per_layer)] {
            let text = out.render();
            for (name, unit) in metrics {
                let line = format!("metric {name} ");
                assert!(
                    text.lines().any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                    "{} does not print {name} in {unit}:\n{text}",
                    kind.name()
                );
            }
            let result = Json::parse(text.lines().last().expect("output")).expect("result JSON");
            let got = result.get("metrics").and_then(Json::as_object).expect("metrics");
            let mut got: Vec<(String, String)> = got
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").and_then(Json::as_str).unwrap().into()))
                .collect();
            let mut want = metrics.clone();
            got.sort();
            want.sort();
            assert_eq!(
                got,
                want,
                "{}: the result JSON holds exactly the listed metrics",
                kind.name()
            );
        }
    }
}

#[test]
fn two_invocations_give_equal_model_digests() {
    for (kind, plain, traced) in runs() {
        let again = run_plain(*kind, TINY, SEED, 0);
        assert!(again.correct());
        assert_eq!(again.model_digest, plain.model_digest, "{}", kind.name());
        if kind.mode() == Mode::Exact {
            // Both fold the same simulate() reports.
            assert_eq!(traced.model_digest, plain.model_digest, "{}", kind.name());
        }
    }
}

#[test]
fn timed_wrapper_is_timing_neutral_for_ooo_vr_dvr() {
    let wl = Benchmark::Bfs.build(Some(GraphInput::Kr), SizeClass::Test, SEED);
    for t in [Technique::Baseline, Technique::Vr, Technique::Dvr] {
        let cfg = SimConfig::new(t).with_max_instructions(60_000);
        let report = simulate(&wl, &cfg);
        let plain = direct_run(&wl, &cfg, &mut *engine_factory(&cfg)).expect("plain run");
        let mut engine = Timed::new(engine_factory(&cfg));
        let wrapped = direct_run(&wl, &cfg, &mut engine).expect("wrapped run");
        assert_eq!(plain, (report.core, report.mem.clone()), "{t:?}: direct run vs simulate()");
        assert_eq!(wrapped, plain, "{t:?}: Timed<E> changed the simulation");
        assert!(engine.dispatch.calls >= report.core.committed, "{t:?}");
    }
}

#[test]
fn quartiles_match_python_statistics() {
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let wall =
        Bound { name: "wall_s".into(), unit: "s".into(), higher_is_better: false, bound: 0.1 };
    let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
    let scaled = |k: f64| parent.iter().map(|v| v * k).collect::<Vec<_>>();
    assert_eq!(judge(&wall, &parent, &scaled(0.8)), (1.0, Verdict::Improved));
    assert_eq!(judge(&wall, &parent, &scaled(1.2)).1, Verdict::Regressed);
    assert_eq!(judge(&wall, &parent, &scaled(1.05)).1, Verdict::Unchanged);
    let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 8.0 } else { 12.0 }).collect();
    assert_eq!(judge(&wall, &noisy, &noisy).1, Verdict::Unresolved);
}

#[test]
fn result_files_pair_runs_by_workload() {
    let text: String = runs().iter().map(|(_, plain, _)| plain.render()).collect();
    let parsed = parse_results(&text).expect("rendered output parses");
    let names: Vec<&str> = parsed.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(names, Kind::ALL.map(Kind::name));
    assert!(parsed.iter().all(|r| r.metrics.iter().any(|(k, v)| k == "wall_s" && *v > 0.0)));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let bad: [&[&str]; 5] = [
        &[],
        &["--workload", "nope"],
        &["--workload", "mix4", "--seed", "x"],
        &["--workload", "mix4", "--frobnicate"],
        &["compare", "only-one-file"],
    ];
    for args in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_perf-bench")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
