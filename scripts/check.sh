#!/usr/bin/env bash
# Repository gate: formatting, lints (warnings are errors), and the full
# test suite. Run before every push; CI mirrors these steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q =="
cargo test -q

echo "== perf-bench: the benchmark harness formats, lints clean and passes its tests =="
# perf-bench/ is a workspace of its own, so none of the stages above compile
# it, yet it drives the simulator's public API (engine_factory, Cpu::step,
# OooCore::run, SimReport). `cargo fmt` takes no --offline (it never fetches).
perf_bench=(--offline --manifest-path perf-bench/Cargo.toml)
cargo fmt --check --manifest-path perf-bench/Cargo.toml
cargo clippy "${perf_bench[@]}" --all-targets -- -D warnings
cargo test -q "${perf_bench[@]}"

echo "== perf-bench digests: Paper-size model digests of all four workloads match the golden =="
# model_digest hashes every report a plain run simulates, from the Paper-size
# input builds on, so a change that moves any simulated byte of the four
# workloads at seed 42 diffs against tests/golden/perf_bench_digests.txt.
# A run whose own checks fail exits 1 and fails the stage.
cargo build -q --release "${perf_bench[@]}"
pb_out="$(mktemp)"
digests=""
for w in ooo_stall dvr_gap sampled mix4; do
  perf-bench/target/release/perf-bench --workload "$w" --seed 42 >"$pb_out" \
      || { echo "perf-bench --workload $w failed its checks:"; cat "$pb_out"; exit 1; }
  digests+="$w $(grep '^model_digest ' "$pb_out")"$'\n'
done
rm -f "$pb_out"
diff -u tests/golden/perf_bench_digests.txt <(printf '%s' "$digests") \
    || { echo "perf-bench model digests drifted from tests/golden/perf_bench_digests.txt"; exit 1; }

echo "== fault smoke: dvr-sim fault/watchdog suite =="
cargo test -q -p dvr-sim --test faults

echo "== fault smoke: figures --keep-going with a forced-fail cell =="
# One cell is forced to panic; keep-going must exit 0, render the rest of
# the figure, and mark the failed cell in the output.
out="$(cargo run -q -p bench --bin figures -- fig9 --size test --instrs 10000 \
    --keep-going --force-fail 'bfs_KR/DVR' 2>/dev/null)"
echo "$out" | grep -q 'FAILED cell(s)' || { echo "missing failure marker"; exit 1; }
echo "$out" | grep -q 'bfs_KR/DVR' || { echo "failed cell not named"; exit 1; }
echo "$out" | grep -q 'NAS-IS' || { echo "remaining cells did not render"; exit 1; }

echo "== fault smoke: the same forced failure aborts without --keep-going =="
if cargo run -q -p bench --bin figures -- fig9 --size test --instrs 10000 \
    --force-fail 'bfs_KR/DVR' >/dev/null 2>&1; then
  echo "fail-fast run unexpectedly succeeded"; exit 1
fi

echo "== figures-golden: every experiment at --threads 4 matches the golden text =="
# The cli test pins the serial text of every experiment; the same run
# fanned over four worker threads must print the same bytes.
figs4="$(mktemp)"
cargo run -q -p bench --bin figures -- all --size test --instrs 5000 --threads 4 \
    >"$figs4" 2>/dev/null
diff -u tests/golden/figures_test.txt "$figs4" \
    || { echo "figures all --threads 4 diverged from tests/golden/figures_test.txt"; exit 1; }
rm -f "$figs4"

echo "== lint-workloads: dvrsim lint --all must report zero errors =="
lint_out="$(cargo run -q -p dvr-sim --bin dvrsim -- lint --all)"
echo "$lint_out" | grep -q ', 0 errors,' || { echo "lint reported errors:"; echo "$lint_out"; exit 1; }
echo "$lint_out" | grep -q '13 programs checked' || { echo "lint did not cover the full suite"; exit 1; }

echo "== lint-audit: dvrsim audit --all must PASS with zero unexplained =="
audit_out="$(cargo run -q -p dvr-sim --bin dvrsim -- audit --all)"
if echo "$audit_out" | grep -q 'FAIL'; then
  echo "audit reported unexplained divergences:"; echo "$audit_out"; exit 1
fi
[ "$(echo "$audit_out" | grep -c '^PASS$')" = 13 ] || { echo "audit did not cover the full suite"; exit 1; }

echo "== forbid-unsafe: every crate keeps #![forbid(unsafe_code)] =="
for lib in crates/*/src/lib.rs; do
  grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || { echo "$lib: missing #![forbid(unsafe_code)]"; exit 1; }
done

echo "== lint-taint: the attack kernel must flag, the suite must not =="
# Finding the gadget is the tool working, so --attack must exit 1 and name
# the speculative-gather-gadget; the 13 secret-free benchmarks must be
# silent (exit 0).
if taint_out="$(cargo run -q -p dvr-sim --bin dvrsim -- lint-taint --attack)"; then
  echo "lint-taint --attack missed the gadget:"; echo "$taint_out"; exit 1
fi
echo "$taint_out" | grep -q 'speculative-gather-gadget' || { echo "gadget not named:"; echo "$taint_out"; exit 1; }
suite_taint="$(cargo run -q -p dvr-sim --bin dvrsim -- lint-taint --all || true)"
echo "$suite_taint" | grep -q '14 programs checked, 1 gadgets' \
    || { echo "lint-taint --all drifted (want 14 programs, 1 gadget):"; echo "$suite_taint"; exit 1; }

echo "== leak-audit: static and dynamic taint views must agree everywhere =="
leak_out="$(cargo run -q -p dvr-sim --bin dvrsim -- leak-audit --all)"
if echo "$leak_out" | grep -q 'FAIL'; then
  echo "leak-audit reported unexplained divergences:"; echo "$leak_out"; exit 1
fi
[ "$(echo "$leak_out" | grep -c '^PASS$')" = 14 ] || { echo "leak-audit did not cover the full suite"; exit 1; }
echo "$leak_out" | grep -q '1 gadgets dynamically confirmed' \
    || { echo "the attack gadget was not dynamically confirmed:"; echo "$leak_out"; exit 1; }

echo "== bounds-lint: dvrsim lint --all --bounds must prove the suite =="
bounds_out="$(cargo run -q -p dvr-sim --bin dvrsim -- lint --all --bounds)"
echo "$bounds_out" | grep -q ', 0 errors,' || { echo "bounds lint reported errors:"; echo "$bounds_out"; exit 1; }
echo "$bounds_out" | grep -q '13 programs checked' || { echo "bounds lint did not cover the full suite"; exit 1; }

echo "== bounds-audit: static and dynamic bounds views must agree everywhere =="
bounds_audit_out="$(cargo run -q -p dvr-sim --bin dvrsim -- bounds-audit --all)"
if echo "$bounds_audit_out" | grep -q 'FAIL'; then
  echo "bounds-audit reported unexplained divergences:"; echo "$bounds_audit_out"; exit 1
fi
[ "$(echo "$bounds_audit_out" | grep -c '^PASS$')" = 14 ] || { echo "bounds-audit did not cover the full suite"; exit 1; }
echo "$bounds_audit_out" | grep -q ' 0 unexplained, 0 static errors' \
    || { echo "bounds-audit summary drifted:"; echo "$bounds_audit_out"; exit 1; }

echo "== bounds-audit: the out-of-bounds kernel must flag and be confirmed =="
# Flagging the escape is the tool working, so --oob must exit 1 with both
# static errors confirmed by the dynamic oracle.
if oob_out="$(cargo run -q -p dvr-sim --bin dvrsim -- bounds-audit --oob)"; then
  echo "bounds-audit --oob missed the out-of-bounds kernel:"; echo "$oob_out"; exit 1
fi
echo "$oob_out" | grep -q 'confirmed-oob: 2 of 2' \
    || { echo "static errors not dynamically confirmed:"; echo "$oob_out"; exit 1; }

echo "== one byte reader: binary decoders read through sim_isa::bytes =="
# Checkpoint, warm-image and report decoders read through the checked
# sim_isa::bytes::Reader, whose every read is bounds-checked and names its
# field. Outside it, from_le_bytes may appear only in SparseMemory::read (a
# memory load, not a decoder), in the FxHash mixer, and in the std-only
# sim-sweep crate.
stray="$(grep -rn 'from_le_bytes' crates/*/src \
    | grep -v -e '^crates/sim-isa/src/bytes\.rs:' -e '^crates/sim-isa/src/fxhash\.rs:' \
        -e '^crates/sim-sweep/' -e '^crates/sim-isa/src/mem\.rs:[0-9]*: *u64::from_le_bytes(buf)$' \
    || true)"
[ -z "$stray" ] || { echo "from_le_bytes outside sim_isa::bytes:"; echo "$stray"; exit 1; }

echo "== one prediction: every lint pass and audit reads sim_lint::StaticModel =="
# The taint lint, the bounds lint and the Discovery audit escalate from one
# coverage prediction, which StaticModel::build computes once per program.
# Outside it, predict_coverage( may appear only where it is defined.
stray="$(grep -rn 'predict_coverage(' crates/*/src \
    | grep -v -e '^crates/sim-lint/src/predict\.rs:' -e '^crates/sim-lint/src/model\.rs:' \
    || true)"
[ -z "$stray" ] || { echo "predict_coverage outside the static model:"; echo "$stray"; exit 1; }

# in_src PATTERN...: grep -n every crate's source with its test module (from
# #[cfg(test)] to the end of the file) cut off, as FILE:LINE:TEXT.
in_src() {
  for f in $(find crates -path '*/src/*.rs' | sort); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "$@" | sed "s|^|$f:|"
  done
}

echo "== one sampled driver: every sampled run goes through sim_sample::drive_sampled =="
# One functional pass streams its checkpoints in batches to every run it
# serves, applies the failure rule and merges each run. Outside the driver,
# no source streams checkpoints or merges periods by hand; test modules may,
# to check the pieces.
stray="$(in_src -e 'stream_checkpoints(' -e 'merge_periods(' \
    | grep -v '^crates/sim-sample/src/driver\.rs:' || true)"
[ -z "$stray" ] || { echo "sampled-driver pieces composed outside the driver:"; echo "$stray"; exit 1; }
# bench runs a sampled grid one combo at a time through
# simulate_sampled_configs, one pass per hierarchy, never cell by cell.
stray="$(in_src -e 'simulate_sampled(' -e 'simulate_sampled_threads(' | grep '^crates/bench/src/' || true)"
[ -z "$stray" ] || { echo "bench samples cell by cell:"; echo "$stray"; exit 1; }

echo "== one cell plumbing: one fan-out and one result-cache path for reports =="
# Every entry point fans cells out through sim_sweep's parallel_map /
# try_parallel_map, and reads and writes reports in the result cache through
# dvr_sim::sweep's report_key / lookup_report / store_report. Outside test
# modules, the report codec and raw cache lookups appear only in dvr-sim's
# sweep.rs and in sim-sweep, and thread::scope only in the fan-out.
stray="$(in_src -e 'encode_report(' -e 'decode_report(' -e 'CacheLookup::' \
    | grep -v -e '^crates/dvr-sim/src/sweep\.rs:' -e '^crates/sim-sweep/src/' || true)"
[ -z "$stray" ] || { echo "report cache plumbing outside dvr_sim::sweep:"; echo "$stray"; exit 1; }
stray="$(in_src -e 'thread::scope' | grep -v '^crates/sim-sweep/src/fanout\.rs:' || true)"
[ -z "$stray" ] || { echo "a fan-out outside sim_sweep::fanout:"; echo "$stray"; exit 1; }

echo "== report-determinism: no host-order maps or wall clock in serializers =="
# Report renderers/serializers must be byte-stable across hosts: FxHashMap
# with sorted output vectors only (no std HashMap iteration order), and no
# Instant::now (wall clock lives in the runner, stripped before diffing).
ser_files="$(grep -rl 'fn to_json\|fn render' crates/*/src)"
for f in $ser_files; do
  if grep -q 'std::collections::HashMap' "$f"; then
    echo "$f: std::collections::HashMap in a serialization path"; exit 1
  fi
  if grep -q 'Instant::now' "$f"; then
    echo "$f: Instant::now in a serialization path"; exit 1
  fi
done

echo "== sanitize smoke: sanitized run is clean and byte-identical =="
# host_seconds / sim_instrs_per_host_second / host_minstr_per_sec are wall
# clock; strip them before diffing — everything else must match to the byte.
strip_clock() { sed -E 's/"host_seconds":[0-9.eE+-]+,"sim_instrs_per_host_second":[0-9.eE+-]+,"host_minstr_per_sec":[0-9.eE+-]+,//'; }
plain="$(cargo run -q -p dvr-sim --bin dvrsim -- --bench NAS-IS --size test \
    --technique dvr --instrs 20000 --json | strip_clock)"
sane="$(cargo run -q -p dvr-sim --bin dvrsim -- --bench NAS-IS --size test \
    --technique dvr --instrs 20000 --json --sanitize | strip_clock)"
[ "$plain" = "$sane" ] || { echo "sanitized JSON diverged from plain run"; exit 1; }

echo "== event-driven core: work counters match the golden, stepping matches skipping =="
# The core jumps over cycles in which no stage can act. Its work counts are
# deterministic, so a change that quietly stops skipping diffs against
# tests/golden/work_counters.txt (cells are bench[/input]:technique). A
# sanitized run steps every cycle and must print the same JSON; Camel under
# VR covers the engine's commit-block path, bfs/UR under DVR the busy,
# few-idle-cycle path, and a 64-entry ROB a ring its window wraps often.
cargo build -q --release -p dvr-sim --bin dvrsim
dvrsim=target/release/dvrsim
cell_args() {
  local bench="${1%%:*}"
  case "$bench" in
    */*) echo "--bench ${bench%%/*} --input ${bench#*/} --technique ${1##*:}" ;;
    *) echo "--bench $bench --technique ${1##*:}" ;;
  esac
}
work="$(for cell in hj8:ooo camel:vr nas-is:dvr bfs/ur:oracle; do
  # shellcheck disable=SC2046
  line="$("$dvrsim" $(cell_args "$cell") --size test --instrs 20000 --verbose | grep -o 'work: .*')"
  echo "$cell $line"
done)"
diff -u tests/golden/work_counters.txt <(echo "$work") \
    || { echo "work counters drifted from tests/golden/work_counters.txt"; exit 1; }
for run in hj8:ooo camel:vr bfs/ur:dvr "bfs/ur:dvr --rob 64"; do
  cell="${run%% *}"
  extra="${run#"$cell"}"
  # shellcheck disable=SC2046,SC2086
  plain="$("$dvrsim" $(cell_args "$cell") $extra --size test --instrs 20000 --json | strip_clock)"
  # shellcheck disable=SC2046,SC2086
  sane="$("$dvrsim" $(cell_args "$cell") $extra --size test --instrs 20000 --json --sanitize \
      | strip_clock)"
  [ "$plain" = "$sane" ] || { echo "$run: stepping (sanitized) JSON diverged from skipping"; exit 1; }
done

echo "== sanitize smoke: one figure cell under the sanitizer =="
san_err="$(cargo run -q -p bench --bin figures -- fig9 --size test --instrs 10000 \
    --sanitize 2>&1 >/dev/null)"
echo "$san_err" | grep -q ' 0 violations' || { echo "sanitizer reported violations:"; echo "$san_err"; exit 1; }

echo "== multicore: sanitized 2-core mix byte-identical across --threads 1/4 =="
# The mix itself runs on the deterministic discrete-event scheduler;
# --threads only fans out the solo baselines, so stdout (mix JSON +
# evaluation line) must not depend on it — or on the re-run. --sanitize
# covers the per-core ledgers and the shared-L3 provenance sweeper (any
# violation exits non-zero and fails the stage via set -e).
mix_args="mix --spec bfs:dvr,nas-is:ooo --size test --instrs 20000 --solo --sanitize --json"
m1="$(cargo run -q -p dvr-sim --bin dvrsim -- $mix_args --threads 1 2>/dev/null)"
m4="$(cargo run -q -p dvr-sim --bin dvrsim -- $mix_args --threads 4 2>/dev/null)"
m1b="$(cargo run -q -p dvr-sim --bin dvrsim -- $mix_args --threads 1 2>/dev/null)"
[ "$m1" = "$m4" ] || { echo "mix JSON diverged across thread counts"; exit 1; }
[ "$m1" = "$m1b" ] || { echo "mix JSON diverged across re-runs"; exit 1; }
echo "$m1" | grep -q '"aggregate_ipc"' || { echo "mix JSON missing aggregate_ipc"; exit 1; }
echo "$m1" | grep -q '"fairness"' || { echo "mix JSON missing the evaluation line"; exit 1; }

echo "== scheduler-determinism: no wall clock or float keys in the scheduler or the model =="
# The event queue is keyed by (tick, component id) — integers only. A
# float-keyed BinaryHeap (NaN-unordered) or any wall-clock read in the
# scheduler or the mix path would break the byte-identity the multicore
# stage just checked.
for f in crates/sim-multi/src/*.rs crates/dvr-sim/src/multi.rs; do
  if grep -q 'Instant::now' "$f"; then
    echo "$f: Instant::now in the deterministic scheduler path"; exit 1
  fi
  if grep -Eq 'BinaryHeap<[^>]*f(32|64)' "$f"; then
    echo "$f: float-keyed BinaryHeap breaks deterministic event ordering"; exit 1
  fi
done
# The model itself reads no host clock: outside test modules, the executor,
# the hierarchy, the core and the engines name neither Instant nor
# SystemTime, so nothing in a run can depend on how fast the host is.
stray="$(in_src -e 'Instant' -e 'SystemTime' | grep -e '^crates/sim-isa/' -e '^crates/sim-mem/' \
    -e '^crates/sim-ooo/' -e '^crates/dvr-core/' || true)"
[ -z "$stray" ] || { echo "host clock in the cycle model:"; echo "$stray"; exit 1; }

echo "== sample smoke: sampled IPC within its CI of the exact IPC =="
# `dvrsim sample` exits non-zero when any cell's 95% CI misses the exact
# IPC, so the exit status IS the check.
cargo run -q -p dvr-sim --bin dvrsim -- sample --bench bfs >/dev/null

echo "== sample smoke: sampled runs byte-identical across --threads 1/4 =="
s1="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --all --no-exact --size test \
    --instrs 60000 --json --threads 1 | strip_clock)"
s4="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --all --no-exact --size test \
    --instrs 60000 --json --threads 4 | strip_clock)"
[ "$s1" = "$s4" ] || { echo "sampled JSON diverged across thread counts"; exit 1; }

echo "== sample-parallel: byte-identity across --threads 1/4 x --jobs 0/2 =="
# The checkpoint-parallel dispatch grid: every combination of in-process
# threads and worker processes must produce the same bytes as the
# sequential driver (s1 above).
for combo in "--threads 1 --jobs 2" "--threads 4 --jobs 2"; do
  sj="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --all --no-exact --size test \
      --instrs 60000 --json $combo | strip_clock)"
  [ "$s1" = "$sj" ] || { echo "sampled JSON diverged for $combo"; exit 1; }
done

echo "== sample-parallel: worker-protocol round-trip =="
# Measure every period in real sample-worker processes under the sweep
# supervisor: each worker answers with a SWEEPOK1 line whose payload is its
# period's byte-encoded result, and the merged report must match the
# sequential one. (tests/sample_parallel.rs also drives the worker path
# through the library; this smokes the CLI.)
worker_out="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --bench bfs --size test \
    --instrs 60000 --no-exact --json --jobs 2 | strip_clock)"
echo "$worker_out" | grep -q '"sampling":' || { echo "worker-backed sample produced no sampling section"; exit 1; }
seq_out="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --bench bfs --size test \
    --instrs 60000 --no-exact --json | strip_clock)"
[ "$worker_out" = "$seq_out" ] || { echo "worker-backed sample diverged from sequential"; exit 1; }

echo "== sample-parallel: engine techniques byte-identical across --threads 1/4 and --jobs 2 =="
# The stages above sample Baseline only. Every technique builds a fresh
# engine per period; one functional pass serves all of them, and each batch
# of periods is measured on 4 threads (--threads 4) or in worker processes
# (--jobs 2). Both must print the sequential run's bytes.
for bench in camel hj8 nas-is; do
  e1="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --bench "$bench" --technique all \
      --size test --instrs 60000 --no-exact --json --threads 1 | strip_clock)"
  for combo in "--threads 4" "--jobs 2"; do
    # shellcheck disable=SC2086
    ej="$(cargo run -q -p dvr-sim --bin dvrsim -- sample --bench "$bench" --technique all \
        --size test --instrs 60000 --no-exact --json $combo | strip_clock)"
    diff -u <(echo "$e1") <(echo "$ej") \
        || { echo "$bench: engine sampling diverged for $combo"; exit 1; }
  done
done
# figures --sample runs each combo's configurations from one pass per
# cache geometry; --threads fans out combos and measures periods on what is
# left. In the ablation grid the MSHR, DRAM and DVR-config columns of a
# combo share one pass.
for fig in fig9 ablation; do
  f1="$(cargo run -q -p bench --bin figures -- "$fig" --size test --instrs 60000 --sample \
      --threads 1 2>/dev/null)"
  f4="$(cargo run -q -p bench --bin figures -- "$fig" --size test --instrs 60000 --sample \
      --threads 4 2>/dev/null)"
  diff -u <(echo "$f1") <(echo "$f4") \
      || { echo "figures $fig --sample diverged across --threads 1/4"; exit 1; }
done

echo "== sample-parallel: wall-clock trajectory line (BENCH json) =="
# On a single-core host the speedup probes self-skip: the stderr line then
# reads "sample probe: skipped..." and the JSON field carries the
# "skipped_single_core" marker — both greps below accept either form.
bench_dir="$(mktemp -d)"
probe_err="$(cargo run -q -p bench --bin figures -- fig9 --size test --instrs 60000 \
    --sample --bench-json "$bench_dir" 2>&1 >/dev/null)"
echo "$probe_err" | grep -q 'sample probe:' || { echo "no sample-probe wall-clock line"; exit 1; }
grep -q '"sample_probe"' "$bench_dir/BENCH_fig9.json" || { echo "BENCH json missing sample_probe"; exit 1; }
grep -q '"host_minstr_per_sec"' "$bench_dir/BENCH_fig9.json" || { echo "BENCH json missing throughput"; exit 1; }
rm -rf "$bench_dir"

echo "== sweep smoke: corrupt cache entry is quarantined, never served =="
# The cold sweep populates the cache and flips a byte in the first stored
# entry (--inject-sweep flip=1). The next run must detect the bad checksum,
# quarantine the entry, recompute the cell, and still match byte-for-byte.
sweep_dir="$(mktemp -d)"
sweep_grid="--bench bfs,nas-is --technique ooo,dvr --size test --instrs 8000"
cargo run -q -p dvr-sim --bin dvrsim -- sweep $sweep_grid \
    --out "$sweep_dir/cold" --cache "$sweep_dir/cache" \
    --inject-sweep flip=1 >/dev/null 2>"$sweep_dir/cold.err"
corrupt_err="$(cargo run -q -p dvr-sim --bin dvrsim -- sweep $sweep_grid \
    --out "$sweep_dir/corrupt" --cache "$sweep_dir/cache" 2>&1 >/dev/null)"
echo "$corrupt_err" | grep -q 'cache_corrupt=1' || { echo "flipped entry not detected"; exit 1; }
echo "$corrupt_err" | grep -q 'warning\[cache_corrupt\]' || { echo "no quarantine warning"; exit 1; }
cmp -s "$sweep_dir/cold/summary.json" "$sweep_dir/corrupt/summary.json" \
    || { echo "corrupt-cache sweep summary diverged"; exit 1; }
ls "$sweep_dir/cache/quarantine" | grep -q '.' || { echo "quarantine directory is empty"; exit 1; }

echo "== sweep smoke: warm cache run is byte-identical, all hits =="
# The quarantined entry was recomputed and re-stored above, so this run
# must serve the whole grid from the cache without touching a simulator.
warm_err="$(cargo run -q -p dvr-sim --bin dvrsim -- sweep $sweep_grid \
    --out "$sweep_dir/warm" --cache "$sweep_dir/cache" 2>&1 >/dev/null)"
cmp -s "$sweep_dir/cold/summary.json" "$sweep_dir/warm/summary.json" \
    || { echo "warm sweep summary diverged from cold"; exit 1; }
echo "$warm_err" | grep -q 'cache_hits=4' || { echo "warm sweep did not hit the cache"; exit 1; }

echo "== sweep smoke: killed worker is retried and the summary still matches =="
kill_err="$(cargo run -q -p dvr-sim --bin dvrsim -- sweep $sweep_grid \
    --out "$sweep_dir/kill" --no-cache --jobs 2 --inject-sweep kill=1 2>&1 >/dev/null)"
cmp -s "$sweep_dir/cold/summary.json" "$sweep_dir/kill/summary.json" \
    || { echo "worker-kill sweep summary diverged"; exit 1; }
echo "$kill_err" | grep -q 'computed=4' \
    || { echo "worker-kill sweep did not recover all cells"; exit 1; }

echo "== sweep smoke: --gc keeps the live grid =="
gc_out="$(cargo run -q -p dvr-sim --bin dvrsim -- sweep $sweep_grid \
    --cache "$sweep_dir/cache" --gc)"
echo "$gc_out" | grep -q 'kept=4' || { echo "gc did not keep the grid:"; echo "$gc_out"; exit 1; }
rm -rf "$sweep_dir"

echo "All checks passed."
