//! # sim-sweep — crash-safe design-space sweeps
//!
//! The sweep layer turns a grid of (workload, config, technique) cells
//! into a job queue that survives everything the host can throw at it:
//!
//! - a **write-ahead journal** ([`journal`]) records every settled cell
//!   immediately, so a sweep killed at any byte offset resumes exactly
//!   where it stopped — completed cells are never recomputed;
//! - a **content-addressed result cache** ([`cache`]) keyed by a digest
//!   of (program bytes, canonical config, code version) makes repeated
//!   sweep points free across runs; entries carry checksums and corrupt
//!   ones are quarantined with a typed [`SweepError::CacheCorrupt`],
//!   never silently served;
//! - a **worker supervisor** ([`supervisor`]) runs cells in spawned
//!   processes with per-cell wall-clock timeouts and bounded retries
//!   (exponential backoff + deterministic seeded jitter);
//! - **fault injection** ([`fault`]) extends the PR-2 framework to this
//!   layer: worker kills, cache byte flips, journal truncation, and
//!   simulated crashes, all at deterministic seeded points;
//! - the **fan-out** ([`fanout`]) — [`parallel_map`] and
//!   [`try_parallel_map`] — runs cells on scoped threads, each
//!   panic-isolated with one retry. The sweep and every other grid
//!   runner above this crate fan out through it.
//!
//! The crate is simulator-agnostic: a [`CellRunner`] supplies the
//! domain pieces (how to compute a cell, its worker argv, its cache
//! key, and how to render its payload into `summary.json`), which is
//! what keeps `sim-sweep` below `dvr-sim` in the crate graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod error;
pub mod fanout;
pub mod fault;
pub mod journal;
pub mod supervisor;

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

pub use cache::{CacheLookup, CacheStats, GcStats, ResultCache, CACHE_ENTRY_VERSION};
pub use digest::{digest_bytes, fnv64, from_hex, to_hex, Digest128, Hasher};
pub use error::SweepError;
pub use fanout::{parallel_map, resolve_threads, try_parallel_map, CellError};
pub use fault::SweepFault;
pub use journal::{manifest_digest, Journal, JournalRecord, ReplayStats};
pub use supervisor::{
    backoff_delay_ms, fail_line, ok_line, parse_worker_output, Supervisor, WORKER_FAIL_TAG,
    WORKER_HANG_FLAG, WORKER_OK_TAG,
};

/// Version stamp of the `summary.json` layout.
pub const SUMMARY_VERSION: u32 = 1;

/// How one cell of the sweep ended. This is what the journal persists
/// and what `summary.json` renders.
#[derive(Clone, PartialEq, Debug)]
pub enum CellOutcome {
    /// The cell completed; the opaque payload is the encoded result.
    Done(Vec<u8>),
    /// The cell failed with a typed outcome (`--keep-going` renders it
    /// as data instead of aborting the sweep).
    Failed {
        /// Stable error-kind label.
        kind: String,
        /// Rendered error message.
        message: String,
        /// Attempts consumed (1 unless the supervisor retried).
        attempts: u32,
    },
}

/// Domain hooks supplied by the integration layer (dvr-sim).
pub trait CellRunner: Sync {
    /// Computes the cell in-process, returning the encoded payload or
    /// a typed `(kind, message)` failure. Deterministic failures are
    /// not retried.
    fn run(&self, cell: &str) -> Result<Vec<u8>, (String, String)>;

    /// Argv for computing the cell in a worker process (`--jobs`
    /// mode). `None` forces in-process execution for this cell.
    fn worker_args(&self, cell: &str) -> Option<Vec<String>> {
        let _ = cell;
        None
    }

    /// Content-address of the cell's result, or `None` when the cell
    /// must not be cached (e.g. configs with side-band state).
    fn cache_key(&self, cell: &str) -> Option<Digest128> {
        let _ = cell;
        None
    }

    /// Renders a completed payload as one JSON value for
    /// `summary.json`. Errors become `payload_decode` failures.
    fn summarize(&self, cell: &str, payload: &[u8]) -> Result<String, String>;
}

/// Sweep execution policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SweepOptions {
    /// Worker processes to run concurrently; `0` = in-process,
    /// sequential (the deterministic mode tests rely on).
    pub jobs: usize,
    /// Per-attempt wall-clock budget per cell in ms (`0` = unlimited;
    /// only enforceable in `--jobs` mode, where the cell is a process
    /// that can be killed).
    pub timeout_ms: u64,
    /// Retries per cell after the first attempt (infrastructure
    /// failures only — typed simulation failures never retry).
    pub retries: u32,
    /// Base backoff between attempts in ms.
    pub backoff_ms: u64,
    /// Seed for backoff jitter.
    pub seed: u64,
    /// Record failed cells in `summary.json` instead of aborting.
    pub keep_going: bool,
    /// Armed fault plan.
    pub fault: SweepFault,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 0,
            timeout_ms: 0,
            retries: 2,
            backoff_ms: 50,
            seed: 42,
            keep_going: false,
            fault: SweepFault::default(),
        }
    }
}

/// Counters describing where a sweep's results came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepStats {
    /// Cells in the manifest.
    pub total: u64,
    /// Cells settled by journal replay (resume).
    pub from_journal: u64,
    /// Cells settled by a cache hit.
    pub from_cache: u64,
    /// Cells computed this run.
    pub computed: u64,
    /// Cells whose outcome is a typed failure.
    pub failed: u64,
    /// Worker processes spawned.
    pub spawns: u64,
    /// Journal replay statistics.
    pub replay: ReplayStats,
    /// Cache counters (zero when no cache was attached).
    pub cache: CacheStats,
}

/// A completed sweep: outcomes parallel to the manifest plus counters
/// and non-fatal warnings (quarantined cache entries, failed stores).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRun {
    /// Per-cell outcomes, in manifest order.
    pub outcomes: Vec<CellOutcome>,
    /// Where the results came from.
    pub stats: SweepStats,
    /// Non-fatal events worth surfacing (typed, already recovered).
    pub warnings: Vec<SweepError>,
}

/// Executes (or resumes) a sweep over `cells`.
///
/// Every settled cell is journaled at `journal_path` the moment its
/// outcome is known; rerunning with the same manifest resumes from the
/// journal. With a cache attached, unjournaled cells are first looked
/// up by content address. The remainder is computed — in-process and
/// sequential with `jobs == 0`, otherwise via supervised worker
/// processes.
pub fn run_sweep<R: CellRunner>(
    cells: &[String],
    runner: &R,
    journal_path: &Path,
    cache: Option<&ResultCache>,
    opts: &SweepOptions,
) -> Result<SweepRun, SweepError> {
    validate_manifest(cells)?;
    let manifest = manifest_digest(cells);
    let (journal, replayed, replay) = Journal::open(journal_path, manifest)?;

    let mut settled: Vec<Option<CellOutcome>> = vec![None; cells.len()];
    let mut stats = SweepStats { total: cells.len() as u64, replay, ..SweepStats::default() };
    let mut warnings = Vec::new();
    for (cell, outcome) in journal::settled_map(replayed) {
        if let Some(i) = cells.iter().position(|c| *c == cell) {
            if settled[i].is_none() {
                stats.from_journal += 1;
            }
            settled[i] = Some(outcome);
        }
    }

    let state = DriverState {
        journal: Mutex::new(journal),
        fault: opts.fault,
        abort: AtomicBool::new(false),
        fatal: Mutex::new(None),
        spawns: AtomicU64::new(0),
        stores: AtomicU64::new(0),
    };

    // Cache pre-pass: settle unjournaled cells whose results are
    // already content-addressed. Hits are journaled like computed
    // results, so a later resume never re-reads the cache.
    let mut pending = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if settled[i].is_some() {
            continue;
        }
        let hit = match (cache, runner.cache_key(cell)) {
            (Some(cache), Some(key)) => match cache.lookup(key) {
                CacheLookup::Hit(payload) => Some(CellOutcome::Done(payload)),
                CacheLookup::Miss => None,
                CacheLookup::Corrupt(e) => {
                    warnings.push(e);
                    None
                }
            },
            _ => None,
        };
        match hit {
            Some(outcome) => {
                state.journal_settled(cell, &outcome)?;
                stats.from_cache += 1;
                settled[i] = Some(outcome);
                if state.abort.load(Ordering::SeqCst) {
                    return Err(state.take_fatal());
                }
            }
            None => pending.push(i),
        }
    }

    // Compute the remainder; a cell drawn once the sweep is aborting is
    // left unsettled.
    let threads = if opts.jobs == 0 { 1 } else { opts.jobs };
    let computed = parallel_map(pending.len(), threads, |i| {
        if state.abort.load(Ordering::SeqCst) {
            return None;
        }
        compute_cell(&cells[pending[i]], runner, cache, opts, &state)
    });
    for (slot, outcome) in pending.iter().zip(computed) {
        if let Some(outcome) = outcome {
            stats.computed += 1;
            settled[*slot] = Some(outcome);
        }
    }
    if state.abort.load(Ordering::SeqCst) {
        return Err(state.take_fatal());
    }

    let outcomes: Vec<CellOutcome> =
        settled.into_iter().map(|o| o.expect("every non-aborted cell settles")).collect();
    stats.failed =
        outcomes.iter().filter(|o| matches!(o, CellOutcome::Failed { .. })).count() as u64;
    stats.spawns = state.spawns.load(Ordering::Relaxed);
    if let Some(cache) = cache {
        stats.cache = cache.stats();
    }

    if !opts.keep_going {
        if let Some((i, CellOutcome::Failed { kind, message, .. })) = outcomes
            .iter()
            .enumerate()
            .find(|(_, o)| matches!(o, CellOutcome::Failed { .. }))
            .map(|(i, o)| (i, o.clone()))
        {
            return Err(SweepError::Cell { cell: cells[i].clone(), kind, message });
        }
    }
    Ok(SweepRun { outcomes, stats, warnings })
}

struct DriverState {
    journal: Mutex<Journal>,
    fault: SweepFault,
    abort: AtomicBool,
    fatal: Mutex<Option<SweepError>>,
    spawns: AtomicU64,
    stores: AtomicU64,
}

impl DriverState {
    /// Appends one settled outcome, then applies the journal-level
    /// fault triggers (truncation / simulated crash).
    fn journal_settled(&self, cell: &str, outcome: &CellOutcome) -> Result<(), SweepError> {
        let mut journal = self.journal.lock().unwrap();
        journal.append(cell, outcome)?;
        let records = journal.records();
        if self.fault.truncate_journal_at == records {
            journal.truncate_tail_for_fault(self.fault.truncate_bytes)?;
            self.raise(SweepError::Aborted { records });
        }
        if self.fault.abort_after_records == records {
            self.raise(SweepError::Aborted { records });
        }
        Ok(())
    }

    fn raise(&self, e: SweepError) {
        let mut fatal = self.fatal.lock().unwrap();
        if fatal.is_none() {
            *fatal = Some(e);
        }
        self.abort.store(true, Ordering::SeqCst);
    }

    fn take_fatal(&self) -> SweepError {
        self.fatal.lock().unwrap().take().unwrap_or(SweepError::Aborted { records: 0 })
    }
}

/// Computes one pending cell (worker process or in-process), stores a
/// fresh success in the cache, and journals the outcome. Returns
/// `None` when the cell was abandoned because the sweep is aborting.
fn compute_cell<R: CellRunner>(
    cell: &str,
    runner: &R,
    cache: Option<&ResultCache>,
    opts: &SweepOptions,
    state: &DriverState,
) -> Option<CellOutcome> {
    let result = match (opts.jobs > 0).then(|| runner.worker_args(cell)).flatten() {
        Some(argv) => {
            let sup = Supervisor {
                timeout_ms: opts.timeout_ms,
                retries: opts.retries,
                backoff_ms: opts.backoff_ms,
                seed: opts.seed,
                fault: &state.fault,
                spawns: &state.spawns,
            };
            sup.run_cell(cell, &argv)
        }
        None => runner.run(cell).map_err(|(kind, message)| SweepError::Cell {
            cell: cell.to_string(),
            kind,
            message,
        }),
    };
    let outcome = match result {
        Ok(payload) => {
            if let (Some(cache), Some(key)) = (cache, runner.cache_key(cell)) {
                if let Err(e) = cache.store(key, &payload) {
                    // A failed store never fails the cell; the result
                    // is in hand and will be journaled.
                    eprintln!("sweep: warning: {e}");
                }
                let n = state.stores.fetch_add(1, Ordering::Relaxed) + 1;
                if state.fault.flip_cache_at == n {
                    let _ = cache.flip_byte_for_fault(key, opts.seed);
                }
            }
            CellOutcome::Done(payload)
        }
        Err(SweepError::Cell { kind, message, .. }) => {
            CellOutcome::Failed { kind, message, attempts: 1 }
        }
        Err(e @ (SweepError::Timeout { .. } | SweepError::Worker { .. })) => {
            let attempts = match &e {
                SweepError::Timeout { attempts, .. } | SweepError::Worker { attempts, .. } => {
                    *attempts
                }
                _ => 1,
            };
            CellOutcome::Failed { kind: e.kind().into(), message: e.to_string(), attempts }
        }
        Err(e) => {
            state.raise(e);
            return None;
        }
    };
    let failed = matches!(outcome, CellOutcome::Failed { .. });
    if let Err(e) = state.journal_settled(cell, &outcome) {
        state.raise(e);
        return None;
    }
    if failed && !opts.keep_going {
        // The failure is journaled (resume won't recompute it); stop
        // handing out further cells.
        state.abort.store(true, Ordering::SeqCst);
        if let CellOutcome::Failed { kind, message, .. } = &outcome {
            state.raise(SweepError::Cell {
                cell: cell.to_string(),
                kind: kind.clone(),
                message: message.clone(),
            });
        }
    }
    Some(outcome)
}

fn validate_manifest(cells: &[String]) -> Result<(), SweepError> {
    if cells.is_empty() {
        return Err(SweepError::Config("empty sweep grid".into()));
    }
    let mut seen = std::collections::HashSet::new();
    for cell in cells {
        if cell.is_empty() || cell.chars().any(|c| c.is_whitespace()) {
            return Err(SweepError::Config(format!(
                "cell key `{cell}` must be a non-empty whitespace-free token"
            )));
        }
        if !seen.insert(cell) {
            return Err(SweepError::Config(format!("duplicate cell key `{cell}`")));
        }
    }
    Ok(())
}

/// Renders the deterministic `summary.json` for a completed sweep: one
/// line per cell in manifest order, no wall-clock fields, so an
/// interrupted-and-resumed sweep is byte-identical to an uninterrupted
/// one.
pub fn render_summary<R: CellRunner>(
    cells: &[String],
    outcomes: &[CellOutcome],
    runner: &R,
) -> String {
    assert_eq!(cells.len(), outcomes.len());
    let ok = outcomes.iter().filter(|o| matches!(o, CellOutcome::Done(_))).count();
    let mut s = format!(
        "{{\"summary_version\":{SUMMARY_VERSION},\"cells\":{},\"ok\":{ok},\"failed\":{},\
         \"results\":[\n",
        cells.len(),
        cells.len() - ok,
    );
    for (i, (cell, outcome)) in cells.iter().zip(outcomes).enumerate() {
        let body = match outcome {
            CellOutcome::Done(payload) => match runner.summarize(cell, payload) {
                Ok(json) => format!("\"status\":\"ok\",\"report\":{json}"),
                Err(e) => format!(
                    "\"status\":\"failed\",\"kind\":\"payload_decode\",\"error\":\"{}\"",
                    escape_json(&e)
                ),
            },
            CellOutcome::Failed { kind, message, attempts } => format!(
                "\"status\":\"failed\",\"kind\":\"{}\",\"attempts\":{attempts},\"error\":\"{}\"",
                escape_json(kind),
                escape_json(message)
            ),
        };
        s.push_str(&format!(
            "{{\"cell\":\"{}\",{body}}}{}\n",
            escape_json(cell),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("]}\n");
    s
}

/// Writes `content` to `path` atomically (temp file + rename), so a
/// crashed writer never leaves a half-written summary.
pub fn write_atomic(path: &Path, content: &str) -> Result<(), SweepError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content).and_then(|()| std::fs::rename(&tmp, path)).map_err(|e| {
        SweepError::Io { context: format!("write {}", path.display()), error: e.to_string() }
    })
}

/// Escapes `s` for the inside of a JSON string literal: `"`, `\` and
/// every control character (as `\u00XX`).
pub fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Toy runner: payload is the cell key uppercased; cells starting
    /// with `bad` fail typed; cache key is the digest of the key.
    struct ToyRunner {
        cacheable: bool,
    }

    impl CellRunner for ToyRunner {
        fn run(&self, cell: &str) -> Result<Vec<u8>, (String, String)> {
            if cell.starts_with("bad") {
                return Err(("deadlock".into(), format!("{cell} is stuck")));
            }
            Ok(cell.to_uppercase().into_bytes())
        }

        fn cache_key(&self, cell: &str) -> Option<Digest128> {
            self.cacheable.then(|| digest_bytes(cell.as_bytes()))
        }

        fn summarize(&self, _cell: &str, payload: &[u8]) -> Result<String, String> {
            Ok(format!("\"{}\"", String::from_utf8_lossy(payload)))
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dvr-sweep-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn keys(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sweep_completes_and_summary_is_stable() {
        let d = tmp("basic");
        let cells = keys(&["a", "b", "c"]);
        let runner = ToyRunner { cacheable: false };
        let run =
            run_sweep(&cells, &runner, &d.join("j.dvrj"), None, &SweepOptions::default()).unwrap();
        assert_eq!(run.stats.computed, 3);
        assert_eq!(run.outcomes[0], CellOutcome::Done(b"A".to_vec()));
        let summary = render_summary(&cells, &run.outcomes, &runner);
        assert!(summary.contains("\"cells\":3,\"ok\":3,\"failed\":0"), "{summary}");
        assert!(summary.contains("{\"cell\":\"a\",\"status\":\"ok\",\"report\":\"A\"},"));

        // Rerun: everything comes from the journal, summary identical.
        let rerun =
            run_sweep(&cells, &runner, &d.join("j.dvrj"), None, &SweepOptions::default()).unwrap();
        assert_eq!(rerun.stats.from_journal, 3);
        assert_eq!(rerun.stats.computed, 0);
        assert_eq!(render_summary(&cells, &rerun.outcomes, &runner), summary);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_crash_resumes_byte_identical() {
        let d = tmp("crash");
        let cells = keys(&["a", "b", "c", "d"]);
        let runner = ToyRunner { cacheable: false };
        // Uninterrupted reference.
        let reference =
            run_sweep(&cells, &runner, &d.join("ref.dvrj"), None, &SweepOptions::default())
                .unwrap();
        let reference = render_summary(&cells, &reference.outcomes, &runner);
        for abort_at in 1..=3u64 {
            let journal = d.join(format!("crash{abort_at}.dvrj"));
            let opts = SweepOptions {
                fault: SweepFault { abort_after_records: abort_at, ..Default::default() },
                ..SweepOptions::default()
            };
            match run_sweep(&cells, &runner, &journal, None, &opts) {
                Err(SweepError::Aborted { records }) => assert_eq!(records, abort_at),
                other => panic!("expected abort, got {other:?}"),
            }
            let resumed =
                run_sweep(&cells, &runner, &journal, None, &SweepOptions::default()).unwrap();
            assert_eq!(resumed.stats.from_journal, abort_at);
            assert_eq!(resumed.stats.computed, 4 - abort_at);
            assert_eq!(render_summary(&cells, &resumed.outcomes, &runner), reference);
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn journal_truncation_fault_costs_one_cell_only() {
        let d = tmp("trunc");
        let cells = keys(&["a", "b", "c"]);
        let runner = ToyRunner { cacheable: false };
        let journal = d.join("j.dvrj");
        let opts = SweepOptions {
            fault: SweepFault { truncate_journal_at: 2, truncate_bytes: 4, ..Default::default() },
            ..SweepOptions::default()
        };
        assert!(run_sweep(&cells, &runner, &journal, None, &opts).is_err());
        let resumed = run_sweep(&cells, &runner, &journal, None, &SweepOptions::default()).unwrap();
        // Record 2 was torn, so exactly one journaled record survives.
        assert_eq!(resumed.stats.from_journal, 1);
        assert_eq!(resumed.stats.replay.replayed, 1);
        assert_eq!(resumed.stats.computed, 2);
        assert_eq!(resumed.outcomes[1], CellOutcome::Done(b"B".to_vec()));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn cache_serves_second_run_and_corruption_recomputes() {
        let d = tmp("cache");
        let cells = keys(&["x", "y"]);
        let runner = ToyRunner { cacheable: true };
        let cache = ResultCache::open(&d.join("cache")).unwrap();
        let first =
            run_sweep(&cells, &runner, &d.join("j1.dvrj"), Some(&cache), &SweepOptions::default())
                .unwrap();
        assert_eq!(first.stats.computed, 2);
        assert_eq!(first.stats.cache.stores, 2);

        // Fresh journal, same cache: both cells come from the cache.
        let second =
            run_sweep(&cells, &runner, &d.join("j2.dvrj"), Some(&cache), &SweepOptions::default())
                .unwrap();
        assert_eq!(second.stats.from_cache, 2);
        assert_eq!(second.stats.computed, 0);
        assert_eq!(second.outcomes, first.outcomes);

        // Corrupt one entry: third run recomputes it, warns typed.
        cache.flip_byte_for_fault(digest_bytes(b"x"), 1).unwrap();
        let third =
            run_sweep(&cells, &runner, &d.join("j3.dvrj"), Some(&cache), &SweepOptions::default())
                .unwrap();
        assert_eq!(third.stats.from_cache, 1);
        assert_eq!(third.stats.computed, 1);
        assert_eq!(third.outcomes, first.outcomes);
        assert!(third.warnings.iter().any(|w| w.kind() == "cache_corrupt"), "{:?}", third.warnings);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn typed_failure_aborts_without_keep_going_but_renders_with_it() {
        let d = tmp("fail");
        let cells = keys(&["a", "bad-1", "c"]);
        let runner = ToyRunner { cacheable: false };
        let err =
            run_sweep(&cells, &runner, &d.join("strict.dvrj"), None, &SweepOptions::default())
                .unwrap_err();
        assert_eq!(err.kind(), "cell_failed");

        let run = run_sweep(
            &cells,
            &runner,
            &d.join("keep.dvrj"),
            None,
            &SweepOptions { keep_going: true, ..SweepOptions::default() },
        )
        .unwrap();
        assert_eq!(run.stats.failed, 1);
        let summary = render_summary(&cells, &run.outcomes, &runner);
        assert!(
            summary.contains(
                "{\"cell\":\"bad-1\",\"status\":\"failed\",\"kind\":\"deadlock\",\"attempts\":1,"
            ),
            "{summary}"
        );
        assert!(summary.contains("\"ok\":2,\"failed\":1"), "{summary}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn manifest_validation_rejects_bad_grids() {
        let runner = ToyRunner { cacheable: false };
        let d = tmp("validate");
        let j = d.join("j.dvrj");
        let opts = SweepOptions::default();
        assert!(matches!(run_sweep(&[], &runner, &j, None, &opts), Err(SweepError::Config(_))));
        assert!(matches!(
            run_sweep(&keys(&["a", "a"]), &runner, &j, None, &opts),
            Err(SweepError::Config(_))
        ));
        assert!(matches!(
            run_sweep(&keys(&["a b"]), &runner, &j, None, &opts),
            Err(SweepError::Config(_))
        ));
        let _ = std::fs::remove_dir_all(&d);
    }
}
