//! The one fan-out: maps a function over `0..n` on scoped threads, with
//! each cell panic-isolated and retried once. Every entry point that runs
//! a grid of cells — `figures`, `dvrsim sweep`, `dvrsim sample` and the
//! sampled driver's measure phase — fans out through here.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resolves a user-facing thread-count knob: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        threads
    }
}

/// A failed cell in a batched parallel run.
///
/// Produced by [`try_parallel_map`] when a work item panics (twice — each
/// cell gets one retry) or when a worker thread dies without reporting a
/// result for an index it claimed.
#[derive(Clone, PartialEq, Debug)]
pub struct CellError {
    /// Index of the failed work item.
    pub index: usize,
    /// Worker thread that ran the item (`usize::MAX` when unknown — the
    /// worker died before reporting).
    pub worker: usize,
    /// The panic payload, rendered as text.
    pub message: String,
    /// Whether the failure survived the automatic retry.
    pub retried: bool,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let worker = if self.worker == usize::MAX {
            "unknown worker".to_string()
        } else {
            format!("worker {}", self.worker)
        };
        let retried = if self.retried { ", retried once" } else { "" };
        write!(f, "cell {} failed on {worker}{retried}: {}", self.index, self.message)
    }
}

impl std::error::Error for CellError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`parallel_map`], but isolating panics: each cell runs under
/// `catch_unwind`, gets **one retry**, and failures come back as
/// [`CellError`]s in the result vector instead of tearing down the whole
/// batch. A worker that dies without reporting a claimed index yields a
/// `CellError` naming that index with `worker == usize::MAX`.
///
/// The retry assumes `f` is idempotent — true for the deterministic
/// simulations and sweep cells it runs.
pub fn try_parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<Result<T, CellError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_cell = |i: usize, worker: usize| -> Result<T, CellError> {
        let mut first_failure = None;
        for _attempt in 0..2 {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => return Ok(v),
                Err(payload) => first_failure = Some(panic_message(payload.as_ref())),
            }
        }
        Err(CellError {
            index: i,
            worker,
            message: first_failure.unwrap_or_default(),
            retried: true,
        })
    };
    let threads = resolve_threads(threads).min(n);
    if threads <= 1 {
        return (0..n).map(|i| run_cell(i, 0)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Result<T, CellError>)>> = std::thread::scope(|scope| {
        let next = &next;
        let run_cell = &run_cell;
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run_cell(i, w)));
                    }
                    local
                })
            })
            .collect();
        // A worker can only die on a non-unwinding abort (run_cell catches
        // panics); joining still never blocks forever, and missing indices
        // are reported as CellErrors below.
        workers.into_iter().filter_map(|w| w.join().ok()).collect()
    });
    let mut out: Vec<Option<Result<T, CellError>>> = (0..n).map(|_| None).collect();
    for (i, v) in parts.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(CellError {
                    index: i,
                    worker: usize::MAX,
                    message: "worker died without reporting a result for this cell".to_string(),
                    retried: false,
                })
            })
        })
        .collect()
}

/// Maps `f` over `0..n` on up to `threads` scoped OS threads (`0` = all
/// available cores) and returns the results **in index order**.
///
/// Work is distributed by an atomic work-stealing index, so threads that
/// draw short items move on to the next one immediately. Each worker
/// collects `(index, value)` pairs locally — no per-slot locking — and the
/// results are reassembled after the join. With deterministic `f` the
/// output is identical for every thread count, including `threads == 1`,
/// which runs inline without spawning.
///
/// Built on [`try_parallel_map`], so a transiently panicking cell is
/// retried once before the batch fails.
///
/// # Panics
///
/// Panics with a message naming the failed cell index and worker if any
/// cell still fails after its retry. Callers that need partial results
/// should use [`try_parallel_map`] instead.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_parallel_map(n, threads, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("parallel_map: {e}"),
        })
        .collect()
}
