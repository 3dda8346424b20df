//! Worker-process supervision: spawn, poll, timeout, retry, backoff.
//!
//! Each cell attempt spawns one worker process speaking a one-line
//! stdout protocol:
//!
//! ```text
//! SWEEPOK1 <hex payload>                 # success
//! SWEEPFAIL1 <error-kind> <hex message>  # typed simulation failure
//! ```
//!
//! Both kinds of `dvrsim` worker speak it: `sweep-worker` answers with an
//! encoded report, `sample-worker` with one measured sampling period.
//!
//! Anything else — death by signal, nonzero exit, protocol garbage, or
//! exceeding the per-cell wall-clock budget — is an *infrastructure*
//! failure and is retried with exponential backoff plus deterministic
//! seeded jitter. So is a spawn the host refused for lack of resources
//! (EAGAIN, EMFILE/ENFILE, ENOMEM). Two failures are never retried: a
//! `SWEEPFAIL1` line, which is a *typed, deterministic* simulation
//! outcome, and a worker binary that is missing or not executable.
//!
//! Workers are polled with `try_wait` so a hung worker is killed the
//! moment it exceeds its budget instead of wedging the sweep.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::digest::{fnv64, from_hex};
use crate::error::SweepError;
use crate::fault::SweepFault;

/// Success line tag of the sweep-worker protocol.
pub const WORKER_OK_TAG: &str = "SWEEPOK1";
/// Typed-failure line tag of the sweep-worker protocol.
pub const WORKER_FAIL_TAG: &str = "SWEEPFAIL1";
/// Flag the supervisor appends to the Nth worker's argv under an
/// injected hang fault; workers honor it by sleeping forever.
pub const WORKER_HANG_FLAG: &str = "--test-hang";

/// Poll interval while waiting on a worker.
const POLL: Duration = Duration::from_millis(2);

/// Shared supervision policy for one sweep run.
#[derive(Debug)]
pub struct Supervisor<'a> {
    /// Per-attempt wall-clock budget in milliseconds (`0` = unlimited).
    pub timeout_ms: u64,
    /// Retries after the first attempt (attempts = retries + 1).
    pub retries: u32,
    /// Base backoff in milliseconds; attempt `k` waits
    /// `base << k + jitter` where jitter is seeded and `< base`.
    pub backoff_ms: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
    /// Armed fault plan.
    pub fault: &'a SweepFault,
    /// Global spawn counter (drives `kill`/`hang` triggers).
    pub spawns: &'a AtomicU64,
}

/// Deterministic backoff delay before retry `attempt` (0-based) of
/// `cell`: exponential in the attempt with seeded jitter so a thundering
/// herd of failed workers does not re-spawn in lockstep, yet every run
/// waits the same amounts.
pub fn backoff_delay_ms(seed: u64, cell: &str, attempt: u32, base_ms: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    // splitmix64 over (seed, cell, attempt) for well-mixed jitter bits.
    let mut z = seed
        .wrapping_add(fnv64(cell))
        .wrapping_add(u64::from(attempt))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (base_ms << attempt.min(6)) + z % base_ms
}

impl Supervisor<'_> {
    /// Runs `argv` for `cell` under supervision, retrying
    /// infrastructure failures up to the retry budget.
    pub fn run_cell(&self, cell: &str, argv: &[String]) -> Result<Vec<u8>, SweepError> {
        assert!(!argv.is_empty(), "worker argv must name a binary");
        let mut attempts = 0;
        loop {
            let (e, retry) = match self.one_attempt(cell, argv) {
                Ok(payload) => return Ok(payload),
                Err(failure) => failure,
            };
            if !retry || attempts == self.retries {
                return Err(stamp_attempts(e, attempts + 1));
            }
            std::thread::sleep(Duration::from_millis(backoff_delay_ms(
                self.seed,
                cell,
                attempts,
                self.backoff_ms,
            )));
            attempts += 1;
        }
    }

    /// One spawn-to-exit attempt. `Err` carries whether another attempt
    /// could succeed.
    fn one_attempt(&self, cell: &str, argv: &[String]) -> Result<Vec<u8>, (SweepError, bool)> {
        let worker_error =
            |message: String| SweepError::Worker { cell: cell.to_string(), attempts: 0, message };
        let n = self.spawns.fetch_add(1, Ordering::Relaxed) + 1;
        let mut cmd = Command::new(&argv[0]);
        cmd.args(&argv[1..]);
        if self.fault.hang_worker_at == n {
            cmd.arg(WORKER_HANG_FLAG);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| (worker_error(format!("spawn: {e}")), spawn_error_is_transient(&e)))?;
        if self.fault.kill_worker_at == n {
            let _ = child.kill();
        }
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {
                    if self.timeout_ms != 0
                        && started.elapsed() >= Duration::from_millis(self.timeout_ms)
                    {
                        let _ = child.kill();
                        let _ = child.wait();
                        let timeout_ms = self.timeout_ms;
                        let cell = cell.to_string();
                        return Err((SweepError::Timeout { cell, timeout_ms, attempts: 0 }, true));
                    }
                    std::thread::sleep(POLL);
                }
                Err(e) => {
                    let _ = child.kill();
                    return Err((worker_error(format!("wait: {e}")), true));
                }
            }
        };
        // Read output only after exit: worker lines are far below the
        // OS pipe buffer, so a finished worker can never block on it.
        let mut stdout = String::new();
        let mut stderr = String::new();
        if let Some(mut s) = child.stdout.take() {
            use std::io::Read;
            let _ = s.read_to_string(&mut stdout);
        }
        if let Some(mut s) = child.stderr.take() {
            use std::io::Read;
            let _ = s.read_to_string(&mut stderr);
        }
        parse_worker_output(cell, status.success(), &stdout, &stderr).map_err(|e| {
            let retry = !matches!(e, SweepError::Cell { .. });
            (e, retry)
        })
    }
}

/// Whether a failed `spawn` is worth another attempt: resource-exhaustion
/// errors (EAGAIN, EMFILE/ENFILE, ENOMEM) clear when siblings exit,
/// unlike a missing or non-executable binary.
fn spawn_error_is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted | ErrorKind::OutOfMemory)
        || matches!(e.raw_os_error(), Some(code) if [11, 23, 24, 12].contains(&code))
}

fn stamp_attempts(e: SweepError, attempts: u32) -> SweepError {
    match e {
        SweepError::Worker { cell, message, .. } => SweepError::Worker { cell, attempts, message },
        SweepError::Timeout { cell, timeout_ms, .. } => {
            SweepError::Timeout { cell, timeout_ms, attempts }
        }
        other => other,
    }
}

/// Parses one worker's stdout according to the sweep-worker protocol.
/// Exposed for the in-process unit tests and the serve loop.
pub fn parse_worker_output(
    cell: &str,
    exited_ok: bool,
    stdout: &str,
    stderr: &str,
) -> Result<Vec<u8>, SweepError> {
    let line = stdout.lines().next().unwrap_or("").trim();
    if let Some(hex) = line.strip_prefix(WORKER_OK_TAG).and_then(|r| r.strip_prefix(' ')) {
        if let Some(payload) = from_hex(hex) {
            return Ok(payload);
        }
        return Err(SweepError::Worker {
            cell: cell.to_string(),
            attempts: 0,
            message: "undecodable payload hex".into(),
        });
    }
    if let Some(rest) = line.strip_prefix(WORKER_FAIL_TAG).and_then(|r| r.strip_prefix(' ')) {
        if let Some((kind, hex)) = rest.split_once(' ') {
            if let Some(msg) = from_hex(hex).and_then(|b| String::from_utf8(b).ok()) {
                return Err(SweepError::Cell {
                    cell: cell.to_string(),
                    kind: kind.to_string(),
                    message: msg,
                });
            }
        }
        return Err(SweepError::Worker {
            cell: cell.to_string(),
            attempts: 0,
            message: "malformed failure line".into(),
        });
    }
    let detail = if stderr.trim().is_empty() {
        format!("stdout: {line:.120}")
    } else {
        format!("stderr: {:.200}", stderr.trim())
    };
    Err(SweepError::Worker {
        cell: cell.to_string(),
        attempts: 0,
        message: if exited_ok {
            format!("protocol violation ({detail})")
        } else {
            format!("worker died ({detail})")
        },
    })
}

/// Renders a payload as a `SWEEPOK1` protocol line (worker side).
pub fn ok_line(payload: &[u8]) -> String {
    format!("{WORKER_OK_TAG} {}", crate::digest::to_hex(payload))
}

/// Renders a typed failure as a `SWEEPFAIL1` protocol line (worker
/// side).
pub fn fail_line(kind: &str, message: &str) -> String {
    format!("{WORKER_FAIL_TAG} {kind} {}", crate::digest::to_hex(message.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup<'a>(fault: &'a SweepFault, spawns: &'a AtomicU64) -> Supervisor<'a> {
        Supervisor { timeout_ms: 2_000, retries: 1, backoff_ms: 1, seed: 42, fault, spawns }
    }

    fn sh(script: &str) -> Vec<String> {
        vec!["/bin/sh".into(), "-c".into(), script.into()]
    }

    #[test]
    fn protocol_roundtrip() {
        let line = ok_line(&[0xde, 0xad]);
        assert_eq!(parse_worker_output("c", true, &line, "").unwrap(), vec![0xde, 0xad]);
        let fail = fail_line("deadlock", "stuck at cycle 7");
        match parse_worker_output("c", true, &fail, "") {
            Err(SweepError::Cell { kind, message, .. }) => {
                assert_eq!(kind, "deadlock");
                assert_eq!(message, "stuck at cycle 7");
            }
            other => panic!("expected typed failure, got {other:?}"),
        }
        assert!(matches!(
            parse_worker_output("c", true, "what is this", ""),
            Err(SweepError::Worker { .. })
        ));
    }

    #[test]
    fn healthy_worker_payload_comes_back() {
        let fault = SweepFault::default();
        let spawns = AtomicU64::new(0);
        let payload = sup(&fault, &spawns).run_cell("c", &sh("echo 'SWEEPOK1 0102ff'")).unwrap();
        assert_eq!(payload, vec![1, 2, 0xff]);
        assert_eq!(spawns.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn typed_failure_is_not_retried() {
        let fault = SweepFault::default();
        let spawns = AtomicU64::new(0);
        let err = sup(&fault, &spawns)
            .run_cell("c", &sh("echo 'SWEEPFAIL1 deadlock 6f6f7073'"))
            .unwrap_err();
        assert_eq!(err.kind(), "cell_failed");
        assert_eq!(spawns.load(Ordering::Relaxed), 1, "no retry on typed failure");
    }

    #[test]
    fn crash_is_retried_then_reported() {
        let fault = SweepFault::default();
        let spawns = AtomicU64::new(0);
        let err = sup(&fault, &spawns).run_cell("c", &sh("exit 3")).unwrap_err();
        match err {
            SweepError::Worker { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected worker error, got {other:?}"),
        }
        assert_eq!(spawns.load(Ordering::Relaxed), 2, "one retry");
    }

    #[test]
    fn injected_kill_recovers_on_retry() {
        let fault = SweepFault { kill_worker_at: 1, ..SweepFault::default() };
        let spawns = AtomicU64::new(0);
        // sleep first so the kill lands before the echo on attempt 1.
        let payload =
            sup(&fault, &spawns).run_cell("c", &sh("sleep 0.3; echo 'SWEEPOK1 aa'")).unwrap();
        assert_eq!(payload, vec![0xaa]);
        assert_eq!(spawns.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn spawn_retry_classifier_separates_transient_from_permanent() {
        use std::io::{Error, ErrorKind};
        // EAGAIN both as a kind and as a raw errno.
        assert!(spawn_error_is_transient(&Error::from(ErrorKind::WouldBlock)));
        assert!(spawn_error_is_transient(&Error::from_raw_os_error(11)));
        // EMFILE: per-process fd table full while a sibling batch drains.
        assert!(spawn_error_is_transient(&Error::from_raw_os_error(24)));
        // A missing or non-executable worker binary never heals itself.
        assert!(!spawn_error_is_transient(&Error::from(ErrorKind::NotFound)));
        assert!(!spawn_error_is_transient(&Error::from(ErrorKind::PermissionDenied)));
    }

    #[test]
    fn missing_binary_is_not_retried() {
        let fault = SweepFault::default();
        let spawns = AtomicU64::new(0);
        let argv = vec!["/nonexistent/sweep-worker-binary".to_string()];
        match sup(&fault, &spawns).run_cell("c", &argv) {
            Err(SweepError::Worker { attempts: 1, message, .. }) => {
                assert!(message.starts_with("spawn: "), "{message}")
            }
            other => panic!("expected one failed spawn, got {other:?}"),
        }
        assert_eq!(spawns.load(Ordering::Relaxed), 1, "no retry of a missing binary");
    }

    #[test]
    fn timeout_kills_and_reports() {
        let fault = SweepFault::default();
        let spawns = AtomicU64::new(0);
        let sup = Supervisor {
            timeout_ms: 100,
            retries: 0,
            backoff_ms: 1,
            seed: 1,
            fault: &fault,
            spawns: &spawns,
        };
        let started = Instant::now();
        let err = sup.run_cell("c", &sh("sleep 30")).unwrap_err();
        assert!(matches!(err, SweepError::Timeout { timeout_ms: 100, attempts: 1, .. }), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(10), "must not wait for the sleep");
    }

    #[test]
    fn backoff_is_deterministic_exponential_with_jitter() {
        let a0 = backoff_delay_ms(42, "cell-a", 0, 50);
        assert_eq!(a0, backoff_delay_ms(42, "cell-a", 0, 50));
        assert!((50..100).contains(&a0), "{a0}");
        let a1 = backoff_delay_ms(42, "cell-a", 1, 50);
        assert!((100..150).contains(&a1), "{a1}");
        assert_ne!(
            backoff_delay_ms(42, "cell-a", 0, 50) % 50,
            backoff_delay_ms(42, "cell-b", 0, 50) % 50,
            "different cells should jitter apart (true for these keys)"
        );
        assert_eq!(backoff_delay_ms(42, "cell-a", 0, 0), 0, "zero base disables backoff");
    }
}
