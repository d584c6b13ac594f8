//! Worker supervision: catch panics, restart with capped exponential
//! backoff, give up after the restart budget.
//!
//! The PR-1 service shell had the classic failure mode of hand-rolled
//! thread pools: a panicking worker died silently (queries kept reading
//! an ever-staler snapshot) and then `shutdown()` re-threw the panic at
//! whoever joined it. A supervisor inverts that: the *supervisor thread*
//! owns the worker's lifecycle, every panic is caught
//! ([`std::panic::catch_unwind`]), counted in telemetry, recorded in the
//! [`HealthMonitor`], and answered with a restart after
//! `backoff_base * 2^(streak-1)` (capped) — until the health machine says
//! [`Down`](HealthState::Down), at which point restarts stop and the
//! outcome is recorded for [`shutdown`](crate::FraudService::shutdown) to
//! report instead of panicking on.
//!
//! The worker body is a plain `Fn() → WorkerExit` closure, re-invoked
//! from scratch on every restart; anything the body needs across restarts
//! (channels, the service core) lives in `Arc`s it captures. Bodies
//! signal *progress* through the health monitor themselves, which is what
//! distinguishes a crash **loop** (streak grows, backoff grows, service
//! degrades) from occasional faults (streak resets on the next applied
//! batch).

use crate::config::ServeConfig;
use crate::health::{HealthMonitor, HealthState};
use crate::telemetry::Telemetry;
use crate::unpoison;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How a worker body returned (when it did not panic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// The work source closed (service shutdown): do not restart.
    Finished,
}

/// The final outcome of one supervised worker, as reported by
/// [`ShutdownReport`](crate::ShutdownReport).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Still running (only observable before shutdown).
    Running,
    /// Exited cleanly at shutdown. The count is how many panics were
    /// caught and restarted along the way (0 = never crashed).
    Clean {
        /// Panics caught and restarted over the worker's lifetime.
        panics: u64,
    },
    /// Abandoned after the restart budget: the service went
    /// [`Down`](HealthState::Down) with this worker's last panic.
    Abandoned {
        /// Panics caught over the worker's lifetime.
        panics: u64,
        /// The final panic message.
        last_panic: String,
    },
}

/// Restart policy for one supervised worker.
#[derive(Clone, Copy, Debug)]
pub struct RestartPolicy {
    /// First-restart delay; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl RestartPolicy {
    /// The backoff schedule `cfg` configures.
    pub fn for_config(cfg: &ServeConfig) -> Self {
        Self {
            backoff_base: cfg.restart_backoff,
            backoff_cap: cfg.restart_backoff_cap,
        }
    }

    /// Delay before restart number `streak` (1-based).
    pub fn delay(&self, streak: u32) -> Duration {
        let doubled = self
            .backoff_base
            .saturating_mul(1u32 << streak.saturating_sub(1).min(20));
        doubled.min(self.backoff_cap)
    }
}

/// Live status of one supervised worker (shared with the service for
/// shutdown reporting).
#[derive(Debug)]
pub struct WorkerStatus {
    /// Worker name for telemetry and panic messages.
    pub name: &'static str,
    outcome: Mutex<WorkerOutcome>,
    panics: AtomicU64,
    restarts: AtomicU64,
}

impl WorkerStatus {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            outcome: Mutex::new(WorkerOutcome::Running),
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        }
    }

    /// The worker's outcome so far.
    pub fn outcome(&self) -> WorkerOutcome {
        unpoison(self.outcome.lock()).clone()
    }

    /// Panics caught so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Acquire)
    }

    /// Restarts performed so far (panics that were answered with a new
    /// body invocation; an abandoned final panic is not a restart).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Acquire)
    }

    fn set_outcome(&self, o: WorkerOutcome) {
        *unpoison(self.outcome.lock()) = o;
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawns `body` under supervision. The returned handle joins the
/// *supervisor* (which never panics); the status cell reports how the
/// worker ended.
pub fn supervise<F>(
    name: &'static str,
    health: Arc<HealthMonitor>,
    telemetry: Arc<Telemetry>,
    policy: RestartPolicy,
    body: F,
) -> (JoinHandle<()>, Arc<WorkerStatus>)
where
    F: Fn() -> WorkerExit + Send + 'static,
{
    supervise_with(name, health, telemetry, policy, body, thread::sleep)
}

/// [`supervise`] with an injected sleep function. Tests observe the
/// backoff schedule (delay per restart, cap, restart accounting) by
/// recording the requested durations instead of waiting them out.
pub fn supervise_with<F, S>(
    name: &'static str,
    health: Arc<HealthMonitor>,
    telemetry: Arc<Telemetry>,
    policy: RestartPolicy,
    body: F,
    sleep: S,
) -> (JoinHandle<()>, Arc<WorkerStatus>)
where
    F: Fn() -> WorkerExit + Send + 'static,
    S: Fn(Duration) + Send + 'static,
{
    let status = Arc::new(WorkerStatus::new(name));
    let status_out = Arc::clone(&status);
    let handle = thread::Builder::new()
        .name(format!("glp-serve/{name}"))
        .spawn(move || loop {
            match catch_unwind(AssertUnwindSafe(&body)) {
                Ok(WorkerExit::Finished) => {
                    status.set_outcome(WorkerOutcome::Clean {
                        panics: status.panics(),
                    });
                    return;
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    status.panics.fetch_add(1, Ordering::AcqRel);
                    telemetry.worker_panics.fetch_add(1, Ordering::Relaxed);
                    let state = health.record_crash(name, &msg);
                    if state == HealthState::Down {
                        status.set_outcome(WorkerOutcome::Abandoned {
                            panics: status.panics(),
                            last_panic: msg,
                        });
                        return;
                    }
                    status.restarts.fetch_add(1, Ordering::AcqRel);
                    telemetry.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    sleep(policy.delay(health.consecutive_crashes()));
                }
            }
        })
        .expect("spawn supervisor thread");
    (handle, status_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthThresholds;
    use std::sync::atomic::AtomicU32;

    fn health() -> Arc<HealthMonitor> {
        Arc::new(HealthMonitor::new(HealthThresholds {
            shedding_after: 2,
            down_after: 4,
        }))
    }

    fn fast_policy() -> RestartPolicy {
        RestartPolicy {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RestartPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(60),
        };
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(2), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(40));
        assert_eq!(p.delay(4), Duration::from_millis(60)); // capped
        assert_eq!(p.delay(40), Duration::from_millis(60)); // no overflow
    }

    #[test]
    fn panicking_worker_is_restarted_then_finishes() {
        let h = health();
        let runs = Arc::new(AtomicU32::new(0));
        let runs_in = Arc::clone(&runs);
        let hp = Arc::clone(&h);
        let t = Arc::new(Telemetry::new());
        let (handle, status) = supervise(
            "test",
            Arc::clone(&h),
            Arc::clone(&t),
            fast_policy(),
            move || {
                let n = runs_in.fetch_add(1, Ordering::AcqRel);
                if n == 0 {
                    panic!("injected first-run panic");
                }
                hp.record_progress("test");
                WorkerExit::Finished
            },
        );
        handle.join().expect("supervisor never panics");
        assert_eq!(runs.load(Ordering::Acquire), 2);
        assert_eq!(status.outcome(), WorkerOutcome::Clean { panics: 1 });
        assert_eq!(status.restarts(), 1);
        assert_eq!(
            h.state(),
            HealthState::Healthy,
            "progress cleared the streak"
        );
        assert_eq!(t.worker_panics.load(Ordering::Acquire), 1);
        assert_eq!(t.worker_restarts.load(Ordering::Acquire), 1);
    }

    #[test]
    fn injected_clock_observes_backoff_schedule_without_sleeping() {
        // down_after = 6: five restarts before the sixth panic abandons.
        let h = Arc::new(HealthMonitor::new(HealthThresholds {
            shedding_after: 3,
            down_after: 6,
        }));
        let t = Arc::new(Telemetry::new());
        let policy = RestartPolicy {
            backoff_base: Duration::from_secs(10),
            backoff_cap: Duration::from_secs(40),
        };
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let slept_in = Arc::clone(&slept);
        let started = std::time::Instant::now();
        let (handle, status) = supervise_with(
            "schedule",
            Arc::clone(&h),
            Arc::clone(&t),
            policy,
            || panic!("always"),
            move |d| slept_in.lock().unwrap().push(d),
        );
        handle.join().expect("supervisor never panics");
        // Multi-second delays were recorded, not actually waited out.
        assert!(started.elapsed() < Duration::from_secs(5));
        let secs = |s: u64| Duration::from_secs(s);
        assert_eq!(
            *slept.lock().unwrap(),
            vec![secs(10), secs(20), secs(40), secs(40), secs(40)],
            "base doubles per crash then pins at the cap"
        );
        assert_eq!(status.panics(), 6);
        assert_eq!(
            status.restarts(),
            5,
            "the abandoning panic is not restarted"
        );
        assert_eq!(t.worker_panics.load(Ordering::Acquire), 6);
        assert_eq!(t.worker_restarts.load(Ordering::Acquire), 5);
        assert!(h.is_down());
        assert!(matches!(
            status.outcome(),
            WorkerOutcome::Abandoned { panics: 6, .. }
        ));
    }

    #[test]
    fn crash_loop_is_abandoned_as_down() {
        let h = health();
        let t = Arc::new(Telemetry::new());
        let (handle, status) = supervise("looper", Arc::clone(&h), t, fast_policy(), || {
            panic!("always");
        });
        handle.join().expect("supervisor never panics");
        assert!(h.is_down());
        match status.outcome() {
            WorkerOutcome::Abandoned { panics, last_panic } => {
                assert_eq!(panics, 4); // down_after
                assert_eq!(last_panic, "always");
            }
            o => panic!("expected Abandoned, got {o:?}"),
        }
        assert_eq!(status.restarts(), 3, "final panic is not restarted");
    }
}
