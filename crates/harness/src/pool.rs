//! A typed parallel map with panic isolation and a wall-clock watchdog.
//!
//! `std::thread` only, by design (the workspace carries no external
//! dependencies): [`map`] hands the items out to `workers` threads off one
//! shared queue, and runs each item on a *job thread* of its own so that
//! one diverging simulation can neither kill nor hang the rest:
//!
//! * **panic isolation** — each item runs under `catch_unwind`; a panic
//!   becomes that item's `Err` and the worker moves on;
//! * **wall-clock watchdog** — the worker waits on the job thread's result
//!   channel with a timeout; if the item is still running when the
//!   watchdog fires, its thread is abandoned (detached, its eventual result
//!   discarded) and the item's result is an `Err`.
//!
//! Each item runs once: every item is a deterministic simulation, so a
//! second run would fail the same way. Results come back in input order,
//! so whatever a caller assembles from them does not depend on the worker
//! count or on scheduling.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The wall-clock limit on one item: far above any item in this workspace,
/// so it fires only on an item that hangs.
pub const WATCHDOG: Duration = Duration::from_secs(600);

/// Runs `f` on every item, on up to `workers` threads (at least one), and
/// returns the results in input order. An item's result is `Err` when `f`
/// returns one, when `f` panics (`panic: ...`), or when the item is still
/// running after `timeout` (`watchdog: ...`).
///
/// # Panics
///
/// Panics only if a worker thread panics while holding the map's
/// bookkeeping lock, which no item can cause: items run on their own job
/// threads under `catch_unwind`.
pub fn map<T, R, F>(
    items: Vec<T>,
    workers: usize,
    timeout: Duration,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, String> + Send + Sync + 'static,
{
    let n = items.len();
    let f = Arc::new(f);
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<Option<Result<R, String>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(n) {
            scope.spawn(|| loop {
                let next = queue.lock().expect("map queue lock").next();
                let Some((index, item)) = next else {
                    return;
                };
                let result = run_one(item, &f, timeout);
                results.lock().expect("map results lock")[index] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("map results lock")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

fn run_one<T, R, F>(item: T, f: &Arc<F>, timeout: Duration) -> Result<R, String>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, String> + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let f = Arc::clone(f);
    // Detached on purpose: when the watchdog fires the thread is abandoned
    // rather than joined, so a hung item cannot hang the map. A panicking
    // item's state dies with its own thread, hence `AssertUnwindSafe`.
    std::thread::Builder::new()
        .spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(|| f(item))));
        })
        .map_err(|e| format!("could not spawn job thread: {e}"))?;
    match rx.recv_timeout(timeout) {
        Ok(Ok(result)) => result,
        Ok(Err(payload)) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
        Err(RecvTimeoutError::Timeout) => Err(format!("watchdog: no result after {timeout:?}")),
        Err(RecvTimeoutError::Disconnected) => Err("job thread ended without a result".into()),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Instant;

    #[test]
    fn all_jobs_complete_in_submission_order() {
        let results = map((0..16).collect(), 4, WATCHDOG, |i: u32| Ok(i * 10));
        let expected: Vec<Result<u32, String>> = (0..16).map(|i| Ok(i * 10)).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn failing_job_runs_once_and_is_recorded_failed() {
        let runs = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&runs);
        let results = map((0..8).collect(), 4, WATCHDOG, move |i: u32| {
            if i == 5 {
                counted.fetch_add(1, Ordering::SeqCst);
                Err(format!("item {i} failed"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(results.len(), 8);
        for (i, result) in (0..8).zip(&results) {
            if i == 5 {
                assert_eq!(result, &Err("item 5 failed".to_string()));
            } else {
                assert_eq!(result, &Ok(i));
            }
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "no second run");
    }

    #[test]
    fn panic_is_isolated_and_runs_once() {
        let runs = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&runs);
        let results = map(vec![1, 2, 3], 2, WATCHDOG, move |i: u32| {
            if i == 2 {
                counted.fetch_add(1, Ordering::SeqCst);
                panic!("deliberate test panic");
            }
            Ok(i)
        });
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
        let error = results[1].as_ref().expect_err("the panicking item fails");
        assert!(error.contains("deliberate test panic"), "{error}");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "no second run");
    }

    #[test]
    fn watchdog_abandons_hung_job() {
        let started = Instant::now();
        let results = map(vec![true, false], 1, Duration::from_millis(50), |hang| {
            if hang {
                std::thread::sleep(Duration::from_secs(3600));
            }
            Ok(hang)
        });
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "watchdog must not wait"
        );
        let error = results[0].as_ref().expect_err("the hung item fails");
        assert!(error.starts_with("watchdog"), "{error}");
        assert_eq!(results[1], Ok(false), "the map continues past the hang");
    }
}
