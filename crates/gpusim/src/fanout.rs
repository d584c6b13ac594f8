//! The host's one way to split work over threads.
//!
//! A simulated launch's parts, the CPU baselines' chunks and a serving
//! fleet's per-shard round all run through [`fan_out`], so how many threads
//! the host starts, and what a panicking part does, is decided here once.
//! None of it reaches the modeled clock: a launch charges what its warps
//! do, whichever thread ran them. The fan-out is scoped, not a pool: parts
//! may borrow the caller's data (a `&mut` sub-slice of a launch's output),
//! which a thread that outlives the call could not.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// A panicked part: its index and the payload it panicked with.
pub type PartPanic = (usize, Box<dyn Any + Send>);

/// The host's core count, read once per process (1 when the host cannot
/// tell). Reading it costs tens of microseconds, so callers on a per-launch
/// path read this cached value.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `f(i, part)` for every part and returns the results in part order.
///
/// One part, or a `bound` of at most 1, runs every part on the calling
/// thread and spawns nothing. Otherwise `min(parts, bound)` scoped workers
/// claim the parts in index order, each part moving into its worker by
/// value. A part's panic is caught there and the remaining parts still run;
/// the call then returns the lowest panicked index with its payload.
pub fn fan_out<P, R, F>(parts: Vec<P>, bound: usize, f: F) -> Result<Vec<R>, PartPanic>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let n = parts.len();
    let run = |(i, part): (usize, P)| (i, catch_unwind(AssertUnwindSafe(|| f(i, part))));
    if n <= 1 || bound <= 1 {
        return in_part_order(parts.into_iter().enumerate().map(run), n);
    }
    let queue = Mutex::new(parts.into_iter().enumerate());
    let claim = || queue.lock().expect("no part runs under the lock").next();
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..bound.min(n))
            .map(|_| scope.spawn(|| std::iter::from_fn(&claim).map(&run).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a worker catches its parts' panics"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    in_part_order(done.into_iter(), n)
}

/// Collects `n` results that arrive in part order, keeping the first panic.
fn in_part_order<R>(
    ran: impl Iterator<Item = (usize, std::thread::Result<R>)>,
    n: usize,
) -> Result<Vec<R>, PartPanic> {
    let mut out = Vec::with_capacity(n);
    let mut panicked = None;
    for (i, result) in ran {
        match result {
            Ok(r) => out.push(r),
            Err(payload) => {
                panicked.get_or_insert((i, payload));
            }
        }
    }
    panicked.map_or(Ok(out), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("")
    }

    #[test]
    fn fan_out_returns_results_in_part_order_whatever_the_finish_order() {
        // Whichever worker claims part 0 holds it until the other one has
        // finished parts 1, 2 and 3.
        let (release, hold) = std::sync::mpsc::channel();
        let hold = Mutex::new(hold);
        let finished = Mutex::new(Vec::new());
        let got = fan_out((0..4).collect(), 2, |i, part: usize| {
            assert_eq!(i, part);
            if i == 0 {
                hold.lock().unwrap().recv().expect("part 3 releases part 0");
            }
            finished.lock().unwrap().push(i);
            if i == 3 {
                release.send(()).expect("part 0 is waiting");
            }
            i * 10
        })
        .unwrap();
        assert_eq!(*finished.lock().unwrap(), [1, 2, 3, 0]);
        assert_eq!(got, [0, 10, 20, 30]);
    }

    #[test]
    fn seven_parts_under_a_bound_of_two_run_on_two_threads_in_part_order() {
        // Each part waits briefly for a third part in flight, so a fan-out
        // that starts more workers than its bound shows more thread ids.
        let in_flight = (Mutex::new(0), std::sync::Condvar::new());
        let ran = fan_out((0..7).collect(), 2, |_, part: u32| {
            let (count, changed) = &in_flight;
            let mut n = count.lock().unwrap();
            *n += 1;
            changed.notify_all();
            let wait = std::time::Duration::from_millis(20);
            let (mut n, _) = changed.wait_timeout_while(n, wait, |n| *n < 3).unwrap();
            *n -= 1;
            (part, std::thread::current().id())
        })
        .unwrap();
        assert_eq!(
            ran.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        let threads: HashSet<ThreadId> = ran.iter().map(|&(_, t)| t).collect();
        assert!(threads.len() <= 2, "{} threads", threads.len());
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_panicking_part_lets_the_others_finish_and_reports_its_index_and_payload() {
        // Bound 1 is the inline path, 2 and 4 the scoped one.
        for bound in [1, 2, 4] {
            let finished = Mutex::new(Vec::new());
            let (index, payload) = fan_out((0..4).collect(), bound, |i, _: u8| {
                if i == 2 {
                    panic!("part {i} failed");
                }
                finished.lock().unwrap().push(i);
            })
            .expect_err("part 2 panics");
            assert_eq!(index, 2, "bound {bound}");
            assert_eq!(panic_message(payload.as_ref()), "part 2 failed");
            let mut finished = finished.into_inner().unwrap();
            finished.sort_unstable();
            assert_eq!(finished, [0, 1, 3], "bound {bound}");
        }
    }

    #[test]
    fn the_lowest_panicking_index_is_reported() {
        for bound in [1, 3] {
            let (index, payload) = fan_out((0..6).collect(), bound, |i, _: u8| {
                assert!(i != 1 && i != 4, "part {i}");
            })
            .expect_err("parts 1 and 4 panic");
            assert_eq!(index, 1, "bound {bound}");
            assert_eq!(panic_message(payload.as_ref()), "part 1");
        }
    }

    #[test]
    fn a_one_part_fan_out_spawns_nothing() {
        let caller = std::thread::current().id();
        let on = |_, ()| std::thread::current().id();
        assert_eq!(fan_out(vec![()], 8, on).unwrap(), [caller]);
        // A bound of one runs every part inline, in part order.
        assert_eq!(fan_out(vec![(); 3], 1, on).unwrap(), [caller; 3]);
        assert!(fan_out(Vec::<()>::new(), 8, on).unwrap().is_empty());
    }
}
