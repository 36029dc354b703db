//! Deterministic data parallelism for the Ceer workspace.
//!
//! Every hot loop in the pipeline — per-(op, GPU) regression fits,
//! cross-validation folds, the instance-catalog sweep, replica simulation,
//! batched predictions — is embarrassingly parallel over *pure* work items.
//! This crate runs such loops on a scoped worker pool while guaranteeing the
//! result is **bit-identical** to the serial loop at any thread count:
//!
//! * [`par_map`] applies a pure function to every element of a slice and
//!   collects the results *in input order*. Work is handed out in contiguous
//!   chunks through an atomic cursor, so threads race for chunks but never
//!   for the contents of a result slot.
//! * Item functions must be pure (no interior mutability observable across
//!   items); under that contract the output cannot depend on the schedule,
//!   only on the inputs — which is what the equivalence test suite asserts.
//! * A panic in any worker is re-raised on the calling thread once the pool
//!   has been joined ([`std::thread::scope`] guarantees the join), so a
//!   poisoned work item fails the computation instead of hanging it.
//!
//! # Thread-count resolution
//!
//! From highest to lowest precedence:
//!
//! 1. a process-wide override installed by [`set_threads`] (the CLI's
//!    `--threads` flag) or temporarily by [`override_threads`] (tests);
//! 2. the `CEER_THREADS` environment variable (re-read on every call, so
//!    test harnesses may vary it at runtime);
//! 3. [`std::thread::available_parallelism`], resolved once per process
//!    (each call reads cgroup files: ~15 µs on a 2-vCPU Linux host).
//!
//! At one resolved thread (or one work item) every entry point degrades to
//! the plain serial loop on the calling thread — no pool, no overhead.
//!
//! # Example
//!
//! ```
//! let squares = ceer_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Process-wide thread-count override (0 = none installed).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`override_threads`] holders so concurrently running tests
/// cannot observe each other's override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Upper bound on the pool size; beyond this, thread-spawn cost dwarfs any
/// conceivable win for Ceer's work-item granularity.
const MAX_THREADS: usize = 256;

/// Chunks handed out per worker; >1 lets fast workers steal the tail of the
/// input from slow ones without affecting result order.
const CHUNKS_PER_THREAD: usize = 4;

/// The number of worker threads parallel entry points will use right now.
///
/// See the crate docs for the resolution order. Always at least 1.
pub fn threads() -> usize {
    let installed = OVERRIDE.load(Ordering::SeqCst);
    if installed > 0 {
        return installed.min(MAX_THREADS);
    }
    if let Some(n) = env_threads() {
        return n.min(MAX_THREADS);
    }
    detected_threads()
}

/// The host's available parallelism, capped at [`MAX_THREADS`]; detected
/// on the first call and cached for the life of the process.
fn detected_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1).min(MAX_THREADS)
    })
}

/// `CEER_THREADS` when set to a positive integer; `None` otherwise.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("CEER_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Installs a process-wide thread count (the CLI's `--threads` flag),
/// overriding `CEER_THREADS` and the detected parallelism. Passing 0
/// removes the override.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// Temporarily pins the thread count for the lifetime of the returned
/// guard, restoring the previous value on drop.
///
/// Guards serialize on a global lock: a second call blocks until the first
/// guard drops. This makes thread-count matrix tests (serial vs 2 vs 8)
/// safe under the default multi-threaded test runner, where mutating
/// `CEER_THREADS` itself would race.
pub fn override_threads(n: usize) -> ThreadsGuard {
    let lock = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let previous = OVERRIDE.swap(n, Ordering::SeqCst);
    ThreadsGuard { previous, _lock: lock }
}

/// RAII guard of [`override_threads`]; restores the prior setting on drop.
pub struct ThreadsGuard {
    previous: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.previous, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for ThreadsGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadsGuard").field("previous", &self.previous).finish()
    }
}

/// Applies `f` to every element of `items` on the worker pool, returning
/// the results in input order.
///
/// `f` must be a pure function of its item for the parallel result to be
/// bit-identical to `items.iter().map(f).collect()` — which it then is, at
/// every thread count: chunking changes *who* computes a slot, never what
/// lands in it or how per-item floating-point operations associate.
///
/// # Panics
///
/// Re-raises the first observed worker panic on the calling thread after
/// the pool has been joined.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let chunk_len = n.div_ceil(workers * CHUNKS_PER_THREAD).max(1);
    let chunks = n.div_ceil(chunk_len);
    let cursor = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk >= chunks {
                            return mine;
                        }
                        let start = chunk * chunk_len;
                        let end = (start + chunk_len).min(n);
                        mine.push((chunk, items[start..end].iter().map(f).collect()));
                    }
                })
            })
            .collect();

        let mut pieces: Vec<(usize, Vec<R>)> = Vec::with_capacity(chunks);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(mut chunks) => pieces.append(&mut chunks),
                // Keep joining the remaining workers before re-raising so
                // the pool never leaks a running thread past the call.
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        pieces.sort_unstable_by_key(|&(chunk, _)| chunk);
        let mut out = Vec::with_capacity(n);
        for (_, mut piece) in pieces {
            out.append(&mut piece);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 8, 33] {
            let _guard = override_threads(threads);
            let parallel = par_map(&items, |&x| x.wrapping_mul(2654435761));
            assert_eq!(parallel, serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // Per-item float accumulation must not re-associate across threads.
        let items: Vec<f64> = (1..500).map(|i| 1.0 / i as f64).collect();
        let work = |&x: &f64| (0..50).fold(x, |acc, i| acc + (x * i as f64).sin());
        let serial: Vec<f64> = {
            let _guard = override_threads(1);
            par_map(&items, work)
        };
        for threads in [2, 8] {
            let _guard = override_threads(threads);
            let parallel = par_map(&items, work);
            let identical = serial.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "float bits diverged at {threads} threads");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let _guard = override_threads(8);
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let _guard = override_threads(4);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 13, "poisoned work item");
                x
            })
        });
        let payload = result.expect_err("the worker panic must surface");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains("poisoned work item"), "unexpected payload {message:?}");
    }

    #[test]
    fn override_guard_restores_previous_value() {
        let outer = override_threads(5);
        assert_eq!(threads(), 5);
        drop(outer);
        // With no override the result depends on the environment; install
        // a known baseline to observe restoration.
        let base = override_threads(2);
        {
            // A nested override would deadlock on the serialization lock by
            // design; emulate the nesting by hand instead.
            let previous = OVERRIDE.swap(7, Ordering::SeqCst);
            assert_eq!(threads(), 7);
            OVERRIDE.store(previous, Ordering::SeqCst);
        }
        assert_eq!(threads(), 2);
        drop(base);
    }

    #[test]
    fn override_wins_after_the_fallback_is_cached() {
        let detected = detected_threads();
        assert_eq!(detected_threads(), detected, "the cached fallback is stable");
        let _guard = override_threads(detected + 3);
        assert_eq!(threads(), detected + 3);
    }

    #[test]
    fn env_parsing_accepts_positive_integers_only() {
        // Parsed per call; exercise the parser directly to avoid mutating
        // the process environment under the parallel test runner.
        assert_eq!("4".trim().parse::<usize>().ok().filter(|&n| n > 0), Some(4));
        for bad in ["0", "-2", "many", ""] {
            assert_eq!(bad.trim().parse::<usize>().ok().filter(|&n| n > 0), None);
        }
    }

    #[test]
    fn serial_fallback_used_at_one_thread() {
        let _guard = override_threads(1);
        // Observable only through equivalence; this is a smoke check that
        // the fallback produces the same values as the pooled path.
        let items: Vec<u64> = (0..17).collect();
        assert_eq!(par_map(&items, |&x| x * 3), (0..17).map(|x| x * 3).collect::<Vec<_>>());
    }
}
