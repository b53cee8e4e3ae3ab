//! Dependency-free batch execution: a scoped worker pool and a
//! memoisation cache.
//!
//! Design-space exploration evaluates thousands of *independent*
//! candidates (configurations × benchmarks × voltage grids). This crate
//! provides the two primitives the exploration layer scales with:
//!
//! * [`Executor`] — a scoped worker pool over [`std::thread`] with a
//!   bounded work queue. [`Executor::map`] fans a slice of inputs out
//!   across the pool and returns the results **in input order**, so a
//!   parallel run is bit-identical to a serial one whenever the mapped
//!   function is deterministic.
//! * [`MemoCache`] — a thread-safe memoisation table with hit/miss
//!   statistics, used to collapse repeated candidate evaluations (e.g.
//!   the ratio-1.0 points of the §3.3 selection grid, or identical
//!   configurations selected under different frequency menus).
//!
//! Both are deliberately free of external dependencies: everything is
//! built on `std::thread::scope`, `std::sync::mpsc` and `Mutex`, so the
//! crate compiles in offline environments and stays auditable. The pool
//! reports into [`vliw_obs`] (itself std-only): `exec_queue_depth`, and
//! per-worker `exec_tasks_total` / `exec_worker_busy_nanos_total` (the
//! busy clock only ticks when `vliw_obs::enable_timing` was called).
//!
//! # Example
//!
//! ```
//! use vliw_exec::Executor;
//!
//! let pool = Executor::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_idx, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

/// How many queued jobs each worker "owns": the work queue is bounded at
/// `workers · QUEUE_DEPTH`, so the feeding thread applies backpressure
/// instead of materialising an unbounded index list.
const QUEUE_DEPTH: usize = 2;

/// A fixed-size worker pool executing independent jobs with deterministic,
/// input-ordered results.
///
/// The pool itself is cheap to construct (it only records the job count);
/// worker threads are scoped to each [`Executor::map`] call, so borrowed
/// (non-`'static`) inputs work and no threads outlive the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: NonZeroUsize,
}

impl Executor {
    /// How many times `available_parallelism` a requested worker count may
    /// exceed before it is considered absurd and clamped (with a floor so
    /// small machines still honour modest oversubscription for tests and
    /// I/O-bound workloads).
    const OVERSUBSCRIPTION_LIMIT: usize = 16;
    const CLAMP_FLOOR: usize = 128;

    /// The most threads one request may ask this machine for:
    /// 16 × `available_parallelism`, and at least 128. [`Executor::new`]
    /// clamps a larger worker count, and `paper loadgen` refuses more
    /// clients than this.
    #[must_use]
    pub fn max_workers() -> usize {
        (Self::auto().jobs.get() * Self::OVERSUBSCRIPTION_LIMIT).max(Self::CLAMP_FLOOR)
    }

    /// A pool with `jobs` workers; `0` means "use the machine's available
    /// parallelism" (like `make -j`).
    ///
    /// Absurd requests — more than [`Executor::max_workers`] — are
    /// clamped to the machine's available parallelism with a warning on
    /// stderr, instead of silently spawning thousands of threads.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        let Some(requested) = NonZeroUsize::new(jobs) else {
            return Self::auto();
        };
        let avail = Self::auto().jobs.get();
        if requested.get() > Self::max_workers() {
            // Once per process: a pipeline constructs many executors from
            // the same `--jobs` value and one warning is enough.
            static CLAMP_WARNING: std::sync::Once = std::sync::Once::new();
            CLAMP_WARNING.call_once(|| {
                eprintln!(
                    "warning: --jobs {requested} is absurd for this machine \
                     (available parallelism {avail}); clamping to {avail}"
                );
            });
            return Self::auto();
        }
        Executor { jobs: requested }
    }

    /// A single-worker pool: `map` degenerates to a plain serial loop on
    /// the calling thread (no threads are spawned).
    #[must_use]
    pub fn serial() -> Self {
        Executor {
            jobs: NonZeroUsize::MIN,
        }
    }

    /// A pool sized to the machine's available parallelism (1 if the
    /// platform cannot report it).
    #[must_use]
    pub fn auto() -> Self {
        Executor {
            jobs: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The number of workers `map` will use (before clamping to the input
    /// length).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs.get()
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// Jobs are distributed over `min(jobs, items.len())` scoped workers
    /// through a bounded queue; each worker sends `(index, result)` pairs
    /// back and the results are reassembled by index, so the output is
    /// identical to `items.iter().enumerate().map(..).collect()` for any
    /// deterministic `f`, regardless of worker count or scheduling.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the scope re-raises a worker's panic on
    /// the calling thread).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(items, || (), |(), i, t| f(i, t))
    }

    /// [`Executor::map`] with **per-worker state**: every worker thread
    /// calls `init` exactly once and threads the resulting value through
    /// all jobs it executes.
    ///
    /// This is how the exploration layer gives each worker one long-lived
    /// `SchedWorkspace`: scheduling state is reused across every loop a
    /// worker processes, without any cross-thread sharing. Since `f` must
    /// produce results independent of the state's history, the output is
    /// identical to `map` for any worker count (the serial path uses one
    /// state for all items).
    ///
    /// # Panics
    ///
    /// Propagates panics from `init` and `f`.
    pub fn map_init<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let workers = self.jobs.get().min(items.len());
        if workers <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }

        // One gauge handle per process, interned on the first parallel
        // map; each map call clones the Arc (cheap) so the feeder and
        // workers update it without touching the registry again.
        static QUEUE_GAUGE: std::sync::OnceLock<std::sync::Arc<vliw_obs::Gauge>> =
            std::sync::OnceLock::new();
        let queue_depth = QUEUE_GAUGE.get_or_init(|| vliw_obs::gauge("exec_queue_depth"));

        let (job_tx, job_rx) = mpsc::sync_channel::<usize>(workers * QUEUE_DEPTH);
        // The receiver lives behind `Option` so the *last exiting worker*
        // can drop it (see `RxGuard`), which unblocks a feeder stuck in a
        // full-queue `send` when every worker has panicked — otherwise
        // that send would wait forever and the scope could never re-raise
        // the panic.
        let job_rx = Mutex::new(Some(job_rx));
        let (res_tx, res_rx) = mpsc::channel::<(usize, R)>();
        let live = AtomicU64::new(workers as u64);
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(items.len(), || None);

        /// Panic-safe worker-exit bookkeeping: decrements the live count
        /// and, on the last exit, disconnects the job channel.
        struct RxGuard<'a> {
            live: &'a AtomicU64,
            job_rx: &'a Mutex<Option<mpsc::Receiver<usize>>>,
        }
        impl Drop for RxGuard<'_> {
            fn drop(&mut self) {
                if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    drop(
                        self.job_rx
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .take(),
                    );
                }
            }
        }

        std::thread::scope(|scope| {
            for w in 0..workers {
                let res_tx = res_tx.clone();
                let job_rx = &job_rx;
                let live = &live;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let _guard = RxGuard { live, job_rx };
                    // Intern this worker's metrics once per map call;
                    // the per-task cost is then one atomic add each.
                    let worker_label = w.to_string();
                    let tasks = vliw_obs::counter_with("exec_tasks_total", "worker", &worker_label);
                    let busy = vliw_obs::counter_with(
                        "exec_worker_busy_nanos_total",
                        "worker",
                        &worker_label,
                    );
                    let mut state = init();
                    loop {
                        // Hold the receiver lock only while popping;
                        // ignore poisoning (a panicked sibling is
                        // propagated by the scope, not by us).
                        let idx = {
                            let guard = job_rx
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            match guard.as_ref() {
                                Some(rx) => rx.recv(),
                                None => break,
                            }
                        };
                        let Ok(idx) = idx else { break };
                        queue_depth.dec();
                        let start = vliw_obs::timer_start();
                        let result = f(&mut state, idx, &items[idx]);
                        if let Some(s) = start {
                            busy.add(vliw_obs::elapsed_nanos(s));
                        }
                        tasks.inc();
                        if res_tx.send((idx, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);

            // Feed the bounded queue (backpressure happens here), then
            // collect. Results never block: the result channel is
            // unbounded, so workers always make progress; and if every
            // worker dies, the last one disconnects the job channel, so
            // this send returns `Err` instead of blocking forever.
            for idx in 0..items.len() {
                // Inc before the send so the gauge never dips negative
                // (the worker's dec strictly follows a completed send).
                queue_depth.inc();
                if job_tx.send(idx).is_err() {
                    queue_depth.dec();
                    break; // every worker exited early (panic propagates below)
                }
            }
            drop(job_tx);
            while let Ok((idx, result)) = res_rx.recv() {
                results[idx] = Some(result);
            }
        });

        results
            .into_iter()
            .map(|r| r.expect("every index was delivered exactly once"))
            .collect()
    }

    /// [`Executor::map`] for fallible jobs: returns the first error in
    /// *input order* (matching what a serial `?`-loop would surface), or
    /// all results.
    ///
    /// Short-circuits like the serial loop: with one worker, evaluation
    /// stops at the first error; with several, an error at index `i`
    /// cancels all not-yet-started items *above* `i` (lower items still
    /// run, so the reported error is deterministically the lowest-indexed
    /// one regardless of worker count).
    ///
    /// # Example
    ///
    /// ```
    /// use vliw_exec::Executor;
    ///
    /// let pool = Executor::new(4);
    /// let halves = pool.try_map(&[2u32, 8, 10], |_idx, &x| {
    ///     if x % 2 == 0 { Ok(x / 2) } else { Err(format!("{x} is odd")) }
    /// });
    /// assert_eq!(halves, Ok(vec![1, 4, 5]));
    ///
    /// // The lowest-indexed error wins, whatever the worker count.
    /// let err = pool.try_map(&[2u32, 3, 5], |_idx, &x| {
    ///     if x % 2 == 0 { Ok(x / 2) } else { Err(format!("{x} is odd")) }
    /// });
    /// assert_eq!(err, Err("3 is odd".to_owned()));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing item.
    pub fn try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.try_map_init(items, || (), |(), i, t| f(i, t))
    }

    /// [`Executor::try_map`] with per-worker state (see
    /// [`Executor::map_init`]): fallible jobs, first error in input order,
    /// one `init` per worker thread.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing item.
    pub fn try_map_init<T, R, E, S, I, F>(&self, items: &[T], init: I, f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
    {
        if self.jobs.get().min(items.len()) <= 1 {
            let mut state = init();
            let mut out = Vec::with_capacity(items.len());
            for (i, t) in items.iter().enumerate() {
                out.push(f(&mut state, i, t)?);
            }
            return Ok(out);
        }
        // Lowest failing index seen so far; items above it are skipped.
        // Every index below the *final* first error is still evaluated
        // (a skip implies an even lower error), so the scan below returns
        // exactly the error the serial loop would.
        let watermark = AtomicU64::new(u64::MAX);
        let evaluated = self.map_init(items, init, |state, i, t| {
            if (i as u64) > watermark.load(Ordering::Acquire) {
                return None;
            }
            let r = f(state, i, t);
            if r.is_err() {
                watermark.fetch_min(i as u64, Ordering::AcqRel);
            }
            Some(r)
        });
        let mut out = Vec::with_capacity(items.len());
        for r in evaluated {
            match r {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                None => unreachable!("an item below the first error was skipped"),
            }
        }
        Ok(out)
    }
}

impl Default for Executor {
    /// Defaults to [`Executor::auto`].
    fn default() -> Self {
        Self::auto()
    }
}

/// A thread-safe memoisation table: the first evaluation of a key computes
/// and stores the value, later evaluations clone the stored value.
///
/// The cache never changes *what* is computed — only how often — so
/// callers memoising a deterministic function get bit-identical results
/// with or without it (and under any thread interleaving: concurrent
/// computations of the same key keep the first stored value).
///
/// # Example
///
/// ```
/// use vliw_exec::MemoCache;
///
/// let cache: MemoCache<u32, u64> = MemoCache::new();
/// let square = |x: u32| cache.get_or_compute(x, || u64::from(x) * u64::from(x));
/// assert_eq!(square(7), 49);
/// assert_eq!(square(7), 49); // served from the cache
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// ```
pub struct MemoCache<K, V> {
    map: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> MemoCache<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        MemoCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, computing and storing it on the
    /// first request. `compute` runs *outside* the lock, so a slow
    /// computation never blocks unrelated lookups; if two threads race on
    /// the same key, both compute but the first store wins for everyone.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.get_or_insert(key, compute).0
    }

    /// [`get_or_compute`](Self::get_or_compute), also saying whether this
    /// call added `key`'s entry. However many threads race to compute one
    /// key, exactly one of them gets `true`, so counting the `true`s
    /// counts entries added — a number that, unlike
    /// [`misses`](Self::misses), does not depend on the interleaving.
    pub fn get_or_insert(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v.clone(), false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        match self.lock().entry(key) {
            Entry::Occupied(stored) => (stored.get().clone(), false),
            Entry::Vacant(slot) => (slot.insert(value).clone(), true),
        }
    }

    /// Number of distinct keys stored.
    ///
    /// # Panics
    ///
    /// Never panics (lock poisoning is absorbed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, V>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<K: Eq + Hash, V: Clone> Default for MemoCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoCache")
            .field(
                "len",
                &self
                    .map
                    .lock()
                    .map(|m| m.len())
                    .unwrap_or_else(|e| e.into_inner().len()),
            )
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let pool = Executor::new(jobs);
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        let f = |_: usize, x: &f64| (x.sin() * 1e9).to_bits();
        let serial = Executor::serial().map(&items, f);
        let parallel = Executor::new(7).map(&items, f);
        assert_eq!(serial, parallel, "bit-identical across worker counts");
    }

    #[test]
    fn map_handles_empty_and_singleton_inputs() {
        let pool = Executor::new(8);
        assert_eq!(pool.map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn workers_are_clamped_to_input_length() {
        // 64 workers for 4 items must not deadlock or duplicate work.
        let count = AtomicUsize::new(0);
        let out = Executor::new(64).map(&[1u32, 2, 3, 4], |_, &x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let items: Vec<u32> = (0..50).collect();
        let result = Executor::new(4).try_map(&items, |_, &x| {
            if x % 7 == 3 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        // Serial semantics: the lowest failing index (3) wins.
        assert_eq!(result, Err("bad 3".to_owned()));
    }

    #[test]
    fn try_map_collects_all_on_success() {
        let items: Vec<u32> = (0..20).collect();
        let result: Result<Vec<u32>, String> = Executor::new(3).try_map(&items, |_, &x| Ok(x * 2));
        assert_eq!(result.unwrap(), (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            Executor::new(4).map(&[1u32, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                assert!(x != 5, "boom on 5");
                x
            })
        });
        assert!(caught.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn worker_panic_with_many_items_does_not_deadlock() {
        // Regression: when every worker panics while far more items than
        // the bounded queue holds remain, the feeder must not block
        // forever in `send` — the last dying worker disconnects the job
        // channel.
        let items: Vec<u32> = (0..500).collect();
        let caught = std::panic::catch_unwind(|| {
            Executor::new(2).map(&items, |_, &x| {
                assert!(x >= 1000, "every item panics");
                x
            })
        });
        assert!(caught.is_err(), "panic must propagate, not hang");
    }

    #[test]
    fn try_map_short_circuits_serially_and_skips_above_failures() {
        // Serial: evaluation stops at the first error, like a `?` loop.
        let items: Vec<u32> = (0..50).collect();
        let evaluated = AtomicUsize::new(0);
        let r = Executor::serial().try_map(&items, |_, &x| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(r, Err("bad 3".to_owned()));
        assert_eq!(
            evaluated.load(Ordering::Relaxed),
            4,
            "serial try_map must stop at the first error"
        );

        // Parallel: items above an already-seen failure are cancelled, so
        // an early error avoids evaluating the whole input.
        let items: Vec<u32> = (0..2000).collect();
        let evaluated = AtomicUsize::new(0);
        let r = Executor::new(4).try_map(&items, |_, &x| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                Err("bad 0".to_owned())
            } else {
                Ok(x)
            }
        });
        assert_eq!(r, Err("bad 0".to_owned()));
        assert!(
            evaluated.load(Ordering::Relaxed) < items.len(),
            "an early error must cancel most remaining work ({} evaluated)",
            evaluated.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn map_init_threads_state_through_workers() {
        let items: Vec<u64> = (0..200).collect();
        let inits = AtomicUsize::new(0);
        let out = Executor::new(4).map_init(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new() // per-worker scratch, grown then reused
            },
            |scratch, _, &x| {
                scratch.clear();
                scratch.extend(0..=x);
                scratch.iter().sum::<u64>()
            },
        );
        let expect: Vec<u64> = items.iter().map(|&x| x * (x + 1) / 2).collect();
        assert_eq!(out, expect);
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "one init per worker, got {n}");
    }

    #[test]
    fn try_map_init_matches_serial_semantics() {
        let items: Vec<u32> = (0..50).collect();
        let r = Executor::new(4).try_map_init(
            &items,
            || 0u32,
            |_, _, &x| {
                if x % 7 == 3 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            },
        );
        assert_eq!(r, Err("bad 3".to_owned()));
    }

    #[test]
    fn absurd_job_counts_are_clamped() {
        let avail = Executor::auto().jobs();
        let absurd = (avail * Executor::OVERSUBSCRIPTION_LIMIT).max(Executor::CLAMP_FLOOR) + 1;
        assert_eq!(
            Executor::new(absurd).jobs(),
            avail,
            "absurd request clamps to available parallelism"
        );
        // Reasonable oversubscription is honoured verbatim.
        assert_eq!(Executor::new(64).jobs(), 64);
    }

    #[test]
    fn executor_constructors() {
        assert_eq!(Executor::serial().jobs(), 1);
        assert_eq!(Executor::new(5).jobs(), 5);
        assert!(Executor::new(0).jobs() >= 1, "0 means auto");
        assert!(Executor::auto().jobs() >= 1);
        assert!(Executor::default().jobs() >= 1);
    }

    #[test]
    fn memo_cache_computes_once_per_key() {
        let cache: MemoCache<u32, u64> = MemoCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            for k in 0..4u32 {
                let v = cache.get_or_compute(k, || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    u64::from(k) * 10
                });
                assert_eq!(v, u64::from(k) * 10);
            }
        }
        assert_eq!(calls.load(Ordering::Relaxed), 4, "one compute per key");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 8);
        assert!(!cache.is_empty());
    }

    #[test]
    fn memo_cache_is_safe_under_parallel_hammering() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let items: Vec<u32> = (0..200).collect();
        let out = Executor::new(8).map(&items, |_, &x| cache.get_or_compute(x % 5, || x % 5));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u32) % 5);
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }

    /// Racing computations of one key all get the stored value, and
    /// exactly one of them reports adding it.
    #[test]
    fn memo_cache_reports_each_entry_added_once() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let items: Vec<u32> = (0..200).collect();
        let out = Executor::new(8).map(&items, |_, &x| cache.get_or_insert(x % 5, || x % 5));
        let added = out.iter().filter(|&&(_, added)| added).count();
        for (i, &(v, _)) in out.iter().enumerate() {
            assert_eq!(v, (i as u32) % 5);
        }
        assert_eq!(added, 5, "one addition per key");
        assert!(cache.misses() >= 5);
        assert_eq!(cache.get_or_insert(3, || 99), (3, false));
    }

    #[test]
    fn memo_cache_debug_does_not_require_debug_contents() {
        struct Opaque;
        impl Clone for Opaque {
            fn clone(&self) -> Self {
                Opaque
            }
        }
        let cache: MemoCache<u8, Opaque> = MemoCache::new();
        let _ = cache.get_or_compute(1, || Opaque);
        let s = format!("{cache:?}");
        assert!(s.contains("len"), "{s}");
    }
}
