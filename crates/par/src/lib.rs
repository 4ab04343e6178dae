//! Minimal data-parallel helpers on `std::thread::scope` workers.
//!
//! The evaluation sweeps are embarrassingly parallel over variables (and
//! over ensemble members inside a variable), and the chunked codec path
//! is parallel over blocks; a scoped-thread worker pool with an atomic
//! work index gives rayon-style `par_map` semantics without adding rayon
//! to the dependency set. Results come back in input order, so parallel
//! callers see exactly the sequence a sequential loop would produce.
//!
//! This crate sits below `cc-codecs`, `cc-ncdf`, and `cc-core` so all
//! three layers share one pool discipline — in particular the
//! **nested-context guard**: code running *inside* a pool worker that
//! calls back into [`par_map`]/[`par_map_with`] degrades to sequential
//! execution instead of multiplying thread counts (an evaluation sweep
//! over members that compresses each member with the chunked codec path
//! would otherwise spawn `workers²` threads).
//!
//! **Observability.** The pool is the stitching point for `cc-obs` span
//! trees: each worker drains its thread-local finished spans at the end
//! of its run loop, and the caller adopts them (in worker order) under
//! whatever span the parallel region ran inside, so one traced run
//! yields one well-formed tree regardless of worker count. With metrics
//! enabled the pool also records per-job task counts (`par.jobs`,
//! `par.tasks`) and per-worker queue/run-time histograms
//! (`par.task_queue_ns`, `par.task_run_ns`). All of it is gated on the
//! usual single atomic load, checked once per job, so the disabled path
//! is unchanged.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Process-wide worker-count override (0 = unset). Set from `--workers`
/// style CLI flags; consulted by [`default_workers`].
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on threads spawned by [`par_map_with`] workers.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the calling thread is a pool worker spawned by this crate.
pub fn in_pool_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Override the process-wide default worker count (`0` clears the
/// override). Used by the CLI `--workers` flags; nested contexts still
/// degrade to 1 regardless of the override.
pub fn set_global_workers(n: usize) {
    GLOBAL_WORKERS.store(n, Ordering::Relaxed);
}

/// Number of worker threads to use.
///
/// Nested-context guard: when called from inside a pool worker this
/// returns 1, so parallel code invoked from an already-parallel sweep
/// runs sequentially instead of oversubscribing the machine.
pub fn default_workers() -> usize {
    if in_pool_worker() {
        return 1;
    }
    match GLOBAL_WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        n => n,
    }
}

/// Parallel map preserving input order. `f` must be `Sync` (called from
/// many threads); items are claimed with an atomic cursor so imbalanced
/// work (3-D vs 2-D variables) self-schedules.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(default_workers(), items, f)
}

/// [`par_map`] with an explicit worker count (1 = sequential, used by
/// tests and nested contexts). A call from inside a pool worker is
/// forced sequential whatever `workers` says — see the crate docs.
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if in_pool_worker() { 1 } else { workers.clamp(1, n) };
    if workers == 1 {
        return items.iter().map(&f).collect();
    }
    // Observability gates, read once per job so workers pay nothing
    // per task on the disabled path.
    let record_metrics = cc_obs::metrics_enabled();
    let record_spans = cc_obs::spans_enabled();
    if record_metrics {
        cc_obs::counter_inc("par.jobs");
        cc_obs::counter_add("par.tasks", n as u64);
    }
    let job_start_ns = if record_metrics { cc_obs::now_ns() } else { 0 };
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // Each worker claims indices from the shared cursor and returns its
    // (index, value) pairs; the parent merges them back in order. With
    // spans enabled the worker also returns its finished span roots,
    // which the parent stitches into its own tree.
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            handles.push(s.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                if record_metrics {
                    // Spawn-to-first-claim latency for this worker.
                    cc_obs::observe(
                        "par.task_queue_ns",
                        cc_obs::now_ns().saturating_sub(job_start_ns),
                    );
                }
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if record_metrics {
                        let t0 = cc_obs::now_ns();
                        local.push((i, f(&items[i])));
                        cc_obs::observe(
                            "par.task_run_ns",
                            cc_obs::now_ns().saturating_sub(t0),
                        );
                    } else {
                        local.push((i, f(&items[i])));
                    }
                }
                let spans = if record_spans {
                    cc_obs::take_local_roots()
                } else {
                    Vec::new()
                };
                (local, spans)
            }));
        }
        for h in handles {
            let (local, spans) = h.join().expect("worker panicked");
            cc_obs::adopt(spans);
            for (i, r) in local {
                results[i] = Some(r);
            }
        }
    });
    results.into_iter().map(|r| r.expect("all slots filled")).collect()
}

/// One-slot prefetch pipeline: `build` the next item's state on a helper
/// thread while the caller `process`es the current one.
///
/// The evaluation sweep is a chain of expensive `build` (ensemble
/// context synthesis) → `process` (verdict computation) pairs; running
/// them strictly in sequence leaves the pool idle during whichever half
/// is cheaper. This helper overlaps `build(items[i + 1])` with
/// `process(state_i, i)` while keeping two invariants:
///
/// * **Bounded residency** — at most two built states exist at once: the
///   one being processed and the one being prefetched. The prefetch slot
///   is one deep by construction (there is a single helper in flight).
/// * **Deterministic order** — `process` runs on the calling thread in
///   input order, so order-sensitive accumulation behaves exactly as a
///   sequential loop. Span trees recorded during a prefetched `build`
///   are adopted into the caller's tree *before* that item's `process`
///   spans, preserving the sequential trace shape.
///
/// The helper thread is *not* marked as a pool worker: a `build` that
/// fans out over [`par_map_with`] still gets its requested workers.
pub fn prefetch_map<T, C, R, B, F>(items: &[T], build: B, mut process: F) -> Vec<R>
where
    T: Sync,
    C: Send,
    B: Fn(&T) -> C + Sync,
    F: FnMut(C, usize) -> R,
{
    let n = items.len();
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return out;
    }
    let record_spans = cc_obs::spans_enabled();
    let build = &build;
    std::thread::scope(|s| {
        let task = |i: usize| {
            move || {
                let state = build(&items[i]);
                let spans =
                    if record_spans { cc_obs::take_local_roots() } else { Vec::new() };
                (state, spans)
            }
        };
        let mut pending = Some(s.spawn(task(0)));
        for i in 0..n {
            let (state, spans) =
                pending.take().expect("slot filled").join().expect("prefetch build panicked");
            cc_obs::adopt(spans);
            if i + 1 < n {
                pending = Some(s.spawn(task(i + 1)));
            }
            out.push(process(state, i));
        }
    });
    out
}

// ---------------------------------------------------------------------
// Bounded work queue + persistent worker pool (the `cc-serve` substrate).
// ---------------------------------------------------------------------

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPMC queue.
///
/// Producers use [`BoundedQueue::try_push`], which *never blocks*: a full
/// (or closed) queue hands the item straight back so the caller can apply
/// backpressure (the `cc-serve` acceptor answers `Busy`) instead of
/// growing memory without bound. Consumers block in [`BoundedQueue::pop`]
/// until an item arrives or the queue is closed *and* drained — so
/// [`BoundedQueue::close`] gives graceful-drain semantics for free:
/// already-queued work is still handed out, then every popper unblocks
/// with `None`.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue `item` without blocking. Returns the queue depth after the
    /// push, or gives `item` back if the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut st = self.lock();
        if st.closed || st.items.len() >= self.cap {
            return Err(item);
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeue, blocking until an item is available. Returns `None` once
    /// the queue has been closed and every queued item drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Close the queue: rejects new pushes, wakes every blocked popper.
    /// Queued items remain poppable (drain-then-stop).
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Run a persistent worker pool over `queue`: `workers` scoped threads
/// each loop popping items into `f` until the queue is closed and
/// drained. Blocks until then.
///
/// Pool threads are marked with the same nested-context guard as
/// [`par_map_with`] workers, so codec/evaluation code invoked from a
/// handler degrades to sequential instead of oversubscribing (one server
/// request never fans out a second thread pool). Span trees recorded on
/// the workers are stitched into the caller's tree at join, exactly as
/// the data-parallel pool does.
pub fn run_pool<T, F>(workers: usize, queue: &BoundedQueue<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let record_spans = cc_obs::spans_enabled();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers.max(1));
        for _ in 0..workers.max(1) {
            let f = &f;
            handles.push(s.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                while let Some(item) = queue.pop() {
                    f(item);
                }
                if record_spans { cc_obs::take_local_roots() } else { Vec::new() }
            }));
        }
        for h in handles {
            let spans = h.join().expect("pool worker panicked");
            cc_obs::adopt(spans);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&i| i * 2);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(&[] as &[i32], |&v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_sequential() {
        let items = vec![1, 2, 3];
        let out = par_map_with(1, &items, |&v| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_items() {
        let items = vec![5];
        let out = par_map_with(64, &items, |&v| v);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn uneven_work_completes() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&i| {
            // Simulate imbalanced work.
            let mut acc = 0u64;
            for k in 0..(i * 1000) {
                acc = acc.wrapping_add(k);
            }
            acc.wrapping_add(i)
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn nested_context_degrades_to_sequential() {
        // Regression: default_workers() consulted inside an
        // already-parallel sweep must report 1 so nested par_map calls
        // cannot multiply thread counts.
        let items: Vec<usize> = (0..16).collect();
        let flags = par_map_with(4, &items, |_| {
            (in_pool_worker(), default_workers())
        });
        for (in_pool, workers) in flags {
            assert!(in_pool, "pool worker must see the in-pool flag");
            assert_eq!(workers, 1, "nested default_workers must be 1");
        }
        // Outside the pool the flag is clear again.
        assert!(!in_pool_worker());
        assert!(default_workers() >= 1);
    }

    #[test]
    fn nested_par_map_spawns_no_extra_threads() {
        // Count concurrently-live closure invocations of the *inner*
        // par_map: forced-sequential nesting means the inner map runs on
        // the worker thread itself, so its concurrency never exceeds the
        // outer worker count even when it asks for 8 workers.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..32).collect();
        par_map_with(2, &outer, |_| {
            par_map_with(8, &inner, |&v| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                std::thread::yield_now();
                LIVE.fetch_sub(1, Ordering::SeqCst);
                v
            })
        });
        assert!(
            PEAK.load(Ordering::SeqCst) <= 2,
            "nested par_map exploded concurrency: peak {}",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn bounded_queue_backpressure_and_drain() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        // Full: the item comes straight back, nothing blocks.
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        q.close();
        // Closed queues reject pushes but still drain queued items.
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let first = q.pop();
                let second = q.pop();
                (first, second)
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.try_push(7).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(h.join().unwrap(), (Some(7), None));
        });
    }

    #[test]
    fn run_pool_processes_everything_and_nests_sequentially() {
        static SUM: AtomicUsize = AtomicUsize::new(0);
        static NESTED_WORKERS: AtomicUsize = AtomicUsize::new(0);
        let q: BoundedQueue<usize> = BoundedQueue::new(64);
        for i in 0..64 {
            q.try_push(i).unwrap();
        }
        q.close();
        run_pool(4, &q, |i| {
            // Pool workers carry the nested-context guard, so inner
            // parallel calls degrade to sequential.
            NESTED_WORKERS.fetch_max(default_workers(), Ordering::SeqCst);
            SUM.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(SUM.load(Ordering::SeqCst), (0..64).sum());
        assert_eq!(NESTED_WORKERS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn prefetch_map_matches_sequential_in_order() {
        let items: Vec<usize> = (0..20).collect();
        let mut seen = Vec::new();
        let out = prefetch_map(
            &items,
            |&i| i * 10,
            |state, idx| {
                seen.push(idx);
                state + idx
            },
        );
        assert_eq!(seen, (0..20).collect::<Vec<_>>(), "process order must be sequential");
        assert_eq!(out, (0..20).map(|i| i * 11).collect::<Vec<_>>());
        assert!(prefetch_map(&[] as &[usize], |&i| i, |s, _| s).is_empty());
    }

    #[test]
    fn prefetch_map_keeps_at_most_two_states_resident() {
        // Guard type counting live built states: one being processed plus
        // one in the prefetch slot is the contract.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        struct Guard(usize);
        impl Drop for Guard {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let items: Vec<usize> = (0..32).collect();
        let out = prefetch_map(
            &items,
            |&i| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                Guard(i)
            },
            |state, _| {
                // Linger with the state held so the prefetcher has every
                // chance to run ahead if it (wrongly) could.
                std::thread::sleep(Duration::from_millis(1));
                state.0
            },
        );
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
        assert!(
            PEAK.load(Ordering::SeqCst) <= 2,
            "prefetch ran more than one state ahead: peak {}",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn prefetch_map_builds_can_use_the_pool() {
        // The prefetch helper thread must not carry the in-pool flag:
        // context building fans out over par_map internally.
        let items: Vec<usize> = (0..4).collect();
        let flags = prefetch_map(&items, |_| in_pool_worker(), |f, _| f);
        assert_eq!(flags, vec![false; 4]);
    }

    #[test]
    fn global_override_respected() {
        set_global_workers(3);
        assert_eq!(default_workers(), 3);
        set_global_workers(0);
        assert!(default_workers() >= 1);
    }
}
