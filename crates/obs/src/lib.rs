//! Observability substrate for the whole pipeline, from scratch.
//!
//! The repo vendors everything, so this crate provides what `tracing` +
//! `metrics` would otherwise supply, tailored to the workspace's needs:
//!
//! * **Spans** — hierarchical wall-clock timing via RAII guards
//!   ([`span`]). Each thread records into a thread-local buffer; the
//!   scoped-thread pool in `cc-par` drains each worker's buffer at join
//!   and stitches it into the caller's tree ([`take_local_roots`] /
//!   [`adopt`]), so a trace of a parallel run is one well-formed tree.
//! * **Metrics** — process-wide named [`counter`]s (atomic `u64`) and
//!   fixed log2-bucket [`Histogram`]s, interned on first use and
//!   snapshot in deterministic (sorted) order.
//! * **Exporters** — the `cc-trace/1` `TRACE.json` span-tree + metrics
//!   artifact with a schema validator ([`trace`]), and a progress sink
//!   ([`progress`](mod@progress)) replacing ad-hoc `eprintln!` reporting.
//!
//! **Disabled-path cost.** Recording is off by default. Every recording
//! entry point ([`span`], [`counter_add`], [`observe`], …) begins with a
//! single relaxed atomic load and returns immediately when its bit is
//! clear — no allocation, no lock, no thread-local access. The
//! `disabled_zero_alloc` test pins the no-allocation guarantee with a
//! counting global allocator, and ccbench's `trace.overhead_pct` tracks
//! what enabled recording costs end to end. Instrumentation never touches
//! the data path, so enabling it cannot change any computed bytes or
//! verdicts.
//!
//! Spans and metrics gate independently ([`set_spans_enabled`],
//! [`set_metrics_enabled`]): the bench harness records byte counters
//! without paying for span trees; `--trace` turns both on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod json;
pub mod progress;
pub mod trace;

// ---------------------------------------------------------------------
// Recording gates.
// ---------------------------------------------------------------------

const SPANS_BIT: u8 = 1;
const METRICS_BIT: u8 = 2;

/// Recording gates; all zero (everything off) at process start.
static FLAGS: AtomicU8 = AtomicU8::new(0);

/// True when span recording is on. One relaxed atomic load.
#[inline]
pub fn spans_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & SPANS_BIT != 0
}

/// True when metric recording is on. One relaxed atomic load.
#[inline]
pub fn metrics_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & METRICS_BIT != 0
}

/// Turn span recording on or off process-wide.
pub fn set_spans_enabled(on: bool) {
    set_bit(SPANS_BIT, on);
}

/// Turn metric recording on or off process-wide.
pub fn set_metrics_enabled(on: bool) {
    set_bit(METRICS_BIT, on);
}

/// Enable both spans and metrics (the `--trace` configuration).
pub fn enable_all() {
    FLAGS.store(SPANS_BIT | METRICS_BIT, Ordering::Relaxed);
}

fn set_bit(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Monotonic clock.
// ---------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's observability epoch (the first call).
/// Monotonic across threads, so stitched span trees stay ordered.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// One finished span: a named interval plus its finished children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name (static or interned).
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub dur_ns: u64,
    /// Spans that completed while this one was open (including spans
    /// stitched in from pool workers).
    pub children: Vec<SpanNode>,
}

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    children: Vec<SpanNode>,
}

#[derive(Default)]
struct LocalSpans {
    stack: Vec<OpenSpan>,
    roots: Vec<SpanNode>,
    /// Nodes recorded by this thread since the last drain, counted
    /// against [`SPAN_NODE_CAP`] so a traced full-scale sweep cannot
    /// grow memory without bound.
    nodes: usize,
}

/// Per-thread cap on buffered span nodes. Past it new spans are dropped
/// (and tallied on the `obs.spans_dropped` counter) rather than recorded.
pub const SPAN_NODE_CAP: usize = 1 << 20;

thread_local! {
    static LOCAL: RefCell<LocalSpans> = const {
        RefCell::new(LocalSpans { stack: Vec::new(), roots: Vec::new(), nodes: 0 })
    };
}

/// RAII guard for one span; the span closes when the guard drops.
/// Inert (a bool, nothing else) when span recording is disabled.
#[must_use = "a span guard times the scope it lives in"]
pub struct Span {
    live: bool,
}

impl Span {
    /// True if this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.live
    }
}

/// Open a span named `name` on the current thread. The single
/// atomic-load branch on the disabled path is the whole cost there.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !spans_enabled() {
        return Span { live: false };
    }
    span_slow(name)
}

/// Open a span with a runtime-built name (interned, so repeated names
/// cost one leak total). Prefer [`span`] with a static name on hot paths.
#[inline]
pub fn span_dyn(name: &str) -> Span {
    if !spans_enabled() {
        return Span { live: false };
    }
    span_slow(intern(name))
}

fn span_slow(name: &'static str) -> Span {
    let start_ns = now_ns();
    let opened = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.nodes >= SPAN_NODE_CAP {
            return false;
        }
        l.nodes += 1;
        l.stack.push(OpenSpan { name, start_ns, children: Vec::new() });
        true
    });
    if !opened {
        counter_add("obs.spans_dropped", 1);
    }
    Span { live: opened }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // The stack can only be empty if a guard outlived a drain
            // that cleared it — close gracefully rather than panic.
            if let Some(open) = l.stack.pop() {
                let node = SpanNode {
                    name: open.name,
                    start_ns: open.start_ns,
                    dur_ns: end_ns.saturating_sub(open.start_ns),
                    children: open.children,
                };
                match l.stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => l.roots.push(node),
                }
            }
        });
    }
}

/// Drain the current thread's finished root spans. Pool workers call
/// this once at the end of their run loop; the pool's caller stitches
/// the result into its own tree with [`adopt`]. Cheap (and empty) when
/// nothing was recorded.
pub fn take_local_roots() -> Vec<SpanNode> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.nodes = l.stack.len();
        std::mem::take(&mut l.roots)
    })
}

/// Attach spans recorded on another thread under the current thread's
/// innermost open span (or as roots if none is open). This is the
/// pool-join stitching point: worker trees become children of whatever
/// span the parallel region ran inside.
pub fn adopt(nodes: Vec<SpanNode>) {
    if nodes.is_empty() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.nodes += nodes.iter().map(SpanNode::node_count).sum::<usize>();
        match l.stack.last_mut() {
            Some(parent) => parent.children.extend(nodes),
            None => l.roots.extend(nodes),
        }
    });
}

impl SpanNode {
    /// Number of nodes in this subtree (self included).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::node_count).sum::<usize>()
    }

    /// End of the interval, ns since the epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Self time: duration minus the summed duration of direct children.
    /// Saturates at zero — stitched parallel children can legitimately
    /// sum past the parent's wall time.
    pub fn self_ns(&self) -> u64 {
        let child_sum: u64 = self.children.iter().map(|c| c.dur_ns).sum();
        self.dur_ns.saturating_sub(child_sum)
    }
}

// ---------------------------------------------------------------------
// Metrics: interned counters and log2 histograms.
// ---------------------------------------------------------------------

/// Number of log2 buckets; bucket `i > 0` counts values in
/// `[2^(i-1), 2^i)`, bucket 0 counts zero.
pub const HIST_BUCKETS: usize = 64;

/// A fixed log2-bucket histogram with atomic recording.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Record one value.
    pub fn observe(&self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Fold a snapshot's buckets into this histogram — the per-shard
    /// aggregation primitive: each shard keeps its own histogram and a
    /// collector merges their snapshots into one. Out-of-range bucket
    /// indices in a hostile snapshot clamp into the saturated last
    /// bucket rather than panicking.
    pub fn merge(&self, snap: &HistogramSnapshot) {
        for &(idx, n) in &snap.buckets {
            let idx = (idx as usize).min(HIST_BUCKETS - 1);
            self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot (relaxed loads; exact once recording
    /// has quiesced).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// Snapshot of one histogram: only non-empty buckets, as
/// `(log2_upper_bound, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs; bucket `i > 0` spans
    /// `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Expand the sparse pairs into the dense [`HIST_BUCKETS`]-wide
    /// layout [`percentile_upper_bound`] reads. Out-of-range indices
    /// clamp into the saturated last bucket.
    pub fn dense(&self) -> Vec<u64> {
        let mut dense = vec![0u64; HIST_BUCKETS];
        for &(idx, n) in &self.buckets {
            dense[(idx as usize).min(HIST_BUCKETS - 1)] += n;
        }
        dense
    }

    /// Conservative `q`-percentile of this snapshot (bucket upper
    /// bound; see [`percentile_upper_bound`]).
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_upper_bound(&self.dense(), q)
    }

    /// Sum two snapshots bucket-wise — aggregating one metric across
    /// shards. Totals add exactly: `merge` preserves `count` and `sum`.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = self.dense();
        for (slot, v) in dense.iter_mut().zip(other.dense()) {
            *slot += v;
        }
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((i as u32, n)))
                .collect(),
        }
    }

    /// Subtract an earlier snapshot of the same histogram, bucket-wise —
    /// the interval view `ccc top` renders between two polls. Counts
    /// saturate at zero, so a snapshot pair from different server
    /// incarnations degrades to a partial delta instead of panicking.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = self.dense();
        for (slot, v) in dense.iter_mut().zip(earlier.dense()) {
            *slot = slot.saturating_sub(v);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((i as u32, n)))
                .collect(),
        }
    }
}

/// Conservative percentile over dense log2 bucket counts
/// (`buckets[i]` = observations in bucket `i`, the layout
/// [`Histogram::observe`] writes).
///
/// Walks the cumulative distribution to the bucket containing the
/// `q`-quantile observation and reports that bucket's **upper** bound:
/// `0` for bucket 0, `2^i` for bucket `i > 0`. Reporting the upper
/// bound is deliberate — a log2 bucket spans a 2× range, and a latency
/// percentile that quotes the lower edge under-reports by up to that
/// factor; quoting the edge no observation exceeded keeps the figure
/// honest. The last bucket is saturated (it also absorbs values at or
/// above `2^63`), so its nominal upper bound `2^63` is a floor, not an
/// exact ceiling. Returns 0 for an empty histogram.
pub fn percentile_upper_bound(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        cum += n;
        if cum >= target {
            return if i == 0 { 0 } else { 1u64 << i.min(63) };
        }
    }
    // Unreachable with total > 0; the saturated last bucket's bound.
    1u64 << 63
}

#[derive(Default)]
struct Registry {
    names: BTreeMap<&'static str, ()>,
    counters: BTreeMap<&'static str, &'static AtomicU64>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    names: BTreeMap::new(),
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

fn intern_in(reg: &mut Registry, name: &str) -> &'static str {
    if let Some((&k, _)) = reg.names.get_key_value(name) {
        return k;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    reg.names.insert(leaked, ());
    leaked
}

/// Intern a name, returning a `'static` copy (one leak per distinct
/// name process-wide). Used for dynamic span names.
pub fn intern(name: &str) -> &'static str {
    intern_in(&mut registry(), name)
}

/// The counter registered under `name` (created zeroed on first use).
/// Handles are `'static`, so hot callers may cache them.
pub fn counter(name: &str) -> &'static AtomicU64 {
    let mut reg = registry();
    if let Some(&c) = reg.counters.get(name) {
        return c;
    }
    let key = intern_in(&mut reg, name);
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    reg.counters.insert(key, cell);
    cell
}

/// Add `delta` to counter `name`. No-op (one atomic load) when metric
/// recording is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    counter(name).fetch_add(delta, Ordering::Relaxed);
}

/// Increment counter `name` by one.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Current value of counter `name` (0 if never touched). Reads are not
/// gated: snapshots and telemetry diffs work while recording is off.
pub fn counter_value(name: &str) -> u64 {
    registry().counters.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
}

/// The histogram registered under `name` (created empty on first use).
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry();
    if let Some(&h) = reg.histograms.get(name) {
        return h;
    }
    let key = intern_in(&mut reg, name);
    let cell: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.histograms.insert(key, cell);
    cell
}

/// Record `value` on histogram `name`. No-op (one atomic load) when
/// metric recording is disabled.
#[inline]
pub fn observe(name: &str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    histogram(name).observe(value);
}

/// A deterministic (name-sorted) snapshot of every counter and
/// histogram touched so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram snapshot under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Union of two snapshots: counters add, histograms bucket-merge,
    /// names sort. Merging shard-local snapshots into a process view.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        for (n, v) in self.counters.iter().chain(&other.counters) {
            *counters.entry(n).or_insert(0) += v;
        }
        let mut histograms: BTreeMap<&str, HistogramSnapshot> = BTreeMap::new();
        for (n, h) in self.histograms.iter().chain(&other.histograms) {
            match histograms.get_mut(n.as_str()) {
                Some(acc) => *acc = acc.merge(h),
                None => {
                    histograms.insert(n, h.clone());
                }
            }
        }
        MetricsSnapshot {
            counters: counters.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: histograms
                .into_iter()
                .map(|(n, h)| (n.to_string(), h))
                .collect(),
        }
    }

    /// Interval view: this snapshot minus an `earlier` one of the same
    /// process. Counters saturate at zero (a restarted server resets
    /// its counters; the first delta after a restart is then partial,
    /// never a panic). Names present only in `earlier` are dropped —
    /// they recorded nothing this interval.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| {
                    let d = match earlier.histogram(n) {
                        Some(e) => h.delta(e),
                        None => h.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
        }
    }
}

/// Snapshot all metrics. Zero-valued counters are kept (a registered
/// counter that never fired is itself a signal); empty histograms too.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(&n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(&n, h)| (n.to_string(), h.snapshot()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recording gates are process-wide, so tests that flip them
    /// must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        // Edge bucket 0: all observations are zero, every percentile is 0.
        let mut zeros = vec![0u64; HIST_BUCKETS];
        zeros[0] = 50;
        assert_eq!(percentile_upper_bound(&zeros, 0.5), 0);
        assert_eq!(percentile_upper_bound(&zeros, 0.999), 0);

        // Edge bucket 63 (saturated): mass at the top reports the
        // nominal upper bound 2^63, never a lower edge.
        let mut top = vec![0u64; HIST_BUCKETS];
        top[63] = 10;
        assert_eq!(percentile_upper_bound(&top, 0.5), 1u64 << 63);

        // Mid-distribution: 90 observations in bucket 3 ([4, 8)), 10 in
        // bucket 7 ([64, 128)). p50 lands in bucket 3 and must report 8
        // — the value no observation in that bucket exceeded — not the
        // lower edge 4. p99 lands in bucket 7 and must report 128.
        let mut mid = vec![0u64; HIST_BUCKETS];
        mid[3] = 90;
        mid[7] = 10;
        assert_eq!(percentile_upper_bound(&mid, 0.5), 8);
        assert_eq!(percentile_upper_bound(&mid, 0.90), 8);
        assert_eq!(percentile_upper_bound(&mid, 0.99), 128);
        assert_eq!(percentile_upper_bound(&mid, 1.0), 128);

        // Empty histogram degrades to 0.
        assert_eq!(percentile_upper_bound(&vec![0u64; HIST_BUCKETS], 0.99), 0);

        // The bucket math this helper assumes: observe() puts value v>0
        // in the bucket whose upper bound is the smallest 2^i > v.
        let h = Histogram::new();
        h.observe(5);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(3, 1)]);
    }

    fn with_spans<R>(f: impl FnOnce() -> R) -> R {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        set_spans_enabled(true);
        let r = f();
        set_spans_enabled(false);
        r
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        set_spans_enabled(false);
        let g = span("never");
        assert!(!g.is_recording());
        drop(g);
        assert!(take_local_roots().is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let roots = with_spans(|| {
            {
                let _a = span("outer");
                {
                    let _b = span("inner1");
                }
                {
                    let _c = span("inner2");
                }
            }
            take_local_roots()
        });
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "inner1");
        assert_eq!(outer.children[1].name, "inner2");
        for c in &outer.children {
            assert!(c.start_ns >= outer.start_ns);
            assert!(c.end_ns() <= outer.end_ns());
        }
        assert!(outer.self_ns() <= outer.dur_ns);
    }

    #[test]
    fn adopt_attaches_under_open_span() {
        let roots = with_spans(|| {
            let foreign = vec![SpanNode {
                name: "worker",
                start_ns: now_ns(),
                dur_ns: 5,
                children: Vec::new(),
            }];
            {
                let _p = span("parent");
                adopt(foreign);
            }
            take_local_roots()
        });
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "worker");
    }

    #[test]
    fn adopt_without_open_span_goes_to_roots() {
        let roots = with_spans(|| {
            adopt(vec![SpanNode { name: "stray", start_ns: 0, dur_ns: 1, children: Vec::new() }]);
            take_local_roots()
        });
        assert!(roots.iter().any(|r| r.name == "stray"));
    }

    #[test]
    fn counters_count_and_snapshot_sorted() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        set_metrics_enabled(true);
        counter_add("test.lib.b", 2);
        counter_add("test.lib.a", 1);
        counter_add("test.lib.b", 3);
        set_metrics_enabled(false);
        counter_add("test.lib.b", 100); // gated off: must not land
        assert_eq!(counter_value("test.lib.a"), 1);
        assert_eq!(counter_value("test.lib.b"), 5);
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 1024 -> bucket 11.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
        assert!((s.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn intern_dedupes() {
        let a = intern("test.lib.same-name");
        let b = intern("test.lib.same-name");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn interned_span_name() {
        let roots = with_spans(|| {
            {
                let _s = span_dyn(&format!("dyn.{}", 7));
            }
            take_local_roots()
        });
        assert!(roots.iter().any(|r| r.name == "dyn.7"));
    }
}
