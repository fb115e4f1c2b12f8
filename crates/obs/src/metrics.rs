//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Every thread records into its **own** registry unless it is bound to a
//! shared one. Thread-locality is the default because the pipeline is
//! single-threaded per campaign: recording takes no lock, and every
//! `cargo test` thread gets an isolated registry for free.
//!
//! A thread whose records must be readable while it runs — a server's
//! connection handlers, replicas and supervisor, which feed the live
//! `admin stats` plane — calls [`bind`] with a [`SharedMetrics`]. Until the
//! returned guard drops, every free function here (recording, [`snapshot`],
//! [`merge`], [`restore`], [`reset`]) works on the shared registry instead,
//! so a fact is booked once, in the one place it is read from.
//!
//! Metric names are dotted strings (`oracle.eval_us`); a one-label variant
//! composes Prometheus-style keys (`harness.faults{kind=tool-crash}`).
//!
//! [`snapshot`] serializes the whole registry (sorted, deterministic) and
//! [`restore`] replaces it — that pair is what lets a rounds checkpoint
//! carry its accounting across a crash so the resumed campaign's
//! `run_report.json` matches an uninterrupted run.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Upper bucket edges (inclusive, microseconds) of the default latency
/// histogram: spans 10 µs surrogate inferences to minute-scale HLS stages.
/// Observations above the last edge land in the overflow bucket.
pub const DEFAULT_US_EDGES: [u64; 14] = [
    10,
    50,
    100,
    500,
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    60_000_000,
];

/// A fixed-bucket histogram: `counts[i]` observations fell in
/// `(edges[i-1], edges[i]]`, with one extra overflow bucket past the last
/// edge. Also tracks the exact count and sum, so means are bucket-error-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram over `edges` (must be strictly increasing).
    pub fn new(edges: &[u64]) -> Self {
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be strictly increasing");
        Histogram { edges: edges.to_vec(), counts: vec![0; edges.len() + 1], count: 0, sum: 0 }
    }

    /// An empty histogram over [`DEFAULT_US_EDGES`].
    pub fn default_us() -> Self {
        Self::new(&DEFAULT_US_EDGES)
    }

    /// The bucket index `value` falls into: the first `i` with
    /// `value <= edges[i]`, or the overflow bucket.
    pub fn bucket_index(&self, value: u64) -> usize {
        self.edges.partition_point(|&e| e < value)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let i = self.bucket_index(value);
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket edges.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket counts (`edges.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// A serializable copy under `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            edges: self.edges.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
        }
    }

    fn from_snapshot(s: &HistogramSnapshot) -> Self {
        Histogram {
            edges: s.edges.clone(),
            counts: s.counts.clone(),
            count: s.count,
            sum: s.sum,
        }
    }

    /// Adds another histogram's observations into this one. Requires equal
    /// bucket edges (all callers use one fixed edge set per metric name).
    fn add_snapshot(&mut self, s: &HistogramSnapshot) {
        debug_assert_eq!(self.edges, s.edges, "histogram edge mismatch in merge");
        if self.edges != s.edges {
            return;
        }
        for (c, add) in self.counts.iter_mut().zip(&s.counts) {
            *c += add;
        }
        self.count += s.count;
        self.sum = self.sum.saturating_add(s.sum);
    }
}

/// Serializable state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Upper bucket edges (inclusive).
    pub edges: Vec<u64>,
    /// Per-bucket counts (one more than `edges`; last is overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Interpolated quantile `q` (clamped to `[0, 1]`): walks the
    /// cumulative bucket counts to the bucket containing the `q·count`-th
    /// observation and interpolates linearly inside it, the same estimate
    /// Prometheus' `histogram_quantile` computes. Observations in the
    /// overflow bucket clamp to the last edge (their true magnitude is
    /// unknown); an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.edges.is_empty() {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let last_edge = *self.edges.last().expect("non-empty edges") as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if c > 0 && next >= target {
                if i >= self.edges.len() {
                    return last_edge;
                }
                let lower = if i == 0 { 0.0 } else { self.edges[i - 1] as f64 };
                let upper = self.edges[i] as f64;
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
            cum = next;
        }
        last_edge
    }
}

/// Deterministic, serializable copy of a whole registry. Entries are sorted
/// by name, so the same campaign always snapshots to the same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A gauge's value, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram's state, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All counters whose composed name starts with `prefix`.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Applies `op` to `map[name]`, inserting `new()` first if absent. Looks up
/// before allocating the key, so after a name's first booking, recording
/// allocates nothing (and holds a shared registry's lock that much less).
fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    op: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => op(v),
        None => op(map.entry(name.to_string()).or_insert_with(new)),
    }
}

impl Registry {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, h)| h.snapshot(k)).collect(),
        }
    }
}

/// A thread's metrics state: its own registry, and the shared registry it
/// is bound to while a [`BindGuard`] lives.
#[derive(Default)]
struct Local {
    own: Registry,
    bound: Option<Arc<SharedMetrics>>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Runs `f` on the registry this thread records into: the bound shared
/// registry if there is one, else the thread's own. `f` must not call back
/// into this module (a bound registry's lock is held while it runs).
fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    LOCAL.with(|l| {
        let Local { own, bound } = &mut *l.borrow_mut();
        match bound {
            Some(shared) => f(&mut shared.lock()),
            None => f(own),
        }
    })
}

/// A mutex-guarded registry shared across threads, readable while they
/// still record into it: the live plane behind a server's `admin stats`.
///
/// It has no recording methods of its own. A thread records into it by
/// [`bind`]ing to it; every free function of this module then reads and
/// writes the shared registry until the guard drops.
#[derive(Default)]
pub struct SharedMetrics {
    inner: Mutex<Registry>,
}

impl SharedMetrics {
    /// An empty shared registry.
    pub fn new() -> SharedMetrics {
        SharedMetrics::default()
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        // Every update leaves the registry valid at each step (a panic
        // mid-booking half-counts at most one observation), so one thread's
        // panic must not stop the others from recording.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A deterministic (sorted) copy of the shared registry — safe to call
    /// from any thread at any time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().snapshot()
    }
}

/// Keeps the calling thread bound to a [`SharedMetrics`]; dropping it
/// restores the binding that was in place before. Not `Send`: it belongs
/// to the thread that created it.
#[must_use = "the thread is bound only while the guard lives"]
pub struct BindGuard {
    prev: Option<Arc<SharedMetrics>>,
    _thread: PhantomData<*const ()>,
}

/// Binds the calling thread to `shared` until the returned guard drops:
/// every free function of this module ([`counter_add`], [`snapshot`],
/// [`merge`], …) then works on `shared` instead of the thread's own
/// registry. Guards nest; each restores the binding it replaced.
pub fn bind(shared: &Arc<SharedMetrics>) -> BindGuard {
    let prev = LOCAL.with(|l| l.borrow_mut().bound.replace(Arc::clone(shared)));
    BindGuard { prev, _thread: PhantomData }
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        // `try_with`: a guard dropped while the thread's locals are torn
        // down has nothing left to restore, and `Drop` must not panic.
        let _ = LOCAL.try_with(|l| l.borrow_mut().bound = prev);
    }
}

/// Composes a one-label metric key: `name{key=value}`.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}={value}}}")
}

/// Adds `delta` to counter `name` (creating it at 0).
pub fn counter_add(name: &str, delta: u64) {
    with_registry(|r| upsert(&mut r.counters, name, || 0, |v| *v += delta));
}

/// Increments counter `name` by one.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Adds `delta` to the labeled counter `name{key=value}`.
pub fn counter_add_labeled(name: &str, key: &str, value: &str, delta: u64) {
    counter_add(&labeled(name, key, value), delta);
}

/// The current value of counter `name` (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    with_registry(|r| r.counters.get(name).copied().unwrap_or(0))
}

/// Sets gauge `name` to `value`.
pub fn gauge_set(name: &str, value: f64) {
    with_registry(|r| upsert(&mut r.gauges, name, || value, |v| *v = value));
}

/// Adds `delta` to gauge `name` (creating it at 0) — for accumulating
/// fractional quantities like modelled HLS minutes.
pub fn gauge_add(name: &str, delta: f64) {
    with_registry(|r| upsert(&mut r.gauges, name, || 0.0, |v| *v += delta));
}

/// The current value of gauge `name`, if set.
pub fn gauge_value(name: &str) -> Option<f64> {
    with_registry(|r| r.gauges.get(name).copied())
}

/// Records `us` into histogram `name` (created over [`DEFAULT_US_EDGES`]).
pub fn observe_us(name: &str, us: u64) {
    with_registry(|r| upsert(&mut r.histograms, name, Histogram::default_us, |h| h.record(us)));
}

/// Records `us` into histogram `name`, creating it over `edges` if new.
pub fn observe_with_edges(name: &str, edges: &[u64], us: u64) {
    with_registry(|r| upsert(&mut r.histograms, name, || Histogram::new(edges), |h| h.record(us)));
}

/// A deterministic (sorted) copy of the registry this thread records into.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| r.snapshot())
}

/// Replaces the registry this thread records into with `snap` — the resume
/// half of checkpointed accounting.
pub fn restore(snap: &MetricsSnapshot) {
    with_registry(|r| {
        r.counters = snap.counters.iter().cloned().collect();
        r.gauges = snap.gauges.iter().cloned().collect();
        r.histograms = snap
            .histograms
            .iter()
            .map(|h| (h.name.clone(), Histogram::from_snapshot(h)))
            .collect();
    });
}

/// Adds `snap` **into** the registry this thread records into (unlike
/// [`restore`], which replaces it): counters and histogram buckets sum, and
/// gauges sum too — the workspace's gauges are accumulators (modelled HLS
/// minutes, queue depths), so additive merge is the meaningful combination
/// when folding worker-thread registries back into the main thread after a
/// parallel section. Histograms with mismatched bucket edges are skipped
/// (debug builds assert; every metric name uses one fixed edge set).
pub fn merge(snap: &MetricsSnapshot) {
    with_registry(|r| {
        for (name, v) in &snap.counters {
            upsert(&mut r.counters, name, || 0, |c| *c += v);
        }
        for (name, v) in &snap.gauges {
            upsert(&mut r.gauges, name, || 0.0, |g| *g += v);
        }
        for h in &snap.histograms {
            upsert(&mut r.histograms, &h.name, || Histogram::new(&h.edges), |m| m.add_snapshot(h));
        }
    });
}

/// Clears the registry this thread records into.
pub fn reset() {
    with_registry(|r| *r = Registry::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        // At the edge -> that bucket; one past -> the next.
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(10), 0);
        assert_eq!(h.bucket_index(11), 1);
        assert_eq!(h.bucket_index(100), 1);
        assert_eq!(h.bucket_index(101), 2);
        assert_eq!(h.bucket_index(1000), 2);
        assert_eq!(h.bucket_index(1001), 3, "past the last edge -> overflow");
        assert_eq!(h.bucket_index(u64::MAX), 3);

        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX / 2] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn histogram_mean_is_exact_not_bucketed() {
        let mut h = Histogram::new(&[1_000]);
        h.record(1);
        h.record(5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.sum(), 6);
        assert_eq!(Histogram::new(&[10]).mean(), 0.0, "empty histogram mean is 0");
    }

    #[test]
    fn counters_gauges_and_labels_accumulate() {
        reset();
        counter_inc("a.b");
        counter_add("a.b", 4);
        counter_add_labeled("faults", "kind", "crash", 2);
        gauge_set("loss", 0.5);
        gauge_add("minutes", 1.25);
        gauge_add("minutes", 0.25);
        assert_eq!(counter_value("a.b"), 5);
        assert_eq!(counter_value("faults{kind=crash}"), 2);
        assert_eq!(counter_value("never"), 0);
        assert_eq!(gauge_value("loss"), Some(0.5));
        assert_eq!(gauge_value("minutes"), Some(1.5));
    }

    #[test]
    fn snapshot_restore_round_trips_through_json() {
        reset();
        counter_add("x", 7);
        gauge_set("g", 2.5);
        observe_us("h_us", 42);
        observe_us("h_us", 5_000_000);
        let snap = snapshot();

        // Serialize / deserialize must preserve everything.
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        // restore() must reproduce the registry exactly.
        reset();
        assert_eq!(counter_value("x"), 0);
        restore(&back);
        assert_eq!(counter_value("x"), 7);
        assert_eq!(gauge_value("g"), Some(2.5));
        let h = snapshot().histogram("h_us").unwrap().clone();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5_000_042);
        // And keep accumulating on top of the restored state.
        observe_us("h_us", 1);
        assert_eq!(snapshot().histogram("h_us").unwrap().count, 3);
    }

    #[test]
    fn merge_is_additive_where_restore_replaces() {
        reset();
        counter_add("work", 3);
        gauge_add("minutes", 1.5);
        observe_us("lat_us", 20);
        let snap = snapshot();

        counter_add("work", 2);
        counter_add("other", 1);
        merge(&snap);
        assert_eq!(counter_value("work"), 8, "3 existing + 2 local + 3 merged");
        assert_eq!(counter_value("other"), 1, "untouched by the merge");
        assert_eq!(gauge_value("minutes"), Some(3.0), "gauges merge additively");
        let h = snapshot().histogram("lat_us").unwrap().clone();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 40);

        // Merging into an empty registry equals restoring it.
        reset();
        merge(&snap);
        assert_eq!(snapshot(), snap);
        reset();
    }

    #[test]
    fn merging_worker_snapshots_matches_a_single_registry() {
        // The pool's invariant: splitting work across thread-local
        // registries and merging them back equals recording serially.
        reset();
        for i in 0..10u64 {
            counter_inc("task");
            observe_us("us", i * 100);
        }
        let serial = snapshot();

        reset();
        let parts: Vec<MetricsSnapshot> = (0..2)
            .map(|w| {
                std::thread::scope(|s| {
                    s.spawn(move || {
                        for i in (w as u64..10).step_by(2) {
                            counter_inc("task");
                            observe_us("us", i * 100);
                        }
                        snapshot()
                    })
                    .join()
                    .unwrap()
                })
            })
            .collect();
        for p in &parts {
            merge(p);
        }
        assert_eq!(snapshot(), serial);
        reset();
    }

    #[test]
    fn quantiles_interpolate_within_buckets_and_clamp_overflow() {
        let mut h = Histogram::new(&[100, 200, 1_000]);
        // 10 observations in (0, 100], 10 in (100, 200].
        for _ in 0..10 {
            h.record(50);
            h.record(150);
        }
        let s = h.snapshot("q");
        // p50 sits exactly at the boundary of the first bucket.
        assert_eq!(s.quantile(0.50), 100.0);
        // p25: halfway through the first bucket (5th of 10 obs in (0,100]).
        assert_eq!(s.quantile(0.25), 50.0);
        // p75: halfway through the second bucket.
        assert_eq!(s.quantile(0.75), 150.0);
        // p100 = upper edge of the last occupied bucket.
        assert_eq!(s.quantile(1.0), 200.0);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(s.quantile(-1.0), s.quantile(0.0));
        assert_eq!(s.quantile(2.0), s.quantile(1.0));

        // Overflow observations clamp to the last edge.
        let mut h = Histogram::new(&[100]);
        h.record(999_999);
        assert_eq!(h.snapshot("o").quantile(0.99), 100.0);

        // Empty histogram reports 0.
        assert_eq!(Histogram::default_us().snapshot("e").quantile(0.5), 0.0);
    }

    #[test]
    fn shared_metrics_are_visible_across_threads_while_running() {
        reset();
        let shared = Arc::new(SharedMetrics::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let _bound = bind(&shared);
                    for i in 0..25 {
                        counter_inc("hits");
                        observe_us("lat_us", t * 100 + i);
                    }
                    gauge_set(&labeled("depth", "worker", &t.to_string()), t as f64);
                });
            }
        });
        // Readable without any park/merge handshake.
        let snap = shared.snapshot();
        assert_eq!(snap.counter("hits"), Some(100));
        assert_eq!(snap.gauge("depth{worker=3}"), Some(3.0));
        assert_eq!(snap.histogram("lat_us").unwrap().count, 100);
        assert_eq!(counter_value("hits"), 0, "the unbound test thread saw none of it");

        // Folding the shared registry into the thread-local one unifies
        // shutdown reporting.
        counter_add("hits", 1);
        merge(&snap);
        assert_eq!(counter_value("hits"), 101);
        reset();
    }

    #[test]
    fn bind_guards_nest_and_restore_the_previous_binding() {
        reset();
        let (a, b) = (Arc::new(SharedMetrics::new()), Arc::new(SharedMetrics::new()));
        counter_inc("own");
        {
            let _a = bind(&a);
            counter_inc("x");
            {
                let _b = bind(&b);
                counter_add("x", 10);
                assert_eq!(counter_value("x"), 10, "reads follow the binding too");
            }
            counter_inc("x");
            assert_eq!(snapshot().counter("own"), None);
        }
        counter_inc("own");
        assert_eq!(a.snapshot().counter("x"), Some(2));
        assert_eq!(b.snapshot().counter("x"), Some(10));
        assert_eq!(counter_value("own"), 2, "unbound again after the guards dropped");
        assert_eq!(counter_value("x"), 0);
        reset();
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        reset();
        counter_inc("zebra");
        counter_inc("alpha");
        counter_inc("mid");
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zebra"]);
        assert_eq!(serde_json::to_string(&snapshot()), serde_json::to_string(&snapshot()));
    }
}
