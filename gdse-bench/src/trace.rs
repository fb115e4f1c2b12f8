//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the trace (one DSE sweep, one training step, one request) it belongs
//! to. Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends. A span's *self time* is its duration minus the
//! part of it that its children cover; per-layer metrics are sums of self
//! times by span name.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: u64,
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-boundary name, e.g. `forward_cls`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the thread that nests with [`Tracer::span`].
    stack: Vec<(u64, u64)>,
    next_id: u64,
    next_trace: u64,
}

/// Collects spans. [`Tracer::span`] nests by call depth and is meant for
/// one thread; [`Tracer::record`] takes explicit times and may be called
/// from any thread.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics while holding the tracer lock")
    }

    /// Opens a span named `name`, child of the innermost open span (with
    /// none open, the span starts a new trace); it ends when the guard
    /// drops.
    pub fn enter(&self, name: &str) -> Entered<'_> {
        let mut s = self.lock();
        let id = s.next_id;
        s.next_id += 1;
        let (trace, parent) = match s.stack.last() {
            Some(&(pid, trace)) => (trace, Some(pid)),
            None => {
                s.next_trace += 1;
                (s.next_trace, None)
            }
        };
        s.stack.push((id, trace));
        Entered {
            tracer: self,
            id,
            trace,
            parent,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span named `name` (see [`Tracer::enter`]).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.enter(name);
        f()
    }

    /// The id of the trace started last.
    pub fn last_trace(&self) -> u64 {
        self.lock().next_trace
    }

    /// A fresh trace id for spans recorded with [`Tracer::record`].
    pub fn new_trace(&self) -> u64 {
        let mut s = self.lock();
        s.next_trace += 1;
        s.next_trace
    }

    /// Records a finished span with explicit times; returns its id.
    pub fn record(
        &self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut s = self.lock();
        let id = s.next_id;
        s.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        s.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes the spans as JSON lines, each with its self time.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.trace,
                s.id,
                parent,
                serde_json::to_string(&s.name).expect("strings serialize"),
                s.start_ns,
                s.end_ns,
                self_ns
            )?;
        }
        w.flush()
    }
}

/// An open span; records it when dropped.
pub struct Entered<'a> {
    tracer: &'a Tracer,
    id: u64,
    trace: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let t = self.tracer;
        let (start_ns, end_ns) = (t.ns(self.start), t.ns(end));
        // A poisoned lock means another span recorder panicked; losing
        // this span then is harmless, and Drop must not panic.
        if let Ok(mut s) = t.state.lock() {
            s.stack.pop();
            let name = std::mem::take(&mut self.name);
            let (trace, id, parent) = (self.trace, self.id, self.parent);
            s.spans.push(Span {
                trace,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Runs `f` in a span when tracing, bare otherwise.
pub fn span<R>(t: Option<&Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time of each span (same order as `spans`): its duration minus the
/// union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in iv {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time by span name, in nanoseconds.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mk = |id, parent, a, b| Span {
            trace: 1,
            id,
            parent,
            name: format!("s{id}"),
            start_ns: a,
            end_ns: b,
        };
        // Parent 0..100 with overlapping children 10..40 and 30..50.
        let spans = vec![
            mk(1, Some(0), 10, 40),
            mk(2, Some(0), 30, 50),
            mk(0, None, 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 60]);
    }

    #[test]
    fn nested_spans_share_a_trace() {
        let t = Tracer::default();
        t.span("outer", || t.span("inner", || ()));
        t.span("next", || ());
        let spans = t.spans();
        let (inner, outer, next) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace, outer.trace);
        assert_ne!(next.trace, outer.trace);
        assert_eq!(next.parent, None);
    }
}
