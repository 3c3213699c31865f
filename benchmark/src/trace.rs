//! The benchmark-owned tracer: spans recorded in memory around the calls
//! the benchmark makes into each layer, written out when the run ends.
//!
//! A span is `(name, start, end, parent, pass)`. A layer's *self time* is
//! its span's duration minus the part of that interval its children
//! cover (their interval union, so children running on two driver
//! threads are not counted twice). Nothing here touches `exdra-obs`:
//! spans inside the program are a later change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer's span list.
    pub parent: Option<usize>,
    /// The pass this span belongs to (spans of one pass share it).
    pub pass: u32,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span collector. Disabled, [`Tracer::span`] costs one relaxed
/// atomic load and records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            pass: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The innermost open span of the calling thread, to hand to a thread
    /// it spawns (see [`Tracer::span_under`]).
    pub fn current(&self) -> Option<usize> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, child of the calling thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let parent = self.current();
        self.span_under(parent, name, f)
    }

    /// Runs `f` inside a span with an explicit parent: the way a driver
    /// thread attaches its work to the pass span opened by the main thread.
    pub fn span_under<R>(&self, parent: Option<usize>, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                pass: self.pass.load(Ordering::Relaxed),
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(id));
        // Close the span even if `f` panics, so the stack stays balanced.
        struct Close<'a>(&'a Tracer, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                STACK.with(|s| s.borrow_mut().pop());
                let end = self.0.now_ns();
                if let Ok(mut spans) = self.0.spans.lock() {
                    spans[self.1].end_ns = end;
                }
            }
        }
        let _close = Close(self, id);
        f()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// The span list as JSON (the `trace.<workload>.json` artifact).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj(vec![
                        ("id", Json::Num(i as f64)),
                        ("name", Json::str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("pass", Json::Num(f64::from(s.pass))),
                    ])
                })
                .collect(),
        )
    }
}

/// Total length covered by a set of `[start, end)` intervals, clipped to
/// `[lo, hi)`; overlapping intervals count once.
pub fn interval_union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the interval union of its
/// direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur - interval_union_ns(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Self time per span name, summed over all spans, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(interval_union_ns(&mut [(0, 10), (5, 15)], 0, 100), 15);
        assert_eq!(interval_union_ns(&mut [(20, 30), (0, 10)], 0, 100), 20);
        assert_eq!(interval_union_ns(&mut [(0, 50)], 10, 20), 10);
        assert_eq!(interval_union_ns(&mut [(3, 3)], 0, 10), 0);
        assert_eq!(interval_union_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A pass of 100 with two overlapping children on two threads
        // (10..60 and 40..90) and a grandchild inside the first.
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 90, Some(0)),
            span("a.inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 50, 10]);
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["pass"], 20e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let t = Tracer::new();
        assert_eq!(t.span("off", || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.set_pass(3);
        t.span("outer", || {
            t.span("inner", || ());
            let parent = t.current();
            std::thread::scope(|s| {
                s.spawn(|| t.span_under(parent, "worker", || ()));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert_eq!(Json::parse(&t.to_json().render()).unwrap(), t.to_json());
    }
}
