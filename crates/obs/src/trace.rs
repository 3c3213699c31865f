//! Structured tracing: spans, contexts, per-thread buffering.
//!
//! Design notes:
//!
//! * A span is opened with [`span`] (parent inferred from the calling
//!   thread's span stack) or [`span_child_of`] (explicit parent, used on
//!   the worker side of an RPC and in fan-out threads). Dropping the
//!   returned [`SpanGuard`] records the span.
//! * Finished spans go to a thread-local buffer; the buffer drains into
//!   the global collector only when the thread's span stack unwinds to
//!   empty (or the buffer exceeds a high-water mark), so nested spans
//!   on the hot path never contend on the collector lock.
//! * Ids are drawn from one process-global atomic counter: cheap,
//!   collision-free, and deterministic enough for tests. `0` is the
//!   reserved "none" id.
//! * Disabled tracing (the default) short-circuits before any clock
//!   read, thread-local access, or allocation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

/// Flush the thread-local buffer once it holds this many spans even if
/// the stack has not unwound (guards against unbounded growth under a
/// long-lived root span).
const BUFFER_HIGH_WATER: usize = 256;

/// Hard cap on retained spans so long runs with tracing enabled cannot
/// grow memory without bound; oldest spans are dropped first.
const COLLECTOR_CAP: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

static COLLECTOR: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Stack of active span contexts (innermost last). Propagated
    /// foreign contexts are pushed here too, so `current()` sees them.
    static STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
    /// Finished spans awaiting a flush to the global collector.
    static BUFFER: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether tracing is currently enabled. A single relaxed-ish atomic
/// load — instrumented code gates all allocation/formatting on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A (trace id, span id) pair identifying a position in a trace.
/// `trace_id == 0` means "no context"; such contexts propagate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
}

impl TraceContext {
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    #[inline]
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// Coarse classification of what a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Coordinator-side RPC (send + wait + decode) to one worker.
    Rpc,
    /// Worker-side handling of one request batch.
    Worker,
    /// One executed instruction on a worker.
    Instruction,
    /// Parameter-server round or sub-phase.
    ParamServ,
    /// Session / API-level operation.
    Session,
    /// Supervision/recovery operation: checkpoint sweeps and state
    /// restoration onto replacement workers.
    Recovery,
    /// Anything else.
    Other,
}

impl SpanKind {
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Rpc => "rpc",
            SpanKind::Worker => "worker",
            SpanKind::Instruction => "instruction",
            SpanKind::ParamServ => "paramserv",
            SpanKind::Session => "session",
            SpanKind::Recovery => "recovery",
            SpanKind::Other => "other",
        }
    }
}

/// An attribute value. Numeric variants never allocate; `Str` is for
/// values only known at runtime (callers should gate building the
/// `String` on [`SpanGuard::is_active`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Static(&'static str),
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Static(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Static(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub span_id: u64,
    /// `0` for roots.
    pub parent_id: u64,
    pub kind: SpanKind,
    pub name: &'static str,
    /// Wall-clock start, nanoseconds since the unix epoch.
    pub start_unix_nanos: u64,
    pub duration_nanos: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

struct ActiveSpan {
    rec: SpanRecord,
    started: Instant,
}

/// RAII guard for an open span; records the span on drop. Inactive
/// guards (tracing disabled) are zero-cost.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    const INACTIVE: SpanGuard = SpanGuard { active: None };

    /// Whether this guard will record a span. Gate any allocating
    /// attribute construction (e.g. `format!`) on this.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The context of this span, for propagation to children (possibly
    /// across threads or the wire). [`TraceContext::NONE`] if inactive.
    pub fn context(&self) -> TraceContext {
        match &self.active {
            Some(a) => TraceContext {
                trace_id: a.rec.trace_id,
                span_id: a.rec.span_id,
            },
            None => TraceContext::NONE,
        }
    }

    /// Attaches a key/value attribute. No-op when inactive; numeric
    /// values do not allocate beyond the attrs vector itself.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(a) = &mut self.active {
            a.rec.attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut active) = self.active.take() else {
            return;
        };
        active.rec.duration_nanos = active.started.elapsed().as_nanos() as u64;
        // Sibling spans of one thread may overlap and close in opening
        // order (the legs of a scattered op): each removes its own entry.
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(i) = s.iter().rposition(|c| c.span_id == active.rec.span_id) {
                s.remove(i);
            }
            s.len()
        });
        BUFFER.with(|b| {
            let mut b = b.borrow_mut();
            b.push(active.rec);
            if depth == 0 || b.len() >= BUFFER_HIGH_WATER {
                flush_buffer(&mut b);
            }
        });
    }
}

fn flush_buffer(buffer: &mut Vec<SpanRecord>) {
    if buffer.is_empty() {
        return;
    }
    // Tee into the flight recorder's ring before taking the collector
    // lock (the two locks are never held together). Amortized over a
    // whole buffer, so the per-span happy path stays lock-free.
    if crate::recorder::enabled() {
        crate::recorder::observe_spans(buffer);
    }
    let mut collector = COLLECTOR.lock();
    if collector.len() + buffer.len() > COLLECTOR_CAP {
        let overflow = (collector.len() + buffer.len())
            .saturating_sub(COLLECTOR_CAP)
            .min(collector.len());
        collector.drain(..overflow);
    }
    collector.append(buffer);
}

fn unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn open(kind: SpanKind, name: &'static str, parent: TraceContext) -> SpanGuard {
    let (trace_id, parent_id) = if parent.is_none() {
        (fresh_id(), 0)
    } else {
        (parent.trace_id, parent.span_id)
    };
    let span_id = fresh_id();
    STACK.with(|s| s.borrow_mut().push(TraceContext { trace_id, span_id }));
    SpanGuard {
        active: Some(ActiveSpan {
            rec: SpanRecord {
                trace_id,
                span_id,
                parent_id,
                kind,
                name,
                start_unix_nanos: unix_nanos(),
                duration_nanos: 0,
                attrs: Vec::new(),
            },
            started: Instant::now(),
        }),
    }
}

/// Opens a span whose parent is the calling thread's innermost active
/// context (a fresh root if there is none). Returns an inactive,
/// zero-cost guard when tracing is disabled.
#[inline]
pub fn span(kind: SpanKind, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::INACTIVE;
    }
    open(kind, name, current())
}

/// Opens a span under an explicit parent context — the worker side of a
/// propagated RPC context, or a fan-out thread inheriting its spawner's
/// context. A `NONE` parent starts a fresh trace.
#[inline]
pub fn span_child_of(kind: SpanKind, name: &'static str, parent: TraceContext) -> SpanGuard {
    if !enabled() {
        return SpanGuard::INACTIVE;
    }
    open(kind, name, parent)
}

/// The calling thread's innermost active context ([`TraceContext::NONE`]
/// outside any span).
pub fn current() -> TraceContext {
    if !enabled() {
        return TraceContext::NONE;
    }
    STACK.with(|s| s.borrow().last().copied().unwrap_or(TraceContext::NONE))
}

/// RAII guard that makes `parent` the calling thread's current context
/// without opening a span — used to carry a context into spawned
/// threads so their spans parent correctly.
pub struct PropagationGuard {
    pushed: bool,
}

/// Pushes `parent` onto the calling thread's context stack until the
/// returned guard drops. No-op when tracing is disabled or the context
/// is `NONE`.
pub fn propagate(parent: TraceContext) -> PropagationGuard {
    if !enabled() || parent.is_none() {
        return PropagationGuard { pushed: false };
    }
    STACK.with(|s| s.borrow_mut().push(parent));
    PropagationGuard { pushed: true }
}

impl Drop for PropagationGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            s.len()
        });
        if depth == 0 {
            BUFFER.with(|b| flush_buffer(&mut b.borrow_mut()));
        }
    }
}

/// Drains all collected spans (flushing the calling thread's buffer
/// first). Spans buffered on *other* threads that are still inside a
/// root span are not included until those threads unwind.
pub fn take_spans() -> Vec<SpanRecord> {
    BUFFER.with(|b| flush_buffer(&mut b.borrow_mut()));
    std::mem::take(&mut *COLLECTOR.lock())
}

/// Copies all collected spans (flushing the calling thread's buffer
/// first) without draining the collector — unlike [`take_spans`], other
/// concurrent sessions keep their spans. Spans buffered on *other*
/// threads still inside a root span are not included.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    BUFFER.with(|b| flush_buffer(&mut b.borrow_mut()));
    COLLECTOR.lock().clone()
}

/// Number of spans currently collected (including the calling thread's
/// unflushed buffer) without draining them.
pub fn collected_count() -> usize {
    let buffered = BUFFER.with(|b| b.borrow().len());
    buffered + COLLECTOR.lock().len()
}

/// Discards all collected spans and the calling thread's buffer.
pub fn clear() {
    BUFFER.with(|b| b.borrow_mut().clear());
    COLLECTOR.lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in this module share the process-global enabled flag and
    // collector, so they serialize on one mutex.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inactive_and_record_nothing() {
        let _g = GATE.lock();
        set_enabled(false);
        clear();
        let mut s = span(SpanKind::Rpc, "x");
        assert!(!s.is_active());
        assert_eq!(s.context(), TraceContext::NONE);
        s.attr("k", 1u64);
        drop(s);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn nesting_assigns_parents_and_shares_trace_id() {
        let _g = GATE.lock();
        set_enabled(true);
        clear();
        let root_ctx;
        let child_ctx;
        {
            let root = span(SpanKind::Session, "root");
            root_ctx = root.context();
            {
                let child = span(SpanKind::Rpc, "child");
                child_ctx = child.context();
            }
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root_ctx.span_id, root.span_id);
        assert_eq!(child_ctx.span_id, child.span_id);
    }

    #[test]
    fn explicit_parent_and_propagation_cross_threads() {
        let _g = GATE.lock();
        set_enabled(true);
        clear();
        let parent = {
            let root = span(SpanKind::Session, "root");
            let ctx = root.context();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _p = propagate(ctx);
                    let mut s = span(SpanKind::Worker, "remote");
                    s.attr("worker", 3u64);
                });
            });
            ctx
        };
        set_enabled(false);
        let spans = take_spans();
        let remote = spans.iter().find(|s| s.name == "remote").unwrap();
        assert_eq!(remote.trace_id, parent.trace_id);
        assert_eq!(remote.parent_id, parent.span_id);
    }

    #[test]
    fn buffer_flushes_at_high_water_under_long_root() {
        let _g = GATE.lock();
        set_enabled(true);
        clear();
        let _root = span(SpanKind::Session, "long-root");
        for _ in 0..BUFFER_HIGH_WATER {
            let _s = span(SpanKind::Instruction, "leaf");
        }
        // Root still open, but the buffer crossed the high-water mark.
        assert!(COLLECTOR.lock().len() >= BUFFER_HIGH_WATER);
        drop(_root);
        set_enabled(false);
        clear();
    }
}
