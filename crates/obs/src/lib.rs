//! Observability layer for the ExDRa runtime.
//!
//! Two facilities, both process-global and thread-safe:
//!
//! * **Tracing** ([`trace`]): structured spans with ids, parent ids, a
//!   [`SpanKind`], wall-clock duration, and key/value attributes. Spans
//!   are recorded into a per-thread buffer and flushed into a global
//!   collector when the thread's span stack unwinds to its root (or the
//!   buffer grows large), so the hot path never takes the collector
//!   lock per span. When tracing is disabled — the default — the facade
//!   is a true no-op: no clock reads, no allocation (verified by
//!   `tests/noop_alloc.rs`).
//! * **Metrics** ([`metrics`]): a registry of named monotonic counters
//!   and log-scale latency histograms with p50/p95/p99 summaries,
//!   exportable as Prometheus-style text and JSON ([`export`]). Closing
//!   spans fold into it ([`fold`]).
//!
//! On top of those sit the operations plane:
//!
//! * **Flight recorder** ([`recorder`]): a bounded ring of recent spans
//!   and events that dumps a JSON incident bundle when an anomaly
//!   fires (worker death, session rejection, deadline miss, ...).
//! * **EXPLAIN ANALYZE** ([`analyze()`]): one computation's span forest
//!   folded through [`fold`] into a registry of its own, whose
//!   [`RunReport`] is the [`Analysis`]'s profile, plus the wall time, its
//!   attribution and the critical path that only the span tree knows.
//! * **HTTP endpoint** ([`http`]): the responder behind the workers'
//!   and the coordinator daemon's `/healthz` + `/metrics` endpoints.
//! * **EXPLAIN reports** ([`explain`]): the unified [`Explain`] document
//!   the API layer fills with logical/optimized plan scripts, cost
//!   estimates ([`PlanEstimate`]), optimizer rule hits ([`RuleFire`]),
//!   and — once the plan ran — the measured [`Analysis`].
//!
//! [`report::RunReport`] assembles a registry into a human-readable
//! per-run breakdown (compute/network/serde split per worker, every
//! opcode's own time) and a JSON document: the sidecar the bench harness
//! writes next to its results, and EXPLAIN ANALYZE's profile.
//!
//! Trace contexts are plain `u64` pairs so the RPC layer can propagate
//! them over the wire without this crate knowing about the protocol.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod explain;
pub mod export;
pub mod fold;
pub mod http;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod trace;

pub use analyze::{analyze, Analysis, CriticalStep};
pub use explain::{Explain, PlanEstimate, RuleFire};
pub use metrics::{global, Counter, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use report::{InstrProfile, NetTotals, RecoverySummary, RunReport, WorkerBreakdown};
pub use trace::{
    clear, current, enabled, propagate, set_enabled, snapshot_spans, span, span_child_of,
    take_spans, AttrValue, PropagationGuard, SpanGuard, SpanKind, SpanRecord, TraceContext,
};

/// Resets all global observability state (spans, metrics, id counters).
/// Meant for tests and between bench phases; leaves enabled/disabled
/// state untouched. The flight recorder's rings are deliberately NOT
/// cleared — they are forensic history (see [`recorder::reset`]).
pub fn reset() {
    trace::clear();
    metrics::global().reset();
}
