//! Metrics as a fold over closing spans.
//!
//! Instrumented code records a fact once, as an attribute of its span.
//! When an active span closes, its guard folds it into the global
//! registry through [`FOLDS`], one row per series. `EXPLAIN ANALYZE`
//! folds a finished trace's spans through the same rows into a registry
//! of its own, so it, incident bundles (which read spans) and `RunReport`
//! and `/metrics` (which read the registry) cannot disagree. Nothing else
//! writes these series; METRICS.md lists them with the directly written
//! ones.
//!
//! A row reads the spans of one name; `{op}` stands for every instruction
//! span, which is named by its opcode. A span folds through a row only if
//! it carries the row's completion attribute, which sites set on success
//! only. In a series template, `{op}` is the span's name and any other
//! `{attr}` the value of that attribute.

use crate::metrics::Registry;
use crate::trace::{SpanKind, SpanRecord};

/// How a row turns a span into a sample of its series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// Counter, plus one per span.
    Count,
    /// Counter, plus the attribute's value.
    Sum,
    /// Histogram, one sample of the attribute's value.
    Sample,
}

/// One series folded from spans.
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    /// The span name, or `{op}` for any instruction span.
    pub span: &'static str,
    /// The completion attribute: spans without it fold nothing.
    pub done: &'static str,
    pub series: &'static str,
    pub how: How,
    /// The attribute read: the value of a `Sum` or `Sample`, the presence
    /// a `Count` needs (the completion attribute unless named).
    pub attr: &'static str,
}

macro_rules! folds {
    ($($span:literal if $done:literal {
        $($series:literal => $how:ident $($attr:literal)?),+ $(,)?
    })+) => {
        /// Every folded series (see the module docs).
        pub const FOLDS: &[Fold] = &[$($(Fold {
            span: $span,
            done: $done,
            series: $series,
            how: How::$how,
            attr: folds!(@attr $done $($attr)?),
        },)+)+];
    };
    (@attr $done:literal) => { $done };
    (@attr $done:literal $attr:literal) => { $attr };
}

folds! {
    "rpc.call" if "bytes_recv" {
        "rpc.calls" => Count,
        "rpc.requests" => Sum "requests",
        "rpc.retries" => Sum "retries",
        "rpc.latency" => Sample "net_nanos",
        "rpc.gate_wait" => Sample "gate_wait_nanos",
        "worker.{worker}.rpcs" => Count,
        "worker.{worker}.requests" => Sum "requests",
        "worker.{worker}.bytes_sent" => Sum "bytes_sent",
        "worker.{worker}.bytes_recv" => Sum "bytes_recv",
        "worker.{worker}.net_nanos" => Sum "net_nanos",
        "worker.{worker}.exec_nanos" => Sum "exec_nanos",
        "worker.{worker}.serde_nanos" => Sum "serde_nanos",
        "worker.{worker}.retries" => Sum "retries",
    }
    "rpc.heartbeat" if "worker" {
        "rpc.heartbeats" => Count,
    }
    "{op}" if "own_nanos" {
        "inst.{op}" => Sample "own_nanos",
    }
    "{op}" if "c.own_nanos" {
        "inst.c.{op}" => Sample "c.own_nanos",
        "compress.exec.direct" => Count,
    }
    "{op}" if "par.regions" {
        "par.inst.{op}.calls" => Count,
        "par.inst.{op}.regions" => Sum "par.regions",
        "par.inst.{op}.chunks" => Sum "par.chunks",
        "par.inst.{op}.threads" => Sum "par.threads_engaged",
    }
    "recovery.checkpoint" if "seq" {
        "checkpoint.deltas" => Count,
        "checkpoint.full_snapshots" => Count "full",
        "checkpoint.entries" => Sum "entries",
        "checkpoint.bytes" => Sum "bytes",
        "checkpoint.delta_bytes" => Sample "bytes",
        "checkpoint.age_nanos" => Sample "age_nanos",
    }
    "recovery.restore" if "entries" {
        "recovery.restores" => Count,
        "recovery.restored_entries" => Sum "entries",
        "recovery.restored_bytes" => Sum "bytes",
        "recovery.checkpoint_age_nanos" => Sample "age_nanos",
    }
    "recovery.replay" if "worker" {
        "recovery.replays" => Count,
    }
}

/// Folds one span into `reg`: the global registry as the span closes, or
/// EXPLAIN ANALYZE's own registry for each span of a finished trace.
pub(crate) fn span_closed(reg: &Registry, rec: &SpanRecord) {
    let mut name = String::new();
    for row in FOLDS {
        let op = row.span == "{op}" && rec.kind == SpanKind::Instruction;
        if !(op || row.span == rec.name) || rec.attr(row.done).is_none() {
            continue;
        }
        let value = match row.how {
            How::Count => rec.attr(row.attr).map(|_| 1),
            How::Sum | How::Sample => rec.attr_u64(row.attr),
        };
        name.clear();
        let (Some(value), Some(())) = (value, expand(row.series, rec, &mut name)) else {
            continue;
        };
        match row.how {
            How::Count | How::Sum => reg.add(&name, value),
            How::Sample => reg.record(&name, value),
        }
    }
}

/// Writes `template` with its placeholders filled from `rec` into `out`;
/// `None` if `rec` lacks one of them.
fn expand(template: &str, rec: &SpanRecord, out: &mut String) -> Option<()> {
    // Split on the braces, the odd pieces are the placeholders.
    for (i, piece) in template.split(['{', '}']).enumerate() {
        match (i % 2, piece) {
            (0, literal) => out.push_str(literal),
            (_, "op") => out.push_str(rec.name),
            (_, key) => out.push_str(&rec.attr(key)?.to_string()),
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AttrValue;

    fn rec(kind: SpanKind, name: &'static str, attrs: &[(&'static str, u64)]) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent_id: 0,
            kind,
            name,
            start_unix_nanos: 0,
            duration_nanos: 0,
            attrs: attrs.iter().map(|&(k, v)| (k, AttrValue::U64(v))).collect(),
        }
    }

    #[test]
    fn templates_take_the_span_name_and_attributes() {
        let r = rec(SpanKind::Rpc, "ba+*", &[("worker", 3)]);
        let mut out = String::new();
        assert!(expand("worker.{worker}.x.{op}", &r, &mut out).is_some());
        assert_eq!(out, "worker.3.x.ba+*");
        out.clear();
        assert!(expand("tenant.{ns}.x", &r, &mut out).is_none());
    }

    #[test]
    fn a_span_folds_only_once_complete() {
        let reg = Registry::new();
        let begun = [("worker", 1), ("requests", 3)];
        span_closed(&reg, &rec(SpanKind::Rpc, "rpc.call", &begun));
        assert!(
            reg.snapshot().counters.is_empty(),
            "a failed call folds nothing"
        );
        let done = [begun[0], begun[1], ("bytes_recv", 40), ("net_nanos", 9)];
        span_closed(&reg, &rec(SpanKind::Rpc, "rpc.call", &done));
        span_closed(&reg, &rec(SpanKind::Other, "mmchain", &[("own_nanos", 5)]));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rpc.calls"), 1);
        assert_eq!(snap.counter("worker.1.requests"), 3);
        assert_eq!(snap.counter("worker.1.bytes_recv"), 40);
        assert_eq!(snap.histograms["rpc.latency"].sum, 9);
        assert!(
            !snap.histograms.contains_key("inst.mmchain"),
            "only instruction spans fold as {{op}}"
        );
        assert!(
            !snap.counters.contains_key("rpc.retries"),
            "no attribute, no sample"
        );
    }

    #[test]
    fn every_row_folds_a_distinct_series() {
        let mut seen = std::collections::BTreeSet::new();
        for row in FOLDS {
            assert!(seen.insert(row.series), "{} folded twice", row.series);
        }
    }
}
