//! EXPLAIN ANALYZE: critical-path analysis over a stitched span forest.
//!
//! Consumes the spans of one computation (one trace rooted at a session
//! span) and produces:
//!
//! * a **wall-time breakdown** — compute vs network vs serde vs queue
//!   vs recovery, drawn from the attributes the coordinator stamps on
//!   `rpc.call` spans and from `recovery.*` span durations;
//! * the **critical path** — the chain of spans from the root to the
//!   leaf that finished last, which is what actually bounded the run;
//! * **per-opcode and per-worker cost profiles** — mean/total nanos per
//!   executed instruction kind and per federated worker, the
//!   profile-guided-placement input the cost-based optimizer consumes.
//!
//! Attribution quality is reported explicitly: `attributed_nanos` is
//! the part of the root span's wall time covered by its direct
//! children (interval union), so a low ratio means untraced gaps.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::export::{json_escape_into, json_f64};
use crate::trace::{AttrValue, SpanKind, SpanRecord};

/// One hop on the critical path, root first.
#[derive(Debug, Clone)]
pub struct CriticalStep {
    /// Span name (`session.compute`, `rpc.call`, `worker.batch`, ...).
    pub name: &'static str,
    /// Span kind.
    pub kind: SpanKind,
    /// The `worker` attribute, when the span carries one.
    pub worker: Option<u64>,
    /// Span duration.
    pub duration_nanos: u64,
    /// Depth below the root (root = 0).
    pub depth: usize,
}

/// Aggregate cost of one instruction opcode across the computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpcodeCost {
    /// Executions observed.
    pub count: u64,
    /// Summed span duration.
    pub total_nanos: u64,
}

impl OpcodeCost {
    /// Mean execution time per instance.
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.count as f64
        }
    }
}

/// Aggregate cost attributed to one federated worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerCost {
    /// RPCs sent to this worker.
    pub calls: u64,
    /// Worker-side execution time (from batch footers).
    pub exec_nanos: u64,
    /// Coordinator-side network wait for this worker.
    pub net_nanos: u64,
}

/// The ANALYZE half of an explain report: the result of analyzing
/// one computation's span forest.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Root span wall time.
    pub wall_nanos: u64,
    /// Part of the root interval covered by its direct children.
    pub attributed_nanos: u64,
    /// Worker-side execution time summed over all RPCs.
    pub compute_nanos: u64,
    /// Coordinator-side network wait summed over all RPCs.
    pub network_nanos: u64,
    /// Envelope encode/decode time summed over all RPCs.
    pub serde_nanos: u64,
    /// Admission/credit wait (RPC gate) summed over all RPCs.
    pub queue_nanos: u64,
    /// Time inside recovery spans (checkpoint/restore/replay).
    pub recovery_nanos: u64,
    /// Root-to-latest-leaf chain that bounded the run.
    pub critical_path: Vec<CriticalStep>,
    /// Per-opcode execution cost (from worker instruction spans).
    pub per_opcode: BTreeMap<String, OpcodeCost>,
    /// Per-worker execution/network cost (from RPC span attributes).
    pub per_worker: BTreeMap<u64, WorkerCost>,
    /// Spans belonging to this computation's trace.
    pub span_count: usize,
}

impl Analysis {
    /// Fraction of root wall time covered by direct-child spans, in
    /// `[0, 1]`. The EXPLAIN ANALYZE quality bar is ≥ 0.95.
    pub fn attribution(&self) -> f64 {
        if self.wall_nanos == 0 {
            1.0
        } else {
            (self.attributed_nanos as f64 / self.wall_nanos as f64).min(1.0)
        }
    }

    /// The worker with the largest execution time, if any RPCs ran.
    pub fn dominant_worker(&self) -> Option<u64> {
        self.per_worker
            .iter()
            .max_by_key(|(_, c)| c.exec_nanos)
            .map(|(w, _)| *w)
    }

    /// The opcode with the largest total execution time, if any
    /// instruction spans were observed.
    pub fn dominant_opcode(&self) -> Option<&str> {
        self.per_opcode
            .iter()
            .max_by_key(|(_, c)| c.total_nanos)
            .map(|(name, _)| name.as_str())
    }

    /// Renders the full report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\"wall_nanos\":{},\"attributed_nanos\":{},\"attribution\":{},\
             \"compute_nanos\":{},\"network_nanos\":{},\"serde_nanos\":{},\
             \"queue_nanos\":{},\"recovery_nanos\":{},\"span_count\":{}",
            self.wall_nanos,
            self.attributed_nanos,
            json_f64(self.attribution()),
            self.compute_nanos,
            self.network_nanos,
            self.serde_nanos,
            self.queue_nanos,
            self.recovery_nanos,
            self.span_count
        );
        out.push_str(",\"critical_path\":[");
        for (i, step) in self.critical_path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":");
            json_escape_into(&mut out, step.name);
            let _ = write!(out, ",\"kind\":\"{}\"", step.kind.name());
            if let Some(w) = step.worker {
                let _ = write!(out, ",\"worker\":{w}");
            }
            let _ = write!(
                out,
                ",\"duration_nanos\":{},\"depth\":{}}}",
                step.duration_nanos, step.depth
            );
        }
        out.push_str("],\"per_opcode\":");
        out.push_str(&self.cost_profile_opcode_json());
        out.push_str(",\"per_worker\":");
        out.push_str(&self.cost_profile_worker_json());
        out.push('}');
        out
    }

    /// Renders the per-opcode/per-worker cost profile alone — the
    /// document persisted to `results/` as profile-guided-placement
    /// input.
    pub fn cost_profile_json(&self) -> String {
        format!(
            "{{\"per_opcode\":{},\"per_worker\":{}}}",
            self.cost_profile_opcode_json(),
            self.cost_profile_worker_json()
        )
    }

    fn cost_profile_opcode_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, c)) in self.per_opcode.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape_into(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"total_nanos\":{},\"mean_nanos\":{}}}",
                c.count,
                c.total_nanos,
                json_f64(c.mean_nanos())
            );
        }
        out.push('}');
        out
    }

    fn cost_profile_worker_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (w, c)) in self.per_worker.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{w}\":{{\"calls\":{},\"exec_nanos\":{},\"net_nanos\":{}}}",
                c.calls, c.exec_nanos, c.net_nanos
            );
        }
        out.push('}');
        out
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "EXPLAIN ANALYZE — {:.1} ms wall, {:.1}% attributed ({} spans)",
            ms(self.wall_nanos),
            100.0 * self.attribution(),
            self.span_count
        )?;
        writeln!(
            f,
            "  compute {:.1} ms ({:.0}%) | network {:.1} ms ({:.0}%) | serde {:.1} ms | queue {:.1} ms | recovery {:.1} ms",
            ms(self.compute_nanos),
            pct(self.compute_nanos, self.wall_nanos),
            ms(self.network_nanos),
            pct(self.network_nanos, self.wall_nanos),
            ms(self.serde_nanos),
            ms(self.queue_nanos),
            ms(self.recovery_nanos)
        )?;
        if let Some(w) = self.dominant_worker() {
            let c = self.per_worker[&w];
            write!(
                f,
                "  dominant worker: {w} ({:.1} ms exec, {} calls)",
                ms(c.exec_nanos),
                c.calls
            )?;
        }
        if let Some(op) = self.dominant_opcode() {
            let c = self.per_opcode[op];
            write!(
                f,
                "{}dominant opcode: {op} ({:.1} ms total, {} runs)",
                if self.per_worker.is_empty() {
                    "  "
                } else {
                    " | "
                },
                ms(c.total_nanos),
                c.count
            )?;
        }
        if self.dominant_worker().is_some() || self.dominant_opcode().is_some() {
            writeln!(f)?;
        }
        writeln!(f, "  critical path:")?;
        for step in &self.critical_path {
            write!(f, "  {:indent$}{}", "", step.name, indent = 2 * step.depth)?;
            if let Some(w) = step.worker {
                write!(f, " worker={w}")?;
            }
            writeln!(f, " ({:.2} ms)", ms(step.duration_nanos))?;
        }
        Ok(())
    }
}

fn attr_u64(rec: &SpanRecord, key: &str) -> Option<u64> {
    rec.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::U64(n) => Some(*n),
            AttrValue::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        })
}

fn end_nanos(rec: &SpanRecord) -> u64 {
    rec.start_unix_nanos.saturating_add(rec.duration_nanos)
}

/// Interval-union coverage of `[root_start, root_end]` by `children`.
fn covered_nanos(root: &SpanRecord, children: &[&SpanRecord]) -> u64 {
    let (lo, hi) = (root.start_unix_nanos, end_nanos(root));
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_unix_nanos.clamp(lo, hi), end_nanos(c).clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    ivs.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (a, b) in ivs {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Analyzes the spans of one computation. `spans` is a snapshot of the
/// collector (other traces are ignored); `root_span_id` identifies the
/// root session span. Returns `None` when the root is missing.
pub fn analyze(spans: &[SpanRecord], root_span_id: u64) -> Option<Analysis> {
    let root = spans.iter().find(|s| s.span_id == root_span_id)?;
    let trace_id = root.trace_id;
    // Children index over this trace only.
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.trace_id == trace_id) {
        children.entry(s.parent_id).or_default().push(s);
    }

    let mut ex = Analysis {
        wall_nanos: root.duration_nanos,
        ..Analysis::default()
    };

    // Walk the subtree under the root.
    let mut stack: Vec<&SpanRecord> = vec![root];
    while let Some(rec) = stack.pop() {
        ex.span_count += 1;
        if !std::ptr::eq(rec, root) {
            match rec.kind {
                SpanKind::Rpc => {
                    ex.compute_nanos += attr_u64(rec, "exec_nanos").unwrap_or(0);
                    ex.network_nanos += attr_u64(rec, "net_nanos").unwrap_or(0);
                    ex.serde_nanos += attr_u64(rec, "serde_nanos").unwrap_or(0);
                    ex.queue_nanos += attr_u64(rec, "gate_wait_nanos").unwrap_or(0);
                    if let Some(w) = attr_u64(rec, "worker") {
                        let c = ex.per_worker.entry(w).or_default();
                        c.calls += 1;
                        c.exec_nanos += attr_u64(rec, "exec_nanos").unwrap_or(0);
                        c.net_nanos += attr_u64(rec, "net_nanos").unwrap_or(0);
                    }
                }
                SpanKind::Recovery => ex.recovery_nanos += rec.duration_nanos,
                SpanKind::Instruction => {
                    let c = ex.per_opcode.entry(rec.name.to_string()).or_default();
                    c.count += 1;
                    c.total_nanos += rec.duration_nanos;
                }
                _ => {}
            }
        }
        if let Some(kids) = children.get(&rec.span_id) {
            stack.extend(kids.iter().copied());
        }
    }

    ex.attributed_nanos = children
        .get(&root.span_id)
        .map(|kids| covered_nanos(root, kids))
        .unwrap_or(0);

    // Critical path: from the root, repeatedly descend into the child
    // that finished last (the one the parent actually waited for).
    let mut path = Vec::new();
    let mut node = root;
    let mut depth = 0usize;
    loop {
        path.push(CriticalStep {
            name: node.name,
            kind: node.kind,
            worker: attr_u64(node, "worker"),
            duration_nanos: node.duration_nanos,
            depth,
        });
        let next = children
            .get(&node.span_id)
            .and_then(|kids| kids.iter().max_by_key(|k| end_nanos(k)).copied());
        match next {
            Some(k) if depth < 64 => {
                node = k;
                depth += 1;
            }
            _ => break,
        }
    }
    ex.critical_path = path;
    Some(ex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::Json;

    fn rec(
        span_id: u64,
        parent_id: u64,
        kind: SpanKind,
        name: &'static str,
        start: u64,
        dur: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id,
            parent_id,
            kind,
            name,
            start_unix_nanos: start,
            duration_nanos: dur,
            attrs,
        }
    }

    fn sample_forest() -> Vec<SpanRecord> {
        vec![
            rec(10, 0, SpanKind::Session, "session.explain", 0, 1000, vec![]),
            rec(11, 10, SpanKind::Session, "session.compute", 0, 980, vec![]),
            rec(
                12,
                11,
                SpanKind::Rpc,
                "rpc.call",
                10,
                400,
                vec![
                    ("worker", AttrValue::U64(0)),
                    ("exec_nanos", AttrValue::U64(300)),
                    ("net_nanos", AttrValue::U64(80)),
                    ("serde_nanos", AttrValue::U64(5)),
                    ("gate_wait_nanos", AttrValue::U64(7)),
                ],
            ),
            rec(
                13,
                11,
                SpanKind::Rpc,
                "rpc.call",
                420,
                500,
                vec![
                    ("worker", AttrValue::U64(1)),
                    ("exec_nanos", AttrValue::U64(450)),
                    ("net_nanos", AttrValue::U64(30)),
                ],
            ),
            rec(14, 13, SpanKind::Worker, "worker.batch", 430, 460, vec![]),
            rec(
                15,
                14,
                SpanKind::Instruction,
                "fed_matmul",
                440,
                400,
                vec![],
            ),
            rec(16, 14, SpanKind::Instruction, "fed_sum", 845, 20, vec![]),
            // A different trace entirely: must be ignored.
            SpanRecord {
                trace_id: 2,
                span_id: 99,
                parent_id: 0,
                kind: SpanKind::Rpc,
                name: "rpc.call",
                start_unix_nanos: 0,
                duration_nanos: 5000,
                attrs: vec![("exec_nanos", AttrValue::U64(5000))],
            },
        ]
    }

    #[test]
    fn breakdown_critical_path_and_profiles() {
        let ex = analyze(&sample_forest(), 10).expect("root found");
        assert_eq!(ex.wall_nanos, 1000);
        assert_eq!(ex.compute_nanos, 750);
        assert_eq!(ex.network_nanos, 110);
        assert_eq!(ex.serde_nanos, 5);
        assert_eq!(ex.queue_nanos, 7);
        assert_eq!(ex.span_count, 7);
        // Direct child covers [0, 980] of [0, 1000].
        assert_eq!(ex.attributed_nanos, 980);
        assert!(ex.attribution() >= 0.95);
        assert_eq!(ex.dominant_worker(), Some(1));
        assert_eq!(ex.dominant_opcode(), Some("fed_matmul"));
        let names: Vec<&str> = ex.critical_path.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "session.explain",
                "session.compute",
                "rpc.call",
                "worker.batch",
                "fed_sum"
            ]
        );
        assert_eq!(ex.critical_path[2].worker, Some(1));
    }

    #[test]
    fn reports_render_and_parse() {
        let ex = analyze(&sample_forest(), 10).unwrap();
        let text = format!("{ex}");
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("critical path:"));
        let doc = Json::parse(&ex.to_json()).expect("to_json parses");
        assert_eq!(doc.get("wall_nanos").and_then(Json::as_f64), Some(1000.0));
        let profile = Json::parse(&ex.cost_profile_json()).expect("profile parses");
        let matmul = profile
            .get("per_opcode")
            .and_then(|o| o.get("fed_matmul"))
            .expect("fed_matmul present");
        assert_eq!(matmul.get("count").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn missing_root_yields_none() {
        assert!(analyze(&sample_forest(), 777).is_none());
    }
}
