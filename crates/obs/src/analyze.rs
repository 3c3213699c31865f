//! EXPLAIN ANALYZE: a fold of one computation's span forest.
//!
//! Consumes the spans of one computation (one trace rooted at a session
//! span). Every span under the root folds through [`crate::fold::FOLDS`]
//! into a registry of its own, exactly as the global registry folded it
//! when it closed, and [`Analysis::profile`] is the [`RunReport`] of that
//! registry: the same series, by the same rows, that `/metrics` and
//! `RunReport` read. The compute/network/serde/queue split and the
//! dominant worker and opcode are read from it (`worker.{w}.*`,
//! `rpc.gate_wait`, `inst.*`). Beside it stands what only the span tree
//! knows:
//!
//! * the root's **wall time** and the part of it its direct children
//!   cover (interval union), so a low ratio means untraced gaps;
//! * the **recovery time**, summed over `recovery.*` spans;
//! * the **critical path** — the chain of spans from the root to the
//!   leaf that finished last, which is what actually bounded the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::export::{json_escape_into, json_f64};
use crate::fold;
use crate::metrics::Registry;
use crate::report::{ms, InstrProfile, RunReport, WorkerBreakdown};
#[cfg(test)]
use crate::trace::AttrValue;
use crate::trace::{SpanKind, SpanRecord};

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

/// The ANALYZE half of an explain report: the result of analyzing
/// one computation's span forest.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Root span wall time.
    pub wall_nanos: u64,
    /// Part of the root interval covered by its direct children.
    pub attributed_nanos: u64,
    /// Time inside recovery spans (checkpoint/restore/replay).
    pub recovery_nanos: u64,
    /// Root-to-latest-leaf chain that bounded the run.
    pub critical_path: Vec<CriticalStep>,
    /// Spans belonging to this computation's trace.
    pub span_count: usize,
    /// The trace's spans folded through `FOLDS`: per-worker costs and
    /// every opcode's `inst.*` row, the document `RunReport` sidecars
    /// write.
    pub profile: RunReport,
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

    /// Worker-side execution time, summed over completed RPCs.
    pub fn compute_nanos(&self) -> u64 {
        self.profile.workers.iter().map(|w| w.exec_nanos).sum()
    }

    /// Coordinator-side send-to-receive time outside the worker's
    /// execution ([`WorkerBreakdown::net_wait_nanos`]), summed over
    /// completed RPCs, so compute and network never count one span twice.
    pub fn network_nanos(&self) -> u64 {
        self.profile
            .workers
            .iter()
            .map(|w| w.net_wait_nanos())
            .sum()
    }

    /// Envelope encode/decode time, summed over completed RPCs.
    pub fn serde_nanos(&self) -> u64 {
        self.profile.workers.iter().map(|w| w.serde_nanos).sum()
    }

    /// Admission/credit wait (the RPC gate), summed over completed RPCs.
    pub fn queue_nanos(&self) -> u64 {
        let gate = self.profile.metrics.histograms.get("rpc.gate_wait");
        gate.map_or(0, |h| h.sum)
    }

    /// The worker with the largest execution time, if any RPCs ran.
    pub fn dominant_worker(&self) -> Option<&WorkerBreakdown> {
        let ran = self.profile.workers.iter().filter(|w| w.rpcs > 0);
        ran.max_by_key(|w| w.exec_nanos)
    }

    /// The opcode with the largest total own time, if any instruction
    /// completed.
    pub fn dominant_opcode(&self) -> Option<&InstrProfile> {
        self.profile.top_instructions.first()
    }

    /// Renders the full report as a JSON object; `profile` is
    /// [`RunReport::to_json`].
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
            self.compute_nanos(),
            self.network_nanos(),
            self.serde_nanos(),
            self.queue_nanos(),
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
        out.push_str("],\"profile\":");
        out.push_str(&self.profile.to_json());
        out.push('}');
        out
    }
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
        let (compute, network) = (self.compute_nanos(), self.network_nanos());
        writeln!(
            f,
            "  compute {:.1} ms ({:.0}%) | network {:.1} ms ({:.0}%) | serde {:.1} ms | queue {:.1} ms | recovery {:.1} ms",
            ms(compute),
            pct(compute, self.wall_nanos),
            ms(network),
            pct(network, self.wall_nanos),
            ms(self.serde_nanos()),
            ms(self.queue_nanos()),
            ms(self.recovery_nanos)
        )?;
        let dominant: Vec<String> = [
            self.dominant_worker().map(|w| {
                let (exec, calls) = (ms(w.exec_nanos), w.rpcs);
                format!(
                    "dominant worker: {} ({exec:.1} ms exec, {calls} calls)",
                    w.worker
                )
            }),
            self.dominant_opcode().map(|p| {
                let (total, runs) = (ms(p.total_nanos), p.count);
                format!(
                    "dominant opcode: {} ({total:.1} ms total, {runs} runs)",
                    p.name
                )
            }),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !dominant.is_empty() {
            writeln!(f, "  {}", dominant.join(" | "))?;
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

    // Walk the subtree under the root, folding each span as the global
    // registry folded it when it closed.
    let folded = Registry::new();
    let mut stack: Vec<&SpanRecord> = vec![root];
    while let Some(rec) = stack.pop() {
        ex.span_count += 1;
        fold::span_closed(&folded, rec);
        if rec.kind == SpanKind::Recovery {
            ex.recovery_nanos += rec.duration_nanos;
        }
        if let Some(kids) = children.get(&rec.span_id) {
            stack.extend(kids.iter().copied());
        }
    }
    ex.profile = RunReport::from_registry(&folded);
    ex.profile.spans_recorded = ex.span_count;

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
            worker: node.attr_u64("worker"),
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

    type Attrs<'a> = &'a [(&'static str, u64)];

    fn rec(
        id: u64,
        parent: u64,
        kind: SpanKind,
        name: &'static str,
        at: (u64, u64),
        attrs: Attrs,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            kind,
            name,
            start_unix_nanos: at.0,
            duration_nanos: at.1,
            attrs: attrs.iter().map(|&(k, v)| (k, AttrValue::U64(v))).collect(),
        }
    }

    /// An `rpc.call` under `session.compute` (span 11).
    fn leg(id: u64, at: (u64, u64), attrs: Attrs) -> SpanRecord {
        rec(id, 11, SpanKind::Rpc, "rpc.call", at, attrs)
    }

    /// An instruction in worker 1's batch (span 14).
    fn inst(id: u64, name: &'static str, at: (u64, u64), attrs: Attrs) -> SpanRecord {
        rec(id, 14, SpanKind::Instruction, name, at, attrs)
    }

    /// A traced `compute()` over two workers, with the completion
    /// attributes real spans carry (`bytes_recv`, `own_nanos`).
    fn sample_forest() -> Vec<SpanRecord> {
        let done = |w, exec, net, serde, gate| {
            [
                ("worker", w),
                ("requests", 2),
                ("bytes_recv", 32),
                ("exec_nanos", exec),
                ("net_nanos", net),
                ("serde_nanos", serde),
                ("gate_wait_nanos", gate),
            ]
        };
        let mut other_trace = leg(
            99,
            (0, 5000),
            &[("worker", 0), ("bytes_recv", 8), ("exec_nanos", 5000)],
        );
        other_trace.trace_id = 2;
        other_trace.parent_id = 0;
        vec![
            rec(10, 0, SpanKind::Session, "session.explain", (0, 1000), &[]),
            rec(11, 10, SpanKind::Session, "session.compute", (0, 980), &[]),
            leg(12, (10, 400), &done(0, 300, 380, 5, 7)),
            leg(13, (420, 500), &done(1, 450, 480, 0, 0)),
            rec(14, 13, SpanKind::Worker, "worker.batch", (430, 460), &[]),
            inst(15, "fed_matmul", (440, 400), &[("own_nanos", 390)]),
            inst(16, "fed_sum", (845, 20), &[("own_nanos", 15)]),
            // A different trace entirely: must be ignored.
            other_trace,
        ]
    }

    #[test]
    fn breakdown_critical_path_and_profiles() {
        let ex = analyze(&sample_forest(), 10).expect("root found");
        assert_eq!(ex.wall_nanos, 1000);
        assert_eq!((ex.compute_nanos(), ex.network_nanos()), (750, 110));
        assert_eq!((ex.serde_nanos(), ex.queue_nanos()), (5, 7));
        assert_eq!(ex.span_count, 7);
        // Direct child covers [0, 980] of [0, 1000].
        assert_eq!(ex.attributed_nanos, 980);
        assert!(ex.attribution() >= 0.95);
        assert_eq!(ex.dominant_worker().map(|w| w.worker), Some(1));
        let op = ex.dominant_opcode().expect("an instruction completed");
        assert_eq!((op.name.as_str(), op.total_nanos), ("fed_matmul", 390));
        assert_eq!(ex.profile.workers[1].requests, 2);
        let names: Vec<&str> = ex.critical_path.iter().map(|s| s.name).collect();
        let leaf = ["rpc.call", "worker.batch", "fed_sum"];
        assert_eq!(
            names,
            [&["session.explain", "session.compute"][..], &leaf].concat()
        );
        assert_eq!(ex.critical_path[2].worker, Some(1));
    }

    #[test]
    fn compute_and_network_fit_in_the_attributed_time() {
        // Each leg's execution lies inside its send-to-receive time: the
        // network share is only the wait around it.
        let ex = analyze(&sample_forest(), 10).unwrap();
        assert_eq!(ex.network_nanos(), (380 - 300) + (480 - 450));
        assert!(ex.compute_nanos() + ex.network_nanos() <= ex.attributed_nanos);
    }

    #[test]
    fn a_failed_call_or_instruction_counts_in_neither_view() {
        let mut forest = sample_forest();
        // A leg that never got its reply, and an instruction that failed.
        forest.push(leg(
            20,
            (930, 40),
            &[("worker", 2), ("requests", 1), ("exec_nanos", 30)],
        ));
        forest.push(inst(21, "fed_fail", (870, 9), &[]));
        let ex = analyze(&forest, 10).unwrap();
        // The global registry's view: each span folded as its guard closed.
        let reg = Registry::new();
        forest
            .iter()
            .filter(|s| s.trace_id == 1)
            .for_each(|s| fold::span_closed(&reg, s));
        let registry = RunReport::from_registry(&reg);
        assert_eq!(ex.span_count, 9, "the failed spans are in the tree");
        assert_eq!((ex.compute_nanos(), ex.profile.workers.len()), (750, 2));
        assert_eq!(ex.profile.workers, registry.workers);
        assert_eq!(ex.profile.top_instructions, registry.top_instructions);
        assert!(ex
            .profile
            .top_instructions
            .iter()
            .all(|p| p.name != "fed_fail"));
        assert_eq!(ex.profile.metrics.counters, registry.metrics.counters);
    }

    #[test]
    fn a_column_group_run_shows_as_c_op() {
        let mut forest = sample_forest();
        forest.push(inst(22, "uak+", (870, 50), &[("c.own_nanos", 40)]));
        let ex = analyze(&forest, 10).unwrap();
        let ops: Vec<&str> = ex
            .profile
            .top_instructions
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(ops, ["fed_matmul", "c.uak+", "fed_sum"]);
        assert_eq!(ex.profile.metrics.counter("compress.exec.direct"), 1);
    }

    #[test]
    fn a_span_of_another_trace_is_ignored() {
        let ex = analyze(&sample_forest(), 10).unwrap();
        assert_eq!(ex.profile.workers[0].exec_nanos, 300);
        assert_eq!(ex.profile.metrics.counter("rpc.calls"), 2);
        let other = analyze(&sample_forest(), 99).unwrap();
        assert_eq!((other.span_count, other.compute_nanos()), (1, 5000));
    }

    #[test]
    fn reports_render_and_parse() {
        let ex = analyze(&sample_forest(), 10).unwrap();
        let text = format!("{ex}");
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text
            .contains("dominant worker: 1 (0.0 ms exec, 1 calls) | dominant opcode: fed_matmul"));
        assert!(text.contains("critical path:"));
        let doc = Json::parse(&ex.to_json()).expect("to_json parses");
        assert_eq!(doc.get("wall_nanos").and_then(Json::as_f64), Some(1000.0));
        let histograms = doc
            .get("profile")
            .and_then(|p| p.get("metrics")?.get("histograms"));
        let matmul = histograms.and_then(|h| h.get("inst.fed_matmul")?.get("sum")?.as_f64());
        assert_eq!(matmul, Some(390.0));
    }

    #[test]
    fn missing_root_yields_none() {
        assert!(analyze(&sample_forest(), 777).is_none());
    }
}
