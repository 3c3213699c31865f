//! Per-run profile reports.
//!
//! [`RunReport`] condenses a metrics registry (plus optional transport
//! totals supplied by the caller, since this crate does not depend on
//! `exdra-net`) into the two artifacts the exploratory loop needs: a
//! human-readable breakdown (`Display`) and a JSON document (`to_json`)
//! that bench bins write as a `results/<bin>.metrics.json` sidecar. The
//! registry is the global one, or the one EXPLAIN ANALYZE folds a single
//! trace into ([`crate::analyze()`]), so both read one data model.
//!
//! The report reads the runtime's series by name; METRICS.md lists
//! each one with its kind, unit and source.

use std::collections::BTreeMap;
use std::fmt;

use crate::export::{json_escape_into, json_f64, to_json as metrics_to_json};
use crate::metrics::{global, MetricsSnapshot, Registry};
use crate::trace;

/// How many of the slowest instructions `Display` lists.
const TOP_N_INSTRUCTIONS: usize = 10;

/// Process-lifetime transport totals (mirrors `NetStatsSnapshot`,
/// re-declared here as plain integers to keep the crate dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTotals {
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub messages_sent: u64,
    pub messages_received: u64,
    pub network_nanos: u64,
    pub retries: u64,
    pub heartbeats: u64,
    pub recoveries: u64,
}

/// One worker's share of the run, reconstructed from `worker.{w}.*`
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerBreakdown {
    pub worker: usize,
    pub rpcs: u64,
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Coordinator-measured send→receive wall time (includes the
    /// worker's compute time).
    pub net_nanos: u64,
    /// Worker-reported batch execution time (from the reply footer).
    pub exec_nanos: u64,
    /// Coordinator-side encode + decode time.
    pub serde_nanos: u64,
    pub retries: u64,
}

impl WorkerBreakdown {
    /// Estimated pure network wait: round-trip time minus the portion
    /// the worker spent executing.
    pub fn net_wait_nanos(&self) -> u64 {
        self.net_nanos.saturating_sub(self.exec_nanos)
    }
}

/// Self-healing activity of the run, reconstructed from the
/// `recovery.*` / `checkpoint.*` counters the
/// supervisor emits. Present only when any of them fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Workers brought back to `Healthy` by the supervisor.
    pub recovered: u64,
    /// Recovery arcs that failed and left the worker dead.
    pub failed_attempts: u64,
    /// Recoveries that restored state from a checkpoint.
    pub restores: u64,
    /// Recoveries that fell back to initialization replay.
    pub replays: u64,
    /// Symbol-table entries shipped back via `RESTORE`.
    pub restored_entries: u64,
    /// Payload bytes shipped back via `RESTORE`.
    pub restored_bytes: u64,
    /// Checkpoint deltas pulled from workers.
    pub checkpoint_deltas: u64,
    /// Deltas that were full snapshots (`since_seq = 0`).
    pub full_snapshots: u64,
    /// Entries carried across all deltas.
    pub checkpoint_entries: u64,
    /// Payload bytes carried across all deltas.
    pub checkpoint_bytes: u64,
}

impl RecoverySummary {
    fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// Intra-operator data-parallelism activity of the run, reconstructed
/// from the `par.*` counters the `exdra-par` pool and the instruction
/// executor emit. Present only when at least one region executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelismSummary {
    /// Regions that fanned work out across threads.
    pub regions: u64,
    /// Regions that ran serially (width 1, single chunk, or nested).
    pub serial_regions: u64,
    /// Chunks executed across all parallel regions.
    pub chunks: u64,
    /// Chunks executed on spawned (non-caller) threads.
    pub steals: u64,
    /// Largest width engaged by any region.
    pub threads_used_max: u64,
    /// Mean width across parallel regions.
    pub threads_used_mean: f64,
    /// Per-opcode rollup, sorted by chunk volume.
    pub per_instruction: Vec<InstrParallelism>,
}

/// One opcode's share of the pool activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrParallelism {
    pub name: String,
    /// Instruction executions that touched the pool at all.
    pub calls: u64,
    /// Parallel regions those executions opened.
    pub regions: u64,
    /// Chunks executed across those regions.
    pub chunks: u64,
    /// Sum over regions of the width engaged.
    pub threads_engaged: u64,
}

impl InstrParallelism {
    /// Mean pool width engaged per parallel region (1.0 when every
    /// region degraded to serial).
    pub fn mean_threads(&self) -> f64 {
        if self.regions == 0 {
            1.0
        } else {
            self.threads_engaged as f64 / self.regions as f64
        }
    }

    /// Fraction of `pool_width` this opcode kept busy — the
    /// parallel-efficiency figure `Session::profile()` prints.
    pub fn efficiency(&self, pool_width: u64) -> f64 {
        if pool_width == 0 {
            1.0
        } else {
            (self.mean_threads() / pool_width as f64).min(1.0)
        }
    }
}

/// Aggregate latency profile of one instruction opcode.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrProfile {
    pub name: String,
    pub count: u64,
    pub total_nanos: u64,
    pub mean_nanos: f64,
    pub p95_nanos: f64,
}

/// A condensed per-run profile. Build with [`RunReport::from_global`]
/// (or `from_registry` for a scoped registry: one trace's fold, a test's).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub metrics: MetricsSnapshot,
    pub workers: Vec<WorkerBreakdown>,
    /// Every `inst.*` opcode, slowest total first.
    pub top_instructions: Vec<InstrProfile>,
    /// Spans sitting in the trace collector when the report was built.
    pub spans_recorded: usize,
    /// Transport totals, if the caller has a `NetStats` to contribute.
    pub net: Option<NetTotals>,
    /// Supervisor activity (checkpoints, restores), when any.
    pub recovery: Option<RecoverySummary>,
    /// Compute-pool activity (chunks, steals, per-opcode width), when any.
    pub parallelism: Option<ParallelismSummary>,
}

impl RunReport {
    pub fn from_global() -> Self {
        let mut r = Self::from_registry(global());
        r.spans_recorded = trace::collected_count();
        r
    }

    pub fn from_registry(reg: &Registry) -> Self {
        let metrics = reg.snapshot();
        let workers = extract_workers(&metrics);
        let top_instructions = extract_instructions(&metrics);
        let recovery = extract_recovery(&metrics);
        let parallelism = extract_parallelism(&metrics);
        RunReport {
            metrics,
            workers,
            top_instructions,
            spans_recorded: 0,
            net: None,
            recovery,
            parallelism,
        }
    }

    /// JSON document for the bench sidecar and the EXPLAIN ANALYZE
    /// profile: `{"workers": [...], "top_instructions": [...],
    ///   "net": {...}|null, "recovery": {...}|null,
    ///   "parallelism": {...}|null, "spans_recorded": n,
    ///   "metrics": {"counters": .., "histograms": ..}}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"worker\":{},\"rpcs\":{},\"requests\":{},\"bytes_sent\":{},\
                 \"bytes_received\":{},\"net_nanos\":{},\"exec_nanos\":{},\
                 \"serde_nanos\":{},\"retries\":{}}}",
                w.worker,
                w.rpcs,
                w.requests,
                w.bytes_sent,
                w.bytes_received,
                w.net_nanos,
                w.exec_nanos,
                w.serde_nanos,
                w.retries
            ));
        }
        out.push_str("],\"top_instructions\":[");
        for (i, p) in self.top_instructions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"name\":");
            json_escape_into(&mut out, &p.name);
            out.push_str(&format!(
                ",\"count\":{},\"total_nanos\":{},\"mean_nanos\":{},\"p95_nanos\":{}}}",
                p.count,
                p.total_nanos,
                json_f64(p.mean_nanos),
                json_f64(p.p95_nanos)
            ));
        }
        out.push_str("],\"net\":");
        match &self.net {
            Some(n) => out.push_str(&format!(
                "{{\"bytes_sent\":{},\"bytes_received\":{},\"messages_sent\":{},\
                 \"messages_received\":{},\"network_nanos\":{},\"retries\":{},\
                 \"heartbeats\":{},\"recoveries\":{}}}",
                n.bytes_sent,
                n.bytes_received,
                n.messages_sent,
                n.messages_received,
                n.network_nanos,
                n.retries,
                n.heartbeats,
                n.recoveries
            )),
            None => out.push_str("null"),
        }
        out.push_str(",\"recovery\":");
        match &self.recovery {
            Some(r) => out.push_str(&format!(
                "{{\"recovered\":{},\"failed_attempts\":{},\"restores\":{},\
                 \"replays\":{},\"restored_entries\":{},\"restored_bytes\":{},\
                 \"checkpoint_deltas\":{},\"full_snapshots\":{},\
                 \"checkpoint_entries\":{},\"checkpoint_bytes\":{}}}",
                r.recovered,
                r.failed_attempts,
                r.restores,
                r.replays,
                r.restored_entries,
                r.restored_bytes,
                r.checkpoint_deltas,
                r.full_snapshots,
                r.checkpoint_entries,
                r.checkpoint_bytes
            )),
            None => out.push_str("null"),
        }
        out.push_str(",\"parallelism\":");
        match &self.parallelism {
            Some(p) => {
                out.push_str(&format!(
                    "{{\"regions\":{},\"serial_regions\":{},\"chunks\":{},\
                     \"steals\":{},\"threads_used_max\":{},\"threads_used_mean\":{},\
                     \"per_instruction\":[",
                    p.regions,
                    p.serial_regions,
                    p.chunks,
                    p.steals,
                    p.threads_used_max,
                    json_f64(p.threads_used_mean)
                ));
                for (i, ip) in p.per_instruction.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    json_escape_into(&mut out, &ip.name);
                    out.push_str(&format!(
                        ",\"calls\":{},\"regions\":{},\"chunks\":{},\
                         \"threads_engaged\":{},\"mean_threads\":{}}}",
                        ip.calls,
                        ip.regions,
                        ip.chunks,
                        ip.threads_engaged,
                        json_f64(ip.mean_threads())
                    ));
                }
                out.push_str("]}");
            }
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"spans_recorded\":{},\"metrics\":",
            self.spans_recorded
        ));
        out.push_str(&metrics_to_json(&self.metrics));
        out.push('}');
        out
    }
}

fn extract_workers(snap: &MetricsSnapshot) -> Vec<WorkerBreakdown> {
    let mut workers: Vec<WorkerBreakdown> = Vec::new();
    for (name, &value) in &snap.counters {
        let Some(rest) = name.strip_prefix("worker.") else {
            continue;
        };
        let Some((idx, field)) = rest.split_once('.') else {
            continue;
        };
        let Ok(idx) = idx.parse::<usize>() else {
            continue;
        };
        if workers.len() <= idx {
            workers.resize_with(idx + 1, WorkerBreakdown::default);
        }
        let w = &mut workers[idx];
        w.worker = idx;
        match field {
            "rpcs" => w.rpcs = value,
            "requests" => w.requests = value,
            "bytes_sent" => w.bytes_sent = value,
            "bytes_recv" => w.bytes_received = value,
            "net_nanos" => w.net_nanos = value,
            "exec_nanos" => w.exec_nanos = value,
            "serde_nanos" => w.serde_nanos = value,
            "retries" => w.retries = value,
            _ => {}
        }
    }
    // Ensure worker index is set even for all-zero gaps.
    for (i, w) in workers.iter_mut().enumerate() {
        w.worker = i;
    }
    workers
}

fn extract_recovery(snap: &MetricsSnapshot) -> Option<RecoverySummary> {
    let c = |name: &str| snap.counter(name);
    let summary = RecoverySummary {
        recovered: c("recovery.recovered"),
        failed_attempts: c("recovery.failed_attempts"),
        restores: c("recovery.restores"),
        replays: c("recovery.replays"),
        restored_entries: c("recovery.restored_entries"),
        restored_bytes: c("recovery.restored_bytes"),
        checkpoint_deltas: c("checkpoint.deltas"),
        full_snapshots: c("checkpoint.full_snapshots"),
        checkpoint_entries: c("checkpoint.entries"),
        checkpoint_bytes: c("checkpoint.bytes"),
    };
    (!summary.is_empty()).then_some(summary)
}

fn extract_parallelism(snap: &MetricsSnapshot) -> Option<ParallelismSummary> {
    let c = |name: &str| snap.counter(name);
    let regions = c("par.regions");
    let serial_regions = c("par.serial_regions");
    if regions + serial_regions == 0 {
        return None;
    }
    let (threads_used_max, threads_used_mean) = snap
        .histograms
        .get("par.threads_used")
        .map_or((0, 0.0), |h| (h.max, h.mean()));
    let mut per: BTreeMap<&str, InstrParallelism> = BTreeMap::new();
    for (name, &value) in &snap.counters {
        let Some(rest) = name.strip_prefix("par.inst.") else {
            continue;
        };
        let Some((op, field)) = rest.rsplit_once('.') else {
            continue;
        };
        let entry = per.entry(op).or_insert_with(|| InstrParallelism {
            name: op.to_string(),
            ..Default::default()
        });
        match field {
            "calls" => entry.calls = value,
            "regions" => entry.regions = value,
            "chunks" => entry.chunks = value,
            "threads" => entry.threads_engaged = value,
            _ => {}
        }
    }
    let mut per: Vec<InstrParallelism> = per.into_values().collect();
    per.sort_by(|a, b| b.chunks.cmp(&a.chunks).then(a.name.cmp(&b.name)));
    Some(ParallelismSummary {
        regions,
        serial_regions,
        chunks: c("par.chunks"),
        steals: c("par.steals"),
        threads_used_max,
        threads_used_mean,
        per_instruction: per,
    })
}

fn extract_instructions(snap: &MetricsSnapshot) -> Vec<InstrProfile> {
    let mut out: Vec<InstrProfile> = snap
        .histograms
        .iter()
        .filter_map(|(name, s)| {
            let op = name.strip_prefix("inst.")?;
            Some(InstrProfile {
                name: op.to_string(),
                count: s.count,
                total_nanos: s.sum,
                mean_nanos: s.mean(),
                p95_nanos: s.p95,
            })
        })
        .collect();
    out.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(&b.name)));
    out
}

pub(crate) fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== run profile ==")?;
        if let Some(n) = &self.net {
            writeln!(
                f,
                "transport: {:.2} MiB out / {:.2} MiB in, {} msgs out, \
                 {:.1} ms on the wire, {} retries, {} heartbeats, {} recoveries",
                mib(n.bytes_sent),
                mib(n.bytes_received),
                n.messages_sent,
                ms(n.network_nanos),
                n.retries,
                n.heartbeats,
                n.recoveries
            )?;
        }
        writeln!(f, "spans recorded: {}", self.spans_recorded)?;
        if !self.workers.is_empty() {
            writeln!(
                f,
                "{:<7} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
                "worker",
                "rpcs",
                "reqs",
                "sent MiB",
                "recv MiB",
                "net ms",
                "exec ms",
                "serde ms",
                "retries"
            )?;
            for w in &self.workers {
                writeln!(
                    f,
                    "{:<7} {:>6} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7}",
                    w.worker,
                    w.rpcs,
                    w.requests,
                    mib(w.bytes_sent),
                    mib(w.bytes_received),
                    ms(w.net_nanos),
                    ms(w.exec_nanos),
                    ms(w.serde_nanos),
                    w.retries
                )?;
            }
        }
        if !self.top_instructions.is_empty() {
            writeln!(f, "top instructions by total time:")?;
            for p in self.top_instructions.iter().take(TOP_N_INSTRUCTIONS) {
                writeln!(
                    f,
                    "  {:<24} {:>8} calls {:>10.2} ms total {:>10.1} us mean {:>10.1} us p95",
                    p.name,
                    p.count,
                    ms(p.total_nanos),
                    p.mean_nanos / 1e3,
                    p.p95_nanos / 1e3
                )?;
            }
        }
        if let Some(r) = &self.recovery {
            writeln!(
                f,
                "self-healing: {} recovered ({} restores / {} replays, \
                 {} entries, {:.2} MiB), {} failed attempts",
                r.recovered,
                r.restores,
                r.replays,
                r.restored_entries,
                mib(r.restored_bytes),
                r.failed_attempts
            )?;
            writeln!(
                f,
                "checkpoints: {} deltas ({} full), {} entries, {:.2} MiB",
                r.checkpoint_deltas,
                r.full_snapshots,
                r.checkpoint_entries,
                mib(r.checkpoint_bytes)
            )?;
        }
        if let Some(p) = &self.parallelism {
            writeln!(
                f,
                "parallelism: {} parallel regions ({} serial), {} chunks \
                 ({} stolen), mean {:.1} / max {} threads per region",
                p.regions,
                p.serial_regions,
                p.chunks,
                p.steals,
                p.threads_used_mean,
                p.threads_used_max
            )?;
            if !p.per_instruction.is_empty() {
                writeln!(f, "parallel efficiency by opcode:")?;
                for ip in &p.per_instruction {
                    writeln!(
                        f,
                        "  {:<24} {:>6} calls {:>7} regions {:>8} chunks \
                         {:>6.1} avg threads ({:>3.0}% of pool)",
                        ip.name,
                        ip.calls,
                        ip.regions,
                        ip.chunks,
                        ip.mean_threads(),
                        100.0 * ip.efficiency(p.threads_used_max.max(1))
                    )?;
                }
            }
        }
        let hits = self.metrics.counter("lineage.worker.hits")
            + self.metrics.counter("lineage.coordinator.hits");
        let misses = self.metrics.counter("lineage.worker.misses")
            + self.metrics.counter("lineage.coordinator.misses");
        if hits + misses > 0 {
            writeln!(
                f,
                "lineage reuse: {} hits / {} misses (coordinator {} / worker {} hits)",
                hits,
                misses,
                self.metrics.counter("lineage.coordinator.hits"),
                self.metrics.counter("lineage.worker.hits")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::Json;

    fn seeded_registry() -> Registry {
        let r = Registry::new();
        r.add("rpc.calls", 4);
        for w in 0..2u64 {
            r.add(&format!("worker.{w}.rpcs"), 2);
            r.add(&format!("worker.{w}.requests"), 6);
            r.add(&format!("worker.{w}.bytes_sent"), 4096);
            r.add(&format!("worker.{w}.bytes_recv"), 2048);
            r.add(&format!("worker.{w}.net_nanos"), 9_000_000);
            r.add(&format!("worker.{w}.exec_nanos"), 5_000_000);
            r.add(&format!("worker.{w}.serde_nanos"), 1_000_000);
        }
        r.record("inst.fed_matmul", 4_000_000);
        r.record("inst.fed_matmul", 6_000_000);
        r.record("inst.rbind", 1_000);
        r.add("lineage.worker.hits", 3);
        r.add("lineage.worker.misses", 5);
        r
    }

    #[test]
    fn workers_and_instructions_are_extracted() {
        let report = RunReport::from_registry(&seeded_registry());
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers[1].requests, 6);
        assert_eq!(report.workers[0].net_wait_nanos(), 4_000_000);
        assert_eq!(report.top_instructions[0].name, "fed_matmul");
        assert_eq!(report.top_instructions[0].count, 2);
        assert_eq!(report.top_instructions[1].name, "rbind");
    }

    #[test]
    fn every_opcode_is_kept_and_display_lists_ten() {
        let reg = seeded_registry();
        for i in 0..12u64 {
            reg.record(&format!("inst.op{i:02}"), 100 + i);
        }
        let report = RunReport::from_registry(&reg);
        assert_eq!(report.top_instructions.len(), 14);
        assert_eq!(report.top_instructions[13].name, "op00");
        let text = format!("{report}");
        assert!(text.contains("op04") && !text.contains("op03"), "{text}");
    }

    #[test]
    fn display_mentions_workers_and_reuse() {
        let mut report = RunReport::from_registry(&seeded_registry());
        report.net = Some(NetTotals {
            bytes_sent: 1 << 20,
            ..Default::default()
        });
        let text = format!("{report}");
        assert!(text.contains("run profile"));
        assert!(text.contains("fed_matmul"));
        assert!(text.contains("lineage reuse: 3 hits / 5 misses"));
        assert!(text.contains("transport: 1.00 MiB out"));
    }

    #[test]
    fn recovery_summary_extracted_only_when_active() {
        let quiet = RunReport::from_registry(&seeded_registry());
        assert!(quiet.recovery.is_none(), "no recovery counters, no section");

        let reg = seeded_registry();
        reg.inc("recovery.recovered");
        reg.inc("recovery.restores");
        reg.add("recovery.restored_entries", 7);
        reg.add("checkpoint.deltas", 3);
        reg.inc("checkpoint.full_snapshots");
        reg.add("checkpoint.bytes", 4096);
        let report = RunReport::from_registry(&reg);
        let r = report.recovery.expect("recovery section present");
        assert_eq!(r.recovered, 1);
        assert_eq!(r.restores, 1);
        assert_eq!(r.replays, 0);
        assert_eq!(r.restored_entries, 7);
        assert_eq!(r.checkpoint_deltas, 3);
        assert_eq!(r.full_snapshots, 1);

        let text = format!("{report}");
        assert!(text.contains("self-healing: 1 recovered"));

        let doc = Json::parse(&report.to_json()).expect("report json parses");
        assert_eq!(
            doc.get("recovery")
                .and_then(|r| r.get("checkpoint_deltas"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        // A quiet report serializes the section as null.
        let quiet_doc = Json::parse(&quiet.to_json()).unwrap();
        assert!(matches!(quiet_doc.get("recovery"), Some(Json::Null)));
    }

    #[test]
    fn parallelism_summary_extracted_only_when_active() {
        let quiet = RunReport::from_registry(&seeded_registry());
        assert!(quiet.parallelism.is_none(), "no pool counters, no section");
        let quiet_doc = Json::parse(&quiet.to_json()).unwrap();
        assert!(matches!(quiet_doc.get("parallelism"), Some(Json::Null)));

        let reg = seeded_registry();
        reg.add("par.regions", 4);
        reg.add("par.serial_regions", 2);
        reg.add("par.chunks", 32);
        reg.add("par.steals", 20);
        for _ in 0..4 {
            reg.record("par.threads_used", 4);
        }
        reg.add("par.inst.fed_matmul.calls", 2);
        reg.add("par.inst.fed_matmul.regions", 4);
        reg.add("par.inst.fed_matmul.chunks", 32);
        reg.add("par.inst.fed_matmul.threads", 16);
        let report = RunReport::from_registry(&reg);
        let p = report.parallelism.as_ref().expect("parallelism section");
        assert_eq!(p.regions, 4);
        assert_eq!(p.serial_regions, 2);
        assert_eq!(p.chunks, 32);
        assert_eq!(p.steals, 20);
        assert_eq!(p.threads_used_max, 4);
        assert_eq!(p.per_instruction.len(), 1);
        let ip = &p.per_instruction[0];
        assert_eq!(ip.name, "fed_matmul");
        assert_eq!(ip.calls, 2);
        assert!((ip.mean_threads() - 4.0).abs() < 1e-12);
        assert!((ip.efficiency(4) - 1.0).abs() < 1e-12);

        let text = format!("{report}");
        assert!(text.contains("parallelism: 4 parallel regions (2 serial)"));
        assert!(text.contains("parallel efficiency by opcode:"));
        assert!(text.contains("fed_matmul"));

        let doc = Json::parse(&report.to_json()).expect("report json parses");
        assert_eq!(
            doc.get("parallelism")
                .and_then(|p| p.get("chunks"))
                .and_then(Json::as_f64),
            Some(32.0)
        );
        assert_eq!(
            doc.get("parallelism")
                .and_then(|p| p.get("per_instruction"))
                .and_then(|a| match a {
                    Json::Arr(v) => v.first(),
                    _ => None,
                })
                .and_then(|e| e.get("mean_threads"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn json_sidecar_parses_and_carries_worker_split() {
        let mut report = RunReport::from_registry(&seeded_registry());
        report.net = Some(NetTotals {
            bytes_sent: 10,
            bytes_received: 20,
            messages_sent: 2,
            messages_received: 2,
            network_nanos: 500,
            retries: 1,
            heartbeats: 0,
            recoveries: 1,
        });
        report.spans_recorded = 12;
        let doc = Json::parse(&report.to_json()).expect("report json parses");
        let workers = match doc.get("workers") {
            Some(Json::Arr(a)) => a,
            other => panic!("workers array, got {other:?}"),
        };
        assert_eq!(workers.len(), 2);
        assert_eq!(
            workers[0].get("exec_nanos").and_then(Json::as_f64),
            Some(5_000_000.0)
        );
        assert_eq!(doc.get("spans_recorded").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            doc.get("net")
                .and_then(|n| n.get("retries"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("rpc.calls"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
    }
}
