//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root states the same tables for the driver; a unit test keeps the two
//! equal.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which are reported and never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "local_algos",
        "LM-CG, L2SVM, MLogReg, K-Means, PCA on a local 40k x 100 matrix: matrix kernels and par do all the work, net and core none (Fig. 5 Local baseline)",
    ),
    (
        "lan_algos",
        "same suite and data over 2 loopback-TCP workers at par width 1: codec, transport and the core request path carry every iteration (Fig. 5 Fed-LAN)",
    ),
    (
        "wan_rounds",
        "LM-CG, L2SVM, MLogReg and three lazy plans on a small X over WAN-shaped links: round trips and plan fusion decide the time, kernels must not",
    ),
    (
        "lan_compressed",
        "low-cardinality data compacted on the workers: compressed-domain ops and the dense fallback decide pass time, compaction cost lands in setup_s",
    ),
    (
        "p2_pipeline",
        "Fig. 8 P2: raw frames, federated transform_encode, clip, normalise, split, LM, then a 1-epoch FFN: the write-heavy path that PUTs new objects",
    ),
    (
        "tenants",
        "8 sessions on one CoordService, 2 closed-loop drivers, 400 tiny computes per pass, hot and cold plan-cache pools: api, coord and per-request cost dominate",
    ),
    (
        "churn_stream",
        "site_churn and one_straggler scenarios back to back: stream windows, BSP/ASP retraining, one worker killed and recovered, model hash vs fault-free oracle",
    ),
];

/// End-to-end metrics: what a user of the system sees. Reported by every
/// workload with `--trace 0`.
pub const END_TO_END: &[MetricSpec] = &[e2e("setup_s", "s", 0.25), e2e("pass_p50_s", "s", 0.25)];

use Better::{Higher, Lower};

/// Per-layer metrics, reported with `--trace 1`. A metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // matrix kernels
    layer("kernel_busy_s", "s", Lower),
    layer("kernel_gflops", "gflop/s", Higher),
    // par
    layer("par_speedup", "ratio", Higher),
    layer("par_regions", "count", Higher),
    layer("par_serial_fallbacks", "count", Lower),
    // matrix::compress
    layer("compress_s", "s", Lower),
    layer("compress_ratio", "ratio", Higher),
    layer("c_vs_dense", "ratio", Lower),
    // net::codec
    layer("encode_mb_s", "MB/s", Higher),
    layer("decode_mb_s", "MB/s", Higher),
    // net::transport / net::sim
    layer("wire_bytes_per_pass", "bytes", Lower),
    layer("messages_per_pass", "count", Lower),
    layer("round_trips_per_pass", "count", Lower),
    layer("max_inflight", "count", Higher),
    layer("rtt_small_us", "us", Lower),
    layer("wan_floor_share", "share", Higher),
    // core request path
    layer("rpc_small_us", "us", Lower),
    layer("requests_per_pass", "count", Lower),
    // api: plan, optimizer, plan cache
    layer("plan_build_us", "us", Lower),
    layer("optimize_us", "us", Lower),
    layer("rule_fires", "count", Higher),
    layer("plan_cache_hit_share_hot", "share", Higher),
    layer("plan_cache_hit_share_cold", "share", Higher),
    layer("est_bytes_error", "share", Lower),
    // coord
    layer("open_session_us", "us", Lower),
    layer("queue_wait_share", "share", Lower),
    layer("admission_rejects", "count", Lower),
    // transform
    layer("encode_rows_per_s", "1/s", Higher),
    layer("meta_bytes", "bytes", Lower),
    // paramserv / stream
    layer("ps_round_ms", "ms", Lower),
    layer("ps_bytes_per_round", "bytes", Lower),
    layer("window_rows_per_s", "1/s", Higher),
    // fault + core::supervision
    layer("detect_ms", "ms", Lower),
    layer("restore_ms", "ms", Lower),
    layer("checkpoint_bytes", "bytes", Lower),
    layer("retried_rounds", "count", Lower),
    // obs: the benchmark's own tracer
    layer("trace_overhead_share", "share", Lower),
    layer("traced_share", "share", Higher),
    // Workload-specific latencies. They cannot be end-to-end metrics of
    // BENCHMARK.json, which every workload must report, so they are
    // diagnostics here: 0 off their workload.
    layer("compute_p50_ms", "ms", Lower),
    layer("compute_p95_ms", "ms", Lower),
    layer("recovery_p50_ms", "ms", Lower),
    layer("pass_max_s", "s", Lower),
    // The process's VmHWM. A diagnostic, not an end-to-end metric: with
    // worker threads allocating from their own malloc arenas its
    // run-to-run spread on the reference host (up to 15 %) is wider than
    // any bound worth gating on.
    layer("peak_rss_mb", "MiB", Lower),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(n, _)| *n).collect()
}

/// Whether `name` is a legal workload or metric name under the contract:
/// starts with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The document `BENCHMARK.json` must hold for these tables.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, why)| {
                        Json::obj(vec![("name", Json::str(*n)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(is_valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(*name), "{name} used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(m.name), "{}", m.name);
            assert!(is_valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(!is_valid_name("_x") && !is_valid_name("a b") && !is_valid_name(""));
        assert!(!is_valid_unit("a unit") && is_valid_unit("1/s") && is_valid_unit("%"));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_states_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json());
        let keys: Vec<&str> = on_disk
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
