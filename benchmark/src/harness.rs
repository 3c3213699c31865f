//! One workload, one process: set-up, the closed timed loop, the oracle
//! checks, and the result line the driver reads.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats::{
    median, median_sorted, percentile_sorted, sorted, tail_is_resolved, MIN_TIMED_PASSES,
};
use crate::trace::{self_seconds_by_name, self_times_ns, Tracer};
use crate::workloads::{self, Counters, LayerMetrics, PassOutput, Workload};

/// Set-ups per untraced run; `setup_s` is their median. A cheap set-up
/// is repeated beyond the minimum, until [`SETUP_BUDGET_S`] seconds of
/// set-up were measured or [`SETUP_REPS_MAX`] set-ups ran.
pub const SETUP_REPS: usize = 5;
pub const SETUP_REPS_MAX: usize = 15;
pub const SETUP_BUDGET_S: f64 = 4.0;

/// Traced passes a traced run must collect (and as many untraced ones to
/// compare them with).
pub const MIN_TRACED_PASSES: usize = 3;

/// Arguments of one workload run (the driver's command line).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for `check.sh`: exercises every code path in seconds.
    pub smoke: bool,
}

/// The directory run artifacts go to: `benchmark/out/` of the checkout
/// the process runs in (git-ignored). Falls back to the manifest
/// directory the binary was built from.
pub fn out_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let package = if cwd.join("benchmark/Cargo.toml").is_file() {
        cwd.join("benchmark")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    package.join("out")
}

/// Creates this process's scratch directory under [`out_dir`] and points
/// `TMPDIR` at it, so everything the program writes to "the temp dir"
/// (stream sinks, scenario scratch) stays inside the checkout and no two
/// children share a directory. Call before any thread is spawned.
pub fn enter_scratch() -> std::io::Result<PathBuf> {
    let dir = out_dir().join(format!("tmp.{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` does
/// not provide it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cheap host facts printed with every run; the `run` subcommand adds
/// rustc and commit.
pub fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("load1_at_start", Json::Num(load1)),
        // A busy host makes timings unsteady: flag it in the result.
        ("load_flagged", Json::Bool(load1 > 0.5 * nproc as f64)),
    ])
}

/// Everything one run measured.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in spec order: end-to-end for an untraced run,
    /// per-layer for a traced one.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
}

impl RunResult {
    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(*v)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Tally of attempted and failed operations of a run: passes, plus the
/// computes and rounds inside them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // Report the first few; a broken workload fails every pass alike.
        if self.failed <= 5 {
            eprintln!("FAILED: {what}");
        }
    }
}

/// One timed pass: wall time, output, counter deltas.
struct TimedPass {
    seconds: f64,
    out: PassOutput,
    counters: Counters,
}

fn timed_pass(w: &mut dyn Workload, tr: &Tracer, tally: &mut Tally) -> Option<TimedPass> {
    let before = w.counters();
    let t0 = Instant::now();
    let result = tr.span("pass", || w.pass(tr));
    let seconds = t0.elapsed().as_secs_f64();
    tally.attempted += 1;
    match result {
        Ok(out) => {
            tally.attempted += out.ops;
            tally.failed += out.failed_ops;
            if out.checksum != w.expected() {
                tally.fail(format!(
                    "pass checksum {:016x} != warm-up's {:016x}",
                    out.checksum,
                    w.expected()
                ));
            }
            Some(TimedPass {
                seconds,
                out,
                counters: w.counters().delta(&before),
            })
        }
        Err(e) => {
            tally.fail(format!("pass returned an error: {e}"));
            None
        }
    }
}

/// Builds the workload from its seed: input generation, federation spawn,
/// installing partitions / compaction, warm-up pass and oracle check.
fn set_up(args: &RunArgs, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
    // Every workload pins the pool width itself; start from serial.
    exdra_par::set_threads(1);
    workloads::recipe(&args.workload, args.seed, args.smoke)
        .expect("run() checked the workload name")
        .build(tr)
}

fn print_metric(m: &MetricSpec, v: f64) {
    println!("  {:<28} {:>16.6} {}", m.name, v, m.unit);
}

/// Runs one workload and returns what it measured. `Err` is a harness
/// failure (unknown workload, unusable scratch directory), not a failed
/// operation.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if !spec::workload_names().contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            spec::workload_names()
        ));
    }
    let scratch = enter_scratch().map_err(|e| format!("scratch directory: {e}"))?;
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke sizes)" } else { "" }
    );
    println!("host {}", host_json().render());
    let result = if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_untraced(args: &RunArgs) -> Result<RunResult, String> {
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let mut setups: Vec<f64> = Vec::with_capacity(SETUP_REPS_MAX);
    let mut state: Option<Box<dyn Workload>> = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < SETUP_REPS_MAX)
    {
        if let Some(prev) = state.take() {
            prev.teardown();
        }
        let t0 = Instant::now();
        let built = set_up(args, &tr);
        setups.push(t0.elapsed().as_secs_f64());
        tally.attempted += 1;
        match built {
            Ok(w) => state = Some(w),
            Err(e) => {
                tally.fail(format!("set-up: {e}"));
                break;
            }
        }
    }

    let mut passes: Vec<TimedPass> = Vec::new();
    if let Some(w) = state.as_deref_mut() {
        let budget = Duration::from_secs_f64(args.seconds);
        let t_loop = Instant::now();
        let mut runs = 0usize;
        // Closed loop: the next pass starts when the previous one ended.
        while t_loop.elapsed() < budget || runs < MIN_TIMED_PASSES {
            passes.extend(timed_pass(w, &tr, &mut tally));
            runs += 1;
        }
    }
    if let Some(w) = state.take() {
        w.teardown();
    }

    let times = sorted(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>());
    let metrics: Vec<(&MetricSpec, f64)> = spec::END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => median(&setups),
                "pass_p50_s" => median_sorted(&times),
                other => unreachable!("end-to-end metric {other} is not measured"),
            };
            (m, v)
        })
        .collect();

    println!(
        "end-to-end ({} timed passes, {} set-ups):",
        times.len(),
        setups.len()
    );
    for (m, v) in &metrics {
        print_metric(m, *v);
    }
    println!("diagnostics:");
    println!(
        "  {:<28} {:>16.6} s",
        "pass_max_s",
        times.last().copied().unwrap_or(0.0)
    );
    println!(
        "  {:<28} {:>16.6} s",
        "pass_min_s",
        times.first().copied().unwrap_or(0.0)
    );
    println!("  {:<28} {:>16.6} MiB", "peak_rss_mb", peak_rss_mib());
    println!("  set-ups (s): {setups:.3?}");
    print_latencies(&passes);
    println!(
        "  {:<28} {:>16.6}",
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Per-request latency and recovery percentiles of the workloads that
/// have them, as `(compute_p50_ms, compute_p95_ms, recovery_p50_ms)`.
fn latency_summary(passes: &[TimedPass]) -> (f64, f64, f64) {
    let lat = sorted(
        &passes
            .iter()
            .flat_map(|p| p.out.op_latencies_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let rec: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.out.recovery_ms.iter().copied())
        .collect();
    let p95 = if tail_is_resolved(lat.len(), 0.95) {
        percentile_sorted(&lat, 0.95)
    } else {
        0.0
    };
    (median_sorted(&lat), p95, median(&rec))
}

fn print_latencies(passes: &[TimedPass]) {
    let n: usize = passes.iter().map(|p| p.out.op_latencies_ms.len()).sum();
    let (p50, p95, rec) = latency_summary(passes);
    if n > 0 {
        println!("  {:<28} {:>16.6} ms ({n} samples)", "compute_p50_ms", p50);
        println!("  {:<28} {:>16.6} ms", "compute_p95_ms", p95);
    }
    if rec > 0.0 {
        println!("  {:<28} {:>16.6} ms", "recovery_p50_ms", rec);
    }
}

fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let mut layer: LayerMetrics = spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();

    tally.attempted += 1;
    let t0 = Instant::now();
    let mut w = match set_up(args, &tr) {
        Ok(w) => w,
        Err(e) => {
            tally.fail(format!("set-up: {e}"));
            return Ok(RunResult {
                correct: false,
                attempted: tally.attempted,
                failed: tally.failed,
                metrics: spec::PER_LAYER.iter().map(|m| (m, 0.0)).collect(),
            });
        }
    };
    println!("set-up {:.3} s", t0.elapsed().as_secs_f64());

    // Untraced and traced passes alternate, so drift over the run cancels
    // out of their difference. The probes get the rest of the budget.
    let budget = Duration::from_secs_f64(args.seconds * 0.6);
    let t_loop = Instant::now();
    let (mut plain, mut traced): (Vec<TimedPass>, Vec<TimedPass>) = (Vec::new(), Vec::new());
    let mut pass_id = 0u32;
    while t_loop.elapsed() < budget || (pass_id as usize) < MIN_TRACED_PASSES {
        tr.set_enabled(false);
        plain.extend(timed_pass(w.as_mut(), &tr, &mut tally));
        tr.set_enabled(true);
        tr.set_pass(pass_id);
        traced.extend(timed_pass(w.as_mut(), &tr, &mut tally));
        pass_id += 1;
    }
    let secs = |ps: &[TimedPass]| ps.iter().map(|p| p.seconds).collect::<Vec<_>>();
    let plain_p50 = median(&secs(&plain));
    let traced_p50 = median(&secs(&traced));

    // Share of the traced passes' time that named child spans account
    // for: 1 - (self time of the `pass` spans / their duration).
    let pass_spans = tr.spans();
    let selfs = self_times_ns(&pass_spans);
    let (mut pass_ns, mut pass_self_ns) = (0u64, 0u64);
    for (s, self_ns) in pass_spans.iter().zip(&selfs) {
        if s.name == "pass" {
            pass_ns += s.end_ns - s.start_ns;
            pass_self_ns += self_ns;
        }
    }

    let all: Vec<&TimedPass> = plain.iter().chain(&traced).collect();
    let per_pass = |f: fn(&Counters) -> u64| {
        median(
            &all.iter()
                .map(|p| f(&p.counters) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let counters = Counters {
        wire_bytes: per_pass(|c| c.wire_bytes) as u64,
        bytes_received: per_pass(|c| c.bytes_received) as u64,
        messages: per_pass(|c| c.messages) as u64,
        messages_received: per_pass(|c| c.messages_received) as u64,
        requests: per_pass(|c| c.requests) as u64,
        max_inflight: all
            .iter()
            .map(|p| p.counters.max_inflight)
            .max()
            .unwrap_or(0),
    };
    layer.insert("wire_bytes_per_pass", counters.wire_bytes as f64);
    layer.insert("messages_per_pass", counters.messages as f64);
    layer.insert(
        "round_trips_per_pass",
        counters.messages_received as f64 / workloads::WORKERS as f64,
    );
    layer.insert("requests_per_pass", counters.requests as f64);
    layer.insert("max_inflight", counters.max_inflight as f64);
    let (c50, c95, rec) = latency_summary(&plain);
    layer.insert("compute_p50_ms", c50);
    layer.insert("compute_p95_ms", c95);
    layer.insert("recovery_p50_ms", rec);
    layer.insert("pass_max_s", secs(&plain).into_iter().fold(0.0, f64::max));
    layer.insert("peak_rss_mb", peak_rss_mib());
    if plain_p50 > 0.0 {
        layer.insert("trace_overhead_share", (traced_p50 - plain_p50) / plain_p50);
    }
    if pass_ns > 0 {
        layer.insert("traced_share", 1.0 - pass_self_ns as f64 / pass_ns as f64);
    }

    tr.set_pass(pass_id);
    tr.span("probes", || {
        w.probe_layers(
            &tr,
            &workloads::PassStats {
                p50_s: plain_p50,
                counters,
            },
            &mut layer,
        )
    });
    tr.set_enabled(false);
    w.teardown();

    let dir = out_dir();
    let path = dir.join(format!("trace.{}.json", args.workload));
    write_artifact(&path, &tr.to_json().render());

    println!(
        "passes: {} untraced (p50 {:.6} s), {} traced (p50 {:.6} s)",
        plain.len(),
        plain_p50,
        traced.len(),
        traced_p50
    );
    println!(
        "self time by span, seconds over {} traced passes and the probes:",
        traced.len()
    );
    for (name, s) in self_seconds_by_name(&tr.spans()) {
        println!("  {name:<28} {s:>12.6}");
    }
    println!("per-layer:");
    let metrics: Vec<(&MetricSpec, f64)> = spec::PER_LAYER
        .iter()
        .map(|m| (m, layer.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    // A layer this workload does not exercise reads 0; the result line
    // carries every metric, the table only the ones that were measured.
    for (m, v) in metrics.iter().filter(|(_, v)| *v != 0.0) {
        print_metric(m, *v);
    }
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Writes a run artifact under [`out_dir`]; a failure is reported and
/// does not fail the run.
pub fn write_artifact(path: &Path, text: &str) {
    let res = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match res {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        for specs in [spec::END_TO_END, spec::PER_LAYER] {
            let result = RunResult {
                correct: true,
                attempted: 1000,
                failed: 0,
                metrics: specs
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (m, 1.2034 + i as f64))
                    .collect(),
            };
            let line = result.result_line().render();
            assert!(!line.contains('\n'));
            let back = Json::parse(&line).expect("result line parses");
            assert_eq!(back, result.result_line());
            let keys: Vec<&str> = back
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            // Every metric is one the benchmark's tables (and so
            // BENCHMARK.json, see spec::tests) declare, with its unit.
            let declared = spec::benchmark_json();
            let section = if std::ptr::eq(specs, spec::END_TO_END) {
                "end_to_end"
            } else {
                "per_layer"
            };
            let names: Vec<&str> = declared
                .get(section)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str))
                .collect();
            let metrics = back.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                names
            );
            for (_, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
