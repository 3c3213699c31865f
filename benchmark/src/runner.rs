//! `run`: every workload, each in a fresh child process of this binary,
//! so the process-global obs registry, the `exdra-par` width and the
//! peak RSS of one workload cannot leak into the next. Collects the
//! children's result lines into one result file for `compare`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::gen::{DEFAULT_SEED, HELD_OUT_SEED};
use crate::harness::{host_json, out_dir, write_artifact};
use crate::json::Json;
use crate::spec;

pub struct RunAll {
    pub seed: u64,
    pub seconds: f64,
    /// How many times every workload is run; `compare` takes medians
    /// over the sets and calls a metric unresolved when their spread is
    /// wider than its bound.
    pub sets: usize,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// First line of a tool's output, or `"unknown"` (the driver's checkout
/// is not a git repository, and `rustc` may not be on the path).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in a child and returns its parsed result line.
fn run_child(workload: &str, opts: &RunAll, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("  | {line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

/// Appends the metric values of one child result to `into`, a map
/// `metric -> {unit, values}`.
fn collect(into: &mut Vec<(String, Json)>, result: &Json) {
    let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    for (name, m) in metrics {
        let value = m.get("value").cloned().unwrap_or(Json::Null);
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, Json::Obj(pairs))) => {
                if let Some((_, Json::Arr(values))) = pairs.iter_mut().find(|(k, _)| k == "values")
                {
                    values.push(value);
                }
            }
            _ => into.push((
                name.clone(),
                Json::obj(vec![
                    ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                    ("values", Json::Arr(vec![value])),
                ]),
            )),
        }
    }
}

/// Runs the selected workloads; returns whether every output was correct.
pub fn run_all(opts: &RunAll) -> Result<bool, String> {
    let names = spec::workload_names();
    let mut host = host_json();
    if let Json::Obj(pairs) = &mut host {
        pairs.push((
            "rustc".into(),
            Json::Str(tool_line("rustc", &["--version"])),
        ));
        pairs.push((
            "commit".into(),
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ));
    }
    println!("host {}", host.render());
    if host.get("load_flagged") == Some(&Json::Bool(true)) {
        println!(
            "warning: 1-minute load average is above half the cores; timings will be unsteady"
        );
    }

    let mut all_correct = true;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for name in &names {
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut end_to_end: Vec<(String, Json)> = Vec::new();
        let mut per_layer: Vec<(String, Json)> = Vec::new();
        for set in 0..opts.sets {
            for trace in [false, true] {
                println!(
                    "== {name} (set {} of {}, trace {}) ==",
                    set + 1,
                    opts.sets,
                    u8::from(trace)
                );
                let r = run_child(name, opts, trace)?;
                attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                correct &= r.get("correct") == Some(&Json::Bool(true));
                collect(
                    if trace {
                        &mut per_layer
                    } else {
                        &mut end_to_end
                    },
                    &r,
                );
            }
        }
        all_correct &= correct;
        workloads.push((
            name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "failed_share",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        1.0
                    }),
                ),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }

    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("seed", Json::Str(opts.seed.to_string())),
        ("default_seed", Json::Str(DEFAULT_SEED.to_string())),
        ("held_out_seed", Json::Str(HELD_OUT_SEED.to_string())),
        ("run_seconds", Json::Num(opts.seconds)),
        ("sets", Json::Num(opts.sets as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("host", host),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("run.{}.json", opts.seed)));
    write_artifact(&path, &doc.pretty());
    println!("every output correct: {all_correct}");
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_appends_values_per_metric_across_sets() {
        let line = |v: f64| {
            Json::parse(&format!(
                "{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"pass_p50_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}"
            ))
            .unwrap()
        };
        let mut into = Vec::new();
        collect(&mut into, &line(1.5));
        collect(&mut into, &line(1.25));
        let doc = Json::Obj(into);
        let m = doc.get("pass_p50_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            m.get("values").unwrap().as_arr().unwrap(),
            [Json::Num(1.5), Json::Num(1.25)]
        );
    }
}
