//! The repo's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! exdra-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>   one workload, one process
//! exdra-benchmark run [--seed <u64>] [--seconds <s>] [--sets <n>] [--smoke] [--out <file>]
//! exdra-benchmark compare <a.json> <b.json> [--spec <BENCHMARK.json>]
//! exdra-benchmark spec                                                         prints BENCHMARK.json
//! ```

mod compare;
mod gen;
mod harness;
mod json;
mod probes;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Flags after the subcommand, as `(flag, value)` pairs plus positionals.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// `switches` are the flags that take no value.
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                out.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("missing value for {a}"))?;
                out.flags.push((a.clone(), v.clone()));
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

/// `--seed` as a `u64`; a negative number is taken by its bit pattern.
fn seed_arg(a: &Args) -> Result<u64, String> {
    match a.get("--seed") {
        None => Ok(gen::DEFAULT_SEED),
        Some(v) => v
            .parse::<u64>()
            .or_else(|_| v.parse::<i64>().map(|s| s as u64))
            .map_err(|_| format!("bad value {v:?} for --seed")),
    }
}

fn workload_main(raw: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(raw, &["--smoke"])?;
    a.reject_unknown(&["--workload", "--seed", "--seconds", "--trace"])?;
    let args = harness::RunArgs {
        workload: a
            .get("--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: seed_arg(&a)?,
        seconds: a.num("--seconds", spec::RUN_SECONDS as f64)?,
        trace: match a.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: a.has("--smoke"),
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            args.seconds
        ));
    }
    let result = harness::run(&args)?;
    // The result is the last line of standard output.
    println!("{}", result.result_line().render());
    Ok(ExitCode::SUCCESS)
}

fn run_main(raw: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(raw, &["--smoke"])?;
    a.reject_unknown(&["--seed", "--seconds", "--sets", "--out"])?;
    let opts = runner::RunAll {
        seed: seed_arg(&a)?,
        seconds: a.num("--seconds", spec::RUN_SECONDS as f64)?,
        sets: a.num("--sets", 1usize)?.max(1),
        smoke: a.has("--smoke"),
        out: a.get("--out").map(Into::into),
    };
    Ok(if runner::run_all(&opts)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_main(raw: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["--spec"])?;
    let [base, new] = a.positional.as_slice() else {
        return Err("compare takes two result files: <a.json> <b.json>".into());
    };
    let spec_path = a.get("--spec").unwrap_or("BENCHMARK.json");
    let verdict = compare::compare_files(base, new, spec_path)?;
    print!("{}", verdict.table);
    Ok(if verdict.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("run") => run_main(&raw[1..]),
        Some("compare") => compare_main(&raw[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => workload_main(&raw),
        None => Err("no arguments; see benchmark/README.md".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
