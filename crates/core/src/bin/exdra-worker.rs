//! The standing federated worker as a deployable server binary — the
//! per-site process of the paper's envisioned deployment (Figure 4: "at
//! each federated site, a SystemDS worker is started as a standing server
//! process, receiving federated requests from the coordinator via secure
//! communication channels, and accessing permissioned raw data").
//!
//! ```text
//! exdra-worker --listen 0.0.0.0:8001 --data-dir /srv/site-data \
//!              [--key <passphrase>] [--cache-mb 256] [--no-reuse] \
//!              [--compact-secs 30]
//! ```
//!
//! A coordinator connects with `Session::connect(&["host:8001", ...])` or
//! `FedContext::connect`, optionally with the matching channel key.

use std::time::Duration;

use exdra_core::worker::{Worker, WorkerConfig};
use exdra_net::crypto::ChannelKey;

struct Args {
    listen: String,
    data_dir: std::path::PathBuf,
    key: Option<ChannelKey>,
    cache_mb: usize,
    reuse: bool,
    compact_secs: Option<u64>,
    http: Option<String>,
    metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:8001".into(),
        data_dir: std::env::current_dir().map_err(|e| e.to_string())?,
        key: None,
        cache_mb: 256,
        reuse: true,
        compact_secs: None,
        http: None,
        metrics: true,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0usize;
    while i < argv.len() {
        let flag = argv[i].clone();
        let mut value = || -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--listen" => args.listen = value()?,
            "--data-dir" => args.data_dir = value()?.into(),
            "--key" => args.key = Some(ChannelKey::from_passphrase(&value()?)),
            "--cache-mb" => {
                args.cache_mb = value()?.parse().map_err(|e| format!("--cache-mb: {e}"))?
            }
            "--no-reuse" => args.reuse = false,
            "--http" => args.http = Some(value()?),
            "--no-metrics" => args.metrics = false,
            "--compact-secs" => {
                args.compact_secs = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--compact-secs: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!(
                    "exdra-worker: standing federated worker\n\n\
                     --listen ADDR       bind address (default 127.0.0.1:8001)\n\
                     --data-dir DIR      permissioned raw-data root for READ\n\
                     --key PASSPHRASE    enable encrypted channels\n\
                     --cache-mb N        lineage reuse cache budget (default 256)\n\
                     --no-reuse          disable lineage-based reuse\n\
                     --compact-secs N    background compression sweep period\n\
                     --http ADDR         /healthz + /metrics observability endpoint\n\
                     --no-metrics        leave runtime instrumentation disabled\n\
                     \x20                   (with --http, /metrics exports only zeros)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exdra-worker: {e}");
            std::process::exit(2);
        }
    };
    let encrypted = args.key.is_some();
    let worker = Worker::new(WorkerConfig {
        data_dir: args.data_dir.clone(),
        cache_bytes: args.cache_mb << 20,
        reuse_enabled: args.reuse,
        compact_idle: Duration::from_secs(30),
        compact_period: args.compact_secs.map(Duration::from_secs),
        channel_key: args.key,
    });
    let addr = match worker.serve_tcp(&args.listen) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exdra-worker: cannot bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    println!(
        "exdra-worker listening on {addr} (data dir {:?}, channels {}, reuse {})",
        args.data_dir,
        if encrypted { "encrypted" } else { "plaintext" },
        if args.reuse { "on" } else { "off" },
    );
    if let Some(http_addr) = &args.http {
        // The endpoint exports the process-global registry, but every
        // recording site (rpc.*, par.*, inst.*) gates on the
        // obs enabled flag — flip it on so /metrics actually fills up.
        if args.metrics {
            exdra_obs::set_enabled(true);
        }
        match worker.serve_http(http_addr) {
            Ok(a) => println!("exdra-worker observability on http://{a} (/healthz, /metrics)"),
            Err(e) => {
                eprintln!("exdra-worker: cannot bind --http {http_addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Standing server: serve until the process is terminated.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
