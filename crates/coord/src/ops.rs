//! HTTP ops endpoint of a [`CoordService`]: the operator-facing view of
//! a running multi-tenant coordinator.
//!
//! Four routes, all read-only:
//!
//! - `GET /healthz` — liveness probe with active-session and fleet
//!   counts;
//! - `GET /metrics` — the process-global `exdra-obs` registry in
//!   Prometheus text exposition format (per-tenant `tenant.<ns>.*`
//!   latency/queue-wait/credit-wait series included);
//! - `GET /sessions` — the live session table as JSON: namespace, kind
//!   (in-process tenant vs remote attach), admission time, and
//!   per-session shared-cache attribution;
//! - `GET /incidents` — recent flight-recorder incidents (kind, detail,
//!   time, bundle path) as JSON.
//!
//! Like the worker's endpoint, it is [`exdra_obs::http::serve`]'s, which
//! answers `/metrics` itself.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use exdra_core::error::{FedError, Result};
use exdra_obs::export::json_escape_into;
use exdra_obs::http::{Reply, Routes, JSON, TEXT};
use parking_lot::Mutex;

use crate::service::{CoordService, SessionInfo};

/// A running ops endpoint (see module docs). Stops when dropped.
pub struct OpsServer {
    addr: SocketAddr,
    ops: Arc<Ops>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

/// What the endpoint serves, and its stop flag.
struct Ops {
    service: Arc<CoordService>,
    shutdown: AtomicBool,
}

impl OpsServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving the ops
    /// routes for `service` on a background thread.
    pub fn serve(service: Arc<CoordService>, addr: &str) -> Result<OpsServer> {
        let ops = Arc::new(Ops {
            service,
            shutdown: AtomicBool::new(false),
        });
        let (local, accept) = exdra_obs::http::serve(addr, "exdra-coord-ops", Arc::clone(&ops))
            .map_err(|e| FedError::Network(format!("bind {addr}: {e}")))?;
        Ok(OpsServer {
            addr: local,
            ops,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address of the endpoint.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting requests and joins the accept thread, as
    /// `Worker::shutdown` does. Idempotent; called on drop.
    pub fn stop(&self) {
        if self.ops.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let knock = std::net::TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.lock().take() {
            if knock.is_ok() || accept.is_finished() {
                let _ = accept.join();
            }
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Renders the live session table as a JSON array.
pub fn sessions_json(sessions: &[SessionInfo]) -> String {
    let mut out = String::from("[");
    for (i, s) in sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"ns\":{},\"kind\":", s.ns));
        json_escape_into(&mut out, s.kind);
        out.push_str(&format!(
            ",\"opened_unix_ms\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
            s.opened_unix_ms,
            s.stats.cache_hits.load(Ordering::Relaxed),
            s.stats.cache_misses.load(Ordering::Relaxed)
        ));
    }
    out.push(']');
    out
}

impl Routes for Ops {
    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn route(&self, path: &str) -> Reply {
        let service = &self.service;
        Some(match path {
            "/healthz" => (
                TEXT,
                format!(
                    "ok sessions={} workers={} inflight={}\n",
                    service.active_sessions(),
                    service.num_workers(),
                    service.scheduler().inflight()
                ),
            ),
            "/sessions" => (JSON, sessions_json(&service.sessions())),
            "/incidents" => (JSON, exdra_obs::recorder::incidents_json()),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_obs::export::Json;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn routes_answer_and_stop_joins_the_accept_thread() {
        let (ctx, _workers) = exdra_core::testutil::mem_federation(1);
        let config = crate::CoordConfig {
            max_sessions: 1,
            ..Default::default()
        };
        let service = CoordService::start(crate::FleetSource::Context(ctx), config).unwrap();
        let ops = OpsServer::serve(service, "127.0.0.1:0").unwrap();
        let healthz = get(ops.addr(), "/healthz");
        assert!(healthz.starts_with("HTTP/1.0 200 OK\r\n"), "{healthz}");
        assert!(healthz.ends_with("ok sessions=0 workers=1 inflight=0\n"));
        assert!(get(ops.addr(), "/sessions").ends_with("\r\n\r\n[]"));
        assert!(get(ops.addr(), "/nope").starts_with("HTTP/1.0 404 Not Found\r\n"));
        ops.stop();
        assert!(ops.accept.lock().is_none(), "joined");
        assert!(std::net::TcpStream::connect(ops.addr()).is_err(), "closed");
    }

    #[test]
    fn sessions_json_renders_and_parses() {
        let stats = Arc::new(crate::service::TenantStats::default());
        stats.record_probe(true);
        stats.record_probe(false);
        let rows = vec![
            SessionInfo {
                ns: 1,
                kind: "tenant",
                opened_unix_ms: 42,
                stats: Arc::clone(&stats),
            },
            SessionInfo {
                ns: 2,
                kind: "remote",
                opened_unix_ms: 43,
                stats,
            },
        ];
        let doc = Json::parse(&sessions_json(&rows)).expect("valid json");
        let Json::Arr(items) = doc else {
            panic!("array expected")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("ns").and_then(Json::as_f64), Some(1.0));
        assert_eq!(items[1].get("kind").and_then(Json::as_str), Some("remote"));
        assert_eq!(items[0].get("cache_hits").and_then(Json::as_f64), Some(1.0));
        assert!(Json::parse(&sessions_json(&[])).is_ok());
    }
}
