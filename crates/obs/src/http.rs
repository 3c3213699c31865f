//! The HTTP/1.0 responder behind the ops endpoints of workers and the
//! coordinator daemon.
//!
//! Deliberately tiny: one accept thread, a thread and one request per
//! connection, no keep-alive. It serves probes and scrapers, not
//! application traffic. `GET /metrics` (the global registry as
//! Prometheus text) is built in; the caller's routes answer every other
//! path.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::to_prometheus;
use crate::metrics::global;

/// Content type of a plain-text reply.
pub const TEXT: &str = "text/plain; charset=utf-8";
/// Content type of a JSON reply.
pub const JSON: &str = "application/json";

/// A route's answer to one path: its content type and body, or `None`
/// for a `404`.
pub type Reply = Option<(&'static str, String)>;

/// What an endpoint adds to the built-in `/metrics`.
pub trait Routes: Send + Sync + 'static {
    /// Whether the owner has asked the endpoint to stop.
    fn stopped(&self) -> bool;
    /// The reply to a `GET` of `path`.
    fn route(&self, path: &str) -> Reply;
}

/// Binds `addr` and serves `routes` on a thread named `thread` until
/// `routes.stopped()` holds when a connection arrives (the owner knocks
/// with a throwaway connection to stop it, then joins the returned
/// handle). Returns the bound address.
pub fn serve(
    addr: &str,
    thread: &str,
    routes: Arc<impl Routes>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let accept = std::thread::Builder::new()
        .name(thread.into())
        .spawn(move || {
            for stream in listener.incoming() {
                if routes.stopped() {
                    return;
                }
                let Ok(mut stream) = stream else { return };
                let routes = Arc::clone(&routes);
                std::thread::spawn(move || {
                    let _ = respond(&mut stream, &*routes);
                });
            }
        })?;
    Ok((local, accept))
}

/// Reads one request line and writes the reply.
fn respond(stream: &mut TcpStream, routes: &impl Routes) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut line = String::new();
    BufReader::new(&mut *stream).read_line(&mut line)?;
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let reply = match path {
        "/metrics" => Some((
            "text/plain; version=0.0.4",
            to_prometheus(&global().snapshot()),
        )),
        _ => routes.route(path),
    };
    let (status, (content_type, body)) = match reply {
        Some(found) => ("200 OK", found),
        None => ("404 Not Found", (TEXT, "not found\n".into())),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}
