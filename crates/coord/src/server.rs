//! TCP front door of a [`CoordService`].
//!
//! One socket per attached session carries the handshake, opaque
//! per-worker RPC payloads, shared-cache probes, and worker liveness
//! notices (see [`crate::wire`]). The server never decodes tenant RPC
//! traffic: a `Data` frame is forwarded verbatim to the session's
//! dedicated connection for that worker, and every worker reply is
//! pumped back tagged with its worker index. Fairness is enforced here,
//! at dispatch: each forwarded request takes one credit from the
//! session's [`crate::FairScheduler`] budget, released when its reply
//! (or the worker's death) comes back.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use exdra_core::error::{FedError, Result};
use exdra_core::lineage::CachedEntry;
use exdra_net::codec::Wire;
use exdra_net::transport::{Channel, RecvHalf, SendHalf, TcpServer};

use crate::service::CoordService;
use crate::wire::{ClientFrame, ServerFrame, ATTACH_MAGIC, ATTACH_VERSION};

/// A listening coordinator endpoint accepting [`crate::AttachedClient`]
/// sessions for its [`CoordService`].
pub struct CoordServer {
    service: Arc<CoordService>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl CoordServer {
    /// Binds `addr` (port 0 for ephemeral) and starts accepting
    /// sessions on a background thread.
    pub fn serve(service: Arc<CoordService>, addr: &str) -> Result<Arc<Self>> {
        let listener = TcpServer::bind(addr).map_err(FedError::from)?;
        let local = listener.local_addr().map_err(FedError::from)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_service = Arc::clone(&service);
        let accept_shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("exdra-coord-accept".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok(ch) => {
                        if accept_shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let service = Arc::clone(&accept_service);
                        std::thread::spawn(move || {
                            serve_client(service, Box::new(ch));
                        });
                    }
                    Err(_) => return,
                }
            })
            .expect("spawn coord accept thread");
        Ok(Arc::new(Self {
            service,
            addr: local,
            shutdown,
        }))
    }

    /// The bound address clients attach to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this endpoint.
    pub fn service(&self) -> &Arc<CoordService> {
        &self.service
    }

    /// Stops accepting new sessions (existing sessions keep running).
    pub fn stop(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = std::net::TcpStream::connect(self.addr);
    }
}

impl Drop for CoordServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Dispatch side of one session's dedicated connection to one worker.
struct WorkerLink {
    /// Send half; `None` while the worker is down.
    tx: Mutex<Option<Box<dyn SendHalf>>>,
    /// Requests forwarded but not yet answered (credits to return if
    /// the pump dies).
    outstanding: Arc<AtomicU64>,
}

type SharedTx = Arc<Mutex<Box<dyn SendHalf>>>;

fn send_frame(tx: &SharedTx, frame: &ServerFrame) -> std::io::Result<()> {
    tx.lock().send(&frame.to_bytes())
}

/// Starts the reply pump for one (session, worker) channel: forwards
/// every worker reply to the client, returning one scheduler credit
/// each. On channel death it returns all outstanding credits and
/// notifies the client with `WorkerDown`.
fn spawn_pump(
    service: &Arc<CoordService>,
    ns: u64,
    worker: u32,
    mut rx: Box<dyn RecvHalf>,
    client_tx: SharedTx,
    outstanding: Arc<AtomicU64>,
) {
    let service = Arc::clone(service);
    std::thread::Builder::new()
        .name(format!("exdra-coord-pump-{ns}-{worker}"))
        .spawn(move || loop {
            match rx.recv() {
                Ok(payload) => {
                    // Floor at zero: the connection loop may already have
                    // swept this link's credits during teardown.
                    let swept = outstanding
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_err();
                    if !swept {
                        service.scheduler().release(ns, 1);
                    }
                    if send_frame(&client_tx, &ServerFrame::Data { worker, payload }).is_err() {
                        return; // client gone; connection loop cleans up
                    }
                }
                Err(_) => {
                    let leaked = outstanding.swap(0, Ordering::SeqCst);
                    service.scheduler().release(ns, leaked);
                    let _ = send_frame(&client_tx, &ServerFrame::WorkerDown { worker });
                    return;
                }
            }
        })
        .expect("spawn coord pump thread");
}

/// Splits a fresh worker channel into a dispatch half + running pump.
fn install_link(
    service: &Arc<CoordService>,
    ns: u64,
    worker: u32,
    channel: Box<dyn Channel>,
    client_tx: &SharedTx,
) -> WorkerLink {
    let outstanding = Arc::new(AtomicU64::new(0));
    let (tx, rx) = channel.split();
    spawn_pump(
        service,
        ns,
        worker,
        rx,
        Arc::clone(client_tx),
        Arc::clone(&outstanding),
    );
    WorkerLink {
        tx: Mutex::new(Some(tx)),
        outstanding,
    }
}

fn serve_client(service: Arc<CoordService>, channel: Box<dyn Channel>) {
    let (client_tx, mut client_rx) = channel.split();
    let client_tx = Arc::new(Mutex::new(client_tx));

    // Handshake.
    let Ok(first) = client_rx.recv() else { return };
    match ClientFrame::from_bytes(&first) {
        Ok(ClientFrame::Attach { magic, version })
            if magic == ATTACH_MAGIC && version == ATTACH_VERSION => {}
        _ => return,
    }
    let (ns, channels, stats) = match service.open_session_raw() {
        Ok(granted) => granted,
        Err(FedError::SessionRejected { active, max }) => {
            let _ = send_frame(
                &client_tx,
                &ServerFrame::Rejected {
                    active: active as u64,
                    max: max as u64,
                },
            );
            return;
        }
        Err(_) => return,
    };
    let n_workers = channels.len() as u32;
    let mut links: Vec<WorkerLink> = channels
        .into_iter()
        .enumerate()
        .map(|(w, ch)| install_link(&service, ns, w as u32, ch, &client_tx))
        .collect();
    if send_frame(&client_tx, &ServerFrame::Granted { ns, n_workers }).is_err() {
        service.close_namespace(ns);
        return;
    }

    // Session loop: ends on Detach or client disconnect; either way the
    // namespace is reaped (a killed client must not leak worker state).
    while let Ok(raw) = client_rx.recv() {
        let Ok(frame) = ClientFrame::from_bytes(&raw) else {
            break;
        };
        match frame {
            ClientFrame::Data { worker, payload } => {
                let Some(link) = links.get(worker as usize) else {
                    break;
                };
                let obs_on = exdra_obs::enabled();
                // One span per forwarded frame, parented under the
                // remote client's rpc span (its context leads every
                // envelope), so
                // stitched traces show the coordinator hop between
                // `rpc.call` and `worker.batch`.
                let mut fwd = if obs_on {
                    exdra_net::framing::peek_trace(&payload).map(|(trace_id, span_id)| {
                        let mut s = exdra_obs::span_child_of(
                            exdra_obs::SpanKind::Other,
                            "coord.forward",
                            exdra_obs::TraceContext { trace_id, span_id },
                        );
                        s.attr("ns", ns);
                        s.attr("worker", worker);
                        s.attr("bytes", payload.len());
                        s
                    })
                } else {
                    None
                };
                let t_credit = obs_on.then(std::time::Instant::now);
                service.scheduler().acquire(ns, 1);
                if let Some(t) = t_credit {
                    let wait = t.elapsed().as_nanos() as u64;
                    let reg = exdra_obs::global();
                    reg.record("coord.credit_wait", wait);
                    reg.record(&format!("tenant.{ns}.credit_wait_nanos"), wait);
                    if let Some(s) = fwd.as_mut() {
                        s.attr("credit_wait_nanos", wait);
                    }
                }
                link.outstanding.fetch_add(1, Ordering::SeqCst);
                let failed = {
                    let mut tx = link.tx.lock();
                    match tx.as_mut() {
                        Some(t) => t.send(&payload).is_err(),
                        None => true,
                    }
                };
                if failed {
                    let swept = link
                        .outstanding
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_err();
                    if !swept {
                        service.scheduler().release(ns, 1);
                    }
                    *link.tx.lock() = None;
                    let _ = send_frame(&client_tx, &ServerFrame::WorkerDown { worker });
                }
            }
            ClientFrame::CacheProbe { key } => {
                let reply = match service.plan_cache().probe(key) {
                    Some(entry) => {
                        stats.record_probe(true);
                        ServerFrame::CacheHit {
                            privacy: entry.privacy,
                            releasable: entry.releasable,
                            value: (*entry.value).clone(),
                        }
                    }
                    None => {
                        stats.record_probe(false);
                        ServerFrame::CacheMiss
                    }
                };
                if send_frame(&client_tx, &reply).is_err() {
                    break;
                }
            }
            ClientFrame::CachePut {
                key,
                privacy,
                releasable,
                value,
            } => {
                service.plan_cache().insert(
                    key,
                    CachedEntry {
                        value: Arc::new(value),
                        privacy,
                        releasable,
                    },
                );
            }
            ClientFrame::Recover { worker } => {
                let w = worker as usize;
                let up = service.recover_worker(w).is_ok()
                    && match service.make_channel(w) {
                        Ok(fresh) => {
                            let link = install_link(&service, ns, worker, fresh, &client_tx);
                            links[w] = link;
                            true
                        }
                        Err(_) => false,
                    };
                let note = if up {
                    ServerFrame::WorkerUp { worker }
                } else {
                    ServerFrame::WorkerDown { worker }
                };
                if send_frame(&client_tx, &note).is_err() {
                    break;
                }
            }
            ClientFrame::Detach => {
                service.close_namespace(ns);
                let _ = send_frame(&client_tx, &ServerFrame::DetachAck);
                // Return any credit a dead pump failed to give back.
                for link in &links {
                    let leaked = link.outstanding.swap(0, Ordering::SeqCst);
                    service.scheduler().release(ns, leaked);
                }
                return;
            }
            ClientFrame::Attach { .. } => break, // double handshake
        }
    }
    // Abnormal exit (client killed mid-run): reap the namespace and
    // return leaked credits; other sessions are unaffected.
    for link in &links {
        let leaked = link.outstanding.swap(0, Ordering::SeqCst);
        service.scheduler().release(ns, leaked);
    }
    service.close_namespace(ns);
}
