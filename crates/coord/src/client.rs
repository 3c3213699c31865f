//! Client side of the attach protocol.
//!
//! [`AttachedClient::connect`] performs the handshake against a
//! [`crate::CoordServer`] and yields one [`TunnelChannel`] per worker:
//! an ordinary [`Channel`] whose frames travel multiplexed over the
//! single attach socket. A session then builds its own `FedContext`
//! over the tunnels — from the runtime's point of view an attached
//! session is indistinguishable from a directly connected one, except
//! that symbol IDs come from the namespace the server granted and
//! recovery is delegated to the server ([`AttachedClient::recover`]).

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use exdra_core::error::{FedError, Result};
use exdra_core::lineage::CachedEntry;
use exdra_net::codec::Wire;
use exdra_net::transport::{Channel, Duplex, RecvHalf, SendHalf, TcpChannel};

use crate::wire::{ClientFrame, ServerFrame, ATTACH_MAGIC, ATTACH_VERSION};

#[derive(Default)]
struct InboxState {
    frames: VecDeque<Vec<u8>>,
    /// Worker declared down by the server; tunnel I/O fails fast until
    /// a `WorkerUp` clears it.
    down: bool,
    /// The attach socket itself died; terminal.
    closed: bool,
}

/// Per-worker reply queue fed by the demux reader thread.
struct Inbox {
    state: Mutex<InboxState>,
    cond: Condvar,
}

impl Inbox {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(InboxState::default()),
            cond: Condvar::new(),
        })
    }
}

#[derive(Default)]
struct CacheSlot {
    reply: Option<ServerFrame>,
    closed: bool,
}

type SharedTx = Arc<Mutex<Box<dyn SendHalf>>>;

/// State shared between the user-facing [`AttachedClient`] handle, its
/// tunnels, and the demux reader thread. The reader holds *only* this —
/// never the `AttachedClient` itself — so dropping the last user handle
/// runs the detach protocol even while the reader blocks in `recv`.
struct Shared {
    tx: SharedTx,
    inboxes: Vec<Arc<Inbox>>,
    /// Serializes cache probes (one outstanding probe at a time).
    cache_lock: Mutex<()>,
    cache_slot: Mutex<CacheSlot>,
    cache_cond: Condvar,
    detached: Mutex<bool>,
    detach_cond: Condvar,
}

impl Shared {
    fn send(&self, frame: &ClientFrame) -> Result<()> {
        self.tx
            .lock()
            .send(&frame.to_bytes())
            .map_err(FedError::from)
    }

    fn detach(&self) {
        {
            let mut d = self.detached.lock();
            if *d {
                return;
            }
            *d = true;
        }
        if self.send(&ClientFrame::Detach).is_err() {
            return;
        }
        // Bounded wait for the ack (signalled on DetachAck or socket
        // close) so callers can assert teardown completed server-side.
        let d = self.detached.lock();
        drop(self.detach_cond.wait_timeout(d, Duration::from_secs(5)));
    }

    fn run_reader(&self, mut rx: Box<dyn RecvHalf>) {
        while let Ok(raw) = rx.recv() {
            let Ok(frame) = ServerFrame::from_bytes(&raw) else {
                break;
            };
            match frame {
                ServerFrame::Data { worker, payload } => {
                    if let Some(inbox) = self.inboxes.get(worker as usize) {
                        let mut st = inbox.state.lock();
                        st.frames.push_back(payload);
                        inbox.cond.notify_all();
                    }
                }
                ServerFrame::WorkerDown { worker } => {
                    if let Some(inbox) = self.inboxes.get(worker as usize) {
                        let mut st = inbox.state.lock();
                        st.down = true;
                        // Replies from the dead incarnation can never
                        // arrive; wake any blocked receiver into its
                        // fast-fail path.
                        st.frames.clear();
                        inbox.cond.notify_all();
                    }
                }
                ServerFrame::WorkerUp { worker } => {
                    if let Some(inbox) = self.inboxes.get(worker as usize) {
                        let mut st = inbox.state.lock();
                        st.down = false;
                        inbox.cond.notify_all();
                    }
                }
                reply @ (ServerFrame::CacheHit { .. } | ServerFrame::CacheMiss) => {
                    let mut slot = self.cache_slot.lock();
                    slot.reply = Some(reply);
                    self.cache_cond.notify_all();
                }
                ServerFrame::DetachAck => {
                    self.detach_cond.notify_all();
                }
                ServerFrame::Granted { .. } | ServerFrame::Rejected { .. } => break,
            }
        }
        // Socket gone: fail everything fast.
        for inbox in &self.inboxes {
            let mut st = inbox.state.lock();
            st.closed = true;
            inbox.cond.notify_all();
        }
        {
            let mut slot = self.cache_slot.lock();
            slot.closed = true;
            self.cache_cond.notify_all();
        }
        self.detach_cond.notify_all();
    }
}

/// A session attached to a remote coordinator service.
pub struct AttachedClient {
    ns: u64,
    shared: Arc<Shared>,
}

impl AttachedClient {
    /// Connects and performs the attach handshake. Returns the typed
    /// [`FedError::SessionRejected`] when the server is at capacity.
    pub fn connect(addr: &str) -> Result<Arc<Self>> {
        let mut ch = TcpChannel::connect(addr)
            .map_err(|e| FedError::Network(format!("attach {addr}: {e}")))?;
        ch.send(
            &ClientFrame::Attach {
                magic: ATTACH_MAGIC,
                version: ATTACH_VERSION,
            }
            .to_bytes(),
        )
        .map_err(FedError::from)?;
        let reply = ch.recv().map_err(FedError::from)?;
        let (ns, n_workers) = match ServerFrame::from_bytes(&reply)? {
            ServerFrame::Granted { ns, n_workers } => (ns, n_workers as usize),
            ServerFrame::Rejected { active, max } => {
                return Err(FedError::SessionRejected {
                    active: active as usize,
                    max: max as usize,
                })
            }
            other => {
                return Err(FedError::Protocol(format!(
                    "unexpected attach reply {other:?}"
                )))
            }
        };
        let (tx, rx) = Box::new(ch).split();
        let shared = Arc::new(Shared {
            tx: Arc::new(Mutex::new(tx)),
            inboxes: (0..n_workers).map(|_| Inbox::new()).collect(),
            cache_lock: Mutex::new(()),
            cache_slot: Mutex::new(CacheSlot::default()),
            cache_cond: Condvar::new(),
            detached: Mutex::new(false),
            detach_cond: Condvar::new(),
        });
        let reader = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("exdra-attach-reader".into())
            .spawn(move || reader.run_reader(rx))
            .expect("spawn attach reader thread");
        Ok(Arc::new(Self { ns, shared }))
    }

    /// The namespace the server granted this session.
    pub fn namespace(&self) -> u64 {
        self.ns
    }

    /// Fleet size behind the server.
    pub fn num_workers(&self) -> usize {
        self.shared.inboxes.len()
    }

    /// One tunnel [`Channel`] per worker, for `FedContext::from_channels`.
    pub fn tunnels(self: &Arc<Self>) -> Vec<Box<dyn Channel>> {
        (0..self.shared.inboxes.len())
            .map(|w| {
                let inbox = &self.shared.inboxes[w];
                Box::new(Duplex::from_halves(
                    TunnelSendHalf {
                        worker: w as u32,
                        tx: Arc::clone(&self.shared.tx),
                        inbox: Arc::clone(inbox),
                    },
                    TunnelRecvHalf {
                        inbox: Arc::clone(inbox),
                    },
                )) as Box<dyn Channel>
            })
            .collect()
    }

    /// Probes the server's shared plan cache.
    pub fn cache_probe(&self, key: u64) -> Result<Option<CachedEntry>> {
        let shared = &self.shared;
        let _serial = shared.cache_lock.lock();
        {
            let mut slot = shared.cache_slot.lock();
            slot.reply = None;
        }
        shared.send(&ClientFrame::CacheProbe { key })?;
        let mut slot = shared.cache_slot.lock();
        while slot.reply.is_none() && !slot.closed {
            slot = shared.cache_cond.wait(slot);
        }
        match slot.reply.take() {
            Some(ServerFrame::CacheHit {
                privacy,
                releasable,
                value,
            }) => Ok(Some(CachedEntry {
                value: Arc::new(value),
                privacy,
                releasable,
            })),
            Some(ServerFrame::CacheMiss) => Ok(None),
            _ => Err(FedError::Network("attach connection lost".into())),
        }
    }

    /// Publishes a computed plan result into the shared cache
    /// (fire-and-forget).
    pub fn cache_put(&self, key: u64, entry: &CachedEntry) -> Result<()> {
        self.shared.send(&ClientFrame::CachePut {
            key,
            privacy: entry.privacy,
            releasable: entry.releasable,
            value: (*entry.value).clone(),
        })
    }

    /// Asks the service to recover worker `w` (after this session
    /// observed it dead), then waits up to `timeout` for the server's
    /// `WorkerUp`.
    pub fn recover(&self, w: usize, timeout: Duration) -> Result<()> {
        self.shared
            .send(&ClientFrame::Recover { worker: w as u32 })?;
        if self.wait_worker_up(w, timeout) {
            Ok(())
        } else {
            Err(FedError::WorkerDead {
                worker: w,
                msg: "server could not recover the worker in time".into(),
            })
        }
    }

    /// Waits until the server reports worker `w` serviceable.
    pub fn wait_worker_up(&self, w: usize, timeout: Duration) -> bool {
        let Some(inbox) = self.shared.inboxes.get(w) else {
            return false;
        };
        let deadline = Instant::now() + timeout;
        let mut st = inbox.state.lock();
        while st.down && !st.closed {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            st = inbox.cond.wait_timeout(st, deadline - now);
        }
        !st.closed
    }

    /// Detaches cleanly: the server reaps this session's namespace and
    /// acknowledges. Idempotent; also invoked on drop.
    pub fn detach(&self) {
        self.shared.detach();
    }
}

impl Drop for AttachedClient {
    fn drop(&mut self) {
        self.shared.detach();
    }
}

/// A per-worker [`Channel`] whose frames travel over the shared attach
/// socket. Send writes a tagged `Data` frame; receive pops this
/// worker's inbox. While the server reports the worker down, both fail
/// fast with `BrokenPipe` so the context's retry/recovery machinery
/// engages exactly as for a direct connection collapse.
pub type TunnelChannel = Duplex<TunnelSendHalf, TunnelRecvHalf>;

/// Why a tunnel cannot carry traffic right now, if it cannot.
fn unavailable(st: &InboxState) -> Option<io::Error> {
    if st.closed {
        Some(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "attach connection closed",
        ))
    } else if st.down {
        Some(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "worker down (server notification)",
        ))
    } else {
        None
    }
}

/// Send side of a [`TunnelChannel`].
pub struct TunnelSendHalf {
    worker: u32,
    tx: SharedTx,
    inbox: Arc<Inbox>,
}

impl SendHalf for TunnelSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Some(e) = unavailable(&self.inbox.state.lock()) {
            return Err(e);
        }
        self.tx.lock().send(
            &ClientFrame::Data {
                worker: self.worker,
                payload: payload.to_vec(),
            }
            .to_bytes(),
        )
    }
}

/// Receive side of a [`TunnelChannel`].
pub struct TunnelRecvHalf {
    inbox: Arc<Inbox>,
}

impl RecvHalf for TunnelRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut st = self.inbox.state.lock();
        loop {
            if let Some(frame) = st.frames.pop_front() {
                return Ok(frame);
            }
            if let Some(e) = unavailable(&st) {
                return Err(e);
            }
            st = self.inbox.cond.wait(st);
        }
    }
}
