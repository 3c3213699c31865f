//! Blocking message channels: one duplex stack, every layer written once.
//!
//! [`Channel`] is the single abstraction the federated runtime talks to:
//! it moves opaque message payloads in both directions, and it always
//! [`Channel::split`]s into an independently owned [`SendHalf`] and
//! [`RecvHalf`] — which is what lets the coordinator's attach server
//! forward a session's requests on one thread while a pump per worker
//! returns the replies (see `framing` for the correlation-tag layout).
//!
//! Like the handlers of the Netty pipeline this crate stands in for, each
//! transport and each layer is written exactly once, as a send half and a
//! receive half. [`Duplex`] pairs any two halves back into a [`Channel`],
//! and every concrete channel is an alias of it:
//!
//! * [`TcpChannel`] — real sockets with length-prefixed framing (the
//!   production path; workers are standing TCP servers),
//! * [`MemChannel`] — crossbeam-backed in-process pair for deterministic
//!   tests,
//! * [`EncryptedChannel`] — ChaCha20 seal/open around any inner channel,
//! * [`ShapedChannel`] — WAN simulation around any inner channel,
//! * [`InstrumentedChannel`] — byte/message/time accounting around any
//!   inner channel.
//!
//! Layers compose: the Figure 6 "WAN + SSL" configuration is
//! `Instrumented(Shaped(Encrypted(Tcp)))`. Fault injection
//! (`exdra_fault::FaultyChannel`) and the coordinator's attach tunnels
//! (`exdra_coord::TunnelChannel`) are layers built the same way in their
//! own crates.
//!
//! # Adding a layer
//!
//! 1. Write a send half holding the inner `Box<dyn SendHalf>` plus the
//!    layer's send-side state and implement [`SendHalf`] for it; do the
//!    same for the receive side. State both directions need (a kill flag,
//!    a stats bundle) is shared through an `Arc`.
//! 2. Write one constructor that splits the inner channel, wraps the two
//!    halves and pairs them with [`Duplex::from_halves`].
//!
//! There is no third step: [`Duplex`] supplies `send`, `recv` and `split`,
//! so a layer behaves identically whether it is used whole or split.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::crypto::{ChannelKey, CipherState};
use crate::framing::{read_frame, write_frame};
use crate::sim::NetProfile;
use crate::stats::NetStats;

/// A blocking, message-oriented, bidirectional channel.
pub trait Channel: Send {
    /// Sends one message.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;
    /// Receives one message, blocking until available.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
    /// Separates the channel into independently owned send and receive
    /// halves so one thread can keep receiving while others send.
    fn split(self: Box<Self>) -> (Box<dyn SendHalf>, Box<dyn RecvHalf>);
}

/// The sending half of a [`Channel`].
pub trait SendHalf: Send {
    /// Sends one message.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;
}

/// The receiving half of a [`Channel`].
pub trait RecvHalf: Send {
    /// Receives one message, blocking until available.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
}

impl<S: SendHalf + ?Sized> SendHalf for Box<S> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        (**self).send(payload)
    }
}

impl<R: RecvHalf + ?Sized> RecvHalf for Box<R> {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        (**self).recv()
    }
}

impl<C: Channel + ?Sized> Channel for Box<C> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        (**self).send(payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        (**self).recv()
    }

    fn split(self: Box<Self>) -> (Box<dyn SendHalf>, Box<dyn RecvHalf>) {
        C::split(*self)
    }
}

/// The [`Channel`] made of a send half and a receive half.
///
/// This is the only `Channel` implementation the transport stack needs:
/// transports and layers define halves, and their constructors return the
/// pair.
pub struct Duplex<S, R> {
    tx: S,
    rx: R,
}

impl<S, R> Duplex<S, R> {
    /// Pairs two halves into a channel.
    pub fn from_halves(tx: S, rx: R) -> Self {
        Self { tx, rx }
    }
}

impl<S: SendHalf + 'static, R: RecvHalf + 'static> Channel for Duplex<S, R> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx.send(payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.rx.recv()
    }

    fn split(self: Box<Self>) -> (Box<dyn SendHalf>, Box<dyn RecvHalf>) {
        let Self { tx, rx } = *self;
        (Box::new(tx), Box::new(rx))
    }
}

/// Socket-level timeout configuration for [`TcpChannel`]s.
///
/// All timeouts default to `None` (block forever), preserving the paper's
/// standing-worker assumption; the fault-tolerance layer passes finite
/// values so a dead peer surfaces as [`io::ErrorKind::TimedOut`] — which
/// the retry taxonomy classifies as transient — instead of hanging the
/// coordinator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read (per syscall, not per message).
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write.
    pub write_timeout: Option<Duration>,
}

impl ChannelConfig {
    /// Config with every timeout set to `d`.
    pub fn all(d: Duration) -> Self {
        Self {
            connect_timeout: Some(d),
            read_timeout: Some(d),
            write_timeout: Some(d),
        }
    }

    /// Config with no timeouts (block forever).
    pub fn blocking() -> Self {
        Self::default()
    }
}

/// TCP channel with length-prefixed framing.
pub type TcpChannel = Duplex<TcpSendHalf, TcpRecvHalf>;

/// Write side of a [`TcpChannel`].
pub struct TcpSendHalf {
    writer: BufWriter<TcpStream>,
}

/// Read side of a [`TcpChannel`] (an independent clone of the socket).
pub struct TcpRecvHalf {
    reader: BufReader<TcpStream>,
}

/// Maps the platform's read/write-timeout error (`WouldBlock` on Unix,
/// `TimedOut` on Windows) to the single `TimedOut` kind the fault layer
/// keys on.
fn normalize_timeout(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, e)
    } else {
        e
    }
}

impl SendHalf for TcpSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload).map_err(normalize_timeout)
    }
}

impl Drop for TcpSendHalf {
    /// Nothing more will be sent: say so on the wire. The receive half is
    /// a clone of the socket and may outlive this one on another thread
    /// (a [`ShapedChannel`]'s pump), which would otherwise keep the
    /// connection open and the peer waiting. After the half-close the
    /// peer reads end-of-stream, closes, and that thread's read ends too.
    fn drop(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Write);
    }
}

impl RecvHalf for TcpRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.reader).map_err(normalize_timeout)
    }
}

impl TcpChannel {
    /// Connects to a listening peer with no timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, &ChannelConfig::default())
    }

    /// Connects to a listening peer under `config`.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ChannelConfig) -> io::Result<Self> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(t) => {
                // connect_timeout needs resolved addresses; try each.
                let mut last = None;
                let mut stream = None;
                for a in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&a, t) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "address resolved to no endpoints",
                            )
                        }))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        Self::from_stream_with(stream, config)
    }

    /// Wraps an accepted stream with no timeouts.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        Self::from_stream_with(stream, &ChannelConfig::default())
    }

    /// Wraps an accepted stream, applying `config`'s read/write timeouts.
    pub fn from_stream_with(stream: TcpStream, config: &ChannelConfig) -> io::Result<Self> {
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let read_half = stream.try_clone()?;
        Ok(Duplex::from_halves(
            TcpSendHalf {
                writer: BufWriter::new(stream),
            },
            TcpRecvHalf {
                reader: BufReader::new(read_half),
            },
        ))
    }
}

/// A TCP server handle: binds a port and accepts [`TcpChannel`]s.
pub struct TcpServer {
    listener: TcpListener,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Blocks until a client connects.
    pub fn accept(&self) -> io::Result<TcpChannel> {
        self.accept_with(&ChannelConfig::default())
    }

    /// Blocks until a client connects; the accepted channel gets
    /// `config`'s read/write timeouts.
    pub fn accept_with(&self, config: &ChannelConfig) -> io::Result<TcpChannel> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        TcpChannel::from_stream_with(stream, config)
    }
}

/// In-memory channel endpoint backed by crossbeam queues.
pub type MemChannel = Duplex<MemSendHalf, MemRecvHalf>;

/// Queue producer of a [`MemChannel`].
pub struct MemSendHalf {
    tx: Sender<Vec<u8>>,
}

/// Queue consumer of a [`MemChannel`].
pub struct MemRecvHalf {
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected in-memory channel pair.
pub fn mem_pair() -> (MemChannel, MemChannel) {
    let (atx, brx) = unbounded();
    let (btx, arx) = unbounded();
    (
        Duplex::from_halves(MemSendHalf { tx: atx }, MemRecvHalf { rx: arx }),
        Duplex::from_halves(MemSendHalf { tx: btx }, MemRecvHalf { rx: brx }),
    )
}

impl SendHalf for MemSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx
            .send(payload.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }
}

impl RecvHalf for MemRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer dropped"))
    }
}

/// Encrypting layer (ChaCha20 + integrity tag) around any channel.
///
/// Each direction keeps its own [`CipherState`] with an independent
/// monotone nonce counter, so send and receive never have to alternate:
/// pipelined traffic (many sends before any receive, replies out of
/// request order) stays decryptable as long as each direction's frames
/// arrive in the order they were sealed — which one send half and one
/// receive half guarantee by construction.
pub type EncryptedChannel = Duplex<EncryptedSendHalf, EncryptedRecvHalf>;

/// Sealing side of an [`EncryptedChannel`].
pub struct EncryptedSendHalf {
    inner: Box<dyn SendHalf>,
    cipher: CipherState,
}

/// Opening side of an [`EncryptedChannel`].
pub struct EncryptedRecvHalf {
    inner: Box<dyn RecvHalf>,
    cipher: CipherState,
}

impl EncryptedChannel {
    /// Wraps `inner` with a pre-shared key. `is_initiator` selects the
    /// nonce direction so both endpoints derive disjoint keystreams.
    pub fn new(inner: impl Channel + 'static, key: ChannelKey, is_initiator: bool) -> Self {
        let (tx_dir, rx_dir) = if is_initiator { (0, 1) } else { (1, 0) };
        let (tx, rx) = Box::new(inner).split();
        Duplex::from_halves(
            EncryptedSendHalf {
                inner: tx,
                cipher: CipherState::new(key, tx_dir),
            },
            EncryptedRecvHalf {
                inner: rx,
                cipher: CipherState::new(key, rx_dir),
            },
        )
    }
}

impl SendHalf for EncryptedSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let sealed = self.cipher.seal(payload);
        self.inner.send(&sealed)
    }
}

impl RecvHalf for EncryptedRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let sealed = self.inner.recv()?;
        self.cipher.open(&sealed).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "message authentication failed")
        })
    }
}

/// WAN-shaping layer: delivers each inbound message no earlier than its
/// simulated arrival over the profiled link. Sends pass straight through.
///
/// The link model charges one-way propagation latency plus bandwidth
/// transfer time per message, with an explicit *arrival* model: messages
/// that are concurrently in flight overlap their latencies (only their
/// transfer times serialize on the link), while a lock-step exchange pays
/// the full latency every round trip: `n` frames sent before any reply
/// is read cost about one latency, not `n`.
///
/// To observe true arrival times (a message that arrives while the
/// consumer is still sleeping out an earlier delivery must not be charged
/// a fresh latency), the inner receive half lives on a pump thread that
/// timestamps each message as it lands. An unshaped profile goes through
/// the same pump and simply never sleeps; callers on a hot path skip the
/// layer instead (as `WorkerEndpoint` does for LAN links).
pub type ShapedChannel = Duplex<Box<dyn SendHalf>, ShapedRecvHalf>;

/// Receive side of a [`ShapedChannel`]: the arrival model.
pub struct ShapedRecvHalf {
    profile: NetProfile,
    /// Messages from the pump thread, stamped with their real arrival.
    arrivals: Receiver<(Instant, io::Result<Vec<u8>>)>,
    /// Simulated instant through which the link is busy transferring
    /// already-accepted messages.
    link_free: Option<Instant>,
    /// Delivered-message counter keying the profile's deterministic
    /// per-message jitter stream.
    seq: u64,
}

impl ShapedChannel {
    /// Wraps `inner` with a link profile.
    pub fn new(inner: impl Channel + 'static, profile: NetProfile) -> Self {
        let (tx, mut inner_rx) = Box::new(inner).split();
        let (pump_tx, arrivals) = unbounded();
        std::thread::Builder::new()
            .name("exdra-shaped-pump".into())
            .spawn(move || loop {
                let res = inner_rx.recv();
                let failed = res.is_err();
                if pump_tx.send((Instant::now(), res)).is_err() || failed {
                    break;
                }
            })
            .expect("spawn shaped-channel pump thread");
        Duplex::from_halves(
            tx,
            ShapedRecvHalf {
                profile,
                arrivals,
                link_free: None,
                seq: 0,
            },
        )
    }
}

impl RecvHalf for ShapedRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let (arrival, res) = self
            .arrivals
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "shaped pump stopped"))?;
        let payload = res?;
        let transfer = self.profile.transfer_time(payload.len());
        // The link starts carrying this message when it is free again;
        // propagation latency overlaps with other in-flight messages.
        let start = match self.link_free {
            Some(t) if t > arrival => t,
            _ => arrival,
        };
        self.link_free = Some(start + transfer);
        let latency = self.profile.latency_jittered(self.seq);
        self.seq += 1;
        let deliver = start + transfer + latency;
        let now = Instant::now();
        if deliver > now {
            std::thread::sleep(deliver - now);
        }
        Ok(payload)
    }
}

/// Accounting layer recording bytes, messages, and blocked time.
pub type InstrumentedChannel = Duplex<InstrumentedSendHalf, InstrumentedRecvHalf>;

/// Send side of an [`InstrumentedChannel`].
pub struct InstrumentedSendHalf {
    inner: Box<dyn SendHalf>,
    stats: Arc<NetStats>,
}

/// Receive side of an [`InstrumentedChannel`].
pub struct InstrumentedRecvHalf {
    inner: Box<dyn RecvHalf>,
    stats: Arc<NetStats>,
}

impl InstrumentedChannel {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: impl Channel + 'static, stats: Arc<NetStats>) -> Self {
        let (tx, rx) = Box::new(inner).split();
        Duplex::from_halves(
            InstrumentedSendHalf {
                inner: tx,
                stats: Arc::clone(&stats),
            },
            InstrumentedRecvHalf { inner: rx, stats },
        )
    }
}

impl SendHalf for InstrumentedSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.send(payload);
        self.stats
            .record_send(payload.len() as u64, t0.elapsed().as_nanos() as u64);
        r
    }
}

impl RecvHalf for InstrumentedRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let t0 = Instant::now();
        let r = self.inner.recv();
        if let Ok(p) = &r {
            self.stats
                .record_recv(p.len() as u64, t0.elapsed().as_nanos() as u64);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pair_duplex() {
        let (mut a, mut b) = mem_pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn mem_channel_detects_dropped_peer() {
        let (mut a, b) = mem_pair();
        drop(b);
        assert!(a.send(b"x").is_err());
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut ch = server.accept().unwrap();
            let msg = ch.recv().unwrap();
            ch.send(&msg).unwrap(); // echo
        });
        let mut client = TcpChannel::connect(addr).unwrap();
        let payload = vec![42u8; 100_000];
        client.send(&payload).unwrap();
        assert_eq!(client.recv().unwrap(), payload);
        handle.join().unwrap();
    }

    #[test]
    fn read_timeout_surfaces_as_timed_out() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let cfg = ChannelConfig {
            read_timeout: Some(std::time::Duration::from_millis(50)),
            ..ChannelConfig::default()
        };
        let handle = std::thread::spawn(move || {
            // Accept and hold the connection open without ever replying.
            let ch = server.accept().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(300));
            drop(ch);
        });
        let mut client = TcpChannel::connect_with(addr, &cfg).unwrap();
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        handle.join().unwrap();
    }

    #[test]
    fn connect_timeout_path_connects_and_rejects() {
        let cfg = ChannelConfig {
            connect_timeout: Some(std::time::Duration::from_millis(500)),
            ..ChannelConfig::default()
        };
        // Positive path: the resolved-address loop connects to a live peer.
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let _ch = server.accept().unwrap();
        });
        TcpChannel::connect_with(addr, &cfg).unwrap();
        handle.join().unwrap();
        // Negative path: a port with no listener errors promptly.
        let dead = TcpServer::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let t0 = Instant::now();
        assert!(TcpChannel::connect_with(dead_addr, &cfg).is_err());
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn encrypted_channel_roundtrip() {
        let (a, b) = mem_pair();
        let key = ChannelKey::from_passphrase("secret");
        let mut ea = EncryptedChannel::new(a, key, true);
        let mut eb = EncryptedChannel::new(b, key, false);
        ea.send(b"classified").unwrap();
        assert_eq!(eb.recv().unwrap(), b"classified");
        eb.send(b"ack").unwrap();
        assert_eq!(ea.recv().unwrap(), b"ack");
    }

    #[test]
    fn encrypted_channel_payload_not_plaintext() {
        let (a, mut b) = mem_pair();
        let key = ChannelKey::from_passphrase("secret");
        let mut ea = EncryptedChannel::new(a, key, true);
        ea.send(b"visible-secret-data").unwrap();
        let raw = b.recv().unwrap();
        assert!(!raw.windows(b"visible".len()).any(|w| w == b"visible"));
    }

    #[test]
    fn encrypted_wrong_key_fails_auth() {
        let (a, b) = mem_pair();
        let mut ea = EncryptedChannel::new(a, ChannelKey::from_passphrase("k1"), true);
        let mut eb = EncryptedChannel::new(b, ChannelKey::from_passphrase("k2"), false);
        ea.send(b"msg").unwrap();
        assert!(eb.recv().is_err());
    }

    #[test]
    fn encrypted_tolerates_burst_sends_without_alternation() {
        // ChaCha20 nonce handling must not assume send/recv lock-step:
        // many sends before any receive, interleaved both ways.
        let (a, b) = mem_pair();
        let key = ChannelKey::from_passphrase("burst");
        let mut ea = EncryptedChannel::new(a, key, true);
        let mut eb = EncryptedChannel::new(b, key, false);
        for i in 0..10u8 {
            ea.send(&[i; 17]).unwrap();
        }
        eb.send(b"early-reply").unwrap();
        for i in 0..10u8 {
            assert_eq!(eb.recv().unwrap(), vec![i; 17]);
        }
        assert_eq!(ea.recv().unwrap(), b"early-reply");
    }

    #[test]
    fn dropping_a_shaped_tcp_channel_ends_the_peer_and_the_pump() {
        /// A receive half that reports when its owner lets go of it.
        struct Probe(Box<dyn RecvHalf>, std::sync::mpsc::Sender<()>);
        impl RecvHalf for Probe {
            fn recv(&mut self) -> io::Result<Vec<u8>> {
                self.0.recv()
            }
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                let _ = self.1.send(());
            }
        }
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        // The peer echoes until its connection ends, like a worker's
        // connection thread.
        let peer = std::thread::spawn(move || {
            let mut ch = server.accept().unwrap();
            let mut served = 0;
            while let Ok(m) = ch.recv() {
                ch.send(&m).unwrap();
                served += 1;
            }
            served
        });
        let (tx, rx) = Box::new(TcpChannel::connect(addr).unwrap()).split();
        let (gone_tx, gone_rx) = std::sync::mpsc::channel();
        let mut shaped = ShapedChannel::new(
            Duplex::from_halves(tx, Probe(rx, gone_tx)),
            NetProfile::lan(),
        );
        shaped.send(b"ping").unwrap();
        assert_eq!(shaped.recv().unwrap(), b"ping");
        drop(shaped);
        // The peer saw the close although the pump still held the socket's
        // read side, and then the pump's read ended and it let go.
        assert_eq!(peer.join().unwrap(), 1);
        gone_rx.recv().unwrap();
    }

    #[test]
    fn shaped_channel_delays_delivery() {
        // Shaping now charges the arrival path: the receiver waits out
        // the one-way latency; sends are free.
        let (a, b) = mem_pair();
        let mut sa = ShapedChannel::new(a, NetProfile::custom(40.0, 1000.0));
        let mut b = b;
        let t0 = Instant::now();
        sa.send(b"x").unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(15),
            "send path is unshaped"
        );
        assert_eq!(b.recv().unwrap(), b"x");
        b.send(b"reply").unwrap();
        let t1 = Instant::now();
        assert_eq!(sa.recv().unwrap(), b"reply");
        assert!(
            t1.elapsed() >= Duration::from_millis(15),
            "recv pays one-way latency, got {:?}",
            t1.elapsed()
        );
    }

    #[test]
    fn shaped_channel_overlaps_latency_of_concurrent_messages() {
        // Messages already in flight share the link: n queued replies
        // cost ~1 latency, not n.
        let (a, mut b) = mem_pair();
        let mut sa = ShapedChannel::new(a, NetProfile::custom(80.0, f64::INFINITY));
        sa.send(b"warmup").unwrap();
        b.recv().unwrap();
        for i in 0..4u8 {
            b.send(&[i]).unwrap();
        }
        // Let all four land in the pump before the first recv.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        for i in 0..4u8 {
            assert_eq!(sa.recv().unwrap(), vec![i]);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(3 * 40),
            "4 concurrent messages must overlap latency, took {elapsed:?}"
        );
    }

    #[test]
    fn shaped_channel_serializes_lockstep_exchanges() {
        // A strict request/reply loop pays the latency every time.
        let (a, b) = mem_pair();
        let mut sa = ShapedChannel::new(a, NetProfile::custom(30.0, f64::INFINITY));
        let handle = std::thread::spawn(move || {
            let mut b = b;
            while let Ok(m) = b.recv() {
                if b.send(&m).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        for _ in 0..3 {
            sa.send(b"rt").unwrap();
            sa.recv().unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(3 * 15),
            "3 lock-step round trips pay 3 latencies, took {elapsed:?}"
        );
        drop(sa);
        handle.join().unwrap();
    }

    #[test]
    fn instrumented_channel_counts() {
        let stats = NetStats::shared();
        let (a, b) = mem_pair();
        let mut ia = InstrumentedChannel::new(a, Arc::clone(&stats));
        let mut ib = InstrumentedChannel::new(b, Arc::clone(&stats));
        ia.send(&[0u8; 500]).unwrap();
        ib.recv().unwrap();
        assert_eq!(stats.bytes_sent(), 500);
        assert_eq!(stats.bytes_received(), 500);
        assert_eq!(stats.messages_sent(), 1);
    }

    #[test]
    fn mem_channel_splits_into_working_halves() {
        let (a, mut b) = mem_pair();
        let (mut s, mut r) = Box::new(a).split();
        s.send(b"to-peer").unwrap();
        assert_eq!(b.recv().unwrap(), b"to-peer");
        b.send(b"from-peer").unwrap();
        assert_eq!(r.recv().unwrap(), b"from-peer");
    }

    #[test]
    fn tcp_channel_splits_and_halves_work_concurrently() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut ch = server.accept().unwrap();
            for _ in 0..3 {
                let m = ch.recv().unwrap();
                ch.send(&m).unwrap();
            }
        });
        let (mut s, mut r) = Box::new(TcpChannel::connect(addr).unwrap()).split();
        // Send from this thread while a second thread receives.
        let recv_thread = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(r.recv().unwrap());
            }
            got
        });
        for i in 0..3u8 {
            s.send(&[i; 5]).unwrap();
        }
        let got = recv_thread.join().unwrap();
        assert_eq!(got, vec![vec![0u8; 5], vec![1u8; 5], vec![2u8; 5]]);
        handle.join().unwrap();
    }
}
