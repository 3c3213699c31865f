#![warn(missing_docs)]
//! # exdra-net
//!
//! Network substrate of the ExDRa reproduction — the counterpart of the
//! Netty layer the paper's federated backend uses for "RPCs and data
//! transfers" (§4.1).
//!
//! Components:
//!
//! * [`codec`] — hand-written binary wire format ([`codec::Wire`]) for
//!   primitives, matrices, and frames,
//! * [`framing`] — length-prefixed message framing over any byte stream,
//! * [`transport`] — blocking [`transport::Channel`]s: real TCP sockets and
//!   an in-memory pair for deterministic tests, plus composable wrappers,
//! * [`sim`] — WAN simulation (round-trip latency + bandwidth caps) standing
//!   in for the paper's Copenhagen–Graz link,
//! * [`crypto`] — ChaCha20-encrypted channels standing in for Netty's
//!   `SslContext` (see DESIGN.md §4 for the substitution rationale),
//! * [`stats`] — per-channel byte/message/time accounting used by the
//!   communication experiments (Figure 6).

pub mod codec;
pub mod crypto;
pub mod framing;
pub mod sim;
pub mod stats;
pub mod transport;

pub use codec::Wire;
pub use sim::NetProfile;
pub use stats::NetStats;
pub use transport::{Channel, Duplex, RecvHalf, SendHalf, TcpChannel};
