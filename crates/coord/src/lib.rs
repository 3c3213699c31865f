//! Multi-tenant coordinator service: many concurrent sessions sharing
//! one federated worker fleet.
//!
//! ExDRa frames exploratory data science as *many analysts* iterating
//! against shared federated raw data (paper §2), but a plain
//! [`exdra_core::FedContext`] dedicates the whole fleet to one session.
//! This crate turns the coordinator into a long-lived service:
//!
//! * **Namespace isolation** — every admitted session receives a symbol
//!   namespace and allocates IDs from `(ns << NS_SHIFT) | 1` upward, so
//!   concurrent sessions draw from disjoint ID ranges. Each session
//!   holds its own connection per worker, served in order on a thread of
//!   its own, and no symbol ID is shared across namespaces, so two
//!   sessions can never alias each other's state; teardown is a single
//!   `CLEAR_NS` broadcast.
//! * **Shared plan cache** — one byte-budgeted, lineage-keyed
//!   [`exdra_core::lineage::LineageCache`] spans all sessions, so a plan
//!   one analyst already computed is a cache hit for the next; hits and
//!   misses are attributed per session.
//! * **Fair scheduling + admission control** — a per-session credit
//!   budget over in-flight requests ([`FairScheduler`]) keeps one
//!   heavy session from starving others, and a bounded admission queue
//!   rejects overload with the typed
//!   [`exdra_core::FedError::SessionRejected`].
//! * **Shared supervision** — exactly one supervisor owns the fleet's
//!   heartbeat/checkpoint streams; a replacement worker is restored from
//!   checkpoints spanning *every* namespace, then each session repairs
//!   its own connection.
//!
//! Sessions attach in process via [`CoordService::open_session`] or over
//! TCP via [`CoordServer`] + [`AttachedClient`] (the `Session::attach`
//! path in `exdra-api`). A supervised single-user `Session` is the
//! degenerate case: the one tenant of a service over
//! [`FleetSource::Context`], its own context.
//!
//! The service also exposes an operator-facing HTTP endpoint
//! ([`OpsServer`]): `/healthz`, `/metrics` (Prometheus, including
//! per-tenant `tenant.<ns>.*` series), `/sessions` (live session
//! table), and `/incidents` (flight-recorder bundles).

#![warn(missing_docs)]

mod client;
mod ops;
mod scheduler;
mod server;
mod service;
mod wire;

pub use client::{AttachedClient, TunnelChannel};
pub use ops::{sessions_json, OpsServer};
pub use scheduler::{FairScheduler, FairnessConfig, TenantGate};
pub use server::CoordServer;
pub use service::{
    ChannelFactory, CoordConfig, CoordService, FleetSource, SessionInfo, Tenant, TenantStats,
};
