#![warn(missing_docs)]
//! # exdra-fault
//!
//! Fault-tolerance primitives for the federated runtime. The paper's
//! deployment model assumes standing workers that never die; production
//! federations (the ROADMAP north star) see worker crashes, WAN
//! partitions, and stragglers. This crate supplies the building blocks the
//! rest of the stack composes into a supervised federation:
//!
//! * [`retry`] — [`retry::RetryPolicy`]: exponential backoff with
//!   decorrelated jitter, capped by a [`retry::Deadline`], plus the
//!   closed / transient / fatal [`retry::ErrorClass`] taxonomy retry loops key on,
//! * [`detector`] — per-worker liveness tracking: the
//!   [`detector::WorkerHealth`] state machine
//!   (`Healthy → Suspect → Dead → Recovering`) driven by heartbeat
//!   outcomes with a consecutive-miss threshold,
//! * [`inject`] — deterministic, seeded fault injection:
//!   [`inject::FaultPlan`] (drop / delay / duplicate / kill-after-N
//!   messages) applied by [`inject::FaultyChannel`] around any transport
//!   channel, composing with the WAN simulation in `exdra-net::sim`,
//! * [`straggler`] — per-worker latency histories
//!   ([`straggler::LatencyTracker`]) that derive speculation deadlines
//!   from observed latency quantiles, driving the supervisor's
//!   speculative re-execution of straggler partition requests.
//!
//! The protocol-aware supervisor that uses these primitives (heartbeat
//! RPCs, channel re-establishment, re-registration replay) lives in
//! `exdra-core::supervision`; quorum aggregation over partial failures
//! lives in `exdra-paramserv`.

pub mod detector;
pub mod inject;
pub mod retry;
pub mod straggler;

pub use detector::{FailureDetector, HealthState, WorkerHealth};
pub use inject::{FaultPlan, FaultyChannel};
pub use retry::{splitmix64, Deadline, ErrorClass, RetryPolicy};
pub use straggler::{LatencyTracker, SpeculationPolicy};
