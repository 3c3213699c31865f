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
//! * [`detector`] — per-worker liveness tracking: one pure
//!   [`detector::step`] moves a [`detector::WorkerHealth`] through
//!   `Healthy → Suspect → Dead → Recovering` on probe, checkpoint,
//!   compute-path and recovery events, and says whether a checkpoint
//!   reply may be stored, a failure counts as a miss, a recovery claim won,
//! * [`inject`] — deterministic, seeded fault injection:
//!   [`inject::FaultPlan`] (drop / delay / duplicate / kill-after-N
//!   messages) applied by [`inject::FaultyChannel`] around any transport
//!   channel, composing with the WAN simulation in `exdra-net::sim`.
//!
//! The protocol-aware supervisor that uses these primitives (heartbeat
//! RPCs, channel re-establishment, re-registration replay) lives in
//! `exdra-core::supervision`; quorum aggregation over partial failures
//! lives in `exdra-paramserv`.

pub mod detector;
pub mod inject;
pub mod retry;

pub use detector::{step, Event, FailureDetector, HealthState, Verdict, WorkerHealth};
pub use inject::{FaultPlan, FaultyChannel};
pub use retry::{splitmix64, Deadline, ErrorClass, RetryPolicy};
