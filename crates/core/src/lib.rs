#![warn(missing_docs)]
//! # exdra-core
//!
//! The federated runtime backend of the ExDRa reproduction (paper §4):
//! SystemDS-style control programs at a coordinator and standing federated
//! workers, communicating through six generic request types.
//!
//! * [`protocol`] — `READ` / `PUT` / `GET` / `EXEC_INST` / `EXEC_UDF` /
//!   `CLEAR` requests and responses,
//! * [`instruction`] / [`exec`] — the Table-1 instruction set and its local
//!   executor (reused by coordinator and workers),
//! * [`worker`] — the standing worker server (symbol table, privacy checks,
//!   lineage reuse, background compression, UDF registry),
//! * [`coordinator`] — worker connections and parallel RPC (every RPC runs
//!   under a retry policy with backoff and deadlines),
//! * [`supervision`] — the heartbeat-driven supervisor: failure detection,
//!   periodic checkpointing, checkpoint-restore (or initialization-replay)
//!   recovery of restarted workers,
//! * [`checkpoint`] — the coordinator-side store of incremental,
//!   epoch-guarded worker checkpoints,
//! * [`fed`] — federation maps and [`fed::FedMatrix`]: federated linear
//!   algebra and federated data preparation,
//! * [`tensor`] — the locality-agnostic [`tensor::Tensor`] handle ML
//!   algorithms are written against,
//! * [`privacy`] / [`lineage`] — constraints and reuse infrastructure.

pub mod checkpoint;
pub mod coordinator;
pub mod error;
pub mod exec;
pub mod fed;
pub mod instruction;
pub mod lineage;
pub mod privacy;
pub mod protocol;
pub mod supervision;
pub mod symbol;
pub mod tensor;
pub mod testutil;
pub mod udf;
pub mod value;
pub mod worker;

pub use coordinator::FedContext;
pub use error::{FedError, Result, RuntimeError};
pub use fed::{FedMatrix, PartitionScheme};
pub use privacy::PrivacyLevel;
pub use tensor::Tensor;
pub use value::DataValue;
