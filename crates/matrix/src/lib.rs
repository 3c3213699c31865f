#![warn(missing_docs)]
//! # exdra-matrix
//!
//! Local matrix/frame substrate of the ExDRa reproduction: the equivalent of
//! Apache SystemDS' in-memory runtime that the federated backend builds on.
//!
//! The crate provides:
//!
//! * [`DenseMatrix`] — row-major `f64` matrices with the full kernel surface
//!   of the paper's Table 1 (matrix multiplication, aggregates, element-wise
//!   unary/binary/ternary/quaternary ops, and reorganizations),
//! * [`Matrix`] — the runtime's value wrapper: dense, or compressed when a
//!   worker compacts a cached intermediate,
//! * [`Frame`] — heterogeneous frames (string/f64/i64/bool columns) backing
//!   raw-data access and feature transformations,
//! * [`compress`] — lossless column compression (DDC/RLE) used by federated
//!   workers to compact cached intermediates (paper §4.4),
//! * [`io`] — CSV and binary readers/writers with positional maps for partial
//!   parsing of raw files (paper §1, "query processing on raw data").
//!
//! All kernels are deterministic and tested against naive reference
//! implementations; property tests assert the algebraic identities the
//! federated runtime relies on (e.g. partition-wise aggregation laws).

pub mod compress;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod frame;
pub mod io;
pub mod kernels;
pub mod matrix;
pub mod rng;

pub use dense::DenseMatrix;
pub use error::{MatrixError, Result};
pub use frame::{Frame, FrameColumn, ValueType};
pub use matrix::Matrix;
