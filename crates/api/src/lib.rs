#![warn(missing_docs)]
//! # exdra-api
//!
//! The lazy-evaluation front-end API of the ExDRa reproduction — the
//! analogue of SystemDS' Python API (paper §3.2): users create matrices
//! from local data or federated configurations, compose operations into a
//! DAG, and call `compute()`, which lowers the DAG into a logical
//! [`Plan`], runs it through the cost-based [`Optimizer`] rule pipeline,
//! executes the optimized plan on the runtime, and returns a local
//! result. `Session::explain` renders the before/after plan scripts with
//! estimated costs; `explain_analyze` additionally executes the plan and
//! attaches the measured breakdown.
//!
//! ```no_run
//! use exdra_api::Session;
//! # fn main() -> exdra_core::Result<()> {
//! let sds = Session::connect(&["site1:8001".into(), "site2:8002".into()])?;
//! let features = sds.read_federated_csv(&[("x1.csv".into(), 40_000), ("x2.csv".into(), 60_000)], 70)?;
//! let normalized = features.sub(&features.col_means()?)?;
//! println!("{}", sds.explain(&normalized.tsmm()?));
//! let result = sds.compute(&normalized.tsmm()?)?;
//! # let _ = result; Ok(())
//! # }
//! ```

pub mod dag;
pub mod optimizer;
pub mod plan;
pub mod session;

pub use dag::Lazy;
pub use optimizer::{CostModel, Optimizer, OptimizerRule, ProfileCostModel};
pub use plan::{Plan, PlanNode, PlanOp};
pub use session::{Session, SessionBuilder};
