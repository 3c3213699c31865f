//! User-defined functions shipped via `EXEC_UDF` requests.
//!
//! The paper serializes Java UDF objects; Rust cannot ship closures, so the
//! protocol carries a closed set of built-in UDFs plus [`Udf::Registered`] —
//! a *named* function resolved against a registry the embedding application
//! installs on the worker at setup time (exactly how the federated
//! parameter server ships its gradient/update functions "during setup";
//! see DESIGN.md §4 for the substitution note).

use exdra_net::wire_enum;
use exdra_transform::TransformSpec;

use crate::value::DataValue;

/// A UDF executed at a federated worker against its symbol table.
#[derive(Debug, Clone, PartialEq)]
pub enum Udf {
    /// First encode pass: builds [`exdra_transform::PartialMeta`] over the
    /// frame bound at `frame` and returns it to the coordinator.
    EncodeBuildPartial {
        /// Frame symbol ID.
        frame: u64,
        /// Transformation spec.
        spec: TransformSpec,
    },
    /// Second encode pass: applies consolidated metadata (bound at `meta`
    /// via a prior `PUT`) to the frame, binding the encoded matrix at `out`.
    EncodeApply {
        /// Frame symbol ID.
        frame: u64,
        /// Metadata symbol ID.
        meta: u64,
        /// Output matrix symbol ID.
        out: u64,
    },
    /// Projects frame columns by name (federated feature selection),
    /// binding the projected frame at `out`.
    FrameSelect {
        /// Frame symbol ID.
        frame: u64,
        /// Column names to keep, in order.
        columns: Vec<String>,
        /// Output frame symbol ID.
        out: u64,
    },
    /// Locally shuffles aligned rows of `x` (and optionally `y`) with a
    /// seed — the parameter server's locality-respecting partitioner
    /// ("only local shuffling ... of the private federated data").
    Shuffle {
        /// Feature matrix symbol ID.
        x: u64,
        /// Optional aligned label symbol ID.
        y: Option<u64>,
        /// Shuffle seed.
        seed: u64,
        /// Output feature symbol ID.
        out_x: u64,
        /// Output label symbol ID (required when `y` is set).
        out_y: Option<u64>,
    },
    /// Replicates rows of `x`/`y` `times` times (imbalance handling via
    /// replication; weights are adjusted server-side).
    Replicate {
        /// Feature matrix symbol ID.
        x: u64,
        /// Optional aligned label symbol ID.
        y: Option<u64>,
        /// Replication factor (>= 1).
        times: u64,
        /// Output feature symbol ID.
        out_x: u64,
        /// Output label symbol ID.
        out_y: Option<u64>,
    },
    /// Synchronously compacts eligible cached entries into the compressed
    /// representation (normally a background activity; exposed for the
    /// compression ablation and tests).
    CompactNow {
        /// Only compact entries of at least this many bytes.
        min_bytes: u64,
    },
    /// Returns worker cache/lineage statistics as a list of scalars
    /// `[hits, misses, entries, compressed_entries]`.
    CacheStats,
    /// Returns the shape of a matrix symbol as `List [rows, cols, nnz]`
    /// (metadata-only; needed after data-dependent ops like `removeEmpty`).
    MatrixDims {
        /// Matrix symbol ID.
        id: u64,
    },
    /// Returns per-category counts of a frame column as a two-column frame
    /// (`token`, `count`) — the aggregate-sized metadata the federated mode
    /// imputation consolidates (paper Example 4).
    CategoryCounts {
        /// Frame symbol ID.
        frame: u64,
        /// Column name.
        column: String,
    },
    /// Fills missing cells of a categorical frame column with a broadcast
    /// value, binding the repaired frame at `out`.
    FillMissing {
        /// Frame symbol ID.
        frame: u64,
        /// Column name.
        column: String,
        /// Replacement category.
        value: String,
        /// Output frame symbol ID.
        out: u64,
    },
    /// An application-registered function by name: `args` carries inline
    /// values, `arg_ids` references symbol-table entries; the result (if
    /// any) is bound at `out` and also returned.
    Registered {
        /// Registry key.
        name: String,
        /// Inline argument values.
        args: Vec<DataValue>,
        /// Symbol-table arguments (resolved at the worker).
        arg_ids: Vec<u64>,
        /// Optional output binding.
        out: Option<u64>,
    },
}

impl Udf {
    /// Canonical name for lineage keys and explain output.
    pub fn name(&self) -> String {
        match self {
            Udf::EncodeBuildPartial { .. } => "tfencode-build".into(),
            Udf::EncodeApply { .. } => "tfencode-apply".into(),
            Udf::FrameSelect { .. } => "frame-select".into(),
            Udf::Shuffle { .. } => "shuffle".into(),
            Udf::Replicate { .. } => "replicate".into(),
            Udf::CompactNow { .. } => "compact".into(),
            Udf::CacheStats => "cache-stats".into(),
            Udf::MatrixDims { .. } => "dims".into(),
            Udf::CategoryCounts { .. } => "category-counts".into(),
            Udf::FillMissing { .. } => "fill-missing".into(),
            Udf::Registered { name, .. } => format!("udf:{name}"),
        }
    }
}

// Tags are not in declaration order: `Registered` is 7.
wire_enum! { Udf {
    0 => EncodeBuildPartial { frame, spec },
    1 => EncodeApply { frame, meta, out },
    2 => FrameSelect { frame, columns, out },
    3 => Shuffle { x, y, seed, out_x, out_y },
    4 => Replicate { x, y, times, out_x, out_y },
    5 => CompactNow { min_bytes },
    6 => CacheStats,
    8 => MatrixDims { id },
    9 => CategoryCounts { frame, column },
    10 => FillMissing { frame, column, value, out },
    7 => Registered { name, args, arg_ids, out },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_net::codec::Wire;
    use exdra_transform::{ColumnSpec, EncodeKind};

    #[test]
    fn wire_roundtrip_all_variants() {
        let samples = vec![
            Udf::EncodeBuildPartial {
                frame: 1,
                spec: TransformSpec {
                    columns: vec![ColumnSpec {
                        name: "a".into(),
                        kind: EncodeKind::Recode,
                        one_hot: true,
                    }],
                },
            },
            Udf::EncodeApply {
                frame: 1,
                meta: 2,
                out: 3,
            },
            Udf::FrameSelect {
                frame: 1,
                columns: vec!["a".into(), "b".into()],
                out: 2,
            },
            Udf::Shuffle {
                x: 1,
                y: Some(2),
                seed: 42,
                out_x: 3,
                out_y: Some(4),
            },
            Udf::Replicate {
                x: 1,
                y: None,
                times: 3,
                out_x: 2,
                out_y: None,
            },
            Udf::CompactNow { min_bytes: 1024 },
            Udf::MatrixDims { id: 3 },
            Udf::CategoryCounts {
                frame: 1,
                column: "recipe".into(),
            },
            Udf::FillMissing {
                frame: 1,
                column: "recipe".into(),
                value: "R101".into(),
                out: 2,
            },
            Udf::CacheStats,
            Udf::Registered {
                name: "grad".into(),
                args: vec![DataValue::Scalar(0.01)],
                arg_ids: vec![5, 6],
                out: Some(7),
            },
        ];
        for udf in samples {
            assert_eq!(Udf::from_bytes(&udf.to_bytes()).unwrap(), udf);
        }
    }
}
