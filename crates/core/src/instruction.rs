//! Runtime instructions.
//!
//! An [`Instruction`] is the payload of an `EXEC_INST` federated request
//! (paper §4.1): it reads its inputs from the executing control program's
//! symbol table by ID and binds its output there. The same instruction set
//! is what federated workers execute and what the front end's plans are
//! made of — the paper's "we can reuse existing instructions for composing
//! federated operations". The worker's built-in frame and encoder
//! operations are rows of the same table (tags 31 and up); `EXEC_UDF`
//! carries only application-registered functions.
//!
//! Each opcode is declared once, as one row of the table below: its wire
//! tag, its variant, its `name()` and its fields in declaration order, each
//! with a role. The enum, [`Instruction::inputs`], [`Instruction::reads`],
//! [`Instruction::output`], [`Instruction::name`], [`Instruction::literals`],
//! the operand rewrite [`Instruction::map_operands`], the wire codec and
//! the output lineage ([`Instruction::lineage`]) are generated from the
//! rows, so the wire order, the operand order and the order literals enter
//! lineage are all declaration order. The front end's plan nodes are rows
//! of this table too, with operands that name plan nodes instead of
//! symbols.

use bytes::{Buf, BufMut};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_net::codec::{DecodeError, DecodeResult};
use exdra_transform::TransformSpec;

/// The codec an instruction's wire bytes come from, for callers that
/// compare instructions by those bytes.
pub use exdra_net::codec::Wire;

use crate::lineage;

/// What one field contributes to an accessor, by its role: `input` and
/// `maybe` (an optional input) are operands, `out` is the output, `lit`
/// a literal that enters lineage. An `op` enum is part of the name and
/// contributes to neither.
macro_rules! role {
    (input, $f:ident, operands $ids:ident) => {
        $ids.push(*$f)
    };
    (maybe, $f:ident, operands $ids:ident) => {
        $ids.extend(*$f)
    };
    (input, $f:ident, rewrite $map:ident) => {
        *$f = $map(*$f)
    };
    (maybe, $f:ident, rewrite $map:ident) => {
        if let Some(id) = $f {
            *id = $map(*id)
        }
    };
    (input, $f:ident, reads $id:ident) => {
        if *$f == $id {
            return true;
        }
    };
    (maybe, $f:ident, reads $id:ident) => {
        if *$f == Some($id) {
            return true;
        }
    };
    (out, $f:ident, output) => {
        return Some(*$f)
    };
    (lit, $f:ident, mix $h:ident) => {
        $h = Field::mix($f, $h)
    };
    (lit, $f:ident, show $lits:ident) => {
        $lits.push(format!(concat!(stringify!($f), "={:?}"), $f))
    };
    ($role:ident, $f:ident, $($accessor:tt)*) => {};
}

/// Declares the instruction set from one row per opcode:
/// `tag => Variant(name expression) { field: Type => role, ... }`.
macro_rules! instructions {
    ($(
        $(#[$doc:meta])*
        $tag:literal => $variant:ident($name:expr) {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty => $role:ident,)*
        }
    )*) => {
        /// A runtime instruction over symbol-table IDs (Table 1 surface).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Instruction {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        // Every arm binds all of its row's fields and reads the ones its
        // accessor's role names.
        #[allow(unused_variables)]
        impl Instruction {
            /// Input symbol IDs read by this instruction, in declaration
            /// order.
            pub fn inputs(&self) -> Vec<u64> {
                let mut ids = Vec::new();
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(role!($role, $field, operands ids);)*
                    })*
                }
                ids
            }

            /// Whether `id` is one of [`Instruction::inputs`], without
            /// collecting them.
            pub fn reads(&self, id: u64) -> bool {
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(role!($role, $field, reads id);)*
                    })*
                }
                false
            }

            /// Output symbol ID bound by this instruction (None for `rmvar`).
            pub fn output(&self) -> Option<u64> {
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(role!($role, $field, output);)*
                    })*
                }
                None
            }

            /// Rewrites every operand ID through `map`, in declaration order;
            /// the output is left as it is.
            pub fn map_operands(&mut self, mut map: impl FnMut(u64) -> u64) {
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(role!($role, $field, rewrite map);)*
                    })*
                }
            }

            /// The literals as `field=value`, in declaration order.
            pub fn literals(&self) -> Vec<String> {
                let mut lits = Vec::new();
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(role!($role, $field, show lits);)*
                    })*
                }
                lits
            }

            /// Canonical opcode name for explain strings and lineage keys.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$variant { $($field),* } => $name,)*
                }
            }

            /// Lineage of the output from its inputs' lineages, in operand
            /// order: the name, then the inputs, then the literals in
            /// declaration order. An op enum is already in the name.
            pub fn lineage(&self, inputs: impl IntoIterator<Item = u64>) -> u64 {
                let mut h = inputs.into_iter().fold(lineage::seed(self.name()), lineage::mix);
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(role!($role, $field, mix h);)*
                    })*
                }
                h
            }
        }

        impl Wire for Instruction {
            fn encode(&self, buf: &mut impl BufMut) {
                match self {
                    $(Self::$variant { $($field),* } => {
                        buf.put_u8($tag);
                        $(Field::put($field, buf);)*
                    })*
                }
            }

            fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
                Ok(match u8::decode(buf)? {
                    $($tag => Self::$variant { $($field: Field::get(buf)?),* },)*
                    t => return Err(DecodeError(format!("invalid instruction tag {t}"))),
                })
            }
        }
    };
}

instructions! {
    /// `out = lhs %*% rhs`, or `out = t(lhs) %*% rhs` with `t_lhs` — the
    /// transposed-left product runs on `lhs` as stored, no transpose is
    /// ever materialized.
    // The transposed form has a name of its own: priced and profiled apart.
    0 => MatMul(if *t_lhs { "t-ba+*" } else { "ba+*" }) {
        /// Left operand ID.
        lhs: u64 => input,
        /// Right operand ID.
        rhs: u64 => input,
        /// `true` for `t(lhs) %*% rhs` (opcode `t-ba+*`).
        t_lhs: bool => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// The transpose-self matmult: `out = xᵀx` (left) or `x xᵀ`.
    1 => Tsmm("tsmm") {
        /// Input ID.
        x: u64 => input,
        /// `true` for `xᵀx`.
        left: bool => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Fused `out = xᵀ (w ⊙ (x v))`.
    2 => MmChain("mmchain") {
        /// Data matrix ID.
        x: u64 => input,
        /// Vector ID.
        v: u64 => input,
        /// Optional weight vector ID.
        w: Option<u64> => maybe,
        /// Output ID.
        out: u64 => out,
    }
    /// Element-wise unary op.
    3 => Unary(op.name()) {
        /// Input ID.
        x: u64 => input,
        /// Operation.
        op: UnaryOp => op,
        /// Output ID.
        out: u64 => out,
    }
    /// Row-wise softmax.
    4 => Softmax("softmax") {
        /// Input ID.
        x: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Element-wise binary op with broadcasting.
    5 => Binary(op.name()) {
        /// Left operand ID.
        lhs: u64 => input,
        /// Right operand ID (matrix, row/col vector, or 1x1).
        rhs: u64 => input,
        /// Operation.
        op: BinaryOp => op,
        /// Output ID.
        out: u64 => out,
    }
    /// Matrix-scalar op; `swap` computes `scalar op matrix`.
    6 => Scalar(op.name()) {
        /// Input ID.
        x: u64 => input,
        /// Operation.
        op: BinaryOp => op,
        /// The scalar literal.
        value: f64 => lit,
        /// Operand order flag.
        swap: bool => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Aggregate along a direction.
    7 => Agg(op.name()) {
        /// Input ID.
        x: u64 => input,
        /// Aggregate function.
        op: AggOp => op,
        /// Direction: not part of the name, so it is a literal (else
        /// sum, colSums and rowSums would share a lineage).
        dir: AggDir => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// 1-based row-wise argmax.
    8 => RowIndexMax("rowIndexMax") {
        /// Input ID.
        x: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// 1-based row-wise argmin.
    9 => RowIndexMin("rowIndexMin") {
        /// Input ID.
        x: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Contingency table.
    10 => CTable("ctable") {
        /// Row-index vector ID.
        a: u64 => input,
        /// Column-index vector ID.
        b: u64 => input,
        /// Optional weight vector ID.
        w: Option<u64> => maybe,
        /// Optional fixed output dims.
        dims: Option<(u64, u64)> => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Element-wise conditional.
    11 => IfElse("ifelse") {
        /// Condition matrix ID.
        cond: u64 => input,
        /// Then branch ID (matrix or 1x1).
        then_v: u64 => input,
        /// Else branch ID (matrix or 1x1).
        else_v: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Fused `x ± s*y`.
    12 => Axpy(if *sub { "-*" } else { "+*" }) {
        /// Base matrix ID.
        x: u64 => input,
        /// Scale literal.
        s: f64 => lit,
        /// Added matrix ID.
        y: u64 => input,
        /// `true` for `-*`.
        sub: bool => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Weighted squared loss (scalar result).
    13 => WsLoss("wsloss") {
        /// Data matrix ID.
        x: u64 => input,
        /// Weight matrix ID.
        w: u64 => input,
        /// Left factor ID.
        u: u64 => input,
        /// Right factor ID.
        v: u64 => input,
        /// Output ID (1x1).
        out: u64 => out,
    }
    /// Weighted sigmoid.
    14 => WSigmoid("wsigmoid") {
        /// Weight matrix ID.
        w: u64 => input,
        /// Left factor ID.
        u: u64 => input,
        /// Right factor ID.
        v: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Weighted divide matmult.
    15 => WDivMm("wdivmm") {
        /// Weight matrix ID.
        w: u64 => input,
        /// Left factor ID.
        u: u64 => input,
        /// Right factor ID.
        v: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Weighted cross-entropy (scalar result).
    16 => WCeMm("wcemm") {
        /// Weight matrix ID.
        w: u64 => input,
        /// Left factor ID.
        u: u64 => input,
        /// Right factor ID.
        v: u64 => input,
        /// Epsilon literal.
        eps: f64 => lit,
        /// Output ID (1x1).
        out: u64 => out,
    }
    /// Matrix transpose, `t(x)`.
    17 => Transpose("r'") {
        /// Input ID.
        x: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Vertical concatenation.
    18 => Rbind("rbind") {
        /// Upper part ID.
        a: u64 => input,
        /// Lower part ID.
        b: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Horizontal concatenation.
    19 => Cbind("cbind") {
        /// Left part ID.
        a: u64 => input,
        /// Right part ID.
        b: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Drop all-zero rows/columns (optionally by select vector).
    20 => RemoveEmpty("removeEmpty") {
        /// Input ID.
        x: u64 => input,
        /// `true` = rows margin.
        rows: bool => lit,
        /// Optional 0/1 select vector ID.
        select: Option<u64> => maybe,
        /// Output ID.
        out: u64 => out,
    }
    /// Value replacement (pattern may be NaN).
    21 => Replace("replace") {
        /// Input ID.
        x: u64 => input,
        /// Pattern literal.
        pattern: f64 => lit,
        /// Replacement literal.
        replacement: f64 => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Right indexing `x[rl:ru, cl:cu]` (half-open, 0-based).
    22 => Index("rightIndex") {
        /// Input ID.
        x: u64 => input,
        /// Row lower bound.
        row_lo: u64 => lit,
        /// Row upper bound (exclusive).
        row_hi: u64 => lit,
        /// Column lower bound.
        col_lo: u64 => lit,
        /// Column upper bound (exclusive).
        col_hi: u64 => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Left indexing: copy of `x` with `y` written at `(row_lo, col_lo)`.
    23 => IndexAssign("leftIndex") {
        /// Target ID.
        x: u64 => input,
        /// Row offset.
        row_lo: u64 => lit,
        /// Column offset.
        col_lo: u64 => lit,
        /// Source ID.
        y: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Vector -> diagonal matrix, or square matrix -> diagonal vector.
    24 => Diag("rdiag") {
        /// Input ID.
        x: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Stable sort of rows by a column.
    25 => Order("order") {
        /// Input ID.
        x: u64 => input,
        /// Sort column (0-based).
        by: u64 => lit,
        /// Descending flag.
        decreasing: bool => lit,
        /// Return 1-based permutation instead of data.
        index_return: bool => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Gather rows by 1-based index vector.
    26 => GatherRows("gather") {
        /// Input ID.
        x: u64 => input,
        /// ID of the 1-based row index vector.
        idx: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Row-major reshape.
    27 => Reshape("rshape") {
        /// Input ID.
        x: u64 => input,
        /// New row count.
        rows: u64 => lit,
        /// New column count.
        cols: u64 => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Covariance of two vectors (1x1 result).
    28 => Cov("cov") {
        /// First vector ID.
        a: u64 => input,
        /// Second vector ID.
        b: u64 => input,
        /// Output ID.
        out: u64 => out,
    }
    /// Central moment of a vector (1x1 result).
    29 => CentralMoment("cm") {
        /// Vector ID.
        a: u64 => input,
        /// Moment order (2..=4).
        order: u32 => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Removes variables from the symbol table (`rmvar` cleanup).
    30 => Rmvar("rmvar") {
        /// IDs to drop.
        ids: Vec<u64> => lit,
    }
    /// First `transformencode` pass: the frame's partial encoder metadata
    /// (paper Figure 3), with the recode tokens the site may not release
    /// left out.
    31 => EncodeBuildPartial("tfencode-build") {
        /// Frame ID.
        frame: u64 => input,
        /// Transformation spec.
        spec: TransformSpec => lit,
        /// Output ID (partial metadata).
        out: u64 => out,
    }
    /// Second `transformencode` pass: the frame encoded under merged
    /// metadata.
    32 => EncodeApply("tfencode-apply") {
        /// Frame ID.
        frame: u64 => input,
        /// Transform metadata ID.
        meta: u64 => input,
        /// Output ID (encoded matrix).
        out: u64 => out,
    }
    /// Projects frame columns by name, in the given order.
    33 => FrameSelect("frame-select") {
        /// Frame ID.
        frame: u64 => input,
        /// Column names to keep.
        columns: Vec<String> => lit,
        /// Output ID (frame).
        out: u64 => out,
    }
    /// Rows `row_lo..row_hi` of a seeded random order of `x`'s rows, in
    /// one gather: the split's site-local shuffle. Equal seeds and row
    /// counts give equal orders, which keeps aligned matrices aligned, and
    /// two ranges under one seed split the rows disjointly.
    34 => Shuffle("shuffle") {
        /// Input ID.
        x: u64 => input,
        /// Permutation seed.
        seed: u64 => lit,
        /// First position of the permutation taken.
        row_lo: u64 => lit,
        /// One past the last position taken.
        row_hi: u64 => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// `x` stacked `times` times (imbalance handling by replication).
    35 => Replicate("replicate") {
        /// Input ID.
        x: u64 => input,
        /// Replication factor (>= 1).
        times: u64 => lit,
        /// Output ID.
        out: u64 => out,
    }
    /// Per-category counts of a frame column, as a (`token`, `count`)
    /// frame without the categories the site may not release (paper
    /// Example 4's mode imputation).
    36 => CategoryCounts("category-counts") {
        /// Frame ID.
        frame: u64 => input,
        /// Column name.
        column: String => lit,
        /// Output ID (frame).
        out: u64 => out,
    }
    /// The frame with the missing cells of one string column set to
    /// `value`.
    37 => FillMissing("fill-missing") {
        /// Frame ID.
        frame: u64 => input,
        /// Column name.
        column: String => lit,
        /// Replacement category.
        value: String => lit,
        /// Output ID (frame).
        out: u64 => out,
    }
}

/// How an instruction field travels on the wire and, as a literal, enters
/// the output's lineage.
trait Field: Sized {
    fn put(&self, buf: &mut impl BufMut);
    fn get(buf: &mut impl Buf) -> DecodeResult<Self>;
    fn mix(&self, h: u64) -> u64;
}

/// Fields that travel in their own [`Wire`] encoding, with the words each
/// mixes into a lineage.
macro_rules! wire_fields {
    ($($ty:ty => |$v:ident, $h:ident| $mix:expr,)*) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut impl BufMut) {
                self.encode(buf)
            }
            fn get(buf: &mut impl Buf) -> DecodeResult<Self> {
                Self::decode(buf)
            }
            fn mix(&self, $h: u64) -> u64 {
                let $v = self;
                $mix
            }
        }
    )*};
}

wire_fields! {
    u64 => |v, h| lineage::mix(h, *v),
    u32 => |v, h| lineage::mix(h, *v as u64),
    bool => |v, h| lineage::mix(h, *v as u64),
    f64 => |v, h| lineage::mix(h, v.to_bits()),
    Option<u64> => |v, h| v.map_or(h, |id| lineage::mix(h, id)),
    // Fixed dims mix `r, c` only when given.
    Option<(u64, u64)> => |v, h| v.map_or(h, |(r, c)| lineage::mix(lineage::mix(h, r), c)),
    Vec<u64> => |v, h| v.iter().fold(h, |h, id| lineage::mix(h, *id)),
    String => |v, h| lineage::mix(h, lineage::of_wire(v)),
    Vec<String> => |v, h| lineage::mix(h, lineage::of_wire(v)),
    TransformSpec => |v, h| lineage::mix(h, lineage::of_wire(v)),
}

/// Enums that travel, and mix, as their index in a fixed variant list.
macro_rules! tag_fields {
    ($($ty:ident $what:literal [$($v:ident),* $(,)?])*) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut impl BufMut) {
                buf.put_u8(tag_of(&[$($ty::$v),*], self, $what));
            }
            fn get(buf: &mut impl Buf) -> DecodeResult<Self> {
                let tag = u8::decode(buf)?;
                [$($ty::$v),*]
                    .get(tag as usize)
                    .copied()
                    .ok_or_else(|| DecodeError(format!("invalid {} tag {tag}", $what)))
            }
            fn mix(&self, h: u64) -> u64 {
                lineage::mix(h, tag_of(&[$($ty::$v),*], self, $what) as u64)
            }
        }
    )*};
}

fn tag_of<T: PartialEq>(table: &[T], v: &T, what: &'static str) -> u8 {
    table
        .iter()
        .position(|t| t == v)
        .unwrap_or_else(|| panic!("{what} missing from tag table")) as u8
}

tag_fields! {
    UnaryOp "unary op" [
        Abs, Cos, Sin, Tan, Exp, Log, Sqrt, Round, Floor, Ceil, Sign, Not, IsNa, Sigmoid, Neg,
        Square,
    ]
    BinaryOp "binary op" [
        Add, Sub, Mul, Div, IntDiv, Mod, Pow, Min, Max, Eq, Neq, Lt, Le, Gt, Ge, And, Or, Xor,
        LogBase,
    ]
    AggOp "agg op" [Sum, Min, Max, Mean, Var, Sd, SumSq]
    AggDir "agg dir" [Full, Row, Col]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_samples() -> Vec<Instruction> {
        use Instruction::*;
        vec![
            MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: false,
                out: 3,
            },
            MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: true,
                out: 3,
            },
            Tsmm {
                x: 1,
                left: true,
                out: 2,
            },
            MmChain {
                x: 1,
                v: 2,
                w: Some(3),
                out: 4,
            },
            MmChain {
                x: 1,
                v: 2,
                w: None,
                out: 4,
            },
            Unary {
                x: 1,
                op: UnaryOp::Sigmoid,
                out: 2,
            },
            Softmax { x: 1, out: 2 },
            Binary {
                lhs: 1,
                rhs: 2,
                op: BinaryOp::LogBase,
                out: 3,
            },
            Scalar {
                x: 1,
                op: BinaryOp::Pow,
                value: 2.5,
                swap: true,
                out: 2,
            },
            Agg {
                x: 1,
                op: AggOp::Var,
                dir: AggDir::Col,
                out: 2,
            },
            RowIndexMax { x: 1, out: 2 },
            RowIndexMin { x: 1, out: 2 },
            CTable {
                a: 1,
                b: 2,
                w: Some(3),
                dims: Some((4, 5)),
                out: 6,
            },
            IfElse {
                cond: 1,
                then_v: 2,
                else_v: 3,
                out: 4,
            },
            Axpy {
                x: 1,
                s: -0.5,
                y: 2,
                sub: true,
                out: 3,
            },
            WsLoss {
                x: 1,
                w: 2,
                u: 3,
                v: 4,
                out: 5,
            },
            WSigmoid {
                w: 1,
                u: 2,
                v: 3,
                out: 4,
            },
            WDivMm {
                w: 1,
                u: 2,
                v: 3,
                out: 4,
            },
            WCeMm {
                w: 1,
                u: 2,
                v: 3,
                eps: 1e-12,
                out: 4,
            },
            Transpose { x: 1, out: 2 },
            Rbind { a: 1, b: 2, out: 3 },
            Cbind { a: 1, b: 2, out: 3 },
            RemoveEmpty {
                x: 1,
                rows: false,
                select: Some(2),
                out: 3,
            },
            Replace {
                x: 1,
                pattern: f64::NAN,
                replacement: 0.0,
                out: 2,
            },
            Index {
                x: 1,
                row_lo: 0,
                row_hi: 10,
                col_lo: 2,
                col_hi: 5,
                out: 2,
            },
            IndexAssign {
                x: 1,
                row_lo: 3,
                col_lo: 4,
                y: 2,
                out: 5,
            },
            Diag { x: 1, out: 2 },
            Order {
                x: 1,
                by: 0,
                decreasing: true,
                index_return: false,
                out: 2,
            },
            GatherRows {
                x: 1,
                idx: 2,
                out: 3,
            },
            Reshape {
                x: 1,
                rows: 4,
                cols: 6,
                out: 2,
            },
            Cov { a: 1, b: 2, out: 3 },
            CentralMoment {
                a: 1,
                order: 3,
                out: 2,
            },
            Rmvar { ids: vec![1, 2, 3] },
            EncodeBuildPartial {
                frame: 1,
                spec: TransformSpec {
                    columns: vec![exdra_transform::ColumnSpec {
                        name: "a".into(),
                        kind: exdra_transform::EncodeKind::Recode,
                        one_hot: true,
                    }],
                },
                out: 2,
            },
            EncodeApply {
                frame: 1,
                meta: 2,
                out: 3,
            },
            FrameSelect {
                frame: 1,
                columns: vec!["a".into(), "b".into()],
                out: 2,
            },
            Shuffle {
                x: 1,
                seed: 42,
                row_lo: 3,
                row_hi: 17,
                out: 2,
            },
            Replicate {
                x: 1,
                times: 3,
                out: 2,
            },
            CategoryCounts {
                frame: 1,
                column: "recipe".into(),
                out: 2,
            },
            FillMissing {
                frame: 1,
                column: "recipe".into(),
                value: "R101".into(),
                out: 2,
            },
        ]
    }

    #[test]
    fn wire_roundtrip_every_variant() {
        for inst in all_samples() {
            let bytes = inst.to_bytes();
            let back = Instruction::from_bytes(&bytes).unwrap();
            // NaN-containing Replace compares by name/io sets instead.
            if let Instruction::Replace { pattern, .. } = &inst {
                if pattern.is_nan() {
                    assert_eq!(back.name(), inst.name());
                    continue;
                }
            }
            assert_eq!(back, inst);
        }
    }

    #[test]
    fn inputs_and_outputs_consistent() {
        for inst in all_samples() {
            if let Some(out) = inst.output() {
                assert!(
                    !inst.inputs().contains(&out),
                    "{}: output aliases input",
                    inst.name()
                );
            } else {
                assert!(matches!(inst, Instruction::Rmvar { .. }));
            }
        }
    }

    #[test]
    fn reads_names_exactly_the_inputs() {
        for inst in all_samples() {
            let inputs = inst.inputs();
            for id in 0..=inputs.iter().copied().max().unwrap_or(0) + 1 {
                assert_eq!(inst.reads(id), inputs.contains(&id), "{} {id}", inst.name());
            }
        }
    }

    #[test]
    fn map_operands_rewrites_the_inputs_and_nothing_else() {
        for inst in all_samples() {
            let mut moved = inst.clone();
            moved.map_operands(|id| id + 100);
            let want: Vec<u64> = inst.inputs().iter().map(|id| id + 100).collect();
            assert_eq!(moved.inputs(), want, "{}", inst.name());
            assert_eq!(moved.output(), inst.output(), "{}", inst.name());
            assert_eq!(moved.literals(), inst.literals(), "{}", inst.name());
        }
    }

    #[test]
    fn invalid_tag_rejected() {
        assert!(Instruction::from_bytes(&[200]).is_err());
    }
}
