//! Runtime instructions.
//!
//! An [`Instruction`] is the payload of an `EXEC_INST` federated request
//! (paper §4.1): it reads its inputs from the executing control program's
//! symbol table by ID and binds its output there. The same instruction set
//! is executed by the coordinator (local operations) and by federated
//! workers — the paper's "we can reuse existing instructions for composing
//! federated operations".

use bytes::{Buf, BufMut};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_net::codec::{DecodeError, DecodeResult, Wire};

/// A runtime instruction over symbol-table IDs (Table 1 surface).
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// `out = lhs %*% rhs`, or `out = t(lhs) %*% rhs` with `t_lhs` — the
    /// transposed-left product runs on `lhs` as stored, no transpose is
    /// ever materialized.
    MatMul {
        /// Left operand ID.
        lhs: u64,
        /// Right operand ID.
        rhs: u64,
        /// `true` for `t(lhs) %*% rhs` (opcode `t-ba+*`).
        t_lhs: bool,
        /// Output ID.
        out: u64,
    },
    /// Transpose-self matmult: `out = xᵀx` (left) or `x xᵀ`.
    Tsmm {
        /// Input ID.
        x: u64,
        /// `true` for `xᵀx`.
        left: bool,
        /// Output ID.
        out: u64,
    },
    /// Fused `out = xᵀ (w ⊙ (x v))`.
    MmChain {
        /// Data matrix ID.
        x: u64,
        /// Vector ID.
        v: u64,
        /// Optional weight vector ID.
        w: Option<u64>,
        /// Output ID.
        out: u64,
    },
    /// Element-wise unary op.
    Unary {
        /// Input ID.
        x: u64,
        /// Operation.
        op: UnaryOp,
        /// Output ID.
        out: u64,
    },
    /// Row-wise softmax.
    Softmax {
        /// Input ID.
        x: u64,
        /// Output ID.
        out: u64,
    },
    /// Element-wise binary op with broadcasting.
    Binary {
        /// Left operand ID.
        lhs: u64,
        /// Right operand ID (matrix, row/col vector, or 1x1).
        rhs: u64,
        /// Operation.
        op: BinaryOp,
        /// Output ID.
        out: u64,
    },
    /// Matrix-scalar op; `swap` computes `scalar op matrix`.
    Scalar {
        /// Input ID.
        x: u64,
        /// Operation.
        op: BinaryOp,
        /// Scalar literal.
        value: f64,
        /// Operand order flag.
        swap: bool,
        /// Output ID.
        out: u64,
    },
    /// Aggregate along a direction.
    Agg {
        /// Input ID.
        x: u64,
        /// Aggregate function.
        op: AggOp,
        /// Direction.
        dir: AggDir,
        /// Output ID.
        out: u64,
    },
    /// 1-based row-wise argmax.
    RowIndexMax {
        /// Input ID.
        x: u64,
        /// Output ID.
        out: u64,
    },
    /// 1-based row-wise argmin.
    RowIndexMin {
        /// Input ID.
        x: u64,
        /// Output ID.
        out: u64,
    },
    /// Contingency table.
    CTable {
        /// Row-index vector ID.
        a: u64,
        /// Column-index vector ID.
        b: u64,
        /// Optional weight vector ID.
        w: Option<u64>,
        /// Optional fixed output dims.
        dims: Option<(u64, u64)>,
        /// Output ID.
        out: u64,
    },
    /// Element-wise conditional.
    IfElse {
        /// Condition matrix ID.
        cond: u64,
        /// Then branch ID (matrix or 1x1).
        then_v: u64,
        /// Else branch ID (matrix or 1x1).
        else_v: u64,
        /// Output ID.
        out: u64,
    },
    /// Fused `x ± s*y`.
    Axpy {
        /// Base matrix ID.
        x: u64,
        /// Scale literal.
        s: f64,
        /// Added matrix ID.
        y: u64,
        /// `true` for `-*`.
        sub: bool,
        /// Output ID.
        out: u64,
    },
    /// Weighted squared loss (scalar result).
    WsLoss {
        /// Data matrix ID.
        x: u64,
        /// Weight matrix ID.
        w: u64,
        /// Left factor ID.
        u: u64,
        /// Right factor ID.
        v: u64,
        /// Output ID (1x1).
        out: u64,
    },
    /// Weighted sigmoid.
    WSigmoid {
        /// Weight matrix ID.
        w: u64,
        /// Left factor ID.
        u: u64,
        /// Right factor ID.
        v: u64,
        /// Output ID.
        out: u64,
    },
    /// Weighted divide matmult.
    WDivMm {
        /// Weight matrix ID.
        w: u64,
        /// Left factor ID.
        u: u64,
        /// Right factor ID.
        v: u64,
        /// Output ID.
        out: u64,
    },
    /// Weighted cross-entropy (scalar result).
    WCeMm {
        /// Weight matrix ID.
        w: u64,
        /// Left factor ID.
        u: u64,
        /// Right factor ID.
        v: u64,
        /// Epsilon literal.
        eps: f64,
        /// Output ID (1x1).
        out: u64,
    },
    /// Transpose.
    Transpose {
        /// Input ID.
        x: u64,
        /// Output ID.
        out: u64,
    },
    /// Vertical concatenation.
    Rbind {
        /// Upper part ID.
        a: u64,
        /// Lower part ID.
        b: u64,
        /// Output ID.
        out: u64,
    },
    /// Horizontal concatenation.
    Cbind {
        /// Left part ID.
        a: u64,
        /// Right part ID.
        b: u64,
        /// Output ID.
        out: u64,
    },
    /// Drop all-zero rows/columns (optionally by select vector).
    RemoveEmpty {
        /// Input ID.
        x: u64,
        /// `true` = rows margin.
        rows: bool,
        /// Optional 0/1 select vector ID.
        select: Option<u64>,
        /// Output ID.
        out: u64,
    },
    /// Value replacement (pattern may be NaN).
    Replace {
        /// Input ID.
        x: u64,
        /// Pattern literal.
        pattern: f64,
        /// Replacement literal.
        replacement: f64,
        /// Output ID.
        out: u64,
    },
    /// Right indexing `x[rl:ru, cl:cu]` (half-open, 0-based).
    Index {
        /// Input ID.
        x: u64,
        /// Row lower bound.
        row_lo: u64,
        /// Row upper bound (exclusive).
        row_hi: u64,
        /// Column lower bound.
        col_lo: u64,
        /// Column upper bound (exclusive).
        col_hi: u64,
        /// Output ID.
        out: u64,
    },
    /// Left indexing: copy of `x` with `y` written at `(row_lo, col_lo)`.
    IndexAssign {
        /// Target ID.
        x: u64,
        /// Row offset.
        row_lo: u64,
        /// Column offset.
        col_lo: u64,
        /// Source ID.
        y: u64,
        /// Output ID.
        out: u64,
    },
    /// Vector -> diagonal matrix, or square matrix -> diagonal vector.
    Diag {
        /// Input ID.
        x: u64,
        /// Output ID.
        out: u64,
    },
    /// Stable sort of rows by a column.
    Order {
        /// Input ID.
        x: u64,
        /// Sort column (0-based).
        by: u64,
        /// Descending flag.
        decreasing: bool,
        /// Return 1-based permutation instead of data.
        index_return: bool,
        /// Output ID.
        out: u64,
    },
    /// Gather rows by 1-based index vector.
    GatherRows {
        /// Input ID.
        x: u64,
        /// Index vector ID.
        idx: u64,
        /// Output ID.
        out: u64,
    },
    /// Row-major reshape.
    Reshape {
        /// Input ID.
        x: u64,
        /// New row count.
        rows: u64,
        /// New column count.
        cols: u64,
        /// Output ID.
        out: u64,
    },
    /// Covariance of two vectors (1x1 result).
    Cov {
        /// First vector ID.
        a: u64,
        /// Second vector ID.
        b: u64,
        /// Output ID.
        out: u64,
    },
    /// Central moment of a vector (1x1 result).
    CentralMoment {
        /// Vector ID.
        a: u64,
        /// Moment order (2..=4).
        order: u32,
        /// Output ID.
        out: u64,
    },
    /// Removes variables from the symbol table (`rmvar` cleanup).
    Rmvar {
        /// IDs to drop.
        ids: Vec<u64>,
    },
}

impl Instruction {
    /// Input symbol IDs read by this instruction.
    pub fn inputs(&self) -> Vec<u64> {
        use Instruction::*;
        match self {
            MatMul { lhs, rhs, .. } => vec![*lhs, *rhs],
            Tsmm { x, .. } => vec![*x],
            MmChain { x, v, w, .. } => {
                let mut ids = vec![*x, *v];
                ids.extend(w.iter());
                ids
            }
            Unary { x, .. } | Softmax { x, .. } => vec![*x],
            Binary { lhs, rhs, .. } => vec![*lhs, *rhs],
            Scalar { x, .. } => vec![*x],
            Agg { x, .. } | RowIndexMax { x, .. } | RowIndexMin { x, .. } => vec![*x],
            CTable { a, b, w, .. } => {
                let mut ids = vec![*a, *b];
                ids.extend(w.iter());
                ids
            }
            IfElse {
                cond,
                then_v,
                else_v,
                ..
            } => vec![*cond, *then_v, *else_v],
            Axpy { x, y, .. } => vec![*x, *y],
            WsLoss { x, w, u, v, .. } => vec![*x, *w, *u, *v],
            WSigmoid { w, u, v, .. } | WDivMm { w, u, v, .. } | WCeMm { w, u, v, .. } => {
                vec![*w, *u, *v]
            }
            Transpose { x, .. } => vec![*x],
            Rbind { a, b, .. } | Cbind { a, b, .. } => vec![*a, *b],
            RemoveEmpty { x, select, .. } => {
                let mut ids = vec![*x];
                ids.extend(select.iter());
                ids
            }
            Replace { x, .. }
            | Index { x, .. }
            | Diag { x, .. }
            | Order { x, .. }
            | Reshape { x, .. } => vec![*x],
            IndexAssign { x, y, .. } => vec![*x, *y],
            GatherRows { x, idx, .. } => vec![*x, *idx],
            Cov { a, b, .. } => vec![*a, *b],
            CentralMoment { a, .. } => vec![*a],
            Rmvar { .. } => vec![],
        }
    }

    /// Output symbol ID bound by this instruction (None for `rmvar`).
    pub fn output(&self) -> Option<u64> {
        use Instruction::*;
        match self {
            MatMul { out, .. }
            | Tsmm { out, .. }
            | MmChain { out, .. }
            | Unary { out, .. }
            | Softmax { out, .. }
            | Binary { out, .. }
            | Scalar { out, .. }
            | Agg { out, .. }
            | RowIndexMax { out, .. }
            | RowIndexMin { out, .. }
            | CTable { out, .. }
            | IfElse { out, .. }
            | Axpy { out, .. }
            | WsLoss { out, .. }
            | WSigmoid { out, .. }
            | WDivMm { out, .. }
            | WCeMm { out, .. }
            | Transpose { out, .. }
            | Rbind { out, .. }
            | Cbind { out, .. }
            | RemoveEmpty { out, .. }
            | Replace { out, .. }
            | Index { out, .. }
            | IndexAssign { out, .. }
            | Diag { out, .. }
            | Order { out, .. }
            | GatherRows { out, .. }
            | Reshape { out, .. }
            | Cov { out, .. }
            | CentralMoment { out, .. } => Some(*out),
            Rmvar { .. } => None,
        }
    }

    /// Canonical opcode name for explain strings and lineage keys.
    pub fn name(&self) -> &'static str {
        use Instruction::*;
        match self {
            MatMul { t_lhs: false, .. } => "ba+*",
            // The plan's name for the same op: priced and profiled apart.
            MatMul { t_lhs: true, .. } => "t-ba+*",
            Tsmm { .. } => "tsmm",
            MmChain { .. } => "mmchain",
            Unary { op, .. } => op.name(),
            Softmax { .. } => "softmax",
            Binary { op, .. } => op.name(),
            Scalar { op, .. } => op.name(),
            Agg { op, .. } => op.name(),
            RowIndexMax { .. } => "rowIndexMax",
            RowIndexMin { .. } => "rowIndexMin",
            CTable { .. } => "ctable",
            IfElse { .. } => "ifelse",
            Axpy { sub, .. } => {
                if *sub {
                    "-*"
                } else {
                    "+*"
                }
            }
            WsLoss { .. } => "wsloss",
            WSigmoid { .. } => "wsigmoid",
            WDivMm { .. } => "wdivmm",
            WCeMm { .. } => "wcemm",
            Transpose { .. } => "r'",
            Rbind { .. } => "rbind",
            Cbind { .. } => "cbind",
            RemoveEmpty { .. } => "removeEmpty",
            Replace { .. } => "replace",
            Index { .. } => "rightIndex",
            IndexAssign { .. } => "leftIndex",
            Diag { .. } => "rdiag",
            Order { .. } => "order",
            GatherRows { .. } => "gather",
            Reshape { .. } => "rshape",
            Cov { .. } => "cov",
            CentralMoment { .. } => "cm",
            Rmvar { .. } => "rmvar",
        }
    }
}

// --- op tag helpers -------------------------------------------------------

const UNARY_OPS: [UnaryOp; 16] = [
    UnaryOp::Abs,
    UnaryOp::Cos,
    UnaryOp::Sin,
    UnaryOp::Tan,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Sqrt,
    UnaryOp::Round,
    UnaryOp::Floor,
    UnaryOp::Ceil,
    UnaryOp::Sign,
    UnaryOp::Not,
    UnaryOp::IsNa,
    UnaryOp::Sigmoid,
    UnaryOp::Neg,
    UnaryOp::Square,
];

const BINARY_OPS: [BinaryOp; 19] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::IntDiv,
    BinaryOp::Mod,
    BinaryOp::Pow,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Eq,
    BinaryOp::Neq,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::LogBase,
];

const AGG_OPS: [AggOp; 7] = [
    AggOp::Sum,
    AggOp::Min,
    AggOp::Max,
    AggOp::Mean,
    AggOp::Var,
    AggOp::Sd,
    AggOp::SumSq,
];

const AGG_DIRS: [AggDir; 3] = [AggDir::Full, AggDir::Row, AggDir::Col];

fn tag_of<T: PartialEq>(table: &[T], v: &T, what: &'static str) -> u8 {
    table
        .iter()
        .position(|t| t == v)
        .unwrap_or_else(|| panic!("{what} missing from tag table")) as u8
}

fn from_tag<T: Copy>(table: &[T], tag: u8, what: &str) -> DecodeResult<T> {
    table
        .get(tag as usize)
        .copied()
        .ok_or_else(|| DecodeError(format!("invalid {what} tag {tag}")))
}

impl Wire for Instruction {
    fn encode(&self, buf: &mut impl BufMut) {
        use Instruction::*;
        match self {
            MatMul {
                lhs,
                rhs,
                t_lhs,
                out,
            } => {
                buf.put_u8(0);
                lhs.encode(buf);
                rhs.encode(buf);
                t_lhs.encode(buf);
                out.encode(buf);
            }
            Tsmm { x, left, out } => {
                buf.put_u8(1);
                x.encode(buf);
                left.encode(buf);
                out.encode(buf);
            }
            MmChain { x, v, w, out } => {
                buf.put_u8(2);
                x.encode(buf);
                v.encode(buf);
                w.encode(buf);
                out.encode(buf);
            }
            Unary { x, op, out } => {
                buf.put_u8(3);
                x.encode(buf);
                buf.put_u8(tag_of(&UNARY_OPS, op, "unary op"));
                out.encode(buf);
            }
            Softmax { x, out } => {
                buf.put_u8(4);
                x.encode(buf);
                out.encode(buf);
            }
            Binary { lhs, rhs, op, out } => {
                buf.put_u8(5);
                lhs.encode(buf);
                rhs.encode(buf);
                buf.put_u8(tag_of(&BINARY_OPS, op, "binary op"));
                out.encode(buf);
            }
            Scalar {
                x,
                op,
                value,
                swap,
                out,
            } => {
                buf.put_u8(6);
                x.encode(buf);
                buf.put_u8(tag_of(&BINARY_OPS, op, "binary op"));
                value.encode(buf);
                swap.encode(buf);
                out.encode(buf);
            }
            Agg { x, op, dir, out } => {
                buf.put_u8(7);
                x.encode(buf);
                buf.put_u8(tag_of(&AGG_OPS, op, "agg op"));
                buf.put_u8(tag_of(&AGG_DIRS, dir, "agg dir"));
                out.encode(buf);
            }
            RowIndexMax { x, out } => {
                buf.put_u8(8);
                x.encode(buf);
                out.encode(buf);
            }
            RowIndexMin { x, out } => {
                buf.put_u8(9);
                x.encode(buf);
                out.encode(buf);
            }
            CTable { a, b, w, dims, out } => {
                buf.put_u8(10);
                a.encode(buf);
                b.encode(buf);
                w.encode(buf);
                dims.map(|(r, c)| (r, c)).encode(buf);
                out.encode(buf);
            }
            IfElse {
                cond,
                then_v,
                else_v,
                out,
            } => {
                buf.put_u8(11);
                cond.encode(buf);
                then_v.encode(buf);
                else_v.encode(buf);
                out.encode(buf);
            }
            Axpy { x, s, y, sub, out } => {
                buf.put_u8(12);
                x.encode(buf);
                s.encode(buf);
                y.encode(buf);
                sub.encode(buf);
                out.encode(buf);
            }
            WsLoss { x, w, u, v, out } => {
                buf.put_u8(13);
                x.encode(buf);
                w.encode(buf);
                u.encode(buf);
                v.encode(buf);
                out.encode(buf);
            }
            WSigmoid { w, u, v, out } => {
                buf.put_u8(14);
                w.encode(buf);
                u.encode(buf);
                v.encode(buf);
                out.encode(buf);
            }
            WDivMm { w, u, v, out } => {
                buf.put_u8(15);
                w.encode(buf);
                u.encode(buf);
                v.encode(buf);
                out.encode(buf);
            }
            WCeMm { w, u, v, eps, out } => {
                buf.put_u8(16);
                w.encode(buf);
                u.encode(buf);
                v.encode(buf);
                eps.encode(buf);
                out.encode(buf);
            }
            Transpose { x, out } => {
                buf.put_u8(17);
                x.encode(buf);
                out.encode(buf);
            }
            Rbind { a, b, out } => {
                buf.put_u8(18);
                a.encode(buf);
                b.encode(buf);
                out.encode(buf);
            }
            Cbind { a, b, out } => {
                buf.put_u8(19);
                a.encode(buf);
                b.encode(buf);
                out.encode(buf);
            }
            RemoveEmpty {
                x,
                rows,
                select,
                out,
            } => {
                buf.put_u8(20);
                x.encode(buf);
                rows.encode(buf);
                select.encode(buf);
                out.encode(buf);
            }
            Replace {
                x,
                pattern,
                replacement,
                out,
            } => {
                buf.put_u8(21);
                x.encode(buf);
                pattern.encode(buf);
                replacement.encode(buf);
                out.encode(buf);
            }
            Index {
                x,
                row_lo,
                row_hi,
                col_lo,
                col_hi,
                out,
            } => {
                buf.put_u8(22);
                x.encode(buf);
                row_lo.encode(buf);
                row_hi.encode(buf);
                col_lo.encode(buf);
                col_hi.encode(buf);
                out.encode(buf);
            }
            IndexAssign {
                x,
                row_lo,
                col_lo,
                y,
                out,
            } => {
                buf.put_u8(23);
                x.encode(buf);
                row_lo.encode(buf);
                col_lo.encode(buf);
                y.encode(buf);
                out.encode(buf);
            }
            Diag { x, out } => {
                buf.put_u8(24);
                x.encode(buf);
                out.encode(buf);
            }
            Order {
                x,
                by,
                decreasing,
                index_return,
                out,
            } => {
                buf.put_u8(25);
                x.encode(buf);
                by.encode(buf);
                decreasing.encode(buf);
                index_return.encode(buf);
                out.encode(buf);
            }
            GatherRows { x, idx, out } => {
                buf.put_u8(26);
                x.encode(buf);
                idx.encode(buf);
                out.encode(buf);
            }
            Reshape { x, rows, cols, out } => {
                buf.put_u8(27);
                x.encode(buf);
                rows.encode(buf);
                cols.encode(buf);
                out.encode(buf);
            }
            Cov { a, b, out } => {
                buf.put_u8(28);
                a.encode(buf);
                b.encode(buf);
                out.encode(buf);
            }
            CentralMoment { a, order, out } => {
                buf.put_u8(29);
                a.encode(buf);
                order.encode(buf);
                out.encode(buf);
            }
            Rmvar { ids } => {
                buf.put_u8(30);
                ids.encode(buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        use Instruction::*;
        let tag = u8::decode(buf)?;
        Ok(match tag {
            0 => MatMul {
                lhs: u64::decode(buf)?,
                rhs: u64::decode(buf)?,
                t_lhs: bool::decode(buf)?,
                out: u64::decode(buf)?,
            },
            1 => Tsmm {
                x: u64::decode(buf)?,
                left: bool::decode(buf)?,
                out: u64::decode(buf)?,
            },
            2 => MmChain {
                x: u64::decode(buf)?,
                v: u64::decode(buf)?,
                w: Option::decode(buf)?,
                out: u64::decode(buf)?,
            },
            3 => Unary {
                x: u64::decode(buf)?,
                op: from_tag(&UNARY_OPS, u8::decode(buf)?, "unary op")?,
                out: u64::decode(buf)?,
            },
            4 => Softmax {
                x: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            5 => Binary {
                lhs: u64::decode(buf)?,
                rhs: u64::decode(buf)?,
                op: from_tag(&BINARY_OPS, u8::decode(buf)?, "binary op")?,
                out: u64::decode(buf)?,
            },
            6 => Scalar {
                x: u64::decode(buf)?,
                op: from_tag(&BINARY_OPS, u8::decode(buf)?, "binary op")?,
                value: f64::decode(buf)?,
                swap: bool::decode(buf)?,
                out: u64::decode(buf)?,
            },
            7 => Agg {
                x: u64::decode(buf)?,
                op: from_tag(&AGG_OPS, u8::decode(buf)?, "agg op")?,
                dir: from_tag(&AGG_DIRS, u8::decode(buf)?, "agg dir")?,
                out: u64::decode(buf)?,
            },
            8 => RowIndexMax {
                x: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            9 => RowIndexMin {
                x: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            10 => CTable {
                a: u64::decode(buf)?,
                b: u64::decode(buf)?,
                w: Option::decode(buf)?,
                dims: Option::<(u64, u64)>::decode(buf)?,
                out: u64::decode(buf)?,
            },
            11 => IfElse {
                cond: u64::decode(buf)?,
                then_v: u64::decode(buf)?,
                else_v: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            12 => Axpy {
                x: u64::decode(buf)?,
                s: f64::decode(buf)?,
                y: u64::decode(buf)?,
                sub: bool::decode(buf)?,
                out: u64::decode(buf)?,
            },
            13 => WsLoss {
                x: u64::decode(buf)?,
                w: u64::decode(buf)?,
                u: u64::decode(buf)?,
                v: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            14 => WSigmoid {
                w: u64::decode(buf)?,
                u: u64::decode(buf)?,
                v: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            15 => WDivMm {
                w: u64::decode(buf)?,
                u: u64::decode(buf)?,
                v: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            16 => WCeMm {
                w: u64::decode(buf)?,
                u: u64::decode(buf)?,
                v: u64::decode(buf)?,
                eps: f64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            17 => Transpose {
                x: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            18 => Rbind {
                a: u64::decode(buf)?,
                b: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            19 => Cbind {
                a: u64::decode(buf)?,
                b: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            20 => RemoveEmpty {
                x: u64::decode(buf)?,
                rows: bool::decode(buf)?,
                select: Option::decode(buf)?,
                out: u64::decode(buf)?,
            },
            21 => Replace {
                x: u64::decode(buf)?,
                pattern: f64::decode(buf)?,
                replacement: f64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            22 => Index {
                x: u64::decode(buf)?,
                row_lo: u64::decode(buf)?,
                row_hi: u64::decode(buf)?,
                col_lo: u64::decode(buf)?,
                col_hi: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            23 => IndexAssign {
                x: u64::decode(buf)?,
                row_lo: u64::decode(buf)?,
                col_lo: u64::decode(buf)?,
                y: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            24 => Diag {
                x: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            25 => Order {
                x: u64::decode(buf)?,
                by: u64::decode(buf)?,
                decreasing: bool::decode(buf)?,
                index_return: bool::decode(buf)?,
                out: u64::decode(buf)?,
            },
            26 => GatherRows {
                x: u64::decode(buf)?,
                idx: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            27 => Reshape {
                x: u64::decode(buf)?,
                rows: u64::decode(buf)?,
                cols: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            28 => Cov {
                a: u64::decode(buf)?,
                b: u64::decode(buf)?,
                out: u64::decode(buf)?,
            },
            29 => CentralMoment {
                a: u64::decode(buf)?,
                order: u32::decode(buf)?,
                out: u64::decode(buf)?,
            },
            30 => Rmvar {
                ids: Vec::decode(buf)?,
            },
            t => return Err(DecodeError(format!("invalid instruction tag {t}"))),
        })
    }
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
    fn invalid_tag_rejected() {
        assert!(Instruction::from_bytes(&[200]).is_err());
    }
}
