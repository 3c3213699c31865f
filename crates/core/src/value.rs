//! Typed values held in symbol tables and shipped in requests/responses.

use bytes::{Buf, BufMut};
use exdra_matrix::frame::Frame;
use exdra_matrix::{DenseMatrix, Matrix};
use exdra_net::codec::{DecodeError, DecodeResult, Wire};
use exdra_transform::{PartialMeta, TransformMeta};

use crate::error::{Result, RuntimeError};

/// A value in a control program's symbol table.
#[derive(Debug, Clone, PartialEq)]
pub enum DataValue {
    /// A matrix (dense or compressed).
    Matrix(Matrix),
    /// A heterogeneous frame (raw data).
    Frame(Frame),
    /// A scalar.
    Scalar(f64),
    /// Consolidated transform metadata.
    TransformMeta(TransformMeta),
    /// Site-local (first-pass) transform metadata.
    PartialMeta(PartialMeta),
    /// A list of values (parameter-server models are lists of matrices).
    List(Vec<DataValue>),
}

impl DataValue {
    /// Short type name for errors and explain output.
    pub fn type_name(&self) -> &'static str {
        match self {
            DataValue::Matrix(_) => "matrix",
            DataValue::Frame(_) => "frame",
            DataValue::Scalar(_) => "scalar",
            DataValue::TransformMeta(_) => "transform-meta",
            DataValue::PartialMeta(_) => "partial-meta",
            DataValue::List(_) => "list",
        }
    }

    /// Borrows the matrix payload or errors.
    pub fn as_matrix(&self) -> Result<&Matrix> {
        match self {
            DataValue::Matrix(m) => Ok(m),
            other => Err(RuntimeError::Invalid(format!(
                "expected matrix, found {}",
                other.type_name()
            ))),
        }
    }

    /// Dense view of a matrix or 1x1 of a scalar.
    pub fn to_dense(&self) -> Result<DenseMatrix> {
        match self {
            DataValue::Matrix(m) => Ok(m.to_dense()),
            DataValue::Scalar(s) => Ok(DenseMatrix::filled(1, 1, *s)),
            other => Err(RuntimeError::Invalid(format!(
                "expected matrix-like, found {}",
                other.type_name()
            ))),
        }
    }

    /// Borrows the frame payload or errors.
    pub fn as_frame(&self) -> Result<&Frame> {
        match self {
            DataValue::Frame(f) => Ok(f),
            other => Err(RuntimeError::Invalid(format!(
                "expected frame, found {}",
                other.type_name()
            ))),
        }
    }

    /// Scalar payload (accepts 1x1 matrices).
    pub fn as_scalar(&self) -> Result<f64> {
        match self {
            DataValue::Scalar(s) => Ok(*s),
            DataValue::Matrix(m) if m.shape() == (1, 1) => Ok(m.to_dense().get(0, 0)),
            other => Err(RuntimeError::Invalid(format!(
                "expected scalar, found {}",
                other.type_name()
            ))),
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            DataValue::Matrix(m) => m.size_bytes(),
            DataValue::Frame(f) => f.size_bytes(),
            DataValue::Scalar(_) => 8,
            DataValue::TransformMeta(_) | DataValue::PartialMeta(_) => 64,
            DataValue::List(vs) => vs.iter().map(DataValue::size_bytes).sum(),
        }
    }
}

impl From<DenseMatrix> for DataValue {
    fn from(m: DenseMatrix) -> Self {
        DataValue::Matrix(Matrix::Dense(m))
    }
}

impl From<Matrix> for DataValue {
    fn from(m: Matrix) -> Self {
        DataValue::Matrix(m)
    }
}

impl From<f64> for DataValue {
    fn from(s: f64) -> Self {
        DataValue::Scalar(s)
    }
}

impl Wire for DataValue {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            DataValue::Matrix(m) => {
                buf.put_u8(0);
                m.encode(buf);
            }
            DataValue::Frame(f) => {
                buf.put_u8(1);
                f.encode(buf);
            }
            DataValue::Scalar(s) => {
                buf.put_u8(2);
                s.encode(buf);
            }
            DataValue::TransformMeta(m) => {
                buf.put_u8(3);
                m.encode(buf);
            }
            DataValue::PartialMeta(m) => {
                buf.put_u8(4);
                m.encode(buf);
            }
            DataValue::List(vs) => {
                buf.put_u8(5);
                vs.encode(buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(DataValue::Matrix(Matrix::decode(buf)?)),
            1 => Ok(DataValue::Frame(Frame::decode(buf)?)),
            2 => Ok(DataValue::Scalar(f64::decode(buf)?)),
            3 => Ok(DataValue::TransformMeta(TransformMeta::decode(buf)?)),
            4 => Ok(DataValue::PartialMeta(PartialMeta::decode(buf)?)),
            5 => Ok(DataValue::List(Wire::decode(buf)?)),
            t => Err(DecodeError(format!("invalid DataValue tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn accessors_check_types() {
        let m = DataValue::from(rand_matrix(2, 2, 0.0, 1.0, 1));
        assert!(m.as_matrix().is_ok());
        assert!(m.as_frame().is_err());
        assert!(m.as_scalar().is_err());
        let s = DataValue::Scalar(3.0);
        assert_eq!(s.as_scalar().unwrap(), 3.0);
        let one = DataValue::from(DenseMatrix::filled(1, 1, 7.0));
        assert_eq!(one.as_scalar().unwrap(), 7.0);
    }

    #[test]
    fn wire_roundtrip_nested_list() {
        let v = DataValue::List(vec![
            DataValue::Scalar(1.5),
            DataValue::from(rand_matrix(3, 2, -1.0, 1.0, 2)),
            DataValue::List(vec![DataValue::Scalar(2.0)]),
        ]);
        let back = DataValue::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn size_accounts_nested() {
        let v = DataValue::List(vec![
            DataValue::Scalar(0.0),
            DataValue::from(DenseMatrix::zeros(10, 10)),
        ]);
        assert_eq!(v.size_bytes(), 8 + 800);
    }
}
