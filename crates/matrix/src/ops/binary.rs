//! Elementwise binary operations with row/column-vector broadcasting.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

/// Elementwise binary operator codes, matching DML semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b` (Hadamard)
    Mul,
    /// `a / b`
    Div,
    /// `a ^ b`
    Pow,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a > b` as 0/1
    Greater,
    /// `a < b` as 0/1
    Less,
    /// `a >= b` as 0/1
    GreaterEq,
    /// `a <= b` as 0/1
    LessEq,
    /// `a == b` as 0/1
    Equal,
    /// `a != b` as 0/1
    NotEqual,
}

impl BinaryOp {
    /// Every operator, in declaration order.
    pub const ALL: [BinaryOp; 13] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Pow,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::Greater,
        BinaryOp::Less,
        BinaryOp::GreaterEq,
        BinaryOp::LessEq,
        BinaryOp::Equal,
        BinaryOp::NotEqual,
    ];

    /// The operator whose [`BinaryOp::opcode`] is `opcode`.
    pub fn from_opcode(opcode: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.opcode() == opcode)
    }

    /// Applies the operator to one pair of values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::Greater => (a > b) as u8 as f64,
            BinaryOp::Less => (a < b) as u8 as f64,
            BinaryOp::GreaterEq => (a >= b) as u8 as f64,
            BinaryOp::LessEq => (a <= b) as u8 as f64,
            BinaryOp::Equal => (a == b) as u8 as f64,
            BinaryOp::NotEqual => (a != b) as u8 as f64,
        }
    }

    /// Operator opcode string used in lineage traces.
    pub fn opcode(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "^",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Greater => ">",
            BinaryOp::Less => "<",
            BinaryOp::GreaterEq => ">=",
            BinaryOp::LessEq => "<=",
            BinaryOp::Equal => "==",
            BinaryOp::NotEqual => "!=",
        }
    }
}

/// Elementwise `lhs op rhs` with DML-style broadcasting.
///
/// Supported shapes: equal shapes, `rhs` a column vector with matching rows
/// (broadcast across columns), `rhs` a row vector with matching columns
/// (broadcast across rows), the symmetric cases for `lhs`, and 1x1 operands
/// on either side.
pub fn binary(lhs: &Matrix, rhs: &Matrix, op: BinaryOp) -> Result<Matrix> {
    if lhs.shape() == rhs.shape() {
        let out: Vec<f64> = lhs
            .values()
            .iter()
            .zip(rhs.values())
            .map(|(&a, &b)| op.apply(a, b))
            .collect();
        return Matrix::from_vec(lhs.rows(), lhs.cols(), out);
    }
    // Scalar-shaped operands.
    if rhs.shape() == (1, 1) {
        return Ok(binary_scalar(lhs, rhs.at(0, 0), op, false));
    }
    if lhs.shape() == (1, 1) {
        return Ok(binary_scalar(rhs, lhs.at(0, 0), op, true));
    }
    // Column-vector broadcast.
    if rhs.cols() == 1 && rhs.rows() == lhs.rows() {
        let mut out = Vec::with_capacity(lhs.len());
        for r in 0..lhs.rows() {
            let b = rhs.at(r, 0);
            out.extend(lhs.row(r).iter().map(|&a| op.apply(a, b)));
        }
        return Matrix::from_vec(lhs.rows(), lhs.cols(), out);
    }
    if lhs.cols() == 1 && lhs.rows() == rhs.rows() {
        let mut out = Vec::with_capacity(rhs.len());
        for r in 0..rhs.rows() {
            let a = lhs.at(r, 0);
            out.extend(rhs.row(r).iter().map(|&b| op.apply(a, b)));
        }
        return Matrix::from_vec(rhs.rows(), rhs.cols(), out);
    }
    // Row-vector broadcast.
    if rhs.rows() == 1 && rhs.cols() == lhs.cols() {
        let brow = rhs.row(0);
        let mut out = Vec::with_capacity(lhs.len());
        for r in 0..lhs.rows() {
            out.extend(lhs.row(r).iter().zip(brow).map(|(&a, &b)| op.apply(a, b)));
        }
        return Matrix::from_vec(lhs.rows(), lhs.cols(), out);
    }
    if lhs.rows() == 1 && lhs.cols() == rhs.cols() {
        let arow = lhs.row(0);
        let mut out = Vec::with_capacity(rhs.len());
        for r in 0..rhs.rows() {
            out.extend(arow.iter().zip(rhs.row(r)).map(|(&a, &b)| op.apply(a, b)));
        }
        return Matrix::from_vec(rhs.rows(), rhs.cols(), out);
    }
    Err(MatrixError::DimensionMismatch {
        op: "binary",
        lhs: lhs.shape(),
        rhs: rhs.shape(),
    })
}

/// Elementwise `m op s` (or `s op m` when `scalar_on_left`).
pub fn binary_scalar(m: &Matrix, s: f64, op: BinaryOp, scalar_on_left: bool) -> Matrix {
    let out: Vec<f64> = m
        .values()
        .iter()
        .map(|&v| {
            if scalar_on_left {
                op.apply(s, v)
            } else {
                op.apply(v, s)
            }
        })
        .collect();
    Matrix::from_vec(m.rows(), m.cols(), out).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn opcodes_round_trip_and_are_distinct() {
        for op in BinaryOp::ALL {
            assert_eq!(BinaryOp::from_opcode(op.opcode()), Some(op));
        }
        let mut codes: Vec<_> = BinaryOp::ALL.iter().map(|op| op.opcode()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), BinaryOp::ALL.len());
        assert_eq!(BinaryOp::from_opcode("sum"), None);
    }

    #[test]
    fn same_shape_add() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let c = binary(&a, &b, BinaryOp::Add).unwrap();
        assert_eq!(c.values(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn column_vector_broadcast() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = m(2, 1, &[10.0, 100.0]);
        let c = binary(&a, &v, BinaryOp::Mul).unwrap();
        assert_eq!(c.values(), &[10.0, 20.0, 30.0, 400.0, 500.0, 600.0]);
    }

    #[test]
    fn row_vector_broadcast() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = m(1, 3, &[1.0, 0.0, -1.0]);
        let c = binary(&a, &v, BinaryOp::Add).unwrap();
        assert_eq!(c.values(), &[2.0, 2.0, 2.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn scalar_operand_either_side() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let s = Matrix::scalar(2.0);
        let c = binary(&a, &s, BinaryOp::Pow).unwrap();
        assert_eq!(c.values(), &[1.0, 4.0, 9.0]);
        let d = binary(&s, &a, BinaryOp::Sub).unwrap();
        assert_eq!(d.values(), &[1.0, 0.0, -1.0]);
    }

    #[test]
    fn comparison_ops_produce_indicators() {
        let a = m(1, 4, &[1.0, 2.0, 3.0, 4.0]);
        let c = binary_scalar(&a, 2.5, BinaryOp::Greater, false);
        assert_eq!(c.values(), &[0.0, 0.0, 1.0, 1.0]);
        let c = binary_scalar(&a, 2.0, BinaryOp::Equal, false);
        assert_eq!(c.values(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn incompatible_shapes_rejected() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(3, 2, &[0.0; 6]);
        assert!(matches!(
            binary(&a, &b, BinaryOp::Add),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn min_max_and_div() {
        let a = m(1, 3, &[1.0, -2.0, 3.0]);
        let b = m(1, 3, &[2.0, -1.0, 3.0]);
        assert_eq!(
            binary(&a, &b, BinaryOp::Min).unwrap().values(),
            &[1.0, -2.0, 3.0]
        );
        assert_eq!(
            binary(&a, &b, BinaryOp::Max).unwrap().values(),
            &[2.0, -1.0, 3.0]
        );
        assert_eq!(
            binary(&a, &b, BinaryOp::Div).unwrap().values(),
            &[0.5, 2.0, 1.0]
        );
    }
}
