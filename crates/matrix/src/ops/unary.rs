//! Elementwise unary operations.

use crate::dense::Matrix;

/// Elementwise unary operator codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `exp(x)`
    Exp,
    /// Natural logarithm.
    Log,
    /// `sqrt(x)`
    Sqrt,
    /// `|x|`
    Abs,
    /// `-x`
    Neg,
    /// `round(x)` (half away from zero)
    Round,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Logistic sigmoid: `1 / (1 + exp(-x))`.
    Sigmoid,
    /// `tanh(x)`
    Tanh,
    /// Sign function in `{-1, 0, 1}`.
    Sign,
    /// `1/x`
    Recip,
    /// Indicator of non-zero cells.
    NotZero,
    /// Indicator of NaN cells (used by imputation primitives).
    IsNan,
    /// Replaces NaN cells with zero (used by imputation primitives).
    Nan0,
}

impl UnaryOp {
    /// Every operator, in declaration order.
    pub const ALL: [UnaryOp; 16] = [
        UnaryOp::Exp,
        UnaryOp::Log,
        UnaryOp::Sqrt,
        UnaryOp::Abs,
        UnaryOp::Neg,
        UnaryOp::Round,
        UnaryOp::Floor,
        UnaryOp::Ceil,
        UnaryOp::Relu,
        UnaryOp::Sigmoid,
        UnaryOp::Tanh,
        UnaryOp::Sign,
        UnaryOp::Recip,
        UnaryOp::NotZero,
        UnaryOp::IsNan,
        UnaryOp::Nan0,
    ];

    /// The operator whose [`UnaryOp::opcode`] is `opcode`.
    pub fn from_opcode(opcode: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.opcode() == opcode)
    }

    /// Applies the operator to one value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Exp => x.exp(),
            UnaryOp::Log => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Neg => -x,
            UnaryOp::Round => x.round(),
            UnaryOp::Floor => x.floor(),
            UnaryOp::Ceil => x.ceil(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::NotZero => (x != 0.0) as u8 as f64,
            UnaryOp::IsNan => x.is_nan() as u8 as f64,
            UnaryOp::Nan0 => {
                if x.is_nan() {
                    0.0
                } else {
                    x
                }
            }
        }
    }

    /// Operator opcode string used in lineage traces.
    pub fn opcode(self) -> &'static str {
        match self {
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Abs => "abs",
            UnaryOp::Neg => "neg",
            UnaryOp::Round => "round",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Relu => "relu",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sign => "sign",
            UnaryOp::Recip => "recip",
            UnaryOp::NotZero => "notzero",
            UnaryOp::IsNan => "isnan",
            UnaryOp::Nan0 => "nan0",
        }
    }
}

/// Applies `op` to every cell of `m`.
pub fn unary(m: &Matrix, op: UnaryOp) -> Matrix {
    let out: Vec<f64> = m.values().iter().map(|&v| op.apply(v)).collect();
    Matrix::from_vec(m.rows(), m.cols(), out).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_round_trip_and_are_distinct() {
        for op in UnaryOp::ALL {
            assert_eq!(UnaryOp::from_opcode(op.opcode()), Some(op));
        }
        let mut codes: Vec<_> = UnaryOp::ALL.iter().map(|op| op.opcode()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), UnaryOp::ALL.len());
        assert_eq!(UnaryOp::from_opcode("+"), None);
    }

    #[test]
    fn relu_clamps_negatives() {
        let m = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.0, 3.0]).unwrap();
        assert_eq!(unary(&m, UnaryOp::Relu).values(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        let m = Matrix::from_vec(1, 3, vec![-10.0, 0.0, 10.0]).unwrap();
        let s = unary(&m, UnaryOp::Sigmoid);
        assert!(s.at(0, 0) < 0.001);
        assert_eq!(s.at(0, 1), 0.5);
        assert!(s.at(0, 2) > 0.999);
    }

    #[test]
    fn exp_log_roundtrip() {
        let m = Matrix::from_vec(1, 3, vec![0.5, 1.0, 2.0]).unwrap();
        let back = unary(&unary(&m, UnaryOp::Log), UnaryOp::Exp);
        assert!(m.approx_eq(&back, 1e-12));
    }

    #[test]
    fn sign_and_notzero() {
        let m = Matrix::from_vec(1, 3, vec![-4.0, 0.0, 9.0]).unwrap();
        assert_eq!(unary(&m, UnaryOp::Sign).values(), &[-1.0, 0.0, 1.0]);
        assert_eq!(unary(&m, UnaryOp::NotZero).values(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn isnan_flags_missing_values() {
        let m = Matrix::from_vec(1, 3, vec![1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(unary(&m, UnaryOp::IsNan).values(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn rounding_family() {
        let m = Matrix::from_vec(1, 3, vec![1.4, 1.5, -1.5]).unwrap();
        assert_eq!(unary(&m, UnaryOp::Round).values(), &[1.0, 2.0, -2.0]);
        assert_eq!(unary(&m, UnaryOp::Floor).values(), &[1.0, 1.0, -2.0]);
        assert_eq!(unary(&m, UnaryOp::Ceil).values(), &[2.0, 2.0, -1.0]);
    }
}
