//! Full, row-wise, and column-wise aggregations.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

/// Aggregation operator codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum of squares (used by norms and variance computations).
    SumSq,
    /// Number of non-zero values.
    Nnz,
    /// Population variance.
    Var,
    /// Index (1-based, as in DML) of the row-wise maximum; only valid for
    /// row aggregation.
    ArgMax,
}

impl AggOp {
    /// Every operator, in declaration order.
    pub const ALL: [AggOp; 8] = [
        AggOp::Sum,
        AggOp::Mean,
        AggOp::Min,
        AggOp::Max,
        AggOp::SumSq,
        AggOp::Nnz,
        AggOp::Var,
        AggOp::ArgMax,
    ];

    /// The operator whose [`AggOp::opcode`] is `opcode`.
    pub fn from_opcode(opcode: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.opcode() == opcode)
    }

    /// Opcode string used in lineage traces.
    pub fn opcode(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Mean => "mean",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::SumSq => "sumsq",
            AggOp::Nnz => "nnz",
            AggOp::Var => "var",
            AggOp::ArgMax => "argmax",
        }
    }
}

fn agg_slice(values: impl Iterator<Item = f64>, op: AggOp, n: usize) -> f64 {
    match op {
        AggOp::Sum => values.sum(),
        AggOp::Mean => values.sum::<f64>() / n as f64,
        AggOp::Min => values.fold(f64::INFINITY, f64::min),
        AggOp::Max => values.fold(f64::NEG_INFINITY, f64::max),
        AggOp::SumSq => values.map(|v| v * v).sum(),
        AggOp::Nnz => values.filter(|&v| v != 0.0).count() as f64,
        AggOp::Var => {
            let vals: Vec<f64> = values.collect();
            let mean = vals.iter().sum::<f64>() / n as f64;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64
        }
        AggOp::ArgMax => {
            let mut best = f64::NEG_INFINITY;
            let mut idx = 0usize;
            for (i, v) in values.enumerate() {
                if v > best {
                    best = v;
                    idx = i;
                }
            }
            (idx + 1) as f64
        }
    }
}

/// Aggregates the full matrix to a scalar.
pub fn aggregate(m: &Matrix, op: AggOp) -> Result<f64> {
    if m.is_empty() {
        return Err(MatrixError::Empty("aggregate"));
    }
    Ok(agg_slice(m.values().iter().copied(), op, m.len()))
}

/// Aggregates each row, producing a column vector (`rows x 1`).
pub fn row_agg(m: &Matrix, op: AggOp) -> Result<Matrix> {
    if m.is_empty() {
        return Err(MatrixError::Empty("row_agg"));
    }
    let out: Vec<f64> = (0..m.rows())
        .map(|r| agg_slice(m.row(r).iter().copied(), op, m.cols()))
        .collect();
    Matrix::from_vec(m.rows(), 1, out)
}

/// Aggregates each column, producing a row vector (`1 x cols`).
pub fn col_agg(m: &Matrix, op: AggOp) -> Result<Matrix> {
    if m.is_empty() {
        return Err(MatrixError::Empty("col_agg"));
    }
    let cols = m.cols();
    let out: Vec<f64> = (0..cols)
        .map(|c| agg_slice((0..m.rows()).map(|r| m.at(r, c)), op, m.rows()))
        .collect();
    Matrix::from_vec(1, cols, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn opcodes_round_trip_and_are_distinct() {
        for op in AggOp::ALL {
            assert_eq!(AggOp::from_opcode(op.opcode()), Some(op));
        }
        let mut codes: Vec<_> = AggOp::ALL.iter().map(|op| op.opcode()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), AggOp::ALL.len());
        assert_eq!(AggOp::from_opcode("uasum"), None);
    }

    #[test]
    fn full_aggregations() {
        let m = m23();
        assert_eq!(aggregate(&m, AggOp::Sum).unwrap(), 21.0);
        assert_eq!(aggregate(&m, AggOp::Mean).unwrap(), 3.5);
        assert_eq!(aggregate(&m, AggOp::Min).unwrap(), 1.0);
        assert_eq!(aggregate(&m, AggOp::Max).unwrap(), 6.0);
        assert_eq!(aggregate(&m, AggOp::SumSq).unwrap(), 91.0);
    }

    #[test]
    fn nnz_counts_nonzeros() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, -2.0]).unwrap();
        assert_eq!(aggregate(&m, AggOp::Nnz).unwrap(), 2.0);
    }

    #[test]
    fn row_and_col_sums() {
        let m = m23();
        assert_eq!(row_agg(&m, AggOp::Sum).unwrap().values(), &[6.0, 15.0]);
        assert_eq!(col_agg(&m, AggOp::Sum).unwrap().values(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn row_argmax_is_one_based() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3]).unwrap();
        assert_eq!(row_agg(&m, AggOp::ArgMax).unwrap().values(), &[2.0, 1.0]);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let m = Matrix::filled(3, 3, 4.2);
        assert!(aggregate(&m, AggOp::Var).unwrap().abs() < 1e-12);
        let v = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((aggregate(&v, AggOp::Var).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = Matrix::zeros(0, 0);
        assert!(aggregate(&m, AggOp::Sum).is_err());
        assert!(row_agg(&m, AggOp::Sum).is_err());
        assert!(col_agg(&m, AggOp::Sum).is_err());
    }

    #[test]
    fn col_mean_matches_manual() {
        let m = m23();
        let cm = col_agg(&m, AggOp::Mean).unwrap();
        assert_eq!(cm.values(), &[2.5, 3.5, 4.5]);
    }
}
