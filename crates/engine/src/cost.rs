//! Size estimation for eviction scoring and placement. Per-operator
//! compute costs live in the operator table ([`crate::plan::OpKind`]);
//! this module's tests pin that cost model.

/// Dense size in bytes of an `rows x cols` f64 matrix.
pub fn dense_bytes(rows: usize, cols: usize) -> usize {
    rows * cols * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AggDir;
    use crate::plan::OpKind;
    use memphis_matrix::ops::agg::AggOp;
    use memphis_matrix::ops::binary::BinaryOp;
    use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
    use memphis_matrix::ops::unary::UnaryOp;

    #[test]
    fn matmul_dominates_elementwise() {
        assert!(
            OpKind::MatMul.flops(100, 100, 100) > OpKind::Binary(BinaryOp::Add).flops(100, 1, 100)
        );
    }

    #[test]
    fn tsmm_cheaper_than_full_mm() {
        assert!(OpKind::Tsmm.flops(1000, 1, 50) < OpKind::MatMul.flops(50, 1000, 50));
    }

    #[test]
    fn zero_dims_clamped() {
        assert!(OpKind::Binary(BinaryOp::Add).flops(0, 0, 0) >= 1.0);
        // Data movement counts the cells it touches, so empty is free.
        assert_eq!(OpKind::SliceRows { start: 2, end: 2 }.flops(0, 1, 5), 0.0);
    }

    #[test]
    fn classification() {
        assert!(OpKind::MatMul.gpu_eligible());
        assert!(OpKind::Conv2d(Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 3,
            width: 3,
            kernel: 3,
            stride: 1,
            pad: 0,
        })
        .gpu_eligible());
        assert!(OpKind::Xty.gpu_eligible());
        assert!(OpKind::Softmax.gpu_eligible());
        assert!(!OpKind::Binary(BinaryOp::Add).gpu_eligible());
        assert!(!OpKind::Unary(UnaryOp::Relu).gpu_eligible());
        assert!(!OpKind::Agg(AggOp::Max, AggDir::Full).gpu_eligible());
        assert!(!OpKind::Dropout { rate: 0.5, seed: 1 }.gpu_eligible());
    }

    #[test]
    fn matmul_family_costs_two_mkn() {
        let (m, k, n) = (7, 11, 13);
        let mm = 2.0 * 7.0 * 11.0 * 13.0;
        assert_eq!(OpKind::MatMul.flops(m, k, n), mm);
        assert_eq!(OpKind::Affine.flops(m, k, n), mm);
        assert_eq!(OpKind::Xty.flops(m, k, n), mm);
        // Pooling, softmax, dropout and rand keep the one-pass m*n cost.
        let pool = OpKind::MaxPool2d(Pool2dParams {
            channels: 1,
            height: 4,
            width: 4,
            window: 2,
            stride: 2,
        });
        for kind in [
            pool,
            OpKind::Softmax,
            OpKind::Dropout { rate: 0.5, seed: 1 },
            OpKind::Rand {
                rows: 1,
                cols: 1,
                min: 0.0,
                max: 1.0,
                seed: 1,
            },
        ] {
            assert_eq!(kind.flops(m, 1, n), 91.0, "{kind:?}");
        }
    }

    #[test]
    fn dense_bytes_is_8_per_cell() {
        assert_eq!(dense_bytes(4, 4), 128);
    }
}
