//! The engine-side [`LineageExecutor`]: re-executes serialized lineage
//! traces through the engine's own instructions, enabling the paper's
//! RECOMPUTE API for debugging and cross-environment reproduction (§3.2).
//!
//! Each lineage node decodes through the operator table
//! ([`OpKind::from_lineage`]) and runs via [`ExecutionContext::apply`] in a
//! reuse-off, CPU-only context, so a replayed value comes from the same
//! kernels as the traced one.

use crate::config::{EngineConfig, ReuseMode};
use crate::context::ExecutionContext;
use crate::plan::OpKind;
use crate::value::Value;
use memphis_core::cache::entry::CachedObject;
use memphis_core::lineage::LItem;
use memphis_core::recompute::LineageExecutor;
use memphis_matrix::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Executes lineage nodes over driver-local matrices. Leaf nodes resolve
/// through the registered input datasets (by the same names used in
/// `ExecutionContext::read`).
#[derive(Default)]
pub struct MatrixExecutor {
    /// Input datasets by lineage leaf name.
    pub inputs: HashMap<String, Matrix>,
    /// Replay context, created on first use.
    ctx: Option<ExecutionContext>,
}

impl MatrixExecutor {
    /// Creates an executor with the given input datasets.
    pub fn new(inputs: HashMap<String, Matrix>) -> Self {
        Self { inputs, ctx: None }
    }

    /// Registers one input dataset.
    pub fn with_input(mut self, name: &str, m: Matrix) -> Self {
        self.inputs.insert(name.to_string(), m);
        self
    }
}

impl LineageExecutor for MatrixExecutor {
    fn execute(&mut self, item: &LItem, inputs: &[CachedObject]) -> Result<CachedObject, String> {
        match &*item.opcode {
            "leaf" => {
                let name = item.data.first().ok_or("leaf without a name")?;
                if let Some(v) = name.strip_prefix("scalar:") {
                    let v = v.parse().map_err(|_| format!("bad scalar: {v}"))?;
                    return Ok(CachedObject::Scalar(v));
                }
                return self
                    .inputs
                    .get(name)
                    .map(|m| CachedObject::Matrix(Arc::new(m.clone())))
                    .ok_or_else(|| format!("unknown input dataset {name}"));
            }
            // A prefetched collect: the same value, now driver-local.
            "collect" => {
                return inputs
                    .first()
                    .cloned()
                    .ok_or_else(|| "collect without input".into())
            }
            _ => {}
        }
        let kind = OpKind::from_lineage(&item.opcode, &item.data, inputs.len())?;
        let ctx = self.ctx.get_or_insert_with(|| {
            ExecutionContext::local(EngineConfig::test().with_reuse(ReuseMode::None))
        });
        let names: Vec<String> = (0..inputs.len()).map(|i| format!("in{i}")).collect();
        for (name, obj) in names.iter().zip(inputs) {
            let value = match obj {
                CachedObject::Matrix(m) => Value::Matrix(m.as_ref().clone()),
                CachedObject::Scalar(v) => Value::Scalar(*v),
                other => return Err(format!("non-local input: {}", other.backend())),
            };
            ctx.bind(name, value, None, 0.0);
        }
        let ins: Vec<&str> = names.iter().map(String::as_str).collect();
        ctx.apply("out", &kind, &ins).map_err(|e| e.to_string())?;
        match ctx.value("out").map_err(|e| e.to_string())? {
            Value::Scalar(v) => Ok(CachedObject::Scalar(*v)),
            Value::Matrix(m) => Ok(CachedObject::Matrix(Arc::new(m.clone()))),
            other => Err(format!("non-local result: {}", other.backend())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AggDir;
    use memphis_core::lineage::serialize;
    use memphis_core::recompute::recompute;
    use memphis_matrix::ops::agg::AggOp;
    use memphis_matrix::ops::binary::{self, BinaryOp};
    use memphis_matrix::ops::matmul::tsmm;
    use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
    use memphis_matrix::ops::unary::{self, UnaryOp};
    use memphis_matrix::rand_gen::rand_uniform;

    /// Serializes `var`'s lineage, RECOMPUTEs it from the named `inputs`,
    /// and asserts the replayed value is bit-identical to the traced one.
    fn assert_replays(ctx: &mut ExecutionContext, var: &str, inputs: &[(&str, &Matrix)]) {
        let log = serialize(&ctx.lineage_of(var).expect("traced"));
        let mut exec = MatrixExecutor::new(
            inputs
                .iter()
                .map(|(name, m)| (name.to_string(), (*m).clone()))
                .collect(),
        );
        let replayed = recompute(&log, &mut exec).unwrap_or_else(|e| panic!("{var}: {e}"));
        match (ctx.value(var).unwrap().clone(), replayed) {
            (Value::Scalar(a), CachedObject::Scalar(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{var}")
            }
            (_, CachedObject::Matrix(m)) => {
                let traced = ctx.get_matrix(var).unwrap();
                assert_eq!(traced.fingerprint(), m.fingerprint(), "{var}");
            }
            (v, other) => panic!("{var}: traced {v:?}, replayed {other:?}"),
        }
    }

    #[test]
    fn recompute_replays_conv2d_then_max_pool2d() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let img = rand_uniform(4, 3 * 8 * 8, 0.0, 1.0, 7);
        ctx.read("IMG", img.clone(), "img.bin").unwrap();
        ctx.rand("W", 4, 27, -0.3, 0.3, 300).unwrap();
        let conv = Conv2dParams {
            in_channels: 3,
            out_channels: 4,
            height: 8,
            width: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        ctx.conv2d("C", "IMG", "W", conv).unwrap();
        let pool = Pool2dParams {
            channels: 4,
            height: 8,
            width: 8,
            window: 2,
            stride: 2,
        };
        ctx.max_pool2d("P", "C", pool).unwrap();
        assert_replays(&mut ctx, "C", &[("img.bin", &img)]);
        assert_replays(&mut ctx, "P", &[("img.bin", &img)]);
    }

    #[test]
    fn recompute_replays_every_builtin_instruction() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let x = rand_uniform(12, 4, -1.0, 1.0, 1);
        let y = rand_uniform(12, 2, -1.0, 1.0, 2);
        let inputs = [("X.bin", &x), ("y.bin", &y)];
        ctx.read("X", x.clone(), "X.bin").unwrap();
        ctx.read("y", y.clone(), "y.bin").unwrap();
        ctx.rand("W", 4, 3, -0.5, 0.5, 11).unwrap();
        ctx.rand("b", 1, 3, 0.0, 0.1, 12).unwrap();
        ctx.affine("aff", "X", "W", "b").unwrap();
        ctx.xty("xty", "X", "y").unwrap();
        ctx.seq("seq", 1.0, 12.0, 1.0).unwrap();
        ctx.rbind("rb", "X", "X").unwrap();
        ctx.cbind("cb", "X", "y").unwrap();
        ctx.binary_const("mask", "seq", 6.5, BinaryOp::Greater, false)
            .unwrap();
        ctx.select_rows("sel", "X", "mask").unwrap();
        ctx.softmax("sm", "aff").unwrap();
        ctx.dropout("dr", "X", 0.25, 99).unwrap();
        ctx.slice_rows("sr", "X", 2, 7).unwrap();
        ctx.slice_cols("sc", "X", 1, 3).unwrap();
        ctx.binary_const("half", "X", 0.5, BinaryOp::Sub, true)
            .unwrap();
        ctx.unary("ab", "half", UnaryOp::Abs).unwrap();
        ctx.matmul("mm", "X", "W").unwrap();
        ctx.transpose("t", "mm").unwrap();
        for (dir, tag) in [
            (AggDir::Full, "full"),
            (AggDir::Row, "row"),
            (AggDir::Col, "col"),
        ] {
            ctx.agg(tag, "X", AggOp::Mean, dir).unwrap();
        }
        for var in [
            "aff", "xty", "seq", "rb", "cb", "sel", "sm", "dr", "sr", "sc", "ab", "t", "full",
            "row", "col",
        ] {
            assert_replays(&mut ctx, var, &inputs);
        }
    }

    #[test]
    fn undecodable_lineage_is_an_error_not_a_panic() {
        use memphis_core::lineage::LineageItem;
        let mut exec = MatrixExecutor::default();
        let (conv, _) = OpKind::Conv2d(Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 2,
            width: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        })
        .lineage()
        .unwrap();
        let truncated = vec!["Conv2dParams { in_channels: 1 }".to_string()];
        let item = LineageItem::new(&conv, truncated, vec![]);
        assert!(exec.execute(&item, &[]).is_err());
        let (mm, data) = OpKind::MatMul.lineage().unwrap();
        let item = LineageItem::new(&mm, data, vec![]);
        assert!(exec.execute(&item, &[]).is_err(), "arity is checked");
    }

    #[test]
    fn recompute_reproduces_traced_pipeline() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let x = rand_uniform(16, 4, -1.0, 1.0, 1);
        ctx.read("X", x.clone(), "X.bin").unwrap();
        ctx.tsmm("G", "X").unwrap();
        ctx.binary_const("A", "G", 0.1, BinaryOp::Add, false)
            .unwrap();
        ctx.unary("R", "A", UnaryOp::Sqrt).unwrap();
        let expected = ctx.get_matrix("R").unwrap();

        // Serialize the trace, then RECOMPUTE it from scratch.
        let trace = ctx.lineage_of("R").expect("traced");
        let log = serialize(&trace);
        let mut exec = MatrixExecutor::default().with_input("X.bin", x.clone());
        match recompute(&log, &mut exec).unwrap() {
            CachedObject::Matrix(m) => {
                assert!(m.approx_eq(&expected, 1e-12));
                let manual = unary::unary(
                    &binary::binary_scalar(&tsmm(&x).unwrap(), 0.1, BinaryOp::Add, false),
                    UnaryOp::Sqrt,
                );
                assert!(m.approx_eq(&manual, 1e-12));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recompute_handles_rand_and_scalars() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        ctx.rand("X", 8, 8, 0.0, 1.0, 99).unwrap();
        ctx.literal("s", 3.0).unwrap();
        ctx.binary("Y", "X", "s", BinaryOp::Mul).unwrap();
        ctx.agg("t", "Y", AggOp::Sum, crate::ops::AggDir::Full)
            .unwrap();
        let expected = ctx.get_scalar("t").unwrap();
        let log = serialize(&ctx.lineage_of("t").unwrap());
        let mut exec = MatrixExecutor::default();
        match recompute(&log, &mut exec).unwrap() {
            CachedObject::Scalar(v) => assert!((v - expected).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_dataset_errors() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        ctx.read("X", rand_uniform(4, 4, 0.0, 1.0, 2), "missing.bin")
            .unwrap();
        ctx.tsmm("G", "X").unwrap();
        let log = serialize(&ctx.lineage_of("G").unwrap());
        let mut exec = MatrixExecutor::default();
        assert!(recompute(&log, &mut exec).is_err());
    }
}
