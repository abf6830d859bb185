//! The engine's instruction set: every method executes through the
//! Figure-4 reuse hook with operator placement across CPU, the simulated
//! Spark cluster, and the simulated GPU device.
//!
//! Distributed matrices are **row-blocked**: one record per `blen`-row
//! stripe, keyed `(row_block, 0)`. This matches the tall-and-skinny
//! feature matrices of the paper's workloads and makes elementwise ops
//! narrow (co-partitioned zips) while aggregations use single-block
//! `reduce()` actions — the implicit-action pattern §4.1 exploits for
//! Spark action reuse.

use crate::context::{EngineError, ExecutionContext, Result};
use crate::cost;
use crate::plan::{OpKind, ScalarRef};
use crate::value::Value;
use memphis_matrix::ops::agg::{self, AggOp};
use memphis_matrix::ops::binary::{self, BinaryOp};
use memphis_matrix::ops::matmul as mm;
use memphis_matrix::ops::nn::{self, Conv2dParams, Pool2dParams};
use memphis_matrix::ops::reorg;
use memphis_matrix::ops::solve as msolve;
use memphis_matrix::ops::unary::{self, UnaryOp};
use memphis_matrix::rand_gen;
use memphis_matrix::{BlockId, Matrix};
use memphis_sparksim::{RddRef, Record};
use std::sync::Arc;

/// Aggregation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggDir {
    /// Full aggregation to a scalar.
    Full,
    /// Per-row aggregation to a column vector.
    Row,
    /// Per-column aggregation to a row vector.
    Col,
}

/// Splits a dense matrix into row-blocked records.
pub(crate) fn row_blocked(m: &Matrix, blen: usize) -> Vec<Record> {
    let rows = m.rows();
    let nrb = rows.div_ceil(blen).max(1);
    (0..nrb)
        .map(|rb| {
            let r0 = rb * blen;
            let r1 = ((rb + 1) * blen).min(rows);
            (
                BlockId { row: rb, col: 0 },
                reorg::slice_rows(m, r0.min(rows), r1).expect("in bounds"),
            )
        })
        .collect()
}

impl ExecutionContext {
    /// Executes one planner operator writing `out` from the operand
    /// variables `ins` (in operator order): the interpreter's dispatch and
    /// the RECOMPUTE replay path.
    pub fn apply(&mut self, out: &str, kind: &OpKind, ins: &[&str]) -> Result<()> {
        // Pass-through operators rebind their input under the output name.
        let alias = |ctx: &mut Self| {
            if out != ins[0] {
                ctx.assign(out, ins[0])?;
            }
            Ok(())
        };
        match kind {
            OpKind::Rand {
                rows,
                cols,
                min,
                max,
                seed,
            } => self.rand(out, *rows, *cols, *min, *max, *seed),
            OpKind::Seq { from, to, incr } => self.seq(out, *from, *to, *incr),
            OpKind::MatMul => self.matmul(out, ins[0], ins[1]),
            OpKind::Tsmm => self.tsmm(out, ins[0]),
            OpKind::Xty => self.xty(out, ins[0], ins[1]),
            OpKind::Transpose => self.transpose(out, ins[0]),
            OpKind::Solve => self.solve(out, ins[0], ins[1]),
            OpKind::Binary(op) => self.binary(out, ins[0], ins[1], *op),
            OpKind::BinaryScalar { op, scalar, swap } => match scalar {
                ScalarRef::Const(c) => self.binary_const(out, ins[0], *c, *op, *swap),
                ScalarRef::Loop(v) if !self.has(v) => Err(EngineError::UnknownVar(v.clone())),
                ScalarRef::Loop(v) if *swap => self.binary(out, v, ins[0], *op),
                ScalarRef::Loop(v) => self.binary(out, ins[0], v, *op),
            },
            OpKind::Unary(op) => self.unary(out, ins[0], *op),
            OpKind::Agg(op, dir) => self.agg(out, ins[0], *op, *dir),
            OpKind::Literal(v) => self.literal(out, *v),
            OpKind::Alias => alias(self),
            OpKind::SliceRows { start, end } => self.slice_rows(out, ins[0], *start, *end),
            OpKind::SliceCols { start, end } => self.slice_cols(out, ins[0], *start, *end),
            OpKind::Rbind => self.rbind(out, ins[0], ins[1]),
            OpKind::Cbind => self.cbind(out, ins[0], ins[1]),
            OpKind::SelectRows => self.select_rows(out, ins[0], ins[1]),
            OpKind::Conv2d(p) => self.conv2d(out, ins[0], ins[1], *p),
            OpKind::MaxPool2d(p) => self.max_pool2d(out, ins[0], *p),
            OpKind::Affine => self.affine(out, ins[0], ins[1], ins[2]),
            OpKind::Softmax => self.softmax(out, ins[0]),
            OpKind::Dropout { rate, seed } => self.dropout(out, ins[0], *rate, *seed),
            OpKind::Checkpoint => {
                self.checkpoint(ins[0])?;
                alias(self)
            }
            OpKind::Prefetch => {
                self.prefetch(ins[0])?;
                alias(self)
            }
            OpKind::Broadcast => {
                self.broadcast(ins[0])?;
                alias(self)
            }
            OpKind::Evict(fraction) => {
                self.evict_gpu(*fraction);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Data binding (sources)
    // ------------------------------------------------------------------

    /// Traces `var` as the leaf `name` when this mode traces lineage.
    fn trace_leaf(&mut self, var: &str, name: &str) -> Option<memphis_core::lineage::LItem> {
        if self.cfg.reuse.traces() {
            Some(self.lineage.set_leaf(var, name))
        } else {
            None
        }
    }

    /// Binds an input dataset, placing it on Spark when it exceeds the
    /// operation-memory threshold. `name` uniquely identifies the data in
    /// lineage traces (file path / content fingerprint).
    pub fn read(&mut self, var: &str, m: Matrix, name: &str) -> Result<()> {
        if m.size_bytes() > self.cfg.spark_threshold_bytes && self.sc.is_some() {
            return self.read_distributed(var, m, name);
        }
        let item = self.trace_leaf(var, name);
        let c = m.len() as f64;
        self.bind(var, Value::Matrix(m), item, c);
        Ok(())
    }

    /// Binds an input dataset as a distributed row-blocked RDD.
    pub fn read_distributed(&mut self, var: &str, m: Matrix, name: &str) -> Result<()> {
        let cells = m.len() as f64;
        let rdd = self.matrix_to_rdd_value(m, name)?;
        let item = self.trace_leaf(var, name);
        self.bind(var, rdd, item, cells);
        Ok(())
    }

    /// Binds a scalar literal. Equal values yield equal lineage, enabling
    /// reuse across calls with repeated hyper-parameters.
    pub fn literal(&mut self, var: &str, v: f64) -> Result<()> {
        let item = self.trace_leaf(var, &format!("scalar:{v}"));
        self.bind(var, Value::Scalar(v), item, 1.0);
        Ok(())
    }

    /// Seeded uniform random matrix (DML `rand`). Deterministic per seed,
    /// so lineage-based reuse is sound.
    pub fn rand(
        &mut self,
        out: &str,
        rows: usize,
        cols: usize,
        min: f64,
        max: f64,
        seed: u64,
    ) -> Result<()> {
        let kind = OpKind::Rand {
            rows,
            cols,
            min,
            max,
            seed,
        };
        let c = kind.flops(rows, 1, cols);
        let threshold = self.cfg.spark_threshold_bytes;
        let has_sc = self.sc.is_some();
        self.exec_op(out, &kind, &[], move |ctx| {
            let m = rand_gen::rand_uniform(rows, cols, min, max, seed);
            if m.size_bytes() > threshold && has_sc {
                let v = ctx.matrix_to_rdd_value(m, "rand")?;
                Ok((v, c))
            } else {
                Ok((Value::Matrix(m), c))
            }
        })
    }

    /// Sequence column vector (DML `seq`).
    pub fn seq(&mut self, out: &str, from: f64, to: f64, incr: f64) -> Result<()> {
        let kind = OpKind::Seq { from, to, incr };
        self.exec_op(out, &kind, &[], |_| {
            let m = Matrix::seq(from, to, incr);
            let c = kind.flops(m.rows(), 1, m.cols());
            Ok((Value::Matrix(m), c))
        })
    }

    pub(crate) fn matrix_to_rdd_value(&mut self, m: Matrix, name: &str) -> Result<Value> {
        let sc = self.require_spark()?.clone();
        let (rows, cols) = m.shape();
        let blen = self.cfg.blen;
        let rdd = sc.parallelize(row_blocked(&m, blen), sc.config().default_parallelism, name);
        Ok(Value::Rdd {
            rdd,
            rows,
            cols,
            blen,
        })
    }

    /// Runs a job-triggering action either inline or — when asynchronous
    /// operators are enabled (§5.1's prefetch) — on a background thread,
    /// returning a future immediately. The background thread PUTs the
    /// collected result into the cache once available.
    pub(crate) fn run_action<F>(&mut self, f: F, op_cost: f64) -> Result<(Value, f64)>
    where
        F: FnOnce() -> Matrix + Send + 'static,
    {
        if !self.cfg.async_ops {
            return Ok((Value::Matrix(f()), op_cost));
        }
        let future = crate::value::Future::new();
        let fut = future.clone();
        let cache = self.cache.clone();
        let item = self.current_item.clone();
        let puts = self.cfg.reuse.puts_ops() && self.cfg.reuse.multibackend();
        let delay = self.delay;
        std::thread::spawn(move || {
            let m = f();
            if puts {
                if let Some(item) = &item {
                    let size = m.size_bytes();
                    cache.put(
                        item,
                        memphis_core::cache::entry::CachedObject::Matrix(std::sync::Arc::new(
                            m.clone(),
                        )),
                        op_cost,
                        size,
                        delay,
                    );
                }
            }
            fut.fulfill(Value::Matrix(m));
        });
        Ok((Value::Future(future), op_cost))
    }

    // ------------------------------------------------------------------
    // Input resolution helpers
    // ------------------------------------------------------------------

    /// Resolves futures so the value can be inspected (waits if needed).
    pub(crate) fn resolve(&mut self, var: &str) -> Result<Value> {
        let b = self.binding(var)?.clone();
        match b.value {
            Value::Future(f) => {
                let v = f.get();
                self.bind(var, v.clone(), b.lineage, b.cost);
                Ok(v)
            }
            v => Ok(v),
        }
    }

    /// Forces an input to a local dense matrix (collect / device-to-host).
    pub(crate) fn local_input(&mut self, var: &str) -> Result<Matrix> {
        self.resolve(var)?;
        self.get_matrix(var)
    }

    fn rdd_input(&mut self, var: &str) -> Result<(RddRef, usize, usize, usize)> {
        match self.resolve(var)? {
            Value::Rdd {
                rdd,
                rows,
                cols,
                blen,
            } => Ok((rdd, rows, cols, blen)),
            _ => Err(EngineError::Unsupported(format!(
                "{var} is not distributed"
            ))),
        }
    }

    /// A broadcast handle for a local input, creating (and rebinding) the
    /// broadcast on first use so later operators share it.
    pub(crate) fn bc_input(&mut self, var: &str) -> Result<memphis_sparksim::BroadcastRef> {
        let v = self.resolve(var)?;
        match v {
            // Re-broadcast if lazy GC destroyed the previous copy.
            Value::Broadcast { bc, local } if bc.is_destroyed() => self.rebroadcast(var, local),
            Value::Broadcast { bc, .. } => Ok(bc),
            Value::Matrix(m) => {
                let _span = memphis_obs::span(memphis_obs::cat::ASYNC, "broadcast");
                self.rebroadcast(var, m)
            }
            Value::Scalar(s) => Ok(self.require_spark()?.broadcast(Matrix::scalar(s))),
            // Broadcasting a distributed operand requires collecting it to
            // the driver first (it must be small enough).
            Value::Rdd { .. } => {
                let m = self.get_matrix(var)?;
                self.rebroadcast(var, m)
            }
            _ => Err(EngineError::Unsupported(format!(
                "{var} cannot be broadcast from backend {}",
                v.backend()
            ))),
        }
    }

    /// Broadcasts the driver-local `local` and rebinds `var` to the handle.
    pub(crate) fn rebroadcast(
        &mut self,
        var: &str,
        local: Matrix,
    ) -> Result<memphis_sparksim::BroadcastRef> {
        let bc = self.require_spark()?.broadcast(local.clone());
        let b = self.binding(var)?.clone();
        let value = Value::Broadcast {
            bc: bc.clone(),
            local,
        };
        self.bind(var, value, b.lineage, b.cost);
        Ok(bc)
    }

    fn note_job_for(&self, var: &str) {
        if let Some(item) = self.lineage_of(var) {
            self.cache.note_job(&item);
        }
    }

    /// Resolves `var` (waiting on a future) and returns its value and
    /// shape.
    fn resolved(&mut self, var: &str) -> Result<(Value, (usize, usize))> {
        let v = self.resolve(var)?;
        let shape = v
            .shape()
            .ok_or_else(|| EngineError::Unsupported(format!("{var} has no shape")))?;
        Ok((v, shape))
    }

    /// A dense instruction over resolved operands `ins`: `kernel` runs as
    /// a device kernel when `gpu` gives the output shape, and on the
    /// driver otherwise.
    fn dense_op<K>(
        &mut self,
        out: &str,
        kind: &OpKind,
        ins: &[&str],
        op_cost: f64,
        gpu: Option<(usize, usize)>,
        kernel: K,
    ) -> Result<()>
    where
        K: FnOnce(&[&Matrix]) -> memphis_matrix::Result<Matrix> + Send + 'static,
    {
        self.exec_op(out, kind, ins, move |ctx| {
            ctx.dense_exec(ins, op_cost, gpu, kernel)
        })
    }

    /// The body of [`ExecutionContext::dense_op`], for instructions that
    /// pick a Spark plan first.
    fn dense_exec<K>(
        &mut self,
        ins: &[&str],
        op_cost: f64,
        gpu: Option<(usize, usize)>,
        kernel: K,
    ) -> Result<(Value, f64)>
    where
        K: FnOnce(&[&Matrix]) -> memphis_matrix::Result<Matrix> + Send + 'static,
    {
        match gpu {
            Some((rows, cols)) => self.gpu_exec(ins, rows, cols, op_cost, move |ms| {
                kernel(ms).expect("dims")
            }),
            None => {
                let ms = ins
                    .iter()
                    .map(|v| self.local_input(v))
                    .collect::<Result<Vec<_>>>()?;
                let ms: Vec<&Matrix> = ms.iter().collect();
                Ok((Value::Matrix(kernel(&ms)?), op_cost))
            }
        }
    }

    /// [`ExecutionContext::exec_instr`] for a builtin operator, traced
    /// under its operator-table lineage encoding.
    fn exec_op<F>(&mut self, out: &str, kind: &OpKind, inputs: &[&str], compute: F) -> Result<()>
    where
        F: FnOnce(&mut Self) -> Result<(Value, f64)>,
    {
        let (opcode, data) = kind.lineage().expect("builtin instructions trace lineage");
        self.exec_instr(out, &opcode, data, inputs, compute)
    }

    /// True when the op should run on the GPU.
    fn gpu_target(&self, kind: &OpKind, inputs: &[&Value], out_cells: usize) -> bool {
        if self.gpu.is_none() {
            return false;
        }
        let any_gpu = inputs.iter().any(|v| matches!(v, Value::Gpu { .. }));
        let any_rdd = inputs.iter().any(|v| matches!(v, Value::Rdd { .. }));
        if any_rdd {
            return false;
        }
        any_gpu || (kind.gpu_eligible() && out_cells >= self.cfg.gpu_min_cells)
    }

    // ------------------------------------------------------------------
    // GPU kernel-chain helper
    // ------------------------------------------------------------------

    /// Ensures a variable is device-resident, uploading (H2D) if local,
    /// and returns its pointer. Rebinds the variable for data locality.
    pub(crate) fn ensure_on_gpu(&mut self, var: &str) -> Result<memphis_gpusim::GpuPtr> {
        let b = self.binding(var)?.clone();
        match b.value {
            Value::Gpu { ptr, .. } => Ok(ptr),
            Value::Matrix(m) => {
                let device = self.require_gpu()?.clone();
                let (rows, cols) = m.shape();
                let height = b.lineage.as_ref().map(|l| l.height).unwrap_or(1);
                let alloc = if self.cfg.gpu_recycling {
                    self.cache.gpu_request(m.size_bytes(), height, b.cost)?
                } else {
                    self.cache.gpu_request_no_recycle(m.size_bytes(), b.cost)?
                };
                device.copy_to_device(&m, alloc.ptr)?;
                self.bind(
                    var,
                    Value::Gpu {
                        ptr: alloc.ptr,
                        rows,
                        cols,
                    },
                    b.lineage,
                    b.cost,
                );
                Ok(alloc.ptr)
            }
            other => Err(EngineError::Unsupported(format!(
                "cannot move {} to GPU",
                other.backend()
            ))),
        }
    }

    /// Runs `kernel` on the device over the inputs, producing an
    /// `out_rows x out_cols` device matrix.
    fn gpu_exec(
        &mut self,
        inputs: &[&str],
        out_rows: usize,
        out_cols: usize,
        op_cost: f64,
        kernel: impl FnOnce(&[&Matrix]) -> Matrix + Send + 'static,
    ) -> Result<(Value, f64)> {
        let ptrs: Vec<memphis_gpusim::GpuPtr> = inputs
            .iter()
            .map(|v| self.ensure_on_gpu(v))
            .collect::<Result<_>>()?;
        let device = self.require_gpu()?.clone();
        let bytes = cost::dense_bytes(out_rows, out_cols).max(8);
        let alloc = if self.cfg.gpu_recycling {
            self.cache.gpu_request(bytes, 1, op_cost)?
        } else {
            self.cache.gpu_request_no_recycle(bytes, op_cost)?
        };
        let out_ptr = alloc.ptr;
        device.launch(Box::new(move |data| {
            let mats: Option<Vec<&Matrix>> = ptrs.iter().map(|p| data.get(&p.addr)).collect();
            if let Some(mats) = mats {
                let result = kernel(&mats);
                data.insert(out_ptr.addr, result);
            }
        }));
        Ok((
            Value::Gpu {
                ptr: out_ptr,
                rows: out_rows,
                cols: out_cols,
            },
            op_cost,
        ))
    }

    // ------------------------------------------------------------------
    // Linear algebra instructions
    // ------------------------------------------------------------------

    /// Transpose. For a distributed vector-sized input this collects to
    /// the driver (the action of Example 4.1: the second transpose of
    /// `(y^T X)^T` collects `b`).
    pub fn transpose(&mut self, out: &str, x: &str) -> Result<()> {
        let (xv, (r, c)) = self.resolved(x)?;
        let kind = OpKind::Transpose;
        let on_gpu = matches!(xv, Value::Gpu { .. }) && self.gpu_target(&kind, &[&xv], r * c);
        let gpu = on_gpu.then_some((c, r));
        let op_cost = kind.flops(r, 1, c);
        let xn = x.to_string();
        self.exec_op(out, &kind, &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => {
                    // Collect-and-transpose (small results only).
                    let m = ctx.local_input(&xn)?;
                    ctx.note_job_for(&xn);
                    Ok((Value::Matrix(reorg::transpose(&m)), op_cost))
                }
                // Device inputs stay on the device.
                _ => ctx.dense_exec(&[&xn], op_cost, gpu, |m| Ok(reorg::transpose(m[0]))),
            }
        })
    }

    /// Matrix multiply `out = a %*% b`.
    ///
    /// Physical plans: local/GPU dense kernel; `a` distributed × `b` local
    /// → broadcast-based `mapmm` (distributed result); `a` local
    /// row-vector × `b` distributed → broadcast `y^T X` with a `reduce`
    /// action collecting the result to the driver.
    pub fn matmul(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (av, (am, ak)) = self.resolved(a)?;
        let (bv, (bk, bn)) = self.resolved(b)?;
        if ak != bk {
            return Err(EngineError::Matrix(
                memphis_matrix::MatrixError::DimensionMismatch {
                    op: "matmul",
                    lhs: (am, ak),
                    rhs: (bk, bn),
                },
            ));
        }
        let kind = OpKind::MatMul;
        let op_cost = kind.flops(am, ak, bn);
        let use_gpu = self.gpu_target(&kind, &[&av, &bv], am * bn);
        let (an, bn_name) = (a.to_string(), b.to_string());
        self.exec_op(out, &kind, &[a, b], move |ctx| {
            let av = ctx.binding(&an)?.value.clone();
            match av {
                // Distributed X %*% local W  → mapmm, result stays distributed.
                Value::Rdd { .. } => {
                    let (rdd, rows, _cols, blen) = ctx.rdd_input(&an)?;
                    let bc = ctx.bc_input(&bn_name)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = sc.map_with_broadcast(
                        &rdd,
                        "mapmm",
                        &bc,
                        Arc::new(move |k, xb, w| (*k, mm::matmul(xb, w).expect("dims"))),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols: bn,
                            blen,
                        },
                        op_cost,
                    ))
                }
                // Local row-vector y^T %*% distributed X → reduce action.
                Value::Matrix(_) | Value::Scalar(_) | Value::Broadcast { .. }
                    if matches!(ctx.binding(&bn_name)?.value, Value::Rdd { .. }) =>
                {
                    let (rdd, _rows, _cols, blen) = ctx.rdd_input(&bn_name)?;
                    if am != 1 {
                        return Err(EngineError::Unsupported(
                            "local %*% distributed requires a row vector".into(),
                        ));
                    }
                    let bc = ctx.bc_input(&an)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let partial = sc.map_with_broadcast(
                        &rdd,
                        "ytX",
                        &bc,
                        Arc::new(move |k, xb, yt| {
                            let y_slice =
                                reorg::slice_cols(yt, k.row * blen, k.row * blen + xb.rows())
                                    .expect("in bounds");
                            (
                                BlockId { row: 0, col: 0 },
                                mm::matmul(&y_slice, xb).expect("dims"),
                            )
                        }),
                    );
                    let result = sc
                        .reduce(
                            &partial,
                            Arc::new(|x, y| binary::binary(&x, &y, BinaryOp::Add).expect("dims")),
                        )
                        .ok_or_else(|| EngineError::Unsupported("empty RDD".into()))?;
                    ctx.note_job_for(&bn_name);
                    Ok((Value::Matrix(result), op_cost))
                }
                _ if use_gpu => ctx.gpu_exec(&[&an, &bn_name], am, bn, op_cost, |ms| {
                    mm::matmul(ms[0], ms[1]).expect("dims")
                }),
                _ => {
                    let ma = ctx.local_input(&an)?;
                    let mb = ctx.local_input(&bn_name)?;
                    let threads = ctx.config().cp_threads;
                    Ok((
                        Value::Matrix(mm::matmul_parallel(&ma, &mb, threads)?),
                        op_cost,
                    ))
                }
            }
        })
    }

    /// Transpose-self multiply `t(X) %*% X` — distributed inputs use the
    /// per-block `tsmm` + `reduce()` action pattern of §4.1.
    pub fn tsmm(&mut self, out: &str, x: &str) -> Result<()> {
        let (xv, (r, c)) = self.resolved(x)?;
        let kind = OpKind::Tsmm;
        let op_cost = kind.flops(r, 1, c);
        let use_gpu = self.gpu_target(&kind, &[&xv], c * c);
        let xn = x.to_string();
        self.exec_op(out, &kind, &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => {
                    let (rdd, _r, _c, _blen) = ctx.rdd_input(&xn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    ctx.note_job_for(&xn);
                    ctx.run_action(
                        move || {
                            let partial = sc.map(
                                &rdd,
                                "tsmm-part",
                                Arc::new(|_k, xb| {
                                    (BlockId { row: 0, col: 0 }, mm::tsmm(xb).expect("non-empty"))
                                }),
                            );
                            sc.reduce(
                                &partial,
                                Arc::new(|x, y| {
                                    binary::binary(&x, &y, BinaryOp::Add).expect("dims")
                                }),
                            )
                            .expect("non-empty RDD")
                        },
                        op_cost,
                    )
                }
                _ => ctx.dense_exec(&[&xn], op_cost, use_gpu.then_some((c, c)), |m| {
                    mm::tsmm(m[0])
                }),
            }
        })
    }

    /// `t(X) %*% y` — distributed X broadcasts `y` and reduces to the
    /// driver (action); local X computes directly.
    pub fn xty(&mut self, out: &str, x: &str, y: &str) -> Result<()> {
        let (xv, (r, c)) = self.resolved(x)?;
        let (yv, (_, yc)) = self.resolved(y)?;
        let kind = OpKind::Xty;
        let op_cost = kind.flops(c, r, yc);
        let use_gpu = self.gpu_target(&kind, &[&xv, &yv], c * yc);
        let (xn, yn) = (x.to_string(), y.to_string());
        self.exec_op(out, &kind, &[x, y], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                // Both distributed and co-partitioned: per-block t(Xb) Yb
                // products combined with a reduce action (no collect of y).
                Value::Rdd { .. } if matches!(ctx.binding(&yn)?.value, Value::Rdd { .. }) => {
                    let (rx, ..) = ctx.rdd_input(&xn)?;
                    let (ry, ..) = ctx.rdd_input(&yn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    ctx.note_job_for(&xn);
                    ctx.note_job_for(&yn);
                    ctx.run_action(
                        move || {
                            let partial = sc.zip_join(
                                &rx,
                                &ry,
                                "xty-zip",
                                Arc::new(|_, xb, yb| {
                                    mm::matmul(&reorg::transpose(xb), yb).expect("dims")
                                }),
                            );
                            let rekey = sc.map(
                                &partial,
                                "xty-rekey",
                                Arc::new(|_, m| (BlockId { row: 0, col: 0 }, m.deep_clone())),
                            );
                            sc.reduce(
                                &rekey,
                                Arc::new(|x, y| {
                                    binary::binary(&x, &y, BinaryOp::Add).expect("dims")
                                }),
                            )
                            .expect("non-empty RDD")
                        },
                        op_cost,
                    )
                }
                Value::Rdd { .. } => {
                    let (rdd, _r, _c, blen) = ctx.rdd_input(&xn)?;
                    let bc = ctx.bc_input(&yn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    ctx.note_job_for(&xn);
                    ctx.run_action(
                        move || {
                            let partial = sc.map_with_broadcast(
                                &rdd,
                                "xty-part",
                                &bc,
                                Arc::new(move |k, xb, y| {
                                    let y_slice = reorg::slice_rows(
                                        y,
                                        k.row * blen,
                                        k.row * blen + xb.rows(),
                                    )
                                    .expect("in bounds");
                                    (
                                        BlockId { row: 0, col: 0 },
                                        mm::matmul(&reorg::transpose(xb), &y_slice).expect("dims"),
                                    )
                                }),
                            );
                            sc.reduce(
                                &partial,
                                Arc::new(|x, y| {
                                    binary::binary(&x, &y, BinaryOp::Add).expect("dims")
                                }),
                            )
                            .expect("non-empty RDD")
                        },
                        op_cost,
                    )
                }
                _ => ctx.dense_exec(&[&xn, &yn], op_cost, use_gpu.then_some((c, yc)), |m| {
                    mm::matmul(&reorg::transpose(m[0]), m[1])
                }),
            }
        })
    }

    /// Elementwise binary op with DML broadcasting (matrix/vector/scalar
    /// operands). Distributed inputs stay distributed.
    pub fn binary(&mut self, out: &str, a: &str, b: &str, op: BinaryOp) -> Result<()> {
        let (av, (ar, ac)) = self.resolved(a)?;
        let (bv, (br, bc_)) = self.resolved(b)?;
        let (or_, oc) = (ar.max(br), ac.max(bc_));
        let kind = OpKind::Binary(op);
        let op_cost = kind.flops(or_, 1, oc);
        let use_gpu = self.gpu_target(&kind, &[&av, &bv], or_ * oc);
        let (an, bn) = (a.to_string(), b.to_string());
        self.exec_op(out, &kind, &[a, b], move |ctx| {
            let av = ctx.binding(&an)?.value.clone();
            let bv = ctx.binding(&bn)?.value.clone();
            match (&av, &bv) {
                (Value::Rdd { .. }, Value::Rdd { .. }) => {
                    let (ra, rows, cols, blen) = ctx.rdd_input(&an)?;
                    let (rb, ..) = ctx.rdd_input(&bn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let zipped = sc.zip_join(
                        &ra,
                        &rb,
                        op.opcode(),
                        Arc::new(move |_, x, y| binary::binary(x, y, op).expect("dims")),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: zipped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                // One distributed side: the local side rides along as a
                // scalar or a broadcast, its rows sliced per block for
                // column vectors and same-shape matrices.
                (Value::Rdd { .. }, other) | (other, Value::Rdd { .. }) => {
                    let rdd_left = matches!(av, Value::Rdd { .. });
                    let (rdd_var, local_var, (lr, lc)) = if rdd_left {
                        (&an, &bn, (br, bc_))
                    } else {
                        (&bn, &an, (ar, ac))
                    };
                    let (rdd, rows, cols, blen) = ctx.rdd_input(rdd_var)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = if let Value::Scalar(s) = *other {
                        sc.map(
                            &rdd,
                            op.opcode(),
                            Arc::new(move |k, x| (*k, binary::binary_scalar(x, s, op, !rdd_left))),
                        )
                    } else {
                        let bcv = ctx.bc_input(local_var)?;
                        let row_sliced = lr == rows && rows > 1 && (lc == 1 || lc == cols);
                        sc.map_with_broadcast(
                            &rdd,
                            op.opcode(),
                            &bcv,
                            Arc::new(move |k, x, w| {
                                let w = if row_sliced {
                                    reorg::slice_rows(w, k.row * blen, k.row * blen + x.rows())
                                        .expect("in bounds")
                                } else {
                                    w.clone()
                                };
                                let (lhs, rhs) = if rdd_left { (x, &w) } else { (&w, x) };
                                (*k, binary::binary(lhs, rhs, op).expect("dims"))
                            }),
                        )
                    };
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                // On the device, scalars become 1x1 matrices via upload.
                _ => ctx.dense_exec(
                    &[&an, &bn],
                    op_cost,
                    use_gpu.then_some((or_, oc)),
                    move |m| binary::binary(m[0], m[1], op),
                ),
            }
        })
    }

    /// Elementwise op against a literal constant (`X * 2`); the constant
    /// is a lineage data item.
    pub fn binary_const(
        &mut self,
        out: &str,
        a: &str,
        c: f64,
        op: BinaryOp,
        scalar_on_left: bool,
    ) -> Result<()> {
        let (av, (ar, ac)) = self.resolved(a)?;
        let kind = OpKind::BinaryScalar {
            op,
            scalar: ScalarRef::Const(c),
            swap: scalar_on_left,
        };
        let op_cost = kind.flops(ar, 1, ac);
        let use_gpu = self.gpu_target(&kind, &[&av], ar * ac);
        let an = a.to_string();
        self.exec_op(out, &kind, &[a], move |ctx| {
            match ctx.binding(&an)?.value.clone() {
                Value::Rdd { .. } => {
                    let (ra, rows, cols, blen) = ctx.rdd_input(&an)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = sc.map(
                        &ra,
                        op.opcode(),
                        Arc::new(move |k, x| (*k, binary::binary_scalar(x, c, op, scalar_on_left))),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                _ => ctx.dense_exec(&[&an], op_cost, use_gpu.then_some((ar, ac)), move |m| {
                    Ok(binary::binary_scalar(m[0], c, op, scalar_on_left))
                }),
            }
        })
    }

    /// Elementwise unary op.
    pub fn unary(&mut self, out: &str, x: &str, op: UnaryOp) -> Result<()> {
        let (xv, (r, c)) = self.resolved(x)?;
        let kind = OpKind::Unary(op);
        let op_cost = kind.flops(r, 1, c);
        let use_gpu = self.gpu_target(&kind, &[&xv], r * c);
        let xn = x.to_string();
        self.exec_op(out, &kind, &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => {
                    let (rx, rows, cols, blen) = ctx.rdd_input(&xn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = sc.map(
                        &rx,
                        op.opcode(),
                        Arc::new(move |k, x| (*k, unary::unary(x, op))),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                _ => ctx.dense_exec(&[&xn], op_cost, use_gpu.then_some((r, c)), move |m| {
                    Ok(unary::unary(m[0], op))
                }),
            }
        })
    }

    /// Aggregation: full (scalar output via `reduce` action on Spark),
    /// row-wise (stays distributed), or column-wise (action to driver).
    pub fn agg(&mut self, out: &str, x: &str, op: AggOp, dir: AggDir) -> Result<()> {
        let (_, (r, c)) = self.resolved(x)?;
        let kind = OpKind::Agg(op, dir);
        let op_cost = kind.flops(r, 1, c);
        let xn = x.to_string();
        self.exec_op(out, &kind, &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => ctx.spark_agg(&xn, op, dir, r, c, op_cost),
                // Device inputs are aggregated on the host after a D2H
                // copy (aggregations are cheap; SystemDS also returns
                // scalars to the host).
                _ => {
                    let m = ctx.local_input(&xn)?;
                    agg_local(&m, op, dir, op_cost)
                }
            }
        })
    }

    fn spark_agg(
        &mut self,
        xn: &str,
        op: AggOp,
        dir: AggDir,
        rows: usize,
        cols: usize,
        op_cost: f64,
    ) -> Result<(Value, f64)> {
        let (rx, _rows, _cols, blen) = self.rdd_input(xn)?;
        let sc = self.spark().expect("rdd implies spark").clone();
        // Partial means are sums, divided once after the reduce; partials
        // combine by min, max, or sum.
        let part_op = match op {
            AggOp::Mean => AggOp::Sum,
            other => other,
        };
        let combine_op = match op {
            AggOp::Min => BinaryOp::Min,
            AggOp::Max => BinaryOp::Max,
            _ => BinaryOp::Add,
        };
        let combine: memphis_sparksim::rdd::CombineFn =
            Arc::new(move |a, b| binary::binary(&a, &b, combine_op).expect("dims"));
        match dir {
            AggDir::Full => {
                let partial = sc.map(
                    &rx,
                    "agg-part",
                    Arc::new(move |k, x| {
                        (
                            BlockId { row: 0, col: k.col },
                            Matrix::scalar(agg::aggregate(x, part_op).unwrap_or(0.0)),
                        )
                    }),
                );
                let result = sc
                    .reduce(&partial, combine)
                    .ok_or_else(|| EngineError::Unsupported("empty RDD".into()))?;
                self.note_job_for(xn);
                let mut v = result.at(0, 0);
                if op == AggOp::Mean {
                    v /= (rows * cols) as f64;
                }
                Ok((Value::Scalar(v), op_cost))
            }
            AggDir::Col => {
                let partial = sc.map(
                    &rx,
                    "colagg-part",
                    Arc::new(move |_k, x| {
                        (
                            BlockId { row: 0, col: 0 },
                            agg::col_agg(x, part_op).expect("non-empty"),
                        )
                    }),
                );
                let result = sc
                    .reduce(&partial, combine)
                    .ok_or_else(|| EngineError::Unsupported("empty RDD".into()))?;
                self.note_job_for(xn);
                let result = if op == AggOp::Mean {
                    binary::binary_scalar(&result, rows as f64, BinaryOp::Div, false)
                } else {
                    result
                };
                Ok((Value::Matrix(result), op_cost))
            }
            AggDir::Row => {
                let mapped = sc.map(
                    &rx,
                    "rowagg",
                    Arc::new(move |k, x| (*k, agg::row_agg(x, op).expect("non-empty"))),
                );
                Ok((
                    Value::Rdd {
                        rdd: mapped,
                        rows,
                        cols: 1,
                        blen,
                    },
                    op_cost,
                ))
            }
        }
    }

    /// Solve `A x = b` (driver-local; inputs are collected if remote).
    pub fn solve(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (_, (n, _)) = self.resolved(a)?;
        self.resolve(b)?;
        let kind = OpKind::Solve;
        let op_cost = kind.flops(n, n, n);
        self.dense_op(out, &kind, &[a, b], op_cost, None, |m| {
            msolve::solve(m[0], m[1])
        })
    }

    /// Row-range slice (local or GPU input; mini-batch extraction).
    pub fn slice_rows(&mut self, out: &str, x: &str, start: usize, end: usize) -> Result<()> {
        let (_, (_, c)) = self.resolved(x)?;
        let kind = OpKind::SliceRows { start, end };
        let op_cost = kind.flops(end.saturating_sub(start), 1, c);
        self.dense_op(out, &kind, &[x], op_cost, None, move |m| {
            reorg::slice_rows(m[0], start, end)
        })
    }

    /// Column-range slice.
    pub fn slice_cols(&mut self, out: &str, x: &str, start: usize, end: usize) -> Result<()> {
        let (_, (r, _)) = self.resolved(x)?;
        let kind = OpKind::SliceCols { start, end };
        let op_cost = kind.flops(r, 1, end.saturating_sub(start));
        self.dense_op(out, &kind, &[x], op_cost, None, move |m| {
            reorg::slice_cols(m[0], start, end)
        })
    }

    /// Vertical append.
    pub fn rbind(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (_, (ar, ac)) = self.resolved(a)?;
        let (_, (br, _)) = self.resolved(b)?;
        let kind = OpKind::Rbind;
        let op_cost = kind.flops(ar + br, 1, ac);
        self.dense_op(out, &kind, &[a, b], op_cost, None, |m| {
            reorg::rbind(m[0], m[1])
        })
    }

    /// Horizontal append.
    pub fn cbind(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (_, (ar, ac)) = self.resolved(a)?;
        let (_, (_, bc)) = self.resolved(b)?;
        let kind = OpKind::Cbind;
        let op_cost = kind.flops(ar, 1, ac + bc);
        self.dense_op(out, &kind, &[a, b], op_cost, None, |m| {
            reorg::cbind(m[0], m[1])
        })
    }

    /// Row selection by 0/1 mask (`removeEmpty`-style), costed over the
    /// input.
    pub fn select_rows(&mut self, out: &str, x: &str, mask: &str) -> Result<()> {
        let (_, (r, c)) = self.resolved(x)?;
        self.resolve(mask)?;
        let kind = OpKind::SelectRows;
        let op_cost = kind.flops(r, 1, c);
        self.dense_op(out, &kind, &[x, mask], op_cost, None, |m| {
            reorg::select_rows(m[0], m[1])
        })
    }

    // ------------------------------------------------------------------
    // Neural-network instructions
    // ------------------------------------------------------------------

    /// 2-D convolution (GPU-preferred).
    pub fn conv2d(&mut self, out: &str, x: &str, w: &str, p: Conv2dParams) -> Result<()> {
        let (xv, (n, _)) = self.resolved(x)?;
        self.resolve(w)?;
        let kind = OpKind::Conv2d(p);
        let patch = p.in_channels * p.kernel * p.kernel;
        let op_cost = kind.flops(n * p.out_height() * p.out_width(), patch, p.out_channels);
        let gpu = self.gpu_target(&kind, &[&xv], n * p.out_cols());
        self.dense_op(
            out,
            &kind,
            &[x, w],
            op_cost,
            gpu.then_some((n, p.out_cols())),
            move |m| nn::conv2d(m[0], m[1], &p),
        )
    }

    /// 2-D max pooling.
    pub fn max_pool2d(&mut self, out: &str, x: &str, p: Pool2dParams) -> Result<()> {
        let (xv, (n, _)) = self.resolved(x)?;
        let kind = OpKind::MaxPool2d(p);
        let op_cost = kind.flops(n, 1, p.out_cols() * p.window * p.window);
        let gpu = self.gpu_target(&kind, &[&xv], n * p.out_cols());
        self.dense_op(
            out,
            &kind,
            &[x],
            op_cost,
            gpu.then_some((n, p.out_cols())),
            move |m| nn::max_pool2d(m[0], &p),
        )
    }

    /// Affine layer `X %*% W + b` (GPU-preferred).
    pub fn affine(&mut self, out: &str, x: &str, w: &str, b: &str) -> Result<()> {
        let (xv, (n, k)) = self.resolved(x)?;
        let (wv, (_, d)) = self.resolved(w)?;
        self.resolve(b)?;
        let kind = OpKind::Affine;
        let op_cost = kind.flops(n, k, d);
        let gpu = self.gpu_target(&kind, &[&xv, &wv], n * d);
        self.dense_op(
            out,
            &kind,
            &[x, w, b],
            op_cost,
            gpu.then_some((n, d)),
            |m| nn::affine(m[0], m[1], m[2]),
        )
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, out: &str, x: &str) -> Result<()> {
        let (xv, (r, c)) = self.resolved(x)?;
        let kind = OpKind::Softmax;
        let op_cost = kind.flops(r, 1, c);
        let gpu = self.gpu_target(&kind, &[&xv], r * c);
        self.dense_op(out, &kind, &[x], op_cost, gpu.then_some((r, c)), |m| {
            Ok(nn::softmax_rows(m[0]))
        })
    }

    /// Inverted dropout with a deterministic seed (lineage-sound).
    pub fn dropout(&mut self, out: &str, x: &str, rate: f64, seed: u64) -> Result<()> {
        let (xv, (r, c)) = self.resolved(x)?;
        let kind = OpKind::Dropout { rate, seed };
        let op_cost = kind.flops(r, 1, c);
        let gpu = self.gpu_target(&kind, &[&xv], r * c);
        self.dense_op(out, &kind, &[x], op_cost, gpu.then_some((r, c)), move |m| {
            Ok(nn::dropout(m[0], rate, seed))
        })
    }
}

impl ExecutionContext {
    /// Executes a custom deterministic host-side transformation as a traced
    /// instruction — the escape hatch workload builtins use for primitives
    /// the core operator set lacks (mode imputation, binning, recoding,
    /// one-hot encoding). `opcode` and `data` must uniquely identify the
    /// transformation for lineage soundness.
    pub fn map_custom<F>(
        &mut self,
        out: &str,
        x: &str,
        opcode: &str,
        data: Vec<String>,
        f: F,
    ) -> Result<()>
    where
        F: FnOnce(&Matrix) -> std::result::Result<Matrix, String>,
    {
        let xn = x.to_string();
        self.resolve(x)?;
        self.exec_instr(out, opcode, data, &[x], move |ctx| {
            let m = ctx.local_input(&xn)?;
            let cost = m.len() as f64;
            let r = f(&m).map_err(EngineError::Unsupported)?;
            Ok((Value::Matrix(r), cost))
        })
    }

    /// Like [`ExecutionContext::map_custom`] for binary host transforms.
    pub fn zip_custom<F>(
        &mut self,
        out: &str,
        a: &str,
        b: &str,
        opcode: &str,
        data: Vec<String>,
        f: F,
    ) -> Result<()>
    where
        F: FnOnce(&Matrix, &Matrix) -> std::result::Result<Matrix, String>,
    {
        let (an, bn) = (a.to_string(), b.to_string());
        self.resolve(a)?;
        self.resolve(b)?;
        self.exec_instr(out, opcode, data, &[a, b], move |ctx| {
            let ma = ctx.local_input(&an)?;
            let mb = ctx.local_input(&bn)?;
            let cost = ma.len() as f64;
            let r = f(&ma, &mb).map_err(EngineError::Unsupported)?;
            Ok((Value::Matrix(r), cost))
        })
    }
}

fn agg_local(m: &Matrix, op: AggOp, dir: AggDir, op_cost: f64) -> Result<(Value, f64)> {
    match dir {
        AggDir::Full => Ok((Value::Scalar(agg::aggregate(m, op)?), op_cost)),
        AggDir::Row => Ok((Value::Matrix(agg::row_agg(m, op)?), op_cost)),
        AggDir::Col => Ok((Value::Matrix(agg::col_agg(m, op)?), op_cost)),
    }
}
