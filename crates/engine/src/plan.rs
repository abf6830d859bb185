//! Operator DAGs and program blocks — the compiler's view of an ML script
//! (SystemDS-style program compilation: a hierarchy of blocks, each
//! last-level block a DAG of operators).
//!
//! [`OpKind`] is also the engine's one operator table: each operator's
//! lineage encoding and its inverse, its analytical cost, and its GPU
//! eligibility are defined on it, side by side.

use memphis_matrix::ops::agg::AggOp;
use memphis_matrix::ops::binary::BinaryOp;
use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
use memphis_matrix::ops::unary::UnaryOp;
use std::borrow::Cow;
use std::str::FromStr;

use crate::ops::AggDir;

/// A scalar argument that may be loop-dependent.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarRef {
    /// Compile-time constant.
    Const(f64),
    /// The current value of a surrounding loop variable (prevents reuse
    /// across iterations unless values repeat).
    Loop(String),
}

/// Operator kinds: every operator the planner understands and every
/// builtin instruction the engine traces.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Seeded random generation.
    Rand {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
        /// Seed.
        seed: u64,
    },
    /// Sequence column vector `from, from + incr, ..., <= to`.
    Seq {
        /// First value.
        from: f64,
        /// Inclusive upper bound.
        to: f64,
        /// Step.
        incr: f64,
    },
    /// Matrix multiply.
    MatMul,
    /// `t(X) %*% X`.
    Tsmm,
    /// `t(X) %*% y`.
    Xty,
    /// Transpose.
    Transpose,
    /// Linear solve.
    Solve,
    /// Elementwise binary.
    Binary(BinaryOp),
    /// Elementwise against a scalar reference.
    BinaryScalar {
        /// Operator.
        op: BinaryOp,
        /// The scalar argument.
        scalar: ScalarRef,
        /// Scalar on the left side.
        swap: bool,
    },
    /// Elementwise unary.
    Unary(UnaryOp),
    /// Aggregation.
    Agg(AggOp, AggDir),
    /// Scalar literal binding (script frontend: `a = 0.5;`).
    Literal(f64),
    /// Lineage-preserving variable aliasing (script frontend: `a = b;`).
    Alias,
    /// Row slice `[start, end)`.
    SliceRows {
        /// First row (inclusive).
        start: usize,
        /// Last row (exclusive).
        end: usize,
    },
    /// Column slice `[start, end)`.
    SliceCols {
        /// First column (inclusive).
        start: usize,
        /// Last column (exclusive).
        end: usize,
    },
    /// Vertical append (inputs: top, bottom).
    Rbind,
    /// Horizontal append (inputs: left, right).
    Cbind,
    /// Row selection by a 0/1 mask, `removeEmpty`-style (inputs: X, mask).
    SelectRows,
    /// 2-D convolution over NCHW-linearized images (inputs: X, W).
    Conv2d(Conv2dParams),
    /// 2-D max pooling over NCHW-linearized images.
    MaxPool2d(Pool2dParams),
    /// Fully-connected layer `X %*% W + b` (inputs: X, W, b).
    Affine,
    /// Row-wise softmax.
    Softmax,
    /// Inverted dropout with a deterministic seed.
    Dropout {
        /// Drop probability.
        rate: f64,
        /// Seed.
        seed: u64,
    },
    /// Compiler-inserted `persist()` on the input (checkpoint, §5.2).
    Checkpoint,
    /// Compiler-inserted asynchronous prefetch of the input (§5.1).
    Prefetch,
    /// Compiler-inserted asynchronous broadcast of the input (§5.1).
    Broadcast,
    /// Compiler-inserted GPU cache cleanup with a fraction (§5.2).
    Evict(f64),
}

impl OpKind {
    /// True for operators that trigger a Spark action when their input is
    /// distributed (roots of remote operator chains).
    pub fn is_action_like(&self) -> bool {
        matches!(
            self,
            OpKind::Tsmm
                | OpKind::Xty
                | OpKind::Transpose
                | OpKind::Agg(_, AggDir::Full)
                | OpKind::Agg(_, AggDir::Col)
        )
    }

    /// Lineage encoding `(opcode, data)` of the instruction this operator
    /// traces. `None` for literals (traced as `scalar:` leaves), aliases,
    /// and the compiler-inserted cache-management operators. A
    /// `BinaryScalar` over a loop variable executes as `Binary`, so it
    /// encodes as one.
    ///
    /// These bytes feed the interned lineage hashes, the durable tier and
    /// serialized logs, so they must never change.
    pub fn lineage(&self) -> Option<(Cow<'static, str>, Vec<String>)> {
        if let Some((_, opcode)) = PLAIN_OPCODES.iter().find(|(k, _)| k == self) {
            return Some((Cow::Borrowed(*opcode), vec![]));
        }
        let (opcode, data) = match self {
            OpKind::Rand {
                rows,
                cols,
                min,
                max,
                seed,
            } => (
                "rand",
                vec![
                    rows.to_string(),
                    cols.to_string(),
                    min.to_string(),
                    max.to_string(),
                    seed.to_string(),
                ],
            ),
            OpKind::Seq { from, to, incr } => (
                "seq",
                vec![from.to_string(), to.to_string(), incr.to_string()],
            ),
            OpKind::Binary(op)
            | OpKind::BinaryScalar {
                op,
                scalar: ScalarRef::Loop(_),
                ..
            } => (op.opcode(), vec![]),
            OpKind::BinaryScalar {
                op,
                scalar: ScalarRef::Const(c),
                swap,
            } => (op.opcode(), vec![c.to_string(), swap.to_string()]),
            OpKind::Unary(op) => (op.opcode(), vec![]),
            OpKind::Agg(op, dir) => {
                let opcode = format!("ua{}{}", agg_dir_code(*dir), op.opcode());
                return Some((Cow::Owned(opcode), vec![]));
            }
            OpKind::SliceRows { start, end } => {
                ("rightIndex", vec![start.to_string(), end.to_string()])
            }
            OpKind::SliceCols { start, end } => {
                ("rightIndexCol", vec![start.to_string(), end.to_string()])
            }
            // Parameters keep their `Debug` rendering.
            OpKind::Conv2d(p) => ("conv2d", vec![format!("{p:?}")]),
            OpKind::MaxPool2d(p) => ("maxpool", vec![format!("{p:?}")]),
            OpKind::Dropout { rate, seed } => ("dropout", vec![rate.to_string(), seed.to_string()]),
            _ => return None,
        };
        Some((Cow::Borrowed(opcode), data))
    }

    /// Inverse of [`OpKind::lineage`]: decodes a traced instruction with
    /// `n_inputs` lineage inputs. Elementwise opcodes decode to `Binary`
    /// with two inputs and to a constant `BinaryScalar` with one. Only the
    /// exact bytes the encoder emits are accepted.
    pub fn from_lineage(opcode: &str, data: &[String], n_inputs: usize) -> Result<OpKind, String> {
        let decode = || -> Option<OpKind> {
            if let Some((kind, _)) = PLAIN_OPCODES.iter().find(|(_, op)| *op == opcode) {
                return Some(kind.clone());
            }
            Some(match opcode {
                "rand" => OpKind::Rand {
                    rows: field(data, 0)?,
                    cols: field(data, 1)?,
                    min: field(data, 2)?,
                    max: field(data, 3)?,
                    seed: field(data, 4)?,
                },
                "seq" => OpKind::Seq {
                    from: field(data, 0)?,
                    to: field(data, 1)?,
                    incr: field(data, 2)?,
                },
                "rightIndex" => OpKind::SliceRows {
                    start: field(data, 0)?,
                    end: field(data, 1)?,
                },
                "rightIndexCol" => OpKind::SliceCols {
                    start: field(data, 0)?,
                    end: field(data, 1)?,
                },
                // Parameters whose output size would underflow or divide by
                // zero are rejected rather than left to panic in a kernel.
                "conv2d" => {
                    let [in_channels, out_channels, height, width, kernel, stride, pad] =
                        debug_fields(data.first()?)?;
                    if stride == 0 || kernel > height.min(width) + 2 * pad {
                        return None;
                    }
                    OpKind::Conv2d(Conv2dParams {
                        in_channels,
                        out_channels,
                        height,
                        width,
                        kernel,
                        stride,
                        pad,
                    })
                }
                "maxpool" => {
                    let [channels, height, width, window, stride] = debug_fields(data.first()?)?;
                    if stride == 0 || window > height.min(width) {
                        return None;
                    }
                    OpKind::MaxPool2d(Pool2dParams {
                        channels,
                        height,
                        width,
                        window,
                        stride,
                    })
                }
                "dropout" => OpKind::Dropout {
                    rate: field(data, 0)?,
                    seed: field(data, 1)?,
                },
                _ => match (BinaryOp::from_opcode(opcode), UnaryOp::from_opcode(opcode)) {
                    (Some(op), _) if n_inputs == 2 => OpKind::Binary(op),
                    (Some(op), _) => OpKind::BinaryScalar {
                        op,
                        scalar: ScalarRef::Const(field(data, 0)?),
                        swap: field(data, 1)?,
                    },
                    (None, Some(op)) => OpKind::Unary(op),
                    (None, None) => {
                        let rest = opcode.strip_prefix("ua")?;
                        // The full-aggregation code is empty: try it last.
                        [AggDir::Row, AggDir::Col, AggDir::Full]
                            .into_iter()
                            .find_map(|dir| {
                                let op = rest.strip_prefix(agg_dir_code(dir))?;
                                Some(OpKind::Agg(AggOp::from_opcode(op)?, dir))
                            })?
                    }
                },
            })
        };
        // Canonical form: the operator re-encodes to exactly this item
        // (which also checks parameter names and the data item count).
        decode()
            .filter(|kind| {
                kind.arity() == n_inputs
                    && kind
                        .lineage()
                        .is_some_and(|(op, d)| op == opcode && d == data)
            })
            .ok_or_else(|| format!("undecodable lineage: {opcode} {data:?} over {n_inputs} inputs"))
    }

    /// Number of operands the operator reads.
    fn arity(&self) -> usize {
        match self {
            OpKind::Rand { .. } | OpKind::Seq { .. } | OpKind::Literal(_) | OpKind::Evict(_) => 0,
            OpKind::MatMul
            | OpKind::Xty
            | OpKind::Solve
            | OpKind::Binary(_)
            | OpKind::Rbind
            | OpKind::Cbind
            | OpKind::SelectRows
            | OpKind::Conv2d(_) => 2,
            OpKind::Affine => 3,
            _ => 1,
        }
    }

    /// Estimated floating-point operations over the shapes `m x k` times
    /// `k x n` (elementwise and reorg operators pass `k = 1`). Units are
    /// abstract FLOPs: only relative magnitudes matter for eviction
    /// scoring (eq. 1 and 2) and placement.
    pub fn flops(&self, m: usize, k: usize, n: usize) -> f64 {
        // Data movement costs exactly the cells it touches (possibly 0).
        if let OpKind::Seq { .. }
        | OpKind::SliceRows { .. }
        | OpKind::SliceCols { .. }
        | OpKind::Rbind
        | OpKind::Cbind
        | OpKind::SelectRows = self
        {
            return (m * n) as f64;
        }
        let m = m.max(1) as f64;
        let k = k.max(1) as f64;
        let n = n.max(1) as f64;
        match self {
            // Matrix multiply family (conv2d over its im2col dims): 2*m*k*n.
            OpKind::MatMul | OpKind::Xty | OpKind::Affine | OpKind::Conv2d(_) => 2.0 * m * k * n,
            OpKind::Tsmm => m * n * n, // symmetric: half of 2*m*n*n
            OpKind::Solve => (2.0 / 3.0) * n * n * n + 2.0 * n * n * m,
            // Cheap elementwise / reorg ops: one pass.
            _ => m * n,
        }
    }

    /// Compute-intensive operators: the ones placement may move to the
    /// GPU when large enough (SystemDS's placement heuristic).
    pub fn gpu_eligible(&self) -> bool {
        matches!(
            self,
            OpKind::MatMul
                | OpKind::Tsmm
                | OpKind::Xty
                | OpKind::Solve
                | OpKind::Conv2d(_)
                | OpKind::MaxPool2d(_)
                | OpKind::Affine
                | OpKind::Softmax
        )
    }
}

/// Operators whose lineage is their opcode alone.
static PLAIN_OPCODES: [(OpKind, &str); 10] = [
    (OpKind::MatMul, "ba+*"),
    (OpKind::Tsmm, "tsmm"),
    (OpKind::Xty, "tmm-y"),
    (OpKind::Transpose, "r'"),
    (OpKind::Solve, "solve"),
    (OpKind::Rbind, "rbind"),
    (OpKind::Cbind, "cbind"),
    (OpKind::SelectRows, "removeEmpty"),
    (OpKind::Affine, "affine"),
    (OpKind::Softmax, "softmax"),
];

fn agg_dir_code(dir: AggDir) -> &'static str {
    match dir {
        AggDir::Full => "",
        AggDir::Row => "r",
        AggDir::Col => "c",
    }
}

fn field<T: FromStr>(data: &[String], i: usize) -> Option<T> {
    data.get(i)?.parse().ok()
}

/// The `usize` fields of a flat struct's `Debug` rendering
/// `Name { a: 1, b: 2 }`, in order.
fn debug_fields<const N: usize>(s: &str) -> Option<[usize; N]> {
    let fields: Option<Vec<usize>> = (s.strip_suffix(" }")?.split(", "))
        .map(|f| f.rsplit_once(": ")?.1.parse().ok())
        .collect();
    fields?.try_into().ok()
}

/// Operator input: an external variable or another node of the same DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Named variable (bound by an outer block or the host).
    Var(String),
    /// Output of DAG node `id`.
    Node(usize),
}

/// One operator node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id (index into the DAG).
    pub id: usize,
    /// Operator.
    pub kind: OpKind,
    /// Inputs.
    pub inputs: Vec<Operand>,
    /// Variables this node's output is bound to (CSE may merge several).
    pub outputs: Vec<String>,
}

/// A DAG of operators (one basic block's computation).
#[derive(Debug, Clone, Default)]
pub struct Dag {
    /// Nodes in creation order; `Operand::Node` refers into this list.
    pub nodes: Vec<Node>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node and returns its id.
    pub fn add(&mut self, kind: OpKind, inputs: Vec<Operand>, output: Option<&str>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            kind,
            inputs,
            outputs: output.map(|s| vec![s.to_string()]).unwrap_or_default(),
        });
        id
    }

    /// Node ids that no other node consumes (DAG sinks).
    pub fn sinks(&self) -> Vec<usize> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for i in &n.inputs {
                if let Operand::Node(id) = i {
                    consumed[*id] = true;
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| !consumed[i]).collect()
    }

    /// Consumers of each node.
    pub fn consumers(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for i in &n.inputs {
                if let Operand::Node(id) = i {
                    out[*id].push(n.id);
                }
            }
        }
        out
    }
}

/// Per-block compiler hints (delay factor, §5.2 auto-tuning output).
#[derive(Debug, Clone)]
pub struct BlockHints {
    /// Delayed-caching factor n assigned to this block.
    pub delay: u32,
    /// Estimated executions of this block (product of loop trip counts).
    pub exec_estimate: u64,
    /// Fraction of the block's operators that are loop-dependent.
    pub loop_dependent_fraction: f64,
}

impl Default for BlockHints {
    fn default() -> Self {
        Self {
            delay: 1,
            exec_estimate: 1,
            loop_dependent_fraction: 0.0,
        }
    }
}

/// A program block.
#[derive(Debug, Clone)]
pub enum Block {
    /// Straight-line operator DAG.
    Basic {
        /// The computation.
        dag: Dag,
        /// Compiler hints.
        hints: BlockHints,
    },
    /// Counted loop binding `var` to each value in order.
    For {
        /// Loop variable name.
        var: String,
        /// Values iterated in order.
        values: Vec<f64>,
        /// Loop body.
        body: Vec<Block>,
    },
    /// Condition-driven loop: runs `body` while the scalar variable
    /// `cond_var` is non-zero (re-read after each iteration), up to
    /// `max_iterations` (conditional control flow is unknown at compile
    /// time — the reason CSE alone cannot eliminate redundancy, §2.1).
    While {
        /// Scalar condition variable, evaluated by the body.
        cond_var: String,
        /// Safety bound on iterations.
        max_iterations: usize,
        /// Loop body.
        body: Vec<Block>,
    },
    /// Branch on a scalar variable: non-zero runs `then_blocks`, zero
    /// runs `else_blocks`.
    If {
        /// Scalar condition variable.
        cond_var: String,
        /// Taken when the condition is non-zero.
        then_blocks: Vec<Block>,
        /// Taken when the condition is zero.
        else_blocks: Vec<Block>,
    },
}

/// A compiled program: a hierarchy of blocks plus static dimension
/// metadata for external inputs (used by placement).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Top-level blocks.
    pub blocks: Vec<Block>,
    /// Known dims of external variables (rows, cols).
    pub var_dims: std::collections::HashMap<String, (usize, usize)>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an external input's shape for placement decisions.
    pub fn declare(&mut self, var: &str, rows: usize, cols: usize) {
        self.var_dims.insert(var.to_string(), (rows, cols));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_sinks_and_consumers() {
        let mut d = Dag::new();
        let a = d.add(OpKind::Tsmm, vec![Operand::Var("X".into())], None);
        let b = d.add(
            OpKind::Unary(UnaryOp::Relu),
            vec![Operand::Node(a)],
            Some("out"),
        );
        assert_eq!(d.sinks(), vec![b]);
        assert_eq!(d.consumers()[a], vec![b]);
        assert!(d.consumers()[b].is_empty());
    }

    /// One instance of every lineage-emitting operator.
    fn traced_kinds() -> Vec<OpKind> {
        let mut kinds = vec![
            OpKind::Rand {
                rows: 3,
                cols: 4,
                min: -0.25,
                max: 1.0 / 3.0,
                seed: 42,
            },
            OpKind::Seq {
                from: 1.0,
                to: 10.0,
                incr: 0.5,
            },
            OpKind::MatMul,
            OpKind::Tsmm,
            OpKind::Xty,
            OpKind::Transpose,
            OpKind::Solve,
            OpKind::SliceRows { start: 1, end: 5 },
            OpKind::SliceCols { start: 0, end: 2 },
            OpKind::Rbind,
            OpKind::Cbind,
            OpKind::SelectRows,
            OpKind::Conv2d(Conv2dParams {
                in_channels: 3,
                out_channels: 8,
                height: 8,
                width: 6,
                kernel: 3,
                stride: 1,
                pad: 1,
            }),
            OpKind::MaxPool2d(Pool2dParams {
                channels: 8,
                height: 8,
                width: 8,
                window: 2,
                stride: 2,
            }),
            OpKind::Affine,
            OpKind::Softmax,
            OpKind::Dropout { rate: 0.3, seed: 7 },
        ];
        for op in BinaryOp::ALL {
            kinds.push(OpKind::Binary(op));
            for swap in [false, true] {
                kinds.push(OpKind::BinaryScalar {
                    op,
                    scalar: ScalarRef::Const(-1.5e-7),
                    swap,
                });
            }
        }
        kinds.extend(UnaryOp::ALL.map(OpKind::Unary));
        for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
            kinds.extend(AggOp::ALL.map(|op| OpKind::Agg(op, dir)));
        }
        kinds
    }

    #[test]
    fn lineage_encoding_round_trips() {
        for kind in traced_kinds() {
            let (opcode, data) = kind.lineage().expect("traced");
            let back = OpKind::from_lineage(&opcode, &data, kind.arity());
            assert_eq!(back, Ok(kind.clone()), "{opcode} {data:?}");
        }
        // A loop-variable scalar executes (and decodes) as `Binary`.
        let looped = OpKind::BinaryScalar {
            op: BinaryOp::Add,
            scalar: ScalarRef::Loop("reg".into()),
            swap: false,
        };
        let (opcode, data) = looped.lineage().unwrap();
        assert_eq!(
            OpKind::from_lineage(&opcode, &data, 2),
            Ok(OpKind::Binary(BinaryOp::Add))
        );
        for kind in [
            OpKind::Literal(1.0),
            OpKind::Alias,
            OpKind::Checkpoint,
            OpKind::Prefetch,
            OpKind::Broadcast,
            OpKind::Evict(0.5),
        ] {
            assert!(kind.lineage().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn lineage_strings_are_pinned() {
        // Interned hashes and the durable tier depend on these bytes.
        let enc = |k: OpKind| {
            let (op, data) = k.lineage().unwrap();
            format!("{op}|{}", data.join(","))
        };
        assert_eq!(enc(OpKind::MatMul), "ba+*|");
        assert_eq!(enc(OpKind::Xty), "tmm-y|");
        assert_eq!(enc(OpKind::Agg(AggOp::Sum, AggDir::Row)), "uarsum|");
        assert_eq!(
            enc(OpKind::BinaryScalar {
                op: BinaryOp::Mul,
                scalar: ScalarRef::Const(0.5),
                swap: true
            }),
            "*|0.5,true"
        );
        assert_eq!(
            enc(OpKind::MaxPool2d(Pool2dParams {
                channels: 8,
                height: 8,
                width: 8,
                window: 2,
                stride: 2,
            })),
            "maxpool|Pool2dParams { channels: 8, height: 8, width: 8, window: 2, stride: 2 }"
        );
        let mut codes: Vec<String> = traced_kinds()
            .iter()
            .filter(|k| !matches!(k, OpKind::BinaryScalar { .. }))
            .map(|k| k.lineage().unwrap().0.into_owned())
            .collect();
        let n = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), n, "opcodes are distinct");
    }

    #[test]
    fn from_lineage_rejects_malformed_items() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(OpKind::from_lineage("nope", &[], 1).is_err());
        assert!(OpKind::from_lineage("tsmm", &[], 2).is_err());
        assert!(OpKind::from_lineage("rand", &s(&["1", "2"]), 0).is_err());
        assert!(OpKind::from_lineage("+", &s(&["x", "true"]), 1).is_err());
        let bad_pool = "Pool2dParams { channels: 1, height: 2, width: 2, window: 2, stride: 0 }";
        assert!(OpKind::from_lineage("maxpool", &s(&[bad_pool]), 1).is_err());
        let reordered = "Pool2dParams { height: 2, channels: 1, width: 2, window: 2, stride: 1 }";
        assert!(OpKind::from_lineage("maxpool", &s(&[reordered]), 1).is_err());
    }

    #[test]
    fn action_like_classification() {
        assert!(OpKind::Tsmm.is_action_like());
        assert!(OpKind::Agg(AggOp::Sum, AggDir::Full).is_action_like());
        assert!(!OpKind::Binary(BinaryOp::Add).is_action_like());
        assert!(!OpKind::Agg(AggOp::Sum, AggDir::Row).is_action_like());
    }
}
