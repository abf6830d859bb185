//! Lineage-based debugging (§3.2): trace a pipeline, SERIALIZE the lineage
//! of its result, ship the log elsewhere, and RECOMPUTE the exact same
//! intermediate from the log — full re-execution from lineage, the
//! reproducibility workflow the paper describes. The second part replays
//! a CNN intermediate (conv2d → max_pool2d) bit for bit.
//!
//! Run with: `cargo run -p memphis-examples --bin lineage_debugging`

use memphis_core::cache::entry::CachedObject;
use memphis_core::lineage::serialize;
use memphis_core::recompute::recompute;
use memphis_engine::recompute_exec::MatrixExecutor;
use memphis_engine::{EngineConfig, ExecutionContext};
use memphis_matrix::ops::binary::BinaryOp;
use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
use memphis_matrix::ops::unary::UnaryOp;
use memphis_matrix::rand_gen::rand_uniform;

fn main() {
    // Run a small pipeline with tracing enabled.
    let mut ctx = ExecutionContext::local(EngineConfig::test());
    let x = rand_uniform(64, 8, -1.0, 1.0, 9);
    ctx.read("X", x.clone(), "X.bin").unwrap();
    ctx.tsmm("G", "X").unwrap();
    ctx.binary_const("A", "G", 0.001, BinaryOp::Add, false)
        .unwrap();
    ctx.unary("S", "A", UnaryOp::Sqrt).unwrap();
    let original = ctx.get_matrix("S").unwrap();

    // SERIALIZE the lineage trace of S to a log.
    let trace = ctx.lineage_of("S").expect("traced");
    let log = serialize(&trace);
    println!("--- lineage log of S ({} nodes) ---", log.lines().count());
    print!("{log}");

    // RECOMPUTE the result in a fresh environment from the log alone,
    // given only the named input dataset.
    let mut exec = MatrixExecutor::default().with_input("X.bin", x);
    match recompute(&log, &mut exec).expect("recompute") {
        CachedObject::Matrix(m) => {
            assert!(m.approx_eq(&original, 1e-12));
            println!(
                "--- recomputed S matches the original ({}x{} matrix) ---",
                m.rows(),
                m.cols()
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // A CNN feature map: conv2d -> relu -> max_pool2d over 8x8 RGB images.
    let images = rand_uniform(4, 3 * 8 * 8, 0.0, 1.0, 7);
    ctx.read("IMG", images.clone(), "images.bin").unwrap();
    ctx.rand("W", 4, 3 * 3 * 3, -0.3, 0.3, 300).unwrap();
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
    ctx.unary("R", "C", UnaryOp::Relu).unwrap();
    let pool = Pool2dParams {
        channels: 4,
        height: 8,
        width: 8,
        window: 2,
        stride: 2,
    };
    ctx.max_pool2d("P", "R", pool).unwrap();
    let original = ctx.get_matrix("P").unwrap();
    let log = serialize(&ctx.lineage_of("P").expect("traced"));
    println!("--- lineage log of P ({} nodes) ---", log.lines().count());
    print!("{log}");
    let mut exec = MatrixExecutor::default().with_input("images.bin", images);
    match recompute(&log, &mut exec).expect("recompute") {
        CachedObject::Matrix(m) => {
            assert_eq!(m.fingerprint(), original.fingerprint(), "bit-identical");
            println!(
                "--- recomputed P is bit-identical to the original ({}x{} matrix) ---",
                m.rows(),
                m.cols()
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}
