//! Dense matrix substrate for the MEMPHIS reproduction.
//!
//! This crate provides the in-memory linear-algebra kernels that every
//! backend (local CPU, the simulated Spark engine, and the simulated GPU
//! device) executes. It mirrors the operator set SystemDS exposes to the
//! MEMPHIS runtime: blocked matrix multiplication, transpose, elementwise
//! binary/unary operations, aggregations, linear-system solves, reorg
//! operations (slicing, rbind/cbind), neural-network kernels (conv2d,
//! max-pooling, softmax, dropout), and seeded random generation.
//!
//! Matrices are dense, row-major `f64` buffers. The distributed backend
//! tiles them into [`blocked::BlockedMatrix`] collections of fixed-size
//! [`Matrix`] blocks, matching Spark's keyed matrix-tile RDDs.

pub mod blocked;
pub mod dense;
pub mod error;
pub mod hash;
pub mod io;
pub mod ops;
pub mod rand_gen;

pub use blocked::{BlockId, BlockedMatrix};
pub use dense::Matrix;
pub use error::{MatrixError, Result};
