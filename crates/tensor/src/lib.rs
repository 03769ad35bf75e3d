//! `gfaas-tensor` — a small CPU tensor library and CNN inference engine.
//!
//! The paper runs real PyTorch CNN inference on GPUs. This crate is the
//! substitution's compute half: genuine (CPU) forward-pass inference for the
//! live examples and the batch-size profiler in `gfaas-models`. It is not a
//! PyTorch replacement — it implements exactly the operator set the paper's
//! 22 torchvision CNNs are built from:
//!
//! * [`ops::conv`] — 2-D convolution (direct and im2col+GEMM paths),
//! * [`ops::pool`] — max/average/global-average pooling,
//! * [`ops::linear`](ops::linear()) — fully connected layers over a blocked,
//!   thread-parallel GEMM ([`ops::matmul`](ops::matmul())),
//! * [`ops::activation`] — ReLU / sigmoid / softmax,
//! * [`ops::norm`] — inference-mode batch normalisation,
//!
//! glued together by [`graph::Network`], a sequential layer graph with
//! deterministic weight initialisation.
//!
//! Parallelism follows the workspace's HPC guides: data-parallel loops over
//! disjoint output chunks via `std::thread::scope` ([`parallel`]), no locks on
//! the hot path, and a serial fast path when the work is too small to
//! amortise thread spawn.

#![warn(missing_docs)]

pub mod graph;
pub mod nets;
pub mod ops;
pub mod parallel;
pub mod tensor;

pub use graph::{Layer, Network};
pub use tensor::Tensor;
