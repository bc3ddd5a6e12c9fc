//! # sccf-tensor
//!
//! The numeric substrate of the SCCF reproduction: dense matrices, a
//! tape-based reverse-mode autodiff engine, neural-network layers and
//! optimizers — everything needed to train FISM (Eq. 1), SASRec's
//! Transformer encoder (Eq. 2–8) and the integrating MLP (Eq. 15) without
//! any external ML framework.
//!
//! ## Architecture
//!
//! * [`mat`] — `Mat`, a row-major `f32` matrix with GEMM kernels in the
//!   three transpose layouts plus vector helpers (`dot`, `cosine`).
//! * [`store`] — `ParamStore` owns parameters and Adam moments; gradients
//!   are produced into a `Grads` buffer (dense, or sparse-by-row for
//!   embedding tables).
//! * [`tape`] — `Tape` records an eager forward pass and replays it in
//!   reverse for gradients. Every op's backward pass is finite-difference
//!   checked in `tests/gradcheck.rs`.
//! * [`nn`] — layers (`Linear`, `Embedding`, `LayerNorm`,
//!   `MultiHeadSelfAttention`, `PointwiseFfn`, `TransformerBlock`, `Mlp`).
//! * [`optim`] — `Adam` (lazy sparse rows, linear lr decay) and `Sgd`.
//! * [`serialize`] — versioned binary snapshots (weights + Adam moments)
//!   for deployment hand-off and warm restarts.
//! * [`init`] — truncated-normal (the paper's §IV-A.4 default) and Xavier
//!   initialization.
//! * [`simd`] — runtime-dispatched AVX2 kernels (dot, axpy) with
//!   bit-identical scalar fallbacks.
//!
//! ## Example
//!
//! ```
//! use sccf_tensor::{Mat, ParamStore, Tape};
//! use sccf_tensor::optim::{Adam, AdamConfig};
//!
//! // Fit w ≈ 2 by minimizing mean((w - 2)²).
//! let mut store = ParamStore::new();
//! let w = store.add("w", Mat::zeros(1, 1));
//! let mut adam = Adam::new(AdamConfig { lr: 0.1, ..Default::default() });
//! for _ in 0..200 {
//!     let mut tape = Tape::new(&store);
//!     let wv = tape.param(w);
//!     let target = tape.input(Mat::row_vector(&[2.0]));
//!     let diff = tape.sub(wv, target);
//!     let sq = tape.mul(diff, diff);
//!     let loss = tape.mean_all(sq);
//!     let grads = tape.backward(loss);
//!     adam.step(&mut store, &grads);
//! }
//! assert!((store.value(w).get(0, 0) - 2.0).abs() < 0.05);
//! ```

pub mod init;
pub mod mat;
pub mod nn;
pub mod optim;
pub mod serialize;
pub mod simd;
pub mod store;
pub mod tape;

pub use init::Initializer;
pub use mat::{axpy, cosine, dot, matvec_into, norm, normalize, Mat};
pub use serialize::{load_into, load_store, save_store, SnapshotError};
pub use store::{GradSlot, Grads, ParamId, ParamStore};
pub use tape::{stable_sigmoid, Tape, Var};
