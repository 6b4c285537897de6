//! Dense `f32` tensor substrate for the `fedrlnas` workspace.
//!
//! This crate is the numerical foundation for every other crate in the
//! reproduction of *Federated Model Search via Reinforcement Learning*
//! (ICDCS 2021). It deliberately implements only what the rest of the
//! workspace needs, from scratch:
//!
//! * [`Tensor`] — an owned, row-major, dense `f32` tensor with shape
//!   arithmetic and element-wise operations,
//! * [`gemm`]/[`gemm_bias`] — a packed, register-tiled single-precision
//!   matrix multiply used by the convolution and linear layers,
//! * [`im2col`]/[`col2im`] — the lowering used to express convolutions (with
//!   stride, padding, dilation and groups) as GEMM,
//! * [`depthwise_forward`]/[`depthwise_backward`] — direct kernels for the
//!   one-filter-per-channel convolutions that gain nothing from that lowering,
//!   and on the same machinery [`window_max`] and [`window_sum_backward`],
//!   the max pool and the average pool's backward (its forward is the
//!   depthwise forward at unit weights),
//! * [`Workspace`] — a grow-only scratch arena layers reuse across steps so
//!   the hot path performs no per-call allocations,
//! * reductions, softmax and argmax kernels.
//!
//! # Example
//!
//! ```
//! use fedrlnas_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), fedrlnas_tensor::ShapeError>(())
//! ```

#![warn(missing_docs)]

mod conv;
mod depthwise;
mod gemm;
mod gemm_small;
mod ops;
mod shape;
mod tensor;
mod threading;
mod workspace;

pub use conv::{col2im, im2col, Conv2dGeometry};
pub use depthwise::{depthwise_backward, depthwise_forward, window_max, window_sum_backward};
pub use gemm::{gemm, gemm_bias, gemm_naive, gemm_nt};
pub use gemm_small::has_avx2;
pub use ops::{argmax_rows, log_softmax_rows, softmax_inplace, softmax_rows};
pub use shape::{Shape, ShapeError};
pub use tensor::Tensor;
pub use threading::{num_threads, set_num_threads};
pub use workspace::Workspace;
