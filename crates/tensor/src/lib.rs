//! Dense `f32` tensor substrate for the DGCL reproduction.
//!
//! The original DGCL delegates dense math to DGL/PyTorch on the GPU. This
//! crate provides the minimal CPU replacement the reproduction needs: a
//! row-major [`Matrix`] with the linear-algebra and activation kernels used
//! by the GNN layers in `dgcl-gnn`, written so that distributed training can
//! be checked for numerical parity against single-device training.
//!
//! Every kernel is sequential and runs on the calling thread. In
//! distributed training each rank thread stands for one GPU, so the
//! rank threads are the parallelism; a kernel never spawns threads.
//!
//! # Examples
//!
//! ```
//! use dgcl_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

mod activation;
mod init;
mod matrix;
mod ops;
mod reduce;
pub mod spmm;

pub use activation::Activation;
pub use init::XavierInit;
pub use matrix::Matrix;
pub use spmm::{spmm_csr_dense_into, CsrBlock};

/// Threads a kernel call uses: always `1`, since every kernel runs on
/// the calling thread. Kept for the benchmark's run-context line.
pub fn compute_threads() -> usize {
    1
}
