//! # st-diffusion
//!
//! Denoising-diffusion machinery (Ho et al. 2020) as used by PriSTI and CSDI
//! for conditional spatiotemporal imputation: noise schedules (including the
//! paper's quadratic schedule, Eq. 13), the forward noising process
//! `q(X̃ᵗ | X̃⁰)`, and the reverse updates of Algorithm 2 and its
//! accelerated variants behind the [`GenerativeProcess`] solver trait. The
//! caller owns the network evaluation and every random draw, so the same
//! solvers drive PriSTI, CSDI and ablated variants.
//!
//! ```
//! use st_diffusion::{q_sample, DiffusionSchedule};
//! use st_rand::{SeedableRng, StdRng};
//! use st_tensor::NdArray;
//!
//! // The paper's quadratic schedule (Eq. 13), steps t ∈ 1..=T:
//! // ᾱ_t decays toward 0 as t → T.
//! let schedule = DiffusionSchedule::pristi_default(50);
//! assert!(schedule.alpha_bar(50) < schedule.alpha_bar(1));
//!
//! // Forward noising: x_t = √ᾱ_t · x0 + √(1-ᾱ_t) · ε, shape-preserving.
//! let mut rng = StdRng::seed_from_u64(7);
//! let x0 = NdArray::randn(&[2, 4, 8], &mut rng);
//! let eps = NdArray::randn(&[2, 4, 8], &mut rng);
//! let x_t = q_sample(&x0, &eps, &schedule, 25);
//! assert_eq!(x_t.shape(), x0.shape());
//! ```

#![deny(missing_docs)]
// Index-based loops over several parallel buffers are the clearest way to
// write the numeric kernels in this workspace.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod ddim;
pub mod ddpm;
pub mod process;
pub mod schedule;

pub use ddim::{ddim_mean, ddim_noise_scale, ddim_step, ddim_timesteps};
pub use ddpm::{
    add_reverse_noise_slice, p_sample_mean, p_sample_noise_scale, p_sample_step, q_sample,
};
pub use process::{ChainInit, Ddim as DdimSolver, Ddpm as DdpmSolver, GenerativeProcess, Pndm, Refine, SolverStep};
pub use schedule::{BetaSchedule, DiffusionSchedule};
