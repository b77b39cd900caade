//! Forward noising and the single reverse step (paper Section III-A,
//! Algorithms 1–2). The reverse loop itself is driven through
//! [`crate::process::Ddpm`].

use crate::schedule::DiffusionSchedule;
use st_rand::StdRng;
use st_rand::{Distribution, Normal};
use st_tensor::NdArray;

/// Forward process: draw `X̃ᵗ = √ᾱ_t X̃⁰ + √(1−ᾱ_t) ε` for a given `ε`.
pub fn q_sample(x0: &NdArray, eps: &NdArray, schedule: &DiffusionSchedule, t: usize) -> NdArray {
    assert_eq!(x0.shape(), eps.shape(), "x0/eps shape mismatch");
    let t0 = st_obs::op_start();
    let ab = schedule.alpha_bar(t);
    let a = ab.sqrt() as f32;
    let b = (1.0 - ab).sqrt() as f32;
    let out = x0.zip_map(eps, |x, e| a * x + b * e);
    st_obs::record_op(st_obs::Phase::Fwd, "q_sample", t0, out.numel() as u64);
    out
}

/// Deterministic half of one reverse step: the posterior mean
/// `μ = (X̃ᵗ − β_t/√(1−ᾱ_t)·ε̂) / √α_t`
/// (the paper's Eq. 3 prints `√ᾱ_t` in the denominator, a well-known typo for
/// `√α_t`; the authors' released code uses `√α_t`).
///
/// The computation is purely element-wise, so the mean of any batch slice is
/// bitwise identical to the mean of that slice computed on its own — the
/// property the micro-batching imputation service relies on.
pub fn p_sample_mean(
    x_t: &NdArray,
    eps_hat: &NdArray,
    schedule: &DiffusionSchedule,
    t: usize,
) -> NdArray {
    assert_eq!(x_t.shape(), eps_hat.shape(), "x_t/eps shape mismatch");
    let beta = schedule.beta(t) as f32;
    let alpha = schedule.alpha(t) as f32;
    let ab = schedule.alpha_bar(t) as f32;
    let coef = beta / (1.0 - ab).sqrt();
    let inv_sqrt_alpha = 1.0 / alpha.sqrt();
    x_t.zip_map(eps_hat, |x, e| inv_sqrt_alpha * (x - coef * e))
}

/// Standard deviation `σ_t` of the noise added after [`p_sample_mean`]
/// (`0` at `t = 1`, Algorithm 2 line 5).
pub fn p_sample_noise_scale(schedule: &DiffusionSchedule, t: usize) -> f64 {
    if t <= 1 { 0.0 } else { schedule.sigma_sq(t).sqrt() }
}

/// Add `scale · z, z ~ N(0, 1)` to every element of `buf`, drawing from
/// `rng` in buffer order. No-op (and no RNG draws) when `scale == 0`.
///
/// Exposed on the raw slice so callers owning a batched `[S, N, L]` tensor
/// can drive each request's slice from its own RNG stream.
pub fn add_reverse_noise_slice(buf: &mut [f32], scale: f64, rng: &mut StdRng) {
    if scale == 0.0 {
        return;
    }
    let normal = Normal::new(0.0f32, 1.0).expect("valid normal");
    let s = scale as f32;
    for v in buf {
        *v += s * normal.sample(rng);
    }
}

/// One reverse step (Algorithm 2, lines 4–5): given `X̃ᵗ` and the predicted
/// noise, produce `X̃ᵗ⁻¹` — [`p_sample_mean`] plus `σ_t`-scaled noise. At
/// `t = 1` no noise is added (`σ₁ = 0`).
pub fn p_sample_step(
    x_t: &NdArray,
    eps_hat: &NdArray,
    schedule: &DiffusionSchedule,
    t: usize,
    rng: &mut StdRng,
) -> NdArray {
    let t0 = st_obs::op_start();
    let mut out = p_sample_mean(x_t, eps_hat, schedule, t);
    add_reverse_noise_slice(out.data_mut(), p_sample_noise_scale(schedule, t), rng);
    st_obs::record_op(st_obs::Phase::Fwd, "p_sample_step", t0, out.numel() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_rand::SeedableRng;

    #[test]
    fn q_sample_interpolates_signal_and_noise() {
        let s = DiffusionSchedule::pristi_default(50);
        let x0 = NdArray::full(&[4], 2.0);
        let eps = NdArray::full(&[4], -1.0);
        let x1 = q_sample(&x0, &eps, &s, 1);
        // at t=1 almost all signal
        assert!((x1.data()[0] - 2.0).abs() < 0.05);
        // at t=T the noise coefficient dominates the signal coefficient
        let ab_t = s.alpha_bar(50);
        assert!(ab_t.sqrt() < 0.2, "signal coefficient too large: {}", ab_t.sqrt());
        assert!((1.0 - ab_t).sqrt() > 0.95);
        let xt = q_sample(&x0, &eps, &s, 50);
        let expected = (ab_t.sqrt() as f32) * 2.0 - (1.0 - ab_t).sqrt() as f32;
        assert!((xt.data()[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn q_sample_variance_preserving() {
        // ᾱ + (1-ᾱ) = 1, so squared coefficients sum to 1:
        let s = DiffusionSchedule::pristi_default(50);
        for t in [1, 10, 25, 50] {
            let ab = s.alpha_bar(t);
            assert!((ab + (1.0 - ab) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn last_step_deterministic() {
        let s = DiffusionSchedule::pristi_default(10);
        let x = NdArray::full(&[3], 0.5);
        let e = NdArray::zeros(&[3]);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(999);
        let a = p_sample_step(&x, &e, &s, 1, &mut r1);
        let b = p_sample_step(&x, &e, &s, 1, &mut r2);
        assert_eq!(a, b, "t=1 must not inject noise");
    }
}
