//! DDIM-style accelerated sampling (Song, Meng & Ermon, ICLR 2021).
//!
//! The paper's conclusion names sampling efficiency as future work: the
//! reverse DDPM loop costs one network evaluation per diffusion step
//! (50–100 for PriSTI). DDIM reinterprets the same trained ε-predictor as a
//! non-Markovian implicit model, allowing a *subsequence* of steps
//! `τ_1 < τ_2 < … < τ_S` (S ≪ T) with the deterministic update
//!
//! ```text
//! x̂₀  = (x_τ − √(1−ᾱ_τ)·ε̂) / √ᾱ_τ
//! x_{τ'} = √ᾱ_{τ'}·x̂₀ + √(1−ᾱ_{τ'} − σ²)·ε̂ + σ·z
//! ```
//!
//! with `σ = η·σ_DDPM` (η = 0 gives fully deterministic sampling). The update
//! needs nothing the DDPM ε-predictor does not already provide, so a model
//! trained once can be sampled at any speed/quality trade-off: the
//! [`crate::process::Ddim`] solver walks this grid, and the [`crate::process::Pndm`]
//! and [`crate::process::Refine`] solvers reuse its transfer map.

use crate::schedule::DiffusionSchedule;
use st_rand::StdRng;
use st_tensor::NdArray;

/// Evenly spaced subsequence of diffusion steps, always containing 1 and `T`.
pub fn ddim_timesteps(t_total: usize, n_steps: usize) -> Vec<usize> {
    assert!(n_steps >= 1, "need at least one DDIM step");
    assert!(t_total >= 1);
    let n = n_steps.min(t_total);
    let mut out: Vec<usize> = (0..n)
        .map(|i| 1 + (i as f64 * (t_total - 1) as f64 / (n.max(2) - 1) as f64).round() as usize)
        .collect();
    out.dedup();
    if *out.last().unwrap() != t_total {
        out.push(t_total);
    }
    out
}

/// Deterministic half of one DDIM update from step `t` to `t_prev`
/// (`t_prev < t`, or 0 to end): the predicted-`x₀` projection plus the
/// direction term, *without* the `σ·z` noise.
///
/// Element-wise, so any batch slice's mean equals the slice computed alone —
/// the property the micro-batching imputation service relies on.
pub fn ddim_mean(
    x_t: &NdArray,
    eps_hat: &NdArray,
    schedule: &DiffusionSchedule,
    t: usize,
    t_prev: usize,
    eta: f64,
) -> NdArray {
    assert!(t_prev < t, "ddim_step must move backwards: {t_prev} !< {t}");
    assert_eq!(x_t.shape(), eps_hat.shape(), "x_t/eps shape mismatch");
    let ab_t = schedule.alpha_bar(t);
    let ab_prev = if t_prev == 0 { 1.0 } else { schedule.alpha_bar(t_prev) };
    // predicted clean sample
    let c_x = 1.0 / ab_t.sqrt();
    let c_e = (1.0 - ab_t).sqrt() / ab_t.sqrt();
    let sigma = ddim_noise_scale(schedule, t, t_prev, eta);
    let dir_coef = (1.0 - ab_prev - sigma * sigma).max(0.0).sqrt();
    let a = ab_prev.sqrt();

    let mut out = NdArray::zeros(x_t.shape());
    for ((o, &x), &e) in out.data_mut().iter_mut().zip(x_t.data()).zip(eps_hat.data()) {
        let x0_hat = c_x as f32 * x - c_e as f32 * e;
        *o = a as f32 * x0_hat + dir_coef as f32 * e;
    }
    out
}

/// The DDIM noise standard deviation `σ = η·√((1−ᾱ_{τ'})/(1−ᾱ_τ))·√(1−ᾱ_τ/ᾱ_{τ'})`
/// (0 for deterministic sampling, `η = 0`).
pub fn ddim_noise_scale(schedule: &DiffusionSchedule, t: usize, t_prev: usize, eta: f64) -> f64 {
    let ab_t = schedule.alpha_bar(t);
    let ab_prev = if t_prev == 0 { 1.0 } else { schedule.alpha_bar(t_prev) };
    eta * ((1.0 - ab_prev) / (1.0 - ab_t)).sqrt() * (1.0 - ab_t / ab_prev).sqrt()
}

/// One DDIM update from step `t` to step `t_prev` (`t_prev < t`, or 0 to end).
///
/// `eta` interpolates between deterministic DDIM (0.0) and ancestral DDPM
/// noise levels (1.0): [`ddim_mean`] plus `σ·z` noise.
#[allow(clippy::too_many_arguments)]
pub fn ddim_step(
    x_t: &NdArray,
    eps_hat: &NdArray,
    schedule: &DiffusionSchedule,
    t: usize,
    t_prev: usize,
    eta: f64,
    rng: &mut StdRng,
) -> NdArray {
    let mut out = ddim_mean(x_t, eps_hat, schedule, t, t_prev, eta);
    crate::ddpm::add_reverse_noise_slice(
        out.data_mut(),
        ddim_noise_scale(schedule, t, t_prev, eta),
        rng,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_rand::SeedableRng;

    #[test]
    fn timesteps_subsequence_properties() {
        let taus = ddim_timesteps(50, 10);
        assert_eq!(*taus.first().unwrap(), 1);
        assert_eq!(*taus.last().unwrap(), 50);
        for w in taus.windows(2) {
            assert!(w[0] < w[1], "not strictly increasing: {taus:?}");
        }
        assert!(taus.len() <= 11);
    }

    #[test]
    fn timesteps_degenerate_cases() {
        assert_eq!(ddim_timesteps(50, 1), vec![1, 50]);
        let all = ddim_timesteps(10, 10);
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn eta_zero_is_deterministic() {
        let schedule = DiffusionSchedule::pristi_default(20);
        let x = NdArray::from_vec(&[3], vec![0.3, -0.2, 1.0]);
        let e = NdArray::from_vec(&[3], vec![0.1, 0.0, -0.5]);
        let a = ddim_step(&x, &e, &schedule, 10, 5, 0.0, &mut StdRng::seed_from_u64(1));
        let b = ddim_step(&x, &e, &schedule, 10, 5, 0.0, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
    }

    #[test]
    fn eta_one_adds_noise() {
        let schedule = DiffusionSchedule::pristi_default(20);
        let x = NdArray::from_vec(&[3], vec![0.3, -0.2, 1.0]);
        let e = NdArray::from_vec(&[3], vec![0.1, 0.0, -0.5]);
        let a = ddim_step(&x, &e, &schedule, 10, 5, 1.0, &mut StdRng::seed_from_u64(1));
        let b = ddim_step(&x, &e, &schedule, 10, 5, 1.0, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b, "η=1 must inject noise");
    }

    /// The η=1 single-gap DDIM variance matches the DDPM posterior variance.
    #[test]
    fn eta_one_matches_ddpm_variance() {
        let s = DiffusionSchedule::pristi_default(30);
        for t in 2..=30 {
            let ab_t = s.alpha_bar(t);
            let ab_prev = s.alpha_bar(t - 1);
            let sigma_ddim_sq = ((1.0 - ab_prev) / (1.0 - ab_t)) * (1.0 - ab_t / ab_prev);
            assert!(
                (sigma_ddim_sq - s.sigma_sq(t)).abs() < 1e-10,
                "variance mismatch at t={t}: {sigma_ddim_sq} vs {}",
                s.sigma_sq(t)
            );
        }
    }
}
