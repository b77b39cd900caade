//! The [`GenerativeProcess`] solver interface: the reverse process as an
//! object-safe trait.
//!
//! Historically the reverse loop was a hard-coded `match` over DDPM and DDIM
//! inside the imputation driver. This module turns "how do we walk from noise
//! to data" into a small trait so new solvers plug in without touching the
//! batched engine:
//!
//! * [`Ddpm`] — full `T`-step ancestral sampling (Algorithm 2), bitwise
//!   identical to the pre-trait inline loop;
//! * [`Ddim`] — the accelerated subsequence sampler, likewise pinned bitwise
//!   to the inline path it replaced;
//! * [`Pndm`] — a pseudo-numerical linear-multistep solver (FastSTI /
//!   PNDM-PLMS style): the DDIM transfer map applied to an Adams–Bashforth
//!   combination of the ε history, reaching near-full-chain accuracy in ~6
//!   network evaluations;
//! * [`Refine`] — a two-stage pipeline (RDPI style): a deterministic prior
//!   estimate is noised to an intermediate step and a *short* diffusion chain
//!   refines only the residual between that estimate and the data.
//!
//! # The driver contract
//!
//! A driver owns the batched state tensor and the per-request RNG streams;
//! the solver owns only the schedule walk and the deterministic update:
//!
//! 1. [`GenerativeProcess::init`] says how to build `x` at the chain head —
//!    pure Gaussian noise, or a noised prior estimate
//!    ([`ChainInit::NoisedPrior`]).
//! 2. [`GenerativeProcess::timesteps`] returns the descending `(t, t_prev)`
//!    pairs to walk; its length is the number of network evaluations.
//! 3. For each pair the driver evaluates `ε̂` and calls
//!    [`GenerativeProcess::step`], which returns the **deterministic mean**
//!    plus the noise scale `σ` — the driver adds `σ·z` itself, per request
//!    slice, from each request's own stream.
//!
//! Splitting the update this way (mean from the solver, noise from the
//! driver) is what keeps batch-slice exactness: every solver update is
//! element-wise over the batch tensor, so a request's slice is bitwise
//! identical no matter which other requests share its batch. Multistep state
//! (the [`Pndm`] ε history) lives on the whole batch tensor, which is safe
//! for the same reason — the history combination is element-wise, and a
//! batch never changes membership mid-chain, so each request's slice of the
//! history equals the history a solo run would have kept.

use crate::ddim::{ddim_mean, ddim_noise_scale, ddim_timesteps};
use crate::ddpm::{p_sample_mean, p_sample_noise_scale};
use crate::schedule::DiffusionSchedule;
use st_tensor::NdArray;

/// How a solver wants the reverse chain initialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainInit {
    /// Start from pure Gaussian noise `x ~ N(0, I)` at the top of the chain
    /// (DDPM / DDIM / PNDM).
    Gaussian,
    /// Start from a deterministic prior estimate `x̂⁰` noised forward to step
    /// `t_start`: `x = √ᾱ_{t_start}·x̂⁰ + √(1−ᾱ_{t_start})·z`. The driver
    /// supplies `x̂⁰` (for imputation: the interpolated conditional, which is
    /// already the model's coarse estimate of the missing values), so the
    /// chain only has to remove `1−ᾱ_{t_start}` worth of noise — the residual
    /// between the prior estimate and the data.
    NoisedPrior {
        /// The diffusion step the prior estimate is noised to (`1..=T`).
        t_start: usize,
    },
}

/// One reverse update, split for batch-slice exactness: the deterministic
/// mean (element-wise over the whole batch) and the scale of the Gaussian
/// noise the **driver** adds per request slice (0 for deterministic solvers).
#[derive(Debug)]
pub struct SolverStep {
    /// Deterministic half of the update (same shape as `x_t`).
    pub mean: NdArray,
    /// Standard deviation of the `σ·z` noise to add (no draws when 0).
    pub noise_scale: f64,
}

/// An object-safe reverse-process solver: the schedule walk plus the
/// deterministic update rule, with all randomness left to the caller.
///
/// Implementations may keep per-chain state (e.g. the [`Pndm`] ε history);
/// [`reset`](Self::reset) clears it so one solver value can drive several
/// chains. See the module docs for the driver contract.
pub trait GenerativeProcess {
    /// The descending `(t, t_prev)` pairs the driver will walk, in
    /// application order (`t_prev == 0` ends the chain). One network
    /// evaluation happens per pair, so `timesteps().len()` is the NFE cost.
    fn timesteps(&self, schedule: &DiffusionSchedule) -> Vec<(usize, usize)>;

    /// How the chain head is built (defaults to [`ChainInit::Gaussian`]).
    fn init(&self, _schedule: &DiffusionSchedule) -> ChainInit {
        ChainInit::Gaussian
    }

    /// One reverse update from `t` to `t_prev` given the network's `ε̂`.
    ///
    /// Must be element-wise over the batch tensor (see the module docs);
    /// stateful solvers may record `eps_hat` here for later steps.
    fn step(
        &mut self,
        x_t: &NdArray,
        eps_hat: &NdArray,
        schedule: &DiffusionSchedule,
        t: usize,
        t_prev: usize,
    ) -> SolverStep;

    /// Clear any per-chain state (multistep history). Drivers call this
    /// before walking a fresh chain.
    fn reset(&mut self);

    /// The `st-obs` op label recorded per step (e.g. `"p_sample_step"`).
    fn op_label(&self) -> &'static str;
}

/// Full `T`-step ancestral DDPM sampling (Algorithm 2) behind the trait.
///
/// Bitwise identical to the pre-trait inline loop: the mean is
/// [`p_sample_mean`] and the noise scale is [`p_sample_noise_scale`], applied
/// on the same grid `(T, T−1), …, (1, 0)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ddpm;

impl GenerativeProcess for Ddpm {
    fn timesteps(&self, schedule: &DiffusionSchedule) -> Vec<(usize, usize)> {
        (1..=schedule.t_steps()).rev().map(|t| (t, t - 1)).collect()
    }

    fn step(
        &mut self,
        x_t: &NdArray,
        eps_hat: &NdArray,
        schedule: &DiffusionSchedule,
        t: usize,
        _t_prev: usize,
    ) -> SolverStep {
        SolverStep {
            mean: p_sample_mean(x_t, eps_hat, schedule, t),
            noise_scale: p_sample_noise_scale(schedule, t),
        }
    }

    fn reset(&mut self) {}

    fn op_label(&self) -> &'static str {
        "p_sample_step"
    }
}

/// Accelerated DDIM sampling behind the trait: `steps` network evaluations on
/// the [`ddim_timesteps`] grid, `eta` interpolating deterministic (0) to
/// ancestral (1) noise levels. Bitwise identical to the pre-trait inline
/// DDIM loop.
#[derive(Debug, Clone, Copy)]
pub struct Ddim {
    /// Requested denoising steps (network evaluations; the realised grid may
    /// differ by one at degenerate counts, see [`ddim_timesteps`]).
    pub steps: usize,
    /// Stochasticity knob `η ∈ [0, 1]`.
    pub eta: f64,
}

impl Ddim {
    /// A DDIM solver with `steps` evaluations and stochasticity `eta`.
    pub fn new(steps: usize, eta: f64) -> Self {
        Self { steps, eta }
    }
}

/// Descending `(t, t_prev)` pairs over a [`ddim_timesteps`] subsequence of
/// `1..=t_total`.
fn ddim_pairs(t_total: usize, n_steps: usize) -> Vec<(usize, usize)> {
    let taus = ddim_timesteps(t_total, n_steps);
    (0..taus.len())
        .rev()
        .map(|i| (taus[i], if i == 0 { 0 } else { taus[i - 1] }))
        .collect()
}

impl GenerativeProcess for Ddim {
    fn timesteps(&self, schedule: &DiffusionSchedule) -> Vec<(usize, usize)> {
        ddim_pairs(schedule.t_steps(), self.steps)
    }

    fn step(
        &mut self,
        x_t: &NdArray,
        eps_hat: &NdArray,
        schedule: &DiffusionSchedule,
        t: usize,
        t_prev: usize,
    ) -> SolverStep {
        SolverStep {
            mean: ddim_mean(x_t, eps_hat, schedule, t, t_prev, self.eta),
            noise_scale: ddim_noise_scale(schedule, t, t_prev, self.eta),
        }
    }

    fn reset(&mut self) {}

    fn op_label(&self) -> &'static str {
        "ddim_step"
    }
}

/// Pseudo-numerical linear-multistep solver (PNDM / PLMS, the FastSTI
/// direction): the deterministic DDIM transfer map applied to an
/// Adams–Bashforth combination of the ε history instead of the raw `ε̂`.
///
/// The reverse ODE is solved to `order`-th accuracy without extra network
/// evaluations: past `ε̂` values are free, so the effective noise estimate at
/// history length `k` is
///
/// ```text
/// k = 0:  ε̂
/// k = 1:  (3ε̂ − ε₁) / 2
/// k = 2:  (23ε̂ − 16ε₁ + 5ε₂) / 12
/// k ≥ 3:  (55ε̂ − 59ε₁ + 37ε₂ − 9ε₃) / 24
/// ```
///
/// (`ε_i` the estimate from `i` steps ago). Warmup is progressive — the first
/// step runs at order 1, the second at order 2, … — so every step costs
/// exactly one evaluation; the original PNDM's Runge–Kutta warmup spends 4
/// evaluations per warmup step, which is the wrong trade in the ≤6-evaluation
/// regime this solver targets.
///
/// With `order == 1` the history is never consulted and every step is
/// exactly the deterministic DDIM update — bitwise, on the same grid (the
/// solver-equivalence suite pins this).
#[derive(Debug, Clone)]
pub struct Pndm {
    /// Denoising steps (network evaluations) on the [`ddim_timesteps`] grid.
    pub steps: usize,
    /// Maximum linear-multistep order, `1..=4` (4 is the classic PNDM).
    pub order: usize,
    /// ε history, most recent first, capped at `order − 1` entries.
    history: Vec<NdArray>,
}

impl Pndm {
    /// A PNDM solver with `steps` evaluations at multistep order `order`
    /// (clamped to `1..=4`).
    pub fn new(steps: usize, order: usize) -> Self {
        Self { steps, order: order.clamp(1, 4), history: Vec::new() }
    }

    /// The Adams–Bashforth combination of `eps_hat` with the recorded
    /// history, at the order the warmup has reached.
    fn effective_eps(&self, eps_hat: &NdArray) -> NdArray {
        let k = self.history.len().min(self.order - 1);
        let mut out = NdArray::zeros(eps_hat.shape());
        let e = eps_hat.data();
        let o = out.data_mut();
        match k {
            0 => o.copy_from_slice(e),
            1 => {
                let e1 = self.history[0].data();
                for i in 0..o.len() {
                    o[i] = (3.0 * e[i] - e1[i]) / 2.0;
                }
            }
            2 => {
                let (e1, e2) = (self.history[0].data(), self.history[1].data());
                for i in 0..o.len() {
                    o[i] = (23.0 * e[i] - 16.0 * e1[i] + 5.0 * e2[i]) / 12.0;
                }
            }
            _ => {
                let (e1, e2, e3) = (
                    self.history[0].data(),
                    self.history[1].data(),
                    self.history[2].data(),
                );
                for i in 0..o.len() {
                    o[i] = (55.0 * e[i] - 59.0 * e1[i] + 37.0 * e2[i] - 9.0 * e3[i]) / 24.0;
                }
            }
        }
        out
    }
}

impl GenerativeProcess for Pndm {
    fn timesteps(&self, schedule: &DiffusionSchedule) -> Vec<(usize, usize)> {
        ddim_pairs(schedule.t_steps(), self.steps)
    }

    fn step(
        &mut self,
        x_t: &NdArray,
        eps_hat: &NdArray,
        schedule: &DiffusionSchedule,
        t: usize,
        t_prev: usize,
    ) -> SolverStep {
        // Order 1 keeps the raw ε̂ untouched — the update below is then the
        // exact DDIM η=0 arithmetic, bit for bit.
        let mean = if self.order == 1 || self.history.is_empty() {
            ddim_mean(x_t, eps_hat, schedule, t, t_prev, 0.0)
        } else {
            let eps_eff = self.effective_eps(eps_hat);
            ddim_mean(x_t, &eps_eff, schedule, t, t_prev, 0.0)
        };
        if self.order > 1 {
            self.history.insert(0, eps_hat.clone());
            self.history.truncate(self.order - 1);
        }
        SolverStep { mean, noise_scale: 0.0 }
    }

    fn reset(&mut self) {
        self.history.clear();
    }

    fn op_label(&self) -> &'static str {
        "pndm_step"
    }
}

/// Two-stage refine pipeline (the RDPI direction): a deterministic prior
/// estimate does the coarse work, and a short deterministic diffusion chain
/// refines only the residual.
///
/// Stage 1 is free: the driver already owns a deterministic estimate `x̂⁰`
/// (for imputation, the linearly interpolated conditional — PriSTI's own
/// "coarse yet effective" prior). Stage 2 noises it forward to
/// `t_start = ⌈strength·T⌉` ([`ChainInit::NoisedPrior`]) and walks a
/// `steps`-evaluation DDIM η=0 grid over `1..=t_start` only. Because
/// `√ᾱ_{t_start}` of the prior estimate survives in the chain head, the
/// network only has to correct the prior's residual instead of generating
/// from scratch — which is why 3–4 evaluations at `strength ≈ 0.5` track the
/// full chain.
#[derive(Debug, Clone, Copy)]
pub struct Refine {
    /// Denoising steps (network evaluations) spent on the residual chain.
    pub steps: usize,
    /// Fraction of the schedule the prior estimate is noised to, `(0, 1]`.
    pub strength: f64,
}

impl Refine {
    /// A refine solver with `steps` evaluations over the top `strength`
    /// fraction of the schedule (clamped to `(0, 1]`).
    pub fn new(steps: usize, strength: f64) -> Self {
        let strength = if strength.is_finite() { strength.clamp(f64::MIN_POSITIVE, 1.0) } else { 0.5 };
        Self { steps, strength }
    }

    /// The chain-head step `t_start = max(1, round(strength·T))`.
    pub fn t_start(&self, schedule: &DiffusionSchedule) -> usize {
        let t = (self.strength * schedule.t_steps() as f64).round() as usize;
        t.clamp(1, schedule.t_steps())
    }
}

impl GenerativeProcess for Refine {
    fn timesteps(&self, schedule: &DiffusionSchedule) -> Vec<(usize, usize)> {
        ddim_pairs(self.t_start(schedule), self.steps)
    }

    fn init(&self, schedule: &DiffusionSchedule) -> ChainInit {
        ChainInit::NoisedPrior { t_start: self.t_start(schedule) }
    }

    fn step(
        &mut self,
        x_t: &NdArray,
        eps_hat: &NdArray,
        schedule: &DiffusionSchedule,
        t: usize,
        t_prev: usize,
    ) -> SolverStep {
        SolverStep {
            mean: ddim_mean(x_t, eps_hat, schedule, t, t_prev, 0.0),
            noise_scale: 0.0,
        }
    }

    fn reset(&mut self) {}

    fn op_label(&self) -> &'static str {
        "refine_step"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpm::{add_reverse_noise_slice, p_sample_step};
    use crate::schedule::DiffusionSchedule;
    use st_rand::{SeedableRng, StdRng};

    /// Drive a solver end to end with an oracle ε-predictor, mirroring the
    /// batched driver: solver mean plus the driver's `σ·z` term (no draws
    /// when `σ = 0`).
    fn run_solver(
        solver: &mut dyn GenerativeProcess,
        schedule: &DiffusionSchedule,
        target: f32,
        prior: f32,
        rng: &mut StdRng,
    ) -> NdArray {
        let oracle = |x_t: &NdArray, t: usize| -> NdArray {
            let ab = schedule.alpha_bar(t) as f32;
            x_t.map(|x| (x - ab.sqrt() * target) / (1.0 - ab).sqrt())
        };
        solver.reset();
        let noise = NdArray::randn(&[6], rng);
        let mut x = match solver.init(schedule) {
            ChainInit::Gaussian => noise,
            ChainInit::NoisedPrior { t_start } => {
                let ab = schedule.alpha_bar(t_start);
                let (a, b) = (ab.sqrt() as f32, (1.0 - ab).sqrt() as f32);
                noise.map(|z| a * prior + b * z)
            }
        };
        for (t, t_prev) in solver.timesteps(schedule) {
            let eps = oracle(&x, t);
            let step = solver.step(&x, &eps, schedule, t, t_prev);
            assert!(step.noise_scale >= 0.0);
            x = step.mean;
            add_reverse_noise_slice(x.data_mut(), step.noise_scale, rng);
        }
        x
    }

    /// With an oracle predictor that knows the true x0, ancestral DDPM must
    /// converge to (approximately) x0 — this exercises the exact constants in
    /// `p_sample_mean` and `p_sample_noise_scale`.
    #[test]
    fn reverse_with_oracle_recovers_target() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let target = 1.7f32;
        let mut rng = StdRng::seed_from_u64(0);
        let n_trials = 20;
        let mut acc = 0.0;
        for _ in 0..n_trials {
            acc += run_solver(&mut Ddpm, &schedule, target, 0.0, &mut rng).mean();
        }
        let mean = acc / n_trials as f64;
        assert!(
            (mean - target as f64).abs() < 0.15,
            "oracle reverse process should land near {target}, got {mean}"
        );
    }

    /// With an oracle ε-predictor, deterministic DDIM recovers the target in
    /// very few steps — much more precisely than DDPM at the same count.
    #[test]
    fn oracle_ddim_recovers_target_in_few_steps() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let target = -0.8f32;
        let mut solver = Ddim::new(8, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut acc = 0.0;
        for _ in 0..10 {
            acc += run_solver(&mut solver, &schedule, target, 0.0, &mut rng).mean();
        }
        let mean = acc / 10.0;
        assert!(
            (mean - target as f64).abs() < 0.05,
            "8-step deterministic DDIM should land on {target}, got {mean}"
        );
    }

    #[test]
    fn ddpm_solver_matches_inline_p_sample_sequence() {
        let schedule = DiffusionSchedule::pristi_default(12);
        let mut solver = Ddpm;
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let mut x_a = NdArray::randn(&[5], &mut rng_a);
        let mut x_b = NdArray::from_vec(&[5], x_a.data().to_vec());
        let sched2 = schedule.clone();
        let oracle = move |x_t: &NdArray, t: usize| -> NdArray {
            let ab = sched2.alpha_bar(t) as f32;
            x_t.map(|x| (x - ab.sqrt() * 0.4) / (1.0 - ab).sqrt())
        };
        // Advance rng_b to match rng_a (both drew the same init noise).
        let _ = NdArray::randn(&[5], &mut rng_b);
        for (t, t_prev) in solver.timesteps(&schedule) {
            assert_eq!(t_prev, t - 1);
            let eps = oracle(&x_a, t);
            // inline reference
            x_b = p_sample_step(&x_b, &eps, &schedule, t, &mut rng_b);
            // trait path: mean + driver-added noise from the same stream
            let step = solver.step(&x_a, &eps, &schedule, t, t_prev);
            let mut next = step.mean;
            add_reverse_noise_slice(next.data_mut(), step.noise_scale, &mut rng_a);
            x_a = next;
            assert_eq!(x_a.to_bytes(), x_b.to_bytes(), "divergence at t={t}");
        }
    }

    #[test]
    fn ddim_and_order1_pndm_walk_identical_grids() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let ddim = Ddim::new(6, 0.0);
        let pndm = Pndm::new(6, 1);
        assert_eq!(ddim.timesteps(&schedule), pndm.timesteps(&schedule));
        assert_eq!(ddim.timesteps(&schedule).len(), 6);
        // descending, ends at (.., 0)
        let pairs = ddim.timesteps(&schedule);
        assert_eq!(pairs.last().unwrap().1, 0);
        for w in pairs.windows(2) {
            assert!(w[0].0 > w[1].0);
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn order1_pndm_steps_are_bitwise_ddim() {
        let schedule = DiffusionSchedule::pristi_default(30);
        let mut rng = StdRng::seed_from_u64(9);
        let x = NdArray::randn(&[8], &mut rng);
        let e = NdArray::randn(&[8], &mut rng);
        let mut pndm = Pndm::new(5, 1);
        let mut ddim = Ddim::new(5, 0.0);
        for (t, t_prev) in [(30usize, 17usize), (17, 9), (9, 0)] {
            let a = pndm.step(&x, &e, &schedule, t, t_prev);
            let b = ddim.step(&x, &e, &schedule, t, t_prev);
            assert_eq!(a.mean.to_bytes(), b.mean.to_bytes());
            assert_eq!(a.noise_scale, 0.0);
            assert_eq!(b.noise_scale, 0.0);
        }
    }

    #[test]
    fn pndm_history_is_capped_and_reset_clears_it() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let mut pndm = Pndm::new(8, 4);
        let x = NdArray::full(&[4], 0.1);
        let e = NdArray::full(&[4], 0.2);
        let pairs = pndm.timesteps(&schedule);
        for &(t, t_prev) in &pairs {
            pndm.step(&x, &e, &schedule, t, t_prev);
        }
        assert_eq!(pndm.history.len(), 3, "history must cap at order − 1");
        pndm.reset();
        assert!(pndm.history.is_empty());
    }

    /// With an oracle predictor, 4-step PNDM lands at least as close to the
    /// target as 4-step DDIM (the multistep correction must not hurt on the
    /// exact-ε case, where both are exact up to float error), and both land
    /// close in absolute terms.
    #[test]
    fn oracle_pndm_tracks_target_in_few_steps() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let target = -0.6f32;
        for (name, solver) in [
            ("pndm4", &mut Pndm::new(4, 4) as &mut dyn GenerativeProcess),
            ("ddim4", &mut Ddim::new(4, 0.0)),
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut acc = 0.0;
            for _ in 0..10 {
                let x0 = run_solver(solver, &schedule, target, 0.0, &mut rng);
                acc += x0.mean();
            }
            let mean = acc / 10.0;
            assert!(
                (mean - target as f64).abs() < 0.08,
                "{name}: expected ~{target}, got {mean}"
            );
        }
    }

    /// The refine chain starts from the noised prior and only walks the
    /// bottom `strength` fraction of the schedule.
    #[test]
    fn refine_grid_and_init_respect_strength() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let refine = Refine::new(4, 0.5);
        assert_eq!(refine.t_start(&schedule), 25);
        assert_eq!(refine.init(&schedule), ChainInit::NoisedPrior { t_start: 25 });
        let pairs = refine.timesteps(&schedule);
        assert_eq!(pairs[0].0, 25, "chain must start at t_start");
        assert_eq!(pairs.last().unwrap(), &(1, 0));
        assert!(pairs.len() <= 5);
        // degenerate strengths stay in range
        assert_eq!(Refine::new(2, 1.0).t_start(&schedule), 50);
        assert_eq!(Refine::new(2, 1e-9).t_start(&schedule), 1);
    }

    /// With an oracle predictor and an *imperfect* prior, the refine chain
    /// still recovers the target: the diffusion stage corrects the residual.
    #[test]
    fn oracle_refine_corrects_prior_residual() {
        let schedule = DiffusionSchedule::pristi_default(50);
        let target = 1.2f32;
        let prior = 0.8f32; // deliberately off by 0.4
        let mut solver = Refine::new(4, 0.5);
        let mut rng = StdRng::seed_from_u64(13);
        let mut acc = 0.0;
        for _ in 0..10 {
            let x0 = run_solver(&mut solver, &schedule, target, prior, &mut rng);
            acc += x0.mean();
        }
        let mean = acc / 10.0;
        assert!(
            (mean - target as f64).abs() < 0.08,
            "refine should land on the target {target}, not the prior {prior}: got {mean}"
        );
    }

    #[test]
    fn timesteps_edge_cases() {
        let schedule = DiffusionSchedule::pristi_default(8);
        // steps >= T: the grid degenerates to the full chain
        assert_eq!(Ddim::new(20, 0.0).timesteps(&schedule).len(), 8);
        assert_eq!(Pndm::new(8, 4).timesteps(&schedule).len(), 8);
        // steps == 1 keeps both chain ends (ddim_timesteps contract)
        let one = Ddim::new(1, 0.0).timesteps(&schedule);
        assert_eq!(one, vec![(8, 1), (1, 0)]);
        // DDPM ignores step hints entirely
        assert_eq!(Ddpm.timesteps(&schedule).len(), 8);
    }
}
