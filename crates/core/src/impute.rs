//! Imputation process with a trained model (Algorithm 2).
//!
//! All missing values of a window become the imputation target; the reverse
//! process starts from Gaussian noise and is guided by the interpolated
//! conditional information. An ensemble of samples approximates the
//! imputation distribution: the median is the deterministic imputation
//! (evaluated by MAE/MSE) and the quantiles feed CRPS and the Fig. 6
//! uncertainty bands.
//!
//! # One window per reverse pass
//!
//! The unit of inference is one window and its ensemble: PriSTI's prior
//! `H^pri` is built from one window's interpolated conditional. Every entry
//! point validates its options before preparing a window or drawing a random
//! number, then runs the same reverse pass over an `[S, N, L]` ensemble
//! tensor. [`impute`] prepares the window itself; [`impute_prepared`] takes a
//! caller-prepared window and, optionally, a caller-held [`PriorCache`];
//! [`impute_batch`] validates and prepares every item first, then runs one
//! pass per item in order. The pass builds the window's [`PriorCache`] once
//! (the prior depends only on the conditional, so caching it is exact) and
//! runs one `predict_eps_eval_cached` per denoise step. All randomness — the
//! chain head and each step's reverse noise — comes from the one RNG stream
//! the caller passed, in a fixed order, so the same stream state reproduces
//! the same samples bit for bit. `crates/core/tests/prior_cache.rs` pins the
//! cached pass against an uncached per-step reference chain.
//!
//! # Solvers
//!
//! The reverse loop is generic over
//! [`st_diffusion::process::GenerativeProcess`]: the [`Sampler`] spec picks a
//! solver, the solver owns the schedule walk and the deterministic update,
//! and this driver owns the ensemble tensor, the network evaluations, and
//! every random draw. See `crates/core/src/sampler.rs` for the spec surface
//! and DESIGN.md §15 for the contract.

use crate::error::{PristiError, Result};
use crate::model::PriorCache;
use crate::train::{build_cond, TrainedModel};
pub use crate::sampler::Sampler;
use st_data::dataset::Window;
use st_diffusion::add_reverse_noise_slice;
use st_diffusion::process::ChainInit;
use st_metrics::quantile_of_sorted;
use st_rand::StdRng;
use st_tensor::ndarray::NdArray;
use std::sync::OnceLock;

/// Options for [`impute`]: ensemble size and sampler choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImputeOptions {
    /// Posterior samples to draw (the paper evaluates with 32–100; the
    /// default of 8 suits interactive serving).
    pub n_samples: usize,
    /// Reverse-process sampler.
    pub sampler: Sampler,
}

impl Default for ImputeOptions {
    fn default() -> Self {
        Self { n_samples: 8, sampler: Sampler::Ddpm }
    }
}

impl ImputeOptions {
    /// The one options check every entry point (and every serving setting)
    /// runs before preparing a window or drawing a random number: at least
    /// one sample and a non-degenerate sampler spec, else
    /// [`PristiError::DegenerateConfig`].
    pub fn validate(&self) -> Result<()> {
        if self.n_samples < 1 {
            return Err(PristiError::DegenerateConfig("need at least one ensemble sample".into()));
        }
        self.sampler.validate()
    }
}

/// Per-window conditioning, precomputed once: normalised values, masks and
/// the interpolated conditional `𝒳`.
///
/// [`impute`] and [`impute_batch`] build these internally; streaming callers
/// build one *incrementally* (maintaining `values_z` and the interpolation
/// across window shifts, see `st-serve`'s `StreamSession`) and hand it to
/// [`impute_prepared`], skipping the per-tick `cond_prep` stage entirely.
#[derive(Debug, Clone)]
pub struct PreparedWindow {
    values_z: NdArray,
    cond_mask: NdArray,
    target_mask: NdArray,
    cond: NdArray,
}

impl PreparedWindow {
    /// Prepare a cold window: normalise, derive masks, build the conditional.
    ///
    /// Returns [`PristiError::ShapeMismatch`] when the window disagrees with
    /// the model's node count / window length.
    pub fn prepare(trained: &TrainedModel, window: &Window) -> Result<Self> {
        let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
        if window.n_nodes() != n {
            return Err(PristiError::ShapeMismatch {
                what: "window node count",
                expected: vec![n],
                got: vec![window.n_nodes()],
            });
        }
        if window.len() != l {
            return Err(PristiError::ShapeMismatch {
                what: "window length",
                expected: vec![l],
                got: vec![window.len()],
            });
        }
        let mut values_z = window.values.clone();
        trained.normalizer.normalize_window(&mut values_z);
        let cond_mask = window.cond_mask();
        // Everything not conditioned on is the imputation target
        // (Algorithm 2: "the imputation target is all missing values").
        let target_mask = cond_mask.map(|v| 1.0 - v);
        let cond = build_cond(&values_z, &cond_mask, trained.model.cfg.use_interpolation);
        Ok(Self { values_z, cond_mask, target_mask, cond })
    }

    /// Assemble a prepared window from caller-maintained parts: already
    /// normalised values `values_z` (`[N, L]`), the conditioning mask, and —
    /// when the model conditions on interpolation — the interpolated
    /// conditional `interp`.
    ///
    /// The caller guarantees provenance: `interp` must be bitwise what
    /// `st_data::linear_interpolate(values_z, cond_mask, 0.0)` would return
    /// (e.g. maintained incrementally by `st_data::SlidingInterp`), otherwise
    /// the warm path diverges from a cold [`PreparedWindow::prepare`].
    ///
    /// Returns [`PristiError::ShapeMismatch`] on shape disagreements and
    /// [`PristiError::DegenerateConfig`] when the model needs interpolation
    /// but `interp` is `None`.
    pub fn from_parts(
        trained: &TrainedModel,
        values_z: NdArray,
        cond_mask: NdArray,
        interp: Option<&NdArray>,
    ) -> Result<Self> {
        let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
        for (what, shape) in
            [("prepared values_z", values_z.shape()), ("prepared cond_mask", cond_mask.shape())]
        {
            if shape != [n, l] {
                return Err(PristiError::ShapeMismatch {
                    what,
                    expected: vec![n, l],
                    got: shape.to_vec(),
                });
            }
        }
        let target_mask = cond_mask.map(|v| 1.0 - v);
        let cond = if trained.model.cfg.use_interpolation {
            let interp = interp.ok_or_else(|| {
                PristiError::DegenerateConfig(
                    "model conditions on interpolation: PreparedWindow::from_parts needs interp"
                        .into(),
                )
            })?;
            if interp.shape() != [n, l] {
                return Err(PristiError::ShapeMismatch {
                    what: "prepared interp",
                    expected: vec![n, l],
                    got: interp.shape().to_vec(),
                });
            }
            interp.clone()
        } else {
            values_z.mul(&cond_mask)
        };
        Ok(Self { values_z, cond_mask, target_mask, cond })
    }

    /// Build the step-invariant prior cache for `n_samples` ensemble members
    /// of this window — the reusable half of the denoiser. Streaming callers
    /// keep the returned cache across ticks while the window content is
    /// unchanged and pass it to [`impute_prepared`].
    pub fn build_prior(&self, trained: &TrainedModel, n_samples: usize) -> PriorCache {
        trained.model.build_prior_cache(&self.cond, n_samples)
    }
}

/// One item of an [`impute_batch`] call: a window, how many ensemble samples
/// it wants, and the RNG stream that owns *all* of its randomness.
pub struct BatchItem<'a> {
    /// The window to impute.
    pub window: &'a Window,
    /// Ensemble size for this request.
    pub n_samples: usize,
    /// This request's private noise stream. After [`impute_batch`] returns
    /// it has advanced exactly as far as a solo [`impute`] call would have
    /// advanced it.
    pub rng: StdRng,
}

/// The sample ensemble produced for one window.
#[derive(Debug, Clone)]
pub struct ImputationResult {
    /// Denormalised samples, each `[N, L]`, covering every position (observed
    /// positions are copied from the data).
    pub samples: Vec<NdArray>,
    /// Mask of positions that were imputed (1) rather than conditioned on.
    pub target_mask: NdArray,
    /// Lazily built `[P, S]` position-major sorted layout: each position's
    /// `S` ensemble values sorted once, shared by every quantile query.
    sorted: OnceLock<Vec<f32>>,
}

impl ImputationResult {
    /// Bundle an ensemble. The samples must be non-empty and same-shaped
    /// (internal invariant: every impute entry point rejects a zero sample
    /// count before preparing or sampling anything).
    pub fn new(samples: Vec<NdArray>, target_mask: NdArray) -> Self {
        assert!(!samples.is_empty(), "ensemble cannot be empty");
        Self { samples, target_mask, sorted: OnceLock::new() }
    }

    /// Per-position median across samples — the deterministic imputation.
    pub fn median(&self) -> NdArray {
        self.quantile(0.5)
    }

    /// Per-position quantile across samples. `alpha` is clamped to `[0, 1]`
    /// (a NaN `alpha` is treated as the median).
    ///
    /// The first quantile query sorts each position's ensemble once into a
    /// cached `[P, S]` layout; every further query (median + q05 + q95 is the
    /// common pattern) is a single interpolation pass over that cache instead
    /// of a fresh sort per position per call.
    pub fn quantile(&self, alpha: f64) -> NdArray {
        let alpha = if alpha.is_nan() { 0.5 } else { alpha.clamp(0.0, 1.0) };
        let s = self.samples.len();
        let sorted = self.sorted_by_position();
        let mut out = NdArray::zeros(self.samples[0].shape());
        for (pi, o) in out.data_mut().iter_mut().enumerate() {
            *o = quantile_of_sorted(&sorted[pi * s..(pi + 1) * s], alpha) as f32;
        }
        out
    }

    /// The cached `[P, S]` sorted layout, built on first use: transpose the
    /// ensemble to position-major order, then sort each position's `S`-run.
    /// Runs are independent, so the sort parallelises over position blocks
    /// (block boundaries derive from shape only — see DESIGN.md §9).
    fn sorted_by_position(&self) -> &[f32] {
        self.sorted.get_or_init(|| {
            let s = self.samples.len();
            let p = self.samples[0].numel();
            let mut buf = vec![0.0f32; p * s];
            for (si, sample) in self.samples.iter().enumerate() {
                for (pi, &v) in sample.data().iter().enumerate() {
                    buf[pi * s + si] = v;
                }
            }
            // 256 positions per chunk: a multiple of `s` elements, so chunk
            // boundaries never split a position's run.
            st_par::par_chunks_mut("quantile_sort", &mut buf, s * 256, |_ci, chunk| {
                for run in chunk.chunks_mut(s) {
                    run.sort_by(f32::total_cmp);
                }
            });
            buf
        })
    }

    /// Flatten samples to the `[S, P]` layout expected by
    /// [`st_metrics::crps_ensemble`].
    pub fn samples_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.samples.len() * self.samples[0].numel());
        for s in &self.samples {
            out.extend_from_slice(s.data());
        }
        out
    }

    /// Number of samples in the ensemble.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }
}

/// Impute one window with a trained model, generating `opts.n_samples`
/// posterior samples in a single reverse pass.
///
/// Returns [`PristiError::ShapeMismatch`] when the window disagrees with the
/// model's node count / window length and
/// [`PristiError::DegenerateConfig`] for degenerate options (zero samples,
/// zero DDIM steps, non-finite `eta`).
///
/// # Example
///
/// Train a deliberately tiny model on a synthetic panel and impute one
/// window (`Sampler::Ddim` keeps the reverse chain short — see the README's
/// "Inference latency" section):
///
/// ```
/// use pristi_core::train::{train, TrainConfig};
/// use pristi_core::{impute, ImputeOptions, PristiConfig, Sampler};
/// use st_data::generators::{generate_air_quality, AirQualityConfig};
/// use st_rand::{SeedableRng, StdRng};
///
/// # fn main() -> pristi_core::Result<()> {
/// let data = generate_air_quality(&AirQualityConfig {
///     n_nodes: 8,
///     n_days: 4,
///     ..Default::default()
/// });
/// let mut cfg = PristiConfig::small();
/// cfg.d_model = 8;
/// cfg.heads = 2;
/// cfg.layers = 1;
/// cfg.t_steps = 8;
/// cfg.time_emb_dim = 8;
/// cfg.node_emb_dim = 4;
/// cfg.step_emb_dim = 8;
/// cfg.virtual_nodes = 4;
/// cfg.adaptive_dim = 2;
/// let tc = TrainConfig {
///     epochs: 1,
///     batch_size: 4,
///     window_len: 12,
///     window_stride: 12,
///     ..Default::default()
/// };
/// let trained = train(&data, cfg, &tc)?;
///
/// let window = data.window_at(0, 12);
/// let mut rng = StdRng::seed_from_u64(0);
/// let opts = ImputeOptions { n_samples: 2, sampler: Sampler::Ddim { steps: 2, eta: 0.0 } };
/// let result = impute(&trained, &window, &opts, &mut rng)?;
/// assert_eq!(result.n_samples(), 2);
/// assert_eq!(result.median().shape(), &[8, 12]);
/// # Ok(())
/// # }
/// ```
pub fn impute(
    trained: &TrainedModel,
    window: &Window,
    opts: &ImputeOptions,
    rng: &mut StdRng,
) -> Result<ImputationResult> {
    opts.validate()?;
    let prep = prepare_traced(trained, window)?;
    Ok(run_reverse(trained, &prep, opts, rng, None))
}

/// Impute several windows that share a `sampler`, one reverse pass per item,
/// each drawing only from its own [`BatchItem::rng`].
///
/// Every item is validated and its window prepared before any stream
/// advances, so one degenerate or misshapen item fails the whole call with
/// no draws made. Results come back in item order and are bitwise identical
/// to solo [`impute`] calls with the same per-item RNG states. An empty
/// batch returns no results.
pub fn impute_batch(
    trained: &TrainedModel,
    items: &mut [BatchItem<'_>],
    sampler: Sampler,
) -> Result<Vec<ImputationResult>> {
    let opts: Vec<ImputeOptions> =
        items.iter().map(|i| ImputeOptions { n_samples: i.n_samples, sampler }).collect();
    opts.iter().try_for_each(ImputeOptions::validate)?;
    let preps = items
        .iter()
        .map(|item| prepare_traced(trained, item.window))
        .collect::<Result<Vec<_>>>()?;
    Ok(items
        .iter_mut()
        .zip(&preps)
        .zip(&opts)
        .map(|((item, prep), opts)| run_reverse(trained, prep, opts, &mut item.rng, None))
        .collect())
}

/// [`PreparedWindow::prepare`] under the `cond_prep` span.
fn prepare_traced(trained: &TrainedModel, window: &Window) -> Result<PreparedWindow> {
    let _span = st_obs::span!("cond_prep");
    PreparedWindow::prepare(trained, window)
}

/// Impute one *warm-started* window — the streaming entry point.
///
/// A [`PreparedWindow`] skips the per-request `cond_prep` stage; an optional
/// caller-held [`PriorCache`] (from [`PreparedWindow::build_prior`]) skips
/// the prior-cache build as well, so a tick whose window content has not
/// changed pays only for the reverse pass. The result is bitwise identical
/// to a cold [`impute`] of the same window with the same RNG state —
/// `crates/core/tests/` and `st-serve`'s stream suite pin this.
///
/// Returns [`PristiError::DegenerateConfig`] when `prior` was built for a
/// different sample count than `opts.n_samples`, when `opts.n_samples` is
/// zero, or when the sampler spec is degenerate. The caller guarantees
/// the cache was built from *this* prepared window's conditional; a stale
/// cache silently conditions on the old window (which is exactly the
/// isolation boundary the streaming dirty-tracking maintains).
pub fn impute_prepared(
    trained: &TrainedModel,
    prep: &PreparedWindow,
    opts: &ImputeOptions,
    rng: &mut StdRng,
    prior: Option<&PriorCache>,
) -> Result<ImputationResult> {
    opts.validate()?;
    if let Some(cache) = prior.filter(|c| c.n_samples() != opts.n_samples) {
        return Err(PristiError::DegenerateConfig(format!(
            "prior cache was built for {} samples, request wants {}",
            cache.n_samples(),
            opts.n_samples
        )));
    }
    Ok(run_reverse(trained, prep, opts, rng, prior))
}

/// The one reverse pass behind every entry point: replicate the window's
/// conditional over the ensemble, build the prior cache unless the caller
/// holds one, walk the solver's schedule drawing every random number from
/// `rng`, then merge and denormalise. The options are already validated.
fn run_reverse(
    trained: &TrainedModel,
    prep: &PreparedWindow,
    opts: &ImputeOptions,
    rng: &mut StdRng,
    prior: Option<&PriorCache>,
) -> ImputationResult {
    let (n, l, s) = (trained.model.n_nodes(), trained.model.window_len(), opts.n_samples);
    // The solver owns the schedule walk; `pairs.len()` is the NFE cost of
    // this pass (one network evaluation per pair).
    let mut solver = opts.sampler.solver();
    solver.reset();
    let pairs = solver.timesteps(&trained.schedule);
    let _span = st_obs::span!("impute", samples = s as u64, nfe = pairs.len() as u64);

    // The ensemble tensor's per-sample inputs: the conditional and the
    // target mask, each repeated over the `S` samples as `[S, N, L]`.
    let batch_span = st_obs::span!("batch_assemble");
    let repeat = |a: &NdArray| NdArray::from_vec(&[s, n, l], a.data().repeat(s));
    let (cond_b, tmask_b) = (repeat(&prep.cond), repeat(&prep.target_mask));
    drop(batch_span);

    // Step-invariant prior tensors (PriSTI's `H^pri` and everything derived
    // from it depend only on the conditional): built once per pass, or
    // reused outright when a streaming caller kept the cache across ticks.
    let built;
    let cache = {
        let _cache_span = st_obs::span!("prior_cache");
        match prior {
            Some(cache) => cache,
            None => {
                built = prep.build_prior(trained, s);
                &built
            }
        }
    };

    // Chain head: one `randn` draw for the whole ensemble, the same for
    // every solver; a `NoisedPrior` init additionally mixes in the
    // interpolated conditional — the deterministic prior estimate.
    let mut x = NdArray::randn(&[s, n, l], rng);
    if let ChainInit::NoisedPrior { t_start } = solver.init(&trained.schedule) {
        let ab = trained.schedule.alpha_bar(t_start);
        let (a, b) = (ab.sqrt() as f32, (1.0 - ab).sqrt() as f32);
        x = cond_b.zip_map(&x, |p, z| a * p + b * z);
    }
    x = x.mul(&tmask_b);

    // Reverse process: the solver's element-wise mean update, then its
    // reverse noise over the whole tensor (no draws when the scale is 0).
    for &(t, t_prev) in &pairs {
        let _step_span = st_obs::span!("denoise_step", t = t as u64, t_prev = t_prev as u64);
        let eps_hat = trained.model.predict_eps_eval_cached(cache, &x, t);
        let t0 = st_obs::op_start();
        let step = solver.step(&x, &eps_hat, &trained.schedule, t, t_prev);
        let mut next = step.mean;
        add_reverse_noise_slice(next.data_mut(), step.noise_scale, rng);
        st_obs::record_op(st_obs::Phase::Fwd, solver.op_label(), t0, next.numel() as u64);
        x = next.mul(&tmask_b);
    }

    // Merge with conditioned values and denormalise per sample
    // (sample-parallel: each ensemble member is independent).
    let _merge_span = st_obs::span!("denorm_merge");
    let cond_part = prep.values_z.mul(&prep.cond_mask);
    let xd = x.data();
    let samples = st_par::par_map("denorm_samples", s, |i| {
        let sample = NdArray::from_vec(&[n, l], xd[i * n * l..(i + 1) * n * l].to_vec());
        let mut merged = sample.mul(&prep.target_mask).add(&cond_part);
        trained.normalizer.denormalize_window(&mut merged);
        merged
    });
    ImputationResult::new(samples, prep.target_mask.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PristiConfig;
    use crate::train::{train, TrainConfig};
    use st_data::dataset::Split;
    use st_data::generators::{generate_air_quality, AirQualityConfig};
    use st_data::missing::inject_point_missing;
    use st_metrics::masked_mae;
    use st_rand::SeedableRng;

    fn tiny_cfg() -> PristiConfig {
        let mut c = PristiConfig::small();
        c.d_model = 8;
        c.heads = 2;
        c.layers = 1;
        c.t_steps = 10;
        c.time_emb_dim = 8;
        c.node_emb_dim = 4;
        c.step_emb_dim = 8;
        c.virtual_nodes = 4;
        c.adaptive_dim = 2;
        c
    }

    fn trained_setup() -> (st_data::SpatioTemporalDataset, crate::train::TrainedModel) {
        let mut data = generate_air_quality(&AirQualityConfig {
            n_nodes: 8,
            n_days: 8,
            seed: 6,
            ..Default::default()
        });
        data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 99);
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 4,
            window_len: 12,
            window_stride: 12,
            seed: 4,
            ..Default::default()
        };
        let trained = train(&data, tiny_cfg(), &tc).unwrap();
        (data, trained)
    }

    fn ddpm_opts(n_samples: usize) -> ImputeOptions {
        ImputeOptions { n_samples, sampler: Sampler::Ddpm }
    }

    #[test]
    fn imputation_preserves_observed_and_fills_missing() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut rng = StdRng::seed_from_u64(1);
        let res = impute(&trained, w, &ddpm_opts(4), &mut rng).unwrap();
        assert_eq!(res.n_samples(), 4);
        let med = res.median();
        let cm = w.cond_mask();
        for i in 0..med.numel() {
            if cm.data()[i] > 0.0 {
                assert!(
                    (med.data()[i] - w.values.data()[i]).abs() < 1e-2,
                    "observed value altered at {i}: {} vs {}",
                    med.data()[i],
                    w.values.data()[i]
                );
            } else {
                assert!(med.data()[i].is_finite());
            }
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut rng = StdRng::seed_from_u64(2);
        let res = impute(&trained, w, &ddpm_opts(8), &mut rng).unwrap();
        let q05 = res.quantile(0.05);
        let q50 = res.quantile(0.50);
        let q95 = res.quantile(0.95);
        for i in 0..q05.numel() {
            assert!(q05.data()[i] <= q50.data()[i] + 1e-5);
            assert!(q50.data()[i] <= q95.data()[i] + 1e-5);
        }
    }

    #[test]
    fn cached_quantile_matches_fresh_per_position_sort() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut rng = StdRng::seed_from_u64(8);
        let res = impute(&trained, w, &ddpm_opts(6), &mut rng).unwrap();
        // Reference: the pre-cache implementation, re-sorting per position.
        let mut buf = vec![0.0f32; res.n_samples()];
        for alpha in [0.05, 0.5, 0.95] {
            let q = res.quantile(alpha);
            for i in 0..q.numel() {
                for (s, sample) in res.samples.iter().enumerate() {
                    buf[s] = sample.data()[i];
                }
                buf.sort_by(f32::total_cmp);
                let expect = quantile_of_sorted(&buf, alpha) as f32;
                assert_eq!(q.data()[i], expect, "alpha {alpha} position {i}");
            }
        }
    }

    #[test]
    fn fast_ddim_imputation_close_to_full() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        let full = impute(&trained, w, &ddpm_opts(6), &mut r1).unwrap();
        let fast = impute(
            &trained,
            w,
            &ImputeOptions { n_samples: 6, sampler: Sampler::Ddim { steps: 5, eta: 0.0 } },
            &mut r2,
        )
        .unwrap();
        assert_eq!(fast.n_samples(), 6);
        // both valid imputations: finite, observed preserved
        let cm = w.cond_mask();
        for res in [&full, &fast] {
            let med = res.median();
            for i in 0..med.numel() {
                assert!(med.data()[i].is_finite());
                if cm.data()[i] > 0.0 {
                    assert!((med.data()[i] - w.values.data()[i]).abs() < 1e-2);
                }
            }
        }
        // the DDIM median should be in the same ballpark as the full median
        let mf = full.median();
        let md = fast.median();
        let mae = st_metrics::masked_mae(md.data(), mf.data(), w.eval.data());
        assert!(mae.is_finite());
    }

    #[test]
    fn trained_model_beats_wild_guess() {
        // Even a briefly trained tiny model should beat imputing a constant
        // far from the data range.
        let (data, trained) = trained_setup();
        let windows = data.windows(Split::Test, 12, 12);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model_err = 0.0;
        let mut naive_err = 0.0;
        let mut count = 0;
        for w in windows.iter().take(3) {
            if w.eval.data().iter().all(|&v| v == 0.0) {
                continue;
            }
            let res = impute(&trained, w, &ddpm_opts(4), &mut rng).unwrap();
            let med = res.median();
            model_err += masked_mae(med.data(), w.values.data(), w.eval.data());
            let zeros = vec![0.0f32; med.numel()];
            naive_err += masked_mae(&zeros, w.values.data(), w.eval.data());
            count += 1;
        }
        assert!(count > 0, "no eval positions in test windows");
        assert!(
            model_err < naive_err,
            "model MAE {model_err:.3} should beat zero-imputation {naive_err:.3}"
        );
    }

    #[test]
    fn prior_cache_exposes_footprint() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let prep = PreparedWindow::prepare(&trained, w).unwrap();
        let cache = trained.model.build_prior_cache(&prep.cond, 3);
        assert_eq!(cache.n_samples(), 3);
        assert!(cache.bytes() > 0);
        // Only the per-sample tensors grow with the ensemble; `U` and the
        // adaptive adjacency are stored once.
        let one = trained.model.build_prior_cache(&prep.cond, 1);
        assert!(one.bytes() < cache.bytes() && cache.bytes() < 3 * one.bytes());
    }

    /// The streaming keystone: a warm [`impute_prepared`] call — prepared
    /// window assembled from parts, prior cache built once and reused across
    /// calls — is bitwise identical to a cold [`impute`] with the same RNG
    /// state, for every solver family.
    #[test]
    fn prepared_and_reused_prior_bitwise_match_cold_impute() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        for sampler in [
            Sampler::Ddpm,
            Sampler::Pndm { steps: 4, order: 4 },
            Sampler::Refine { steps: 3, strength: 0.5 },
        ] {
            let opts = ImputeOptions { n_samples: 3, sampler };
            let cold = {
                let mut rng = StdRng::seed_from_u64(77);
                impute(&trained, w, &opts, &mut rng).unwrap()
            };
            // Warm path A: prepared via `prepare`, cache built internally.
            let prep = PreparedWindow::prepare(&trained, w).unwrap();
            let warm = {
                let mut rng = StdRng::seed_from_u64(77);
                impute_prepared(&trained, &prep, &opts, &mut rng, None).unwrap()
            };
            // Warm path B: prepared from caller-maintained parts, prior
            // cache built once and reused across two calls.
            let mut values_z = w.values.clone();
            trained.normalizer.normalize_window(&mut values_z);
            let cond_mask = w.cond_mask();
            let interp = st_data::linear_interpolate(&values_z, &cond_mask, 0.0);
            let parts =
                PreparedWindow::from_parts(&trained, values_z, cond_mask, Some(&interp)).unwrap();
            let cache = parts.build_prior(&trained, 3);
            for _ in 0..2 {
                let reused = {
                    let mut rng = StdRng::seed_from_u64(77);
                    impute_prepared(&trained, &parts, &opts, &mut rng, Some(&cache)).unwrap()
                };
                for (a, b) in cold.samples.iter().zip(&reused.samples) {
                    assert!(
                        a.to_bytes() == b.to_bytes(),
                        "reused-cache warm impute diverges from cold ({sampler:?})"
                    );
                }
            }
            for (a, b) in cold.samples.iter().zip(&warm.samples) {
                assert!(
                    a.to_bytes() == b.to_bytes(),
                    "warm impute diverges from cold ({sampler:?})"
                );
            }
        }
    }

    #[test]
    fn prepared_window_rejects_mismatched_parts() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let prep = PreparedWindow::prepare(&trained, w).unwrap();
        // cache sample count must match the request
        let cache = prep.build_prior(&trained, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let err = impute_prepared(
            &trained,
            &prep,
            &ImputeOptions { n_samples: 3, sampler: Sampler::Ddpm },
            &mut rng,
            Some(&cache),
        )
        .unwrap_err();
        assert!(matches!(err, PristiError::DegenerateConfig(_)));
        // interpolation-conditioned model requires interp in from_parts
        let mut values_z = w.values.clone();
        trained.normalizer.normalize_window(&mut values_z);
        let err = PreparedWindow::from_parts(&trained, values_z.clone(), w.cond_mask(), None)
            .unwrap_err();
        assert!(matches!(err, PristiError::DegenerateConfig(_)));
        // wrong-shaped parts are a typed error
        let bad = NdArray::zeros(&[2, 2]);
        let err = PreparedWindow::from_parts(&trained, bad, w.cond_mask(), None).unwrap_err();
        assert!(matches!(err, PristiError::ShapeMismatch { .. }));
    }

    #[test]
    fn malformed_inputs_return_typed_errors() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut rng = StdRng::seed_from_u64(5);
        // zero samples
        let err = impute(&trained, w, &ddpm_opts(0), &mut rng).unwrap_err();
        assert!(matches!(err, PristiError::DegenerateConfig(_)));
        // zero DDIM steps
        let err = impute(
            &trained,
            w,
            &ImputeOptions { n_samples: 2, sampler: Sampler::Ddim { steps: 0, eta: 0.0 } },
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, PristiError::DegenerateConfig(_)));
        // out-of-range PNDM order / refine strength
        for sampler in [
            Sampler::Pndm { steps: 4, order: 5 },
            Sampler::Refine { steps: 4, strength: 2.0 },
        ] {
            let err =
                impute(&trained, w, &ImputeOptions { n_samples: 2, sampler }, &mut rng).unwrap_err();
            assert!(matches!(err, PristiError::DegenerateConfig(_)));
        }
        // wrong window length
        let short = data.window_at(0, 6);
        let err = impute(&trained, &short, &ddpm_opts(2), &mut rng).unwrap_err();
        assert!(matches!(
            err,
            PristiError::ShapeMismatch { what: "window length", .. }
        ));
        // zero samples on a wrong-length window: validation runs before
        // preparation, so the sample count is what gets reported
        let err = impute(&trained, &short, &ddpm_opts(0), &mut rng).unwrap_err();
        assert!(matches!(err, PristiError::DegenerateConfig(_)));
    }

    /// One degenerate or misshapen item fails the whole batch before any
    /// stream advances: every item is validated and prepared before the
    /// first draw.
    #[test]
    fn degenerate_batch_item_fails_before_any_draw() {
        let (data, trained) = trained_setup();
        let windows = data.windows(Split::Test, 12, 12);
        let (w0, w1) = (&windows[0], &windows[windows.len() - 1]);
        let short = data.window_at(0, 6);
        for (last, n_samples) in [(w1, 0), (&short, 3)] {
            let mut items = [
                BatchItem { window: w0, n_samples: 2, rng: StdRng::seed_from_u64(100) },
                BatchItem { window: w1, n_samples: 3, rng: StdRng::seed_from_u64(101) },
                BatchItem { window: last, n_samples, rng: StdRng::seed_from_u64(102) },
            ];
            let before: Vec<_> = items.iter().map(|i| i.rng.state()).collect();
            let err = impute_batch(&trained, &mut items, Sampler::Ddpm).unwrap_err();
            assert!(matches!(
                err,
                PristiError::DegenerateConfig(_) | PristiError::ShapeMismatch { .. }
            ));
            let after: Vec<_> = items.iter().map(|i| i.rng.state()).collect();
            assert_eq!(before, after, "a rejected batch must not advance any stream");
        }
    }

    /// Results come back in item order, each sized by its own item, and each
    /// item's stream ends where a solo [`impute`] call leaves it.
    #[test]
    fn batch_results_come_back_in_item_order() {
        let (data, trained) = trained_setup();
        let windows = data.windows(Split::Test, 12, 12);
        let (w0, w1) = (&windows[0], &windows[windows.len() - 1]);
        let sampler = Sampler::Ddim { steps: 4, eta: 0.5 };
        let mut items = [
            BatchItem { window: w0, n_samples: 2, rng: StdRng::seed_from_u64(100) },
            BatchItem { window: w1, n_samples: 3, rng: StdRng::seed_from_u64(101) },
        ];
        let results = impute_batch(&trained, &mut items, sampler).unwrap();
        assert_eq!(results.len(), 2);
        for ((res, item), seed) in results.iter().zip(&items).zip([100, 101]) {
            assert_eq!(res.n_samples(), item.n_samples);
            assert_eq!(res.target_mask.to_bytes(), item.window.cond_mask().map(|v| 1.0 - v).to_bytes());
            let mut solo = StdRng::seed_from_u64(seed);
            let opts = ImputeOptions { n_samples: item.n_samples, sampler };
            impute(&trained, item.window, &opts, &mut solo).unwrap();
            assert_eq!(item.rng.state(), solo.state(), "item stream diverges from a solo call");
        }
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let (_, trained) = trained_setup();
        let results = impute_batch(&trained, &mut [], Sampler::Ddpm).unwrap();
        assert!(results.is_empty());
    }
}
