//! Imputation process with a trained model (Algorithm 2).
//!
//! All missing values of a window become the imputation target; the reverse
//! process starts from Gaussian noise and is guided by the interpolated
//! conditional information. An ensemble of samples approximates the
//! imputation distribution: the median is the deterministic imputation
//! (evaluated by MAE/MSE) and the quantiles feed CRPS and the Fig. 6
//! uncertainty bands.
//!
//! # The batched engine and RNG streams
//!
//! Three entry points share one reverse path. [`impute`] is a thin wrapper
//! over [`impute_batch`], which coalesces any number of *requests* — each a
//! window with its own sample count and its own RNG stream — into one
//! `[S_total, N, L]` reverse pass; [`impute_prepared`] feeds the same pass a
//! caller-prepared window and, optionally, a caller-held [`PriorCache`].
//! Requests are validated in one place before any window is prepared or any
//! random number drawn. The pass builds one [`PriorCache`] per batch (PriSTI's
//! conditional prior depends only on the interpolated conditional, so caching
//! it is exact), then runs a single `predict_eps_eval_cached` per denoise step
//! for the whole batch. Every random draw (initial noise, per-step reverse
//! noise) comes from the owning request's stream, sliced per request, and
//! every deterministic update is element-wise,
//! so a request's samples are **bitwise identical** no matter which other
//! requests share its batch. This is the property the `st-serve` micro-batching
//! service builds on; `crates/st-serve/tests/service.rs` pins it under
//! concurrent load, and `crates/core/tests/prior_cache.rs` pins the cached
//! pass against an uncached per-step reference chain.
//!
//! # Solvers
//!
//! The reverse loop is generic over
//! [`st_diffusion::process::GenerativeProcess`]: the [`Sampler`] spec picks a
//! solver, the solver owns the schedule walk and the deterministic update,
//! and this driver owns the batch tensor, the network evaluations, and every
//! random draw. See `crates/core/src/sampler.rs` for the spec surface and
//! DESIGN.md §15 for the contract.

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

/// Per-request conditioning, precomputed once: normalised values, masks and
/// the interpolated conditional `𝒳`.
///
/// [`impute_batch`] builds these internally per request; streaming callers
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
        batch_prior(trained, std::slice::from_ref(self), &[n_samples])
    }
}

/// The prior cache for a batch: stack each request's conditional once
/// (`[R, N, L]`, deduplicated — not per sample) and let
/// [`crate::model::PristiModel::build_prior_cache`] replicate it to
/// `Σ counts` rows.
fn batch_prior(trained: &TrainedModel, preps: &[PreparedWindow], counts: &[usize]) -> PriorCache {
    let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
    let mut cond_r = NdArray::zeros(&[preps.len(), n, l]);
    for (i, prep) in preps.iter().enumerate() {
        cond_r.data_mut()[i * n * l..(i + 1) * n * l].copy_from_slice(prep.cond.data());
    }
    trained.model.build_prior_cache(&cond_r, counts)
}

/// One request of a batched reverse pass: a window, how many ensemble samples
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
/// posterior samples in a single batched reverse pass.
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
    let mut items = [BatchItem {
        window,
        n_samples: opts.n_samples,
        rng: StdRng::from_state(rng.state()),
    }];
    let mut results = impute_batch(trained, &mut items, opts.sampler)?;
    // Hand the advanced stream back so a caller imputing several windows off
    // one RNG keeps the pre-redesign draw sequence.
    *rng = StdRng::from_state(items[0].rng.state());
    Ok(results.pop().expect("one request in, one result out"))
}

/// Impute a coalesced batch of requests in one `[S_total, N, L]` reverse
/// pass: a single `predict_eps_eval_cached` per denoise step for the whole batch,
/// with each request's randomness drawn from its own [`BatchItem::rng`].
///
/// All requests share the `sampler`; per-request sample counts may differ.
/// Results come back in request order and are bitwise identical to solo
/// [`impute`] calls made with the same per-request RNG states. An empty batch
/// returns no results; a degenerate request fails the whole batch before any
/// window is prepared or any stream advances.
pub fn impute_batch(
    trained: &TrainedModel,
    items: &mut [BatchItem<'_>],
    sampler: Sampler,
) -> Result<Vec<ImputationResult>> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let counts: Vec<usize> = items.iter().map(|i| i.n_samples).collect();
    validate_request(&counts, sampler, None)?;
    // Per-request conditioning (normalised values, masks, interpolated 𝒳).
    // Window shape validation lives in `PreparedWindow::prepare`.
    let prep_span = st_obs::span!("cond_prep");
    let preps = items
        .iter()
        .map(|item| PreparedWindow::prepare(trained, item.window))
        .collect::<Result<Vec<_>>>()?;
    drop(prep_span);
    let mut rngs: Vec<&mut StdRng> = items.iter_mut().map(|i| &mut i.rng).collect();
    Ok(run_reverse(trained, &preps, &counts, &mut rngs, sampler, None))
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
/// different total sample count than `opts.n_samples`, when `opts.n_samples`
/// is zero, or when the sampler spec is degenerate. The caller guarantees
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
    let counts = [opts.n_samples];
    validate_request(&counts, opts.sampler, prior)?;
    let preps = std::slice::from_ref(prep);
    let mut results = run_reverse(trained, preps, &counts, &mut [rng], opts.sampler, prior);
    Ok(results.pop().expect("one prepared window in, one result out"))
}

/// The one request check every entry point runs before preparing a window
/// or drawing a random number: at least one sample per request, a
/// non-degenerate sampler spec, and a caller-held prior cache sized for the
/// batch's total sample count.
fn validate_request(counts: &[usize], sampler: Sampler, prior: Option<&PriorCache>) -> Result<()> {
    if counts.contains(&0) {
        return Err(PristiError::DegenerateConfig("need at least one sample per request".into()));
    }
    sampler.validate()?;
    let s_total: usize = counts.iter().sum();
    match prior {
        Some(cache) if cache.n_samples_total() != s_total => {
            Err(PristiError::DegenerateConfig(format!(
                "prior cache was built for {} samples, request wants {s_total}",
                cache.n_samples_total()
            )))
        }
        _ => Ok(()),
    }
}

/// The shared reverse-pass core behind [`impute_batch`] and
/// [`impute_prepared`]: batch the prepared conditioners along the sample
/// axis, build the prior cache unless the caller holds one, walk the
/// solver's schedule, merge and denormalise. `preps`, `counts` and `rngs`
/// run parallel, one entry per request; [`validate_request`] has already
/// accepted them.
fn run_reverse(
    trained: &TrainedModel,
    preps: &[PreparedWindow],
    counts: &[usize],
    rngs: &mut [&mut StdRng],
    sampler: Sampler,
    prior: Option<&PriorCache>,
) -> Vec<ImputationResult> {
    let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
    let s_total: usize = counts.iter().sum();
    // The solver owns the schedule walk; `pairs.len()` is the NFE cost of
    // this request batch (one network evaluation per pair).
    let mut solver = sampler.solver();
    solver.reset();
    let pairs = solver.timesteps(&trained.schedule);
    let _span = st_obs::span!(
        "impute",
        requests = preps.len() as u64,
        samples = s_total as u64,
        nfe = pairs.len() as u64,
    );

    // Batch every request's ensemble along the sample axis: [S_total, N, L]
    // with each request's conditioner replicated over its samples. `spans`
    // records each request's flat element range.
    let batch_span = st_obs::span!("batch_assemble");
    let mut cond_b = NdArray::zeros(&[s_total, n, l]);
    let mut tmask_b = NdArray::zeros(&[s_total, n, l]);
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(preps.len());
    let mut offset = 0usize;
    for (&count, prep) in counts.iter().zip(preps) {
        for s in 0..count {
            let base = (offset + s) * n * l;
            cond_b.data_mut()[base..base + n * l].copy_from_slice(prep.cond.data());
            tmask_b.data_mut()[base..base + n * l].copy_from_slice(prep.target_mask.data());
        }
        spans.push((offset * n * l, count * n * l));
        offset += count;
    }
    drop(batch_span);

    // Step-invariant prior tensors (PriSTI's `H^pri` and everything derived
    // from it depend only on the conditional): built once per batch, or
    // reused outright when a streaming caller kept the cache across ticks.
    let built;
    let cache = {
        let _cache_span = st_obs::span!("prior_cache");
        match prior {
            Some(cache) => cache,
            None => {
                built = batch_prior(trained, preps, counts);
                &built
            }
        }
    };

    // Chain head, one noise slice per request from its own stream. Every
    // solver draws exactly one `randn` per request here (stream-invariance
    // across solvers); a `NoisedPrior` init additionally mixes in the
    // request's interpolated conditional — the deterministic prior estimate —
    // which is already replicated per sample in `cond_b`.
    let mut x = NdArray::zeros(&[s_total, n, l]);
    for ((&count, rng), &(start, len)) in counts.iter().zip(rngs.iter_mut()).zip(&spans) {
        let noise = NdArray::randn(&[count, n, l], *rng);
        x.data_mut()[start..start + len].copy_from_slice(noise.data());
    }
    if let ChainInit::NoisedPrior { t_start } = solver.init(&trained.schedule) {
        let ab = trained.schedule.alpha_bar(t_start);
        let (a, b) = (ab.sqrt() as f32, (1.0 - ab).sqrt() as f32);
        x = cond_b.zip_map(&x, |p, z| a * p + b * z);
    }
    x = x.mul(&tmask_b);

    // Reverse process: the solver's mean update is element-wise over the
    // whole batch (bitwise equal to computing each slice alone); the noise is
    // added per request slice from that request's stream.
    for &(t, t_prev) in &pairs {
        let _step_span = st_obs::span!("denoise_step", t = t as u64, t_prev = t_prev as u64);
        let eps_hat = trained.model.predict_eps_eval_cached(cache, &x, t);
        let t0 = st_obs::op_start();
        let step = solver.step(&x, &eps_hat, &trained.schedule, t, t_prev);
        let mut next = step.mean;
        add_noise_per_request(&mut next, rngs, &spans, step.noise_scale);
        st_obs::record_op(st_obs::Phase::Fwd, solver.op_label(), t0, next.numel() as u64);
        x = next.mul(&tmask_b);
    }

    // Merge with conditioned values and denormalise per sample
    // (sample-parallel: each ensemble member is independent).
    let merge_span = st_obs::span!("denorm_merge");
    let xd = x.data();
    let mut out = Vec::with_capacity(preps.len());
    for ((&count, prep), &(start, _)) in counts.iter().zip(preps).zip(&spans) {
        let cond_part = prep.values_z.mul(&prep.cond_mask);
        let samples = st_par::par_map("denorm_samples", count, |s| {
            let sample =
                NdArray::from_vec(&[n, l], xd[start + s * n * l..start + (s + 1) * n * l].to_vec());
            let mut merged = sample.mul(&prep.target_mask).add(&cond_part);
            trained.normalizer.denormalize_window(&mut merged);
            merged
        });
        out.push(ImputationResult::new(samples, prep.target_mask.clone()));
    }
    drop(merge_span);
    out
}

/// Add `scale · z` reverse-process noise to each request's slice of the
/// batched tensor, drawing from that request's stream (no draws at all when
/// `scale == 0`, e.g. the final DDPM step or deterministic DDIM).
fn add_noise_per_request(
    x: &mut NdArray,
    rngs: &mut [&mut StdRng],
    spans: &[(usize, usize)],
    scale: f64,
) {
    if scale == 0.0 {
        return;
    }
    let data = x.data_mut();
    for (rng, &(start, len)) in rngs.iter_mut().zip(spans) {
        add_reverse_noise_slice(&mut data[start..start + len], scale, rng);
    }
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

    /// The micro-batching keystone: requests coalesced into one batch must
    /// produce bitwise the same samples as solo calls with the same RNG
    /// states, for both samplers and uneven ensemble sizes.
    #[test]
    fn batched_requests_bitwise_match_solo_calls() {
        let (data, trained) = trained_setup();
        let windows = data.windows(Split::Test, 12, 12);
        let w0 = &windows[0];
        let w1 = &windows[windows.len() - 1];
        for sampler in [
            Sampler::Ddpm,
            Sampler::Ddim { steps: 4, eta: 0.5 },
            Sampler::Pndm { steps: 4, order: 4 },
            Sampler::Refine { steps: 3, strength: 0.5 },
        ] {
            let solo0 = {
                let mut rng = StdRng::seed_from_u64(100);
                impute(&trained, w0, &ImputeOptions { n_samples: 2, sampler }, &mut rng).unwrap()
            };
            let solo1 = {
                let mut rng = StdRng::seed_from_u64(101);
                impute(&trained, w1, &ImputeOptions { n_samples: 3, sampler }, &mut rng).unwrap()
            };
            let mut items = [
                BatchItem { window: w0, n_samples: 2, rng: StdRng::seed_from_u64(100) },
                BatchItem { window: w1, n_samples: 3, rng: StdRng::seed_from_u64(101) },
            ];
            let batched = impute_batch(&trained, &mut items, sampler).unwrap();
            for (solo, both) in [(&solo0, &batched[0]), (&solo1, &batched[1])] {
                assert_eq!(solo.n_samples(), both.n_samples());
                for (a, b) in solo.samples.iter().zip(&both.samples) {
                    assert!(
                        a.to_bytes() == b.to_bytes(),
                        "batched sample diverges from solo call ({sampler:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn prior_cache_exposes_footprint() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut values_z = w.values.clone();
        trained.normalizer.normalize_window(&mut values_z);
        let cond_mask = w.cond_mask();
        let cond = build_cond(&values_z, &cond_mask, trained.model.cfg.use_interpolation);
        let (n, l) = (w.n_nodes(), w.len());
        let cond_r = NdArray::from_vec(&[1, n, l], cond.data().to_vec());
        let cache = trained.model.build_prior_cache(&cond_r, &[3]);
        assert_eq!(cache.n_samples_total(), 3);
        assert!(cache.bytes() > 0);
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

    /// One degenerate request fails the whole batch before any stream
    /// advances: validation precedes every random draw.
    #[test]
    fn degenerate_batch_item_fails_before_any_draw() {
        let (data, trained) = trained_setup();
        let w = &data.windows(Split::Test, 12, 12)[0];
        let mut items = [
            BatchItem { window: w, n_samples: 2, rng: StdRng::seed_from_u64(60) },
            BatchItem { window: w, n_samples: 0, rng: StdRng::seed_from_u64(61) },
        ];
        let before: Vec<_> = items.iter().map(|i| i.rng.state()).collect();
        let err = impute_batch(&trained, &mut items, Sampler::Ddpm).unwrap_err();
        assert!(matches!(err, PristiError::DegenerateConfig(_)));
        let after: Vec<_> = items.iter().map(|i| i.rng.state()).collect();
        assert_eq!(before, after, "a rejected batch must not advance any stream");
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let (_, trained) = trained_setup();
        let results = impute_batch(&trained, &mut [], Sampler::Ddpm).unwrap();
        assert!(results.is_empty());
    }
}
