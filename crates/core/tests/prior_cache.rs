//! Bitwise equality of prior-cached inference vs an uncached reference chain.
//!
//! PriSTI's conditional prior `H^pri`, and every attention weight derived
//! from it, depends only on the interpolated conditional (paper Eq. 5), so
//! the engine builds it once per batch (`PriorCache`) and runs only the
//! step-dependent noise path per denoise step. The reference here rebuilds
//! the prior at every step instead: a test-side reverse loop that drives
//! each sampler's solver through the public `GenerativeProcess` API, with one
//! `predict_eps_eval` per step on the per-sample conditional rebuilt from
//! public pieces (normalizer, `cond_mask`, `st_data::linear_interpolate`),
//! and each request's noise drawn from its own stream.
//!
//! For every sampler family, one and four uneven requests, and one and four
//! threads, the engine's ensembles match the single-thread reference byte for
//! byte and leave the per-request RNG streams in identical states. The cached
//! results are therefore also thread-count invariant (the `st-par` chunking
//! contract, see `tests/determinism.rs`).
//!
//! Everything runs inside one `#[test]` because the pool size is process
//! global; a second concurrent test would race the setting.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{impute_batch, BatchItem, PristiConfig, Sampler, TrainedModel};
use st_data::dataset::{Split, Window};
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::linear_interpolate;
use st_data::missing::inject_point_missing;
use st_diffusion::{add_reverse_noise_slice, ChainInit};
use st_rand::SeedableRng;
use st_rand::StdRng;
use st_tensor::ndarray::NdArray;
use std::ops::Range;

fn tiny_model_cfg() -> PristiConfig {
    let mut c = PristiConfig::small();
    c.d_model = 8;
    c.heads = 2;
    c.layers = 2;
    c.t_steps = 8;
    c.time_emb_dim = 8;
    c.node_emb_dim = 4;
    c.step_emb_dim = 8;
    c.virtual_nodes = 4;
    c.adaptive_dim = 2;
    c
}

fn ensemble_bytes(results: &[pristi_core::ImputationResult]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in results {
        for s in &r.samples {
            out.extend_from_slice(&s.to_bytes());
        }
    }
    out
}

/// The uncached reverse chain over a batch of requests (`windows[i]` with
/// `counts[i]` samples, noise from `rngs[i]`), returning the denormalised
/// ensembles as bytes in request-then-sample order.
fn uncached_reference(
    trained: &TrainedModel,
    windows: &[&Window],
    counts: &[usize],
    rngs: &mut [StdRng],
    sampler: Sampler,
) -> Vec<u8> {
    assert!(trained.model.cfg.use_interpolation, "reference conditions on interpolation");
    let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
    let nl = n * l;
    let s_total: usize = counts.iter().sum();
    let schedule = &trained.schedule;

    // Per-request conditioning: normalised values, masks, interpolated 𝒳,
    // replicated over the request's samples.
    let mut conds = Vec::new();
    let mut cond_b = NdArray::zeros(&[s_total, n, l]);
    let mut tmask_b = NdArray::zeros(&[s_total, n, l]);
    let mut spans: Vec<Range<usize>> = Vec::new();
    let mut offset = 0;
    for (w, &count) in windows.iter().zip(counts) {
        let mut values_z = w.values.clone();
        trained.normalizer.normalize_window(&mut values_z);
        let cond_mask = w.cond_mask();
        let target_mask = cond_mask.map(|v| 1.0 - v);
        let cond = linear_interpolate(&values_z, &cond_mask, 0.0);
        for s in offset..offset + count {
            cond_b.data_mut()[s * nl..(s + 1) * nl].copy_from_slice(cond.data());
            tmask_b.data_mut()[s * nl..(s + 1) * nl].copy_from_slice(target_mask.data());
        }
        spans.push(offset * nl..(offset + count) * nl);
        offset += count;
        conds.push((values_z.mul(&cond_mask), target_mask));
    }

    // Chain head: one randn per request from its own stream, noised onto
    // the conditional when the solver starts from the prior.
    let mut solver = sampler.solver();
    let mut x = NdArray::zeros(&[s_total, n, l]);
    for ((rng, &count), span) in rngs.iter_mut().zip(counts).zip(&spans) {
        x.data_mut()[span.clone()].copy_from_slice(NdArray::randn(&[count, n, l], rng).data());
    }
    if let ChainInit::NoisedPrior { t_start } = solver.init(schedule) {
        let ab = schedule.alpha_bar(t_start);
        let (a, b) = (ab.sqrt() as f32, (1.0 - ab).sqrt() as f32);
        x = cond_b.zip_map(&x, |p, z| a * p + b * z);
    }
    x = x.mul(&tmask_b);

    // One full ε evaluation per step: the prior is rebuilt inside it.
    for (t, t_prev) in solver.timesteps(schedule) {
        let eps = trained.model.predict_eps_eval(&x, &cond_b, t);
        let step = solver.step(&x, &eps, schedule, t, t_prev);
        let mut next = step.mean;
        if step.noise_scale != 0.0 {
            for (rng, span) in rngs.iter_mut().zip(&spans) {
                add_reverse_noise_slice(&mut next.data_mut()[span.clone()], step.noise_scale, rng);
            }
        }
        x = next.mul(&tmask_b);
    }

    // Merge with the observed values and denormalise, sample by sample.
    let mut out = Vec::new();
    for ((cond_part, target_mask), span) in conds.iter().zip(&spans) {
        for chunk in x.data()[span.clone()].chunks(nl) {
            let sample = NdArray::from_vec(&[n, l], chunk.to_vec());
            let mut merged = sample.mul(target_mask).add(cond_part);
            trained.normalizer.denormalize_window(&mut merged);
            out.extend_from_slice(&merged.to_bytes());
        }
    }
    out
}

#[test]
fn cached_prior_bitwise_equals_recompute_across_threads() {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 8,
        n_days: 6,
        seed: 13,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 17);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 21,
        threads: 1,
        ..Default::default()
    };
    let trained = train(&data, tiny_model_cfg(), &tc).unwrap();
    let windows = data.windows(Split::Test, 12, 12);
    let w0 = &windows[0];
    let w1 = &windows[windows.len() - 1];

    for sampler in [
        Sampler::Ddpm,
        Sampler::Ddim { steps: 4, eta: 0.5 },
        Sampler::Pndm { steps: 4, order: 4 },
        Sampler::Refine { steps: 3, strength: 0.5 },
    ] {
        for n_requests in [1usize, 4] {
            let request_windows: Vec<&Window> =
                (0..n_requests).map(|i| if i % 2 == 0 { w0 } else { w1 }).collect();
            let counts: Vec<usize> = (0..n_requests).map(|i| 1 + i).collect(); // uneven
            let seeds = || (0..n_requests).map(|i| StdRng::seed_from_u64(300 + i as u64));

            // Reference run: uncached chain, single thread.
            st_par::set_threads(1);
            let mut ref_rngs: Vec<StdRng> = seeds().collect();
            let ref_bytes =
                uncached_reference(&trained, &request_windows, &counts, &mut ref_rngs, sampler);
            let ref_states: Vec<_> = ref_rngs.iter().map(StdRng::state).collect();

            for threads in [1usize, 4] {
                st_par::set_threads(threads);
                let mut items: Vec<BatchItem<'_>> = request_windows
                    .iter()
                    .zip(&counts)
                    .zip(seeds())
                    .map(|((window, &n_samples), rng)| BatchItem { window, n_samples, rng })
                    .collect();
                let cached = impute_batch(&trained, &mut items, sampler).unwrap();
                assert!(
                    ensemble_bytes(&cached) == ref_bytes,
                    "cached ({threads} threads) diverges from single-thread uncached reference \
                     ({sampler:?}, {n_requests} requests)"
                );
                let states: Vec<_> = items.iter().map(|i| i.rng.state()).collect();
                assert_eq!(states, ref_states, "RNG streams advanced differently");
            }
        }
    }
    st_par::set_threads(0);
}
