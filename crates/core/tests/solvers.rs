//! Solver-equivalence contract tests for the `GenerativeProcess` redesign.
//!
//! The reverse loop in `impute_batch` used to inline the DDPM and DDIM
//! update rules; it now drives an object-safe solver behind
//! [`pristi_core::Sampler::solver`]. These tests pin the redesign's four
//! promises end to end, through the public `impute` API:
//!
//! 1. the trait path is bit-identical to a hand-written legacy loop built
//!    from the free functions `st_diffusion` has always exported
//!    (`p_sample_mean`, `ddim_mean`, …);
//! 2. an order-1 PNDM chain degenerates to deterministic DDIM, bitwise;
//! 3. timestep-grid edge cases (`steps >= T`, `steps == 1`) are well-defined
//!    and consistent across solvers;
//! 4. each request's RNG stream advances identically whether the request is
//!    served solo or coalesced into a batch, for every solver, at 1 and 4
//!    worker threads (the thread-count sweep lives in a single `#[test]`
//!    because the pool size is process-global).

use pristi_core::train::{train, TrainConfig};
use pristi_core::{impute, impute_batch, BatchItem, ImputeOptions, PristiConfig, Sampler};
use st_data::dataset::Split;
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_diffusion::{
    add_reverse_noise_slice, ddim_mean, ddim_noise_scale, ddim_timesteps, p_sample_mean,
    p_sample_noise_scale,
};
use st_rand::{SeedableRng, StdRng};
use st_tensor::ndarray::NdArray;

fn tiny_cfg() -> PristiConfig {
    let mut c = PristiConfig::small();
    c.d_model = 8;
    c.heads = 2;
    c.layers = 1;
    c.t_steps = 8;
    c.time_emb_dim = 8;
    c.node_emb_dim = 4;
    c.step_emb_dim = 8;
    c.virtual_nodes = 4;
    c.adaptive_dim = 2;
    c
}

fn trained_setup(use_interpolation: bool) -> (st_data::SpatioTemporalDataset, pristi_core::TrainedModel) {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 8,
        n_days: 6,
        seed: 51,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 52);
    let mut cfg = tiny_cfg();
    cfg.use_interpolation = use_interpolation;
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 53,
        ..Default::default()
    };
    let trained = train(&data, cfg, &tc).unwrap();
    (data, trained)
}

fn sample_bytes(res: &pristi_core::ImputationResult) -> Vec<Vec<u8>> {
    res.samples.iter().map(|s| s.to_bytes()).collect()
}

/// An order-1 PNDM chain has no ε history to combine, so every step is the
/// plain deterministic DDIM transfer map — the two samplers must produce the
/// same bytes and advance the request stream identically.
#[test]
fn order1_pndm_is_bitwise_deterministic_ddim_through_impute() {
    let (data, trained) = trained_setup(true);
    let w = &data.windows(Split::Test, 12, 12)[0];
    for steps in [1usize, 3, 6] {
        let mut rng_a = StdRng::seed_from_u64(400 + steps as u64);
        let mut rng_b = StdRng::seed_from_u64(400 + steps as u64);
        let pndm = impute(
            &trained,
            w,
            &ImputeOptions { n_samples: 3, sampler: Sampler::Pndm { steps, order: 1 } },
            &mut rng_a,
        )
        .unwrap();
        let ddim = impute(
            &trained,
            w,
            &ImputeOptions { n_samples: 3, sampler: Sampler::Ddim { steps, eta: 0.0 } },
            &mut rng_b,
        )
        .unwrap();
        assert!(
            sample_bytes(&pndm) == sample_bytes(&ddim),
            "pndm:{steps}:1 diverges from ddim:{steps}:0.0"
        );
        assert_eq!(rng_a.state(), rng_b.state(), "stream advancement differs at {steps} steps");
    }
}

/// Replay the pre-redesign reverse loop by hand from public pieces — the
/// normalizer, `Window::cond_mask`, `predict_eps_eval`, and the free
/// `st_diffusion` update rules — and demand bitwise identity with the trait
/// path. The model is trained without interpolation so the conditional is
/// exactly `values_z ⊙ cond_mask` (reproducible without private helpers).
#[test]
fn trait_solvers_match_handwritten_legacy_loop() {
    let (data, trained) = trained_setup(false);
    let w = &data.windows(Split::Test, 12, 12)[0];
    let (n, l) = (w.n_nodes(), w.len());
    let t_total = trained.schedule.t_steps();
    let n_samples = 2usize;

    // Legacy conditioning, shared by both hand-written chains.
    let mut values_z = w.values.clone();
    trained.normalizer.normalize_window(&mut values_z);
    let cond_mask = w.cond_mask();
    let target_mask = cond_mask.map(|v| 1.0 - v);
    let cond = values_z.mul(&cond_mask);
    let mut cond_b = NdArray::zeros(&[n_samples, n, l]);
    let mut tmask_b = NdArray::zeros(&[n_samples, n, l]);
    for s in 0..n_samples {
        cond_b.data_mut()[s * n * l..(s + 1) * n * l].copy_from_slice(cond.data());
        tmask_b.data_mut()[s * n * l..(s + 1) * n * l].copy_from_slice(target_mask.data());
    }
    let cond_part = values_z.mul(&cond_mask);
    let finish = |x: &NdArray| -> Vec<Vec<u8>> {
        (0..n_samples)
            .map(|s| {
                let sample = NdArray::from_vec(
                    &[n, l],
                    x.data()[s * n * l..(s + 1) * n * l].to_vec(),
                );
                let mut merged = sample.mul(&target_mask).add(&cond_part);
                trained.normalizer.denormalize_window(&mut merged);
                merged.to_bytes()
            })
            .collect()
    };

    // Legacy DDPM: descend t = T..1, ancestral mean + σ·z per step.
    let legacy_ddpm = {
        let mut rng = StdRng::seed_from_u64(600);
        let mut x = NdArray::randn(&[n_samples, n, l], &mut rng).mul(&tmask_b);
        for t in (1..=t_total).rev() {
            let eps = trained.model.predict_eps_eval(&x, &cond_b, t);
            let mut next = p_sample_mean(&x, &eps, &trained.schedule, t);
            let scale = p_sample_noise_scale(&trained.schedule, t);
            if scale > 0.0 {
                add_reverse_noise_slice(next.data_mut(), scale, &mut rng);
            }
            x = next.mul(&tmask_b);
        }
        finish(&x)
    };
    let trait_ddpm = {
        let mut rng = StdRng::seed_from_u64(600);
        impute(
            &trained,
            w,
            &ImputeOptions { n_samples, sampler: Sampler::Ddpm },
            &mut rng,
        )
        .unwrap()
    };
    assert!(
        legacy_ddpm == sample_bytes(&trait_ddpm),
        "trait DDPM diverges from the hand-written legacy loop"
    );

    // Legacy DDIM (η = 0.5): walk the subsampled grid with the free-function
    // transfer map; the last hop lands on t_prev = 0.
    let (steps, eta) = (4usize, 0.5f64);
    let legacy_ddim = {
        let taus = ddim_timesteps(t_total, steps);
        let mut rng = StdRng::seed_from_u64(601);
        let mut x = NdArray::randn(&[n_samples, n, l], &mut rng).mul(&tmask_b);
        for i in (0..taus.len()).rev() {
            let (t, t_prev) = (taus[i], if i == 0 { 0 } else { taus[i - 1] });
            let eps = trained.model.predict_eps_eval(&x, &cond_b, t);
            let mut next = ddim_mean(&x, &eps, &trained.schedule, t, t_prev, eta);
            let scale = ddim_noise_scale(&trained.schedule, t, t_prev, eta);
            if scale > 0.0 {
                add_reverse_noise_slice(next.data_mut(), scale, &mut rng);
            }
            x = next.mul(&tmask_b);
        }
        finish(&x)
    };
    let trait_ddim = {
        let mut rng = StdRng::seed_from_u64(601);
        impute(
            &trained,
            w,
            &ImputeOptions { n_samples, sampler: Sampler::Ddim { steps, eta } },
            &mut rng,
        )
        .unwrap()
    };
    assert!(
        legacy_ddim == sample_bytes(&trait_ddim),
        "trait DDIM diverges from the hand-written legacy loop"
    );
}

/// Grid edge cases through the public API: a step budget at or above `T`
/// degenerates to the full chain (same bytes as requesting exactly `T`), and
/// a budget of one still yields a well-formed two-evaluation chain.
#[test]
fn timestep_grid_edge_cases_through_impute() {
    let (data, trained) = trained_setup(true);
    let w = &data.windows(Split::Test, 12, 12)[0];
    let t_total = trained.schedule.t_steps();

    // steps >= T collapses to the full grid for every subsampled solver.
    for (over, exact) in [
        (Sampler::Ddim { steps: 100, eta: 0.0 }, Sampler::Ddim { steps: t_total, eta: 0.0 }),
        (
            Sampler::Pndm { steps: 100, order: 4 },
            Sampler::Pndm { steps: t_total, order: 4 },
        ),
    ] {
        let mut rng_a = StdRng::seed_from_u64(700);
        let mut rng_b = StdRng::seed_from_u64(700);
        let a = impute(&trained, w, &ImputeOptions { n_samples: 2, sampler: over }, &mut rng_a)
            .unwrap();
        let b = impute(&trained, w, &ImputeOptions { n_samples: 2, sampler: exact }, &mut rng_b)
            .unwrap();
        assert!(
            sample_bytes(&a) == sample_bytes(&b),
            "{over:?} does not degenerate to the full chain"
        );
        assert_eq!(rng_a.state(), rng_b.state());
    }

    // steps == 1 for every few-step solver: succeeds, finite output.
    for sampler in [
        Sampler::Ddim { steps: 1, eta: 0.0 },
        Sampler::Pndm { steps: 1, order: 4 },
        Sampler::Refine { steps: 1, strength: 0.5 },
    ] {
        let mut rng = StdRng::seed_from_u64(701);
        let res =
            impute(&trained, w, &ImputeOptions { n_samples: 2, sampler }, &mut rng).unwrap();
        for s in &res.samples {
            assert!(
                s.data().iter().all(|v| v.is_finite()),
                "{sampler:?} produced non-finite samples at steps == 1"
            );
        }
    }
}

/// Per-request stream invariance for every solver, at 1 and 4 pool threads:
/// a request coalesced into a batch draws exactly the noise a solo call
/// draws, so samples and the post-call RNG state match bit for bit — and
/// none of it depends on the thread count. One `#[test]` because
/// `st_par::set_threads` is process-global.
#[test]
fn solo_and_batched_streams_agree_for_every_solver_across_thread_counts() {
    let (data, trained) = trained_setup(true);
    let windows = data.windows(Split::Test, 12, 12);
    let w0 = &windows[0];
    let w1 = &windows[windows.len() - 1];
    let solvers = [
        Sampler::Ddpm,
        Sampler::Ddim { steps: 4, eta: 0.5 },
        Sampler::Pndm { steps: 4, order: 4 },
        Sampler::Refine { steps: 3, strength: 0.5 },
    ];

    // (solver index → per-request (bytes, rng state)) at one thread, the
    // reference every other thread count must reproduce.
    type Outcome = (Vec<Vec<u8>>, [u64; 4]);
    let mut reference: Vec<Vec<Outcome>> = Vec::new();
    for threads in [1usize, 4] {
        st_par::set_threads(threads);
        for (si, &sampler) in solvers.iter().enumerate() {
            // Solo calls, one per request, each from its own stream.
            let solo: Vec<(Vec<Vec<u8>>, [u64; 4])> = (0..3u64)
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(800 + 10 * si as u64 + i);
                    let res = impute(
                        &trained,
                        if i % 2 == 0 { w0 } else { w1 },
                        &ImputeOptions { n_samples: 1 + i as usize, sampler },
                        &mut rng,
                    )
                    .unwrap();
                    (sample_bytes(&res), rng.state())
                })
                .collect();

            // The same three requests coalesced into one batch.
            let mut items: Vec<BatchItem<'_>> = (0..3u64)
                .map(|i| BatchItem {
                    window: if i % 2 == 0 { w0 } else { w1 },
                    n_samples: 1 + i as usize,
                    rng: StdRng::seed_from_u64(800 + 10 * si as u64 + i),
                })
                .collect();
            let batched = impute_batch(&trained, &mut items, sampler).unwrap();
            for (i, (res, item)) in batched.iter().zip(&items).enumerate() {
                assert!(
                    sample_bytes(res) == solo[i].0,
                    "{sampler:?}: batched request {i} diverges from solo at {threads} threads"
                );
                assert_eq!(
                    item.rng.state(),
                    solo[i].1,
                    "{sampler:?}: stream advancement differs solo vs batched (request {i})"
                );
            }

            if threads == 1 {
                reference.push(solo);
            } else {
                assert!(
                    reference[si] == solo,
                    "{sampler:?}: results depend on the thread count"
                );
            }
        }
    }
    st_par::set_threads(0);
}
