//! Micro-benchmark cases for the hot paths of the PriSTI stack: attention
//! forward/backward, message passing, one reverse diffusion step, linear
//! interpolation, a full noise-prediction forward pass, per-step denoise cost
//! with and without the prior cache, ensemble quantile extraction, and
//! micro-batched vs serial imputation serving.
//!
//! The cases live in the library (rather than only in the `harness = false`
//! bench binary) so `pristi bench --filter <substr>` can run a subset
//! in-process without building and running the whole suite. The timing loop
//! is framework-free: each case is warmed up, then timed over a fixed batch
//! of iterations with `std::time::Instant`, reporting ns/iter.

use st_data::interpolate::linear_interpolate;
use st_diffusion::{p_sample_step, DiffusionSchedule};
use st_graph::{random_plane_layout, SensorGraph};
use st_rand::SeedableRng;
use st_rand::StdRng;
use st_tensor::graph::Graph;
use st_tensor::ndarray::NdArray;
use st_tensor::nn::{Mpnn, MultiHeadAttention};
use st_tensor::param::ParamStore;
use std::hint::black_box;
use std::time::Instant;

const WARMUP_ITERS: u32 = 5;
const MIN_SAMPLE_ITERS: u32 = 10;
/// Keep timing until at least this much wall clock has been spent.
const TARGET_NANOS: u128 = 200_000_000;
/// `--quick` variants: enough for a CI smoke signal, not for a stable number.
const QUICK_WARMUP_ITERS: u32 = 1;
const QUICK_TARGET_NANOS: u128 = 10_000_000;

/// Path the `--json` report is written to: the workspace root, so tooling
/// (scripts/verify.sh, EXPERIMENTS.md readers) can find it without arguments.
pub const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");

/// One finished benchmark case.
pub struct BenchResult {
    /// Case name as printed and written to the JSON report.
    pub name: String,
    /// Measured nanoseconds per iteration.
    pub ns_per_iter: u128,
    /// Iterations the measurement averaged over.
    pub iters: u32,
}

/// Shared state for a bench run: CLI options plus collected results.
pub struct MicroHarness {
    filter: Option<String>,
    quick: bool,
    results: Vec<BenchResult>,
}

impl MicroHarness {
    /// A harness running only cases whose name contains `filter` (all cases
    /// when `None`), with `--quick`-length timing when `quick` is set.
    pub fn new(filter: Option<String>, quick: bool) -> Self {
        Self { filter, quick, results: Vec::new() }
    }

    /// The results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Time `f`, printing a criterion-style `name ... ns/iter` line and
    /// recording the result for the optional JSON report.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        if let Some(pat) = &self.filter {
            if !name.contains(pat.as_str()) {
                return;
            }
        }
        let (warmup, target) = if self.quick {
            (QUICK_WARMUP_ITERS, QUICK_TARGET_NANOS)
        } else {
            (WARMUP_ITERS, TARGET_NANOS)
        };
        for _ in 0..warmup {
            f();
        }
        let mut iters = 0u32;
        let mut elapsed = 0u128;
        while elapsed < target {
            let start = Instant::now();
            for _ in 0..MIN_SAMPLE_ITERS {
                f();
            }
            elapsed += start.elapsed().as_nanos();
            iters += MIN_SAMPLE_ITERS;
        }
        let per_iter = elapsed / u128::from(iters);
        println!("{name:<45} {per_iter:>12} ns/iter ({iters} iters)");
        self.results.push(BenchResult { name: name.to_string(), ns_per_iter: per_iter, iters });
    }

    /// Render the collected results as the `st-bench/1` JSON document.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":{},\"ns_per_iter\":{},\"iters\":{}}}",
                    st_obs::json::escape(&r.name),
                    r.ns_per_iter,
                    r.iters
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"st-bench/1\",\"quick\":{},\"entries\":[{}]}}\n",
            self.quick,
            entries.join(",")
        )
    }
}

/// The (thread count, entry-name suffix) points used for scaling entries;
/// `scripts/verify.sh` greps BENCH_micro.json for the resulting names.
fn thread_scaling_points() -> [(usize, &'static str); 3] {
    [(1, "t1"), (2, "t2"), (st_par::max_threads(), "tmax")]
}

fn bench_attention(h: &mut MicroHarness) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::new(&mut store, "a", 32, 4, &mut rng);
    let x_val = NdArray::randn(&[8, 24, 32], &mut rng);

    h.bench("attention_forward_8x24x32", || {
        let mut g = Graph::new_eval(&store);
        let x = g.input(black_box(x_val.clone()));
        let y = attn.forward_self(&mut g, x);
        black_box(g.value(y).data()[0]);
    });

    let fwd_bwd = |store: &ParamStore, x_val: &NdArray| {
        let mut g = Graph::new(store);
        let x = g.input(black_box(x_val.clone()));
        let y = attn.forward_self(&mut g, x);
        let t = g.input(NdArray::zeros(&[8, 24, 32]));
        let m = g.input(NdArray::ones(&[8, 24, 32]));
        let loss = g.mse_masked(y, t, m);
        black_box(g.backward(loss).len());
    };

    h.bench("attention_forward_backward_8x24x32", || fwd_bwd(&store, &x_val));

    // Thread-scaling variants: the same case pinned to 1, 2, and max pool
    // threads (see EXPERIMENTS.md — on a single-core host t2/tmax measure
    // dispatch overhead, not speedup).
    for (n, tag) in thread_scaling_points() {
        st_par::set_threads(n);
        h.bench(&format!("attention_forward_backward_8x24x32_{tag}"), || fwd_bwd(&store, &x_val));
    }
    st_par::set_threads(0);
}

/// Dense-path matmul timing (satellite for the branch-free kernel change):
/// the cache-blocked kernel no longer skips `a == 0.0` entries, so dense and
/// half-zero inputs now run at the same speed — the dense entry tracks the
/// win over the old branchy kernel, the half-zero entry documents the traded
/// away masked-input shortcut.
fn bench_matmul_kernels(h: &mut MicroHarness) {
    let mut rng = StdRng::seed_from_u64(7);
    let a_dense = NdArray::randn(&[96, 96], &mut rng);
    let b = NdArray::randn(&[96, 96], &mut rng);
    let a_half_zero =
        a_dense.zip_map(&NdArray::rand_uniform(&[96, 96], 0.0, 1.0, &mut rng), |v, u| {
            if u < 0.5 {
                0.0
            } else {
                v
            }
        });

    h.bench("matmul_dense_96x96x96", || {
        black_box(black_box(&a_dense).matmul(black_box(&b)));
    });
    h.bench("matmul_half_zero_96x96x96", || {
        black_box(black_box(&a_half_zero).matmul(black_box(&b)));
    });
}

fn bench_mpnn(h: &mut MicroHarness) {
    let mut rng = StdRng::seed_from_u64(2);
    let graph = SensorGraph::from_coords(random_plane_layout(36, 40.0, 3), 0.1);
    let (fwd, bwd) = graph.transition_matrices();
    let mut store = ParamStore::new();
    let mpnn = Mpnn::new(&mut store, "mp", 32, vec![fwd, bwd], 36, 2, 8, &mut rng);
    let x_val = NdArray::randn(&[24, 36, 32], &mut rng);

    h.bench("mpnn_forward_24x36x32", || {
        let mut g = Graph::new_eval(&store);
        let x = g.input(black_box(x_val.clone()));
        let y = mpnn.forward(&mut g, x);
        black_box(g.value(y).data()[0]);
    });
}

fn bench_diffusion_step(h: &mut MicroHarness) {
    let schedule = DiffusionSchedule::pristi_default(50);
    let mut rng = StdRng::seed_from_u64(4);
    let x = NdArray::randn(&[8, 36, 24], &mut rng);
    let eps = NdArray::randn(&[8, 36, 24], &mut rng);

    h.bench("p_sample_step_8x36x24", || {
        black_box(p_sample_step(&x, &eps, &schedule, 25, &mut rng));
    });
}

fn bench_interpolation(h: &mut MicroHarness) {
    let mut rng = StdRng::seed_from_u64(5);
    let values = NdArray::randn(&[36, 48], &mut rng);
    let mask = NdArray::rand_uniform(&[36, 48], 0.0, 1.0, &mut rng).map(|v| f32::from(v > 0.3));

    h.bench("linear_interpolate_36x48", || {
        black_box(linear_interpolate(&values, &mask, 0.0));
    });
}

fn bench_full_noise_predictor(h: &mut MicroHarness) {
    let mut rng = StdRng::seed_from_u64(6);
    let graph = SensorGraph::from_coords(random_plane_layout(24, 30.0, 7), 0.1);
    let mut cfg = pristi_core::PristiConfig::small();
    cfg.d_model = 16;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.time_emb_dim = 32;
    cfg.node_emb_dim = 8;
    cfg.step_emb_dim = 32;
    cfg.virtual_nodes = 8;
    let model = pristi_core::PristiModel::new(cfg, &graph, 24, &mut rng).unwrap();
    let noisy = NdArray::randn(&[4, 24, 24], &mut rng);
    let cond = NdArray::randn(&[4, 24, 24], &mut rng);

    h.bench("pristi_eps_theta_forward_4x24x24", || {
        black_box(model.predict_eps_eval(&noisy, &cond, 10));
    });

    for (n, tag) in thread_scaling_points() {
        st_par::set_threads(n);
        h.bench(&format!("pristi_eps_theta_forward_4x24x24_{tag}"), || {
            black_box(model.predict_eps_eval(&noisy, &cond, 10));
        });
    }
    st_par::set_threads(0);
}

/// Per-step denoise cost with and without the prior cache (the prior-cached
/// inference tentpole): one full reverse step — ε-prediction plus the
/// `p_sample` update — on an `[8, 36, 24]` batch. The uncached variant
/// rebuilds `H^pri`, `U`, and every prior-derived attention weight matrix
/// inside `predict_eps_eval`; the cached variant replays them from a
/// `PriorCache` built once outside the timed region, running only the
/// step-dependent noise path. Outputs are bitwise identical (pinned in
/// `crates/core/tests/prior_cache.rs`); the delta is the per-step share of
/// the step-invariant prior work.
fn bench_prior_cache(h: &mut MicroHarness) {
    let mut rng = StdRng::seed_from_u64(12);
    let graph = SensorGraph::from_coords(random_plane_layout(36, 40.0, 3), 0.1);
    let mut cfg = pristi_core::PristiConfig::small();
    cfg.d_model = 16;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.time_emb_dim = 32;
    cfg.node_emb_dim = 8;
    cfg.step_emb_dim = 32;
    cfg.virtual_nodes = 8;
    let model = pristi_core::PristiModel::new(cfg, &graph, 24, &mut rng).unwrap();
    let schedule = DiffusionSchedule::pristi_default(50);
    let noisy = NdArray::randn(&[8, 36, 24], &mut rng);
    // One window, 8 ensemble samples: the cache is built from the [N, L]
    // conditional, the uncached reference sees it replicated.
    let cond = NdArray::randn(&[36, 24], &mut rng);
    let cond_b = NdArray::from_vec(&[8, 36, 24], cond.data().repeat(8));

    h.bench("p_sample_step_uncached_8x36x24", || {
        let eps = model.predict_eps_eval(&noisy, &cond_b, 25);
        black_box(p_sample_step(&noisy, &eps, &schedule, 25, &mut rng));
    });

    let cache = model.build_prior_cache(&cond, 8);
    h.bench("p_sample_step_cached_8x36x24", || {
        let eps = model.predict_eps_eval_cached(&cache, &noisy, 25);
        black_box(p_sample_step(&noisy, &eps, &schedule, 25, &mut rng));
    });
}

/// Quantile extraction from an imputation ensemble (satellite for the cached
/// sorted layout): `quantile_cached` reads the position-major `[P, S]` sorted
/// cache `ImputationResult` builds once, `quantile_resort` is the old
/// behaviour — gather and re-sort every position's ensemble on every call.
fn bench_quantile_cache(h: &mut MicroHarness) {
    let (s, n, l) = (32, 36, 24);
    let mut rng = StdRng::seed_from_u64(8);
    let samples: Vec<NdArray> = (0..s).map(|_| NdArray::randn(&[n, l], &mut rng)).collect();
    let mask = NdArray::ones(&[n, l]);
    let res = pristi_core::ImputationResult::new(samples.clone(), mask);
    res.quantile(0.5); // build the cache outside the timed region

    h.bench("quantile_cached_32x36x24", || {
        black_box(res.quantile(black_box(0.9)));
    });
    h.bench("quantile_resort_32x36x24", || {
        let mut out = NdArray::zeros(&[n, l]);
        let mut buf = vec![0.0f32; s];
        for p in 0..n * l {
            for (si, sample) in samples.iter().enumerate() {
                buf[si] = sample.data()[p];
            }
            buf.sort_unstable_by(f32::total_cmp);
            out.data_mut()[p] = st_metrics::quantile_of_sorted(&buf, 0.9) as f32;
        }
        black_box(out);
    });
}

/// Four 2-sample requests imputed end to end, one reverse pass each:
/// `serve_serial_4req_x2samples` calls `impute` per request, the
/// `impute_*_4req_x2samples` entries run the same four requests through one
/// `impute_batch` call per solver (four solo passes, same RNG streams). The
/// names keep their prefixes for baseline continuity.
fn bench_serve_batching(h: &mut MicroHarness) {
    use pristi_core::train::{train, TrainConfig};
    use pristi_core::{impute, impute_batch, BatchItem, ImputeOptions, Sampler};
    use st_data::generators::{generate_air_quality, AirQualityConfig};
    use st_data::missing::inject_point_missing;

    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 8,
        n_days: 4,
        seed: 9,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 10);
    let mut cfg = pristi_core::PristiConfig::small();
    cfg.d_model = 8;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.t_steps = 8;
    cfg.time_emb_dim = 8;
    cfg.node_emb_dim = 4;
    cfg.step_emb_dim = 8;
    cfg.virtual_nodes = 4;
    cfg.adaptive_dim = 2;
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 11,
        ..Default::default()
    };
    let trained = train(&data, cfg, &tc).expect("bench training config is valid");
    let windows = data.windows(st_data::dataset::Split::Test, 12, 12);
    let reqs: Vec<_> = (0..4u64).map(|i| &windows[i as usize % windows.len()]).collect();
    let opts = ImputeOptions { n_samples: 2, sampler: Sampler::Ddpm };

    h.bench("serve_serial_4req_x2samples", || {
        for (i, w) in reqs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            black_box(impute(&trained, w, &opts, &mut rng).expect("bench window is valid"));
        }
    });
    let make_items = || -> Vec<BatchItem<'_>> {
        reqs.iter()
            .enumerate()
            .map(|(i, w)| BatchItem {
                window: w,
                n_samples: 2,
                rng: StdRng::seed_from_u64(100 + i as u64),
            })
            .collect()
    };
    // The DDPM passes under the name the prior-cache comparisons use; the
    // uncached per-step cost lives on in `p_sample_step_uncached_8x36x24`.
    h.bench("impute_cached_4req_x2samples", || {
        let mut items = make_items();
        black_box(impute_batch(&trained, &mut items, opts.sampler).expect("bench batch is valid"));
    });

    // Per-solver few-step entries on the same four requests, specs via the
    // shared parser. Against the DDPM entry above (8 network evaluations on
    // this tiny schedule) these measure what few-step solvers buy end to end;
    // the steps-vs-CRPS sweep (`pristi bench --sweep`) covers accuracy.
    for (name, spec) in [
        ("impute_ddim_4req_x2samples", "ddim:4"),
        ("impute_pndm_4req_x2samples", "pndm:3"),
        ("impute_refine_4req_x2samples", "refine:3"),
    ] {
        let sampler: Sampler = spec.parse().expect("bench solver specs are valid");
        h.bench(name, || {
            let mut items = make_items();
            black_box(impute_batch(&trained, &mut items, sampler).expect("bench batch is valid"));
        });
    }
}

/// Streaming online imputation vs full-window recompute (the streaming
/// tentpole): both entries process the same deterministic 16-tick feed —
/// a mostly-observed sensor network where one gap opens at the head of the
/// log, is revised while inside the horizon, then settles — the realistic
/// regime streaming targets. `stream_tick_amortized_16t` drives a
/// [`st_serve::StreamSession`], which shifts the window in place, maintains
/// the interpolated conditional incrementally, and **skips the reverse pass
/// on ticks with no open gap**; `stream_tick_recompute_16t` is the naive
/// online baseline — a cold full-window `impute` (interpolation + prior
/// build + reverse pass) on every tick. Both use the same few-step solver
/// and ensemble size, so the ratio is the amortised per-tick win
/// (`scripts/verify.sh` gates it at ≥ 2×; EXPERIMENTS.md has the table).
fn bench_stream_tick(h: &mut MicroHarness) {
    use pristi_core::train::{train, TrainConfig};
    use pristi_core::{impute, ImputeOptions, Sampler};
    use st_data::dataset::Window;
    use st_data::generators::{generate_air_quality, AirQualityConfig};
    use st_data::missing::inject_point_missing;
    use st_serve::{stream_rng, StreamConfig, StreamSession};
    use std::sync::Arc;

    let (n, l, ticks) = (8usize, 12usize, 16usize);
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: n,
        n_days: 4,
        seed: 9,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 10);
    let mut cfg = pristi_core::PristiConfig::small();
    cfg.d_model = 8;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.t_steps = 8;
    cfg.time_emb_dim = 8;
    cfg.node_emb_dim = 4;
    cfg.step_emb_dim = 8;
    cfg.virtual_nodes = 4;
    cfg.adaptive_dim = 2;
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 4,
        window_len: l,
        window_stride: l,
        seed: 11,
        ..Default::default()
    };
    let trained = Arc::new(train(&data, cfg, &tc).expect("bench training config is valid"));

    // The tick feed: a healthy mostly-observed network — one sensor drops a
    // reading on the first tick of the log, every other cell reports. The
    // gap stays open for `horizon` ticks (revised each tick), then settles
    // and the remaining ticks skip the reverse pass.
    let mut rng = StdRng::seed_from_u64(13);
    let feed: Vec<Vec<Option<f32>>> = (0..ticks)
        .map(|t| {
            (0..n)
                .map(|i| {
                    use st_rand::Rng;
                    let v = 18.0 + (rng.random::<f32>() - 0.5) * 10.0;
                    (t % 16 != 0 || i != t % n).then_some(v)
                })
                .collect()
        })
        .collect();
    let stream_cfg = StreamConfig {
        n_samples: 2,
        sampler: Sampler::Pndm { steps: 4, order: 4 },
        horizon: 4,
        base_seed: 17,
    };

    h.bench("stream_tick_amortized_16t", || {
        let mut session = StreamSession::new(Arc::clone(&trained), stream_cfg, 0)
            .expect("bench stream config is valid");
        for cells in &feed {
            black_box(session.data_tick(cells).expect("bench feed is valid"));
        }
    });

    // Baseline windows (one per tick position), assembled outside the timed
    // region — the baseline pays only for the per-tick cold impute.
    let windows: Vec<Window> = (0..ticks)
        .map(|t| {
            let mut values = NdArray::zeros(&[n, l]);
            let mut observed = NdArray::zeros(&[n, l]);
            for (back, cells) in feed[..=t].iter().rev().take(l).enumerate() {
                let col = l - 1 - back;
                for i in 0..n {
                    if let Some(v) = cells[i] {
                        values.data_mut()[i * l + col] = v;
                        observed.data_mut()[i * l + col] = 1.0;
                    }
                }
            }
            Window { values, observed, eval: NdArray::zeros(&[n, l]), t_start: 0 }
        })
        .collect();
    let opts = ImputeOptions { n_samples: stream_cfg.n_samples, sampler: stream_cfg.sampler };
    h.bench("stream_tick_recompute_16t", || {
        for (t, w) in windows.iter().enumerate() {
            let mut rng = stream_rng(stream_cfg.base_seed, 0, t as u64);
            black_box(impute(&trained, w, &opts, &mut rng).expect("bench window is valid"));
        }
    });
}

/// Run every micro-benchmark case against `h` (its filter decides which
/// actually time).
pub fn run_all(h: &mut MicroHarness) {
    bench_attention(h);
    bench_matmul_kernels(h);
    bench_mpnn(h);
    bench_diffusion_step(h);
    bench_interpolation(h);
    bench_full_noise_predictor(h);
    bench_prior_cache(h);
    bench_quantile_cache(h);
    bench_serve_batching(h);
    bench_stream_tick(h);
}
