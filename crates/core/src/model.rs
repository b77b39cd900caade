//! Full noise prediction model `ε_θ(X̃ᵗ, 𝒳, A, t)` (paper Fig. 2).

use crate::aux::{AuxInfo, StepEmbedding};
use crate::cond_feature::CondFeatureModule;
use crate::config::PristiConfig;
use crate::error::PristiError;
use crate::noise_estimation::{LayerPrior, NoiseEstimationLayer};
use st_rand::{Rng, SeedableRng, StdRng};
use st_graph::SensorGraph;
use st_tensor::graph::{Graph, Tx};
use st_tensor::ndarray::NdArray;
use st_tensor::nn::Linear;
use st_tensor::param::ParamStore;

/// The assembled PriSTI noise predictor: input projections, auxiliary
/// information, the conditional feature extraction module, a stack of noise
/// estimation layers, and the two-convolution output head.
#[derive(Debug)]
pub struct PristiModel {
    /// All learnable parameters.
    pub store: ParamStore,
    /// Model configuration (with ablation switches applied).
    pub cfg: PristiConfig,
    n_nodes: usize,
    len: usize,
    cond_proj: Linear,
    input_proj: Linear,
    aux: AuxInfo,
    step_emb: StepEmbedding,
    cond_feature: Option<CondFeatureModule>,
    layers: Vec<NoiseEstimationLayer>,
    out1: Linear,
    out2: Linear,
}

impl PristiModel {
    /// Build a model for a fixed sensor graph and window length.
    ///
    /// Returns [`PristiError::DegenerateConfig`] when the configuration's
    /// switch combination would leave the model degenerate.
    pub fn new<R: Rng + ?Sized>(
        cfg: PristiConfig,
        graph: &SensorGraph,
        len: usize,
        rng: &mut R,
    ) -> Result<Self, PristiError> {
        cfg.validate()?;
        let mut store = ParamStore::new();
        let d = cfg.d_model;
        let n = graph.n_nodes();
        let cond_proj = Linear::new(&mut store, "cond_proj", 1, d, rng);
        let input_proj = Linear::new(&mut store, "input_proj", 2, d, rng);
        let aux = AuxInfo::new(
            &mut store,
            "aux",
            n,
            len,
            cfg.time_emb_dim,
            cfg.node_emb_dim,
            d,
            rng,
        );
        let step_emb = StepEmbedding::new(&mut store, "step", cfg.step_emb_dim, d, rng);
        let cond_feature = cfg.use_cond_feature.then(|| {
            CondFeatureModule::new(
                &mut store,
                "cond_feat",
                d,
                cfg.heads,
                graph,
                cfg.mpnn_order,
                cfg.adaptive_dim,
                rng,
            )
        });
        let layers = (0..cfg.layers)
            .map(|i| NoiseEstimationLayer::new(&mut store, &format!("layer{i}"), &cfg, graph, rng))
            .collect();
        let out1 = Linear::new(&mut store, "out1", d, d, rng);
        // DiffWave zero-initialises this projection; at CPU-scale budgets the
        // zero head blocks upstream gradients for dozens of steps, so a small
        // Xavier init converges markedly faster with no observed instability.
        let out2 = Linear::new(&mut store, "out2", d, 1, rng);
        Ok(Self {
            store,
            cfg,
            n_nodes: n,
            len,
            cond_proj,
            input_proj,
            aux,
            step_emb,
            cond_feature,
            layers,
            out1,
            out2,
        })
    }

    /// Rebuild a model from a configuration plus an already-trained
    /// [`ParamStore`] (the checkpoint loading path).
    ///
    /// The architecture is reconstructed from `cfg`/`graph`/`len` (a fixed
    /// dummy seed initialises throw-away weights), then the store is swapped
    /// for `params` after verifying it holds exactly the parameter tensors —
    /// by name and shape — that this architecture owns. Any disagreement is
    /// reported as [`PristiError::CheckpointCorrupt`] /
    /// [`PristiError::ShapeMismatch`].
    pub fn from_parts(
        cfg: PristiConfig,
        graph: &SensorGraph,
        len: usize,
        params: ParamStore,
    ) -> Result<Self, PristiError> {
        let mut model = Self::new(cfg, graph, len, &mut StdRng::seed_from_u64(0))?;
        if params.len() != model.store.len() {
            return Err(PristiError::CheckpointCorrupt(format!(
                "parameter count mismatch: architecture owns {} tensors, checkpoint holds {}",
                model.store.len(),
                params.len()
            )));
        }
        for (name, arr) in model.store.iter() {
            match params.get(name) {
                None => {
                    return Err(PristiError::CheckpointCorrupt(format!(
                        "checkpoint is missing parameter `{name}`"
                    )))
                }
                Some(p) if p.shape() != arr.shape() => {
                    return Err(PristiError::ShapeMismatch {
                        what: "checkpoint parameter tensor",
                        expected: arr.shape().to_vec(),
                        got: p.shape().to_vec(),
                    })
                }
                Some(_) => {}
            }
        }
        model.store = params;
        Ok(model)
    }

    /// Number of sensors the model was built for.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Window length the model was built for.
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// Total scalar parameter count.
    pub fn n_params(&self) -> usize {
        self.store.numel()
    }

    /// Build the ε-prediction graph.
    ///
    /// * `noisy` — `[B, N, L]` noisy imputation target (zero off-target);
    /// * `cond`  — `[B, N, L]` conditional information 𝒳 (interpolated
    ///   observations, or masked raw observations for `mix-STI`/CSDI);
    /// * `steps` — per-sample diffusion step indices, length `B`.
    ///
    /// Returns the predicted noise `[B, N, L]` on the tape. The prior half
    /// is built on the same tape, so gradients reach `H^pri` and every
    /// prior-derived attention weight.
    pub fn predict_eps(&self, g: &mut Graph<'_>, noisy: Tx, cond: Tx, steps: &[usize]) -> Tx {
        let (n, l) = (self.n_nodes, self.len);
        let b = steps.len();
        assert_eq!(g.shape(noisy), &[b, n, l], "noisy shape mismatch");
        assert_eq!(g.shape(cond), &[b, n, l], "cond shape mismatch");

        let cond4 = g.reshape(cond, &[b, n, l, 1]);
        let noisy4 = g.reshape(noisy, &[b, n, l, 1]);
        let u = self.aux.forward(g); // [N, L, d], broadcasts over batch
        let priors = self.layer_priors(g, cond4, u, b);
        self.noise_path(g, cond4, noisy4, u, &priors, steps)
    }

    /// The step-invariant half of the graph: the conditional feature `H^pri`
    /// (Eq. 5) from noise-free information, then each layer's
    /// [`LayerPrior`] projected from it.
    fn layer_priors(&self, g: &mut Graph<'_>, cond4: Tx, u: Tx, b: usize) -> Vec<LayerPrior> {
        let (n, l) = (self.n_nodes, self.len);
        let h_pri = self.cond_feature.as_ref().map(|cf| {
            let h0 = self.cond_proj.forward(g, cond4);
            let h = g.add(h0, u);
            cf.forward(g, h, b, n, l)
        });
        self.layers.iter().map(|layer| layer.prior(g, h_pri, b, n, l)).collect()
    }

    /// The step-dependent half of the graph, shared by training and both
    /// inference paths: the noisy input `H^in = Conv(𝒳 ‖ X̃ᵗ) (+ U)`, the
    /// step embedding, the layer stack against `priors`, and the output
    /// head. Returns the predicted noise `[B, N, L]`.
    fn noise_path(
        &self,
        g: &mut Graph<'_>,
        cond4: Tx,
        noisy4: Tx,
        u: Tx,
        priors: &[LayerPrior],
        steps: &[usize],
    ) -> Tx {
        let (n, l) = (self.n_nodes, self.len);
        let b = steps.len();
        let cat = g.concat_last(&[cond4, noisy4]);
        let hin0 = self.input_proj.forward(g, cat);
        let mut x = g.add(hin0, u);

        let se = self.step_emb.forward(g, steps); // [B, d]

        let mut skips: Vec<Tx> = Vec::with_capacity(self.layers.len());
        for (layer, prior) in self.layers.iter().zip(priors) {
            let (res, skip) = layer.forward(g, x, prior, se, b, n, l);
            x = res;
            skips.push(skip);
        }
        let mut skip_sum = skips[0];
        for &s in &skips[1..] {
            skip_sum = g.add(skip_sum, s);
        }
        let scaled = g.scale(skip_sum, 1.0 / (self.layers.len() as f32).sqrt());
        let a1 = g.relu(scaled);
        let h1 = self.out1.forward(g, a1);
        let a2 = g.relu(h1);
        let out = self.out2.forward(g, a2); // [B, N, L, 1]
        g.reshape(out, &[b, n, l])
    }

    /// Evaluation-mode convenience: predict noise for concrete arrays,
    /// rebuilding the conditional prior in the same graph. The uncached
    /// reference evaluator; the reverse loop runs
    /// [`Self::predict_eps_eval_cached`] instead.
    pub fn predict_eps_eval(&self, noisy: &NdArray, cond: &NdArray, t: usize) -> NdArray {
        let b = noisy.shape()[0];
        let mut g = Graph::new_eval(&self.store);
        let noisy_tx = g.input(noisy.clone());
        let cond_tx = g.input(cond.clone());
        let steps = vec![t; b];
        let out = self.predict_eps(&mut g, noisy_tx, cond_tx, &steps);
        g.value(out).clone()
    }

    /// Materialise everything in the ε-prediction graph that does not depend
    /// on the diffusion step: the auxiliary embedding `U`, the replicated
    /// conditional input, and each layer's [`LayerPrior`] (prior-derived
    /// attention weights and adaptive adjacency).
    ///
    /// * `cond` — `[N, L]` conditional information of one window;
    /// * `n_samples` — the ensemble size the cache serves per step.
    ///
    /// The prior runs once at batch 1 and its batch-carrying outputs are
    /// repeated to `n_samples` rows — valid bitwise because every kernel in
    /// the model is batch-slice independent (each batch element's output
    /// depends only on its own slice; `crates/core/tests/prior_cache.rs`
    /// pins the cached chain against the uncached one).
    /// [`Self::predict_eps_eval_cached`] then runs only the step-dependent
    /// noise path per denoise step.
    pub fn build_prior_cache(&self, cond: &NdArray, n_samples: usize) -> PriorCache {
        let (n, l) = (self.n_nodes, self.len);
        assert!(n_samples > 0, "prior cache needs at least one sample");
        assert_eq!(cond.shape(), &[n, l], "cond shape mismatch");

        let mut g = Graph::new_eval(&self.store);
        let cond4_tx = g.input(cond.reshaped(&[1, n, l, 1]));
        let u_tx = self.aux.forward(&mut g);
        let repeat = |g: &Graph<'_>, w: Tx| repeat_batch(g.value(w), n_samples);
        let layers = self
            .layer_priors(&mut g, cond4_tx, u_tx, 1)
            .into_iter()
            .map(|p| LayerPrior {
                attn_tem: p.attn_tem.map(|w| repeat(&g, w)),
                attn_spa: p.attn_spa.map(|w| repeat(&g, w)),
                mpnn_adp: p.mpnn_adp.map(|a| g.value(a).clone()),
            })
            .collect();
        PriorCache {
            n_samples,
            cond4: repeat(&g, cond4_tx),
            u: g.value(u_tx).clone(),
            layers,
        }
    }

    /// Predict noise for concrete arrays against a [`PriorCache`]: one fresh
    /// eval graph holding only the step-dependent ops, with the cached
    /// tensors re-injected as tape inputs. Runs the same noise path as
    /// [`Self::predict_eps_eval`], so it is bitwise identical to it on the
    /// replicated conditional.
    ///
    /// `noisy` must be `[S, N, L]` with `S` the cache's sample count.
    pub fn predict_eps_eval_cached(&self, cache: &PriorCache, noisy: &NdArray, t: usize) -> NdArray {
        let (n, l) = (self.n_nodes, self.len);
        let b = cache.n_samples;
        assert_eq!(noisy.shape(), &[b, n, l], "noisy shape mismatch");

        let mut g = Graph::new_eval(&self.store);
        let noisy_tx = g.input(noisy.clone());
        let noisy4 = g.reshape(noisy_tx, &[b, n, l, 1]);
        let cond4 = g.input(cache.cond4.clone());
        let u = g.input(cache.u.clone());
        let mut input = |w: &Option<NdArray>| w.as_ref().map(|w| g.input(w.clone()));
        let priors: Vec<LayerPrior> = cache
            .layers
            .iter()
            .map(|p| LayerPrior {
                attn_tem: input(&p.attn_tem),
                attn_spa: input(&p.attn_spa),
                mpnn_adp: input(&p.mpnn_adp),
            })
            .collect();
        let out = self.noise_path(&mut g, cond4, noisy4, u, &priors, &vec![t; b]);
        g.value(out).clone()
    }
}

/// Step-invariant tensors for one window's ensemble, built by
/// [`PristiModel::build_prior_cache`] and consumed by
/// [`PristiModel::predict_eps_eval_cached`] at every reverse-diffusion step.
///
/// See DESIGN.md §11 for what is step-invariant in PriSTI and why, the memory
/// footprint, and the bitwise-equality argument.
#[derive(Debug, Clone)]
pub struct PriorCache {
    /// Ensemble rows the cache was repeated to.
    n_samples: usize,
    /// Conditional information repeated per sample, `[S, N, L, 1]`.
    cond4: NdArray,
    /// Auxiliary embedding `U`, `[N, L, d]` (broadcasts over the batch).
    u: NdArray,
    /// Per-layer prior tensors, attention weights repeated per sample.
    layers: Vec<LayerPrior<NdArray>>,
}

impl PriorCache {
    /// Ensemble rows this cache serves per step.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Approximate memory footprint of all cached tensors in bytes.
    pub fn bytes(&self) -> usize {
        let layers = self.layers.iter().flat_map(|p| [&p.attn_tem, &p.attn_spa, &p.mpnn_adp]);
        let numel: usize = [&self.cond4, &self.u]
            .into_iter()
            .chain(layers.flatten())
            .map(NdArray::numel)
            .sum();
        numel * std::mem::size_of::<f32>()
    }
}

/// Repeat a batch-1 tensor `s` times along its leading dimension.
fn repeat_batch(arr: &NdArray, s: usize) -> NdArray {
    let mut shape = arr.shape().to_vec();
    shape[0] *= s;
    NdArray::from_vec(&shape, arr.data().repeat(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use st_rand::StdRng;
    use st_rand::SeedableRng;
    use st_graph::random_plane_layout;

    fn graph(n: usize) -> SensorGraph {
        SensorGraph::from_coords(random_plane_layout(n, 20.0, 3), 0.1)
    }

    fn tiny_cfg() -> PristiConfig {
        let mut c = PristiConfig::small();
        c.d_model = 8;
        c.heads = 2;
        c.layers = 2;
        c.t_steps = 10;
        c.time_emb_dim = 8;
        c.node_emb_dim = 4;
        c.step_emb_dim = 8;
        c.virtual_nodes = 3;
        c.adaptive_dim = 2;
        c
    }

    #[test]
    fn forward_output_shape() {
        let mut rng = StdRng::seed_from_u64(60);
        let model = PristiModel::new(tiny_cfg(), &graph(5), 6, &mut rng).unwrap();
        let mut g = Graph::new(&model.store);
        let noisy = g.input(NdArray::randn(&[2, 5, 6], &mut rng));
        let cond = g.input(NdArray::randn(&[2, 5, 6], &mut rng));
        let out = model.predict_eps(&mut g, noisy, cond, &[3, 7]);
        assert_eq!(g.shape(out), &[2, 5, 6]);
    }

    #[test]
    fn untrained_head_outputs_are_bounded() {
        let mut rng = StdRng::seed_from_u64(61);
        let model = PristiModel::new(tiny_cfg(), &graph(4), 5, &mut rng).unwrap();
        let noisy = NdArray::randn(&[1, 4, 5], &mut rng);
        let cond = NdArray::randn(&[1, 4, 5], &mut rng);
        let out = model.predict_eps_eval(&noisy, &cond, 5);
        assert!(out.data().iter().all(|v| v.is_finite()));
        assert!(out.max_abs() < 50.0, "untrained output blew up: {}", out.max_abs());
    }

    #[test]
    fn all_variants_forward() {
        let mut rng = StdRng::seed_from_u64(62);
        for v in [
            ModelVariant::Pristi,
            ModelVariant::MixSti,
            ModelVariant::WithoutCondFeature,
            ModelVariant::WithoutSpatial,
            ModelVariant::WithoutTemporal,
            ModelVariant::WithoutMpnn,
            ModelVariant::WithoutAttention,
            ModelVariant::Csdi,
        ] {
            let cfg = tiny_cfg().with_variant(v);
            let model = PristiModel::new(cfg, &graph(4), 5, &mut rng).unwrap();
            let noisy = NdArray::randn(&[1, 4, 5], &mut rng);
            let cond = NdArray::randn(&[1, 4, 5], &mut rng);
            let out = model.predict_eps_eval(&noisy, &cond, 2);
            assert_eq!(out.shape(), &[1, 4, 5], "variant {v:?}");
        }
    }

    /// The cached evaluator must be bitwise identical to the plain one for
    /// every ablation variant — including the prior-free ones, where the
    /// attention weights cannot be cached and the cached path must fall back
    /// to self-attention — and across the per-sample repetition (S ≠ 1).
    #[test]
    fn cached_eval_matches_uncached_for_all_variants() {
        let mut rng = StdRng::seed_from_u64(65);
        for v in [
            ModelVariant::Pristi,
            ModelVariant::MixSti,
            ModelVariant::WithoutCondFeature,
            ModelVariant::WithoutSpatial,
            ModelVariant::WithoutTemporal,
            ModelVariant::WithoutMpnn,
            ModelVariant::WithoutAttention,
            ModelVariant::Csdi,
        ] {
            let cfg = tiny_cfg().with_variant(v);
            let model = PristiModel::new(cfg, &graph(4), 5, &mut rng).unwrap();
            let (n, l, s) = (4, 5, 3);
            let cond = NdArray::randn(&[n, l], &mut rng);
            let cond_b = NdArray::from_vec(&[s, n, l], cond.data().repeat(s));
            let noisy = NdArray::randn(&[s, n, l], &mut rng);
            let cache = model.build_prior_cache(&cond, s);
            for t in [1usize, 5] {
                let plain = model.predict_eps_eval(&noisy, &cond_b, t);
                let cached = model.predict_eps_eval_cached(&cache, &noisy, t);
                assert!(
                    plain.to_bytes() == cached.to_bytes(),
                    "cached eval diverges for variant {v:?} at t {t}"
                );
            }
        }
    }

    #[test]
    fn loss_backward_touches_most_params() {
        let mut rng = StdRng::seed_from_u64(63);
        let model = PristiModel::new(tiny_cfg(), &graph(4), 5, &mut rng).unwrap();
        let mut g = Graph::new(&model.store);
        let noisy = g.input(NdArray::randn(&[2, 4, 5], &mut rng));
        let cond = g.input(NdArray::randn(&[2, 4, 5], &mut rng));
        let out = model.predict_eps(&mut g, noisy, cond, &[1, 9]);
        let target = g.input(NdArray::randn(&[2, 4, 5], &mut rng));
        let mask = g.input(NdArray::ones(&[2, 4, 5]));
        let loss = g.mse_masked(out, target, mask);
        let grads = g.backward(loss);
        // out2 is zero-init so gradients through it are still defined; at
        // minimum the output head and several layer params must be touched.
        assert!(grads.get("out2.w").is_some());
        assert!(grads.get("out1.w").is_some());
        // The prior is built on the training tape, so the conditional
        // feature module must learn too.
        let cond_feat: Vec<&String> =
            model.store.iter().map(|(name, _)| name).filter(|n| n.starts_with("cond_feat.")).collect();
        assert!(!cond_feat.is_empty());
        for name in cond_feat {
            assert!(grads.get(name).is_some(), "no gradient for {name}");
        }
        let n_with_grad = grads.len();
        let n_params = model.store.len();
        assert!(
            n_with_grad * 2 >= n_params,
            "only {n_with_grad} of {n_params} parameter tensors received gradients"
        );
    }

    #[test]
    fn variant_param_counts_ordered() {
        let mut rng = StdRng::seed_from_u64(64);
        let full = PristiModel::new(tiny_cfg(), &graph(4), 5, &mut rng).unwrap();
        let wo_cf =
            PristiModel::new(tiny_cfg().with_variant(ModelVariant::WithoutCondFeature), &graph(4), 5, &mut rng).unwrap();
        let wo_spa =
            PristiModel::new(tiny_cfg().with_variant(ModelVariant::WithoutSpatial), &graph(4), 5, &mut rng).unwrap();
        assert!(full.n_params() > wo_cf.n_params());
        assert!(wo_cf.n_params() > wo_spa.n_params() || full.n_params() > wo_spa.n_params());
    }
}
