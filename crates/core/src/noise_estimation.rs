//! Noise estimation module (paper Eqs. 6–9 and Section III-B3).
//!
//! A *deep* stack of residual layers. Each layer:
//!
//! 1. adds a projected diffusion-step embedding to its input;
//! 2. `γ_T` — temporal attention whose Q/K come from the prior `H^pri`
//!    (Eq. 7) and values from the noisy hidden state;
//! 3. `γ_S = MLP(φ_SA(H^tem) + φ_MP(H^tem, A))` — spatial attention with
//!    prior-derived weights and virtual-node downsampling (Eqs. 8–9) plus
//!    message passing;
//! 4. a WaveNet-style gated activation, then a projection whose two halves
//!    become the residual connection (input of the next layer) and the skip
//!    connection (summed across layers into the output head).
//!
//! The ablation switches of Table VI (`w/o spa`, `w/o tem`, `w/o MPNN`,
//! `w/o Attn`, and prior-free attention for `w/o CF`/`mix-STI`/CSDI) are all
//! handled here.

use crate::cond_feature::shapes;
use crate::config::PristiConfig;
use st_rand::Rng;
use st_graph::SensorGraph;
use st_tensor::graph::{Graph, Tx};
use st_tensor::nn::{gated_activation, LayerNorm, Linear, Mlp, Mpnn, MultiHeadAttention};
use st_tensor::param::ParamStore;

/// The step-invariant, prior-derived tensors of one noise-estimation layer,
/// built by [`NoiseEstimationLayer::prior`] and consumed by
/// [`NoiseEstimationLayer::forward`].
///
/// PriSTI's attention *weights* are projected from the conditional prior
/// `H^pri` (Eqs. 7–8), which does not depend on the diffusion step, and the
/// adaptive MPNN adjacency depends only on learned node embeddings. Training
/// keeps all three on its tape (`T = Tx`, so gradients reach the prior and
/// the Q/K projections); inference materialises them once per window
/// (`T = NdArray`, held by [`crate::PriorCache`]) and re-injects them as
/// tape inputs at every reverse step. Fields are `None` exactly when the
/// corresponding sub-module is disabled by the configuration or (for
/// attention) runs prior-free self-attention, which reads the step-dependent
/// hidden state instead.
#[derive(Debug, Clone)]
pub struct LayerPrior<T = Tx> {
    /// Softmaxed temporal attention weights, `[(B·N)·heads, L, L]`.
    pub attn_tem: Option<T>,
    /// Softmaxed spatial attention weights, `[(B·L)·heads, N, k]` where `k`
    /// is the virtual-node count (or `N` without downsampling).
    pub attn_spa: Option<T>,
    /// Adaptive adjacency `softmax(relu(E₁E₂ᵀ))`, `[N, N]` (batch-free).
    pub mpnn_adp: Option<T>,
}

/// One residual layer of the noise estimation module.
#[derive(Debug, Clone)]
pub struct NoiseEstimationLayer {
    step_proj: Linear,
    attn_tem: Option<MultiHeadAttention>,
    attn_spa: Option<MultiHeadAttention>,
    norm_spa: Option<LayerNorm>,
    mpnn: Option<Mpnn>,
    norm_mp: Option<LayerNorm>,
    mlp_spa: Option<Mlp>,
    mid_proj: Linear,
    out_proj: Linear,
    use_prior: bool,
    d_model: usize,
}

impl NoiseEstimationLayer {
    /// Register one layer's parameters under `name`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        cfg: &PristiConfig,
        graph: &SensorGraph,
        rng: &mut R,
    ) -> Self {
        let d = cfg.d_model;
        let n = graph.n_nodes();
        let attn_tem = cfg
            .use_temporal
            .then(|| MultiHeadAttention::new(store, &format!("{name}.attn_tem"), d, cfg.heads, rng));
        let (attn_spa, norm_spa, mpnn, norm_mp, mlp_spa) = if cfg.use_spatial {
            let attn_spa = cfg.use_attention.then(|| {
                MultiHeadAttention::new_downsampled(
                    store,
                    &format!("{name}.attn_spa"),
                    d,
                    cfg.heads,
                    n,
                    cfg.virtual_nodes,
                    rng,
                )
            });
            let norm_spa =
                cfg.use_attention.then(|| LayerNorm::new(store, &format!("{name}.norm_spa"), d));
            let mpnn = cfg.use_mpnn.then(|| {
                let (fwd, bwd) = graph.transition_matrices();
                Mpnn::new(
                    store,
                    &format!("{name}.mpnn"),
                    d,
                    vec![fwd, bwd],
                    n,
                    cfg.mpnn_order,
                    cfg.adaptive_dim,
                    rng,
                )
            });
            let norm_mp =
                cfg.use_mpnn.then(|| LayerNorm::new(store, &format!("{name}.norm_mp"), d));
            let mlp_spa = Some(Mlp::new(store, &format!("{name}.mlp_spa"), d, d, d, rng));
            (attn_spa, norm_spa, mpnn, norm_mp, mlp_spa)
        } else {
            (None, None, None, None, None)
        };
        Self {
            step_proj: Linear::new(store, &format!("{name}.step_proj"), d, d, rng),
            attn_tem,
            attn_spa,
            norm_spa,
            mpnn,
            norm_mp,
            mlp_spa,
            mid_proj: Linear::new(store, &format!("{name}.mid_proj"), d, 2 * d, rng),
            out_proj: Linear::new(store, &format!("{name}.out_proj"), d, 2 * d, rng),
            use_prior: cfg.use_cond_feature,
            d_model: d,
        }
    }

    /// Build this layer's [`LayerPrior`] from the conditional prior `h_pri`
    /// (`[B, N, L, d]`, `None` for prior-free variants).
    pub fn prior(
        &self,
        g: &mut Graph<'_>,
        h_pri: Option<Tx>,
        b: usize,
        n: usize,
        l: usize,
    ) -> LayerPrior {
        let d = self.d_model;
        let pri = h_pri.filter(|_| self.use_prior);
        let attn_tem = self.attn_tem.as_ref().zip(pri).map(|(attn, pri)| {
            let pt = shapes::to_temporal(g, pri, b, n, l, d);
            attn.attention_weights(g, pt)
        });
        // Spatial attention only runs inside the `use_spatial` branch, which
        // `self.attn_spa.is_some()` already encodes.
        let attn_spa = self.attn_spa.as_ref().zip(pri).map(|(attn, pri)| {
            let ps = shapes::to_spatial(g, pri, b, n, l, d);
            attn.attention_weights(g, ps)
        });
        let mpnn_adp = self.mpnn.as_ref().and_then(|m| m.adaptive_adjacency(g));
        LayerPrior { attn_tem, attn_spa, mpnn_adp }
    }

    /// Run one layer.
    ///
    /// * `x` — layer input `[B, N, L, d]`;
    /// * `prior` — this layer's prior-derived tensors from [`Self::prior`]
    ///   (built on this tape, or injected from a cache);
    /// * `step_emb` — diffusion-step embedding `[B, d]`.
    ///
    /// Returns `(residual, skip)`, both `[B, N, L, d]`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph<'_>,
        x: Tx,
        prior: &LayerPrior,
        step_emb: Tx,
        b: usize,
        n: usize,
        l: usize,
    ) -> (Tx, Tx) {
        let d = self.d_model;
        // Add the step embedding, broadcast over nodes and time.
        let sp = self.step_proj.forward(g, step_emb);
        let sp4 = g.reshape(sp, &[b, 1, 1, d]);
        let mut y = g.add(x, sp4);

        // γ_T — temporal dependency learning (Eq. 6 first line): prior
        // weights, or self-attention for prior-free variants.
        if let Some(attn_tem) = &self.attn_tem {
            let yt = shapes::to_temporal(g, y, b, n, l, d);
            let out = match prior.attn_tem {
                Some(w) => attn_tem.forward_with_weights(g, w, yt),
                None => attn_tem.forward_self(g, yt),
            };
            y = shapes::from_temporal(g, out, b, n, l, d);
        }

        // γ_S — spatial dependency learning (Eq. 6 second line).
        if let Some(mlp_spa) = &self.mlp_spa {
            let ys = shapes::to_spatial(g, y, b, n, l, d);
            let mut parts: Vec<Tx> = Vec::with_capacity(2);
            if let (Some(attn_spa), Some(norm_spa)) = (&self.attn_spa, &self.norm_spa) {
                let out = match prior.attn_spa {
                    Some(w) => attn_spa.forward_with_weights(g, w, ys),
                    None => attn_spa.forward_self(g, ys),
                };
                let res = g.add(out, ys);
                parts.push(norm_spa.forward(g, res));
            }
            if let (Some(mpnn), Some(norm_mp)) = (&self.mpnn, &self.norm_mp) {
                let out = mpnn.forward_with_adaptive(g, ys, prior.mpnn_adp);
                let res = g.add(out, ys);
                parts.push(norm_mp.forward(g, res));
            }
            let combined = match parts.len() {
                2 => g.add(parts[0], parts[1]),
                1 => parts[0],
                _ => ys,
            };
            let sp_out = mlp_spa.forward(g, combined);
            y = shapes::from_spatial(g, sp_out, b, n, l, d);
        }

        // Gated activation + residual/skip split (DiffWave convention).
        let mid = self.mid_proj.forward(g, y);
        let gated = gated_activation(g, mid);
        let proj = self.out_proj.forward(g, gated);
        let res_half = g.slice_last(proj, 0, d);
        let skip = g.slice_last(proj, d, d);
        let residual = g.add_scale(x, res_half, std::f32::consts::FRAC_1_SQRT_2);
        (residual, skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelVariant, PristiConfig};
    use st_rand::StdRng;
    use st_rand::SeedableRng;
    use st_graph::random_plane_layout;
    use st_tensor::ndarray::NdArray;

    fn build(variant: ModelVariant, n: usize) -> (ParamStore, NoiseEstimationLayer, PristiConfig) {
        let mut rng = StdRng::seed_from_u64(50);
        let mut cfg = PristiConfig::small().with_variant(variant);
        cfg.virtual_nodes = 2; // exercise the Eq. 9 downsampling path in tests
        cfg.validate().unwrap();
        let graph = SensorGraph::from_coords(random_plane_layout(n, 20.0, 2), 0.1);
        let mut store = ParamStore::new();
        let layer = NoiseEstimationLayer::new(&mut store, "l0", &cfg, &graph, &mut rng);
        (store, layer, cfg)
    }

    fn run_layer(
        store: &ParamStore,
        layer: &NoiseEstimationLayer,
        with_prior: bool,
        b: usize,
        n: usize,
        l: usize,
        d: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(51);
        let mut g = Graph::new(store);
        let x = g.input(NdArray::randn(&[b, n, l, d], &mut rng));
        let pri = with_prior.then(|| g.input(NdArray::randn(&[b, n, l, d], &mut rng)));
        let se = g.input(NdArray::randn(&[b, d], &mut rng));
        let prior = layer.prior(&mut g, pri, b, n, l);
        let (res, skip) = layer.forward(&mut g, x, &prior, se, b, n, l);
        (g.shape(res).to_vec(), g.shape(skip).to_vec())
    }

    #[test]
    fn full_layer_shapes() {
        let (store, layer, cfg) = build(ModelVariant::Pristi, 5);
        let (r, s) = run_layer(&store, &layer, true, 2, 5, 6, cfg.d_model);
        assert_eq!(r, vec![2, 5, 6, cfg.d_model]);
        assert_eq!(s, vec![2, 5, 6, cfg.d_model]);
    }

    #[test]
    fn ablated_layers_still_run() {
        for v in [
            ModelVariant::WithoutSpatial,
            ModelVariant::WithoutTemporal,
            ModelVariant::WithoutMpnn,
            ModelVariant::WithoutAttention,
            ModelVariant::MixSti,
            ModelVariant::Csdi,
        ] {
            let (store, layer, cfg) = build(v, 4);
            let with_prior = cfg.use_cond_feature;
            let (r, _) = run_layer(&store, &layer, with_prior, 1, 4, 5, cfg.d_model);
            assert_eq!(r, vec![1, 4, 5, cfg.d_model], "variant {v:?}");
        }
    }

    #[test]
    fn without_spatial_registers_no_spatial_params() {
        let (store, _, _) = build(ModelVariant::WithoutSpatial, 4);
        assert!(!store.contains("l0.attn_spa.wq.w"));
        assert!(!store.contains("l0.mpnn.proj.w"));
        assert!(store.contains("l0.attn_tem.wq.w"));
    }

    #[test]
    fn without_mpnn_keeps_attention() {
        let (store, _, _) = build(ModelVariant::WithoutMpnn, 4);
        assert!(store.contains("l0.attn_spa.wq.w"));
        assert!(!store.contains("l0.mpnn.proj.w"));
    }

    #[test]
    fn prior_changes_output() {
        let (store, layer, cfg) = build(ModelVariant::Pristi, 4);
        let d = cfg.d_model;
        let mut rng = StdRng::seed_from_u64(52);
        let x_val = NdArray::randn(&[1, 4, 5, d], &mut rng);
        let se_val = NdArray::randn(&[1, d], &mut rng);
        let p1 = NdArray::randn(&[1, 4, 5, d], &mut rng);
        let p2 = NdArray::randn(&[1, 4, 5, d], &mut rng);
        let run = |pri_val: &NdArray| -> Vec<f32> {
            let mut g = Graph::new(&store);
            let x = g.input(x_val.clone());
            let pri = g.input(pri_val.clone());
            let se = g.input(se_val.clone());
            let prior = layer.prior(&mut g, Some(pri), 1, 4, 5);
            let (res, _) = layer.forward(&mut g, x, &prior, se, 1, 4, 5);
            g.value(res).data().to_vec()
        };
        let o1 = run(&p1);
        let o2 = run(&p2);
        let diff: f32 = o1.iter().zip(&o2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "prior should influence the layer output");
    }

    #[test]
    fn gradients_reach_all_active_components() {
        let (store, layer, cfg) = build(ModelVariant::Pristi, 4);
        let d = cfg.d_model;
        let mut rng = StdRng::seed_from_u64(53);
        let mut g = Graph::new(&store);
        let x = g.input(NdArray::randn(&[1, 4, 5, d], &mut rng));
        let pri = g.input(NdArray::randn(&[1, 4, 5, d], &mut rng));
        let se = g.input(NdArray::randn(&[1, d], &mut rng));
        let prior = layer.prior(&mut g, Some(pri), 1, 4, 5);
        let (res, skip) = layer.forward(&mut g, x, &prior, se, 1, 4, 5);
        let total = g.add(res, skip);
        let t = g.input(NdArray::zeros(&[1, 4, 5, d]));
        let m = g.input(NdArray::ones(&[1, 4, 5, d]));
        let loss = g.mse_masked(total, t, m);
        let grads = g.backward(loss);
        for p in [
            "l0.step_proj.w",
            "l0.attn_tem.wq.w",
            "l0.attn_tem.wk.w",
            "l0.attn_tem.wv.w",
            "l0.attn_spa.wk.w",
            "l0.attn_spa.wv.w",
            "l0.attn_spa.pk",
            "l0.mpnn.proj.w",
            "l0.mpnn.e1",
            "l0.mpnn.e2",
            "l0.mlp_spa.l1.w",
            "l0.mid_proj.w",
            "l0.out_proj.w",
        ] {
            assert!(grads.get(p).is_some(), "no gradient for {p}");
        }
    }
}
