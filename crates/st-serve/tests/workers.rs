//! Worker-count invariance: the replica pool is bitwise invisible. The same
//! request set must produce identical bytes with 1, 2, or 4 workers, at 1 or
//! 4 `st-par` threads — enabled by per-request RNG streams
//! ([`st_serve::request_rng`]), whose pairwise disjointness the property
//! tests pin over a sampled prefix.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{PristiConfig, Sampler};
use st_check::prelude::*;
use st_data::dataset::{Split, Window};
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_rand::RngCore;
use st_serve::{
    checkpoint_from_bytes, checkpoint_to_bytes, request_rng, AdmissionTier, ImputeRequest,
    ImputeService, ServeConfig,
};
use std::sync::Arc;

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

/// Serve 8 concurrent requests and return each response's sample bytes,
/// indexed by request id.
fn serve_all(ckpt: &[u8], workers: usize, windows: &[Window], base_seed: u64) -> Vec<Vec<Vec<u8>>> {
    let trained = checkpoint_from_bytes(ckpt).unwrap();
    let service = Arc::new(
        ImputeService::start(
            trained,
            ServeConfig { workers, base_seed, ..Default::default() },
        )
        .unwrap(),
    );
    let handles: Vec<_> = (0..8u64)
        .map(|id| {
            let service = Arc::clone(&service);
            let w = windows[id as usize % windows.len()].clone();
            std::thread::spawn(move || {
                let res = service
                    .submit(ImputeRequest {
                        id,
                        window: w,
                        n_samples: 1 + (id as usize % 3),
                        sampler: Sampler::Ddpm,
                        tier: AdmissionTier::Interactive,
                        deadline: None,
                    })
                    .unwrap();
                (id, res.samples.iter().map(|s| s.to_bytes()).collect::<Vec<_>>())
            })
        })
        .collect();
    let mut out = vec![Vec::new(); 8];
    for h in handles {
        let (id, bytes) = h.join().unwrap();
        out[id as usize] = bytes;
    }
    out
}

/// The tentpole invariant: every (worker count, thread count) combination
/// answers the identical request set with identical bytes. One test iterates
/// the full grid because `st_par::set_threads` is process-global.
#[test]
fn worker_count_and_thread_count_are_bitwise_invisible() {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 8,
        n_days: 6,
        seed: 311,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 312);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 313,
        ..Default::default()
    };
    let trained = train(&data, tiny_cfg(), &tc).unwrap();
    // The only supported model clone is the checkpoint byte round-trip
    // (bit-exact), so every service below runs the same weights.
    let ckpt = checkpoint_to_bytes(&trained);
    let windows = data.windows(Split::Test, 12, 12);
    let base_seed = 42;

    let reference = serve_all(&ckpt, 1, &windows, base_seed);
    for threads in [1usize, 4] {
        st_par::set_threads(threads);
        for workers in [1usize, 2, 4] {
            let got = serve_all(&ckpt, workers, &windows, base_seed);
            assert_eq!(
                got, reference,
                "workers={workers} threads={threads} diverges from the single-worker reference"
            );
        }
    }
    st_par::set_threads(0);
}

properties! {
    /// Distinct request ids get disjoint RNG streams: the first 16 outputs
    /// never coincide entirely (a shared stream would correlate two
    /// requests' noise — the failure mode that would make worker counts
    /// *visible*). Sampled over ids near and far apart and arbitrary seeds.
    #[test]
    fn distinct_ids_get_disjoint_streams(base_seed in 0u64..u64::MAX, a in 0u64..1_000_000, delta in 1u64..1_000_000) {
        let b = a.wrapping_add(delta);
        let mut ra = request_rng(base_seed, a);
        let mut rb = request_rng(base_seed, b);
        let mut all_equal = true;
        for _ in 0..16 {
            if ra.next_u64() != rb.next_u64() {
                all_equal = false;
                break;
            }
        }
        prop_assert!(!all_equal, "ids {a} and {b} share a stream under seed {base_seed}");
    }

    /// The stream is a pure function of `(base_seed, id)`: recomputing it
    /// replays the identical prefix (resubmission determinism).
    #[test]
    fn same_id_replays_the_same_stream(base_seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        let mut ra = request_rng(base_seed, id);
        let mut rb = request_rng(base_seed, id);
        for _ in 0..16 {
            prop_assert_eq!(ra.next_u64(), rb.next_u64());
        }
    }
}
