//! Checkpoint contract tests: save → load → impute is bitwise identical to
//! the in-memory model, and every class of damage surfaces as the right
//! typed error.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{
    impute, impute_batch, BatchItem, ImputeOptions, PristiConfig, PristiError, Sampler,
};
use st_data::dataset::Split;
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_rand::{SeedableRng, StdRng};
use st_serve::{checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint};
use std::path::PathBuf;

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

fn trained_setup() -> (st_data::SpatioTemporalDataset, pristi_core::TrainedModel) {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 8,
        n_days: 6,
        seed: 21,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 22);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 23,
        ..Default::default()
    };
    let trained = train(&data, tiny_cfg(), &tc).unwrap();
    (data, trained)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("st_serve_ckpt_{tag}_{}.bin", std::process::id()))
}

#[test]
fn round_trip_is_bitwise_identical_through_imputation() {
    let (data, trained) = trained_setup();
    let path = temp_path("roundtrip");
    save_checkpoint(&trained, &path).unwrap();
    let restored = load_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Every serialized piece round-trips exactly.
    assert_eq!(restored.model.store.to_bytes(), trained.model.store.to_bytes());
    assert_eq!(restored.schedule.betas(), trained.schedule.betas());
    assert_eq!(restored.normalizer.mean, trained.normalizer.mean);
    assert_eq!(restored.normalizer.std, trained.normalizer.std);
    assert_eq!(restored.epoch_losses, trained.epoch_losses);
    assert_eq!(restored.graph.adjacency, trained.graph.adjacency);

    // And the contract that matters: imputation through the restored model
    // is bit-for-bit the in-memory imputation, for both samplers.
    let w = &data.windows(Split::Test, 12, 12)[0];
    for sampler in [Sampler::Ddpm, Sampler::Ddim { steps: 4, eta: 0.0 }] {
        let opts = ImputeOptions { n_samples: 3, sampler };
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = impute(&trained, w, &opts, &mut r1).unwrap();
        let b = impute(&restored, w, &opts, &mut r2).unwrap();
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert!(x.to_bytes() == y.to_bytes(), "restored model diverges ({sampler:?})");
        }
    }
}

/// The prior-cached inference path through a restored checkpoint: building a
/// `PriorCache` from reloaded parameters must give bitwise the same ensembles
/// as the in-memory model's cached run (cached-vs-uncached equality is pinned
/// in `crates/core/tests/prior_cache.rs`).
#[test]
fn restored_checkpoint_cached_path_bitwise_identical() {
    let (data, trained) = trained_setup();
    let path = temp_path("cached");
    save_checkpoint(&trained, &path).unwrap();
    let restored = load_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let w = &data.windows(Split::Test, 12, 12)[0];
    for sampler in [Sampler::Ddpm, Sampler::Ddim { steps: 4, eta: 0.0 }] {
        let run = |tm: &pristi_core::TrainedModel| {
            let mut items =
                [BatchItem { window: w, n_samples: 3, rng: StdRng::seed_from_u64(41) }];
            let mut res = impute_batch(tm, &mut items, sampler).unwrap();
            res.pop().unwrap()
        };
        let mem_cached = run(&trained);
        let disk_cached = run(&restored);
        for (a, b) in mem_cached.samples.iter().zip(&disk_cached.samples) {
            assert!(
                a.to_bytes() == b.to_bytes(),
                "restored cached diverges from in-memory cached run ({sampler:?})"
            );
        }
    }
}

#[test]
fn corrupt_truncated_and_wrong_version_are_typed_errors() {
    let (_, trained) = trained_setup();
    let good = checkpoint_to_bytes(&trained);

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        checkpoint_from_bytes(&bad),
        Err(PristiError::CheckpointCorrupt(_))
    ));

    // Unknown version, reported with what was found.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        checkpoint_from_bytes(&bad),
        Err(PristiError::CheckpointVersionMismatch { found: 9, supported: 1 })
    ));

    // Flipped payload byte fails the checksum.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(
        checkpoint_from_bytes(&bad),
        Err(PristiError::CheckpointCorrupt(ref m)) if m.contains("checksum")
    ));

    // Truncation at any boundary is corruption, never a panic: chop the
    // file at a spread of lengths including mid-header and mid-payload.
    for cut in [0, 5, 12, 27, 28, 40, good.len() / 2, good.len() - 1] {
        match checkpoint_from_bytes(&good[..cut]) {
            Err(PristiError::CheckpointCorrupt(_)) => {}
            other => panic!("truncation at {cut} bytes gave {other:?}"),
        }
    }

    // Empty / garbage files.
    assert!(matches!(
        checkpoint_from_bytes(&[]),
        Err(PristiError::CheckpointCorrupt(_))
    ));
    assert!(matches!(
        checkpoint_from_bytes(&[0xAB; 64]),
        Err(PristiError::CheckpointCorrupt(_))
    ));

    // The pristine bytes still load (the mutations above were on copies).
    checkpoint_from_bytes(&good).unwrap();
}

#[test]
fn missing_file_is_io_error() {
    let err = load_checkpoint("/nonexistent-dir/model.ckpt").unwrap_err();
    assert!(matches!(err, PristiError::Io(_)));
}
