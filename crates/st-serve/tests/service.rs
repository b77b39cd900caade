//! Service contract tests: concurrent load through the worker pool returns
//! bit-for-bit the same samples as direct `impute` calls, and the failure
//! modes (full queue, missed deadline, malformed request, shutdown) are
//! typed errors.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{impute, ImputeOptions, PristiConfig, PristiError, Sampler};
use st_data::dataset::{Split, Window};
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_serve::{request_rng, AdmissionTier, ImputeRequest, ImputeService, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

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
        seed: 31,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 32);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 33,
        ..Default::default()
    };
    let trained = train(&data, tiny_cfg(), &tc).unwrap();
    (data, trained)
}

fn request(id: u64, window: &Window, n_samples: usize) -> ImputeRequest {
    ImputeRequest {
        id,
        window: window.clone(),
        n_samples,
        sampler: Sampler::Ddpm,
        tier: AdmissionTier::Interactive,
        deadline: None,
    }
}

/// The tentpole contract: many clients hammering the service concurrently
/// (queueing behind each other) each get bit-for-bit the samples a
/// direct `impute` call with their request's RNG stream produces.
#[test]
fn concurrent_batched_serving_is_bitwise_deterministic() {
    let (data, trained) = trained_setup();
    let windows = data.windows(Split::Test, 12, 12);
    let base_seed = 77;

    // Direct references, computed before the service takes the model.
    let expected: Vec<Vec<Vec<u8>>> = (0..8u64)
        .map(|id| {
            let w = &windows[id as usize % windows.len()];
            let mut rng = request_rng(base_seed, id);
            let res = impute(
                &trained,
                w,
                &ImputeOptions { n_samples: 1 + (id as usize % 3), sampler: Sampler::Ddpm },
                &mut rng,
            )
            .unwrap();
            res.samples.iter().map(|s| s.to_bytes()).collect()
        })
        .collect();

    let service = Arc::new(
        ImputeService::start(
            trained,
            ServeConfig { base_seed, ..Default::default() },
        )
        .unwrap(),
    );

    let handles: Vec<_> = (0..8u64)
        .map(|id| {
            let service = Arc::clone(&service);
            let w = windows[id as usize % windows.len()].clone();
            std::thread::spawn(move || {
                let res = service.submit(request(id, &w, 1 + (id as usize % 3))).unwrap();
                (id, res.samples.iter().map(|s| s.to_bytes()).collect::<Vec<_>>())
            })
        })
        .collect();
    for h in handles {
        let (id, got) = h.join().unwrap();
        assert_eq!(
            got, expected[id as usize],
            "request {id}: batched service result diverges from direct impute"
        );
    }
}

/// Same request id → same bytes, across service instances and repeat
/// submissions (the id keys the RNG stream; queue position is irrelevant).
#[test]
fn resubmitting_an_id_reproduces_the_response() {
    let (data, trained) = trained_setup();
    let w = &data.windows(Split::Test, 12, 12)[0];
    let service =
        ImputeService::start(trained, ServeConfig { base_seed: 5, ..Default::default() }).unwrap();
    let a = service.submit(request(42, w, 2)).unwrap();
    let b = service.submit(request(42, w, 2)).unwrap();
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert!(x.to_bytes() == y.to_bytes());
    }
}

#[test]
fn failure_modes_are_typed_errors() {
    let (data, trained) = trained_setup();
    let w = &data.windows(Split::Test, 12, 12)[0];

    // Zero-capacity queue: deterministic QueueFull on every submit.
    {
        let (_, trained) = trained_setup();
        let service = ImputeService::start(
            trained,
            ServeConfig { queue_capacity: 0, ..Default::default() },
        )
        .unwrap();
        assert!(matches!(
            service.submit(request(1, w, 2)),
            Err(PristiError::QueueFull { capacity: 0, depth: 0, shed: false })
        ));
    }

    // Shed threshold of zero: deterministic load-shed for best-effort
    // requests (shed: true distinguishes it from hard capacity), while
    // interactive requests are still admitted and served.
    {
        let (_, trained) = trained_setup();
        let service = ImputeService::start(
            trained,
            ServeConfig { shed_threshold: 0, ..Default::default() },
        )
        .unwrap();
        let mut best_effort = request(7, w, 2);
        best_effort.tier = AdmissionTier::BestEffort;
        assert!(matches!(
            service.submit(best_effort),
            Err(PristiError::QueueFull { depth: 0, shed: true, .. })
        ));
        assert_eq!(service.submit(request(8, w, 2)).unwrap().n_samples(), 2);
    }

    // Zero deadline: deterministic Timeout (the worker always finds the
    // request expired at dequeue).
    {
        let (_, trained) = trained_setup();
        let service = ImputeService::start(trained, ServeConfig::default()).unwrap();
        let mut req = request(2, w, 2);
        req.deadline = Some(Duration::ZERO);
        assert!(matches!(service.submit(req), Err(PristiError::Timeout { .. })));
    }

    // Malformed requests fail fast, before queuing.
    {
        let service = ImputeService::start(trained, ServeConfig::default()).unwrap();
        assert!(matches!(
            service.submit(request(3, w, 0)),
            Err(PristiError::DegenerateConfig(_))
        ));
        let mut bad = request(4, w, 2);
        bad.sampler = Sampler::Ddim { steps: 0, eta: 0.0 };
        assert!(matches!(service.submit(bad), Err(PristiError::DegenerateConfig(_))));
        let short = data.window_at(0, 6);
        assert!(matches!(
            service.submit(request(5, &short, 2)),
            Err(PristiError::ShapeMismatch { what: "window length", .. })
        ));
        // A healthy request still succeeds after the rejects.
        assert_eq!(service.submit(request(6, w, 2)).unwrap().n_samples(), 2);
    }

    // A degenerate service config is rejected at start.
    {
        let (_, trained) = trained_setup();
        assert!(matches!(
            ImputeService::start(trained, ServeConfig { workers: 0, ..Default::default() }),
            Err(PristiError::DegenerateConfig(_))
        ));
    }
}

/// Concurrent requests spread across every solver family: every response is
/// still bit-for-bit the solo `impute` result for that request's RNG stream.
#[test]
fn mixed_solver_traffic_is_bitwise_deterministic() {
    let (data, trained) = trained_setup();
    let windows = data.windows(Split::Test, 12, 12);
    let base_seed = 55;
    let samplers = [
        Sampler::Ddpm,
        Sampler::Ddim { steps: 4, eta: 0.0 },
        Sampler::Pndm { steps: 4, order: 4 },
        Sampler::Refine { steps: 3, strength: 0.5 },
    ];

    let expected: Vec<Vec<Vec<u8>>> = (0..12u64)
        .map(|id| {
            let w = &windows[id as usize % windows.len()];
            let mut rng = request_rng(base_seed, id);
            let res = impute(
                &trained,
                w,
                &ImputeOptions {
                    n_samples: 1 + (id as usize % 3),
                    sampler: samplers[id as usize % samplers.len()],
                },
                &mut rng,
            )
            .unwrap();
            res.samples.iter().map(|s| s.to_bytes()).collect()
        })
        .collect();

    let service = Arc::new(
        ImputeService::start(
            trained,
            ServeConfig { base_seed, ..Default::default() },
        )
        .unwrap(),
    );
    let handles: Vec<_> = (0..12u64)
        .map(|id| {
            let service = Arc::clone(&service);
            let w = windows[id as usize % windows.len()].clone();
            let sampler = samplers[id as usize % samplers.len()];
            std::thread::spawn(move || {
                let mut req = request(id, &w, 1 + (id as usize % 3));
                req.sampler = sampler;
                let res = service.submit(req).unwrap();
                (id, res.samples.iter().map(|s| s.to_bytes()).collect::<Vec<_>>())
            })
        })
        .collect();
    for h in handles {
        let (id, got) = h.join().unwrap();
        assert_eq!(
            got, expected[id as usize],
            "request {id}: mixed-solver batched result diverges from solo impute"
        );
    }
}

/// DDIM requests round-trip through the service.
#[test]
fn ddim_requests_round_trip_through_the_service() {
    let (data, trained) = trained_setup();
    let w = &data.windows(Split::Test, 12, 12)[0];
    let base_seed = 11;
    let sampler = Sampler::Ddim { steps: 4, eta: 0.5 };
    let expected = {
        let mut rng = request_rng(base_seed, 9);
        impute(&trained, w, &ImputeOptions { n_samples: 2, sampler }, &mut rng).unwrap()
    };
    let service =
        ImputeService::start(trained, ServeConfig { base_seed, ..Default::default() }).unwrap();
    let mut req = request(9, w, 2);
    req.sampler = sampler;
    let got = service.submit(req).unwrap();
    for (x, y) in expected.samples.iter().zip(&got.samples) {
        assert!(x.to_bytes() == y.to_bytes());
    }
}
