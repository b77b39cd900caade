//! Fault-injection suite: every way the service can fail under concurrent
//! load — backpressure races, graceful drain, a panicking denoise step — must
//! surface as a typed [`PristiError`], never a hang or an escaped panic.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{PristiConfig, PristiError, Sampler};
use st_data::dataset::Window;
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_serve::{AdmissionTier, ImputeRequest, ImputeService, ServeConfig};
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
        seed: 131,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 132);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: 133,
        ..Default::default()
    };
    let trained = train(&data, tiny_cfg(), &tc).unwrap();
    (data, trained)
}

fn request(id: u64, window: &Window) -> ImputeRequest {
    ImputeRequest {
        id,
        window: window.clone(),
        n_samples: 1,
        sampler: Sampler::Ddim { steps: 2, eta: 0.0 },
        tier: AdmissionTier::Interactive,
        deadline: None,
    }
}

/// Many clients racing a tiny queue: every submission resolves to exactly one
/// of the typed outcomes (success, QueueFull, Timeout), nothing hangs, and
/// the service still serves after the storm.
#[test]
fn concurrent_clients_race_backpressure_without_hangs() {
    let (data, trained) = trained_setup();
    let w = data.window_at(0, 12);
    let service = Arc::new(
        ImputeService::start(
            trained,
            ServeConfig {
                queue_capacity: 2,
                // Tight-but-real deadline so expiry is *possible* while
                // loaded, exercising the timeout path alongside QueueFull.
                default_deadline: Duration::from_millis(200),
                // Hold each request long enough that the 16-client burst
                // reliably overflows the 2-slot queue.
                fault_hook: Some(Arc::new(|_id: u64| {
                    std::thread::sleep(Duration::from_millis(30));
                })),
                ..Default::default()
            },
        )
        .unwrap(),
    );

    let handles: Vec<_> = (0..16u64)
        .map(|id| {
            let service = Arc::clone(&service);
            let w = w.clone();
            std::thread::spawn(move || service.submit(request(id, &w)))
        })
        .collect();
    let (mut ok, mut full, mut timeout) = (0, 0, 0);
    for h in handles {
        match h.join().expect("client must not panic") {
            Ok(res) => {
                assert_eq!(res.n_samples(), 1);
                ok += 1;
            }
            Err(PristiError::QueueFull { capacity: 2, shed: false, depth }) => {
                assert!(depth >= 2, "hard-capacity rejects report the observed depth");
                full += 1;
            }
            Err(PristiError::Timeout { .. }) => timeout += 1,
            Err(other) => panic!("unexpected outcome under load: {other}"),
        }
    }
    assert_eq!(ok + full + timeout, 16);
    assert!(ok >= 1, "the closed set of clients cannot be starved entirely");
    assert!(full >= 1, "16 clients against capacity 2 must overflow");

    // The storm leaves no residue: a fresh request is served normally.
    assert!(service.submit(request(99, &w)).is_ok());
}

/// A request racing a graceful drain gets a typed error (or its result),
/// never a hang: `shutdown` is callable through `&self` from another thread
/// while submitters are in flight.
#[test]
fn request_during_drain_gets_typed_error() {
    let (data, trained) = trained_setup();
    let w = data.window_at(0, 12);
    let service = Arc::new(ImputeService::start(trained, ServeConfig::default()).unwrap());

    let submitters: Vec<_> = (0..8u64)
        .map(|id| {
            let service = Arc::clone(&service);
            let w = w.clone();
            std::thread::spawn(move || service.submit(request(id, &w)))
        })
        .collect();
    let stopper = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.shutdown())
    };
    for h in submitters {
        match h.join().expect("submitter must not panic") {
            Ok(_) => {}
            Err(PristiError::ServiceStopped) => {}
            Err(other) => panic!("drain race must yield ServiceStopped, got: {other}"),
        }
    }
    stopper.join().expect("shutdown must not panic");
    // After the drain every further submission is rejected, typed.
    assert!(matches!(service.submit(request(100, &w)), Err(PristiError::ServiceStopped)));
}

/// A panicking denoise step (injected via the test-only fault hook) is
/// contained: that request and everything queued behind it get typed
/// [`PristiError::WorkerPanicked`] errors carrying the panic message, later
/// submissions are rejected, and `shutdown` still joins every worker.
#[test]
fn panicking_worker_is_contained_with_typed_errors() {
    let (data, trained) = trained_setup();
    let w = data.window_at(0, 12);
    let service = Arc::new(
        ImputeService::start(
            trained,
            ServeConfig {
                workers: 2,
                fault_hook: Some(Arc::new(|id: u64| {
                    if id == 666 {
                        panic!("injected denoise fault");
                    }
                })),
                ..Default::default()
            },
        )
        .unwrap(),
    );

    // Healthy traffic first: the hook is inert for other ids.
    assert!(service.submit(request(1, &w)).is_ok());

    let clients: Vec<_> = [666u64, 2, 3, 4]
        .into_iter()
        .map(|id| {
            let service = Arc::clone(&service);
            let w = w.clone();
            std::thread::spawn(move || (id, service.submit(request(id, &w))))
        })
        .collect();
    let mut poisoned_errors = 0;
    for h in clients {
        let (id, outcome) = h.join().expect("client must not panic");
        match outcome {
            Ok(_) => assert_ne!(id, 666, "the poisoned request cannot succeed"),
            Err(PristiError::WorkerPanicked(msg)) => {
                if id == 666 {
                    assert!(
                        msg.contains("injected denoise fault"),
                        "panic payload must reach the typed error, got: {msg}"
                    );
                }
                poisoned_errors += 1;
            }
            Err(PristiError::ServiceStopped) => {}
            Err(other) => panic!("request {id}: unexpected outcome {other}"),
        }
    }
    assert!(poisoned_errors >= 1, "at least the poisoned request fails typed");

    // The service is poisoned: new submissions are rejected, typed.
    match service.submit(request(7, &w)) {
        Err(PristiError::ServiceStopped) | Err(PristiError::WorkerPanicked(_)) => {}
        other => panic!("poisoned service must reject, got {other:?}"),
    }
    // And shutdown joins every worker instead of hanging on the dead one.
    service.shutdown();
}
