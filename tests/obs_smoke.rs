//! End-to-end observability smoke test: install a global `st-obs` recorder,
//! run a tiny train + impute pipeline, and validate the resulting JSONL
//! telemetry stream — schema, parseability, span coverage, op-kind coverage,
//! wall-clock attribution, and (timing aside) byte-for-byte determinism.
//!
//! The recorder is process-global, so every test here serialises behind one
//! mutex; this file is its own test binary, so other test processes are
//! unaffected (no recorder is installed there, and the disabled fast path is
//! inert).

use pristi_suite::pristi_core::train::{train, MaskStrategyKind, TrainConfig};
use pristi_suite::pristi_core::{impute, ImputeOptions, PristiConfig, Sampler, TrainedModel};
use pristi_suite::st_data::generators::{generate_air_quality, AirQualityConfig};
use pristi_suite::st_data::missing::inject_point_missing;
use pristi_suite::st_data::SpatioTemporalDataset;
use st_obs::json::Json;
use st_rand::SeedableRng;
use st_rand::StdRng;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serialise every test in this binary: the st-obs recorder is process-global.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_cfg() -> PristiConfig {
    let mut c = PristiConfig::small();
    c.d_model = 8;
    c.heads = 2;
    c.layers = 1;
    c.t_steps = 8;
    c.time_emb_dim = 8;
    c.node_emb_dim = 4;
    c.step_emb_dim = 8;
    c.virtual_nodes = 2;
    c.adaptive_dim = 2;
    c
}

fn tiny_dataset() -> SpatioTemporalDataset {
    let mut d = generate_air_quality(&AirQualityConfig {
        n_nodes: 5,
        n_days: 4,
        seed: 7,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    d.eval_mask = inject_point_missing(&d.observed_mask, 0.2, 8);
    d
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 2,
        lr: 1e-3,
        window_len: 8,
        window_stride: 8,
        strategy: MaskStrategyKind::Point,
        seed: 42,
        ..Default::default()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pristi_obs_smoke_{tag}_{}.jsonl", std::process::id()))
}

/// Train + impute one window under an installed recorder writing to `path`.
/// Returns `(line count after the post-train flush, trained model)` so
/// callers can split the stream into a train part and an impute part.
fn run_recorded(path: &PathBuf) -> (usize, TrainedModel) {
    run_recorded_with_threads(path, 0)
}

/// [`run_recorded`] with an explicit `st-par` pool size (`TrainConfig::
/// threads`, which `train` applies process-wide — the imputation after it
/// runs at the same setting).
fn run_recorded_with_threads(path: &PathBuf, threads: usize) -> (usize, TrainedModel) {
    let data = tiny_dataset();
    let guard = st_obs::install(vec![Box::new(st_obs::JsonlSink::create(path).unwrap())]);
    let trained = train(&data, tiny_cfg(), &TrainConfig { threads, ..train_cfg() }).unwrap();
    // Aggregated op stats are emitted as deltas at each flush: everything up
    // to this line count is training telemetry, the rest is imputation.
    st_obs::flush();
    let train_lines = std::fs::read_to_string(path).unwrap().lines().count();
    let w = data.window_at(0, 8);
    let mut rng = StdRng::seed_from_u64(9);
    let _ = impute(
        &trained,
        &w,
        &ImputeOptions { n_samples: 4, sampler: Sampler::Ddpm },
        &mut rng,
    )
    .unwrap();
    drop(guard);
    (train_lines, trained)
}

fn parse_lines(path: &PathBuf) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| st_obs::json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect()
}

fn str_field<'a>(e: &'a Json, key: &str) -> &'a str {
    e.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key:?} in {e:?}"))
}

#[test]
fn telemetry_stream_covers_the_whole_pipeline() {
    let _g = lock();
    let path = temp_path("coverage");
    let (train_lines, _) = run_recorded(&path);
    let events = parse_lines(&path);
    assert!(train_lines > 1 && train_lines < events.len(), "flush split point must be interior");

    // Header first, schema-versioned.
    assert_eq!(str_field(&events[0], "ev"), "header");
    assert_eq!(str_field(&events[0], "schema"), st_obs::SCHEMA);

    // Monotonic relative timestamps over the whole stream.
    let mut last = 0u64;
    for e in &events {
        let t = e.get("t_ns").and_then(Json::as_u64).expect("t_ns on every event");
        assert!(t >= last, "t_ns must be monotonic");
        last = t;
    }

    // Epoch events: one per epoch, strictly increasing epoch numbers, sane fields.
    let epochs: Vec<&Json> = events.iter().filter(|e| str_field(e, "ev") == "epoch").collect();
    assert_eq!(epochs.len(), train_cfg().epochs, "one epoch event per epoch");
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.get("epoch").and_then(Json::as_u64), Some(i as u64));
        let loss = e.get("loss").and_then(Json::as_f64).expect("loss field");
        assert!(loss.is_finite() && loss > 0.0, "epoch {i} loss {loss}");
        assert!(e.get("grad_norm").and_then(Json::as_f64).expect("grad_norm") > 0.0);
        assert!(e.get("lr").and_then(Json::as_f64).expect("lr") > 0.0);
        assert!(e.get("wps").and_then(Json::as_f64).expect("wps") > 0.0);
    }

    // Span coverage: every level of the stack shows up, with nested paths.
    let span_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| str_field(e, "ev") == "span")
        .map(|e| str_field(e, "name"))
        .collect();
    for name in [
        "train", "epoch", "train_step", "batch_prep", "forward", "backward", "optimizer",
        "impute", "denoise_step",
    ] {
        assert!(span_names.contains(name), "missing span {name:?}; saw {span_names:?}");
    }
    assert!(
        events.iter().any(|e| str_field(e, "ev") == "span"
            && str_field(e, "path") == "train/epoch/train_step/forward"),
        "span paths must nest"
    );

    // Op-kind coverage: every expected (phase, kind) pair appears at least once.
    let op_keys: std::collections::BTreeSet<(String, String)> = events
        .iter()
        .filter(|e| str_field(e, "ev") == "op")
        .map(|e| (str_field(e, "phase").to_string(), str_field(e, "kind").to_string()))
        .collect();
    let expect_fwd = [
        "input", "param", "add", "scale", "matmul", "batch_matmul", "batch_matmul_transb",
        "shared_left_matmul", "permute", "reshape", "concat_last", "softmax_last", "relu",
        "mse_masked", "attention_qk", "mpnn", "q_sample", "p_sample_step",
    ];
    for kind in expect_fwd {
        assert!(
            op_keys.contains(&("fwd".to_string(), kind.to_string())),
            "missing fwd op kind {kind:?}; saw {op_keys:?}"
        );
    }
    for kind in ["add", "batch_matmul", "softmax_last", "relu", "mse_masked"] {
        assert!(
            op_keys.contains(&("bwd".to_string(), kind.to_string())),
            "missing bwd op kind {kind:?}"
        );
    }
    for kind in ["adam_step", "clip_grad_norm"] {
        assert!(
            op_keys.contains(&("opt".to_string(), kind.to_string())),
            "missing opt op kind {kind:?}"
        );
    }

    // Every op aggregate carries calls and element counts.
    for e in events.iter().filter(|e| str_field(e, "ev") == "op") {
        assert!(e.get("calls").and_then(Json::as_u64).expect("calls") > 0);
        assert!(e.get("elements").and_then(Json::as_u64).is_some());
    }

    // st-obs/2 span tree: unique sids, self time bounded by duration, and
    // every `parent` id refers to a span that was actually emitted.
    let mut sids = std::collections::BTreeSet::new();
    for e in events.iter().filter(|e| str_field(e, "ev") == "span") {
        let sid = e.get("sid").and_then(Json::as_u64).expect("sid on every span");
        assert!(sids.insert(sid), "duplicate span id {sid}");
        let dur = e.get("dur_ns").and_then(Json::as_u64).expect("dur_ns");
        let self_ns = e.get("self_ns").and_then(Json::as_u64).expect("self_ns");
        assert!(self_ns <= dur, "self_ns {self_ns} > dur_ns {dur}");
    }
    for e in events.iter().filter(|e| str_field(e, "ev") == "span") {
        if let Some(parent) = e.get("parent").and_then(Json::as_u64) {
            assert!(sids.contains(&parent), "span parent {parent} never emitted");
        }
    }

    let _ = std::fs::remove_file(&path);
}

/// The aggregated per-op timings must explain the bulk of the wall-clock the
/// forward / backward / optimizer spans measure. The composite kinds
/// (`attention_qk`, `mpnn`) deliberately overlap the primitives inside them,
/// so they are excluded from the attribution sum. The bound here is
/// conservative (tiny tensors make tape bookkeeping relatively expensive and
/// CI machines are noisy); at realistic model sizes attribution is ≥ 90 %.
#[test]
fn op_timings_attribute_span_wall_clock() {
    let _g = lock();
    let path = temp_path("attribution");
    let (train_lines, _) = run_recorded(&path);
    let events = parse_lines(&path);
    let train_events = &events[..train_lines];

    let span_ns: u64 = train_events
        .iter()
        .filter(|e| str_field(e, "ev") == "span")
        .filter(|e| {
            let p = str_field(e, "path");
            p.ends_with("/forward") || p.ends_with("/backward") || p.ends_with("/optimizer")
        })
        .map(|e| e.get("dur_ns").and_then(Json::as_u64).expect("dur_ns"))
        .sum();
    let op_ns: u64 = train_events
        .iter()
        .filter(|e| str_field(e, "ev") == "op")
        .filter(|e| !matches!(str_field(e, "kind"), "attention_qk" | "mpnn" | "q_sample"))
        .map(|e| e.get("total_ns").and_then(Json::as_u64).expect("total_ns"))
        .sum();
    assert!(span_ns > 0, "forward/backward/optimizer spans must be measured");
    let ratio = op_ns as f64 / span_ns as f64;
    assert!(
        ratio > 0.5,
        "op timings attribute only {:.1}% of fwd/bwd/opt span wall-clock",
        100.0 * ratio
    );

    let _ = std::fs::remove_file(&path);
}

/// Two same-seed recorded runs must produce byte-identical streams once the
/// timing fields (`*_ns`, `wps`) are stripped: event order, counts, losses,
/// op aggregates and element totals are all deterministic.
#[test]
fn same_seed_streams_identical_after_timing_strip() {
    let _g = lock();
    let p1 = temp_path("det_a");
    let p2 = temp_path("det_b");
    run_recorded(&p1);
    run_recorded(&p2);
    let a = std::fs::read_to_string(&p1).unwrap();
    let b = std::fs::read_to_string(&p2).unwrap();
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    assert_eq!(a_lines.len(), b_lines.len(), "same-seed runs must emit the same event count");
    for (i, (x, y)) in a_lines.iter().zip(&b_lines).enumerate() {
        let sx = st_obs::strip_timing(x).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let sy = st_obs::strip_timing(y).unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert_eq!(sx, sy, "line {i} differs after timing strip:\nA: {x}\nB: {y}");
    }
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

/// The stripped stream must be invariant not just across same-seed runs but
/// across `st-par` pool sizes: telemetry is aggregated and flushed in sorted
/// order precisely so that 1-thread and 4-thread runs emit the same events
/// in the same order (only the values inside timing fields may differ).
#[test]
fn streams_identical_across_thread_counts_after_timing_strip() {
    let _g = lock();
    let p1 = temp_path("thr1");
    let p4 = temp_path("thr4");
    run_recorded_with_threads(&p1, 1);
    run_recorded_with_threads(&p4, 4);
    let a = std::fs::read_to_string(&p1).unwrap();
    let b = std::fs::read_to_string(&p4).unwrap();
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    assert_eq!(
        a_lines.len(),
        b_lines.len(),
        "1-thread and 4-thread runs must emit the same event count"
    );
    for (i, (x, y)) in a_lines.iter().zip(&b_lines).enumerate() {
        let sx = st_obs::strip_timing(x).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let sy = st_obs::strip_timing(y).unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert_eq!(sx, sy, "line {i} differs across thread counts:\n1: {x}\n4: {y}");
    }
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p4);
}

/// Request-scoped tracing through the serving stack: each request is served
/// in its own `serve_batch` span (found by its `request` field) under the
/// unique trace id allocated at submission, and the `denoise_step` spans of
/// its imputation carry the same id.
#[test]
fn serve_requests_carry_trace_ids_into_denoise_steps() {
    let _g = lock();
    let data = tiny_dataset();
    let trained = train(&data, tiny_cfg(), &train_cfg()).unwrap();
    let path = temp_path("serve_trace");
    {
        let _guard = st_obs::install(vec![Box::new(st_obs::JsonlSink::create(&path).unwrap())]);
        let service = st_serve::ImputeService::start(
            trained,
            st_serve::ServeConfig { workers: 1, base_seed: 3, ..Default::default() },
        )
        .unwrap();
        for id in [5001u64, 5002] {
            let w = data.window_at(0, 8);
            service
                .submit(st_serve::ImputeRequest {
                    id,
                    window: w,
                    n_samples: 2,
                    sampler: Sampler::Ddpm,
                    tier: st_serve::AdmissionTier::Interactive,
                    deadline: None,
                })
                .unwrap();
        }
        service.shutdown();
    }
    let events = parse_lines(&path);

    let spans_named = |name: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| str_field(e, "ev") == "span" && str_field(e, "name") == name)
            .collect()
    };
    let mut request_traces = std::collections::BTreeSet::new();
    for id in [5001u64, 5002] {
        let batch_spans: Vec<&Json> = spans_named("serve_batch")
            .into_iter()
            .filter(|s| s.get("request").and_then(Json::as_u64) == Some(id))
            .collect();
        assert_eq!(batch_spans.len(), 1, "exactly one serve_batch span per request");
        let trace = batch_spans[0].get("trace").and_then(Json::as_u64).expect("request trace id");
        assert!(request_traces.insert(trace), "request trace ids must be unique");
        let denoise_in_request = spans_named("denoise_step")
            .iter()
            .any(|s| s.get("trace").and_then(Json::as_u64) == Some(trace));
        assert!(denoise_in_request, "denoise_step spans must carry the request trace id");
    }
    let _ = std::fs::remove_file(&path);
}

/// With no recorder installed, training must run exactly as before — the
/// disabled fast path must not change results (guards the "near-zero overhead
/// when disabled" contract at the behavioural level).
#[test]
fn disabled_recorder_changes_nothing() {
    let _g = lock();
    let data = tiny_dataset();
    assert!(!st_obs::is_enabled());
    let quiet = train(&data, tiny_cfg(), &train_cfg()).unwrap();
    let path = temp_path("inert");
    {
        let _guard = st_obs::install(vec![Box::new(st_obs::JsonlSink::create(&path).unwrap())]);
        let recorded = train(&data, tiny_cfg(), &train_cfg()).unwrap();
        assert_eq!(
            quiet.model.store.to_bytes(),
            recorded.model.store.to_bytes(),
            "recording must not perturb training"
        );
    }
    let _ = std::fs::remove_file(&path);
}
