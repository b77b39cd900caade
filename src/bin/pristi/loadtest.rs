//! `pristi loadtest` — a deterministic closed-loop load generator for the
//! multi-worker [`st_serve::ImputeService`].
//!
//! The harness drives the service with a **seeded request schedule**: the
//! same `--seed` produces the same windows, sample counts, samplers, and
//! request ids, and therefore — because the service pins bitwise worker-count
//! invariance — the same response bytes, counts, and checksum. Everything
//! that can vary between two same-seed runs (latency percentiles, RPS, wall
//! time) is confined to each entry's nested `"timing":{...}` object, so
//! `scripts/verify.sh` can assert two runs are byte-identical after
//! [`pristi_bench::strip_report_timing`].
//!
//! Phases:
//!
//! * `closed_loop_w{N}` — one per `--workers` value: C clients each issue R
//!   requests back-to-back (closed loop, so concurrency never exceeds C and
//!   the admission queue — sized above C — deterministically never sheds or
//!   times out). All phases share one schedule, so their checksums must agree.
//! * `mixed_solver_w{N}` — the same closed loop, but each request draws one
//!   of the four solver specs (`ddpm`, `ddim:4`, `pndm:4`, `refine:3`) from
//!   the seeded schedule, so workers interleave solver families; the
//!   order-independent checksum must agree across worker counts.
//! * `shed_storm` — `shed_threshold: 0` with all-best-effort clients: every
//!   request is deterministically shed by admission control.
//! * `timeout_storm` — every request carries a zero deadline: the worker
//!   always finds it expired at dequeue, a deterministic 100 % timeout rate.
//!
//! Results land in `BENCH_serve.json` (schema `st-serve-bench/1`, see
//! `pristi_bench::serve_report`) plus an aligned table on stdout.

use pristi_bench::{percentile, ServeEntry, ServeReport, ServeTiming};
use pristi_core::train::{train, TrainConfig};
use pristi_core::{PristiConfig, Sampler, TrainedModel};
use st_data::dataset::Window;
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_rand::{Rng, SeedableRng, StdRng};
use st_serve::{
    checkpoint_from_bytes, checkpoint_to_bytes, AdmissionTier, ImputeRequest, ImputeService,
    ServeConfig, StreamConfig, StreamServerConfig,
};
use st_tensor::NdArray;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed `pristi loadtest` options.
struct LoadtestOpts {
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    workers: Vec<usize>,
    out: String,
    ckpt: Option<String>,
    quick: bool,
    stream: bool,
}

/// One request slot in the seeded schedule (client `c`, position `r`).
/// `solver` is an index into the phase's solver set: the closed-loop phases
/// map `3` to DDIM and everything else to DDPM (~25 % DDIM, as before the
/// solver redesign); the mixed-solver phases use all four entries of
/// [`MIXED_SOLVER_SPECS`].
#[derive(Clone, Copy)]
struct ReqSpec {
    window_idx: usize,
    n_samples: usize,
    solver: usize,
}

/// The mixed-solver phase's per-request solver set, written in the shared
/// `Sampler` spec grammar (the same strings a JSONL `"sampler"` field or
/// `--sampler` flag would carry).
const MIXED_SOLVER_SPECS: [&str; 4] = ["ddpm", "ddim:4", "pndm:4", "refine:3"];

/// What a phase does besides the closed loop.
#[derive(Clone, Copy, PartialEq)]
enum PhaseKind {
    ClosedLoop,
    MixedSolver,
    ShedStorm,
    TimeoutStorm,
    /// `--stream`: drive the JSONL streaming engine with a seeded tick log;
    /// the checksum runs over the response bytes, which must be invariant to
    /// the worker count (sessions are sharded, responses reordered).
    Stream,
}

pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: pristi loadtest [--seed N] [--clients C] [--requests R] \
                 [--workers 1,4] [--out BENCH_serve.json] [--ckpt model.ckpt] [--quick] \
                 [--stream]"
            );
            return ExitCode::from(2);
        }
    };

    // One model for the whole run, cloned per phase through the `st-ckpt/1`
    // byte round-trip (bit-exact, and the only supported clone path).
    let ckpt_bytes = match &opts.ckpt {
        Some(path) => match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("failed to read --ckpt {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            eprintln!("no --ckpt given; training a tiny deterministic model in-process...");
            match train_tiny_model(opts.seed) {
                Ok(t) => checkpoint_to_bytes(&t),
                Err(e) => {
                    eprintln!("in-process training failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let probe = match checkpoint_from_bytes(&ckpt_bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("checkpoint is not loadable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n_nodes, window_len) = (probe.model.n_nodes(), probe.model.window_len());
    drop(probe);

    // Seeded, model-shape-aware schedule: every phase reuses it, so the
    // closed-loop checksums must agree across worker counts.
    let windows = synth_windows(opts.seed, n_nodes, window_len);
    let schedule = build_schedule(opts.seed, opts.clients, opts.requests_per_client, windows.len());

    let mut entries = Vec::new();
    let mut phases: Vec<(String, usize, PhaseKind)> = opts
        .workers
        .iter()
        .map(|&w| (format!("closed_loop_w{w}"), w, PhaseKind::ClosedLoop))
        .collect();
    // Mixed-solver phases: the same seeded schedule, but each request picks
    // one of the four solver specs — so workers interleave solver families,
    // and the checksum must still be worker-count invariant.
    phases.extend(
        opts.workers
            .iter()
            .map(|&w| (format!("mixed_solver_w{w}"), w, PhaseKind::MixedSolver)),
    );
    phases.push(("shed_storm".into(), opts.workers[0], PhaseKind::ShedStorm));
    phases.push(("timeout_storm".into(), opts.workers[0], PhaseKind::TimeoutStorm));
    // `--stream`: one streaming phase per worker count, all over the same
    // seeded tick log, so the response-byte checksums must agree.
    if opts.stream {
        phases.extend(
            opts.workers.iter().map(|&w| (format!("stream_w{w}"), w, PhaseKind::Stream)),
        );
    }
    let tick_log = opts
        .stream
        .then(|| synth_tick_log(opts.seed, opts.clients, opts.requests_per_client, n_nodes));

    for (name, workers, kind) in phases {
        let trained = match checkpoint_from_bytes(&ckpt_bytes) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("checkpoint clone failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("phase {name}: {} clients x {} requests, {workers} worker(s)...", opts.clients, opts.requests_per_client);
        let outcome = if kind == PhaseKind::Stream {
            run_stream_phase(
                &name,
                trained,
                workers,
                &opts,
                tick_log.as_deref().expect("stream phases imply a tick log"),
            )
        } else {
            run_phase(&name, trained, workers, kind, &opts, &windows, &schedule)
        };
        match outcome {
            Ok(entry) => entries.push(entry),
            Err(msg) => {
                eprintln!("phase {name} failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Cross-phase invariant (the tentpole): worker count is bitwise
    // invisible, so within each phase family every checksum must match —
    // including the mixed-solver family, where the worker count decides
    // which solver families run side by side.
    for family in ["closed_loop_", "mixed_solver_", "stream_"] {
        let group: Vec<&ServeEntry> =
            entries.iter().filter(|e| e.name.starts_with(family)).collect();
        if let Some(first) = group.first() {
            for e in &group[1..] {
                if e.checksum != first.checksum {
                    eprintln!(
                        "DETERMINISM VIOLATION: {} checksum {:#x} != {} checksum {:#x}",
                        e.name, e.checksum, first.name, first.checksum
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let report = ServeReport { seed: opts.seed, quick: opts.quick, entries };
    print!("{}", report.render_table());
    if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
        eprintln!("failed to write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("report -> {}", opts.out);
    ExitCode::SUCCESS
}

fn parse_opts(args: &[String]) -> Result<LoadtestOpts, String> {
    let spec = crate::FlagSpec {
        numeric: &["seed", "clients", "requests"],
        text: &["workers", "out", "ckpt"],
        switches: &["quick", "stream"],
    };
    let flags = crate::parse_flags(args, &spec)?;
    let quick = flags.contains_key("quick");
    let workers = match flags.get("workers") {
        None => vec![1, 4],
        Some(value) => value
            .split(',')
            .map(|v| v.trim().parse::<usize>().ok().filter(|&w| w > 0))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("bad --workers `{value}` (need positive counts)"))?,
    };
    let opts = LoadtestOpts {
        seed: crate::get_usize(&flags, "seed", 7) as u64,
        clients: crate::get_usize(&flags, "clients", if quick { 2 } else { 4 }),
        requests_per_client: crate::get_usize(&flags, "requests", if quick { 3 } else { 12 }),
        workers,
        out: flags.get("out").map_or("BENCH_serve.json", String::as_str).to_string(),
        ckpt: flags.get("ckpt").cloned(),
        quick,
        stream: flags.contains_key("stream"),
    };
    if opts.clients == 0 || opts.requests_per_client == 0 {
        return Err("--clients and --requests must be positive".into());
    }
    Ok(opts)
}

/// Train the fallback model: tiny config, fixed-seed synthetic panel — a few
/// seconds of work, deterministic for a given `--seed`. Also the pinned
/// model behind `pristi profile`'s impute/serve phases.
pub(crate) fn train_tiny_model(seed: u64) -> pristi_core::Result<TrainedModel> {
    let mut cfg = PristiConfig::small();
    cfg.d_model = 8;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.t_steps = 8;
    cfg.time_emb_dim = 8;
    cfg.node_emb_dim = 4;
    cfg.step_emb_dim = 8;
    cfg.virtual_nodes = 4;
    cfg.adaptive_dim = 2;
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 8,
        n_days: 6,
        seed: seed ^ 0xA1,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, seed ^ 0xA2);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: 12,
        window_stride: 12,
        seed: seed ^ 0xA3,
        ..Default::default()
    };
    train(&data, cfg, &tc)
}

/// A pool of seeded request windows matching the model's shape: ~80 %
/// observed cells, values drawn from the schedule RNG.
pub(crate) fn synth_windows(seed: u64, n_nodes: usize, window_len: usize) -> Vec<Window> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57_1F_D0_57);
    (0..8)
        .map(|_| {
            let values = NdArray::randn(&[n_nodes, window_len], &mut rng);
            let mut observed = NdArray::zeros(&[n_nodes, window_len]);
            for v in observed.data_mut() {
                *v = if rng.random::<f64>() < 0.8 { 1.0 } else { 0.0 };
            }
            Window { values, observed, eval: NdArray::zeros(&[n_nodes, window_len]), t_start: 0 }
        })
        .collect()
}

/// The per-client request schedule, derived only from the seed (and counts),
/// so two same-seed runs issue the identical trace.
fn build_schedule(seed: u64, clients: usize, per_client: usize, n_windows: usize) -> Vec<Vec<ReqSpec>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
    (0..clients)
        .map(|_| {
            (0..per_client)
                .map(|_| ReqSpec {
                    window_idx: rng.random_range(0..n_windows),
                    n_samples: 1 + rng.random_range(0..3usize),
                    solver: rng.random_range(0..MIXED_SOLVER_SPECS.len()),
                })
                .collect()
        })
        .collect()
}

/// Run one phase: C closed-loop client threads against a fresh service, then
/// fold their outcomes into a [`ServeEntry`].
fn run_phase(
    name: &str,
    trained: TrainedModel,
    workers: usize,
    kind: PhaseKind,
    opts: &LoadtestOpts,
    windows: &[Window],
    schedule: &[Vec<ReqSpec>],
) -> Result<ServeEntry, String> {
    let cfg = ServeConfig {
        // Sized above the client count so a closed loop can never fill it.
        queue_capacity: opts.clients * 2 + 8,
        shed_threshold: if kind == PhaseKind::ShedStorm { 0 } else { opts.clients * 2 + 8 },
        workers,
        base_seed: opts.seed,
        ..Default::default()
    };
    let service = Arc::new(ImputeService::start(trained, cfg).map_err(|e| e.to_string())?);

    // The mixed-solver set goes through the shared spec parser — the same
    // path a `--sampler` flag or JSONL `"sampler"` field takes.
    let mixed: Vec<Sampler> = MIXED_SOLVER_SPECS
        .iter()
        .map(|s| s.parse::<Sampler>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let start = Instant::now();
    let handles: Vec<_> = (0..opts.clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let specs = schedule[c].clone();
            let windows = windows.to_vec();
            let mixed = mixed.clone();
            std::thread::spawn(move || {
                let mut outcome = ClientOutcome::default();
                for (r, spec) in specs.iter().enumerate() {
                    let id = ((c as u64) << 16) | r as u64;
                    let req = ImputeRequest {
                        id,
                        window: windows[spec.window_idx].clone(),
                        n_samples: spec.n_samples,
                        sampler: match kind {
                            PhaseKind::MixedSolver => mixed[spec.solver],
                            _ if spec.solver == 3 => Sampler::Ddim { steps: 4, eta: 0.0 },
                            _ => Sampler::Ddpm,
                        },
                        tier: if kind == PhaseKind::ShedStorm {
                            AdmissionTier::BestEffort
                        } else {
                            AdmissionTier::Interactive
                        },
                        deadline: (kind == PhaseKind::TimeoutStorm).then_some(Duration::ZERO),
                    };
                    let t0 = Instant::now();
                    match service.submit(req) {
                        Ok(res) => {
                            outcome.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            outcome.ok += 1;
                            let mut h = fnv1a_u64(id);
                            for s in &res.samples {
                                h = fnv1a_bytes(h, &s.to_bytes());
                            }
                            outcome.checksum = outcome.checksum.wrapping_add(h);
                        }
                        Err(pristi_core::PristiError::QueueFull { shed: true, .. }) => outcome.shed += 1,
                        Err(pristi_core::PristiError::Timeout { .. }) => outcome.timeout += 1,
                        Err(e) => outcome.unexpected.push(format!("request {id}: {e}")),
                    }
                }
                outcome
            })
        })
        .collect();

    let mut merged = ClientOutcome::default();
    for h in handles {
        let o = h.join().map_err(|_| "client thread panicked".to_string())?;
        merged.ok += o.ok;
        merged.shed += o.shed;
        merged.timeout += o.timeout;
        merged.checksum = merged.checksum.wrapping_add(o.checksum);
        merged.latencies_ms.extend(o.latencies_ms);
        merged.unexpected.extend(o.unexpected);
    }
    let wall = start.elapsed();
    service.shutdown();
    if let Some(first) = merged.unexpected.first() {
        return Err(format!("{} unexpected error(s), first: {first}", merged.unexpected.len()));
    }

    merged.latencies_ms.sort_by(f64::total_cmp);
    let requests = (opts.clients * opts.requests_per_client) as u64;
    let wall_s = wall.as_secs_f64().max(1e-9);
    Ok(ServeEntry {
        name: name.to_string(),
        workers,
        clients: opts.clients,
        requests,
        ok: merged.ok,
        shed: merged.shed,
        timeout: merged.timeout,
        checksum: merged.checksum,
        timing: ServeTiming {
            p50_ms: percentile(&merged.latencies_ms, 0.50),
            p99_ms: percentile(&merged.latencies_ms, 0.99),
            p999_ms: percentile(&merged.latencies_ms, 0.999),
            rps: merged.ok as f64 / wall_s,
            wall_ms: wall.as_secs_f64() * 1e3,
        },
    })
}

/// The seeded streaming tick log: `sessions` interleaved feeds of `ticks`
/// data ticks each — mostly-observed cells with ~15 % gaps, plus a dense
/// fully-observed block every 8 ticks (so the skip path runs) and one
/// `reimpute` line per session at the end (so the prior-cache reuse path
/// runs). Derived only from the seed and counts: two same-seed runs replay
/// the identical log, and response bytes must match across worker counts.
fn synth_tick_log(seed: u64, sessions: usize, ticks: usize, n_nodes: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57AE_A41C);
    let mut lines = Vec::new();
    let mut id = 0u64;
    for t in 0..ticks {
        for s in 0..sessions {
            id += 1;
            let dense = t % 8 >= 4;
            let cells = (0..n_nodes)
                .map(|_| {
                    let v = (rng.random::<f32>() - 0.5) * 4.0;
                    if !dense && rng.random::<f64>() < 0.15 {
                        "null".to_string()
                    } else {
                        format!("{v}")
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            lines.push(format!("{{\"id\":{id},\"session\":{s},\"tick\":[{cells}]}}"));
        }
    }
    for s in 0..sessions {
        id += 1;
        lines.push(format!("{{\"id\":{id},\"session\":{s},\"reimpute\":true}}"));
    }
    lines.join("\n") + "\n"
}

/// Run one `stream_w{N}` phase: drive the JSONL streaming engine over the
/// in-memory tick log, checksum the response bytes. Per-line latencies are
/// not observable through an in-memory log, so only wall time and RPS land
/// in the (stripped) timing object.
fn run_stream_phase(
    name: &str,
    trained: TrainedModel,
    workers: usize,
    opts: &LoadtestOpts,
    tick_log: &str,
) -> Result<ServeEntry, String> {
    let cfg = StreamServerConfig {
        session: StreamConfig {
            n_samples: 2,
            sampler: Sampler::Pndm { steps: 4, order: 4 },
            horizon: 4,
            base_seed: opts.seed,
        },
        workers,
    };
    let mut out = Vec::new();
    let start = Instant::now();
    let summary = st_serve::run_stream(
        Arc::new(trained),
        &cfg,
        std::io::Cursor::new(tick_log.as_bytes()),
        &mut out,
    )
    .map_err(|e| format!("stream I/O failed: {e}"))?;
    let wall = start.elapsed();
    if summary.errors > 0 {
        return Err(format!("{} unexpected error response(s)", summary.errors));
    }
    let requests = summary.ok + summary.errors;
    let wall_s = wall.as_secs_f64().max(1e-9);
    Ok(ServeEntry {
        name: name.to_string(),
        workers,
        clients: opts.clients,
        requests,
        ok: summary.ok,
        shed: 0,
        timeout: 0,
        checksum: fnv1a_bytes(0xcbf2_9ce4_8422_2325, &out),
        timing: ServeTiming {
            p50_ms: 0.0,
            p99_ms: 0.0,
            p999_ms: 0.0,
            rps: summary.ok as f64 / wall_s,
            wall_ms: wall.as_secs_f64() * 1e3,
        },
    })
}

#[derive(Default)]
struct ClientOutcome {
    ok: u64,
    shed: u64,
    timeout: u64,
    checksum: u64,
    latencies_ms: Vec<f64>,
    unexpected: Vec<String>,
}

/// FNV-1a over a u64's little-endian bytes, from the standard offset basis.
fn fnv1a_u64(v: u64) -> u64 {
    fnv1a_bytes(0xcbf2_9ce4_8422_2325, &v.to_le_bytes())
}

/// Continue an FNV-1a hash over `bytes`.
fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
