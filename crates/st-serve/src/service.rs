//! A multi-worker imputation service around one loaded [`TrainedModel`].
//!
//! Architecture: callers [`ImputeService::enqueue`] requests into a bounded
//! queue (or [`ImputeService::submit`] and block on the answer); a **replica
//! pool** of `workers` threads shares the model through an `Arc`, and each
//! worker pops one request per turn and runs [`pristi_core::impute`] on it
//! (one [`pristi_core::PriorCache`] build, then one
//! `predict_eps_eval_cached` per denoise step). Concurrency comes from the
//! pool, not from merging requests: two workers run two requests at once,
//! each with the working set of one request.
//!
//! **Neither the worker count nor the queue order changes results.** Every
//! request's randomness comes from a private RNG stream keyed by its
//! [`ImputeRequest::id`] (and the service's `base_seed`), so a request is
//! answered with the same bytes whether it was served by worker 0 of 1 or
//! worker 7 of 8, first or last — `tests/service.rs` and `tests/workers.rs`
//! pin this under concurrent load.
//!
//! Admission control stacks two tiers on the bounded queue:
//!
//! * at hard capacity every submission fails fast with
//!   [`PristiError::QueueFull`] (`shed: false`);
//! * from [`ServeConfig::shed_threshold`] queued requests upward,
//!   [`AdmissionTier::BestEffort`] submissions are *shed* —
//!   [`PristiError::QueueFull`] with `shed: true` — so latency-sensitive
//!   [`AdmissionTier::Interactive`] traffic keeps the remaining headroom.
//!
//! Requests carry deadlines (defaulted per tier): a request still queued past
//! its deadline is answered with [`PristiError::Timeout`] instead of
//! occupying a worker. A worker that panics mid-request (a model bug, or the
//! test-only [`ServeConfig::fault_hook`]) is **contained**: that request and
//! everything still queued get typed [`PristiError::WorkerPanicked`] errors,
//! the service drains, and [`ImputeService::shutdown`] still joins.
//!
//! Tracing: each request gets a trace id at admission, and the worker runs
//! it inside a `serve_batch` span (fields `request`, `samples`, `worker`)
//! under that id, so the `impute/denoise_step` subtree below it is
//! attributable to the request.
//!
//! Telemetry (`serve.*`, via `st-obs`): `serve.queue_depth` gauge,
//! `serve.batch_requests` histogram (requests per worker turn, always 1), a
//! `serve.latency_ms` histogram (p50/p99/p999 come out of the st-obs
//! histogram summary at flush), `serve.shed` / `serve.timeout` counters, and
//! per-worker `serve.worker{i}.batches` counters (turns served) plus
//! `serve.worker{i}.latency_ms` histograms. All `serve.*` values are
//! scheduling-dependent, so [`st_obs::strip_timing`] drops them like the
//! `pool.*` activity metrics.

use crate::wire::panic_detail;
use pristi_core::error::{PristiError, Result};
use pristi_core::train::TrainedModel;
use pristi_core::{impute, ImputationResult, ImputeOptions, Sampler};
use st_data::dataset::Window;
use st_rand::{SeedableRng, StdRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control tier of a request.
///
/// Tiers only affect *admission* (when a submission is rejected) and the
/// default deadline — never the imputed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionTier {
    /// Latency-sensitive traffic: admitted until the queue is at hard
    /// capacity, with the shorter [`ServeConfig::default_deadline`].
    #[default]
    Interactive,
    /// Shed-able traffic (backfills, prefetches): rejected with
    /// [`PristiError::QueueFull`]`{ shed: true }` as soon as the queue depth
    /// reaches [`ServeConfig::shed_threshold`], and given the longer
    /// [`ServeConfig::best_effort_deadline`] when admitted.
    BestEffort,
}

/// Test-only hook a worker runs just before imputing a request, receiving
/// its id. The fault-injection suite uses it to simulate a panicking denoise
/// step; `None` (the default) costs nothing.
pub type FaultHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Service tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Maximum queued (not yet running) requests before submissions fail
    /// fast with [`PristiError::QueueFull`] (`shed: false`).
    pub queue_capacity: usize,
    /// Queue depth at which [`AdmissionTier::BestEffort`] submissions start
    /// being shed ([`PristiError::QueueFull`] with `shed: true`). Defaults to
    /// `queue_capacity`, i.e. shedding disabled — the hard-capacity check
    /// always fires first.
    pub shed_threshold: usize,
    /// Worker threads in the replica pool. Every worker serves requests from
    /// the shared queue against the same `Arc`-shared model; results are
    /// bitwise independent of this number.
    pub workers: usize,
    /// Deadline for [`AdmissionTier::Interactive`] requests that do not set
    /// their own.
    pub default_deadline: Duration,
    /// Deadline for [`AdmissionTier::BestEffort`] requests that do not set
    /// their own.
    pub best_effort_deadline: Duration,
    /// Mixed into every request's RNG stream; two services with the same
    /// `base_seed` and model answer the same request identically.
    pub base_seed: u64,
    /// Test-only fault injection (see [`FaultHook`]). Leave `None` outside
    /// the fault-injection suite.
    pub fault_hook: Option<FaultHook>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            shed_threshold: 64,
            workers: 1,
            default_deadline: Duration::from_secs(30),
            best_effort_deadline: Duration::from_secs(120),
            base_seed: 0,
            fault_hook: None,
        }
    }
}

impl fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeConfig")
            .field("queue_capacity", &self.queue_capacity)
            .field("shed_threshold", &self.shed_threshold)
            .field("workers", &self.workers)
            .field("default_deadline", &self.default_deadline)
            .field("best_effort_deadline", &self.best_effort_deadline)
            .field("base_seed", &self.base_seed)
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

/// One imputation request.
#[derive(Debug, Clone)]
pub struct ImputeRequest {
    /// Keys this request's RNG stream: same `(base_seed, id)` → same noise,
    /// and therefore the same samples, regardless of queue order or which
    /// worker serves it.
    pub id: u64,
    /// The window to impute (must match the model's `[N, L]`).
    pub window: Window,
    /// Ensemble size.
    pub n_samples: usize,
    /// Reverse-process sampler.
    pub sampler: Sampler,
    /// Admission tier (see [`AdmissionTier`]); affects shedding and the
    /// default deadline only, never the values.
    pub tier: AdmissionTier,
    /// Per-request deadline override.
    pub deadline: Option<Duration>,
}

/// The RNG stream a request with `id` gets under `base_seed` — SplitMix-style
/// multiplicative mixing so adjacent ids land far apart in seed space.
/// Distinct ids yield disjoint streams (`tests/workers.rs` pins a sampled
/// prefix of that property).
pub fn request_rng(base_seed: u64, id: u64) -> StdRng {
    StdRng::seed_from_u64(base_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

struct Pending {
    req: ImputeRequest,
    enqueued: Instant,
    /// Request-scoped trace id, allocated at submission; the worker serves
    /// the request under it.
    trace: u64,
    tx: mpsc::Sender<Result<ImputationResult>>,
}

struct QueueState {
    items: VecDeque<Pending>,
    stopping: bool,
    /// Set when a worker panicked: the queue is being drained with typed
    /// errors and no new work is accepted.
    poisoned: bool,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    notify: Condvar,
    // Model dims cached for submit-time validation (the model itself is
    // shared by the worker pool).
    n_nodes: usize,
    window_len: usize,
}

/// Per-worker metric names must be `&'static str` for the st-obs recorder;
/// workers beyond this table share the last slot (the aggregate `serve.*`
/// metrics stay exact regardless).
const WORKER_BATCH_COUNTERS: [&str; 8] = [
    "serve.worker0.batches",
    "serve.worker1.batches",
    "serve.worker2.batches",
    "serve.worker3.batches",
    "serve.worker4.batches",
    "serve.worker5.batches",
    "serve.worker6.batches",
    "serve.worker7.batches",
];
const WORKER_LATENCY_HISTS: [&str; 8] = [
    "serve.worker0.latency_ms",
    "serve.worker1.latency_ms",
    "serve.worker2.latency_ms",
    "serve.worker3.latency_ms",
    "serve.worker4.latency_ms",
    "serve.worker5.latency_ms",
    "serve.worker6.latency_ms",
    "serve.worker7.latency_ms",
];

/// A running imputation service; dropping it drains the queue and joins the
/// worker pool.
///
/// # Example
///
/// Start a service around a (tiny, 1-epoch) trained model and answer one
/// request; concurrent [`submit`](Self::submit) calls from other threads
/// would spread over the worker pool without changing any response:
///
/// ```
/// use pristi_core::train::{train, TrainConfig};
/// use pristi_core::{PristiConfig, Sampler};
/// use st_data::generators::{generate_air_quality, AirQualityConfig};
/// use st_serve::{AdmissionTier, ImputeRequest, ImputeService, ServeConfig};
///
/// # fn main() -> pristi_core::Result<()> {
/// let data = generate_air_quality(&AirQualityConfig {
///     n_nodes: 8,
///     n_days: 4,
///     ..Default::default()
/// });
/// # let mut cfg = PristiConfig::small();
/// # cfg.d_model = 8;
/// # cfg.heads = 2;
/// # cfg.layers = 1;
/// # cfg.t_steps = 8;
/// # cfg.time_emb_dim = 8;
/// # cfg.node_emb_dim = 4;
/// # cfg.step_emb_dim = 8;
/// # cfg.virtual_nodes = 4;
/// # cfg.adaptive_dim = 2;
/// let tc = TrainConfig {
///     epochs: 1,
///     batch_size: 4,
///     window_len: 12,
///     window_stride: 12,
///     ..Default::default()
/// };
/// let trained = train(&data, cfg, &tc)?;
///
/// let service = ImputeService::start(
///     trained,
///     ServeConfig { workers: 2, ..ServeConfig::default() },
/// )?;
/// let result = service.submit(ImputeRequest {
///     id: 1,
///     window: data.window_at(0, 12),
///     n_samples: 2,
///     // DDIM with few steps is the low-latency option for serving.
///     sampler: Sampler::Ddim { steps: 2, eta: 0.0 },
///     tier: AdmissionTier::Interactive,
///     deadline: None,
/// })?;
/// assert_eq!(result.n_samples(), 2);
/// # Ok(())
/// # }
/// ```
pub struct ImputeService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ImputeService {
    /// Start a service around a loaded model.
    ///
    /// Returns [`PristiError::DegenerateConfig`] for a zero `workers` (a
    /// `queue_capacity` of zero is allowed — such a service rejects every
    /// request, which the backpressure tests rely on; a `shed_threshold`
    /// above `queue_capacity` is also allowed and simply never sheds).
    pub fn start(trained: TrainedModel, cfg: ServeConfig) -> Result<Self> {
        if cfg.workers < 1 {
            return Err(PristiError::DegenerateConfig(
                "service needs at least one worker".into(),
            ));
        }
        let n_workers = cfg.workers;
        let shared = Arc::new(Shared {
            n_nodes: trained.model.n_nodes(),
            window_len: trained.model.window_len(),
            cfg,
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                stopping: false,
                poisoned: false,
            }),
            notify: Condvar::new(),
        });
        let trained = Arc::new(trained);
        let mut workers = Vec::with_capacity(n_workers);
        for widx in 0..n_workers {
            let worker_shared = Arc::clone(&shared);
            let worker_model = Arc::clone(&trained);
            let handle = std::thread::Builder::new()
                .name(format!("st-serve-worker-{widx}"))
                .spawn(move || worker_loop(&worker_shared, &worker_model, widx))
                .map_err(|e| PristiError::Io(format!("cannot spawn service worker: {e}")))?;
            workers.push(handle);
        }
        st_obs::gauge_set("serve.workers", n_workers as f64);
        Ok(Self { shared, workers: Mutex::new(workers) })
    }

    /// Submit a request and block until its result (or typed failure):
    /// [`enqueue`](Self::enqueue), then wait on the answer.
    ///
    /// A request that out-waits its deadline is [`PristiError::Timeout`].
    pub fn submit(&self, req: ImputeRequest) -> Result<ImputationResult> {
        self.enqueue(req)?.recv().map_err(|_| PristiError::ServiceStopped)?
    }

    /// Validate and admit a request without waiting for it; the receiver
    /// yields its result (or typed failure) once a worker has served it.
    ///
    /// Malformed requests fail fast without reaching the queue:
    /// [`PristiError::ShapeMismatch`] for a window that disagrees with the
    /// model, [`PristiError::DegenerateConfig`] for a zero ensemble or a
    /// zero-step DDIM. Admission rejections are [`PristiError::QueueFull`]
    /// (`shed` distinguishes load-shedding from hard capacity); a request
    /// arriving during drain is [`PristiError::ServiceStopped`].
    pub fn enqueue(&self, req: ImputeRequest) -> Result<mpsc::Receiver<Result<ImputationResult>>> {
        self.validate(&req)?;
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.stopping {
                return Err(PristiError::ServiceStopped);
            }
            let depth = q.items.len();
            if depth >= self.shared.cfg.queue_capacity {
                return Err(PristiError::QueueFull {
                    capacity: self.shared.cfg.queue_capacity,
                    depth,
                    shed: false,
                });
            }
            if req.tier == AdmissionTier::BestEffort && depth >= self.shared.cfg.shed_threshold {
                st_obs::counter_add("serve.shed", 1.0);
                return Err(PristiError::QueueFull {
                    capacity: self.shared.cfg.queue_capacity,
                    depth,
                    shed: true,
                });
            }
            q.items.push_back(Pending {
                req,
                enqueued: Instant::now(),
                trace: st_obs::next_trace_id(),
                tx,
            });
            st_obs::gauge_set("serve.queue_depth", q.items.len() as f64);
        }
        self.shared.notify.notify_one();
        Ok(rx)
    }

    /// Size of the worker pool.
    pub(crate) fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// Cells of one request window (`N × L` of the served model).
    pub(crate) fn cells(&self) -> usize {
        self.shared.n_nodes * self.shared.window_len
    }

    /// Submit-time validation, so a malformed request never reaches a
    /// worker.
    fn validate(&self, req: &ImputeRequest) -> Result<()> {
        if req.n_samples < 1 {
            return Err(PristiError::DegenerateConfig(
                "need at least one sample per request".into(),
            ));
        }
        // Same sampler-spec rules as `impute_batch` and the CLI parser — one
        // validation surface (`Sampler::validate`) for the whole system.
        req.sampler.validate()?;
        if req.window.n_nodes() != self.shared.n_nodes {
            return Err(PristiError::ShapeMismatch {
                what: "window node count",
                expected: vec![self.shared.n_nodes],
                got: vec![req.window.n_nodes()],
            });
        }
        if req.window.len() != self.shared.window_len {
            return Err(PristiError::ShapeMismatch {
                what: "window length",
                expected: vec![self.shared.window_len],
                got: vec![req.window.len()],
            });
        }
        Ok(())
    }

    /// Stop accepting new requests, answer everything already queued, and
    /// join every worker. Called automatically on drop; safe to call from
    /// any thread holding only `&self` (a concurrent `submit` gets
    /// [`PristiError::ServiceStopped`], never a hang).
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.stopping = true;
        }
        self.shared.notify.notify_all();
        let handles: Vec<JoinHandle<()>> =
            self.workers.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ImputeService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, trained: &TrainedModel, widx: usize) {
    loop {
        let next = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if q.poisoned {
                    drain_with_errors(&mut q);
                    return;
                }
                if let Some(p) = q.items.pop_front() {
                    st_obs::gauge_set("serve.queue_depth", q.items.len() as f64);
                    break p;
                }
                if q.stopping {
                    return;
                }
                q = shared.notify.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        st_obs::counter_add(WORKER_BATCH_COUNTERS[widx.min(7)], 1.0);
        serve_one(shared, trained, widx, next);
    }
}

/// Answer every queued request with the worker-panic error and clear the
/// queue (called with the lock held once a worker poisoned the service).
fn drain_with_errors(q: &mut QueueState) {
    while let Some(p) = q.items.pop_front() {
        let _ = p.tx.send(Err(PristiError::WorkerPanicked(
            "a service worker panicked before this request was served".into(),
        )));
    }
    st_obs::gauge_set("serve.queue_depth", 0.0);
}

fn serve_one(shared: &Shared, trained: &TrainedModel, widx: usize, p: Pending) {
    // An expired request gets a typed Timeout instead of a worker turn.
    let deadline = p.req.deadline.unwrap_or(match p.req.tier {
        AdmissionTier::Interactive => shared.cfg.default_deadline,
        AdmissionTier::BestEffort => shared.cfg.best_effort_deadline,
    });
    let waited = p.enqueued.elapsed();
    if waited > deadline {
        st_obs::counter_add("serve.timeout", 1.0);
        let _ = p.tx.send(Err(PristiError::Timeout {
            waited_ms: waited.as_millis() as u64,
            deadline_ms: deadline.as_millis() as u64,
        }));
        return;
    }

    let _trace = st_obs::trace_scope(p.trace);
    let _span = st_obs::span!(
        "serve_batch",
        request = p.req.id,
        samples = p.req.n_samples as u64,
        worker = widx as u64,
    );
    st_obs::hist_record("serve.batch_requests", 1.0);
    // The response channel stays outside the unwind boundary: a panicking
    // denoise step must still leave us able to answer with a typed error.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(hook) = &shared.cfg.fault_hook {
            hook(p.req.id);
        }
        let opts = ImputeOptions { n_samples: p.req.n_samples, sampler: p.req.sampler };
        let mut rng = request_rng(shared.cfg.base_seed, p.req.id);
        impute(trained, &p.req.window, &opts, &mut rng)
    }));
    match outcome {
        Ok(res) => {
            if res.is_ok() {
                let latency_ms = p.enqueued.elapsed().as_secs_f64() * 1e3;
                st_obs::hist_record("serve.latency_ms", latency_ms);
                st_obs::hist_record(WORKER_LATENCY_HISTS[widx.min(7)], latency_ms);
            }
            let _ = p.tx.send(res);
        }
        // A panic is contained: this request gets a typed error, the service
        // is poisoned (queued requests drain with typed errors, submits are
        // rejected), and shutdown still joins every worker.
        Err(payload) => {
            st_obs::counter_add("serve.worker_panics", 1.0);
            // Poison BEFORE answering: a caller that has seen its typed error
            // must find the service already stopping, so a follow-up submit
            // can never race past the flag onto a healthy worker.
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.stopping = true;
            q.poisoned = true;
            drain_with_errors(&mut q);
            drop(q);
            shared.notify.notify_all();
            let _ = p.tx.send(Err(PristiError::WorkerPanicked(panic_detail(&*payload))));
        }
    }
}
