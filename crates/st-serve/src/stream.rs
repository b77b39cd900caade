//! Streaming online imputation: a sliding-window session with incremental
//! prior updates, and a JSONL engine behind `pristi serve --stream`.
//!
//! Real sensor feeds don't arrive as independent windows. A
//! [`StreamSession`] holds the current `[N, L]` window for one feed, shifts
//! it one timestep per *data tick*, and revises the imputation of every
//! still-open gap inside a configurable revision `horizon` with a few-step
//! solver. Instead of rebuilding the conditional prior from scratch each
//! tick it maintains it incrementally:
//!
//! * the interpolated conditional `𝒳` is kept by an
//!   [`st_data::SlidingInterp`], which re-interpolates only the columns
//!   whose observation support changed (bitwise-identical to a full
//!   re-interpolation — DESIGN.md §16 gives the argument);
//! * the normalised window `values_z` shifts in place, normalising only the
//!   appended column (per-node affine scaling is cell-local);
//! * the step-invariant [`PriorCache`] — cond4, `U` and the per-layer
//!   attention weights and adaptive adjacency of DESIGN.md §11 — is rebuilt
//!   only when window *content* changed since the last impute (every data
//!   tick dirties it; a [`Tick::Reimpute`] on an unchanged window reuses it).
//!
//! Every output a session emits is **bitwise identical to a cold
//! full-window impute** of the same window with the same RNG stream
//! ([`stream_rng`]), so replaying a tick log reproduces responses
//! byte-for-byte — across `ST_PAR_THREADS` settings and worker counts.
//! `crates/st-serve/tests/stream.rs` pins all of this.
//!
//! # Revision contract and the settled watermark
//!
//! Ticks are numbered from 0; after `k` data ticks the newest absolute step
//! is `k-1` and the window covers steps `[k-L, k)` (steps before 0 are
//! pre-stream padding and never imputed). A gap is **open** while it sits
//! within the last `horizon` steps of the window; once it slides out it is
//! **settled** — its last revision was final. Each response carries the
//! monotone `watermark = max(0, newest_step + 1 - horizon)`: every step
//! below the watermark is settled and will never be revised again. A tick
//! with no open gaps skips the reverse pass entirely (and does not advance
//! the session's RNG sequence) — the source of the amortised per-tick win
//! the `stream_tick` micro-benchmarks measure.
//!
//! # Wire format (JSONL, one tick in → one response out)
//!
//! ```text
//! data tick: {"id":1,"session":0,"tick":[21.0,null,17.5]}
//! reimpute:  {"id":2,"session":0,"reimpute":true}
//! response:  {"id":1,"ok":true,"session":0,"step":7,"watermark":4,
//!             "imputed":true,"revisions":[
//!               {"node":1,"step":6,"q05":12.1,"q50":14.9,"q95":17.0},...]}
//! error:     {"id":null,"ok":false,"error":{"kind":"bad_request",
//!             "detail":"tick needs N cells","line":3}}
//! ```
//!
//! `tick` carries one cell per sensor (`null` = missing; a number must stay
//! finite as `f32`, see [`parse_cell`]). `session` (default 0) multiplexes
//! independent feeds over one connection; sessions are sharded across
//! `workers` threads by `session % workers`, so each session sees its ticks
//! in order. The engine runs on the shared front end of [`crate::wire`]:
//! each answer is written as soon as it and every answer before it are
//! ready, always in input order, so output bytes are invariant to the worker
//! count and an interactive client never waits for end of input.

use crate::wire::{
    error_line, max_line_bytes, panic_detail, parse_cell, pipeline, tick_answer, ParseFailure,
    Ticket,
};
use pristi_core::train::TrainedModel;
use pristi_core::{
    impute_prepared, ImputationResult, ImputeOptions, PreparedWindow, PriorCache, PristiError,
    Result, Sampler,
};
use st_data::SlidingInterp;
use st_obs::json::{self, Json};
use st_rand::{SeedableRng, StdRng};
use st_tensor::NdArray;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::Arc;

/// Per-session streaming parameters, shared by every session of one engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Ensemble size per revision impute.
    pub n_samples: usize,
    /// Reverse-process solver for revisions — streaming wants a few-step
    /// spec (`pndm:K` / `refine:K`); the default is `pndm:4`.
    pub sampler: Sampler,
    /// Revision horizon in steps (`1..=L`): gaps are revised while they sit
    /// within the last `horizon` steps of the window, then settle.
    pub horizon: usize,
    /// Base seed of the per-session RNG streams (see [`stream_rng`]).
    pub base_seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            n_samples: 8,
            sampler: Sampler::Pndm { steps: 4, order: 4 },
            horizon: 4,
            base_seed: 0,
        }
    }
}

/// The RNG stream for one session's `seq`-th revision impute, mixed from
/// the engine seed exactly like [`crate::request_rng`] mixes request ids —
/// disjoint per `(session, seq)`, so a replayed tick log reproduces every
/// draw.
pub fn stream_rng(base_seed: u64, session: u64, seq: u64) -> StdRng {
    let mixed = session.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
        ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    StdRng::seed_from_u64(base_seed ^ mixed)
}

/// One input line of the streaming wire format, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Tick {
    /// A new timestep: one cell per sensor, `None` = missing.
    Data(Vec<Option<f32>>),
    /// Re-impute the current window with a fresh ensemble (next RNG stream),
    /// reusing the prior cache — the window content is unchanged.
    Reimpute,
}

/// One revised quantile triple for a still-open gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Revision {
    /// Sensor index.
    pub node: usize,
    /// Absolute step of the revised cell.
    pub step: u64,
    /// 5 % ensemble quantile (denormalised).
    pub q05: f32,
    /// Ensemble median (denormalised).
    pub q50: f32,
    /// 95 % ensemble quantile (denormalised).
    pub q95: f32,
}

/// What one tick produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutput {
    /// Absolute step of the newest window column.
    pub step: u64,
    /// Monotone settled watermark: steps `< watermark` are final.
    pub watermark: u64,
    /// Whether a reverse pass ran (false ⇒ no open gaps, impute skipped).
    pub imputed: bool,
    /// Revised quantiles for every open gap, ordered by `(node, step)`.
    pub revisions: Vec<Revision>,
}

/// A sliding-window streaming session over one sensor feed.
///
/// See the [module docs](self) for the window-shift semantics, the
/// incremental-prior maintenance and the watermark/revision contract.
pub struct StreamSession {
    trained: Arc<TrainedModel>,
    cfg: StreamConfig,
    session_id: u64,
    n: usize,
    l: usize,
    /// Normalised window values, shifted in place (`[N, L]`).
    values_z: NdArray,
    /// Conditioning mask (1 = observed), shifted in place (`[N, L]`).
    cond_mask: NdArray,
    /// Incrementally maintained interpolated conditional (models that
    /// condition on interpolation only).
    interp: Option<SlidingInterp>,
    /// Step-invariant prior tensors, reused while `prior_dirty` is false.
    prior: Option<PriorCache>,
    prior_dirty: bool,
    /// Data ticks received so far (newest absolute step = `ticks - 1`).
    ticks: u64,
    /// Revision imputes run so far — the RNG sequence number.
    impute_seq: u64,
}

impl StreamSession {
    /// Open a session. Validates the sampler spec, `n_samples >= 1` and
    /// `1 <= horizon <= L`.
    pub fn new(trained: Arc<TrainedModel>, cfg: StreamConfig, session_id: u64) -> Result<Self> {
        cfg.sampler.validate()?;
        if cfg.n_samples < 1 {
            return Err(PristiError::DegenerateConfig(
                "stream needs at least one ensemble sample".into(),
            ));
        }
        let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
        if cfg.horizon < 1 || cfg.horizon > l {
            return Err(PristiError::DegenerateConfig(format!(
                "stream horizon must be in 1..={l}, got {}",
                cfg.horizon
            )));
        }
        // The pre-stream window is all-missing: values_z holds the
        // normalised raw zeros a cold window would hold, the mask is zero,
        // and the interpolation is the all-`fallback` window.
        let mut values_z = NdArray::zeros(&[n, l]);
        for i in 0..n {
            let z = trained.normalizer.normalize_value(i, 0.0);
            values_z.data_mut()[i * l..(i + 1) * l].fill(z);
        }
        let interp = trained.model.cfg.use_interpolation.then(|| SlidingInterp::new(n, l, 0.0));
        Ok(Self {
            trained,
            cfg,
            session_id,
            n,
            l,
            values_z,
            cond_mask: NdArray::zeros(&[n, l]),
            interp,
            prior: None,
            prior_dirty: true,
            ticks: 0,
            impute_seq: 0,
        })
    }

    /// Data ticks received so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Revision imputes run so far (the next RNG sequence number).
    pub fn impute_seq(&self) -> u64 {
        self.impute_seq
    }

    /// Process one tick.
    pub fn tick(&mut self, tick: &Tick) -> Result<TickOutput> {
        match tick {
            Tick::Data(cells) => self.data_tick(cells),
            Tick::Reimpute => self.reimpute(),
        }
    }

    /// Shift the window one step and revise open gaps.
    pub fn data_tick(&mut self, cells: &[Option<f32>]) -> Result<TickOutput> {
        if cells.len() != self.n {
            return Err(PristiError::ShapeMismatch {
                what: "stream tick cells",
                expected: vec![self.n],
                got: vec![cells.len()],
            });
        }
        let (n, l) = (self.n, self.l);
        let mut zvals = vec![0.0f32; n];
        let mut observed = vec![false; n];
        for i in 0..n {
            // Missing cells hold the normalised raw 0.0 a cold window's
            // `normalize_window` would produce — bitwise the same affine op.
            zvals[i] = self.trained.normalizer.normalize_value(i, cells[i].unwrap_or(0.0));
            observed[i] = cells[i].is_some();
        }
        for i in 0..n {
            let row_z = &mut self.values_z.data_mut()[i * l..(i + 1) * l];
            row_z.copy_within(1.., 0);
            row_z[l - 1] = zvals[i];
            let row_m = &mut self.cond_mask.data_mut()[i * l..(i + 1) * l];
            row_m.copy_within(1.., 0);
            row_m[l - 1] = if observed[i] { 1.0 } else { 0.0 };
        }
        if let Some(interp) = &mut self.interp {
            interp.shift(&zvals, &observed);
        }
        self.prior_dirty = true;
        self.ticks += 1;
        self.revise()
    }

    /// Re-impute the current window with a fresh ensemble, reusing the
    /// prior cache (the window content is unchanged). Errors before the
    /// first data tick.
    pub fn reimpute(&mut self) -> Result<TickOutput> {
        if self.ticks == 0 {
            return Err(PristiError::DegenerateConfig(
                "reimpute before any data tick".into(),
            ));
        }
        self.revise()
    }

    /// Absolute step of a window column, or `None` for pre-stream padding.
    fn abs_step(&self, col: usize) -> Option<u64> {
        let newest = self.ticks - 1;
        let back = (self.l - 1 - col) as u64;
        newest.checked_sub(back)
    }

    /// The open gaps of the current window: cells within the revision
    /// horizon that are missing and not pre-stream padding, `(node, col)`.
    fn open_gaps(&self) -> Vec<(usize, usize)> {
        let (n, l) = (self.n, self.l);
        let h = self.cfg.horizon.min(self.ticks as usize);
        let mut gaps = Vec::new();
        for i in 0..n {
            for col in (l - h)..l {
                if self.cond_mask.data()[i * l + col] == 0.0 && self.abs_step(col).is_some() {
                    gaps.push((i, col));
                }
            }
        }
        gaps
    }

    /// Impute (if any gap is open) and assemble the tick response.
    fn revise(&mut self) -> Result<TickOutput> {
        let newest = self.ticks - 1;
        let watermark = (newest + 1).saturating_sub(self.cfg.horizon as u64);
        let gaps = self.open_gaps();
        if gaps.is_empty() {
            return Ok(TickOutput { step: newest, watermark, imputed: false, revisions: Vec::new() });
        }
        let result = self.impute_window()?;
        let (q05, q50, q95) = (result.quantile(0.05), result.quantile(0.5), result.quantile(0.95));
        let l = self.l;
        let revisions = gaps
            .into_iter()
            .map(|(node, col)| Revision {
                node,
                step: self.abs_step(col).expect("open gaps are never padding"),
                q05: q05.data()[node * l + col],
                q50: q50.data()[node * l + col],
                q95: q95.data()[node * l + col],
            })
            .collect();
        Ok(TickOutput { step: newest, watermark, imputed: true, revisions })
    }

    /// One warm reverse pass over the current window, rebuilding the prior
    /// cache only when the window content changed since the last impute.
    fn impute_window(&mut self) -> Result<ImputationResult> {
        let prep = PreparedWindow::from_parts(
            &self.trained,
            self.values_z.clone(),
            self.cond_mask.clone(),
            self.interp.as_ref().map(|si| si.cond()),
        )?;
        if self.prior_dirty || self.prior.is_none() {
            self.prior = Some(prep.build_prior(&self.trained, self.cfg.n_samples));
            self.prior_dirty = false;
        } else {
            st_obs::counter_add("stream.prior_reuse", 1.0);
        }
        let mut rng = stream_rng(self.cfg.base_seed, self.session_id, self.impute_seq);
        self.impute_seq += 1;
        let opts = ImputeOptions { n_samples: self.cfg.n_samples, sampler: self.cfg.sampler };
        impute_prepared(&self.trained, &prep, &opts, &mut rng, self.prior.as_ref())
    }
}

// ---------------------------------------------------------------------------
// JSONL engine
// ---------------------------------------------------------------------------

/// Engine configuration: per-session parameters plus the worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamServerConfig {
    /// Parameters every session of this engine runs with.
    pub session: StreamConfig,
    /// Worker threads; sessions are sharded by `session_id % workers`.
    /// Output bytes are invariant to this (answers leave in input order).
    pub workers: usize,
}

impl Default for StreamServerConfig {
    fn default() -> Self {
        Self { session: StreamConfig::default(), workers: 1 }
    }
}

/// Totals of one [`run_stream`] drive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Lines answered `ok:true`.
    pub ok: u64,
    /// Lines answered with a typed error.
    pub errors: u64,
    /// Ticks that ran a reverse pass.
    pub imputes: u64,
    /// Ticks that skipped the reverse pass (no open gaps).
    pub skips: u64,
}

/// What a session worker sends back for one tick: whether it imputed
/// (`None` for an error line) and the answer line.
type TickReply = (Option<bool>, String);

/// One parsed input line, routed to a session worker with its reply channel.
struct WorkItem {
    line_no: u64,
    id: u64,
    session: u64,
    tick: Tick,
    reply: mpsc::Sender<TickReply>,
}

/// Drive the streaming JSONL loop: ticks in on `input`, one response per
/// line out on `output`, in input order regardless of `cfg.workers`, each
/// written as soon as it is ready.
///
/// Used by `pristi serve --stream` (stdin/stdout) and driven in-memory by
/// the loadtest harness and the stream test-suite. Only I/O failures are
/// `Err`; malformed lines and per-tick imputation failures become typed
/// error *responses* (see the [module docs](self)) and the loop continues.
pub fn run_stream<R: BufRead, W: Write + Send>(
    trained: Arc<TrainedModel>,
    cfg: &StreamServerConfig,
    input: R,
    output: W,
) -> std::io::Result<StreamSummary> {
    let workers = cfg.workers.max(1);
    let session_cfg = cfg.session;
    let max_line = max_line_bytes(trained.model.n_nodes());
    let mut summary = StreamSummary::default();
    std::thread::scope(|scope| {
        let worker_txs: Vec<mpsc::Sender<WorkItem>> = (0..workers)
            .map(|widx| {
                let (tx, rx) = mpsc::channel::<WorkItem>();
                let trained = Arc::clone(&trained);
                scope.spawn(move || worker_loop(widx, trained, session_cfg, rx));
                tx
            })
            .collect();
        pipeline(
            input,
            output,
            max_line,
            |line_no, line| match parse_tick(line) {
                Ok((id, session, tick)) => {
                    let (reply, rx) = mpsc::channel();
                    let item = WorkItem { line_no, id, session, tick, reply };
                    worker_txs[(session % workers as u64) as usize]
                        .send(item)
                        .expect("session workers contain panics and outlive the reader");
                    Ticket::Pending(rx)
                }
                Err((id, kind, detail)) => {
                    st_obs::counter_add("stream.errors", 1.0);
                    Ticket::Ready(error_line(id, kind, &detail, line_no))
                }
            },
            |_, t| {
                let (imputed, line) = match t {
                    Ticket::Ready(line) => (None, line),
                    Ticket::Pending(rx) => rx.recv().expect("a session worker answers every tick"),
                };
                match imputed {
                    None => summary.errors += 1,
                    Some(true) => summary.imputes += 1,
                    Some(false) => summary.skips += 1,
                }
                summary.ok += u64::from(imputed.is_some());
                line
            },
        )
    })?;
    Ok(summary)
}

/// One shard's loop: owns every session with `session_id % workers == widx`,
/// processes its ticks in arrival order, answers each on its reply channel.
fn worker_loop(
    widx: usize,
    trained: Arc<TrainedModel>,
    cfg: StreamConfig,
    rx: mpsc::Receiver<WorkItem>,
) {
    let mut sessions: HashMap<u64, StreamSession> = HashMap::new();
    for item in rx {
        let t0 = std::time::Instant::now();
        let trace = st_obs::next_trace_id();
        let _trace = st_obs::trace_scope(trace);
        let _span = st_obs::span!(
            "stream_tick",
            worker = widx as u64,
            session = item.session,
            line = item.line_no,
        );
        st_obs::counter_add("stream.ticks", 1.0);
        let outcome = serve_tick(&trained, cfg, &mut sessions, &item);
        match &outcome {
            Ok(out) => {
                st_obs::counter_add(
                    if out.imputed { "stream.imputes" } else { "stream.skips" },
                    1.0,
                );
                st_obs::hist_record("stream.revisions", out.revisions.len() as f64);
            }
            Err(_) => st_obs::counter_add("stream.errors", 1.0),
        }
        let reply = tick_answer(item.id, item.session, outcome, item.line_no);
        st_obs::hist_record("stream.tick_ms", t0.elapsed().as_secs_f64() * 1e3);
        st_obs::gauge_set("stream.sessions", sessions.len() as f64);
        // A dropped receiver means the writer already failed on I/O.
        let _ = item.reply.send(reply);
    }
}

/// Route one work item to its session, opening the session on first use.
/// A panic inside the model is contained: the session is dropped and the
/// tick answered with a typed `worker_panicked` error.
fn serve_tick(
    trained: &Arc<TrainedModel>,
    cfg: StreamConfig,
    sessions: &mut HashMap<u64, StreamSession>,
    item: &WorkItem,
) -> Result<TickOutput> {
    let session = match sessions.entry(item.session) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let session = StreamSession::new(Arc::clone(trained), cfg, item.session)?;
            st_obs::counter_add("stream.sessions_opened", 1.0);
            e.insert(session)
        }
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.tick(&item.tick)));
    outcome.unwrap_or_else(|payload| {
        sessions.remove(&item.session);
        Err(PristiError::WorkerPanicked(panic_detail(&*payload)))
    })
}

/// Parse one wire line into `(id, session, tick)`.
fn parse_tick(line: &str) -> std::result::Result<(u64, u64, Tick), ParseFailure> {
    let obj = json::parse(line).map_err(|e| (None, "bad_json", format!("bad JSON: {e}")))?;
    let id = obj.get("id").and_then(Json::as_u64);
    let fail = |detail: String| (id, "bad_request", detail);
    let id = id.ok_or_else(|| fail("tick needs a numeric \"id\"".into()))?;
    let fail = |detail: String| (Some(id), "bad_request", detail);
    let session = match obj.get("session") {
        None => 0,
        Some(s) => s.as_u64().ok_or_else(|| fail("\"session\" must be a non-negative integer".into()))?,
    };
    let reimpute = match obj.get("reimpute") {
        None | Some(Json::Bool(false)) => false,
        Some(Json::Bool(true)) => true,
        Some(_) => return Err(fail("\"reimpute\" must be a boolean".into())),
    };
    match (obj.get("tick"), reimpute) {
        (Some(_), true) => Err(fail("\"tick\" and \"reimpute\" are mutually exclusive".into())),
        (None, true) => Ok((id, session, Tick::Reimpute)),
        (None, false) => Err(fail("tick needs a \"tick\" cell array or \"reimpute\":true".into())),
        (Some(cells), false) => {
            let cells = cells
                .as_arr()
                .ok_or_else(|| fail("\"tick\" must be an array of cells".into()))?;
            let out = cells
                .iter()
                .enumerate()
                .map(|(i, cell)| parse_cell(cell).map_err(|e| fail(format!("cell [{i}] {e}"))))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            Ok((id, session, Tick::Data(out)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_tick_is_a_bad_request() {
        for sign in ["", "-"] {
            let line = format!("{{\"id\":4,\"tick\":[1.0,null,{sign}1e39]}}");
            let (id, kind, detail) = parse_tick(&line).unwrap_err();
            assert_eq!((id, kind), (Some(4), "bad_request"));
            assert!(detail.starts_with("cell [2] "), "{detail}");
        }
        let (_, _, tick) = parse_tick("{\"id\":5,\"tick\":[1.5,null]}").unwrap();
        assert!(matches!(tick, Tick::Data(cells) if cells == [Some(1.5), None]));
    }
}
