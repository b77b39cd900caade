//! The global recorder: near-zero cost when disabled, scoped installation,
//! thread-safe nested spans, and aggregated per-op timing.
//!
//! Design notes:
//!
//! * A single relaxed [`AtomicBool`] gates every instrumentation site. With
//!   no recorder installed, `span` / `op_start` / `record_op` are one atomic
//!   load and a branch — cheap enough to leave compiled into the tensor
//!   engine's innermost op dispatch.
//! * [`install`] returns a guard; dropping it flushes every sink and
//!   disables recording, so tests can scope telemetry to one run.
//! * Span nesting uses a thread-local path stack (`"train/epoch/train_step"`),
//!   so concurrent threads each get a coherent tree. Since `st-obs/2` every
//!   span additionally carries a stream-unique id, its parent's id, and its
//!   *self time* (duration minus direct children), so a trace can be folded
//!   into a flamegraph without heuristics.
//! * Per-op timing is *aggregated* (`(phase, kind) -> calls/total_ns/elements`)
//!   rather than emitted per call: a training step records thousands of ops,
//!   and one `op` event per kind at flush keeps streams small and
//!   deterministic (events are emitted in sorted order). Pool counters
//!   ([`counter_agg`]) and per-dispatch parallel telemetry
//!   ([`record_par_gate`] / [`record_par_dispatch`]) aggregate the same way,
//!   which is what keeps event count and order invariant across
//!   `ST_PAR_THREADS` values.
//! * Request-scoped trace ids ([`trace_scope`]) are a thread-local ambient
//!   value stamped onto every span opened while the scope is active — the
//!   serve path sets one per request so per-denoise-step spans can be
//!   attributed to the request they served.

use crate::event::{Event, Value, SCHEMA};
use crate::sink::Sink;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which side of the pipeline an op timing belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Forward tape ops (`Graph` methods).
    Fwd,
    /// Backward gradient rules (`backprop`).
    Bwd,
    /// Optimizer / gradient post-processing.
    Opt,
}

impl Phase {
    /// Short lowercase tag used in events and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Fwd => "fwd",
            Phase::Bwd => "bwd",
            Phase::Opt => "opt",
        }
    }
}

#[derive(Default, Clone, Copy)]
struct OpStat {
    calls: u64,
    total_ns: u128,
    elements: u64,
}

/// Log-spaced bucket count for histogram percentile estimation: bucket `i`
/// covers values whose `floor(log2(v))` is `i - 32`, spanning ~2⁻³² to ~2³²
/// (latencies in ms, queue depths, batch sizes all land comfortably inside).
const HIST_BUCKETS: usize = 64;

#[derive(Clone, Copy)]
struct HistStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Per-bucket observation counts (see [`HIST_BUCKETS`]); non-positive
    /// and non-finite values land in bucket 0.
    buckets: [u64; HIST_BUCKETS],
}

/// The log-spaced bucket a value falls into.
fn hist_bucket(value: f64) -> usize {
    if value <= 0.0 || !value.is_finite() {
        return 0;
    }
    (value.log2().floor() as i64 + 32).clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

impl HistStat {
    /// Percentile estimate from the bucket counts, plus an *exactness* flag.
    ///
    /// With too few samples for the requested quantile — `count < 1/(1-q)`,
    /// e.g. a p999 over fewer than 1000 observations — a bucket estimate is
    /// a misleading extrapolation, so the exact observed maximum is returned
    /// with `exact = true` (surfaced as `"exact_tail": true` on the event).
    /// Otherwise: the upper bound of the first bucket whose cumulative count
    /// reaches `q·count`, clamped to the exact observed `[min, max]` —
    /// within a factor of 2 of the true value, plenty for p50/p99/p999 trend
    /// lines in a summary.
    fn percentile(&self, q: f64) -> (f64, bool) {
        if self.count == 0 {
            return (0.0, true);
        }
        if (self.count as f64) < 1.0 / (1.0 - q) {
            return (self.max, true);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = 2f64.powi(i as i32 - 31);
                return (upper.clamp(self.min, self.max), false);
            }
        }
        (self.max, false)
    }
}

/// Aggregated per-label parallel-dispatch telemetry (see
/// [`record_par_gate`] / [`record_par_dispatch`]).
#[derive(Default, Clone, Copy)]
struct ParStat {
    /// Pooled dispatches recorded under this label.
    dispatches: u64,
    /// Total chunks across those dispatches.
    chunks: u64,
    /// `worthwhile` gate outcomes for this label.
    accept: u64,
    reject: u64,
    /// Summed participating-thread counts (threads that ran ≥ 1 chunk).
    threads: u64,
    /// Summed busy time across all participating threads.
    busy_ns: u128,
    /// Summed wall time of the dispatching call.
    span_ns: u128,
    /// Summed `participants × span` — the efficiency denominator.
    weighted_ns: u128,
}

struct Inner {
    epoch: Instant,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    ops: Mutex<HashMap<(Phase, &'static str), OpStat>>,
    hists: Mutex<HashMap<&'static str, HistStat>>,
    counters: Mutex<HashMap<&'static str, f64>>,
    pars: Mutex<HashMap<&'static str, ParStat>>,
}

impl Inner {
    fn now_ns(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        let e = Event::new(kind, self.now_ns(), fields);
        let mut sinks = self.sinks.lock().expect("st-obs sink lock");
        for s in sinks.iter_mut() {
            s.event(&e);
        }
    }

    /// Emit aggregated op/hist events (in sorted order, for determinism) and
    /// flush every sink. Aggregates are drained, so repeated flushes emit
    /// deltas.
    fn flush(&self) {
        let mut ops: Vec<((Phase, &'static str), OpStat)> =
            self.ops.lock().expect("st-obs ops lock").drain().collect();
        ops.sort_by_key(|&((phase, kind), _)| (phase, kind));
        for ((phase, kind), st) in ops {
            self.emit(
                "op",
                vec![
                    ("phase", Value::S(phase.as_str().into())),
                    ("kind", Value::S(kind.into())),
                    ("calls", Value::U(st.calls)),
                    ("total_ns", Value::U(st.total_ns.min(u128::from(u64::MAX)) as u64)),
                    ("elements", Value::U(st.elements)),
                ],
            );
        }
        let mut pars: Vec<(&'static str, ParStat)> =
            self.pars.lock().expect("st-obs par lock").drain().collect();
        pars.sort_by_key(|&(label, _)| label);
        for (label, p) in pars {
            let eff_pct = if p.weighted_ns > 0 {
                100.0 * p.busy_ns as f64 / p.weighted_ns as f64
            } else {
                100.0
            };
            self.emit(
                "par",
                vec![
                    ("label", Value::S(label.into())),
                    ("dispatches", Value::U(p.dispatches)),
                    ("chunks", Value::U(p.chunks)),
                    ("accept", Value::U(p.accept)),
                    ("reject", Value::U(p.reject)),
                    ("threads", Value::U(p.threads)),
                    ("busy_ns", Value::U(p.busy_ns.min(u128::from(u64::MAX)) as u64)),
                    ("span_ns", Value::U(p.span_ns.min(u128::from(u64::MAX)) as u64)),
                    ("eff_pct", Value::F(eff_pct)),
                ],
            );
        }
        let mut counters: Vec<(&'static str, f64)> =
            self.counters.lock().expect("st-obs counter lock").drain().collect();
        counters.sort_by_key(|&(name, _)| name);
        for (name, value) in counters {
            self.emit("counter", vec![("name", Value::S(name.into())), ("value", Value::F(value))]);
        }
        let mut hists: Vec<(&'static str, HistStat)> =
            self.hists.lock().expect("st-obs hist lock").drain().collect();
        hists.sort_by_key(|&(name, _)| name);
        for (name, h) in hists {
            let (p50, e50) = h.percentile(0.50);
            let (p99, e99) = h.percentile(0.99);
            let (p999, e999) = h.percentile(0.999);
            self.emit(
                "hist",
                vec![
                    ("name", Value::S(name.into())),
                    ("count", Value::U(h.count)),
                    ("min", Value::F(h.min)),
                    ("max", Value::F(h.max)),
                    ("mean", Value::F(if h.count > 0 { h.sum / h.count as f64 } else { 0.0 })),
                    ("p50", Value::F(p50)),
                    ("p99", Value::F(p99)),
                    ("p999", Value::F(p999)),
                    ("exact_tail", Value::B(e50 || e99 || e999)),
                ],
            );
        }
        let mut sinks = self.sinks.lock().expect("st-obs sink lock");
        for s in sinks.iter_mut() {
            s.flush();
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: Mutex<Option<Arc<Inner>>> = Mutex::new(None);

/// Stream-unique span id allocator (process-global so spans opened on worker
/// threads never collide with the dispatching thread's).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Trace id allocator for request-scoped tracing (see [`next_trace_id`]).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One open span on this thread: its id plus the summed durations of its
/// already-closed direct children (for self-time computation).
struct SpanFrame {
    sid: u64,
    child_ns: u128,
}

thread_local! {
    /// Slash-joined path of the spans currently open on this thread.
    static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
    /// Parallel stack of open-span frames (ids + accumulated child time).
    static SPAN_STACK: RefCell<Vec<SpanFrame>> = const { RefCell::new(Vec::new()) };
    /// Ambient trace id stamped onto spans opened on this thread.
    static TRACE: Cell<Option<u64>> = const { Cell::new(None) };
}

fn current() -> Option<Arc<Inner>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    CURRENT.lock().expect("st-obs recorder lock").clone()
}

/// Install a recorder feeding the given sinks; recording stays active until
/// the returned guard is dropped. Panics if a recorder is already installed
/// (telemetry streams must not interleave).
pub fn install(sinks: Vec<Box<dyn Sink>>) -> RecorderGuard {
    let inner = Arc::new(Inner {
        epoch: Instant::now(),
        sinks: Mutex::new(sinks),
        ops: Mutex::new(HashMap::new()),
        hists: Mutex::new(HashMap::new()),
        counters: Mutex::new(HashMap::new()),
        pars: Mutex::new(HashMap::new()),
    });
    inner.emit("header", vec![("schema", Value::S(SCHEMA.into()))]);
    {
        let mut cur = CURRENT.lock().expect("st-obs recorder lock");
        assert!(cur.is_none(), "st-obs recorder already installed");
        *cur = Some(Arc::clone(&inner));
    }
    ENABLED.store(true, Ordering::SeqCst);
    RecorderGuard { inner }
}

/// True while a recorder is installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emit aggregated op/histogram events and flush all sinks now.
pub fn flush() {
    if let Some(inner) = current() {
        inner.flush();
    }
}

/// Scope handle returned by [`install`]; dropping it flushes and disables.
pub struct RecorderGuard {
    inner: Arc<Inner>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *CURRENT.lock().expect("st-obs recorder lock") = None;
        self.inner.flush();
    }
}

/// Emit a custom event (no-op when disabled).
pub fn emit(kind: &'static str, fields: Vec<(&'static str, Value)>) {
    if let Some(inner) = current() {
        inner.emit(kind, fields);
    }
}

/// Emit a `counter` event (monotonic quantity, e.g. windows processed).
pub fn counter_add(name: &'static str, delta: f64) {
    if let Some(inner) = current() {
        inner.emit("counter", vec![("name", Value::S(name.into())), ("value", Value::F(delta))]);
    }
}

/// Fold a delta into a named *aggregated* counter, emitted as one `counter`
/// event per name at flush (sorted by name).
///
/// Prefer this over [`counter_add`] for high-frequency sites and for any
/// counter whose per-event order would depend on scheduling: aggregation
/// makes event count and order independent of how often (and from which
/// thread) the counter is touched. Recording a zero delta still creates the
/// entry, so call sites can keep the flushed name set invariant across
/// configurations (st-par records all `pool.*` names on every dispatch for
/// exactly this reason).
pub fn counter_agg(name: &'static str, delta: f64) {
    if let Some(inner) = current() {
        *inner.counters.lock().expect("st-obs counter lock").entry(name).or_insert(0.0) += delta;
    }
}

/// Record one `worthwhile` gate decision for a labelled parallel region.
///
/// Aggregated per label and emitted as a `par` event at flush. Every gate
/// call site must pass its label unconditionally (whatever the decision),
/// so the label set — the only part of the event that survives
/// [`crate::strip_timing`] — is identical across `ST_PAR_THREADS` values.
pub fn record_par_gate(label: &'static str, accepted: bool) {
    if let Some(inner) = current() {
        let mut pars = inner.pars.lock().expect("st-obs par lock");
        let p = pars.entry(label).or_default();
        if accepted {
            p.accept += 1;
        } else {
            p.reject += 1;
        }
    }
}

/// Record one completed pooled dispatch for a labelled parallel region.
///
/// * `chunks` — chunks the dispatch was split into,
/// * `threads` — threads that executed at least one chunk,
/// * `busy_ns` — summed per-thread time spent executing chunks,
/// * `span_ns` — wall time of the dispatching call.
///
/// At flush the per-label aggregate reports
/// `eff_pct = Σbusy / Σ(threads × span)` — 100% means every participating
/// thread was busy for the whole dispatch; low values mean chunks were too
/// few/uneven or the dispatch overhead dominated.
pub fn record_par_dispatch(
    label: &'static str,
    chunks: u64,
    threads: u64,
    busy_ns: u128,
    span_ns: u128,
) {
    if let Some(inner) = current() {
        let mut pars = inner.pars.lock().expect("st-obs par lock");
        let p = pars.entry(label).or_default();
        p.dispatches += 1;
        p.chunks += chunks;
        p.threads += threads;
        p.busy_ns += busy_ns;
        p.span_ns += span_ns;
        p.weighted_ns += u128::from(threads) * span_ns;
    }
}

/// Emit a `gauge` event (point-in-time level, e.g. loss, lr, grad norm).
pub fn gauge_set(name: &'static str, value: f64) {
    if let Some(inner) = current() {
        inner.emit("gauge", vec![("name", Value::S(name.into())), ("value", Value::F(value))]);
    }
}

/// Record one observation into a named histogram (emitted aggregated at
/// flush: count/min/max/mean plus log-bucketed p50/p99/p999 estimates).
pub fn hist_record(name: &'static str, value: f64) {
    if let Some(inner) = current() {
        let mut hists = inner.hists.lock().expect("st-obs hist lock");
        let h = hists.entry(name).or_insert(HistStat {
            count: 0,
            sum: 0.0,
            min: value,
            max: value,
            buckets: [0; HIST_BUCKETS],
        });
        h.count += 1;
        h.sum += value;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
        h.buckets[hist_bucket(value)] += 1;
    }
}

// ---------------------------------------------------------------------------
// Op timing
// ---------------------------------------------------------------------------

/// Opaque start-of-op token; `None` inside means recording was off when the
/// op began, making the whole round-trip two relaxed atomic loads.
#[derive(Debug, Clone, Copy)]
pub struct OpStart(Option<Instant>);

/// Capture an op start time iff recording is enabled.
#[inline]
pub fn op_start() -> OpStart {
    if ENABLED.load(Ordering::Relaxed) {
        OpStart(Some(Instant::now()))
    } else {
        OpStart(None)
    }
}

/// Fold one completed op into the `(phase, kind)` aggregate.
#[inline]
pub fn record_op(phase: Phase, kind: &'static str, start: OpStart, elements: u64) {
    let Some(t0) = start.0 else { return };
    let dur = t0.elapsed().as_nanos();
    if let Some(inner) = current() {
        let mut ops = inner.ops.lock().expect("st-obs ops lock");
        let st = ops.entry((phase, kind)).or_default();
        st.calls += 1;
        st.total_ns += dur;
        st.elements = st.elements.saturating_add(elements);
    }
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// Allocate a fresh process-unique trace id. Works with or without a
/// recorder installed, so request paths can allocate unconditionally.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The trace id currently in scope on this thread, if any.
pub fn current_trace() -> Option<u64> {
    TRACE.with(|t| t.get())
}

/// RAII guard restoring the previous ambient trace id on drop.
pub struct TraceGuard {
    prev: Option<u64>,
}

/// Set the ambient trace id for this thread until the guard drops. Every
/// span opened while the scope is active carries `trace` on its end event,
/// so a whole subtree (e.g. all denoise-step spans of one served request)
/// can be attributed to that request.
pub fn trace_scope(trace: u64) -> TraceGuard {
    let prev = TRACE.with(|t| t.replace(Some(trace)));
    TraceGuard { prev }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE.with(|t| t.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for one open span; emits a `span` event with the nested path,
/// span/parent ids, duration and self time on drop.
pub struct SpanGuard {
    data: Option<SpanData>,
}

struct SpanData {
    inner: Arc<Inner>,
    name: &'static str,
    path: String,
    prev_len: usize,
    sid: u64,
    parent: Option<u64>,
    trace: Option<u64>,
    start: Instant,
    fields: Vec<(&'static str, Value)>,
}

/// Open a span; prefer the [`crate::span!`] macro at call sites.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Open a span carrying extra fields on its end event.
pub fn span_with(name: &'static str, fields: Vec<(&'static str, Value)>) -> SpanGuard {
    let Some(inner) = current() else { return SpanGuard { data: None } };
    let (path, prev_len) = SPAN_PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev_len = p.len();
        if !p.is_empty() {
            p.push('/');
        }
        p.push_str(name);
        (p.clone(), prev_len)
    });
    let sid = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|f| f.sid);
        s.push(SpanFrame { sid, child_ns: 0 });
        parent
    });
    let trace = current_trace();
    SpanGuard {
        data: Some(SpanData {
            inner,
            name,
            path,
            prev_len,
            sid,
            parent,
            trace,
            start: Instant::now(),
            fields,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(d) = self.data.take() else { return };
        let dur = d.start.elapsed().as_nanos();
        SPAN_PATH.with(|p| p.borrow_mut().truncate(d.prev_len));
        // Pop this span's frame and charge its duration to the parent, so
        // the parent's eventual self time excludes time spent in children.
        let child_ns = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().expect("span stack underflow");
            debug_assert_eq!(frame.sid, d.sid, "span guards dropped out of order");
            if let Some(parent) = s.last_mut() {
                parent.child_ns += dur;
            }
            frame.child_ns
        });
        let self_ns = dur.saturating_sub(child_ns);
        let mut fields = vec![
            ("name", Value::S(d.name.into())),
            ("path", Value::S(d.path)),
            ("sid", Value::U(d.sid)),
        ];
        if let Some(parent) = d.parent {
            fields.push(("parent", Value::U(parent)));
        }
        if let Some(trace) = d.trace {
            fields.push(("trace", Value::U(trace)));
        }
        fields.extend(d.fields);
        fields.push(("dur_ns", Value::U(dur.min(u128::from(u64::MAX)) as u64)));
        fields.push(("self_ns", Value::U(self_ns.min(u128::from(u64::MAX)) as u64)));
        d.inner.emit("span", fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::JsonlSink;
    use std::sync::MutexGuard;

    /// Serialise recorder-installing tests (the recorder is process-global).
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn run_recorded(f: impl FnOnce()) -> Vec<String> {
        let path = std::env::temp_dir().join(format!(
            "st_obs_rec_test_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let _guard = install(vec![Box::new(JsonlSink::create(&path).unwrap())]);
            f();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text.lines().map(String::from).collect()
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _g = lock();
        assert!(!is_enabled());
        let s = span("ignored");
        record_op(Phase::Fwd, "matmul", op_start(), 10);
        counter_add("nothing", 1.0);
        drop(s);
        flush(); // no recorder: no-op
    }

    #[test]
    fn spans_nest_and_ops_aggregate() {
        let _g = lock();
        let lines = run_recorded(|| {
            let _outer = crate::span!("outer");
            {
                let _inner = crate::span!("inner");
                record_op(Phase::Fwd, "matmul", op_start(), 100);
                record_op(Phase::Fwd, "matmul", op_start(), 50);
                record_op(Phase::Bwd, "matmul", op_start(), 50);
            }
        });
        let events: Vec<crate::json::Json> =
            lines.iter().map(|l| crate::json::parse(l).expect("valid JSONL")).collect();
        assert_eq!(events[0].get("ev").unwrap().as_str(), Some("header"));
        assert_eq!(events[0].get("schema").unwrap().as_str(), Some(SCHEMA));

        let spans: Vec<&crate::json::Json> =
            events.iter().filter(|e| e.get("ev").unwrap().as_str() == Some("span")).collect();
        assert_eq!(spans.len(), 2);
        // inner span ends (and is emitted) first, with the nested path
        assert_eq!(spans[0].get("path").unwrap().as_str(), Some("outer/inner"));
        assert_eq!(spans[1].get("path").unwrap().as_str(), Some("outer"));

        let ops: Vec<&crate::json::Json> =
            events.iter().filter(|e| e.get("ev").unwrap().as_str() == Some("op")).collect();
        assert_eq!(ops.len(), 2, "fwd.matmul and bwd.matmul aggregates");
        assert_eq!(ops[0].get("phase").unwrap().as_str(), Some("fwd"));
        assert_eq!(ops[0].get("calls").unwrap().as_u64(), Some(2));
        assert_eq!(ops[0].get("elements").unwrap().as_u64(), Some(150));
        assert_eq!(ops[1].get("phase").unwrap().as_str(), Some("bwd"));
    }

    #[test]
    fn timestamps_are_monotonic_within_stream() {
        let _g = lock();
        let lines = run_recorded(|| {
            for _ in 0..5 {
                counter_add("tick", 1.0);
            }
        });
        let mut last = 0u64;
        for l in &lines {
            let t = crate::json::parse(l).unwrap().get("t_ns").unwrap().as_u64().unwrap();
            assert!(t >= last, "t_ns must be monotonic");
            last = t;
        }
    }

    #[test]
    fn reinstall_after_uninstall_works() {
        let _g = lock();
        let a = run_recorded(|| counter_add("a", 1.0));
        let b = run_recorded(|| counter_add("a", 1.0));
        assert_eq!(a.len(), b.len());
        // identical after stripping timing fields
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                crate::event::strip_timing(x).unwrap(),
                crate::event::strip_timing(y).unwrap()
            );
        }
    }

    #[test]
    fn histograms_aggregate_until_flush() {
        let _g = lock();
        let lines = run_recorded(|| {
            hist_record("loss", 1.0);
            hist_record("loss", 3.0);
        });
        let hist = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .find(|e| e.get("ev").unwrap().as_str() == Some("hist"))
            .expect("hist event at flush");
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(hist.get("min").unwrap().as_f64(), Some(1.0));
        assert_eq!(hist.get("max").unwrap().as_f64(), Some(3.0));
        assert_eq!(hist.get("mean").unwrap().as_f64(), Some(2.0));
        // Bucketed percentile estimates stay within the observed range.
        let p50 = hist.get("p50").unwrap().as_f64().unwrap();
        let p999 = hist.get("p999").unwrap().as_f64().unwrap();
        assert!((1.0..=3.0).contains(&p50), "p50 {p50} outside observed range");
        assert!(p50 <= p999 && p999 <= 3.0, "p999 {p999} not ordered/clamped");
    }

    #[test]
    fn spans_carry_ids_parents_and_self_time() {
        let _g = lock();
        let lines = run_recorded(|| {
            let _outer = crate::span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let spans: Vec<crate::json::Json> = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .filter(|e| e.get("ev").unwrap().as_str() == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        let outer_sid = outer.get("sid").unwrap().as_u64().unwrap();
        assert_eq!(inner.get("parent").unwrap().as_u64(), Some(outer_sid));
        assert!(outer.get("parent").is_none(), "root span has no parent");
        // outer self time excludes inner's full duration
        let outer_dur = outer.get("dur_ns").unwrap().as_u64().unwrap();
        let outer_self = outer.get("self_ns").unwrap().as_u64().unwrap();
        let inner_dur = inner.get("dur_ns").unwrap().as_u64().unwrap();
        assert_eq!(inner.get("self_ns").unwrap().as_u64(), Some(inner_dur));
        assert_eq!(outer_self, outer_dur - inner_dur);
        assert!(outer_self < outer_dur, "outer must have charged inner as child time");
    }

    #[test]
    fn trace_scope_stamps_spans_and_restores() {
        let _g = lock();
        let lines = run_recorded(|| {
            {
                let _t = trace_scope(42);
                let _s = crate::span!("traced");
            }
            let _s = crate::span!("untraced");
        });
        let spans: Vec<crate::json::Json> = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .filter(|e| e.get("ev").unwrap().as_str() == Some("span"))
            .collect();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("traced"));
        assert_eq!(spans[0].get("trace").unwrap().as_u64(), Some(42));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("untraced"));
        assert!(spans[1].get("trace").is_none(), "trace scope must not leak");
        assert!(current_trace().is_none());
        // Nested scopes restore the outer trace, not None.
        let _a = trace_scope(1);
        {
            let _b = trace_scope(2);
            assert_eq!(current_trace(), Some(2));
        }
        assert_eq!(current_trace(), Some(1));
    }

    #[test]
    fn aggregated_counters_emit_once_sorted_at_flush() {
        let _g = lock();
        let lines = run_recorded(|| {
            counter_agg("pool.tasks", 1.0);
            counter_agg("pool.chunks", 4.0);
            counter_agg("pool.tasks", 2.0);
            counter_agg("pool.inline_runs", 0.0); // zero delta still creates the entry
        });
        let counters: Vec<crate::json::Json> = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .filter(|e| e.get("ev").unwrap().as_str() == Some("counter"))
            .collect();
        let names: Vec<&str> =
            counters.iter().map(|c| c.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, ["pool.chunks", "pool.inline_runs", "pool.tasks"]);
        assert_eq!(counters[2].get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(counters[1].get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn par_dispatches_aggregate_with_efficiency() {
        let _g = lock();
        let lines = run_recorded(|| {
            record_par_gate("matmul", true);
            record_par_gate("matmul", false);
            // 2 threads busy 300ns each over a 400ns dispatch: eff = 600/800
            record_par_dispatch("matmul", 8, 2, 600, 400);
        });
        let par = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .find(|e| e.get("ev").unwrap().as_str() == Some("par"))
            .expect("par event at flush");
        assert_eq!(par.get("label").unwrap().as_str(), Some("matmul"));
        assert_eq!(par.get("dispatches").unwrap().as_u64(), Some(1));
        assert_eq!(par.get("chunks").unwrap().as_u64(), Some(8));
        assert_eq!(par.get("accept").unwrap().as_u64(), Some(1));
        assert_eq!(par.get("reject").unwrap().as_u64(), Some(1));
        assert_eq!(par.get("threads").unwrap().as_u64(), Some(2));
        assert_eq!(par.get("eff_pct").unwrap().as_f64(), Some(75.0));
    }

    #[test]
    fn small_sample_percentiles_fall_back_to_exact_max() {
        // Both sides of the count < 1/(1-q) boundary, directly on HistStat.
        let mut h =
            HistStat { count: 0, sum: 0.0, min: f64::MAX, max: f64::MIN, buckets: [0; HIST_BUCKETS] };
        let push = |h: &mut HistStat, v: f64| {
            h.count += 1;
            h.sum += v;
            h.min = h.min.min(v);
            h.max = h.max.max(v);
            h.buckets[hist_bucket(v)] += 1;
        };
        for i in 0..999 {
            push(&mut h, 1.0 + (i % 7) as f64);
        }
        push(&mut h, 4096.0); // single extreme outlier, own bucket
        // 999 samples: p999 needs >= 1000 -> exact max; p99 has enough.
        let mut h999 = h;
        h999.count = 999; // pretend the outlier was the 999th sample
        let (v, exact) = h999.percentile(0.999);
        assert!(exact, "999 samples must use the exact-tail path for p999");
        assert_eq!(v, h999.max);
        // 1000 samples: estimation kicks in (and the bucket estimate is
        // allowed to differ from the exact max).
        let (v, exact) = h.percentile(0.999);
        assert!(!exact, "1000 samples may estimate p999");
        assert!(v >= h.min && v <= h.max);
        // p50 boundary: a single sample is exact, two samples estimate.
        let mut one =
            HistStat { count: 0, sum: 0.0, min: f64::MAX, max: f64::MIN, buckets: [0; HIST_BUCKETS] };
        push(&mut one, 5.0);
        assert_eq!(one.percentile(0.50), (5.0, true));
        push(&mut one, 7.0);
        assert!(!one.percentile(0.50).1, "two samples cross the p50 boundary");
    }

    #[test]
    fn flushed_hist_marks_exact_tail() {
        let _g = lock();
        // 4 observations: p999 (and p99) must report the exact max, flagged.
        let lines = run_recorded(|| {
            for v in [1.0, 2.0, 3.0, 9.0] {
                hist_record("latency", v);
            }
        });
        let hist = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .find(|e| e.get("ev").unwrap().as_str() == Some("hist"))
            .expect("hist event at flush");
        assert_eq!(hist.get("p999").unwrap().as_f64(), Some(9.0));
        assert_eq!(hist.get("p99").unwrap().as_f64(), Some(9.0));
        assert_eq!(hist.get("exact_tail"), Some(&crate::json::Json::Bool(true)));
    }

    #[test]
    fn hist_percentiles_track_a_skewed_distribution() {
        let _g = lock();
        let lines = run_recorded(|| {
            // 90 fast observations at 1ms, 10 slow at 900ms: p50 must stay
            // in the fast mode, p999 must reach the slow tail's bucket.
            for _ in 0..90 {
                hist_record("lat", 1.0);
            }
            for _ in 0..10 {
                hist_record("lat", 900.0);
            }
        });
        let hist = lines
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .find(|e| e.get("ev").unwrap().as_str() == Some("hist"))
            .expect("hist event at flush");
        let p50 = hist.get("p50").unwrap().as_f64().unwrap();
        let p999 = hist.get("p999").unwrap().as_f64().unwrap();
        assert!(p50 <= 2.0, "p50 {p50} should sit in the fast mode");
        assert!(p999 >= 500.0, "p999 {p999} should see the outlier");
    }
}
