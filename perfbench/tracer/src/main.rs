//! In-process replay of the benchmark's inputs, timing calls into each
//! layer's public functions.
//!
//! ```text
//! perfbench-tracer fingerprint
//! perfbench-tracer replay --ckpt model.ckpt --requests requests.jsonl \
//!     --ticks ticks.jsonl --panel panel.csv --coords coords.csv \
//!     --bursts B --burst 6 --period 0.8 --stream-seconds S --seed N
//! ```
//!
//! `replay` prints one JSON object: the per-layer metrics, plus how many
//! replayed units were checked and how many failed. Layer times come from
//! `Instant` around each public call; op, pool, parallel-dispatch, span and
//! histogram figures come from what the library already records once an
//! `st_obs` recorder is installed. No span is added to program code.

use pristi_core::train::{train, MaskStrategyKind, Reporter, TrainConfig, TrainedModel};
use pristi_core::{
    impute_prepared, ImputationResult, ImputeOptions, PreparedWindow, PriorCache, PristiConfig,
    Sampler,
};
use st_data::dataset::Window;
use st_data::io::load_dataset;
use st_data::SlidingInterp;
use st_obs::json::{self, Json};
use st_obs::{Event, Sink, Value};
use st_rand::{SeedableRng, StdRng};
use st_serve::stream::{StreamConfig, StreamSession, Tick};
use st_serve::{
    load_checkpoint, request_rng, AdmissionTier, ImputeRequest, ImputeService, ServeConfig,
};
use st_tensor::NdArray;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests replayed twice (plain and split) for the overhead and
/// attribution figures.
const CORE_REQUESTS: usize = 12;
/// Repetitions of each single-layer timing.
const REPS: usize = 12;
/// Solver specs timed for `core.impute.reverse_<name>_ms`, at S = 8.
const SPECS: [(&str, &str); 4] = [
    ("pndm4", "pndm:4"),
    ("refine3", "refine:3"),
    ("ddim4", "ddim:4"),
    ("ddpm", "ddpm"),
];
/// Op kinds reported per noise-estimation step: the twelve largest at S = 8
/// on a 2-core AVX2 host, together ~97 % of the recorded op time. A kind the
/// library stops recording reads 0.
const OP_KINDS: [&str; 12] = [
    "gated_unit",
    "mpnn",
    "concat_last",
    "matmul_bias",
    "silu",
    "shared_left_matmul",
    "permute",
    "batch_matmul",
    "add",
    "layer_norm",
    "matmul",
    "slice_last",
];

/// Events collected by [`MemSink`].
type Events = Arc<Mutex<Vec<Event>>>;

struct MemSink(Events);

impl Sink for MemSink {
    fn event(&mut self, e: &Event) {
        self.0.lock().expect("event buffer lock").push(e.clone());
    }
}

/// Flush the recorder's aggregates and take every event collected so far.
fn drain(events: &Events) -> Vec<Event> {
    st_obs::flush();
    std::mem::take(&mut *events.lock().expect("event buffer lock"))
}

fn field<'a>(e: &'a Event, key: &str) -> Option<&'a Value> {
    e.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::U(x)) => *x as f64,
        Some(Value::I(x)) => *x as f64,
        Some(Value::F(x)) => *x,
        _ => 0.0,
    }
}

fn text<'a>(e: &'a Event, key: &str) -> &'a str {
    match field(e, key) {
        Some(Value::S(s)) => s,
        _ => "",
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        0.5 * (xs[m - 1] + xs[m])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checked units and failures across the replay.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: BTreeMap<String, u64>,
}

impl Ledger {
    fn check(&mut self, problem: Option<&str>) {
        self.attempted += 1;
        if let Some(p) = problem {
            *self.failed.entry(p.to_string()).or_default() += 1;
        }
    }
}

/// The output checks the wire applies, on an in-process result.
fn check_result(res: &ImputationResult) -> Option<&'static str> {
    let (lo, med, hi) = (res.quantile(0.05), res.median(), res.quantile(0.95));
    let ok = lo
        .data()
        .iter()
        .zip(med.data())
        .zip(hi.data())
        .all(|((a, m), b)| a.is_finite() && m.is_finite() && b.is_finite() && a <= m && m <= b);
    (!ok).then_some("bad_quantiles")
}

struct Request {
    line: String,
    id: u64,
    window: Window,
    sampler: Sampler,
    n_samples: usize,
}

fn parse_request(line: &str) -> Result<Request, String> {
    let req = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = req
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("request needs an id")?;
    let rows = req
        .get("values")
        .and_then(Json::as_arr)
        .ok_or("request needs values")?;
    let n = rows.len();
    let l = rows
        .first()
        .and_then(Json::as_arr)
        .ok_or("values rows must be arrays")?
        .len();
    let mut values = NdArray::zeros(&[n, l]);
    let mut observed = NdArray::zeros(&[n, l]);
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .filter(|c| c.len() == l)
            .ok_or("ragged values")?;
        for (j, cell) in cells.iter().enumerate() {
            if let Some(v) = cell.as_f64() {
                values.data_mut()[i * l + j] = v as f32;
                observed.data_mut()[i * l + j] = 1.0;
            }
        }
    }
    let sampler = req
        .get("sampler")
        .and_then(Json::as_str)
        .ok_or("request needs a sampler")?
        .parse::<Sampler>()
        .map_err(|e| e.to_string())?;
    let n_samples = req
        .get("n_samples")
        .and_then(Json::as_u64)
        .ok_or("request needs n_samples")?;
    Ok(Request {
        line: line.to_string(),
        id,
        window: Window {
            values,
            observed,
            eval: NdArray::zeros(&[n, l]),
            t_start: 0,
        },
        sampler,
        n_samples: n_samples as usize,
    })
}

fn parse_tick(line: &str) -> Result<(u64, Tick), String> {
    let obj = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let session = obj.get("session").and_then(Json::as_u64).unwrap_or(0);
    match obj.get("tick").and_then(Json::as_arr) {
        Some(cells) => Ok((
            session,
            Tick::Data(cells.iter().map(|c| c.as_f64().map(|v| v as f32)).collect()),
        )),
        None => Ok((session, Tick::Reimpute)),
    }
}

struct Args(HashMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut out = HashMap::new();
        for pair in argv.chunks(2) {
            if let [k, v] = pair {
                out.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
        }
        Self(out)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a number"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("fingerprint") => {
            println!(
                "{{\"simd_tier\":\"{:?}\",\"par_threads\":{}}}",
                st_tensor::simd::active_tier(),
                st_par::threads()
            );
            Ok(())
        }
        Some("replay") => replay(&Args::parse(&argv[1..])),
        _ => Err("usage: perfbench-tracer <fingerprint|replay --flag value ...>".to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::from(2)
        }
    }
}

fn replay(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed")?;
    let ckpt = args.str("ckpt")?;
    let trained = Arc::new(load_checkpoint(ckpt).map_err(|e| e.to_string())?);
    let read = |key: &str| -> Result<Vec<String>, String> {
        let path = args.str(key)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect())
    };
    let reqs = read("requests")?
        .iter()
        .map(|l| parse_request(l))
        .collect::<Result<Vec<_>, _>>()?;
    let ticks = read("ticks")?
        .iter()
        .map(|l| parse_tick(l))
        .collect::<Result<Vec<_>, _>>()?;
    if reqs.len() < CORE_REQUESTS {
        return Err(format!("need at least {CORE_REQUESTS} requests"));
    }

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut ledger = Ledger::default();
    let pool0 = st_tensor::pool::stats();

    // Wire parse: the JSON parser the front end runs on every request line.
    let parse: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let t = Instant::now();
            std::hint::black_box(json::parse(std::hint::black_box(&r.line)).ok());
            ms(t.elapsed())
        })
        .collect();
    m.insert("serve.wire.parse_ms".into(), median(parse));

    // Each request twice, plain and then split into layer calls under a
    // recorder: the plain time is the reference for the tracing overhead.
    let events: Events = Arc::new(Mutex::new(Vec::new()));
    let sink = || -> Vec<Box<dyn Sink>> { vec![Box::new(MemSink(Arc::clone(&events)))] };
    let core = &reqs[..CORE_REQUESTS];
    let plain_run = |r: &Request| -> Result<Duration, String> {
        let opts = ImputeOptions {
            n_samples: r.n_samples,
            sampler: r.sampler,
        };
        let t = Instant::now();
        let prep = PreparedWindow::prepare(&trained, &r.window).map_err(|e| e.to_string())?;
        let res = impute_prepared(&trained, &prep, &opts, &mut request_rng(seed, r.id), None);
        let res = res.map_err(|e| e.to_string())?;
        std::hint::black_box((res.median(), res.quantile(0.05), res.quantile(0.95)));
        Ok(t.elapsed())
    };
    plain_run(&core[0])?; // warm caches and the buffer pool
    let (mut plain, mut traced, mut attributed) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut prep_ms, mut quant_ms) = (Vec::new(), Vec::new());
    for r in core {
        plain += plain_run(r)?;
        let recorder = st_obs::install(sink());
        let opts = ImputeOptions {
            n_samples: r.n_samples,
            sampler: r.sampler,
        };
        let t_all = Instant::now();
        let t = Instant::now();
        let prep = PreparedWindow::prepare(&trained, &r.window).map_err(|e| e.to_string())?;
        let d_prep = t.elapsed();
        let t = Instant::now();
        let cache = prep.build_prior(&trained, r.n_samples);
        let d_prior = t.elapsed();
        let t = Instant::now();
        let res = impute_prepared(
            &trained,
            &prep,
            &opts,
            &mut request_rng(seed, r.id),
            Some(&cache),
        );
        let res = res.map_err(|e| e.to_string())?;
        let d_rev = t.elapsed();
        let t = Instant::now();
        std::hint::black_box((res.median(), res.quantile(0.05), res.quantile(0.95)));
        let d_q = t.elapsed();
        traced += t_all.elapsed();
        drop(recorder);
        attributed += d_prep + d_prior + d_rev + d_q;
        prep_ms.push(ms(d_prep));
        quant_ms.push(ms(d_q));
        ledger.check(check_result(&res));
    }
    m.insert("core.impute.prepare_ms".into(), median(prep_ms));
    m.insert("core.result.quantile_ms".into(), median(quant_ms));
    m.insert(
        "trace.overhead_frac".into(),
        (traced.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64(),
    );
    m.insert(
        "trace.unattributed_frac".into(),
        1.0 - attributed.as_secs_f64() / traced.as_secs_f64(),
    );

    // Single-layer timings on the first request's window, recorder off.
    let prep = PreparedWindow::prepare(&trained, &reqs[0].window).map_err(|e| e.to_string())?;
    let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
    let t_steps = trained.schedule.betas().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let prior8: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(prep.build_prior(&trained, 8));
            ms(t.elapsed())
        })
        .collect();
    m.insert("core.model.prior_ms".into(), median(prior8));
    let cache8 = prep.build_prior(&trained, 8);
    let x8 = NdArray::randn(&[8, n, l], &mut rng);
    let eps_steps = |cache: &PriorCache, x: &NdArray| -> Vec<f64> {
        (0..REPS)
            .map(|k| {
                let step = 1 + (k * (t_steps - 1)) / REPS;
                let t = Instant::now();
                std::hint::black_box(trained.model.predict_eps_eval_cached(cache, x, step));
                ms(t.elapsed())
            })
            .collect()
    };
    let cache4 = prep.build_prior(&trained, 4);
    let x4 = NdArray::randn(&[4, n, l], &mut rng);
    m.insert(
        "core.model.eps_step_s4_ms".into(),
        median(eps_steps(&cache4, &x4)),
    );
    let eps8 = median(eps_steps(&cache8, &x8));
    m.insert("core.model.eps_step_s8_ms".into(), eps8);
    let (mut rev_total, mut rev_solver) = (0.0, 0.0);
    for (name, spec) in SPECS {
        let sampler: Sampler = spec
            .parse()
            .map_err(|e: pristi_core::PristiError| e.to_string())?;
        let nfe = sampler.solver().timesteps(&trained.schedule).len() as f64;
        let opts = ImputeOptions {
            n_samples: 8,
            sampler,
        };
        let reps = if name == "ddpm" { 2 } else { REPS };
        let mut times = Vec::new();
        for k in 0..reps {
            let t = Instant::now();
            let res = impute_prepared(
                &trained,
                &prep,
                &opts,
                &mut request_rng(seed, k as u64),
                Some(&cache8),
            );
            times.push(ms(t.elapsed()));
            ledger.check(res.as_ref().map_or(Some("impute_error"), check_result));
        }
        let rev = median(times);
        m.insert(format!("core.impute.reverse_{name}_ms"), rev);
        rev_total += rev;
        rev_solver += rev - nfe * eps8;
    }
    m.insert(
        "core.impute.solver_overhead_frac".into(),
        rev_solver / rev_total,
    );

    // The same S = 8 steps under the recorder, for the op and parallel
    // dispatch aggregates the library records.
    let recorder = st_obs::install(sink());
    drain(&events);
    eps_steps(&cache8, &x8);
    let mut per_kind: HashMap<String, f64> = HashMap::new();
    let (mut busy, mut weighted) = (0.0, 0.0);
    for e in &drain(&events) {
        match e.kind {
            "op" if text(e, "phase") == "fwd" => {
                *per_kind.entry(text(e, "kind").to_string()).or_default() +=
                    num(field(e, "total_ns"));
            }
            "par" => {
                let b = num(field(e, "busy_ns"));
                let eff = num(field(e, "eff_pct")) / 100.0;
                if b > 0.0 && eff > 0.0 {
                    busy += b;
                    weighted += b / eff;
                }
            }
            _ => {}
        }
    }
    for kind in OP_KINDS {
        let total = per_kind.get(kind).copied().unwrap_or(0.0);
        m.insert(
            format!("tensor.op.{kind}_ms_per_step"),
            total / 1e6 / REPS as f64,
        );
    }
    m.insert(
        "par.eff_frac".into(),
        if weighted > 0.0 { busy / weighted } else { 1.0 },
    );

    service_replay(args, seed, &reqs, &events, &mut m, &mut ledger)?;
    stream_replay(args, seed, &trained, &ticks, &events, &mut m, &mut ledger)?;
    train_replay(args, seed, &events, &mut m)?;
    drop(recorder);

    let pool1 = st_tensor::pool::stats();
    let (hits, misses) = (pool1.hits - pool0.hits, pool1.misses - pool0.misses);
    m.insert(
        "tensor.pool.hit_frac".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let metrics: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                json::escape(k),
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                }
            )
        })
        .collect();
    let failures: Vec<String> = ledger
        .failed
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::escape(k)))
        .collect();
    println!(
        "{{\"metrics\":{{{}}},\"attempted\":{},\"failures\":{{{}}}}}",
        metrics.join(","),
        ledger.attempted,
        failures.join(",")
    );
    Ok(())
}

/// `ImputeService::submit` on the wire's burst schedule, from two client
/// threads that split each burst between them.
fn service_replay(
    args: &Args,
    seed: u64,
    reqs: &[Request],
    events: &Events,
    m: &mut BTreeMap<String, f64>,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let bursts: usize = args.num("bursts")?;
    let burst: usize = args.num("burst")?;
    let period = Duration::from_secs_f64(args.num("period")?);
    let count = (bursts * burst).min(reqs.len());
    let trained = load_checkpoint(args.str("ckpt")?).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        workers: 2,
        base_seed: seed,
        ..Default::default()
    };
    let service = ImputeService::start(trained, cfg).map_err(|e| e.to_string())?;
    let t0 = Instant::now() + Duration::from_millis(50);
    let results: Vec<Vec<(f64, Option<&'static str>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let service = &service;
                scope.spawn(move || {
                    (0..count)
                        .filter(|k| k % 2 == c)
                        .map(|k| {
                            let due = t0 + period * (k / burst) as u32;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let r = &reqs[k];
                            let res = service.submit(ImputeRequest {
                                id: r.id,
                                window: r.window.clone(),
                                n_samples: r.n_samples,
                                sampler: r.sampler,
                                tier: AdmissionTier::Interactive,
                                deadline: None,
                            });
                            (
                                ms(Instant::now() - due),
                                res.as_ref().map_or(Some("submit_error"), check_result),
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    service.shutdown();
    let mut lat = Vec::new();
    for (latency, problem) in results.into_iter().flatten() {
        ledger.check(problem);
        lat.push(latency);
    }
    m.insert("serve.service.submit_ms".into(), median(lat));
    let evs = drain(events);
    let batch = evs
        .iter()
        .find(|e| e.kind == "hist" && text(e, "name") == "serve.batch_requests")
        .map_or(f64::NAN, |e| num(field(e, "mean")));
    m.insert("serve.service.batch_requests".into(), batch);
    Ok(())
}

/// The stream's ticks through `StreamSession` directly (unpaced, for at most
/// `--stream-seconds`), plus `SlidingInterp::shift` on every data tick.
fn stream_replay(
    args: &Args,
    seed: u64,
    trained: &Arc<TrainedModel>,
    ticks: &[(u64, Tick)],
    events: &Events,
    m: &mut BTreeMap<String, f64>,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.num("stream-seconds")?);
    let horizon: usize = args.num("horizon")?;
    let cfg = StreamConfig {
        horizon,
        base_seed: seed,
        ..Default::default()
    };
    let mut sessions: HashMap<u64, StreamSession> = HashMap::new();
    let (mut imp, mut skip, mut reimp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut data_ticks, mut data_imputed, mut imputes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for (session, tick) in ticks {
        if start.elapsed() > budget {
            break;
        }
        let s = match sessions.entry(*session) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                StreamSession::new(Arc::clone(trained), cfg, *session)
                    .map_err(|e| e.to_string())?,
            ),
        };
        let t = Instant::now();
        let out = s.tick(tick);
        let d = ms(t.elapsed());
        let out = match out {
            Ok(o) => o,
            Err(_) => {
                ledger.check(Some("tick_error"));
                continue;
            }
        };
        let ok = out
            .revisions
            .iter()
            .all(|r| r.q05.is_finite() && r.q05 <= r.q50 && r.q50 <= r.q95);
        ledger.check((!ok).then_some("bad_revision"));
        imputes += out.imputed as u64;
        match (tick, out.imputed) {
            (Tick::Reimpute, _) => reimp.push(d),
            (Tick::Data(_), true) => {
                data_ticks += 1;
                data_imputed += 1;
                imp.push(d);
            }
            (Tick::Data(_), false) => {
                data_ticks += 1;
                skip.push(d);
            }
        }
    }
    let evs = drain(events);
    let reuse = evs
        .iter()
        .filter(|e| e.kind == "counter" && text(e, "name") == "stream.prior_reuse")
        .map(|e| num(field(e, "value")))
        .sum::<f64>();
    m.insert("stream.session.tick_impute_ms".into(), median(imp));
    m.insert("stream.session.tick_skip_ms".into(), median(skip));
    m.insert("stream.session.reimpute_ms".into(), median(reimp));
    m.insert(
        "stream.session.impute_frac".into(),
        data_imputed as f64 / data_ticks.max(1) as f64,
    );
    m.insert(
        "stream.session.prior_reuse_frac".into(),
        reuse / imputes.max(1) as f64,
    );

    let n = trained.model.n_nodes();
    let l = trained.model.window_len();
    let mut interp = SlidingInterp::new(n, l, 0.0);
    let mut shift = Vec::new();
    for _ in 0..5 {
        for (_, tick) in ticks {
            if let Tick::Data(cells) = tick {
                let vals: Vec<f32> = cells.iter().map(|c| c.unwrap_or(0.0)).collect();
                let observed: Vec<bool> = cells.iter().map(Option::is_some).collect();
                let t = Instant::now();
                interp.shift(&vals, &observed);
                shift.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(interp.cond());
            }
        }
    }
    m.insert("stream.interp.shift_us".into(), median(shift));
    Ok(())
}

/// A short `train` on the batch panel, read back from the `forward`,
/// `backward` and `optimizer` spans the training step already records.
fn train_replay(
    args: &Args,
    seed: u64,
    events: &Events,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let data = load_dataset(
        Path::new(args.str("panel")?),
        Path::new(args.str("coords")?),
        24,
    )
    .map_err(|e| e.to_string())?;
    let mut cfg = PristiConfig::small();
    cfg.virtual_nodes = cfg.virtual_nodes.min(data.n_nodes());
    let tc = TrainConfig {
        epochs: args.num("train-epochs")?,
        window_len: 24,
        window_stride: 12,
        strategy: MaskStrategyKind::HybridBlock,
        seed,
        reporter: Reporter::Silent,
        ..Default::default()
    };
    train(&data, cfg, &tc).map_err(|e| e.to_string())?;
    let evs = drain(events);
    for (span, name) in [
        ("forward", "fwd"),
        ("backward", "bwd"),
        ("optimizer", "optim"),
    ] {
        let durs: Vec<f64> = evs
            .iter()
            .filter(|e| e.kind == "span" && text(e, "name") == span)
            .map(|e| num(field(e, "dur_ns")) / 1e6)
            .collect();
        m.insert(format!("core.train.step_{name}_ms"), median(durs));
    }
    Ok(())
}
