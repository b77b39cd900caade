//! `pristi profile` — run a pinned workload under the `st-obs/2` recorder
//! and write a deterministic attribution report.
//!
//! The workload covers the four hot paths of the stack:
//!
//! 1. `eps_theta_fwd` — evaluation-mode noise-predictor forward passes on the
//!    same `[4, 24, 24]` case `BENCH_micro.json` times;
//! 2. `eps_theta_bwd` — the training graph (forward + masked MSE + backward)
//!    on that case;
//! 3. cached imputation — `pristi_core::impute` end to end (prior cache,
//!    denoise steps, denormalise/merge);
//! 4. a serve phase — sequential requests through a one-worker
//!    [`st_serve::ImputeService`], so request trace ids and the
//!    `serve_batch` span tree are exercised.
//!
//! After the workload, a **scaling scan** re-runs the forward case pinned to
//! 1 thread and to `st_par::max_threads()` threads, flushing the aggregated
//! op/`par` telemetry between runs. The per-op `t1` vs `tmax` deltas name the
//! ops whose wall time *grows* with more threads — the `_tmax < _t1`
//! regression tracked in ROADMAP.md — alongside each parallel label's
//! measured efficiency.
//!
//! Outputs:
//!
//! * `PROFILE.json` (`st-profile/1`): span tree totals, leaf-attribution
//!   check, aggregated ops, per-label `par` telemetry, and the scaling table.
//!   Every run-varying value lives in a nested flat `"timing":{...}` object,
//!   so `scripts/verify.sh` strips those and asserts two same-seed runs are
//!   byte-identical.
//! * `PROFILE_folded.txt`: `path;to;span self_ns` folded-stack lines
//!   (flamegraph-compatible), sorted by path.
//! * stdout: human tables (these may sort by time; the JSON never does).

use pristi_core::{impute, ImputeOptions, Sampler};
use st_graph::{random_plane_layout, SensorGraph};
use st_obs::json::{self, Json};
use st_obs::{Event, Sink};
use st_rand::{SeedableRng, StdRng};
use st_serve::{
    checkpoint_from_bytes, checkpoint_to_bytes, AdmissionTier, ImputeRequest, ImputeService,
    ServeConfig,
};
use st_tensor::graph::Graph;
use st_tensor::NdArray;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

/// Parsed `pristi profile` options.
struct ProfileOpts {
    seed: u64,
    quick: bool,
    out: String,
    folded: String,
}

/// Pinned per-phase iteration counts (fixed by `--quick`, never timed-out or
/// adaptive — the report's non-timing fields must not depend on machine
/// speed).
struct Workload {
    fwd_iters: usize,
    bwd_iters: usize,
    impute_requests: usize,
    serve_requests: usize,
    scan_iters: usize,
}

impl Workload {
    fn new(quick: bool) -> Self {
        if quick {
            Self { fwd_iters: 2, bwd_iters: 1, impute_requests: 2, serve_requests: 2, scan_iters: 2 }
        } else {
            Self { fwd_iters: 6, bwd_iters: 3, impute_requests: 4, serve_requests: 4, scan_iters: 4 }
        }
    }
}

/// A sink that keeps every event as its JSONL line, in memory, so the report
/// builder can replay the stream after the recorder uninstalls.
struct CollectSink(Arc<Mutex<Vec<String>>>);

impl Sink for CollectSink {
    fn event(&mut self, e: &Event) {
        self.0.lock().expect("profile sink lock").push(e.to_json());
    }
}

/// One parsed `span` event.
struct SpanRec {
    path: String,
    sid: u64,
    parent: Option<u64>,
    dur_ns: u64,
    self_ns: u64,
}

/// Aggregated `op` totals keyed by `"phase.kind"`.
type OpTotals = BTreeMap<String, (u64, u64, u64)>; // calls, total_ns, elements

/// One parsed `par` event (label -> fields).
struct ParRec {
    label: String,
    dispatches: u64,
    chunks: u64,
    accept: u64,
    reject: u64,
    threads: u64,
    busy_ns: u64,
    span_ns: u64,
    eff_pct: f64,
}

pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: pristi profile [--seed N] [--out PROFILE.json] \
                 [--folded PROFILE_folded.txt] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(opts.quick);

    // Everything that is *not* the pinned workload happens before the
    // recorder is installed: the report covers only the profiled phases.
    eprintln!("training the tiny pinned model (seed {})...", opts.seed);
    let trained = match super::loadtest::train_tiny_model(opts.seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("in-process training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ckpt_bytes = checkpoint_to_bytes(&trained);
    let serve_model = match checkpoint_from_bytes(&ckpt_bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("checkpoint clone failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let windows =
        super::loadtest::synth_windows(opts.seed, trained.model.n_nodes(), trained.model.window_len());

    // The forward/backward case mirrors `pristi_eps_theta_forward_4x24x24`
    // in `crates/bench/benches/micro.rs` — the entry whose `_tmax` scaling
    // variant regresses against `_t1`.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6);
    let graph = SensorGraph::from_coords(random_plane_layout(24, 30.0, 7), 0.1);
    let mut cfg = pristi_core::PristiConfig::small();
    cfg.d_model = 16;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.time_emb_dim = 32;
    cfg.node_emb_dim = 8;
    cfg.step_emb_dim = 32;
    cfg.virtual_nodes = 8;
    let model = match pristi_core::PristiModel::new(cfg, &graph, 24, &mut rng) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench-case model construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let noisy = NdArray::randn(&[4, 24, 24], &mut rng);
    let cond = NdArray::randn(&[4, 24, 24], &mut rng);

    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut marks: Vec<(&'static str, usize, usize)> = Vec::new(); // (tag, from, to)
    {
        let _rec = st_obs::install(vec![Box::new(CollectSink(Arc::clone(&lines)))]);

        eprintln!("phase eps_theta_fwd: {} iters...", w.fwd_iters);
        {
            let _s = st_obs::span!("eps_theta_fwd");
            for _ in 0..w.fwd_iters {
                black_box(model.predict_eps_eval(&noisy, &cond, 10));
            }
        }

        eprintln!("phase eps_theta_bwd: {} iters...", w.bwd_iters);
        {
            let _s = st_obs::span!("eps_theta_bwd");
            for _ in 0..w.bwd_iters {
                let mut g = Graph::new(&model.store);
                let noisy_tx = g.input(noisy.clone());
                let cond_tx = g.input(cond.clone());
                let steps = vec![10usize; 4];
                let eps_hat = model.predict_eps(&mut g, noisy_tx, cond_tx, &steps);
                let target = g.input(NdArray::zeros(&[4, 24, 24]));
                let mask = g.input(NdArray::ones(&[4, 24, 24]));
                let loss = g.mse_masked(eps_hat, target, mask);
                black_box(g.backward(loss).len());
            }
        }

        eprintln!("phase impute_cached: {} requests...", w.impute_requests);
        for r in 0..w.impute_requests {
            let mut req_rng = StdRng::seed_from_u64(opts.seed ^ (0x1000 + r as u64));
            let sampler = if r % 2 == 1 { Sampler::Ddim { steps: 4, eta: 0.0 } } else { Sampler::Ddpm };
            let window = &windows[r % windows.len()];
            let res = impute(&trained, window, &ImputeOptions { n_samples: 2, sampler }, &mut req_rng);
            match res {
                Ok(r) => {
                    black_box(r.median());
                }
                Err(e) => {
                    eprintln!("impute phase failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }

        eprintln!("phase serve_batch: {} requests...", w.serve_requests);
        let serve_cfg = ServeConfig {
            workers: 1,
            base_seed: opts.seed,
            ..Default::default()
        };
        let service = match ImputeService::start(serve_model, serve_cfg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("service start failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for r in 0..w.serve_requests {
            let req = ImputeRequest {
                id: 1000 + r as u64,
                window: windows[(r + 1) % windows.len()].clone(),
                n_samples: 2,
                sampler: if r % 2 == 0 { Sampler::Ddpm } else { Sampler::Ddim { steps: 4, eta: 0.0 } },
                tier: AdmissionTier::Interactive,
                deadline: None,
            };
            if let Err(e) = service.submit(req) {
                eprintln!("serve phase request failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        service.shutdown();

        // Scaling scan: the forward case pinned to 1 thread, then to the
        // full pool, with a flush isolating each segment's op/par deltas.
        st_obs::flush();
        for (threads, tag) in [(1usize, "t1"), (st_par::max_threads(), "tmax")] {
            eprintln!("scaling scan {tag}: {} iters at {threads} thread(s)...", w.scan_iters);
            st_par::set_threads(threads);
            let from = lines.lock().expect("profile sink lock").len();
            {
                let _s = if tag == "t1" {
                    st_obs::span("eps_theta_t1")
                } else {
                    st_obs::span("eps_theta_tmax")
                };
                for _ in 0..w.scan_iters {
                    black_box(model.predict_eps_eval(&noisy, &cond, 10));
                }
            }
            st_obs::flush();
            let to = lines.lock().expect("profile sink lock").len();
            marks.push((tag, from, to));
        }
        st_par::set_threads(0);
    }

    let lines = Arc::try_unwrap(lines).expect("sink dropped with recorder").into_inner().expect("profile sink lock");
    let report = match build_report(&opts, &w, &lines, &marks) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("report build failed: {msg}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", report.render_tables());
    if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
        eprintln!("failed to write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&opts.folded, report.folded.as_str()) {
        eprintln!("failed to write {}: {e}", opts.folded);
        return ExitCode::FAILURE;
    }
    println!("report -> {}, folded stacks -> {}", opts.out, opts.folded);
    ExitCode::SUCCESS
}

fn parse_opts(args: &[String]) -> Result<ProfileOpts, String> {
    let spec = crate::FlagSpec { numeric: &["seed"], text: &["out", "folded"], switches: &["quick"] };
    let flags = crate::parse_flags(args, &spec)?;
    let text = |key: &str, default: &str| flags.get(key).map_or(default, String::as_str).to_string();
    Ok(ProfileOpts {
        seed: crate::get_usize(&flags, "seed", 7) as u64,
        quick: flags.contains_key("quick"),
        out: text("out", "PROFILE.json"),
        folded: text("folded", "PROFILE_folded.txt"),
    })
}

/// Everything the report emits, pre-aggregated from the event stream.
struct Report {
    seed: u64,
    quick: bool,
    threads_max: usize,
    /// path -> (count, total_ns, self_ns), sorted by path.
    spans: BTreeMap<String, (u64, u64, u64)>,
    /// Leaf-attribution check over the span forest.
    n_spans: usize,
    n_roots: usize,
    n_leaves: usize,
    root_ns: u64,
    leaf_self_ns: u64,
    /// "phase.kind" -> (calls, total_ns, elements) over the whole stream.
    ops: OpTotals,
    /// Main-workload `par` rows, sorted by label.
    pars: Vec<ParRec>,
    /// "phase.kind" -> (t1_ns, tmax_ns) from the scaling scan.
    scaling: BTreeMap<String, (u64, u64)>,
    /// label -> eff_pct at tmax from the scan segment.
    scan_eff: BTreeMap<String, f64>,
    folded: String,
}

fn get_u64(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn get_str(obj: &Json, key: &str) -> String {
    obj.get(key).and_then(Json::as_str).unwrap_or_default().to_string()
}

fn parse_span(obj: &Json) -> Option<SpanRec> {
    Some(SpanRec {
        path: obj.get("path")?.as_str()?.to_string(),
        sid: get_u64(obj, "sid"),
        parent: obj.get("parent").and_then(Json::as_u64),
        dur_ns: get_u64(obj, "dur_ns"),
        self_ns: get_u64(obj, "self_ns"),
    })
}

fn parse_par(obj: &Json) -> ParRec {
    ParRec {
        label: get_str(obj, "label"),
        dispatches: get_u64(obj, "dispatches"),
        chunks: get_u64(obj, "chunks"),
        accept: get_u64(obj, "accept"),
        reject: get_u64(obj, "reject"),
        threads: get_u64(obj, "threads"),
        busy_ns: get_u64(obj, "busy_ns"),
        span_ns: get_u64(obj, "span_ns"),
        eff_pct: obj.get("eff_pct").and_then(Json::as_f64).unwrap_or(100.0),
    }
}

/// Sum `op` events in `lines[range]` into `"phase.kind"` totals.
fn op_totals(lines: &[String]) -> Result<OpTotals, String> {
    let mut out = OpTotals::new();
    for line in lines {
        let obj = json::parse(line).map_err(|e| format!("bad event line: {e}"))?;
        if obj.get("ev").and_then(Json::as_str) == Some("op") {
            let key = format!("{}.{}", get_str(&obj, "phase"), get_str(&obj, "kind"));
            let slot = out.entry(key).or_insert((0, 0, 0));
            slot.0 += get_u64(&obj, "calls");
            slot.1 += get_u64(&obj, "total_ns");
            slot.2 += get_u64(&obj, "elements");
        }
    }
    Ok(out)
}

fn build_report(
    opts: &ProfileOpts,
    _w: &Workload,
    lines: &[String],
    marks: &[(&'static str, usize, usize)],
) -> Result<Report, String> {
    // Full-stream span records (the scan spans included — they are part of
    // the profiled wall time).
    let mut spans: Vec<SpanRec> = Vec::new();
    for line in lines {
        let obj = json::parse(line).map_err(|e| format!("bad event line: {e}"))?;
        if obj.get("ev").and_then(Json::as_str) == Some("span") {
            spans.push(parse_span(&obj).ok_or_else(|| format!("span without path: {line}"))?);
        }
    }
    if spans.is_empty() {
        return Err("no spans collected — is the recorder wired up?".into());
    }

    let parent_ids: std::collections::HashSet<u64> =
        spans.iter().filter_map(|s| s.parent).collect();
    let n_roots = spans.iter().filter(|s| s.parent.is_none()).count();
    let n_leaves = spans.iter().filter(|s| !parent_ids.contains(&s.sid)).count();
    let root_ns: u64 = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns).sum();
    let leaf_self_ns: u64 =
        spans.iter().filter(|s| !parent_ids.contains(&s.sid)).map(|s| s.self_ns).sum();

    let mut by_path: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let slot = by_path.entry(s.path.clone()).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += s.dur_ns;
        slot.2 += s.self_ns;
    }

    let mut folded = String::new();
    for (path, (_, _, self_ns)) in &by_path {
        folded.push_str(&path.replace('/', ";"));
        folded.push(' ');
        folded.push_str(&self_ns.to_string());
        folded.push('\n');
    }

    // Main-workload segment: everything before the first scan mark.
    let workload_end = marks.first().map_or(lines.len(), |&(_, from, _)| from);
    let ops = op_totals(lines)?;
    let mut pars: Vec<ParRec> = Vec::new();
    for line in &lines[..workload_end] {
        let obj = json::parse(line).map_err(|e| format!("bad event line: {e}"))?;
        if obj.get("ev").and_then(Json::as_str) == Some("par") {
            pars.push(parse_par(&obj));
        }
    }
    pars.sort_by(|a, b| a.label.cmp(&b.label));

    // Scaling scan: per-op totals per segment, plus tmax parallel efficiency.
    let mut scaling: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut scan_eff: BTreeMap<String, f64> = BTreeMap::new();
    for &(tag, from, to) in marks {
        let seg = op_totals(&lines[from..to])?;
        for (key, (_, total_ns, _)) in seg {
            let slot = scaling.entry(key).or_insert((0, 0));
            match tag {
                "t1" => slot.0 += total_ns,
                _ => slot.1 += total_ns,
            }
        }
        if tag == "tmax" {
            for line in &lines[from..to] {
                let obj = json::parse(line).map_err(|e| format!("bad event line: {e}"))?;
                if obj.get("ev").and_then(Json::as_str) == Some("par") {
                    let p = parse_par(&obj);
                    scan_eff.insert(p.label, p.eff_pct);
                }
            }
        }
    }

    Ok(Report {
        seed: opts.seed,
        quick: opts.quick,
        threads_max: st_par::max_threads(),
        spans: by_path,
        n_spans: spans.len(),
        n_roots,
        n_leaves,
        root_ns,
        leaf_self_ns,
        ops,
        pars,
        scaling,
        scan_eff,
        folded,
    })
}

// The tmax-vs-t1 verdict logic lives in `pristi_bench::scaling` so the
// dispatch-policy regression tests can evaluate the same code this report
// prints (see crates/bench/tests/dispatch_policy.rs).
use pristi_bench::scaling::REGRESSION_RATIO;

impl Report {
    fn leaf_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 100.0;
        }
        100.0 * self.leaf_self_ns as f64 / self.root_ns as f64
    }

    /// `(op, t1_ns, tmax_ns, ratio)` of the worst regressing op (see
    /// [`pristi_bench::scaling::worst_scaling`]).
    fn worst_scaling(&self) -> Option<(String, u64, u64, f64)> {
        pristi_bench::scaling::worst_scaling(&self.scaling)
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"st-profile/1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"threads_max\": {},\n", self.threads_max));
        out.push_str(&format!(
            "  \"attribution\": {{\"spans\": {}, \"roots\": {}, \"leaves\": {}, \
             \"timing\":{{\"root_ns\": {}, \"leaf_self_ns\": {}, \"leaf_pct\": {:.2}}}}},\n",
            self.n_spans,
            self.n_roots,
            self.n_leaves,
            self.root_ns,
            self.leaf_self_ns,
            self.leaf_pct()
        ));
        out.push_str("  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|(path, &(count, total_ns, self_ns))| {
                format!(
                    "    {{\"path\": {}, \"count\": {count}, \
                     \"timing\":{{\"total_ns\": {total_ns}, \"self_ns\": {self_ns}}}}}",
                    json::escape(path)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"ops\": [\n");
        let rows: Vec<String> = self
            .ops
            .iter()
            .map(|(op, &(calls, total_ns, elements))| {
                format!(
                    "    {{\"op\": {}, \"calls\": {calls}, \"elements\": {elements}, \
                     \"timing\":{{\"total_ns\": {total_ns}}}}}",
                    json::escape(op)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"par\": [\n");
        let rows: Vec<String> = self
            .pars
            .iter()
            .map(|p| {
                format!(
                    "    {{\"label\": {}, \"dispatches\": {}, \"chunks\": {}, \
                     \"accept\": {}, \"reject\": {}, \
                     \"timing\":{{\"threads\": {}, \"busy_ns\": {}, \"span_ns\": {}, \
                     \"eff_pct\": {:.2}}}}}",
                    json::escape(&p.label),
                    p.dispatches,
                    p.chunks,
                    p.accept,
                    p.reject,
                    p.threads,
                    p.busy_ns,
                    p.span_ns,
                    p.eff_pct
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"scaling\": [\n");
        let rows: Vec<String> = self
            .scaling
            .iter()
            .map(|(op, &(t1, tmax))| {
                let ratio = tmax as f64 / t1.max(1) as f64;
                format!(
                    "    {{\"op\": {}, \"timing\":{{\"t1_ns\": {t1}, \"tmax_ns\": {tmax}, \
                     \"ratio\": {ratio:.3}, \"regressing\": {}}}}}",
                    json::escape(op),
                    ratio > REGRESSION_RATIO
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        match self.worst_scaling() {
            Some((op, t1, tmax, ratio)) => out.push_str(&format!(
                "  \"verdict\": {{\"timing\":{{\"worst_op\": {}, \"t1_ns\": {t1}, \
                 \"tmax_ns\": {tmax}, \"ratio\": {ratio:.3}, \"regressing\": {}}}}}\n",
                json::escape(&op),
                ratio > REGRESSION_RATIO
            )),
            None => out.push_str("  \"verdict\": {\"timing\":{}}\n"),
        }
        out.push_str("}\n");
        out
    }

    fn render_tables(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== pristi profile (seed {}, {}threads_max {}) ==\n",
            self.seed,
            if self.quick { "quick, " } else { "" },
            self.threads_max
        ));
        out.push_str(&format!(
            "leaf attribution: {:.2}% of {:.3} ms root wall time in {} leaf spans ({} spans, {} roots)\n",
            self.leaf_pct(),
            self.root_ns as f64 / 1e6,
            self.n_leaves,
            self.n_spans,
            self.n_roots
        ));

        out.push_str("\nspans by self time:\n");
        let mut rows: Vec<(&String, &(u64, u64, u64))> = self.spans.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
        out.push_str(&format!(
            "  {:<42} {:>6} {:>12} {:>12}\n",
            "path", "count", "total ms", "self ms"
        ));
        for (path, &(count, total_ns, self_ns)) in rows {
            out.push_str(&format!(
                "  {:<42} {:>6} {:>12.3} {:>12.3}\n",
                path,
                count,
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            ));
        }

        out.push_str("\ntop ops by total time:\n");
        let mut rows: Vec<(&String, &(u64, u64, u64))> = self.ops.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1 .1));
        out.push_str(&format!("  {:<28} {:>8} {:>12}\n", "op", "calls", "total ms"));
        for (op, &(calls, total_ns, _)) in rows.iter().take(12) {
            out.push_str(&format!(
                "  {:<28} {:>8} {:>12.3}\n",
                op,
                calls,
                total_ns as f64 / 1e6
            ));
        }

        if !self.pars.is_empty() {
            out.push_str("\nparallel dispatch telemetry (main workload):\n");
            out.push_str(&format!(
                "  {:<20} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
                "label", "dispatches", "chunks", "accept", "reject", "eff %"
            ));
            for p in &self.pars {
                out.push_str(&format!(
                    "  {:<20} {:>10} {:>8} {:>8} {:>8} {:>8.1}\n",
                    p.label, p.dispatches, p.chunks, p.accept, p.reject, p.eff_pct
                ));
            }
        }

        out.push_str(&format!(
            "\nscaling scan: 1 thread vs {} threads (ratio > {REGRESSION_RATIO:.2} regresses):\n",
            self.threads_max
        ));
        out.push_str(&format!(
            "  {:<28} {:>12} {:>12} {:>7} {:>10} {:>8}\n",
            "op", "t1 ms", "tmax ms", "ratio", "flag", "eff %"
        ));
        let mut rows: Vec<(&String, &(u64, u64))> = self.scaling.iter().collect();
        rows.sort_by(|a, b| {
            let ra = a.1 .1 as f64 / a.1 .0.max(1) as f64;
            let rb = b.1 .1 as f64 / b.1 .0.max(1) as f64;
            rb.total_cmp(&ra)
        });
        for (op, &(t1, tmax)) in rows {
            let ratio = tmax as f64 / t1.max(1) as f64;
            let kind = op.split('.').nth(1).unwrap_or("");
            let eff = self
                .scan_eff
                .get(kind)
                .map_or_else(|| "-".to_string(), |e| format!("{e:.1}"));
            out.push_str(&format!(
                "  {:<28} {:>12.3} {:>12.3} {:>7.3} {:>10} {:>8}\n",
                op,
                t1 as f64 / 1e6,
                tmax as f64 / 1e6,
                ratio,
                if ratio > REGRESSION_RATIO { "REGRESSES" } else { "ok" },
                eff
            ));
        }
        match self.worst_scaling() {
            Some((op, t1, tmax, ratio)) if ratio > REGRESSION_RATIO => out.push_str(&format!(
                "verdict: `{op}` regresses under threading — {:.3} ms at 1 thread vs \
                 {:.3} ms at {} threads ({ratio:.2}x)\n",
                t1 as f64 / 1e6,
                tmax as f64 / 1e6,
                self.threads_max
            )),
            Some((op, _, _, ratio)) => out.push_str(&format!(
                "verdict: no parallel regression — worst op `{op}` at {ratio:.2}x\n"
            )),
            None if self.scaling.is_empty() => {
                out.push_str("verdict: no scaling data collected\n")
            }
            None => out.push_str(
                "verdict: no parallel regression — no op cleared the ratio + delta bars\n",
            ),
        }
        out
    }
}
