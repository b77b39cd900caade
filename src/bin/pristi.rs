//! `pristi` — command-line spatiotemporal imputation on CSV files.
//!
//! ```text
//! pristi generate --kind aqi --out panel.csv --coords-out coords.csv
//! pristi impute   --data panel.csv --coords coords.csv --out imputed.csv \
//!                 [--epochs 30] [--samples 16] [--window 24] \
//!                 [--sampler SPEC | --ddim 8] \
//!                 [--quantiles lo.csv,hi.csv] [--steps-per-day 24]
//! pristi checkpoint save        --data panel.csv --coords coords.csv --out model.ckpt \
//!                               [--epochs 30] [--window 24] [--seed N] [--steps-per-day 24]
//! pristi checkpoint load-verify --ckpt model.ckpt
//! pristi serve    --ckpt model.ckpt [--samples 8] [--sampler SPEC | --ddim K] \
//!                 [--batch 32] [--deadline-ms 30000] [--seed N] [--workers N]
//! pristi serve    --stream --ckpt model.ckpt [--samples 8] [--sampler SPEC] \
//!                 [--horizon H] [--seed N] [--workers N]
//! pristi loadtest [--seed N] [--clients C] [--requests R] [--workers 1,4] \
//!                 [--out BENCH_serve.json] [--ckpt model.ckpt] [--quick] [--stream]
//! pristi profile  [--seed N] [--out PROFILE.json] [--folded PROFILE_folded.txt] [--quick]
//! pristi bench    --compare OLD,NEW [--threshold-pct P]
//! pristi bench    --sweep [--quick] [--seed N] [--out results/steps_vs_crps.csv]
//! pristi bench    --filter <substr> [--quick] [--json]
//! ```
//!
//! `impute` trains PriSTI on the visible values of the panel (self-supervised
//! re-masking, Algorithm 1), imputes every missing cell, and writes the
//! completed panel back as CSV. With `--quantiles` it also writes the 5 % and
//! 95 % ensemble quantiles for uncertainty-aware downstream use.
//!
//! `checkpoint save` trains the same way and persists the model as an
//! `st-ckpt/1` file; `checkpoint load-verify` proves a file parses, verifies
//! its checksum, and rebuilds the model. `serve` loads a checkpoint into a
//! micro-batching [`st_serve::ImputeService`] and answers JSONL requests from
//! stdin with one JSON response per line on stdout:
//!
//! ```text
//! request:  {"id": 1, "values": [[1.0, null, ...], ...N rows of L cells...],
//!            "n_samples": 8, "ddim_steps": 4}
//! response: {"id": 1, "ok": true, "median": [[...]], "q05": [[...]], "q95": [[...]]}
//! failure:  {"id": 1, "ok": false, "error": {"kind": "shape_mismatch",
//!            "detail": "shape mismatch for ...", "line": 1}}
//! ```
//!
//! Failures share one typed shape across request and stream modes:
//! `error.kind` is the stable machine-readable label
//! ([`pristi_core::PristiError::kind`] for service errors, `bad_json` /
//! `bad_request` for parse failures), `error.detail` the human-readable
//! message, and `error.line` the 1-based stdin line that caused it.
//!
//! `serve --stream` switches the same binary into sliding-window streaming:
//! JSONL *ticks* in (one column of sensor readings per line), revised
//! quantiles for still-open gaps out, with the conditional prior updated
//! incrementally between ticks — see [`st_serve::stream`] for the wire
//! format and README §Streaming for a runnable example.
//!
//! `null` cells are the missing values to impute; a `"sampler"` spec string
//! (`"ddpm"`, `"ddim:K[:ETA]"`, `"pndm:K[:ORDER]"`, `"refine:K[:STRENGTH]"` —
//! the same grammar as the `--sampler` flag) picks the reverse-process solver
//! per request, with the older `"ddim_steps": K` integer kept as an alias for
//! `"ddim:K"` (and an optional `"tier"` of `"interactive"` or `"best_effort"`
//! selects the admission-control tier). Requests batch together exactly when
//! their sampler specs are equal. Responses reproduce bit-for-bit for the
//! same checkpoint, `--seed`, and request `id`, regardless of batching or
//! `--workers` count.
//!
//! `loadtest` drives the same service with a seeded closed-loop schedule and
//! writes `BENCH_serve.json` (see the [`loadtest`] module docs).

use pristi_core::train::{train, MaskStrategyKind, Reporter, TrainConfig};
use pristi_core::{impute, ImputeOptions, PristiConfig, Sampler};
use st_rand::StdRng;
use st_rand::SeedableRng;
use st_baselines::visible;
use st_data::dataset::Window;
use st_data::generators::{generate_air_quality, generate_traffic, AirQualityConfig, TrafficConfig};
use st_data::io::{load_dataset, panel_to_csv};
use st_data::SpatioTemporalDataset;
use st_obs::json::{self, Json};
use st_serve::stream::{error_line, ParseFailure};
use st_serve::{
    load_checkpoint, parse_cell, run_stream, save_checkpoint, AdmissionTier, ImputeRequest, ImputeService,
    ServeConfig, StreamConfig, StreamServerConfig,
};
use st_tensor::NdArray;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

// A crate root's submodules resolve beside it (`src/bin/`), where any `.rs`
// file would be auto-discovered as another binary — park it a level down.
#[path = "pristi/loadtest.rs"]
mod loadtest;
#[path = "pristi/profile.rs"]
mod profile;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("impute") => run_impute(parse_flags(&args[1..])),
        Some("generate") => run_generate(parse_flags(&args[1..])),
        Some("serve") => {
            // `--stream` is a boolean mode switch, not a `--key value` pair.
            let mut rest: Vec<String> = args[1..].to_vec();
            let stream = match rest.iter().position(|a| a == "--stream") {
                Some(pos) => {
                    rest.remove(pos);
                    true
                }
                None => false,
            };
            if stream {
                run_serve_stream(parse_flags(&rest))
            } else {
                run_serve(parse_flags(&rest))
            }
        }
        Some("loadtest") => loadtest::run(&args[1..]),
        Some("profile") => profile::run(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("checkpoint") => match args.get(1).map(String::as_str) {
            Some("save") => run_checkpoint_save(parse_flags(&args[2..])),
            Some("load-verify") => run_checkpoint_verify(parse_flags(&args[2..])),
            _ => {
                eprintln!("usage: pristi checkpoint <save|load-verify> [--flag value]...");
                eprintln!("  pristi checkpoint save --data panel.csv --coords coords.csv --out model.ckpt");
                eprintln!("                         [--epochs N] [--window L] [--steps-per-day N] [--seed N]");
                eprintln!("  pristi checkpoint load-verify --ckpt model.ckpt");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: pristi <impute|generate|checkpoint|serve|loadtest> [--flag value]...");
            eprintln!("  pristi generate --kind aqi|metr-la|pems-bay --out panel.csv --coords-out coords.csv");
            eprintln!("  pristi impute --data panel.csv --coords coords.csv --out imputed.csv");
            eprintln!("                [--epochs N] [--samples S] [--window L]");
            eprintln!("                [--sampler ddpm|ddim:K[:ETA]|pndm:K[:ORDER]|refine:K[:STRENGTH] | --ddim K]");
            eprintln!("                [--steps-per-day N] [--quantiles lo.csv,hi.csv] [--seed N]");
            eprintln!("  pristi checkpoint save --data panel.csv --coords coords.csv --out model.ckpt");
            eprintln!("  pristi checkpoint load-verify --ckpt model.ckpt");
            eprintln!("  pristi serve --ckpt model.ckpt [--samples S] [--sampler SPEC | --ddim K]");
            eprintln!("               [--batch S_max] [--deadline-ms N] [--seed N] [--workers N]");
            eprintln!("               (JSONL requests on stdin)");
            eprintln!("  pristi serve --stream --ckpt model.ckpt [--samples S] [--sampler SPEC]");
            eprintln!("               [--horizon H] [--seed N] [--workers N]");
            eprintln!("               (JSONL ticks on stdin, revised imputations out)");
            eprintln!("  pristi loadtest [--seed N] [--clients C] [--requests R] [--workers 1,4]");
            eprintln!("                  [--out BENCH_serve.json] [--ckpt model.ckpt] [--quick]");
            eprintln!("                  [--stream]");
            eprintln!("  pristi profile  [--seed N] [--out PROFILE.json] [--folded PROFILE_folded.txt]");
            eprintln!("                  [--quick]");
            eprintln!("  pristi bench --compare OLD,NEW [--threshold-pct P]");
            eprintln!("  pristi bench --sweep [--quick] [--seed N] [--out PATH]");
            eprintln!("  pristi bench --filter <substr> [--quick] [--json]");
            ExitCode::from(2)
        }
    }
}

/// `pristi bench` dispatcher:
///
/// * `--compare OLD,NEW [--threshold-pct P]` — diff two bench reports;
/// * `--sweep [--quick] [--seed N] [--out PATH]` — the steps-vs-CRPS solver
///   accuracy sweep (exits nonzero when a gated few-step configuration
///   drifts from the 50-step reference);
/// * `--filter <substr> [--quick] [--json]` — run the matching subset of the
///   micro-benchmark cases in-process, so a kernel iteration doesn't require
///   running the full `cargo bench` suite.
fn run_bench(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--compare") {
        run_bench_compare(args)
    } else if args.iter().any(|a| a == "--sweep") {
        run_bench_sweep(args)
    } else {
        run_bench_filter(args)
    }
}

/// `pristi bench --sweep [--quick] [--seed N] [--out PATH]` — train a seeded
/// `T = 50` model and score every solver × step-count configuration against
/// the 50-step DDIM reference (see `pristi_bench::sweep`). Writes the CSV to
/// `--out` (default `results/steps_vs_crps.csv`) and fails when a gated spec
/// exceeds the pinned CRPS/MAE ratio tolerances.
fn run_bench_sweep(args: &[String]) -> ExitCode {
    let mut opts = pristi_bench::SweepOpts::default();
    let mut out = "results/steps_vs_crps.csv".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sweep" => i += 1,
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--seed" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed needs a number");
                    return ExitCode::from(2);
                };
                opts.seed = v;
                i += 2;
            }
            "--out" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                };
                out = v.clone();
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: pristi bench --sweep [--quick] [--seed N] [--out PATH]");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "sweep: training T=50 model and scoring solvers ({} mode)...",
        if opts.quick { "quick" } else { "full" }
    );
    let report = match pristi_bench::run_sweep(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_table());
    if let Err(e) = std::fs::write(&out, report.to_csv()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("sweep table -> {out}");
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("SWEEP GATE VIOLATION: {v}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `pristi bench --filter <substr> [--quick] [--json]` — time only the micro
/// cases whose name contains `<substr>` (the same case set and timing loop as
/// `cargo bench -p pristi-bench`; `--json` rewrites `BENCH_micro.json` with
/// just the matched entries, so leave it off when iterating on one kernel).
fn run_bench_filter(args: &[String]) -> ExitCode {
    let mut filter: Option<String> = None;
    let mut quick = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--filter" => {
                let Some(value) = args.get(i + 1).filter(|a| !a.starts_with("--")) else {
                    eprintln!("--filter needs a substring");
                    eprintln!("usage: pristi bench --filter <substr> [--quick] [--json]");
                    return ExitCode::from(2);
                };
                filter = Some(value.clone());
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: pristi bench --compare OLD,NEW [--threshold-pct P]");
                eprintln!("       pristi bench --filter <substr> [--quick] [--json]");
                return ExitCode::from(2);
            }
        }
    }
    let mut h = pristi_bench::micro::MicroHarness::new(filter, quick);
    pristi_bench::micro::run_all(&mut h);
    if h.results().is_empty() {
        eprintln!("no bench case matched the filter");
        return ExitCode::FAILURE;
    }
    if json {
        let path = pristi_bench::micro::JSON_PATH;
        if let Err(e) = std::fs::write(path, h.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} entries to {path}", h.results().len());
    }
    ExitCode::SUCCESS
}

/// `pristi bench --compare OLD,NEW [--threshold-pct P]` — diff two bench
/// reports (`st-bench/1` or `st-serve-bench/1`, auto-detected) and exit
/// nonzero when any entry regressed beyond the threshold or went missing.
/// `OLD NEW` as two separate arguments is accepted too.
fn run_bench_compare(args: &[String]) -> ExitCode {
    let mut old_path: Option<String> = None;
    let mut new_path: Option<String> = None;
    let mut threshold_pct = 25.0f64;
    let usage = || {
        eprintln!("usage: pristi bench --compare OLD,NEW [--threshold-pct P]");
        ExitCode::from(2)
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--compare needs OLD,NEW report paths");
                    return usage();
                };
                if let Some((old, new)) = value.split_once(',') {
                    old_path = Some(old.to_string());
                    new_path = Some(new.to_string());
                    i += 2;
                } else {
                    let Some(new) = args.get(i + 2).filter(|a| !a.starts_with("--")) else {
                        eprintln!("--compare needs two report paths (OLD,NEW or OLD NEW)");
                        return usage();
                    };
                    old_path = Some(value.clone());
                    new_path = Some(new.clone());
                    i += 3;
                }
            }
            "--threshold-pct" => {
                let parsed = args.get(i + 1).and_then(|v| v.parse::<f64>().ok());
                let Some(p) = parsed else {
                    eprintln!("--threshold-pct needs a numeric percentage");
                    return usage();
                };
                threshold_pct = p;
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let (Some(old_path), Some(new_path)) = (old_path, new_path) else {
        return usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))
    };
    let outcome = read(&old_path)
        .and_then(|old| read(&new_path).map(|new| (old, new)))
        .and_then(|(old, new)| pristi_bench::compare_reports(&old, &new, threshold_pct));
    match outcome {
        Ok(out) => {
            print!("{}", out.render_table());
            if out.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench compare failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                out.insert(key.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
        }
        eprintln!("warning: ignoring stray argument `{}`", args[i]);
        i += 1;
    }
    out
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    flags.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Resolve the sampler from `--sampler SPEC` (the shared spec grammar:
/// `ddpm`, `ddim:K[:ETA]`, `pndm:K[:ORDER]`, `refine:K[:STRENGTH]`) with
/// `--ddim K` kept as a back-compat alias for `ddim:K`. Neither flag means
/// `default` (full DDPM for the CLI entry points).
fn parse_sampler_flags(
    flags: &HashMap<String, String>,
    default: Sampler,
) -> Result<Sampler, String> {
    match (flags.get("sampler"), flags.get("ddim")) {
        (Some(_), Some(_)) => Err("--sampler and --ddim are mutually exclusive".into()),
        (Some(spec), None) => spec.parse::<Sampler>().map_err(|e| e.to_string()),
        (None, Some(k)) => {
            let steps = k.parse::<usize>().map_err(|_| format!("bad --ddim value `{k}`"))?;
            Ok(Sampler::Ddim { steps, eta: 0.0 })
        }
        (None, None) => Ok(default),
    }
}

fn run_generate(flags: HashMap<String, String>) -> ExitCode {
    let kind = flags.get("kind").map(String::as_str).unwrap_or("aqi");
    let out = flags.get("out").map(String::as_str).unwrap_or("panel.csv");
    let coords_out = flags.get("coords-out").map(String::as_str).unwrap_or("coords.csv");
    let seed = get_usize(&flags, "seed", 2023) as u64;
    let data: SpatioTemporalDataset = match kind {
        "aqi" => generate_air_quality(&AirQualityConfig { seed, n_days: 28, ..Default::default() }),
        "metr-la" => generate_traffic(&TrafficConfig { seed, ..TrafficConfig::metr_la() }),
        "pems-bay" => generate_traffic(&TrafficConfig { seed, ..TrafficConfig::pems_bay() }),
        other => {
            eprintln!("unknown --kind `{other}` (expected aqi|metr-la|pems-bay)");
            return ExitCode::from(2);
        }
    };
    let sensors: Vec<String> = (0..data.n_nodes()).map(|i| format!("s{i}")).collect();
    // write panel with original missing as empty cells
    let (t, n) = (data.n_steps(), data.n_nodes());
    let mut csv = String::from("time");
    for s in &sensors {
        csv.push(',');
        csv.push_str(s);
    }
    csv.push('\n');
    for ti in 0..t {
        csv.push_str(&ti.to_string());
        for i in 0..n {
            let idx = ti * n + i;
            if data.observed_mask.data()[idx] > 0.0 {
                csv.push_str(&format!(",{:.4}", data.values.data()[idx]));
            } else {
                csv.push(',');
            }
        }
        csv.push('\n');
    }
    let mut coords = String::from("sensor,x,y\n");
    for (i, c) in data.graph.coords.iter().enumerate() {
        coords.push_str(&format!("s{i},{:.4},{:.4}\n", c.x, c.y));
    }
    if let Err(e) = std::fs::write(out, csv).and_then(|_| std::fs::write(coords_out, coords)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "generated {kind}-like panel: {t} steps x {n} sensors -> {out}, coordinates -> {coords_out}"
    );
    ExitCode::SUCCESS
}

fn run_impute(flags: HashMap<String, String>) -> ExitCode {
    let Some(data_path) = flags.get("data") else {
        eprintln!("--data <panel.csv> is required");
        return ExitCode::from(2);
    };
    let Some(coords_path) = flags.get("coords") else {
        eprintln!("--coords <coords.csv> is required");
        return ExitCode::from(2);
    };
    let out_path = flags.get("out").map(String::as_str).unwrap_or("imputed.csv");
    let steps_per_day = get_usize(&flags, "steps-per-day", 24);
    let epochs = get_usize(&flags, "epochs", 30);
    let n_samples = get_usize(&flags, "samples", 16);
    let window = get_usize(&flags, "window", 24);
    let sampler = match parse_sampler_flags(&flags, Sampler::Ddpm) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let seed = get_usize(&flags, "seed", 7) as u64;

    let data = match load_dataset(Path::new(data_path), Path::new(coords_path), steps_per_day) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("failed to load dataset: {e}");
            return ExitCode::FAILURE;
        }
    };
    let missing = 1.0
        - data.observed_mask.data().iter().map(|&v| v as f64).sum::<f64>()
            / data.observed_mask.numel() as f64;
    println!(
        "loaded {}: {} steps x {} sensors, {:.1}% missing",
        data.name,
        data.n_steps(),
        data.n_nodes(),
        100.0 * missing
    );
    if data.n_steps() < 2 * window {
        eprintln!("panel too short for --window {window}");
        return ExitCode::FAILURE;
    }

    let mut cfg = PristiConfig::small();
    cfg.virtual_nodes = cfg.virtual_nodes.min(data.n_nodes());
    let tc = TrainConfig {
        epochs,
        window_len: window,
        window_stride: (window / 2).max(1),
        strategy: MaskStrategyKind::HybridBlock,
        seed,
        reporter: Reporter::Stderr,
        ..Default::default()
    };
    println!("training PriSTI ({epochs} epochs, window {window})...");
    let trained = match train(&data, cfg, &tc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("trained {} parameters", trained.model.n_params());

    // Impute the whole panel window by window.
    let (mut panel, mask) = visible(&data);
    let mut lo = panel.clone();
    let mut hi = panel.clone();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let (t_len, n) = (data.n_steps(), data.n_nodes());
    let mut starts: Vec<usize> = (0..=(t_len - window)).step_by(window).collect();
    if starts.last() != Some(&(t_len - window)) {
        starts.push(t_len - window);
    }
    for (wi, &t0) in starts.iter().enumerate() {
        let w = data.window_at(t0, window);
        let res = match impute(&trained, &w, &ImputeOptions { n_samples, sampler }, &mut rng) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("imputation failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let med = res.median();
        let q05 = res.quantile(0.05);
        let q95 = res.quantile(0.95);
        write_window(&mut panel, &mask, &med, t0, n, window);
        write_window(&mut lo, &mask, &q05, t0, n, window);
        write_window(&mut hi, &mask, &q95, t0, n, window);
        println!("  window {}/{} imputed", wi + 1, starts.len());
    }

    let sensors: Vec<String> = panel_sensor_names(data_path, n);
    if let Err(e) = std::fs::write(out_path, panel_to_csv(&panel, &sensors)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("imputed panel -> {out_path}");
    if let Some(q) = flags.get("quantiles") {
        if let Some((lo_path, hi_path)) = q.split_once(',') {
            let r = std::fs::write(lo_path, panel_to_csv(&lo, &sensors))
                .and_then(|_| std::fs::write(hi_path, panel_to_csv(&hi, &sensors)));
            match r {
                Ok(()) => println!("quantile bands -> {lo_path}, {hi_path}"),
                Err(e) => {
                    eprintln!("quantile write failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            eprintln!("--quantiles expects `lo.csv,hi.csv`");
        }
    }
    ExitCode::SUCCESS
}

/// Train exactly as `pristi impute` would, then persist the model as an
/// `st-ckpt/1` file instead of imputing.
fn run_checkpoint_save(flags: HashMap<String, String>) -> ExitCode {
    let Some(data_path) = flags.get("data") else {
        eprintln!("--data <panel.csv> is required");
        return ExitCode::from(2);
    };
    let Some(coords_path) = flags.get("coords") else {
        eprintln!("--coords <coords.csv> is required");
        return ExitCode::from(2);
    };
    let out_path = flags.get("out").map(String::as_str).unwrap_or("model.ckpt");
    let steps_per_day = get_usize(&flags, "steps-per-day", 24);
    let epochs = get_usize(&flags, "epochs", 30);
    let window = get_usize(&flags, "window", 24);
    let seed = get_usize(&flags, "seed", 7) as u64;

    let data = match load_dataset(Path::new(data_path), Path::new(coords_path), steps_per_day) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("failed to load dataset: {e}");
            return ExitCode::FAILURE;
        }
    };
    if data.n_steps() < 2 * window {
        eprintln!("panel too short for --window {window}");
        return ExitCode::FAILURE;
    }
    let mut cfg = PristiConfig::small();
    cfg.virtual_nodes = cfg.virtual_nodes.min(data.n_nodes());
    let tc = TrainConfig {
        epochs,
        window_len: window,
        window_stride: (window / 2).max(1),
        strategy: MaskStrategyKind::HybridBlock,
        seed,
        reporter: Reporter::Stderr,
        ..Default::default()
    };
    println!("training PriSTI ({epochs} epochs, window {window})...");
    let trained = match train(&data, cfg, &tc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match save_checkpoint(&trained, Path::new(out_path)) {
        Ok(()) => {
            println!(
                "checkpoint ({} parameters, {} sensors, window {}) -> {out_path}",
                trained.model.n_params(),
                trained.model.n_nodes(),
                trained.model.window_len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("checkpoint save failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load a checkpoint end to end — header, checksum, config validation, and
/// full model rebuild — and print what it holds. A valid file exits 0.
fn run_checkpoint_verify(flags: HashMap<String, String>) -> ExitCode {
    let Some(ckpt_path) = flags.get("ckpt") else {
        eprintln!("--ckpt <model.ckpt> is required");
        return ExitCode::from(2);
    };
    match load_checkpoint(Path::new(ckpt_path)) {
        Ok(trained) => {
            println!("checkpoint OK: {ckpt_path}");
            println!("  parameters: {}", trained.model.n_params());
            println!("  sensors:    {}", trained.model.n_nodes());
            println!("  window:     {}", trained.model.window_len());
            println!("  t_steps:    {}", trained.schedule.betas().len());
            match trained.epoch_losses.last() {
                Some(last) => println!(
                    "  training:   {} epochs, final loss {last:.6}",
                    trained.epoch_losses.len()
                ),
                None => println!("  training:   no recorded epochs"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("checkpoint verify failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Serve a checkpoint over a stdin/stdout JSONL loop (one request per line,
/// one response per line; see the module docs for the wire format).
fn run_serve(flags: HashMap<String, String>) -> ExitCode {
    let Some(ckpt_path) = flags.get("ckpt") else {
        eprintln!("--ckpt <model.ckpt> is required");
        return ExitCode::from(2);
    };
    let default_samples = get_usize(&flags, "samples", 8);
    let default_sampler = match parse_sampler_flags(&flags, Sampler::Ddpm) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cfg = ServeConfig {
        max_batch_samples: get_usize(&flags, "batch", 32),
        workers: get_usize(&flags, "workers", 1),
        default_deadline: Duration::from_millis(get_usize(&flags, "deadline-ms", 30_000) as u64),
        base_seed: get_usize(&flags, "seed", 0) as u64,
        ..Default::default()
    };
    let trained = match load_checkpoint(Path::new(ckpt_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load checkpoint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n_nodes, window_len) = (trained.model.n_nodes(), trained.model.window_len());
    let service = match ImputeService::start(trained, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving {ckpt_path} ({n_nodes} sensors, window {window_len}); \
         reading JSONL requests from stdin"
    );

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    let mut line_no = 0u64;
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin read failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        line_no += 1;
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line, default_samples, default_sampler) {
            Ok(req) => {
                let id = req.id;
                match service.submit(req) {
                    Ok(res) => {
                        let med = res.median();
                        let q05 = res.quantile(0.05);
                        let q95 = res.quantile(0.95);
                        format!(
                            "{{\"id\":{id},\"ok\":true,\"median\":{},\"q05\":{},\"q95\":{}}}",
                            grid_json(&med),
                            grid_json(&q05),
                            grid_json(&q95)
                        )
                    }
                    Err(e) => error_line(Some(id), e.kind(), &e.to_string(), line_no),
                }
            }
            Err((id, kind, detail)) => error_line(id, kind, &detail, line_no),
        };
        // Piped stdout is block-buffered; a serving loop must flush per line
        // or clients waiting on a response deadlock.
        if writeln!(stdout, "{response}").and_then(|()| stdout.flush()).is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `pristi serve --stream`: a sliding-window streaming loop over stdin
/// JSONL ticks (see [`st_serve::stream`] for the wire format and the
/// incremental-prior design, and README §Streaming for a quickstart).
fn run_serve_stream(flags: HashMap<String, String>) -> ExitCode {
    let Some(ckpt_path) = flags.get("ckpt") else {
        eprintln!("--ckpt <model.ckpt> is required");
        return ExitCode::from(2);
    };
    // Streaming revises gaps every tick, so the default solver is the
    // few-step `pndm:4` rather than full DDPM.
    let default_sampler = match parse_sampler_flags(&flags, Sampler::Pndm { steps: 4, order: 4 }) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cfg = StreamServerConfig {
        session: StreamConfig {
            n_samples: get_usize(&flags, "samples", 8),
            sampler: default_sampler,
            horizon: get_usize(&flags, "horizon", 4),
            base_seed: get_usize(&flags, "seed", 0) as u64,
        },
        workers: get_usize(&flags, "workers", 1),
    };
    let trained = match load_checkpoint(Path::new(ckpt_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load checkpoint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n_nodes, window_len) = (trained.model.n_nodes(), trained.model.window_len());
    eprintln!(
        "streaming {ckpt_path} ({n_nodes} sensors, window {window_len}, horizon {}, \
         sampler {default_sampler}); reading JSONL ticks from stdin",
        cfg.session.horizon
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout().lock();
    match run_stream(std::sync::Arc::new(trained), &cfg, stdin.lock(), stdout) {
        Ok(summary) => {
            eprintln!(
                "stream closed: {} ok ({} imputed, {} skipped), {} errors",
                summary.ok, summary.imputes, summary.skips, summary.errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stream I/O failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse one JSONL request line into an [`ImputeRequest`]. `null` cells are
/// missing; everything shape-related is left to the service's validation.
///
/// The sampler comes from the `"sampler"` spec string (shared grammar, e.g.
/// `"pndm:6"`), with the pre-spec `"ddim_steps"` integer field kept as an
/// alias for `ddim:K`; with neither the serve-level default applies.
///
/// A failure carries the request id whenever it parsed, in the same
/// `(id, kind, detail)` shape as the stream mode's tick parser.
fn parse_request(
    line: &str,
    default_samples: usize,
    default_sampler: Sampler,
) -> Result<ImputeRequest, ParseFailure> {
    let req = json::parse(line).map_err(|e| (None, "bad_json", format!("bad JSON: {e}")))?;
    let id = req.get("id").and_then(Json::as_u64).ok_or_else(|| {
        (None, "bad_request", "request needs a numeric \"id\"".to_string())
    })?;
    parse_request_body(&req, id, default_samples, default_sampler)
        .map_err(|detail| (Some(id), "bad_request", detail))
}

fn parse_request_body(
    req: &Json,
    id: u64,
    default_samples: usize,
    default_sampler: Sampler,
) -> Result<ImputeRequest, String> {
    let rows = req
        .get("values")
        .and_then(Json::as_arr)
        .ok_or("request needs a \"values\" array of sensor rows")?;
    let n = rows.len();
    let l = rows
        .first()
        .and_then(|r| r.as_arr())
        .ok_or("\"values\" rows must be arrays")?
        .len();
    let mut values = NdArray::zeros(&[n, l]);
    let mut observed = NdArray::zeros(&[n, l]);
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_arr().ok_or("\"values\" rows must be arrays")?;
        if cells.len() != l {
            return Err(format!(
                "ragged \"values\": row 0 has {l} cells, row {i} has {}",
                cells.len()
            ));
        }
        for (li, cell) in cells.iter().enumerate() {
            if let Some(v) = parse_cell(cell).map_err(|e| format!("cell [{i}][{li}] {e}"))? {
                values.data_mut()[i * l + li] = v;
                observed.data_mut()[i * l + li] = 1.0;
            }
        }
    }
    let n_samples = req
        .get("n_samples")
        .and_then(Json::as_u64)
        .map_or(default_samples, |v| v as usize);
    let sampler = match (req.get("sampler"), req.get("ddim_steps")) {
        (Some(_), Some(_)) => {
            return Err("\"sampler\" and \"ddim_steps\" are mutually exclusive".into())
        }
        (Some(spec), None) => {
            let spec = spec.as_str().ok_or("\"sampler\" must be a spec string")?;
            spec.parse::<Sampler>().map_err(|e| e.to_string())?
        }
        (None, Some(steps)) => {
            let steps = steps.as_u64().ok_or("\"ddim_steps\" must be a non-negative integer")?;
            Sampler::Ddim { steps: steps as usize, eta: 0.0 }
        }
        (None, None) => default_sampler,
    };
    let tier = match req.get("tier").and_then(Json::as_str) {
        None | Some("interactive") => AdmissionTier::Interactive,
        Some("best_effort") => AdmissionTier::BestEffort,
        Some(other) => {
            return Err(format!(
                "unknown \"tier\" `{other}` (expected \"interactive\" or \"best_effort\")"
            ))
        }
    };
    Ok(ImputeRequest {
        id,
        window: Window { values, observed, eval: NdArray::zeros(&[n, l]), t_start: 0 },
        n_samples,
        sampler,
        tier,
        deadline: None,
    })
}

/// Render a `[N, L]` array as nested JSON arrays (rows = sensors).
fn grid_json(a: &NdArray) -> String {
    let (n, l) = (a.shape()[0], a.shape()[1]);
    let mut out = String::from("[");
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for li in 0..l {
            if li > 0 {
                out.push(',');
            }
            let v = a.data()[i * l + li];
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                out.push_str("null");
            }
        }
        out.push(']');
    }
    out.push(']');
    out
}

fn write_window(panel: &mut NdArray, mask: &NdArray, win: &NdArray, t0: usize, n: usize, l: usize) {
    for li in 0..l {
        for i in 0..n {
            let idx = (t0 + li) * n + i;
            if mask.data()[idx] == 0.0 {
                panel.data_mut()[idx] = win.data()[i * l + li];
            }
        }
    }
}

fn panel_sensor_names(path: &str, n: usize) -> Vec<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            let header = text.lines().next()?.to_string();
            let names: Vec<String> =
                header.split(',').skip(1).map(|s| s.trim().to_string()).collect();
            (names.len() == n).then_some(names)
        })
        .unwrap_or_else(|| (0..n).map(|i| format!("s{i}")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure(line: &str) -> ParseFailure {
        match parse_request(line, 8, Sampler::Ddpm) {
            Ok(_) => panic!("line must fail to parse: {line}"),
            Err(failure) => failure,
        }
    }

    #[test]
    fn parse_failures_echo_the_id_when_it_parsed() {
        let (id, kind, _) = failure("{\"id\":9,\"values\":[[1.0,");
        assert_eq!((id, kind), (None, "bad_json"));
        let (id, kind, _) = failure("{\"values\":[[1.0,2.0]]}");
        assert_eq!((id, kind), (None, "bad_request"));
        let (id, kind, detail) = failure("{\"id\":9,\"values\":[[1e39,2.0]]}");
        assert_eq!((id, kind), (Some(9), "bad_request"));
        assert!(detail.contains("cell [0][0]"), "{detail}");
        let ok = parse_request("{\"id\":9,\"values\":[[1.0,null]]}", 8, Sampler::Ddpm).unwrap();
        assert_eq!(ok.id, 9);
    }
}
