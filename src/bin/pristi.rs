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
//!                 [--deadline-ms 30000] [--seed N] [--workers N]
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
//! multi-worker [`st_serve::ImputeService`] and answers JSONL requests from
//! stdin with one JSON response per line on stdout; `serve --stream`
//! switches the same binary into sliding-window streaming (one column of
//! sensor readings per line in, revised quantiles for still-open gaps out).
//! Both modes run on one pipelined front end ([`st_serve::wire`]): the next
//! line is read while earlier ones are served, and each answer is written,
//! in input order, as soon as it is ready. See [`st_serve::wire`] for the
//! request format and error shape, [`st_serve::stream`] for ticks, and
//! README §Streaming for a runnable example. Responses reproduce
//! bit-for-bit for the same checkpoint, `--seed`, and request `id`,
//! regardless of `--workers` count.
//!
//! Every subcommand that takes `--key value` flags rejects an unknown flag
//! or an unparsable number with its usage and exit status 2.
//!
//! `loadtest` drives the same service with a seeded closed-loop schedule and
//! writes `BENCH_serve.json` (see the [`loadtest`] module docs).

use pristi_core::train::{train, MaskStrategyKind, Reporter, TrainConfig};
use pristi_core::{impute, ImputeOptions, PristiConfig, Sampler};
use st_rand::StdRng;
use st_rand::SeedableRng;
use st_baselines::visible;
use st_data::generators::{generate_air_quality, generate_traffic, AirQualityConfig, TrafficConfig};
use st_data::io::{load_dataset, panel_to_csv};
use st_data::SpatioTemporalDataset;
use st_serve::{
    load_checkpoint, run_requests, run_stream, save_checkpoint, ImputeService, ServeConfig,
    StreamConfig, StreamServerConfig,
};
use st_tensor::NdArray;
use std::collections::HashMap;
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
    let flagged = |args: &[String], spec: &FlagSpec, run: fn(Flags) -> ExitCode| {
        match parse_flags(args, spec) {
            Ok(flags) => run(flags),
            Err(msg) => {
                eprintln!("{msg}");
                usage()
            }
        }
    };
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("impute") => flagged(rest, &IMPUTE_FLAGS, run_impute),
        Some("generate") => flagged(rest, &GENERATE_FLAGS, run_generate),
        Some("serve") if rest.iter().any(|a| a == "--stream") => flagged(rest, &STREAM_FLAGS, run_serve),
        Some("serve") => flagged(rest, &SERVE_FLAGS, run_serve),
        Some("loadtest") => loadtest::run(rest),
        Some("profile") => profile::run(rest),
        Some("bench") if rest.iter().any(|a| a == "--compare") => run_bench_compare(rest),
        Some("bench") if rest.iter().any(|a| a == "--sweep") => flagged(rest, &SWEEP_FLAGS, run_bench_sweep),
        Some("bench") => flagged(rest, &FILTER_FLAGS, run_bench_filter),
        Some("checkpoint") => match args.get(1).map(String::as_str) {
            Some("save") => flagged(&args[2..], &CKPT_SAVE_FLAGS, run_checkpoint_save),
            Some("load-verify") => flagged(&args[2..], &CKPT_VERIFY_FLAGS, run_checkpoint_verify),
            _ => usage(),
        },
        _ => usage(),
    }
}

/// Print the top-level usage and exit with status 2.
fn usage() -> ExitCode {
    eprintln!("usage: pristi <impute|generate|checkpoint|serve|loadtest> [--flag value]...");
    eprintln!("  pristi generate --kind aqi|metr-la|pems-bay --out panel.csv --coords-out coords.csv");
    eprintln!("  pristi impute --data panel.csv --coords coords.csv --out imputed.csv");
    eprintln!("                [--epochs N] [--samples S] [--window L]");
    eprintln!("                [--sampler ddpm|ddim:K[:ETA]|pndm:K[:ORDER]|refine:K[:STRENGTH] | --ddim K]");
    eprintln!("                [--steps-per-day N] [--quantiles lo.csv,hi.csv] [--seed N]");
    eprintln!("  pristi checkpoint save --data panel.csv --coords coords.csv --out model.ckpt");
    eprintln!("  pristi checkpoint load-verify --ckpt model.ckpt");
    eprintln!("  pristi serve --ckpt model.ckpt [--samples S] [--sampler SPEC | --ddim K]");
    eprintln!("               [--deadline-ms N] [--seed N] [--workers N]");
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

/// `pristi bench --sweep [--quick] [--seed N] [--out PATH]` — train a seeded
/// `T = 50` model and score every solver × step-count configuration against
/// the 50-step DDIM reference (see `pristi_bench::sweep`). Writes the CSV to
/// `--out` (default `results/steps_vs_crps.csv`) and fails when a gated spec
/// exceeds the pinned CRPS/MAE ratio tolerances.
fn run_bench_sweep(flags: Flags) -> ExitCode {
    let mut opts = pristi_bench::SweepOpts { quick: flags.contains_key("quick"), ..Default::default() };
    opts.seed = get_usize(&flags, "seed", opts.seed as usize) as u64;
    let out = flags.get("out").map_or("results/steps_vs_crps.csv", String::as_str);
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
    if let Err(e) = std::fs::write(out, report.to_csv()) {
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
fn run_bench_filter(flags: Flags) -> ExitCode {
    let (quick, json) = (flags.contains_key("quick"), flags.contains_key("json"));
    let mut h = pristi_bench::micro::MicroHarness::new(flags.get("filter").cloned(), quick);
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

/// Parsed flags of one subcommand: `--key value` pairs, and each switch
/// present mapped to an empty value.
pub(crate) type Flags = HashMap<String, String>;

/// The flags one subcommand accepts, without `--`: `numeric` keys take a
/// non-negative integer, `text` keys any value, `switches` no value.
pub(crate) struct FlagSpec {
    pub numeric: &'static [&'static str],
    pub text: &'static [&'static str],
    pub switches: &'static [&'static str],
}

const IMPUTE_FLAGS: FlagSpec = FlagSpec {
    numeric: &["steps-per-day", "epochs", "samples", "window", "seed", "ddim"],
    text: &["data", "coords", "out", "sampler", "quantiles"],
    switches: &[],
};
const GENERATE_FLAGS: FlagSpec =
    FlagSpec { numeric: &["seed"], text: &["kind", "out", "coords-out"], switches: &[] };
const CKPT_SAVE_FLAGS: FlagSpec = FlagSpec {
    numeric: &["steps-per-day", "epochs", "window", "seed"],
    text: &["data", "coords", "out"],
    switches: &[],
};
const CKPT_VERIFY_FLAGS: FlagSpec = FlagSpec { numeric: &[], text: &["ckpt"], switches: &[] };
const SERVE_FLAGS: FlagSpec = FlagSpec {
    numeric: &["samples", "deadline-ms", "seed", "workers", "ddim"],
    text: &["ckpt", "sampler"],
    switches: &[],
};
const STREAM_FLAGS: FlagSpec = FlagSpec {
    numeric: &["samples", "horizon", "seed", "workers", "ddim"],
    text: &["ckpt", "sampler"],
    switches: &["stream"],
};
const SWEEP_FLAGS: FlagSpec =
    FlagSpec { numeric: &["seed"], text: &["out"], switches: &["sweep", "quick"] };
const FILTER_FLAGS: FlagSpec =
    FlagSpec { numeric: &[], text: &["filter"], switches: &["quick", "json"] };

/// Parse flags against `spec`. An unknown flag, a flag without a value, a
/// stray argument or an unparsable number is an error, so a mistyped or
/// retired flag can never be silently ignored.
pub(crate) fn parse_flags(args: &[String], spec: &FlagSpec) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        if spec.switches.contains(&key) {
            out.insert(key.to_string(), String::new());
            continue;
        }
        let numeric = spec.numeric.contains(&key);
        if !numeric && !spec.text.contains(&key) {
            return Err(format!("unknown flag `{arg}`"));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag `{arg}` needs a value"));
        };
        if numeric && value.parse::<u64>().is_err() {
            return Err(format!("flag `{arg}` needs a non-negative integer, got `{value}`"));
        }
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

/// A numeric flag's value (already validated by [`parse_flags`]) or `default`.
pub(crate) fn get_usize(flags: &Flags, key: &str, default: usize) -> usize {
    flags.get(key).map_or(default, |v| v.parse().expect("parse_flags validated numeric flags"))
}

/// Resolve the sampler from `--sampler SPEC` (the shared spec grammar:
/// `ddpm`, `ddim:K[:ETA]`, `pndm:K[:ORDER]`, `refine:K[:STRENGTH]`) with
/// `--ddim K` kept as a back-compat alias for `ddim:K`. Neither flag means
/// `default` (full DDPM for the CLI entry points).
fn parse_sampler_flags(
    flags: &Flags,
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

fn run_generate(flags: Flags) -> ExitCode {
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

fn run_impute(flags: Flags) -> ExitCode {
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
fn run_checkpoint_save(flags: Flags) -> ExitCode {
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
fn run_checkpoint_verify(flags: Flags) -> ExitCode {
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

/// `pristi serve [--stream]`: load a checkpoint and answer JSONL lines from
/// stdin on stdout through the shared front end — requests by default,
/// sliding-window ticks with `--stream` (see [`st_serve::wire`] and
/// [`st_serve::stream`], and README §Streaming for a quickstart).
fn run_serve(flags: Flags) -> ExitCode {
    let Some(ckpt_path) = flags.get("ckpt") else {
        eprintln!("--ckpt <model.ckpt> is required");
        return ExitCode::from(2);
    };
    let stream = flags.contains_key("stream");
    // Streaming revises gaps every tick, so its default solver is the
    // few-step `pndm:4` rather than full DDPM.
    let default = if stream { Sampler::Pndm { steps: 4, order: 4 } } else { Sampler::Ddpm };
    let sampler = match parse_sampler_flags(&flags, default) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let trained = match load_checkpoint(Path::new(ckpt_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load checkpoint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (n_nodes, window_len) = (trained.model.n_nodes(), trained.model.window_len());
    let samples = get_usize(&flags, "samples", 8);
    let (seed, workers) = (get_usize(&flags, "seed", 0) as u64, get_usize(&flags, "workers", 1));
    let stdin = std::io::stdin();
    let served = if stream {
        let horizon = get_usize(&flags, "horizon", 4);
        let session = StreamConfig { n_samples: samples, sampler, horizon, base_seed: seed };
        eprintln!(
            "streaming {ckpt_path} ({n_nodes} sensors, window {window_len}, horizon {horizon}, \
             sampler {sampler}); reading JSONL ticks from stdin"
        );
        let cfg = StreamServerConfig { session, workers };
        run_stream(std::sync::Arc::new(trained), &cfg, stdin.lock(), std::io::stdout()).map(|s| {
            eprintln!(
                "stream closed: {} ok ({} imputed, {} skipped), {} errors",
                s.ok, s.imputes, s.skips, s.errors
            );
        })
    } else {
        let cfg = ServeConfig {
            workers,
            default_deadline: Duration::from_millis(get_usize(&flags, "deadline-ms", 30_000) as u64),
            base_seed: seed,
            ..Default::default()
        };
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
        run_requests(&service, samples, sampler, stdin.lock(), std::io::stdout())
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve I/O failed: {e}");
            ExitCode::FAILURE
        }
    }
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
    use st_serve::{parse_request, ParseFailure};

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

    fn flags(args: &[&str], spec: &FlagSpec) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>(), spec)
    }

    #[test]
    fn unknown_flags_and_unparsable_numbers_are_usage_errors() {
        let ok = flags(&["--workers", "2", "--ckpt", "m.ckpt", "--sampler", "pndm:4"], &SERVE_FLAGS);
        let ok = ok.unwrap();
        assert_eq!(get_usize(&ok, "workers", 1), 2);
        assert_eq!(get_usize(&ok, "samples", 8), 8, "absent flags take the default");
        for bad in [
            &["--workers", "two"][..],
            &["--batch", "4"],
            &["--workers", "2", "--batch", "x"],
            &["--samples", "-1"],
            &["--ckpt"],
            &["stray"],
        ] {
            assert!(flags(bad, &SERVE_FLAGS).is_err(), "{bad:?} must be rejected");
        }
        assert!(flags(&["--horizon", "4"], &STREAM_FLAGS).is_ok());
        assert!(flags(&["--horizon", "4"], &SERVE_FLAGS).is_err(), "--horizon is stream-only");
    }
}
