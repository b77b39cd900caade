"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. Builds the release `pristi` binary and the
in-process tracer from source (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs one workload:

* `--trace 0` drives `pristi` from outside through its CLI and stdin/stdout
  and reports the end-to-end metrics;
* `--trace 1` replays the same seed's inputs in-process through each layer's
  public functions and reports the per-layer metrics.

`--workload` takes a workload of BENCHMARK.json or `batch_fig9` (see
`workloads.py`); `--workload all` runs all three in turn. Human-readable lines come
first (the host fingerprint, then one line per metric with its unit); the
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Exits 1 when an output check fails and 2 when the program
cannot be built or run.

Unit tests: `python3 -m unittest discover -s perfbench/tests`.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import host  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
E2E_PAR_THREADS = "1"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build `pristi` and the tracer; returns their paths and the directory
    the workloads write to."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise RuntimeError("no Cargo.toml at the checkout root: nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "pristi"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(argv)}")
    return (os.path.join(target, "release", "pristi"),
            os.path.join(target, "release", "perfbench-tracer"),
            os.path.join(target, "perfbench"))


def _finite(v):
    """A metric value for the JSON result: NaN (unmeasured) becomes null."""
    return v if v is not None and math.isfinite(v) else None


def run_workload(spec, name, args, pristi, tracer, work, fingerprint):
    """Run one workload, print its report lines and return its result."""
    ctx = workloads.Ctx(pristi, os.path.join(work, f"{name}-{os.getpid()}"))
    if args.trace:
        metrics, extra, ledger = traced.run(ctx, tracer, name, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        metrics, extra, ledger = workloads.WORKLOADS[name](ctx, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    non_finite = [k for k, v in metrics.items() if not math.isfinite(v)]
    for metric in missing + non_finite:
        ledger.fail(f"metric_unavailable:{metric}")

    print(f"workload {name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {ledger.attempted} attempted, {ledger.failed} failed")
    for reason, count in sorted(ledger.reasons.items()):
        print(f"  failure {reason}: {count}")
    units = {m["name"]: m["unit"] for m in wanted}
    for metric in sorted(metrics):
        print(f"  {metric:<40} {metrics[metric]:>14.6g} {units.get(metric, '')}")
    for key in sorted(extra):
        value = extra[key]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<40} {shown:>14} (reported only)")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": _finite(metrics.get(m["name"])), "unit": m["unit"]}
                    for m in wanted},
    }
    if args.out:
        report = dict(result, workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, fingerprint=fingerprint, extra=extra)
        path = args.out if args.workload != "all" else f"{args.out}.{name}"
        with open(path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    if result["correct"]:
        shutil.rmtree(ctx.work, ignore_errors=True)  # kept on failure, for its stderr log
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full stamped report here (JSON)")
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        names = list(workloads.WORKLOADS)
        if args.workload != "all" and args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload!r} (expected one of {names})")
        pristi, tracer, work = build()
        if not args.trace:
            # End-to-end children run their tensor ops on one thread: with
            # `--workers 2` that keeps at most two compute threads on a
            # 2-core host, and no op waits at a join for a second vCPU the
            # host has descheduled. The traced run keeps the default, so
            # `par.eff_frac` still measures `st-par`.
            os.environ["ST_PAR_THREADS"] = E2E_PAR_THREADS
        fingerprint = host.fingerprint(ROOT, tracer)
        print(f"host {json.dumps(fingerprint, sort_keys=True)}")
        results = {name: run_workload(spec, name, args, pristi, tracer, work, fingerprint)
                   for name in (names if args.workload == "all" else [args.workload])}
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (result,) = results.values()
    else:
        # `--workload all`: one line per workload, then the combined result
        # with metrics named `<workload>.<metric>`.
        for name, r in results.items():
            print(f"{name} {json.dumps(r)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
