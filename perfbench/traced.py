"""The traced run: per-layer metrics from an in-process replay.

Every traced run reports the same per-layer metric set whatever the
workload, from that seed's inputs: the serve requests, the stream ticks and
the batch panel. It also drives a short `serve_bursty` burst schedule over
the wire (tracing off) so the front end's share of a request,
`serve.frontend.residual_ms`, compares the wire with `ImputeService::submit`
on the same schedule, and so the load generator's lateness is reported.
"""

import json
import math
import subprocess

import gen
import stats
import workloads

# Shares of `--seconds` spent on the wire bursts (the in-process service
# replay repeats them) and on the unpaced stream replay.
WIRE_SHARE = 0.25
STREAM_SHARE = 0.2
TRAIN_EPOCHS = 2


def run(ctx, tracer, workload, seed, seconds):
    del workload  # every traced run sweeps every layer
    trainer = workloads.Trainer(ctx)
    trainer.train(1)
    ckpt, field = trainer.ckpt, gen.Field(seed, workloads.CKPT_STEPS)
    bursts = max(4, math.ceil(WIRE_SHARE * seconds / workloads.PERIOD))
    wire = workloads.serve_wire(ctx, ckpt, field, seed, bursts, probes=0)
    ledger = wire["ledger"]
    wire_p50 = stats.percentile([1e3 * (r - d) for d, r in wire["answered"]] or [math.nan], 0.5)

    reqs = gen.serve_requests(field, seed, bursts)
    with open(ctx.path("requests.jsonl"), "wb") as f:
        for rid, values, spec, s, _ in reqs:
            f.write(workloads.request_line(rid, values, spec, s))
    per_session = max(1, math.ceil(seconds / workloads.TICK_PERIOD))
    ticks = gen.stream_ticks(field, seed, workloads.SESSIONS, per_session,
                             workloads.REIMPUTE_EVERY)
    with open(ctx.path("ticks.jsonl"), "wb") as f:
        for lid, (_, k, entry) in enumerate(workloads.stream_schedule(ticks), start=1):
            f.write(workloads.tick_line(lid, k, entry))
    batch, missing = gen.training_panel(0, workloads.BATCH_STEPS)
    workloads.write_text(ctx.path("batch_panel.csv"), gen.panel_csv(batch, missing))
    workloads.write_text(ctx.path("batch_coords.csv"), gen.coords_csv(batch))

    argv = [
        tracer, "replay", "--ckpt", ckpt, "--seed", str(seed),
        "--requests", ctx.path("requests.jsonl"), "--ticks", ctx.path("ticks.jsonl"),
        "--panel", ctx.path("batch_panel.csv"), "--coords", ctx.path("batch_coords.csv"),
        "--bursts", str(bursts), "--burst", str(workloads.BURST),
        "--period", str(workloads.PERIOD), "--horizon", str(workloads.HORIZON),
        "--stream-seconds", str(STREAM_SHARE * seconds), "--train-epochs", str(TRAIN_EPOCHS),
    ]
    with open(ctx.stderr, "ab") as err:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err, timeout=ctx.left())
    if done.returncode != 0:
        raise RuntimeError(f"tracer replay failed (exit {done.returncode})")
    out = json.loads(done.stdout.decode().strip().splitlines()[-1])
    metrics = {k: (math.nan if v is None else v) for k, v in out["metrics"].items()}
    for _ in range(out["attempted"] - sum(out["failures"].values())):
        ledger.ok()
    for reason, count in out["failures"].items():
        for _ in range(count):
            ledger.fail("replay:" + reason)

    metrics["serve.frontend.residual_ms"] = wire_p50 - metrics["serve.service.submit_ms"]
    metrics["loadgen.late_ms_max"] = 1e3 * max(wire["late"]) if wire["late"] else math.nan
    extra = {
        "wire_p50_ms": wire_p50,
        "wire_answers": len(wire["answered"]),
        "checkpoint_train_s": trainer.train_s,
        "fail_frac": ledger.fail_frac,
    }
    return metrics, extra, ledger
