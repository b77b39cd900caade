"""The end-to-end workloads, each driving the release `pristi` binary
through its real CLI and stdin/stdout, checking every answer.

BENCHMARK.json lists `serve_bursty` and `stream_paced`. `batch_fig9`, the
paper's Fig. 9 train/impute budget, runs only when named: it times the same
training tape as the serve and stream runs' checkpoint trainings plus the
30-NFE DDPM chain, and a third workload would not fit the runs the
benchmark's time budget allows at its run length.

A workload returns `(metrics, extra, ledger)`: `metrics` holds every
end-to-end metric of BENCHMARK.json, `extra` the reported-only figures
(`fail_frac`, `interp_mae`, sample counts, load-generator lateness) and
`ledger` the per-unit failure accounting.
"""

import json
import math
import os
import random
import statistics
import time

import gen
import stats
import wire

# Every serve/stream run trains its checkpoint TRAIN_REPEATS times on the same
# panel with the same seed: every run serves the same model, every training
# must write the same bytes, and `train_s` is a median of identical work.
CKPT_STEPS = 336
CKPT_EPOCHS = 3
TRAIN_REPEATS = 6

# serve_bursty: open loop, one burst of the six-request mix every PERIOD
# seconds. A burst costs ~0.6 s of serial service on a 2-core AVX2 host
# (~45 % load), so each burst drains before the next one is due even on a
# host running twice slower, and latency is set by the burst rather than by
# a backlog carried over from earlier bursts. 45 s hold 35 bursts, enough
# answers for p95.
BURST = len(gen.SERVE_MIX)
PERIOD = 1.3

# stream_paced: open loop, SESSIONS feeds each ticking every TICK_PERIOD
# seconds, staggered evenly; a reimpute line every REIMPUTE_EVERY ticks.
# 45 s hold 240 lines, enough answers for p95, at a rate that keeps the two
# workers' busy spells mostly apart on a 2-core host.
SESSIONS = 4
TICK_PERIOD = 0.8
REIMPUTE_EVERY = 16
HORIZON = 2

# batch_fig9: `pristi impute` on a fixed panel with a seeded held-out set,
# repeated for the run.
BATCH_STEPS = 192
BATCH_EPOCHS = 10
BATCH_SAMPLES = 8
HOLDOUT_FRAC = 0.10

SETUP_PROBES = 5
# Seconds a workload may take once the build is done; the whole run must end
# within 180 s.
RUN_BUDGET = 150.0

TAIL_Q = 0.95


class Ctx:
    """What the workloads share: the binary, a scratch directory inside the
    checkout, and the run's time budget."""

    def __init__(self, pristi, work):
        self.pristi = str(pristi)
        self.work = work
        os.makedirs(work, exist_ok=True)
        self.stderr = os.path.join(work, "child.stderr")
        self.deadline = time.perf_counter() + RUN_BUDGET

    def path(self, name):
        return os.path.join(self.work, name)

    def left(self):
        """Seconds left of the run's budget: the cap on every wait."""
        return max(0.0, self.deadline - time.perf_counter())

    def grace(self):
        """How long a child may take to exit once its stdin is closed."""
        return min(10.0, self.left())


def write_text(path, text):
    with open(path, "w") as f:
        f.write(text)


def _mae(pairs):
    return sum(abs(a - b) for a, b in pairs) / len(pairs)


def _interp(cells):
    """Fill the `None` cells of one sensor's series by linear interpolation
    between visible neighbours (edges hold the nearest visible value, an
    all-missing series reads 0), as `st_data::linear_interpolate` fills a
    row. The quality reference `interp_mae` is scored on this."""
    known = [i for i, c in enumerate(cells) if c is not None]
    if not known:
        return [0.0] * len(cells)
    out = list(cells)
    for i, c in enumerate(cells):
        if c is not None:
            continue
        left = max((k for k in known if k < i), default=None)
        right = min((k for k in known if k > i), default=None)
        if left is None:
            out[i] = cells[right]
        elif right is None:
            out[i] = cells[left]
        else:
            w = (i - left) / (right - left)
            out[i] = cells[left] * (1 - w) + cells[right] * w
    return out


class Trainer:
    """Trains the run's checkpoint with `pristi checkpoint save`. Each timing
    runs from the `training` line to the line reporting the saved checkpoint.
    The workloads take TRAIN_REPEATS of them, one before the wire phase, one
    after it and the rest in pauses that split it into blocks, so that like
    the wire metrics they sample the host's speed over the whole run; they
    report the median as `train_s`."""

    def __init__(self, ctx):
        self.ctx = ctx
        field, missing = gen.training_panel(0, CKPT_STEPS)
        write_text(ctx.path("ckpt_panel.csv"), gen.panel_csv(field, missing))
        write_text(ctx.path("coords.csv"), gen.coords_csv(field))
        self.ckpt = ctx.path("model.ckpt")
        self.times, self.first = [], None

    def train(self, times):
        ctx = self.ctx
        for _ in range(times):
            child = wire.Child([
                ctx.pristi, "checkpoint", "save", "--data", ctx.path("ckpt_panel.csv"),
                "--coords", ctx.path("coords.csv"), "--out", self.ckpt,
                "--epochs", str(CKPT_EPOCHS), "--window", str(gen.WINDOW),
            ], ctx.stderr)
            try:
                t_train = child.wait_for(lambda r: r.startswith(b"training"), ctx.left())
                t_done = child.wait_for(lambda r: r.startswith(b"checkpoint ("), ctx.left())
            finally:
                code = child.finish(ctx.grace())
            if code != 0 or t_train is None or t_done is None:
                raise RuntimeError(f"checkpoint save failed (exit {code})")
            with open(self.ckpt, "rb") as f:
                written = f.read()
            self.first = written if self.first is None else self.first
            if written != self.first:
                raise RuntimeError("checkpoint save is not deterministic: trainings differ")
            self.times.append(t_done - t_train)

    @property
    def train_s(self):
        return statistics.median(self.times)


# ---------------------------------------------------------------------------
# serve_bursty
# ---------------------------------------------------------------------------

def request_line(rid, values, spec, n_samples):
    return (json.dumps({"id": rid, "values": values, "sampler": spec, "n_samples": n_samples},
                       separators=(",", ":")) + "\n").encode()


def check_grid_answer(answer, rid, values):
    """None when `answer` is a correct response to request `rid` with cells
    `values` (`[N][L]`, None = target), else the reason it is not."""
    if answer.get("id") != rid:
        return "id_mismatch"
    if answer.get("ok") is not True:
        return "error:" + str((answer.get("error") or {}).get("kind"))
    grids = [answer.get(k) for k in ("q05", "median", "q95")]
    n, l = len(values), len(values[0])
    for g in grids:
        if not isinstance(g, list) or len(g) != n or any(
                not isinstance(r, list) or len(r) != l for r in g):
            return "bad_shape"
    lo, med, hi = grids
    for i in range(n):
        for j in range(l):
            a, m, b = lo[i][j], med[i][j], hi[i][j]
            if a is None or m is None or b is None:
                return "null_cell"
            if not (a <= m <= b):
                return "quantiles_unordered"
            v = values[i][j]
            if v is not None and abs(m - v) > 1e-3 * max(1.0, abs(v)):
                return "observed_cell_changed"
    return None


def _serve_child(ctx, ckpt):
    return wire.Child([ctx.pristi, "serve", "--ckpt", ckpt, "--workers", "2"], ctx.stderr)


def _warm_up(ctx, child, warm, ledger, setups):
    """Send the warm-up request and check its answer; a correct one adds the
    time from spawn to the answer to `setups`."""
    rid, values, spec, s, _ = warm
    child.send(request_line(rid, values, spec, s))
    if child.wait_lines(1, ctx.left()) < 1:
        ledger.fail("warm_up:missing_answer")
        return
    t, raw = child.lines[0]
    try:
        answer = json.loads(raw)
    except ValueError:
        answer = {}
    problem = check_grid_answer(answer, rid, values)
    ledger.check(problem and "warm_up:" + problem)
    if problem is None:
        setups.append(t - child.spawned)


def send_paced(child, lines, offsets):
    """Open loop: write `lines[k]` at `offsets[k]` seconds from now, never
    waiting for answers. Returns each line's due time and how late its write
    completed; a write blocked by a full pipe delays every later line, which
    is why latency is timed from the due time."""
    t0 = time.perf_counter() + 0.05
    due, late = [], []
    for line, off in zip(lines, offsets):
        d = t0 + off
        wait = d - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        due.append(d)
        try:
            late.append(child.send(line) - d)
        except BrokenPipeError:
            break
    return due, late


def split(n, blocks):
    """`range(n)` cut into `blocks` contiguous parts of near-equal length."""
    edges = [round(i * n / blocks) for i in range(blocks + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def send_blocks(child, lines, offsets, parts, between):
    """`send_paced` block by block: each part of `lines` is paced by its
    `offsets` relative to the part's first line, and `between(sent)` runs
    before every part but the first, nothing being due meanwhile. Returns
    the due and late times of the lines sent."""
    due, late = [], []
    for b, part in enumerate(parts):
        if b:
            between(len(due))
        d, l = send_paced(child, lines[part.start:part.stop],
                          [offsets[k] - offsets[part.start] for k in part])
        due += d
        late += l
        if len(d) < len(part):
            break
    return due, late


def serve_wire(ctx, ckpt, field, seed, n_bursts, probes, trainer=None):
    """`n_bursts` bursts through `pristi serve`, after `probes` set-up probes
    (each a fresh process answering one warm-up request). With a `trainer`,
    the bursts are sent in TRAIN_REPEATS - 1 blocks with one training in
    each pause, started once every line sent has been answered. Returns the
    wire figures `_latency_result` takes."""
    reqs = gen.serve_requests(field, seed, n_bursts)
    warm = gen.warm_up_request(field)
    ledger = stats.Ledger()
    setups = []
    for _ in range(probes):
        probe = _serve_child(ctx, ckpt)
        try:
            _warm_up(ctx, probe, warm, ledger, setups)
        finally:
            probe.finish(ctx.grace())
    child = _serve_child(ctx, ckpt)
    lines = [request_line(rid, values, spec, s) for rid, values, spec, s, _ in reqs]
    try:
        _warm_up(ctx, child, warm, ledger, setups)
        blocks = TRAIN_REPEATS - 1 if trainer else 1
        parts = [range(p.start * BURST, p.stop * BURST) for p in split(n_bursts, blocks)]

        def between(sent):
            child.wait_lines(1 + sent, ctx.left())
            trainer.train(1)

        due, late = send_blocks(child, lines, [(k // BURST) * PERIOD for k in range(len(lines))],
                                parts, between)
        child.wait_lines(1 + len(lines), ctx.left())
    finally:
        child.finish(ctx.grace())

    answers = child.lines[1:]
    answered, scored, interp = [], [], []
    for k, (rid, values, spec, s, truth) in enumerate(reqs):
        for i, row in enumerate(values):
            filled = _interp(row)
            interp += [(filled[j], truth[i][j]) for j, v in enumerate(row) if v is None]
        if k >= len(answers) or k >= len(due):
            ledger.fail("missing_answer")
            continue
        t, raw = answers[k]
        try:
            answer = json.loads(raw)
        except ValueError:
            answer = {}
        problem = check_grid_answer(answer, rid, values)
        ledger.check(problem)
        if problem is None:
            answered.append((due[k], t))
            med = answer["median"]
            scored += [(med[i][j], truth[i][j]) for i, row in enumerate(values)
                       for j, v in enumerate(row) if v is None]
    if len(answers) > len(reqs):
        ledger.fail("extra_answer")
    return dict(setups=setups, answered=answered, ledger=ledger, child=child,
                scored=scored, interp=interp, late=late)


def serve_bursty(ctx, seed, seconds):
    trainer = Trainer(ctx)
    trainer.train(1)
    n_bursts = max(1, math.ceil(seconds / PERIOD))
    field = gen.Field(seed, CKPT_STEPS)
    result = serve_wire(ctx, trainer.ckpt, field, seed, n_bursts, SETUP_PROBES, trainer)
    trainer.train(1)
    return _latency_result(train_s=trainer.train_s, **result)


def _latency_result(setups, answered, ledger, child, train_s, scored, interp, late):
    """The end-to-end metrics of a wire run. `answered` holds `(due, read)`
    times of the correct answers; latency runs from due to read, and
    `infer_s` is the time at least one line was outstanding."""
    if stats.beyond(len(answered), TAIL_Q) < stats.MIN_BEYOND:
        ledger.fail("too_few_answers_for_p95")
    ms = [1e3 * (read - due) for due, read in answered] or [float("nan")]
    metrics = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "p50_ms": stats.percentile(ms, 0.5),
        "p95_ms": stats.percentile(ms, TAIL_Q),
        "peak_rss_mb": child.peak_rss_mb,
        "cpu_s": child.cpu_s,
        "train_s": train_s,
        "infer_s": stats.busy_time(answered) if answered else float("nan"),
        "impute_mae": _mae(scored) if scored else float("nan"),
    }
    extra = {
        "fail_frac": ledger.fail_frac,
        "interp_mae": _mae(interp) if interp else float("nan"),
        "answers": len(answered),
        "beyond_p95": stats.beyond(len(answered), TAIL_Q),
        "loadgen.late_ms_max": 1e3 * max(late) if late else float("nan"),
        "exit_code": child.exit_code,
    }
    if child.exit_code != 0:
        ledger.fail(f"exit_code_{child.exit_code}")
    return metrics, extra, ledger


# ---------------------------------------------------------------------------
# stream_paced
# ---------------------------------------------------------------------------

def _stream_child(ctx, ckpt):
    return wire.Child([ctx.pristi, "serve", "--stream", "--ckpt", ckpt, "--workers", "2",
                       "--horizon", str(HORIZON)], ctx.stderr)


def tick_line(lid, session, entry):
    msg = {"id": lid, "session": session}
    if entry[0] == "data":
        msg["tick"] = entry[1]
    else:
        msg["reimpute"] = True
    return (json.dumps(msg, separators=(",", ":")) + "\n").encode()


def stream_schedule(ticks):
    """Flatten per-session entries into `(due_offset, session, entry)` in due
    order: session k's j-th data tick is due at `j*TICK_PERIOD +
    k*TICK_PERIOD/SESSIONS`, a reimpute 10 ms after the tick before it."""
    out = []
    for k, entries in ticks.items():
        j = -1
        for entry in entries:
            if entry[0] == "data":
                j += 1
                off = j * TICK_PERIOD + k * TICK_PERIOD / len(ticks)
            else:
                off = j * TICK_PERIOD + k * TICK_PERIOD / len(ticks) + 0.01
            out.append((off, k, entry))
    out.sort(key=lambda x: x[0])
    return out


class StreamChecker:
    """Replays the sent ticks per session and checks each answer against the
    revision contract: answers in input order with matching ids, `step` the
    session's newest step, a monotone watermark, and revisions for exactly the
    open gaps (`null` cells within the last `HORIZON` steps), each finite with
    `q05 <= q50 <= q95`."""

    def __init__(self):
        self.hist = {}  # session -> list of sent data cells
        self.watermark = {}
        self.last_q50 = {}  # (session, node, step) -> latest revised median

    def check(self, lid, session, entry, answer):
        hist = self.hist.setdefault(session, [])
        if entry[0] == "data":
            hist.append(entry[1])
        if answer.get("id") != lid:
            return "out_of_order"
        if answer.get("ok") is not True:
            return "error:" + str((answer.get("error") or {}).get("kind"))
        if answer.get("session") != session:
            return "session_mismatch"
        newest = len(hist) - 1
        if newest < 0 or answer.get("step") != newest:
            return "bad_step"
        wm = answer.get("watermark")
        if not isinstance(wm, int) or wm < self.watermark.get(session, 0):
            return "watermark_regressed"
        self.watermark[session] = wm
        open_gaps = {(i, s) for s in range(max(0, newest - HORIZON + 1), newest + 1)
                     for i, c in enumerate(hist[s]) if c is None}
        if answer.get("imputed") is not bool(open_gaps):
            return "imputed_flag"
        revs = answer.get("revisions")
        if not isinstance(revs, list):
            return "bad_revisions"
        got = set()
        for r in revs:
            key = (r.get("node"), r.get("step"))
            lo, med, hi = r.get("q05"), r.get("q50"), r.get("q95")
            if None in (lo, med, hi):
                return "null_revision"
            if not (lo <= med <= hi):
                return "quantiles_unordered"
            got.add(key)
            self.last_q50[(session,) + key] = med
        if got != open_gaps:
            return "revision_set"
        return None


def stream_paced(ctx, seed, seconds):
    trainer = Trainer(ctx)
    trainer.train(1)
    ckpt, field = trainer.ckpt, gen.Field(seed, CKPT_STEPS)
    per_session = max(1, math.ceil(seconds / TICK_PERIOD))
    ticks = gen.stream_ticks(field, seed, SESSIONS, per_session, REIMPUTE_EVERY)
    warm_cells = [None] + field.values[0][1:]

    ledger = stats.Ledger()
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _stream_child(ctx, ckpt)
        try:
            probe.send(tick_line(0, 0, ("data", warm_cells)))
            probe.proc.stdin.close()
            t = probe.wait_for(lambda r: b'"ok":true' in r, ctx.left())
        finally:
            probe.finish(ctx.grace())
        ledger.check(None if t is not None else "warm_up:missing_answer")
        if t is not None:
            setups.append(t - probe.spawned)

    schedule = stream_schedule(ticks)
    lines = [tick_line(lid, k, entry) for lid, (_, k, entry) in enumerate(schedule, start=1)]
    child = _stream_child(ctx, ckpt)
    offsets = [off for off, _, _ in schedule]

    def between(sent):
        # Stream answers carry no sign of when a tick was processed, so the
        # training waits for the child to go idle instead.
        child.wait_idle(ctx.left())
        trainer.train(1)

    try:
        due, late = send_blocks(child, lines, offsets,
                                split(len(lines), TRAIN_REPEATS - 1), between)
        child.proc.stdin.close()
        child.wait_lines(len(lines), ctx.left())
    finally:
        child.finish(ctx.grace())

    checker = StreamChecker()
    answered = []
    for idx, (off, k, entry) in enumerate(schedule):
        if idx >= len(child.lines) or idx >= len(due):
            ledger.fail("missing_answer")
            if entry[0] == "data":
                checker.hist.setdefault(k, []).append(entry[1])
            continue
        t, raw = child.lines[idx]
        try:
            answer = json.loads(raw)
        except ValueError:
            answer = {}
        problem = checker.check(idx + 1, k, entry, answer)
        ledger.check(problem)
        if problem is None:
            answered.append((due[idx], t))
    if len(child.lines) > len(schedule):
        ledger.fail("extra_answer")
    trainer.train(1)

    scored, interp = [], []
    for k, entries in ticks.items():
        data = [e for e in entries if e[0] == "data"]
        for s, (_, cells, truth) in enumerate(data):
            for i, c in enumerate(cells):
                if c is not None or (k, i, s) not in checker.last_q50:
                    continue
                scored.append((checker.last_q50[(k, i, s)], truth[i]))
                # The reference sees what the last revision saw: the window
                # ending HORIZON-1 steps after the gap.
                end = min(len(data), s + HORIZON)
                lo = max(0, end - gen.WINDOW)
                filled = _interp([data[x][1][i] for x in range(lo, end)])
                interp.append((filled[s - lo], truth[i]))
    return _latency_result(setups, answered, ledger, child, trainer.train_s, scored, interp,
                           late)


# ---------------------------------------------------------------------------
# batch_fig9
# ---------------------------------------------------------------------------

def _read_panel(path):
    with open(path) as f:
        rows = f.read().splitlines()[1:]
    return [[float(c) if c not in ("", "nan", "NaN") else float("nan")
             for c in r.split(",")[1:]] for r in rows if r.strip()]


def _window_problem(imputed, field, held, hidden, w0):
    """None when every held-out cell of the window starting at `w0` is
    finite and every visible cell came back unchanged, else the reason."""
    for t in range(w0, w0 + gen.WINDOW):
        row = imputed[t]
        if len(row) != gen.N_NODES:
            return "bad_output_shape"
        for i, v in enumerate(row):
            truth = field.values[t][i]
            if held[t][i] and not math.isfinite(v):
                return "non_finite_holdout"
            if not hidden[t][i] and abs(v - truth) > 1e-3 * max(1.0, abs(truth)):
                return "observed_cell_changed"
    return None


def batch_fig9(ctx, seed, seconds):
    field, missing = gen.training_panel(0, BATCH_STEPS)
    rng = random.Random(f"holdout-{seed}")
    held = [[not missing[t][i] and rng.random() < HOLDOUT_FRAC for i in range(gen.N_NODES)]
            for t in range(BATCH_STEPS)]
    hidden = [[missing[t][i] or held[t][i] for i in range(gen.N_NODES)]
              for t in range(BATCH_STEPS)]
    write_text(ctx.path("batch_panel.csv"), gen.panel_csv(field, hidden))
    write_text(ctx.path("coords.csv"), gen.coords_csv(field))
    out = ctx.path("imputed.csv")
    starts = list(range(0, BATCH_STEPS - gen.WINDOW + 1, gen.WINDOW))
    if starts[-1] != BATCH_STEPS - gen.WINDOW:
        starts.append(BATCH_STEPS - gen.WINDOW)
    argv = [
        ctx.pristi, "impute", "--data", ctx.path("batch_panel.csv"),
        "--coords", ctx.path("coords.csv"), "--out", out,
        "--sampler", "ddpm", "--samples", str(BATCH_SAMPLES),
        "--window", str(gen.WINDOW), "--epochs", str(BATCH_EPOCHS),
    ]

    ledger = stats.Ledger()
    setups = []
    for _ in range(SETUP_PROBES):
        probe = wire.Child(argv, ctx.stderr)
        t = probe.wait_for(lambda r: r.startswith(b"training"), ctx.left())
        probe.kill()
        if t is None:
            ledger.fail("setup_probe:no_training_line")
        else:
            setups.append(t - probe.spawned)

    # Each invocation imputes the same panel with the same (default) seed, so
    # every one must write the same bytes.
    runs, window_ms, first = [], [], None
    t_begin = time.perf_counter()
    while not runs or time.perf_counter() - t_begin < seconds:
        if os.path.exists(out):
            os.remove(out)
        child = wire.Child(argv, ctx.stderr)
        try:
            child.wait_lines(10 ** 6, ctx.left())
        finally:
            child.finish(ctx.grace())
        marks, win_times = {}, []
        for t, raw in child.lines:
            if raw.startswith(b"training"):
                marks["training"] = t
            elif raw.startswith(b"trained"):
                marks["trained"] = t
            elif raw.lstrip().startswith(b"window"):
                win_times.append(t)
            elif raw.startswith(b"imputed panel"):
                marks["done"] = t
        if child.exit_code != 0 or len(marks) != 3 or len(win_times) != len(starts):
            for _ in starts:
                ledger.fail(f"impute_failed_exit_{child.exit_code}")
            break
        with open(out, "rb") as f:
            written = f.read()
        first = written if first is None else first
        imputed = _read_panel(out)
        for w0 in starts:
            if written != first:
                ledger.fail("nondeterministic_output")
            elif len(imputed) != BATCH_STEPS:
                ledger.fail("bad_output_shape")
            else:
                ledger.check(_window_problem(imputed, field, held, hidden, w0))
        if ledger.failed:
            break
        prev = marks["trained"]
        for t in win_times:
            window_ms.append(1e3 * (t - prev))
            prev = t
        setups.append(marks["training"] - child.spawned)
        runs.append({
            "train_s": marks["trained"] - marks["training"],
            "infer_s": marks["done"] - marks["trained"],
            "peak_rss_mb": child.peak_rss_mb,
            "cpu_s": child.cpu_s,
        })

    scored = [(imputed[t][i], field.values[t][i])
              for t in range(BATCH_STEPS) for i in range(gen.N_NODES) if held[t][i]] if runs else []
    interp = []
    for i in range(gen.N_NODES):
        filled = _interp([None if hidden[t][i] else field.values[t][i]
                          for t in range(BATCH_STEPS)])
        interp += [(filled[t], field.values[t][i]) for t in range(BATCH_STEPS) if held[t][i]]

    def med(key):
        return statistics.median(r[key] for r in runs) if runs else float("nan")

    ms = window_ms or [float("nan")]
    metrics = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "p50_ms": stats.percentile(ms, 0.5),
        "p95_ms": stats.percentile(ms, TAIL_Q),
        "peak_rss_mb": med("peak_rss_mb"),
        "cpu_s": med("cpu_s"),
        "train_s": med("train_s"),
        "infer_s": med("infer_s"),
        "impute_mae": _mae(scored) if scored else float("nan"),
    }
    extra = {
        "fail_frac": ledger.fail_frac,
        "interp_mae": _mae(interp),
        "answers": len(window_ms),
        "beyond_p95": stats.beyond(len(window_ms), TAIL_Q),
        "impute_runs": len(runs),
        "heldout_cells": sum(map(sum, held)),
    }
    return metrics, extra, ledger


WORKLOADS = {
    "serve_bursty": serve_bursty,
    "stream_paced": stream_paced,
    "batch_fig9": batch_fig9,
}
