"""Seeded inputs for the benchmark workloads.

Everything the program under test sees is generated here from the workload
seed, independent of the program's own data generators, so the inputs stay
fixed across commits. The field is AQI-36-like: 36 sensors on a 40 km square,
a daily cycle, spatially smooth pollution plumes that drift over the hours,
and sensor noise. The complete field is kept as ground truth, so every cell
the benchmark blanks out can be scored.
"""

import math
import random

N_NODES = 36
WINDOW = 24
STEPS_PER_DAY = 24


class Field:
    """A complete `[T][N]` ground-truth field plus sensor coordinates.

    The sensor network (positions, levels, daily cycles) is the same for
    every seed, as a real deployment's is; the seed draws the weather: plume
    paths and strengths, and sensor noise. Plume strengths are
    mean-reverting and there are many small plumes rather than a few large
    ones, so the field's variability, and with it every MAE the benchmark
    reports, differs little from seed to seed.
    """

    def __init__(self, seed, t_steps, n_nodes=N_NODES):
        net = random.Random("network")
        self.coords = [(net.uniform(0, 40), net.uniform(0, 40)) for _ in range(n_nodes)]
        base = [net.uniform(45, 55) for _ in range(n_nodes)]
        amp = [net.uniform(6, 10) for _ in range(n_nodes)]
        phase = [net.uniform(-0.6, 0.6) for _ in range(n_nodes)]
        rng = random.Random(f"field-{seed}")
        plumes = []
        for _ in range(12):
            plumes.append({
                "x": rng.uniform(0, 40), "y": rng.uniform(0, 40),
                "vx": rng.uniform(-0.6, 0.6), "vy": rng.uniform(-0.6, 0.6),
                "w": rng.uniform(8, 12), "a": 8.0,
            })
        self.values = []
        noise = [0.0] * n_nodes
        for t in range(t_steps):
            day = 2 * math.pi * t / STEPS_PER_DAY
            for p in plumes:
                p["x"] = (p["x"] + p["vx"]) % 40
                p["y"] = (p["y"] + p["vy"]) % 40
                p["a"] = max(0.0, p["a"] + 0.1 * (8.0 - p["a"]) + rng.gauss(0, 2.5))
            row = []
            for i, (x, y) in enumerate(self.coords):
                v = base[i] + amp[i] * math.sin(day + phase[i])
                for p in plumes:
                    d2 = (x - p["x"]) ** 2 + (y - p["y"]) ** 2
                    v += p["a"] * math.exp(-d2 / (2 * p["w"] ** 2))
                noise[i] = 0.7 * noise[i] + rng.gauss(0, 1.5)
                row.append(round(max(1.0, v + noise[i]), 4))
            self.values.append(row)

    @property
    def t_steps(self):
        return len(self.values)

    @property
    def n_nodes(self):
        return len(self.coords)


def blank_mask(rng, t_steps, n_nodes, point_frac, block_frac, block_len=(4, 12)):
    """`[T][N]` booleans, True = blanked: independent points plus per-sensor
    runs of `block_len` steps, until roughly `point_frac + block_frac` of the
    cells are blanked."""
    mask = [[rng.random() < point_frac for _ in range(n_nodes)] for _ in range(t_steps)]
    target = int(block_frac * t_steps * n_nodes)
    done = 0
    while done < target:
        i = rng.randrange(n_nodes)
        start = rng.randrange(t_steps)
        for t in range(start, min(t_steps, start + rng.randint(*block_len))):
            if not mask[t][i]:
                mask[t][i] = True
                done += 1
    return mask


def coords_csv(field):
    lines = ["sensor,x,y"]
    lines += [f"s{i},{x:.4f},{y:.4f}" for i, (x, y) in enumerate(field.coords)]
    return "\n".join(lines) + "\n"


def panel_csv(field, hidden):
    """Wide CSV of the field with `hidden` cells written empty."""
    lines = ["time," + ",".join(f"s{i}" for i in range(field.n_nodes))]
    for t, row in enumerate(field.values):
        cells = ("" if hidden[t][i] else f"{v:.4f}" for i, v in enumerate(row))
        lines.append(f"{t}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def training_panel(seed, t_steps):
    """The panel a checkpoint or `pristi impute` trains on: the field with
    ~13 % of cells originally missing (points and sensor outages)."""
    field = Field(seed, t_steps)
    missing = blank_mask(random.Random(f"missing-{seed}"), t_steps, N_NODES, 0.03, 0.10)
    return field, missing


# The serve mix: every burst holds each (sampler spec, ensemble size) pair
# once, in a seeded order, so bursts cost the same whatever the seed.
SERVE_MIX = [(spec, s) for spec in ("pndm:4", "refine:3", "ddim:4") for s in (4, 8)]


def _request(rng, field, rid, spec, n_samples):
    t0 = rng.randrange(field.t_steps - WINDOW + 1)
    blank = blank_mask(rng, WINDOW, N_NODES, 0.10, 0.10)
    truth = [[field.values[t0 + l][i] for l in range(WINDOW)] for i in range(N_NODES)]
    values = [[None if blank[l][i] else truth[i][l] for l in range(WINDOW)]
              for i in range(N_NODES)]
    return rid, values, spec, n_samples, truth


def serve_requests(field, seed, bursts):
    """`bursts` bursts of `len(SERVE_MIX)` request windows drawn from
    `field`, ~20 % of cells `null`. Returns `(id, values, spec, S, truth)`
    tuples with ids from 1, `truth` holding the field for the window."""
    rng = random.Random(f"requests-{seed}")
    out = []
    for _ in range(bursts):
        mix = list(SERVE_MIX)
        rng.shuffle(mix)
        out += [_request(rng, field, len(out) + 1, spec, s) for spec, s in mix]
    return out


def warm_up_request(field):
    """The request every serve process answers before it is timed: the same
    spec and size whatever the seed, id 0."""
    return _request(random.Random("warm-up"), field, 0, "refine:3", 4)


def stream_ticks(field, seed, sessions, ticks_per_session, reimpute_every):
    """Per-session tick lists for the paced stream. Session `k` replays the
    field from its own offset. Ticks alternate four with ~15 % `null` cells
    and four with none; a `reimpute` line follows tick `j` whenever
    `j % reimpute_every == 1`, the second tick of a gap phase, so it lands on
    a window that was just imputed and can reuse its prior. Returns
    `{session: [entry]}`, an entry being `("data", cells, truth_row)` or
    `("reimpute",)`."""
    rng = random.Random(f"ticks-{seed}")
    out = {}
    span = field.t_steps - ticks_per_session
    for k in range(sessions):
        offset = (k * span) // max(1, sessions)
        entries = []
        for j in range(ticks_per_session):
            truth = field.values[offset + j]
            gap_phase = (j // 4) % 2 == 0
            cells = [None if gap_phase and rng.random() < 0.15 else v for v in truth]
            if gap_phase and all(c is not None for c in cells):
                cells[rng.randrange(N_NODES)] = None
            entries.append(("data", cells, truth))
            if j % reimpute_every == 1:
                entries.append(("reimpute",))
        out[k] = entries
    return out
