"""Compare two sets of benchmark reports written by `run.py --out`.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds `--out` reports of end-to-end runs (`--trace 0`). For
every workload and metric it prints the median of each side, the change as a
share of the old median, and a verdict against the metric's bound in
BENCHMARK.json: `worse` when the change exceeds the bound, `unresolved` when
either side's quartile spread does (unless every new run beats every old
one), else `ok`. It refuses (exit 2) to compare reports whose host
fingerprints differ, and exits 1 when a metric got worse.
"""

import glob
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import host  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == 0:
            reports.append(r)
    return reports


def compare(old, new, spec):
    """Rows `(workload, metric, old_median, new_median, change, verdict)`."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for wl in sorted({r["workload"] for r in old} & {r["workload"] for r in new}):
        for name, m in bounds.items():
            a = [r["metrics"][name]["value"] for r in old if r["workload"] == wl]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == wl]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            sign = 1 if m["better"] == "lower" else -1
            all_better = max(b) < min(a) if sign > 0 else min(b) > max(a)
            noisy = min(len(a), len(b)) < 2 or max(
                stats.quartile_spread(a), stats.quartile_spread(b)) > m["bound"]
            if sign * change > m["bound"]:
                verdict = "worse"
            elif noisy and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((wl, name, ma, mb, change, verdict))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    if not old or not new:
        print("compare: no end-to-end reports found", file=sys.stderr)
        return 2
    base = old[0]["fingerprint"]
    for r in old + new:
        diff = host.mismatch(base, r["fingerprint"])
        if diff:
            print(f"compare: refusing, host fingerprints differ on {diff}", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(old, new, spec)
    for wl, name, ma, mb, change, verdict in rows:
        print(f"{wl:<14} {name:<12} {ma:>12.5g} -> {mb:>12.5g} {100 * change:+7.1f}%  {verdict}")
    return 1 if any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
