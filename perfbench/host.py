"""Host fingerprint stamped on every result.

Two results may be compared only when their `HOST_KEYS` agree: core count,
SIMD tier, `st-par` thread count, `ST_PAR_THREADS` and the rustc version.
The source revision is stamped too but is expected to differ, since
comparing two revisions is the point of a comparison.
"""

import hashlib
import json
import os
import subprocess

HOST_KEYS = ("cores", "simd_tier", "par_threads", "ST_PAR_THREADS", "rustc")

# Source files that define the program; hashed when the checkout is not a
# git repository.
_SOURCE_SUFFIXES = (".rs", ".toml", ".lock")
_SKIP_DIRS = {".git", "target", ".bench_build", "results"}


def _source_rev(root):
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(_SOURCE_SUFFIXES):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def fingerprint(root, tracer):
    """The host fingerprint; `tracer` reports what the program itself picks
    (SIMD tier, `st_par::threads()`)."""
    done = subprocess.run([tracer, "fingerprint"], capture_output=True, text=True, check=True)
    program = json.loads(done.stdout.strip().splitlines()[-1])
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "simd_tier": program["simd_tier"],
        "par_threads": program["par_threads"],
        "ST_PAR_THREADS": os.environ.get("ST_PAR_THREADS", ""),
        "rustc": rustc.stdout.strip(),
        "rev": _source_rev(root),
    }


def mismatch(a, b):
    """The host keys on which fingerprints `a` and `b` differ."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]
