"""Percentiles, spreads and failure accounting shared by the workloads."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer would make it the maximum of a handful of answers.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile of `values` (`0 < q <= 1`)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """How many of `n` samples lie beyond the nearest-rank `q` percentile."""
    return n - max(1, math.ceil(q * n))


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, as `statistics.quantiles(values, n=4)` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def busy_time(intervals):
    """Length of the union of `(start, end)` intervals: the time during which
    at least one unit was outstanding."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Ledger:
    """Counts the units a workload sent against those answered correctly.

    Every unit is recorded exactly once, either as a success or with the
    reason it failed: an error answer, a missing answer and an answer that
    fails an output check all count against `fail_frac`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def ok(self):
        self.attempted += 1

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, problem):
        """Record one unit: `problem` is None when it passed, else a reason."""
        if problem is None:
            self.ok()
        else:
            self.fail(problem)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0
