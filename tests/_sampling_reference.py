"""The per-statistic sampling loop that `evaluate._error_counts` replaced.

Each call draws every rep's outputs again and applies one statistic to them.
`empirical_l0d` and `empirical_rmse` now draw once, keep each rep's error
histogram, and read both statistics from it; the equivalence tests hold
their `per_rep`, `mean` and `std_error` to this loop's, bit for bit.
"""

from __future__ import annotations

import numpy as np

from dpmech.core import Mechanism
from dpmech.errors import DimensionMismatch
from dpmech.evaluate import EvalConfig, EvalResult, GroupCounts, substream


def _run_reps(mech: Mechanism, groups: GroupCounts, cfg: EvalConfig, stat) -> EvalResult:
    if mech.n != groups.n:
        raise DimensionMismatch(
            f"mechanism size {mech.n} does not match group size {groups.n}")
    if groups.num_groups == 0:
        raise ValueError(f"no complete group of {groups.n} to evaluate")
    n = mech.n
    # row c of the table is the CDF of column c, padded with +inf to a power
    # of two so the bisection below needs no bounds check; entries down to
    # -TOL pass validation, so they are clipped to keep every row sorted
    width = 1 << (n + 1).bit_length()
    table = np.full((n + 1, width), np.inf)
    table[:, :n + 1] = np.cumsum(np.maximum(mech.matrix, 0.0), axis=0).T
    flat = table.ravel()
    start = groups.counts * width
    per_rep = []
    for r in range(cfg.reps):
        rng = substream(cfg.seed, r)
        u = rng.random(groups.num_groups)
        # branchless bisection: pos - start ends as the number of CDF entries
        # <= u; the cap at n lets the last bucket absorb rounding slack
        pos = start.copy()
        step = width >> 1
        while step:
            pos += step * (flat[pos + (step - 1)] <= u)
            step >>= 1
        outputs = np.minimum(pos - start, n)
        per_rep.append(float(stat(outputs, groups.counts)))
    arr = np.asarray(per_rep)
    std_error = float(arr.std(ddof=1) / np.sqrt(cfg.reps)) if cfg.reps > 1 else 0.0
    return EvalResult(mean=float(arr.mean()), std_error=std_error, per_rep=per_rep)


def empirical_l0d(mech: Mechanism, groups: GroupCounts, cfg: EvalConfig) -> EvalResult:
    d = cfg.d
    return _run_reps(mech, groups, cfg,
                     lambda out, true: np.mean(np.abs(out - true) > d))


def empirical_rmse(mech: Mechanism, groups: GroupCounts, cfg: EvalConfig) -> EvalResult:
    return _run_reps(mech, groups, cfg,
                     lambda out, true: np.sqrt(np.mean((out - true) ** 2.0)))
