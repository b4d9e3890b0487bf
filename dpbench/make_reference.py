"""Regenerate the benchmark's committed reference values.

    python3 dpbench/make_reference.py

Writes two files under ``dpbench/data``:

* ``oracle.json``: the optimal objective of every design_grid case, solved by
  HiGHS (``scipy.optimize.linprog(method="highs")``) on the rows ``build_lp``
  emits.  It is independent of ``solve_lp``.
* ``digests.json``: the digest of the per-rep outputs of every sampling op
  evaluate_sampling can draw.  Regenerate it only when a change is meant to
  alter sampled values; otherwise a digest mismatch means bit-reproducibility
  was lost.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import spec  # noqa: E402
import worker  # noqa: E402
from dpmech import core, lp  # noqa: E402


def highs_objective(problem) -> float:
    """Optimal objective of a LinearProgram by HiGHS."""
    le = problem.rel == lp.REL_LE
    ge = problem.rel == lp.REL_GE
    eq = problem.rel == lp.REL_EQ
    a_ub = np.vstack([problem.a[le], -problem.a[ge]])
    b_ub = np.concatenate([problem.b[le], -problem.b[ge]])
    res = linprog(problem.c, A_ub=a_ub, b_ub=b_ub, A_eq=problem.a[eq], b_eq=problem.b[eq],
                  bounds=np.column_stack([problem.lo, problem.hi]), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def oracle() -> dict:
    out = {}
    for case in spec.design_cases():
        n = case["n"]
        obj = core.l0_objective(n) if case["objective"] == "l0" else core.l1_objective(n)
        out[case["id"]] = highs_objective(lp.build_lp(n, case["alpha"], case["props"], obj))
    return out


def digests() -> dict:
    out = {}
    for mech in ("gm", "em"):
        for n, groups in spec.SAMPLING_GROUPS.items():
            for seed in range(spec.DIGEST_SEEDS):
                res = worker.run_sample({"mech": mech, "n": n, "groups": groups, "seed": seed})
                if res["error"]:
                    raise RuntimeError(res["error"])
                out[spec.digest_key(mech, n, seed)] = spec.digest(res["per_rep"])
    return out


def main() -> None:
    for name, values in (("oracle.json", oracle()), ("digests.json", digests())):
        with open(spec.DATA_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(values)} values to {spec.DATA_DIR / name}")


if __name__ == "__main__":
    main()
