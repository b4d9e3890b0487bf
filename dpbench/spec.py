"""Workloads, seeded inputs, statistics and output checks of the dpmech benchmark.

Nothing here imports dpmech: the controller, ``run.py``, uses this module to decide what to run
and whether an answer is right, and the worker uses it to build the same inputs.
Every input is a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import betainc

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Reported in place of 0 for a ratio or rate with nothing to count, so that
#: every end-to-end metric stays positive (a share of a 0 median is undefined).
FLOOR = 1e-6

#: An untraced run stops at a pass boundary once it has this many ops, so the
#: 90th percentile has at least ten samples beyond it.
MIN_OPS = 100
#: Every this many ops the controller takes one set-up probe and replaces the
#: worker, both outside op times.  Op times differ by several percent from
#: one worker process to the next, so a run samples about ten of them, and
#: its set-up probes are spread over the whole run.
SEGMENT_OPS = 10
TAIL_Q = 0.9
MIN_BEYOND = 10

#: Per-case LP deadline.  When the benchmark was added, case times fell at or
#: below 1.9 s or at or above 11 s; 4.5 s sits a factor of about 2.4 from both groups, so the
#: same cases miss on every run.
DESIGN_DEADLINE_S = 4.5
#: Deadlines for ops that are not expected to come near them.
SAMPLING_DEADLINE_S = 60.0
CLI_DEADLINE_S = 60.0
#: Address-space cap of each worker process.
WORKER_MEM_BYTES = 3 << 30

# checks on a design op
MAX_VIOLATION = 1e-9
ORACLE_TOL = 1e-6
COST_SLACK = 1e-9
# a sampling mean must lie within this many per-rep standard errors of the
# exact expectation
MEAN_SE = 5.0

PROP_SETS = {
    "none": (),
    "WH": ("WH",),
    "WH+CM": ("WH", "CM"),
    "WH+RM+CM": ("WH", "RM", "CM"),
    "F": ("F",),
    "CH+S": ("CH", "S"),
}


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *salt])


def load_json(name: str):
    with open(DATA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# design_grid
# ---------------------------------------------------------------------------

def case_id(n: int, alpha: float, props: str, objective: str) -> str:
    return f"n{n}-a{alpha:g}-{props}-{objective}"


def _case(n, alpha, props, objective):
    return {"id": case_id(n, alpha, props, objective), "n": n, "alpha": alpha,
            "props": PROP_SETS[props], "objective": objective}


def design_cases() -> list:
    """The figure slice (n<=8, three alphas, six property sets, l0 and l1) and
    the scale slice (n 12..32, alpha 0.9, none or WH+RM+CM, l0)."""
    cases = [_case(n, a, p, o)
             for n in (4, 6, 8) for a in (0.3, 0.62, 0.9)
             for p in PROP_SETS for o in ("l0", "l1")]
    cases += [_case(n, 0.9, p, "l0")
              for n in (12, 16, 24, 32) for p in ("none", "WH+RM+CM")]
    return cases


def design_pass(seed: int, k: int) -> list:
    cases = design_cases()
    return [cases[i] for i in _rng(seed, 1, k).permutation(len(cases))]


def uniform_cost(n: int, objective: str) -> float:
    """Cost of the input-blind mechanism, which every design LP admits."""
    if objective == "l0":
        return 1.0
    idx = np.arange(n + 1)
    dist = np.abs(np.subtract.outer(idx, idx))
    return float(dist.sum() / (n + 1) ** 2)


def check_design(res: dict, oracle: float, n: int, objective: str) -> list:
    """Reasons a design op failed; empty when it passed."""
    if res.get("error"):
        return [res["error"]]
    why = []
    if res["status"] != "optimal":
        return [f"status {res['status']}"]
    if not res["violation"] <= MAX_VIOLATION:
        why.append(f"violation {res['violation']:.3g}")
    value = res["objective"]
    if not abs(value - oracle) <= ORACLE_TOL:
        why.append(f"objective {value:.9g} vs oracle {oracle:.9g}")
    if not value <= uniform_cost(n, objective) + COST_SLACK:
        why.append(f"cost {value:.9g} above the uniform mechanism")
    return why


# ---------------------------------------------------------------------------
# evaluate_sampling
# ---------------------------------------------------------------------------

SAMPLING_ALPHA = 0.9
SAMPLING_P = 0.5
SAMPLING_REPS = 3
SAMPLING_D = (0, 2)
#: groups per sampling op, sized so each op took tens of milliseconds when the
#: benchmark was added and the (n+1) x groups gather stays a few MB
SAMPLING_GROUPS = {10: 60000, 100: 20000, 400: 6000}
ANALYZE_N = (100, 400)
#: sampling seeds with a committed digest of their per-rep outputs
DIGEST_SEEDS = 8


def sampling_menu() -> list:
    """The 10 ops of one evaluate_sampling pass, before seeding."""
    ops = []
    for mech in ("gm", "em"):
        for n, groups in SAMPLING_GROUPS.items():
            ops.append({"kind": "sample", "mech": mech, "n": n, "groups": groups, "seed": 0})
        for n in ANALYZE_N:
            ops.append({"kind": "analyze", "id": f"analyze-{mech}-n{n}", "mech": mech, "n": n})
    return ops


def sampling_pass(seed: int, k: int) -> list:
    rng = _rng(seed, 2, k)
    ops = []
    for op in sampling_menu():
        if op["kind"] == "sample":
            s = int(rng.integers(DIGEST_SEEDS))
            op = {**op, "seed": s, "id": f"sample-{op['mech']}-n{op['n']}-s{s}"}
        ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


def binomial_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    logc = (math.lgamma(n + 1) - np.array([math.lgamma(i + 1) for i in k])
            - np.array([math.lgamma(n - i + 1) for i in k]))
    with np.errstate(divide="ignore"):
        logp = logc + k * np.log(p) + (n - k) * np.log1p(-p)
    return np.exp(logp)


def sampling_expectations(matrix: np.ndarray, p: float, groups: int) -> list:
    """Exact (expectation, per-rep standard error) of each sampling statistic:
    the l0d rates at each d in SAMPLING_D, then the RMSE."""
    n = matrix.shape[0] - 1
    joint = matrix * binomial_pmf(n, p)[None, :]
    dist = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
    out = []
    for d in SAMPLING_D:
        q = float(joint[dist > d].sum())
        out.append((q, math.sqrt(q * (1.0 - q) / groups)))
    m2 = float((joint * dist ** 2.0).sum())
    m4 = float((joint * dist ** 4.0).sum())
    se_sq = math.sqrt(max(m4 - m2 * m2, 0.0) / groups)
    out.append((math.sqrt(m2), se_sq / (2.0 * math.sqrt(m2))))
    return out


def digest(per_rep_lists) -> str:
    flat = np.asarray([v for reps in per_rep_lists for v in reps], dtype="<f8")
    return hashlib.sha256(flat.tobytes()).hexdigest()[:16]


def digest_key(mech: str, n: int, seed: int) -> str:
    return f"{mech}-n{n}-s{seed}"


def check_sample(res: dict, committed: str | None) -> list:
    if res.get("error"):
        return [res["error"]]
    why = []
    got = digest(res["per_rep"])
    if got != committed:
        why.append(f"per_rep digest {got} != committed {committed}")
    for name, mean, (exp, se) in zip(("l0d0", "l0d2", "rmse"), res["mean"], res["expected"]):
        if not abs(mean - exp) <= MEAN_SE * se + 1e-12:
            why.append(f"{name} mean {mean:.6g} vs exact {exp:.6g} (se {se:.2g})")
    return why


def closed_form_l0(mech: str, n: int, alpha: float) -> float:
    """Rescaled wrong-answer cost of GM, 2a/(1+a), or of EM, (n+1)/n (1-y)."""
    if mech == "gm":
        return 2.0 * alpha / (1.0 + alpha)
    half = sum(alpha ** k for k in range(1, n // 2 + 1))
    y = 1.0 / (1.0 + 2.0 * half + (alpha ** ((n + 1) // 2) if n % 2 else 0.0))
    return (n + 1) / n * (1.0 - y)


def check_analyze(res: dict, mech: str, n: int, alpha: float) -> list:
    if res.get("error"):
        return [res["error"]]
    why = []
    want = closed_form_l0(mech, n, alpha)
    if not abs(res["l0"] - want) <= 1e-9:
        why.append(f"l0 {res['l0']:.12g} vs closed form {want:.12g}")
    if res["derivable"] != (mech == "gm"):
        why.append(f"gm_derivable is {res['derivable']}")
    if not res["dp_alpha_max"] >= alpha - 1e-3:
        why.append(f"dp_alpha_max {res['dp_alpha_max']}")
    return why


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

CLI_ALPHA = 0.9
#: mechanism files the benchmark writes before timing: (mech, n)
CLI_FILES = (("gm", 10), ("em", 10), ("gm", 20), ("em", 20), ("gm", 100), ("em", 100))
PEOPLE_ROWS = 1_000_000
CSV_GROUP = 10
CSV_REPS = 3
#: design_grid cases that cli_pipeline also designs through the CLI
CLI_LP_CASES = ("n6-a0.3-WH+CM-l0", "n4-a0.62-WH-l0", "n8-a0.9-WH+RM+CM-l0",
                "n6-a0.9-none-l1")


def mech_file(mech: str, n: int) -> str:
    return f"{mech}{n}.csv"


def _cli_menu() -> list:
    """The 25 ops of one cli_pipeline pass, before seeding."""
    menu = []
    for mech in ("gm", "em", "um"):
        for n in (20, 100):
            menu.append({"cmd": "design", "mechanism": mech, "n": n,
                         "alpha": None if mech == "um" else CLI_ALPHA,
                         "props": "none", "objective": "l0"})
    by_id = {c["id"]: c for c in design_cases()}
    for cid in CLI_LP_CASES:
        c = by_id[cid]
        menu.append({"cmd": "design", "mechanism": "lp", "n": c["n"], "alpha": c["alpha"],
                     "props": cid.split("-")[2], "objective": c["objective"]})
    for mech, n in (("gm", 100), ("em", 100), ("gm", 20), ("em", 20)):
        menu.append({"cmd": "analyze", "file": mech_file(mech, n)})
    for n, alpha, props in ((20, 0.9, "WH"), (8, 0.62, "WH+CM"), (100, 0.3, "F")):
        menu.append({"cmd": "select", "n": n, "alpha": alpha, "props": props})
    for mech, n, metric, d in (("gm", 20, "l0d", 0), ("em", 20, "rmse", 0),
                               ("gm", 100, "l0d", 2), ("em", 10, "l0d", 0)):
        menu.append({"cmd": "evaluate", "data": "binomial", "file": mech_file(mech, n),
                     "group_size": n, "total": 50_000 * n, "p": 0.5, "metric": metric,
                     "d": d, "reps": 5})
    for mech, predicate in (("gm", "age>=65"), ("em", "flag")):
        menu.append({"cmd": "evaluate", "data": "csv", "file": mech_file(mech, CSV_GROUP),
                     "group_size": CSV_GROUP, "predicate": predicate, "metric": "l0d",
                     "d": 0, "reps": CSV_REPS})
    for mech, n in (("gm", 100), ("em", 20)):
        menu.append({"cmd": "export-heatmap", "file": mech_file(mech, n)})
    return menu


def cli_op_id(op: dict) -> str:
    cmd = op["cmd"]
    if cmd == "design":
        if op["mechanism"] == "lp":
            return f"design-lp-{case_id(op['n'], op['alpha'], op['props'], op['objective'])}"
        return f"design-{op['mechanism']}-n{op['n']}"
    if cmd in ("analyze", "export-heatmap"):
        return f"{cmd}-{op['file'][:-4]}"
    if cmd == "select":
        return f"select-n{op['n']}-a{op['alpha']:g}-{op['props']}"
    if op["data"] == "csv":
        return f"evaluate-csv-{op['file'][:-4]}-{op['predicate']}-s{op['seed']}"
    return f"evaluate-binomial-{op['file'][:-4]}-{op['metric']}-s{op['seed']}"


def cli_pass(seed: int, k: int) -> list:
    rng = _rng(seed, 3, k)
    ops = []
    for op in _cli_menu():
        op = dict(op)
        if op["cmd"] == "evaluate":
            op["seed"] = int(rng.integers(1 << 31))
        op["id"] = cli_op_id(op)
        ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


def cli_argv(op: dict, k: int) -> list:
    """dpmech arguments of one op; files are relative to the run's work directory."""
    cmd = op["cmd"]
    if cmd == "design":
        argv = ["design", "--mechanism", op["mechanism"], "--n", str(op["n"]),
                "--objective", op["objective"], "--out", f"out-{k}.csv"]
        if op["alpha"] is not None:
            argv += ["--alpha", repr(op["alpha"])]
        if op["props"] != "none":
            argv += ["--props", ",".join(PROP_SETS[op["props"]])]
        return argv
    if cmd == "analyze":
        return ["analyze", "--in", op["file"]]
    if cmd == "select":
        return ["select", "--n", str(op["n"]), "--alpha", repr(op["alpha"]),
                "--props", ",".join(PROP_SETS[op["props"]])]
    if cmd == "export-heatmap":
        return ["export-heatmap", "--in", op["file"], "--out", f"heat-{k}.csv"]
    argv = ["evaluate", "--mech", op["file"], "--data", op["data"],
            "--group-size", str(op["group_size"]), "--metric", op["metric"],
            "--d", str(op["d"]), "--reps", str(op["reps"]), "--seed", str(op["seed"])]
    if op["data"] == "binomial":
        return argv + ["--total", str(op["total"]), "--p", repr(op["p"])]
    return argv + ["--csv", "people.csv", "--predicate", op["predicate"]]


def cli_groups(op: dict) -> int:
    """groups x reps an evaluate op samples (0 for other commands)."""
    if op["cmd"] != "evaluate":
        return 0
    rows = op["total"] if op["data"] == "binomial" else PEOPLE_ROWS
    return rows // op["group_size"] * op["reps"]


#: fields of each command's JSON that must equal the library result
CLI_FIELDS = {
    "design": ("objective_value", "report"),
    "analyze": None,  # every field the library computes
    "select": ("strategy", "rationale"),
    "evaluate": ("mean", "std_error", "per_rep"),
    "export-heatmap": ("rows",),
}


def check_cli(code: int | None, stdout: str, expected: dict, cmd: str,
              oracle: float | None = None) -> list:
    if code is None:
        return ["deadline missed"]
    if code != 0:
        return [f"exit {code}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    if not isinstance(doc, dict):
        return ["stdout JSON is not an object"]
    if "error" in expected:
        return [f"library raised {expected['error']}"]
    fields = CLI_FIELDS[cmd] or tuple(expected)
    why = [f"{f}: {doc.get(f)!r:.60} != library {expected.get(f)!r:.60}"
           for f in fields if doc.get(f) != expected.get(f)]
    if oracle is not None and not abs(doc["objective_value"] - oracle) <= ORACLE_TOL:
        why.append(f"objective {doc['objective_value']:.9g} vs oracle {oracle:.9g}")
    return why


def people_columns(seed: int) -> tuple:
    """The generated people table: integer ages 18..95 and a 0/1 flag with p=0.2."""
    rng = _rng(seed, 4)
    age = rng.integers(18, 96, PEOPLE_ROWS)
    flag = (rng.random(PEOPLE_ROWS) < 0.2).astype(np.int64)
    return age, flag


def write_people_csv(path, seed: int) -> None:
    age, flag = people_columns(seed)
    text = [str(i) for i in range(100)]
    body = "\n".join([f"{text[a]},{text[f]}" for a, f in zip(age.tolist(), flag.tolist())])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("age,flag\n" + body + "\n")


def people_counts(seed: int, predicate: str, group_size: int) -> np.ndarray:
    """Group counts the CSV ingest must produce, computed from the columns."""
    age, flag = people_columns(seed)
    if predicate == "age>=65":
        bits = (age >= 65).astype(np.int64)
    elif predicate == "flag":
        bits = flag
    else:
        raise ValueError(f"no reference for predicate {predicate!r}")
    groups = bits.size // group_size
    return bits[:groups * group_size].reshape(groups, group_size).sum(axis=1)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q quantile.

    It weights every order statistic by a beta density centred on rank q(n+1),
    so the estimate does not jump when two neighbouring ops swap rank.  A run
    of heterogeneous ops, such as design_grid's, has wide gaps between
    neighbouring times, where the plain nearest-rank percentile jumps.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    if not xs.size:
        raise ValueError("percentile of no samples")
    n = xs.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ xs)


def beyond(count: int, q: float) -> int:
    """Samples above rank ceil(q * count), the rank the q percentile sits at."""
    return count - max(math.ceil(q * count), 1)


def tail_percentile(values, q: float = TAIL_Q, min_beyond: int = MIN_BEYOND) -> float:
    if beyond(len(values), q) < min_beyond:
        raise ValueError(f"{len(values)} samples leave fewer than {min_beyond} "
                         f"beyond the {q:g} percentile")
    return percentile(values, q)


def ratio(num: float, den: float) -> float:
    """num/den, with FLOOR in place of 0 and of an empty denominator."""
    return max(num / den, FLOOR) if den > 0 else FLOOR


def end_to_end(ops: list, setup_s: float, peak_rss_mb: float) -> dict:
    """The eight end-to-end metrics of an untraced run.

    Each op record holds ``ok`` (passed its check), ``ms`` (wall time),
    ``groups`` (groups x reps sampled) and ``rows`` (CSV rows ingested).
    """
    ms = [op["ms"] for op in ops]
    passed = sum(op["ok"] for op in ops)
    sampling = [op for op in ops if op["groups"]]
    ingest = [op for op in ops if op["rows"]]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ratio(passed, sum(ms) / 1e3), "1/s"),
        "op_ms_p50": (percentile(ms, 0.5), "ms"),
        "op_ms_p90": (tail_percentile(ms), "ms"),
        "failed_ratio": (ratio(len(ops) - passed, len(ops)), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "groups_per_s": (ratio(sum(op["groups"] for op in sampling),
                               sum(op["ms"] for op in sampling) / 1e3), "groups/s"),
        "rows_per_s": (ratio(sum(op["rows"] for op in ingest),
                             sum(op["ms"] for op in ingest) / 1e3), "rows/s"),
    }


def self_times(spans: list) -> list:
    """Self time in seconds of each span: its duration minus its children's.

    A span is ``(layer, fn, start, end, parent, op, counts)`` where ``parent``
    indexes the same list, or is -1.
    """
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


#: per-layer time metrics: name -> (layer, functions or None for all)
LAYER_TIMES = {
    "lp.build_ms": ("lp.build", None),
    "lp.solve_ms": ("lp.solve", None),
    "core.validate_ms": ("core.validate", None),
    "core.csv_write_ms": ("core.csv", ("write_mechanism_csv",)),
    "core.csv_read_ms": ("core.csv", ("read_mechanism_csv",)),
    "explicit.construct_ms": ("explicit", None),
    "analysis.report_ms": ("analysis", ("property_report",)),
    "analysis.derivable_ms": ("analysis", ("gm_derivable",)),
    "analysis.select_ms": ("analysis", ("select_strategy",)),
    "evaluate.population_ms": ("evaluate.population", None),
    "evaluate.sample_ms": ("evaluate.sample", None),
    "evaluate.ingest_ms": ("evaluate.ingest", None),
}


def layer_metrics(spans: list) -> dict:
    """Span-derived per-layer metrics.  A ``*_ms`` metric is the layer's self
    time per op that entered it; counts are per op that produced them, and
    sizes are the largest seen."""
    own = self_times(spans)
    out = {}
    for name, (layer, fns) in LAYER_TIMES.items():
        hit = [i for i, s in enumerate(spans)
               if s[0] == layer and (fns is None or s[1] in fns)]
        ops = {spans[i][5] for i in hit}
        out[name] = (sum(own[i] for i in hit) * 1e3 / len(ops) if ops else 0.0, "ms")

    def counts(key):
        return [(s[5], s[6][key]) for s in spans if s[6] and key in s[6]]

    for name, key, unit in (("lp.rows", "rows", "count"), ("lp.nnz", "nnz", "count"),
                            ("lp.dense_bytes", "dense_bytes", "bytes"),
                            ("evaluate.gather_bytes", "gather_bytes", "bytes")):
        out[name] = (max((v for _, v in counts(key)), default=0), unit)
    for name, key in (("evaluate.groups", "groups"), ("evaluate.ingest_rows", "ingest_rows")):
        seen = counts(key)
        ops = {op for op, _ in seen}
        out[name] = (sum(v for _, v in seen) / len(ops) if ops else 0.0, "count")
    return out


def known_failures() -> dict:
    """Op ids known to fail when the benchmark was added, by workload."""
    out: dict = {}
    for entry in load_json("known_failures.json"):
        out.setdefault(entry["workload"], set()).add(entry["id"])
    return out
