"""Benchmark worker: runs dpmech operations for the controller, ``run.py``.

Started as ``python3 worker.py <address-space cap in bytes>`` with the checkout's
``src`` on PYTHONPATH.  Requests and replies are length-prefixed pickles on
stdin and on the original stdout; anything dpmech prints goes to stderr.
Each op is timed here, around the library calls only, so the checks that
follow it are not part of its time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import pickle
import resource
import struct
import sys
import time

import numpy as np

import spec
import dpmech
from dpmech import analysis, cli, core, evaluate, explicit, lp

_HEADER = struct.Struct("<Q")

#: layer name -> the public functions its spans wrap
LAYERS = {
    "lp.build": (lp.build_lp,),
    "lp.solve": (lp.solve_lp, lp.max_violation),
    "core.validate": (core.new_mechanism,),
    "core.csv": (core.write_mechanism_csv, core.read_mechanism_csv),
    "explicit": (explicit.geometric, explicit.explicit_fair, explicit.uniform),
    "analysis": (analysis.property_report, analysis.gm_derivable, analysis.select_strategy),
    "evaluate.population": (evaluate.binomial_population,),
    "evaluate.sample": (evaluate.empirical_l0d, evaluate.empirical_rmse),
    "evaluate.ingest": (evaluate.parse_predicate, evaluate.ingest_groups),
}
_MODULES = (dpmech, analysis, cli, core, evaluate, explicit, lp)


def _matrix_size(a) -> dict:
    """Nonzeros and stored bytes of a constraint matrix, dense or scipy.sparse."""
    if hasattr(a, "nnz"):
        stored = sum(getattr(a, f).nbytes for f in ("data", "row", "col", "indices", "indptr")
                     if hasattr(a, f))
        return {"nnz": int(a.nnz), "dense_bytes": int(stored)}
    return {"nnz": int(np.count_nonzero(a)), "dense_bytes": int(a.nbytes)}


def _counts(fn_name, args, result):
    """Work counts recorded at a span boundary, from the call's arguments and result."""
    if fn_name == "build_lp":
        return {"rows": int(result.num_constraints), **_matrix_size(result.a)}
    if fn_name == "binomial_population":
        return {"groups": int(result.num_groups)}
    if fn_name in ("empirical_l0d", "empirical_rmse"):
        mech, groups, cfg = args[:3]
        return {"groups": groups.num_groups * cfg.reps,
                "gather_bytes": (mech.n + 1) * groups.num_groups * 8}
    if fn_name == "ingest_groups":
        return {"ingest_rows": int(result.num_groups * result.n)}
    return None


class Tracer:
    """Records one span per call into the layer functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._patches: list = []

    def _wrap(self, layer, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = [layer, name, start, end, parent, self.op, None]
            self.spans[index][6] = _counts(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Wrap every module binding of each layer function, and Mechanism
        construction, for the duration of one op."""
        self.op, self.spans, self.stack = op, [], []
        for layer, fns in LAYERS.items():
            for fn in fns:
                wrapped = self._wrap(layer, fn)
                for mod in _MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        init = core.Mechanism.__init__
        self._patches.append((core.Mechanism, "__init__", init))
        core.Mechanism.__init__ = self._wrap("core.validate", init)
        try:
            yield self
        finally:
            for obj, attr, value in reversed(self._patches):
                setattr(obj, attr, value)
            self._patches = []

    def take(self):
        spans = [tuple(s) for s in self.spans]
        self.spans = []
        return spans


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


def _objective(n: int, name: str):
    return core.l0_objective(n) if name == "l0" else core.l1_objective(n)


def run_design(case: dict) -> dict:
    """One design_grid op: build, solve, validate, report and score one case."""
    n = case["n"]
    obj = _objective(n, case["objective"])
    out = {"error": None, "status": None, "objective": None, "lp_objective": None,
           "violation": None}
    problem = sol = None
    start = time.perf_counter()
    try:
        problem = lp.build_lp(n, case["alpha"], case["props"], obj)
        sol = lp.solve_lp(problem)
        out["status"] = sol.status
        out["lp_objective"] = sol.objective_value
        if sol.status == "optimal":
            mech = core.Mechanism(sol.values.reshape(n + 1, n + 1))
            analysis.property_report(mech)
            out["objective"] = core.objective_value(mech, obj)
    except Exception as exc:  # the op failed; the controller records why
        out["error"] = _error(exc)
    out["ms"] = (time.perf_counter() - start) * 1e3
    if sol is not None and sol.values is not None:
        out["violation"] = lp.max_violation(problem, sol.values)
    return out


def run_build(case: dict) -> dict:
    """Only the LP build of a design case, for its size counts when the
    solve misses its deadline."""
    start = time.perf_counter()
    lp.build_lp(case["n"], case["alpha"], case["props"], _objective(case["n"], case["objective"]))
    return {"ms": (time.perf_counter() - start) * 1e3}


def _mechanism(name: str, n: int, alpha: float):
    if name == "gm":
        return explicit.geometric(n, alpha)
    if name == "em":
        return explicit.explicit_fair(n, alpha)
    return explicit.uniform(n)


def run_sample(op: dict) -> dict:
    """One sampling op: construct, draw a binomial population, then the l0d
    rates at each d and the RMSE, each over a few reps."""
    n, seed = op["n"], op["seed"]
    out = {"error": None}
    start = time.perf_counter()
    try:
        mech = _mechanism(op["mech"], n, spec.SAMPLING_ALPHA)
        groups = evaluate.binomial_population(
            op["groups"] * n, n, spec.SAMPLING_P, evaluate.substream(seed, evaluate.DATA_STREAM))
        results = [evaluate.empirical_l0d(
            mech, groups, evaluate.EvalConfig(reps=spec.SAMPLING_REPS, seed=seed, d=d))
            for d in spec.SAMPLING_D]
        results.append(evaluate.empirical_rmse(
            mech, groups, evaluate.EvalConfig(reps=spec.SAMPLING_REPS, seed=seed, metric="rmse")))
    except Exception as exc:
        out["error"] = _error(exc)
        out["ms"] = (time.perf_counter() - start) * 1e3
        return out
    out["ms"] = (time.perf_counter() - start) * 1e3
    out["per_rep"] = [r.per_rep for r in results]
    out["mean"] = [r.mean for r in results]
    out["expected"] = spec.sampling_expectations(mech.matrix, spec.SAMPLING_P, op["groups"])
    return out


def run_analyze(op: dict) -> dict:
    """One analyze op: construct, then the property report and derivability."""
    out = {"error": None}
    start = time.perf_counter()
    try:
        mech = _mechanism(op["mech"], op["n"], spec.SAMPLING_ALPHA)
        report = analysis.property_report(mech)
        derivable = analysis.gm_derivable(mech, spec.SAMPLING_ALPHA)
    except Exception as exc:
        out["error"] = _error(exc)
    else:
        out.update(l0=report.l0, dp_alpha_max=report.dp_alpha_max, derivable=derivable)
    out["ms"] = (time.perf_counter() - start) * 1e3
    return out


def write_cli_files(workdir: str) -> None:
    for mech, n in spec.CLI_FILES:
        core.write_mechanism_csv(_mechanism(mech, n, spec.CLI_ALPHA),
                                 os.path.join(workdir, spec.mech_file(mech, n)),
                                 alpha=spec.CLI_ALPHA)


def cli_expected(op: dict, workdir: str, people_seed: int) -> dict:
    """The library's answer to one cli_pipeline op, as the CLI's JSON fields."""
    try:
        return _cli_expected(op, workdir, people_seed)
    except Exception as exc:
        return {"error": _error(exc)}


def _cli_expected(op, workdir, people_seed):
    cmd = op["cmd"]
    if cmd == "select":
        res = analysis.select_strategy(op["n"], op["alpha"], spec.PROP_SETS[op["props"]])
        return {"strategy": res.strategy, "rationale": res.rationale}
    if cmd == "design":
        n = op["n"]
        obj = _objective(n, op["objective"])
        out = {}
        if op["mechanism"] == "lp":
            problem = lp.build_lp(n, op["alpha"], spec.PROP_SETS[op["props"]], obj)
            sol = lp.solve_lp(problem)
            out["lp_objective"] = sol.objective_value
            if sol.values is not None:
                out["violation"] = lp.max_violation(problem, sol.values)
            if sol.status != "optimal":
                return {"error": f"status {sol.status}", **out}
            try:
                mech = core.Mechanism(sol.values.reshape(n + 1, n + 1))
            except Exception as exc:
                return {"error": _error(exc), **out}
        else:
            mech = _mechanism(op["mechanism"], n, op["alpha"])
        out.update(objective_value=core.objective_value(mech, obj),
                   report=analysis.property_report(mech).to_json_dict())
        return out
    mech, alpha = core.read_mechanism_csv(os.path.join(workdir, op["file"]))
    if cmd == "analyze":
        doc = analysis.property_report(mech).to_json_dict()
        doc.update(n=mech.n, alpha=alpha, gm_derivable=analysis.gm_derivable(mech, alpha))
        return doc
    if cmd == "export-heatmap":
        return {"rows": (mech.n + 1) ** 2}
    cfg = evaluate.EvalConfig(reps=op["reps"], seed=op["seed"], d=op["d"], metric=op["metric"])
    if op["data"] == "binomial":
        groups = evaluate.binomial_population(
            op["total"], op["group_size"], op["p"],
            evaluate.substream(op["seed"], evaluate.DATA_STREAM))
    else:
        groups = evaluate.GroupCounts(
            n=op["group_size"],
            counts=spec.people_counts(people_seed, op["predicate"], op["group_size"]))
    empirical = evaluate.empirical_l0d if op["metric"] == "l0d" else evaluate.empirical_rmse
    return empirical(mech, groups, cfg).to_json_dict()


def cli_replay(argv: list, workdir: str) -> dict:
    """Run one CLI command in-process through cli.main, capturing its stdout."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:
        return {"error": _error(exc), "ms": (time.perf_counter() - start) * 1e3}
    finally:
        os.chdir(cwd)
    return {"error": None, "code": code, "stdout": stdout.getvalue(),
            "ms": (time.perf_counter() - start) * 1e3}


def environment() -> dict:
    """The configuration the library resolved; a hook that no longer exists reads None."""
    kernels = sys.modules.get("dpmech._kernels")
    backend = getattr(kernels, "backend_name", None)
    tolerance = getattr(core, "tolerance", None)
    return {"dpmech_file": dpmech.__file__,
            "backend": backend() if backend else None,
            "tolerance": tolerance() if tolerance else None}


def warm_up() -> None:
    """One small call through each layer, so that no op pays a first call."""
    run_design({"n": 4, "alpha": 0.62, "props": ("WH",), "objective": "l0"})
    run_analyze({"mech": "em", "n": 10})
    run_sample({"mech": "gm", "n": 10, "groups": 100, "seed": 0})


HANDLERS = {
    "env": environment,
    "design": run_design,
    "build": run_build,
    "sample": run_sample,
    "analyze": run_analyze,
    "cli_files": write_cli_files,
    "cli_expected": cli_expected,
    "cli_replay": cli_replay,
}


def serve(requests, replies) -> None:
    tracer = Tracer()
    while True:
        header = requests.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return
        kind, traced, op_id, args = pickle.loads(requests.read(_HEADER.unpack(header)[0]))
        if kind == "exit":
            return
        if traced:
            with tracer.installed(op_id):
                reply = HANDLERS[kind](*args)
            reply["spans"] = tracer.take()
        else:
            reply = HANDLERS[kind](*args)
        reply = {"result": reply, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        data = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        replies.write(_HEADER.pack(len(data)) + data)
        replies.flush()


def main() -> None:
    cap = int(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    warm_up()
    replies.write(_HEADER.pack(0))
    replies.flush()
    serve(sys.stdin.buffer, replies)


if __name__ == "__main__":
    main()
