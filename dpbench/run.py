"""dpmech benchmark: the controller process.

    python3 dpbench/run.py --workload design_grid --seed 1 --seconds 10 --trace 0

Workloads: design_grid, evaluate_sampling, cli_pipeline, or ``all`` for the
three in turn.  Run from the root of a checkout: the program under test is the
``src/dpmech`` package beside this directory.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Earlier lines give each op's verdict, the environment and
the metrics as a table; the full record, spans included, is written under
``.dpbench_out/``.  See ``dpbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import selectors
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import spec  # noqa: E402  (numpy must see the thread settings above)

IMPORT_PROBES = 5
_HEADER = struct.Struct("<Q")

#: a fresh interpreter's import of dpmech plus one warm-up call into each
#: workload's first layer
SETUP_ARGV = {
    "design_grid": ["-c", "import dpmech\nfrom dpmech import core, lp\n"
                          "lp.build_lp(4, 0.5, (), core.l0_objective(4))"],
    "evaluate_sampling": ["-c", "import dpmech\nfrom dpmech import explicit\n"
                                "explicit.geometric(10, 0.9)"],
    "cli_pipeline": ["-m", "dpmech.cli", "select", "--n", "4", "--alpha", "0.5"],
}
IMPORT_ARGV = ["-c", "import time\nt = time.perf_counter()\nimport dpmech.cli\n"
                     "print((time.perf_counter() - t) * 1e3)"]


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read_some(sel, fd: int, size: int, deadline: float | None) -> bytes | None:
    """Up to `size` bytes from fd: b"" at end of file, None if the deadline passes first."""
    wait = None if deadline is None else deadline - time.monotonic()
    if wait is not None and (wait <= 0 or not sel.select(wait)):
        return None
    return os.read(fd, size)


def _read_until(fd: int, size: int, deadline: float | None) -> bytes | None:
    """Exactly `size` bytes from fd; None if the deadline passes first.
    Raises EOFError when the writer exits."""
    buf = bytearray()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while len(buf) < size:
            chunk = _read_some(sel, fd, size - len(buf), deadline)
            if chunk is None:
                return None
            if not chunk:
                raise EOFError("pipe closed")
            buf += chunk
    return bytes(buf)


def reap(proc: subprocess.Popen) -> float:
    """Wait for a child and return its peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class Worker:
    """One worker process at a time: replaced on request, and killed and
    replaced when an op misses its deadline.  Restarts are kept out of op
    times; the peak RSS of every process it ran is kept."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = None
        self.peak_rss_mb = 0.0
        self.start()

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec.WORKER_MEM_BYTES)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            ready = _read_until(self.proc.stdout.fileno(), _HEADER.size, time.monotonic() + 120)
        except EOFError:
            ready = None
        if ready is None:
            self.kill()
            raise BenchError("worker did not start; is src/dpmech importable?")

    def call(self, kind: str, args: tuple, deadline_s: float, traced: bool = False,
             op_id=None):
        """Send one request; returns (result or None on a missed deadline, wall seconds)."""
        data = pickle.dumps((kind, traced, op_id, args), protocol=pickle.HIGHEST_PROTOCOL)
        start = time.monotonic()
        try:
            self.proc.stdin.write(_HEADER.pack(len(data)) + data)
            self.proc.stdin.flush()
            fd = self.proc.stdout.fileno()
            header = _read_until(fd, _HEADER.size, start + deadline_s)
            body = header and _read_until(fd, _HEADER.unpack(header)[0], None)
        except (EOFError, BrokenPipeError):
            body = None
        wall = time.monotonic() - start
        if body is None:
            self.kill()
            self.start()
            return None, wall
        reply = pickle.loads(body)
        self.peak_rss_mb = max(self.peak_rss_mb, reply["maxrss_kb"] / 1024.0)
        return reply["result"], wall

    def kill(self) -> None:
        self.proc.kill()
        self._reap()

    def restart(self) -> None:
        self.close()
        self.start()

    def close(self) -> None:
        data = pickle.dumps(("exit", False, None, ()))
        try:
            self.proc.stdin.write(_HEADER.pack(len(data)) + data)
            self.proc.stdin.close()
        except BrokenPipeError:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, reap(self.proc))
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def run_child(argv: list, env: dict, cwd, timeout_s: float):
    """Run `python3 <argv>`; returns (exit code, or None when killed at the
    timeout; stdout; wall seconds; peak RSS in MB)."""
    with selectors.DefaultSelector() as sel:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=env, cwd=cwd)
        chunks = []
        chunk = None
        try:
            fd = proc.stdout.fileno()
            sel.register(fd, selectors.EVENT_READ)
            while (chunk := _read_some(sel, fd, 1 << 16, start + timeout_s)):
                chunks.append(chunk)
        finally:
            if chunk is None:
                proc.kill()
            proc.stdout.close()
            rss = reap(proc)
        wall = time.monotonic() - start
    return (None if chunk is None else proc.returncode), b"".join(chunks).decode(), wall, rss


class Run:
    """State of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = child_env()
        self.ops: list = []
        self.spans: list = []
        self.layer: dict = {}
        self.library: dict = {}
        self.peak_rss_mb = 0.0
        self.setup_walls: list = []
        out = ROOT / ".dpbench_out"
        out.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=out))

    def probe(self) -> float:
        """Wall seconds of one fresh interpreter importing dpmech and returning
        from a warm-up call into the workload's first layer."""
        code, _, wall, _ = run_child(SETUP_ARGV[self.workload], self.env, ROOT,
                                     spec.CLI_DEADLINE_S)
        if code != 0:
            raise BenchError(f"set-up probe for {self.workload} exited {code}")
        return wall

    def loop(self, make_pass, execute, segment=None) -> None:
        """Run whole passes until the run has lasted --seconds and, untraced,
        has at least MIN_OPS ops.  Before every SEGMENT_OPS-th op, outside
        op times, an untraced run takes one set-up probe and `segment(index)`
        runs."""
        if not self.trace:
            self.probe()  # unmeasured: fills the bytecode cache
        start = time.monotonic()
        k = 0
        while True:
            for op in make_pass(self.seed, k):
                index = len(self.ops)
                if index % spec.SEGMENT_OPS == 0:
                    if not self.trace:
                        self.setup_walls.append(self.probe())
                    if segment:
                        segment(index)
                self.ops.append(execute(op, index))
            k += 1
            if time.monotonic() - start >= self.seconds and (
                    self.trace or len(self.ops) >= spec.MIN_OPS):
                return

    def record(self, op_id, ok_why, ms, groups=0, rows=0, **extra) -> dict:
        return {"id": op_id, "ok": not ok_why, "why": ok_why, "ms": ms,
                "groups": groups, "rows": rows, **extra}


def _keep_spans(run: Run, traced: dict) -> None:
    """Keep a traced op's spans, re-indexing parents into the run's span list."""
    base = len(run.spans)
    run.spans.extend((*s[:4], s[4] + base if s[4] >= 0 else -1, *s[5:])
                     for s in traced.pop("spans", ()))


def _paired(run: Run, worker: Worker, kind: str, args: tuple, deadline_s: float, index: int):
    """Run one op untraced and traced, alternating which goes first so that
    neither always finds warm caches.  Returns the untraced result and wall
    seconds; the result is None if either run missed its deadline."""
    if index % 2:
        traced, wall = worker.call(kind, args, deadline_s, True, index)
        if traced is None:
            return None, wall
        plain, wall = worker.call(kind, args, deadline_s, False, index)
    else:
        plain, wall = worker.call(kind, args, deadline_s, False, index)
        traced = worker.call(kind, args, deadline_s, True, index)[0] if plain else None
    if plain is not None and traced is not None:
        _keep_spans(run, traced)
        run.layer.setdefault("pairs", []).append((plain["ms"], traced["ms"]))
    return plain, wall


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def design_grid(run: Run) -> None:
    oracle = spec.load_json("oracle.json")
    worker = Worker(run.env)
    run.library = worker.call("env", (), spec.CLI_DEADLINE_S)[0]
    results = []

    def execute(case, index):
        if run.trace:
            res, wall = _paired(run, worker, "design", (case,), spec.DESIGN_DEADLINE_S, index)
        else:
            res, wall = worker.call("design", (case,), spec.DESIGN_DEADLINE_S, op_id=index)
        if res is None:
            if run.trace:  # the LP's size still counts
                built, _ = worker.call("build", (case,), spec.DESIGN_DEADLINE_S, True, index)
                _keep_spans(run, built)
            return run.record(case["id"], ["deadline missed"], wall * 1e3, miss=True)
        results.append((case, res))
        why = spec.check_design(res, oracle[case["id"]], case["n"], case["objective"])
        return run.record(case["id"], why, res["ms"])

    try:
        run.loop(spec.design_pass, execute, lambda index: index and worker.restart())
    finally:
        worker.close()
    run.peak_rss_mb = worker.peak_rss_mb
    gaps = [abs(res["lp_objective"] - oracle[case["id"]]) for case, res in results
            if res["lp_objective"] is not None]
    lp_ok = [res["status"] == "optimal" and res["violation"] <= spec.MAX_VIOLATION
             and abs(res["lp_objective"] - oracle[case["id"]]) <= spec.ORACLE_TOL
             for case, res in results]
    run.layer.update({
        "lp.deadline_misses": (sum(1 for op in run.ops if op.get("miss")), "count"),
        "lp.solve_ok_ratio": (sum(lp_ok) / len(run.ops), "ratio"),
        "lp.max_violation": (max((r["violation"] for _, r in results
                                  if r["violation"] is not None), default=0.0), "abs"),
        "lp.oracle_gap_max": (max(gaps, default=0.0), "abs"),
    })


def evaluate_sampling(run: Run) -> None:
    digests = spec.load_json("digests.json")
    worker = Worker(run.env)
    run.library = worker.call("env", (), spec.CLI_DEADLINE_S)[0]

    def fresh_worker(index):
        # the sampling ops in a fixed order first: the allocator's state, and
        # so the peak RSS, would otherwise depend on the seeded op order
        if index:
            worker.restart()
        for op in spec.sampling_menu():
            if op["kind"] == "sample":
                worker.call(op["kind"], (op,), spec.SAMPLING_DEADLINE_S)

    def execute(op, index):
        if run.trace:
            res, wall = _paired(run, worker, op["kind"], (op,), spec.SAMPLING_DEADLINE_S, index)
        else:
            res, wall = worker.call(op["kind"], (op,), spec.SAMPLING_DEADLINE_S, op_id=index)
        if res is None:
            return run.record(op["id"], ["deadline missed"], wall * 1e3)
        if op["kind"] == "sample":
            why = spec.check_sample(res, digests.get(spec.digest_key(op["mech"], op["n"],
                                                                      op["seed"])))
            groups = op["groups"] * spec.SAMPLING_REPS * (len(spec.SAMPLING_D) + 1)
        else:
            why = spec.check_analyze(res, op["mech"], op["n"], spec.SAMPLING_ALPHA)
            groups = 0
        return run.record(op["id"], why, res["ms"], groups=groups)

    try:
        run.loop(spec.sampling_pass, execute, fresh_worker)
    finally:
        worker.close()
    run.peak_rss_mb = worker.peak_rss_mb


def cli_pipeline(run: Run) -> None:
    oracle = spec.load_json("oracle.json")
    spec.write_people_csv(run.workdir / "people.csv", run.seed)
    expected: dict = {}
    executed = []

    def with_worker(fn):
        # the worker never runs beside a CLI child
        worker = Worker(run.env)
        try:
            fn(worker)
        finally:
            worker.close()

    def compute_expected(worker, ops):
        run.library = worker.call("env", (), spec.CLI_DEADLINE_S)[0]
        worker.call("cli_files", (str(run.workdir),), spec.CLI_DEADLINE_S)
        for op in ops:
            if op["id"] not in expected:
                res, _ = worker.call("cli_expected", (op, str(run.workdir), run.seed),
                                     spec.CLI_DEADLINE_S)
                expected[op["id"]] = res if res is not None else {"error": "deadline missed"}

    def make_pass(seed, k):
        ops = spec.cli_pass(seed, k)
        with_worker(lambda w: compute_expected(w, ops))
        return ops

    def execute(op, index):
        argv = spec.cli_argv(op, index)
        code, out, wall, rss = run_child(["-m", "dpmech.cli", *argv], run.env, run.workdir,
                                         spec.CLI_DEADLINE_S)
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        case = op["id"].removeprefix("design-lp-")
        why = spec.check_cli(code, out, expected[op["id"]], op["cmd"], oracle.get(case))
        executed.append((op, argv, wall))
        rows = spec.PEOPLE_ROWS if op["cmd"] == "evaluate" and op["data"] == "csv" else 0
        return run.record(op["id"], why, wall * 1e3, groups=spec.cli_groups(op), rows=rows)

    run.loop(make_pass, execute)
    if not run.trace:
        return

    lp_ops = [(op, rec) for (op, _, _), rec in zip(executed, run.ops)
              if op["cmd"] == "design" and op["mechanism"] == "lp"]
    violations = [expected[op["id"]].get("violation") for op, _ in lp_ops]
    run.layer.update({
        "lp.deadline_misses": (sum(1 for _, rec in lp_ops if rec["why"] == ["deadline missed"]),
                               "count"),
        "lp.solve_ok_ratio": (sum(rec["ok"] for _, rec in lp_ops) / len(lp_ops), "ratio"),
        "lp.max_violation": (max((v for v in violations if v is not None), default=0.0),
                             "abs"),
        "lp.oracle_gap_max": (max((abs(expected[op["id"]]["lp_objective"]
                                       - oracle[op["id"].removeprefix("design-lp-")])
                                   for op, _ in lp_ops
                                   if expected[op["id"]].get("lp_objective") is not None),
                                  default=0.0), "abs"),
    })
    imports = [float(run_child(IMPORT_ARGV, run.env, ROOT, spec.CLI_DEADLINE_S)[1])
               for _ in range(IMPORT_PROBES + 1)]
    import_ms = statistics.median(imports[1:])
    self_ms = []

    def replay(worker):
        for index, (op, argv, wall) in enumerate(executed):
            start = len(run.spans)
            if _paired(run, worker, "cli_replay", (argv, str(run.workdir)),
                       spec.CLI_DEADLINE_S, index)[0] is None:
                continue
            layer_s = sum(s[3] - s[2] for s in run.spans[start:] if s[4] < 0)
            self_ms.append(wall * 1e3 - layer_s * 1e3 - import_ms)

    with_worker(replay)
    run.layer["cli.import_ms"] = (import_ms, "ms")
    run.layer["cli.self_ms"] = (statistics.fmean(self_ms), "ms")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy") if find_spec("scipy") else None,
        "numba_importable": find_spec("numba") is not None,
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def per_layer(run: Run) -> dict:
    metrics = spec.layer_metrics(run.spans)
    metrics.update({"lp.deadline_misses": (0, "count"), "lp.solve_ok_ratio": (0.0, "ratio"),
                    "lp.max_violation": (0.0, "abs"), "lp.oracle_gap_max": (0.0, "abs"),
                    "cli.import_ms": (0.0, "ms"), "cli.self_ms": (0.0, "ms")})
    pairs = run.layer.pop("pairs", [])
    metrics.update(run.layer)
    plain = sum(p for p, _ in pairs) / 1e3
    traced = sum(t for _, t in pairs) / 1e3
    metrics.update({
        "trace.untraced_ops_per_s": (len(pairs) / plain if plain else 0.0, "1/s"),
        "trace.ops_per_s": (len(pairs) / traced if traced else 0.0, "1/s"),
        "trace.overhead_ratio": (traced / plain if plain else 0.0, "ratio"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    try:
        WORKLOADS[name](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    known = spec.known_failures().get(name, set())
    failed = [op for op in run.ops if not op["ok"]]
    new = sorted({op["id"] for op in failed} - known)
    if trace:
        metrics = per_layer(run)
    else:
        metrics = spec.end_to_end(run.ops, statistics.median(run.setup_walls),
                                  run.peak_rss_mb)
    env = {**environment(seed), **run.library}
    for index, op in enumerate(run.ops):
        verdict = "PASS" if op["ok"] else ("FAIL known" if op["id"] in known else "FAIL NEW")
        why = "; ".join(op["why"] or [])[:160]
        print(f"{name} op {index:4d} {verdict:10s} {op['ms']:10.2f} ms  {op['id']}  {why}")
    print(f"{name} environment: {json.dumps(env)}")
    print(f"{name} failed ops ({len(failed)} of {len(run.ops)}): "
          f"{sorted({op['id'] for op in failed})}")
    if new:
        print(f"{name} failures not in data/known_failures.json: {new}")
    if not trace:
        print(f"{name} percentiles over {len(run.ops)} ops, "
              f"{spec.beyond(len(run.ops), spec.TAIL_Q)} of them beyond the 90th")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key:28s} {value:16.6g} {unit}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "correct": not new, "failed_ids": sorted(
                  {op["id"] for op in failed}), "new_failures": new,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "ops": run.ops, "spans": run.spans}
    path = ROOT / ".dpbench_out" / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=float)
    return {"correct": not new, "attempted": len(run.ops), "failed": len(failed),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


WORKLOADS = {"design_grid": design_grid, "evaluate_sampling": evaluate_sampling,
             "cli_pipeline": cli_pipeline}


def preflight() -> None:
    for var in ("DPMECH_TOL", "DPMECH_BACKEND"):
        if os.environ.get(var) is not None:
            raise BenchError(f"{var} is set; unset it so the measured configuration is the default")
    if not (ROOT / "src" / "dpmech" / "__init__.py").is_file():
        raise BenchError(f"no dpmech package under {ROOT / 'src'}; run from a checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"dpbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
