"""Command-line front door.

Subcommands: design, analyze, select, evaluate, export-heatmap.  Every
command writes a single JSON document to stdout and keeps diagnostics on
stderr, so output composes in pipelines.  Exit codes:

- 0: success.
- 1: ``design`` accepted its inputs but the LP solve failed, or it cannot
  write ``--out`` or ``--dump-lp``.
- 2: a flag error; for ``design`` a weights file, and for ``analyze`` and
  ``export-heatmap`` a mechanism file, that cannot be read or parsed; and an
  ``export-heatmap --out`` that cannot be written.
- 3: ``evaluate`` accepted its flags but cannot read or parse its ``--mech``
  or ``--csv`` file, or cannot sample the mechanism on those groups.

Every flag error exits 2 before a mechanism or data file is read or any
file is written.

Each subcommand imports only what it runs, so a process pays for nothing
else: ``select``, ``--help`` and the flag errors found before a subcommand
runs (argparse's, and ``main``'s own checks) need only ``strategy`` and no
numpy; ``export-heatmap`` loads ``core``, and ``analyze`` adds
``analysis``; ``design`` loads ``core``, ``analysis`` and ``explicit``, and
``lp`` only for ``--mechanism lp``; ``evaluate`` loads ``core`` and
``evaluate``.  numpy comes in with ``core``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AlphaOutOfRange, DpMechError, NumericalInstability
from .strategy import PROPERTIES, _check_alpha, _check_d, _check_n, select_strategy

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_FLAGS = 2
EXIT_DATA = 3


def _parse_props(text: str) -> frozenset:
    """Comma-separated property names, in any letter case."""
    out: set = set()
    for tok in (text or "").split(","):
        t = tok.strip()
        if not t:
            continue
        if t.upper() not in PROPERTIES:
            raise argparse.ArgumentTypeError(
                f"unknown property {t!r}; expected {'/'.join(PROPERTIES)}")
        out.add(t.upper())
    return frozenset(out)


def _load_weights(spec: str, n: int):
    import numpy as np

    from . import core

    if spec == "uniform":
        return core.uniform_weights(n)
    try:
        with open(spec, "r", encoding="utf-8-sig") as fh:
            tokens = fh.read().replace(",", " ").split()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{spec}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start})") from None
    if not tokens:
        raise ValueError(f"{spec}: holds no weights")
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"{spec}: weight {token!r} is not a number") from None
    return np.asarray(values)


def _build_objective(name: str, d: int, weights):
    from . import core

    if d and name != "l0d":
        raise ValueError(f"--d applies only to --objective l0d, not {name}")
    p = {"l0": 0, "l0d": 0, "l1": 1, "l2": 2}[name]
    return core.Objective(p=p, weights=weights, d=d)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _fail(code: int, message: str) -> int:
    sys.stderr.write(f"dpmech: error: {message}\n")
    return code


def _cmd_design(args) -> int:
    from . import analysis, core, explicit

    try:
        _check_n(args.n)
        weights = _load_weights(args.weights, args.n)
        objective = _build_objective(args.objective, args.d, weights)
        core._check_objective(objective, args.n)
    except (OSError, ValueError, DpMechError) as exc:
        return _fail(EXIT_FLAGS, str(exc))

    try:
        if args.mechanism == "lp":
            from . import lp

            problem = lp.build_lp(args.n, args.alpha, args.props, objective)
            if args.dump_lp:
                with open(args.dump_lp, "w", encoding="utf-8") as fh:
                    problem.dump(fh)
            mech = lp.solve_design(problem)
        elif args.mechanism == "gm":
            mech = explicit.geometric(args.n, args.alpha)
        elif args.mechanism == "em":
            mech = explicit.explicit_fair(args.n, args.alpha)
        else:
            mech = explicit.uniform(args.n)
        value = core.objective_value(mech, objective)
    except OSError as exc:
        return _fail(EXIT_SOLVER, f"cannot write {args.dump_lp}: {exc}")
    except NumericalInstability as exc:
        return _fail(EXIT_SOLVER, str(exc))
    except (ValueError, DpMechError) as exc:
        return _fail(EXIT_FLAGS, str(exc))

    try:
        core.write_mechanism_csv(mech, args.out, alpha=args.alpha)
    except OSError as exc:
        return _fail(EXIT_SOLVER, f"cannot write {args.out}: {exc}")
    report = analysis.property_report(mech)
    _emit({
        "mechanism": args.mechanism,
        "n": args.n,
        "alpha": args.alpha,
        "props": sorted(args.props),
        "objective": args.objective,
        "objective_value": value,
        "out": str(args.out),
        "report": report.to_json_dict(),
    })
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import analysis, core

    try:
        mech, file_alpha = core.read_mechanism_csv(args.infile)
        alpha = args.alpha if args.alpha is not None else file_alpha
        derivable = analysis.gm_derivable(mech, alpha) if alpha is not None else None
        doc = analysis.property_report(mech).to_json_dict()
    except (OSError, DpMechError) as exc:
        return _fail(EXIT_FLAGS, str(exc))
    doc["n"] = mech.n
    doc["alpha"] = alpha
    doc["gm_derivable"] = derivable
    _emit(doc)
    return EXIT_OK


def _cmd_select(args) -> int:
    try:
        result = select_strategy(args.n, args.alpha, args.props)
    except (ValueError, DpMechError) as exc:
        return _fail(EXIT_FLAGS, str(exc))
    _emit({"strategy": result.strategy, "rationale": result.rationale})
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from . import core, evaluate

    try:
        cfg = evaluate.EvalConfig(reps=args.reps, seed=args.seed, d=args.d,
                                  metric=args.metric)
        _check_d(cfg.d, _check_n(args.group_size))
        if args.data == "binomial":
            rng = evaluate.substream(args.seed, evaluate.DATA_STREAM)
            groups = evaluate.binomial_population(args.total, args.group_size,
                                                  args.p, rng)
        elif not args.csv or not args.predicate:
            raise ValueError("--data csv requires --csv and --predicate")
        else:
            column, pred = evaluate.parse_predicate(args.predicate)
    except (ValueError, DpMechError) as exc:
        return _fail(EXIT_FLAGS, str(exc))
    try:
        mech, _ = core.read_mechanism_csv(args.mech)
        if args.data == "csv":
            groups = evaluate.ingest_groups(args.csv, column, args.group_size,
                                            predicate=pred)
        empirical = (evaluate.empirical_l0d if args.metric == "l0d"
                     else evaluate.empirical_rmse)
        result = empirical(mech, groups, cfg)
    except (OSError, ValueError, DpMechError) as exc:
        return _fail(EXIT_DATA, str(exc))
    _emit(result.to_json_dict())
    return EXIT_OK


def _cmd_export_heatmap(args) -> int:
    from . import core

    try:
        mech, _ = core.read_mechanism_csv(args.infile)
    except (OSError, DpMechError) as exc:
        return _fail(EXIT_FLAGS, str(exc))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("input,output,probability\n")
            # one row per (input j, output i), inputs outermost: each row of
            # the transpose is one input's column, written in one call, and
            # Python floats format faster than numpy scalars
            for j, column in enumerate(mech.matrix.T.tolist()):
                fh.write("".join([f"{j},{i},{p:.16e}\n" for i, p in enumerate(column)]))
    except OSError as exc:
        return _fail(EXIT_FLAGS, f"cannot write {args.out}: {exc}")
    _emit({"out": str(args.out), "rows": (mech.n + 1) ** 2})
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmech",
        description="Design, analyze and evaluate private count-query mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct a mechanism and write it as CSV")
    p.add_argument("--n", type=int, required=True, help="group size (>= 1)")
    p.add_argument("--alpha", type=float, default=None, help="privacy level")
    p.add_argument("--props", type=_parse_props, default=frozenset(),
                   help="comma-separated property list (RH,RM,CH,CM,F,WH,S); lp only")
    p.add_argument("--objective", choices=("l0", "l1", "l2", "l0d"), default="l0")
    p.add_argument("--d", type=int, default=0, help="tail offset for l0d")
    p.add_argument("--weights", default="uniform",
                   help="'uniform' or a file of n+1 weights")
    p.add_argument("--out", required=True, help="output mechanism CSV path")
    p.add_argument("--mechanism", choices=("lp", "gm", "em", "um"), default="lp")
    p.add_argument("--dump-lp", default=None, help="write the LP rows to this file; lp only")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("analyze", help="report the properties of a mechanism file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="privacy level for the derivability check "
                        "(default: the file header)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("select", help="pick the cheapest strategy for a property set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--props", type=_parse_props, default=frozenset())
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("evaluate", help="run the seeded sampling harness")
    p.add_argument("--mech", required=True, help="mechanism CSV path")
    p.add_argument("--data", choices=("binomial", "csv"), required=True)
    p.add_argument("--p", type=float, default=0.5, help="bit probability (binomial)")
    p.add_argument("--total", type=int, default=10000,
                   help="population size (binomial)")
    p.add_argument("--group-size", type=int, required=True)
    p.add_argument("--csv", default=None, help="input CSV path (csv mode)")
    p.add_argument("--predicate", default=None,
                   help="bit rule '<column><op><value>', or a bare 0/1 column name")
    p.add_argument("--metric", choices=("l0d", "rmse"), default="l0d")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("export-heatmap",
                       help="emit a long-form input,output,probability CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_heatmap)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    needs_alpha = args.command == "design" and args.mechanism in ("lp", "gm", "em")
    if needs_alpha and args.alpha is None:
        return _fail(EXIT_FLAGS, f"--alpha is required for --mechanism {args.mechanism}")
    if getattr(args, "alpha", None) is not None:
        try:
            _check_alpha(args.alpha)
        except AlphaOutOfRange as exc:
            return _fail(EXIT_FLAGS, str(exc))
    if args.command == "design" and args.mechanism != "lp" and (args.props or args.dump_lp):
        return _fail(EXIT_FLAGS, "--props and --dump-lp apply only to --mechanism lp, "
                                 f"not {args.mechanism}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
