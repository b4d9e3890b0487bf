"""dpmech: design, analysis and empirical evaluation of differentially
private mechanisms for count queries over groups of n individuals.

The public names below are loaded on first access (PEP 562), each from the
submodule that defines it, so ``import dpmech`` loads no numpy and a process
pays only for the submodules it uses: ``dpmech.select_strategy`` loads
``strategy`` alone, ``dpmech.geometric`` loads ``explicit`` with numpy, and
only the LP names load ``lp``.  The submodules themselves (``dpmech.lp`` and
the rest) resolve the same way.
"""

import importlib

#: submodule -> the public names it defines, which this package exposes
_EXPORTS = {
    "analysis": "PropertyReport dp_alpha_max gm_derivable property_report",
    "core": "Mechanism Objective check_property implied_properties is_dp l0_objective "
            "l0_score l0d_objective l0d_score l1_objective l2_objective new_mechanism "
            "objective_value read_mechanism_csv symmetrize uniform_weights "
            "write_mechanism_csv",
    "evaluate": "EvalConfig EvalResult GroupCounts binomial_population empirical_l0d "
                "empirical_rmse ingest_groups mix64 parse_predicate substream",
    "explicit": "em_l0_cost explicit_fair fair_diagonal geometric gm_l0_cost uniform",
    "lp": "CooMatrix LinearProgram LpSolution build_lp design_mechanism max_violation "
          "solve_lp",
    "strategy": "PROPERTIES SelectionResult gm_is_column_monotone "
                "gm_weak_honesty_threshold select_strategy",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("analysis", "cli", "core", "errors", "evaluate", "explicit", "lp", "strategy")

__all__ = sorted([*_HOME, "analysis", "core", "errors", "evaluate", "explicit", "lp"])
__version__ = "0.1.0"


def __getattr__(name: str):
    # resolved on every access and never stored in this namespace, so a
    # wrapper patched into a submodule for a while is not kept here after it
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
