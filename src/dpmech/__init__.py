"""dpmech: design, analysis and empirical evaluation of differentially
private mechanisms for count queries over groups of n individuals."""

from .analysis import (
    PropertyReport,
    SelectionResult,
    dp_alpha_max,
    gm_derivable,
    gm_is_column_monotone,
    gm_weak_honesty_threshold,
    property_report,
    select_strategy,
)
from .core import (
    Mechanism,
    Objective,
    PROPERTIES,
    check_property,
    implied_properties,
    is_dp,
    l0_objective,
    l0_score,
    l0d_objective,
    l0d_score,
    l1_objective,
    l2_objective,
    new_mechanism,
    objective_value,
    read_mechanism_csv,
    symmetrize,
    uniform_weights,
    write_mechanism_csv,
)
from .evaluate import (
    EvalConfig,
    EvalResult,
    GroupCounts,
    binomial_population,
    empirical_l0d,
    empirical_rmse,
    ingest_groups,
    mix64,
    parse_predicate,
    substream,
)
from .explicit import (
    em_l0_cost,
    explicit_fair,
    fair_diagonal,
    geometric,
    gm_l0_cost,
    uniform,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_lp,
    design_mechanism,
    max_violation,
    solve_lp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
