"""Closed-form mechanism constructors and their exact costs.

Three named mechanisms:

* ``geometric``    -- two-sided geometric noise clamped to [0, n]; extreme
  rows carry weight x = 1/(1+alpha), interior rows y = (1-alpha)/(1+alpha),
  both decaying by a factor alpha per step from the diagonal.
* ``explicit_fair`` -- constant diagonal y (the largest feasible fair value),
  off-diagonal exponents arranged so every column is a permutation of the
  same terms; satisfies all seven structural properties.
* ``uniform``      -- ignores its input, all entries 1/(n+1).
"""

from __future__ import annotations

import numpy as np

from .core import Mechanism, _by_distance, new_mechanism
from .strategy import _check_alpha, _check_n

__all__ = [
    "geometric",
    "explicit_fair",
    "uniform",
    "gm_l0_cost",
    "em_l0_cost",
    "fair_diagonal",
]


def _powers(alpha: float, count: int) -> np.ndarray:
    # iterated multiplication, not exp(k*log(alpha)): keeps the adjacent-entry
    # ratio checks tight to the last ulp
    return np.cumprod(np.r_[1.0, np.full(count - 1, alpha)])


def geometric(n: int, alpha: float) -> Mechanism:
    """Truncated geometric mechanism of size n; requires 0 < alpha < 1."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, open_top=True)
    scale = np.full(n + 1, (1.0 - alpha) / (1.0 + alpha))  # y on interior rows
    scale[[0, n]] = 1.0 / (1.0 + alpha)  # x on the two extreme rows
    return new_mechanism(n, scale[:, None] * _by_distance(_powers(alpha, n + 1)), _adopt=True)


def fair_diagonal(n: int, alpha: float) -> float:
    """Largest diagonal value a fair alpha-DP mechanism of size n can have."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, open_top=True)
    pows = _powers(alpha, n // 2 + 2)
    half = float(pows[1:n // 2 + 1].sum())
    if n % 2 == 0:
        return 1.0 / (1.0 + 2.0 * half)
    return 1.0 / (1.0 + 2.0 * half + pows[(n + 1) // 2])


def explicit_fair(n: int, alpha: float) -> Mechanism:
    """Fair mechanism with the maximal constant diagonal; requires 0 < alpha < 1.

    Cell (i, j) is y * alpha**e with e = min(|i-j|, (|i-j| + edge + 1) // 2)
    and edge = min(j, n-j): the distance itself below the column's edge, and
    the halved form from there on.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha, open_top=True)
    y = fair_diagonal(n, alpha)
    pows = _powers(alpha, n + 1)
    idx = np.arange(n + 1)
    dist = _by_distance(idx)
    # one array, updated in place: (dist + edge + 1) // 2, halved by a shift
    # as it is >= 0, then its minimum with dist
    exponent = dist + (np.minimum(idx, n - idx) + 1)
    exponent >>= 1
    np.minimum(dist, exponent, out=exponent)
    cells = pows.take(exponent)
    cells *= y
    return new_mechanism(n, cells, _adopt=True)


def uniform(n: int) -> Mechanism:
    """Input-blind mechanism: every entry 1/(n+1)."""
    n = _check_n(n)
    return new_mechanism(n, np.full((n + 1, n + 1), 1.0 / (n + 1)), _adopt=True)


def gm_l0_cost(alpha: float) -> float:
    """Rescaled wrong-answer cost of the geometric mechanism: 2a/(1+a), any n."""
    alpha = _check_alpha(alpha, open_top=True)
    return 2.0 * alpha / (1.0 + alpha)


def em_l0_cost(n: int, alpha: float) -> float:
    """Rescaled wrong-answer cost of the fair mechanism: (n+1)/n * (1 - y)."""
    y = fair_diagonal(n, alpha)
    return (n + 1) / n * (1.0 - y)
