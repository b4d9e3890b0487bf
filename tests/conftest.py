"""Shared fixtures and mechanism generators for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpmech import Mechanism, is_dp

# alpha grids used across modules: the 7-value closed-form grid and the
# 5-value grid used for the heavier LP reproductions
ALPHA_GRID7 = (1 / 3, 1 / 2, 0.62, 2 / 3, 0.76, 9 / 10, 10 / 11)
ALPHA_GRID5 = (0.3, 0.5, 0.62, 2 / 3, 0.9)


def random_mechanism(rng: np.random.Generator, n: int) -> Mechanism:
    """Arbitrary valid mechanism: positive entries, columns normalized."""
    m = rng.uniform(0.05, 1.0, size=(n + 1, n + 1))
    return Mechanism(m / m.sum(axis=0, keepdims=True))


def random_dp_mechanism(rng: np.random.Generator, n: int, alpha: float) -> Mechanism:
    """Random alpha-private mechanism: a perturbation of the uniform mechanism
    small enough that the ratio constraints keep slack."""
    u = 1.0 / (n + 1)
    r = rng.uniform(0.0, 1.0, size=(n + 1, n + 1))
    r /= r.sum(axis=0, keepdims=True)
    t = 0.5 * (1.0 - alpha) / (n + 2)
    mech = Mechanism((1.0 - t) * np.full((n + 1, n + 1), u) + t * r)
    assert is_dp(mech, alpha)
    return mech


def random_fair_mechanism(rng: np.random.Generator, n: int,
                          diagonal: float | None = None) -> Mechanism:
    """Valid mechanism with a constant diagonal and random off-diagonal mass."""
    if diagonal is None:
        diagonal = rng.uniform(1.0 / (n + 1), 0.9)
    m = rng.uniform(0.05, 1.0, size=(n + 1, n + 1))
    np.fill_diagonal(m, 0.0)
    col = m.sum(axis=0)
    m = m / col * (1.0 - diagonal)
    np.fill_diagonal(m, diagonal)
    return Mechanism(m)


def edge_mechanism() -> Mechanism:
    """A valid mechanism whose entries include 1, 0, -0, the smallest normal
    number and two subnormal ones: the cases where formatting a Python float
    and a numpy scalar could part."""
    return Mechanism([[1.0, 5e-324, 0.1],
                      [0.0, 1.0, 1e-310],
                      [-0.0, 2.2250738585072014e-308, 0.9]])


def peak_arrays(fn, n: int) -> float:
    """Peak bytes that fn() holds at once beyond what was held before it,
    counted by tracemalloc (numpy reports its buffers to it), in units of
    one (n+1) x (n+1) float64 array."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / ((n + 1) ** 2 * 8)


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's dpmech;
    returns its stdout."""
    import dpmech

    src = str(Path(dpmech.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
