"""The one-dimensional bisection behind phi, the Chernoff distance and t_r.

_MAX_ITER also caps the rounds of exact_oracles' Neyman-Pearson test search.
"""
from __future__ import annotations

from typing import Callable

from .errors import ConvergenceError

_MAX_ITER = 400
BISECT_TOL = 1e-12


def bisect_decreasing(g: Callable[[float], float], lo: float, hi: float, target: float) -> float:
    """Solve g(x) = target for strictly decreasing g with g(lo) > target > g(hi).

    The bracket is halved until its width is at most BISECT_TOL.
    """
    for _ in range(_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = (lo + hi) / 2.0
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
    else:
        raise ConvergenceError("bisection did not reach the target width")
    return (lo + hi) / 2.0
