"""One-dimensional search primitives: golden-section refinement and bisection."""
from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 400
BISECT_TOL = 1e-12


def golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] to interval width tol.

    Ties collapse leftward, so on a flat plateau the leftmost point wins.
    Returns (argmax, max).
    """
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if hi - lo <= tol:
            break
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INVPHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INVPHI
            fd = f(d)
    else:
        raise ConvergenceError("golden-section search did not reach the target width")
    x = lo + (hi - lo) / 2.0
    return x, f(x)


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
