"""One-sided eigenvalue constants derived from pole-order inputs.

The positive-side constant comes from balancing two lower-bound branches
over a split of the k=4 pole mass; the negative-side and non-self-dual
constants come from a Hoelder contradiction whose worst case over the
unknown upper densities sits at the corner (1, 1).  The corner is checked
by an explicit grid scan rather than assumed.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .assumptions import GENERAL_SELF_DUAL
from .errors import ParameterError
from .poles import tensor_power_pole

#: pole orders at s=1 of L(s, pi^(x k)) for general self-dual pi, read from
#: the ledger: k = 4, k = 8, and k = 6, the lower bound negative_side uses
POLE4, POLE8, POLE6 = (tensor_power_pole(k, GENERAL_SELF_DUAL).total_order for k in (4, 8, 6))
#: theorem -> (sign, bound, whether it needs self-dual data) for
#: `density.verify_theorem`; each bound looks up this module's function when
#: called, so a replaced function is the one used
THEOREMS = {
    "t1pos": (1, lambda phi: positive_side(), True),
    "t1neg": (-1, lambda phi: negative_side(), True),
    "t2": (1, lambda phi: non_self_dual(phi), False),
}
DEFAULT_EPSILON = 0.01

#: the largest pole orders whose arithmetic stays in doubles (pole4 enters d^5)
MAX_POLE, MAX_POLE4 = sys.float_info.max, 10**61

BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 200
GRID_STEP = 1e-2


#: a derived constant, the optimizer that attains it (None if there is none),
#: the two branch values compared there, and the argument's trace
BoundResult = namedtuple("BoundResult", "constant optimizer branch_values trace")


def holder_branch(d: float, pole8: float) -> float:
    """Increasing branch (d^5 / pole8)^(1/12) from the eighth-power bound."""
    return (d ** 5 / pole8) ** (1 / 12)


def partition_branch(d: float, pole4: float) -> float:
    """Decreasing branch (pole4 - d)^(1/4) from the fourth-power pole."""
    return (pole4 - d) ** 0.25


def positive_side(pole4: int = POLE4, pole8: int = POLE8) -> BoundResult:
    """min over d in [0, pole4] of max{(d^5/pole8)^(1/12), (pole4-d)^(1/4)},
    located by bisection on the unique crossing of the two branches."""
    if pole4 < 1 or pole8 < 1:
        raise ParameterError("pole orders must be >= 1")
    if pole4 > MAX_POLE4 or pole8 > MAX_POLE:
        need = f"pole4 <= {MAX_POLE4:.0e}, pole8 <= {MAX_POLE:.4g}"
        raise ParameterError(f"pole orders overflow a double: need {need}")
    lo, hi = 0.0, float(pole4)
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo < BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if holder_branch(mid, pole8) < partition_branch(mid, pole4):
            lo = mid
        else:
            hi = mid
    d_star = 0.5 * (lo + hi)
    up, down = holder_branch(d_star, pole8), partition_branch(d_star, pole4)
    constant = max(up, down)
    trace = (
        f"split the order-{pole4} fourth-power pole mass as d (non-positive side) "
        f"against {pole4}-d (positive side); Hoelder with exponents (1/5, 4/5) and "
        f"the order-{pole8} eighth-power bound gives the increasing branch "
        f"(d^5/{pole8})^(1/12), the remaining pole mass gives ({pole4}-d)^(1/4); "
        f"branches cross at d = {d_star:.12f} with value {constant:.12f}"
    )
    return BoundResult(constant, d_star, (up, down), trace)


def _corner_scan(t_of_densities) -> tuple[float, float, float]:
    """Minimum of the admissible threshold over (dA, dB) in (0,1]^2 on a
    grid, returned with its location (the first in row order on ties);
    raises if the minimum is not at the corner."""
    grid = [GRID_STEP + i * GRID_STEP for i in range(round(1 / GRID_STEP))]
    value, d_a, d_b = min((t_of_densities(d_a, d_b), d_a, d_b) for d_a in grid for d_b in grid)
    if (d_a, d_b) != (1.0, 1.0):
        raise ParameterError(f"worst-case density scan not at the corner: {(d_a, d_b)}")
    return value, d_a, d_b


def _holder_side(mass, power, q, constant, premise, result) -> BoundResult:
    """Corner scan of the threshold t with mass - t^power dB <= dB^q t^power
    dA^(1-q), i.e. t = (mass / (dB + dB^q dA^(1-q)))^(1/power), beside the
    closed-form `constant`; the trace puts the scanned corner between the
    argument's `premise` and its `result`."""
    q_a, root = 1 - q, 1 / power
    scanned, d_a, d_b = _corner_scan(lambda a, b: (mass / (b + b ** q * a ** q_a)) ** root)
    trace = f"{premise}; grid scan puts the worst case at (dA, dB) = ({d_a}, {d_b}), {result}"
    return BoundResult(constant, 1.0, (scanned, constant), trace)


def negative_side(pole6_lower: int = POLE6) -> BoundResult:
    """Threshold t with pole6 - t^6 dB <= dB^(6/7) t^6 dA^(1/7); the worst
    case dA = dB = 1 gives t = (pole6/2)^(1/6)."""
    if pole6_lower < 1:
        raise ParameterError("pole6_lower must be >= 1")
    if pole6_lower > MAX_POLE:
        raise ParameterError(f"pole6_lower overflows a double: need <= {MAX_POLE:.4g}")
    premise = (
        f"sixth-power sums carry at least {pole6_lower} units of pole mass; the "
        "seventh-power sums over the positive set stay O(log) by the eigenvalue "
        "split at c = 2 (for real a_p > 2 with trivial omega both Satake "
        "parameters are real and > 1, so every power sum is positive); Hoelder "
        f"with exponents (6/7, 1/7) forces {pole6_lower} - t^6*dB <= "
        "dB^(6/7) t^6 dA^(1/7)"
    )
    constant, result = (pole6_lower / 2) ** (1 / 6), f"giving t = ({pole6_lower}/2)^(1/6)"
    return _holder_side(pole6_lower, 6, 6 / 7, constant, premise, result)


def positive_side_weak() -> BoundResult:
    """Cross-check value 1/sqrt(2) from running the contradiction argument
    on the positive side with the simple k=2 pole and cubic Hoelder."""
    premise = (
        "square sums carry one unit of pole mass; cubic sums are O(1); Hoelder "
        "with exponents (2/3, 1/3) forces 1 - t^2*dB <= dB^(2/3) t^2 dA^(1/3)"
    )
    return _holder_side(1.0, 2, 2 / 3, 1 / math.sqrt(2), premise, "giving t = 1/sqrt(2)")


def non_self_dual(phi: float) -> BoundResult:
    """Threshold 0.5 for Re(a_p e^{i phi}); phi rotates the data but does
    not affect the constant."""
    if not 0.0 <= phi <= math.pi:
        raise ParameterError(f"phi must lie in [0, pi], got {phi}")
    premise = (
        f"rotation angle phi = {phi}; the Rankin-Selberg square sum of the "
        "rotated real parts carries pole mass 1/2 (the cross terms vanish "
        "without self-duality); cubic sums are o(log); Hoelder with exponents "
        "(2/3, 1/3) forces 1/2 - t^2*dB <= (t^3 dB)^(2/3) dA^(1/3)"
    )
    return _holder_side(0.5, 2, 2 / 3, 0.5, premise, "where solving 1/2 - t^2 = t^2 gives t = 1/2")
