"""One-sided eigenvalue constants derived from pole-order inputs.

The positive-side constant comes from balancing two lower-bound branches
over a split of the k=4 pole mass; the negative-side and non-self-dual
constants come from a Hoelder contradiction whose worst case over the
unknown upper densities sits at the corner (1, 1).  The corner is checked
by an explicit grid scan rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 200
GRID_STEP = 1e-2


@dataclass(frozen=True)
class BoundResult:
    constant: float
    optimizer: float | None
    branch_values: tuple[float, float]
    trace: str

    def to_json(self) -> dict:
        return {
            "constant": self.constant,
            "optimizer": self.optimizer,
            "branch_values": list(self.branch_values),
            "trace": self.trace,
        }


def holder_branch(d: float, pole8: float = 14.0) -> float:
    """Increasing branch (d^5 / pole8)^(1/12) from the eighth-power bound."""
    return (d ** 5 / pole8) ** (1 / 12)


def partition_branch(d: float, pole4: float = 2.0) -> float:
    """Decreasing branch (pole4 - d)^(1/4) from the fourth-power pole."""
    return (pole4 - d) ** 0.25


def positive_side(pole4: int = 2, pole8: int = 14) -> BoundResult:
    """min over d in [0, pole4] of max{(d^5/pole8)^(1/12), (pole4-d)^(1/4)},
    located by bisection on the unique crossing of the two branches."""
    if pole4 < 1 or pole8 < 1:
        raise ParameterError("pole orders must be >= 1")
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


def _corner_scan(t_of_densities, step: float = GRID_STEP) -> tuple[float, float, float]:
    """Minimum of the admissible threshold over (dA, dB) in (0,1]^2 on a
    grid, returned with its location; raises if the minimum is interior."""
    grid = np.arange(step, 1.0 + step / 2, step)
    d_a = grid[:, None]
    d_b = grid[None, :]
    values = t_of_densities(d_a, d_b)
    idx = np.unravel_index(np.argmin(values), values.shape)
    at = (float(grid[idx[0]]), float(grid[idx[1]]))
    if at != (1.0, 1.0):
        raise ParameterError(f"worst-case density scan not at the corner: {at}")
    return float(values[idx]), at[0], at[1]


def negative_side(pole6_lower: int = 5) -> BoundResult:
    """Threshold t with pole6 - t^6 dB <= dB^(6/7) t^6 dA^(1/7); the worst
    case dA = dB = 1 gives t = (pole6/2)^(1/6)."""
    if pole6_lower < 1:
        raise ParameterError("pole6_lower must be >= 1")

    def admissible(d_a, d_b):
        return (pole6_lower / (d_b + d_b ** (6 / 7) * d_a ** (1 / 7))) ** (1 / 6)

    scanned, d_a, d_b = _corner_scan(admissible)
    constant = (pole6_lower / 2) ** (1 / 6)
    trace = (
        f"sixth-power sums carry at least {pole6_lower} units of pole mass; the "
        "seventh-power sums over the positive set stay O(log) by the eigenvalue "
        "split at c = 2 (for real a_p > 2 with trivial omega both Satake "
        "parameters are real and > 1, so every power sum is positive); Hoelder "
        f"with exponents (6/7, 1/7) forces {pole6_lower} - t^6*dB <= "
        f"dB^(6/7) t^6 dA^(1/7); grid scan puts the worst case at "
        f"(dA, dB) = ({d_a}, {d_b}), giving t = ({pole6_lower}/2)^(1/6)"
    )
    return BoundResult(constant, 1.0, (scanned, constant), trace)


def positive_side_weak() -> BoundResult:
    """Cross-check value 1/sqrt(2) from running the contradiction argument
    on the positive side with the simple k=2 pole and cubic Hoelder."""

    def admissible(d_a, d_b):
        return np.sqrt(1.0 / (d_b + d_b ** (2 / 3) * d_a ** (1 / 3)))

    scanned, d_a, d_b = _corner_scan(admissible)
    constant = 1 / math.sqrt(2)
    trace = (
        "square sums carry one unit of pole mass; cubic sums are O(1); Hoelder "
        "with exponents (2/3, 1/3) forces 1 - t^2*dB <= dB^(2/3) t^2 dA^(1/3); "
        f"grid scan puts the worst case at (dA, dB) = ({d_a}, {d_b}), giving "
        "t = 1/sqrt(2)"
    )
    return BoundResult(constant, 1.0, (scanned, constant), trace)


def non_self_dual(phi: float) -> BoundResult:
    """Threshold 0.5 for Re(a_p e^{i phi}); phi rotates the data but does
    not affect the constant."""
    if not 0.0 <= phi <= math.pi:
        raise ParameterError(f"phi must lie in [0, pi], got {phi}")

    def admissible(d_a, d_b):
        return np.sqrt(0.5 / (d_b + d_b ** (2 / 3) * d_a ** (1 / 3)))

    scanned, d_a, d_b = _corner_scan(admissible)
    constant = 0.5
    trace = (
        f"rotation angle phi = {phi}; the Rankin-Selberg square sum of the "
        "rotated real parts carries pole mass 1/2 (the cross terms vanish "
        "without self-duality); cubic sums are o(log); Hoelder with exponents "
        "(2/3, 1/3) forces 1/2 - t^2*dB <= (t^3 dB)^(2/3) dA^(1/3); grid scan "
        f"puts the worst case at (dA, dB) = ({d_a}, {d_b}), where solving "
        "1/2 - t^2 = t^2 gives t = 1/2"
    )
    return BoundResult(constant, 1.0, (scanned, constant), trace)


def reference_constants() -> dict[str, float]:
    """Literature constants for the geometric method; stored, not derived."""
    return {
        "serre": 2 * math.cos(2 * math.pi / 7),
        "kim-shahidi": 2 * math.cos(2 * math.pi / 11),
    }
