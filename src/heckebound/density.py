"""Empirical verification harness over eigenvalue datasets.

Truncated Dirichlet sums, density profiles, pole-order probes, and
theorem-checking reports.  Finite truncations cannot estimate Dirichlet
densities properly (the partial prime sum saturates at loglog X), so the
harness fixes the operating point s = 1 + 1/log X and reports both natural
and Dirichlet-weighted proportions as diagnostics, not proofs.  It computes
in Python floats over the record columns, without numpy, and adds each power
sum with math.fsum, which rounds once.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
import operator
from array import array
from collections import namedtuple
from collections.abc import Sequence

from .bounds import DEFAULT_EPSILON, THEOREMS
from .datasets import Records
from .errors import DatasetError, ParameterError

#: desk-scale proxy for "infinitely many": at least this fraction of primes
WITNESS_FRACTION = 0.01


def _rotated(records: Records, phi: float) -> Sequence[float]:
    """Re(a_p e^{i phi}) = a_re cos(phi) - a_im sin(phi) as a new float64 array,
    or as the read-only a_re column itself where the rotation changes no bit of
    it; every public function here calls it first, so it alone refuses an empty dataset."""
    if not len(records):
        raise DatasetError("empty dataset")
    if not math.isfinite(phi):
        raise ParameterError(f"phi must be finite, got {phi}")
    turn = cmath.exp(1j * phi)
    if turn.real == 1.0 and math.copysign(1.0, turn.imag) > 0 and not any(records.a_im.cast("B").cast("Q")):
        # a_re * 1.0 is a_re, and every a_im is +0.0 (all its bits clear) and sin(phi) >= +0.0,
        # as for every generated file at phi = 0, so subtracting a_im sin(phi) = +0.0 changes no bit
        return records.a_re
    cos, sin = itertools.repeat(turn.real), itertools.repeat(turn.imag)
    return array("d", map(operator.sub, map(operator.mul, records.a_re, cos), map(operator.mul, records.a_im, sin)))


def truncated_sum(records: Records, k: int, s: float, phi: float = 0.0) -> float:
    """Sum over the dataset of Re(a_p e^{i phi})^k / p^s."""
    return _truncated_sums(records, k, [s], phi)[0]


def _truncated_sums(records: Records, k: int, s_grid: Sequence[float], phi: float = 0.0) -> list[float]:
    """truncated_sum at each s of the grid, raising to the k-th power once;
    each term is the power times p^-s, which underflows to 0 where p^s would
    overflow."""
    vals = _rotated(records, phi)
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
    for s in s_grid:
        if not (math.isfinite(s) and s > 1.0):
            raise ParameterError(f"need finite s > 1, got {s}")
    try:  # a power past the double range, or a k past it, raises OverflowError; so does fsum past it
        powers = array("d", map(pow, vals, itertools.repeat(k)))
        del vals
        return [math.fsum(map(operator.mul, powers, map(pow, records.p, itertools.repeat(-s)))) for s in s_grid]
    except OverflowError:
        raise ParameterError("the k-th power sum overflows a double") from None


DensityReport = namedtuple("DensityReport", "natural_proportion dirichlet_weighted count s_used X")


def density_profile(
    records: Records, c: float, side: str, phi: float = 0.0
) -> DensityReport:
    """Proportion of primes with Re(a_p e^{i phi}) > c ('above') or < -c
    ('below'), natural and weighted by p^-s at s = 1 + 1/log X, X the largest p."""
    vals = _rotated(records, phi)
    if not (math.isfinite(c) and c >= 0):
        raise ParameterError(f"threshold must be finite and >= 0, got {c}")
    if side not in ("above", "below"):
        raise ParameterError(f"side must be 'above' or 'below', got {side!r}")
    beyond = functools.partial(operator.lt, c) if side == "above" else functools.partial(operator.gt, -c)
    hits = array("b", map(beyond, vals))
    s = 1.0 + 1.0 / math.log(records.p[-1])
    weights = array("d", map(pow, records.p, itertools.repeat(-s)))
    count = sum(hits)
    return DensityReport(
        natural_proportion=count / len(records),
        dirichlet_weighted=math.fsum(itertools.compress(weights, hits)) / math.fsum(weights),
        count=count,
        s_used=s,
        X=records.p[-1],
    )


def pole_order_probe(records: Records, k: int, s_grid: Sequence[float]) -> float:
    """Least-squares slope of the truncated k-th power sum against
    log(1/(s-1)): an empirical pole-order estimate."""
    y = _truncated_sums(records, k, s_grid)  # checks the records, k and each s
    if len(s_grid) < 3:
        raise ParameterError("need at least 3 grid points")
    gaps = sorted(s - 1.0 for s in s_grid)
    if gaps[-1] / gaps[0] < 4.0:
        raise ParameterError("grid must span at least a factor of 4 in s - 1")
    x = [math.log(1.0 / (s - 1.0)) for s in s_grid]
    try:  # fsum rounds once on every interpreter, and raises past a double or on inf - inf
        x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
        dx = [u - x_mean for u in x]
        slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / math.fsum(d * d for d in dx)
    except (OverflowError, ValueError):
        slope = math.nan
    if not math.isfinite(slope):  # finite sums near the double limit can still fit to inf
        raise ParameterError(f"the k={k} power sums give no finite slope")
    return slope


#: a verify_theorem verdict; witnesses holds up to ten (p, value) pairs
TheoremReport = namedtuple(
    "TheoremReport", "theorem threshold epsilon phi count required total witnesses passed"
)


def verify_theorem(
    records: Records,
    theorem: str,
    phi: float = 0.0,
    epsilon: float = DEFAULT_EPSILON,
    self_dual: bool = True,
) -> TheoremReport:
    """Count the primes with sign * Re(a_p e^{i phi}) > c - epsilon, the sign
    and constant c from bounds.THEOREMS (for sign -1, exactly Re < -c + epsilon),
    and pass if at least 1% of the records qualify (the desk-scale proxy)."""
    vals = _rotated(records, phi)
    if theorem not in THEOREMS:
        raise ParameterError(f"unknown theorem {theorem!r}; choose from {tuple(THEOREMS)}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    sign, bound, needs_self_dual = THEOREMS[theorem]
    if needs_self_dual and not self_dual:
        raise DatasetError(f"theorem {theorem} requires a self-dual dataset")
    constant = bound(phi).constant
    # sign * v > constant - epsilon, as v > cut or v < cut: negation is exact,
    # so each side compares the rotated values themselves
    cut = functools.partial(operator.lt if sign > 0 else operator.gt, sign * (constant - epsilon))
    hits = array("q", itertools.compress(itertools.count(), map(cut, vals)))
    top = (heapq.nlargest if sign > 0 else heapq.nsmallest)(10, hits, key=vals.__getitem__)  # stable on ties
    witnesses = tuple((records.p[i], vals[i]) for i in top)
    count = len(hits)
    required = math.floor(WITNESS_FRACTION * len(records))
    return TheoremReport(
        theorem=theorem,
        threshold=float(sign * constant),
        epsilon=epsilon,
        phi=phi,
        count=count,
        required=required,
        total=len(records),
        witnesses=witnesses,
        passed=count >= required and count > 0,
    )
