"""Empirical verification harness over eigenvalue datasets.

Truncated Dirichlet sums, density profiles, pole-order probes, and
theorem-checking reports.  Finite truncations cannot estimate Dirichlet
densities properly (the partial prime sum saturates at loglog X), so the
harness fixes the operating point s = 1 + 1/log X and reports both natural
and Dirichlet-weighted proportions as diagnostics, not proofs.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from .bounds import DEFAULT_EPSILON, THEOREMS
from .datasets import Records
from .errors import DatasetError, ParameterError

#: desk-scale proxy for "infinitely many": at least this fraction of primes
WITNESS_FRACTION = 0.01


def _require_records(records: Records) -> None:
    if not len(records):
        raise DatasetError("empty dataset")


def _rotated(records: Records, phi: float) -> np.ndarray:
    """Re(a_p e^{i phi}) over a non-empty dataset and a finite phi."""
    _require_records(records)
    if not math.isfinite(phi):
        raise ParameterError(f"phi must be finite, got {phi}")
    return (records.a * cmath.exp(1j * phi)).real


def operating_point(records: Records) -> float:
    """s = 1 + 1/log X with X the largest prime in the data."""
    _require_records(records)
    return 1.0 + 1.0 / math.log(records.p[-1])


def truncated_sum(records: Records, k: int, s: float, phi: float = 0.0) -> float:
    """Sum over the dataset of Re(a_p e^{i phi})^k / p^s."""
    return _truncated_sums(records, k, [s], phi)[0]


def _truncated_sums(records: Records, k: int, s_grid: Sequence[float], phi: float = 0.0) -> list[float]:
    """truncated_sum at each s of the grid, raising to the k-th power once."""
    vals = _rotated(records, phi)
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
    for s in s_grid:
        if not (math.isfinite(s) and s > 1.0):
            raise ParameterError(f"need finite s > 1, got {s}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            powers = vals ** k
            totals = [float(np.sum(powers / np.power(records.p, s, dtype=float))) for s in s_grid]
        except OverflowError:  # numpy takes a k past int64 as a double, and this one overflows
            totals = [math.inf]
    if not all(math.isfinite(total) for total in totals):
        if k < 10**20:  # up to 20 digits, which covers 2**64; a longer k is named by its length
            raise ParameterError(f"the k={k} power sum overflows a double")
        # str(k) refuses past 4300 digits, so count them from the bit length b:
        # 2**(b-1) <= k < 2**b, and if 2**(b-1) has d digits, k has d or d + 1
        digits = int((k.bit_length() - 1) * math.log10(2)) + 1
        digits += k >= 10**digits
        raise ParameterError(f"the k-th power sum overflows a double (k has {digits} digits)")
    return totals


DensityReport = namedtuple(
    "DensityReport", "threshold side phi natural_proportion dirichlet_weighted count s_used X"
)


def density_profile(
    records: Records, c: float, side: str, phi: float = 0.0
) -> DensityReport:
    """Proportion of primes with Re(a_p e^{i phi}) > c ('above') or < -c
    ('below'), both natural and weighted by p^-s at s = 1 + 1/log X."""
    vals = _rotated(records, phi)
    if not (math.isfinite(c) and c >= 0):
        raise ParameterError(f"threshold must be finite and >= 0, got {c}")
    if side not in ("above", "below"):
        raise ParameterError(f"side must be 'above' or 'below', got {side!r}")
    mask = vals > c if side == "above" else vals < -c
    s = operating_point(records)
    weights = np.power(records.p, -s, dtype=float)
    return DensityReport(
        threshold=c,
        side=side,
        phi=phi,
        natural_proportion=float(mask.mean()),
        dirichlet_weighted=float(weights[mask].sum() / weights.sum()),
        count=int(mask.sum()),
        s_used=s,
        X=int(records.p[-1]),
    )


def pole_order_probe(records: Records, k: int, s_grid: Sequence[float]) -> float:
    """Least-squares slope of the truncated k-th power sum against
    log(1/(s-1)): an empirical pole-order estimate."""
    _require_records(records)
    if len(s_grid) < 3:
        raise ParameterError("need at least 3 grid points")
    if not all(math.isfinite(s) for s in s_grid):
        raise ParameterError("grid points must be finite")
    gaps = sorted(s - 1.0 for s in s_grid)
    if gaps[0] <= 0:
        raise ParameterError("all grid points must exceed 1")
    if gaps[-1] / gaps[0] < 4.0:
        raise ParameterError("grid must span at least a factor of 4 in s - 1")
    x = np.array([math.log(1.0 / (s - 1.0)) for s in s_grid])
    y = np.array(_truncated_sums(records, k, s_grid))
    slope = float(np.polyfit(x, y, 1)[0])
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
    extremity = sign * vals
    mask = extremity > constant - epsilon
    idx = np.nonzero(mask)[0]
    top = idx[np.argsort(-extremity[idx])][:10]
    witnesses = tuple((int(records.p[i]), float(vals[i])) for i in top)
    count = int(mask.sum())
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
