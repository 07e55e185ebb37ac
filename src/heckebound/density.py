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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds
from .datasets import Records
from .errors import DatasetError, ParameterError

#: desk-scale proxy for "infinitely many": at least this fraction of primes
WITNESS_FRACTION = 0.01
DEFAULT_EPSILON = 0.01


def _require_records(records: Records) -> None:
    if not len(records):
        raise DatasetError("empty dataset")


def operating_point(records: Records) -> float:
    """s = 1 + 1/log X with X the largest prime in the data."""
    _require_records(records)
    return 1.0 + 1.0 / math.log(records.p[-1])


def truncated_sum(records: Records, k: int, s: float, phi: float = 0.0) -> float:
    """Sum over the dataset of Re(a_p e^{i phi})^k / p^s."""
    _require_records(records)
    if s <= 1.0:
        raise ParameterError(f"need s > 1, got {s}")
    vals = (records.a * cmath.exp(1j * phi)).real
    return float(np.sum(vals ** k / np.power(records.p, s, dtype=float)))


def normalized_ratio(records: Records, k: int, s: float, phi: float = 0.0) -> float:
    """truncated_sum divided by log(1/(s-1))."""
    return truncated_sum(records, k, s, phi) / math.log(1.0 / (s - 1.0))


@dataclass(frozen=True)
class DensityReport:
    threshold: float
    side: str
    phi: float
    natural_proportion: float
    dirichlet_weighted: float
    count: int
    s_used: float
    X: int

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "side": self.side,
            "phi": self.phi,
            "natural_proportion": self.natural_proportion,
            "dirichlet_weighted": self.dirichlet_weighted,
            "count": self.count,
            "s_used": self.s_used,
            "X": self.X,
        }


def density_profile(
    records: Records, c: float, side: str, phi: float = 0.0
) -> DensityReport:
    """Proportion of primes with Re(a_p e^{i phi}) > c ('above') or < -c
    ('below'), both natural and weighted by p^-s at s = 1 + 1/log X."""
    _require_records(records)
    if c < 0:
        raise ParameterError("threshold must be >= 0")
    if side not in ("above", "below"):
        raise ParameterError(f"side must be 'above' or 'below', got {side!r}")
    vals = (records.a * cmath.exp(1j * phi)).real
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
    if k < 0:
        raise ParameterError(f"need k >= 0, got {k}")
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
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.array([truncated_sum(records, k, s) for s in s_grid])
        slope = float(np.polyfit(x, y, 1)[0]) if np.isfinite(y).all() else math.nan
    if not math.isfinite(slope):
        raise ParameterError(f"the k={k} power sums overflow a double; no finite slope")
    return slope


THEOREMS = ("t1pos", "t1neg", "t2")


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    threshold: float
    epsilon: float
    phi: float
    count: int
    required: int
    total: int
    witnesses: tuple[tuple[int, float], ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "phi": self.phi,
            "count": self.count,
            "required": self.required,
            "total": self.total,
            "witnesses": [list(w) for w in self.witnesses],
            "passed": self.passed,
        }


def verify_theorem(
    records: Records,
    theorem: str,
    phi: float = 0.0,
    epsilon: float = DEFAULT_EPSILON,
    self_dual: bool = True,
) -> TheoremReport:
    """Count qualifying primes for the requested one-sided bound and pass if
    at least 1% of the records qualify (the desk-scale existence proxy)."""
    _require_records(records)
    if theorem not in THEOREMS:
        raise ParameterError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if not math.isfinite(phi):
        raise ParameterError(f"phi must be finite, got {phi}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    if theorem in ("t1pos", "t1neg") and not self_dual:
        raise DatasetError(f"theorem {theorem} requires a self-dual dataset")
    vals = (records.a * cmath.exp(1j * phi)).real
    if theorem == "t1pos":
        threshold = bounds.positive_side().constant
        mask = vals > threshold - epsilon
        extremity = vals
    elif theorem == "t1neg":
        threshold = -bounds.negative_side().constant
        mask = vals < threshold + epsilon
        extremity = -vals
    else:
        threshold = bounds.non_self_dual(phi).constant
        mask = vals > threshold - epsilon
        extremity = vals
    idx = np.nonzero(mask)[0]
    top = idx[np.argsort(-extremity[idx])][:10]
    witnesses = tuple((int(records.p[i]), float(vals[i])) for i in top)
    count = int(mask.sum())
    required = math.floor(WITNESS_FRACTION * len(records))
    return TheoremReport(
        theorem=theorem,
        threshold=float(threshold),
        epsilon=epsilon,
        phi=phi,
        count=count,
        required=required,
        total=len(records),
        witnesses=witnesses,
        passed=count >= required and count > 0,
    )
