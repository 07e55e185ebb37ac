"""The numeric trace oracle: characters of atoms and virtual representations
evaluated at Satake parameters, so every symbolic identity of repring can be
checked against the trace directly.
"""

from dataclasses import dataclass, field
from typing import Mapping

from heckebound.repring import Atom, VirtualRep


@dataclass(frozen=True)
class SatakePoint:
    """Satake parameters plus values for the auxiliary symbols and opaque
    labels an evaluation needs; omega is always alpha*beta."""

    alpha: complex
    beta: complex
    aux_values: Mapping[str, complex] = field(default_factory=dict)
    opaque_values: Mapping[str, complex] = field(default_factory=dict)

    @property
    def omega_value(self) -> complex:
        return self.alpha * self.beta


def eval_atom(a: Atom, s: SatakePoint) -> complex:
    if a.opaque_label:
        value = complex(s.opaque_values[a.opaque_label])
    else:
        k = a.sym_degree
        value = sum(s.alpha ** (k - j) * s.beta ** j for j in range(k + 1))
    value *= s.omega_value ** a.omega_power
    for name, exp in a.aux:
        value *= complex(s.aux_values[name]) ** exp
    return value


def eval_char(v: VirtualRep, s: SatakePoint) -> complex:
    return sum((mult * eval_atom(atom, s) for atom, mult in v.terms), 0j)


def power_sum(a_p: complex, omega_p: complex, k: int) -> complex:
    """alpha^k + beta^k for the roots of x^2 - a_p x + omega_p, via the
    Newton recurrence p_k = a_p p_(k-1) - omega_p p_(k-2)."""
    prev, cur = 2 + 0j, complex(a_p)
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, a_p * cur - omega_p * prev
    return cur
