"""Order of the pole at s=1 for Rankin-Selberg and standard L-functions.

All identities are for partial L-functions (finitely many Euler factors at
ramified/archimedean places never change the pole order at s=1, so the bad
set is not modeled).  One rule decides every factor, the Rankin-Selberg
criterion (Jacquet-Shalika): L(s, x × y) has a pole at s=1 exactly when y
is isomorphic to the dual of x, and a standard factor L(s, x) = L(s, x × 1)
exactly when x is trivial.  Isomorphism is equality of fully reduced
canonical atoms (repring.dual, reduce_rep) with w-powers taken modulo the
order of the central character, once for each factor a certificate prints.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .assumptions import RepType, TypeAssumption
from .errors import AlgebraError
from .repring import (
    Atom,
    VirtualRep,
    atom_label,
    atom_text,
    dual,
    reduce_rep,
    tensor_power,
)


class CertFactor(namedtuple("CertFactor", "left right multiplicity pole_contrib")):
    """One L-factor in a certificate: L(left x right)^multiplicity, or the
    standard L(left)^multiplicity when right is None."""

    __slots__ = ()

    def label(self) -> str:
        if self.right is None:
            return atom_label(self.left)
        return f"{atom_label(self.left)} × {atom_label(self.right)}"

    def to_json(self) -> dict:
        return {
            "left": atom_text(self.left),
            "right": atom_text(self.right) if self.right is not None else None,
            "mult": self.multiplicity,
            "pole": self.pole_contrib,
        }


class PoleCertificate(
    namedtuple("PoleCertificate", "factors total_order assumption note", defaults=("",))
):
    __slots__ = ()

    def to_json(self) -> dict:
        out = {
            "factors": [f.to_json() for f in self.factors],
            "total": self.total_order,
            "assumption": {
                "type": self.assumption.rep_type.value,
                "self_dual": self.assumption.self_dual,
                "omega_order": self.assumption.omega_order,
            },
        }
        if self.note:
            out["note"] = self.note
        return out


TRIVIAL = Atom()


def _mod_omega(a: Atom, t: TypeAssumption) -> Atom:
    return Atom(a.sym_degree, a.omega_power % t.omega_order, a.aux, a.opaque_label)


def _pole(x: Atom, y: Atom, t: TypeAssumption) -> int:
    """1 if L(s, x × y) has a pole at s=1, i.e. y is isomorphic to dual(x).

    Both atoms are fully reduced; beyond the declared reductions there are
    no self-twists, so isomorphism is equality once w-powers are reduced
    modulo the order of the central character.
    """
    return int(_mod_omega(dual(x), t) == _mod_omega(y, t))


def _fold_pair(x: Atom, y: Atom) -> tuple[Atom, Atom | None]:
    """Canonical display form of a pairing: all character twists move onto
    the right factor, so e.g. (Sym2*w, pi*w) renders as Sym2 x pi*w^2, and
    a pairing with a character (dimension 1, sorted last) is a standard factor.
    Both atoms are twisted by one character, and dual commutes with twisting,
    so the pairing and its folded factor have the same pole."""
    left, right = sorted((x, y), key=lambda a: a.sort_key())
    if right.dim == 1:
        return left.twist(right.omega_power, right.aux), None
    bare = Atom(left.sym_degree, opaque_label=left.opaque_label)
    return bare, right.twist(left.omega_power, left.aux)


def _factor_sort_key(f: CertFactor):
    dim_r = f.right.dim if f.right is not None else 1
    return (-(f.left.dim + dim_r), -f.left.dim, f.label())


def rs_pole_order(A: VirtualRep, B: VirtualRep, t: TypeAssumption) -> PoleCertificate:
    """ord_{s=1} of the Rankin-Selberg L-function of A x B, expanded
    bilinearly over atom pairs and summed per folded factor."""
    A = reduce_rep(A, t)
    B = reduce_rep(B, t)
    mults: dict[tuple[Atom, Atom | None], int] = {}
    for x, mx in A.terms:
        for y, my in B.terms:
            folded = _fold_pair(x, y)
            mults[folded] = mults.get(folded, 0) + mx * my
    factors = sorted(
        (CertFactor(a, b, m, _pole(a, b or TRIVIAL, t)) for (a, b), m in mults.items()),
        key=_factor_sort_key,
    )
    total = sum(f.multiplicity * f.pole_contrib for f in factors)
    return PoleCertificate(tuple(factors), total, t)


def std_pole_order(A: VirtualRep, t: TypeAssumption) -> PoleCertificate:
    """ord_{s=1} of the standard L-function of A, which is L(s, A x 1): trivial
    GL(1) characters contribute a simple pole, everything else nothing."""
    return rs_pole_order(A, VirtualRep.of(TRIVIAL), t)


def tensor_power_pole(k: int, t: TypeAssumption) -> PoleCertificate:
    """ord_{s=1} L(s, pi^(x k)) for 2 <= k <= 8, with the factorization
    certificate matching the displayed identities: the full symmetric-power
    decomposition for k = 3, 4, pairings of half tensor powers otherwise
    (k = 2 pairs pi with pi)."""
    if not 2 <= k <= 8:
        raise AlgebraError(f"tensor_power_pole supports 2 <= k <= 8, got {k}")
    if k in (3, 4):
        return std_pole_order(tensor_power(k), t)
    cert = rs_pole_order(tensor_power(math.ceil(k / 2)), tensor_power(k // 2), t)
    if k == 5:
        note = "k=5: derived for table completeness; no published reference value"
        return cert._replace(note=note)
    if k == 6 and t.rep_type is RepType.OCTAHEDRAL:
        note = "k=6 octahedral: derived from cuspidal Sym3; no published reference value"
        return cert._replace(note=note)
    return cert


def certificate_render(c: PoleCertificate) -> str:
    """Deterministic canonical-order rendering, e.g. 'L(Sym3) · L(pi⊗w)^2'."""
    parts = []
    for f in c.factors:
        text = f"L({f.label()})"
        if f.multiplicity != 1:
            text += f"^{f.multiplicity}"
        parts.append(text)
    return " · ".join(parts)
