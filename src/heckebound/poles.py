"""Order of the pole at s=1 for Rankin-Selberg and standard L-functions.

All identities are for partial L-functions (finitely many Euler factors at
ramified/archimedean places never change the pole order at s=1, so the bad
set is not modeled).  One rule decides every factor, the Rankin-Selberg
criterion (Jacquet-Shalika): L(s, x × y) has a pole at s=1 exactly when y
is isomorphic to the dual of x, and a standard factor L(s, x) = L(s, x × 1)
exactly when x is trivial.  Isomorphism is equality of fully reduced
canonical atoms (repring.dual, reduce_rep) with w-powers taken modulo the
order of the central character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assumptions import RepType, TypeAssumption
from .errors import MonomialExcludedError, PoleError, UnsupportedDegreeError
from .repring import (
    KIND_CHAR,
    PI,
    Atom,
    VirtualRep,
    atom_label,
    atom_text,
    char,
    dual,
    reduce_rep,
    tensor_power,
)


@dataclass(frozen=True)
class CertFactor:
    """One L-factor in a certificate: L(left x right)^multiplicity, or the
    standard L(left)^multiplicity when right is None."""

    left: Atom
    right: Atom | None
    multiplicity: int
    pole_contrib: int

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


@dataclass(frozen=True)
class PoleCertificate:
    factors: tuple[CertFactor, ...]
    total_order: int
    assumption: TypeAssumption
    note: str = ""

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


def _check_assumption(t: TypeAssumption) -> None:
    if t.rep_type is RepType.DIHEDRAL:
        raise MonomialExcludedError(
            "monomial (dihedral) representations are excluded from pole queries"
        )


TRIVIAL = char(0)


def _mod_omega(a: Atom, t: TypeAssumption) -> Atom:
    return Atom(a.kind, a.sym_degree, a.omega_power % t.omega_order, a.aux, a.opaque_label)


def _pole(x: Atom, y: Atom, t: TypeAssumption) -> int:
    """1 if L(s, x × y) has a pole at s=1, i.e. y is isomorphic to dual(x).

    Both atoms are fully reduced; beyond the declared reductions there are
    no self-twists, so isomorphism is equality once w-powers are reduced
    modulo the order of the central character.
    """
    return int(_mod_omega(dual(x), t) == _mod_omega(y, t))


def _fold_pair(x: Atom, y: Atom) -> tuple[Atom, Atom | None]:
    """Canonical display form of a pairing: all character twists move onto
    the right factor, so e.g. (Sym2*w, pi*w) renders as Sym2 x pi*w^2."""
    if x.kind == KIND_CHAR and y.kind == KIND_CHAR:
        return char(x.omega_power + y.omega_power, tuple(x.aux) + tuple(y.aux)), None
    if x.kind == KIND_CHAR:
        return y.twist(x.omega_power, x.aux), None
    if y.kind == KIND_CHAR:
        return x.twist(y.omega_power, y.aux), None
    left, right = sorted((x, y), key=lambda a: a.sort_key())
    folded_right = right.twist(left.omega_power, left.aux)
    return left.bare(), folded_right


def _factor_sort_key(f: CertFactor):
    dim_r = f.right.dim if f.right is not None else 1
    return (-(f.left.dim + dim_r), -f.left.dim, f.label())


def rs_pole_order(A: VirtualRep, B: VirtualRep, t: TypeAssumption) -> PoleCertificate:
    """ord_{s=1} of the Rankin-Selberg L-function of A x B, expanded
    bilinearly over atom pairs."""
    _check_assumption(t)
    A = reduce_rep(A, t)
    B = reduce_rep(B, t)
    acc: dict[tuple[Atom, Atom | None], list[int]] = {}
    for x, mx in A.items():
        for y, my in B.items():
            folded = _fold_pair(x, y)
            pole = _pole(x, y, t)
            entry = acc.setdefault(folded, [0, pole])
            if entry[1] != pole:
                raise PoleError(f"inconsistent pole contribution for factor {folded}")
            entry[0] += mx * my
    factors = tuple(
        sorted(
            (CertFactor(left, right, mult, pole) for (left, right), (mult, pole) in acc.items()),
            key=_factor_sort_key,
        )
    )
    total = sum(f.multiplicity * f.pole_contrib for f in factors)
    return PoleCertificate(factors, total, t)


def std_pole_order(A: VirtualRep, t: TypeAssumption) -> PoleCertificate:
    """ord_{s=1} of the standard L-function of A: trivial GL(1) characters
    contribute a simple pole, everything cuspidal contributes nothing."""
    _check_assumption(t)
    A = reduce_rep(A, t)
    factors = tuple(
        sorted(
            (CertFactor(atom, None, mult, _pole(atom, TRIVIAL, t)) for atom, mult in A.items()),
            key=_factor_sort_key,
        )
    )
    total = sum(f.multiplicity * f.pole_contrib for f in factors)
    return PoleCertificate(factors, total, t)


def tensor_power_pole(k: int, t: TypeAssumption) -> PoleCertificate:
    """ord_{s=1} L(s, pi^(x k)) for 2 <= k <= 8, with the factorization
    certificate matching the displayed identities: the full symmetric-power
    decomposition for k <= 4, pairings of half tensor powers above."""
    if not 2 <= k <= 8:
        raise UnsupportedDegreeError(f"tensor_power_pole supports 2 <= k <= 8, got {k}")
    _check_assumption(t)
    note = ""
    if k == 2:
        cert = rs_pole_order(VirtualRep.of(PI), VirtualRep.of(PI), t)
    elif k <= 4:
        cert = std_pole_order(tensor_power(k), t)
    else:
        cert = rs_pole_order(tensor_power(math.ceil(k / 2)), tensor_power(k // 2), t)
        if k == 5:
            note = "k=5: derived for table completeness; no published reference value"
        elif k == 6 and t.rep_type is RepType.OCTAHEDRAL:
            note = "k=6 octahedral: derived from cuspidal Sym3; no published reference value"
    if note:
        cert = PoleCertificate(cert.factors, cert.total_order, cert.assumption, note)
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
