"""Symbolic algebra of GL(2) tensor/symmetric powers with numeric evaluation.

Atoms are irreducible pieces: Sym^k of the standard 2-dim object, GL(1)
characters built from the central character w and the auxiliary order-3
character mu, or the opaque cuspidal labels pi_chi and its dual pi_chi_bar.
VirtualRep is a formal integer combination of atoms.  The vocabulary is
fixed in read-only tables (AUX_ORDERS, OPAQUE_DUALS), so the module holds
no mutable state; all values are immutable and every operation is a pure
function, so the module is safe for unrestricted parallel use.  `dual` is
the contragredient the pole ledger's one rule rests on; atom_text is the
parseable rendering, atom_label and rep_label the display forms.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .assumptions import RepType, TypeAssumption
from .errors import (
    AlgebraError,
    EvaluationError,
    UnsupportedDegreeError,
    UnsupportedReductionError,
)

KIND_SYM = "SymPow"
KIND_CHAR = "Gl1Char"
KIND_OPAQUE = "OpaqueCuspidal"

# Satake parameters are unconditionally bounded by p^(7/64).
RAMANUJAN_EXPONENT = 7 / 64

# ---------------------------------------------------------------------------
# Symbol tables.  The vocabulary is fixed: mu, an auxiliary character of
# order three (tetrahedral case), and the monomial representation attached
# to the octahedral case, paired with an explicitly distinct dual label.
# Opaque labels all stand for 2-dimensional objects.  Unknown symbols are
# rejected, never created.

AUX_ORDERS: Mapping[str, int] = MappingProxyType({"mu": 3})
OPAQUE_DUALS: Mapping[str, str] = MappingProxyType(
    {"pi_chi": "pi_chi_bar", "pi_chi_bar": "pi_chi"}
)
OPAQUE_DIM = 2
MONOMIAL_LABEL = "pi_chi"


def aux_order(name: str) -> int:
    try:
        return AUX_ORDERS[name]
    except KeyError:
        raise AlgebraError(f"unknown aux character symbol {name!r}") from None


def opaque_dual(label: str) -> str:
    try:
        return OPAQUE_DUALS[label]
    except KeyError:
        raise AlgebraError(f"unknown opaque cuspidal label {label!r}") from None


def _canonical_aux(aux: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    combined: dict[str, int] = {}
    for name, exp in aux:
        order = aux_order(name)
        combined[name] = (combined.get(name, 0) + exp) % order
    return tuple(sorted((n, e) for n, e in combined.items() if e))


# ---------------------------------------------------------------------------
# Atoms


@dataclass(frozen=True)
class Atom:
    """One irreducible building block: Sym^k, a GL(1) character, or an
    opaque cuspidal label, times w^a and an auxiliary character."""

    kind: str
    sym_degree: int = 0
    omega_power: int = 0
    aux: tuple[tuple[str, int], ...] = ()
    opaque_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "aux", _canonical_aux(self.aux))
        if self.kind == KIND_SYM:
            if self.sym_degree < 1:
                raise AlgebraError("SymPow atoms need sym_degree >= 1")
        elif self.kind == KIND_CHAR:
            if self.sym_degree:
                raise AlgebraError("Gl1Char atoms carry no sym_degree")
        elif self.kind == KIND_OPAQUE:
            opaque_dual(self.opaque_label)
        else:
            raise AlgebraError(f"unknown atom kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == KIND_SYM:
            return self.sym_degree + 1
        if self.kind == KIND_CHAR:
            return 1
        return OPAQUE_DIM

    def twist(self, omega_delta: int = 0, aux: Iterable[tuple[str, int]] = ()) -> "Atom":
        return Atom(
            self.kind,
            self.sym_degree,
            self.omega_power + omega_delta,
            tuple(self.aux) + tuple(aux),
            self.opaque_label,
        )

    def bare(self) -> "Atom":
        """The atom with all character twists stripped."""
        return Atom(self.kind, self.sym_degree, 0, (), self.opaque_label)

    def sort_key(self):
        rank = {KIND_SYM: 0, KIND_OPAQUE: 1, KIND_CHAR: 2}[self.kind]
        return (rank, -self.sym_degree, self.opaque_label, self.omega_power, self.aux)


def sym(degree: int, omega: int = 0, aux: Iterable[tuple[str, int]] = ()) -> Atom:
    return Atom(KIND_SYM, degree, omega, tuple(aux))


def char(omega: int = 0, aux: Iterable[tuple[str, int]] = ()) -> Atom:
    return Atom(KIND_CHAR, 0, omega, tuple(aux))


def opaque(label: str, omega: int = 0, aux: Iterable[tuple[str, int]] = ()) -> Atom:
    return Atom(KIND_OPAQUE, 0, omega, tuple(aux), label)


PI = sym(1)
MU = (("mu", 1),)
MU2 = (("mu", 2),)


def aux_inverse(aux: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int], ...]:
    return tuple((n, -e) for n, e in aux)


def dual(a: Atom) -> Atom:
    """Contragredient: Sym^k picks up w^-k, characters invert, opaque labels
    go to their dual partner in OPAQUE_DUALS."""
    if a.kind == KIND_SYM:
        return Atom(KIND_SYM, a.sym_degree, -a.sym_degree - a.omega_power, aux_inverse(a.aux))
    if a.kind == KIND_CHAR:
        return Atom(KIND_CHAR, 0, -a.omega_power, aux_inverse(a.aux))
    return Atom(KIND_OPAQUE, 0, -a.omega_power, aux_inverse(a.aux), opaque_dual(a.opaque_label))


# ---------------------------------------------------------------------------
# Virtual representations


@dataclass(frozen=True)
class VirtualRep:
    """Formal integer combination of atoms, kept in canonical order."""

    terms: tuple[tuple[Atom, int], ...] = ()

    @staticmethod
    def of(*atoms: Atom) -> "VirtualRep":
        return VirtualRep.from_terms((a, 1) for a in atoms)

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Atom, int]]) -> "VirtualRep":
        acc: dict[Atom, int] = {}
        for atom, mult in pairs:
            acc[atom] = acc.get(atom, 0) + mult
        canon = tuple(
            (a, m) for a, m in sorted(acc.items(), key=lambda t: t[0].sort_key()) if m
        )
        return VirtualRep(canon)

    def items(self) -> Iterator[tuple[Atom, int]]:
        return iter(self.terms)

    @property
    def dim(self) -> int:
        return sum(m * a.dim for a, m in self.terms)

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        return VirtualRep.from_terms(self.terms + other.terms)

    def __rmul__(self, scalar: int) -> "VirtualRep":
        return VirtualRep.from_terms((a, scalar * m) for a, m in self.terms)

    def to_json(self) -> list[dict]:
        return [{"atom": atom_text(a), "mult": m} for a, m in self.terms]

    @staticmethod
    def from_json(data: Iterable[Mapping]) -> "VirtualRep":
        return VirtualRep.from_terms((parse_atom(d["atom"]), int(d["mult"])) for d in data)


# ---------------------------------------------------------------------------
# Decompositions


def cg_pair(a: int, b: int) -> VirtualRep:
    """Sym^a x Sym^b = sum over j of Sym^(a+b-2j) twisted by w^j."""
    if a < 0 or b < 0:
        raise UnsupportedDegreeError("cg_pair needs non-negative degrees")
    if a == 0 and b == 0:
        return VirtualRep.of(char(0))
    pieces = []
    for j in range(min(a, b) + 1):
        deg = a + b - 2 * j
        pieces.append((char(j) if deg == 0 else sym(deg, j), 1))
    return VirtualRep.from_terms(pieces)


def _tensor_with_standard(v: VirtualRep) -> VirtualRep:
    out: list[tuple[Atom, int]] = []
    for atom, mult in v.items():
        if atom.kind == KIND_CHAR:
            out.append((sym(1, atom.omega_power, atom.aux), mult))
            continue
        if atom.kind == KIND_OPAQUE:
            raise UnsupportedDegreeError("cannot tensor an opaque cuspidal atom with pi")
        k = atom.sym_degree
        for piece, m in cg_pair(k, 1).items():
            out.append((piece.twist(atom.omega_power, atom.aux), mult * m))
    return VirtualRep.from_terms(out)


def tensor_power(k: int) -> VirtualRep:
    """Decomposition of the k-th tensor power of the standard object, 1<=k<=4."""
    if not 1 <= k <= 4:
        raise UnsupportedDegreeError(
            f"tensor_power supports 1 <= k <= 4, got {k}; higher powers are "
            "handled by pairing half powers"
        )
    v = VirtualRep.of(PI)
    for _ in range(k - 1):
        v = _tensor_with_standard(v)
    return v


def reduce_atom(a: Atom, t: TypeAssumption) -> VirtualRep:
    """Replace Sym^3/Sym^4 atoms by their isobaric decompositions when the
    type assumption makes them non-cuspidal; all other atoms pass through."""
    if a.kind != KIND_SYM or a.sym_degree <= 2:
        return VirtualRep.of(a)
    k, w, ax = a.sym_degree, a.omega_power, a.aux
    if t.rep_type is RepType.TETRAHEDRAL:
        if k == 3:
            return VirtualRep.from_terms(
                [(sym(1, w + 1, ax + MU), 1), (sym(1, w + 1, ax + MU2), 1)]
            )
        if k == 4:
            return VirtualRep.from_terms(
                [
                    (sym(2, w + 1, ax), 1),
                    (char(w + 2, ax + MU), 1),
                    (char(w + 2, ax + MU2), 1),
                ]
            )
        raise UnsupportedReductionError(
            f"no reduction for Sym^{k} under the tetrahedral assumption"
        )
    if t.rep_type is RepType.OCTAHEDRAL:
        if k == 3:
            return VirtualRep.of(a)
        if k == 4:
            return VirtualRep.from_terms(
                [(opaque(MONOMIAL_LABEL, w + 2, ax), 1), (sym(2, w + 1, ax), 1)]
            )
        raise UnsupportedReductionError(
            f"no reduction for Sym^{k} under the octahedral assumption"
        )
    return VirtualRep.of(a)


def reduce_rep(v: VirtualRep, t: TypeAssumption) -> VirtualRep:
    out: list[tuple[Atom, int]] = []
    for atom, mult in v.items():
        for piece, m in reduce_atom(atom, t).items():
            out.append((piece, mult * m))
    return VirtualRep.from_terms(out)


# ---------------------------------------------------------------------------
# Numeric evaluation


@dataclass(frozen=True)
class SatakePoint:
    """Numeric local data: Satake parameters plus values for declared
    auxiliary symbols and opaque labels.  omega is always alpha*beta."""

    alpha: complex
    beta: complex
    aux_values: Mapping[str, complex] = field(default_factory=dict)
    opaque_values: Mapping[str, complex] = field(default_factory=dict)
    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None:
            bound = self.prime ** RAMANUJAN_EXPONENT * (1 + 1e-9)
            if abs(self.alpha) > bound or abs(self.beta) > bound:
                warnings.warn(
                    f"Satake parameters at p={self.prime} exceed p^(7/64)",
                    stacklevel=2,
                )

    @property
    def omega_value(self) -> complex:
        return self.alpha * self.beta


def eval_atom(a: Atom, s: SatakePoint) -> complex:
    value: complex
    if a.kind == KIND_SYM:
        k = a.sym_degree
        value = sum(s.alpha ** (k - j) * s.beta ** j for j in range(k + 1))
    elif a.kind == KIND_CHAR:
        value = 1.0
    else:
        try:
            value = complex(s.opaque_values[a.opaque_label])
        except KeyError:
            raise EvaluationError(
                f"no value registered for opaque label {a.opaque_label!r}"
            ) from None
    value *= s.omega_value ** a.omega_power
    for name, exp in a.aux:
        try:
            value *= complex(s.aux_values[name]) ** exp
        except KeyError:
            raise EvaluationError(f"no value registered for aux symbol {name!r}") from None
    return value


def eval_char(v: VirtualRep, s: SatakePoint) -> complex:
    return sum((mult * eval_atom(atom, s) for atom, mult in v.items()), 0j)


def power_sum(a_p: complex, omega_p: complex, k: int) -> complex:
    """alpha^k + beta^k for the roots of x^2 - a_p x + omega_p, via the
    Newton recurrence p_k = a_p p_(k-1) - omega_p p_(k-2)."""
    if k < 0:
        raise AlgebraError(f"power_sum needs k >= 0, got {k}")
    prev, cur = 2 + 0j, complex(a_p)
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, a_p * cur - omega_p * prev
    return cur


def power_expansion(m: int) -> tuple[list[tuple[int, int]], int]:
    """Coefficients of a_p^m as a combination of power sums with trivial
    central character: a^m = sum of C(m,j) * p_(m-2j) over j < m/2, plus
    C(m, m/2) for even m.  Returns ([(m-2j, C(m,j)), ...], center)."""
    if m < 0:
        raise AlgebraError("power_expansion needs m >= 0")
    terms = [(m - 2 * j, math.comb(m, j)) for j in range((m + 1) // 2)]
    center = math.comb(m, m // 2) if m % 2 == 0 else 0
    return terms, center


# ---------------------------------------------------------------------------
# Textual syntax: Sym3(pi)*w^-1*mu^2, w^2, opaque:pi_chi, pi, 1

_SYM_RE = re.compile(r"Sym(\d+)\(pi\)$")
_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _twists(a: Atom) -> list[str]:
    """The character twists of an atom, e.g. ['w^-1', 'mu^2']."""
    powers = ((("w", a.omega_power),) if a.omega_power else ()) + a.aux
    return [name if exp == 1 else f"{name}^{exp}" for name, exp in powers]


def atom_text(a: Atom) -> str:
    """Parseable rendering, inverse of parse_atom."""
    parts = _twists(a)
    if a.kind == KIND_SYM:
        parts.insert(0, "pi" if a.sym_degree == 1 else f"Sym{a.sym_degree}(pi)")
    elif a.kind == KIND_OPAQUE:
        parts.insert(0, f"opaque:{a.opaque_label}")
    return "*".join(parts) if parts else "1"


def atom_label(a: Atom) -> str:
    """Human-oriented rendering used in certificates, e.g. 'Sym3', 'pi⊗w'."""
    twists = _twists(a)
    if a.kind == KIND_CHAR:
        return "*".join(twists) if twists else "1"
    base = (
        ("pi" if a.sym_degree == 1 else f"Sym{a.sym_degree}")
        if a.kind == KIND_SYM
        else a.opaque_label
    )
    return "⊗".join([base] + twists)


def rep_label(v: VirtualRep) -> str:
    """Human-oriented rendering of a virtual representation, e.g.
    'Sym3 ⊕ 2·pi⊗w'."""
    parts = [atom_label(a) if m == 1 else f"{m}·{atom_label(a)}" for a, m in v.items()]
    return " ⊕ ".join(parts) if parts else "0"


def parse_atom(text: str) -> Atom:
    text = text.strip()
    if text == "1":
        return char(0)
    kind = KIND_CHAR
    degree = 0
    label = ""
    omega = 0
    aux: list[tuple[str, int]] = []
    for factor in text.split("*"):
        factor = factor.strip()
        m = _SYM_RE.match(factor)
        if m or factor == "pi":
            if kind != KIND_CHAR:
                raise AlgebraError(f"more than one base object in {text!r}")
            kind, degree = KIND_SYM, int(m.group(1)) if m else 1
            continue
        if factor.startswith("opaque:"):
            if kind != KIND_CHAR:
                raise AlgebraError(f"more than one base object in {text!r}")
            kind, label = KIND_OPAQUE, factor[len("opaque:"):]
            opaque_dual(label)
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise AlgebraError(f"cannot parse atom factor {factor!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name == "w":
            omega += exp
        else:
            aux_order(name)
            aux.append((name, exp))
    return Atom(kind, degree, omega, tuple(aux), label)
