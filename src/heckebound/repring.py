"""Symbolic algebra of GL(2) tensor/symmetric powers.

An atom is Sym^k of the standard 2-dim object or, when it carries a label,
the opaque cuspidal pi_chi or its dual pi_chi_bar (degree 0), twisted by
the central character w and the auxiliary order-3 character mu; a GL(1)
character is Sym^0 so twisted.  Atom(degree, omega, aux, label) is the one
way to build an atom: each field defaults (Atom() is the trivial character)
and _make and _replace go through it.  VirtualRep(terms), a formal integer
combination of atoms, is canonical by construction, _make and _replace too.
The vocabulary and the Sym^3/Sym^4 reductions are fixed in read-only tables
(AUX_ORDERS, OPAQUE_DUALS, REDUCTIONS), so the module holds no mutable
state; every value is immutable and every operation pure, so the module is
safe for unrestricted parallel use.  `dual` is the contragredient the pole
ledger's one rule rests on.  One renderer spells atoms two ways: atom_text
parses back, atom_label (and rep_label) display.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .assumptions import RepType, TypeAssumption
from .errors import AlgebraError

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
PAIR_DEGREE_CAP = 1000  # so that `decompose --pair` stays a desk-scale call
MONOMIAL_LABEL = "pi_chi"


def opaque_dual(label: str) -> str:
    try:
        return OPAQUE_DUALS[label]
    except KeyError:
        raise AlgebraError(f"unknown opaque cuspidal label {label!r}") from None


def _canonical_aux(aux: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    combined: dict[str, int] = {}
    for name, exp in aux:
        if name not in AUX_ORDERS:
            raise AlgebraError(f"unknown aux character symbol {name!r}")
        combined[name] = (combined.get(name, 0) + exp) % AUX_ORDERS[name]
    return tuple(sorted((n, e) for n, e in combined.items() if e))


# ---------------------------------------------------------------------------
# Atoms


class Atom(namedtuple("Atom", "sym_degree omega_power aux opaque_label")):
    """Sym^k (k = 0 is a GL(1) character) or, when opaque_label is set, that
    opaque cuspidal label (degree 0), times w^a and an auxiliary character
    whose (name, exponent) pairs, given as any iterable, are kept canonical."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__; _replace calls it

    def __new__(cls, sym_degree=0, omega_power=0, aux=(), opaque_label=""):
        aux = _canonical_aux(aux)
        if opaque_label:
            opaque_dual(opaque_label)
            if sym_degree:
                raise AlgebraError(f"opaque atom {opaque_label!r} needs sym_degree 0")
        elif sym_degree < 0:
            raise AlgebraError("SymPow atoms need sym_degree >= 0")
        return super().__new__(cls, sym_degree, omega_power, aux, opaque_label)

    @property
    def dim(self) -> int:
        return OPAQUE_DIM if self.opaque_label else self.sym_degree + 1

    def twist(self, omega_delta: int = 0, aux: Iterable[tuple[str, int]] = ()) -> "Atom":
        omega, aux = self.omega_power + omega_delta, self.aux + tuple(aux)
        return Atom(self.sym_degree, omega, aux, self.opaque_label)

    def sort_key(self):
        # characters (Sym^0) rank last, after the opaque labels
        rank = 2 if self.dim == 1 else int(bool(self.opaque_label))
        return (rank, -self.sym_degree, self.opaque_label, self.omega_power, self.aux)


MU = (("mu", 1),)
MU2 = (("mu", 2),)


def dual(a: Atom) -> Atom:
    """Contragredient: Sym^k picks up w^-k (so characters invert), an opaque
    label (degree 0) goes to its dual partner in OPAQUE_DUALS."""
    label = a.opaque_label and opaque_dual(a.opaque_label)
    aux = tuple((n, -e) for n, e in a.aux)
    return Atom(a.sym_degree, -a.sym_degree - a.omega_power, aux, label)


# ---------------------------------------------------------------------------
# Virtual representations


class VirtualRep(namedtuple("VirtualRep", "terms")):
    """Formal integer combination of atoms: terms, given as any iterable of
    (atom, multiplicity) pairs, is kept canonical (one pair per atom, no zero
    multiplicity, sorted by Atom.sort_key)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__; _replace calls it

    def __new__(cls, terms=()):
        acc: dict[Atom, int] = {}
        for atom, mult in terms:
            acc[atom] = acc.get(atom, 0) + mult
        ordered = sorted(acc.items(), key=lambda t: t[0].sort_key())
        return super().__new__(cls, tuple((a, m) for a, m in ordered if m))

    @staticmethod
    def of(*atoms: Atom) -> "VirtualRep":
        return VirtualRep((a, 1) for a in atoms)

    @property
    def dim(self) -> int:
        return sum(m * a.dim for a, m in self.terms)

    def to_json(self) -> list[dict]:
        return [{"atom": atom_text(a), "mult": m} for a, m in self.terms]


# ---------------------------------------------------------------------------
# Decompositions


def cg_pair(a: int, b: int) -> VirtualRep:
    """Sym^a x Sym^b = sum over j of Sym^(a+b-2j) twisted by w^j, for degrees
    up to PAIR_DEGREE_CAP (the sum has min(a, b) + 1 terms)."""
    if a < 0 or b < 0:
        raise AlgebraError("cg_pair needs non-negative degrees")
    if max(a, b) > PAIR_DEGREE_CAP:
        raise AlgebraError(f"cg_pair supports degrees up to {PAIR_DEGREE_CAP}, got {a} and {b}")
    return VirtualRep((Atom(a + b - 2 * j, j), 1) for j in range(min(a, b) + 1))


def tensor_power(k: int) -> VirtualRep:
    """Decomposition of the k-th tensor power of the standard object, 1<=k<=4:
    Sym^(k-2j) twisted by w^j with multiplicity C(k,j) - C(k,j-1), which is
    C(k,j)(k-2j+1)/(k-j+1), for 0 <= j <= k/2."""
    if not 1 <= k <= 4:
        raise AlgebraError(
            f"tensor_power supports 1 <= k <= 4, got {k}; higher powers are "
            "handled by pairing half powers"
        )
    return VirtualRep(
        (Atom(k - 2 * j, j), math.comb(k, j) * (k - 2 * j + 1) // (k - j + 1))
        for j in range(k // 2 + 1)
    )


# Kim-Shahidi: untwisted Sym^k where the type makes it non-cuspidal (octahedral
# Sym^3 stays cuspidal); reduce_atom twists each piece by the atom's w and aux.
REDUCTIONS: Mapping[tuple[RepType, int], VirtualRep] = MappingProxyType(
    {
        (RepType.TETRAHEDRAL, 3): VirtualRep.of(Atom(1, 1, MU), Atom(1, 1, MU2)),
        (RepType.TETRAHEDRAL, 4): VirtualRep.of(Atom(2, 1), Atom(0, 2, MU), Atom(0, 2, MU2)),
        (RepType.OCTAHEDRAL, 3): VirtualRep.of(Atom(3)),
        (RepType.OCTAHEDRAL, 4): VirtualRep.of(Atom(0, 2, opaque_label=MONOMIAL_LABEL), Atom(2, 1)),
    }
)


def reduce_atom(a: Atom, t: TypeAssumption) -> VirtualRep:
    """Replace Sym^3/Sym^4 atoms by their REDUCTIONS entry under the type
    assumption; all other atoms pass through.  The dihedral type has no
    atoms to express its reductions and is refused."""
    if t.rep_type is RepType.DIHEDRAL:
        message = "the dihedral (monomial) type has no reductions in the atom vocabulary"
        raise AlgebraError(message)
    if a.sym_degree <= 2 or t.rep_type is RepType.GENERAL:
        return VirtualRep.of(a)
    try:
        pieces = REDUCTIONS[t.rep_type, a.sym_degree]
    except KeyError:
        raise AlgebraError(
            f"no reduction for Sym^{a.sym_degree} under the {t.rep_type.value} assumption"
        ) from None
    return VirtualRep((p.twist(a.omega_power, a.aux), m) for p, m in pieces.terms)


def reduce_rep(v: VirtualRep, t: TypeAssumption) -> VirtualRep:
    return VirtualRep(
        (piece, mult * m) for atom, mult in v.terms for piece, m in reduce_atom(atom, t).terms
    )


# ---------------------------------------------------------------------------
# Textual syntax: Sym3(pi)*w^-1*mu^2, w^2, opaque:pi_chi, pi, 1.  Digits are ASCII,
# at most 18 to an integer, so no sum of w powers nears int's 4,300-digit str() limit.
_FACTOR_RE = re.compile(
    r"Sym(\d{1,18})\(pi\)|pi|opaque:(.*)|([A-Za-z]\w*)(?:\^(-?\d{1,18}))?", re.ASCII | re.DOTALL
)


def _render(a: Atom, opaque_prefix: str, sym_format: str, sep: str) -> str:
    """The base object, then the twists joined by sep; a character
    (dimension 1) is spelled alike either way, e.g. 'w^-1*mu^2' or '1'."""
    powers = ((("w", a.omega_power),) if a.omega_power else ()) + a.aux
    twists = [name if exp == 1 else f"{name}^{exp}" for name, exp in powers]
    if a.opaque_label:
        base = opaque_prefix + a.opaque_label
    elif a.sym_degree:
        base = "pi" if a.sym_degree == 1 else sym_format.format(a.sym_degree)
    else:
        return "*".join(twists) or "1"
    return sep.join([base] + twists)


def atom_text(a: Atom) -> str:
    """Parseable rendering, inverse of parse_atom, e.g. 'Sym3(pi)*w^-1'."""
    return _render(a, "opaque:", "Sym{}(pi)", "*")


def atom_label(a: Atom) -> str:
    """Human-oriented rendering used in certificates, e.g. 'Sym3', 'pi⊗w'."""
    return _render(a, "", "Sym{}", "⊗")


def rep_label(v: VirtualRep) -> str:
    """Human-oriented rendering of a virtual representation, e.g.
    'Sym3 ⊕ 2·pi⊗w'."""
    parts = [atom_label(a) if m == 1 else f"{m}·{atom_label(a)}" for a, m in v.terms]
    return " ⊕ ".join(parts) if parts else "0"


def parse_atom(text: str) -> Atom:
    text = text.strip()
    if text == "1":
        return Atom()
    degree, label = None, ""  # until the one Sym or opaque factor is read
    omega = 0
    aux: list[tuple[str, int]] = []
    for factor in map(str.strip, text.split("*")):
        m = _FACTOR_RE.fullmatch(factor)
        if not m:
            raise AlgebraError(f"cannot parse atom factor {factor!r}")
        k, opaque_label, name, exp = m.groups()
        if name == "w":
            omega += int(exp or 1)
        elif name:
            aux.append((name, int(exp or 1)))
        elif degree is not None or label:  # a second Sym<k>(pi), pi or opaque:<label>
            raise AlgebraError(f"more than one base object in {text!r}")
        elif opaque_label is None:
            degree = int(k or 1)
        else:
            label = opaque_label
            opaque_dual(label)  # Atom reads an empty label as none
    if degree == 0:
        raise AlgebraError("SymPow atoms need sym_degree >= 1")
    return Atom(degree or 0, omega, aux, label)
