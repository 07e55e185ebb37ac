import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from heckebound.assumptions import (
    GENERAL_SELF_DUAL,
    OCTAHEDRAL_SELF_DUAL,
    TETRAHEDRAL_SELF_DUAL,
    RepType,
    TypeAssumption,
)
from heckebound.errors import AlgebraError, ParameterError
from heckebound.poles import (
    certificate_render,
    rs_pole_order,
    std_pole_order,
    tensor_power_pole,
)
from heckebound.repring import MU, MU2, PI, VirtualRep, char, sym, tensor_power

NSD = TypeAssumption(RepType.GENERAL, False, 2)
DIHEDRAL = TypeAssumption(RepType.DIHEDRAL, True, 1)
DIHEDRAL_REFUSAL = r"^the dihedral \(monomial\) type has no reductions in the atom vocabulary$"


def mults(cert):
    return sorted(f.multiplicity for f in cert.factors)


# ---------------------------------------------------------------------------
# assumptions


def test_self_dual_forces_trivial_omega():
    with pytest.raises(ParameterError):
        TypeAssumption(RepType.GENERAL, True, 3)


def test_trivial_omega_forces_self_dual():
    with pytest.raises(ParameterError):
        TypeAssumption(RepType.GENERAL, False, 1)


def test_dihedral_self_dual_may_keep_omega():
    TypeAssumption(RepType.DIHEDRAL, True, 2)


# ---------------------------------------------------------------------------
# rs_pole_order


def test_rs_standard_self_dual():
    cert = rs_pole_order(VirtualRep.of(PI), VirtualRep.of(PI), GENERAL_SELF_DUAL)
    assert cert.total_order == 1


def test_rs_standard_non_self_dual():
    cert = rs_pole_order(VirtualRep.of(PI), VirtualRep.of(PI), NSD)
    assert cert.total_order == 0


def test_rs_sym3_tetrahedral():
    # expand (pi mu + pi mu^2) x (pi mu + pi mu^2): the two cross pairs have
    # cancelling cubic twists (mu^3 = 1) and each carries a simple pole
    cert = rs_pole_order(VirtualRep.of(sym(3)), VirtualRep.of(sym(3)), TETRAHEDRAL_SELF_DUAL)
    expected = 0
    for x_aux in (MU, MU2):
        for y_aux in (MU, MU2):
            total = (x_aux[0][1] + y_aux[0][1]) % 3
            expected += 1 if total == 0 else 0
    assert expected == 2
    assert cert.total_order == expected


def test_rs_distinct_cuspidal_atoms():
    cert = rs_pole_order(VirtualRep.of(sym(4)), VirtualRep.of(sym(2, 1)), GENERAL_SELF_DUAL)
    assert cert.total_order == 0


def test_rs_symmetry():
    a, b = tensor_power(4), tensor_power(3)
    for t in (GENERAL_SELF_DUAL, TETRAHEDRAL_SELF_DUAL, OCTAHEDRAL_SELF_DUAL, NSD):
        assert rs_pole_order(a, b, t).total_order == rs_pole_order(b, a, t).total_order


def test_rs_bilinearity():
    a1, a2, b = VirtualRep.of(sym(2)), VirtualRep.of(PI), tensor_power(2)
    joint = rs_pole_order(VirtualRep.from_terms(a1.terms + a2.terms), b, GENERAL_SELF_DUAL).total_order
    split = (
        rs_pole_order(a1, b, GENERAL_SELF_DUAL).total_order
        + rs_pole_order(a2, b, GENERAL_SELF_DUAL).total_order
    )
    assert joint == split


def test_rs_dihedral_excluded():
    with pytest.raises(AlgebraError, match=DIHEDRAL_REFUSAL):
        rs_pole_order(VirtualRep.of(PI), VirtualRep.of(PI), DIHEDRAL)


# ---------------------------------------------------------------------------
# std_pole_order


def test_std_trivial_character():
    assert std_pole_order(VirtualRep.of(char(2)), GENERAL_SELF_DUAL).total_order == 1


def test_std_twisted_sym3_invertible():
    assert std_pole_order(VirtualRep.of(sym(3, 3)), GENERAL_SELF_DUAL).total_order == 0


def test_std_nontrivial_character_order3():
    t = TypeAssumption(RepType.GENERAL, False, 3)
    assert std_pole_order(VirtualRep.of(char(1)), t).total_order == 0
    assert std_pole_order(VirtualRep.of(char(3)), t).total_order == 1


def test_std_aux_character_nontrivial():
    assert std_pole_order(VirtualRep.of(char(0, MU)), GENERAL_SELF_DUAL).total_order == 0


# ---------------------------------------------------------------------------
# the pole table


@pytest.mark.parametrize(
    "k,t,expected",
    [
        (2, GENERAL_SELF_DUAL, 1),
        (2, NSD, 0),
        (3, GENERAL_SELF_DUAL, 0),
        (3, NSD, 0),
        (4, GENERAL_SELF_DUAL, 2),
        (5, GENERAL_SELF_DUAL, 0),
        (6, GENERAL_SELF_DUAL, 5),
        (6, TETRAHEDRAL_SELF_DUAL, 6),
        (7, GENERAL_SELF_DUAL, 0),
        (7, TETRAHEDRAL_SELF_DUAL, 0),
        (7, OCTAHEDRAL_SELF_DUAL, 0),
        (8, GENERAL_SELF_DUAL, 14),
    ],
)
def test_pole_table(k, t, expected):
    assert tensor_power_pole(k, t).total_order == expected


@pytest.mark.parametrize(
    "k,expected",
    [
        (3, [1, 2]),
        (4, [1, 2, 3]),
        (6, [1, 4, 4]),
        (7, [1, 2, 2, 3, 4, 6]),
        (8, [1, 4, 4, 6, 9, 12]),
    ],
)
def test_certificate_multiplicities(k, expected):
    assert mults(tensor_power_pole(k, GENERAL_SELF_DUAL)) == expected


def test_pole_contributions_are_zero_or_one():
    for k in range(2, 9):
        cert = tensor_power_pole(k, GENERAL_SELF_DUAL)
        assert all(f.pole_contrib in (0, 1) for f in cert.factors)
        assert cert.total_order == sum(f.multiplicity * f.pole_contrib for f in cert.factors)
        assert cert.total_order >= 0


def test_tensor_power_pole_dihedral_excluded():
    with pytest.raises(AlgebraError, match=DIHEDRAL_REFUSAL):
        tensor_power_pole(6, DIHEDRAL)


def test_tensor_power_pole_range():
    with pytest.raises(AlgebraError, match="^tensor_power_pole supports 2 <= k <= 8, got 9$"):
        tensor_power_pole(9, GENERAL_SELF_DUAL)
    with pytest.raises(AlgebraError, match="^tensor_power_pole supports 2 <= k <= 8, got 1$"):
        tensor_power_pole(1, GENERAL_SELF_DUAL)


def test_k5_flagged_as_derived():
    assert "no published reference value" in tensor_power_pole(5, GENERAL_SELF_DUAL).note


def test_k6_octahedral_derived():
    cert = tensor_power_pole(6, OCTAHEDRAL_SELF_DUAL)
    # Sym^3 stays cuspidal under the octahedral assumption
    assert cert.total_order == 5
    assert "no published reference value" in cert.note


# ---------------------------------------------------------------------------
# the oracle: when pi has image group G in GL(2, C), the pole order of
# L(s, pi^(x k)) at s=1 is the multiplicity of the trivial representation in
# the k-th tensor power, the mean of tr(g)^k over G.  For self-dual pi, G is
# SU(2) (general), the binary tetrahedral group 2T or the binary octahedral
# group 2O; for general pi with w of order n it is mu_2n * SU(2).


@dataclass(frozen=True)
class Root2:
    """p + q*sqrt(2) with p, q rational, the field the entries of 2O lie in."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __add__(self, o):
        return Root2(self.p + o.p, self.q + o.q)

    def __sub__(self, o):
        return Root2(self.p - o.p, self.q - o.q)

    def __mul__(self, o):
        return Root2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)


def quaternion(*coords):
    """The exact quaternion a + bi + cj + dk."""
    return tuple(c if isinstance(c, Root2) else Root2(Fraction(c)) for c in coords)


def hamilton(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def closure(*generators):
    """The finite group of unit quaternions that the generators generate."""
    one = quaternion(1, 0, 0, 0)
    group, frontier = {one}, {one}
    while frontier:
        frontier = {hamilton(g, s) for g in frontier for s in generators} - group
        group |= frontier
    return group


HALF = Fraction(1, 2)
OMEGA = quaternion(HALF, HALF, HALF, HALF)  # (1 + i + j + k)/2, of order 6
BINARY_TETRAHEDRAL = closure(quaternion(0, 1, 0, 0), OMEGA)
# (1 + i)/sqrt(2) squares to i, so with OMEGA it generates 2O
BINARY_OCTAHEDRAL = closure(quaternion(Root2(0, HALF), Root2(0, HALF), 0, 0), OMEGA)


def mean_trace_power(group, k):
    # the unit quaternion a + bi + cj + dk acts on C^2 with trace 2a
    total = Root2(Fraction(0))
    for g in group:
        term = Root2(Fraction(1))
        for _ in range(k):
            term = term * (g[0] + g[0])
        total = total + term
    assert total.q == 0
    return total.p / len(group)


def group_moment(k, t):
    if t.rep_type is RepType.TETRAHEDRAL:
        return mean_trace_power(BINARY_TETRAHEDRAL, k)
    if t.rep_type is RepType.OCTAHEDRAL:
        return mean_trace_power(BINARY_OCTAHEDRAL, k)
    # Catalan numbers over SU(2); mu_2n contributes the mean of z^k
    catalan = math.comb(k, k // 2) // (k // 2 + 1) if k % 2 == 0 else 0
    return catalan * (k % (2 * t.omega_order) == 0)


def moment_row(k, t):
    marks = ()
    if (k, t) == (8, OCTAHEDRAL_SELF_DUAL):
        reason = (
            "the group mean is 15 and the ledger gives 20: the octahedral Sym^4 "
            "reduction lacks the quadratic character (ROADMAP direction 1)"
        )
        marks = pytest.mark.xfail(strict=True, reason=reason)
    dual = "self-dual" if t.self_dual else f"w{t.omega_order}"
    return pytest.param(k, t, marks=marks, id=f"{k}-{t.rep_type.value}-{dual}")


# non-self-dual tetrahedral and octahedral rows are left out: there the type
# and the order of w do not fix G (an octahedral pi with image GL(2, F_3)
# has w of order 2)
MOMENT_ROWS = [
    moment_row(k, t)
    for t in [GENERAL_SELF_DUAL, TETRAHEDRAL_SELF_DUAL, OCTAHEDRAL_SELF_DUAL]
    + [TypeAssumption(RepType.GENERAL, False, n) for n in (2, 3, 4, 6)]
    for k in range(2, 9)
]


def test_binary_groups_have_their_orders():
    assert (len(BINARY_TETRAHEDRAL), len(BINARY_OCTAHEDRAL)) == (24, 48)
    assert BINARY_TETRAHEDRAL < BINARY_OCTAHEDRAL


@pytest.mark.parametrize("k,t", MOMENT_ROWS)
def test_pole_table_matches_group_moments(k, t):
    assert tensor_power_pole(k, t).total_order == group_moment(k, t)


# ---------------------------------------------------------------------------
# rendering


def test_render_k3():
    assert certificate_render(tensor_power_pole(3, GENERAL_SELF_DUAL)) == "L(Sym3) · L(pi⊗w)^2"


def test_render_k8_families():
    text = certificate_render(tensor_power_pole(8, GENERAL_SELF_DUAL))
    assert text.count("L(") == 6
    for piece in ["L(Sym4 × Sym4)", "^6", "^9", "^4", "^12"]:
        assert piece in text


def test_render_empty():
    cert = std_pole_order(VirtualRep(), GENERAL_SELF_DUAL)
    assert certificate_render(cert) == ""
    assert cert.total_order == 0


def test_render_deterministic():
    a = certificate_render(tensor_power_pole(7, GENERAL_SELF_DUAL))
    b = certificate_render(tensor_power_pole(7, GENERAL_SELF_DUAL))
    assert a == b


def test_certificate_json_schema():
    payload = tensor_power_pole(4, GENERAL_SELF_DUAL).to_json()
    assert set(payload) >= {"factors", "total", "assumption"}
    for factor in payload["factors"]:
        assert set(factor) == {"left", "right", "mult", "pole"}
    assert payload["total"] == 2
