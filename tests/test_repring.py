import cmath
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from heckebound import repring
from heckebound.assumptions import (
    GENERAL_SELF_DUAL,
    OCTAHEDRAL_SELF_DUAL,
    TETRAHEDRAL_SELF_DUAL,
    RepType,
    TypeAssumption,
)
from heckebound.errors import AlgebraError
from heckebound.poles import rs_pole_order
from heckebound.repring import (
    MU,
    MU2,
    PAIR_DEGREE_CAP,
    Atom,
    VirtualRep,
    atom_text,
    cg_pair,
    dual,
    parse_atom,
    reduce_atom,
    reduce_rep,
    tensor_power,
)
from satake import SatakePoint, eval_atom, eval_char, power_sum

ZETA3 = cmath.exp(2j * math.pi / 3)


def random_point(rng, with_mu=False):
    # alpha, beta uniform on the annulus 0.5 <= |.| <= 1.5
    def draw():
        return cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))

    aux = {"mu": ZETA3 ** rng.randrange(3)} if with_mu else {}
    return SatakePoint(draw(), draw(), aux_values=aux)


def sym_trace(k, s):
    # independent oracle: direct monomial sum in the Satake parameters
    return sum(s.alpha ** (k - j) * s.beta ** j for j in range(k + 1))


# ---------------------------------------------------------------------------
# cg_pair


def test_cg_pair_1_1():
    assert cg_pair(1, 1) == VirtualRep([(Atom(2), 1), (Atom(0, 1), 1)])


def test_cg_pair_trivial_edges():
    assert cg_pair(0, 3) == VirtualRep.of(Atom(3))
    assert cg_pair(0, 0) == VirtualRep.of(Atom())


@pytest.mark.parametrize("a", range(9))
@pytest.mark.parametrize("b", range(9))
def test_cg_pair_dimension(a, b):
    assert cg_pair(a, b).dim == (a + 1) * (b + 1)


@pytest.mark.parametrize("a,b", [(3, 3), (4, 3)])
def test_cg_pair_numeric_oracle(a, b):
    rng = random.Random(2024)
    for _ in range(50):
        s = random_point(rng)
        lhs = sym_trace(a, s) * sym_trace(b, s)
        rhs = eval_char(cg_pair(a, b), s)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_cg_pair_4_3_structure():
    expected = VirtualRep(
        [(Atom(7), 1), (Atom(5, 1), 1), (Atom(3, 2), 1), (Atom(1, 3), 1)]
    )
    assert cg_pair(4, 3) == expected


def test_cg_pair_rejects_negative():
    with pytest.raises(AlgebraError, match="^cg_pair needs non-negative degrees$"):
        cg_pair(-1, 2)


def test_cg_pair_takes_degrees_up_to_the_cap():
    assert cg_pair(PAIR_DEGREE_CAP, PAIR_DEGREE_CAP).dim == (PAIR_DEGREE_CAP + 1) ** 2
    for a, b in [(PAIR_DEGREE_CAP + 1, 0), (1, PAIR_DEGREE_CAP + 1)]:
        message = f"^cg_pair supports degrees up to {PAIR_DEGREE_CAP}, got {a} and {b}$"
        with pytest.raises(AlgebraError, match=message):
            cg_pair(a, b)


# ---------------------------------------------------------------------------
# tensor_power


def test_tensor_power_1():
    assert tensor_power(1) == VirtualRep.of(Atom(1))


def test_tensor_power_3():
    assert tensor_power(3) == VirtualRep([(Atom(3), 1), (Atom(1, 1), 2)])


def test_tensor_power_4():
    assert tensor_power(4) == VirtualRep(
        [(Atom(4), 1), (Atom(2, 1), 3), (Atom(0, 2), 2)]
    )


@pytest.mark.parametrize("k", [0, 5, 9])
def test_tensor_power_out_of_range(k):
    message = f"^tensor_power supports 1 <= k <= 4, got {k}; higher powers are handled by pairing half powers$"
    with pytest.raises(AlgebraError, match=message):
        tensor_power(k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tensor_power_matches_clebsch_gordan_iteration(k):
    # the closed form against pi^(k+1) = pi^k x pi, piece by piece
    pieces = [
        (piece.twist(atom.omega_power), mult * m)
        for atom, mult in tensor_power(k).terms
        for piece, m in cg_pair(atom.sym_degree, 1).terms
    ]
    assert tensor_power(k + 1) == VirtualRep(pieces)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tensor_power_matches_trace_power(k):
    rng = random.Random(99)
    for _ in range(200):
        s = random_point(rng)
        trace = s.alpha + s.beta
        lhs = eval_char(tensor_power(k), s)
        assert abs(lhs - trace ** k) < 1e-10 * max(1.0, abs(trace) ** k)


# ---------------------------------------------------------------------------
# dual


def test_dual_standard():
    assert dual(Atom(1)) == Atom(1, -1)


def test_dual_character():
    assert dual(Atom(0, 2)) == Atom(0, -2)


def test_dual_sym3_trivial_omega():
    # with omega trivial the ledger compares powers mod 1, so the twisted
    # dual is the same atom up to omega; symbolically the twist is recorded
    assert dual(Atom(3)) == Atom(3, -3)
    assert dual(Atom(3, -3)) == Atom(3, 0)


def test_dual_aux_inverts():
    assert dual(Atom(1, 0, MU)) == Atom(1, -1, MU2)


def test_dual_opaque_partner():
    assert dual(Atom(opaque_label="pi_chi")).opaque_label == "pi_chi_bar"
    assert dual(dual(Atom(opaque_label="pi_chi"))) == Atom(opaque_label="pi_chi")


# any base atom (Sym^1..Sym^4, the trivial character, both opaque labels)
# under any w and mu twist; degrees stop at 4 so every type can reduce them
bases = st.one_of(
    st.integers(1, 4).map(Atom),
    st.just(Atom()),
    st.sampled_from(sorted(repring.OPAQUE_DUALS)).map(lambda label: Atom(opaque_label=label)),
)
atoms = st.builds(
    lambda base, w, e: base.twist(w, (("mu", e),)), bases, st.integers(-12, 12), st.integers(-5, 5)
)
non_dihedral = (RepType.GENERAL, RepType.TETRAHEDRAL, RepType.OCTAHEDRAL)
assumptions = st.sampled_from(
    [TypeAssumption(t, True, 1) for t in non_dihedral]
    + [TypeAssumption(t, False, n) for t in non_dihedral for n in (2, 3, 4, 6)]
)


# w up to the 18-digit bound of the atom grammar, so renderer and parser agree there
@given(bases, st.integers(-(10**18 - 1), 10**18 - 1), st.integers(-5, 5))
def test_atom_text_round_trip_generated(base, w, e):
    a = base.twist(w, (("mu", e),))
    assert parse_atom(atom_text(a)) == a


@given(atoms)
def test_dual_is_a_dimension_preserving_involution(a):
    assert dual(dual(a)) == a
    assert dual(a).dim == a.dim


@given(
    atoms.filter(lambda a: not a.opaque_label),
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
    st.integers(0, 2),
)
def test_dual_conjugates_on_unitary_points(a, theta_a, theta_b, mu_power):
    # oracle: with |alpha| = |beta| = 1 and mu a cube root of unity every
    # character is unitary, so the contragredient's trace is the conjugate
    s = SatakePoint(
        cmath.exp(1j * theta_a), cmath.exp(1j * theta_b), aux_values={"mu": ZETA3 ** mu_power}
    )
    assert abs(eval_atom(dual(a), s) - eval_atom(a, s).conjugate()) < 1e-12


@given(atoms, atoms, assumptions)
def test_rs_pole_order_symmetric_on_single_atoms(x, y, t):
    forward = rs_pole_order(VirtualRep.of(x), VirtualRep.of(y), t).total_order
    assert forward == rs_pole_order(VirtualRep.of(y), VirtualRep.of(x), t).total_order


@given(atoms, atoms, assumptions)
def test_rs_pole_order_matches_the_per_pair_rule(x, y, t):
    # oracle: the Rankin-Selberg rule on every unfolded pair of reduced
    # pieces, sum of m m' over pairs with dual(x') = y' up to w-powers mod ord(w)
    def mod_omega(a):
        return (a.sym_degree, a.omega_power % t.omega_order, a.aux, a.opaque_label)

    expected = sum(
        mx * my
        for xp, mx in reduce_atom(x, t).terms
        for yp, my in reduce_atom(y, t).terms
        if mod_omega(dual(xp)) == mod_omega(yp)
    )
    assert rs_pole_order(VirtualRep.of(x), VirtualRep.of(y), t).total_order == expected


# ---------------------------------------------------------------------------
# reduce


def test_reduce_tetrahedral_sym3():
    got = reduce_atom(Atom(3, -1), TETRAHEDRAL_SELF_DUAL)
    assert got == VirtualRep([(Atom(1, 0, MU), 1), (Atom(1, 0, MU2), 1)])


def test_reduce_octahedral_sym4():
    got = reduce_atom(Atom(4, -1), OCTAHEDRAL_SELF_DUAL)
    assert got == VirtualRep([(Atom(0, 1, opaque_label="pi_chi"), 1), (Atom(2, 0), 1)])


def test_reduce_general_identity():
    assert reduce_atom(Atom(2), GENERAL_SELF_DUAL) == VirtualRep.of(Atom(2))
    assert reduce_atom(Atom(4), GENERAL_SELF_DUAL) == VirtualRep.of(Atom(4))


def test_reduce_octahedral_keeps_sym3():
    assert reduce_atom(Atom(3), OCTAHEDRAL_SELF_DUAL) == VirtualRep.of(Atom(3))


def test_reduce_dimension_preserved():
    for atom in [Atom(3, -1), Atom(4, -1), Atom(4, 2, MU)]:
        for t in (TETRAHEDRAL_SELF_DUAL, OCTAHEDRAL_SELF_DUAL):
            assert reduce_atom(atom, t).dim == atom.dim


def test_reduce_high_degree_rejected():
    message = r"^no reduction for Sym\^5 under the tetrahedral assumption$"
    with pytest.raises(AlgebraError, match=message):
        reduce_atom(Atom(5), TETRAHEDRAL_SELF_DUAL)


def test_reduce_idempotent():
    v = tensor_power(4)
    for t in (GENERAL_SELF_DUAL, TETRAHEDRAL_SELF_DUAL, OCTAHEDRAL_SELF_DUAL):
        once = reduce_rep(v, t)
        assert reduce_rep(once, t) == once


@pytest.mark.parametrize(
    "key,pieces",
    [
        pytest.param(key, pieces, id=f"{key[0].value}-{key[1]}")
        for key, pieces in repring.REDUCTIONS.items()
    ],
)
def test_reduction_table_entry(key, pieces):
    # every (type, k) entry is untwisted Sym^k; each twist of Sym^k reduces
    # to the entry with every piece twisted alike
    rep_type, k = key
    t = TypeAssumption(rep_type)
    assert pieces.dim == k + 1
    for w in range(-3, 4):
        for e in range(3):
            twist = (("mu", e),)
            expected = VirtualRep((p.twist(w, twist), m) for p, m in pieces.terms)
            assert reduce_atom(Atom(k, w, twist), t) == expected
    with pytest.raises(TypeError):
        repring.REDUCTIONS[key] = pieces


DIHEDRAL_REFUSAL = r"^the dihedral \(monomial\) type has no reductions in the atom vocabulary$"


@pytest.mark.parametrize("atom", [Atom(k) for k in range(5)] + [Atom(opaque_label="pi_chi")], ids=atom_text)
def test_reduce_dihedral_refused(atom):
    with pytest.raises(AlgebraError, match=DIHEDRAL_REFUSAL):
        reduce_atom(atom, TypeAssumption(RepType.DIHEDRAL))


def test_reduce_dihedral_message_names_the_vocabulary():
    # the refusal is the algebra's, so it says nothing of poles
    with pytest.raises(AlgebraError, match=DIHEDRAL_REFUSAL):
        reduce_atom(Atom(1), TypeAssumption(RepType.DIHEDRAL))


def _tetrahedral_point(rng):
    # alpha = zeta3 * beta together with mu(p) a primitive cube root makes
    # the Sym^3 isobaric decomposition hold as an identity of characters
    beta = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))
    return SatakePoint(ZETA3 * beta, beta, aux_values={"mu": ZETA3})


def test_reduce_tetrahedral_numeric_soundness():
    rng = random.Random(7)
    for atom in [Atom(3, -1), Atom(4, -1)]:
        decomposed = reduce_atom(atom, TETRAHEDRAL_SELF_DUAL)
        for _ in range(50):
            s = _tetrahedral_point(rng)
            lhs = eval_atom(atom, s)
            rhs = eval_char(decomposed, s)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_reduce_octahedral_numeric_soundness():
    # the opaque factor has no intrinsic character; registering the value the
    # relation dictates checks dimensions and evaluation plumbing agree
    rng = random.Random(8)
    atom = Atom(4, -1)
    decomposed = reduce_atom(atom, OCTAHEDRAL_SELF_DUAL)
    for _ in range(20):
        base = random_point(rng)
        monomial_value = (eval_atom(atom, base) - eval_atom(Atom(2), base)) / base.omega_value
        s = SatakePoint(base.alpha, base.beta, opaque_values={"pi_chi": monomial_value})
        assert abs(eval_atom(atom, s) - eval_char(decomposed, s)) < 1e-10


# ---------------------------------------------------------------------------
# the oracle itself: eval_char and power_sum


def test_eval_char_standard_at_one():
    assert eval_char(VirtualRep.of(Atom(1)), SatakePoint(1, 1)) == pytest.approx(2)


def test_eval_char_sym2_on_circle():
    for theta in (0.3, 1.2, 2.9):
        s = SatakePoint(cmath.exp(1j * theta), cmath.exp(-1j * theta))
        got = eval_char(VirtualRep.of(Atom(2)), s)
        assert got.real == pytest.approx(1 + 2 * math.cos(2 * theta), abs=1e-12)
        assert got.imag == pytest.approx(0, abs=1e-12)


def test_power_sum_equal_parameters():
    for k in range(10):
        assert power_sum(2, 1, k) == pytest.approx(2)


def test_power_sum_cosine():
    theta = 0.77
    for k in range(12):
        got = power_sum(2 * math.cos(theta), 1, k)
        assert got.real == pytest.approx(2 * math.cos(k * theta), abs=1e-9)


def test_power_sum_sixth_roots():
    # roots of x^2 - x + 1 are exp(+-i pi/3); cubes sum to 2 cos(pi) = -2
    assert power_sum(1, 1, 3).real == pytest.approx(-2)


@given(
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.floats(0, 2 * math.pi),
    st.integers(0, 16),
)
def test_power_sum_matches_quadratic_roots(a_p, omega_angle, k):
    omega_p = cmath.exp(1j * omega_angle)
    disc = cmath.sqrt(a_p * a_p - 4 * omega_p)
    alpha, beta = (a_p + disc) / 2, (a_p - disc) / 2
    expected = alpha ** k + beta ** k
    got = power_sum(a_p, omega_p, k)
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


@given(st.floats(-3, 3), st.integers(0, 12))
def test_power_sum_self_dual_even_powers_nonnegative(a_p, m):
    value = power_sum(a_p, 1, m)
    assert value.imag == 0
    assert value.real ** 6 >= 0
    assert value.real ** 8 >= 0


# ---------------------------------------------------------------------------
# syntax and serialization


@pytest.mark.parametrize(
    "text,atom",
    [
        ("pi", Atom(1)),
        ("Sym3(pi)*w^-1*mu^2", Atom(3, -1, MU2)),
        ("w^2", Atom(0, 2)),
        ("1", Atom()),
        ("opaque:pi_chi", Atom(opaque_label="pi_chi")),
        ("Sym2(pi)*w", Atom(2, 1)),
    ],
)
def test_parse_atom(text, atom):
    assert parse_atom(text) == atom


def test_atom_text_round_trip():
    atoms = [Atom(1), Atom(4, -2, MU), Atom(0, 3, MU2), Atom(0, 1, opaque_label="pi_chi"), Atom()]
    for a in atoms:
        assert parse_atom(atom_text(a)) == a


def test_parse_rejects_unknown_symbol():
    with pytest.raises(AlgebraError):
        parse_atom("pi*nu^2")


def test_parse_rejects_two_bases():
    with pytest.raises(AlgebraError):
        parse_atom("pi*Sym2(pi)")


@pytest.mark.parametrize(
    "text, message",
    [
        ("Sym0(pi)", "SymPow atoms need sym_degree >= 1"),
        ("pi*w^x", "cannot parse atom factor 'w^x'"),
        # Atom reads an empty label as none, so only the parser can refuse it
        ("opaque:*w", "unknown opaque cuspidal label ''"),
        # Atom checks the aux names once the factors are read
        ("nu*Sym3(pi)*pi", "more than one base object in 'nu*Sym3(pi)*pi'"),
        # digits are ASCII, and an integer has at most 18 of them
        ("Sym\u0663(pi)", "cannot parse atom factor 'Sym\u0663(pi)'"),
        ("pi*w^\u0662", "cannot parse atom factor 'w^\u0662'"),
        ("pi*w^" + "9" * 19, f"cannot parse atom factor 'w^{'9' * 19}'"),
    ],
)
def test_parse_atom_refusal_message(text, message):
    with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
        parse_atom(text)


def test_aux_exponents_reduced_mod_order():
    assert Atom(1, 0, (("mu", 4),)) == Atom(1, 0, MU)
    assert Atom(1, 0, (("mu", 3),)) == Atom(1)


def test_virtualrep_no_zero_multiplicities():
    v = VirtualRep([(Atom(1), 1), (Atom(1), -1), (Atom(2), 2)])
    assert v == VirtualRep([(Atom(2), 2)])
    assert VirtualRep(((Atom(1), 0), (Atom(2), 0))) == VirtualRep() and VirtualRep().terms == ()


def test_symbol_tables_are_read_only():
    with pytest.raises(TypeError):
        repring.AUX_ORDERS["nu"] = 5
    with pytest.raises(TypeError):
        repring.OPAQUE_DUALS["pi_psi"] = "pi_psi"
    assert dict(repring.AUX_ORDERS) == {"mu": 3}
    assert dict(repring.OPAQUE_DUALS) == {"pi_chi": "pi_chi_bar", "pi_chi_bar": "pi_chi"}


def test_atom_invariants():
    with pytest.raises(AlgebraError):
        Atom(-1)
    with pytest.raises(AlgebraError):
        Atom(2, opaque_label="pi_chi")
    with pytest.raises(AlgebraError):
        Atom(opaque_label="never_registered")
    for j in range(-2, 3):  # a GL(1) character is the degree-0 symmetric power
        assert Atom(0, j, MU).dim == Atom(0, j).dim == 1
    # characters keep their rank after the opaque labels in every listing
    order = [Atom(1), Atom(opaque_label="pi_chi"), Atom(0, 1)]
    assert [a for a, _ in VirtualRep.of(*reversed(order)).terms] == order
