import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckebound.bounds import (
    _corner_scan,
    holder_branch,
    negative_side,
    non_self_dual,
    partition_branch,
    positive_side,
    positive_side_weak,
)
from heckebound.errors import ParameterError


def grid_minimax(pole4, pole8, step=1e-6):
    # brute-force oracle for the min over d of the max of the two branches
    d = np.arange(0.0, pole4 + step / 2, step)
    values = np.maximum((d ** 5 / pole8) ** (1 / 12), (pole4 - d) ** 0.25)
    i = int(np.argmin(values))
    return float(values[i]), float(d[i])


def test_positive_side_reference_constant():
    result = positive_side(2, 14)
    assert result.constant == pytest.approx(0.9042, abs=5e-4)
    assert result.optimizer == pytest.approx(1.331, abs=5e-4)


def test_positive_side_branches_cross():
    result = positive_side(2, 14)
    up, down = result.branch_values
    assert abs(up - down) <= 1e-10


def test_positive_side_agrees_with_grid_scan():
    for pole4, pole8 in [(2, 14), (1, 1), (3, 20)]:
        result = positive_side(pole4, pole8)
        grid_value, grid_d = grid_minimax(pole4, pole8)
        assert result.constant == pytest.approx(grid_value, abs=1e-5)
        assert result.optimizer == pytest.approx(grid_d, abs=1e-4)


def exact_positive_root(pole4, pole8, bits=80):
    # the unique c in (0, pole4^(1/4)) with (pole4 - c^4)^5 = pole8 c^12, whose
    # left side decreases in c and right side increases, bisected to 2^-bits
    lo, hi = Fraction(0), Fraction(pole4 + 1)
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        if pole4 - mid**4 > 0 and (pole4 - mid**4) ** 5 > pole8 * mid**12:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("pole4, pole8", [(2, 14), (2, 22), (2, 15), (3, 35), (1, 1), (3, 20)])
def test_positive_side_lands_on_the_exact_root(pole4, pole8):
    result = positive_side(pole4, pole8)
    root = exact_positive_root(pole4, pole8)
    assert abs(Fraction(result.constant) - root) <= 2 * Fraction(math.ulp(float(root)))
    d = float(pole4 - root**4)
    assert result.optimizer == pytest.approx(d, rel=1e-15)
    up, down = result.branch_values
    assert abs(up - down) <= 2 * math.ulp(float(root))


def test_positive_side_degenerate_endpoint():
    # with the increasing branch switched off the max at d = 0 is (2-0)^(1/4)
    assert partition_branch(0.0, 2) == pytest.approx(2 ** 0.25)
    assert holder_branch(0.0, 14) == 0.0


def test_positive_side_monotonic_in_poles():
    base = positive_side(2, 14).constant
    assert positive_side(2, 20).constant <= base  # more eighth-power mass hurts
    assert positive_side(3, 14).constant >= base  # more fourth-power mass helps


def test_positive_side_rejects_bad_input():
    with pytest.raises(ParameterError):
        positive_side(0, 14)
    with pytest.raises(ParameterError):
        positive_side(2, 0)


def test_branch_monotonicity():
    d = np.linspace(1e-6, 2 - 1e-6, 1000)
    up = (d ** 5 / 14) ** (1 / 12)
    down = (2 - d) ** 0.25
    assert np.all(np.diff(up) > 0)
    assert np.all(np.diff(down) < 0)


def test_negative_side_value():
    result = negative_side(5)
    assert result.constant == pytest.approx((5 / 2) ** (1 / 6), abs=1e-9)
    assert math.floor(result.constant * 1000) / 1000 == 1.164  # truncation, not rounding


def test_negative_side_trivial_input():
    assert negative_side(2).constant == pytest.approx(1.0)


def test_negative_side_monotonic():
    assert negative_side(6).constant > negative_side(5).constant


def test_negative_side_worst_case_at_corner():
    result = negative_side(5)
    assert result.constant == (5 / 2) ** (1 / 6)
    assert result.optimizer == 1.0


@pytest.mark.parametrize(
    "side, closed_form",
    [(partial(negative_side, m), (m / 2) ** (1 / 6)) for m in (5, 25, 29, 178)]
    + [(positive_side_weak, math.sqrt(0.5)), (partial(non_self_dual, 0.7), 0.5)],
    ids=["5", "25", "29", "178", "weak", "nsd"],
)
def test_negative_side_scan_equals_the_closed_form_exactly(side, closed_form):
    # the corner step's one correctly rounded pow gives each Hoelder side's
    # closed form to the bit: (pole6/2)^(1/6), the correctly rounded 1/sqrt(2)
    # (which 1 / math.sqrt(2) misses by an ulp) and 1/2
    result = side()
    assert result.constant == closed_form
    assert result.branch_values == (closed_form, closed_form)


def threshold(mass, power, q, d_a, d_b):
    # the Hoelder sides' admissible threshold at upper densities (dA, dB)
    return (mass / (d_b + d_b ** q * d_a ** (1 - q))) ** (1 / power)


@pytest.mark.parametrize(
    "side, mass, power, q",
    [(partial(negative_side, m), m, 6, 6 / 7) for m in (2, 5, 6, 25, 178)]
    + [(positive_side_weak, 1.0, 2, 2 / 3), (partial(non_self_dual, 0.7), 0.5, 2, 2 / 3)],
    ids=["neg-2", "neg-5", "neg-6", "neg-25", "neg-178", "weak", "nsd"],
)
def test_holder_side_grid_scan_oracle(side, mass, power, q):
    # independent scan over a 100x100 density grid: its minimum sits at the
    # corner and is the value the side takes there
    grid = np.linspace(0.01, 1.0, 100)
    d_a, d_b = np.meshgrid(grid, grid)
    admissible = threshold(mass, power, q, d_a, d_b)
    i = np.unravel_index(np.argmin(admissible), admissible.shape)
    assert (d_a[i], d_b[i]) == (1.0, 1.0)
    assert admissible.min() == pytest.approx(side().branch_values[0], abs=1e-12)


upper_density = st.floats(0.0, 1.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1e-6, 1e6),
    st.sampled_from([2, 6]),
    upper_density,
    upper_density,
)
def test_threshold_is_least_at_the_corner(q, mass, power, d_a, d_b):
    # dB + dB^q dA^(1-q) rises in both densities, so no point of (0, 1]^2
    # lies below the corner, whose value the shared step gives to the bit
    corner = threshold(mass, power, q, 1.0, 1.0)
    assert _corner_scan(mass, power, "", "").constant == corner
    assert threshold(mass, power, q, d_a, d_b) >= corner


def test_negative_side_rejects_bad_input():
    with pytest.raises(ParameterError):
        negative_side(0)


@pytest.mark.parametrize(
    "bound, orders",
    [
        (positive_side, (10**62, 14)),  # d^5 overflows in the eighth-power branch
        (positive_side, (10**400, 14)),
        (positive_side, (2, 10**400)),
        (negative_side, (10**400,)),
    ],
    ids=["pole4=1e62", "pole4=1e400", "pole8=1e400", "pole6=1e400"],
)
def test_pole_orders_past_a_double_are_rejected(bound, orders):
    with pytest.raises(ParameterError, match="overflows? a double"):
        bound(*orders)


def test_pole_orders_inside_a_double_still_give_constants():
    assert math.isfinite(positive_side(10**61, 14).constant)
    assert math.isfinite(positive_side(2, 10**300).constant)
    assert negative_side(10**300).constant == (10**300 / 2) ** (1 / 6)


def test_weak_positive_value():
    result = positive_side_weak()
    assert result.constant == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert result.constant < positive_side(2, 14).constant
    assert result.trace


def test_non_self_dual_constant():
    for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
        assert non_self_dual(phi).constant == 0.5


def test_non_self_dual_closed_form_check():
    # at the corner, 1/2 - t^2 = t^2 gives t = 1/2
    t = math.sqrt(0.5 / 2)
    assert t == 0.5


def test_non_self_dual_rejects_out_of_range():
    with pytest.raises(ParameterError):
        non_self_dual(-0.1)
    with pytest.raises(ParameterError):
        non_self_dual(3.5)


def test_reference_constants():
    # literature constants of the geometric method, stored, not derived
    table = {"serre": 2 * math.cos(2 * math.pi / 7), "kim-shahidi": 2 * math.cos(2 * math.pi / 11)}
    assert table["serre"] == pytest.approx(1.24697, abs=1e-5)
    assert table["kim-shahidi"] == pytest.approx(1.68250, abs=1e-5)


def test_printed_truncations():
    assert f"{positive_side(2, 14).constant:.4f}"[:5] == "0.904"
    assert f"{positive_side(2, 14).optimizer:.4f}"[:5] == "1.331"
    assert f"{positive_side_weak().constant:.4f}"[:5] == "0.707"
