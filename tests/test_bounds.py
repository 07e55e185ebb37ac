import math
import re

import numpy as np
import pytest

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
    scanned, corner = result.branch_values
    assert scanned == pytest.approx(corner, abs=1e-12)
    assert result.optimizer == 1.0


@pytest.mark.parametrize("pole6", [5, 25, 29, 178])
def test_negative_side_scan_equals_the_closed_form_exactly(pole6):
    # both are (pole6/2)^(1/6) through one correctly rounded pow at the corner
    scanned, corner = negative_side(pole6).branch_values
    assert scanned == corner


def test_negative_side_grid_scan_oracle():
    # independent scan over a 100x100 density grid
    grid = np.linspace(0.01, 1.0, 100)
    d_a, d_b = np.meshgrid(grid, grid)
    admissible = (5 / (d_b + d_b ** (6 / 7) * d_a ** (1 / 7))) ** (1 / 6)
    assert admissible.min() == pytest.approx((5 / 2) ** (1 / 6), abs=1e-12)
    i = np.unravel_index(np.argmin(admissible), admissible.shape)
    assert (d_a[i], d_b[i]) == (1.0, 1.0)


@pytest.mark.parametrize(
    "t_of_densities",
    [
        lambda a, b: (5 / (b + b ** (6 / 7) * a ** (1 / 7))) ** (1 / 6),
        lambda a, b: (1.0 / (b + b ** (2 / 3) * a ** (1 / 3))) ** 0.5,
        lambda a, b: 1 / (a * b),
        lambda a, b: (a - 0.5) ** 2 + b,  # minimum off the corner
        lambda a, b: 0 * a + 0 * b,  # ties everywhere: the first grid point
    ],
)
def test_corner_scan_matches_array_argmin(t_of_densities):
    # oracle: the same grid as a numpy array, first minimum in row order
    grid = np.arange(0.01, 1.0 + 0.005, 0.01)
    values = t_of_densities(grid[:, None], grid[None, :])
    i, j = np.unravel_index(np.argmin(values), values.shape)
    at = (float(grid[i]), float(grid[j]))
    if at == (1.0, 1.0):
        assert _corner_scan(t_of_densities) == (float(values[i, j]), 1.0, 1.0)
    else:
        with pytest.raises(ParameterError, match=re.escape(f"not at the corner: {at}")):
            _corner_scan(t_of_densities)


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
