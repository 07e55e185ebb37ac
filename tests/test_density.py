import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heckebound.bounds import negative_side, non_self_dual, positive_side
from heckebound.datasets import Records, first_n_primes
from heckebound.density import (
    density_profile,
    operating_point,
    pole_order_probe,
    truncated_sum,
    verify_theorem,
)
from heckebound.errors import DatasetError, ParameterError


def constant_records(value, n=1000):
    ps = first_n_primes(n)
    return Records(ps, [complex(value)] * len(ps))


def test_truncated_sum_matches_naive():
    records = Records([2, 3, 5], [1.5, -0.5, 0.25])
    expected = 1.5 ** 2 / 2 ** 1.2 + 0.25 / 3 ** 1.2 + 0.0625 / 5 ** 1.2
    assert truncated_sum(records, 2, 1.2) == pytest.approx(expected, rel=1e-12)


def test_truncated_sum_rotation():
    records = Records([2, 3, 5, 7], [0.7j] * 4)
    # rotating by -pi/2 turns 0.7j into 0.7 on the real axis
    rotated = truncated_sum(records, 1, 1.3, phi=-math.pi / 2)
    plain = truncated_sum(Records([2, 3, 5, 7], [0.7] * 4), 1, 1.3)
    assert rotated == pytest.approx(plain, rel=1e-12)


def test_truncated_sum_rejects_s_at_or_below_one():
    records = constant_records(1.0, 10)
    with pytest.raises(ParameterError):
        truncated_sum(records, 2, 1.0)
    with pytest.raises(ParameterError):
        truncated_sum(records, 2, 0.5)


@pytest.mark.parametrize(
    "k, s, phi",
    [(2, math.inf, 0.0), (2, math.nan, 0.0), (2, 1.2, math.inf), (2, 1.2, math.nan), (-1, 1.2, 0.0)],
)
def test_truncated_sum_rejects_bad_args(k, s, phi):
    with pytest.raises(ParameterError):
        truncated_sum(constant_records(1.0, 10), k, s, phi)


def test_truncated_sum_overflow_raises_without_warning():
    # the test config turns any RuntimeWarning into an error
    with pytest.raises(ParameterError):
        truncated_sum(constant_records(2.0, 10), 100_000, 1.2)


@pytest.mark.parametrize(
    "k,message",
    [
        (2**63, f"the k={2**63} power sum overflows a double"),
        (2**64, f"the k={2**64} power sum overflows a double"),
        (10**400, r"the k-th power sum overflows a double \(k has 401 digits\)"),
        (10**5000, r"the k-th power sum overflows a double \(k has 5001 digits\)"),
    ],
    ids=["2**63", "2**64", "10**400", "10**5000"],
)
def test_truncated_sum_exponent_past_int64_is_an_overflow(k, message):
    # numpy takes such a k as a double; 10**400 overflows even that, and
    # 10**5000 is past the 4300 digits str() converts
    with pytest.raises(ParameterError, match=f"^{message}$"):
        truncated_sum(constant_records(2.0, 10), k, 1.2)


def test_probe_rejects_infinite_slope_from_finite_sums():
    # every k = 1749 sum is finite, but the least-squares fit overflows
    records = constant_records(1.5, 1000)
    assert math.isfinite(truncated_sum(records, 1749, 1.1))
    with pytest.raises(ParameterError):
        pole_order_probe(records, 1749, [1.5, 1.3, 1.2, 1.1])


def test_empty_dataset_rejected():
    with pytest.raises(DatasetError):
        truncated_sum(Records([], []), 2, 1.2)
    with pytest.raises(DatasetError):
        density_profile(Records([], []), 0.9, "above")


def test_operating_point():
    records = constant_records(1.0, 100)
    X = records.p[-1]
    assert operating_point(records) == pytest.approx(1 + 1 / math.log(X))


def test_density_profile_zero_threshold_partition():
    # with c = 0 and no zero values, above + below account for every prime
    ps = first_n_primes(200)
    records = Records(ps, [1.0 if p % 4 == 1 else -1.0 for p in ps])
    above = density_profile(records, 0.0, "above")
    below = density_profile(records, 0.0, "below")
    assert above.count + below.count == len(records)
    assert above.natural_proportion + below.natural_proportion == pytest.approx(1.0)
    assert above.dirichlet_weighted + below.dirichlet_weighted == pytest.approx(1.0)


def test_density_profile_counts():
    records = constant_records(1.5, 100)
    report = density_profile(records, 0.9, "above")
    assert report.count == 100
    assert report.natural_proportion == 1.0
    assert density_profile(records, 0.9, "below").count == 0
    assert report.X == records.p[-1]


def test_density_profile_rejects_bad_args():
    records = constant_records(1.0, 10)
    with pytest.raises(ParameterError):
        density_profile(records, -0.1, "above")
    with pytest.raises(ParameterError):
        density_profile(records, 0.5, "sideways")


@pytest.mark.parametrize("c, phi", [(math.inf, 0.0), (math.nan, 0.0), (0.5, math.inf), (0.5, math.nan)])
def test_density_profile_rejects_non_finite_args(c, phi):
    with pytest.raises(ParameterError):
        density_profile(constant_records(1.0, 10), c, "above", phi)


def test_probe_scales_with_squared_amplitude():
    # with a_p = c the k = 2 sum is c^2 * sum p^-s, so the slope doubles
    # exactly when c^2 doubles, whatever the truncation bias
    records_one = constant_records(1.0, 5000)
    records_sqrt2 = constant_records(math.sqrt(2), 5000)
    grid = [1.5, 1.3, 1.2, 1.1]
    slope_one = pole_order_probe(records_one, 2, grid)
    slope_sqrt2 = pole_order_probe(records_sqrt2, 2, grid)
    assert slope_one > 0.4  # a genuine pole registers as a clearly positive slope
    assert slope_sqrt2 == pytest.approx(2 * slope_one, rel=1e-9)


def test_probe_slope_grows_with_truncation():
    # the finite-X slope under-estimates the pole order but improves as X grows
    grid = [1.5, 1.3, 1.2, 1.1]
    small = pole_order_probe(constant_records(1.0, 500), 2, grid)
    large = pole_order_probe(constant_records(1.0, 5000), 2, grid)
    assert large > small


def test_probe_odd_power_of_symmetric_data_is_flat():
    ps = first_n_primes(5000)
    records = Records(ps, [1.0 if i % 2 else -1.0 for i in range(len(ps))])
    slope = pole_order_probe(records, 1, [1.5, 1.3, 1.2, 1.1])
    assert abs(slope) < 0.1


def test_probe_grid_validation():
    records = constant_records(1.0, 100)
    with pytest.raises(ParameterError):
        pole_order_probe(records, 2, [1.5, 1.3])  # too few points
    with pytest.raises(ParameterError):
        pole_order_probe(records, 2, [1.2, 1.15, 1.1])  # span below factor 4
    with pytest.raises(ParameterError):
        pole_order_probe(records, 2, [1.5, 1.2, 0.9])  # point at or below 1
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            pole_order_probe(records, 2, [1.5, bad, 1.1, 1.05])  # non-finite point


def test_verify_t1pos_passes_on_large_data():
    records = constant_records(1.0, 1000)
    report = verify_theorem(records, "t1pos")
    assert report.passed
    assert report.count == 1000
    assert report.threshold == pytest.approx(0.90425, abs=1e-4)
    assert len(report.witnesses) == 10


def test_verify_t1pos_fails_on_small_values():
    records = constant_records(0.1, 1000)
    report = verify_theorem(records, "t1pos")
    assert not report.passed
    assert report.count == 0
    assert report.witnesses == ()


def test_verify_t1neg_threshold_and_sign():
    records = constant_records(-1.3, 1000)
    report = verify_theorem(records, "t1neg")
    assert report.passed
    assert report.threshold == pytest.approx(-1.16499, abs=1e-4)
    # the same data fails the positive-side check
    assert not verify_theorem(records, "t1pos").passed


def test_verify_t2_rotation():
    phi = math.pi / 3
    value = 0.8 * cmath.exp(-1j * phi)
    ps = first_n_primes(500)
    records = Records(ps, [value] * len(ps))
    report = verify_theorem(records, "t2", phi=phi, self_dual=False)
    assert report.passed
    assert report.threshold == 0.5


def test_verify_epsilon_widens_the_net():
    records = constant_records(0.89, 1000)
    assert not verify_theorem(records, "t1pos", epsilon=0.001).passed
    assert verify_theorem(records, "t1pos", epsilon=0.02).passed


def test_verify_self_dual_gating():
    records = constant_records(1.0, 100)
    for theorem in ("t1pos", "t1neg"):
        with pytest.raises(DatasetError, match=f"^theorem {theorem} requires a self-dual dataset$"):
            verify_theorem(records, theorem, self_dual=False)
    verify_theorem(records, "t2", self_dual=False)  # allowed


def test_verify_unknown_theorem():
    with pytest.raises(ParameterError):
        verify_theorem(constant_records(1.0, 10), "t9")


def test_verify_required_is_one_percent():
    records = constant_records(1.0, 1000)
    assert verify_theorem(records, "t1pos").required == 10


def test_verify_witnesses_sorted_by_extremity():
    ps = first_n_primes(100)
    records = Records(ps, [2.0 - i * 1e-4 for i in range(len(ps))])
    report = verify_theorem(records, "t1pos")
    values = [v for _, v in report.witnesses]
    assert values == sorted(values, reverse=True)
    assert report.witnesses[0][0] == 2  # the largest value sits at the first prime


BOUNDARY_ENTRIES = st.sampled_from(["c-eps", "-c+eps"])


@given(
    st.sampled_from(["t1pos", "t1neg", "t2"]),
    st.lists(st.one_of(st.complex_numbers(max_magnitude=3), BOUNDARY_ENTRIES), min_size=1, max_size=40),
    st.one_of(st.just(0.0), st.floats(0, math.pi)),
    st.floats(0, 0.5),
)
def test_verify_counts_follow_the_written_out_one_sided_rules(theorem, entries, phi, eps):
    # t1pos and t2 count v > c - eps, t1neg counts v < -c + eps; the placed
    # entries sit exactly on those boundaries when phi = 0
    bound = {"t1pos": positive_side, "t1neg": negative_side, "t2": lambda: non_self_dual(phi)}
    c = bound[theorem]().constant
    placed = {"c-eps": c - eps, "-c+eps": -c + eps}
    a = [placed.get(e, e) for e in entries]
    records = Records(first_n_primes(len(a)), a)
    v = (np.array(a, dtype=complex) * cmath.exp(1j * phi)).real
    report = verify_theorem(records, theorem, phi=phi, epsilon=eps)
    if theorem == "t1neg":
        assert report.count == sum(x < -c + eps for x in v)
        assert report.threshold == -c
    else:
        assert report.count == sum(x > c - eps for x in v)
        assert report.threshold == c
