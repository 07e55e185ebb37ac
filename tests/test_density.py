import cmath
import math
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heckebound.bounds import THEOREMS, negative_side, non_self_dual, positive_side
from heckebound import density
from heckebound.datasets import CSV_BLOCK, Records, first_n_primes, sato_tate_sample, tau_ap
from heckebound.density import (
    density_profile,
    pole_order_probe,
    truncated_sum,
    verify_theorem,
)
from heckebound.errors import DatasetError, ParameterError


def constant_records(value, n=1000):
    ps = first_n_primes(n)
    return Records(ps, [value] * len(ps))


def test_truncated_sum_matches_naive():
    records = Records([2, 3, 5], [1.5, -0.5, 0.25])
    expected = 1.5 ** 2 / 2 ** 1.2 + 0.25 / 3 ** 1.2 + 0.0625 / 5 ** 1.2
    assert truncated_sum(records, 2, 1.2) == pytest.approx(expected, rel=1e-12)


def test_truncated_sum_rotation():
    records = Records([2, 3, 5, 7], [0.0] * 4, [0.7] * 4)
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


@pytest.mark.parametrize("k", [2**63, 2**64, 10**400, 10**5000], ids=["2**63", "2**64", "10**400", "10**5000"])
def test_truncated_sum_exponent_past_int64_is_an_overflow(k):
    # pow takes such a k as a double; 10**400 overflows even that, and
    # 10**5000 is past the 4300 digits str() converts, so the message names no k
    with pytest.raises(ParameterError, match="^the k-th power sum overflows a double$"):
        truncated_sum(constant_records(2.0, 10), k, 1.2)


def test_probe_rejects_infinite_slope_from_finite_sums():
    # every k = 1749 sum is finite, but the least-squares fit overflows
    records = constant_records(1.5, 1000)
    assert math.isfinite(truncated_sum(records, 1749, 1.1))
    with pytest.raises(ParameterError):
        pole_order_probe(records, 1749, [1.5, 1.3, 1.2, 1.1])


def test_probe_rejects_opposite_infinities_in_the_fit():
    # the sums are 0, 0, ~1e307, ~1e307, and the wide grid's centred x give the
    # first two products +inf and -inf, which fsum refuses with a ValueError
    records = Records([2, 3], [1e307, 1e307])
    with pytest.raises(ParameterError, match="^the k=1 power sums give no finite slope$"):
        pole_order_probe(records, 1, [1e300, 1e10, 1 + 1e-10, 1 + 2e-16])


def test_probe_slope_is_the_same_on_every_interpreter():
    # builtin sum adds floats with compensation only from Python 3.12, so a fit
    # through it gave these two slopes one ulp apart on 3.10 and 3.11
    grid = [1.5, 1.3, 1.2, 1.1]
    assert pole_order_probe(sato_tate_sample(200, 1).records, 2, grid) == 0.45467652034031336
    assert pole_order_probe(tau_ap(100).records, 4, grid) == 0.2421428849322781


def test_empty_dataset_rejected():
    empty = Records([], [])
    calls = [
        lambda: truncated_sum(empty, 2, 1.2),
        lambda: density_profile(empty, 0.9, "above"),
        lambda: verify_theorem(empty, "t1pos"),
        lambda: pole_order_probe(empty, 4, [1.5, 1.3, 1.2, 1.1]),
    ]
    for call in calls:
        with pytest.raises(DatasetError, match="^empty dataset$"):
            call()


def test_operating_point():
    records = constant_records(1.0, 100)
    X = records.p[-1]
    assert density_profile(records, 0.9, "above").s_used == 1.0 + 1.0 / math.log(X)


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


@given(
    grid=st.lists(st.floats(1.0, 1e6, exclude_min=True), min_size=3, max_size=8).filter(
        lambda grid: max(grid) - 1.0 >= 4.0 * (min(grid) - 1.0)  # the probe's span check
    ),
    data=st.data(),
)
def test_probe_slope_matches_polyfit(grid, data):
    # the closed-form slope against numpy's least-squares fit as the oracle, on
    # drawn sums; a slope near 0 beside large sums cancels in both, so the bound
    # also scales with the sums (each x lies at least log 4 from another)
    sums = data.draw(st.lists(st.floats(-1e15, 1e15), min_size=len(grid), max_size=len(grid)))
    x = [math.log(1.0 / (s - 1.0)) for s in grid]
    oracle = float(np.polyfit(x, sums, 1)[0])
    with mock.patch.object(density, "_truncated_sums", lambda records, k, s_grid: list(sums)):
        slope = pole_order_probe(None, 2, grid)
    assert slope == pytest.approx(oracle, rel=1e-12, abs=1e-12 * max(map(abs, sums)))


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
    records = Records(ps, [value.real] * len(ps), [value.imag] * len(ps))
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
    # among ties the smallest p comes first, as in the benchmark's reference
    ps = first_n_primes(1000)
    a = np.random.default_rng(7).choice([1.2, 1.5, 1.6], size=len(ps))
    report = verify_theorem(Records(ps, a), "t1pos")
    assert report.count > 10
    ranked = sorted(zip(ps, a.tolist()), key=lambda w: -w[1])  # sorted is stable
    assert list(report.witnesses) == ranked[:10]


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
    a = [complex(placed.get(e, e)) for e in entries]
    records = Records(first_n_primes(len(a)), [z.real for z in a], [z.imag for z in a])
    v = [(z * cmath.exp(1j * phi)).real for z in a]
    report = verify_theorem(records, theorem, phi=phi, epsilon=eps)
    if theorem == "t1neg":
        assert report.count == sum(x < -c + eps for x in v)
        assert report.threshold == -c
    else:
        assert report.count == sum(x > c - eps for x in v)
        assert report.threshold == c


# ---------------------------------------------------------------------------
# the rotation and the power sums against one-shot Python expressions


def parent_rotated(records, phi):
    # the real part of each complex product, as Python's complex multiply gives it
    turn = cmath.exp(1j * phi)
    return array("d", [(complex(x, y) * turn).real for x, y in zip(records.a_re, records.a_im)])


@pytest.fixture(scope="module")
def spanning_records():
    # two full blocks and a short third, with signed zeros that a rotation by
    # phi = 0.0 and by phi = -0.0 turns differently
    n = 2 * CSV_BLOCK + 5
    rng = np.random.default_rng(26)
    re, im = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    re[CSV_BLOCK - 2 : CSV_BLOCK + 2] = [-0.0, 0.0, -0.0, 0.0]
    im[CSV_BLOCK - 2 : CSV_BLOCK + 2] = [0.0, -0.0, -0.0, 0.0]
    return Records(first_n_primes(n), re, im)


PHIS = [0.0, -0.0, math.pi / 4, 1.9]


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("k", range(9))
def test_truncated_sums_match_the_one_shot_power_to_the_bit(spanning_records, k, phi):
    # each term is v ** k * p ** -s, added by math.fsum, which rounds once
    grid = [1.5, 1.3, 1.2, 1.1]
    terms = list(zip(parent_rotated(spanning_records, phi), spanning_records.p))
    want = [math.fsum(v ** k * p ** -s for v, p in terms) for s in grid]
    got = density._truncated_sums(spanning_records, k, grid, phi)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("phi", PHIS)
def test_profile_and_verdict_match_the_one_shot_rotation_to_the_bit(monkeypatch, spanning_records, phi):
    def reports():
        sides = [(c, side) for c in (0.0, 0.5) for side in ("above", "below")]
        profiles = [density_profile(spanning_records, c, side, phi) for c, side in sides]
        verdicts = [verify_theorem(spanning_records, t, phi=phi) for t in ("t1pos", "t1neg", "t2")]
        return repr(profiles + verdicts)  # repr tells -0.0 from 0.0 and every bit of a double

    got = reports()
    monkeypatch.setattr(density, "_rotated", parent_rotated)
    assert got == reports()


@pytest.mark.parametrize("phi", [0.0, -0.0, math.pi / 4, math.pi, 4.0, -1.0])
@pytest.mark.parametrize("im", [0.0, -0.0, 1e-300], ids=["plus-zero", "minus-zero", "tiny"])
def test_rotation_of_real_records_matches_the_complex_product_to_the_bit(phi, im):
    # a_re alone at cos(phi) = 1.0 where every a_im is +0.0 and sin(phi) >= +0.0;
    # the one product a_re cos(phi) - a_im sin(phi) elsewhere, which gives a_re
    # cos(phi) to the bit at phi = pi/4 and pi over +0.0 imaginary parts; a -0.0
    # or a nonzero a_im, or sin(phi) < 0, turns a -0.0 real part into +0.0
    re = [-0.0, 0.0, 1.5, -2.0, 5e-324, -1e300]
    records = Records(first_n_primes(len(re)), re, [0.0] * (len(re) - 1) + [im])
    want = parent_rotated(records, phi)
    assert density._rotated(records, phi).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2**63, 2**64, 10**400], ids=["2**63", "2**64", "10**400"])
def test_in_place_power_keeps_the_overflow_messages(spanning_records, k):
    with pytest.raises(ParameterError, match="^the k-th power sum overflows a double$"):
        truncated_sum(spanning_records, k, 1.2)


@pytest.fixture(scope="module")
def st_records():
    return sato_tate_sample(10**5, 1).records


def traced_peak(call):
    call()  # lazy imports and caches come before the count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_holds_one_float_column_and_one_weight_column(st_records):
    # the rotated values and their powers, 8 bytes a record each, with the
    # weights streamed; a complex rotation and a separate power array held 40
    peak = traced_peak(lambda: pole_order_probe(st_records, 4, [1.5, 1.3, 1.2, 1.1]))
    assert peak < 32 * len(st_records)


def test_verify_holds_no_complex_temporary(st_records):
    # the rotated values and the hits' indices peak near 10 bytes a record;
    # a one-shot complex rotation reached 32
    peak = traced_peak(lambda: verify_theorem(st_records, "t2", phi=0.7))
    assert peak < 28 * len(st_records)


@pytest.mark.parametrize("theorem, phi", [("t1pos", 0.0), ("t1neg", 0.0), ("t2", 1.9)])
def test_verify_holds_no_signed_copy_of_the_rotated_values(st_records, theorem, phi):
    # the rotated values and the hits' indices peak at 8 to 10 bytes a record;
    # a signed copy beside the values adds 8 more
    peak = traced_peak(lambda: verify_theorem(st_records, theorem, phi=phi))
    assert peak < 16 * len(st_records)
    if phi == 0.0:  # the identity rotation reads a_re in place: only the hits' indices remain
        assert peak < 4 * len(st_records)
    # the witnesses are the records' own rotated values, not the signed ones
    vals = np.array(parent_rotated(st_records, phi))
    top = np.argsort(-THEOREMS[theorem][0] * vals, kind="stable")[:10]
    want = tuple((st_records.p[i], float(vals[i])) for i in top)
    assert repr(verify_theorem(st_records, theorem, phi=phi).witnesses) == repr(want)
