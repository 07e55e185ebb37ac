"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N (...): PASS" line on success; a
failing assertion marks the criterion as failed.  Statistical checks use the
session fixtures from conftest (fixed seed, fixed cap) so every run sees the
same data; criterion 6 adds a few more fixed seeds.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from heckebound.assumptions import (
    GENERAL_SELF_DUAL,
    OCTAHEDRAL_SELF_DUAL,
    TETRAHEDRAL_SELF_DUAL,
    RepType,
    TypeAssumption,
)
from heckebound.bounds import negative_side, non_self_dual, positive_side, positive_side_weak
from heckebound.datasets import Records, first_n_primes, sato_tate_sample
from heckebound.density import density_profile, pole_order_probe, truncated_sum, verify_theorem
from heckebound.poles import tensor_power_pole
from heckebound.repring import cg_pair, tensor_power
from satake import SatakePoint, eval_char, power_sum

NSD = TypeAssumption(RepType.GENERAL, False, 2)


def test_criterion_1_pole_table():
    start = time.perf_counter()
    table = {
        (2, GENERAL_SELF_DUAL): 1,
        (2, NSD): 0,
        (3, GENERAL_SELF_DUAL): 0,
        (3, NSD): 0,
        (4, GENERAL_SELF_DUAL): 2,
        (6, GENERAL_SELF_DUAL): 5,
        (6, TETRAHEDRAL_SELF_DUAL): 6,
        (7, GENERAL_SELF_DUAL): 0,
        (7, TETRAHEDRAL_SELF_DUAL): 0,
        (7, OCTAHEDRAL_SELF_DUAL): 0,
        (8, GENERAL_SELF_DUAL): 14,
    }
    for (k, assumption), expected in table.items():
        assert tensor_power_pole(k, assumption).total_order == expected, (k, assumption)
    multiplicities = {
        3: [1, 2],
        4: [1, 2, 3],
        6: [1, 4, 4],
        7: [1, 2, 2, 3, 4, 6],
        8: [1, 4, 4, 6, 9, 12],
    }
    for k, expected in multiplicities.items():
        cert = tensor_power_pole(k, GENERAL_SELF_DUAL)
        assert sorted(f.multiplicity for f in cert.factors) == expected, k
        assert cert.factors, k
    assert time.perf_counter() - start < 1.0
    print("criterion 1 (pole table with certificates): PASS")


def test_criterion_2_constants():
    start = time.perf_counter()
    pos = positive_side(2, 14)
    assert pos.constant == pytest.approx(0.9042, abs=5e-4)
    assert pos.optimizer == pytest.approx(1.331, abs=5e-4)
    neg = negative_side(5)
    assert neg.constant == pytest.approx((5 / 2) ** (1 / 6), abs=1e-9)
    assert math.floor(neg.constant * 1000) / 1000 == 1.164
    assert positive_side_weak().constant == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    for phi in (0.0, math.pi / 4, math.pi / 2):
        assert non_self_dual(phi).constant == pytest.approx(0.5, abs=1e-9)
    assert time.perf_counter() - start < 1.0
    print("criterion 2 (optimized constants): PASS")


def test_criterion_3_symbolic_numeric_equivalence():
    start = time.perf_counter()
    rng = random.Random(12345)

    def draw():
        return cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))

    reps = {k: tensor_power(k) for k in (1, 2, 3, 4)}
    for _ in range(250):  # 250 points x 4 powers = 1000 evaluations
        s = SatakePoint(draw(), draw())
        trace = s.alpha + s.beta
        for k, rep in reps.items():
            assert abs(eval_char(rep, s) - trace ** k) < 1e-10

    for a in range(9):
        for b in range(9):
            assert cg_pair(a, b).dim == (a + 1) * (b + 1)

    for _ in range(100):
        alpha, beta = draw(), draw()
        a_p, omega_p = alpha + beta, alpha * beta
        for k in range(17):
            assert abs(power_sum(a_p, omega_p, k) - (alpha ** k + beta ** k)) < 1e-9
    assert time.perf_counter() - start < 10.0
    print("criterion 3 (symbolic/numeric equivalence): PASS")


def test_criterion_4_dataset_generation(ec_11a1, tau_10k, ec_elapsed):
    assert ec_elapsed < 30.0
    assert ec_11a1.records.p[-1] <= 10_000
    for p, raw in zip(ec_11a1.records.p.tolist(), ec_11a1.records.a_raw):
        assert abs(raw) <= 2 * math.sqrt(p)
    raw = dict(zip(tau_10k.records.p.tolist(), tau_10k.records.a_raw))
    assert raw[2] == -24
    assert raw[3] == 252
    assert raw[5] == 4830
    # multiplicativity tau(6) = tau(2) tau(3) checked on the raw expansion
    from heckebound.datasets import tau_coefficients

    taus = tau_coefficients(10)
    assert taus[5] == taus[1] * taus[2]
    print("criterion 4 (dataset generation): PASS")


def test_criterion_5_empirical_theorem_proxy(ec_11a1):
    records = ec_11a1.records

    def st_cdf(theta):
        return (theta - math.sin(theta) * math.cos(theta)) / math.pi

    # oracle: Sato-Tate measure of {2 cos(theta) > c} and {2 cos(theta) < -c}
    oracle_above = st_cdf(math.acos(0.904 / 2))
    oracle_below = 1.0 - st_cdf(math.acos(-1.164 / 2))
    assert oracle_above == pytest.approx(0.222, abs=5e-3)
    assert oracle_below == pytest.approx(0.152, abs=5e-3)

    above = density_profile(records, 0.904, "above")
    below = density_profile(records, 1.164, "below")
    assert abs(above.natural_proportion - oracle_above) <= 0.05
    assert abs(below.natural_proportion - oracle_below) <= 0.05

    pos = verify_theorem(records, "t1pos")
    neg = verify_theorem(records, "t1neg")
    assert pos.passed and pos.count >= 100
    assert neg.passed and neg.count >= 100
    print("criterion 5 (empirical density proxy): PASS")


# Sato-Tate moments: E a^(2j) is the j-th Catalan number 1, 1, 2, 5, 14, so
# for k = 2, 3, 4 the mean of a^k is 1, 0, 2 and its variance 1, 5, 10.
ST_MOMENTS = {2: (1, 1), 3: (0, 5), 4: (2, 10)}
MOMENT_SDS = 5  # every check below allows this many standard deviations


def test_criterion_6_moment_probes(st_100k):
    grid = [1.5, 1.3, 1.2, 1.1]
    n = len(st_100k.records)
    samples = [st_100k] + [sato_tate_sample(n, seed) for seed in (1, 2, 3, 4)]
    for data in samples:
        records = data.records
        a = np.array(records.a_re)
        s = 1.0 + 1.0 / math.log(records.p[-1])
        weights = np.array(records.p, dtype=float) ** -s
        for k, (mean, var) in ST_MOMENTS.items():
            # the draws are independent, so the unweighted mean has variance
            # var/n and the Dirichlet sum mean*sum(w) and variance var*sum(w^2)
            assert abs(float(np.mean(a**k)) - mean) <= MOMENT_SDS * math.sqrt(var / n)
            expected = mean * weights.sum()
            spread = math.sqrt(var * (weights**2).sum())
            assert abs(truncated_sum(records, k, s) - expected) <= MOMENT_SDS * spread
    # the fit against log(1/(s-1)) is biased low by truncation: report each
    # probe slope beside the slope of sum(p^-s) itself times the moment
    slope0 = pole_order_probe(st_100k.records, 0, grid)
    slopes = {k: pole_order_probe(st_100k.records, k, grid) for k in ST_MOMENTS}
    for k, (mean, _) in ST_MOMENTS.items():
        print(f"k={k}: probe slope {slopes[k]:.3f}, {mean} x sum(p^-s) slope {mean * slope0:.3f}")
    assert 0.5 <= slopes[2] <= 1.5
    print("criterion 6 (moment probes): PASS")


def test_criterion_7_rotation_consistency():
    rng = random.Random(99)
    primes = first_n_primes(2000)
    values = [cmath.rect(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)) for p in primes]
    records = Records(primes, [a.real for a in values], [a.imag for a in values])
    for phi in (0.3, math.pi / 4, 1.9):
        turned = [a * cmath.exp(1j * phi) for a in values]
        rotated = Records(primes, [a.real for a in turned], [a.imag for a in turned])
        for c, side in [(0.5, "above"), (0.9, "above"), (1.1, "below")]:
            direct = density_profile(records, c, side, phi=phi)
            pre = density_profile(rotated, c, side, phi=0.0)
            assert direct.count == pre.count
            assert direct.natural_proportion == pre.natural_proportion
    print("criterion 7 (rotation consistency): PASS")
