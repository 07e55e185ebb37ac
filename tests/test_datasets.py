import functools
import hashlib
import math
import os
import pwd
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from collections import ChainMap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heckebound import datasets
from heckebound.cli import main
from heckebound.datasets import (
    CACHE_ENTRIES,
    CACHE_MIN_BYTES,
    CSV_BLOCK,
    CURVE_11A1,
    EC_BLOCK,
    EC_X_CAP,
    MAX_P,
    ST_N_CAP,
    TAU_MODULI,
    TAU_X_CAP,
    Dataset,
    DatasetHeader,
    Records,
    dumps_csv,
    ec_ap,
    first_n_primes,
    loads_csv,
    primes_up_to,
    read_csv,
    sato_tate_sample,
    tau_ap,
    tau_coefficients,
    write_csv,
)
from heckebound.errors import DatasetError, DatasetFormatError, ParameterError

from csv_oracle import oracle
from eta import eta_quotient

SRC = str(Path(datasets.__file__).resolve().parents[1])
# the environment of a CLI process that imports this checkout's package: a view of
# os.environ, so a variable that a fixture sets (XDG_CACHE_HOME) reaches the process
CLI_ENV = ChainMap({"PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}, os.environ)

# ---------------------------------------------------------------------------
# primes


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == primes_up_to(0) == primes_up_to(-5) == []
    assert primes_up_to(2) == [2]


def test_first_n_primes():
    assert first_n_primes(5) == [2, 3, 5, 7, 11]
    for n in range(1, 7):
        assert first_n_primes(n) == [2, 3, 5, 7, 11, 13][:n]
    assert len(first_n_primes(1000)) == 1000


def test_first_n_primes_sieves_to_the_rosser_schoenfeld_bound(monkeypatch):
    # p_n < n (ln n + ln ln n) for n >= 6 is a theorem, so the sieve needs no
    # slack past it but the one for float rounding
    primes = primes_up_to(20_000)
    for n in range(1, 2001):
        assert first_n_primes(n) == primes[:n]
    sieve, asked = datasets._sieve, []
    monkeypatch.setattr(datasets, "_sieve", lambda x: asked.append(x) or sieve(x))
    n = ST_N_CAP  # 10**5
    assert first_n_primes(n)[-1] == MAX_P
    [x] = asked
    assert x <= int(n * (math.log(n) + math.log(math.log(n)))) + 1


# ---------------------------------------------------------------------------
# elliptic curve point counts


def brute_force_trace(A, B, p):
    # independent oracle: count solutions by a double loop over x and y
    points = 1  # point at infinity
    for x in range(p):
        rhs = (x ** 3 + A * x + B) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                points += 1
    return p + 1 - points


def test_ec_matches_brute_force_small_curve():
    A, B = -2, 3
    data = ec_ap(A, B, 50)
    for p, raw in zip(data.records.p.tolist(), data.records.a_raw):
        assert raw == brute_force_trace(A, B, p)


def sweep_traces(A, B, data):
    # the O(p) character sweep, the batch's fallback and oracle
    return [datasets._ec_trace(A, B, p) for p in data.records.p.tolist()]


@pytest.mark.parametrize(
    "A, B, X",
    [
        (*CURVE_11A1, 20_000),
        (-2, 3, 5_000),
        (1, 0, 5_000),  # CM by Z[i]
        (-1, 0, 5_000),  # CM by Z[i], full rational 2-torsion
        (0, 7, 5_000),  # CM by Z[(1 + sqrt(-3))/2]
        (-7, 6, 5_000),  # (x - 1)(x - 2)(x + 3): full rational 2-torsion, no CM
    ],
)
def test_ec_matches_character_sweep(A, B, X):
    data = ec_ap(A, B, X)
    assert list(data.records.a_raw) == sweep_traces(A, B, data)


BATCH_PRIMES = primes_up_to(3000)[1:]  # every odd prime below 3000


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.lists(st.sampled_from(BATCH_PRIMES), min_size=1, max_size=6, unique=True).map(sorted),
)
# both groups have points of order 2s and below (s = 6 at p = 233), where one
# giant step matches several baby steps
@example(-3, 3, [233])
@example(-2, 1, [233])
@example(-2, 3, [3])  # 3 is good here, and ec_ap sends it to the batch too
def test_bsgs_matches_character_sweep(A, B, block):
    # a block mixes large and small primes as ec_ap's do, so a small prime
    # meets a baby count s sized for the largest
    ps = np.array([p for p in block if (4 * A ** 3 + 27 * B ** 2) % p], dtype=np.int64)
    assume(len(ps))
    for point in range(4):
        ap, decided = datasets._ec_trace_batch(A, B, ps, point)
        for p, a in zip(ps[decided].tolist(), ap[decided].tolist()):
            assert a == datasets._ec_trace(A, B, p)


def affine_add(P, Q, a, p):
    # P + Q on y^2 = x^3 + ax + b mod p in affine coordinates, None for O
    if P is None or Q is None:
        return P if Q is None else Q
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


@pytest.mark.parametrize("A, B, p", [(-3, 3, 233), (-2, 1, 233)])
def test_annihilators_complete_on_every_point(A, B, p):
    # both groups have points of order 2s and below (s = 6 at p = 233), where
    # one giant step matches several baby steps; walk N*P over the Hasse
    # interval for the batch's point at every x = point - 1/2 mod p, the point
    # (xf, f^2) of E_f: y^2 = x^3 + Af^2 x + Bf^3, which has y = 0 where f = 0
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    ps, sweep = np.array([p], dtype=np.int64), datasets._ec_trace(A, B, p)
    several = settled = roots = 0
    for point in range(p):
        x = (p // 2 + point) % p
        f = (x ** 3 + A * x + B) % p
        if f == 0:
            assert not datasets._ec_trace_batch(A, B, ps, point)[1][0]
            roots += 1
            continue
        a, P = A * f * f % p, (x * f % p, f * f % p)
        R, walked = None, set()
        for n in range(1, hi + 1):
            R = affine_add(R, P, a, p)
            if n >= lo and R is None:
                walked.add(n)
        several += len(walked) > 1
        ap, decided = datasets._ec_trace_batch(A, B, ps, point)
        if decided[0]:
            (N,) = walked
            assert int(ap[0]) == (p + 1 - N if pow(f, (p - 1) // 2, p) == 1 else N - p - 1)
            assert int(ap[0]) == sweep
        assert decided[0] == (len(walked) == 1)
        settled += bool(decided[0])
    assert several and settled and roots


@pytest.mark.parametrize(
    "A, B, X",
    [
        (*CURVE_11A1, 20_000),
        (1, 0, 5_000),  # CM by Z[i]
        (-1, 0, 5_000),  # CM by Z[i], full rational 2-torsion
        (0, 7, 5_000),  # CM by Z[(1 + sqrt(-3))/2]
        (-7, 6, 5_000),  # (x - 1)(x - 2)(x + 3): full rational 2-torsion, no CM
    ],
)
def test_ec_batch_matches_scalar_path(A, B, X):
    # every point on every good prime in ec_ap's blocks, not only on the
    # primes the points before it leave: each decision equals the sweep
    data = ec_ap(A, B, X)
    swept = dict(zip(data.records.p.tolist(), sweep_traces(A, B, data)))
    ps, settled = np.array(data.records.p), 0
    for point in range(4):
        for i in range(0, len(ps), EC_BLOCK):
            block = ps[i : i + EC_BLOCK]
            ap, decided = datasets._ec_trace_batch(A, B, block, point)
            assert ap[decided].tolist() == [swept[p] for p in block[decided].tolist()]
            settled += int(decided.sum())
    assert settled


@settings(max_examples=30, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_ec_batch_matches_scalar_path_on_drawn_curves(A, B):
    # the scalar path is the sweep, the only per-prime count
    assume(4 * A ** 3 + 27 * B ** 2)
    data = ec_ap(A, B, 3000)
    assert list(data.records.a_raw) == sweep_traces(A, B, data)


def test_batch_leaves_the_scalar_path_only_what_it_cannot_decide(monkeypatch):
    sweep, swept = datasets._ec_trace, []

    def counted(A, B, p):
        swept.append(p)
        return sweep(A, B, p)

    monkeypatch.setattr(datasets, "_ec_trace", counted)
    # y^2 = x^3 + 1 has rational points of order 2, 3 and 6 at x = -1, 0 and 2;
    # a point at x = -1/2 is none of them, so the first pass decides most
    # primes from 5 (3 divides the discriminant), and the sweep settles what
    # the four passes leave
    ps = np.array(BATCH_PRIMES[1:], dtype=np.int64)
    assert datasets._ec_trace_batch(0, 1, ps, 0)[1].sum() > len(ps) / 2
    data = ec_ap(0, 1, 3000)
    assert swept
    assert list(data.records.a_raw) == sweep_traces(0, 1, data)
    # a batch that decides nothing would sweep every prime
    for A, B, X in [(0, 1, 100_000), (*CURVE_11A1, 40_000)]:
        swept.clear()
        data = ec_ap(A, B, X)
        assert 0 < len(swept) < 0.01 * len(data.records)
        raw = dict(zip(data.records.p.tolist(), data.records.a_raw))
        assert [raw[p] for p in swept] == [sweep(A, B, p) for p in swept]


def test_bsgs_sweeps_only_where_the_points_run_out(monkeypatch):
    batch, sweep, left, swept = datasets._ec_trace_batch, datasets._ec_trace, [], []

    def recorded(A, B, ps, point):
        ap, decided = batch(A, B, ps, point)
        if point == 3:
            left.extend(ps[~decided].tolist())
        return ap, decided

    def counted(A, B, p):
        swept.append(p)
        return sweep(A, B, p)

    monkeypatch.setattr(datasets, "_ec_trace_batch", recorded)
    monkeypatch.setattr(datasets, "_ec_trace", counted)
    # the sweep counts what the fourth point leaves of each block, nothing
    # else, p = 3 included; 3 is good only for y^2 = x^3 - 2x + 3
    cases = [(-6, 0, 100), (-2, 3, 3000), (0, 1, 3000), (*CURVE_11A1, 40_000)]
    for A, B, X in cases:
        left.clear()
        swept.clear()
        data = ec_ap(A, B, X)
        assert swept == left
        raw = dict(zip(data.records.p.tolist(), data.records.a_raw))
        assert [raw[p] for p in swept] == [sweep(A, B, p) for p in swept]
        if A == -6:
            # every point of y^2 = x^3 - 6x mod 5 leaves two counts in the
            # Hasse interval
            assert 5 in left
    assert swept and len(swept) < 0.01 * len(data.records)


def test_batch_memory_stays_blocked(monkeypatch):
    # the bound is 3x ec_ap's peak with every prime sent to a stubbed sweep:
    # the lists and columns ec_ap builds anyway.  The batched peak, about 2.4x
    # that, is set by a block's step tables and its match arrays.  A bad prime
    # (a chain step at O) has every step at x = 0 once inverted, so in the match
    # each of its giant steps would meet each baby step: about 23,000 matches in
    # the second pass's one block (p = 5 to 39761), a peak of 3.9x.  One block
    # of every prime peaks at about 16x.
    def peak():
        tracemalloc.start()
        try:
            ec_ap(*CURVE_11A1, 40_000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ec_ap(*CURVE_11A1, 1000)  # lazy imports and caches come before the count
    batched = peak()
    undecided = lambda A, B, ps, point: (ps, np.zeros(len(ps), dtype=bool))
    monkeypatch.setattr(datasets, "_ec_trace_batch", undecided)
    monkeypatch.setattr(datasets, "_ec_trace", lambda A, B, p: 0)
    assert batched < 3 * peak()


def test_sweep_memory_stays_under_20_bytes_per_x():
    # f(x) is built in place in one int64 array beside x and a one-byte table
    # of squares, 17 bytes per x
    datasets._ec_trace(*CURVE_11A1, 101)  # the lazy import comes before the count
    tracemalloc.start()
    try:
        datasets._ec_trace(*CURVE_11A1, 39_989)
        assert tracemalloc.get_traced_memory()[1] < 20 * 39_989
    finally:
        tracemalloc.stop()


def test_ec_11a1_known_traces(ec_11a1):
    raw = dict(zip(ec_11a1.records.p.tolist(), ec_11a1.records.a_raw))
    assert raw[5] == 1
    assert raw[7] == -2
    assert raw[13] == 4


def test_eta_quotient_oracle_has_the_known_traces():
    series = eta_quotient({1: 2, 11: 2}, 13)  # 11a1
    assert (series[5], series[7], series[13]) == (1, -2, 4)


@pytest.mark.parametrize(
    "curve, factors",
    [
        (CURVE_11A1, {1: 2, 11: 2}),  # 11a1
        ((-1, 0), {4: 2, 8: 2}),  # 32a: y^2 = x^3 - x
        ((0, 1), {6: 4}),  # 36a: y^2 = x^3 + 1
        ((0, 16), {3: 2, 9: 2}),  # 27a: y^2 = x^3 + 16
    ],
    ids=["11a1", "32a", "36a", "27a"],
)
def test_ec_ap_matches_the_eta_quotient_up_to_the_cap(curve, factors):
    # every good prime up to EC_X_CAP, where each point-counting route runs
    data = ec_ap(*curve, EC_X_CAP)
    series = eta_quotient(factors, EC_X_CAP)
    assert len(data.records) > 9000
    assert list(data.records.a_raw) == series[np.asarray(data.records.p)].tolist()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ec_ap(*CURVE_11A1, 4), "need X >= 5"),
        (
            lambda: ec_ap(*CURVE_11A1, EC_X_CAP + 1),
            f"X = {EC_X_CAP + 1} exceeds the point-counting cap {EC_X_CAP}",
        ),
        (lambda: tau_coefficients(0), "need X >= 1"),
        (lambda: first_n_primes(0), "need n >= 1 primes"),
    ],
    ids=["ec-below-5", "ec-over-cap", "tau-below-1", "primes-below-1"],
)
def test_generator_range_refused(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


def test_ec_bad_primes_skipped(ec_11a1):
    emitted = set(ec_11a1.records.p.tolist())
    assert not emitted & {2, 3, 11}
    assert "skipped" in ec_11a1.header.source


def test_ec_hasse_bound(ec_11a1):
    r = ec_11a1.records
    assert not any(r.a_im)
    for p, a, raw in zip(r.p.tolist(), r.a_re.tolist(), r.a_raw):
        assert abs(raw) <= 2 * math.sqrt(p)
        assert abs(a) <= 2.0 + 1e-12


def test_ec_singular_curve_rejected():
    with pytest.raises(DatasetError, match=r"^curve y\^2 = x\^3 \+ 0x \+ 0 is singular$"):
        ec_ap(0, 0, 100)
    with pytest.raises(DatasetError, match=r"^curve y\^2 = x\^3 \+ -3x \+ 2 is singular$"):
        ec_ap(-3, 2, 100)  # 4*(-3)^3 + 27*4 = 0


def test_ec_sorted_strictly_increasing(ec_11a1):
    ps = ec_11a1.records.p.tolist()
    assert ps == sorted(set(ps))


# ---------------------------------------------------------------------------
# weight-12 coefficients


def _pack(coeffs, width):
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(value, width, n):
    value &= (1 << (8 * width * n)) - 1  # truncate to the first n coefficients
    raw = value.to_bytes(width * n, "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(n)]


def _poly_mul_trunc(a, b, n):
    # truncated product by Kronecker substitution: coefficients packed into
    # big ints (positive and negative parts apart), one native big-int product
    bits_a = max((abs(c).bit_length() for c in a), default=1)
    bits_b = max((abs(c).bit_length() for c in b), default=1)
    width = (bits_a + bits_b + min(len(a), len(b)).bit_length() + 2 + 7) // 8 + 1
    a_pos = _pack([c if c > 0 else 0 for c in a], width)
    a_neg = _pack([-c if c < 0 else 0 for c in a], width)
    b_pos = _pack([c if c > 0 else 0 for c in b], width)
    b_neg = _pack([-c if c < 0 else 0 for c in b], width)
    plus = _unpack(a_pos * b_pos + a_neg * b_neg, width, n)
    minus = _unpack(a_pos * b_neg + a_neg * b_pos, width, n)
    return [pl - mi for pl, mi in zip(plus, minus)]


@functools.lru_cache(maxsize=1)
def kronecker_tau(n):
    # independent exact oracle: tau(1)..tau(n) as the coefficients of the 24th
    # power of prod (1 - q^m), expanded by Euler's pentagonal number theorem
    eta = [0] * n
    for k in range(-n, n + 1):
        g = k * (3 * k - 1) // 2
        if 0 <= g < n:
            eta[g] = -1 if k % 2 else 1
    e2 = _poly_mul_trunc(eta, eta, n)
    e4 = _poly_mul_trunc(e2, e2, n)
    e8 = _poly_mul_trunc(e4, e4, n)
    return tuple(_poly_mul_trunc(_poly_mul_trunc(e8, e8, n), e8, n))


def test_tau_matches_kronecker_oracle():
    # every n <= 10^4, composite n included, not only the primes tau_ap emits
    assert tau_coefficients(10_000) == kronecker_tau(10_000)
    assert tau_coefficients(37) == kronecker_tau(10_000)[:37]


def test_tau_ramanujan_congruence(tau_10k):
    for p, raw in zip(tau_10k.records.p.tolist(), tau_10k.records.a_raw):
        assert (raw - 1 - p ** 11) % 691 == 0


def test_tau_moduli_cover_the_cap():
    # |tau(n)| <= d(n) n^(11/2), so the lift to the symmetric range is exact
    # when the product of the moduli exceeds twice that at every n <= the cap
    d = [0] * (TAU_X_CAP + 1)
    for i in range(1, TAU_X_CAP + 1):
        for j in range(i, TAU_X_CAP + 1, i):
            d[j] += 1
    big = math.prod(TAU_MODULI)
    assert all(big * big > 4 * d[n] ** 2 * n ** 11 for n in range(1, TAU_X_CAP + 1))


def test_tau_deligne_check_trips_on_corrupt_residue(monkeypatch):
    residues = datasets._tau_residues

    def corrupt(X):
        f = residues(X)
        f[2, 96] += 1  # tau(97) modulo the third modulus
        return f

    monkeypatch.setattr(datasets, "_tau_residues", corrupt)
    tau_coefficients.cache_clear()
    try:
        with pytest.raises(DatasetError, match=r"tau\(97\)"):
            tau_ap(100)
    finally:
        tau_coefficients.cache_clear()


def test_tau_small_values():
    taus = tau_coefficients(10)
    assert taus[0] == 1  # leading coefficient
    assert taus[1] == -24
    assert taus[2] == 252
    assert taus[3] == -1472
    assert taus[4] == 4830
    assert taus[6] == -16744


def test_tau_multiplicative_at_six():
    taus = tau_coefficients(10)
    assert taus[5] == taus[1] * taus[2]


def test_tau_deligne_bound(tau_10k):
    assert not any(tau_10k.records.a_im)
    for a in tau_10k.records.a_re.tolist():
        assert abs(a) <= 2.0


def test_tau_exceeds_64_bits(tau_10k):
    assert any(abs(raw) > 2 ** 63 for raw in tau_10k.records.a_raw)


def test_tau_cap_enforced():
    with pytest.raises(ParameterError):
        tau_ap(10_001)


def test_tau_raw_values_exact(tau_10k):
    # tau(p) exceeds the 53-bit float mantissa, so raw values must stay ints
    taus = tau_coefficients(10_000)
    raw = dict(zip(tau_10k.records.p.tolist(), tau_10k.records.a_raw))
    assert len(raw) == 1229
    assert raw[829] == 18045917610367430
    assert all(value == taus[p - 1] for p, value in raw.items())
    assert loads_csv(dumps_csv(tau_10k)).records.a_raw == tau_10k.records.a_raw


def test_max_p_covers_every_generator_cap():
    assert first_n_primes(ST_N_CAP)[-1] == MAX_P
    assert MAX_P >= max(EC_X_CAP, TAU_X_CAP)


def test_sato_tate_cap_enforced():
    with pytest.raises(ParameterError):
        sato_tate_sample(ST_N_CAP + 1, 1)


# ---------------------------------------------------------------------------
# synthetic sampler


def test_sato_tate_moments(st_100k):
    a = st_100k.records.a_re.tolist()
    n = len(a)
    assert sum(a) / n == pytest.approx(0.0, abs=0.02)
    assert sum(v * v for v in a) / n == pytest.approx(1.0, abs=0.02)


def test_sato_tate_deterministic():
    one = sato_tate_sample(200, 42)
    two = sato_tate_sample(200, 42)
    assert dumps_csv(one) == dumps_csv(two)
    assert dumps_csv(sato_tate_sample(200, 43)) != dumps_csv(one)


def test_sato_tate_prefix_stable():
    # per-record seeding: a longer run reproduces the shorter one exactly
    short = sato_tate_sample(50, 7).records
    long = sato_tate_sample(100, 7).records
    assert short == Records(long.p[:50], long.a_re[:50])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 2000), st.integers(-(2 ** 80), 2 ** 80))
def test_sato_tate_prefix_property(n, extra, seed):
    short = sato_tate_sample(n, seed).records
    long = sato_tate_sample(n + extra, seed).records
    assert short == Records(long.p[:n], long.a_re[:n])


def one_shot_sample(n, seed):
    # the sampler's expression before it filled its column a block at a time
    key = np.uint64(seed % datasets.SEED_MODULUS)
    bits = datasets._mix64(key + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(datasets._GOLDEN))
    return 2.0 * np.cos(datasets._sato_tate_angle((bits >> 11) * 2.0**-53))


@pytest.mark.parametrize("block", [CSV_BLOCK, 100, 4 * CSV_BLOCK])  # the last one block for every n
@pytest.mark.parametrize("seed", [0, 1, -5, 2**64 - 60])
def test_blocked_sampler_matches_the_one_shot_expression(monkeypatch, block, seed):
    monkeypatch.setattr(datasets, "CSV_BLOCK", block)
    for n in (1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 7):
        records = sato_tate_sample(n, seed).records
        assert records.a_re.tobytes() == one_shot_sample(n, seed).tobytes()
        assert records.a_im.tobytes() == bytes(8 * n)


def test_sampler_memory_is_its_columns_and_one_block():
    # the sieve with its primes, then p, a_re and a_im, each built once, peak
    # near 28 bytes a prime; copying p and a into the records took it to 41,
    # and full-length temporaries of the mix and the Newton steps past 70
    n = 10**5
    sato_tate_sample(n, 1)  # lazy imports and caches come before the count
    tracemalloc.start()
    try:
        sato_tate_sample(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * n


def test_sato_tate_angle_solves_the_cdf():
    u = np.concatenate([np.linspace(0.0, 1.0 - 2.0 ** -53, 100_001), [2.0 ** -53, 0.5, 0.5 - 2.0 ** -54]])
    theta = datasets._sato_tate_angle(u)
    assert np.all((theta >= 0.0) & (theta <= math.pi))
    cdf = (theta - np.sin(theta) * np.cos(theta)) / math.pi
    assert np.max(np.abs(cdf - u)) <= 1e-12


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, several MB of resident memory in every process
    code = "import sys, heckebound.cli, heckebound.datasets; sys.exit('_hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=CLI_ENV).returncode == 0


def test_sato_tate_kolmogorov_smirnov(st_100k):
    thetas = sorted(math.acos(max(-1.0, min(1.0, a / 2))) for a in st_100k.records.a_re.tolist())
    n = len(thetas)
    worst = 0.0
    for i, theta in enumerate(thetas):
        cdf = (theta - math.sin(theta) * math.cos(theta)) / math.pi
        worst = max(worst, abs(cdf - i / n), abs(cdf - (i + 1) / n))
    assert worst <= 0.02


def test_sato_tate_bounds(st_100k):
    assert all(-2 <= a <= 2 for a in st_100k.records.a_re.tolist())
    assert not any(st_100k.records.a_im)


# ---------------------------------------------------------------------------
# CSV round trip


def test_round_trip(tmp_path, ec_11a1):
    path = tmp_path / "ec.csv"
    write_csv(path, ec_11a1)
    back = read_csv(path)
    assert back.header == ec_11a1.header
    assert len(back.records) == len(ec_11a1.records)
    got, want = back.records, ec_11a1.records
    assert got.p.tolist() == want.p.tolist()
    assert got.a_re.tolist() == want.a_re.tolist() and got.a_im.tolist() == want.a_im.tolist()
    assert got.a_raw == want.a_raw


def per_row_csv(data):
    # the data rows as formatted one list per file, before row blocks
    r = data.records
    rows = [f"{p},{x!r},{y!r}" for p, x, y in zip(r.p.tolist(), r.a_re.tolist(), r.a_im.tolist())]
    if r.a_raw is not None:
        rows = [f"{row},{raw}" for row, raw in zip(rows, r.a_raw)]
    return rows


def test_dumps_csv_row_blocks_keep_the_bytes(monkeypatch, st_100k, tau_10k):
    assert dumps_csv(st_100k).split("\n")[1:] == per_row_csv(st_100k) + [""]
    monkeypatch.setattr(datasets, "CSV_BLOCK", 100)  # 13 blocks, the last one short
    assert dumps_csv(tau_10k).split("\n")[1:] == per_row_csv(tau_10k) + [""]


@pytest.mark.parametrize(
    "build, argv, digest",
    [
        (
            lambda: sato_tate_sample(10**5, 1),
            ["--kind", "st", "--n", "100000", "--seed", "1"],
            "1b667103316fe8f258fd5f73106929c49d5c856a63aba6cf95f49cc527c8a140",
        ),
        (
            lambda: tau_ap(10**4),
            ["--kind", "tau", "--x", "10000"],
            "20cc644c1bc31e76f9a6b3b806b85b09567557b2e4141f636ad5b7ce4cd3e237",
        ),
        (
            lambda: ec_ap(*CURVE_11A1, 40_000),
            ["--kind", "ec", "--x", "40000"],
            "530cfbc63f3198df8aa2a0e43bfa6801f9484faa9ef7a4248465f5442a238082",
        ),
        (
            lambda: ec_ap(*CURVE_11A1, 100_000),
            ["--kind", "ec", "--x", "100000"],
            "cea8361266b99e690125fabf2fd94db321b95d1288d08beeec376febb0ca6849",
        ),
        (
            lambda: ec_ap(-1, 0, 100_000),
            ["--kind", "ec", "--a", "-1", "--b", "0", "--x", "100000"],
            "ab6369ebfcc41b7264a331be2f91e98ca2e0150469154be1b3a7eea99d3a9492",
        ),
    ],
    ids=["sato-tate", "tau", "ec-11a1", "ec-11a1-cap", "ec-cm-cap"],
)
def test_generated_bytes_are_pinned(tmp_path, build, argv, digest):
    # the digests were taken before the writer streamed blocks, so a sampler,
    # generator or writer change that moves one bit of a generated file fails
    data = build()
    text = dumps_csv(data).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == digest
    path = tmp_path / "out.csv"
    write_csv(path, data)
    assert path.read_bytes() == text
    cli = [sys.executable, "-m", "heckebound.cli", "generate", *argv]
    assert subprocess.run(cli, env=CLI_ENV, capture_output=True, check=True).stdout == text


def block_records(n, raw=False):
    rng = np.random.default_rng(n)
    re, im = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
    return Records(first_n_primes(n), re, im, rng.integers(-(10**6), 10**6, n).tolist() if raw else None)


# n at and around the end of the first block and of the fourth, and whole runs of 3 and 12 blocks
@pytest.mark.parametrize("raw", [False, True], ids=["3-columns", "4-columns"])
@pytest.mark.parametrize(
    "n",
    [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK]
    + [4 * CSV_BLOCK - 1, 4 * CSV_BLOCK, 4 * CSV_BLOCK + 1, 12 * CSV_BLOCK],
)
def test_write_csv_writes_the_dumps_csv_bytes(tmp_path, n, raw):
    records = block_records(n, raw)
    data = Dataset(DatasetHeader("blocks", False, int(records.p[-1])), records)
    path = tmp_path / "blocks.csv"
    write_csv(path, data)
    text = dumps_csv(data)
    assert path.read_bytes() == text.encode("utf-8")
    assert text.split("\n")[1:] == per_row_csv(data) + [""]
    assert read_csv(path) == data


def test_refused_source_leaves_the_target_unchanged(tmp_path):
    data = Dataset(DatasetHeader("a,b", True, 10), Records([2, 3], [0.5, -0.5]))
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_bytes(b"# source=kept,self_dual=true,X=10\n2,0.5,0.0\n")
    refused = r"^header line '# source=a,b,self_dual=true,X=10\\n' would not read back as written$"
    for path in (kept, new):
        with pytest.raises(DatasetError, match=refused):
            write_csv(path, data)
    assert kept.read_bytes() == b"# source=kept,self_dual=true,X=10\n2,0.5,0.0\n"
    assert not new.exists()


SHORT = Dataset(DatasetHeader("short", True, 3), Records([2, 3], [0.5, -0.5]))
LONG_BYTES = dumps_csv(sato_tate_sample(500, 3)).encode("utf-8")


def test_shorter_dataset_over_a_longer_file_gives_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(LONG_BYTES)
    write_csv(path, SHORT)
    assert path.read_bytes() == dumps_csv(SHORT).encode("utf-8")


def test_a_regular_file_is_replaced_not_truncated(tmp_path):
    # a new inode: the old file was unlinked, so ext4 has no truncated file to flush on close
    path = tmp_path / "out.csv"
    path.write_bytes(LONG_BYTES)
    old = os.stat(path).st_ino
    keep = path.open("rb")  # holds the old inode, so its number cannot be reused
    try:
        write_csv(path, SHORT)
        assert os.stat(path).st_ino != old
        assert keep.read() == LONG_BYTES
    finally:
        keep.close()
    assert path.read_bytes() == dumps_csv(SHORT).encode("utf-8")


def test_a_symlink_stays_and_its_target_gets_the_new_bytes(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(LONG_BYTES)
    link.symlink_to(target)
    write_csv(link, SHORT)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == dumps_csv(SHORT).encode("utf-8")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_file_descriptor_path_writes_into_the_open_file(tmp_path):
    # `generate --out /dev/stdout > out.csv`: the path is a symlink to the file
    # the shell opened, which must keep its name and get the bytes
    path = tmp_path / "out.csv"
    path.write_bytes(LONG_BYTES)
    fd = os.open(path, os.O_WRONLY)
    try:
        write_csv(f"/proc/self/fd/{fd}", SHORT)
    finally:
        os.close(fd)
    assert path.read_bytes() == dumps_csv(SHORT).encode("utf-8")


def test_a_second_hard_link_keeps_the_old_bytes(tmp_path):
    path, other = tmp_path / "out.csv", tmp_path / "other.csv"
    path.write_bytes(LONG_BYTES)
    os.link(path, other)
    write_csv(path, SHORT)
    assert path.read_bytes() == dumps_csv(SHORT).encode("utf-8")
    assert other.read_bytes() == LONG_BYTES


@pytest.mark.parametrize("kind", ["directory", "symlink-loop"])
def test_an_unwritable_path_raises_and_generate_exits_one(tmp_path, capsys, kind):
    # a symlink loop is an OSError here too, not Path.resolve's RuntimeError
    path = tmp_path / "out"
    if kind == "directory":
        path.mkdir()
        (path / "inside.csv").write_bytes(LONG_BYTES)
    else:
        path.symlink_to(path)
    with pytest.raises(OSError):
        write_csv(path, SHORT)
    assert main(["generate", "--kind", "tau", "--x", "50", "--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    if kind == "directory":
        assert [p.name for p in path.iterdir()] == ["inside.csv"]
        assert (path / "inside.csv").read_bytes() == LONG_BYTES
    else:
        assert os.readlink(path) == str(path)


def test_a_non_regular_target_is_written_through_never_unlinked(monkeypatch):
    # as root an unguarded writer would delete /dev/null, so unlinking raises here
    def refuse(*args, **kwargs):
        raise AssertionError(f"unlink called on {args}")

    monkeypatch.setattr(os, "unlink", refuse)
    monkeypatch.setattr(Path, "unlink", refuse)
    write_csv(os.devnull, SHORT)
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@pytest.mark.parametrize("block", ["read-only-directory", "unlink-raises"])
def test_a_file_that_cannot_be_unlinked_is_written_in_place(tmp_path, monkeypatch, block):
    # in a 0o555 directory unlink fails for a non-root user (CI's runner), so the
    # open truncates the writable file as before; root may unlink there anyway,
    # so the second case makes unlink fail whoever runs the test
    folder = tmp_path / "locked"
    folder.mkdir()
    path = folder / "out.csv"
    path.write_bytes(LONG_BYTES)
    old = os.stat(path).st_ino
    if block == "unlink-raises":

        def refuse(target, *args, **kwargs):
            raise PermissionError(13, "Permission denied", target)

        monkeypatch.setattr(os, "unlink", refuse)
    folder.chmod(0o555)
    try:
        write_csv(path, SHORT)
    finally:
        folder.chmod(0o755)
    assert path.read_bytes() == dumps_csv(SHORT).encode("utf-8")
    if block == "unlink-raises":
        assert os.stat(path).st_ino == old


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_a_read_only_file_is_refused_and_kept(tmp_path, capsys):
    # open refuses a 0o444 file to a non-root user (CI's runner), so it must not be unlinked first
    path = tmp_path / "out.csv"
    path.write_bytes(LONG_BYTES)
    path.chmod(0o444)
    with pytest.raises(PermissionError):
        write_csv(path, SHORT)
    assert main(["generate", "--kind", "tau", "--x", "50", "--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert path.read_bytes() == LONG_BYTES


def test_a_file_the_writer_may_not_write_is_not_unlinked(tmp_path, monkeypatch):
    # the test above for whoever runs it: os.access says no, so the file is not unlinked but opened
    # in place, where root's open succeeds anyway and truncates it
    path = tmp_path / "out.csv"
    path.write_bytes(LONG_BYTES)
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    with path.open("rb") as keep:  # holds the inode, so a replacement could not reuse its number
        write_csv(path, SHORT)
        assert os.stat(path).st_ino == os.fstat(keep.fileno()).st_ino
    assert path.read_bytes() == dumps_csv(SHORT).encode("utf-8")


@pytest.mark.parametrize(
    "header",
    [
        DatasetHeader("a\nb", True, 10),
        DatasetHeader("a\rb", True, 10),
        DatasetHeader(" padded ", True, 10),
        DatasetHeader("padded\t", True, 10),
        DatasetHeader("a\ud800b", True, 10),
        DatasetHeader("x", True, 10.0),
        DatasetHeader("x", True, True),
    ],
    ids=["newline", "carriage-return", "padded", "tab", "surrogate", "float-X", "bool-X"],
)
def test_header_the_reader_cannot_read_back_is_refused(tmp_path, header):
    # the reader ends a line at '\n' and '\r' (as text mode does), strips each value,
    # decodes UTF-8 and reads X as an integer: such a header would not come
    # back, so none is written (no rows, so that X=True, which is 1, is allowed)
    data = Dataset(header, Records([], []))
    message = r"^header line '# source=.*' would not read back as written$"
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_bytes(b"# source=kept,self_dual=true,X=10\n2,0.5,0.0\n")
    for path in (kept, new):
        with pytest.raises(DatasetError, match=message):
            write_csv(path, data)
    with pytest.raises(DatasetError, match=message):
        dumps_csv(data)
    assert kept.read_bytes() == b"# source=kept,self_dual=true,X=10\n2,0.5,0.0\n"
    assert not new.exists()


@pytest.mark.parametrize(
    "source",
    ["a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", "a\u2029b"],
    ids=["vertical-tab", "form-feed", "file-separator", "next-line", "line-separator", "paragraph-separator"],
)
def test_header_with_a_character_only_splitlines_breaks_at_reads_back(tmp_path, source):
    # a line ends at a newline alone, so these are characters of the source, as for awk
    data = Dataset(DatasetHeader(source, True, 10), Records([2, 3], [0.5, 0.0], [0.0, -0.5]))
    path = tmp_path / "source.csv"
    write_csv(path, data)
    assert path.read_bytes().split(b"\n")[0] == f"# source={source},self_dual=true,X=10".encode()
    assert read_csv(path) == loads_csv(dumps_csv(data)) == data


SOURCE_CHARS = [",", "=", "#", " ", "\t", "\n", "\r", "\x0b", "\x85", "\u2028", "\xa0", "\ud800", "\udfff", "é"]


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from(SOURCE_CHARS), st.characters(exclude_categories=())), max_size=8))
def test_every_source_the_writer_takes_reads_back(tmp_path_factory, source):
    data = Dataset(DatasetHeader(source, False, 10), Records([2, 3], [0.5, 0.0], [0.0, -0.5], [1, -2]))
    path = tmp_path_factory.getbasetemp() / "source.csv"
    try:
        write_csv(path, data)
    except DatasetError:
        with pytest.raises(DatasetError):
            dumps_csv(data)
        return
    assert read_csv(path) == loads_csv(dumps_csv(data)) == data


def test_sampler_and_reader_columns_hold_no_larger_array(tmp_path, st_100k):
    # the records hold the arrays the sampler and the reader built, not a view of
    # numpy's longer sieve indices: each view spans the whole of its array, though
    # the reader's keep the spare room of their appends, up to a sixteenth more
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)
    for records in (st_100k.records, read_csv(path).records):
        for column in (records.p, records.a_re, records.a_im):
            assert isinstance(column.obj, array) and column.obj.buffer_info()[1] == len(records)


def test_write_csv_memory_is_one_block(tmp_path):
    # a writer that held the file would peak about four times higher at 16
    # blocks than at 4; one that holds a block stays level
    def peak(blocks):
        records = block_records(blocks * CSV_BLOCK, raw=True)
        data = Dataset(DatasetHeader("blocks", True, int(records.p[-1])), records)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "blocks.csv", data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # lazy imports and caches come before the count
    assert peak(16) <= 1.5 * peak(4)


def test_write_csv_of_the_sample_peaks_below_a_small_block(tmp_path, st_100k):
    # the 10^5-row file's writer peaks near 0.39 MB with blocks of 2,048 rows;
    # blocks of 8,192 took it to 1.5 MB
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)  # lazy imports and caches come before the count
    tracemalloc.start()
    try:
        write_csv(path, st_100k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2**20


def outcome(load, text):
    """What a reader makes of a text: the columns to the bit, as oracle gives
    them, or the error's class and message (which names the line)."""
    try:
        data = load(text)
    except DatasetError as exc:
        return type(exc), str(exc)
    r = data.records
    return data.header, r.p.tobytes(), r.a_re.tobytes(), r.a_im.tobytes(), r.a_raw


def test_one_pass_reader_takes_every_generated_file(st_100k, tau_10k, ec_11a1):
    for data in (st_100k, tau_10k, ec_11a1):
        text = dumps_csv(data)
        assert outcome(loads_csv, text) == oracle(text) == outcome(lambda _: data, text)


CSV_HEAD = "# source=x,self_dual=true,X=50"
CSV_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, MAX_P]
# cells and characters that int()/float() and the line rule can each read in
# more than one way, or that sit at a range boundary
ODD_CELLS = [
    "5.0", "5.7", "5e0", "+5", "-5", "05", "4", "1", "0", "", "1e400", "-1e400", "1e-400",
    "-0.0", ".5", "5.", "1E2", "+", "e", "--1", str(2**63), str(2**64 + 13), str(MAX_P + 1),
]
ODD_CHARS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "#", "\r", " ", "\t", "_", "é"]


@st.composite
def csv_texts(draw):
    """A header, sorted prime rows of 3 or 4 columns, then a few faults."""
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    width = draw(st.sampled_from([3, 4]))
    rows = [
        [str(p), draw(number), draw(number), str(draw(st.integers(-(10**30), 10**30)))][:width]
        for p in sorted(draw(st.sets(st.sampled_from(CSV_PRIMES), max_size=6)))
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row) - 1)) if row else 0
        fault = draw(st.sampled_from(["cell", "char", "extra", "drop", "blank"]))
        if fault == "cell" and row:
            row[j] = draw(st.sampled_from(ODD_CELLS))
        elif fault == "char" and row:
            k = draw(st.integers(0, len(row[j])))
            row[j] = row[j][:k] + draw(st.sampled_from(ODD_CHARS)) + row[j][k:]
        elif fault == "extra":
            row.append(draw(number))
        elif fault == "drop" and row:
            row.pop()
        elif fault == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
    head = draw(st.sampled_from([CSV_HEAD, f"# source=x,self_dual=true,X={MAX_P}"]))
    return head + "\n" + "\n".join(map(",".join, rows)) + draw(st.sampled_from(["\n", ""]))


def under_head(body):
    return f"{CSV_HEAD}\n{body}"


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        csv_texts(),
        st.text("0123456789+-.,eE\n", max_size=40).map(under_head),
        st.text(st.sampled_from(list("0123456789,.e\n") + ODD_CHARS), max_size=30).map(under_head),
    )
)
@example(f"{CSV_HEAD}\n")  # header only
@example(f"{CSV_HEAD}\n5,0.5,0.0\n\n7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5,0.5\x0b,0.0\n7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0\x0c\n7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0\x1c\x1d\x1e\n7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0\n#7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0\n7,0.1,0.2#\n")
@example(f"{CSV_HEAD}\r\n5,0.5,0.0\r\n7,0.1,0.2\r\n")
@example(f"{CSV_HEAD}\n 5, 0.5,0.0\t\n7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0,1,2\n7,0.1,0.2,3,4\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0\n7,0.1,0.2,3\n")
@example(f"{CSV_HEAD}\n5,0.5,0.0,1\n7,0.1,0.2\n")
@example(f"{CSV_HEAD}\n5.0,0.5,0.0\n")
@example(f"{CSV_HEAD}\n5e0,0.5,0.0\n")
@example(f"{CSV_HEAD}\n+5,0.5,0.0\n")
@example(f"{CSV_HEAD}\n-5,0.5,0.0\n")
@example(f"{CSV_HEAD}\n5,1e400,0.0\n")
@example(f"{CSV_HEAD}\n{2**63},0.5,0.0\n")
def test_one_pass_reader_agrees_with_the_per_row_loop(text):
    # the per-row loop is the oracle's, one csv row at a time
    assert outcome(loads_csv, text) == oracle(text)


@settings(max_examples=200, deadline=None)
@given(csv_texts(), st.integers(1, 40))
@example(f"{CSV_HEAD}\n5,0.5,0.0\n\n\n7,0.1,0.2\n", 11)  # the second block is blank lines
@example(f"{CSV_HEAD}\n5,0.5,0.0\n\n7,0.1,0.2\n9,0.3,0.0\n11,0.1,0.0\n", 11)  # composite after a blank line
@example(f"{CSV_HEAD}\n5,0.5,0.0\n7,0.1,0.2\n13,0.2,0.0\n11,0.3,0.0", 11)  # out of order, no newline at the end
def test_blocked_reader_agrees_with_the_per_row_loop_across_blocks(text, block):
    # a fault, a blank line or the end of the text at or across the newline
    # that ends a block of READ_BYTES, which the reader decodes at a time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "READ_BYTES", block)
        assert outcome(loads_csv, text) == oracle(text)


@pytest.mark.parametrize(
    "rows",
    [
        "3,0.1,0.0\n9,0.2,0.0\n",  # composite
        "5,0.1,0.0\n3,0.2,0.0\n",  # out of order
        "3,0.1,0.0\n5,1e400,0.0\n",  # not finite
        "3,0.1,0.0\n13,0.2,0.0\n",  # above X
        "3,0.1,0.0,1\n9,0.2,0.0,2\n",
    ],
    ids=["composite", "order", "1e400", "above-X", "composite-4-columns"],
)
def test_canonical_fault_refused_from_its_columns(rows):
    # rows that each parse reach the checks of the columns, which name the
    # line of the first bad row
    text = f"# source=x,self_dual=true,X=10\n{rows}"
    want = oracle(text)
    assert want[0] is DatasetFormatError and want[1].startswith("line 3: ")
    assert outcome(loads_csv, text) == want


@pytest.mark.parametrize(
    "last, fault",
    [
        ("17,0.5,0.0", None),
        ("15,0.5,0.0", "p = 15 is not prime"),
        ("1_7,0.5,0.0", "'_' in a number: '1_7,0.5,0.0'"),
        ("17,0.5", "expected 3 columns, got 2"),
        ("17.0,0.5,0.0", "invalid literal for int() with base 10: '17.0'"),
        (f"{MAX_P + 12},0.5,0.0", f"p = {MAX_P + 12} is outside 2..{MAX_P}"),
    ],
    ids=["valid", "composite-last", "underscore-last", "2-columns-last", "float-p-last", "past-max-p-last"],
)
@pytest.mark.parametrize("at", [0, 3, 4, 5, 7], ids=["first", "block-start", "block-middle", "block-end", "text-end"])
def test_blank_line_moves_the_line_of_each_row_after_it(monkeypatch, at, last, fault):
    # with blocks of 24 bytes, about three rows, a blank line numbers the rows
    # after it one line further down, wherever it falls, for a fault the columns
    # show (a composite) and for each that parsing a row meets
    monkeypatch.setattr(datasets, "READ_BYTES", 24)
    rows = [f"{p},0.{p},0.0" for p in (2, 3, 5, 7, 11, 13)] + [last]
    rows.insert(at, "")
    text = CSV_HEAD + "\n" + "\n".join(rows) + "\n"
    assert outcome(loads_csv, text) == oracle(text)
    if fault is not None:
        assert outcome(loads_csv, text) == (DatasetFormatError, f"line {9 - (at == 7)}: {fault}")


@pytest.mark.parametrize("raw", ["", ",1"], ids=["3-columns", "4-columns"])
@pytest.mark.parametrize("p", ["5.0", "5.7", "5e0"])
def test_float_prime_refused_at_its_line(p, raw):
    # float() takes each of these, int() refuses it, and so does the reader,
    # rather than truncating the prime to an int64 through a float
    text = f"# source=x,self_dual=true,X=10\n3,0.1,0.0{raw}\n{p},0.2,0.0{raw}\n"
    message = f"line 3: invalid literal for int() with base 10: {p!r}"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        loads_csv(text)


def test_one_pass_reader_allocates_less_than_the_per_row_loop():
    # the text's bytes, one block of its lines and the columns; the oracle's
    # per-row loop holds a list per row, and a reader that split the whole
    # text into lines would hold about three times the text in them
    text = dumps_csv(sato_tate_sample(20_000, 5))
    loads_csv(text)  # lazy imports and caches come before the count
    peaks = []
    for load in (loads_csv, oracle):
        tracemalloc.start()
        try:
            load(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]
    assert peaks[0] < 4 * len(text)


def test_read_csv_holds_one_copy_of_the_file(tmp_path):
    # the file's bytes go once the body is split off: the reader peaks near
    # 2.6 times the file size, one that kept them beside the body near 3.6
    path = tmp_path / "st.csv"
    write_csv(path, sato_tate_sample(20_000, 5))
    read_csv(path)  # lazy imports and caches come before the count
    tracemalloc.start()
    try:
        read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


@pytest.mark.parametrize("hit", [False, True], ids=["miss", "hit"])
def test_read_csv_holds_the_file_and_its_columns(tmp_path, st_100k, cache, hit):
    # the reader holds the file's bytes, its three columns and one block of
    # lines, near 1.9 times the file; the whole file's lines beside the bytes
    # would take it past 4.  A miss writes the cache entry from the columns,
    # and a hit drops the bytes before it loads them
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)
    read_csv(path)  # lazy imports and caches come before the count; this read writes the entry
    if not hit:
        (entry,) = cache.iterdir()
        entry.unlink()
    tracemalloc.start()
    try:
        read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * path.stat().st_size


def test_round_trip_empty():
    data = Dataset(DatasetHeader("empty", True, 10), Records([], []))
    assert loads_csv(dumps_csv(data)) == data


def test_simple_row_parses():
    data = loads_csv("# source=x,self_dual=true,normalization=unitary,X=10,omega_trivial=true\n5,0.447213,0.0\n")
    assert data.records.p[0] == 5
    assert data.records.a_re[0] == pytest.approx(0.447213)


def test_non_prime_row_rejected():
    text = "# source=x,self_dual=true,normalization=unitary,X=10,omega_trivial=true\n6,0.1,0.0\n"
    with pytest.raises(DatasetFormatError, match="line 2"):
        loads_csv(text)


def test_malformed_row_carries_line_number():
    text = "# source=x,self_dual=true,normalization=unitary,X=10,omega_trivial=true\n5,0.1,0.0\nseven,0.2,0.0\n"
    with pytest.raises(DatasetFormatError, match="line 3"):
        loads_csv(text)


@pytest.mark.parametrize(
    "row, what",
    [
        ("1_3,0.5,0.0,1", "'_'"),
        ("13,0_5,0.0,1", "'_'"),
        ("13,0.5,0_0,1", "'_'"),
        ("13,0.5,0.0,1_0", "'_'"),
        ("\uff11\uff13,0.5,0.0,1", "non-ASCII character"),
        ("13,\uff10.5,0.0,1", "non-ASCII character"),
        ("13,0.5,0.0,\u0661", "non-ASCII character"),
        ("13,0.5,0.0\u00a0,1", "non-ASCII character"),
    ],
    ids=["p", "a_re", "a_im", "a_raw", "wide-p", "wide-a_re", "arabic-a_raw", "nbsp"],
)
def test_digit_separator_in_a_row_names_its_line(row, what):
    # int() and float() read '_' between digits, any Unicode digit as its
    # ASCII twin and strip Unicode spaces; the reader makes up no value
    text = f"# source=x,self_dual=true,X=20\n11,0.1,0.0,1\n{row}\n"
    message = f"line 3: {what} in a number: {row!r}"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        loads_csv(text)


@pytest.mark.parametrize("x", ["1_3", "\uff11\uff13", "\u0661\u0663"])
def test_header_x_must_be_ascii_without_separators(x):
    text = f"# source=x,self_dual=true,X={x}\n11,0.1,0.0\n"
    message = f"line 1: header X={x!r} is not an ASCII integer"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        loads_csv(text)


def test_non_ascii_header_source_loads():
    # the ASCII rule is for numbers; the source is free text
    data = loads_csv("# source=na\u00efve,self_dual=true,X=13\n11,0.1,0.0\n")
    assert data.header.source == "na\u00efve" and data.header.X == 13


def test_missing_header_rejected():
    with pytest.raises(DatasetFormatError, match="line 1"):
        loads_csv("5,0.1,0.0\n")


@pytest.mark.parametrize(
    "p, a, a_raw",
    [
        ([2, 3], [0.1], None),  # ragged columns
        ([2, 3], [0.1, 0.2], [1]),
        ([1, 3], [0.1, 0.2], None),  # p below 2
        ([2, 3], [0.1, math.nan], None),
        ([2, 3], [math.inf, 0.2], None),
        ([2, 3], [0.1, 0.2], [1, 2.0]),  # raw values must be exact ints
        ([2, 3], [0.1, 0.2], [1, None]),
        ([2.5, 3], [0.1, 0.2], None),  # truncating p would make up a prime
        ([2**70], [0.1], None),  # past int64
        ([2**64 - 1], [0.1], None),  # fits uint64 only, so int64 would wrap it
    ],
)
def test_records_validated_on_construction(p, a, a_raw):
    with pytest.raises(DatasetError):
        Records(p, a, a_raw=a_raw)


def test_records_are_read_only():
    records = Records([2, 3], [0.1, 0.2])
    for column in (records.p, records.a_re, records.a_im):
        with pytest.raises(TypeError):  # a read-only memoryview
            column[0] = 5


def test_empty_records_are_valid():
    # no prime is made up, so it is valid
    assert len(Records([], [])) == 0
    assert Records([], []).p.format == "q"


def test_header_line_keys():
    data = Dataset(DatasetHeader("x", False, 10), Records([2], [0.5]))
    assert dumps_csv(data).splitlines()[0] == "# source=x,self_dual=false,X=10"


def test_composite_row_after_blank_line_names_its_line():
    text = "# source=x,self_dual=true,X=10\n5,0.1,0.0\n\n9,0.2,0.0\n"
    with pytest.raises(DatasetFormatError, match="line 4"):
        loads_csv(text)


LINE_CHARS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", LINE_CHARS, ids=[f"U+{ord(c):04X}" for c in LINE_CHARS])
def test_only_a_newline_ends_a_line(tmp_path, char):
    # str.splitlines ends a line at each of these; the reader, awk and wc -l do not
    head = "# source=x,self_dual=true,X=10\n"
    path = tmp_path / "rows.csv"
    for text, message in [
        (f"{head}3,0.1,0.0\n{char}\n9,0.2,0.0\n", "line 4: p = 9 is not prime"),
        (f"{head}3,0.1,0.0{char}5,0.2,0.0\n", "line 2: expected 3 or 4 columns, got 5"),
    ]:
        path.write_bytes(text.encode("utf-8"))
        for load, source in ((loads_csv, text), (read_csv, path)):
            with pytest.raises(DatasetFormatError, match=f"^{message}$"):
                load(source)


def test_non_integer_header_x_rejected():
    with pytest.raises(DatasetFormatError, match="line 1"):
        loads_csv("# source=x,self_dual=true,X=ten\n5,0.1,0.0\n")


def test_non_unitary_normalization_rejected():
    with pytest.raises(DatasetFormatError, match="line 1"):
        loads_csv("# source=x,self_dual=true,normalization=arithmetic,X=10\n5,0.1,0.0\n")


@pytest.mark.parametrize("row", ["5,nan,0.0", "5,0.1,inf", "5,-inf,0.0"])
def test_non_finite_row_rejected(row):
    text = f"# source=x,self_dual=true,X=10\n3,0.1,0.0\n{row}\n"
    with pytest.raises(DatasetFormatError, match="line 3"):
        loads_csv(text)


@pytest.mark.parametrize("bad_row", [b"5,0.\xff2,0.0", b"\xff5,0.2,0.0"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_non_utf8_file_names_its_line(tmp_path, newline, bad_row):
    # the line is numbered as loads_csv numbers lines, whatever the line ending
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join([b"# source=x,self_dual=true,X=10", b"3,0.1,0.0", bad_row, b""]))
    with pytest.raises(DatasetFormatError, match="^line 3: not UTF-8"):
        read_csv(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_header_cut_short_at_its_newline_names_the_byte(tmp_path, newline):
    # the reason is the whole file's: the newline, not the end of the data, ends the sequence
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join([b"# source=x,self_dual=true,X=10\xc3", b"3,0.1,0.0", b""]))
    with pytest.raises(DatasetFormatError, match="^line 1: not UTF-8 text: invalid continuation byte$"):
        read_csv(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("# source=\ud800,self_dual=true,X=10\n3,0.1,0.0\n", 1),
        ("# source=x,self_dual=true,X=10\n3,0.1,0.0\n5,0.\udc001,0.0\n", 3),
        ("# source=x,self_dual=true,X=10\n3,0.1,0.0\n\x85\n5,0.1,\ud83d\ude00\n", 4),
    ],
    ids=["header", "row", "row-after-splitlines-break"],
)
def test_lone_surrogate_in_text_names_its_line(text, line):
    # no file holds one; loads_csv refuses it as read_csv refuses a byte that is not UTF-8
    message = f"line {line}: not UTF-8 text: invalid continuation byte"
    with pytest.raises(DatasetFormatError, match=f"^{message}$"):
        loads_csv(text)


@settings(max_examples=200, deadline=None)
@given(
    st.text(st.one_of(st.sampled_from(["\ud800", "\udfff", "\n", ",", "5"]), st.characters(exclude_categories=())))
)
def test_no_text_escapes_the_reader_as_a_unicode_error(text):
    # outcome lets only a DatasetError through as a result
    for full in (under_head(text), text + "\n3,0.1,0.0\n"):
        outcome(loads_csv, full)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_csv_gives_the_body_bytes_to_the_one_pass_reader(tmp_path, monkeypatch, tau_10k, newline):
    # the rows reach the reader as the file's bytes, which it decodes a block
    # at a time, whatever the line ending
    text = dumps_csv(tau_10k).replace("\n", newline)
    path = tmp_path / "tau.csv"
    path.write_bytes(text.encode("ascii"))
    one_pass, seen = datasets._loads_rows, []
    monkeypatch.setattr(datasets, "_loads_rows", lambda data, *rest: seen.append(type(data)) or one_pass(data, *rest))
    assert outcome(read_csv, path) == oracle(text) == outcome(lambda _: tau_10k, path)
    assert seen == [bytes]


def test_non_integer_raw_rejected():
    text = "# source=x,self_dual=true,X=10\n2,0.1,0.0,-24\n3,0.2,0.0,252.5\n"
    with pytest.raises(DatasetFormatError, match="line 3"):
        loads_csv(text)


def test_partial_raw_column_rejected():
    text = "# source=x,self_dual=true,X=10\n2,0.1,0.0,-24\n3,0.2,0.0\n"
    with pytest.raises(DatasetFormatError, match="line 3"):
        loads_csv(text)


def test_prime_above_max_p_rejected_before_sieve(monkeypatch):
    def no_sieve(x):
        raise AssertionError(f"sieve up to {x} requested")

    monkeypatch.setattr(datasets, "_sieve", no_sieve)
    text = f"# source=x,self_dual=true,X={2 ** 61}\n5,0.1,0.0\n{2 ** 61 - 1},0.2,0.0\n"
    with pytest.raises(DatasetFormatError, match="line 3"):
        loads_csv(text)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("5,0.1,0.0\n3,0.2,0.0", "line 3: records must be sorted"),
        ("5,0.1,0.0\n5,0.2,0.0", "line 3: records must be sorted"),
        ("5,0.1,0.0\n11,0.2,0.0\n13,0.3,0.0", "line 3: record prime 11 exceeds header X=10"),
        ("5,0.1,0.0\n\n3,0.2,0.0", "line 4: records must be sorted"),
    ],
    ids=["descending", "repeated", "above-x", "after-blank-line"],
)
def test_out_of_order_or_out_of_range_row_names_its_line(rows, message):
    with pytest.raises(DatasetFormatError, match=f"^{message}"):
        loads_csv(f"# source=x,self_dual=true,X=10\n{rows}\n")


@pytest.mark.parametrize(
    "rows",
    [
        "5,0.1,0.0\n3,0.2,0.0",
        "5,0.1,0.0\n5,0.2,0.0",
        "5,0.1,0.0\n\n3,0.2,0.0",
        "5,0.1,0.0\n11,0.2,0.0\n13,0.3,0.0",
        "3,0.1,0.0\n5,nan,0.0\n7,0.2,inf",
        "3,0.1,0.0\n\n5,0.2,-inf",
    ],
    ids=["descending", "repeated", "after-blank-line", "above-x", "nan", "inf-after-blank-line"],
)
def test_reader_reports_the_model_error_at_its_line(rows):
    # one home for each record rule: the reader only adds the row's line number
    lines = rows.split("\n")
    data_lines = [n for n, line in enumerate(lines, start=2) if line]
    cells = [line.split(",") for line in lines if line]
    p, re, im = ([float(c[i]) if i else int(c[i]) for c in cells] for i in range(3))
    with pytest.raises(DatasetError) as model:
        Dataset(DatasetHeader("x", True, 10), Records(p, re, im))
    with pytest.raises(DatasetFormatError) as reader:
        loads_csv(f"# source=x,self_dual=true,X=10\n{rows}\n")
    assert str(reader.value) == f"line {data_lines[model.value.row]}: {model.value}"


def test_negative_header_x_rejected():
    with pytest.raises(DatasetFormatError, match="^line 1: header X=-1 is negative"):
        loads_csv("# source=x,self_dual=true,X=-1\n")


def test_negative_header_x_rejected_without_rows():
    # with no rows there is no prime to name: the header itself is at fault
    with pytest.raises(DatasetError, match="^header X=-1 is negative$"):
        Dataset(DatasetHeader("x", True, -1), Records([], []))


def test_bad_self_dual_header_value_names_its_line():
    with pytest.raises(DatasetFormatError, match="^line 1: expected true/false, got 'maybe'$"):
        loads_csv("# source=x,self_dual=maybe,X=10\n5,0.1,0.0\n")


def test_malformed_header_item_names_its_line():
    with pytest.raises(DatasetFormatError, match="^line 1: malformed header item 'oops'$"):
        loads_csv("# source=x,oops,self_dual=true,X=3\n")


def test_unsorted_records_rejected():
    with pytest.raises(DatasetError):
        Dataset(DatasetHeader("x", True, 10), Records([5, 3], [0.1, 0.2]))


# ---------------------------------------------------------------------------
# column cache


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """This test's own cache directory, not yet made."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "heckebound"


@pytest.fixture
def parses(monkeypatch):
    """The number of passes of the per-row loop so far, as a one-item list."""
    count, loop = [0], datasets._loads_rows

    def counted(*args):
        count[0] += 1
        return loop(*args)

    monkeypatch.setattr(datasets, "_loads_rows", counted)
    return count


def big_text(source="big", newline="\n", raw=False, blanks=()):
    """A CSV text of CACHE_MIN_BYTES or more: 45,000 primes whose a_re and a_im run
    through signed zeros, subnormals and doubles next to +-2, with blanks as lines
    among the rows, and exact integers a_raw if raw."""
    ps = first_n_primes(45_000)
    values = [-0.0, 5e-324, -2.5e-310, 0.0, 1.9999999999999998, -1.9999999999999998, 0.1]
    rows = [f"{p},{values[i % 7]!r},{values[i % 5]!r}" + (f",{(-1) ** i * p ** 5}" if raw else "") for i, p in enumerate(ps)]
    rows[1000:1000] = blanks
    text = newline.join([f"# source={source},self_dual=false,X={ps[-1]}", *rows, ""])
    assert len(text.encode("utf-8")) >= CACHE_MIN_BYTES
    return text


def columns(dataset):
    """dataset as the CSV oracle gives it: the header, the bytes of each array column, a_raw."""
    r = dataset.records
    return dataset.header, bytes(r.p), bytes(r.a_re), bytes(r.a_im), r.a_raw


def entry_name(data: bytes) -> str:
    return f"{hashlib.sha256(data).hexdigest()}-{sys.byteorder}-v1.cols"


def spoil(entry: bytes, how: str) -> bytes:
    """A cache entry's bytes damaged as how names; "" rebuilds them unchanged."""
    head = array("q", entry[:16])
    n = head[0]
    p, a_re, a_im = (array(code, entry[16 + 8 * n * i : 16 + 8 * n * (i + 1)]) for i, code in enumerate("qdd"))
    text = entry[16 + 24 * n :]
    if how == "short":
        return entry[:-1]
    if how == "rows":  # pi(MAX_P) = ST_N_CAP rows bound any valid file
        head[0] = ST_N_CAP + 1
    elif how == "huge rows":  # columns that cannot be read
        head[0] = 2**60
    elif how == "range":  # a sieve to 2^62 cannot be made
        p[-1] = 2**62
    elif how == "negative":  # an index before the start of any sieve
        p[1] = -(2**40)
    elif how == "composite":
        p[1] = 4
    elif how == "order":
        p[1], p[2] = p[2], p[1]
    elif how == "nan":
        a_re[7] = math.nan
    elif how == "x":  # the prime after the header's X
        p[-1] = first_n_primes(n + 1)[-1]
    elif how == "raw":
        text = b"x" + text[1:]
    elif how == "byteorder":
        for column in (head, p, a_re, a_im):
            column.byteswap()
    return b"".join(c.tobytes() for c in (head, p, a_re, a_im)) + text


@pytest.mark.parametrize(
    "newline, raw, blanks",
    [("\n", False, ()), ("\r\n", False, ("", "\u3000\u00a0")), ("\n", True, ("", " "))],
    ids=["lf", "crlf-blank-lines", "raw-column"],
)
def test_a_cache_hit_gives_the_parsed_dataset(tmp_path, cache, parses, newline, raw, blanks):
    # the same header and the same bytes in every column, -0.0 and subnormals
    # included, whether the rows are parsed or loaded from the entry
    text = big_text(newline=newline, raw=raw, blanks=blanks)
    path = tmp_path / "big.csv"
    path.write_bytes(text.encode("utf-8"))
    miss = read_csv(path)
    assert parses == [1]
    hit = read_csv(path)
    assert parses == [1]
    assert columns(hit) == columns(miss) == oracle(text)
    assert columns(loads_csv(text)) == oracle(text)  # the same bytes find the same entry
    assert parses == [1]


def test_the_cache_entry_is_named_by_the_bytes(tmp_path, cache):
    text = big_text()
    path = tmp_path / "big.csv"
    path.write_bytes(text.encode("utf-8"))
    read_csv(path)
    assert [entry.name for entry in cache.iterdir()] == [entry_name(text.encode("utf-8"))]
    assert cache.stat().st_mode & 0o777 == 0o700


@pytest.mark.parametrize(
    "argv", [["verify", "--theorem", "t1pos", "--json"], ["probe", "--k", "4", "--json"]], ids=["verify", "probe"]
)
def test_cli_prints_the_same_bytes_on_a_miss_and_a_hit(tmp_path, capsys, cache, parses, st_100k, argv):
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)
    outputs = []
    for _ in range(2):
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 0
        outputs.append(capsys.readouterr())
    assert parses == [1]
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


@pytest.mark.parametrize(
    "how", ["short", "rows", "huge rows", "range", "negative", "composite", "order", "nan", "x", "raw", "byteorder"]
)
def test_a_bad_cache_entry_is_passed_over(tmp_path, cache, parses, how):
    # the cache is an input boundary: an entry that fails to load or to pass
    # the reader's checks is ignored, the file parsed and the entry written anew
    text = big_text(raw=True)
    path = tmp_path / "big.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = columns(read_csv(path))
    (entry,) = cache.iterdir()
    good = entry.read_bytes()
    assert spoil(good, "") == good
    entry.write_bytes(spoil(good, how))
    assert columns(read_csv(path)) == expected
    assert parses == [2]
    assert entry.read_bytes() == good


def test_a_piped_file_reads_no_cache_entry(tmp_path, cache, st_100k):
    # a pipe cannot be read twice, so an entry that failed would leave nothing to parse
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)
    argv = [sys.executable, "-m", "heckebound.cli", "verify", "--theorem", "t1pos", "--json", "--input"]
    expected = subprocess.run([*argv, str(path)], env=CLI_ENV, capture_output=True, check=True).stdout
    (entry,) = cache.iterdir()
    entry.write_bytes(spoil(entry.read_bytes(), "nan"))
    piped = subprocess.run([*argv, "/dev/stdin"], input=path.read_bytes(), env=CLI_ENV, capture_output=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, expected, b"")


def refuse(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


@pytest.mark.parametrize("where", ["read-only", "no home", "relative"])
def test_a_cache_it_cannot_use_leaves_the_read_as_it_was(tmp_path, monkeypatch, capsys, cache, st_100k, where):
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)
    argv = ["verify", "--input", str(path), "--theorem", "t1pos", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    shutil.rmtree(cache)
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if where == "read-only":
        cache.mkdir(mode=0o500)
        if os.geteuid() == 0:  # root passes the mode bits; refuse the file as the kernel does any other user
            monkeypatch.setattr(tempfile, "mkstemp", refuse)
    elif where == "no home":
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(pwd, "getpwuid", lambda uid: {}[uid])  # no entry in the password database
    else:  # a relative XDG_CACHE_HOME is ignored for ~/.cache
        monkeypatch.setenv("XDG_CACHE_HOME", "xdg")
        monkeypatch.setenv("HOME", str(home))
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert list(cwd.iterdir()) == []
    if where == "read-only":
        assert list(cache.iterdir()) == []
    if where == "relative":
        assert [entry.name for entry in (home / ".cache" / "heckebound").iterdir()] == [entry_name(path.read_bytes())]
    else:
        assert not home.exists()


def test_a_file_below_the_threshold_writes_no_entry(tmp_path, cache):
    text = big_text()
    body = text[: text.rindex("\n", 0, CACHE_MIN_BYTES - 100) + 1]
    under = body + " " * (CACHE_MIN_BYTES - 2 - len(body)) + "\n"  # a blank line pads it to one byte short
    path = tmp_path / "big.csv"
    path.write_text(under, encoding="ascii")
    assert path.stat().st_size == CACHE_MIN_BYTES - 1
    assert columns(read_csv(path)) == oracle(under)
    assert not cache.exists()
    path.write_text(under + "\n", encoding="ascii")
    assert columns(read_csv(path)) == oracle(under)
    assert len(list(cache.iterdir())) == 1


@pytest.mark.parametrize("row, message", [("4,0.1,0.0", "p = 4 is not prime"), ("seven,0.1,0.0", "invalid literal")])
def test_a_file_that_fails_writes_no_entry(tmp_path, cache, row, message):
    lines = big_text().split("\n")
    lines[30_000] = row
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines), encoding="ascii")
    for _ in range(2):
        with pytest.raises(DatasetFormatError, match=f"^line 30001: {message}"):
            read_csv(path)
    assert not cache.exists()


def test_the_cache_keeps_the_newest_entries(tmp_path, cache):
    # each write deletes the oldest by mtime, and a hit makes its entry the newest
    names = []
    for i in range(CACHE_ENTRIES + 3):
        data = big_text(f"big{i}").encode("ascii")
        path = tmp_path / f"{i}.csv"
        path.write_bytes(data)
        read_csv(path)
        names.append(entry_name(data))
        os.utime(cache / names[-1], (i, i))  # distinct mtimes, whatever the clock's grain
        if i == CACHE_ENTRIES + 1:
            read_csv(tmp_path / "2.csv")  # a hit: the oldest entry is now the newest
        assert len(list(cache.iterdir())) == min(i + 1, CACHE_ENTRIES)
    kept = {names[2], *names[-(CACHE_ENTRIES - 1) :]}
    assert {entry.name for entry in cache.iterdir()} == kept


def test_generate_writes_no_cache_and_loads_no_hashlib(tmp_path, cache):
    # hashlib loads OpenSSL, several MB of resident memory in the process that sets peak_rss_mb
    code = (
        "import sys; from heckebound.cli import main; "
        "main(['generate', '--kind', 'st', '--n', '100000', '--out', sys.argv[1]]); sys.exit('_hashlib' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code, str(tmp_path / "st.csv")], env=CLI_ENV).returncode == 0
    assert (tmp_path / "st.csv").stat().st_size >= CACHE_MIN_BYTES
    assert not cache.parent.exists()
