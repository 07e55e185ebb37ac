import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heckebound import datasets
from heckebound.datasets import (
    CSV_BLOCK,
    CURVE_11A1,
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

SRC = str(Path(datasets.__file__).resolve().parents[1])
# the environment of a CLI process that imports this checkout's package
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

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
    # the O(p) character sweep, baby-step giant-step's last resort and oracle
    return [datasets._ec_trace(A, B, p) for p in data.records.p.tolist()]


@pytest.mark.parametrize(
    "A, B, X",
    [(*CURVE_11A1, 20_000), (-2, 3, 5_000), (0, 7, 5_000), (1, 0, 5_000), (-1, 0, 5_000)],
)
def test_ec_matches_character_sweep(A, B, X):
    data = ec_ap(A, B, X)
    assert list(data.records.a_raw) == sweep_traces(A, B, data)


BSGS_PRIMES = primes_up_to(3000)[1:]  # every odd prime below 3000


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(BSGS_PRIMES))
def test_bsgs_matches_character_sweep(A, B, p):
    assume((4 * A ** 3 + 27 * B ** 2) % p)
    assert datasets._ec_trace_bsgs(A, B, p) == datasets._ec_trace(A, B, p)


@pytest.mark.parametrize("A, B, p", [(-3, 3, 233), (-2, 1, 233)])
def test_annihilators_complete_on_every_point(A, B, p):
    # both groups have points of order 2s and below (s = 6 at p = 233), where
    # one giant step matches several baby steps; walk N*P over the interval
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    curve = [(x, y) for x in range(p) for y in roots.get((x ** 3 + A * x + B) % p, [])]
    for P in curve:
        R, walked = datasets._ec_mul(lo, P, A % p, p), set()
        for n in range(lo, hi + 1):
            if R is None:
                walked.add(n)
            R = datasets._ec_add(R, P, A % p, p)
        assert datasets._annihilators(P, A % p, p, lo, hi) == walked


def test_bsgs_sweeps_only_where_the_points_run_out(monkeypatch):
    sweep, swept = datasets._ec_trace, []

    def counted(A, B, p):
        swept.append((A, B, p))
        return sweep(A, B, p)

    monkeypatch.setattr(datasets, "_ec_trace", counted)
    # every point of y^2 = x^3 - 6x mod 5 leaves two counts in the Hasse interval
    assert datasets._ec_trace_bsgs(-6, 0, 5) == sweep(-6, 0, 5)
    assert swept == [(-6, 0, 5)]
    swept.clear()
    data = ec_ap(*CURVE_11A1, 3000)
    assert not swept
    assert list(data.records.a_raw) == [sweep(*CURVE_11A1, p) for p in data.records.p.tolist()]
    # above Mestre's bound 229 one point of E or its twist fixes the count
    for p in (p for p in primes_up_to(400) if p > 229):
        for A in range(-6, 7):
            for B in range(-6, 7):
                if (4 * A ** 3 + 27 * B ** 2) % p:
                    datasets._ec_trace_bsgs(A, B, p)
    assert not swept


def scalar_traces(A, B, data):
    # the per-prime baby-step giant-step, the batch's fallback and oracle
    return [datasets._ec_trace_bsgs(A, B, p) for p in data.records.p.tolist()]


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
    data = ec_ap(A, B, X)
    assert list(data.records.a_raw) == scalar_traces(A, B, data)


@settings(max_examples=30, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_ec_batch_matches_scalar_path_on_drawn_curves(A, B):
    assume(4 * A ** 3 + 27 * B ** 2)
    data = ec_ap(A, B, 3000)
    assert list(data.records.a_raw) == scalar_traces(A, B, data)


def test_batch_leaves_the_scalar_path_only_what_it_cannot_decide(monkeypatch):
    scalar, routed = datasets._ec_trace_bsgs, []

    def counted(A, B, p):
        routed.append(p)
        return scalar(A, B, p)

    monkeypatch.setattr(datasets, "_ec_trace_bsgs", counted)
    # the first point of y^2 = x^3 + 1 is (0, 1), of order 3 <= 2s at every
    # good prime: it decides none, and what the second point leaves is routed
    ps = np.array([p for p in primes_up_to(3000) if p > 229], dtype=np.int64)
    assert not datasets._ec_trace_batch(0, 1, ps, 0)[1].any()
    data = ec_ap(0, 1, 3000)
    assert {p for p in routed if p > 229}
    assert list(data.records.a_raw) == sweep_traces(0, 1, data)
    # a batch that decides nothing would route every prime
    routed.clear()
    data = ec_ap(*CURVE_11A1, 40_000)
    above = [p for p in data.records.p.tolist() if p > 229]
    assert len([p for p in routed if p > 229]) < 0.1 * len(above)
    raw = dict(zip(data.records.p.tolist(), data.records.a_raw))
    assert [raw[p] for p in routed] == [datasets._ec_trace(*CURVE_11A1, p) for p in routed]


def test_batch_memory_stays_blocked(monkeypatch):
    # the bound is 4x ec_ap's peak with every prime sent to a stubbed scalar
    # path: the lists and columns the scalar path builds too (its own
    # per-prime tables hold a few dozen points); the batch's block tables add
    # about 2x that, one block of every prime about 16x
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
    monkeypatch.setattr(datasets, "_ec_trace_bsgs", lambda A, B, p: 0)
    assert batched < 4 * peak()


def test_ec_11a1_known_traces(ec_11a1):
    raw = dict(zip(ec_11a1.records.p.tolist(), ec_11a1.records.a_raw))
    assert raw[5] == 1
    assert raw[7] == -2
    assert raw[13] == 4


def test_ec_bad_primes_skipped(ec_11a1):
    emitted = set(ec_11a1.records.p.tolist())
    assert not emitted & {2, 3, 11}
    assert "skipped" in ec_11a1.header.source


def test_ec_hasse_bound(ec_11a1):
    r = ec_11a1.records
    for p, a, raw in zip(r.p.tolist(), r.a.tolist(), r.a_raw):
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
    for a in tau_10k.records.a.tolist():
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
    a = st_100k.records.a.real.tolist()
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
    assert short == Records(long.p[:50], long.a[:50])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 2000), st.integers(-(2 ** 80), 2 ** 80))
def test_sato_tate_prefix_property(n, extra, seed):
    short = sato_tate_sample(n, seed).records
    long = sato_tate_sample(n + extra, seed).records
    assert short == Records(long.p[:n], long.a[:n])


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
    thetas = sorted(math.acos(max(-1.0, min(1.0, a / 2))) for a in st_100k.records.a.real.tolist())
    n = len(thetas)
    worst = 0.0
    for i, theta in enumerate(thetas):
        cdf = (theta - math.sin(theta) * math.cos(theta)) / math.pi
        worst = max(worst, abs(cdf - i / n), abs(cdf - (i + 1) / n))
    assert worst <= 0.02


def test_sato_tate_bounds(st_100k):
    assert all(-2 <= a <= 2 for a in st_100k.records.a.real.tolist())


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
    assert got.a.tolist() == want.a.tolist()
    assert got.a_raw == want.a_raw


def per_row_csv(data):
    # the data rows as formatted one list per file, before row blocks
    r = data.records
    rows = [f"{p},{x!r},{y!r}" for p, x, y in zip(r.p.tolist(), r.a.real.tolist(), r.a.imag.tolist())]
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
    ],
    ids=["sato-tate", "tau", "ec-11a1"],
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
    a = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    return Records(first_n_primes(n), a, rng.integers(-(10**6), 10**6, n).tolist() if raw else None)


@pytest.mark.parametrize("raw", [False, True], ids=["3-columns", "4-columns"])
@pytest.mark.parametrize("n", [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK])
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
    for path in (kept, new):
        with pytest.raises(DatasetError, match="^header source must not contain commas$"):
            write_csv(path, data)
    assert kept.read_bytes() == b"# source=kept,self_dual=true,X=10\n2,0.5,0.0\n"
    assert not new.exists()


@pytest.mark.parametrize(
    "header",
    [
        DatasetHeader("a\nb", True, 10),
        DatasetHeader("a\x0bb", True, 10),
        DatasetHeader("a\u2028b", True, 10),
        DatasetHeader("a\rb", True, 10),
        DatasetHeader(" padded ", True, 10),
        DatasetHeader("padded\t", True, 10),
        DatasetHeader("a\ud800b", True, 10),
        DatasetHeader("x", True, 10.0),
        DatasetHeader("x", True, True),
    ],
    ids=["newline", "vertical-tab", "line-separator", "carriage-return", "padded", "tab", "surrogate", "float-X", "bool-X"],
)
def test_header_the_reader_cannot_read_back_is_refused(tmp_path, header):
    # the reader cuts a line wherever splitlines does, strips each value,
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


SOURCE_CHARS = [",", "=", "#", " ", "\t", "\n", "\r", "\x0b", "\x85", "\u2028", "\xa0", "\ud800", "\udfff", "é"]


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from(SOURCE_CHARS), st.characters(exclude_categories=())), max_size=8))
def test_every_source_the_writer_takes_reads_back(tmp_path_factory, source):
    data = Dataset(DatasetHeader(source, False, 10), Records([2, 3], [0.5, -0.5j], [1, -2]))
    path = tmp_path_factory.getbasetemp() / "source.csv"
    try:
        write_csv(path, data)
    except DatasetError:
        with pytest.raises(DatasetError):
            dumps_csv(data)
        return
    assert read_csv(path) == loads_csv(dumps_csv(data)) == data


def test_sampler_and_reader_columns_hold_no_larger_array(tmp_path, st_100k):
    # neither the sieve's primes nor the reader's table of parsed fields
    # outlives the columns cut from it
    path = tmp_path / "st.csv"
    write_csv(path, st_100k)
    for records in (st_100k.records, read_csv(path).records):
        assert records.p.base is None and records.a.base is None


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


def per_row(text):
    """loads_csv with the one-pass reader declining, so the per-row loop decides."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "_loads_columns", lambda body: None)
        return loads_csv(text)


def outcome(load, text):
    """What a reader makes of a text: the dataset to the bit, or the error's
    class and message (which names the line).  A warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = load(text)
        except DatasetError as exc:
            return type(exc), str(exc)
    r = data.records
    return data.header, r.p.tobytes(), r.a.tobytes(), r.a_raw


def test_one_pass_reader_takes_every_generated_file(st_100k, tau_10k, ec_11a1):
    for data in (st_100k, tau_10k, ec_11a1):
        text = dumps_csv(data)
        assert datasets._loads_columns(text.partition("\n")[2].encode()) is not None
        assert outcome(loads_csv, text) == outcome(per_row, text) == outcome(lambda _: data, text)


CSV_HEAD = "# source=x,self_dual=true,X=50"
CSV_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, MAX_P]
# cells and characters on which numpy's loadtxt and int()/float()/splitlines
# were seen or are known to disagree, or that sit at a range boundary
ODD_CELLS = [
    "5.0", "5.7", "5e0", "+5", "-5", "05", "4", "1", "0", "", "1e400", "-1e400", "1e-400",
    "-0.0", ".5", "5.", "1E2", "+", "e", "--1", str(2**63), str(2**64 + 13), str(MAX_P + 1),
]
ODD_CHARS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "#", "\r", " ", "\t", "_", "é"]


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
@example(f"{CSV_HEAD}\n")  # header only: loadtxt warns on empty input
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
    assert outcome(loads_csv, text) == outcome(per_row, text)


@pytest.mark.parametrize(
    "rows",
    [
        "3,0.1,0.0\n\n9,0.2,0.0\n",  # composite
        "5,0.1,0.0\n3,0.2,0.0\n",  # out of order
        "3,0.1,0.0\n5,1e400,0.0\n",  # not finite
        "3,0.1,0.0\n13,0.2,0.0\n",  # above X
        "3,0.1,0.0,1\n9,0.2,0.0,2\n",
    ],
    ids=["composite", "order", "1e400", "above-X", "composite-4-columns"],
)
def test_canonical_fault_refused_from_its_columns(monkeypatch, rows):
    # the one-pass columns reach the shared check, which names the line the
    # per-row loop would, without a second parse
    text = f"# source=x,self_dual=true,X=10\n{rows}"
    want = outcome(per_row, text)
    assert want[0] is DatasetFormatError

    def no_second_parse(lines):
        raise AssertionError("the per-row loop parsed a canonical text")

    monkeypatch.setattr(datasets, "_loads_rows", no_second_parse)
    assert outcome(loads_csv, text) == want


@pytest.mark.parametrize("raw", ["", ",1"], ids=["3-columns", "4-columns"])
@pytest.mark.parametrize("p", ["5.0", "5.7", "5e0"])
def test_float_prime_refused_at_its_line(p, raw):
    # numpy 1.23+ reads these into an int64 column through a float with only a
    # DeprecationWarning; int() refuses them, and so does the reader on any numpy
    text = f"# source=x,self_dual=true,X=10\n3,0.1,0.0{raw}\n{p},0.2,0.0{raw}\n"
    message = f"line 3: invalid literal for int() with base 10: {p!r}"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        loads_csv(text)


def test_one_pass_reader_allocates_less_than_the_per_row_loop():
    # loadtxt widens a str it is given to 4 bytes a character: that copy alone
    # would break the second bound
    text = dumps_csv(sato_tate_sample(20_000, 5))
    loads_csv(text)  # lazy imports and caches come before the count
    peaks = []
    for load in (loads_csv, per_row):
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


def test_round_trip_empty():
    data = Dataset(DatasetHeader("empty", True, 10), Records([], []))
    assert loads_csv(dumps_csv(data)) == data


def test_simple_row_parses():
    data = loads_csv("# source=x,self_dual=true,normalization=unitary,X=10,omega_trivial=true\n5,0.447213,0.0\n")
    assert data.records.p[0] == 5
    assert data.records.a[0] == pytest.approx(0.447213)


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
        Records(p, a, a_raw)


def test_records_are_read_only():
    records = Records([2, 3], [0.1, 0.2])
    with pytest.raises(ValueError):
        records.a[0] = 5.0


def test_empty_records_are_valid():
    # numpy types an empty list float64; no prime is made up, so it is valid
    assert len(Records([], [])) == 0
    assert Records([], []).p.dtype == np.int64


def test_header_line_keys():
    data = Dataset(DatasetHeader("x", False, 10), Records([2], [0.5]))
    assert dumps_csv(data).splitlines()[0] == "# source=x,self_dual=false,X=10"


def test_composite_row_after_blank_line_names_its_line():
    text = "# source=x,self_dual=true,X=10\n5,0.1,0.0\n\n9,0.2,0.0\n"
    with pytest.raises(DatasetFormatError, match="line 4"):
        loads_csv(text)


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
        ("# source=x,self_dual=true,X=10\n3,0.1,0.0\n\x85\n5,0.1,\ud83d\ude00\n", 5),
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
    # the rows reach loadtxt as the file's bytes, undecoded, whatever the line ending
    path = tmp_path / "tau.csv"
    path.write_bytes(dumps_csv(tau_10k).replace("\n", newline).encode("ascii"))
    one_pass, seen = datasets._loads_columns, []
    monkeypatch.setattr(datasets, "_loads_columns", lambda body: seen.append(type(body)) or one_pass(body))

    def no_per_row(lines):
        raise AssertionError("the per-row loop ran")

    monkeypatch.setattr(datasets, "_loads_rows", no_per_row)
    assert outcome(read_csv, path) == outcome(lambda _: tau_10k, path)
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
    p = [int(c[0]) for c in cells]
    a = [complex(float(c[1]), float(c[2])) for c in cells]
    with pytest.raises(DatasetError) as model:
        Dataset(DatasetHeader("x", True, 10), Records(p, a))
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


def test_unsorted_records_rejected():
    with pytest.raises(DatasetError):
        Dataset(DatasetHeader("x", True, 10), Records([5, 3], [0.1, 0.2]))
