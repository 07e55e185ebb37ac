"""Generate and ingest normalized Hecke-eigenvalue datasets.

Three generators at desk scale, each capped: point counts on a short
Weierstrass model (p <= EC_X_CAP; baby-step giant-step on blocks of primes
at once as int64 arrays decides each prime where one of four points fixes
the count, and the O(p) character sweep settles the rest), the weight-12
level-1 q-expansion as Jacobi's cube series to the 8th power modulo four primes,
lifted exactly by the CRT (p <= TAU_X_CAP), and a counter-based inverse-CDF
sampler of the Sato-Tate law (the first ST_N_CAP primes).  Only the generators
import numpy, each once its arguments pass, so reading a dataset never loads it.
A dataset is a header plus `Records`: one column per CSV field, primes p, the
parts a_re and a_im of the unitarily normalized eigenvalues and optional exact
integers a_raw, validated once when built.
CSV files carry a `# source=...,self_dual=true|false,X=...` header line and
p,a_re,a_im[,a_raw] rows: every p a prime <= MAX_P, every a finite, a_raw an
exact integer on every row or on none, all ASCII without `_`.  Other header
keys are ignored, except that a normalization other than `unitary` is rejected.
read_csv and loads_csv share one reader over UTF-8 bytes, its lines ended at a
newline alone (text mode folds '\r\n' and '\r'): a per-row loop that parses each
row, then one check of primality and the model's rules on its columns; a fault
at any row is named at its line.  An input of CACHE_MIN_BYTES or more keeps its
columns in <$XDG_CACHE_HOME or ~/.cache>/heckebound under its SHA-256 for later
reads, CACHE_ENTRIES at most; deleting it clears them; `generate` writes none.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
import sys
from array import array
from bisect import bisect_right
from collections import namedtuple
from pathlib import Path

from .errors import DatasetError, DatasetFormatError, ParameterError

EC_X_CAP = 100_000
TAU_X_CAP = 10_000
ST_N_CAP = 100_000
MAX_P = 1_299_709  # the ST_N_CAP-th prime, the largest p any generator emits
# 11a1 in short Weierstrass form y^2 = x^3 - 27*c4*x - 54*c6 with
# (c4, c6) = (496, 20008); good away from 2, 3, 11.
CURVE_11A1 = (-13392, -1080432)
TAU_MODULI = (2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101)  # primes; see tau_coefficients
CSV_BLOCK = 2048  # rows formatted at a time, so no per-row list spans the file
READ_BYTES = 1 << 16  # bytes of rows decoded at a time, so no list of lines spans the file
CACHE_MIN_BYTES = 1 << 20  # the smallest input whose columns the reader caches
CACHE_ENTRIES = 8  # cached datasets kept, the newest by mtime
EC_BLOCK = 512  # primes counted together by _ec_trace_batch, so its tables stay small
SEED_MODULUS = 2**64 - 59  # the largest prime below 2^64; any int seed folds to its residue
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment


class Records(namedtuple("Records", "p a_re a_im a_raw")):
    """Per-prime columns, one per CSV field, each copied into an array and held
    behind a read-only memoryview: p (int64, given as integers that fit it, at
    least 2, strictly increasing), a_re and a_im (float64, finite; a_im is zero
    where none is given) and a_raw (None, or a tuple of one exact int per prime,
    since tau(p) exceeds int64 and the float mantissa).  len() is the number of
    primes.  A bad p or a is reported at its first row (`DatasetError.row`)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__ and compares len() with 4

    def __new__(cls, p, a_re, a_im=None, a_raw=None):
        try:
            p = array("q", p)
        except (TypeError, OverflowError):
            raise DatasetError("primes must be exact integers within int64") from None
        a_re = array("d", a_re)
        a_im = array("d", [0.0]) * len(a_re) if a_im is None else array("d", a_im)
        return cls._adopt(p, a_re, a_im, None if a_raw is None else tuple(a_raw))

    @classmethod
    def _adopt(cls, p, a_re, a_im, raw):
        """Records over the arrays p ("q"), a_re and a_im ("d") and raw (None or a
        tuple), held as given: only a builder that drops them may pass them."""
        if not len(p) == len(a_re) == len(a_im) or (raw is not None and len(raw) != len(p)):
            raise DatasetError("record columns must be of equal length")
        row = next(itertools.compress(itertools.count(), map(operator.ge, itertools.chain((1,), p), p)), None)
        if row is not None:  # p[0] < 2 is out of order too
            raise DatasetError("records must be sorted strictly increasing in p >= 2", row=row)
        if not math.isfinite(sum(a_re) + sum(a_im)):  # finite unless a value is not, or the sum overflows
            for row, x, y in zip(itertools.count(), a_re, a_im):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise DatasetError(f"eigenvalue at p = {p[row]} is not finite", row=row)
        if raw is not None and not all(type(v) is int for v in raw):
            raise DatasetError("raw eigenvalues must be exact integers")
        return super().__new__(cls, *(memoryview(c).toreadonly() for c in (p, a_re, a_im)), raw)

    def __len__(self) -> int:
        return len(self.p)


class DatasetHeader(namedtuple("DatasetHeader", "source self_dual X")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__; _replace calls it

    def __new__(cls, source, self_dual, X):
        if X < 0:
            raise DatasetError(f"header X={X} is negative")
        return super().__new__(cls, source, self_dual, X)


class Dataset(namedtuple("Dataset", "header records")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__; _replace calls it

    def __new__(cls, header, records):
        p, X = records.p, header.X
        if len(p) and p[-1] > X:
            row = bisect_right(p, X)  # p is sorted
            raise DatasetError(f"record prime {p[row]} exceeds header X={X}", row=row)
        return super().__new__(cls, header, records)


# ---------------------------------------------------------------------------
# Primes


def _sieve(x: int) -> bytearray:
    """Eratosthenes' table: entry n is 1 iff n is prime, for n <= x."""
    x = max(x, 1)
    sieve = bytearray(b"\x01") * (x + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    return sieve


def primes_up_to(x: int) -> list[int]:
    return list(itertools.compress(itertools.count(), _sieve(x)))


def first_n_primes(n: int) -> list[int]:
    return _first_primes(n).tolist()


def _first_primes(n: int) -> array:
    if n < 1:
        raise ParameterError("need n >= 1 primes")
    import numpy as np

    # Rosser-Schoenfeld: p_n < n (ln n + ln ln n) for n >= 6, so one sieve suffices (+1 for rounding)
    bound = 15 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    primes = np.flatnonzero(np.frombuffer(_sieve(bound), dtype=np.uint8))[:n]  # the sieve is gone before ps
    ps = array("q", [0]) * n
    np.frombuffer(ps, dtype=np.int64)[:] = primes  # the one copy of numpy's indices
    return ps


# ---------------------------------------------------------------------------
# Elliptic curve point counts


def _ec_trace(A: int, B: int, p: int) -> int:
    """a_p = p + 1 - #E(F_p) for y^2 = x^3 + Ax + B via a full
    quadratic-character sweep over x: O(p), exact at every p, for the primes
    that _ec_trace_batch leaves undecided, and its test oracle."""
    import numpy as np

    xs, square = np.arange(p, dtype=np.int64), np.zeros(p, dtype=bool)
    f = xs * xs  # x^2, then in place x(x^2 + A) + B = f(x), each mod p
    f %= p
    square[f] = True
    square[0] = False
    f += A % p
    f *= xs
    del xs
    f += B % p
    f %= p
    # sum chi(f) = #(f a nonzero square) - #(f a non-square) = 2 #(f a nonzero square) - #(f != 0)
    return int(np.count_nonzero(f)) - 2 * int(np.count_nonzero(square[f]))


def _proj_add(P, Q, p):
    """P + Q on int64 arrays of projective points (X, Y, Z) mod p, for
    x(P) != x(Q); where x(P) = x(Q), or P or Q is O (Z = 0), it gives Z = 0."""
    (X1, Y1, Z1), (X2, Y2, Z2) = P, Q
    X1Z2, Y1Z2, Z1Z2 = X1 * Z2 % p, Y1 * Z2 % p, Z1 * Z2 % p
    u = (Y2 * Z1 - Y1Z2) % p
    v = (X2 * Z1 - X1Z2) % p
    vv = v * v % p
    vvv = v * vv % p
    R = vv * X1Z2 % p
    t = (u * u % p * Z1Z2 - vvv - 2 * R) % p
    return v * t % p, (u * (R - t) - vvv * Y1Z2) % p, vvv * Z1Z2 % p


def _proj_double(P, a, p):
    """2P on y^2 = x^3 + ax + b like _proj_add; Z = 0 where y = 0 (2P = O) or P = O."""
    X, Y, Z = P
    w = (a * (Z * Z % p) + 3 * (X * X % p)) % p
    s = Y * Z % p
    b = X * Y % p * s % p
    h = (w * w - 8 * b) % p
    ss = s * s % p
    Y2 = (w * ((4 * b - h) % p) - 8 * (Y * Y % p * ss % p)) % p
    return 2 * h * s % p, Y2, 8 * (ss * s % p) % p


def _ec_trace_batch(A: int, B: int, ps, point: int):
    """(a_p, decided) at each of ps, an int64 array of good primes below 2^31
    (so every product of two residues fits int64), from x = point - 1/2 mod p,
    the x of no rational point (that is m/e^2 in lowest terms), so no pass
    meets a torsion point of small order at every p.  With f = x^3 + Ax + B,
    the point (xf, f^2) lies on E_f: y^2 = x^3 + Af^2 x + Bf^3, which is E
    itself when f is a square mod p, else its quadratic twist, whose count is
    2p + 2 - #E; where f = 0 its y = 0 leaves the prime undecided.

    The point's annihilators N in the Hasse interval are counted by one
    baby-step giant-step on all of ps at once, in projective coordinates,
    with one baby count s for the block.  The count is exact: a giant step
    m_k P meets +-jP (j <= s) at every N = m_k -+ j.  A prime is decided when
    exactly one N is found, for #E_f kills the point and lies in the interval,
    so N = #E_f.  It is left undecided when a chain step meets equal x or the
    point at infinity, or a baby step has y = 0 (its sign is then ambiguous),
    or the count is not 1, as it never is when the point's order is <= 2s."""
    import numpy as np

    n, qs = len(ps), ps.tolist()
    w = np.array([math.isqrt(4 * q) for q in qs], dtype=np.int64)
    lo, hi = ps + 1 - w, ps + 1 + w
    a0, b0 = (np.array([c % q for q in qs], dtype=np.int64) for c in (A, B))
    x = (ps // 2 + point) % ps  # point - 1/2 mod p
    f = ((x * x + a0) % ps * x + b0) % ps
    a = a0 * (f * f % ps) % ps
    P = np.stack([x * f % ps, f * f % ps, np.ones_like(ps)])
    # steps[:, j] holds (j + 1) P for j < s, then the giant steps G_k = m_k P at
    # m_k = lo + s + k(2s + 1), each a projective (X, Y, Z) row of the block
    s = math.isqrt(int(w.max())) + 1
    K = 2 * int(w.max()) // (2 * s + 1) + 1
    steps = np.empty((3, s + K, n), dtype=np.int64)
    steps[:, 0] = R = P
    for j in range(1, s):
        steps[:, j] = R = _proj_double(P, a, ps) if j == 1 else _proj_add(R, P, ps)
    step = _proj_add(_proj_double(R, a, ps), P, ps)  # (2s + 1) P
    # G_0 by double-and-add, each prime's chain starting at its own top bit
    m, G, started = lo + s, P, np.zeros(n, dtype=bool)
    for bit in range(int(m.max()).bit_length() - 1, -1, -1):
        on = (m >> bit & 1).astype(bool)
        G = np.where(started, _proj_double(G, a, ps), G)
        G = np.where(on, np.where(started, _proj_add(G, P, ps), P), G)
        started |= on
    steps[:, s] = G
    for k in range(s + 1, s + K):
        steps[:, k] = G = _proj_add(G, step, ps)
    # one inversion per prime makes every step affine (Montgomery's trick)
    Z = steps[2]
    prefix = Z.copy()
    for j in range(1, s + K):
        prefix[j] = prefix[j - 1] * Z[j] % ps
    # a step that is O, or that added equal x or doubled y = 0, has Z = 0, and so
    # has every step after it: the product is 0, and any inverse serves there
    bad = prefix[-1] == 0
    inv = np.array([pow(z, -1, q) if z else 0 for z, q in zip(prefix[-1].tolist(), qs)])
    for j in range(s + K - 1, 0, -1):
        Z[j], inv = inv * prefix[j - 1] % ps, inv * Z[j] % ps
    Z[0] = inv
    steps[:2] *= Z
    steps[:2] %= ps
    # G_k = jP gives N = m_k - j and G_k = -jP gives m_k + j, one sign unless y = 0
    (bx, gx), (by, gy) = ((c[:s], c[s:]) for c in steps[:2])
    bad |= (by == 0).any(axis=0)
    match = gx[:, None] == bx
    match[..., bad] = False  # never decided; after a step at O every x is 0, so each giant would match each baby
    k, j, i = np.nonzero(match)
    same = gy[k, i] == by[j, i]
    N = m[i] + k * (2 * s + 1) + np.where(same, -(j + 1), j + 1)
    inside = (lo[i] <= N) & (N <= hi[i])
    count = np.bincount(i[inside], minlength=n)
    total = np.bincount(i[inside], weights=N[inside], minlength=n).astype(np.int64)
    square = np.array([pow(v, q // 2, q) == 1 for v, q in zip(f.tolist(), qs)])
    return ps + 1 - np.where(square, total, 2 * ps + 2 - total), count == 1


def ec_ap(A: int, B: int, X: int) -> Dataset:
    """Unitarily normalized a_p/sqrt(p) for all good primes p <= X of the
    curve y^2 = x^3 + Ax + B; bad primes (dividing 2*disc) are skipped.

    The good primes go to _ec_trace_batch in blocks of EC_BLOCK, with the
    point at x = -1/2 and then, at the primes each point leaves, the next x,
    up to four.  The batch decides only where one point's annihilators in the
    Hasse interval are a single N, which is then #E_f, so it is exact at
    every p; the sweep _ec_trace counts what it leaves."""
    disc = -16 * (4 * A ** 3 + 27 * B ** 2)
    if disc == 0:
        raise DatasetError(f"curve y^2 = x^3 + {A}x + {B} is singular")
    if X < 5:
        raise ParameterError("need X >= 5")
    if X > EC_X_CAP:
        raise ParameterError(f"X = {X} exceeds the point-counting cap {EC_X_CAP}")
    import numpy as np

    skipped, good = [], []
    for p in primes_up_to(X):
        (good if (2 * disc) % p else skipped).append(p)
    ps = np.array(good, dtype=np.int64)
    raw, undecided = np.zeros_like(ps), np.ones(len(ps), dtype=bool)  # indexed like good
    for point in range(4):  # the primes each point leaves get the next one
        pending = np.flatnonzero(undecided)
        for i in range(0, len(pending), EC_BLOCK):
            block = pending[i : i + EC_BLOCK]
            ap, decided = _ec_trace_batch(A, B, ps[block], point)
            raw[block[decided]] = ap[decided]
            undecided[block[decided]] = False
    raw = [_ec_trace(A, B, p) if left else ap for p, ap, left in zip(good, raw.tolist(), undecided.tolist())]
    a = [ap / math.sqrt(p) for p, ap in zip(good, raw)]
    source = f"ec[a={A};b={B};skipped={';'.join(map(str, skipped))}]"
    return Dataset(DatasetHeader(source, True, X), Records(good, a, a_raw=raw))


# ---------------------------------------------------------------------------
# Weight-12 level-1 coefficients


def _tau_residues(X: int):
    """tau(1)..tau(X) modulo each of TAU_MODULI, one row per modulus.  By
    Jacobi, prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2), which has
    about sqrt(2X) terms, and Delta/q is its 8th power: 8 rounds of sparse
    shift-adds, reduced once per round (at the cap each of the 141 terms is
    below 2^39 and their sum below 2^47, inside int64)."""
    import numpy as np

    terms = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(math.isqrt(2 * X) + 1)]
    moduli = np.array(TAU_MODULI, dtype=np.int64)[:, None]
    f = np.zeros((len(TAU_MODULI), X), dtype=np.int64)
    f[:, 0] = 1
    for _ in range(8):
        g = np.zeros_like(f)
        for shift, c in terms:
            if shift < X:
                g[:, shift:] += c * f[:, : X - shift]
        f = g % moduli
    return f


@functools.lru_cache(maxsize=4)
def tau_coefficients(X: int) -> tuple[int, ...]:
    """tau(1)..tau(X) as exact ints: the residues of `_tau_residues` lifted by
    the CRT to the symmetric range, which holds every tau(n) because the
    product of TAU_MODULI exceeds 2 d(n) n^(11/2) >= 2|tau(n)| for n <= the cap."""
    if X > TAU_X_CAP:
        raise ParameterError(f"X = {X} exceeds the exact-series cap {TAU_X_CAP}")
    if X < 1:
        raise ParameterError("need X >= 1")
    big = math.prod(TAU_MODULI)
    basis = [big // m * pow(big // m, -1, m) for m in TAU_MODULI]
    lifted = (sum(map(operator.mul, rs, basis)) % big for rs in zip(*_tau_residues(X).tolist()))
    return tuple(v - big if v > big // 2 else v for v in lifted)


def tau_ap(X: int) -> Dataset:
    """Normalized tau(p)/p^(11/2) for primes p <= X, each raw tau(p) first
    checked against Deligne's bound |tau(p)| <= 2 p^(11/2)."""
    taus = tau_coefficients(X)
    ps = primes_up_to(X)
    raw = [taus[p - 1] for p in ps]
    for p, tau in zip(ps, raw):
        if tau ** 2 > 4 * p ** 11:
            raise DatasetError(f"tau({p}) = {tau} exceeds Deligne's bound 2 p^(11/2)")
    records = Records(ps, [tau / p ** 5.5 for p, tau in zip(ps, raw)], a_raw=raw)
    return Dataset(DatasetHeader(f"tau[X={X}]", True, X), records)


# ---------------------------------------------------------------------------
# Synthetic sampler


def _mix64(z):
    """SplitMix64's output mix of a uint64 array (arithmetic wraps mod 2^64)."""
    import numpy as np

    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _sato_tate_angle(u):
    """theta in [0, pi] with F(theta) = (theta - sin theta cos theta)/pi = u,
    the Sato-Tate CDF, for u in [0, 1): Newton's method from cbrt(3 pi u/2),
    where F(theta) ~ 2 theta^3/(3 pi) (mirrored about pi/2 for u >= 1/2),
    clipped to [0, pi].  Six steps reach |F(theta) - u| <= 3.4e-16."""
    import numpy as np

    theta = np.cbrt(1.5 * np.pi * np.minimum(u, 1.0 - u))
    theta = np.where(u < 0.5, theta, np.pi - theta)
    for _ in range(6):
        sin = np.sin(theta)
        slope = 2.0 / np.pi * np.square(sin)
        residual = (theta - sin * np.cos(theta)) / np.pi - u
        theta -= np.divide(residual, slope, out=np.zeros_like(theta), where=slope > 0)
        np.clip(theta, 0.0, np.pi, out=theta)
    return theta


def sato_tate_sample(n: int, seed: int) -> Dataset:
    """a_p = 2 cos(theta_p) on the first n primes, theta_p drawn from the
    density (2/pi) sin^2 by inverse CDF.  The i-th prime's uniform is the top
    53 bits of output i of SplitMix64 started at seed mod SEED_MODULUS, which
    is computed from (seed, i) alone, so output is reproducible, independent
    of evaluation order, and a prefix of any longer run with the same seed."""
    if n > ST_N_CAP:
        raise ParameterError(f"n = {n} exceeds the sampler cap {ST_N_CAP}")
    ps = _first_primes(n)
    import numpy as np

    a, key, golden = array("d", [0.0]) * n, np.uint64(seed % SEED_MODULUS), np.uint64(_GOLDEN)
    column = np.frombuffer(a, dtype=np.float64)  # each block is written into a in place
    for i in range(0, n, CSV_BLOCK):  # elementwise, so a block's temporaries are all it holds
        bits = _mix64(key + np.arange(i + 1, min(i + CSV_BLOCK, n) + 1, dtype=np.uint64) * golden)
        np.multiply(np.cos(_sato_tate_angle((bits >> 11) * 2.0**-53)), 2.0, out=column[i : i + CSV_BLOCK])
    records = Records._adopt(ps, a, array("d", [0.0]) * n, None)
    return Dataset(DatasetHeader(f"sato-tate[n={n};seed={seed}]", True, ps[-1]), records)


# ---------------------------------------------------------------------------
# CSV round trip


def write_csv(path: str | Path, dataset: Dataset) -> None:
    """Write dataset's CSV to path.  A writable regular file there is unlinked and created anew, not
    truncated, skipping ext4's flush on close that guards against an empty file after a crash: a crash
    soon after, or a failed open, may leave no data (datasets regenerate from a seed).  The new file
    gets the umask's mode, the writer's owner and no ACL; hard links keep the old bytes.  A symlink
    (/dev/stdout, /proc/self/fd/N) is written through in place, so its target keeps its inode."""
    chunks = csv_chunks(dataset)
    head = next(chunks)  # a refused header leaves the file as it was
    if os.path.isfile(path) and not os.path.islink(path) and os.access(path, os.W_OK):  # else opened in place
        with contextlib.suppress(OSError):
            os.unlink(path)
    with Path(path).open("w", encoding="utf-8") as f:
        f.writelines(itertools.chain([head], chunks))


def dumps_csv(dataset: Dataset) -> str:
    return "".join(csv_chunks(dataset))


def csv_chunks(dataset: Dataset):
    """dataset's CSV text as the header line, then CSV_BLOCK rows at a time."""
    h, r = dataset.header, dataset.records
    line = f"# source={h.source},self_dual={'true' if h.self_dual else 'false'},X={h.X}\n"
    try:  # the reader's own header step, on the line as text mode reads it, so its rules live in one place
        readable = _head(line.encode("utf-8", "surrogatepass").replace(b"\r", b"\n")) == (h, [""])
    except DatasetFormatError:
        readable = False
    if not readable:
        raise DatasetError(f"header line {line!r} would not read back as written")
    yield line
    for block in (slice(i, i + CSV_BLOCK) for i in range(0, len(r), CSV_BLOCK)):
        cols = (c[block].tolist() for c in (r.p, r.a_re, r.a_im))  # no row outlives its block
        if r.a_raw is None:
            yield "".join([f"{p},{x!r},{y!r}\n" for p, x, y in zip(*cols)])
        else:
            yield "".join([f"{p},{x!r},{y!r},{raw}\n" for p, x, y, raw in zip(*cols, r.a_raw[block])])


def read_csv(path: str | Path) -> Dataset:
    """loads_csv on a file read as bytes, once unless it is a regular file with a bad cache entry."""
    return _load(Path(path).read_bytes, os.path.isfile(path))


def loads_csv(text: str) -> Dataset:
    """Parse a CSV dataset: the per-row loop, then one check of its columns,
    which names the line of the first bad row."""
    return _load(lambda: text.encode("utf-8", "surrogatepass"))


def _loads_rows(data: bytes, start: int, strict: bool, blank: list):
    """The lines of data from offset start on, parsed one at a time into the
    columns (p, a_re, a_im, a_raw); a blank line holds no row and appends the
    number of rows before it to blank.  A row that does not parse, or whose p is
    outside 2..MAX_P, is refused at its row.  The lines are decoded READ_BYTES
    at a time, so no list of them spans the file.  Only a strict pass, over rows
    that hold a '_' or a non-ASCII character somewhere, looks for them in each row."""
    p, a_re, a_im, raws = array("q"), array("d"), array("d"), []
    width, end = None, start - 1
    while end < len(data):
        start = end + 1
        end = data.find(b"\n", start + READ_BYTES)
        if end < 0:
            end = len(data)
        for line in data[start:end].decode("utf-8").split("\n"):
            parts = line.split(",")
            if len(parts) != width:
                if not line.strip():
                    blank.append(len(p))
                    continue
                if width is not None or len(parts) not in (3, 4):
                    raise DatasetError(f"expected {width or '3 or 4'} columns, got {len(parts)}", row=len(p))
                width = len(parts)
            if strict and ("_" in line or not line.isascii()):  # int() and float() read both as digits
                what = "'_'" if "_" in line else "non-ASCII character"
                raise DatasetError(f"{what} in a number: {line!r}", row=len(p))
            try:
                q, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                if width == 4:
                    raws.append(int(parts[3]))
            except ValueError as exc:
                raise DatasetError(str(exc), row=len(p)) from None
            # the range check comes before p goes into an int64 column or sizes a sieve
            if not 2 <= q <= MAX_P:
                raise DatasetError(f"p = {q} is outside 2..{MAX_P}", row=len(p))
            p.append(q)
            a_re.append(x)
            a_im.append(y)
    return p, a_re, a_im, tuple(raws) if width == 4 else None


def _text(data: bytes) -> str:
    """data decoded as UTF-8; a byte that is not names its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetFormatError(f"not UTF-8 text: {exc.reason}", line=line) from None


def _head(data: bytes) -> tuple[DatasetHeader, list[str]]:
    """The header on the first line of UTF-8 data, and the lines after it, cut at each newline."""
    line, *rest = _text(data).split("\n")  # '\x0b', '\x85', '\u2028', ... end no line
    if not line.startswith("#"):
        raise DatasetFormatError("missing '#' header line", line=1)
    fields = {}
    for item in line.lstrip("#").strip().split(","):
        if "=" not in item:
            raise DatasetFormatError(f"malformed header item {item!r}", line=1)
        key, value = item.split("=", 1)
        fields[key.strip()] = value.strip()
    normalization = fields.get("normalization", "unitary")
    if normalization != "unitary":
        raise DatasetFormatError(f"normalization {normalization!r} is not unitary", line=1)
    try:
        if "_" in fields["X"] or not fields["X"].isascii():  # int() reads both as digits
            raise ValueError(f"header X={fields['X']!r} is not an ASCII integer")
        source, self_dual = fields["source"], fields["self_dual"]
        if self_dual not in ("true", "false"):
            raise ValueError(f"expected true/false, got {self_dual!r}")
        return DatasetHeader(source, self_dual == "true", int(fields["X"])), rest
    except KeyError as exc:
        raise DatasetFormatError(f"header missing key {exc}", line=1) from None
    except (ValueError, DatasetError) as exc:
        raise DatasetFormatError(str(exc), line=1) from None


def _checked(header: DatasetHeader, p, a_re, a_im, raw) -> Dataset:
    """The dataset over parsed or cached columns, after the checks every read makes of them."""
    top = max(p, default=2)
    if top > MAX_P:  # before the sieve is sized; only a cached p can be, for the loop checks each p it parses
        raise DatasetError(f"p = {top} is outside 2..{MAX_P}", row=p.index(top))
    sieve = _sieve(top)
    composite = next(itertools.filterfalse(sieve.__getitem__, p), None)
    if composite is not None:  # its first row, for a composite met before is met first
        raise DatasetError(f"p = {composite} is not prime", row=p.index(composite))
    return Dataset(header, Records._adopt(p, a_re, a_im, raw))


def _cache_get(data: bytes, lookup: bool):
    """data's cache entry (None under CACHE_MIN_BYTES or with no home) and, if lookup, its unchecked columns
    or None: int64 n <= ST_N_CAP and the length of a_raw's text, n int64 p, n float64 a_re, a_im, the text."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    root = root if os.path.isabs(root) else os.path.expanduser("~/.cache")  # left as is with no home
    if len(data) < CACHE_MIN_BYTES or not os.path.isabs(root):
        return None, None
    import hashlib  # here, so that only a large read pays for its import

    entry = Path(root, "heckebound", f"{hashlib.sha256(data).hexdigest()}-{sys.byteorder}-v1.cols")
    head, *cols = array("q"), array("q"), array("d"), array("d")
    with contextlib.suppress(OSError, EOFError, ValueError), entry.open("rb") as f:
        head.fromfile(f, 2)
        if lookup and 0 <= head[0] <= ST_N_CAP:  # pi(MAX_P) = ST_N_CAP rows bound any valid file
            for column in cols:
                column.fromfile(f, head[0])
            raw = f.read()
            if len(raw) == head[1]:  # else the entry is short
                os.utime(entry)  # the newest entries are kept
                return entry, (*cols, tuple(map(int, raw.split())) or None)
    return entry, None


def _cache_put(entry: Path, r: Records) -> None:
    """Write r to entry through a temporary file, first deleting all but the CACHE_ENTRIES - 1 newest there."""
    import tempfile

    text = " ".join(map(str, r.a_raw or ())).encode()
    with contextlib.suppress(OSError):
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        for path in sorted(entry.parent.iterdir(), key=lambda path: -path.stat().st_mtime)[CACHE_ENTRIES - 1 :]:
            path.unlink()  # before the write, so that one that fails leaves no more files
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        with os.fdopen(fd, "wb") as f:
            f.writelines([array("q", [len(r), len(text)]), *r[:3], text])
        os.replace(tmp, entry)


def _load(read, lookup: bool = True) -> Dataset:
    """The dataset in the UTF-8 CSV bytes read() returns, lines ended as text mode ends them, each fault at a
    row named at its line; the bytes go before the checks of parsed or cached columns (a bad entry reads again)."""
    data = read()  # a local, not an argument a caller's frame holds, so that it can go
    if b"\r" in data:  # as text mode reads it, so that a line ends at b"\n" alone
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    plain = data.isascii()
    if not plain:  # the whole text first, so that its first bad byte is the fault named
        _text(data)
    start = data.find(b"\n") + 1 or len(data)
    header, _ = _head(data[:start])
    entry, columns = _cache_get(data, lookup)
    if columns:
        del data
        with contextlib.suppress(DatasetError, IndexError):  # IndexError: a cached p below -len(sieve)
            return _checked(header, *columns)
        return _load(read, lookup=False)
    blank = []  # the number of rows before each blank line, in order
    try:
        # once over the rows, so that a clean text skips the per-row test
        p, a_re, a_im, raw = _loads_rows(data, start, not plain or data.find(b"_", start) >= 0, blank)
        del data  # the columns are all that is left of the text
        dataset = _checked(header, p, a_re, a_im, raw)
    except DatasetError as exc:  # each fault names its row, and the blank lines before it move its line
        raise DatasetFormatError(str(exc), line=exc.row + 2 + bisect_right(blank, exc.row)) from None
    if entry:
        _cache_put(entry, dataset.records)
    return dataset
