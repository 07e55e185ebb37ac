"""Generate and ingest normalized Hecke-eigenvalue datasets.

Three generators at desk scale, each capped: point counts on a short
Weierstrass model (p <= EC_X_CAP; baby-step giant-step on blocks of primes
above 229 at once as int64 arrays, and per prime for the rest and for any
prime a block leaves with more than one count, with the O(p) character sweep
only where the curve's points leave the count ambiguous, which Mestre's
theorem rules out above 229), the weight-12 level-1
q-expansion as Jacobi's cube series to the 8th power modulo four primes,
lifted exactly by the CRT (p <= TAU_X_CAP), and a counter-based inverse-CDF
sampler of the Sato-Tate law (the first ST_N_CAP primes).  A dataset
is a header plus `Records`: columns of primes p, unitarily normalized
eigenvalues a and optional exact integers a_raw, validated once when built.
CSV files carry a `# source=...,self_dual=true|false,X=...` header line and
p,a_re,a_im[,a_raw] rows: every p a prime <= MAX_P, every a finite, a_raw an
exact integer on every row or on none, all ASCII without `_`.  Other header
keys are ignored, except that a normalization other than `unitary` is rejected.
read_csv and loads_csv share one reader over UTF-8 bytes: it parses the rows as
`dumps_csv` writes them in one numpy pass and any other text with a per-row loop
that names the line of a fault it parses; one tail checks primality and the
model's rules on the columns of either.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from .errors import DatasetError, DatasetFormatError, ParameterError

EC_X_CAP = 100_000
TAU_X_CAP = 10_000
ST_N_CAP = 100_000
MAX_P = 1_299_709  # the ST_N_CAP-th prime, the largest p any generator emits
TAU_MODULI = (2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101)  # primes; see tau_coefficients
CSV_BLOCK = 8192  # rows formatted at a time, so no per-row list spans the file
EC_BLOCK = 512  # primes counted together by _ec_trace_batch, so its tables stay small
CSV_BYTES = b"0123456789+-.,eE\n"  # every byte dumps_csv writes below the header
SEED_MODULUS = 2**64 - 59  # the largest prime below 2^64; any int seed folds to its residue
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's state increment

# 11a1 in short Weierstrass form y^2 = x^3 - 27*c4*x - 54*c6 with
# (c4, c6) = (496, 20008); good away from 2, 3, 11.
CURVE_11A1 = (-13392, -1080432)


class Records:
    """Per-prime columns: p (int64, given as integers that fit it, at least 2,
    strictly increasing), a (complex128, finite) and a_raw (None, or one exact
    int per prime, since tau(p) exceeds int64 and the float mantissa).  Arrays
    are read-only: an int64 p or complex128 a that owns its data and is read-only
    is kept, any other column copied.  The attributes cannot be set.  A bad p or
    a is reported at its first row (`DatasetError.row`)."""

    __slots__ = ("p", "a", "a_raw")

    def __init__(self, p, a, a_raw=None):
        p = p if _adoptable(p, np.int64) else np.array(p)
        a = a if _adoptable(a, np.complex128) else np.array(a, dtype=np.complex128)
        if p.size and not np.can_cast(p.dtype, np.int64):  # [] comes back float64
            raise DatasetError(f"primes must be exact integers within int64, got dtype {p.dtype}")
        p = p.astype(np.int64, copy=False)
        raw = None if a_raw is None else tuple(a_raw)
        if p.ndim != 1 or a.shape != p.shape or (raw is not None and len(raw) != len(p)):
            raise DatasetError("record columns must be one-dimensional and of equal length")
        unsorted = np.diff(p, prepend=1) <= 0  # p[0] < 2 is out of order too
        if unsorted.any():
            message = "records must be sorted strictly increasing in p >= 2"
            raise DatasetError(message, row=int(np.argmax(unsorted)))
        finite = np.isfinite(a)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DatasetError(f"eigenvalue at p = {p[row]} is not finite", row=row)
        if raw is not None and not all(isinstance(v, int) for v in raw):
            raise DatasetError("raw eigenvalues must be exact integers")
        p.setflags(write=False)
        a.setflags(write=False)
        for name, value in (("p", p), ("a", a), ("a_raw", raw)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Records is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Records):
            return NotImplemented
        same = np.array_equal(self.p, other.p) and np.array_equal(self.a, other.a)
        return same and self.a_raw == other.a_raw


def _adoptable(c, dtype) -> bool:
    return isinstance(c, np.ndarray) and c.dtype == dtype and c.flags.owndata and not c.flags.writeable


class DatasetHeader(namedtuple("DatasetHeader", "source self_dual X")):
    __slots__ = ()

    def __new__(cls, source, self_dual, X):
        if X < 0:
            raise DatasetError(f"header X={X} is negative")
        return super().__new__(cls, source, self_dual, X)


class Dataset(namedtuple("Dataset", "header records")):
    __slots__ = ()

    def __new__(cls, header, records):
        p, X = records.p, header.X
        if len(p) and p[-1] > X:
            row = int(np.argmax(p > X))
            raise DatasetError(f"record prime {p[row]} exceeds header X={X}", row=row)
        return super().__new__(cls, header, records)


# ---------------------------------------------------------------------------
# Primes


def _sieve(x: int) -> np.ndarray:
    """Eratosthenes' table: entry n is True iff n is prime, for n <= x."""
    sieve = np.ones(max(x, 1) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(max(x, 1)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def primes_up_to(x: int) -> list[int]:
    return np.flatnonzero(_sieve(x)).tolist()


def first_n_primes(n: int) -> list[int]:
    return _first_primes(n).tolist()


def _first_primes(n: int) -> np.ndarray:
    if n < 1:
        raise ParameterError("need n >= 1 primes")
    # Rosser-Schoenfeld: p_n < n (ln n + ln ln n) for n >= 6, so one sieve suffices
    bound = 15 if n < 6 else int(n * (math.log(n) + math.log(math.log(n))) * 1.2) + 10
    return np.flatnonzero(_sieve(bound))[:n].astype(np.int64)


# ---------------------------------------------------------------------------
# Elliptic curve point counts


def _ec_trace(A: int, B: int, p: int) -> int:
    """a_p = p + 1 - #E(F_p) for y^2 = x^3 + Ax + B via a full
    quadratic-character sweep over x: O(p), for the small primes where
    baby-step giant-step runs out of points, and its test oracle."""
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[(xs * xs) % p] = 1
    chi[0] = 0
    f = (xs * xs % p * xs + (A % p) * xs + B % p) % p
    return -int(chi[f].sum())


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + ax + b over F_p; points are (x, y) with
    coordinates in 0..p-1, and None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, a: int, p: int):
    R = None
    for bit in bin(n)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _annihilators(P, a: int, p: int, lo: int, hi: int) -> set[int]:
    """Every N in lo..hi with N*P = O: baby steps j*P (j <= s, keyed by x)
    and giant steps of (2s+1)*P, so each N = m + e with |e| <= s is read off
    m*P = -e*P."""
    s = math.isqrt((hi - lo) // 2) + 1
    baby = {}
    R = None
    for j in range(1, s + 1):
        R = _ec_add(R, P, a, p)
        if R is None or R[0] in baby:
            # The first return to O or to a known x is j*P = O or j*P = -i*P,
            # so P has order n = j or i + j <= 2s.  A giant step would then
            # see several e for one m, so list every multiple of n instead.
            n = j if R is None else j + baby[R[0]][0]
            return set(range(-(-lo // n) * n, hi + 1, n))
        baby[R[0]] = (j, R[1])
    step = _ec_add(_ec_add(R, R, a, p), P, a, p)
    found = set()
    G = _ec_mul(lo + s, P, a, p)
    for m in range(lo + s, hi + s + 1, 2 * s + 1):
        if G is None:
            found.add(m)
        elif G[0] in baby:  # G = j*P (e = -j) or -j*P (e = j); both if 2-torsion
            j, y = baby[G[0]]
            if G[1] == y:
                found.add(m - j)
            if G[1] == -y % p:
                found.add(m + j)
        G = _ec_add(G, step, a, p)
    return {n for n in found if lo <= n <= hi}


def _ec_trace_bsgs(A: int, B: int, p: int) -> int:
    """a_p by Shanks-Mestre baby-step giant-step.

    For x = 0, 1, 2, ... with f = x^3 + Ax + B != 0, the point (xf, f^2)
    lies on y^2 = x^3 + Af^2 x + Bf^3: E itself when f is a square mod p,
    else its quadratic twist, whose count is 2p + 2 - #E.  #E is among the
    annihilators in the Hasse interval of every such point, so once their
    intersection is a single N it is #E, at every p.  Only when every x is
    used with several N left does the sweep `_ec_trace` decide; above
    Mestre's bound 229 one point of E or its twist fixes #E, so it never does."""
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    counts = None
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        if not f:
            continue
        found = _annihilators((x * f % p, f * f % p), A * f * f % p, p, lo, hi)
        if pow(f, (p - 1) // 2, p) != 1:
            found = {2 * p + 2 - n for n in found}
        counts = found if counts is None else counts & found
        if len(counts) == 1:
            return p + 1 - counts.pop()
    return _ec_trace(A, B, p)


def _pow_mod(base: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e mod p entry by entry, by square-and-multiply over the bits of the
    largest e; an entry stays 1 until its own top bit is reached."""
    r = np.ones_like(base)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        r = r * r % p
        r = np.where(e >> bit & 1, r * base % p, r)
    return r


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


def _ec_trace_batch(A: int, B: int, ps: np.ndarray, point: int):
    """(a_p, decided) at each of ps, an int64 array of good primes from 5 to
    2^31 (so every product of two residues fits int64), from the point that
    _ec_trace_bsgs tries point-th (from 0) on y^2 = x^3 + Ax + B.

    The point's annihilators N in the Hasse interval are counted by one
    baby-step giant-step on all of ps at once, in projective coordinates,
    with one baby count s for the block.  The count is exact: a giant step
    m_k P meets +-jP (j <= s) at every N = m_k -+ j.  A prime is decided when
    exactly one N is found, for #E_f kills the point and lies in the interval,
    so N = #E_f.  It is left undecided when a chain step meets equal x or the
    point at infinity, or a baby step has y = 0 (its sign is then ambiguous),
    or the count is not 1, as it never is when the point's order is <= 2s."""
    n = len(ps)
    w = np.array([math.isqrt(4 * q) for q in ps.tolist()], dtype=np.int64)
    lo, hi = ps + 1 - w, ps + 1 + w
    a0, b0 = (np.array([c % q for q in ps.tolist()], dtype=np.int64) for c in (A, B))
    x, usable = np.zeros_like(ps), np.zeros_like(ps)
    for t in range(point + 4):  # the cubic has at most three roots mod p
        usable += (t * t * t + a0 * t + b0) % ps != 0
        x += usable <= point  # x ends at the first t with point + 1 usable up to it
    f = (x * x * x + a0 * x + b0) % ps
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
    # has every step after it: the product is 0
    bad, inv = prefix[-1] == 0, _pow_mod(prefix[-1], ps - 2, ps)
    for j in range(s + K - 1, 0, -1):
        Z[j], inv = inv * prefix[j - 1] % ps, inv * Z[j] % ps
    Z[0] = inv
    steps[:2] *= Z
    steps[:2] %= ps
    # G_k = jP gives N = m_k - j and G_k = -jP gives m_k + j, one sign unless y = 0
    (bx, gx), (by, gy) = ((c[:s], c[s:]) for c in steps[:2])
    bad |= (by == 0).any(axis=0)
    k, j, i = np.nonzero(gx[:, None] == bx)
    N = m[i] + k * (2 * s + 1) + np.where(gy[k, i] == by[j, i], -1, 1) * (j + 1)
    inside = (lo[i] <= N) & (N <= hi[i])
    count = np.bincount(i[inside], minlength=n)
    total = np.bincount(i[inside], weights=N[inside], minlength=n).astype(np.int64)
    square = _pow_mod(f, (ps - 1) // 2, ps) == 1
    return ps + 1 - np.where(square, total, 2 * ps + 2 - total), ~bad & (count == 1)


def ec_ap(A: int, B: int, X: int) -> Dataset:
    """Unitarily normalized a_p/sqrt(p) for all good primes p <= X of the
    curve y^2 = x^3 + Ax + B; bad primes (dividing 2*disc) are skipped.

    The good primes above Mestre's bound 229 go to _ec_trace_batch in blocks
    of EC_BLOCK, with the first point and then, at the primes where that
    leaves more than one count, the second.  _ec_trace_bsgs, the scalar path, counts
    the primes up to 229 and every prime the batch leaves.  The batch decides
    only where one point's annihilators in the Hasse interval are a single N,
    which is then #E_f, so it agrees with the scalar path exactly."""
    disc = -16 * (4 * A ** 3 + 27 * B ** 2)
    if disc == 0:
        raise DatasetError(f"curve y^2 = x^3 + {A}x + {B} is singular")
    if X < 5:
        raise ParameterError("need X >= 5")
    if X > EC_X_CAP:
        raise ParameterError(f"X = {X} exceeds the point-counting cap {EC_X_CAP}")
    skipped, good = [], []
    for p in primes_up_to(X):
        (good if (2 * disc) % p else skipped).append(p)
    pending, found = np.array([p for p in good if p > 229], dtype=np.int64), {}
    for point in (0, 1):  # the primes the first point leaves get a second one
        for i in range(0, len(pending), EC_BLOCK):
            block = pending[i : i + EC_BLOCK]
            ap, decided = _ec_trace_batch(A, B, block, point)
            found.update(zip(block[decided].tolist(), ap[decided].tolist()))
        pending = np.array([p for p in pending.tolist() if p not in found], dtype=np.int64)
    raw = [found[p] if p in found else _ec_trace_bsgs(A, B, p) for p in good]
    a = [ap / math.sqrt(p) for p, ap in zip(good, raw)]
    source = f"ec[a={A};b={B};skipped={';'.join(map(str, skipped))}]"
    return Dataset(DatasetHeader(source, True, X), Records(good, a, raw))


# ---------------------------------------------------------------------------
# Weight-12 level-1 coefficients


def _tau_residues(X: int) -> np.ndarray:
    """tau(1)..tau(X) modulo each of TAU_MODULI, one row per modulus.  By
    Jacobi, prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2), which has
    about sqrt(2X) terms, and Delta/q is its 8th power: 8 rounds of sparse
    shift-adds, reduced once per round (at the cap each of the 141 terms is
    below 2^39 and their sum below 2^47, inside int64)."""
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
    records = Records(ps, [tau / p ** 5.5 for p, tau in zip(ps, raw)], raw)
    return Dataset(DatasetHeader(f"tau[X={X}]", True, X), records)


# ---------------------------------------------------------------------------
# Synthetic sampler


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a uint64 array (arithmetic wraps mod 2^64)."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _sato_tate_angle(u: np.ndarray) -> np.ndarray:
    """theta in [0, pi] with F(theta) = (theta - sin theta cos theta)/pi = u,
    the Sato-Tate CDF, for u in [0, 1): Newton's method from cbrt(3 pi u/2),
    where F(theta) ~ 2 theta^3/(3 pi) (mirrored about pi/2 for u >= 1/2),
    clipped to [0, pi].  Six steps reach |F(theta) - u| <= 3.4e-16."""
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
    if n < 1:
        raise ParameterError("need n >= 1")
    if n > ST_N_CAP:
        raise ParameterError(f"n = {n} exceeds the sampler cap {ST_N_CAP}")
    ps = _first_primes(n)
    key = np.uint64(seed % SEED_MODULUS)
    bits = _mix64(key + np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN)
    a = (2.0 * np.cos(_sato_tate_angle((bits >> 11) * 2.0**-53))).astype(np.complex128)
    for column in (ps, a):  # owned and read-only, so Records adopts them
        column.setflags(write=False)
    return Dataset(DatasetHeader(f"sato-tate[n={n};seed={seed}]", True, int(ps[-1])), Records(ps, a))


# ---------------------------------------------------------------------------
# CSV round trip


def write_csv(path: str | Path, dataset: Dataset) -> None:
    chunks = csv_chunks(dataset)
    head = next(chunks)  # a refused header leaves the file as it was
    with Path(path).open("w", encoding="utf-8") as f:
        f.writelines(itertools.chain([head], chunks))


def dumps_csv(dataset: Dataset) -> str:
    return "".join(csv_chunks(dataset))


def csv_chunks(dataset: Dataset):
    """dataset's CSV text as the header line, then CSV_BLOCK rows at a time."""
    h, r = dataset.header, dataset.records
    if "," in h.source:
        raise DatasetError("header source must not contain commas")
    line = f"# source={h.source},self_dual={'true' if h.self_dual else 'false'},X={h.X}\n"
    try:  # the reader's own header step, so that its rules live in one place
        readable = _head(line.encode("utf-8", "surrogatepass")) == (h, [])
    except DatasetFormatError:
        readable = False
    if not readable:
        raise DatasetError(f"header line {line!r} would not read back as written")
    yield line
    for block in (slice(i, i + CSV_BLOCK) for i in range(0, len(r), CSV_BLOCK)):
        cols = (c[block].tolist() for c in (r.p, r.a.real, r.a.imag))  # no row outlives its block
        if r.a_raw is None:
            yield "".join([f"{p},{x!r},{y!r}\n" for p, x, y in zip(*cols)])
        else:
            yield "".join([f"{p},{x!r},{y!r},{raw}\n" for p, x, y, raw in zip(*cols, r.a_raw[block])])


def read_csv(path: str | Path) -> Dataset:
    """loads_csv on a file read as bytes once."""
    return _load(Path(path).read_bytes)


def loads_csv(text: str) -> Dataset:
    """Parse a CSV dataset: one numpy pass over the canonical rows, the
    per-row loop for anything else, then one check of the columns of either,
    which names the line of the first bad row."""
    return _load(lambda: text.encode("utf-8", "surrogatepass"))


def _loads_columns(body: bytes):
    """The rows of body, as dumps_csv writes them, parsed in one numpy pass
    into (p, a, a_raw); None where loadtxt cannot read them or a p is outside
    2..MAX_P, so that the per-row loop names the fault.  body stays bytes, which
    loadtxt reads as they are; a str it would widen to 4 bytes a character."""
    width = body.count(b",", 0, body.find(b"\n")) + 1  # loadtxt holds every row to it
    if width not in (3, 4) or body.translate(None, CSV_BYTES):
        return None
    fields = [("p", np.int64), ("re", np.float64), ("im", np.float64), ("raw", object)]
    with warnings.catch_warnings():
        # numpy 1.23+ reads "5.7" into an int column through a float with a
        # DeprecationWarning, where int() refuses it: any warning declines
        warnings.simplefilter("error")
        try:
            cols = np.loadtxt(
                io.BytesIO(body), dtype=fields[:width], delimiter=",", comments=None,
                ndmin=1, converters={3: int} if width == 4 else None,
            )
        except (ValueError, Warning):
            return None
    p = cols["p"].copy()  # owned, so that Records adopts it and cols can go
    if p.min() < 2 or p.max() > MAX_P:  # before p sizes loads_csv's sieve
        return None
    a = np.empty(len(p), dtype=np.complex128)
    a.real, a.imag = cols["re"], cols["im"]  # re + 1j*im would turn -0.0 into 0.0
    for column in (p, a):
        column.setflags(write=False)
    return p, a, cols["raw"].tolist() if width == 4 else None


def _loads_rows(lines: list[str]):
    """The data lines after the header, numbered from 2, parsed one at a time
    into (p, a, a_raw); a row that does not parse, or whose p is outside
    2..MAX_P, is refused at its line."""
    ps, a, raws = [], [], []
    width = None
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None and len(parts) in (3, 4):
            width = len(parts)
        if len(parts) != width:
            message = f"expected {width or '3 or 4'} columns, got {len(parts)}"
            raise DatasetFormatError(message, line=lineno)
        if "_" in line or not line.isascii():  # int() and float() read both as digits
            what = "'_'" if "_" in line else "non-ASCII character"
            raise DatasetFormatError(f"{what} in a number: {line!r}", line=lineno)
        try:
            p, z = int(parts[0]), complex(float(parts[1]), float(parts[2]))
            if width == 4:
                raws.append(int(parts[3]))
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        # the range check comes before p sizes an int64 array or a sieve
        if not 2 <= p <= MAX_P:
            raise DatasetFormatError(f"p = {p} is outside 2..{MAX_P}", line=lineno)
        ps.append(p)
        a.append(z)
    return np.array(ps, dtype=np.int64), a, raws if width == 4 else None


def _head(data: bytes) -> tuple[DatasetHeader, list[str]]:
    """The header on the first line of UTF-8 data, and the lines after it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # number the line as splitlines would
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DatasetFormatError(f"not UTF-8 text: {exc.reason}", line=line) from None
    line, *rest = text.splitlines() or [""]  # a header with '\x0b', '\x85', ... is more than one line
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


def _load(read) -> Dataset:
    """The dataset in the UTF-8 CSV bytes that read() returns, lines ended as
    text mode ends them; an ASCII body reaches the one-pass reader undecoded."""
    data = read()  # a local, not an argument a caller's frame holds, so that it can go
    if b"\r" in data:  # as text mode reads it; splitlines ends a line at each too
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, nl, body = data.partition(b"\n")
    if body.isascii():  # the one-pass reader may take it: decode the header alone
        data = head + nl
    else:  # only the per-row loop reads it, decoded with the header
        body = b""
    header, rest = _head(data)  # through the newline, so that a fault reads as in the whole text

    def lines() -> list[str]:  # after the header; data ends at a newline, so body's lines follow rest
        return rest + body.decode("ascii").splitlines()

    columns = None if rest else _loads_columns(body)
    if columns is None:
        columns = _loads_rows(lines())
    p, a, raw = columns
    try:
        composite = ~_sieve(int(p.max(initial=2)))[p]
        if composite.any():
            row = int(np.argmax(composite))
            raise DatasetError(f"p = {p[row]} is not prime", row=row)
        return Dataset(header, Records(p, a, raw))
    except DatasetError as exc:  # each fault names its row; the text names the row's line
        rows = (n for n, line in enumerate(lines(), start=2) if line.strip())
        line = next(itertools.islice(rows, exc.row, None))
        raise DatasetFormatError(str(exc), line=line) from None
