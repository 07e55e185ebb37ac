"""Independent references and output checks for the benchmark.

Nothing here calls into heckebound.  Every expected value is computed from
first principles (q-expansions, trace moments over finite groups, closed
forms, a separate root finder) and compared with what the CLI printed.

A check returns None when the output is right, or one line saying what is
wrong.  `Failure` marks a process-level failure (wrong exit code, a
traceback, a missing file) as opposed to a wrong number.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Results


@dataclass
class Result:
    """What one CLI invocation left behind."""

    code: int
    stdout: str
    stderr: str
    files: dict  # path -> text of files the operation wrote


class Failure(str):
    """A check message for an operation that failed outright."""


def expect_exit(res: Result, code: int) -> Failure | None:
    if "Traceback" in res.stderr:
        last = res.stderr.strip().splitlines()[-1]
        return Failure(f"uncaught exception: {last}")
    if res.code != code:
        return Failure(f"exit code {res.code}, expected {code}")
    return None


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Primes


def sieve(x: int) -> np.ndarray:
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(x) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.nonzero(flags)[0]


def first_primes(n: int) -> np.ndarray:
    bound = 30
    while True:
        ps = sieve(bound)
        if len(ps) >= n:
            return ps[:n]
        bound *= 2


# ---------------------------------------------------------------------------
# q-series references

#: three primes just below 2^31; their product (about 2^93) exceeds
#: 2 * 2 p^(11/2) for every p <= 10^4, so a symmetric CRT lift is exact
CRT_MODULI = (2147483647, 2147483629, 2147483587)


def pentagonal_terms(n: int, step: int = 1) -> list[tuple[int, int]]:
    """(exponent, sign) of prod (1 - q^(step*m)), m >= 1, below q^n."""
    terms = [(0, 1)]
    k = 1
    while step * k * (3 * k - 1) // 2 < n:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * g < n:
                terms.append((step * g, sign))
        k += 1
    return terms


def _times_sparse(f: np.ndarray, terms, modulus: int | None = None) -> np.ndarray:
    out = np.zeros_like(f)
    n = len(f)
    for shift, sign in terms:
        if sign > 0:
            out[shift:] += f[: n - shift]
        else:
            out[shift:] -= f[: n - shift]
    return out % modulus if modulus else out


def newform_11a1(x: int) -> np.ndarray:
    """c[n] for n <= x of q prod (1-q^m)^2 (1-q^(11m))^2 (index n)."""
    f = np.zeros(x, dtype=np.int64)
    f[0] = 1
    for terms in (pentagonal_terms(x), pentagonal_terms(x), pentagonal_terms(x, 11), pentagonal_terms(x, 11)):
        f = _times_sparse(f, terms)
    return np.concatenate(([0], f))


def tau_exact(x: int) -> dict[int, int]:
    """tau(p) for primes p <= x: q prod (1-q^m)^24 modulo each CRT prime,
    lifted to the symmetric range.  Checked against Deligne's bound and
    Ramanujan's congruence mod 691 before use."""
    terms = pentagonal_terms(x)
    residues = []
    for m in CRT_MODULI:
        f = np.zeros(x, dtype=np.int64)
        f[0] = 1
        for _ in range(24):
            f = _times_sparse(f, terms, m)
        residues.append(f)
    big = math.prod(CRT_MODULI)
    out = {}
    for p in sieve(x).tolist():
        value = 0
        for m, r in zip(CRT_MODULI, residues):
            part = big // m
            value += int(r[p - 1]) * part * pow(part, -1, m)
        value %= big
        if value > big // 2:
            value -= big
        if abs(value) > 2 * p ** 5.5 or (value - 1 - p**11) % 691:
            raise ArithmeticError(f"tau reference inconsistent at p={p}")
        out[p] = value
    return out


# ---------------------------------------------------------------------------
# Constants


def positive_constant() -> tuple[float, float]:
    """(constant, d) where (d^5/14)^(1/12) = (2-d)^(1/4), by Newton's method
    on the logarithmic form."""
    d = 1.3
    for _ in range(50):
        h = (5 * math.log(d) - math.log(14)) / 12 - math.log(2 - d) / 4
        dh = 5 / (12 * d) + 1 / (4 * (2 - d))
        step = h / dh
        d -= step
        if abs(step) < 1e-15:
            break
    return (2 - d) ** 0.25, d


POS_CONSTANT, POS_OPTIMIZER = positive_constant()
CONSTANTS = {
    "pos": (POS_CONSTANT, POS_OPTIMIZER),
    "neg": ((5 / 2) ** (1 / 6), 1.0),
    "weak": (1 / math.sqrt(2), 1.0),
    "nsd": (0.5, 1.0),
}
THRESHOLDS = {"t1pos": POS_CONSTANT, "t1neg": -CONSTANTS["neg"][0], "t2": 0.5}
EPSILON = 0.01

# ---------------------------------------------------------------------------
# Pole orders as trace moments

# (class size, trace^2) over the binary tetrahedral and octahedral groups
# in SU(2); odd moments vanish because -1 lies in both groups.
_BINARY = {
    "tetrahedral": (24, [(1, 4), (1, 4), (6, 0), (8, 1), (8, 1)]),
    "octahedral": (48, [(1, 4), (1, 4), (6, 0), (12, 0), (8, 1), (8, 1), (6, 2), (6, 2)]),
}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def expected_pole(k: int, rep_type: str, omega_order: int = 1) -> int:
    """Multiplicity of the trivial representation in std^(x k)."""
    if k % 2:
        return 0
    half = k // 2
    if rep_type in _BINARY:
        order, classes = _BINARY[rep_type]
        total = Fraction(sum(size * t2**half for size, t2 in classes), order)
        if total.denominator != 1:
            raise ArithmeticError("class average is not an integer")
        return int(total)
    return catalan(half) if half % omega_order == 0 else 0


# ---------------------------------------------------------------------------
# Atom labels and characters

_TWIST_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class Piece:
    kind: str  # "sym", "char" or "opaque"
    degree: int
    w: int
    mu: int

    @property
    def dim(self) -> int:
        return {"sym": self.degree + 1, "char": 1, "opaque": 2}[self.kind]


def _twists(parts, kind, degree) -> Piece:
    w = mu = 0
    for t in parts:
        m = _TWIST_RE.match(t)
        if not m or m.group(1) not in ("w", "mu"):
            raise ValueError(f"unknown twist {t!r}")
        e = int(m.group(2) or 1)
        if m.group(1) == "w":
            w += e
        else:
            mu += e
    return Piece(kind, degree, w, mu)


def _base(text: str) -> tuple[str, int] | None:
    if text == "pi" or text == "Sym1(pi)":
        return "sym", 1
    m = re.fullmatch(r"Sym(\d+)(?:\(pi\))?", text)
    if m:
        return "sym", int(m.group(1))
    if text.startswith("opaque:") or text.startswith("pi_chi"):
        return "opaque", 0
    return None


def parse_label(label: str) -> Piece:
    """Display form: 'Sym3⊗w^2', 'pi_chi⊗w', 'w^2*mu', '1'."""
    if label == "1":
        return Piece("char", 0, 0, 0)
    parts = label.split("⊗")
    base = _base(parts[0])
    if base is None:
        return _twists(label.split("*"), "char", 0)
    return _twists(parts[1:], *base)


def parse_atom_text(text: str) -> Piece:
    """Parseable form: 'Sym2(pi)*w^2', 'opaque:pi_chi*w', 'w^2*mu', '1'."""
    if text == "1":
        return Piece("char", 0, 0, 0)
    parts = text.split("*")
    base = _base(parts[0])
    if base is None:
        return _twists(parts, "char", 0)
    return _twists(parts[1:], *base)


def complete_h(j: int, a: complex, b: complex) -> complex:
    return sum(a ** (j - i) * b**i for i in range(j + 1))


def piece_value(piece: Piece, a: complex, b: complex, mu: complex) -> complex:
    if piece.kind == "opaque":
        raise ValueError("opaque constituent in a decomposition")
    base = complete_h(piece.degree, a, b) if piece.kind == "sym" else 1.0
    return base * (a * b) ** piece.w * mu**piece.mu


#: generic points of the diagonal torus of GL(2)
GL2_POINTS = ((0.7 + 0.4j, -1.3 + 0.2j), (1.1 - 0.5j, 0.3 + 0.9j), (-0.6 + 1.2j, 0.8 - 0.1j))

_ZETA = cmath.exp(2j * math.pi / 3)
#: binary tetrahedral classes as (angle, value of the cubic character mu)
TETRAHEDRAL_CLASSES = (
    (0.0, 1),
    (math.pi, 1),
    (math.pi / 2, 1),
    (math.pi / 3, _ZETA),
    (math.pi / 3, _ZETA**2),
    (2 * math.pi / 3, _ZETA),
    (2 * math.pi / 3, _ZETA**2),
)


def parse_decomposition(line: str) -> list[tuple[int, Piece]]:
    rhs = line.split(" = ", 1)[1].strip()
    out = []
    for term in rhs.split(" ⊕ "):
        mult, _, label = term.rpartition("·")
        out.append((int(mult) if mult else 1, parse_label(label)))
    return out


def check_decompose(res: Result, kind: str, args: tuple) -> str | None:
    """kind 'k': std^(x k); 'pair': Sym^a x Sym^b; 'atom': Sym^4 on the
    binary tetrahedral group."""
    fail = expect_exit(res, 0)
    if fail:
        return fail
    try:
        terms = parse_decomposition(res.stdout.strip().splitlines()[0])
    except (ValueError, IndexError) as exc:
        return f"unparseable decomposition: {exc}"
    if kind == "atom":
        points = [(cmath.exp(1j * t), cmath.exp(-1j * t), mu) for t, mu in TETRAHEDRAL_CLASSES]
    else:
        points = [(a, b, 1) for a, b in GL2_POINTS]
    for a, b, mu in points:
        try:
            got = sum(m * piece_value(p, a, b, mu) for m, p in terms)
        except ValueError as exc:
            return str(exc)
        if kind == "k":
            want = (a + b) ** args[0]
        elif kind == "pair":
            want = complete_h(args[0], a, b) * complete_h(args[1], a, b)
        else:
            want = complete_h(4, a, b)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return f"character mismatch at ({a:.3f}, {b:.3f}): {got:.6f} != {want:.6f}"
    return None


def _certificate_from_text(stdout: str) -> tuple[list[tuple[int, int]], int]:
    lines = stdout.strip().splitlines()
    total = int(lines[-1].rsplit(":", 1)[1])
    factors = []
    for part in lines[1].split(" · "):
        m = re.fullmatch(r"L\((.*)\)(?:\^(\d+))?", part)
        if not m:
            raise ValueError(f"bad factor {part!r}")
        dim = 1
        for side in m.group(1).split(" × "):
            dim *= parse_label(side).dim
        factors.append((int(m.group(2) or 1), dim))
    return factors, total


def _certificate_from_json(stdout: str) -> tuple[list[tuple[int, int]], int]:
    data = json.loads(stdout)
    factors = []
    poles = 0
    for f in data["factors"]:
        dim = parse_atom_text(f["left"]).dim
        if f["right"] is not None:
            dim *= parse_atom_text(f["right"]).dim
        factors.append((f["mult"], dim))
        poles += f["mult"] * f["pole"]
    if poles != data["total"]:
        raise ValueError(f"factor poles sum to {poles}, total says {data['total']}")
    return factors, data["total"]


def check_poles(res: Result, k: int, rep_type: str, omega_order: int, as_json: bool) -> str | None:
    fail = expect_exit(res, 0)
    if fail:
        return fail
    try:
        factors, total = (_certificate_from_json if as_json else _certificate_from_text)(res.stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable certificate: {exc}"
    dims = sum(m * d for m, d in factors)
    if dims != 2**k:
        return f"certificate dimensions sum to {dims}, expected 2^{k}"
    want = expected_pole(k, rep_type, omega_order)
    if total != want:
        return f"pole order {total}, trace moment gives {want}"
    return None


def check_bounds(res: Result, side: str, as_json: bool) -> str | None:
    fail = expect_exit(res, 0)
    if fail:
        return fail
    constant, optimizer = CONSTANTS[side]
    try:
        if as_json:
            data = json.loads(res.stdout)
            got_c, got_o, tol = data["constant"], data["optimizer"], 1e-10
            if data["side"] != side:
                return f"side {data['side']!r}, expected {side!r}"
        else:
            fields = dict(line.split(": ", 1) for line in res.stdout.splitlines() if ": " in line)
            got_c, got_o, tol = float(fields["constant"]), float(fields["optimizer"]), 1e-9
    except (ValueError, KeyError) as exc:
        return f"unparseable bounds output: {exc}"
    if not close(got_c, constant, tol):
        return f"constant {got_c!r}, expected {constant!r}"
    if not close(got_o, optimizer, 1e-8):
        return f"optimizer {got_o!r}, expected {optimizer!r}"
    return None


def check_rejected(res: Result, code: int) -> str | None:
    """A usage or domain error: the expected exit code, a one-line message
    on stderr and nothing on stdout."""
    fail = expect_exit(res, code)
    if fail:
        return fail
    if res.stdout.strip():
        return Failure("rejected call wrote to stdout")
    if not res.stderr.strip():
        return Failure("rejected call gave no message")
    return None


# ---------------------------------------------------------------------------
# Datasets


@dataclass
class Table:
    header: dict
    p: np.ndarray
    re: np.ndarray
    im: np.ndarray
    raw: list | None  # exact integers or floats, None without the column


def parse_csv(text: str) -> Table:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing header")
    header = dict(item.split("=", 1) for item in lines[0][1:].strip().split(","))
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    width = {len(r) for r in rows}
    if len(width) > 1 or (width and width.pop() not in (3, 4)):
        raise ValueError("ragged or mis-sized rows")
    raw = None
    if rows and len(rows[0]) == 4:
        raw = [int(r[3]) if re.fullmatch(r"-?\d+", r[3]) else float(r[3]) for r in rows]
    return Table(
        header,
        np.array([int(r[0]) for r in rows], dtype=np.int64),
        np.array([float(r[1]) for r in rows]),
        np.array([float(r[2]) for r in rows]),
        raw,
    )


def _read(res: Result, path: str) -> tuple[Table | None, str | None]:
    fail = expect_exit(res, 0)
    if fail:
        return None, fail
    if path not in res.files:
        return None, Failure(f"{path} was not written")
    try:
        return parse_csv(res.files[path]), None
    except ValueError as exc:
        return None, f"unparseable CSV: {exc}"


def check_ec(res: Result, path: str, x: int, reference: np.ndarray) -> str | None:
    """11a1 a_p against the level-11 newform; bad primes exactly 2, 3, 11."""
    t, err = _read(res, path)
    if err:
        return err
    want_p = np.array([p for p in sieve(x).tolist() if p not in (2, 3, 11)])
    if t.header.get("X") != str(x) or t.header.get("self_dual") != "true":
        return f"header {t.header}"
    if "skipped=2;3;11]" not in t.header.get("source", ""):
        return f"skipped primes in {t.header.get('source')!r}, expected 2;3;11"
    if len(t.p) != len(want_p) or np.any(t.p != want_p):
        return "primes are not the good primes up to X"
    ap = reference[want_p]
    if t.raw is None or list(t.raw) != ap.tolist():
        bad = [int(p) for p, r, a in zip(want_p, t.raw or [], ap) if r != a]
        return f"a_p wrong at {len(bad)} primes, first p={bad[:1]}"
    if np.any(np.abs(t.re - ap / np.sqrt(want_p)) > 1e-12) or np.any(t.im != 0):
        return "normalized a_p disagree with a_p/sqrt(p)"
    return None


def check_tau(res: Result, path: str, x: int, reference: dict[int, int]) -> str | None:
    t, err = _read(res, path)
    if err:
        return err
    primes = list(reference)
    if t.header.get("X") != str(x) or t.p.tolist() != primes:
        return "primes are not all primes up to X"
    want = np.array([reference[p] / p**5.5 for p in primes])
    if np.any(np.abs(t.re - want) > 1e-12) or np.any(t.im != 0):
        return "normalized a_p disagree with tau(p)/p^(11/2)"
    if t.raw is None:
        return "raw tau(p) column missing"
    bad = [p for p, r in zip(primes, t.raw) if r != reference[p]]
    if bad:
        p = bad[0]
        return f"raw tau(p) wrong at {len(bad)} of {len(primes)} primes, e.g. p={p}: {t.raw[primes.index(p)]} != {reference[p]}"
    return None


def sato_tate_cdf(c: float) -> float:
    """P(2 cos theta > c) under the density (2/pi) sin^2 theta."""
    theta = math.acos(c / 2)
    return (theta - math.sin(theta) * math.cos(theta)) / math.pi


def check_sato_tate(res: Result, path: str, n: int, prefix_of: str | None = None) -> str | None:
    """Moments of a_p^2..a_p^4 and the proportion above the positive constant
    within six standard errors; rows identical to the start of `prefix_of`."""
    t, err = _read(res, path)
    if err:
        return err
    if len(t.p) != n or np.any(t.p != first_primes(n)):
        return "primes are not the first n primes"
    if t.header.get("X") != str(int(t.p[-1])) or t.raw is not None:
        return "header X or raw column wrong"
    a = t.re
    if np.any(np.abs(a) > 2) or np.any(t.im != 0):
        return "a_p outside [-2, 2] or not real"
    for power, mean, var in ((2, 1, 1), (3, 0, 5), (4, 2, 10)):
        got = float(np.mean(a**power))
        if abs(got - mean) > 6 * math.sqrt(var / n):
            return f"mean of a_p^{power} is {got:.5f}, expected {mean}"
    share = sato_tate_cdf(POS_CONSTANT)
    got = float(np.mean(a > POS_CONSTANT))
    if abs(got - share) > 6 * math.sqrt(share * (1 - share) / n):
        return f"share above {POS_CONSTANT:.4f} is {got:.5f}, CDF gives {share:.5f}"
    if prefix_of is not None:
        longer = res.files.get(prefix_of)
        if longer is None:
            return Failure(f"{prefix_of} missing for the prefix check")
        mine = res.files[path].splitlines()[1:]
        if longer.splitlines()[1 : 1 + len(mine)] != mine:
            return f"rows differ from the first {n} rows of {prefix_of}"
    return None


def rotated(t: Table, phi: float) -> np.ndarray:
    return t.re * math.cos(phi) - t.im * math.sin(phi)


def check_verify(res: Result, t: Table, theorem: str, phi: float) -> str | None:
    """Counts, witnesses and verdict recomputed from the CSV columns."""
    fail = expect_exit(res, 0)
    if fail:
        return fail
    try:
        rep = json.loads(res.stdout)
    except ValueError as exc:
        return f"unparseable verify output: {exc}"
    vals = rotated(t, phi)
    thr = THRESHOLDS[theorem]
    sign = -1.0 if theorem == "t1neg" else 1.0
    margin = sign * vals - sign * thr + EPSILON  # > 0 for a witness
    sure, maybe = int(np.sum(margin > 1e-9)), int(np.sum(margin > -1e-9))
    n = len(vals)
    if rep["theorem"] != theorem or not close(rep["threshold"], thr, 1e-9):
        return f"threshold {rep['threshold']!r}, expected {thr!r}"
    if rep["total"] != n or rep["required"] != math.floor(0.01 * n):
        return f"total/required {rep['total']}/{rep['required']}, expected {n}/{math.floor(0.01 * n)}"
    if not sure <= rep["count"] <= maybe:
        return f"count {rep['count']}, recomputed {sure}"
    if rep["passed"] != (rep["count"] >= rep["required"] and rep["count"] > 0):
        return "verdict disagrees with count and required"
    order = np.argsort(-sign * vals, kind="stable")[: min(10, sure)]
    want = {int(t.p[i]): float(vals[i]) for i in order}
    got = {int(p): v for p, v in rep["witnesses"]}
    if len(got) != len(want) or any(p not in got or not close(got[p], v, 1e-9) for p, v in want.items()):
        return f"witnesses {sorted(got)[:3]}..., expected {sorted(want)[:3]}..."
    return None


S_GRID = (1.5, 1.3, 1.2, 1.1)


def probe_slope(t: Table, k: int, s_grid=S_GRID) -> float:
    x = np.array([math.log(1 / (s - 1)) for s in s_grid])
    p = t.p.astype(float)
    y = np.array([np.sum(t.re**k / p**s) for s in s_grid])
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def check_probe(res: Result, t: Table, k: int) -> str | None:
    fail = expect_exit(res, 0)
    if fail:
        return fail
    try:
        got = json.loads(res.stdout)["slope"]
    except (ValueError, KeyError) as exc:
        return f"unparseable probe output: {exc}"
    want = probe_slope(t, k)
    if not close(got, want, 1e-9):
        return f"slope {got!r}, recomputed {want!r}"
    return None
