"""The argument rules each generator checks before it touches an array: the
singular curve, each cap and each minimum.  This module does not import numpy,
so `cli` refuses a bad `generate` before it loads `datasets`, which calls these
checks itself and re-exports the constants."""

from .errors import DatasetError, ParameterError

EC_X_CAP = 100_000
TAU_X_CAP = 10_000
ST_N_CAP = 100_000

# 11a1 in short Weierstrass form y^2 = x^3 - 27*c4*x - 54*c6 with
# (c4, c6) = (496, 20008); good away from 2, 3, 11.
CURVE_11A1 = (-13392, -1080432)


def check_ec(A: int, B: int, X: int) -> int:
    """Refuse a singular y^2 = x^3 + Ax + B, then X < 5, then X past EC_X_CAP;
    return the curve's discriminant -16 (4A^3 + 27B^2)."""
    disc = -16 * (4 * A ** 3 + 27 * B ** 2)
    if disc == 0:
        raise DatasetError(f"curve y^2 = x^3 + {A}x + {B} is singular")
    if X < 5:
        raise ParameterError("need X >= 5")
    if X > EC_X_CAP:
        raise ParameterError(f"X = {X} exceeds the point-counting cap {EC_X_CAP}")
    return disc


def check_tau(X: int) -> None:
    if X > TAU_X_CAP:
        raise ParameterError(f"X = {X} exceeds the exact-series cap {TAU_X_CAP}")
    if X < 1:
        raise ParameterError("need X >= 1")


def check_primes(n: int) -> None:
    if n < 1:
        raise ParameterError("need n >= 1 primes")


def check_sato_tate(n: int) -> None:
    if n > ST_N_CAP:
        raise ParameterError(f"n = {n} exceeds the sampler cap {ST_N_CAP}")
    check_primes(n)
