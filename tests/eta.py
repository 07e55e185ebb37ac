"""The eta-quotient oracle: q-expansions of products of eta(dz)^e.

Each factor eta(dz) = q^(d/24) prod_n (1 - q^(dn)), and Euler's pentagonal
theorem gives prod_n (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2) over all integers
k, so each factor is a run of int64 shift-adds.  A product whose sum of d*e is
24 is q times a power series; for the weight-2 newforms of Martin's list
(Multiplicative eta-quotients, Trans. AMS 348, 1996) its coefficient of q^p is
the trace of Frobenius a_p of the curve at every good prime p.
"""

import math

import numpy as np


def eta_quotient(factors: dict[int, int], n: int) -> np.ndarray:
    """The coefficients of q^0..q^n of prod_d eta(dz)^factors[d], for a product
    whose sum of d * factors[d] is 24 and whose exponents are positive."""
    assert sum(d * e for d, e in factors.items()) == 24 and min(factors.values()) > 0
    # the exponents k(3k-1)/2 of k = 0, 1, -1, 2, -2, ..., in rising order, with the sign (-1)^k
    pentagonal = [(0, 1)] + [
        (k * (3 * k + j) // 2, (-1) ** k) for k in range(1, math.isqrt(n) + 1) for j in (-1, 1)
    ]
    series = np.zeros(n, dtype=np.int64)  # the coefficients of q^1..q^n
    series[0] = 1
    for d, e in factors.items():
        for _ in range(e):
            product = np.zeros_like(series)
            for g, sign in pentagonal:
                if d * g < n:
                    product[d * g :] += sign * series[: n - d * g]
            series = product
    return np.concatenate(([0], series))
