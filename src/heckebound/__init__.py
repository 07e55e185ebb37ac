"""One-sided bounds on GL(2) Hecke eigenvalues: symbolic symmetric-power
decompositions, L-function pole orders at s=1, optimization-derived
constants, and empirical verification over eigenvalue datasets."""

__version__ = "0.1.0"
