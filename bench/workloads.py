"""The three workloads: each is one round of CLI operations, built from the
seed, plus the fixture files and references its checks need.

A round always holds the same operations, so every run attempts whole
rounds and the share of failed operations is the same in every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import Result

EC_X = 40_000  # point counting is most of an ec-pipeline round at this X
ST_N = 100_000
ST_PREFIX_N = 50_000
TAU_X = 10_000  # the exact-series cap
TINY_EC_X, TINY_ST_N, TINY_TAU_X = 1_000, 200, 100

# Fixture files for the malformed-input calls.  They do not depend on the
# seed, so their failures repeat exactly in every run.
FIXTURES = {
    "small.csv": "# source=fixture,self_dual=true,normalization=unitary,X=13,omega_trivial=true\n"
    "5,0.4472135954999579,0.0\n7,-0.7559289460184544,0.0\n13,1.1094003924504583,0.0\n",
    "inf.csv": "# source=fixture,self_dual=true,normalization=unitary,X=13,omega_trivial=true\n"
    "11,inf,0.0\n13,0.5,0.0\n",
    "nan.csv": "# source=fixture,self_dual=true,normalization=unitary,X=13,omega_trivial=true\n"
    "11,nan,0.0\n13,0.5,0.0\n",
}

WARMUP = ["poles", "--k", "2"]


@dataclass
class Round:
    """Files written during one round, parsed on demand for the read checks.
    A file the round did not write (a fixture) is read from disk."""

    files: dict = field(default_factory=dict)
    _tables: dict = field(default_factory=dict)

    def table(self, path: str) -> checks.Table | None:
        if path not in self._tables:
            try:
                text = self.files[path] if path in self.files else Path(path).read_text(encoding="utf-8")
                self._tables[path] = checks.parse_csv(text)
            except (OSError, TypeError, ValueError):
                self._tables[path] = None
        return self._tables[path]


@dataclass
class Op:
    name: str
    argv: list
    kind: str  # "generate", "read" or "cli"
    check: Callable[[Result, Round], str | None]
    writes: tuple = ()
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    min_rounds: int = 1


def _read_check(path, fn, *args):
    def check(res: Result, rnd: Round):
        t = rnd.table(path)
        if t is None:
            return checks.Failure(f"input {Path(path).name} unavailable")
        return fn(res, t, *args)

    return check


def _reads(path: str, phis=(0.0,)) -> list:
    """verify for every theorem (t2 at each phi) and probe for k = 2, 4."""
    name = Path(path).stem
    ops = []
    for theorem, phi in [("t1pos", 0.0), ("t1neg", 0.0)] + [("t2", phi) for phi in phis]:
        ops.append(
            Op(
                f"verify {name} {theorem} phi={phi:.4f}",
                ["verify", "--input", path, "--theorem", theorem, "--phi", repr(phi), "--json"],
                "read",
                _read_check(path, checks.check_verify, theorem, phi),
            )
        )
    for k in (2, 4):
        ops.append(
            Op(
                f"probe {name} k={k}",
                ["probe", "--input", path, "--k", str(k), "--json"],
                "read",
                _read_check(path, checks.check_probe, k),
            )
        )
    return ops


def ec_pipeline(work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    path = str(work / "ec.csv")
    reference = checks.newform_11a1(EC_X)
    gen = Op(
        f"generate ec x={EC_X}",
        ["generate", "--kind", "ec", "--x", str(EC_X), "--out", path],
        "generate",
        lambda res, rnd: checks.check_ec(res, path, EC_X, reference),
        writes=(path,),
    )
    # At least 40 reads: host speed on a shared machine switches between
    # states every few seconds, and the median of these short processes
    # needs a window longer than 20 s to average over the switches.
    return Workload("ec-pipeline", [gen] + _reads(path, phis=(rng.uniform(0, math.pi),)), min_rounds=8)


def ingest_sweep(work: Path, seed: int) -> Workload:
    st, st_prefix, tau = (str(work / f) for f in ("st.csv", "st_prefix.csv", "tau.csv"))
    reference = checks.tau_exact(TAU_X)
    ops = [
        Op(
            f"generate st n={ST_N}",
            ["generate", "--kind", "st", "--n", str(ST_N), "--seed", str(seed), "--out", st],
            "generate",
            lambda res, rnd: checks.check_sato_tate(res, st, ST_N),
            writes=(st,),
        ),
        Op(
            f"generate st n={ST_PREFIX_N}",
            ["generate", "--kind", "st", "--n", str(ST_PREFIX_N), "--seed", str(seed), "--out", st_prefix],
            "generate",
            lambda res, rnd: checks.check_sato_tate(res, st_prefix, ST_PREFIX_N, prefix_of=st),
            writes=(st_prefix,),
        ),
        Op(
            f"generate tau x={TAU_X}",
            ["generate", "--kind", "tau", "--x", str(TAU_X), "--out", tau],
            "generate",
            lambda res, rnd: checks.check_tau(res, tau, TAU_X, reference),
            writes=(tau,),
            known_fault="tau_ap rounds tau(p) through float",
        ),
    ]
    # Two rounds, and one read fewer of the small tau file than of the ST
    # file, so that the medians of read and process times fall inside a
    # group of like operations rather than between two groups.
    reads = _reads(st, (0.0, math.pi / 4)) + _reads(tau)
    return Workload("ingest-sweep", ops + reads, min_rounds=2)


def _stdout_file(fn):
    """Check a dataset written to stdout as if it were the file '-'."""

    def check(res: Result, rnd: Round):
        return fn(Result(res.code, res.stdout, res.stderr, {"-": res.stdout}))

    return check


def _ok(fn, *args):
    return lambda res, rnd: fn(res, *args)


def symbolic_cli(work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    phi = rng.uniform(0, math.pi)
    ops = []
    assumptions = [
        ("general", [], "general", 1, False),
        ("tetrahedral", ["--type", "tetrahedral"], "tetrahedral", 1, False),
        ("octahedral", ["--type", "octahedral"], "octahedral", 1, False),
        ("nsd w^2", ["--self-dual", "false", "--omega-order", "2"], "general", 2, True),
        ("nsd w^3", ["--self-dual", "false", "--omega-order", "3"], "general", 3, True),
    ]
    for label, flags, rep_type, order, as_json in assumptions:
        for k in range(2, 9):
            fault = None
            if k == 8 and rep_type == "octahedral":
                fault = "octahedral Sym4 reduction drops the twist on Sym2"
            ops.append(
                Op(
                    f"poles k={k} {label}",
                    ["poles", "--k", str(k), *flags] + (["--json"] if as_json else []),
                    "cli",
                    _ok(checks.check_poles, k, rep_type, order, as_json),
                    known_fault=fault,
                )
            )
    for side in ("pos", "neg", "weak", "nsd"):
        extra = ["--phi", repr(phi)] if side == "nsd" else []
        for as_json in (False, True):
            ops.append(
                Op(
                    f"bounds {side}{' json' if as_json else ''}",
                    ["bounds", "--side", side, *extra] + (["--json"] if as_json else []),
                    "cli",
                    _ok(checks.check_bounds, side, as_json),
                )
            )
    for k in range(1, 5):
        ops.append(Op(f"decompose k={k}", ["decompose", "--k", str(k)], "cli", _ok(checks.check_decompose, "k", (k,))))
    for a, b in ((3, 4), (1, 2)):
        ops.append(
            Op(f"decompose pair {a} {b}", ["decompose", "--pair", str(a), str(b)], "cli", _ok(checks.check_decompose, "pair", (a, b)))
        )
    ops.append(
        Op(
            "decompose atom Sym4 tetrahedral",
            ["decompose", "--atom", "Sym4(pi)", "--type", "tetrahedral"],
            "cli",
            _ok(checks.check_decompose, "atom", ()),
        )
    )
    small, inf, nan = (str(work / f) for f in ("small.csv", "inf.csv", "nan.csv"))
    # Every subcommand at a size where start-up dominates: tiny datasets to
    # stdout, and reads of a three-row file.
    tiny_ec, tiny_tau = checks.newform_11a1(TINY_EC_X), checks.tau_exact(TINY_TAU_X)
    tiny = [
        ("ec", ["--x", str(TINY_EC_X)], lambda res: checks.check_ec(res, "-", TINY_EC_X, tiny_ec)),
        ("st", ["--n", str(TINY_ST_N), "--seed", str(seed)], lambda res: checks.check_sato_tate(res, "-", TINY_ST_N)),
        ("tau", ["--x", str(TINY_TAU_X)], lambda res: checks.check_tau(res, "-", TINY_TAU_X, tiny_tau)),
    ]
    for kind, flags, fn in tiny:
        ops.append(Op(f"generate {kind} {flags[1]} to stdout", ["generate", "--kind", kind, *flags], "generate", _stdout_file(fn)))
    ops += _reads(small)
    rejected = [
        ("poles dihedral", ["poles", "--k", "4", "--type", "dihedral"], "cli", 1, None),
        ("poles k=9", ["poles", "--k", "9"], "cli", 1, None),
        ("bounds nsd phi=4", ["bounds", "--side", "nsd", "--phi", "4"], "cli", 1, None),
        ("bounds unknown flag", ["bounds", "--side", "pos", "--bogus"], "cli", 2, None),
        ("generate ec over cap", ["generate", "--kind", "ec", "--x", "200000"], "generate", 1, None),
        ("generate st n=0", ["generate", "--kind", "st", "--n", "0"], "generate", 1, None),
        ("probe bad s-grid", ["probe", "--input", small, "--k", "2", "--s-grid", "1.5,x,1.1"], "read", 1,
         "probe lets a ValueError from --s-grid escape as a traceback"),
        ("verify inf row", ["verify", "--input", inf, "--theorem", "t1pos"], "read", 1,
         "loads_csv accepts inf and verify passes"),
        ("verify nan row", ["verify", "--input", nan, "--theorem", "t1pos"], "read", 1,
         "loads_csv accepts nan"),
    ]
    for name, argv, kind, code, fault in rejected:
        ops.append(Op(name, argv, kind, _ok(checks.check_rejected, code), known_fault=fault))
    start = rng.randrange(len(ops))
    ops = ops[start:] + ops[:start]
    return Workload("symbolic-cli", ops, min_rounds=math.ceil(100 / len(ops)))


WORKLOADS = {"ec-pipeline": ec_pipeline, "ingest-sweep": ingest_sweep, "symbolic-cli": symbolic_cli}
