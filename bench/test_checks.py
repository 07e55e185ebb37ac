"""Every check of the benchmark accepts a correct output and rejects a
corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Result  # noqa: E402
from heckebound import cli  # noqa: E402


def run(*argv: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue(), {})


def generate(tmp_path, name: str, *argv: str) -> tuple[Result, str]:
    path = str(tmp_path / name)
    res = run("generate", *argv, "--out", path)
    res.files[path] = Path(path).read_text(encoding="utf-8")
    return res, path


def edited(res: Result, stdout: str) -> Result:
    return Result(res.code, stdout, res.stderr, res.files)


def replace_row(text: str, p: int, fn) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.split(",")[0] == str(p):
            lines[i] = fn(line.rstrip("\n").split(",")) + "\n"
    return "".join(lines)


# ---------------------------------------------------------------------------
# References


def test_newform_matches_known_coefficients():
    c = checks.newform_11a1(30)
    assert [int(c[p]) for p in (2, 3, 5, 7, 13, 17, 19, 23, 29)] == [-2, -1, 1, -2, 4, -2, 0, -1, 0]


def test_tau_reference_matches_known_values():
    tau = checks.tau_exact(20)
    assert [tau[p] for p in (2, 3, 5, 7, 11, 13)] == [-24, 252, 4830, -16744, 534612, -577738]


def test_crt_moduli_are_prime_and_large_enough():
    for m in checks.CRT_MODULI:
        assert all(m % d for d in range(2, math.isqrt(m) + 1))
    assert math.prod(checks.CRT_MODULI) > 4 * workloads.TAU_X**5.5


def test_trace_moments():
    assert [checks.expected_pole(k, "general") for k in range(2, 9)] == [1, 0, 2, 0, 5, 0, 14]
    assert [checks.expected_pole(k, "tetrahedral") for k in (2, 4, 6, 8)] == [1, 2, 6, 22]
    assert [checks.expected_pole(k, "octahedral") for k in (2, 4, 6, 8)] == [1, 2, 5, 15]
    assert [checks.expected_pole(k, "general", 2) for k in (2, 4, 6, 8)] == [0, 2, 0, 14]
    assert [checks.expected_pole(k, "general", 3) for k in (2, 4, 6, 8)] == [0, 0, 5, 0]


def test_positive_constant_solves_the_balance():
    c, d = checks.positive_constant()
    assert (d**5 / 14) ** (1 / 12) == pytest.approx(c, abs=1e-14)
    assert c == pytest.approx(0.9042484327628, abs=1e-12)


# ---------------------------------------------------------------------------
# Datasets


def test_ec_check(tmp_path):
    res, path = generate(tmp_path, "ec.csv", "--kind", "ec", "--x", "2000")
    ref = checks.newform_11a1(2000)
    assert checks.check_ec(res, path, 2000, ref) is None
    flip = lambda r: ",".join([r[0], repr(-float(r[1])), r[2], str(-int(r[3]))])  # noqa: E731
    res.files[path] = replace_row(res.files[path], 13, flip)
    assert "a_p wrong" in checks.check_ec(res, path, 2000, ref)


def test_tau_check(tmp_path):
    res, path = generate(tmp_path, "tau.csv", "--kind", "tau", "--x", "100")
    ref = checks.tau_exact(100)
    assert checks.check_tau(res, path, 100, ref) is None
    res.files[path] = replace_row(res.files[path], 97, lambda r: ",".join(r[:3] + [str(int(r[3]) + 1)]))
    assert "raw tau(p) wrong at 1 " in checks.check_tau(res, path, 100, ref)


def test_sato_tate_check(tmp_path):
    long, long_path = generate(tmp_path, "st.csv", "--kind", "st", "--n", "4000", "--seed", "5")
    short, path = generate(tmp_path, "st_prefix.csv", "--kind", "st", "--n", "2000", "--seed", "5")
    short.files.update(long.files)
    assert checks.check_sato_tate(long, long_path, 4000) is None
    assert checks.check_sato_tate(short, path, 2000, prefix_of=long_path) is None
    short.files[path] = replace_row(short.files[path], 101, lambda r: ",".join([r[0], repr(float(r[1]) / 2), r[2]]))
    assert "rows differ" in checks.check_sato_tate(short, path, 2000, prefix_of=long_path)
    long.files[long_path] = replace_row(long.files[long_path], 2, lambda r: ",".join([r[0], "2.5", r[2]]))
    assert "outside" in checks.check_sato_tate(long, long_path, 4000)


def test_sato_tate_check_rejects_a_skewed_sample(tmp_path):
    res, path = generate(tmp_path, "st.csv", "--kind", "st", "--n", "4000", "--seed", "5")
    lines = res.files[path].splitlines()
    rows = [r.split(",") for r in lines[1:]]
    res.files[path] = "\n".join([lines[0]] + [",".join([r[0], repr(abs(float(r[1]))), r[2]]) for r in rows]) + "\n"
    assert "mean of a_p^3" in checks.check_sato_tate(res, path, 4000)


@pytest.fixture(scope="module")
def ec_table(tmp_path_factory):
    res, path = generate(tmp_path_factory.mktemp("ec"), "ec.csv", "--kind", "ec", "--x", "3000")
    return path, checks.parse_csv(res.files[path])


@pytest.mark.parametrize("theorem,phi", [("t1pos", 0.0), ("t1neg", 0.0), ("t2", 0.7)])
def test_verify_check(ec_table, theorem, phi):
    path, table = ec_table
    res = run("verify", "--input", path, "--theorem", theorem, "--phi", repr(phi), "--json")
    assert checks.check_verify(res, table, theorem, phi) is None
    rep = json.loads(res.stdout)
    for field, bump in (("count", 1), ("required", 1)):
        bad = dict(rep, **{field: rep[field] + bump})
        assert checks.check_verify(edited(res, json.dumps(bad)), table, theorem, phi) is not None
    bad = dict(rep, witnesses=[[p, v + 1e-6] for p, v in rep["witnesses"]])
    assert "witnesses" in checks.check_verify(edited(res, json.dumps(bad)), table, theorem, phi)


@pytest.mark.parametrize("k", [2, 4])
def test_probe_check(ec_table, k):
    path, table = ec_table
    res = run("probe", "--input", path, "--k", str(k), "--json")
    assert checks.check_probe(res, table, k) is None
    rep = json.loads(res.stdout)
    bad = dict(rep, slope=rep["slope"] * (1 + 1e-6))
    assert "slope" in checks.check_probe(edited(res, json.dumps(bad)), table, k)


# ---------------------------------------------------------------------------
# Symbolic commands


@pytest.mark.parametrize("side", ["pos", "neg", "weak", "nsd"])
def test_bounds_check(side):
    res = run("bounds", "--side", side)
    assert checks.check_bounds(res, side, False) is None
    value = float(res.stdout.split("constant: ")[1].split("\n")[0])
    bad = res.stdout.replace(f"constant: {value:.10f}", f"constant: {value + 1e-6:.10f}")
    assert "constant" in checks.check_bounds(edited(res, bad), side, False)
    res = run("bounds", "--side", side, "--json")
    assert checks.check_bounds(res, side, True) is None
    data = json.loads(res.stdout)
    data["constant"] += 1e-6
    assert "constant" in checks.check_bounds(edited(res, json.dumps(data)), side, True)


@pytest.mark.parametrize("k,rep_type", [(8, "general"), (6, "tetrahedral"), (5, "octahedral")])
def test_poles_check_text(k, rep_type):
    res = run("poles", "--k", str(k), "--type", rep_type)
    assert checks.check_poles(res, k, rep_type, 1, False) is None
    lines = res.stdout.strip().splitlines()
    total = int(lines[-1].rsplit(":", 1)[1])
    bad = "\n".join(lines[:-1] + [f"pole order at s=1: {total + 1}"])
    assert "pole order" in checks.check_poles(edited(res, bad), k, rep_type, 1, False)


def test_poles_check_json():
    res = run("poles", "--k", "8", "--self-dual", "false", "--omega-order", "2", "--json")
    assert checks.check_poles(res, 8, "general", 2, True) is None
    data = json.loads(res.stdout)
    off = dict(data, total=data["total"] + 1)
    assert checks.check_poles(edited(res, json.dumps(off)), 8, "general", 2, True) is not None
    next(f for f in data["factors"] if f["pole"] == 0)["mult"] += 1
    assert "dimensions" in checks.check_poles(edited(res, json.dumps(data)), 8, "general", 2, True)


def test_decompose_check():
    res = run("decompose", "--k", "3")
    assert checks.check_decompose(res, "k", (3,)) is None
    bad = res.stdout.replace("2·pi⊗w", "3·pi⊗w")
    assert "mismatch" in checks.check_decompose(edited(res, bad), "k", (3,))
    res = run("decompose", "--pair", "3", "4")
    assert checks.check_decompose(res, "pair", (3, 4)) is None
    assert checks.check_decompose(edited(res, res.stdout.replace("w^3", "w^2")), "pair", (3, 4)) is not None
    res = run("decompose", "--atom", "Sym4(pi)", "--type", "tetrahedral")
    assert checks.check_decompose(res, "atom", ()) is None
    assert checks.check_decompose(edited(res, res.stdout.replace("mu^2", "mu")), "atom", ()) is not None


def test_rejected_check(tmp_path):
    assert checks.check_rejected(run("poles", "--k", "9"), 1) is None
    assert checks.check_rejected(run("bounds", "--bogus"), 2) is None
    ok = run("poles", "--k", "2")
    assert "exit code 0" in checks.check_rejected(ok, 1)
    crash = Result(1, "", 'Traceback (most recent call last):\nValueError: x\n', {})
    assert "uncaught" in checks.check_rejected(crash, 1)


# ---------------------------------------------------------------------------
# Workloads


def test_workload_make_up(tmp_path):
    sym = workloads.symbolic_cli(tmp_path, 1)
    assert sym.min_rounds * len(sym.ops) >= 100
    assert sum(op.known_fault is not None for op in sym.ops) == 4
    assert {op.kind for op in sym.ops} == {"cli", "generate", "read"}
    assert sorted(o.name for o in sym.ops) == sorted(o.name for o in workloads.symbolic_cli(tmp_path, 2).ops)
    ingest = workloads.ingest_sweep(tmp_path, 1)
    assert [op.name for op in ingest.ops if op.known_fault] == ["generate tau x=10000"]
    assert not any(op.known_fault for op in workloads.ec_pipeline(tmp_path, 1).ops)
