import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from collections import ChainMap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckebound import cli, datasets
from heckebound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(cli.__file__).resolve().parents[1])
# the environment of a CLI process that imports this checkout's package: a view of
# os.environ, so a variable that a fixture sets (XDG_CACHE_HOME) reaches the process
CLI_ENV = ChainMap({"PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}, os.environ)

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, case):
    """poles/bounds/decompose print exactly the pinned bytes, text and --json."""
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def test_poles_table_text(capsys):
    code, out, _ = run(capsys, "poles", "--k", "8")
    assert code == 0
    assert "pole order at s=1: 14" in out


def test_poles_json(capsys):
    code, out, _ = run(capsys, "poles", "--k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2
    assert payload["k"] == 4
    assert sorted(f["mult"] for f in payload["factors"]) == [1, 2, 3]


def test_poles_tetrahedral(capsys):
    code, out, _ = run(capsys, "poles", "--k", "6", "--type", "tetrahedral")
    assert code == 0
    assert "pole order at s=1: 6" in out


def test_poles_dihedral_exits_one(capsys):
    code, _, err = run(capsys, "poles", "--k", "6", "--type", "dihedral")
    assert code == 1
    assert "error" in err


def test_bounds_pos(capsys):
    code, out, _ = run(capsys, "bounds", "--side", "pos", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["constant"] == pytest.approx(0.90425, abs=1e-4)
    assert payload["optimizer"] == pytest.approx(1.33142, abs=1e-4)


def test_bounds_neg(capsys):
    code, out, _ = run(capsys, "bounds", "--side", "neg", "--json")
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(1.16499, abs=1e-4)


def test_bounds_nsd_and_weak(capsys):
    code, out, _ = run(capsys, "bounds", "--side", "nsd", "--phi", "1.0", "--json")
    assert code == 0
    assert json.loads(out)["constant"] == 0.5
    code, out, _ = run(capsys, "bounds", "--side", "weak", "--json")
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(0.70711, abs=1e-4)


def test_bounds_bad_input_exits_one(capsys):
    code, _, err = run(capsys, "bounds", "--side", "pos", "--pole4", "0")
    assert code == 1
    assert "error" in err


def test_decompose_tensor_power(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "3")
    assert code == 0
    assert "Sym3" in out and "2·" in out


def test_decompose_pair_json(capsys):
    code, out, _ = run(capsys, "decompose", "--pair", "2", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert sum(item["mult"] for item in payload) == 3
    assert {item["atom"] for item in payload} == {"Sym4(pi)", "Sym2(pi)*w", "w^2"}


def test_decompose_atom_reduction(capsys):
    code, out, _ = run(capsys, "decompose", "--atom", "Sym4(pi)", "--type", "tetrahedral")
    assert code == 0
    assert "Sym2" in out


@pytest.mark.parametrize("atom", ["pi", "Sym2(pi)", "Sym3(pi)", "Sym4(pi)"])
def test_decompose_atom_dihedral_exits_one(capsys, atom):
    # the atoms cannot express a monomial pi's reductions, so the type is refused
    code, out, err = run(capsys, "decompose", "--atom", atom, "--type", "dihedral")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["poles", "--k", "4"], ["decompose", "--atom", "Sym2(pi)"]], ids=" ".join
)
def test_dihedral_refusal_names_the_atom_vocabulary(capsys, argv):
    code, out, err = run(capsys, *argv, "--type", "dihedral")
    message = "the dihedral (monomial) type has no reductions in the atom vocabulary"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_decompose_requires_a_target(capsys):
    # a usage error, like poles without --k
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "error: one of the arguments --k --pair --atom is required" in err


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poles", "--k", "8", "--type", "icosahedral"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["yes", "1", "TRUE"])
def test_self_dual_spellings_of_true(capsys, value):
    assert run(capsys, "poles", "--k", "4", "--self-dual", value) == run(capsys, "poles", "--k", "4")


def test_self_dual_needs_a_truth_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poles", "--k", "4", "--self-dual", "maybe"])
    assert exc.value.code == 2
    assert "expected true/false, got 'maybe'" in capsys.readouterr().err


def test_verify_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--input", "/nonexistent.csv", "--theorem", "t1pos")
    assert code == 1
    assert "error" in err


def test_generate_verify_probe_round_trip(tmp_path, capsys):
    path = tmp_path / "st.csv"
    code, _, err = run(
        capsys, "generate", "--kind", "st", "--n", "2000", "--seed", "17", "--out", str(path)
    )
    assert code == 0
    assert "wrote 2000 records" in err

    code, out, _ = run(capsys, "verify", "--input", str(path), "--theorem", "t1pos", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 2000
    assert report["passed"] is True

    code, out, _ = run(capsys, "probe", "--input", str(path), "--k", "2", "--json")
    assert code == 0
    probe = json.loads(out)
    assert 0.4 <= probe["slope"] <= 1.6


def test_generate_ec_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "ec", "--x", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# source=ec")
    assert lines[1].split(",")[0] == "5"  # 2 and 3 are bad primes for 11a1


def test_generate_tau_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "tau", "--x", "30")
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert first[0] == "2"
    assert int(first[3]) == -24


def test_verify_t1neg_on_nsd_dataset_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# source=x,self_dual=false,normalization=unitary,X=10,omega_trivial=false\n"
        "2,1.0,0.0\n3,1.0,0.0\n5,1.0,0.0\n"
    )
    code, _, err = run(capsys, "verify", "--input", str(path), "--theorem", "t1neg")
    assert code == 1
    assert "self-dual" in err


def assert_rejected(code, err):
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", ["1.5,x,1.1", "1.5,inf,1.1,1.05", "1.5,nan,1.1,1.05"])
def test_probe_bad_s_grid_exits_one(tmp_path, capsys, grid):
    path = tmp_path / "small.csv"
    path.write_text("# source=x,self_dual=true,X=13\n5,0.4,0.0\n7,-0.7,0.0\n13,1.1,0.0\n")
    code, _, err = run(capsys, "probe", "--input", str(path), "--k", "2", "--s-grid", grid)
    assert_rejected(code, err)


def test_probe_checks_s_grid_before_reading_the_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    code, _, err = run(capsys, "probe", "--input", missing, "--k", "2", "--s-grid", "1.5,x,1.1")
    assert_rejected(code, err)
    assert "--s-grid needs numbers" in err


@pytest.mark.parametrize("argv", [["verify", "--theorem", "t1pos"], ["probe", "--k", "2"]], ids=" ".join)
def test_non_utf8_file_exits_one(tmp_path, capsys, argv):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# source=x,self_dual=true,X=13\n5,0.4,0.0\n7,\xff,0.0\n13,1.1,0.0\n")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert_rejected(code, err)
    assert err.startswith("error: line 3: not UTF-8")
    assert out == ""


def test_symbolic_subcommands_leave_numpy_unloaded():
    # decompose, poles and bounds never touch an array, so they start without
    # numpy; their records are namedtuples, so dataclasses stays unloaded too,
    # and json is imported only to print --json output
    argvs = [["decompose", "--k", "3"], ["poles", "--k", "8"]]
    argvs += [["bounds", "--side", side] for side in ("pos", "neg", "weak", "nsd")]
    code = (
        "import contextlib, io, sys\n"
        "from heckebound.cli import main\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "run(['poles', '--k', '8'])\n"
        "print('json' in sys.modules)\n"
        f"for argv in {argvs!r}:\n"
        "    run(argv)\n"
        "    run(argv + ['--json'])\n"
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules, 'logging' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\nFalse False False\n"), proc.stderr


def test_refused_generate_and_probe_leave_numpy_unloaded(tmp_path):
    # each argument rule is checked before datasets or density is imported
    missing = str(tmp_path / "missing.csv")
    calls = [
        (["generate", "--kind", "ec", "--x", "200000"], "X = 200000 exceeds the point-counting cap 100000"),
        (["generate", "--kind", "ec", "--x", "4"], "need X >= 5"),
        (["generate", "--kind", "ec", "--a", "0", "--b", "0"], "curve y^2 = x^3 + 0x + 0 is singular"),
        (["generate", "--kind", "tau", "--x", "0"], "need X >= 1"),
        (["generate", "--kind", "tau", "--x", "10001"], "X = 10001 exceeds the exact-series cap 10000"),
        (["generate", "--kind", "st", "--n", "0"], "need n >= 1 primes"),
        (["generate", "--kind", "st", "--n", "100001"], "n = 100001 exceeds the sampler cap 100000"),
        (["probe", "--input", missing, "--k", "2", "--s-grid", "1.5,x,1.1"], "--s-grid needs numbers, got '1.5,x,1.1'"),
    ]
    code = (
        "import contextlib, io, sys\n"
        "from heckebound.cli import main\n"
        f"for argv, message in {calls!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        assert main(argv) == 1, argv\n"
        "    assert err.getvalue() == f'error: {message}\\n', err.getvalue()\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_read_calls_leave_numpy_unloaded(tmp_path):
    # datasets and density import no numpy: only a generate that runs loads it,
    # so every verify and probe, passed or refused, starts without it
    head = "# source=x,self_dual=true,X=13\n"
    files = {
        "tau": datasets.dumps_csv(datasets.tau_ap(100)),
        "nan": head + "11,nan,0.0\n13,0.5,0.0\n",
        "composite": head + "3,0.1,0.0\n9,0.2,0.0\n",
        "blank": head + "3,0.1,0.0\n\n9,0.2,0.0\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(text, encoding="utf-8")
    calls = [(["verify", "--input", paths["tau"], "--theorem", t], 0) for t in ("t1pos", "t1neg", "t2")]
    calls += [(["probe", "--input", paths["tau"], "--k", k], 0) for k in ("2", "4")]
    calls += [(["verify", "--input", paths[name], "--theorem", "t1pos"], 1) for name in ("nan", "composite", "blank")]
    code = (
        "import contextlib, io, sys\n"
        "import heckebound.datasets, heckebound.density\n"
        "from heckebound.cli import main\n"
        f"for argv, want in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == want, argv\n"
        "print('numpy' in sys.modules, 'logging' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr


def test_decompose_pair_past_the_cap_exits_one(capsys):
    code, out, err = run(capsys, "decompose", "--pair", "1001", "1001")
    assert (code, out, err) == (1, "", "error: cg_pair supports degrees up to 1000, got 1001 and 1001\n")


# an exponent past int's 4,300-digit str() limit, and two at it whose sum passes it
LONG_ATOMS = ["pi*w^" + "9" * 4301, "Sym3(pi)*w^" + "9" * 4300 + "*w^" + "9" * 4300]


@pytest.mark.parametrize("atom", LONG_ATOMS, ids=["4301-digit", "two-4300-digit"])
def test_decompose_long_integer_atom_exits_one(capsys, atom):
    code, out, err = run(capsys, "decompose", "--atom", atom)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the exit-code contract over drawn argv

# numbers where int() and float() take a text argparse may not expect, and
# sizes that stay small, so that no drawn call generates more than 200 rows
EDGE_NUMBERS = ["nan", "inf", "1e309", "1_0", "\u0661\u0660", str(2**64), "12345678901234567890", "", "0.5"]
NUMBER = st.one_of(st.integers(-3, 200).map(str), st.sampled_from(EDGE_NUMBERS))
ATOM = st.one_of(
    st.sampled_from(
        ["pi", "Sym2(pi)", "Sym4(pi)*w^-1", "Sym3(pi)*mu", "pi_chi", "nu*Sym3(pi)*pi", "w^2", "Sym(pi)", "Sym\u0663(pi)"]
        + LONG_ATOMS
    ),
    st.text("Sym()pi*w^-_0123456789", max_size=12),
)
TYPE = st.sampled_from(["general", "tetrahedral", "octahedral", "dihedral", "cubic"])
PINNED_CSV = (
    b"# source=fixture,self_dual=true,X=13\n"
    b"5,0.4472135954999579,0.0,1\n7,-0.7559289460184544,0.0,-2\n13,1.1094003924504583,0.0,4\n"
)


@st.composite
def csv_files(draw):
    """PINNED_CSV with up to three byte flips or insertions."""
    data = bytearray(PINNED_CSV)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            data[at] ^= 1 << draw(st.integers(0, 7))
        else:
            data[at:at] = draw(st.sampled_from([b"\r", b"\x0c", b"#", b"_", b"nan", b"\xff"]))
    return bytes(data)


# each subcommand's flags, each drawn or left out, with the strategies of its values
GRAMMAR = {
    "decompose": [("--k", [NUMBER]), ("--pair", [NUMBER, NUMBER]), ("--atom", [ATOM]), ("--type", [TYPE]), ("--json", [])],
    "poles": [
        ("--k", [NUMBER]), ("--type", [TYPE]), ("--self-dual", [st.sampled_from(["true", "false", "maybe", ""])]),
        ("--omega-order", [NUMBER]), ("--json", []),
    ],
    "bounds": [
        ("--side", [st.sampled_from(["pos", "neg", "nsd", "weak", "both"])]),
        ("--pole4", [NUMBER]), ("--pole8", [NUMBER]), ("--pole6", [NUMBER]), ("--phi", [NUMBER]), ("--json", []),
    ],
    "generate": [
        ("--kind", [st.sampled_from(["ec", "tau", "st", "cm"])]), ("--a", [NUMBER]), ("--b", [NUMBER]),
        ("--seed", [NUMBER]),
    ],
    "verify": [
        ("--input", [st.just("FILE")]), ("--theorem", [st.sampled_from(["t1pos", "t1neg", "t2", "t9"])]),
        ("--phi", [NUMBER]), ("--eps", [NUMBER]), ("--json", []),
    ],
    "probe": [
        ("--input", [st.just("FILE")]), ("--k", [NUMBER]),
        ("--s-grid", [st.one_of(st.sampled_from(["1.5,1.3,1.2,1.1", "2,1.01,1.5"]), st.lists(NUMBER, max_size=4).map(",".join))]),
        ("--json", []),
    ],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in GRAMMAR[command]:
        if draw(st.booleans()):
            argv += [flag] + [draw(value) for value in values]
    if command == "generate":  # always sized, so that no default size (10^4) runs
        argv += ["--x", draw(NUMBER), "--n", draw(NUMBER)]
    return argv


@settings(max_examples=500, deadline=None)
@given(argvs(), csv_files())
def test_every_drawn_call_keeps_the_exit_code_contract(tmp_path_factory, argv, data):
    # 0 ok, 1 domain error with one `error:` line, 2 usage error; never a traceback
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.unlink(missing_ok=True)  # a new file, not a truncated one that ext4 flushes on close
    path.write_bytes(data)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_generate_ec_defaults_to_11a1(capsys):
    a, b = (str(v) for v in datasets.CURVE_11A1)
    default = run(capsys, "generate", "--kind", "ec", "--x", "300")
    assert default[0] == 0
    assert run(capsys, "generate", "--kind", "ec", "--x", "300", "--a", a, "--b", b) == default
    assert run(capsys, "generate", "--kind", "ec", "--x", "300", "--a", a) == default
    assert run(capsys, "generate", "--kind", "ec", "--x", "300", "--b", b) == default


def test_generate_out_writes_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "tau.csv"
    code, out, _ = run(capsys, "generate", "--kind", "tau", "--x", "200")
    assert run(capsys, "generate", "--kind", "tau", "--x", "200", "--out", str(path))[0] == code == 0
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_generate_out_dev_stdout_appends_under_a_shell_append(tmp_path, capsys):
    # `>>` opens the file for appending; reopening /dev/stdout with mode "w" would truncate it
    path = tmp_path / "log.csv"
    path.write_bytes(b"keep\n")
    out = run(capsys, "generate", "--kind", "tau", "--x", "100")[1]
    argv = [sys.executable, "-m", "heckebound.cli", "generate", "--kind", "tau", "--x", "100", "--out", "/dev/stdout"]
    script = f'{shlex.join(argv)} >> "$0"'
    proc = subprocess.run(["sh", "-c", script, str(path)], env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "wrote 25 records to /dev/stdout\n")
    assert path.read_bytes() == b"keep\n" + out.encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("out, redirect", [("/dev/fd/3", "3>>"), ("/dev/stderr", "2>>")])
def test_generate_out_descriptor_appends_under_a_shell_append(tmp_path, capsys, out, redirect):
    # the same as /dev/stdout for any other descriptor the shell opened for appending
    path = tmp_path / "log.csv"
    path.write_bytes(b"keep\n")
    csv = run(capsys, "generate", "--kind", "tau", "--x", "100")[1]
    argv = [sys.executable, "-m", "heckebound.cli", "generate", "--kind", "tau", "--x", "100", "--out", out]
    script = f'{shlex.join(argv)} {redirect} "$1"'
    proc = subprocess.run(["sh", "-c", script, "sh", str(path)], env=CLI_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the note goes to stderr, which under 2>> is the file itself
    written = path.read_bytes() + proc.stderr.encode("utf-8")
    assert written == f"keep\n{csv}wrote 25 records to {out}\n".encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
def test_generate_out_read_only_descriptor_names_the_path(tmp_path):
    # stdin is open for reading only: the write fails, and the message names --out
    path = tmp_path / "f"
    path.write_bytes(b"keep\n")
    argv = [sys.executable, "-m", "heckebound.cli", "generate", "--kind", "tau", "--x", "100", "--out", "/dev/fd/0"]
    with path.open("rb") as stdin:
        proc = subprocess.run(argv, stdin=stdin, env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: [Errno 9] Bad file descriptor: '/dev/fd/0'\n"
    assert path.read_bytes() == b"keep\n"


@pytest.mark.parametrize("out", ["", "/dev/stdout"], ids=["stdout", "dev-stdout"])
def test_generate_to_a_closed_stdout_exits_one(out):
    # without --out the write to descriptor 1 fails with EBADF; /dev/stdout names no file
    if out and not os.path.exists(out):
        pytest.skip(f"needs {out}")
    argv = [sys.executable, "-m", "heckebound.cli", "generate", "--kind", "tau", "--x", "100"]
    script = f"{shlex.join(argv + (['--out', out] if out else []))} >&-"
    proc = subprocess.run(["sh", "-c", script], env=CLI_ENV, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["poles", "--k", "8"],
        ["bounds", "--side", "neg"],
        ["decompose", "--k", "2"],
        ["verify", "--input", "{csv}", "--theorem", "t1pos"],
        ["probe", "--input", "{csv}", "--k", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_printing_to_a_closed_stdout_exits_one(tmp_path, argv):
    # sys.stdout is None, where print drops the text silently; the write to descriptor 1 must fail with EBADF
    path = tmp_path / "tau.csv"
    datasets.write_csv(path, datasets.tau_ap(100))
    argv = [sys.executable, "-m", "heckebound.cli", *(arg.format(csv=path) for arg in argv)]
    proc = subprocess.run(["sh", "-c", f"{shlex.join(argv)} >&-"], env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 9] Bad file descriptor\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_generate_out_dev_stdout_with_stderr_closed_writes_only_the_csv(tmp_path, capsys):
    # under 2>&- sys.stderr is None, and print(file=None) would append the note to the CSV
    path = tmp_path / "tau.csv"
    csv = run(capsys, "generate", "--kind", "tau", "--x", "20")[1]
    argv = [sys.executable, "-m", "heckebound.cli", "generate", "--kind", "tau", "--x", "20", "--out", "/dev/stdout"]
    proc = subprocess.run(["sh", "-c", f'{shlex.join(argv)} 2>&- > "$0"', str(path)], env=CLI_ENV)
    assert proc.returncode == 0
    assert path.read_bytes() == csv.encode("utf-8")


@pytest.mark.parametrize(
    "args, code",
    [
        ("verify --input /nonexistent --theorem t1pos --json 2>&-", 1),
        ("poles --bogus 2>&-", 2),  # argparse prints its usage to stdout for a None stderr (and Python 3.10 exits 1)
        ("generate --kind tau --x 100 >&- 2>&-", 1),  # an os.devnull stand-in for stderr would take fd 1 and exit 0
    ],
    ids=["error", "usage", "stdout-closed-too"],
)
def test_a_closed_stderr_sends_nothing_to_stdout(args, code):
    script = f"{shlex.join([sys.executable, '-m', 'heckebound.cli'])} {args}"
    proc = subprocess.run(["sh", "-c", script], env=CLI_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")


def test_generate_out_empty_exits_one(capsys):
    code, out, err = run(capsys, "generate", "--kind", "tau", "--x", "100", "--out", "")
    assert (code, out, err) == (1, "", "error: --out needs a path\n")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_non_finite_row_exits_one(tmp_path, capsys, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"# source=x,self_dual=true,X=13\n11,{value},0.0\n13,0.5,0.0\n")
    code, _, err = run(capsys, "verify", "--input", str(path), "--theorem", "t1pos")
    assert_rejected(code, err)
    assert "line 2" in err


def test_generate_st_seed_fold(capsys):
    # seeds outside 0..2^64 fold into the sampler key without colliding here
    rows = set()
    for seed in ("-1", "0", str(2 ** 70), str(-(2 ** 70))):
        argv = ("generate", "--kind", "st", "--n", "50", "--seed", seed)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv) == (0, out, "")
        rows.add(out.split("\n", 1)[1])  # the header names the seed
    assert len(rows) == 4


def test_generate_st_over_cap_exits_one(capsys):
    code, _, err = run(capsys, "generate", "--kind", "st", "--n", "100001")
    assert_rejected(code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "t1pos", "--phi", "inf"],
        ["verify", "--theorem", "t1neg", "--phi", "nan"],
        ["verify", "--theorem", "t2", "--phi", "nan"],
        ["verify", "--theorem", "t1pos", "--eps", "nan"],
        ["verify", "--theorem", "t1pos", "--eps", "inf"],
        ["verify", "--theorem", "t1pos", "--eps", "-0.5"],
        ["probe", "--k", "100000"],
        ["probe", "--k", "-1"],
    ],
    ids=" ".join,
)
def test_bad_argv_numbers_exit_one(tmp_path, capsys, argv):
    path = tmp_path / "small.csv"
    path.write_text("# source=x,self_dual=true,X=13\n5,0.4,0.0\n7,-0.7,0.0\n13,1.1,0.0\n")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert_rejected(code, err)
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--side", "pos", "--pole4", str(10**62)],
        ["bounds", "--side", "pos", "--pole4", str(10**400)],
        ["bounds", "--side", "pos", "--pole8", str(10**400)],
        ["bounds", "--side", "neg", "--pole6", str(10**400)],
        ["probe", "--k", str(10**400)],
    ],
    ids=["pole4=1e62", "pole4=1e400", "pole8=1e400", "pole6=1e400", "probe-k=1e400"],
)
def test_argv_integers_past_a_double_exit_one(tmp_path, capsys, argv):
    path = tmp_path / "small.csv"
    path.write_text("# source=x,self_dual=true,X=13\n5,0.4,0.0\n7,-0.7,0.0\n13,1.1,0.0\n")
    code, out, err = run(capsys, *argv, *(["--input", str(path)] if argv[0] == "probe" else []))
    assert_rejected(code, err)
    assert out == "" and len(err.splitlines()) == 1


def test_probe_k_past_a_double_prints_a_short_error(tmp_path, capsys):
    # the overflow message names no k, so a 401-digit k gives one short line
    path = tmp_path / "small.csv"
    path.write_text("# source=x,self_dual=true,X=13\n5,0.4,0.0\n7,-0.7,0.0\n13,1.1,0.0\n")
    code, out, err = run(capsys, "probe", "--k", str(10**400), "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 100


@pytest.mark.parametrize("flag", [["--self-dual", "false"], ["--omega-order", "3"]], ids=" ".join)
@pytest.mark.parametrize(
    "target", [["--k", "2"], ["--pair", "1", "2"], ["--atom", "Sym4(pi)"]], ids=" ".join
)
def test_decompose_takes_no_assumption_flags_but_type(capsys, target, flag):
    # reduce_atom reads only the representation type
    with pytest.raises(SystemExit) as exc:
        main(["decompose", *target, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", HELP, ids=lambda case: " ".join(case["argv"]))
def test_help_text(monkeypatch, capsys, case):
    """--help of the parser and of each subcommand prints the pinned text."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    assert (exc.value.code, capsys.readouterr().out) == (0, case["stdout"])


def test_decompose_conflicting_selectors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--k", "2", "--pair", "1", "1"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
