import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckebound import cli, datasets
from heckebound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run(capsys, "decompose")
    assert code == 1
    assert "error" in err


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poles", "--k", "8", "--type", "icosahedral"])
    assert exc.value.code == 2


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
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\nFalse False\n"), proc.stderr


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
    # k is echoed only up to 20 digits; past that the message gives its length
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
