import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_non_finite_row_exits_one(tmp_path, capsys, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"# source=x,self_dual=true,X=13\n11,{value},0.0\n13,0.5,0.0\n")
    code, _, err = run(capsys, "verify", "--input", str(path), "--theorem", "t1pos")
    assert_rejected(code, err)
    assert "line 2" in err


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


def test_decompose_conflicting_selectors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--k", "2", "--pair", "1", "1"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
