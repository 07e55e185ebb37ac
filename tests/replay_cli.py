"""Replay the CLI under other Python interpreters, with the stdlib only.

    python tests/replay_cli.py ~/.pyenv/versions/3.10.13/bin/python ~/.pyenv/versions/3.13.0/bin/python

Each interpreter named runs `python -m heckebound.cli` from this checkout's
src/ on:
- every tests/data/cli_golden.json entry, compared with its pinned stdout and
  exit code;
- verify --json (t1pos, t1neg, and t2 at phi = 0.785) and probe --json
  (k = 2, 4) on 11a1 to 10^3, tau to 100 and Sato-Tate n = 200, files that the
  interpreter running this script generates (generating needs numpy, reading
  does not), and the refusals generate --kind st --n 0, poles --bogus and a
  bare decompose, each compared with the stdout and exit code of the
  interpreter running this script.
One line per interpreter; exit 1 on any mismatch.  Every file it reads is below
the reader's CACHE_MIN_BYTES, so no call reads or writes the column cache.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text(encoding="utf-8"))
DATASETS = {
    "ec": ["--kind", "ec", "--x", "1000"],
    "tau": ["--kind", "tau", "--x", "100"],
    "st": ["--kind", "st", "--n", "200"],
}


def cli(python: str, argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([python, "-m", "heckebound.cli", *argv], env=ENV, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main(pythons: list[str]) -> int:
    if not pythons:
        print(f"usage: {sys.argv[0]} PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        calls = [["generate", "--kind", "st", "--n", "0"], ["poles", "--bogus"], ["decompose"]]
        for name, argv in DATASETS.items():
            path = os.path.join(tmp, f"{name}.csv")
            if cli(sys.executable, ["generate", *argv, "--out", path])[0] != 0:
                print(f"{sys.executable} could not generate {name}", file=sys.stderr)
                return 1
            calls += [["verify", "--input", path, "--theorem", t, "--json"] for t in ("t1pos", "t1neg")]
            calls += [["verify", "--input", path, "--theorem", "t2", "--phi", "0.785", "--json"]]
            calls += [["probe", "--input", path, "--k", k, "--json"] for k in ("2", "4")]
        cases = [(case["argv"], (case["code"], case["stdout"])) for case in GOLDEN]
        cases += [(argv, cli(sys.executable, argv)) for argv in calls]
        failed = False
        for python in pythons:
            misses = [argv for argv, want in cases if cli(python, argv) != want]
            print(f"{python}: {len(cases) - len(misses)}/{len(cases)} agree")
            for argv in misses:
                print("  differs:", " ".join(argv))
            failed = failed or bool(misses)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
