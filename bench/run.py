#!/usr/bin/env python3
"""Closed-loop benchmark of the heckebound CLI.

    python3 bench/run.py --workload ec-pipeline --seed 1 --seconds 20 --trace 0

Run from a checkout that holds `src/heckebound`.  One client runs the
workload's round of CLI operations (`python -m heckebound.cli ...`, one
process at a time) again and again until --seconds have passed, always
finishing the round it is in.  Every output is checked against references
computed here (see checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 1 replays one round in-process instead, records spans around the
calls into each module and reports per-layer metrics (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from checks import Result

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 60
BUDGET_S = 150  # stop starting rounds that would end past this
SETUP_REPEATS = 7


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Launcher:
    """The small process (spawner.py) that starts every CLI call, so that
    a child's peak RSS does not include this process's memory."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list, work: Path) -> tuple[Result, float, int]:
        """One CLI process: its result, wall time in s and peak RSS in KiB."""
        out_path, err_path = work / "stdout.txt", work / "stderr.txt"
        request = {
            "argv": [sys.executable, "-m", "heckebound.cli", *argv],
            "env": child_env(),
            "cwd": str(ROOT),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": OP_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        res = Result(
            reply["code"],
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            {},
        )
        return res, reply["wall_s"], reply["maxrss_kib"]


def setup(work: Path, launcher: Launcher) -> float:
    """Fresh work directory, fixture files and one untimed warm-up call."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in workloads.FIXTURES.items():
        (work / name).write_text(text, encoding="utf-8")
    res, _, _ = launcher.run(workloads.WARMUP, work)
    if res.code != 0:
        raise RuntimeError(f"warm-up call failed: {res.stderr.strip()}")
    return time.perf_counter() - start


def judge(op, res: Result, rnd) -> tuple[bool, bool, str | None]:
    """(failed, wrong, message) for one checked operation.  A known fault
    counts as failed; any other failure or wrong number makes the run
    incorrect."""
    res.files = rnd.files
    msg = op.check(res, rnd)
    if msg is None:
        return False, False, None
    if op.known_fault:
        return True, False, msg
    return isinstance(msg, checks.Failure), True, msg


def run_round(wl, work: Path, launcher: Launcher) -> dict:
    rnd = workloads.Round()
    timings = []
    start = time.perf_counter()
    for op in wl.ops:
        res, wall, rss = launcher.run(op.argv, work)
        timings.append((op, res, wall, rss))
    wall = time.perf_counter() - start
    for path in (path for op in wl.ops for path in op.writes):  # each written once per round
        p = Path(path)
        rnd.files[path] = p.read_text(encoding="utf-8") if p.exists() else None
    verdicts = [judge(op, res, rnd) for op, res, _, _ in timings]
    return {"wall": wall, "timings": timings, "verdicts": verdicts}


def percentile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def summarize(rounds: list, setups: list) -> tuple[dict, list]:
    times = [(op.kind, wall) for r in rounds for op, _, wall, _ in r["timings"]]
    cli_ms = [w * 1000 for _, w in times]
    reads = [w * 1000 for kind, w in times if kind == "read"]
    # Each operation's median over rounds first: a round mixes operations of
    # very different cost, and a plain median would sit between two groups.
    per_op = [statistics.median(r["timings"][i][2] for r in rounds) * 1000 for i in range(len(rounds[0]["timings"]))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "generate_s": (
            statistics.median(sum(w for op, _, w, _ in r["timings"] if op.kind == "generate") for r in rounds),
            "s",
        ),
        "read_ms.p50": (statistics.median(reads), "ms"),
        "cli_ms.p50": (statistics.median(per_op), "ms"),
        "peak_rss_mb": (max(rss for r in rounds for *_, rss in r["timings"]) / 1024, "MB"),
    }
    notes = [f"samples: {len(rounds)} rounds, {len(cli_ms)} processes, {len(reads)} reads"]
    p90 = percentile(cli_ms, 90) if len(cli_ms) >= 2 else None
    above = sum(v > p90 for v in cli_ms) if p90 is not None else 0
    if above >= 10:
        notes.append(f"cli_ms.p90 = {p90:.2f} ms ({above} samples above it)")
    else:
        notes.append(f"cli_ms.p90 not reported: {above} samples above it, fewer than 10")
    return metrics, notes


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def report_verdicts(pairs) -> tuple[bool, int, int]:
    """Print each distinct failure once; return (correct, attempted, failed)."""
    correct, attempted, failed, seen = True, 0, 0, set()
    for op, (is_failed, wrong, msg) in pairs:
        attempted += 1
        failed += is_failed
        correct &= not wrong
        if msg and (op.name, msg) not in seen:
            seen.add((op.name, msg))
            tag = "KNOWN FAULT" if op.known_fault else "WRONG"
            print(f"  {tag}: {op.name}: {msg}" + (f" ({op.known_fault})" if op.known_fault else ""))
    return correct, attempted, failed


def run_untraced(wl, work: Path, seconds: float, launcher: Launcher) -> int:
    setups = [setup(work, launcher) for _ in range(SETUP_REPEATS)]
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, work, launcher))
        elapsed = time.perf_counter() - start
        if len(rounds) >= wl.min_rounds and elapsed >= seconds:
            break
        if elapsed + rounds[-1]["wall"] > BUDGET_S:
            break
    print(f"workload {wl.name}: {len(wl.ops)} operations per round, {len(rounds)} rounds in {elapsed:.1f} s")
    pairs = [(op, v) for r in rounds for (op, *_), v in zip(r["timings"], r["verdicts"])]
    correct, attempted, failed = report_verdicts(pairs)
    metrics, notes = summarize(rounds, setups)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    emit(correct, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heckebound" / "cli.py").is_file():
        print(f"error: no heckebound sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    with Launcher() as launcher:
        if args.trace:
            import tracing

            return tracing.run_traced(wl, work, args.seed, launcher)
        return run_untraced(wl, work, args.seconds, launcher)


if __name__ == "__main__":
    sys.exit(main())
