"""Starts the benchmark's CLI processes, one at a time, from a process that
stays small.

A child's peak resident set as the kernel reports it includes the memory of
the process that started it, counted at exec.  The benchmark itself holds
parsed CSV files and references, so it hands every start to this process,
which imports only the standard library.

Reads one JSON request per line on stdin:
{"argv", "env", "cwd", "stdout", "stderr", "timeout"}, and answers each with
one JSON line: {"code", "wall_s", "maxrss_kib"}.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
