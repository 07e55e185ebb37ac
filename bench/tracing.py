"""Traced mode: replay one round of a workload in-process and time the calls
into each heckebound module.

Each operation of the round runs twice through `heckebound.cli.main`:
plain, and with span-recording wrappers installed around the public
functions of every layer; the difference is the tracing overhead.  Spans (name, start,
end, parent, operation) are written to .bench_work/<workload>/spans.json.
Layers the workload never reaches are timed by one probe call each on the
inputs of the workload that does reach them, so every run reports every
per-layer metric.  Start-up costs are timed in fresh interpreters.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import checks
import workloads
from checks import Result
from run import ROOT, SRC, child_env, emit, judge, report_verdicts, setup

sys.path.insert(0, str(SRC))

from heckebound import bounds, cli, datasets, density, poles, repring  # noqa: E402
from heckebound.assumptions import GENERAL_SELF_DUAL  # noqa: E402

# the lru_cache object itself: the traced wrapper has no cache_clear
TAU_CACHE = datasets.tau_coefficients

MODULES = {"cli": cli, "repring": repring, "poles": poles, "bounds": bounds, "datasets": datasets, "density": density}

TRACED = {
    "repring": ("tensor_power", "reduce_rep", "reduce_atom", "cg_pair", "parse_atom"),
    "poles": ("tensor_power_pole", "rs_pole_order", "std_pole_order"),
    "bounds": ("positive_side", "negative_side", "positive_side_weak", "non_self_dual", "_corner_scan"),
    "datasets": (
        "primes_up_to", "first_n_primes", "ec_ap", "tau_ap", "tau_coefficients",
        "sato_tate_sample", "dumps_csv", "read_csv", "loads_csv",
    ),
    "density": ("verify_theorem", "density_profile", "pole_order_probe", "truncated_sum"),
    "cli": ("build_parser",),
}

# Work counted at a span from the call's return value.
COUNTERS = {
    "poles.tensor_power_pole": lambda cert: len(cert.factors),
    "datasets.ec_ap": lambda ds: len(ds.records),
    "datasets.dumps_csv": len,
    "datasets.loads_csv": lambda ds: len(ds.records),
}

START_REPEATS = 5
# tracemalloc slows loads_csv about thirtyfold, so the allocation peak is
# taken on at most this many rows of the largest CSV the run loaded
ALLOC_ROWS = 10_000


class Tracer:
    """Spans kept in memory: [id, name, start, end, parent, op, count, error]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.largest_csv = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1][0] if self.stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent, self.op, None, False]
        self.spans.append(record)
        self.stack.append(record)
        try:
            yield record
        except Exception:
            record[7] = True
            raise
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if count is not None:
                    record[6] = count(out)
                if name == "datasets.loads_csv" and len(args[0]) > len(self.largest_csv):
                    self.largest_csv = args[0]
                return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace each traced function in every heckebound module namespace
        that holds it (e.g. poles imports tensor_power by name)."""
        saved = []
        for layer, names in TRACED.items():
            for attr in names:
                original = getattr(MODULES[layer], attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for mod in MODULES.values():
                    if mod.__dict__.get(attr) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        build = cli.build_parser

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        cli.build_parser = build_parser
        saved.append((cli, "build_parser", build))
        try:
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def call_cli(argv: list) -> Result:
    """cli.main in this process, as a fresh CLI process would run it."""
    TAU_CACHE.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception ends a CLI process the same way
            traceback.print_exc()
            code = 1
    return Result(code, out.getvalue(), err.getvalue(), {})


def replay(wl, tracer: Tracer) -> tuple[float, float, list]:
    """One round in-process, each call made twice: plain and traced, in
    alternating order so that drift in machine speed cancels.  After the CLI
    calls, each data file of the round is loaded and profiled on both
    sides, since no CLI command reaches density_profile.

    Returns the plain and traced wall times and the checked operations."""
    rounds = {False: workloads.Round(), True: workloads.Round()}
    wall = {False: 0.0, True: 0.0}
    checked = []

    def timed(traced: bool, op_id, fn):
        tracer.op = op_id
        with tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            out = fn()
            wall[traced] += time.perf_counter() - start
        return out

    def cli_op(op, traced):
        with tracer.span("cli.main") if traced else contextlib.nullcontext():
            return call_cli(op.argv)

    def profile(path):
        records = datasets.read_csv(path).records
        for side in ("above", "below"):
            density.density_profile(records, checks.POS_CONSTANT, side)

    for i, op in enumerate(wl.ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            res = timed(traced, i, lambda: cli_op(op, traced))
            rnd = rounds[traced]
            for path in op.writes:
                rnd.files[path] = Path(path).read_text(encoding="utf-8") if Path(path).exists() else None
            checked.append((op, res, rnd))
    for i, path in enumerate(p for op in wl.ops for p in op.writes):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if rounds[traced].files.get(path) is not None:
                timed(traced, "profile", lambda: profile(path))
    return wall[False], wall[True], [(op, judge(op, res, rnd)) for op, res, rnd in checked]


def _probe_st(state):
    if "st" not in state:
        state["st"] = datasets.sato_tate_sample(workloads.ST_N, state["seed"])
    return state["st"]


def _probe_csv(state):
    if "csv" not in state:
        state["csv"] = datasets.dumps_csv(_probe_st(state))
    return state["csv"]


def _probe_records(state):
    return datasets.loads_csv(_probe_csv(state)).records


def _probe_tau(state):
    TAU_CACHE.cache_clear()
    datasets.tau_ap(workloads.TAU_X)


# span name -> probe call on the inputs of the workload that reaches it
PROBES = {
    "repring.tensor_power": lambda s: [poles.tensor_power_pole(k, GENERAL_SELF_DUAL) for k in range(2, 9)],
    "repring.reduce_rep": lambda s: poles.tensor_power_pole(8, GENERAL_SELF_DUAL),
    "poles.tensor_power_pole": lambda s: [poles.tensor_power_pole(k, GENERAL_SELF_DUAL) for k in range(2, 9)],
    "bounds.positive_side": lambda s: bounds.positive_side(),
    "bounds._corner_scan": lambda s: bounds.negative_side(),
    "datasets.ec_ap": lambda s: datasets.ec_ap(*datasets.CURVE_11A1, workloads.EC_X),
    "datasets.primes_up_to": lambda s: datasets.primes_up_to(workloads.EC_X),
    "datasets.tau_ap": _probe_tau,
    "datasets.sato_tate_sample": _probe_st,
    "datasets.dumps_csv": _probe_csv,
    "datasets.loads_csv": _probe_records,
    "density.verify_theorem": lambda s: density.verify_theorem(_probe_records(s), "t1pos"),
    "density.density_profile": lambda s: density.density_profile(_probe_records(s), checks.POS_CONSTANT, "above"),
    "density.pole_order_probe": lambda s: density.pole_order_probe(_probe_records(s), 2, checks.S_GRID),
}


def fresh_interpreter_ms(code: str) -> float:
    """Median over fresh interpreters of the time `code` reports (ms)."""
    values = []
    for _ in range(START_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True)
        values.append(float(out.stdout) * 1000)
    return statistics.median(values)


def startup_metrics() -> dict:
    walls = []
    for _ in range(START_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        walls.append((time.perf_counter() - start) * 1000)
    timed = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    return {
        "interp.start_ms": (statistics.median(walls), "ms"),
        "import.numpy_ms": (fresh_interpreter_ms(timed.format("numpy")), "ms"),
        "import.heckebound_ms": (fresh_interpreter_ms(timed.format("heckebound")), "ms"),
    }


def self_times(spans: list) -> dict:
    """Self time in s per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    out = {}
    for s, c in zip(spans, child):
        layer = s[1].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s[3] - s[2]) - c
    return out


def layer_metrics(spans: list, peak_alloc_mb: float) -> dict:
    """Per-layer metrics from the calls that returned, taken from the replay
    where it reached the function and from the probes otherwise."""
    by, probed = {}, {}
    for s in spans:
        if not s[7]:
            (probed if s[5] == "probe" else by).setdefault(s[1], []).append(s)
    for name, group in probed.items():
        by.setdefault(name, group)

    def mean(name, scale):
        group = by[name]
        return sum(s[3] - s[2] for s in group) / len(group) * scale

    def total(name):
        return sum(s[3] - s[2] for s in by[name])

    def count(name):
        return sum(s[6] or 0 for s in by[name])

    ops = {s[5] for s in by["cli.main"]} if "cli.main" in by else set()
    parse = total("cli.build_parser") + total("cli.parse_args")
    return {
        "cli.parse_ms": (parse / max(1, len(ops)) * 1e3, "ms"),
        "repring.tensor_power_us": (mean("repring.tensor_power", 1e6), "us"),
        "repring.reduce_rep_us": (mean("repring.reduce_rep", 1e6), "us"),
        "poles.tensor_power_pole_us": (mean("poles.tensor_power_pole", 1e6), "us"),
        "poles.factors": (count("poles.tensor_power_pole"), "count"),
        "bounds.positive_side_us": (mean("bounds.positive_side", 1e6), "us"),
        "bounds.corner_scan_us": (mean("bounds._corner_scan", 1e6), "us"),
        "datasets.primes_up_to_ms": (mean("datasets.primes_up_to", 1e3), "ms"),
        "datasets.ec_ap_s": (mean("datasets.ec_ap", 1), "s"),
        "datasets.ec_ap.primes_per_s": (count("datasets.ec_ap") / total("datasets.ec_ap"), "1/s"),
        "datasets.tau_ap_cold_s": (mean("datasets.tau_ap", 1), "s"),
        "datasets.sato_tate_sample_s": (mean("datasets.sato_tate_sample", 1), "s"),
        "datasets.dumps_csv_s": (mean("datasets.dumps_csv", 1), "s"),
        "datasets.csv_bytes": (count("datasets.dumps_csv"), "B"),
        "datasets.loads_csv_s": (mean("datasets.loads_csv", 1), "s"),
        "datasets.loads_csv.rows_per_s": (count("datasets.loads_csv") / total("datasets.loads_csv"), "1/s"),
        "datasets.loads_csv.peak_alloc_mb": (peak_alloc_mb, "MB"),
        "density.verify_theorem_ms": (mean("density.verify_theorem", 1e3), "ms"),
        "density.density_profile_ms": (mean("density.density_profile", 1e3), "ms"),
        "density.pole_order_probe_ms": (mean("density.pole_order_probe", 1e3), "ms"),
    }


def run_traced(wl, work: Path, seed: int, launcher) -> int:
    metrics = startup_metrics()
    setup(work, launcher)
    tracer = Tracer()
    plain_s, traced_s, checked = replay(wl, tracer)
    tracer.op = "probe"
    state = {"seed": seed}
    probed = []
    with tracer.installed():
        for name, probe in PROBES.items():
            if name not in {s[1] for s in tracer.spans if not s[7]}:
                with tracer.span("probe"):
                    probe(state)
                probed.append(name)
    alloc_text = "".join(tracer.largest_csv.splitlines(keepends=True)[: ALLOC_ROWS + 1])
    tracemalloc.start()
    datasets.loads_csv(alloc_text)
    peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    print(f"workload {wl.name} (traced, in-process): {len(wl.ops)} operations per round")
    correct, attempted, failed = report_verdicts(checked)
    print(f"  untraced replay {plain_s:.4f} s, traced replay {traced_s:.4f} s")
    replay_spans = [s for s in tracer.spans if s[5] != "probe"]
    for layer, secs in sorted(self_times(replay_spans).items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<10} {secs * 1e3:12.3f} ms")
    if probed:
        print(f"  probed (not reached by this workload): {', '.join(probed)}")
    metrics.update(layer_metrics(tracer.spans, peak_alloc_mb))
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.4f} {unit}")
    fields = ("id", "name", "start", "end", "parent", "op", "count", "error")
    spans = [dict(zip(fields, s)) for s in tracer.spans]
    (work / "spans.json").write_text(json.dumps({"workload": wl.name, "seed": seed, "spans": spans}), encoding="utf-8")
    print(f"  {len(spans)} spans written to {(work / 'spans.json').relative_to(ROOT)}")
    emit(correct, attempted, failed, metrics)
    return 0
