"""Command line entry point.

Subcommands: decompose, poles, bounds, generate, verify, probe.  Only
generate, verify and probe import `datasets` (and `density`), and only a
generate whose arguments pass loads numpy, inside its generator: the
symbolic subcommands, every verify and probe, and a refused generate start
without it.  generate writes CSV; every other subcommand prints through one
helper, as text or, under --json, in a stable schema.  Exit codes: 0
success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from . import bounds, poles, repring
from .assumptions import RepType, TypeAssumption
from .errors import DomainError, ParameterError


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _emit(args, payload, *lines: str) -> int:
    """Print the JSON payload under --json, else the text lines."""
    if args.json:
        import json  # here, so that text output starts without it

        lines = (json.dumps(payload),)
    _write(("\n".join(lines), "\n"))
    return 0


def _write(chunks, fd: int = 1, path: str | None = None) -> None:
    """Write text chunks to descriptor fd: 1 through sys.stdout, any other, or 1 when
    stdout was closed at start-up (so EBADF), through open(fd); an OSError names path."""
    if fd == 1 and sys.stdout is not None:
        return sys.stdout.writelines(chunks)
    try:
        with open(fd, "w", encoding="utf-8", closefd=False) as out:
            out.writelines(chunks)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _cmd_decompose(args) -> int:
    if args.pair is not None:
        rep = repring.cg_pair(*args.pair)
        title = f"Sym{args.pair[0]} ⊗ Sym{args.pair[1]}"
    elif args.k is not None:
        rep = repring.tensor_power(args.k)
        title = f"pi^⊗{args.k}"
    else:
        atom = repring.parse_atom(args.atom)
        rep = repring.reduce_atom(atom, TypeAssumption(RepType(args.type)))
        title = f"reduce({repring.atom_label(atom)}, {args.type})"
    return _emit(args, rep.to_json(), f"{title} = {repring.rep_label(rep)}")


def _cmd_poles(args) -> int:
    assumption = TypeAssumption(RepType(args.type), args.self_dual, args.omega_order)
    cert = poles.tensor_power_pole(args.k, assumption)
    return _emit(
        args,
        {**cert.to_json(), "k": args.k},
        f"k={args.k} type={assumption.rep_type.value} "
        f"self_dual={assumption.self_dual} omega_order={assumption.omega_order}",
        poles.certificate_render(cert),
        *([f"note: {cert.note}"] if cert.note else []),
        f"pole order at s=1: {cert.total_order}",
    )


def _cmd_bounds(args) -> int:
    if args.side == "pos":
        result = bounds.positive_side(args.pole4, args.pole8)
    elif args.side == "neg":
        result = bounds.negative_side(args.pole6)
    elif args.side == "weak":
        result = bounds.positive_side_weak()
    else:
        result = bounds.non_self_dual(args.phi)
    return _emit(
        args,
        {"side": args.side, **result._asdict()},
        f"constant: {result.constant:.10f}",
        f"optimizer: {result.optimizer:.10f}",
        f"trace: {result.trace}",
    )


def _cmd_generate(args) -> int:
    if args.out == "":
        raise ParameterError("--out needs a path")
    from . import datasets

    if args.kind == "ec":
        a = datasets.CURVE_11A1[0] if args.a is None else args.a
        b = datasets.CURVE_11A1[1] if args.b is None else args.b
        dataset = datasets.ec_ap(a, b, args.x)
    elif args.kind == "tau":
        dataset = datasets.tau_ap(args.x)
    else:
        dataset = datasets.sato_tate_sample(args.n, args.seed)
    fd = 1 if args.out is None else _out_target(args.out)
    if fd is None:
        datasets.write_csv(args.out, dataset)
    else:
        _write(datasets.csv_chunks(dataset), fd, args.out)
    if args.out:
        print(f"wrote {len(dataset.records)} records to {args.out}", file=sys.stderr)
    return 0


def _out_target(path: str) -> int | None:
    """The number of a descriptor open on the file path names, else None: 1
    (stdout), 2 (stderr), or N for a path whose last part reads as N
    (/dev/fd/N, /proc/self/fd/N).  Writing through the descriptor keeps a
    shell's `>>`, which reopening path with mode "w" would truncate."""
    for fd in (1, 2, os.path.basename(path)):
        try:
            if os.path.samestat(os.stat(path), os.fstat(int(fd))):
                return int(fd)
        except (OSError, OverflowError, ValueError):  # no such path or descriptor, or a last part not a number
            pass
    return None


def _cmd_verify(args) -> int:
    from . import datasets, density

    dataset = datasets.read_csv(args.input)
    report = density.verify_theorem(
        dataset.records,
        args.theorem,
        phi=args.phi,
        epsilon=args.eps,
        self_dual=dataset.header.self_dual,
    )
    return _emit(
        args,
        report._asdict(),
        f"{report.theorem}: threshold {report.threshold:+.4f}, eps {report.epsilon}, "
        f"witnesses {report.count}/{report.total} (required {report.required})",
        *(f"  p={p}  value={value:+.6f}" for p, value in report.witnesses),
        "PASS" if report.passed else "FAIL",
    )


def _cmd_probe(args) -> int:
    try:
        s_grid = [float(s) for s in args.s_grid.split(",")]
    except ValueError:
        raise ParameterError(f"--s-grid needs numbers, got {args.s_grid!r}") from None
    from . import datasets, density

    dataset = datasets.read_csv(args.input)
    slope = density.pole_order_probe(dataset.records, args.k, s_grid)
    return _emit(
        args,
        {"k": args.k, "s_grid": s_grid, "slope": slope},
        f"empirical pole order (k={args.k}): {slope:.4f}",
    )


def _add_type_flag(sub) -> None:
    sub.add_argument(
        "--type",
        choices=[t.value for t in RepType],
        default="general",
        help="representation type assumption",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckebound",
        description="Symbolic pole orders and one-sided Hecke eigenvalue bounds",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="tensor/symmetric power decompositions")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--k", type=int, help="decompose the k-th tensor power (1..4)")
    target.add_argument("--pair", type=int, nargs=2, metavar=("A", "B"), help="Sym^A x Sym^B")
    target.add_argument("--atom", type=str, help="reduce one atom, e.g. 'Sym3(pi)*w^-1'")
    _add_type_flag(p)  # reduce_atom reads only the type
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("poles", help="pole order of L(s, pi^(x k)) at s=1")
    p.add_argument("--k", type=int, required=True)
    _add_type_flag(p)
    p.add_argument("--self-dual", dest="self_dual", type=_bool_flag, default=True)
    p.add_argument("--omega-order", dest="omega_order", type=int, default=None)
    p.set_defaults(func=_cmd_poles)

    p = subs.add_parser("bounds", help="derived one-sided constants")
    p.add_argument("--side", choices=["pos", "neg", "nsd", "weak"], default="pos")
    p.add_argument("--pole4", type=int, default=bounds.POLE4)
    p.add_argument("--pole8", type=int, default=bounds.POLE8)
    p.add_argument("--pole6", type=int, default=bounds.POLE6)
    p.add_argument("--phi", type=float, default=0.0)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("generate", help="emit an eigenvalue dataset as CSV")
    p.add_argument("--kind", choices=["ec", "tau", "st"], required=True)
    p.add_argument("--a", type=int, default=None)  # None means 11a1 (datasets.CURVE_11A1)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--x", type=int, default=10_000)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("verify", help="one-sided bound verification on a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", choices=list(bounds.THEOREMS), required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=bounds.DEFAULT_EPSILON)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("probe", help="empirical pole-order slope estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s-grid", dest="s_grid", default="1.5,1.3,1.2,1.1")
    p.set_defaults(func=_cmd_probe)

    for name in ("decompose", "poles", "bounds", "verify", "probe"):  # the subcommands that print through _emit
        subs.choices[name].add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # started with fd 2 closed: print(file=None) and argparse would write to stdout
        sys.stderr = io.StringIO()  # not os.devnull, which would take fd 1 were stdout closed too
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
