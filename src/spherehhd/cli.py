"""Command-line interface: decomposition runs, experiments, and verification.

Subcommands
-----------
decompose     read tangential-component coefficient files, write potentials
differentiate generate seeded random potentials and their tangential field
bench         differentiate-then-decompose errors and timings over a list of
              degrees (CSV; ``--json PATH`` also writes medians, page faults
              and peak RSS)
cond          condition numbers and bounds over (n, m) grids (CSV)
verify        run the verification suites, one line per suite naming its worst
              item; tolerances are fixed, ``--level`` picks the sizes

All CSV goes to stdout with a fixed header.  ``decompose_seconds`` and
``differentiate_seconds`` are the ``perf_counter`` wall times of one
``decompose`` and one ``differentiate`` call, after one discarded warm-up
round trip, and a mean row closes each run.  Exit codes: 0 success,
1 validation failure, 2 numerical-suite failure.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from . import conditioning as cond
from .solver import decompose, differentiate
from .spectra import (
    TangentField,
    random_potentials,
    read_spectrum,
    relative_l2_error,
    write_spectrum,
)
from .verify import run_verification

__all__ = ["main"]


def _checked(parse, ok, rule):
    """An argparse ``type``: ``parse`` the text, then reject a value that fails ``ok``."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return convert


def _int_list(text):
    values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    if not values:
        raise ValueError("expected a comma-separated integer list")
    return values


def cmd_decompose(args):
    theta = read_spectrum(args.input_theta)
    phi = read_spectrum(args.input_phi)
    if theta.n != phi.n:
        raise ValueError(f"component degrees differ: {theta.n} vs {phi.n}")
    result = decompose(TangentField(theta, phi))
    write_spectrum(result.spheroidal, f"{args.out_prefix}_spheroidal.csv")
    write_spectrum(result.toroidal, f"{args.out_prefix}_toroidal.csv")
    with open(f"{args.out_prefix}_residuals.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("m,residual,out_of_range_norm\n")
        for m in sorted(set(result.residual_by_order) | set(result.out_of_range_by_order)):
            res = result.residual_by_order.get(m, 0.0)
            oor = result.out_of_range_by_order.get(m, 0.0)
            fh.write(f"{m},{res:.16e},{oor:.16e}\n")
    print(
        f"decomposed n={theta.n}: total residual {result.total_residual():.3e}, "
        f"out-of-range norm {result.total_out_of_range():.3e}"
    )
    return 0


def cmd_differentiate(args):
    s, t = random_potentials(args.n, args.seed)
    field = differentiate(s, t)
    write_spectrum(s, f"{args.out_prefix}_s.csv")
    write_spectrum(t, f"{args.out_prefix}_t.csv")
    write_spectrum(field.theta, f"{args.out_prefix}_theta.csv")
    write_spectrum(field.phi, f"{args.out_prefix}_phi.csv")
    print(f"differentiated random potentials n={args.n} seed={args.seed}")
    return 0


def _timed_roundtrip_rows(n, seed, iters):
    """(iter, rel_error, decompose_seconds, differentiate_seconds, decompose_minflt,
    differentiate_minflt) per seeded round trip: each call's wall time and minor page faults."""
    rows = []
    s, t = random_potentials(n, seed)
    decompose(differentiate(s, t))  # warm-up, discarded
    for it in range(1, iters + 1):
        s, t = random_potentials(n, seed + it)
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        field = differentiate(s, t)
        t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = decompose(field)
        t2, f2 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        err = max(
            relative_l2_error(result.spheroidal, s),
            relative_l2_error(result.toroidal, t),
        )
        rows.append((it, err, t2 - t1, t1 - t0, f2 - f1, f1 - f0))
    return rows


# one round trip in a fresh interpreter, which prints its peak RSS in MiB: the
# high-water mark of its own memory (VmHWM, in KiB), since ru_maxrss keeps the
# RSS the child had when it was forked from this process
_PEAK_RSS_CHILD = (
    "import sys; from spherehhd.cli import _timed_roundtrip_rows; "
    "_timed_roundtrip_rows(int(sys.argv[1]), int(sys.argv[2]), 1); "
    "print(next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM')) / 1024)"
)


def _peak_rss_mib(n, seed):
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, str(n), str(seed)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def _machine():
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def cmd_bench(args):
    # the report file opens first, so a bad path fails before any output
    with (open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext()) as fh:
        print("n,iter,rel_error,decompose_seconds,differentiate_seconds")
        runs = []
        for n in args.n_list:
            rows = _timed_roundtrip_rows(n, args.seed, args.iters)
            means = [sum(r[col] for r in rows) / len(rows) for col in (1, 2, 3)]
            for it, err, dec, diff in [r[:4] for r in rows] + [("mean", *means)]:
                print(f"{n},{it},{err:.16e},{dec:.6f},{diff:.6f}")
            runs.append({"n": n, "decompose_s": statistics.median(r[2] for r in rows),
                         "differentiate_s": statistics.median(r[3] for r in rows),
                         "decompose_minflt": round(statistics.median(r[4] for r in rows)),
                         "differentiate_minflt": round(statistics.median(r[5] for r in rows)),
                         "roundtrip_rel_err": max(r[1] for r in rows),
                         "peak_rss_mib": _peak_rss_mib(n, args.seed) if fh else None})
        if fh:
            json.dump({"machine": _machine(), "iters": args.iters, "seed": args.seed, "runs": runs},
                      fh, indent=1)
    return 0


def cmd_cond(args):
    # pairs with m >= n are skipped, so one list of orders serves every degree
    pairs = [(n, m) for n in args.n_list for m in args.m_list if m <= n - 1]
    if not pairs:
        raise ValueError("no pair with 1 <= m <= n - 1 in the grid")
    print("n,m,kappa_R_dense,kappa_M_dense,theorem_bound,qi_sigma_max,qi_sigma_min,conjecture")
    for n, m in pairs:
        rep = cond.kappa_numeric(n, m)
        qi_min = "" if rep.sigma_min_bound is None else f"{rep.sigma_min_bound:.16e}"
        conj = f"{cond.inverse_norm_conjecture(n):.16e}" if m == 1 else ""
        print(f"{n},{m},{rep.kappa_R:.16e},{rep.kappa_M:.16e},{rep.bound:.16e},"
              f"{rep.sigma_max_bound:.16e},{qi_min},{conj}")
    return 0


def cmd_verify(args):
    t0 = time.monotonic()
    results = run_verification(args.level)
    failed = 0
    for name, ok, detail in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} suites passed in {time.monotonic() - t0:.1f}s")
    return 0 if failed == 0 else 2


class _Parser(argparse.ArgumentParser):
    # a usage error takes the path of any other validation error in main: exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser():
    """One subparser per subcommand, holding its handler and only the flags it reads."""
    n = dict(type=_checked(int, lambda v: v >= 2, "must be >= 2"), required=True,
             help="truncation degree")
    seed = dict(type=int, default=0, help="random seed")
    out_prefix = dict(required=True, help="prefix for output files")
    limit = cond.DENSE_ORACLE_LIMIT
    commands = {
        "decompose": (cmd_decompose, {
            "--input-theta": dict(required=True, help="basis-Z coefficient file, theta component"),
            "--input-phi": dict(required=True, help="basis-Z coefficient file, phi component"),
            "--out-prefix": out_prefix}),
        "differentiate": (cmd_differentiate, {"--n": n, "--seed": seed, "--out-prefix": out_prefix}),
        "bench": (cmd_bench, {
            "--n-list": dict(type=_checked(_int_list, lambda ns: min(ns) >= 2, "entries must be >= 2"),
                             default=(256, 512, 1024), help="comma-separated truncation degrees"),
            "--seed": seed, "--json": dict(help="also write the results to this file"),
            "--iters": dict(type=_checked(int, lambda v: v >= 1, "must be >= 1"), default=10,
                            help="timed iterations after warm-up")}),
        "cond": (cmd_cond, {
            "--n-list": dict(type=_checked(_int_list, lambda ns: 2 <= min(ns) and max(ns) <= limit,
                                           f"entries must be >= 2 and are limited to n <= {limit}"),
                             default=(8, 16, 32, 64), help="comma-separated truncation degrees"),
            "--m-list": dict(type=_checked(_int_list, lambda ms: min(ms) >= 1, "entries must be >= 1"),
                             default=(1, 2, 3, 5, 8), help="comma-separated orders")}),
        "verify": (cmd_verify, {
            "--level": dict(default="quick", choices=("quick", "full"), help="verification depth")}),
    }
    parser = _Parser(prog="spherehhd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in commands.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None):
    prog = "spherehhd"
    try:
        args = _build_parser().parse_args(argv)
        prog = f"spherehhd {args.command}"
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
