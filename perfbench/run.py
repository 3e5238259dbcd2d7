"""spherehhd benchmark: one workload, one process, one thread, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decompose-large --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src`` directory; the run fails
without a result when it is missing.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (see
README.md).  Human-readable lines come first; the last line of standard
output is the JSON result.
"""

import os

# one thread: the package's default single-threaded path, BLAS pinned too
os.environ.pop("HHD_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
POOL_PASSES = 5  # differentiate passes over a pre-generated pool

END_TO_END = {  # name -> unit
    "decompose_s": "s",
    "differentiate_s": "s",
    "roundtrip_rel_err": "rel",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
UNDER_LOAD = {  # reported by traced runs, from their untraced half
    "wall.decompose_s": "s",
    "wall.decompose_s_p90": "s",
    "wall.fields_per_s": "1/s",
}

# per timed iteration; counts must repeat exactly
COUNTS = [
    "recurrences.calls", "recurrences.values",
    "operators.build.calls", "operators.convert.calls", "operators.matvec.calls",
    "solver.factor.calls", "solver.rotations", "solver.cache.hits", "solver.cache.misses",
    "solver.solve.calls", "spectra.slice.calls",
]
TIMES = [
    "recurrences.s", "operators.build.self_s", "operators.convert.self_s",
    "operators.matvec.s", "solver.factor.self_s", "solver.solve.s",
    "solver.decompose.self_s", "solver.differentiate.self_s", "spectra.slice.s",
    "spectra.read.s", "spectra.write.s", "cli.self_s",
]
BYTES = ["spectra.bytes_read", "spectra.bytes_written"]
SETUP = [  # one traced set-up: what filling caches costs
    "solver.factor.calls", "solver.rotations", "solver.cache.misses",
    "solver.factor.self_s", "operators.build.self_s",
]


def per_layer_units():
    units = dict(UNDER_LOAD)
    units.update({name: "count" for name in COUNTS})
    units.update({name: "s" for name in TIMES})
    units.update({name: "B" for name in BYTES})
    units["trace_overhead_frac"] = "frac"
    for name in SETUP:
        units["setup." + name] = "s" if name.endswith("_s") else "count"
    return units


class DeterminismError(RuntimeError):
    pass


def _purge_package():
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


# The machine the benchmark was written on (2 shared vCPUs) switches, for
# seconds to minutes at a time, between a fast state and a slow one that
# stretches interpreter-bound code ~1.75x and BLAS-bound code ~1.1x; the
# workloads, which mix both, stretch 1.3-1.6x.  A fixed reference kernel
# made of both kinds in equal parts (~1.4x) is timed next to the calls, and
# each bounded timing is scaled by REF_NOMINAL_S / (reference time around
# the call).
REF_NOMINAL_S = 1.9e-3  # reference_time() in the fast state there
REF_REPS = 5
_REF_SMALL = np.random.default_rng(0).standard_normal((48, 48))
_REF_LARGE = np.random.default_rng(1).standard_normal((256, 256))
_REF_VALUES = [float(i) for i in range(2000)]


def _reference_kernel():
    """An interpreter loop with small LAPACK calls, then two BLAS matrix products."""
    acc = 0.0
    for x in _REF_VALUES:
        acc += x * 0.5
    for _ in range(10):
        q, r = np.linalg.qr(_REF_SMALL)
        acc += float((q @ r).sum())
    for _ in range(2):
        acc += float((_REF_LARGE @ _REF_LARGE)[0, 0])
    return acc


def reference_time():
    """Fastest of ``REF_REPS`` runs of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(REF_REPS):
        t0 = perf_counter()
        _reference_kernel()
        best = min(best, perf_counter() - t0)
    return best


def calibrated(seconds, ref):
    return seconds * REF_NOMINAL_S / ref


def set_up(wl, inputs, workdir, k, tracer=None):
    """Set-up ``k``: fresh import of the package plus the workload's warm-up call(s)."""
    _purge_package()
    importlib.invalidate_caches()
    t0 = perf_counter()
    for name in wl.modules:
        importlib.import_module(name)
    import_s = perf_counter() - t0
    sh = sys.modules[PACKAGE]
    if tracer is not None:
        tracer.install()
    state, warm_s, outcome = wl.warm_up(sh, inputs, workdir, k)
    return sh, state, import_s + warm_s, outcome


def timed_loop(wl, sh, state, seconds, outcomes, on_iteration=None):
    """Closed loop: the next iteration starts when the last one ends.

    Runs at least one pass over the workload's pool, then until ``seconds``
    of wall time have gone by.  A failing iteration is counted, never
    retried.  The reference kernel is timed between iterations; each
    outcome's ``ref`` is the mean of the times before and after it.
    """
    t_end = perf_counter() + seconds
    done = 0
    before = reference_time()
    while done < wl.pool or perf_counter() < t_end:
        outcome = wl.iteration(sh, state, done)
        after = reference_time()
        outcome.ref = (before + after) / 2
        before = after
        outcomes.append(outcome)
        if on_iteration is not None:
            on_iteration()
        done += 1


def under_load(outcomes):
    """Wall-clock median and 90th percentile of the "decompose" call, and fields per second.

    These are not calibrated and follow the machine's state, so they are
    recorded without a bound.
    """
    dec = [o.seconds["decompose"] for o in outcomes]
    return {
        "wall.decompose_s": statistics.median(dec),
        "wall.decompose_s_p90": float(np.percentile(dec, 90)),
        "wall.fields_per_s": len(outcomes) / sum(sum(o.seconds.values()) for o in outcomes),
    }


def _calibrated_median(outcomes, call):
    return statistics.median(calibrated(o.seconds[call], o.ref) for o in outcomes)


def _median_err(wl, warm, timed):
    """Median over the set-ups' inputs and the pool's entries.

    Each input's error is deterministic for a seed; the first ``pool`` timed
    iterations cover the pool once.
    """
    err = statistics.median(o.rel_err for o in warm + timed[: wl.pool])
    return err if math.isfinite(err) else sys.float_info.max


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(wl, inputs, workdir, seconds):
    setups, warm = [], []
    before = reference_time()
    for k in range(wl.setups):
        sh, state, setup_s, outcome = set_up(wl, inputs, workdir, k)
        after = reference_time()
        outcome.ref = (before + after) / 2
        before = after
        setups.append(calibrated(setup_s, outcome.ref))
        warm.append(outcome)
    outcomes, pool_passes = [], []
    if hasattr(wl, "prepare_pool"):
        # differentiate the pool between fifths of the timed loop, so the calls span the run
        for _ in range(POOL_PASSES):
            before = reference_time()
            pass_seconds = wl.prepare_pool(sh)
            ref = (before + reference_time()) / 2
            pool_passes += [Outcome({"differentiate": s}, True, 0.0, ref=ref) for s in pass_seconds]
            timed_loop(wl, sh, state, seconds / POOL_PASSES, outcomes)
    else:
        timed_loop(wl, sh, state, seconds, outcomes)
    # Warm-up calls that are the timed calls count too.
    dec = [o for o in warm + outcomes if "decompose" in o.seconds]
    diff = pool_passes or [o for o in warm + outcomes if "differentiate" in o.seconds]
    metrics = {
        "decompose_s": _calibrated_median(dec, "decompose"),
        "differentiate_s": _calibrated_median(diff, "differentiate"),
        "roundtrip_rel_err": _median_err(wl, warm, outcomes),
        "peak_rss_mib": _peak_rss_mib(),
        "setup_s": statistics.median(setups),
    }
    refs = [o.ref for o in warm + outcomes]
    notes = [f"set-ups (calibrated): {', '.join(f'{s:.4f}' for s in setups)} s",
             f"timed iterations: {len(outcomes)}; samples: {len(dec)} decompose, "
             f"{len(diff)} differentiate",
             f"reference kernel: min {min(refs):.6f} s, median {statistics.median(refs):.6f} s, "
             f"max {max(refs):.6f} s",
             f"wall clock: fastest decompose {min(o.seconds['decompose'] for o in dec)!r} s, "
             f"fastest differentiate {min(o.seconds['differentiate'] for o in diff)!r} s"]
    notes += [f"under load: {name} {value!r}" for name, value in under_load(outcomes).items()]
    return sh, warm + outcomes, metrics, notes


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_across_runs(wl_name, seed, counts):
    """Counts of a traced run must equal those of an earlier run with the same seed."""
    path = STATE / f"{wl_name}-seed{seed}-{_source_digest()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            diff = {k: (earlier.get(k), counts.get(k))
                    for k in sorted(set(earlier) | set(counts)) if earlier.get(k) != counts.get(k)}
            raise DeterminismError(f"counts differ from the earlier run with seed {seed}: {diff}")
    else:
        STATE.mkdir(exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))


def traced_run(wl, inputs, workdir, seconds, seed):
    tracer = Tracer()
    sh, state, _, warm = set_up(wl, inputs, workdir, 0, tracer)
    setup_snap = tracer.snapshot()
    tracer.uninstall()
    if hasattr(wl, "prepare_pool"):
        wl.prepare_pool(sh)

    plain = []
    timed_loop(wl, sh, state, seconds / 2, plain)

    tracer = Tracer()
    traced, per_iteration = [], []
    last = {}

    def record_counts():
        snap = tracer.snapshot()
        per_iteration.append({k: snap.get(k, 0) - last.get(k, 0) for k in COUNTS})
        last.update(snap)

    tracer.install()
    try:
        timed_loop(wl, sh, state, seconds / 2, traced, record_counts)
    finally:
        tracer.uninstall()
    for i, counts in enumerate(per_iteration[1:], start=1):
        if counts != per_iteration[0]:
            raise DeterminismError(
                f"traced iteration {i} counts {counts} != iteration 0 counts {per_iteration[0]}")
    setup_counts = {"setup." + k: setup_snap.get(k, 0) for k in SETUP if not k.endswith("_s")}
    check_counts_across_runs(wl.name, seed, {**per_iteration[0], **setup_counts})

    snap = tracer.snapshot()
    k = len(traced)
    metrics = under_load(plain)
    metrics.update(per_iteration[0])
    metrics.update({name: snap[name] / k for name in TIMES})
    metrics.update({name: snap.get(name, 0) / k for name in BYTES})
    metrics["trace_overhead_frac"] = (_calibrated_median(traced, "decompose")
                                      / _calibrated_median(plain, "decompose") - 1.0)
    metrics.update(setup_counts)
    metrics.update({"setup." + k: setup_snap[k] for k in SETUP if k.endswith("_s")})

    notes = [f"traced iterations: {k}, untraced iterations: {len(plain)}",
             "layers wrapped: " + ", ".join(f"{layer} ({n})" for layer, n in tracer.wrapped.items())]
    notes += _breakdown(tracer, traced)
    return sh, [warm] + plain + traced, metrics, notes


def _breakdown(tracer, traced):
    """Self time per layer under the outermost timed call, per traced iteration."""
    root = "cli" if tracer.counts["cli.calls"] else "solver.decompose"
    k = len(traced)
    parts = {layer: s / k for (r, layer), s in tracer.own_by_root.items() if r == root}
    total = sum(parts.values())
    wall = tracer.incl[root] / k
    lines = [f"self time under {root} per iteration: {total:.6f} s of {wall:.6f} s traced"]
    for layer, s in sorted(parts.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<24} {s:.6f} s  {s / total:6.1%}")
    if root == "solver.decompose":
        heavy = parts.get("solver.factor", 0.0) + tracer.incl["solver.solve"] / k
        lines.append(f"factor self + solve inclusive: {heavy / wall:.1%} of traced decompose")
    return lines


def machine_facts():
    facts = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None,
             "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                facts["cpu_model"])
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]()
    inputs = wl.make_inputs(args.seed)
    rss_before_package = _peak_rss_mib()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            if args.trace:
                sh, outcomes, metrics, notes = traced_run(wl, inputs, Path(tmp), args.seconds, args.seed)
                units = per_layer_units()
            else:
                sh, outcomes, metrics, notes = untraced_run(wl, inputs, Path(tmp), args.seconds)
                units = END_TO_END
    except DeterminismError as exc:
        print(f"error: determinism check failed: {exc}", file=sys.stderr)
        return 3
    if not Path(sh.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: measured {sh.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        if not o.ok:
            print(f"FAILED: {o.detail}", file=sys.stderr)
    facts = {**machine_facts(), "workload": wl.name, "n": wl.n, "seed": args.seed,
             "trace": args.trace, "peak_rss_before_package_mib": rss_before_package,
             **wl.working_set(sh)}
    print(f"workload {wl.name}: n={wl.n}, seed={args.seed}, trace={args.trace}")
    for line in notes:
        print(line)
    print(f"failed_frac {failed / len(outcomes):.6g} ({failed} of {len(outcomes)})")
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]!r} {unit}")
    print(json.dumps({"facts": facts}))
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
