"""The public API's argument contract, stated once.

Each row is one argument of a public callable: its qualified name, the argument, and the call with that
argument set to a value, every other argument valid.  A row is crossed with the bad values of its
argument's kind, and every cell must raise a ``ValueError`` whose whole message is pinned here.  The
message starts with the qualified name, ``{name}: ``.  Two exceptions are stated where they occur:
``chol_d``, ``chol_e`` and ``chol_f`` share one checked pass, named ``chol_d/e/f``, and a grid that does
not resolve a degree is refused by ``GridSpec.check_resolves``.  A new input case is one row or value here.
"""

import os

import numpy as np
import pytest

from spherehhd import conditioning, operators, pointwise, recurrences, solver, spectra
from spherehhd.conditioning import (
    build_CD,
    build_R,
    inverse_norm_conjecture,
    inverse_norm_frobenius_bound,
    kappa_bound,
    kappa_numeric,
    qi_singular_bounds,
)
from spherehhd.operators import build_A, build_B, shuffle_permutation
from spherehhd.pointwise import (
    GridSpec,
    analyze_z,
    eval_gradY,
    eval_Y,
    eval_Z,
    legendre_table,
    synthesize,
    synthesize_from_potentials,
)
from spherehhd.solver import cscy_to_z, decompose, differentiate, solve_order, z_to_cscy
from spherehhd.spectra import (
    ScalarSpectrum,
    TangentField,
    ZSpectrum,
    random_potentials,
    random_spectrum,
    read_spectrum,
    relative_l2_error,
    write_spectrum,
)
from spherehhd.verify import run_verification

HUGE = 10**400  # past int64 and the float range
GRID = GridSpec.for_degree(4)  # 5 x 12 nodes
SAMPLES = np.zeros((GRID.n_theta, GRID.n_phi))
CELLS = []  # (id, qualified name, call, bad value, message)
TAKEN = []  # (id, call, a valid value as a numpy integer)


def integer(name, arg, call, *refused, least=None, good=None, index=True):
    """An integer argument: every value that is no integer (a whole float neither), one past int64 if it is an
    ``index`` (a seed is not), and each ``(value, reason)`` of ``refused``; with ``least`` given, ``least - 1``
    in the floor wording too.  ``good`` (default ``least``), a numpy integer, is taken."""
    TAKEN.append((f"{name}-{arg}", call, np.int64(least if good is None else good)))
    if least is not None:
        refused += ((least - 1, f"{arg} must be >= {least}, got {least - 1}"),)
    bad = {"nan": np.nan, "inf": np.inf, "bool": True, "float": 2.5, "whole": 4.0, "string": "4", "none": None,
           "complex": 2j, "array": np.array([2, 3]), "ragged": [[1, 2], [3]]}
    cells = [(key, value, f"{arg} must be an integer, got {value!r}") for key, value in bad.items()]
    if index:
        cells.append(("huge", HUGE, f"{arg} must fit in an int64, got an integer of {HUGE.bit_length()} bits"))
    cells += [(value, value, reason) for value, reason in refused]
    CELLS.extend((f"{name}-{arg}-{key}", name, call, value, f"{name}: {why}") for key, value, why in cells)


def entries(name, arg, call, outside, reason):
    """A degree or order of :mod:`.recurrences`, which may be an array: an entry that is no finite integer is
    named, and ``outside`` is refused for ``reason``.  The Cholesky entries refuse as ``chol_d/e/f``."""
    what = {"l": "degree l", "m": "order m"}[arg]
    bad = {"nan": (np.nan, "nan"), "inf": (np.inf, "inf"), "bool": (True, "True"), "float": (2.5, "2.5"),
           "string": ("4", "'4'"), "none": (None, "None"), "complex": (2j, "2j"), "huge": (HUGE, str(HUGE)),
           "array": (np.array([3, 2.5]), "2.5"), "ragged": ([[3, 4], [5]], "[3, 4]")}
    cells = [(key, value, f"{what} must be a finite integer, got {shown}") for key, (value, shown) in bad.items()]
    prefix = "chol_d/e/f" if name.startswith("chol_") else name
    for key, value, why in cells + [(outside, outside, reason)]:
        CELLS.append((f"{name}-{arg}-{key}", name, call, value, f"{prefix}: {why}"))


def array(name, arg, call, good, *misfits, label=None, nonfinite=None):
    """An array argument, ``good`` in ``call``: complex values, strings, ``None`` and a ragged sequence, refused
    under ``label`` (default ``name``); a NaN or an inf first entry, refused for ``nonfinite`` (None where a
    spectrum stores it as given); and each ``(array of a wrong shape, reason)`` of ``misfits``."""
    label = label or name
    good = np.asarray(good, dtype=np.float64)
    cells = [("complex", good + 0j, f"{label}: values must be real, got complex input"),
             ("string", np.full(good.shape, "x"), f"{label}: values must be real numbers, got dtype <U1"),
             ("none", np.full(good.shape, None), f"{label}: values must be real numbers, got dtype object"),
             ("ragged", [[0.0, 0.0], [0.0]], f"{label}: values must be real numbers, got a ragged sequence")]
    for key, value in (("nan", np.nan), ("inf", np.inf)) if nonfinite else ():
        bad = good.copy()
        bad.flat[0] = value
        cells.append((key, bad, f"{name}: {nonfinite}"))
    cells += [(f"shape{wrong.shape}", wrong, f"{name}: {reason}") for wrong, reason in misfits]
    CELLS.extend((f"{name}-{arg}-{key}", name, call, value, message) for key, value, message in cells)


def objects(name, arg, call, refused, *cells):
    """An argument that takes an object: ``None`` is refused for ``refused``, as is each ``(key, value, reason)``
    of ``cells`` (a wrong class, a mismatched degree or basis) for its reason.  A grid that does not resolve
    the degree is refused by the grid's own check, so its reason is the whole message."""
    for key, value, why in [("none", None, refused)] + list(cells):
        message = why if why.startswith("GridSpec.check_resolves: ") else f"{name}: {why}"
        CELLS.append((f"{name}-{arg}-{key}", name, call, value, message))


def order_of_truncation(name, call):
    """The ``n`` and ``m`` of a callable that takes an order ``1 <= m <= n - 1`` of a truncation, ``call(n, m)``."""
    integer(name, "n", lambda v: call(v, 1), (1, "need 1 <= m <= n-1, got m=1, n=1"), good=8)
    integer(name, "m", lambda v: call(8, v), *((m, f"need 1 <= m <= n-1, got m={m}, n=8") for m in (-1, 0, 8, 50)),
            good=1)


# spectra: the constructors, the draws of random coefficients, and the accessors of a spectrum
integer("ScalarSpectrum", "n", ScalarSpectrum, least=0)
integer("ZSpectrum", "n", ZSpectrum, least=0)
integer("TangentField.zeros", "n", TangentField.zeros, least=0)
integer("random_spectrum", "n", lambda v: random_spectrum(v, 1), least=0)
integer("random_spectrum", "seed", lambda v: random_spectrum(2, v), least=0, index=False)
integer("random_potentials", "n", lambda v: random_potentials(v, 1), least=1)
integer("random_potentials", "seed", lambda v: random_potentials(3, v), least=0, index=False)
array("ScalarSpectrum", "data", lambda v: ScalarSpectrum(1, v), np.zeros(4),
      (np.zeros(3), "expected flat data of length 4, got (3,)"))
array("ZSpectrum", "data", lambda v: ZSpectrum(1, v), np.zeros(7), (np.zeros(8), "expected flat data of length 7, got (8,)"))
integer("ScalarSpectrum.order_slice", "m", lambda v: ScalarSpectrum(3).order_slice(v),
        (4, "order 4 outside basis Y with n=3"), good=1)
integer("ZSpectrum.set_order_slice", "m", lambda v: ZSpectrum(3).set_order_slice(v, [0.0]),
        (5, "order 5 outside basis Z with n=3"), good=4)
array("ScalarSpectrum.set_order_slice", "values", lambda v: ScalarSpectrum(3).set_order_slice(1, v), np.zeros(3),
      (np.zeros(2), "order 1: expected 3 values, got 2"), (np.zeros((1, 3)), "order 1: expected 3 values, got shape (1, 3)"))
for method, call in (("flat_index", lambda l, m: ScalarSpectrum(3).flat_index(l, m)),
                     ("__getitem__", lambda l, m: ScalarSpectrum(3)[l, m]),
                     ("__setitem__", lambda l, m: ScalarSpectrum(3).__setitem__((l, m), 0.0))):
    integer(f"ScalarSpectrum.{method}", "l", lambda v, call=call: call(v, 1),
            (0, "(l=0, m=1) outside the basis-Y index set for n=3"), good=2)
    integer(f"ScalarSpectrum.{method}", "m", lambda v, call=call: call(2, v),
            (3, "(l=2, m=3) outside the basis-Y index set for n=3"), good=1)
array("ScalarSpectrum.__setitem__", "value", lambda v: ScalarSpectrum(3).__setitem__((1, 1), v), 0.0,
      (np.zeros(2), "expected one value, got shape (2,)"))
for arg, call in (("theta", lambda v: TangentField(v, ZSpectrum(3))), ("phi", lambda v: TangentField(ZSpectrum(3), v))):
    objects("TangentField", arg, call, "components must be basis-Z spectra (ZSpectrum)",
            ("class", ScalarSpectrum(3), "components must be basis-Z spectra (ZSpectrum)"),
            ("degree", ZSpectrum(4), "theta and phi components must share one truncation degree"))
for arg, call in (("a", lambda v: relative_l2_error(v, ScalarSpectrum(3))),
                  ("b", lambda v: relative_l2_error(ScalarSpectrum(3), v))):
    objects("relative_l2_error", arg, call, "arguments must be spectra (ScalarSpectrum or ZSpectrum)",
            ("class", TangentField.zeros(3), "arguments must be spectra (ScalarSpectrum or ZSpectrum)"),
            ("degree", ScalarSpectrum(4), "spectra must share basis and degree"),
            ("basis", ZSpectrum(3), "spectra must share basis and degree"))
objects("write_spectrum", "spectrum", lambda v: write_spectrum(v, os.devnull),
        "the spectrum must be a ScalarSpectrum or ZSpectrum",
        ("class", TangentField.zeros(2), "the spectrum must be a ScalarSpectrum or ZSpectrum"))
for name, call in (("write_spectrum", lambda v: write_spectrum(ScalarSpectrum(2), v)), ("read_spectrum", read_spectrum)):
    objects(name, "path", call, "path must be a str, bytes or os.PathLike, got None",
            ("class", 2.5, "path must be a str, bytes or os.PathLike, got 2.5"))

# operators
integer("build_A", "n", lambda v: build_A(v, 0), (1, "need n >= 2 at m = 0"), good=2)
integer("build_A", "m", lambda v: build_A(8, v), *((m, f"need 1 <= m <= n-1, got m={m}, n=8") for m in (8, 50)), least=0)
order_of_truncation("build_B", build_B)
integer("shuffle_permutation", "size", shuffle_permutation, least=0)

# solver
order_of_truncation("solve_order", lambda n, m: solve_order(n, m, np.zeros(16)))
array("solve_order", "rhs", lambda v: solve_order(8, 1, v), np.zeros((16, 2)),
      (np.zeros(15), "rhs must have 16 rows, got shape (15,)"), (np.zeros((16, 0)), "rhs must have at least one column"),
      nonfinite="rhs: non-finite value in row 0")
for name, convert, arg, length in (("z_to_cscy", z_to_cscy, "z", 3), ("cscy_to_z", cscy_to_z, "w", 2)):
    integer(name, "m", lambda v, convert=convert, length=length: convert(np.zeros(length), v, 2),
            (4, "order 4 outside basis Z with n=2"), good=1)
    integer(name, "n", lambda v, convert=convert, length=length: convert(np.zeros(length), 1, v),
            (-1, "order 1 outside basis Z with n=-1"), good=2)
    array(name, arg, lambda v, convert=convert: convert(v, 1, 2), np.zeros(length),
          (np.zeros(length + 2), f"expected length {length} at m=1, got ({length + 2},)"),
          nonfinite=f"{arg}: non-finite value in row 0")
for arg, call in (("s", lambda v: differentiate(v, ScalarSpectrum(3))), ("t", lambda v: differentiate(ScalarSpectrum(3), v))):
    objects("differentiate", arg, call, "potentials must be basis-Y spectra (ScalarSpectrum)",
            ("class", ZSpectrum(3), "potentials must be basis-Y spectra (ScalarSpectrum)"),
            ("degree", ScalarSpectrum(4), "potentials must share a degree"))
objects("differentiate", "s=t", lambda v: differentiate(v, v), "potentials must be basis-Y spectra (ScalarSpectrum)",
        ("degree", ScalarSpectrum(0), "need potential degree >= 1"))
objects("decompose", "field", decompose, "the field must be a TangentField",
        ("class", ScalarSpectrum(5), "the field must be a TangentField"),
        ("degree", TangentField.zeros(1), "need truncation degree n >= 2"))

# conditioning
for name, fn in (("build_CD", build_CD), ("kappa_numeric", kappa_numeric), ("kappa_bound", kappa_bound)):
    order_of_truncation(name, fn)
for name, fn in (("build_R", build_R), ("qi_singular_bounds", qi_singular_bounds)):
    integer(name, "n", lambda v, fn=fn: fn(v, 1), least=1)
    integer(name, "m", lambda v, fn=fn: fn(3, v), least=1)
integer("inverse_norm_frobenius_bound", "n", inverse_norm_frobenius_bound, least=1)
integer("inverse_norm_conjecture", "n", inverse_norm_conjecture, least=2)

# pointwise
integer("GridSpec", "n_theta", lambda v: GridSpec(v, 4), least=1)
integer("GridSpec", "n_phi", lambda v: GridSpec(4, v), least=1)
integer("GridSpec.for_degree", "n", GridSpec.for_degree, least=0)
integer("GridSpec.check_resolves", "n", GRID.check_resolves, least=0)
integer("legendre_table", "m", lambda v: legendre_table(v, 3, 0.2), least=0)
integer("legendre_table", "lmax", lambda v: legendre_table(1, v, 0.2), (0, "need lmax >= m, got lmax=0, m=1"), good=1)
array("legendre_table", "x", lambda v: legendre_table(1, 3, v), [0.2, 0.5], nonfinite="abscissae must lie in [-1, 1]")
for name, evaluate, basis, m in (("eval_Y", eval_Y, "Y", 1), ("eval_Z", eval_Z, "Z", 2), ("eval_gradY", eval_gradY, "Y", 1)):
    top = 3 + (basis == "Z")  # the least order outside the basis at degree 2
    integer(name, "l", lambda v, evaluate=evaluate, m=m: evaluate(v, m, 0.5, 0.5),
            (0, f"(l=0, m={m}) outside basis {basis}"), good=2)
    integer(name, "m", lambda v, evaluate=evaluate: evaluate(2, v, 0.5, 0.5),
            (top, f"(l=2, m={top}) outside basis {basis}"), good=1)
    # theta and phi broadcast together; three entries do not broadcast with two
    array(name, "theta", lambda v, evaluate=evaluate: evaluate(2, 1, v, np.array([0.3, 0.7])), [0.5, 1.0],
          (np.full(3, 0.5), "theta and phi must broadcast together, got shapes (3,) and (2,)"),
          label=f"{name}: theta", nonfinite="theta: non-finite value in row 0")
    array(name, "phi", lambda v, evaluate=evaluate: evaluate(2, 1, np.array([0.5, 1.0]), v), [0.3, 0.7],
          (np.full(3, 0.5), "theta and phi must broadcast together, got shapes (2,) and (3,)"),
          label=f"{name}: phi", nonfinite="phi: non-finite value in row 0")
UNRESOLVED = ("degree", GridSpec(4, 8), "GridSpec.check_resolves: grid (4, 8) under-resolves degree n=4")
objects("synthesize", "field", lambda v: synthesize(v, GRID), "the field must be a TangentField",
        ("class", ZSpectrum(4), "the field must be a TangentField"))
objects("synthesize", "grid", lambda v: synthesize(TangentField.zeros(4), v), "the grid must be a GridSpec",
        ("class", (5, 12), "the grid must be a GridSpec"), UNRESOLVED)
for arg, call in (("s", lambda v: synthesize_from_potentials(v, ScalarSpectrum(3), GRID)),
                  ("t", lambda v: synthesize_from_potentials(ScalarSpectrum(3), v, GRID))):
    objects("synthesize_from_potentials", arg, call, "potentials must be basis-Y spectra (ScalarSpectrum)",
            ("class", TangentField.zeros(4), "potentials must be basis-Y spectra (ScalarSpectrum)"),
            ("degree", ScalarSpectrum(2), "potentials must share a degree"))
objects("synthesize_from_potentials", "grid", lambda v: synthesize_from_potentials(ScalarSpectrum(3), ScalarSpectrum(3), v),
        "the grid must be a GridSpec", ("class", (5, 12), "the grid must be a GridSpec"), UNRESOLVED)
integer("analyze_z", "n", lambda v: analyze_z(SAMPLES, SAMPLES, GRID, v), least=0)
for arg, call in (("vtheta", lambda v: analyze_z(v, SAMPLES, GRID, 4)), ("vphi", lambda v: analyze_z(SAMPLES, v, GRID, 4))):
    array("analyze_z", arg, call, SAMPLES, (np.zeros((5, 11)), "sample arrays do not match the grid"),
          nonfinite=f"{arg}: non-finite value in row 0")
objects("analyze_z", "grid", lambda v: analyze_z(SAMPLES, SAMPLES, v, 4), "the grid must be a GridSpec",
        ("class", (5, 12), "the grid must be a GridSpec"), UNRESOLVED)

# recurrences, where the least degree follows the order
for fn, least, m in ((recurrences.alpha, 1, 1), (recurrences.beta, 0, 1), (recurrences.gamma, 2, 2),
                     (recurrences.delta, 2, 2)):
    entries(fn.__name__, "l", lambda v, fn=fn, m=m: fn(v, m), least - 1, f"degree l must be >= {least}, got {least - 1} at m={m}")
    entries(fn.__name__, "m", lambda v, fn=fn: fn(3, v), -1, "order m must be >= 0, got -1")
for fn in (recurrences.chol_d, recurrences.chol_e, recurrences.chol_f):
    entries(fn.__name__, "l", lambda v, fn=fn: fn(v, 1), 0, "degree l must be >= 1, got 0 at m=1")
    entries(fn.__name__, "m", lambda v, fn=fn: fn(3, v), 0, "order m must be >= 1, got 0")

# verify
objects("run_verification", "level", run_verification, "level must be 'quick' or 'full', got None",
        ("class", 1, "level must be 'quick' or 'full', got 1"),
        ("unknown", "slow", "level must be 'quick' or 'full', got 'slow'"))


@pytest.mark.parametrize("call,bad,message", [cell[2:] for cell in CELLS], ids=[cell[0] for cell in CELLS])
def test_a_bad_argument_is_refused_under_its_callers_name(call, bad, message):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("call,good", [taken[1:] for taken in TAKEN], ids=[taken[0] for taken in TAKEN])
def test_a_valid_numpy_integer_is_taken(call, good):
    call(good)


@pytest.mark.parametrize("seed", [2**63 - 1, 2**64, HUGE])
def test_a_seed_past_int64_still_draws(seed):
    # a seed is no index: PCG64 takes any non-negative int, and random_potentials draws t from seed + 1_000_000
    assert random_spectrum(2, seed).size == 9
    s, t = random_potentials(3, seed)
    assert s.size == t.size == 9 and s[1, 1] != t[1, 1]


def test_every_public_callable_has_a_row():
    # the plain dataclasses of results take what they are given
    public = {name for module in (spectra, operators, solver, conditioning, pointwise, recurrences)
              for name in module.__all__} - {"HHDResult", "ConditionReport"}
    assert public - {cell[1].split(".")[0] for cell in CELLS} == set()
