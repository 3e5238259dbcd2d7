import argparse
import json
from pathlib import Path

import pytest

from spherehhd import read_spectrum, relative_l2_error
from spherehhd.cli import _build_parser, main
from spherehhd.verify import run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_differentiate_then_decompose_files(tmp_path, capsys):
    prefix = str(tmp_path / "fx")
    code, _, _ = run_cli(capsys, "differentiate", "--n", "10", "--seed", "4", "--out-prefix", prefix)
    assert code == 0
    rec_prefix = str(tmp_path / "rec")
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--input-theta", f"{prefix}_theta.csv",
        "--input-phi", f"{prefix}_phi.csv",
        "--out-prefix", rec_prefix,
    )
    assert code == 0
    assert "decomposed n=10" in out
    s = read_spectrum(f"{prefix}_s.csv")
    t = read_spectrum(f"{prefix}_t.csv")
    s_rec = read_spectrum(f"{rec_prefix}_spheroidal.csv")
    t_rec = read_spectrum(f"{rec_prefix}_toroidal.csv")
    assert relative_l2_error(s_rec, s) <= 1e-12
    assert relative_l2_error(t_rec, t) <= 1e-12
    residuals = (tmp_path / "rec_residuals.csv").read_text().splitlines()
    assert residuals[0] == "m,residual,out_of_range_norm"
    assert len(residuals) == 1 + 10 + 2  # orders 0..n+1


def test_decompose_zero_field_files(tmp_path, capsys):
    import spherehhd as sh

    for name in ("th", "ph"):
        sh.write_spectrum(sh.ZSpectrum(5), tmp_path / f"{name}.csv")
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--input-theta", str(tmp_path / "th.csv"),
        "--input-phi", str(tmp_path / "ph.csv"),
        "--out-prefix", str(tmp_path / "zero"),
    )
    assert code == 0
    s_rec = read_spectrum(tmp_path / "zero_spheroidal.csv")
    assert s_rec.norm() == 0.0
    for line in (tmp_path / "zero_residuals.csv").read_text().splitlines()[1:]:
        _, res, oor = line.split(",")
        assert float(res) == 0.0 and float(oor) == 0.0


def test_decompose_mismatched_degrees_fails(tmp_path, capsys):
    import spherehhd as sh

    sh.write_spectrum(sh.ZSpectrum(5), tmp_path / "a.csv")
    sh.write_spectrum(sh.ZSpectrum(6), tmp_path / "b.csv")
    code, _, err = run_cli(
        capsys,
        "decompose",
        "--input-theta", str(tmp_path / "a.csv"),
        "--input-phi", str(tmp_path / "b.csv"),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1
    assert f"degrees differ: {tmp_path / 'a.csv'} has n=5, {tmp_path / 'b.csv'} has n=6" in err


def test_decompose_wrong_basis_fails(tmp_path, capsys):
    import spherehhd as sh

    sh.write_spectrum(sh.ScalarSpectrum(5), tmp_path / "y.csv")
    sh.write_spectrum(sh.ZSpectrum(5), tmp_path / "z.csv")
    code, _, err = run_cli(
        capsys,
        "decompose",
        "--input-theta", str(tmp_path / "y.csv"),
        "--input-phi", str(tmp_path / "z.csv"),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1
    assert f"{tmp_path / 'y.csv'}: a basis-Y spectrum" in err


def test_decompose_unallocatable_header_degree_fails(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("# basis=Z n=100000000\n")
    code, _, err = run_cli(
        capsys,
        "decompose",
        "--input-theta", str(path),
        "--input-phi", str(path),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1
    assert "degree n=100000000" in err


@pytest.mark.parametrize("command", [["differentiate", "--n"], ["bench", "--iters", "1", "--n-list"]],
                         ids=lambda c: c[0])
def test_unallocatable_degree_fails(command, tmp_path, capsys):
    # the potentials of degree 10**8 - 1 hold ~10**16 coefficients (~71 PiB):
    # the table is refused as a ValueError naming its degree, one line on
    # stderr and exit 1, not a MemoryError traceback
    extra = ["--out-prefix", str(tmp_path / "x")] if command[0] == "differentiate" else []
    code, out, err = run_cli(capsys, *command, "100000000", *extra)
    assert code == 1
    assert "degree n=99999999: cannot allocate" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_missing_file_fails(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "decompose",
        "--input-theta", str(tmp_path / "nope.csv"),
        "--input-phi", str(tmp_path / "nope.csv"),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1


def test_bench_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-list", "8,16", "--iters", "2", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,iter,rel_error,decompose_seconds,differentiate_seconds"
    assert len(lines) == 1 + 2 * 3  # per degree: 2 iterations + mean
    assert [line.split(",")[:2] for line in lines[1:4]] == [["8", "1"], ["8", "2"], ["8", "mean"]]
    assert all(len(line.split(",")) == 5 and float(line.split(",")[4]) >= 0 for line in lines[1:])


def test_bench_rel_error_column_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "bench", "--n-list", "16", "--iters", "2", "--seed", "3")
    assert code == 0
    errs1 = [line.split(",")[2] for line in out1.strip().splitlines()[1:]]
    assert len(errs1) == 3  # 2 iterations + mean
    assert all(float(e) <= 1e-12 for e in errs1)
    assert float(errs1[2]) == pytest.approx((float(errs1[0]) + float(errs1[1])) / 2, rel=1e-15)
    code, out2, _ = run_cli(capsys, "bench", "--n-list", "16", "--iters", "2", "--seed", "3")
    errs2 = [line.split(",")[2] for line in out2.strip().splitlines()[1:]]
    assert errs1 == errs2  # error column is deterministic for a fixed seed


def test_bench_json_schema(tmp_path, capsys):
    path = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", "--n-list", "8,12", "--iters", "2", "--json", str(path))
    assert code == 0
    assert out.splitlines()[0] == "n,iter,rel_error,decompose_seconds,differentiate_seconds"
    report = json.loads(path.read_text())
    assert set(report) == {"machine", "iters", "seed", "runs"}
    assert set(report["machine"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert report["machine"]["nproc"] >= 1 and report["iters"] == 2
    assert [run["n"] for run in report["runs"]] == [8, 12]
    for run in report["runs"]:
        assert set(run) == {"n", "decompose_s", "differentiate_s", "decompose_minflt", "differentiate_minflt",
                            "roundtrip_rel_err", "peak_rss_mib"}
        assert run["decompose_s"] > 0 and run["differentiate_s"] > 0
        for key in ("decompose_minflt", "differentiate_minflt"):
            assert isinstance(run[key], int) and run[key] >= 0
        assert run["roundtrip_rel_err"] <= 1e-12
        assert run["peak_rss_mib"] > 1.0  # a fresh interpreter with numpy loaded


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_bench_files_load(path):
    # every committed bench --json record parses and keeps the schema that
    # README describes, and README names it in its list of BENCH files
    report = json.loads(path.read_text())
    assert {"machine", "iters", "seed", "runs"} <= set(report)
    assert report["runs"]
    for run in report["runs"]:
        assert {"n", "decompose_s", "differentiate_s", "roundtrip_rel_err", "peak_rss_mib"} <= set(run)
        assert run["decompose_s"] > 0 and run["differentiate_s"] > 0 and run["peak_rss_mib"] > 0
        assert run["roundtrip_rel_err"] <= 1e-12
    assert f"`{path.name}`" in (REPO / "README.md").read_text()


def test_readme_quickstart_runs(capsys):
    # README's "Library quickstart" block, run as written
    readme = (REPO / "README.md").read_text()
    code = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and float(printed[0]) <= 1e-12
    result, s, t = namespace["result"], namespace["s"], namespace["t"]
    assert relative_l2_error(result.spheroidal, s) <= 1e-12
    assert relative_l2_error(result.toroidal, t) <= 1e-12


def test_bench_bad_json_path_fails_before_any_output(tmp_path, capsys):
    path = tmp_path / "missing" / "bench.json"
    code, out, err = run_cli(capsys, "bench", "--n-list", "8", "--iters", "1", "--json", str(path))
    assert code == 1
    assert out == ""
    assert "No such file" in err


def test_cond_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "cond", "--n-list", "10,12", "--m-list", "1,2,5")
    assert code == 0
    lines = out.strip().splitlines()
    header = "n,m,kappa_R_dense,kappa_M_dense,theorem_bound,qi_sigma_max,qi_sigma_min,conjecture"
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    by_key = {(int(r[0]), int(r[1])): r for r in rows}
    assert float(by_key[(10, 2)][4]) == pytest.approx(27.0)
    for key, r in by_key.items():
        assert float(r[2]) <= float(r[4])  # dense kappa below the theorem bound
        if key[1] >= 2:
            assert float(r[6]) >= key[1] - 1.5  # qi sigma_min column
        else:
            assert r[6] == ""
            assert r[7] != ""  # conjecture reported at m = 1


def test_cond_scale_guard(capsys):
    code, _, err = run_cli(capsys, "cond", "--n-list", "4096", "--m-list", "2")
    assert code == 1


@pytest.mark.parametrize(
    "argv,reason",
    [
        (("bench", "--n-list", "4,1", "--iters", "1"), "must be >= 2"),
        (("cond", "--n-list", "8,100000"), "limited to n <= 512"),
    ],
    ids=["bench", "cond"],
)
def test_bad_n_list_fails_before_any_output(capsys, argv, reason):
    # a list with one bad entry after good ones must not leave a partial CSV
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert reason in err


@pytest.mark.parametrize(
    "argv,reason",
    [
        (("--n-list", "1,0", "--m-list", "-3"), "must be >= 2"),
        (("--n-list", "8", "--m-list", "2,-3"), "must be >= 1"),
        (("--n-list", "4", "--m-list", "5"), "no pair"),
    ],
    ids=["degrees", "orders", "empty-grid"],
)
def test_cond_grid_without_pairs_fails(capsys, argv, reason):
    code, out, err = run_cli(capsys, "cond", *argv)
    assert code == 1
    assert out == ""
    assert reason in err


def test_cond_skips_orders_past_a_degree(capsys):
    # the default grid pairs n = 8 with m = 8: such pairs drop out of a mixed grid
    code, out, _ = run_cli(capsys, "cond", "--n-list", "4,8", "--m-list", "3,5")
    assert code == 0
    assert [tuple(line.split(",")[:2]) for line in out.splitlines()[1:]] == [
        ("4", "3"), ("8", "3"), ("8", "5")]


def test_bad_int_list(capsys):
    code, _, err = run_cli(capsys, "cond", "--n-list", "10,x")
    assert code == 1


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0
    lines = [line for line in out.splitlines() if ": PASS" in line or ": FAIL" in line]
    assert len(lines) >= 6
    assert all(": PASS" in line for line in lines)


def test_verify_detects_flipped_coefficient(monkeypatch, capsys):
    # sanity check that the verification actually bites: flipping the sign of
    # the lower-degree conversion coefficient must fail the identity suite
    import spherehhd.recurrences as rec

    true_alpha = rec.alpha
    monkeypatch.setattr(rec, "alpha", lambda l, m: -true_alpha(l, m))
    results = {name: ok for name, ok, _ in run_verification("quick")}
    assert results["pointwise-identities"] is False
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0


def test_verify_detects_perturbed_cholesky_factor(monkeypatch):
    # the solver back-substitutes with the closed-form factor of rec._qr
    # itself, so a superdiagonal off by 1e-9 must fail the solver and
    # round-trip suites
    import spherehhd.recurrences as rec

    true_qr = rec._qr

    def perturbed_qr(l, m):
        rotations, (d, e, f) = true_qr(l, m)
        return rotations, (d, e * (1 + 1e-9), f)

    monkeypatch.setattr(rec, "_qr", perturbed_qr)
    results = {name: ok for name, ok, _ in run_verification("quick")}
    assert results["solver-vs-dense"] is False
    assert results["roundtrip-error"] is False


def test_verify_exit_code_two_on_failure(monkeypatch, capsys):
    import spherehhd.recurrences as rec

    true_alpha = rec.alpha
    monkeypatch.setattr(rec, "alpha", lambda l, m: -true_alpha(l, m))
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 2
    assert "pointwise-identities: FAIL" in out


def test_invalid_iters(capsys):
    code, out, err = run_cli(capsys, "bench", "--n-list", "8", "--iters", "0")
    assert code == 1
    assert out == "" and "--iters: must be >= 1" in err


@pytest.mark.parametrize("command", ["differentiate", "bench"])
def test_invalid_seed(capsys, tmp_path, command):
    flags = ["--n", "4", "--out-prefix", str(tmp_path / "x")] if command == "differentiate" else ["--n-list", "8"]
    code, out, err = run_cli(capsys, command, *flags, "--seed", "-1")
    assert code == 1
    assert out == "" and "--seed: must be >= 0" in err and not list(tmp_path.iterdir())


# each subcommand's required flags, and a well-formed value for every flag;
# no subcommand reads --tol (verify's tolerances are fixed), so all reject it
_REQUIRED = {
    "decompose": ("--input-theta", "a", "--input-phi", "b", "--out-prefix", "c"),
    "differentiate": ("--n", "8", "--out-prefix", "c"),
    "bench": (),
    "cond": (),
    "verify": (),
}
_VALUES = {"--n": "5", "--seed": "1", "--iters": "1", "--input-theta": "a", "--input-phi": "b",
           "--out-prefix": "c", "--m-list": "1,2", "--n-list": "8", "--level": "quick",
           "--tol": "1.0", "--json": "x"}
_READS = {
    "decompose": {"--input-theta", "--input-phi", "--out-prefix"},
    "differentiate": {"--n", "--seed", "--out-prefix"},
    "bench": {"--n-list", "--seed", "--iters", "--json"},
    "cond": {"--n-list", "--m-list"},
    "verify": {"--level"},
}


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_READS)
    for command, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == _READS[command]
    assert sum(map(len, _READS.values())) == 13


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command, reads in _READS.items() for flag in _VALUES if flag not in reads],
)
def test_subcommand_rejects_flags_it_does_not_read(capsys, command, flag):
    code, out, err = run_cli(capsys, command, *_REQUIRED[command], flag, _VALUES[flag])
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv", [(), ("bogus",), ("decompose", "--frob"), ("verify", "--level", "x")],
    ids=["none", "unknown-command", "unknown-flag", "bad-choice"],
)
def test_usage_errors_return_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "error" in err
