"""Command-line behaviors: exit codes, schemas, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hermpd.cli
from hermpd.cli import build_parser, main
from hermpd.exponents import (
    ExponentFamily,
    ExponentSetSpec,
    diagonal_spec,
    even_difference_spec,
    full_grid_spec,
)
from hermpd.kernel import diagonal_factorial_model, grid_factorial_model, scalar_points, unit_weights
from hermpd.schema import model_to_json, points_to_json, spec_to_json

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_jset_check_exit_codes(workdir, capsys):
    tmp, write = workdir
    full = write("full.json", spec_to_json(full_grid_spec()))
    diag = write("diag.json", spec_to_json(diagonal_spec()))

    code, report, _ = run(capsys, "jset-check", full)
    assert code == 0 and report["holds"] is True

    code, report, _ = run(capsys, "jset-check", diag)
    assert code == 3 and report["failing_class"] == [1, 0]

    # failure is in coverage, not the origin, so sphere mode cannot rescue it
    code, report, _ = run(capsys, "jset-check", diag, "--sphere")
    assert code == 3 and report["failing_class"] == [1, 0]


def test_jset_check_sphere_rescues_origin_only(workdir, capsys):
    tmp, write = workdir
    spec = ExponentSetSpec(families=[ExponentFamily((1, 0), (1, 0)), ExponentFamily((1, 0), (0, 1))])
    path = write("no_origin.json", spec_to_json(spec))
    code, report, _ = run(capsys, "jset-check", path)
    assert code == 3 and report["origin_missing"] is True
    code, report, _ = run(capsys, "jset-check", path, "--sphere")
    assert code == 0 and report["holds"] is True


def test_malformed_json_is_exit_2(workdir, capsys):
    tmp, write = workdir
    bad = tmp / "bad.json"
    bad.write_text('{"points": [[0, 0]', encoding="utf-8")
    code, report, err = run(capsys, "jset-check", str(bad))
    assert code == 2 and report is None
    assert "line 1" in err and "column" in err


def test_each_input_is_read_once_and_digested_as_read(workdir, capsys, monkeypatch):
    tmp, write = workdir
    model = write("model.json", model_to_json(diagonal_factorial_model()))
    points = write("points.json", points_to_json(scalar_points([0.4 + 0.1j, -0.2])))
    reads = []

    def counted(read):
        def wrapper(self, *args, **kwargs):
            reads.append(str(self))
            return read(self, *args, **kwargs)

        return wrapper

    for method in ("read_bytes", "read_text"):
        monkeypatch.setattr(Path, method, counted(getattr(Path, method)))
    code, report, _ = run(capsys, "gram", model, points)
    assert code == 0 and sorted(reads) == sorted([model, points])
    flags = json.dumps({"seed": 0, "tol": 1e-10}, sort_keys=True).encode("utf-8")
    data = b"".join(Path(path).read_bytes() + b"\x00" for path in (model, points)) + flags
    assert report["inputs_digest"] == hashlib.sha256(data).hexdigest()


def test_unknown_field_is_exit_2(workdir, capsys):
    tmp, write = workdir
    path = write("weird.json", {**spec_to_json(full_grid_spec()), "comment": "hi"})
    code, _, err = run(capsys, "jset-check", path)
    assert code == 2 and "unknown" in err


def test_counterexample_writes_witness(workdir, capsys):
    tmp, write = workdir
    diag = write("diag.json", spec_to_json(diagonal_spec()))
    wpath = tmp / "witness.json"
    code, report, _ = run(capsys, "counterexample", diag, "--witness-out", str(wpath))
    assert code == 0
    assert report["points"] == 2 and report["max_residual"] <= 1e-10
    witness = json.loads(wpath.read_text())
    assert witness["p"] == 1 and witness["q"] == 0
    assert len(witness["points"]) == 2 == len(witness["coeffs"])


def test_out_files_hold_the_written_bytes(workdir, capsys):
    tmp, write = workdir
    model = write("model.json", model_to_json(grid_factorial_model(16)))
    rng = np.random.default_rng(4)
    points = write("points.json", points_to_json(scalar_points(rng.uniform(-0.8, 0.8, 12) + 1j * rng.uniform(-0.8, 0.8, 12))))
    out = tmp / "report.json"
    assert main(["gram", model, points, "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    # a p = 211 witness: 422 points, over the float block cutoff
    spec = write("p211.json", spec_to_json(ExponentSetSpec(points=[(0, 0), (3, 1)], families=[ExponentFamily((0, 0), (211, 0))])))
    wpath = tmp / "witness.json"
    code, report, _ = run(capsys, "counterexample", spec, "--witness-out", str(wpath))
    assert code == 0 and report["witness"]["p"] == 211
    expected = json.dumps(report["witness"], indent=2, sort_keys=True) + "\n"
    assert wpath.read_bytes() == expected.encode("utf-8")


def test_counterexample_even_difference(workdir, capsys):
    tmp, write = workdir
    even = write("even.json", spec_to_json(even_difference_spec()))
    code, report, _ = run(capsys, "counterexample", even)
    assert code == 0 and report["witness"]["p"] == 2


def test_counterexample_on_holding_spec_is_exit_4(workdir, capsys):
    tmp, write = workdir
    full = write("full.json", spec_to_json(full_grid_spec()))
    code, report, err = run(capsys, "counterexample", full)
    assert code == 4 and "criterion holds" in err


def test_counterexample_origin_only(workdir, capsys):
    tmp, write = workdir
    spec = ExponentSetSpec(families=[ExponentFamily((1, 0), (1, 0)), ExponentFamily((1, 0), (0, 1))])
    path = write("no_origin.json", spec_to_json(spec))
    code, report, _ = run(capsys, "counterexample", path)
    assert code == 0
    assert report["witness"]["p"] is None
    assert report["witness"]["points"] == [[0.0, 0.0]]
    assert report["witness"]["coeffs"] == [[1.0, 0.0]]


def test_gram_constant_model(workdir, capsys):
    tmp, write = workdir
    model = write("model.json", model_to_json(unit_weights(ExponentSetSpec(points=[(0, 0)]))))
    pts = write("pts.json", points_to_json(scalar_points([0.4 + 0.1j, -0.2, 0.9j])))
    code, report, _ = run(capsys, "gram", model, pts)
    assert code == 0
    entries = report["kernel_gram"]["entries"]
    assert all(cell == [1.0, 0.0] for row in entries for cell in row)
    assert report["psd_verdict"] == "positive_semidefinite"


def test_gram_identity_model_matches_inner(workdir, capsys):
    tmp, write = workdir
    spec = ExponentSetSpec(points=[(1, 0)])
    model = write("model.json", model_to_json(unit_weights(spec)))
    pts = write("pts.json", points_to_json(scalar_points([0.4 + 0.1j, -0.2])))
    code, report, _ = run(capsys, "gram", model, pts)
    assert code == 0
    assert report["kernel_gram"]["entries"] == report["inner_gram"]["entries"]


def test_gram_positive_definite_and_csv(workdir, capsys):
    tmp, write = workdir
    rng = np.random.default_rng(41)
    zs = 0.7 * np.exp(2j * np.pi * rng.random(5)) * rng.uniform(0.4, 1, 5)
    model = write("model.json", model_to_json(grid_factorial_model(12)))
    pts = write("pts.json", points_to_json(scalar_points(zs)))
    csv_path = tmp / "gram.csv"
    code, report, _ = run(capsys, "gram", model, pts, "--csv", str(csv_path))
    assert code == 0 and report["psd_verdict"] == "positive_definite"
    assert report["min_eigenvalue"] > 0
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 5 and len(rows[0].split('","')) == 5


def test_oracle_command(workdir, capsys):
    tmp, write = workdir
    even_model = unit_weights(even_difference_spec(), w=1.0, rho=0.2)
    model = write("model.json", model_to_json(even_model))
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    pts = write("pts.json", points_to_json(scalar_points(np.append(roots[:3], -roots[0]))))
    code, report, _ = run(capsys, "oracle", model, pts, "--truncation", "12", "--tol", "1e-8")
    assert code == 0
    assert report["strict"] is False and report["witness"] is not None
    assert report["eigen_crosscheck"]["eigen_strict"] is False

    grid = write("grid.json", model_to_json(grid_factorial_model(16)))
    gpts = write("gpts.json", points_to_json(scalar_points([0.5, 0.3 + 0.6j, -0.7, 0.2 - 0.4j])))
    code, report, _ = run(capsys, "oracle", grid, gpts, "--truncation", "16", "--tol", "1e-8")
    assert code == 0 and report["strict"] is True
    assert report["collocation_rank"] == 4
    assert report["eigen_crosscheck"]["eigen_strict"] is True

    one_model = write("one_model.json", model_to_json(unit_weights(ExponentSetSpec(points=[(0, 0)]))))
    one = write("one.json", points_to_json(scalar_points([1.0])))
    code, report, _ = run(capsys, "oracle", one_model, one, "--truncation", "0")
    assert code == 0 and report["strict"] is True


def test_oracle_rejects_vector_points(workdir, capsys):
    tmp, write = workdir
    model = write("model.json", model_to_json(diagonal_factorial_model()))
    pts = write("pts.json", {"dimension": 2, "points": [[[1.0, 0.0], [0.0, 0.0]]]})
    code, _, err = run(capsys, "oracle", model, pts)
    assert code == 2 and "dimension" in err


def test_split_command(workdir, capsys):
    tmp, write = workdir
    pts = write("pts.json", {"dimension": 2, "points": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    code, report, _ = run(capsys, "split", pts)
    assert code == 0
    assert report["reconstruction_error"] <= 1e-11
    assert report["remainder_min_eigenvalue"] >= -1e-11
    assert report["gap"] > 0

    dup = write("dup.json", {"dimension": 1, "points": [[[1.0, 0.0]], [[1.0, 0.0]]]})
    code, _, err = run(capsys, "split", dup)
    assert code == 2 and "distinct" in err


def test_removed_tol_flag_is_refused(workdir, capsys):
    tmp, write = workdir
    diag = write("diag.json", spec_to_json(diagonal_spec()))
    for argv in (["jset-check", diag, "--tol", "1e-3"], ["selftest", "--tol", "1e-3"]):
        code, report, err = run(capsys, *argv)
        assert code == 2 and report is None
        assert err.count("\n") == 1 and "unrecognized arguments: --tol" in err


def test_import_leaves_selftest_and_numpy_random_unloaded():
    # only the selftest command needs hermpd.selftest, and numpy.random with it
    src = str(Path(hermpd.cli.__file__).resolve().parents[1])
    code = "import sys, hermpd.cli; print(sorted({'hermpd.selftest', 'numpy.random'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_cached_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    # the first golden case of every command, a refused command line, then the first case again
    firsts = {}
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        argv = line.split()[2:]
        firsts.setdefault(argv[0], argv)
    assert len(firsts) == 6
    argvs = [*firsts.values(), ["gram", "--bogus"], next(iter(firsts.values()))]
    shutil.copytree(GOLDEN, tmp_path / "golden")
    monkeypatch.chdir(tmp_path / "golden")

    def run_all():
        results = []
        for argv in argvs:
            code = main(argv)
            out, err = capsys.readouterr()
            results.append((code, re.sub(r'(?m)^  "elapsed_ms": \d+,\n', "", out), err))
        return results

    assert hermpd.cli._parser() is hermpd.cli._parser()
    cached = run_all()
    monkeypatch.setattr(hermpd.cli, "_parser", build_parser)
    assert cached == run_all()
    assert cached[-1] == cached[0] and cached[-2][0] == 2


def test_report_determinism(workdir, capsys):
    tmp, write = workdir
    diag = write("diag.json", spec_to_json(diagonal_spec()))
    _, first, _ = run(capsys, "jset-check", diag)
    _, second, _ = run(capsys, "jset-check", diag)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_selftest_quick(workdir, capsys):
    code, report, err = run(capsys, "selftest", "--level", "quick")
    assert code == 0 and report["ok"] is True
    assert "suite exponents" in err
    assert set(report["suites"]) == {"exponents", "kernel", "linalg", "construction", "oracle"}
