"""One-line JSON inputs that once hung, crashed or lied: each must now give
the correct verdict or a clean refusal (exit 2, one stderr line, no
traceback), within a second."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

import hermpd.exponents
from hermpd.cli import main
from hermpd.exponents import ExponentFamily, ExponentSetSpec, even_difference_spec
from hermpd.kernel import diagonal_factorial_model, unit_weights
from hermpd.schema import model_to_json, spec_to_json
from test_exponents import erdos_covering_spec

COPRIME = ExponentSetSpec(
    points=[(0, 0)], families=[ExponentFamily((0, 0), (999983, 0)), ExponentFamily((0, 0), (0, 1000003))]
)
GOLDEN = Path(__file__).parent / "golden"
AXIS = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0)), ExponentFamily((0, 0), (0, 1))])


def scalar_points(*values: complex) -> dict:
    return {"dimension": 1, "points": [[[z.real, z.imag]] for z in map(complex, values)]}


@pytest.fixture
def cli(tmp_path, capsys):
    """Run the CLI on JSON objects written to files; returns (code, stdout, stderr, seconds)."""

    def run(command, *objects, flags=()):
        paths = []
        for i, obj in enumerate(objects):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            paths.append(str(path))
        started = time.perf_counter()
        code = main([command, *paths, *flags])
        elapsed = time.perf_counter() - started
        out, err = capsys.readouterr()
        return code, out, err, elapsed

    return run


def assert_refused(code, out, err, elapsed, phrase):
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert phrase in err
    assert elapsed < 1.0


def test_nan_coordinate_is_refused(cli):
    points = {"dimension": 1, "points": [[[0.3, 0.1]], [[math.nan, 0.2]]]}
    result = cli("gram", model_to_json(diagonal_factorial_model()), points)
    assert_refused(*result, "coordinate of point 1 must be a finite number")


def test_infinite_weight_is_refused(cli):
    model = model_to_json(unit_weights(diagonal_factorial_model().spec, w=1.0))
    model["family_weights"][0]["w"] = math.inf
    result = cli("gram", model, scalar_points(0.5 + 0.1j))
    assert_refused(*result, "family weight 0 w must be a finite number")


def test_exp_modulus_squared_overflow_is_refused(cli):
    result = cli("gram", model_to_json(diagonal_factorial_model()), scalar_points(30, 0.5 + 0.2j))
    assert_refused(*result, "overflows double precision at |a| = 900")


def test_oracle_far_point_overflow_is_refused(cli):
    model = model_to_json(unit_weights(AXIS, w=1.0, rho=0.7))
    result = cli("oracle", model, scalar_points(1e6, 0.5 - 0.2j))
    assert_refused(*result, "overflows double precision at radius 1e+06")


def test_coprime_strides_decided(cli):
    code, out, err, elapsed = cli("jset-check", spec_to_json(COPRIME))
    report = json.loads(out)
    assert code == 3 and err == "" and elapsed < 1.0
    assert report["failing_class"] == [999983 * 1000003, 1]
    assert report["effective_modulus"] == 999983 * 1000003


def test_coprime_counterexample_is_refused(cli):
    # the witness would need p* (N + 1) = 999985999949 points
    result = cli("counterexample", spec_to_json(COPRIME))
    assert_refused(*result, "needs 999985999949 points, over the budget")


def test_criterion_budget_is_refused(cli, monkeypatch):
    monkeypatch.setattr(hermpd.exponents, "COVERAGE_CELL_BUDGET", 27)
    result = cli("jset-check", spec_to_json(erdos_covering_spec()))
    assert_refused(*result, "criterion refused")


@pytest.mark.parametrize("command", ["oracle", "counterexample"])
def test_huge_truncation_is_refused(cli, command):
    # the pairs are counted in closed form; listing them would take minutes
    even = even_difference_spec()
    inputs = [model_to_json(unit_weights(even, rho=0.2)), scalar_points(0.5, -0.5)] if command == "oracle" else [spec_to_json(even)]
    result = cli(command, *inputs, flags=["--truncation", "1000000000"])
    assert_refused(*result, "truncation 1000000000 asks for 1000000003 exponent pairs, over the budget")


def test_tail_bound_past_factorial_range(cli):
    # the grid16 tail bound at truncation 170 divides by 171!, past double range
    model = json.loads((GOLDEN / "model_grid16.json").read_text(encoding="utf-8"))
    points = json.loads((GOLDEN / "points_annulus4.json").read_text(encoding="utf-8"))
    code, out, err, elapsed = cli("oracle", model, points, flags=["--truncation", "170", "--tol", "1e-8"])
    report = json.loads(out)
    assert code == 0 and err == "" and elapsed < 1.0
    assert report["strict"] is True and report["tail_mass"] < 1e-8
