"""One-line JSON inputs that once hung, crashed or lied: each must now give
the correct verdict or a clean refusal (exit 2, one stderr line, no
traceback), within a second.  Output is captured at the file-descriptor
level, warnings are errors, and a run past its deadline fails instead of
hanging."""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hermpd.exponents
from hermpd.cli import main
from hermpd.exponents import ExponentFamily, ExponentSetSpec, even_difference_spec
from hermpd.kernel import diagonal_factorial_model, unit_weights
from hermpd.schema import model_from_json, model_to_json, points_to_json, spec_to_json
from test_exponents import erdos_covering_spec
from test_kernel import kernel_mpmath, steep_stride4_case

COPRIME = ExponentSetSpec(
    points=[(0, 0)], families=[ExponentFamily((0, 0), (999983, 0)), ExponentFamily((0, 0), (0, 1000003))]
)
GOLDEN = Path(__file__).parent / "golden"
AXIS = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0)), ExponentFamily((0, 0), (0, 1))])


def scalar_points(*values: complex) -> dict:
    return {"dimension": 1, "points": [[[z.real, z.imag]] for z in map(complex, values)]}


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the running code once seconds have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cli(tmp_path, capfd):
    """Run the CLI on JSON objects written to files; returns (code, stdout, stderr, seconds)."""

    def run(command, *objects, flags=()):
        paths = []
        for i, obj in enumerate(objects):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            paths.append(str(path))
        capfd.readouterr()
        started = time.perf_counter()
        with deadline(10.0), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would add stderr lines
            code = main([command, *paths, *flags])
        elapsed = time.perf_counter() - started
        out, err = capfd.readouterr()
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


@pytest.mark.parametrize(
    "field, value, phrase",
    [
        ("coordinate", "0.25", "coordinate of point 0 must be a number, got '0.25'"),
        ("coordinate", True, "coordinate of point 0 must be a number, got True"),
        ("family weight", "1.5", "family weight 0 w must be a number, got '1.5'"),
        ("point weight", False, "point weight at [0, 0] must be a number, got False"),
    ],
)
def test_non_number_is_refused(cli, field, value, phrase):
    # float() of a JSON string or boolean used to be accepted with exit 0
    model = json.loads((GOLDEN / "model_even.json").read_text(encoding="utf-8"))
    points = json.loads((GOLDEN / "points_n8_m1.json").read_text(encoding="utf-8"))
    if field == "coordinate":
        points["points"][0][0][0] = value
    elif field == "family weight":
        model["family_weights"][0]["w"] = value
    else:
        model["point_weights"][0][2] = value
    assert_refused(*cli("gram", model, points), phrase)


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


def test_overflowing_inner_product_prints_one_line(cli):
    # |z|^2 = 1e600 overflows; numpy's overflow warnings used to precede the refusal
    result = cli("gram", model_to_json(unit_weights(ExponentSetSpec())), scalar_points(1e300j))
    assert_refused(*result, "kernel argument must be finite, got (inf+0j)")


def test_collocation_overflow_is_refused(cli):
    # z^3 conj(z)^2 = 1e750 overflows; LAPACK printed two lines before "SVD did not converge"
    model = model_to_json(unit_weights(ExponentSetSpec(points=[(3, 2)])))
    result = cli("oracle", model, scalar_points(1e150, 0.5 + 0.1j))
    assert_refused(*result, "collocation monomials overflow double precision at radius 1e+150 (truncation 24)")


def test_infinite_series_exponent_is_refused(cli):
    # x = rho |a|^2 = inf made math.exp return inf and the series cut loop never end
    model = model_to_json(unit_weights(diagonal_factorial_model().spec, rho=1e300))
    result = cli("gram", model, scalar_points(1e5, 0.5))
    assert_refused(*result, "kernel series overflows double precision at |a| = 1e+10")


def test_coefficient_past_double_range_decided(cli):
    # b(12, 12) = 1e26^12 / 12!: rho**s raised OverflowError as a traceback
    model = model_to_json(unit_weights(diagonal_factorial_model().spec, rho=1e26))
    code, out, err, elapsed = cli("oracle", model, scalar_points(1e-12, -1e-12))
    assert code == 0 and err == "" and elapsed < 1.0
    assert json.loads(out)["strict"] is False  # one modulus under a diagonal kernel


def test_witness_form_rounding_decided(cli):
    # f(z) = conj(z) is rank one; at |z| ~ 7e16 the form's rounding was taken for an
    # imaginary defect (exit 1), and then the witness, whose form measures ~2e16,
    # was reported as degenerate: its rounding cannot be certified below n^2 tol
    points = scalar_points(0.5 + 7.2e16j, 5.8e16 + 0.5j, 7.2e16 + 0.5j)
    model = model_to_json(unit_weights(ExponentSetSpec(points=[(0, 1)])))
    code, out, err, elapsed = cli("oracle", model, points)
    assert_refused(code, out, err, elapsed, "cannot certify non-strictness")


TOL_INPUTS = {
    "counterexample": ["spec_diagonal.json"],
    "gram": ["model_grid16.json", "points_n8_m1.json"],
    "oracle": ["model_grid16.json", "points_annulus4.json"],
    "split": ["points_n5_m2.json"],
}


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3"])
@pytest.mark.parametrize("command", sorted(TOL_INPUTS))
def test_invalid_tol_is_refused(cli, command, tol):
    # --tol nan answered with exit 0: "indefinite" next to a positive least
    # eigenvalue from gram, "strict": false for the oracle_strict set
    inputs = [json.loads((GOLDEN / name).read_text(encoding="utf-8")) for name in TOL_INPUTS[command]]
    result = cli(command, *inputs, flags=[f"--tol={tol}"])
    assert_refused(*result, f"--tol must be a positive finite number, got {float(tol)!r}")


def golden(*names: str) -> list:
    return [json.loads((GOLDEN / name).read_text(encoding="utf-8")) for name in names]


def test_oracle_low_truncation_is_not_called_non_strict(cli):
    # at truncation 0 the first collocation column is dependent, and the set
    # (strict at truncation 16, golden oracle_strict) was reported non-strict
    result = cli("oracle", *golden("model_grid16.json", "points_annulus4.json"), flags=["--tol", "1e-8", "--truncation", "0"])
    assert_refused(*result, "cannot certify non-strictness: witness form bound 5.089e+00")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(truncation=st.integers(0, 24))
@example(truncation=0)
@example(truncation=24)
@pytest.mark.parametrize(
    "inputs, verdict",
    [(("model_grid16.json", "points_annulus4.json"), True), (("model_even.json", "points_pm_pair.json"), False)],
    ids=["oracle_strict", "oracle_degenerate"],
)
def test_oracle_verdict_does_not_depend_on_truncation(cli, inputs, verdict, truncation):
    # the verdicts are those of the two oracle goldens, at truncation 16 and 12
    code, out, err, elapsed = cli("oracle", *golden(*inputs), flags=["--tol", "1e-8", "--truncation", str(truncation)])
    if code == 2 and truncation < 24:  # both sets are certified at 24
        assert_refused(code, out, err, elapsed, "certify")
        return
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["strict"] is verdict
    if report["eigen_crosscheck"] is not None:
        assert report["eigen_crosscheck"]["eigen_strict"] is verdict


def test_steep_stride4_gram_is_answered(cli):
    # refused with "kernel Gram defect 4.746e+123 exceeds 2.119e+123" while
    # the inner Gram was not exactly Hermitian
    model, pts = steep_stride4_case(157)
    code, out, err, elapsed = cli("gram", model_to_json(model), points_to_json(pts))
    assert code == 0 and err == "" and elapsed < 1.0
    assert json.loads(out)["kernel_gram"]["hermitian_defect"] == 0.0


@pytest.mark.parametrize(
    "flags, phrase",
    [
        (["--tol", "-inf"], "hermpd gram: argument --tol: expected one argument"),
        (["--tol", "x"], "hermpd gram: argument --tol: invalid float value: 'x'"),
        (["--bogus"], "hermpd: unrecognized arguments: --bogus"),
    ],
    ids=["tol_minus_inf", "tol_not_a_number", "unknown_flag"],
)
def test_argparse_refusal_is_one_line(cli, flags, phrase):
    # argparse printed a usage block and raised SystemExit(2) out of main
    result = cli("gram", *golden("model_grid16.json", "points_n8_m1.json"), flags=flags)
    assert_refused(*result, phrase)


def test_cancelling_kernel_entry_is_right(cli):
    # f(5.5 * -5.5) on grid16 is 1.1e-3, while its series terms reach 1e12 and
    # cancel: summed term by term, the entry was reported as -6.39e6 with exit 0
    model = json.loads((GOLDEN / "model_grid16.json").read_text(encoding="utf-8"))
    code, out, err, elapsed = cli("gram", model, scalar_points(5.5, -5.5), flags=["--tol", "1e-10"])
    assert code == 0 and err == "" and elapsed < 1.0
    re, im = json.loads(out)["kernel_gram"]["entries"][0][1]
    exact = kernel_mpmath(model_from_json(model), complex(-30.25))
    assert abs(complex(re, im) - complex(exact)) <= 1e-10


def test_close_pair_oracle_answers(cli):
    # the rank cut and the null vector came from two SVDs with different
    # scales, so the oracle found no null vector below full rank: an assert
    # ended in a traceback
    model = json.loads((GOLDEN / "model_grid16.json").read_text(encoding="utf-8"))
    code, out, err, elapsed = cli("oracle", model, scalar_points(0.5, 0.5 + 1.5e-10j))
    assert code == 0 and err == "" and elapsed < 1.0
    assert json.loads(out)["strict"] in (True, False)


@pytest.mark.parametrize("name", ["grid16", "axis"])
def test_close_pair_sweep_answers_or_refuses(cli, name):
    # 0.5 and 0.5 e^(i eps) from eps = 1e-13 to 1e-6: a verdict, or a one-line refusal
    if name == "grid16":
        model = json.loads((GOLDEN / "model_grid16.json").read_text(encoding="utf-8"))
    else:
        model = model_to_json(unit_weights(AXIS))
    for eps in 10.0 ** np.arange(-13.0, -5.9, 0.5):
        code, out, err, elapsed = cli("oracle", model, scalar_points(0.5, 0.5 * cmath.exp(1j * eps)))
        if code == 2:
            assert_refused(code, out, err, elapsed, "")
        else:
            assert code == 0 and err == "" and elapsed < 1.0, (eps, err)
            assert json.loads(out)["strict"] in (True, False)
