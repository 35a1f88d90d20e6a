"""Gram splits, block embeddings, annihilating configurations."""

from __future__ import annotations

import numpy as np
import pytest

import hermpd.construction
from hermpd.construction import (
    OriginWitnessNeeded,
    WitnessBudgetError,
    block_extend,
    build_counterexample,
    character_coefficients,
    class_difference_values,
    origin_counterexample,
    split_gram,
)
from hermpd.exponents import (
    ExponentFamily,
    ExponentSetSpec,
    check_strict_criterion,
    diagonal_spec,
    even_difference_spec,
    full_grid_spec,
)
from hermpd.kernel import ComplexPointSet, diagonal_factorial_model, inner_gram, unit_weights
from hermpd.linalg import hermitian_eigen, row_sum_scale
from hermpd.oracle import quadratic_form
from hermpd.sampling import random_psd
from hermpd.schema import witness_to_json
from selftest_checks import full_level


def test_split_single_point():
    pts = ComplexPointSet(np.array([[0.3 + 1.1j, -0.2j]]))
    res = split_gram(pts, seed=0)
    a = inner_gram(pts).entries
    assert abs(res.scalars[0]) ** 2 <= a[0, 0].real + 1e-12
    assert hermitian_eigen(res.remainder, 1e-12).min >= -1e-12


def test_split_orthonormal_pair():
    pts = ComplexPointSet(np.eye(2, dtype=complex))
    res = split_gram(pts, seed=0)
    assert abs(res.scalars[0] - res.scalars[1]) > 1e-10
    a = inner_gram(pts).entries
    recon = np.abs(a - (np.outer(res.scalars, np.conj(res.scalars)) + res.remainder)).max()
    assert recon <= 1e-12 and res.reconstruction_error == recon
    assert hermitian_eigen(res.remainder, 1e-12).min >= -1e-12
    assert res.remainder_min_eigenvalue == hermitian_eigen(res.remainder, 1e-10).min


def test_split_rejects_coincident_points():
    pts = ComplexPointSet(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="distinct"):
        split_gram(pts, seed=0)


def test_block_extend_examples():
    out = block_extend(np.zeros((1, 1)), 1.0, 1.0)
    np.testing.assert_allclose(out, np.ones((2, 2)), atol=1e-14)
    assert hermitian_eigen(out, 1e-12).min >= -1e-12

    out = block_extend(np.eye(1), 0.0, 0.0)
    np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    rng = np.random.default_rng(22)
    a = random_psd(rng, 4, 2)
    ca = complex(rng.standard_normal(), rng.standard_normal())
    cb = complex(rng.standard_normal(), rng.standard_normal())
    out = block_extend(a, ca, cb)
    scale = row_sum_scale(out)
    lam = hermitian_eigen(out, 1e-12).eigenvalues
    assert lam[0] >= -1e-12 * scale
    assert int((lam > 1e-10 * scale).sum()) <= 3


def test_block_extend_rejects_indefinite():
    with pytest.raises(ValueError, match="indefinite"):
        block_extend(np.diag([1.0, -1.0]), 1.0, 0.0)


def test_class_values_diagonal():
    assert class_difference_values(diagonal_spec(), 1, 0) == [0]
    assert class_difference_values(even_difference_spec(), 2, 1) == []
    with pytest.raises(ValueError, match="not a failing class"):
        class_difference_values(full_grid_spec(), 2, 1)


def test_counterexample_diagonal():
    spec = diagonal_spec()
    verdict = check_strict_criterion(spec)
    w = build_counterexample(spec, verdict, truncation=40, tol=1e-10)
    assert w.p == 1 and w.q == 0
    assert len(w.points) == 2
    assert w.max_residual <= 1e-10
    # the 1 x 2 system forces coefficients proportional to (1, -1)
    np.testing.assert_allclose(w.row_coefficients, np.array([1, -1]) / np.sqrt(2), atol=1e-12)
    # oracle view: the kernel Gram on the unit circle is e * all-ones, so
    # the (1, -1) direction is exactly degenerate
    model = diagonal_factorial_model()
    coeff = w.coefficients / np.linalg.norm(w.coefficients)
    assert abs(quadratic_form(model, w.points, coeff, 1e-12)) <= 1e-9


def test_counterexample_even_difference():
    spec = even_difference_spec()
    verdict = check_strict_criterion(spec)
    w = build_counterexample(spec, verdict, truncation=40, tol=1e-10)
    assert w.p == 2 and w.q == 1
    assert len(w.points) == 2
    np.testing.assert_allclose(w.points[1], -w.points[0], atol=1e-14)
    np.testing.assert_allclose(w.column_coefficients, [1, -1], atol=1e-14)
    assert w.max_residual <= 1e-10
    model = unit_weights(spec)
    coeff = w.coefficients / np.linalg.norm(w.coefficients)
    assert abs(quadratic_form(model, w.points, coeff, 1e-12)) <= 1e-9


def test_counterexample_rejects_holding_spec():
    spec = full_grid_spec()
    verdict = check_strict_criterion(spec)
    with pytest.raises(ValueError, match="holds"):
        build_counterexample(spec, verdict)


def test_counterexample_origin_only_failure():
    spec = ExponentSetSpec(families=[ExponentFamily((1, 0), (1, 0)), ExponentFamily((1, 0), (0, 1))])
    verdict = check_strict_criterion(spec)
    assert verdict.origin_missing and verdict.failing_class is None
    with pytest.raises(OriginWitnessNeeded):
        build_counterexample(spec, verdict)
    point, coeff = origin_counterexample(spec)
    assert point == 0 and coeff == 1


def test_witness_point_budget(monkeypatch):
    spec = even_difference_spec()
    verdict = check_strict_criterion(spec)
    assert len(build_counterexample(spec, verdict).points) == 2  # p (N + 1) = 2 * 1
    monkeypatch.setattr(hermpd.construction, "WITNESS_POINT_BUDGET", 1)
    with pytest.raises(WitnessBudgetError, match="needs 2 points"):
        build_counterexample(spec, verdict)
    with pytest.raises(WitnessBudgetError, match="needs 5 points"):
        character_coefficients(5, 1)


def test_origin_counterexample_examples():
    assert origin_counterexample(ExponentSetSpec(points=[(1, 1)])) == (0, 1)
    assert origin_counterexample(ExponentSetSpec(points=[(1, 0), (0, 1)])) == (0, 1)
    with pytest.raises(ValueError, match="origin"):
        origin_counterexample(ExponentSetSpec(points=[(0, 0)]))
    with pytest.raises(ValueError):
        origin_counterexample(ExponentSetSpec(points=[(1, 1)], require_origin=False))


def test_witness_json_shape():
    spec = diagonal_spec()
    w = build_counterexample(spec, check_strict_criterion(spec))
    obj = witness_to_json(w)
    assert set(obj) == {"p", "q", "thetas", "points", "coeffs", "max_residual"}
    assert len(obj["points"]) == len(obj["coeffs"]) == 2


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_split_random_point_sets = full_level("split")
test_block_extend_random = full_level("block_extend")
test_character_coefficients_exactness = full_level("characters")
test_counterexample_random_specs = full_level("counterexample")
