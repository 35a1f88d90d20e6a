"""Coefficient models, certified evaluation, Gram assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hermpd.exponents import ExponentFamily, ExponentPair, ExponentSetSpec
from hermpd.kernel import (
    CoefficientModel,
    ComplexPointSet,
    FamilyWeight,
    GramMatrix,
    WeightRule,
    conjugate_model,
    diagonal_factorial_model,
    eval_kernel,
    grid_factorial_model,
    inner_gram,
    kernel_gram,
    model_from_json,
    model_to_json,
    schur_product,
    truncation_tail_mass,
    unit_weights,
)
from hermpd.linalg import INDEFINITE, POSITIVE_SEMIDEFINITE, hermitian_eigen
from hermpd.sampling import random_psd, random_spec, random_weights
from selftest_checks import full_level


def point_model(weights: dict) -> CoefficientModel:
    spec = ExponentSetSpec(points=sorted(weights))
    return CoefficientModel(spec, WeightRule({ExponentPair(*p): w for p, w in weights.items()}, ()))


def test_coefficient_lookup_and_overlap():
    model = grid_factorial_model(6)
    assert model.coefficient(3, 4) == pytest.approx(1 / (math.factorial(3) * math.factorial(4)))
    assert model.coefficient(7, 0) == 0.0  # outside the encoded rows
    # overlapping generators sum: diagonal family twice, offset by one step
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 1)), ExponentFamily((1, 1), (1, 1))])
    rule = WeightRule({}, (FamilyWeight(1.0, 1.0), FamilyWeight(1.0, 1.0)))
    model = CoefficientModel(spec, rule)
    assert model.coefficient(1, 1) == pytest.approx(1.0 / 1 + 1.0)  # s=1 on first, s=0 on second


def test_eval_at_zero_is_origin_weight():
    assert eval_kernel(grid_factorial_model(8), 0, 1e-12) == 1
    assert eval_kernel(diagonal_factorial_model(), 0, 1e-12) == 1


def test_eval_diagonal_is_exp_of_modulus_squared():
    model = diagonal_factorial_model()
    a = np.exp(1.3j)  # |a| = 1
    direct = sum(abs(a) ** (2 * k) / math.factorial(k) for k in range(60))
    val = eval_kernel(model, a, 1e-13)
    assert val == pytest.approx(direct, abs=1e-13)
    assert val == pytest.approx(math.e, abs=1e-12)


def test_eval_conjugate_pair():
    model = random_weights(np.random.default_rng(0), random_spec(np.random.default_rng(1), max_stride=2))
    a = 0.7 - 1.2j
    assert eval_kernel(model, np.conj(a), 1e-13) == np.conj(eval_kernel(model, a, 1e-13))


def test_eval_rejects_bad_tol():
    with pytest.raises(ValueError):
        eval_kernel(diagonal_factorial_model(), 1.0, 0.0)


def test_eval_truncation_certificate():
    model = grid_factorial_model(10)
    a = 1.1 + 0.4j
    tol = 1e-6
    prev = eval_kernel(model, a, tol)
    for _ in range(8):
        tol /= 2
        cur = eval_kernel(model, a, tol)
        assert abs(cur - prev) <= 2 * tol
        prev = cur


def test_tail_mass_decreases_with_truncation():
    model = grid_factorial_model(12)
    masses = [truncation_tail_mass(model, t, 1.0) for t in (4, 8, 16)]
    assert masses[0] > masses[1] > masses[2]
    # direct enumeration bound: mass at truncation 8 dominates the true tail
    true_tail = sum(
        model.coefficient(k, l)
        for k in range(13)
        for l in range(40)
        if k + l > 8
    )
    assert masses[1] >= true_tail


def test_inner_gram_examples():
    single = ComplexPointSet(np.array([[1.0, 0.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(inner_gram(single).entries, [[1.0]])

    ortho = ComplexPointSet(np.eye(2, dtype=complex))
    np.testing.assert_allclose(inner_gram(ortho).entries, np.eye(2))

    pts = ComplexPointSet(np.array([[1, 0], [1, 1]], dtype=complex))
    np.testing.assert_allclose(inner_gram(pts).entries, [[1, 1], [1, 2]])


def test_kernel_gram_constant_model():
    model = point_model({(0, 0): 1.0})
    g = GramMatrix(np.array([[0.3, 0.1j], [-0.1j, 0.8]]))
    out = kernel_gram(model, g, 1e-12)
    np.testing.assert_allclose(out.entries, np.ones((2, 2)), atol=1e-12)


def test_kernel_gram_identity_model():
    model = point_model({(1, 0): 1.0})
    g = GramMatrix(np.array([[0.3, 0.1j], [-0.1j, 0.8]]))
    out = kernel_gram(model, g, 1e-12)
    np.testing.assert_allclose(out.entries, g.entries, atol=1e-12)


def test_kernel_gram_diagonal_on_ones():
    # every entry is f(1) = e for the diagonal factorial model
    model = diagonal_factorial_model()
    expected = eval_kernel(model, 1.0, 1e-13)
    g = GramMatrix(np.ones((3, 3), dtype=complex))
    out = kernel_gram(model, g, 1e-13)
    np.testing.assert_allclose(out.entries, expected * np.ones((3, 3)), atol=1e-12)
    assert hermitian_eigen(out.entries, 1e-12).verdict == POSITIVE_SEMIDEFINITE


def test_kernel_gram_rejects_non_hermitian():
    model = diagonal_factorial_model()
    with pytest.raises(ValueError, match="Hermitian"):
        kernel_gram(model, GramMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])), 1e-12)





def test_schur_product_examples():
    ones = GramMatrix(np.ones((3, 3), dtype=complex))
    np.testing.assert_allclose(schur_product(ones, ones).entries, np.ones((3, 3)))

    rng = np.random.default_rng(6)
    a = GramMatrix(random_psd(rng, 3))
    diag = schur_product(GramMatrix(np.eye(3, dtype=complex)), a)
    np.testing.assert_allclose(diag.entries, np.diag(np.diag(a.entries)))
    assert hermitian_eigen(diag.entries, 1e-12).verdict != INDEFINITE

    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    had = schur_product(GramMatrix(np.outer(v, np.conj(v))), GramMatrix(np.outer(w, np.conj(w))))
    np.testing.assert_allclose(had.entries, np.outer(v * w, np.conj(v * w)), atol=1e-12)
    assert hermitian_eigen(had.entries, 1e-12).verdict != INDEFINITE


def test_schur_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        schur_product(GramMatrix(np.eye(2)), GramMatrix(np.eye(3)))


def test_conjugate_model_gram():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        model = random_weights(rng, random_spec(rng, max_stride=2), rho_hi=0.5)
        raw = random_psd(rng, n, n)
        g = GramMatrix(raw / max(1.0, float(np.abs(raw).max())))
        kg = kernel_gram(model, g, 1e-13)
        cg = kernel_gram(conjugate_model(model), g, 1e-13)
        assert np.abs(cg.entries - np.conj(kg.entries)).max() <= 1e-13


def test_model_json_round_trip():
    model = grid_factorial_model(3)
    obj = model_to_json(model)
    back = model_from_json(obj)
    assert back.spec == model.spec
    assert back.rule.family_weights == model.rule.family_weights
    assert back.rule.point_weights == model.rule.point_weights


def test_model_json_strictness():
    obj = model_to_json(unit_weights(ExponentSetSpec(points=[(0, 0)])))
    with pytest.raises(ValueError, match="unknown"):
        model_from_json({**obj, "bogus": []})
    missing = {k: v for k, v in obj.items() if k != "family_weights"}
    with pytest.raises(ValueError, match="missing"):
        model_from_json(missing)


def test_weight_validation():
    with pytest.raises(ValueError):
        FamilyWeight(0.0, 1.0)
    with pytest.raises(ValueError):
        WeightRule({ExponentPair(0, 0): -1.0}, ())
    spec = ExponentSetSpec(points=[(0, 0)], families=[ExponentFamily((1, 0), (1, 0))])
    with pytest.raises(ValueError, match="align"):
        CoefficientModel(spec, WeightRule({ExponentPair(0, 0): 1.0}, ()))
    with pytest.raises(ValueError, match="cover"):
        CoefficientModel(spec, WeightRule({}, (FamilyWeight(1, 1),)))


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_check_truncation_certificate = full_level("truncation_certificate")
test_symmetry_invariants = full_level("symmetries")
test_cone_and_schur_closure = full_level("cone_closure")
test_kernel_gram_of_psd_stays_psd = full_level("kernel_gram_psd")
