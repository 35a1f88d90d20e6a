"""Coefficient models, certified evaluation, Gram assembly."""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermpd.exponents import ExponentFamily, ExponentPair, ExponentSetSpec, even_difference_spec
from hermpd.kernel import (
    CoefficientModel,
    ComplexPointSet,
    FamilyWeight,
    GramMatrix,
    KernelRangeError,
    WeightRule,
    conjugate_model,
    diagonal_factorial_model,
    eval_kernel,
    grid_factorial_model,
    inner_gram,
    kernel_gram,
    kernel_values,
    schur_product,
    truncation_tail_mass,
    unit_weights,
)
from hermpd.linalg import INDEFINITE, POSITIVE_SEMIDEFINITE, hermitian_eigen
from hermpd.oracle import quadratic_form
from hermpd.sampling import random_psd, random_spec, random_weights
from hermpd.schema import model_from_json, model_to_json, points_from_json
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


def steep_stride4_case(seed):
    """2-7 points in C^1..C^3 with coordinates of modulus at most 1.7, and the model
    1 + sum_t rho^t / t! z^(k t) conj(z)^(4 t), whose values grow fast enough
    to amplify any rounding asymmetry of the inner Gram."""
    rng = np.random.default_rng(seed)
    spec = ExponentSetSpec(points=[(0, 0)], families=[ExponentFamily((0, 0), (int(rng.integers(0, 5)), 4))])
    model = CoefficientModel(spec, WeightRule({(0, 0): 1.0}, (FamilyWeight(1.0, float(rng.uniform(0.5, 0.8))),)))
    n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    pts = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return model, ComplexPointSet(pts * (rng.uniform(1.0, 1.7) / np.abs(pts).max()))


def test_inner_gram_is_exactly_hermitian():
    # p @ p^H differs from its conjugate transpose in the last bits for 218 of
    # these 400 sets, and kernel_gram refused 7 of them while inner_gram
    # returned it unmirrored ("kernel Gram defect 1.052e+106 exceeds 3.853e+105")
    for seed in range(400):
        model, pts = steep_stride4_case(seed)
        g = inner_gram(pts).entries
        raw = pts.points @ pts.points.conj().T
        assert np.array_equal(g, g.conj().T) and not g.diagonal().imag.any()
        assert np.array_equal(np.triu(g, 1), np.triu(raw, 1))
        try:
            kg = kernel_gram(model, inner_gram(pts), 1e-10)
        except KernelRangeError:
            continue  # values past double range: refused for that reason alone
        assert np.array_equal(kg.entries, kg.entries.conj().T)


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


def test_weights_must_be_finite():
    for w, rho in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            FamilyWeight(w, rho)
    with pytest.raises(ValueError, match=r"point weight at \(0, 0\)"):
        WeightRule({ExponentPair(0, 0): math.inf}, ())


def test_json_refuses_non_finite_numbers():
    obj = model_to_json(unit_weights(ExponentSetSpec(points=[(0, 0)], families=[ExponentFamily((0, 0), (1, 1))])))
    with pytest.raises(ValueError, match="family weight 0 rho must be a finite number"):
        model_from_json({**obj, "family_weights": [{"w": 1.0, "rho": math.nan}]})
    with pytest.raises(ValueError, match=r"point weight at \[0, 0\] must be a finite number"):
        model_from_json({**obj, "point_weights": [[0, 0, 10**400]]})
    points = {"dimension": 1, "points": [[[0.5, 0.0]], [[0.1, -math.inf]]]}
    with pytest.raises(ValueError, match="coordinate of point 1 must be a finite number"):
        points_from_json(points)


def test_overflow_is_a_typed_refusal():
    model = diagonal_factorial_model()
    assert eval_kernel(model, 26.0, 1e-10).real > 1e293  # exp(676) still fits a double
    for a in (27.0, 1e200 + 1e200j):
        with pytest.raises(KernelRangeError, match=r"overflows double precision at \|a\| = "):
            eval_kernel(model, a, 1e-10)
    for a in (math.inf, math.nan):
        with pytest.raises(KernelRangeError, match="must be finite"):
            eval_kernel(model, a, 1e-10)
    with pytest.raises(KernelRangeError, match="at radius 1000"):
        truncation_tail_mass(model, 24, 1e3)
    # z = rho |a|^2 = inf once made a series cut loop run forever
    huge_rho = unit_weights(diagonal_factorial_model().spec, rho=1e300)
    with pytest.raises(KernelRangeError, match=r"kernel series overflows double precision at \|a\| = 100000"):
        eval_kernel(huge_rho, 1e5, 1e-10)


def _tail_mass_mpmath(model, truncation, radius):
    """truncation_tail_mass's closed form, evaluated at 50 digits."""
    with mpmath.workdps(50):
        r = mpmath.mpf(radius)
        mass = mpmath.fsum(w * r ** (p.k + p.l) for p, w in model.rule.point_weights.items() if p.k + p.l > truncation)
        for fam, fw in zip(model.spec.families, model.rule.family_weights):
            deg0 = fam.start.k + fam.start.l
            first = 0 if deg0 > truncation else (truncation - deg0) // (fam.step.k + fam.step.l) + 1
            x = fw.rho * r ** (fam.step.k + fam.step.l)
            mass += fw.w * r**deg0 * x**first / mpmath.factorial(first) * mpmath.exp(x)
        return mass


def test_tail_mass_past_factorial_range():
    # first! leaves double range from first = 171; at radius 30, x**first
    # itself overflows at first = 401, although every bound here fits
    axis = unit_weights(ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0)), ExponentFamily((0, 0), (0, 1))]))
    for model, radius in ((diagonal_factorial_model(), 2.0), (axis, 30.0)):
        for truncation in (170, 171, 400):
            bound = truncation_tail_mass(model, truncation, radius)
            exact = _tail_mass_mpmath(model, truncation, radius)
            assert 1e-300 < exact < 1 and abs(bound - exact) <= 1e-9 * exact, (truncation, radius)


def test_tail_mass_saturation_is_refused():
    # with both family weights at 1e300 the bound saturates to inf at radius 5
    # without an OverflowError; a finite bound keeps its bytes
    model = unit_weights(even_difference_spec(), w=1e300)
    assert truncation_tail_mass(model, 4, 3.0) == 1.9690493944008185e306
    with pytest.raises(KernelRangeError, match=r"at radius 5 \(truncation 4\)"):
        truncation_tail_mass(model, 4, 5.0)


# --- kernel_values against eval_kernel ----------------------------------------

def entry_loop(model, args, tol):
    return np.array([eval_kernel(model, a, tol) for a in np.ravel(args)], dtype=complex).reshape(np.shape(args))


def refusal(evaluate):
    """The message of the KernelRangeError evaluate raises, or its value."""
    try:
        return evaluate()
    except KernelRangeError as exc:
        return str(exc)


@pytest.mark.parametrize("far", [30.0, 1e5, 1e200, math.inf, math.nan])
def test_kernel_values_refuse_like_eval_kernel(far):
    # the array body refuses with eval_kernel's message at the first entry
    # eval_kernel refuses, and elsewhere agrees with it far inside the contract
    rng = np.random.default_rng(7)
    for model in (grid_factorial_model(16), diagonal_factorial_model(), unit_weights(diagonal_factorial_model().spec, rho=1e300)):
        args = np.concatenate([rng.random(150) + 0j, [far * 1j, far], rng.random(20) * far])
        pts = np.concatenate([rng.random(14) * 0.5, [far]]) + 0j
        with np.errstate(over="ignore", invalid="ignore"):  # z_r conj(z_s) overflows
            gram = np.array([[r * np.conj(s) for s in pts] for r in pts])
            form = refusal(lambda: quadratic_form(model, pts, np.ones(15), 1e-10))
        expected = refusal(lambda: entry_loop(model, args, 1e-10))
        values = refusal(lambda: kernel_values(model, args, 1e-10))
        if isinstance(expected, str):
            assert values == expected
        else:
            np.testing.assert_allclose(values, expected, rtol=1e-13, atol=1e-13)
        expected = refusal(lambda: entry_loop(model, gram, 1e-10))
        if isinstance(expected, str):  # the form refuses where one of its kernel values does
            assert form == expected


def test_kernel_values_degenerate_inputs():
    model = grid_factorial_model(4)
    assert kernel_values(model, np.zeros((0, 3)), 1e-12).shape == (0, 3)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            kernel_values(model, [0.5] * 9, tol)
    # an empty model, and one with an exponent past CPython's binary powering,
    # per entry and on arrays
    empty = CoefficientModel(ExponentSetSpec(), WeightRule({}, ()))
    for args in ([0.5, 2j], [0.5, 2j] * 5):
        assert kernel_values(empty, args, 1e-12).tolist() == [0j] * len(args)
        with pytest.raises(KernelRangeError, match=r"must be finite, got \(inf\+0j\)"):
            kernel_values(empty, args + [math.inf], 1e-12)  # a constant value once hid it on arrays
    high = point_model({(101, 0): 1.0, (0, 0): 1.0})
    for args in ([0.9, 0.99j, -0.5], [0.9, 0.99j, -0.5] * 4):
        for a, value in zip(args, kernel_values(high, args, 1e-12)):
            assert abs(mpmath.mpc(value.real, value.imag) - kernel_mpmath(high, complex(a))) <= 1e-12


# --- the certified bound against a 50-digit reference -------------------------

def kernel_mpmath(model, a):
    """f(a) in closed form at 50 digits: each family sums to
    w a^k0 conj(a)^l0 exp(rho a^dk conj(a)^dl)."""
    with mpmath.workdps(50):
        z = mpmath.mpc(a.real, a.imag)
        zc = mpmath.conj(z)
        value = mpmath.fsum(w * z**p.k * zc**p.l for p, w in model.rule.point_weights.items())
        for fam, fw in zip(model.spec.families, model.rule.family_weights):
            step = fw.rho * z**fam.step.k * zc**fam.step.l
            value += fw.w * z**fam.start.k * zc**fam.start.l * mpmath.exp(step)
        return value


def test_certified_bound_against_mpmath():
    rng = np.random.default_rng(2026)
    golden = model_from_json(json.loads((Path(__file__).parent / "golden" / "model_random.json").read_text(encoding="utf-8")))
    models = [grid_factorial_model(16), diagonal_factorial_model(), golden]
    models += [random_weights(rng, random_spec(rng, max_stride=1)) for _ in range(3)]
    args = 3.0 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    args = np.concatenate([args, [3.0, -3.0, 3j, 0.0]])
    for model in models:
        for tol in (1e-5, 1e-8):
            values = kernel_values(model, args, tol)
            for a, value in zip(args, values):
                exact = kernel_mpmath(model, complex(a))
                assert abs(mpmath.mpc(value.real, value.imag) - exact) <= tol, (model, a, tol)


def majorant_mpmath(model, a):
    """M(a) at 50 digits: sum_points w |a|^(k+l) + sum_families w |a|^(k0+l0) e^(Re z)."""
    with mpmath.workdps(50):
        z = mpmath.mpc(a.real, a.imag)
        r = abs(z)
        mass = mpmath.fsum(w * r ** (p.k + p.l) for p, w in model.rule.point_weights.items())
        for fam, fw in zip(model.spec.families, model.rule.family_weights):
            step = fw.rho * z**fam.step.k * mpmath.conj(z) ** fam.step.l
            mass += fw.w * r ** (fam.start.k + fam.start.l) * mpmath.exp(step.real)
        return mass


def golden_model(name):
    return model_from_json(json.loads((Path(__file__).parent / "golden" / name).read_text(encoding="utf-8")))


AXIS_MODEL = unit_weights(ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0)), ExponentFamily((0, 0), (0, 1))]))
CONTRACT_MODELS = [grid_factorial_model(16), diagonal_factorial_model(), AXIS_MODEL]
CONTRACT_MODELS += [golden_model("model_random.json"), golden_model("model_even.json")]


def argument(modulus, kind, phase):
    """a < 0, a^2 < 0 (a on the imaginary axis) or any phase: the first two
    make the terms of the series cancel."""
    if kind == "any":
        return modulus * cmath.exp(2j * math.pi * phase)
    return complex(-modulus, 0.0) if kind == "negative" else complex(0.0, modulus)


def assert_within_contract(model, a, value, tol):
    exact = kernel_mpmath(model, a)
    error = abs(mpmath.mpc(value.real, value.imag) - exact)
    assert error <= tol * max(1, majorant_mpmath(model, a)), (a, value, exact, tol)


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(CONTRACT_MODELS)),
    seed=st.integers(0, 2**32 - 1),
    draws=st.lists(
        st.tuples(st.floats(0.0, 30.0), st.sampled_from(["negative", "imaginary", "any"]), st.floats(0.0, 1.0)),
        min_size=8,
        max_size=12,
    ),
    log_tol=st.floats(-12.0, -6.0),
)
def test_contract_against_mpmath(index, seed, draws, log_tol):
    # |F - f(a)| <= tol max(1, M(a)), or KernelRangeError, per entry and on arrays
    if index < len(CONTRACT_MODELS):
        model = CONTRACT_MODELS[index]
    else:
        rng = np.random.default_rng(seed)
        model = random_weights(rng, random_spec(rng, max_stride=2))
    tol = 10.0**log_tol
    args = [argument(*draw) for draw in draws]
    for a in args:
        try:
            value = eval_kernel(model, a, tol)
        except KernelRangeError:
            continue
        assert_within_contract(model, a, value, tol)
    try:
        values = kernel_values(model, args, tol)
    except KernelRangeError:
        return
    for a, value in zip(args, values):
        assert_within_contract(model, a, complex(value), tol)


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_check_truncation_certificate = full_level("truncation_certificate")
test_symmetry_invariants = full_level("symmetries")
test_cone_and_schur_closure = full_level("cone_closure")
test_kernel_gram_of_psd_stays_psd = full_level("kernel_gram_psd")
