"""Coefficient models, certified evaluation, Gram assembly."""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermpd.kernel
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
    scalar_points,
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


def test_series_cut_always_ends():
    # x = rho |a|^2 = inf: math.exp(inf) does not raise, so the cut loop never ended
    huge_rho = unit_weights(diagonal_factorial_model().spec, rho=1e300)
    with pytest.raises(KernelRangeError, match=r"at \|a\| = 100000"):
        eval_kernel(huge_rho, 1e5, 1e-10)
    # tol / 2 underflows to 0, where the cut loop compared 0 >= 0 forever
    two = unit_weights(ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 1)), ExponentFamily((0, 0), (2, 0))]))
    assert abs(eval_kernel(two, 0.5, 5e-324) - (math.exp(0.25) + math.exp(0.25))) < 1e-15


# --- the array evaluator against the scalar one, bit for bit ------------------

SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1, -1, 1j, -1j, 1e-300, -1e-300j]


def outcome(evaluate):
    """The bits of a complex or float result, or the error it raised."""
    try:
        return np.asarray(evaluate()).view(np.uint64).tolist()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def entry_loop(model, args, tol):
    return np.array([eval_kernel(model, a, tol) for a in np.ravel(args)], dtype=complex).reshape(np.shape(args))


def quadratic_form_loop(model, points, c, tol):
    """quadratic_form's value over the kernel matrix of the double loop it
    replaced."""
    pts = np.asarray(points, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    n = pts.size
    kmat = np.empty((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(n):
            for s in range(n):
                kmat[r, s] = eval_kernel(model, pts[r] * np.conj(pts[s]), tol)
        value = c @ kmat @ np.conj(c)
    if not np.isfinite(value):
        raise KernelRangeError(f"quadratic form overflows double precision on {n} points")
    return float(value.real)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(0.0, 3.0),
    picks=st.lists(st.sampled_from(SPECIAL), max_size=6),
    tol=st.sampled_from([1e-13, 1e-10, 1e-6]),
    high=st.sampled_from([None, 63, 95, 100]),
    overflow=st.booleans(),
)
def test_kernel_values_bitwise(seed, radius, picks, tol, high, overflow):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, max_stride=4)
    if high is not None:  # powers with many set bits, formed from the kept ones
        points = {(high, 0), (1, high - 1), *spec.points}
        families = {ExponentFamily((0, high), (1, 0)), ExponentFamily((2, 0), (0, high)), *spec.families}
        spec = ExponentSetSpec(sorted(points), sorted(families, key=repr), spec.require_origin)
    model = random_weights(rng, spec)
    z = radius * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    # an argument of modulus 3e4 overflows a power or a series bound
    far = [3e4 * np.exp(2j * np.pi * rng.random())] if overflow else []
    args = np.concatenate([z, z.real + 0j, 1j * z.imag, picks, far])
    assert hermpd.kernel._array_path(model, args.size)  # the array path runs
    assert outcome(lambda: kernel_values(model, args, tol)) == outcome(lambda: entry_loop(model, args, tol))
    # a Hermitian argument matrix, evaluated on its upper triangle
    # 20 points: their 210 upper-triangle entries take the array path for
    # every model, one without families too
    pts = z[:20]
    gram = inner_gram(scalar_points(pts)).entries
    assert outcome(lambda: kernel_values(model, gram, tol)) == outcome(lambda: entry_loop(model, gram, tol))
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert outcome(lambda: quadratic_form(model, pts, c, tol)) == outcome(lambda: quadratic_form_loop(model, pts, c, tol))


@pytest.mark.parametrize("far", [30.0, 1e5, 1e200, math.inf, math.nan])
def test_kernel_values_refuse_like_eval_kernel(far):
    rng = np.random.default_rng(7)
    for model in (grid_factorial_model(16), diagonal_factorial_model(), unit_weights(diagonal_factorial_model().spec, rho=1e300)):
        args = np.concatenate([rng.random(150) + 0j, [far * 1j, far], rng.random(20) * far])
        assert outcome(lambda: kernel_values(model, args, 1e-10)) == outcome(lambda: entry_loop(model, args, 1e-10))
        pts = np.concatenate([rng.random(14) * 0.5, [far]])
        c = np.ones(15)
        with np.errstate(over="ignore", invalid="ignore"):  # z_r conj(z_s) overflows
            form = outcome(lambda: quadratic_form(model, pts, c, 1e-10))
        assert form == outcome(lambda: quadratic_form_loop(model, pts, c, 1e-10))


def test_kernel_values_degenerate_inputs(monkeypatch):
    monkeypatch.setattr(hermpd.kernel, "ARRAY_CROSSOVER", 1)
    model = grid_factorial_model(4)
    assert kernel_values(model, np.zeros((0, 3)), 1e-12).shape == (0, 3)
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            kernel_values(model, [0.5], tol)
    # an empty model, and one with an exponent past CPython's binary powering
    assert kernel_values(CoefficientModel(ExponentSetSpec(), WeightRule({}, ())), [0.5, 2j], 1e-12).tolist() == [0j, 0j]
    high = point_model({(101, 0): 1.0, (0, 0): 1.0})
    args = np.array([0.9, 0.99j, -0.5])
    assert outcome(lambda: kernel_values(high, args, 1e-12)) == outcome(lambda: entry_loop(high, args, 1e-12))


# --- series passes: the next term of every family at once ------------------

def five_step_model(rng) -> CoefficientModel:
    """Five families with five distinct steps, the origin and one more point."""
    shapes = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (2, 0)), ((1, 0), (0, 2))]
    spec = ExponentSetSpec(points=[(0, 0), (2, 1)], families=[ExponentFamily(a, b) for a, b in shapes])
    return random_weights(rng, spec)


def pass_points(rng, n):
    """n - 2 points of modulus 0.4..0.95 and two of modulus 1.1..1.3."""
    radius = np.concatenate([0.4 + 0.55 * rng.random(n - 2), 1.1 + 0.2 * rng.random(2)])
    return radius * np.exp(2j * np.pi * rng.random(n))


@pytest.fixture
def pass_sizes(monkeypatch):
    """The family count of every series pass kernel_values makes."""
    sizes = []
    add_pass = hermpd.kernel._add_pass

    def counted(total, monomial, fams, cuts):
        sizes.append(len(fams))
        add_pass(total, monomial, fams, cuts)

    monkeypatch.setattr(hermpd.kernel, "_add_pass", counted)
    return sizes


def assert_passes_bitwise(model, pts, tols, rng):
    gram = inner_gram(scalar_points(pts)).entries
    for tol in tols:
        assert outcome(lambda: kernel_values(model, gram, tol)) == outcome(lambda: entry_loop(model, gram, tol))
    c = rng.standard_normal(pts.size) + 1j * rng.standard_normal(pts.size)
    assert outcome(lambda: quadratic_form(model, pts, c, tols[0])) == outcome(lambda: quadratic_form_loop(model, pts, c, tols[0]))


@pytest.mark.parametrize("n", [8, 16, 22, 30])  # 36 to 465 Gram entries
@pytest.mark.parametrize("name", ["grid16", "five_steps"])
def test_series_passes_bitwise(name, n, pass_sizes, monkeypatch):
    monkeypatch.setattr(hermpd.kernel, "ARRAY_CROSSOVER", 1)
    rng = np.random.default_rng(n)
    model = grid_factorial_model(16) if name == "grid16" else five_step_model(rng)
    assert_passes_bitwise(model, pass_points(rng, n), (1e-12, 1e-10), rng)
    assert max(pass_sizes) > 1  # families formed together


def test_series_passes_one_family_each_at_2080_entries(pass_sizes):
    rng = np.random.default_rng(64)
    assert_passes_bitwise(grid_factorial_model(16), pass_points(rng, 64), (1e-12,), rng)
    assert set(pass_sizes) == {1}


def test_series_passes_mask_out_of_order_cuts(monkeypatch, pass_sizes):
    # a cut one step higher at about every third |a| stands in for rounding
    # that breaks the order of a family's cuts by |a|; eval_kernel takes the
    # same cuts, so the values must still agree bit for bit
    series_cut = hermpd.kernel._series_cut
    unordered = []

    def bumped(r, deg0, step_deg, fw, budget):
        return series_cut(r, deg0, step_deg, fw, budget) + (hash(r) % 3 == 0)

    def cuts(r, fams, budget):
        out = np.empty((len(fams), r.size), dtype=np.intp)
        for f, (fam, fw) in enumerate(fams):
            deg0, step_deg = fam.start.k + fam.start.l, fam.step.k + fam.step.l
            for i, radius in enumerate(r.tolist()):
                try:
                    out[f, i] = bumped(radius, deg0, step_deg, fw, budget)
                except OverflowError:
                    out[f, i] = -1
        unordered.append(bool((out[:, :-1] < out[:, 1:]).any()))
        return out

    monkeypatch.setattr(hermpd.kernel, "_series_cut", bumped)
    monkeypatch.setattr(hermpd.kernel, "_array_cuts", cuts)
    rng = np.random.default_rng(3)
    assert_passes_bitwise(grid_factorial_model(16), pass_points(rng, 16), (1e-12,), rng)  # batched
    assert_passes_bitwise(diagonal_factorial_model(), pass_points(rng, 30), (1e-12,), rng)  # in place
    assert all(unordered) and 1 in pass_sizes and max(pass_sizes) > 1


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


def test_certified_bound_against_mpmath(monkeypatch):
    monkeypatch.setattr(hermpd.kernel, "ARRAY_CROSSOVER", 1)
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


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_check_truncation_certificate = full_level("truncation_certificate")
test_symmetry_invariants = full_level("symmetries")
test_cone_and_schur_closure = full_level("cone_closure")
test_kernel_gram_of_psd_stays_psd = full_level("kernel_gram_psd")
