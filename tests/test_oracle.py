"""Collocation ranks, strictness oracle, quadratic forms, modulus classes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermpd.exponents import ExponentFamily, ExponentSetSpec, full_grid_spec, members_upto
from hermpd.kernel import (
    diagonal_factorial_model,
    grid_factorial_model,
    KernelRangeError,
    inner_gram,
    kernel_gram,
    scalar_points,
    unit_weights,
)
from hermpd.linalg import POSITIVE_DEFINITE, hermitian_eigen, nullspace_vector, row_sum_scale
from hermpd.oracle import (
    TruncationGuardError,
    collocation,
    modulus_class_sums,
    monomial_table,
    power_sum_window,
    quadratic_form,
    strictness_oracle,
)
from hermpd.sampling import annulus_points, random_spec
from selftest_checks import full_level


def fourth_roots():
    return np.exp(2j * np.pi * np.arange(4) / 4)


def test_collocation_dft_full_rank():
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0))])
    coll = collocation(fourth_roots(), spec, truncation=3)
    assert coll.entries.shape == (4, 4)
    # oracle: the 4-point DFT matrix has all singular values exactly 2
    sing = np.linalg.svd(coll.entries, compute_uv=False)
    np.testing.assert_allclose(sing, 2.0, atol=1e-12)
    assert coll.rank == 4


def test_collocation_even_powers_rank_two():
    # z^k depends only on k mod 4 at the fourth roots of unity
    spec = ExponentSetSpec(points=[(0, 0), (2, 0)])
    assert collocation(fourth_roots(), spec, truncation=2).rank == 2
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (2, 0))])
    coll = collocation(fourth_roots(), spec, truncation=6)
    assert len(coll.exponents) == 4  # k = 0, 2, 4, 6
    assert coll.rank == 2


def test_collocation_single_point():
    spec = ExponentSetSpec(points=[(0, 0)])
    coll = collocation(np.array([1.0 + 0j]), spec, truncation=0)
    np.testing.assert_allclose(coll.entries, [[1.0]])
    assert coll.rank == 1


def test_collocation_rejects_bad_points():
    spec = full_grid_spec()
    with pytest.raises(ValueError, match="duplicate"):
        collocation(np.array([1.0, 1.0]), spec, truncation=4)
    with pytest.raises(ValueError, match="zero"):
        collocation(np.array([0.0, 1.0]), spec, truncation=4)


def test_collocation_rank_rotation_invariant():
    rng = np.random.default_rng(31)
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (3, 0)), ExponentFamily((1, 1), (1, 1))])
    pts = annulus_points(rng, 5)
    u = np.exp(0.91j)
    assert collocation(pts, spec, 12).rank == collocation(u * pts, spec, 12).rank


# --- the monomial table against the per-column expression it replaced ---------

def collocation_reference(pts, spec, truncation, tol=1e-10):
    """The entries and rank of collocation as its per-column comprehension
    computed them, or the error it raised."""
    cols = members_upto(spec, truncation)
    if not cols:
        return [], 0
    with np.errstate(all="ignore"):
        entries = np.stack([pts**k * np.conj(pts) ** l for k, l in cols], axis=1)
    if not np.isfinite(entries).all():
        radius = float(np.abs(pts).max())
        return f"collocation monomials overflow double precision at radius {radius:.6g} (truncation {truncation})"
    sing = np.linalg.svd(entries, compute_uv=False)
    return entries.view(np.uint64).tolist(), int((sing > tol * row_sum_scale(entries)).sum())


def modulus_class_sums_reference(pts, c, exponents):
    """The per-class sums as modulus_class_sums' per-exponent loop formed them."""
    moduli = np.abs(pts)
    classes: list[list[int]] = []
    for idx in np.argsort(moduli, kind="stable"):
        if classes and moduli[idx] - moduli[classes[-1][0]] <= 1e-12 * moduli[idx]:
            classes[-1].append(int(idx))
        else:
            classes.append([int(idx)])
    out = {}
    for members in classes:
        zs, cs = pts[members], c[members]
        with np.errstate(all="ignore"):
            sums = np.array([np.sum(cs * zs**k * np.conj(zs) ** l) for k, l in exponents])
        out[float(moduli[members[0]])] = sums.view(np.uint64).tolist() if sums.size else sums.tolist()
    return out


def sparse_spec(rng):
    """A random spec, with one sparse family such as step (5, 0) added at
    random."""
    spec = random_spec(rng, max_stride=int(rng.integers(1, 7)))
    if rng.random() < 0.5:
        start = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        step = [(5, 0), (0, 5), (7, 2), (1, 6)][int(rng.integers(0, 4))]
        extra = ExponentFamily(start, step)
        if extra not in spec.families:
            spec = ExponentSetSpec(spec.points, spec.families + (extra,), spec.require_origin)
    return spec


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    truncation=st.integers(0, 30),
    log_radius=st.floats(-3.0, 3.0),
    real=st.booleans(),
)
def test_collocation_entries_match_the_column_expression(seed, n, truncation, log_radius, real):
    rng = np.random.default_rng(seed)
    spec = sparse_spec(rng)
    pts = 10.0 ** rng.uniform(-3.0, log_radius, n) * np.exp(2j * np.pi * rng.random(n))
    if real:  # real points, some of them negative: zero imaginary parts
        pts = pts.real * (1 + rng.random(n)) + 0j
    pts = np.unique(pts)
    coll = collocation(pts, spec, truncation)
    assert (coll.entries.view(np.uint64).tolist() if coll.exponents else [], coll.rank) == collocation_reference(
        coll.points, spec, truncation
    )
    assert coll.entries.shape == (pts.size, len(coll.exponents)) and coll.entries.flags.c_contiguous
    table = monomial_table(pts, coll.exponents)
    assert table.shape == (len(coll.exponents), pts.size)
    assert np.array_equal(table.view(np.uint64), coll.entries.T.copy().view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), truncation=st.integers(20, 30), log_radius=st.floats(16.0, 300.0))
def test_collocation_overflow_refused_like_the_column_expression(seed, truncation, log_radius):
    rng = np.random.default_rng(seed)
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0)), ExponentFamily((1, 1), (5, 0))])
    scale = 10.0 ** rng.uniform(0.0, log_radius, 6)
    scale[0] = 10.0**log_radius
    pts = np.unique(annulus_points(rng, 6) * scale)
    expected = collocation_reference(pts, spec, truncation)
    assert isinstance(expected, str)  # z^truncation overflows at the largest point
    with np.errstate(all="ignore"), pytest.raises(KernelRangeError) as refused:
        collocation(pts, spec, truncation)
    assert str(refused.value) == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), classes=st.integers(1, 12), truncation=st.integers(0, 30))
def test_modulus_class_sums_match_the_per_exponent_loop(seed, n, classes, truncation):
    rng = np.random.default_rng(seed)
    moduli = 10.0 ** rng.uniform(-3.0, 3.0, classes)
    pts = moduli[rng.integers(0, classes, n)] * np.exp(2j * np.pi * rng.random(n))
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    exponents = members_upto(sparse_spec(rng), truncation)
    with np.errstate(all="ignore"):
        sums = modulus_class_sums(pts, c, exponents)
    got = {key: value.view(np.uint64).tolist() if value.size else value.tolist() for key, value in sums.items()}
    assert got == modulus_class_sums_reference(pts, c, exponents)
    assert all(value.dtype == (complex if exponents else float) for value in sums.values())


def test_points_are_checked_once_by_the_oracle(monkeypatch):
    # strictness_oracle's points are checked by its collocation call alone,
    # with collocation's messages
    import hermpd.oracle

    calls = []
    check = hermpd.oracle._check_points
    monkeypatch.setattr(hermpd.oracle, "_check_points", lambda points: calls.append(1) or check(points))
    model = diagonal_factorial_model()
    strictness_oracle(model, np.exp(1j * np.array([0.4, 2.0])), truncation=24, tol=1e-8)
    assert len(calls) == 1
    for bad, message in (([1.0, 1.0], "duplicate points at indices 0 and 1"), ([0.0, 1.0], "zero point"), ([], "at least one")):
        with pytest.raises(ValueError, match=message):
            strictness_oracle(model, np.array(bad), truncation=24, tol=1e-8)
        with pytest.raises(ValueError, match=message):
            collocation(np.array(bad), model.spec, 24)


def test_strictness_diagonal_witness():
    model = diagonal_factorial_model()
    pts = np.exp(1j * np.array([0.4, 2.0]))
    # the form vanishes, but with the tail past degree 20 its bound is 1.4e-7 > n^2 tol = 4e-8
    with pytest.raises(TruncationGuardError, match="cannot certify non-strictness"):
        strictness_oracle(model, pts, truncation=20, tol=1e-8)
    result = strictness_oracle(model, pts, truncation=24, tol=1e-8)
    assert not result.strict
    assert result.collocation_rank == 1
    np.testing.assert_allclose(np.abs(result.witness), np.ones(2) / np.sqrt(2), atol=1e-10)
    assert result.witness_form <= 4 * 1e-8


def test_strictness_full_grid_strict():
    rng = np.random.default_rng(32)
    model = grid_factorial_model(16)
    pts = annulus_points(rng, 6, lo=0.3, hi=0.9)
    result = strictness_oracle(model, pts, truncation=16, tol=1e-8)
    assert result.strict and result.collocation_rank == 6
    assert result.tail_mass < 1e-8
    gram = kernel_gram(model, inner_gram(scalar_points(pts)), 1e-12)
    assert hermitian_eigen(gram.entries, 1e-8).verdict == POSITIVE_DEFINITE


def test_strictness_single_point():
    model = unit_weights(ExponentSetSpec(points=[(0, 0)]))
    result = strictness_oracle(model, np.array([1.0 + 0j]), truncation=0, tol=1e-10)
    assert result.strict and result.collocation_rank == 1


def test_truncation_guard_refuses_heavy_tail():
    # distinct moduli make the diagonal kernel strict here, but rho = 1
    # leaves ~1/5! of the mass beyond truncation 8 at |z| = 1
    model = diagonal_factorial_model()
    pts = np.array([0.5, 0.8 * np.exp(1.2j), np.exp(2.6j)])
    with pytest.raises(TruncationGuardError):
        strictness_oracle(model, pts, truncation=8, tol=1e-10)


def test_quadratic_form_examples():
    model = unit_weights(ExponentSetSpec(points=[(0, 0)]))
    pts = np.array([0.5 + 0.1j, -0.7j, 1.1])
    assert quadratic_form(model, pts, np.zeros(3), 1e-12) == 0.0
    c = np.array([1.0, 1j, -0.5])
    # constant kernel: the form collapses to |sum c_r|^2
    assert quadratic_form(model, pts, c, 1e-12) == pytest.approx(abs(c.sum()) ** 2, abs=1e-12)
    with pytest.raises(ValueError, match="lengths"):
        quadratic_form(model, pts, np.ones(2), 1e-12)


def test_modulus_class_sums_single_class():
    pts = np.exp(1j * np.array([0.1, 1.7, 3.1]))
    c = np.array([1.0, -2.0, 0.5j])
    exps = [(0, 0), (1, 0), (2, 1)]
    sums = modulus_class_sums(pts, c, exps)
    assert len(sums) == 1
    totals = next(iter(sums.values()))
    for (k, l), total in zip(exps, totals):
        assert total == pytest.approx(np.sum(c * pts**k * np.conj(pts) ** l))


def test_modulus_class_sums_two_classes():
    # per-class annihilators over {(k, 0)}: each class is a small Vandermonde
    rng = np.random.default_rng(33)
    z1 = 0.5 * np.exp(2j * np.pi * rng.random(3))
    z2 = 1.3 * np.exp(2j * np.pi * rng.random(3))
    exps = [(k, 0) for k in range(4)]
    c1 = nullspace_vector(np.stack([z1**k for k in range(2)]), 1e-10)
    c2 = nullspace_vector(np.stack([z2**k for k in range(2)]), 1e-10)
    pts = np.concatenate([z1, z2])
    c = np.concatenate([c1, c2])
    window = [(k, 0) for k in range(2)]
    sums = modulus_class_sums(pts, c, window)
    assert len(sums) == 2
    for totals in sums.values():
        assert np.abs(totals).max() <= 1e-9
    total = sum(np.abs(np.sum(c * pts**k)) for k in range(2))
    assert total <= 2e-9


def test_modulus_class_sums_zero_coefficients():
    pts = np.array([0.5, 1.0 + 1j])
    sums = modulus_class_sums(pts, np.zeros(2), [(0, 0), (3, 2)])
    for totals in sums.values():
        assert np.abs(totals).max() == 0.0


def test_modulus_class_rejects_zero_point():
    with pytest.raises(ValueError, match="modulus"):
        modulus_class_sums(np.array([0.0, 1.0]), np.ones(2), [(0, 0)])


def test_window_width_sufficiency():
    # a window of m consecutive powers (m = number of distinct values) pins
    # the same nullspace as any longer window; m - 1 rows do not
    rng = np.random.default_rng(35)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        mult = [int(rng.integers(1, 4)) for _ in range(m)]
        values = annulus_points(rng, m, lo=0.5, hi=1.4, gap=0.1)
        w = np.concatenate([np.full(k, v) for v, k in zip(values, mult)])
        n = w.size

        def rank_of(width: int) -> int:
            mat = np.stack([w**j for j in range(width)])
            s = np.linalg.svd(mat, compute_uv=False)
            return int((s > 1e-10 * row_sum_scale(mat)).sum())

        assert rank_of(m) == m
        assert rank_of(2 * n) == m  # no new constraints past width m
        if m > 1:
            assert rank_of(m - 1) == m - 1


def test_power_sum_window():
    pts = np.array([0.5, 2.0 + 0j])
    c = np.array([1.0, 1.0])
    win = power_sum_window(pts, c, 2)
    assert win.value_at(0) == pytest.approx(2.0)
    assert win.value_at(1) == pytest.approx(2.5)
    assert win.value_at(-1) == pytest.approx(2.5)
    with pytest.raises(IndexError):
        win.value_at(3)


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_check_collocation_phase = full_level("collocation_phase")
test_per_class_decomposition_along_diagonal_windows = full_level("modulus_classes")
test_oracle_eigen_equivalence = full_level("oracle_eigen")
test_witness_validated_against_truncated_model = full_level("witness_validity")
