"""Collocation ranks, strictness oracle, quadratic forms, modulus classes."""

from __future__ import annotations

import numpy as np
import pytest

from hermpd.exponents import ExponentFamily, ExponentSetSpec, full_grid_spec
from hermpd.kernel import (
    diagonal_factorial_model,
    grid_factorial_model,
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
    power_sum_window,
    quadratic_form,
    strictness_oracle,
)
from hermpd.sampling import annulus_points
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
