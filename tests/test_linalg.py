"""Hermitian spectra, closest pairs, rank factorizations, nullspaces, unitary completions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hermpd.linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    closest_pair,
    hermitian_eigen,
    nullspace_vector,
    phase_normalize,
    rank_factor,
    row_sum_scale,
    unitary_complete,
)
from hermpd.sampling import random_psd
from selftest_checks import full_level


def test_eigen_diagonal():
    spec = hermitian_eigen(np.diag([3.0, 1.0, 2.0]), 1e-12)
    np.testing.assert_allclose(spec.eigenvalues, [1, 2, 3], atol=1e-12)


def test_eigen_all_ones():
    n = 5
    spec = hermitian_eigen(np.ones((n, n), dtype=complex), 1e-12)
    np.testing.assert_allclose(spec.eigenvalues, [0, 0, 0, 0, n], atol=1e-12)


def test_eigen_pauli_like():
    # characteristic polynomial lambda^2 - 4 lambda + 3 has roots 1 and 3
    a = np.array([[2, 1j], [-1j, 2]])
    spec = hermitian_eigen(a, 1e-12)
    np.testing.assert_allclose(spec.eigenvalues, [1, 3], atol=1e-12)


def test_eigen_verdicts():
    spec = hermitian_eigen(np.eye(3, dtype=complex), 1e-12)
    assert spec.verdict == POSITIVE_DEFINITE and spec.min == pytest.approx(1.0)
    spec = hermitian_eigen(np.ones((3, 3), dtype=complex), 1e-12)
    assert spec.verdict == POSITIVE_SEMIDEFINITE and spec.min == pytest.approx(0.0, abs=1e-12)
    assert hermitian_eigen(np.diag([1.0, -1.0]), 1e-12).verdict == INDEFINITE


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)
    # scale 0.5: a defect of 0.75 eps lies above eps * scale, so it is refused
    eps = 1e-10
    a = np.array([[0.5 - 0.75 * eps, 0.75 * eps], [0.0, 0.5]])
    assert row_sum_scale(a) == 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(a, eps)


def test_closest_pair():
    assert closest_pair(np.ones((1, 3))) == (math.inf, 0, 0)
    assert closest_pair(np.array([[1.0], [2.0], [3.0], [2.0], [1.0]])) == (0.0, 0, 4)
    assert closest_pair(np.array([[math.nan], [0.0], [0.5]])) == (0.5, 1, 2)
    # the gap of two scalars is exactly the scalar abs of their difference
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    assert all(closest_pair(pair[:, None])[0] == abs(pair[0] - pair[1]) for pair in z)


def test_eigen_residuals_at_size_64():
    rng = np.random.default_rng(0)
    a = random_psd(rng, 64) - 2 * np.eye(64)
    a = (a + a.conj().T) / 2
    spec = hermitian_eigen(a, 1e-12)
    w, v = np.linalg.eigh(a)
    np.testing.assert_allclose(spec.eigenvalues, w, atol=1e-12 * row_sum_scale(a))
    resid = np.abs(a @ v - v * w).max()
    assert resid <= 100 * 1e-12 * row_sum_scale(a)


def test_rank_factor_examples():
    fact = rank_factor(np.eye(2, dtype=complex), 1e-12)
    assert fact.rank == 2
    np.testing.assert_allclose(fact.reconstruct(), np.eye(2), atol=1e-12)

    fact = rank_factor(np.ones((3, 3), dtype=complex), 1e-12)
    assert fact.rank == 1
    row = phase_normalize(fact.factor[0])
    np.testing.assert_allclose(row, np.ones(3), atol=1e-12)

    rng = np.random.default_rng(1)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    fact = rank_factor(np.outer(z, np.conj(z)), 1e-12)
    assert fact.rank == 1


def test_rank_factor_rejects_indefinite():
    with pytest.raises(ValueError, match="indefinite"):
        rank_factor(np.diag([1.0, -1.0]), 1e-12)


def test_nullspace_examples():
    c = nullspace_vector(np.array([[1.0, 1.0]]), 1e-12)
    np.testing.assert_allclose(c, np.array([1, -1]) / np.sqrt(2), atol=1e-12)

    assert nullspace_vector(np.eye(3), 1e-12) is None

    # 2 equations at 3 distinct unit nodes: always underdetermined
    nodes = np.exp(2j * np.pi * np.array([0.1, 0.45, 0.8]))
    m = np.stack([nodes**0, nodes**1])
    c = nullspace_vector(m, 1e-12)
    assert c is not None
    assert np.linalg.norm(m @ c) <= 1e-12 * row_sum_scale(m)
    assert abs(np.linalg.norm(c) - 1) <= 1e-12


def test_nullspace_phase_is_deterministic():
    c = nullspace_vector(np.array([[1.0, 1j]]), 1e-12)
    first = c[np.argmax(np.abs(c) > 1e-12)]
    assert first.imag == 0 and first.real > 0


def test_unitary_complete_identity():
    v = np.zeros(4, dtype=complex)
    v[0] = 1
    np.testing.assert_allclose(unitary_complete(v), np.eye(4), atol=1e-12)


def test_unitary_complete_two_dims():
    v = np.array([1, 1]) / np.sqrt(2)
    u = unitary_complete(v)
    np.testing.assert_allclose(u[0], v, atol=0)
    np.testing.assert_allclose(u[1], np.array([1, -1]) / np.sqrt(2), atol=1e-12)


def test_unitary_complete_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        unitary_complete(np.array([1.0, 1.0]))


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_rank_factor_reconstruction_random = full_level("rank_factor")
test_nullspace_appending_image_preserves_rank = full_level("nullspace")
test_unitary_complete_random = full_level("unitary_complete")
