"""Dense complex Hermitian numerics with explicit relative tolerances.

Rank decisions throughout the package use one scale convention, the maximum
absolute row sum, so that ranks agree across modules.  Every spectrum comes
from ``hermitian_eigen``; it and ``rank_factor`` share one guard, refusing a
matrix whose Hermitian defect max|A - A^H| exceeds eps * scale.  Returned
vectors are phase-normalized (first significant component real positive) to
make results comparable by equality instead of up to a unit scalar.

Pairwise gaps come from ``closest_pair``: the distance between two rows is
the largest coordinate modulus of their difference, each modulus taken with
``np.hypot`` so that it equals scalar ``abs`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def row_sum_scale(a) -> float:
    """Max absolute row sum; the shared scale for relative thresholds."""
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def hermitian_defect(a) -> float:
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def hermitian_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2.0


def phase_normalize(v, rel: float = 1e-12) -> np.ndarray:
    """Rotate v by a unit scalar so its first significant entry is real positive."""
    v = np.asarray(v, dtype=complex).copy()
    mags = np.abs(v)
    if not mags.size or mags.max() == 0.0:
        return v
    j = int(np.argmax(mags > rel * mags.max()))
    v *= np.conj(v[j]) / mags[j]
    v[j] = mags[j]
    return v


POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class HermitianSpectrum:
    eigenvalues: np.ndarray  # ascending
    scale: float
    verdict: str  # POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE or INDEFINITE

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class RankFactorization:
    """A = factor^T conj(factor) with factor of shape (rank, n)."""

    rank: int
    factor: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.factor.T @ np.conj(self.factor)


def _hermitian_guard(a, tol: float) -> tuple[np.ndarray, float]:
    """The square complex matrix and its scale; refuses a defect above tol * scale."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = row_sum_scale(a)
    defect = hermitian_defect(a)
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance: defect {defect:.3e} > {tol:.1e} * {scale:.3e}")
    return a, scale


def hermitian_eigen(a, eps: float) -> HermitianSpectrum:
    """Ascending real spectrum of the Hermitian part of a, with its verdict.

    positive_definite when the least eigenvalue exceeds eps * scale,
    positive_semidefinite when it is at least -eps * scale, indefinite
    otherwise.
    """
    if eps <= 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    a, scale = _hermitian_guard(a, eps)
    lam = np.linalg.eigvalsh(hermitian_part(a))
    if lam[0] > eps * scale:
        verdict = POSITIVE_DEFINITE
    elif lam[0] >= -eps * scale:
        verdict = POSITIVE_SEMIDEFINITE
    else:
        verdict = INDEFINITE
    return HermitianSpectrum(lam, scale, verdict)


def rank_factor(a, tol: float) -> RankFactorization:
    """Rank-revealing factorization A = C^T conj(C) of a PSD matrix.

    Eigenvalues in [-tol*scale, tol*scale] are treated as zero; anything
    below -tol*scale rejects the input as indefinite.
    """
    a, scale = _hermitian_guard(a, tol)
    w, u = np.linalg.eigh(hermitian_part(a))
    if w[0] < -tol * scale:
        raise ValueError(f"matrix is indefinite beyond tolerance: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    keep = w > tol * scale
    c = np.sqrt(w[keep])[:, None] * u[:, keep].T
    return RankFactorization(int(keep.sum()), c)


def closest_pair(rows) -> tuple[float, int, int]:
    """(gap, i, j) for the closest pair i < j of the rows of an (n, m) array.

    Ties go to the lexicographically first pair; pairs at a NaN distance are
    skipped.  Without a comparable pair the result is (inf, 0, 0).
    """
    rows = np.asarray(rows, dtype=complex)
    n = rows.shape[0]
    if n < 2:
        return math.inf, 0, 0
    dist = np.zeros((n, n))
    for col in rows.T:  # one coordinate at a time keeps memory at O(n^2)
        diff = col[:, None] - col[None, :]
        np.maximum(dist, np.hypot(diff.real, diff.imag), out=dist)
    dist[np.isnan(dist)] = math.inf
    np.fill_diagonal(dist, math.inf)
    i, j = divmod(int(dist.argmin()), n)
    return float(dist[i, j]), i, j


def nullspace_vector(m, tol: float) -> Optional[np.ndarray]:
    """Unit-norm c with ||M c|| <= tol * scale, when numerical rank < columns.

    Returns None for numerically full column rank.  The vector is
    phase-normalized.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    ncols = m.shape[1]
    if ncols == 0:
        return None
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int((s > tol * row_sum_scale(m)).sum())
    if rank >= ncols:
        return None
    return phase_normalize(np.conj(vh[-1]))


def unitary_complete(v) -> np.ndarray:
    """Unitary matrix (V V^H = I) whose first row is the given unit vector.

    Remaining rows are a deterministic orthonormal completion from a
    Householder QR, each phase-normalized.
    """
    v = np.asarray(v, dtype=complex).ravel()
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"input must be a unit vector, got norm {nrm!r}")
    m = v.size
    basis = np.eye(m, dtype=complex)
    basis[:, 0] = v
    q, _ = np.linalg.qr(basis)
    rot = np.vdot(q[:, 0], v)  # unit scalar aligning the QR column with v
    q[:, 0] *= rot / abs(rot)
    out = q.T.copy()
    out[0] = v
    for i in range(1, m):
        out[i] = phase_normalize(out[i])
    return out
