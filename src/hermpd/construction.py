"""Constructive procedures: Gram splits, block embeddings, and the explicit
point/coefficient configurations that annihilate every monomial of a
non-strict exponent set.

The annihilating configuration places N+1 base angles inside one sector of
width 2*pi/p and replicates them around the circle by the p-th roots of
unity.  Row coefficients solve a small exponential-sum system; column
coefficients are p-th roots of unity chosen so their character sum kills
every residue class except the failing one.  The product coefficients then
annihilate z^k conj(z)^l for every (k, l) in the set, which is exactly what
degeneracy of the kernel quadratic form requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import (
    CriterionVerdict,
    ExponentSetSpec,
    difference_profile,
    members_upto,
    membership,
)
from .kernel import ComplexPointSet, inner_gram
from .linalg import (
    INDEFINITE,
    closest_pair,
    hermitian_eigen,
    nullspace_vector,
    rank_factor,
    row_sum_scale,
    unitary_complete,
)


@dataclass(frozen=True)
class DecompositionResult:
    """Split <z^r, z^s> = z_r conj(z_s) + M_rs with distinct scalars z."""

    scalars: np.ndarray
    remainder: np.ndarray
    gap: float


def split_gram(pts: ComplexPointSet, seed: int = 0, tol: float = 1e-10) -> DecompositionResult:
    """Split the inner-product Gram of distinct points into a rank-one part
    with pairwise distinct scalars plus a Hermitian PSD remainder.

    The factor A = C^T conj(C) is projected onto a random unit direction v;
    the completion of v to a unitary with that first row supplies the
    remainder as a Gram matrix of the leftover rows, so it is PSD by
    construction.  Draws are seeded and retried (at most 64 times) until the
    projected scalars separate by more than tol.
    """
    if not pts.distinct:
        raise ValueError(f"points must be pairwise distinct (min gap {pts.min_gap!r})")
    a = inner_gram(pts).entries
    n = pts.n
    # distinct points can never produce identical Gram rows
    row_gap, i, j = closest_pair(a)
    if row_gap <= tol * row_sum_scale(a):
        raise ValueError(f"Gram rows {i} and {j} coincide; input points were not distinct")
    fact = rank_factor(a, tol)
    m, c = fact.rank, fact.factor
    if m == 0:
        # only possible for the single zero point
        return DecompositionResult(np.zeros(n, dtype=complex), a.copy(), math.inf)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        z = v @ c
        gap = closest_pair(z[:, None])[0]
        if gap <= tol:
            continue
        completion = unitary_complete(v)
        leftover = completion.copy()
        leftover[0] = 0
        b = leftover @ c
        remainder = b.T @ np.conj(b)
        result = DecompositionResult(z, remainder, gap)
        _validate_split(a, result, tol)
        return result
    raise RuntimeError(f"no separating direction found in 64 seeded draws (seed {seed})")


def _validate_split(a: np.ndarray, result: DecompositionResult, tol: float) -> None:
    scale = max(row_sum_scale(a), 1.0)
    recon = np.abs(a - (np.outer(result.scalars, np.conj(result.scalars)) + result.remainder)).max()
    if recon > 10 * tol * scale:
        raise RuntimeError(f"split reconstruction error {recon:.3e} exceeds {10 * tol * scale:.3e}")
    verdict = hermitian_eigen(result.remainder, tol).verdict
    if verdict == INDEFINITE:
        raise RuntimeError(f"split remainder is {verdict}")


def block_extend(a, coeff_a: complex, coeff_b: complex, tol: float = 1e-12) -> np.ndarray:
    """Embed a PSD matrix A into the 2n x 2n PSD matrix
    [[A+J, aA+bJ], [conj(a)A+conj(b)J, |a|^2 A+|b|^2 J]] with J all-ones.

    The output adds at most one to the rank of A; positive semidefiniteness
    of the result is verified, not assumed.
    """
    a = np.asarray(a, dtype=complex)
    if hermitian_eigen(a, tol).verdict == INDEFINITE:
        raise ValueError("input matrix is indefinite beyond tolerance")
    ca, cb = complex(coeff_a), complex(coeff_b)
    ones = np.ones_like(a)
    out = np.block(
        [
            [a + ones, ca * a + cb * ones],
            [np.conj(ca) * a + np.conj(cb) * ones, abs(ca) ** 2 * a + abs(cb) ** 2 * ones],
        ]
    )
    if hermitian_eigen(out, tol).verdict == INDEFINITE:
        raise RuntimeError("block embedding unexpectedly left the PSD cone")
    return out


# --- annihilating configurations ---------------------------------------------

def character_coefficients(p: int, q: int) -> np.ndarray:
    """d_t = exp(-2 pi i t q / p): sum_t d_t exp(2 pi i t s / p) is p at
    s = q mod p and exactly 0 at every other residue."""
    if p < 1 or not 0 <= q < p:
        raise ValueError(f"need p >= 1 and 0 <= q < p, got ({p}, {q})")
    t = np.arange(p)
    return np.exp(-2j * np.pi * t * q / p)


@dataclass(frozen=True)
class AnnihilationWitness:
    """Unit-circle points and coefficients annihilating every checked monomial.

    Points are ordered base-angle major: index (r, t) maps to r*p + t where
    r = 0..N and t = 0..p-1.  ``coefficients`` holds the products
    row_coefficients[r] * column_coefficients[t] in that order.
    """

    p: int
    q: int
    thetas: np.ndarray
    points: np.ndarray
    row_coefficients: np.ndarray
    column_coefficients: np.ndarray
    coefficients: np.ndarray
    max_residual: float


class OriginWitnessNeeded(ValueError):
    """The verdict fails only through the missing origin pair."""


def class_difference_values(spec: ExponentSetSpec, p: int, q: int) -> list[int]:
    """The integers a with q + a*p realized as a difference value of J.

    Requires the class (p, q) to meet no progression (which is what a failing
    verdict asserts); otherwise the value list would be infinite.
    """
    profile = difference_profile(spec)
    for offset, d in profile.progressions:
        if (q - offset) % math.gcd(abs(d), p) == 0:
            raise ValueError(f"residue class ({p}, {q}) meets progression {(offset, d)}; it is not a failing class")
    return sorted((v - q) // p for v in profile.isolated if v % p == q)


def build_counterexample(
    spec: ExponentSetSpec,
    verdict: CriterionVerdict,
    truncation: int = 24,
    tol: float = 1e-10,
) -> AnnihilationWitness:
    """Construct a distinct-point configuration annihilating every monomial
    of the exponent set, for a verdict failing at a residue class.

    With N difference values in the failing class, N+1 base angles
    theta_r = 2 pi r / (p (N+2)) fit strictly inside [0, 2 pi / p), so the
    p(N+1) replicated points are pairwise distinct.  Row coefficients come
    from the nullspace of the N x (N+1) exponential-sum system; column
    coefficients are the closed-form character coefficients.  Every monomial
    with k + l <= truncation is then checked to vanish within tol.
    """
    if verdict.holds:
        raise ValueError("criterion holds; no annihilating configuration exists")
    if verdict.failing_class is None:
        raise OriginWitnessNeeded("verdict fails only through the origin; use origin_counterexample")
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    p, q = verdict.failing_class
    shifts = class_difference_values(spec, p, q)
    n_vals = len(shifts)
    thetas = 2 * np.pi * np.arange(1, n_vals + 2) / (p * (n_vals + 2))
    exponents = q + np.asarray(shifts, dtype=float) * p
    system = np.exp(1j * np.outer(exponents, thetas))
    rows = nullspace_vector(system, tol)
    if rows is None:  # N equations never pin down N+1 unknowns
        raise RuntimeError("exponential-sum system unexpectedly had full column rank")
    cols = character_coefficients(p, q)
    angles = thetas[:, None] + 2 * np.pi * np.arange(p)[None, :] / p
    points = np.exp(1j * angles).ravel()
    coeffs = (rows[:, None] * cols[None, :]).ravel()
    max_residual = 0.0
    for k, l in members_upto(spec, truncation):
        val = np.sum(coeffs * points**k * np.conj(points) ** l)
        max_residual = max(max_residual, abs(val))
    if max_residual > tol:
        raise RuntimeError(f"witness residual {max_residual:.3e} exceeds tolerance {tol:.1e}")
    return AnnihilationWitness(
        p=p,
        q=q,
        thetas=thetas,
        points=points,
        row_coefficients=rows,
        column_coefficients=cols,
        coefficients=coeffs,
        max_residual=max_residual,
    )


def origin_counterexample(spec: ExponentSetSpec) -> tuple[complex, complex]:
    """The single-point configuration (z = 0, c = 1) that degenerates any
    kernel whose exponent set misses the origin pair."""
    if not spec.require_origin:
        raise ValueError("origin witness applies only when the origin pair is required")
    if membership(spec, (0, 0)):
        raise ValueError("exponent set contains the origin; the zero point annihilates nothing")
    return (0j, 1 + 0j)


# --- JSON ------------------------------------------------------------------

def witness_to_json(w: AnnihilationWitness) -> dict:
    return {
        "p": w.p,
        "q": w.q,
        "thetas": [float(t) for t in w.thetas],
        "points": [[float(z.real), float(z.imag)] for z in w.points],
        "coeffs": [[float(c.real), float(c.imag)] for c in w.coefficients],
        "max_residual": w.max_residual,
    }


def origin_witness_to_json(point: complex, coeff: complex) -> dict:
    """Origin witnesses share the witness schema, with no residue class."""
    return {
        "p": None,
        "q": None,
        "thetas": [],
        "points": [[float(point.real), float(point.imag)]],
        "coeffs": [[float(coeff.real), float(coeff.imag)]],
        "max_residual": 0.0,
    }
