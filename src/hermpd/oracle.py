"""Brute-force ground truth at desk scale.

Because all weights are strictly positive, the kernel quadratic form at
scalar points vanishes exactly when the coefficient vector annihilates every
monomial column, so strictness at a point set is equivalent to full row rank
of the collocation matrix.  These oracles stay independent of the series
evaluator except where a cross-check is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ExponentPair, ExponentSetSpec, members_upto
from .kernel import CoefficientModel, eval_kernel, truncation_tail_mass
from .linalg import closest_pair, nullspace_vector, row_sum_scale


class TruncationGuardError(RuntimeError):
    """The weight mass ignored by the truncation is too large to certify."""


@dataclass(frozen=True)
class CollocationMatrix:
    """Monomial values z_r^k conj(z_r)^l over points (rows) x exponents (columns)."""

    points: np.ndarray
    exponents: tuple[ExponentPair, ...]
    entries: np.ndarray
    rank: int


@dataclass(frozen=True)
class StrictnessResult:
    strict: bool
    witness: Optional[np.ndarray]
    collocation_rank: int
    tail_mass: float
    witness_form: Optional[float] = None


@dataclass(frozen=True)
class RecurrenceWindow:
    """Power sums a_s = sum_r c_r z_r^s over the symmetric window |s| <= half_width."""

    half_width: int
    values: np.ndarray

    def value_at(self, s: int) -> complex:
        if abs(s) > self.half_width:
            raise IndexError(f"s = {s} outside window of half-width {self.half_width}")
        return complex(self.values[s + self.half_width])


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    if np.any(pts == 0):
        raise ValueError("zero point not allowed here; use the origin witness path")
    gap, i, j = closest_pair(pts[:, None])
    if gap == 0:
        raise ValueError(f"duplicate points at indices {i} and {j}")
    return pts


def collocation(points, spec: ExponentSetSpec, truncation: int, tol: float = 1e-10) -> CollocationMatrix:
    """Collocation matrix over all (k, l) in J with k + l <= truncation,
    columns in lexicographic order, with its numerical rank."""
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    pts = _check_points(points)
    cols = members_upto(spec, truncation)
    if cols:
        entries = np.stack([pts**k * np.conj(pts) ** l for k, l in cols], axis=1)
        sing = np.linalg.svd(entries, compute_uv=False)
        rank = int((sing > tol * row_sum_scale(entries)).sum())
    else:
        entries = np.zeros((pts.size, 0), dtype=complex)
        rank = 0
    return CollocationMatrix(pts, tuple(cols), entries, rank)


def strictness_oracle(
    model: CoefficientModel,
    points,
    truncation: int,
    tol: float = 1e-10,
) -> StrictnessResult:
    """Decide strictness of the kernel at the given scalar points.

    Strict iff the collocation matrix has full row rank.  A strict verdict is
    only certified when the weight mass beyond the truncation (at the points'
    max modulus) stays below tol; otherwise TruncationGuardError is raised.
    A non-strict verdict returns a unit annihilating vector, validated
    against the full kernel quadratic form.
    """
    pts = _check_points(points)
    n = pts.size
    coll = collocation(pts, model.spec, truncation, tol)
    radius = float(np.abs(pts).max())
    tail = truncation_tail_mass(model, truncation, radius)
    if coll.rank == n:
        if tail >= tol:
            raise TruncationGuardError(
                f"tail mass {tail:.3e} at radius {radius:.3f} exceeds tol {tol:.1e}; "
                f"raise the truncation to certify strictness"
            )
        return StrictnessResult(True, None, coll.rank, tail)
    witness = nullspace_vector(coll.entries.T, tol)
    assert witness is not None, "rank < n guarantees an annihilating vector"
    form = quadratic_form(model, pts, witness, tol)
    # measured truncated part + tail bound at the kernel argument radius
    residuals = coll.entries.T @ witness
    below = sum(
        model.coefficient(k, l) * abs(res) ** 2 for (k, l), res in zip(coll.exponents, residuals)
    )
    norm1 = float(np.abs(witness).sum())
    tail2 = truncation_tail_mass(model, truncation, radius * radius)
    budget = below + norm1**2 * (tail2 + tol)
    if form > 10 * budget + n * n * tol:
        raise RuntimeError(f"witness failed full-form validation: {form:.3e} > {budget:.3e}")
    return StrictnessResult(False, witness, coll.rank, tail, witness_form=form)


def quadratic_form(model: CoefficientModel, points, c, tol: float = 1e-10) -> float:
    """Real value of sum_{r,s} c_r f(z_r conj(z_s)) conj(c_s) via the
    certified evaluator; the imaginary defect must stay below n^2 tol."""
    pts = np.asarray(points, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    if pts.size != c.size:
        raise ValueError(f"mismatched lengths: {pts.size} points, {c.size} coefficients")
    n = pts.size
    kmat = np.empty((n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            kmat[r, s] = eval_kernel(model, pts[r] * np.conj(pts[s]), tol)
    value = c @ kmat @ np.conj(c)
    defect = abs(value.imag)
    if defect > n * n * tol:
        raise RuntimeError(f"quadratic form imaginary defect {defect:.3e} exceeds {n * n * tol:.1e}")
    return float(value.real)


def modulus_class_sums(points, c, exponent_list) -> dict[float, np.ndarray]:
    """Per-modulus-class exponential sums.

    Points are grouped by |z_r| at 1e-12 relative equality (no adaptive
    merging); for each class the sums sum_{|z_r| = lam} c_r z_r^k conj(z_r)^l
    are returned aligned with exponent_list, keyed by the class modulus.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    if pts.size != c.size:
        raise ValueError(f"mismatched lengths: {pts.size} points, {c.size} coefficients")
    if np.any(pts == 0):
        raise ValueError("zero point has no modulus class here")
    exponents = [ExponentPair(*e) for e in exponent_list]
    moduli = np.abs(pts)
    order = np.argsort(moduli, kind="stable")
    classes: list[list[int]] = []
    for idx in order:
        if classes and moduli[idx] - moduli[classes[-1][0]] <= 1e-12 * moduli[idx]:
            classes[-1].append(int(idx))
        else:
            classes.append([int(idx)])
    out: dict[float, np.ndarray] = {}
    for members in classes:
        zs = pts[members]
        cs = c[members]
        sums = np.array([np.sum(cs * zs**k * np.conj(zs) ** l) for k, l in exponents])
        out[float(moduli[members[0]])] = sums
    return out


def power_sum_window(points, c, half_width: int) -> RecurrenceWindow:
    """a_s = sum_r c_r z_r^s for s in [-half_width, half_width]."""
    pts = _check_points(points)
    c = np.asarray(c, dtype=complex).ravel()
    if pts.size != c.size:
        raise ValueError(f"mismatched lengths: {pts.size} points, {c.size} coefficients")
    if half_width < 0:
        raise ValueError(f"half-width must be nonnegative, got {half_width}")
    ss = np.arange(-half_width, half_width + 1)
    values = np.array([np.sum(c * pts ** float(s)) for s in ss])
    return RecurrenceWindow(half_width, values)
