"""Brute-force ground truth at desk scale.

Because all weights are strictly positive, the kernel quadratic form at
scalar points vanishes exactly when the coefficient vector annihilates every
monomial column, so strictness at a point set is equivalent to full row rank
of the collocation matrix.  These oracles stay independent of the kernel
evaluator except where a cross-check is the point.

The monomial values come from ``monomial_table``: each power z^k and
conj(z)^l is formed once per distinct exponent, by the same numpy power as
the expression ``z**k * np.conj(z)**l``, and the columns are gathered from
those powers, so every value has that expression's bits.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ExponentPair, ExponentSetSpec, members_upto
from .kernel import CoefficientModel, KernelRangeError, kernel_values, truncation_tail_mass
from .linalg import closest_pair, phase_normalize, row_sum_scale


class TruncationGuardError(ValueError):
    """The weight mass ignored by the truncation is too large to certify."""


@dataclass(frozen=True)
class CollocationMatrix:
    """Monomial values z_r^k conj(z_r)^l over points (rows) x exponents
    (columns), with the numerical rank and, below full row rank, a unit c
    with c^T entries ~ 0, both from one SVD."""

    points: np.ndarray
    exponents: tuple[ExponentPair, ...]
    entries: np.ndarray
    rank: int
    annihilator: Optional[np.ndarray]


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


def _power_rows(base: np.ndarray, exponents) -> np.ndarray:
    """base**e for each e of exponents as rows, each distinct power formed
    once.  The exponents stay as given: numpy squares for a Python int 2
    only, and a numpy integer 2 takes the general power, with other bits."""
    distinct = dict.fromkeys(exponents)
    position = dict(zip(distinct, range(len(distinct))))
    return np.stack([base**e for e in distinct]).take(list(map(position.__getitem__, exponents)), axis=0)


def monomial_table(points, exponents, weights=None) -> np.ndarray:
    """Rows z**k * np.conj(z)**l over the points z, one per (k, l) of
    exponents, bit for bit as that expression; with weights c (one per
    point), rows (c * z**k) * np.conj(z)**l.

    Every product runs over contiguous operands, where numpy's complex
    multiply gives the bits it gives on 1-D arrays; a strided or broadcast
    operand can take a loop with other rounding, so the weights are tiled."""
    pts = np.asarray(points, dtype=complex).ravel()
    if not len(exponents):
        return np.zeros((0, pts.size), dtype=complex)
    ks, ls = zip(*exponents)
    powers = _power_rows(pts, ks)
    if weights is not None:
        powers = np.tile(np.asarray(weights, dtype=complex).ravel(), (len(ks), 1)) * powers
    return powers * _power_rows(np.conj(pts), ls)


def collocation(points, spec: ExponentSetSpec, truncation: int, tol: float = 1e-10) -> CollocationMatrix:
    """Collocation matrix over all (k, l) in J with k + l <= truncation,
    columns in lexicographic order (from monomial_table), with its numerical
    rank: the singular values above tol * row_sum_scale.  Below full row
    rank, the annihilator is conj(u_n), u_n the last left singular vector.
    The one SVD is of the transpose, which costs less for
    the usual wide matrix; there u_n = conj(vh[-1]).  The points are checked
    first: nonempty, nonzero and distinct."""
    pts = _check_points(points)
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    cols = members_upto(spec, truncation)
    entries = np.ascontiguousarray(monomial_table(pts, cols).T)
    if not np.isfinite(entries).all():
        radius = float(np.abs(pts).max())
        raise KernelRangeError(
            f"collocation monomials overflow double precision at radius {radius:.6g} (truncation {truncation})"
        )
    _, sing, vh = np.linalg.svd(entries.T, full_matrices=len(cols) < pts.size)
    rank = int((sing > tol * row_sum_scale(entries)).sum())
    annihilator = np.conj(vh[-1]) if rank < pts.size else None
    return CollocationMatrix(pts, tuple(cols), entries, rank, annihilator)


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
    A non-strict verdict is only certified when the witness form's upper
    bound, its truncated part plus |c|_1^2 times the tail mass at radius^2,
    is at most n^2 tol; otherwise TruncationGuardError is raised too.  It
    returns a unit annihilating vector, validated against the full kernel
    quadratic form.
    """
    coll = collocation(points, model.spec, truncation, tol)  # checks the points
    pts = coll.points
    n = pts.size
    radius = float(np.abs(pts).max())
    tail = truncation_tail_mass(model, truncation, radius)
    if coll.rank == n:
        if tail >= tol:
            raise TruncationGuardError(
                f"tail mass {tail:.3e} at radius {radius:.3f} exceeds tol {tol:.1e}; "
                f"raise the truncation to certify strictness"
            )
        return StrictnessResult(True, None, coll.rank, tail)
    witness = phase_normalize(coll.annihilator)
    # measured truncated part + tail bound at the kernel argument radius
    residuals = coll.entries.T @ witness
    below = sum(
        model.coefficient(k, l) * abs(res) ** 2 for (k, l), res in zip(coll.exponents, residuals)
    )
    norm1 = float(np.abs(witness).sum())
    tail2 = truncation_tail_mass(model, truncation, radius * radius)
    # a rank deficit only shows that the truncated columns are dependent; the
    # form is certified degenerate when its upper bound is within n^2 tol
    tail_part = norm1**2 * tail2
    certified = below + tail_part
    if not certified <= n * n * tol:
        raise TruncationGuardError(
            f"cannot certify non-strictness: witness form bound {certified:.3e} (truncated part {below:.3e}, "
            f"tail {tail_part:.3e} at radius {radius:.3g}) exceeds n^2 tol {n * n * tol:.1e}"
        )
    form = quadratic_form(model, pts, witness, tol)
    budget = certified + norm1**2 * tol
    if form > 10 * budget + n * n * tol:
        # the form is measured to 4 n eps |c|^T |K| |c|, each kernel value to
        # tol max(1, M), and both |K| and M are at most the whole weight mass at
        # radius^2 (the tail past degree -1)
        mass = truncation_tail_mass(model, -1, radius * radius)
        if form > 10 * budget + n * n * tol + norm1**2 * mass * (10 * tol + 4 * n * np.finfo(float).eps):
            raise RuntimeError(f"witness failed full-form validation: {form:.3e} > {budget:.3e}")
    return StrictnessResult(False, witness, coll.rank, tail, witness_form=form)


def quadratic_form(model: CoefficientModel, points, c, tol: float = 1e-10) -> float:
    """Real value of sum_{r,s} c_r f(z_r conj(z_s)) conj(c_s) via the
    certified evaluator; the imaginary defect must stay below n^2 tol plus
    the rounding of the products, and a form that overflows raises
    KernelRangeError."""
    pts = np.asarray(points, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    if pts.size != c.size:
        raise ValueError(f"mismatched lengths: {pts.size} points, {c.size} coefficients")
    n = pts.size
    # z_r conj(z_s) with the float operations of numpy's scalar complex product
    re, im, conj_im = pts.real, pts.imag, -pts.imag
    args = np.empty((n, n), dtype=complex)
    args.real = np.multiply.outer(re, re) - np.multiply.outer(im, conj_im)
    args.imag = np.multiply.outer(re, conj_im) + np.multiply.outer(im, re)
    kmat = kernel_values(model, args, tol)
    value = c @ kmat @ np.conj(c)
    if not cmath.isfinite(value):
        raise KernelRangeError(f"quadratic form overflows double precision on {n} points")
    defect = abs(value.imag)
    if defect > n * n * tol:
        # kmat is Hermitian to the bit, so the imaginary part is the rounding
        # of the two products, at most 4 n eps |c|^T |K| |c|
        allowed = n * n * tol + 4 * n * np.finfo(float).eps * float(np.abs(c) @ np.abs(kmat) @ np.abs(c))
        if defect > allowed:
            raise RuntimeError(f"quadratic form imaginary defect {defect:.3e} exceeds {allowed:.1e}")
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
        # each row summed on its own, as np.sum sums a 1-D array
        sums = np.sum(monomial_table(zs, exponents, cs), axis=1) if exponents else np.array([])
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
