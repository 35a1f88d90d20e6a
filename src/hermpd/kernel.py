"""Coefficient models b(k, l) >= 0 and the kernels they induce.

A model attaches strictly positive weights to an exponent set: explicit
weights on points, and (w, rho) pairs on families whose s-th member gets
w * rho^s / s!.  The factorial decay makes every model an entire function of
(z, conj z), so series evaluation admits closed-form tail bounds and the
kernel value f(a) = sum b(k, l) a^k conj(a)^l can be computed to any
requested tolerance wherever it and its bound fit in double precision
(elsewhere KernelRangeError refuses).  Weights and point coordinates must be
finite.  Gram matrices of inner products and of kernel values carry their
Hermitian defect.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentFamily, ExponentPair, ExponentSetSpec, _as_pair
from .linalg import closest_pair, hermitian_defect, row_sum_scale


class KernelRangeError(ValueError):
    """A series value or bound overflows double precision at this argument."""


@dataclass(frozen=True)
class FamilyWeight:
    """Family weight rule: member s carries w * rho^s / s!."""

    w: float
    rho: float

    def __post_init__(self):
        for name in ("w", "rho"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"family weight {name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class WeightRule:
    point_weights: dict[ExponentPair, float]
    family_weights: tuple[FamilyWeight, ...]

    def __post_init__(self):
        pw = {_as_pair(p): float(w) for p, w in self.point_weights.items()}
        for p, w in pw.items():
            if not 0 < w < math.inf:
                raise ValueError(f"point weight at {tuple(p)} must be positive and finite, got {w!r}")
        fw = tuple(f if isinstance(f, FamilyWeight) else FamilyWeight(*f) for f in self.family_weights)
        object.__setattr__(self, "point_weights", pw)
        object.__setattr__(self, "family_weights", fw)


@dataclass(frozen=True)
class CoefficientModel:
    """An exponent set together with a weight rule resolving b(k, l).

    Overlapping generators sum their weights, so b(k, l) > 0 exactly on the
    exponent set.
    """

    spec: ExponentSetSpec
    rule: WeightRule

    def __post_init__(self):
        if set(self.rule.point_weights) != set(self.spec.points):
            raise ValueError("point weights must cover exactly the explicit points")
        if len(self.rule.family_weights) != len(self.spec.families):
            raise ValueError("family weights must align with the families by index")

    def coefficient(self, k: int, l: int) -> float:
        """Resolved b(k, l); 0 off the exponent set."""
        e = ExponentPair(k, l)
        total = self.rule.point_weights.get(e, 0.0)
        for fam, fw in zip(self.spec.families, self.rule.family_weights):
            s = fam.index_of(e)
            if s is not None:
                total += fw.w * fw.rho**s / math.factorial(s)
        return total


def unit_weights(spec: ExponentSetSpec, w: float = 1.0, rho: float = 1.0) -> CoefficientModel:
    """Weight 1 on every point and (w, rho) on every family."""
    rule = WeightRule({p: 1.0 for p in spec.points}, tuple(FamilyWeight(w, rho) for _ in spec.families))
    return CoefficientModel(spec, rule)


def diagonal_factorial_model() -> CoefficientModel:
    """b(k, k) = 1/k! on the diagonal; f(z) = exp(|z|^2)."""
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 1))])
    return unit_weights(spec)


def grid_factorial_model(max_row: int = 16) -> CoefficientModel:
    """b(k, l) = 1/(k! l!) on rows k = 0..max_row, one family per row."""
    families = [ExponentFamily((k, 0), (0, 1)) for k in range(max_row + 1)]
    spec = ExponentSetSpec(families=families)
    rule = WeightRule({}, tuple(FamilyWeight(1.0 / math.factorial(k), 1.0) for k in range(max_row + 1)))
    return CoefficientModel(spec, rule)


def conjugate_model(model: CoefficientModel) -> CoefficientModel:
    """The model of conj(f): every exponent pair transposed, weights kept."""
    spec = ExponentSetSpec(
        points=[(p.l, p.k) for p in model.spec.points],
        families=[
            ExponentFamily((f.start.l, f.start.k), (f.step.l, f.step.k)) for f in model.spec.families
        ],
        require_origin=model.spec.require_origin,
    )
    rule = WeightRule(
        {ExponentPair(p.l, p.k): w for p, w in model.rule.point_weights.items()},
        model.rule.family_weights,
    )
    return CoefficientModel(spec, rule)


def eval_kernel(model: CoefficientModel, a: complex, tol: float) -> complex:
    """Truncated series value F with |F - f(a)| <= tol.

    Explicit points are summed exactly.  Each family is cut at the first S
    whose remainder bound w |a|^(k0+l0) x^(S+1)/(S+1)! e^x, x = rho
    |a|^(dk+dl), drops below tol divided by the family count.  A non-finite
    argument, or one whose bound or value leaves double range, raises
    KernelRangeError.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = complex(a)
    if not cmath.isfinite(a):
        raise KernelRangeError(f"kernel argument must be finite, got {a!r}")
    try:
        ac = a.conjugate()
        total = 0j
        for p in model.spec.points:
            total += model.rule.point_weights[p] * a**p.k * ac**p.l
        if model.spec.families:
            budget = tol / len(model.spec.families)
            r = abs(a)
            for fam, fw in zip(model.spec.families, model.rule.family_weights):
                step_deg = fam.step.k + fam.step.l
                x = fw.rho * r**step_deg
                base = fw.w * r ** (fam.start.k + fam.start.l) * math.exp(x)
                cut = 0
                remainder = x  # x^(S+1)/(S+1)! at S = 0
                while base * remainder >= budget:
                    cut += 1
                    remainder *= x / (cut + 1)
                zstep = a**fam.step.k * ac**fam.step.l
                # one fused term per step: the ratio rho/(s+1) * zstep keeps the
                # product bounded by base even where the bare monomial overflows
                term = fw.w * a**fam.start.k * ac**fam.start.l
                for s in range(cut + 1):
                    total += term
                    term *= zstep * (fw.rho / (s + 1))
        if not cmath.isfinite(total):  # a float product overflowed without raising
            raise OverflowError
        return total
    except OverflowError:
        raise KernelRangeError(
            f"kernel series overflows double precision at |a| = {math.hypot(a.real, a.imag):.6g}"
        ) from None


def _tail_term(w: float, radius: float, deg0: int, x: float, first: int) -> float:
    """w radius^deg0 x^first / first!: as written while first! fits a double
    (first <= 170) and no factor overflows, otherwise through logarithms."""
    if first <= 170:
        try:
            return w * radius**deg0 * x**first / math.factorial(first)
        except OverflowError:
            pass
    return w * radius**deg0 * math.exp(first * math.log(x) - math.lgamma(first + 1)) if x else 0.0


def truncation_tail_mass(model: CoefficientModel, truncation: int, radius: float) -> float:
    """Upper bound on sum of b(k, l) radius^(k+l) over k + l > truncation;
    KernelRangeError when the bound overflows double precision."""
    radius = float(radius)
    mass = 0.0
    try:
        for p, w in model.rule.point_weights.items():
            if p.k + p.l > truncation:
                mass += w * radius ** (p.k + p.l)
        for fam, fw in zip(model.spec.families, model.rule.family_weights):
            deg0 = fam.start.k + fam.start.l
            step_deg = fam.step.k + fam.step.l
            first = 0 if deg0 > truncation else (truncation - deg0) // step_deg + 1
            x = fw.rho * radius**step_deg
            mass += _tail_term(fw.w, radius, deg0, x, first) * math.exp(x)
    except OverflowError:
        raise KernelRangeError(
            f"truncation tail bound overflows double precision at radius {radius:.6g} (truncation {truncation})"
        ) from None
    return mass


# --- point sets and Gram matrices -------------------------------------------

@dataclass(frozen=True)
class ComplexPointSet:
    """n points in C^m with their minimum pairwise gap (see linalg.closest_pair)."""

    points: np.ndarray
    min_gap: float = field(init=False)
    distinct: bool = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
        object.__setattr__(self, "points", pts)
        gap = closest_pair(pts)[0]
        object.__setattr__(self, "min_gap", gap)
        object.__setattr__(self, "distinct", gap > 0)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def scalar_points(values) -> ComplexPointSet:
    return ComplexPointSet(np.asarray(values, dtype=complex).reshape(-1, 1))


@dataclass
class GramMatrix:
    entries: np.ndarray
    hermitian_defect: float = field(init=False)

    def __post_init__(self):
        self.entries = np.atleast_2d(np.asarray(self.entries, dtype=complex))
        if self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {self.entries.shape}")
        self.hermitian_defect = hermitian_defect(self.entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def scale(self) -> float:
        return row_sum_scale(self.entries)


def inner_gram(pts: ComplexPointSet) -> GramMatrix:
    """Standard inner products <z^r, z^s> = sum_j z^r_j conj(z^s_j)."""
    p = pts.points
    return GramMatrix(p @ p.conj().T)


def kernel_gram(model: CoefficientModel, g: GramMatrix, tol: float) -> GramMatrix:
    """Entrywise kernel evaluation of a Hermitian Gram matrix."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if g.hermitian_defect > tol * max(g.scale, 1.0):
        raise ValueError(f"input Gram is not Hermitian within tolerance: defect {g.hermitian_defect:.3e}")
    n = g.n
    out = np.empty((n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            out[r, s] = eval_kernel(model, g.entries[r, s], tol)
    result = GramMatrix(out)
    # truncation is symmetric in conjugate arguments, so the defect stays at
    # input defect + 2*tol up to rounding
    allowance = n * tol + 64 * np.finfo(float).eps * max(result.scale, 1.0)
    if result.hermitian_defect > allowance:
        raise ValueError(f"kernel Gram defect {result.hermitian_defect:.3e} exceeds {allowance:.3e}")
    return result


def schur_product(g1: GramMatrix, g2: GramMatrix) -> GramMatrix:
    if g1.entries.shape != g2.entries.shape:
        raise ValueError(f"dimension mismatch: {g1.entries.shape} vs {g2.entries.shape}")
    return GramMatrix(g1.entries * g2.entries)

