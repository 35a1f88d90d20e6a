"""Coefficient models b(k, l) >= 0 and the kernels they induce.

A model attaches strictly positive weights to an exponent set: explicit
weights on points, and (w, rho) pairs on families whose s-th member gets
w * rho^s / s!.  Such a family sums in closed form to w a^k0 conj(a)^l0
exp(z), z = rho a^dk conj(a)^dl, so the kernel f(a) = sum b(k, l) a^k
conj(a)^l is a finite sum: a term per explicit point, and per distinct
(step, rho) one exponential times the sum of its families' start terms.
eval_kernel evaluates it at one argument, kernel_values over an array; both
return F with

    |F - f(a)| <= tol * max(1, M(a)),
    M(a) = sum_points w |a|^(k+l) + sum_families w |a|^(k0+l0) e^(Re z)

(the sum of the terms' moduli), or raise KernelRangeError: at a non-finite
argument, where the value, M or the rounding bound overflows, and where the
bound exceeds tol * max(1, M).  Weights and point coordinates must be
finite.  Gram matrices carry their Hermitian defect.

The rounding bound, with u = 2^-53 and e = sqrt(5) u the relative error of
a complex product (Brent, Percival and Zimmermann, Math. Comp. 76, 2007;
also with a fused multiply-add), to first order:
- a chain of products forming a^k takes k - 1 of them, so a start term
  w a^k0 conj(a)^l0 errs by (k0 + l0) e relative, the real w included, and
  the sum of a group's n start terms adds n u times their moduli;
- z errs by (dk + dl - 1) e + u; an error d in z moves exp(z) by the
  relative e^|d| - 1, and exp's own rounding (libm's exp, cos and sin within
  one ulp; CPython's cmath.exp forms exp(x - 1) e for large x) adds
  8 u + u |z|: at most 4 e + (dk + dl) e |z| in all;
- the product with exp(z) adds e, and the final sum of N terms N u M.
So a group errs by e (deg + n + 5 + N + (dk + dl) |z|) times its part of M,
deg its largest start degree, and the points by e (largest degree + N)
times theirs.  An underflowing product errs by up to 2^-1074 per component,
which the weights and e^(Re z) amplify only at |a| < 1, where no power
exceeds 1; an allowance of 2^-1073 per operation covers that.  The bound is
twice the first-order sum: the factor covers the higher-order terms and the
rounding of M and of the bound while every group's relative coefficient
stays below 1/8, up to a radius set by the model; past it the bound is
infinite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
import functools

import numpy as np

from .exponents import ExponentFamily, ExponentPair, ExponentSetSpec, _as_pair
from .linalg import closest_pair, hermitian_defect, row_sum_scale


EPS_PRODUCT = math.sqrt(5) * 2.0**-53  # the relative error of a complex product
TINY = 2.0**-1073  # the error of an underflowing complex product


class KernelRangeError(ValueError):
    """A kernel value at this argument cannot be certified: it, its term
    majorant or its rounding bound overflows double precision, or the bound
    exceeds tol * max(1, M)."""


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
        """Resolved b(k, l); 0 off the exponent set; KernelRangeError when it
        overflows double precision."""
        e = ExponentPair(k, l)
        total = self.rule.point_weights.get(e, 0.0)
        try:
            for fam, fw in zip(self.spec.families, self.rule.family_weights):
                s = fam.index_of(e)
                if s is not None:
                    total += _tail_term(fw.w, 1.0, 0, fw.rho, s)  # w rho^s / s!
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise KernelRangeError(f"coefficient b({k}, {l}) overflows double precision")
        return total

    @functools.cached_property
    def plan(self) -> tuple:
        """The closed form's terms and bound constants (module docstring):
        points (k, l, w); their weights summed per degree (k + l, w); groups
        (dk, dl, rho, starts, factor, underflow) of the families sharing
        (step, rho), with starts (k0, l0, w, k0 + l0); the points' factor;
        the underflow floor; r_max, up to which every group's coefficient
        stays below 1/8; and the powers of a, of conj(a) and of |a| that the
        terms and the bound take."""
        by_step: dict = {}
        for fam, fw in zip(self.spec.families, self.rule.family_weights):
            (k, l), (dk, dl) = fam.start, fam.step
            by_step.setdefault((dk, dl, fw.rho), []).append((k, l, fw.w, k + l))
        points = tuple((k, l, w) for (k, l), w in self.rule.point_weights.items())
        by_degree: dict = {}
        for k, l, w in points:
            by_degree[k + l] = by_degree.get(k + l, 0.0) + w
        a_exps, c_exps, degrees = {k for k, _, _ in points}, {l for _, l, _ in points}, set(by_degree)
        terms = len(points) + len(by_step)
        floor = sum(w * d for d, w in by_degree.items()) + terms
        groups, r_max = [], math.inf
        for (dk, dl, rho), starts in by_step.items():
            weight = under = 0.0
            deg = 0
            for k, l, w, d in starts:
                weight, under, deg = weight + w, under + w * d + 1, max(deg, d)
                a_exps.add(k)
                c_exps.add(l)
                degrees.add(d)
            a_exps.add(dk)
            c_exps.add(dl)
            degrees.add(dk + dl)
            factor = EPS_PRODUCT * (deg + len(starts) + 5 + terms)
            groups.append((dk, dl, rho, tuple(starts), factor, TINY * (under + (rho * (dk + dl) + 1) * weight)))
            floor += weight
            reach = (0.125 - factor) / (EPS_PRODUCT * (dk + dl)) / rho  # the largest |z| = rho |a|^(dk + dl)
            r_max = min(r_max, reach ** (1 / (dk + dl)) if reach > 0 else -1.0)
        factor = EPS_PRODUCT * (max(by_degree, default=0) + terms)
        return points, tuple(by_degree.items()), tuple(groups), factor, TINY * floor, r_max, a_exps, c_exps, degrees


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


class _Powers(dict):
    """x^e on first use, from the half powers formed before it, so that x^e
    takes e - 1 products on its chain; x^0 is the exact 1.0."""

    __slots__ = ("x",)

    def __init__(self, x):
        self[0], self[1], self.x = 1.0, x, x

    def __missing__(self, e: int):
        half = self[e >> 1]
        p = self[e] = half * half * self.x if e & 1 else half * half
        return p


def _powers(x, exps):
    """The powers x^e: _Powers for an array; for a Python number those of
    exps, by CPython's power below e = 100, which is binary powering."""
    if isinstance(x, np.ndarray):
        return _Powers(x)
    return {e: x**e if e < 100 else _Powers(x)[e] for e in exps}


def _monomial(pa, pc, k: int, l: int):
    """a^k conj(a)^l from the powers pa of a and pc of conj(a); a product
    only where both exponents are positive."""
    return pa[k] * pc[l] if k and l else pa[k] if k else pc[l]


def _closed_form(model: CoefficientModel, a, ac, r, exp, rexp):
    """(F, bound, M) at a, with ac = conj(a) and r = |a|: the closed-form
    value, its rounding bound and the term majorant (module docstring).

    The same body serves a Python complex (exp = cmath.exp, rexp =
    math.exp) and complex arrays elementwise (exp = rexp = np.exp).  An
    overflow shows as a non-finite result, or on Python numbers as
    OverflowError.  Beyond the plan's r_max the bound is infinite."""
    points, point_mass, groups, point_factor, floor, r_max, a_exps, c_exps, degrees = model.plan
    pa, pc, pr = _powers(a, a_exps), _powers(ac, c_exps), _powers(r, degrees)
    value, mass = 0j, 0.0
    for k, l, w in points:
        value += w * _monomial(pa, pc, k, l)
    for d, w in point_mass:
        mass += w * pr[d]
    bound = point_factor * mass + floor
    for dk, dl, rho, starts, factor, underflow in groups:
        start_sum, start_mass = 0j, 0.0
        for k, l, w, d in starts:
            start_sum += w * _monomial(pa, pc, k, l)
            start_mass += w * pr[d]
        z = rho * _monomial(pa, pc, dk, dl)
        growth = rexp(z.real)  # |exp(z)|
        value += start_sum * exp(z)
        mass += growth * start_mass
        bound += growth * (start_mass * (factor + EPS_PRODUCT * (dk + dl) * rho * pr[dk + dl]) + underflow)
    if isinstance(r, np.ndarray):
        return value, np.where(r > r_max, math.inf, 2.0 * bound), mass
    return value, math.inf if r > r_max else 2.0 * bound, mass


def _refusal(a: complex, value: complex, bound: float, mass: float, tol: float) -> KernelRangeError:
    """The error for an argument whose value is not certified."""
    if not cmath.isfinite(a):
        return KernelRangeError(f"kernel argument must be finite, got {a!r}")
    r = math.hypot(a.real, a.imag)
    if not (cmath.isfinite(value) and math.isfinite(mass)):
        return KernelRangeError(f"kernel series overflows double precision at |a| = {r:.6g}")
    return KernelRangeError(
        f"kernel value at |a| = {r:.6g} has rounding bound {bound:.3e} above tol * max(1, M) = {tol * max(1.0, mass):.3e}"
    )


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def eval_kernel(model: CoefficientModel, a: complex, tol: float) -> complex:
    """f(a) in closed form, F with |F - f(a)| <= tol * max(1, M(a)), where
    M(a) is the sum of the terms' moduli (module docstring).

    KernelRangeError refuses a non-finite argument, one where the value, M
    or the rounding bound overflows double precision, and one where the
    rounding bound exceeds tol * max(1, M).
    """
    _check_tol(tol)
    a = complex(a)
    value, bound, mass = math.nan, math.inf, math.inf
    if cmath.isfinite(a):
        try:
            value, bound, mass = _closed_form(model, a, a.conjugate(), abs(a), cmath.exp, math.exp)
        except OverflowError:
            value = complex(math.inf)
    if not (cmath.isfinite(value) and bound <= tol * max(1.0, mass)):
        raise _refusal(a, value, bound, mass, tol)
    return value


def kernel_values(model: CoefficientModel, args, tol: float) -> np.ndarray:
    """eval_kernel at every entry of args, under its contract, as a complex
    array of args' shape; a refusal is eval_kernel's, for the first entry
    (in C order) refused.

    The closed form runs on numpy arrays; fewer than 10 entries, where that
    costs more than it saves (break-even measured at 8 to 12 entries for 1
    to 17 families), go through eval_kernel one by one.  exp(conj z) is conj
    exp(z) to the bit, so a square args equal to its conjugate transpose (a
    Gram matrix) is evaluated on its upper triangle and mirrored, exactly
    Hermitian; the mirror of a refused entry is refused too.
    """
    _check_tol(tol)
    args = np.asarray(args, dtype=complex)
    n = args.shape[0] if args.ndim == 2 and args.shape[0] == args.shape[1] else 0
    upper = _upper_triangle(n) if n and (args == args.conj().T).all() else None
    flat = args.ravel() if upper is None else args[upper]
    if flat.size < 10:
        values = np.array([eval_kernel(model, a, tol) for a in flat.tolist()], dtype=complex)
    else:
        with np.errstate(all="ignore"):  # overflow is caught below
            value, bound, mass = _closed_form(model, flat, flat.conj(), np.abs(flat), np.exp, np.exp)
            ok = np.isfinite(flat) & np.isfinite(value) & (bound <= tol * np.maximum(1.0, mass))
        if not ok.all():
            first = int(np.argmin(ok))
            value, bound, mass = (np.broadcast_to(x, flat.shape)[first] for x in (value, bound, mass))
            raise _refusal(complex(flat[first]), complex(value), float(bound), float(mass), tol)
        values = np.broadcast_to(value, flat.shape).astype(complex)
    if upper is None:
        return values.reshape(args.shape)
    out = np.empty_like(args)
    out.T[upper] = values.conj() + 0j  # the lower triangle; + 0j turns -0 into +0
    out[upper] = values
    return out


@functools.cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n)


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
        if not math.isfinite(mass):  # a float product saturated without raising
            raise OverflowError
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
    """Standard inner products <z^r, z^s> = sum_j z^r_j conj(z^s_j), exactly
    Hermitian: the upper triangle of the product is mirrored, because the
    product's rounding can differ between (r, s) and (s, r), and the diagonal
    is made real."""
    p = pts.points
    g = p @ p.conj().T
    lower = np.tril_indices(len(g), -1)
    g[lower] = g.T[lower].conj()
    g.imag[np.diag_indices(len(g))] = 0.0
    return GramMatrix(g)


def kernel_gram(model: CoefficientModel, g: GramMatrix, tol: float) -> GramMatrix:
    """Entrywise kernel evaluation of a Hermitian Gram matrix."""
    _check_tol(tol)
    if g.hermitian_defect > tol * max(g.scale, 1.0):
        raise ValueError(f"input Gram is not Hermitian within tolerance: defect {g.hermitian_defect:.3e}")
    result = GramMatrix(kernel_values(model, g.entries, tol))
    # the closed form is conjugate-symmetric to the bit, so a defect comes from
    # the input's, which the kernel can amplify
    allowance = g.n * tol + 64 * np.finfo(float).eps * max(result.scale, 1.0)
    if result.hermitian_defect > allowance:
        raise ValueError(f"kernel Gram defect {result.hermitian_defect:.3e} exceeds {allowance:.3e}")
    return result


def schur_product(g1: GramMatrix, g2: GramMatrix) -> GramMatrix:
    if g1.entries.shape != g2.entries.shape:
        raise ValueError(f"dimension mismatch: {g1.entries.shape} vs {g2.entries.shape}")
    return GramMatrix(g1.entries * g2.entries)

