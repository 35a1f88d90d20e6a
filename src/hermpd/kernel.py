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

eval_kernel is the scalar evaluator.  kernel_values evaluates a whole array
of arguments and returns, entry for entry, exactly the bits eval_kernel
returns, or raises what the first raising entry raises; kernel_gram and
oracle.quadratic_form use it.  It keeps real and imaginary parts as float
arrays and repeats CPython's scalar float operations one by one (numpy's
complex multiply, abs, exp and power differ from them in the last bit), and
only the integer series cut comes from numpy's exp and power, checked
against a band around the budget.  It sums the families in passes: each
series step forms the next term of every family of a pass with one set of
array operations, and the kept terms are then added family by family, so
every entry takes eval_kernel's terms in eval_kernel's order.  Where the
entries times (families + 4) stay below ARRAY_CROSSOVER it calls
eval_kernel per entry, which costs less there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentFamily, ExponentPair, ExponentSetSpec, _as_pair
from .linalg import closest_pair, hermitian_defect, row_sum_scale


# kernel_values uses array arithmetic where entries * (families + 4) reaches
# ARRAY_CROSSOVER and calls eval_kernel per entry below it: the array path
# costs a fixed time that grows slowly with the family count, the loop a time
# per entry that grows fast with it (break-even measured near 140, 100, 52
# and 32 entries for 1, 2, 5 and 17 families)
ARRAY_CROSSOVER = 600
# kernel_values sums the family series in passes of PASS_ENTRIES // entries
# families whose terms are formed together, fewer where the terms a pass
# keeps (families * entries * steps) would pass PASS_TERMS, 2 MB of (re, im)
# doubles; a pass of one or two families measured faster forming each
# family's terms in place, and so does that
PASS_ENTRIES = 4096
PASS_TERMS = 1 << 17


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


def _series_cut(r: float, deg0: int, step_deg: int, fw: FamilyWeight, budget: float) -> int:
    """First S whose remainder bound w r^deg0 x^(S+1)/(S+1)! e^x, x = rho
    r^step_deg, drops below budget; OverflowError where x or a factor of the
    bound leaves double range."""
    x = fw.rho * r**step_deg
    if x == math.inf:  # math.exp(inf) does not raise, and the loop would never end
        raise OverflowError
    base = fw.w * r**deg0 * math.exp(x)
    cut = 0
    remainder = x  # x^(S+1)/(S+1)! at S = 0
    while base * remainder >= budget:
        cut += 1
        remainder *= x / (cut + 1)
    return cut


def eval_kernel(model: CoefficientModel, a: complex, tol: float) -> complex:
    """Truncated series value F with |F - f(a)| <= tol.

    Explicit points are summed exactly.  Each family is cut at the first S
    whose remainder bound w |a|^(k0+l0) x^(S+1)/(S+1)! e^x, x = rho
    |a|^(dk+dl), drops below tol divided by the family count (or below the
    smallest positive double, where that quotient underflows).  A non-finite
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
            budget = tol / len(model.spec.families) or math.ulp(0.0)
            r = abs(a)
            for fam, fw in zip(model.spec.families, model.rule.family_weights):
                start, step, rho = fam.start, fam.step, fw.rho
                cut = _series_cut(r, start.k + start.l, step.k + step.l, fw, budget)
                zstep = a**step.k * ac**step.l
                # one fused term per step: the ratio rho/(s+1) * zstep keeps the
                # product bounded by base even where the bare monomial overflows
                term = fw.w * a**start.k * ac**start.l
                for s in range(cut + 1):
                    total += term
                    term *= zstep * (rho / (s + 1))
        if not cmath.isfinite(total):  # a float product overflowed without raising
            raise OverflowError
        return total
    except OverflowError:
        raise KernelRangeError(
            f"kernel series overflows double precision at |a| = {math.hypot(a.real, a.imag):.6g}"
        ) from None


# --- the same values over an array of arguments ----------------------------------

def _cmul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """CPython's complex product (_Py_c_prod) on float arrays whose first axis
    holds (re, im)."""
    straight, crossed = x * y, x * y[::-1]
    if out is None:
        out = np.empty_like(straight)
    np.subtract(straight[0], straight[1], out=out[0])
    np.add(crossed[0], crossed[1], out=out[1])
    return out


class _Monomials:
    """w a^k conj(a)^l over an array a held as (re, im) float rows, formed
    with the float operations of eval_kernel's scalar expression.

    CPython raises a complex to an integer power k <= 100 by binary powering
    from 1: it multiplies the squares a^(2^j) in ascending j.  So a^k is
    a^(k - 2^top) times a^(2^top), for the top bit 2^top of k: each power
    is kept once formed, and a new one costs one product.  Multiplying by
    the exact 1 (power 0) or by a real w changes at most the sign of a zero
    component, which no later product or sum turns into a different nonzero
    value, and a sum that starts at +0 never holds a -0.  conj(a)^l is
    conj(a^l) because rounding is symmetric.  finite marks the entries at
    which every power formed so far is finite, as CPython's complex power
    needs to return instead of raising OverflowError; a power that is not
    finite makes every power it is a factor of not finite, so marking the
    factors formed on the way marks no other entry.
    """

    def __init__(self, a: np.ndarray):
        self.powers = {1: a}
        self.bare = {}  # a^k conj(a)^l by (k, l), formed without a weight
        self.one = np.zeros_like(a)
        self.one[0] = 1.0
        self.finite = np.ones(a.shape[1:], dtype=bool)

    def power(self, k: int) -> np.ndarray | None:
        """a^k, or None for the exact 1 at k = 0."""
        if k == 0:
            return None
        result = self.powers.get(k)
        if result is None:
            top = 1 << (k.bit_length() - 1)
            if k == top:
                half = self.power(top >> 1)
                result = _cmul(half, half)
            else:
                result = _cmul(self.power(k - top), self.power(top))
            self.finite &= np.isfinite(result).all(axis=0)
            self.powers[k] = result
        return result

    def __call__(self, k: int, l: int, w: float | None = None) -> np.ndarray:
        """(w a^k) conj(a)^l; a fresh array when w is given, else the one
        kept for (k, l)."""
        if w is None and (k, l) in self.bare:
            return self.bare[k, l]
        value, conj = self.power(k), self.power(l)
        if w is not None:
            value = w * (self.one if value is None else value)
        if conj is not None:
            conj = conj * [[1.0], [-1.0]]
            value = conj if value is None else _cmul(value, conj)
        value = self.one if value is None else value
        if w is None:
            self.bare[k, l] = value
        return value


def _prefix(mask: np.ndarray) -> int:
    """Length of the shortest prefix of mask that holds all its True entries."""
    rev = mask[::-1]
    i = int(rev.argmax())
    return mask.size - i if rev[i] else 0


def _normal(v: np.ndarray, top: float = 1e300) -> np.ndarray:
    """v is 0 or lies in [1e-290, top]: no subnormal rounding, no overflow."""
    return (v == 0) | ((v >= 1e-290) & (v <= top))


def _array_cuts(r: np.ndarray, fams: list, budget: float) -> np.ndarray:
    """_series_cut for every (family, weight) in fams (rows) at every finite
    radius of r (descending), or -1 where it raises OverflowError; budget
    must lie in [1e-280, 1e280].

    numpy's power and exp may differ from libm's in the last bits.  While
    every factor stays among normal doubles, that moves the product compared
    at step S by a relative (x + S + 4) k ulp at most, for implementations
    within k ulp, since x^(S+1)/(S+1)! is formed by the same multiplications
    as in _series_cut.  A comparison outside the band 1e-12 (x + S + 4)
    (about 4500 ulp per unit) therefore comes out as in _series_cut; entries
    inside the band, or with a factor outside the normal range, take their
    cut from _series_cut itself.  The bound grows with r, so the entries
    still stepping stay within a prefix.
    """
    deg0 = np.array([[f.start.k + f.start.l] for f, _ in fams])
    step_deg = np.array([[f.step.k + f.step.l] for f, _ in fams])
    y = r**step_deg
    x = np.array([[fw.rho] for _, fw in fams]) * y
    p0 = r**deg0
    base = np.array([[fw.w] for _, fw in fams]) * p0 * np.exp(x)
    ok = _normal(y) & _normal(p0) & _normal(x, 700.0) & _normal(base)
    remainder = x.copy()
    prod = base * remainder
    dist = np.abs(prod - budget)
    alive = ok & (prod >= budget)
    cut = np.zeros(x.shape, dtype=np.intp)
    live = _prefix(alive.any(axis=0))
    s = 0
    while live:
        s += 1
        cut[:, :live] += alive[:, :live]
        remainder[:, :live] *= x[:, :live] / (s + 1)
        prod = base[:, :live] * remainder[:, :live]
        np.minimum(dist[:, :live], np.abs(prod - budget), out=dist[:, :live])
        alive[:, :live] &= prod >= budget
        live = _prefix(alive[:, :live].any(axis=0))
    # entries that kept stepping past their cut only lowered remainder and dist
    ok &= ((remainder >= 1e-290) | (x == 0)) & (dist > 1e-12 * (x + cut + 4) * budget)
    for f, i in zip(*np.nonzero(~ok & np.isfinite(r))):
        try:
            cut[f, i] = _series_cut(float(r[i]), int(deg0[f, 0]), int(step_deg[f, 0]), fams[f][1], budget)
        except OverflowError:
            cut[f, i] = -1
    return cut


def _live_counts(reach: np.ndarray) -> list[int]:
    """For s = 0..reach[0] + 1, the length of the prefix of reach (which is
    non-increasing) that holds its entries >= s."""
    return np.searchsorted(-reach, -np.arange(int(reach[0]) + 2), side="right").tolist()


def _add_terms(total: np.ndarray, terms, live: list[int], cut: np.ndarray | None) -> None:
    """total += the s-th term of terms over the prefix live[s], for s = 0, 1,
    ..., in place on (re, im) rows; only where cut >= s when cut is given."""
    for s, term in enumerate(terms):
        n = live[s]
        if cut is None:
            total[:, :n] += term[:, :n]
        else:
            np.add(total[:, :n], term[:, :n], out=total[:, :n], where=cut[:n] >= s)


def _terms_in_place(term: np.ndarray, zstep: np.ndarray, rho: float, live: list[int]):
    """term, then term *= zstep * (rho/(s+1)) over the prefix live[s+1], for
    s = 0.., as long as live is positive."""
    yield term
    for s, m in enumerate(live[1:-1]):
        _cmul(term[:, :m], zstep[:, :m] * (rho / (s + 1)), out=term[:, :m])
        yield term


def _add_pass(total: np.ndarray, monomial: _Monomials, fams: list, cuts: np.ndarray) -> None:
    """total += the series of every (family, weight) of fams up to its cut
    (rows of cuts), family by family in the order of fams, each in
    ascending s, in place on (re, im) rows.

    A family's entries still summing at step s lie within the prefix up to
    the last entry whose cut reaches s; where rounding put its cuts out of
    order by |a|, the adds are masked to the entries whose own cut reaches
    s.  A pass of one or two families forms each family's terms in place,
    one family after the other.  A larger one forms
    term_{s+1} = term_s * (zstep * (rho/(s+1))) of every family still
    stepping with one set of array operations, over the prefix that some
    family still sums (families with the same step and rho share the
    factor), keeps the terms and then adds them.  Each product is the one
    eval_kernel forms, so the terms and sums keep its bits either way.
    """
    ordered = (cuts[:, :-1] >= cuts[:, 1:]).all(axis=1).tolist()
    reach = cuts if all(ordered) else np.maximum.accumulate(cuts[:, ::-1], axis=1)[:, ::-1]  # suffix maxima
    lives = [_live_counts(row) for row in reach]
    masks = [None if o else cut for o, cut in zip(ordered, cuts)]
    if len(fams) < 3:
        for (fam, fw), live, mask in zip(fams, lives, masks):
            term = monomial(fam.start.k, fam.start.l, fw.w)
            _add_terms(total, _terms_in_place(term, monomial(fam.step.k, fam.step.l), fw.rho, live), live, mask)
        return
    rank = sorted(range(len(fams)), key=lambda f: -len(lives[f]))  # families stepping longest lead
    groups: dict = {}  # (step, rho) -> index in zs, numbered in rank order
    index = [groups.setdefault((fams[f][0].step, fams[f][1].rho), len(groups)) for f in rank]
    zs = np.stack([monomial(step.k, step.l) for step, _ in groups], axis=1)
    rho = np.array([[rho] for _, rho in groups])
    span = _live_counts(reach.max(axis=0))
    # one block for all steps: measured faster than a block per step, whose
    # memory the allocator returned to the system and took back every call
    terms = np.empty((len(span) - 1, 2, len(fams), total.shape[1]))
    for i, f in enumerate(rank):
        terms[0, :, i] = monomial(fams[f][0].start.k, fams[f][0].start.l, fams[f][1].w)
    active = len(rank)
    for s, m in enumerate(span[1:-1]):
        while len(lives[rank[active - 1]]) <= s + 2:  # that family's last term is formed
            active -= 1
        need = max(index[:active]) + 1  # the groups of the active families
        factor = zs[:, :need, :m] * (rho[:need] / (s + 1))
        if 1 < need < active:
            factor = factor[:, index[:active]]
        _cmul(terms[s, :, :active, :m], factor, out=terms[s + 1, :, :active, :m])
    slot = {f: i for i, f in enumerate(rank)}
    for f, (live, mask) in enumerate(zip(lives, masks)):
        _add_terms(total, terms[: len(live) - 1, :, slot[f]], live, mask)


def _array_path(model: CoefficientModel, entries: int) -> bool:
    return entries * (len(model.spec.families) + 4) >= ARRAY_CROSSOVER


def _max_exponent(model: CoefficientModel) -> int:
    fams = model.spec.families
    return max((max(p) for p in (*model.spec.points, *(f.start for f in fams), *(f.step for f in fams))), default=0)


def kernel_values(model: CoefficientModel, args, tol: float) -> np.ndarray:
    """eval_kernel(model, a, tol) at every entry a of args, bit for bit, as a
    complex array of args' shape; raises what the first raising entry (in C
    order) raises.

    Where the evaluated entries times (families + 4) stay below
    ARRAY_CROSSOVER, for exponents above 100 (where CPython's complex power
    leaves binary powering) and for a per-family budget outside [1e-280,
    1e280], the entries go through eval_kernel one by one.
    Otherwise real and imaginary parts are float rows that repeat
    eval_kernel's float operations: products as CPython forms them
    (_Monomials, _cmul), families in model order, terms s = 0, 1, ... up to
    each entry's own cut (_array_cuts, computed once per distinct |a|).  The
    families go in passes of up to PASS_ENTRIES // entries (_add_pass): a
    pass of three or more forms the next term of all its families at once
    and keeps the terms until it adds them family by family; a smaller one
    forms each family's terms in place.
    Entries with a non-finite argument, power or sum, or whose cut overflows,
    then go through eval_kernel.

    f(conj a) is conj f(a) bit for bit up to the sign of a zero, and a sum
    never holds -0, so a square args equal to its conjugate transpose (a
    Gram matrix) is evaluated on its upper triangle only.  The first raising
    entry in C order lies there, because the mirror of a raising entry
    raises too.
    """
    args = np.asarray(args, dtype=complex)
    n = args.shape[0] if args.ndim == 2 and args.shape[0] == args.shape[1] else 0
    if not (n and (args == args.conj().T).all()):
        return _kernel_values(model, args.ravel(), tol).reshape(args.shape)
    if _array_path(model, n * (n + 1) // 2):
        upper = np.triu_indices(n)
        values = _kernel_values(model, args[upper], tol)
        out = np.empty_like(args)
        out.T[upper] = values.conj() + 0j  # the lower triangle; + 0j turns -0 into +0
        out[upper] = values
        return out
    rows = args.tolist()
    out = [[0j] * n for _ in range(n)]
    for r in range(n):
        for s in range(r, n):
            value = eval_kernel(model, rows[r][s], tol)
            out[s][r] = value.conjugate() + 0j
            out[r][s] = value
    return np.array(out, dtype=complex)


def _kernel_values(model: CoefficientModel, flat: np.ndarray, tol: float) -> np.ndarray:
    """kernel_values on a 1-D complex array."""
    families = model.spec.families
    budget = tol / len(families) if families else 1.0
    if not _array_path(model, flat.size) or not 1e-280 <= budget <= 1e280 or _max_exponent(model) > 100:
        return np.array([eval_kernel(model, a, tol) for a in flat.tolist()], dtype=complex)
    with np.errstate(all="ignore"):  # overflow is caught on the powers and sums
        r = np.hypot(flat.real, flat.imag)  # bitwise abs(a), as closest_pair relies on
        order = np.argsort(-r, kind="stable")
        r = r[order]
        monomial = _Monomials(np.stack([flat.real[order], flat.imag[order]]))
        total = np.zeros((2, r.size))
        for p in model.spec.points:
            total += monomial(p.k, p.l, model.rule.point_weights[p])
        bad = ~np.isfinite(r)
        distinct = np.r_[True, r[1:] != r[:-1]]  # first entry of each distinct |a|
        radii, expand = r[distinct], np.cumsum(distinct) - 1
        fams = list(zip(families, model.rule.family_weights))
        chunk = max(1, 8192 // radii.size)  # families per _array_cuts call, to bound memory
        for lo in range(0, len(fams), chunk):
            part = fams[lo : lo + chunk]
            cuts = _array_cuts(radii, part, budget)[:, expand]
            if cuts.min() < 0:
                bad |= (cuts < 0).any(axis=0)
                np.maximum(cuts, 0, out=cuts)
            size = max(1, min(PASS_ENTRIES, PASS_TERMS // (int(cuts.max()) + 1)) // r.size)  # families per pass
            for i in range(0, len(part), size):
                _add_pass(total, monomial, part[i : i + size], cuts[i : i + size])
        bad |= ~(monomial.finite & np.isfinite(total).all(axis=0))
    out = np.empty(r.size, dtype=complex)
    out.real[order], out.imag[order] = total
    for i in np.sort(order[bad]):
        out[i] = eval_kernel(model, flat[i], tol)
    return out


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
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if g.hermitian_defect > tol * max(g.scale, 1.0):
        raise ValueError(f"input Gram is not Hermitian within tolerance: defect {g.hermitian_defect:.3e}")
    result = GramMatrix(kernel_values(model, g.entries, tol))
    # truncation is symmetric in conjugate arguments, so the defect stays at
    # input defect + 2*tol up to rounding
    allowance = g.n * tol + 64 * np.finfo(float).eps * max(result.scale, 1.0)
    if result.hermitian_defect > allowance:
        raise ValueError(f"kernel Gram defect {result.hermitian_defect:.3e} exceeds {allowance:.3e}")
    return result


def schur_product(g1: GramMatrix, g2: GramMatrix) -> GramMatrix:
    if g1.entries.shape != g2.entries.shape:
        raise ValueError(f"dimension mismatch: {g1.entries.shape} vs {g2.entries.shape}")
    return GramMatrix(g1.entries * g2.entries)

