"""Structured exponent sets and the strictness criterion.

An exponent set describes which monomials ``z^k conj(z)^l`` carry positive
weight in a dot-product kernel.  It is given as finitely many explicit pairs
plus finitely many arithmetic families, which keeps membership and the
difference profile ``{k - l}`` decidable in closed form.  Strictness of the
induced kernel reduces to a residue-coverage condition on that profile: the
origin pair must belong to the set, and every residue class q mod p must
contain infinitely many distinct difference values.  The infinite quantifier
over p collapses to the divisors of a single effective modulus p* (the lcm of
the progression strides), which is what makes the check finite.

``check_strict_criterion`` decides p* first and, only when p* fails, walks
the divisors of p* in ascending order, generated from the strides' prime
factorizations.  At each divisor a stride coprime to it, or a prefix of the
cosets (sorted by modulus) covering Z/lcm of their moduli, settles coverage
without a scan; otherwise the cosets are marked in windows of a bytearray
and the first unmarked cell is the smallest uncovered class.  The work of
one call is bounded by COVERAGE_CELL_BUDGET, past which the spec is refused
with CriterionBudgetError: deciding a general covering system is hard.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple, Optional

import numpy as np

COVERAGE_CELL_BUDGET = 1 << 24
"""Work one criterion call may do, in residue cells marked or scanned; trial
divisions and divisor visits are charged in cells too, by their running time."""
_TRIAL_CELLS = 1 << 4
_VISIT_CELLS = 1 << 10
_WINDOW = 1 << 16  # cells marked per bytearray pass
_ONES = memoryview(b"\x01" * _WINDOW)


class ExponentPair(NamedTuple):
    k: int
    l: int

    @property
    def diff(self) -> int:
        return self.k - self.l


def _as_pair(value) -> ExponentPair:
    pair = ExponentPair(*value)
    if not isinstance(pair.k, int) or not isinstance(pair.l, int) or isinstance(pair.k, bool) or isinstance(pair.l, bool):
        raise ValueError(f"exponents must be integers, got {value!r}")
    if pair.k < 0 or pair.l < 0:
        raise ValueError(f"exponents must be nonnegative, got {value!r}")
    return pair


@dataclass(frozen=True)
class ExponentFamily:
    """Arithmetic family {start + s*step : s = 0, 1, 2, ...} inside Z+^2.

    Steps are componentwise nonnegative and not both zero, so every member
    stays in the nonnegative quadrant and members are pairwise distinct.
    """

    start: ExponentPair
    step: ExponentPair

    def __post_init__(self):
        object.__setattr__(self, "start", _as_pair(self.start))
        step = ExponentPair(*self.step)
        if not isinstance(step.k, int) or not isinstance(step.l, int):
            raise ValueError(f"family step must be integer, got {self.step!r}")
        if step.k < 0 or step.l < 0:
            raise ValueError(f"family step must be nonnegative, got {step!r}")
        if step == (0, 0):
            raise ValueError("family step must not be (0, 0)")
        object.__setattr__(self, "step", step)

    def member(self, s: int) -> ExponentPair:
        return ExponentPair(self.start.k + s * self.step.k, self.start.l + s * self.step.l)

    def index_of(self, e) -> Optional[int]:
        """Return s >= 0 with start + s*step == e, or None."""
        e = ExponentPair(*e)
        dk, dl = self.step
        if dk > 0:
            s, r = divmod(e.k - self.start.k, dk)
            if r != 0 or s < 0:
                return None
            return s if self.start.l + s * dl == e.l else None
        # dk == 0, dl > 0
        if e.k != self.start.k:
            return None
        s, r = divmod(e.l - self.start.l, dl)
        if r != 0 or s < 0:
            return None
        return s

    @property
    def diff_offset(self) -> int:
        return self.start.k - self.start.l

    @property
    def diff_stride(self) -> int:
        return self.step.k - self.step.l


@dataclass(frozen=True)
class ExponentSetSpec:
    """Exponent set J given as explicit points plus arithmetic families.

    ``require_origin`` is True for kernels on a full inner product space and
    False in unit-sphere mode, where the origin pair is not needed.
    """

    points: tuple[ExponentPair, ...] = ()
    families: tuple[ExponentFamily, ...] = ()
    require_origin: bool = True

    def __post_init__(self):
        pts = tuple(_as_pair(p) for p in self.points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in exponent set")
        fams = tuple(f if isinstance(f, ExponentFamily) else ExponentFamily(*f) for f in self.families)
        if len(set(fams)) != len(fams):
            raise ValueError("duplicate families in exponent set")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "families", fams)

    def __contains__(self, e) -> bool:
        return membership(self, e)


@dataclass(frozen=True)
class DifferenceProfile:
    """The difference value set {k - l : (k, l) in J}, structurally.

    ``isolated`` holds values contributed finitely often (explicit points and
    families moving parallel to the diagonal); ``progressions`` holds
    (offset, stride) pairs, each standing for {offset + s*stride : s >= 0}
    with a nonzero stride and hence infinitely many distinct values.
    """

    isolated: frozenset[int]
    progressions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CriterionVerdict:
    holds: bool
    effective_modulus: int
    failing_class: Optional[tuple[int, int]] = None
    origin_missing: bool = False


def membership(spec: ExponentSetSpec, e) -> bool:
    """True iff e is an explicit point or lies on one of the families."""
    e = _as_pair(e)
    if e in spec.points:
        return True
    return any(fam.index_of(e) is not None for fam in spec.families)


TRUNCATION_MEMBER_BUDGET = 1 << 16
"""Most exponent pairs members_upto may list; past it, TruncationBudgetError."""


class TruncationBudgetError(ValueError):
    """A truncation would list more than TRUNCATION_MEMBER_BUDGET exponent pairs."""


def members_upto(spec: ExponentSetSpec, total_degree: int) -> list[ExponentPair]:
    """All (k, l) in J with k + l <= total_degree, lexicographic, deduplicated.

    The pairs are counted in closed form first, and past
    TRUNCATION_MEMBER_BUDGET refused with TruncationBudgetError.
    """
    out = {p for p in spec.points if p.k + p.l <= total_degree}
    counts = [max(0, (total_degree - f.start.k - f.start.l) // (f.step.k + f.step.l) + 1) for f in spec.families]
    count = len(out) + sum(counts)
    if count > TRUNCATION_MEMBER_BUDGET:
        raise TruncationBudgetError(
            f"truncation {total_degree} asks for {count} exponent pairs, over the budget of {TRUNCATION_MEMBER_BUDGET}; refused"
        )
    for fam, c in zip(spec.families, counts):
        (k, l), (dk, dl) = fam.start, fam.step
        out.update(zip(_progression(k, dk, c), _progression(l, dl, c)))
    # the sorted pairs made ExponentPairs in C, without the Python-level __new__
    return list(map(tuple.__new__, repeat(ExponentPair), sorted(out)))


def _progression(start: int, step: int, count: int):
    """start, start + step, ... (count terms)."""
    return range(start, start + count * step, step) if step else repeat(start, count)


def difference_profile(spec: ExponentSetSpec) -> DifferenceProfile:
    isolated = {p.diff for p in spec.points}
    progressions = []
    for fam in spec.families:
        if fam.diff_stride == 0:
            isolated.add(fam.diff_offset)
        else:
            progressions.append((fam.diff_offset, fam.diff_stride))
    return DifferenceProfile(frozenset(isolated), tuple(sorted(set(progressions))))


def effective_modulus(profile: DifferenceProfile) -> int:
    """lcm of |stride| over all progressions; 1 when there are none.

    For any p, gcd(d, p) = gcd(d, gcd(p, p*)) since d divides p*, so residue
    coverage modulo an arbitrary p reduces to coverage modulo a divisor of
    p*, and full coverage modulo p* implies it for each of its divisors.
    """
    return math.lcm(*(abs(d) for _, d in profile.progressions))


def _cosets(progressions, p: int) -> list[tuple[int, int]]:
    """The distinct cosets r + gZ, g = gcd(d, p), of the progressions mod p,
    as (g, r) pairs in ascending order."""
    return sorted({(g := math.gcd(d, p), offset % g) for offset, d in progressions})


def _mark(cosets, base: int, width: int) -> tuple[bytearray, int]:
    """Cells base..base+width-1 (width <= _WINDOW), set to 1 where some coset
    (g, r) holds the index, and the number of cells written."""
    covered = bytearray(width)
    written = 0
    for g, r in cosets:
        start = (r - base) % g
        count = (width - 1 - start) // g + 1
        covered[start::g] = _ONES[:count]
        written += count
    return covered, written


def residue_coverage(profile: DifferenceProfile, p: int) -> set[int]:
    """Residues q mod p hit by infinitely many distinct difference values.

    A progression (offset, d) covers exactly the coset offset + gcd(|d|, p)Z;
    isolated values are single values and never count.
    """
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    cosets = _cosets(profile.progressions, p)
    covered = set()
    for base in range(0, p, _WINDOW):
        marked, _ = _mark(cosets, base, min(_WINDOW, p - base))
        covered.update(compress(range(base, p), marked))
    return covered


def residue_coverage_bruteforce(profile: DifferenceProfile, p: int, reps: int = 10) -> set[int]:
    """Independent enumeration oracle for residue_coverage.

    Enumerates the first reps*p values offset + s*d (s = 0 .. reps*p - 1) of
    each progression, counts how often each residue mod p is hit, and marks
    a residue covered once a single progression (the proof of infinitude)
    hits it at least twice.  Isolated values are excluded by construction.
    No gcd or coset enters, so the oracle stays independent of the
    criterion.

    The residues are (offset mod p + s * (d mod p)) mod p, with offset and d
    reduced as Python ints first, so offsets of any size and negative strides
    enter numpy as residues below p and every int64 product s * (d mod p) is
    below reps * p**2; a p for which that bound would overflow is refused.
    """
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    if reps * p * p >= 1 << 63:
        raise ValueError(f"reps * p^2 = {reps * p * p} overflows int64 products")
    steps = np.arange(reps * p, dtype=np.int64)
    covered: set[int] = set()
    for offset, d in profile.progressions:
        hits = np.bincount((offset % p + steps * (d % p)) % p, minlength=p)
        covered.update(np.flatnonzero(hits >= 2).tolist())
    return covered


class CriterionBudgetError(ValueError):
    """Deciding the criterion would cost more than COVERAGE_CELL_BUDGET cells."""


class _Budget:
    __slots__ = ("left",)

    def __init__(self):
        self.left = COVERAGE_CELL_BUDGET

    def spend(self, cells: int, what: str, *args) -> None:
        """Charge cells; past the budget, refuse with what.format(*args)."""
        self.left -= cells
        if self.left < 0:
            raise CriterionBudgetError(
                f"criterion refused: {what.format(*args)} exceeds the work budget of {COVERAGE_CELL_BUDGET} residue cells"
            )


def _first_gap(cosets, modulus: int, budget: _Budget) -> Optional[int]:
    """Smallest residue mod ``modulus`` in none of the cosets (each g divides
    the modulus), or None; marked one window of cells at a time."""
    for base in range(0, modulus, _WINDOW):
        width = min(_WINDOW, modulus - base)
        covered, written = _mark(cosets, base, width)
        budget.spend(width + written, "marking the residues mod {}", modulus)
        gap = covered.find(0)
        if gap >= 0:
            return base + gap
    return None


def _first_uncovered(cosets, p: int, budget: _Budget) -> Optional[int]:
    """Smallest q mod p outside every coset, or None when they cover Z/p.

    A coset with g = 1 covers everything.  Beyond one window, and unless the
    density sum of 1/g falls short of 1 (then some class is uncovered), a
    prefix of the cosets sorted by g that covers Z/lcm(prefix g) covers
    every integer, which settles p without marking p cells.
    """
    if cosets and cosets[0][0] == 1:
        return None
    if p > _WINDOW and sum(p // g for g, _ in cosets) >= p:
        modulus = 1
        for i, (g, _) in enumerate(cosets):
            grown = math.lcm(modulus, g)
            if grown == modulus:
                continue
            if i and _first_gap(cosets[:i], modulus, budget) is None:
                return None
            if grown >= p:
                break
            modulus = grown
    return _first_gap(cosets, p, budget)


def _prime_factors(n: int, budget: _Budget) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (2, then odd f)."""
    stride = n
    factors: dict[int, int] = {}
    last = 2 * (budget.left // _TRIAL_CELLS)  # the largest f the budget pays for
    f = 2
    while f * f <= n:
        if f > last:
            budget.spend(budget.left + 1, "factoring the stride {}", stride)
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    budget.spend(f // 2 * _TRIAL_CELLS, "factoring the stride {}", stride)
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisors_above_one(factors: dict[int, int]):
    """Divisors d > 1 of prod(p^e) in ascending order, generated lazily.

    Each divisor is reached once: from d, whose largest prime is primes[k]
    with exponent a, push d * primes[k] (if a < e_k) and d * primes[j] for
    every j > k.
    """
    primes = sorted(factors)
    heap = [(prime, k, 1) for k, prime in enumerate(primes)]  # sorted, so a heap
    while heap:
        d, k, a = heapq.heappop(heap)
        yield d
        if a < factors[primes[k]]:
            heapq.heappush(heap, (d * primes[k], k, a + 1))
        for j in range(k + 1, len(primes)):
            heapq.heappush(heap, (d * primes[j], j, 1))


def check_strict_criterion(spec: ExponentSetSpec) -> CriterionVerdict:
    """Decide strictness of the kernel induced by the exponent set.

    Holds iff the origin pair is present (unless the spec is in sphere mode)
    and every residue class mod every p contains infinitely many distinct
    difference values.  Coverage mod p depends only on g_i = gcd(d_i, p), so
    a failing p fails at the divisor lcm(g_i) of p* as well: only divisors
    of p* are visited.  Coverage at p* implies it at every divisor, so p* is
    decided first; if it is covered the criterion holds.  Otherwise the
    divisors, built from the strides' trial-division factorizations, are
    walked in ascending order and the first that fails gives the smallest
    failing (p, q).  At each divisor a stride with g = 1 or a covering
    prefix of the cosets (see ``_first_uncovered``) settles coverage;
    otherwise the cosets are marked one window at a time and the first
    unmarked cell is q.

    The work is bounded: marked and scanned cells, trial divisions and
    divisor visits are charged against COVERAGE_CELL_BUDGET, and past it
    CriterionBudgetError (a ValueError) refuses the spec.
    """
    profile = difference_profile(spec)
    pstar = effective_modulus(profile)
    origin_missing = spec.require_origin and not membership(spec, (0, 0))
    progressions = profile.progressions
    budget = _Budget()
    failing: Optional[tuple[int, int]] = None
    q = _first_uncovered(_cosets(progressions, pstar), pstar, budget)
    if q is not None:
        failing = (pstar, q)
        factors: dict[int, int] = {}
        for d in {abs(d) for _, d in progressions}:
            for prime, e in _prime_factors(d, budget).items():
                factors[prime] = max(factors.get(prime, 0), e)
        # p = 1 is covered by any progression, and without one p* = 1
        for p in _divisors_above_one(factors):
            if p == pstar:
                break
            budget.spend(_VISIT_CELLS, "walking the divisors of p* = {}", pstar)
            q = _first_uncovered(_cosets(progressions, p), p, budget)
            if q is not None:
                failing = (p, q)
                break
    holds = failing is None and not origin_missing
    return CriterionVerdict(
        holds=holds,
        effective_modulus=pstar,
        failing_class=failing,
        origin_missing=origin_missing,
    )


# --- canonical specs -------------------------------------------------------

def full_grid_spec() -> ExponentSetSpec:
    """The two axis families; differences cover every residue class."""
    return ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0)), ExponentFamily((0, 0), (0, 1))])


def diagonal_spec() -> ExponentSetSpec:
    """Only (k, k) pairs; the single difference value 0 recurs but is one value."""
    return ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 1))])


def even_difference_spec() -> ExponentSetSpec:
    """Even differences only; odd residue classes mod 2 stay empty."""
    return ExponentSetSpec(
        points=[(0, 0)],
        families=[ExponentFamily((0, 0), (2, 0)), ExponentFamily((0, 0), (0, 2))],
    )


def mixed_stride_spec() -> ExponentSetSpec:
    """Strides {2, 3} arranged so coverage mod lcm = 6 is complete."""
    return ExponentSetSpec(
        families=[
            ExponentFamily((0, 0), (2, 0)),
            ExponentFamily((1, 0), (2, 0)),
            ExponentFamily((0, 0), (3, 0)),
        ]
    )

