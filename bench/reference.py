"""Reference answers derived from the generated input files alone.

Nothing in this module imports hermpd.  Every expected value is computed
from the JSON the benchmark wrote, by a method independent of the program's
own: the criterion by a bitmap over the divisors of p*, kernel values by
closed forms or a direct series sum, and witnesses by re-summing the
monomials they must annihilate.
"""

from __future__ import annotations

import math

import numpy as np


# --- exponent sets ------------------------------------------------------------

def difference_structure(spec: dict) -> tuple[set[int], list[tuple[int, int]]]:
    """(isolated difference values, progressions (offset, stride)) of a spec."""
    isolated = {k - l for k, l in spec["points"]}
    progressions = set()
    for fam in spec["families"]:
        (k0, l0), (dk, dl) = fam["start"], fam["step"]
        if dk == dl:
            isolated.add(k0 - l0)
        else:
            progressions.add((k0 - l0, dk - dl))
    return isolated, sorted(progressions)


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisors(n: int) -> list[int]:
    divs = [1]
    for prime, power in _factorize(n).items():
        divs = [d * prime**e for d in divs for e in range(power + 1)]
    return sorted(divs)


def _first_uncovered(progressions, gs, p: int, window: int = 1 << 16):
    """Smallest q in [0, p) met by no coset offset + g Z, scanned by bitmap."""
    if sum(1.0 / g for g in gs) >= 1 and p > 1 << 24:
        raise ValueError(f"reference bitmap too large to scan at p = {p}")
    lo = 0
    while lo < p:
        hi = min(p, lo + window)
        covered = np.zeros(hi - lo, dtype=bool)
        for (offset, _), g in zip(progressions, gs):
            covered[(offset - lo) % g :: g] = True
        free = np.flatnonzero(~covered)
        if free.size:
            return lo + int(free[0])
        lo = hi
    return None


def criterion(spec: dict, sphere: bool = False) -> dict:
    """Expected jset-check verdict: holds, p*, smallest failing (p, q), origin.

    Coverage mod p depends only on g_i = gcd(d_i, p), hence only on
    L = lcm(g_i), a divisor of p* that divides p.  A failing p therefore
    fails at L <= p as well, so the smallest failing p is a divisor of p*
    with lcm(g_i) = p, and only those divisors are scanned.
    """
    isolated, progressions = difference_structure(spec)
    pstar = math.lcm(*(abs(d) for _, d in progressions))
    failing = None
    for p in _divisors(pstar):
        gs = [math.gcd(abs(d), p) for _, d in progressions]
        if math.lcm(*gs) != p:
            continue
        q = _first_uncovered(progressions, gs, p)
        if q is not None:
            failing = (p, q)
            break
    origin = [0, 0] in spec["points"] or any(f["start"] == [0, 0] for f in spec["families"])
    origin_missing = spec["require_origin"] and not sphere and not origin
    return {
        "holds": failing is None and not origin_missing,
        "effective_modulus": pstar,
        "failing_class": list(failing) if failing else None,
        "origin_missing": origin_missing,
        "class_values": sum(1 for v in isolated if failing and v % failing[0] == failing[1]),
    }


def members_upto(spec: dict, total_degree: int) -> list[tuple[int, int]]:
    out = {(k, l) for k, l in spec["points"] if k + l <= total_degree}
    for fam in spec["families"]:
        (k, l), (dk, dl) = fam["start"], fam["step"]
        while k + l <= total_degree:
            out.add((k, l))
            k, l = k + dk, l + dl
    return sorted(out)


def witness_residual(witness: dict, monomials) -> float:
    """max |sum_r c_r z_r^k conj(z_r)^l| over the given monomials."""
    z = np.array([complex(re, im) for re, im in witness["points"]])
    c = np.array([complex(re, im) for re, im in witness["coeffs"]])
    return max((abs(np.sum(c * z**k * np.conj(z) ** l)) for k, l in monomials), default=0.0)


def witness_min_angle_gap(witness: dict) -> float:
    """Least angular gap between witness points on the unit circle."""
    angles = np.sort(np.array([math.atan2(im, re) for re, im in witness["points"]]))
    if angles.size < 2:
        return math.inf
    gaps = np.diff(np.append(angles, angles[0] + 2 * math.pi))
    return float(gaps.min())


# --- kernels ------------------------------------------------------------------

def grid16(a: complex) -> tuple[complex, float]:
    """f(a) = e^conj(a) * sum_{k<=16} a^k/k!, with its absolute majorant."""
    partial = sum(a**k / math.factorial(k) for k in range(17))
    majorant = math.exp(abs(a)) * sum(abs(a) ** k / math.factorial(k) for k in range(17))
    return complex(np.exp(np.conj(a)) * partial), majorant


def diagonal(a: complex) -> tuple[complex, float]:
    """f(a) = exp(|a|^2)."""
    value = math.exp(abs(a) ** 2)
    return complex(value), value


def series(model: dict, a: complex) -> tuple[complex, float]:
    """Direct sum of b(k, l) a^k conj(a)^l over the model's generators."""
    ac = a.conjugate()
    total, majorant = 0j, 0.0
    for k, l, w in model["point_weights"]:
        total += w * a**k * ac**l
        majorant += w * abs(a) ** (k + l)
    for fam, fw in zip(model["families"], model["family_weights"]):
        (k0, l0), (dk, dl) = fam["start"], fam["step"]
        for s in range(200):
            coeff = fw["w"] * fw["rho"] ** s / math.factorial(s)
            size = coeff * abs(a) ** (k0 + l0 + s * (dk + dl))
            if s > 8 and size < 1e-20 * max(majorant, 1e-300):
                break
            total += coeff * a ** (k0 + s * dk) * ac ** (l0 + s * dl)
            majorant += size
    return total, majorant


def row_sum_scale(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max())
