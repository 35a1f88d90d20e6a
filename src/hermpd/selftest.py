"""Programmatic invariant suites behind the selftest command.

Each check replays one documented invariant with seeded randomness and
returns (cases run, failure messages).  The quick level trims repetition
counts; the full level runs the documented counts.
"""

from __future__ import annotations

import math
from typing import Callable, TypeAlias

import numpy as np

from . import sampling
from .exponents import (
    ExponentFamily,
    ExponentSetSpec,
    check_strict_criterion,
    difference_profile,
    effective_modulus,
    members_upto,
    membership,
    residue_coverage,
    residue_coverage_bruteforce,
)
from .kernel import (
    GramMatrix,
    conjugate_model,
    eval_kernel,
    inner_gram,
    kernel_gram,
    scalar_points,
    schur_product,
    truncation_tail_mass,
)
from .linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    closest_pair,
    hermitian_eigen,
    nullspace_vector,
    rank_factor,
    row_sum_scale,
    unitary_complete,
)
from .construction import (
    block_extend,
    build_counterexample,
    character_coefficients,
    split_gram,
)
from .oracle import collocation, modulus_class_sums, quadratic_form, strictness_oracle

# a string, so that importing this module does not import numpy.random
Check: TypeAlias = "Callable[[np.random.Generator, str], tuple[int, list[str]]]"


def _reps(level: str, quick: int, full: int) -> int:
    return full if level == "full" else quick


# --- exponents ----------------------------------------------------------------

def check_coverage_oracle(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 10, 40)):
        profile = difference_profile(sampling.random_spec(rng))
        for p in range(1, 65):
            cases += 1
            fast = residue_coverage(profile, p)
            brute = residue_coverage_bruteforce(profile, p)
            if fast != brute:
                failures.append(f"coverage mismatch at p={p} for {profile}")
    return cases, failures


def check_verdict_invariance(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 20, 100)):
        spec = sampling.random_spec(rng)
        base = check_strict_criterion(spec).holds
        perm_pts = list(spec.points)
        perm_fams = list(spec.families)
        rng.shuffle(perm_pts)
        rng.shuffle(perm_fams)
        permuted = ExponentSetSpec(perm_pts, perm_fams, spec.require_origin)
        cases += 1
        if check_strict_criterion(permuted).holds != base:
            failures.append(f"verdict changed under permutation for {spec}")
        if spec.families:
            fam = spec.families[0]
            shadow = ExponentFamily(fam.member(1), fam.step)  # same members minus the start
            if shadow not in spec.families:
                duplicated = ExponentSetSpec(spec.points, spec.families + (shadow,), spec.require_origin)
                cases += 1
                if check_strict_criterion(duplicated).holds != base:
                    failures.append(f"verdict changed under duplicate family for {spec}")
    return cases, failures


def check_criterion_monotonicity(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 20, 100)):
        spec = sampling.random_spec(rng)
        if not check_strict_criterion(spec).holds:
            continue
        extra = sampling.random_spec(rng, max_stride=3)
        fams = spec.families + tuple(f for f in extra.families if f not in spec.families)
        grown = ExponentSetSpec(spec.points, fams, spec.require_origin)
        cases += 1
        if not check_strict_criterion(grown).holds:
            failures.append(f"criterion lost by adding families to {spec}")
    return cases, failures


def check_modulus_reduction(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 40, 200)):
        spec = sampling.random_spec(rng)
        profile = difference_profile(spec)
        pstar = effective_modulus(profile)
        verdict = check_strict_criterion(spec)
        scanned = None
        for p in range(1, 4 * pstar + 1):
            covered = residue_coverage(profile, p)
            if len(covered) < p:
                scanned = (p, min(set(range(p)) - covered))
                break
        cases += 1
        if scanned != verdict.failing_class:
            failures.append(f"failing class {verdict.failing_class} disagrees with {scanned} scanned to {4 * pstar} for {spec}")
    return cases, failures


# --- kernel -------------------------------------------------------------------

def check_symmetries(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 100, 1000)):
        # step degree <= 4 keeps e^(rho |a|^deg) finite out to |a| = 3; the
        # closed form is conjugate-symmetric to the bit
        model = sampling.random_weights(rng, sampling.random_spec(rng, max_stride=2))
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(a) > 3:
            a *= 3 / abs(a)
        cases += 1
        if eval_kernel(model, a.conjugate(), 1e-10) != eval_kernel(model, a, 1e-10).conjugate():
            failures.append(f"conjugate symmetry failed at {a}")
        t = rng.uniform(-3, 3)
        cases += 1
        if eval_kernel(model, complex(t, 0.0), 1e-10).imag != 0:
            failures.append(f"real restriction failed at {t}")
    return cases, failures


def check_truncation_certificate(rng, level):
    cases, failures = 0, []
    tol = 1e-10
    for _ in range(_reps(level, 10, 100)):
        # the series summed term by term up to a tail bound below tol / 10, at
        # |a| <= 1, where rounding stays far below tol times the weight mass
        model = sampling.random_weights(rng, sampling.random_spec(rng, max_stride=2), rho_hi=0.5)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a /= max(1.0, abs(a))
        truncation = 0
        while truncation_tail_mass(model, truncation, abs(a)) >= tol / 10:
            truncation += 2
        direct = sum(model.coefficient(k, l) * a**k * a.conjugate() ** l for k, l in members_upto(model.spec, truncation))
        miss = abs(eval_kernel(model, a, tol) - direct)
        cases += 1
        if miss > 2 * tol * max(1.0, truncation_tail_mass(model, -1, abs(a))):  # the whole weight mass, at least M(a)
            failures.append(f"closed form misses the summed series by {miss:.3e} at {a}")
    return cases, failures


def check_cone_closure(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 40, 200)):
        n = int(rng.integers(1, 9))
        g1 = GramMatrix(sampling.random_psd(rng, n, int(rng.integers(1, n + 1))))
        g2 = GramMatrix(sampling.random_psd(rng, n, int(rng.integers(1, n + 1))))
        a, b = rng.uniform(0, 2, size=2)
        cases += 1
        if hermitian_eigen(a * g1.entries + b * g2.entries, 1e-10).verdict == INDEFINITE:
            failures.append("nonnegative combination left the PSD cone")
        cases += 1
        if hermitian_eigen(schur_product(g1, g2).entries, 1e-10).verdict == INDEFINITE:
            failures.append("Schur product left the PSD cone")
    return cases, failures


def check_kernel_gram_psd(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 20, 60)):
        n = int(rng.integers(1, 6))
        spec = sampling.random_spec(rng)
        if not membership(spec, (0, 0)):
            # anchor the scale so the relative PSD band stays meaningful
            spec = ExponentSetSpec(spec.points + ((0, 0),), spec.families, spec.require_origin)
        model = sampling.random_weights(rng, spec, rho_hi=0.5)
        raw = sampling.random_psd(rng, n, int(rng.integers(1, n + 1)))
        g = GramMatrix(raw / max(1.0, float(np.abs(raw).max())))  # keep kernel arguments desk-sized
        kg = kernel_gram(model, g, 1e-11)
        cases += 1
        if hermitian_eigen(kg.entries, 1e-9).verdict == INDEFINITE:
            failures.append("kernel Gram of a PSD input is indefinite")
        conj_gram = kernel_gram(conjugate_model(model), g, 1e-11)
        cases += 1
        if np.abs(conj_gram.entries - np.conj(kg.entries)).max() > max(1e-13, 2e-11 * kg.scale):
            failures.append("conjugate-model Gram deviates from conjugated Gram")
    return cases, failures


# --- linalg -------------------------------------------------------------------

def check_rank_factor(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 100, 500)):
        n = int(rng.integers(1, 17))
        rank = int(rng.integers(0, n + 1))
        a = sampling.random_psd(rng, n, rank)
        fact = rank_factor(a, 1e-12)
        scale = max(row_sum_scale(a), 1.0)
        cases += 1
        if np.abs(a - fact.reconstruct()).max() > 1e-12 * scale * 10:
            failures.append(f"reconstruction error beyond bound at n={n}, rank={rank}")
        cases += 1
        if fact.rank != min(rank, n):
            failures.append(f"rank {fact.rank} != expected {min(rank, n)}")
    return cases, failures


def check_nullspace(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 100, 400)):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        if rng.random() < 0.5 and cols >= 2:
            m[:, -1] = m[:, 0]  # force a dependency
        c = nullspace_vector(m, 1e-10)
        cases += 1
        if c is None:
            if np.linalg.matrix_rank(m) < cols:
                failures.append("missed an existing nullvector")
            continue
        scale = row_sum_scale(m)
        if np.linalg.norm(m @ c) > 1e-10 * scale:
            failures.append("returned vector is not null at tolerance")
        # the image of c is numerically zero, so adjoining it changes nothing
        grown = np.concatenate([m, (m @ c)[:, None]], axis=1)
        sing = np.linalg.svd(m, compute_uv=False)
        sing2 = np.linalg.svd(grown, compute_uv=False)
        rank1 = int((sing > 1e-10 * scale).sum())
        rank2 = int((sing2 > 1e-10 * row_sum_scale(grown)).sum())
        cases += 1
        if rank1 != rank2:
            failures.append("appending the annihilated combination changed the rank")
    return cases, failures


def check_unitary_complete(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 100, 500)):
        m = int(rng.integers(1, 17))
        v = sampling.random_unit_vector(rng, m)
        u = unitary_complete(v)
        cases += 1
        if np.abs(u @ u.conj().T - np.eye(m)).max() > 1e-12:
            failures.append(f"unitarity defect beyond 1e-12 at m={m}")
        cases += 1
        if np.abs(u[0] - v).max() != 0.0:
            failures.append("first row is not the input vector")
    return cases, failures


# --- construction ---------------------------------------------------------------

def check_split(rng, level):
    cases, failures = 0, []
    for i in range(_reps(level, 40, 200)):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 6))
        pts = sampling.random_point_set(rng, n, m)
        res = split_gram(pts, seed=i, tol=1e-12)
        a = inner_gram(pts).entries
        scale = max(row_sum_scale(a), 1.0)
        recon = np.abs(a - (np.outer(res.scalars, np.conj(res.scalars)) + res.remainder)).max()
        lam = hermitian_eigen(res.remainder, 1e-12).min
        cases += 3
        if recon > 1e-11 * scale:
            failures.append(f"split reconstruction {recon:.3e} beyond 1e-11*scale")
        if lam < -1e-11 * scale:
            failures.append(f"split remainder min eigenvalue {lam:.3e}")
        if not res.gap > 0:
            failures.append("split scalars not pairwise distinct")
    return cases, failures


def check_block_extend(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 40, 200)):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, n))
        a = sampling.random_psd(rng, n, rank)
        ca = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        cb = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        out = block_extend(a, ca, cb)
        scale = max(row_sum_scale(out), 1.0)
        lam = hermitian_eigen(out, 1e-12).eigenvalues
        cases += 2
        if lam[0] < -1e-12 * scale:
            failures.append(f"block extension min eigenvalue {lam[0]:.3e}")
        if int((lam > 1e-10 * scale).sum()) > rank + 1:
            failures.append("block extension rank exceeded rank(A) + 1")
    return cases, failures


def check_counterexample(rng, level):
    cases, failures = 0, []
    built = 0
    target = _reps(level, 10, 40)
    while built < target:
        spec = sampling.random_spec(rng)
        verdict = check_strict_criterion(spec)
        if verdict.failing_class is None:
            continue
        built += 1
        witness = build_counterexample(spec, verdict, truncation=20, tol=1e-10)
        cases += 2
        if witness.max_residual > 1e-10:
            failures.append(f"witness residual {witness.max_residual:.3e}")
        p, nvals = witness.p, len(witness.thetas) - 1
        bound = 2 * math.sin(math.pi / (p * (nvals + 2) * (nvals + 1)))
        if closest_pair(witness.points[:, None])[0] < bound:
            failures.append("witness points closer than the analytic gap bound")
        if np.linalg.norm(witness.coefficients) < 1 - 1e-12:
            failures.append("witness coefficients are not of unit norm")
        if len(witness.points) <= 40:
            cases += 1
            model = sampling.random_weights(rng, spec, rho_hi=0.6)
            coeff = witness.coefficients / np.linalg.norm(witness.coefficients)
            form = quadratic_form(model, witness.points, coeff, 1e-12)
            norm1 = float(np.abs(coeff).sum())
            if abs(form) > 1e-12 * norm1**2 + 1e-10 * 20:
                failures.append(f"witness quadratic form {form:.3e} not degenerate")
    return cases, failures


def _character_totals(p: int) -> list[np.ndarray]:
    """totals[q][s] = sum_t d_t exp(2 pi i t s / p) for d = character_coefficients(p, q).

    Row s of the phase table is elementwise the expression a per-s
    np.exp(2j * np.pi * np.arange(p) * s / p) computes, and each row is
    summed on its own as np.sum sums a vector, so the totals carry its bits.
    """
    t = np.arange(p)
    phases = np.exp(2j * np.pi * t * t[:, None] / p)
    return [(character_coefficients(p, q) * phases).sum(axis=1) for q in range(p)]


def check_characters(rng, level):
    cases, failures = 0, []
    for p in range(1, 33):
        for q, totals in enumerate(_character_totals(p)):
            for s, total in enumerate(totals):
                cases += 1
                if s == q:
                    if abs(total - p) > 1e-12 * p:
                        failures.append(f"character sum at (p={p}, q={q}, s={s}) missed p")
                elif abs(total) > 1e-12:
                    failures.append(f"character sum at (p={p}, q={q}, s={s}) = {abs(total):.3e}")
    return cases, failures


# --- oracle ---------------------------------------------------------------------

def check_oracle_eigen(rng, level):
    cases, failures = 0, []
    tol = 1e-8
    for _ in range(_reps(level, 40, 300)):
        model, pts, expect_strict = sampling.equivalence_instance(rng)
        result = strictness_oracle(model, pts, truncation=12, tol=tol)
        cases += 1
        if result.tail_mass >= tol:
            failures.append(f"instance violated the truncation guard: {result.tail_mass:.3e}")
            continue
        gram = kernel_gram(model, inner_gram(scalar_points(pts)), 1e-12)
        eigen_strict = hermitian_eigen(gram.entries, tol).verdict == POSITIVE_DEFINITE
        if result.strict != eigen_strict or result.strict != expect_strict:
            failures.append(
                f"verdict mismatch: oracle {result.strict}, eigen {eigen_strict}, expected {expect_strict}"
            )
    return cases, failures


def check_witness_validity(rng, level):
    cases, failures = 0, []
    tol = 1e-8
    found = 0
    target = _reps(level, 15, 60)
    while found < target:
        model, pts, expect_strict = sampling.equivalence_instance(rng)
        if expect_strict:
            continue
        found += 1
        result = strictness_oracle(model, pts, truncation=12, tol=tol)
        cases += 1
        if result.strict or result.witness is None:
            failures.append("degenerate instance reported strict")
            continue
        truncated = _truncated_table_model(model, 12)
        n = len(pts)
        form = quadratic_form(truncated, pts, result.witness, tol)
        if abs(form) > n * n * tol:
            failures.append(f"truncated-model form {form:.3e} beyond n^2 tol")
    return cases, failures


def _truncated_table_model(model, truncation):
    from .kernel import CoefficientModel, WeightRule

    pairs = members_upto(model.spec, truncation)
    spec = ExponentSetSpec(points=pairs, require_origin=model.spec.require_origin)
    rule = WeightRule({p: model.coefficient(p.k, p.l) for p in pairs}, ())
    return CoefficientModel(spec, rule)


def check_modulus_classes(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 25, 100)):
        # two modulus classes, annihilated jointly along a diagonal window
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        n = n1 + n2
        r1, r2 = 0.6, 1.1
        pts = np.concatenate(
            [r1 * np.exp(2j * np.pi * rng.permutation(np.arange(n1) + rng.random()) / n1),
             r2 * np.exp(2j * np.pi * rng.permutation(np.arange(n2) + rng.random()) / n2)]
        )
        alpha, beta = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        window = [(alpha + j, beta + j) for j in range(2 * n)]
        wvals = pts * np.conj(pts)  # |z|^2, shared within each class
        vand = np.stack([wvals**j for j in range(2 * n)], axis=0)
        d = nullspace_vector(vand, 1e-10)
        cases += 1
        if d is None:
            failures.append("no annihilator for the diagonal window")
            continue
        c = d / (pts**alpha * np.conj(pts) ** beta)
        total = max(abs(np.sum(c * pts**k * np.conj(pts) ** l)) for k, l in window)
        sums = modulus_class_sums(pts, c, window)
        cases += 2
        if total > 1e-9:
            failures.append(f"window total {total:.3e} not annihilated")
        worst = max(float(np.abs(s).max()) for s in sums.values())
        if worst > 10 * 1e-9:
            failures.append(f"per-class sum {worst:.3e} beyond 10x window tolerance")
        if len(sums) != 2:
            failures.append(f"{len(sums)} modulus classes instead of 2")
    return cases, failures


def check_collocation_phase(rng, level):
    cases, failures = 0, []
    for _ in range(_reps(level, 20, 80)):
        spec = sampling.random_spec(rng)
        if not members_upto(spec, 10):
            continue
        n = int(rng.integers(2, 6))
        pts = sampling.annulus_points(rng, n)
        u = np.exp(2j * np.pi * rng.random())
        before = collocation(pts, spec, 10).rank
        after = collocation(u * pts, spec, 10).rank
        cases += 1
        if before != after:
            failures.append(f"rank changed under unit rotation: {before} -> {after}")
    return cases, failures


CHECKS: list[tuple[str, str, Check]] = [
    ("exponents", "coverage_oracle", check_coverage_oracle),
    ("exponents", "verdict_invariance", check_verdict_invariance),
    ("exponents", "criterion_monotonicity", check_criterion_monotonicity),
    ("exponents", "modulus_reduction", check_modulus_reduction),
    ("kernel", "symmetries", check_symmetries),
    ("kernel", "truncation_certificate", check_truncation_certificate),
    ("kernel", "cone_closure", check_cone_closure),
    ("kernel", "kernel_gram_psd", check_kernel_gram_psd),
    ("linalg", "rank_factor", check_rank_factor),
    ("linalg", "nullspace", check_nullspace),
    ("linalg", "unitary_complete", check_unitary_complete),
    ("construction", "split", check_split),
    ("construction", "block_extend", check_block_extend),
    ("construction", "counterexample", check_counterexample),
    ("construction", "characters", check_characters),
    ("oracle", "oracle_eigen", check_oracle_eigen),
    ("oracle", "witness_validity", check_witness_validity),
    ("oracle", "modulus_classes", check_modulus_classes),
    ("oracle", "collocation_phase", check_collocation_phase),
]


def run_selftest(level: str = "quick", seed: int = 0) -> dict:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    suites: dict[str, dict] = {}
    ok = True
    for index, (suite, name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        cases, failures = fn(rng, level)
        entry = suites.setdefault(suite, {"checks": [], "cases": 0, "failures": 0})
        entry["checks"].append({"name": name, "cases": cases, "failures": failures})
        entry["cases"] += cases
        entry["failures"] += len(failures)
        ok = ok and not failures
    return {"level": level, "seed": seed, "ok": ok, "suites": suites}
