"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime; run with -s (or read
captured stdout) for the summary.
"""

from __future__ import annotations

import time

import numpy as np

from hermpd.construction import (
    block_extend,
    build_counterexample,
    character_coefficients,
    split_gram,
)
from hermpd.exponents import (
    check_strict_criterion,
    diagonal_spec,
    difference_profile,
    even_difference_spec,
    full_grid_spec,
    mixed_stride_spec,
    residue_coverage_bruteforce,
)
from hermpd.kernel import (
    GramMatrix,
    conjugate_model,
    diagonal_factorial_model,
    grid_factorial_model,
    inner_gram,
    kernel_gram,
    scalar_points,
    schur_product,
    unit_weights,
)
from hermpd.linalg import INDEFINITE, hermitian_eigen, row_sum_scale
from hermpd.oracle import quadratic_form, strictness_oracle
from hermpd.sampling import (
    annulus_points,
    equivalence_instance,
    random_point_set,
    random_psd,
    random_spec,
    random_weights,
)
from hermpd.selftest import check_symmetries


def finish(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {detail}")


def min_eig(entries: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((entries + entries.conj().T) / 2)[0])


def test_criterion_01_positive_decision():
    started = time.perf_counter()
    verdict = check_strict_criterion(full_grid_spec())
    assert verdict.holds and verdict.effective_modulus == 1
    finish(1, started, 0.1, "full-grid spec holds")


def test_criterion_02_negative_decisions_and_reduction():
    started = time.perf_counter()
    assert check_strict_criterion(diagonal_spec()).failing_class == (1, 0)
    assert check_strict_criterion(even_difference_spec()).failing_class == (2, 1)
    mixed = check_strict_criterion(mixed_stride_spec())
    assert mixed.holds and mixed.effective_modulus == 6

    rng = np.random.default_rng(101)
    disagreements = 0
    for _ in range(200):
        spec = random_spec(rng)
        profile = difference_profile(spec)
        reduced = check_strict_criterion(spec).failing_class is None
        brute = all(len(residue_coverage_bruteforce(profile, p)) == p for p in range(1, 61))
        disagreements += reduced != brute
    assert disagreements == 0
    finish(2, started, 5.0, "diagonal (1,0), even (2,1), mixed holds; 200-spec brute scan agrees")


def test_criterion_03_end_to_end_counterexamples():
    for name, spec, model in (
        ("diagonal", diagonal_spec(), diagonal_factorial_model()),
        ("even-difference", even_difference_spec(), unit_weights(even_difference_spec())),
    ):
        started = time.perf_counter()
        witness = build_counterexample(spec, check_strict_criterion(spec), truncation=40, tol=1e-10)
        assert len(witness.points) == 2
        coeff = witness.coefficients / np.linalg.norm(witness.coefficients)
        assert abs(np.linalg.norm(coeff) - 1) <= 1e-14
        form = quadratic_form(model, witness.points, coeff, 1e-12)
        assert abs(form) <= 1e-9
        finish(3, started, 1.0, f"{name} witness: 2 points, |form| = {abs(form):.2e}")


def test_criterion_04_strictness_positive_control():
    started = time.perf_counter()
    model = grid_factorial_model(16)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = annulus_points(rng, 8, lo=0.1, hi=0.98, gap=0.25)
        gram = kernel_gram(model, inner_gram(scalar_points(pts)), 1e-12)
        assert min_eig(gram.entries) > 1e-8 * gram.scale
        result = strictness_oracle(model, pts, truncation=16, tol=1e-8)
        assert result.strict and result.collocation_rank == 8
    finish(4, started, 10.0, "50 seeds: lambda_min > 1e-8 scale, rank 8 at truncation 16")


def test_criterion_05_oracle_eigen_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    tol = 1e-8
    for _ in range(300):
        model, pts, _ = equivalence_instance(rng)
        result = strictness_oracle(model, pts, truncation=12, tol=tol)
        assert result.tail_mass < tol  # truncation guard
        gram = kernel_gram(model, inner_gram(scalar_points(pts)), 1e-12)
        eigen_strict = min_eig(gram.entries) > tol * gram.scale
        assert result.strict == eigen_strict
    finish(5, started, 30.0, "300 instances: rank oracle matches sign(lambda_min - tol scale)")


def test_criterion_06_split_reconstruction():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for i in range(200):
        pts = random_point_set(rng, int(rng.integers(1, 9)), int(rng.integers(1, 6)))
        res = split_gram(pts, seed=i, tol=1e-12)
        a = inner_gram(pts).entries
        scale = max(row_sum_scale(a), 1.0)
        assert np.abs(a - (np.outer(res.scalars, np.conj(res.scalars)) + res.remainder)).max() <= 1e-11 * scale
        assert min_eig(res.remainder) >= -1e-11 * scale
        assert res.gap > 0
    finish(6, started, 10.0, "200 splits: reconstruction and PSD remainder within 1e-11 scale")


def test_criterion_07_closure_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g1 = GramMatrix(random_psd(rng, n, int(rng.integers(1, n + 1))))
        g2 = GramMatrix(random_psd(rng, n, int(rng.integers(1, n + 1))))
        a, b = rng.uniform(0, 2, size=2)
        assert hermitian_eigen(a * g1.entries + b * g2.entries, 1e-10).verdict != INDEFINITE
        assert hermitian_eigen(schur_product(g1, g2).entries, 1e-10).verdict != INDEFINITE
    for _ in range(50):
        n = int(rng.integers(1, 5))
        model = random_weights(rng, random_spec(rng, max_stride=2), rho_hi=0.5)
        raw = random_psd(rng, n, n)
        g = GramMatrix(raw / max(1.0, float(np.abs(raw).max())))
        kg = kernel_gram(model, g, 1e-13)
        cg = kernel_gram(conjugate_model(model), g, 1e-13)
        assert np.abs(cg.entries - np.conj(kg.entries)).max() <= 1e-13
    finish(7, started, 10.0, "cone and Schur closure; conjugate-model Gram matches to 1e-13")


def test_criterion_08_symmetry_suite():
    started = time.perf_counter()
    cases, failures = check_symmetries(np.random.default_rng(105), "full")
    assert cases == 2000 and failures == []
    finish(8, started, 10.0, "1000 models: conjugate symmetry and real restriction, bit for bit")


def test_criterion_09_character_annihilator_exactness():
    started = time.perf_counter()
    for p in range(1, 33):
        t = np.arange(p)
        for q in range(p):
            d = character_coefficients(p, q)
            for s in range(p):
                total = np.sum(d * np.exp(2j * np.pi * t * s / p))
                if s == q:
                    assert abs(total - p) <= 1e-12 * p
                else:
                    assert abs(total) <= 1e-12
    finish(9, started, 10.0, "character sums exact for all p <= 32")


def test_criterion_10_block_embedding():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, n))
        a = random_psd(rng, n, rank)
        out = block_extend(
            a,
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        )
        scale = max(row_sum_scale(out), 1.0)
        lam = np.linalg.eigvalsh((out + out.conj().T) / 2)
        assert lam[0] >= -1e-12 * scale
        assert int((lam > 1e-10 * scale).sum()) <= rank + 1
    finish(10, started, 10.0, "200 embeddings: PSD with rank growth at most one")
