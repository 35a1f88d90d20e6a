#!/usr/bin/env python3
"""Brute-force strictness oracles and where they agree with spectra.

With strictly positive weights, the kernel quadratic form at scalar points
vanishes exactly when the coefficient vector annihilates every monomial
column, so strictness at a point set is a rank question about the
collocation matrix.  The oracle cross-checks against the smallest eigenvalue
of the kernel Gram, refusing to certify when the truncation tail is too
heavy to trust.
"""

import numpy as np

from hermpd import (
    collocation,
    diagonal_factorial_model,
    grid_factorial_model,
    hermitian_eigen,
    inner_gram,
    kernel_gram,
    modulus_class_sums,
    scalar_points,
    strictness_oracle,
)
from hermpd.exponents import ExponentFamily, ExponentSetSpec
from hermpd.linalg import nullspace_vector

# --- collocation ranks ---------------------------------------------------------
roots = np.exp(2j * np.pi * np.arange(4) / 4)
powers = ExponentSetSpec(families=[ExponentFamily((0, 0), (1, 0))])
print("4th roots, powers 0..3, rank:", collocation(roots, powers, truncation=3).rank)

even = ExponentSetSpec(families=[ExponentFamily((0, 0), (2, 0))])
coll = collocation(roots, even, truncation=6)
print("4th roots, even powers 0..6, rank:", coll.rank, "(z^k sees only k mod 4 here)")
print()

# --- strictness oracle with eigen cross-check -----------------------------------
rng = np.random.default_rng(3)
pts = 0.8 * np.exp(2j * np.pi * rng.random(5)) * rng.uniform(0.5, 1.0, 5)

model = grid_factorial_model(16)
result = strictness_oracle(model, pts, truncation=16, tol=1e-8)
gram = kernel_gram(model, inner_gram(scalar_points(pts)), 1e-12)
spectrum = hermitian_eigen(gram.entries, 1e-8)
print("grid model : strict =", result.strict, " rank =", result.collocation_rank,
      " tail =", f"{result.tail_mass:.2e}", " lambda_min/scale =", f"{spectrum.min / spectrum.scale:.2e}")

diag = diagonal_factorial_model()
equal_mod = np.exp(1j * np.array([0.4, 1.3, 2.9]))  # shared modulus
result = strictness_oracle(diag, equal_mod, truncation=24, tol=1e-8)
print("diag model : strict =", result.strict, " rank =", result.collocation_rank,
      " witness form =", f"{result.witness_form:.2e}")
print()

# --- modulus classes -------------------------------------------------------------
# vanishing along a diagonal exponent window forces each |z| class to vanish
z1 = 0.7 * np.exp(2j * np.pi * np.arange(3) / 3)
z2 = 1.2 * np.exp(2j * np.pi * (np.arange(3) + 0.5) / 3)
pts = np.concatenate([z1, z2])
window = [(j, j) for j in range(12)]
w = pts * np.conj(pts)
d = nullspace_vector(np.stack([w**j for j in range(12)]), 1e-10)
sums = modulus_class_sums(pts, d, window)
for modulus, vals in sums.items():
    print(f"class |z| = {modulus:.2f}: max |class sum| over window = {np.abs(vals).max():.2e}")
total = max(abs(np.sum(d * pts**k * np.conj(pts) ** l)) for k, l in window)
print("max |total sum| over window:", f"{total:.2e}")
