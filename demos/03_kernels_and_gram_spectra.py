#!/usr/bin/env python3
"""Kernels from coefficient models, and the spectra of their Gram matrices.

Weights w rho^s / s! on arithmetic families make every model an entire
function, so evaluation carries a certified truncation error.  Kernel Gram
matrices of positive-semidefinite inputs stay positive semidefinite, and the
cone and Schur-product closures can be watched numerically.
"""

import math

import numpy as np

from hermpd import (
    ComplexPointSet,
    GramMatrix,
    diagonal_factorial_model,
    eval_kernel,
    grid_factorial_model,
    hermitian_eigen,
    inner_gram,
    kernel_gram,
    scalar_points,
    schur_product,
)

# --- certified evaluation -----------------------------------------------------
model = diagonal_factorial_model()  # f(z) = exp(|z|^2)
for a in (0.0, 1.0, np.exp(0.7j), 1.5 - 0.5j):
    val = eval_kernel(model, a, 1e-12)
    print(f"f({a!s:>22}) = {val:.12f}   exp(|a|^2) = {math.exp(abs(a) ** 2):.12f}")
print()

grid = grid_factorial_model(20)  # b(k, l) = 1/(k! l!), f(z) = exp(z + conj z)
a = 0.3 + 0.4j
print("grid model:", eval_kernel(grid, a, 1e-12), "vs", np.exp(2 * a.real))
print()

# --- Gram matrices of vector points --------------------------------------------
rng = np.random.default_rng(7)
pts = ComplexPointSet(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
inner = inner_gram(pts)
print("inner Gram hermitian defect:", inner.hermitian_defect)

kernel = kernel_gram(grid, GramMatrix(inner.entries / 8), 1e-12)
spectrum = hermitian_eigen(kernel.entries, 1e-10)
print("kernel Gram verdict:", spectrum.verdict, " min eigenvalue:", spectrum.min)
assert spectrum.verdict == "positive_definite"
print()

# --- closure properties ---------------------------------------------------------
g1 = kernel_gram(model, inner_gram(scalar_points([0.2, 0.5j, -0.4])), 1e-12)
g2 = kernel_gram(grid, inner_gram(scalar_points([0.2, 0.5j, -0.4])), 1e-12)
combo = GramMatrix(1.7 * g1.entries + 0.3 * g2.entries)
print("cone combination:", hermitian_eigen(combo.entries, 1e-10).verdict)
print("Schur product   :", hermitian_eigen(schur_product(g1, g2).entries, 1e-10).verdict)

# rank-one inputs reproduce the Hadamard rank-one identity
v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
left = schur_product(GramMatrix(np.outer(v, np.conj(v))), GramMatrix(np.outer(w, np.conj(w))))
right = np.outer(v * w, np.conj(v * w))
print("Hadamard rank-one identity error:", np.abs(left.entries - right).max())
