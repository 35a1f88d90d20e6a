#!/usr/bin/env python3
"""Splitting an inner-product Gram into scalars plus a PSD remainder.

Any Gram matrix of distinct points in a complex inner product space equals
z_r conj(z_s) + M_rs for pairwise distinct SCALARS z_r and a Hermitian PSD
remainder M.  This is the bridge that reduces strictness questions on an
arbitrary space to the scalar case: the rank-one part already separates the
points, and M only adds to the quadratic form.
"""

import numpy as np

from hermpd import ComplexPointSet, hermitian_eigen, inner_gram, split_gram
from hermpd.linalg import row_sum_scale

rng = np.random.default_rng(42)

# six distinct points in C^4
pts = ComplexPointSet(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
result = split_gram(pts, seed=0, tol=1e-12)

print("projected scalars:")
for z in result.scalars:
    print(f"   {z:.6f}")
print("min pairwise scalar gap:", result.gap)

a = inner_gram(pts).entries
recon = np.abs(a - (np.outer(result.scalars, np.conj(result.scalars)) + result.remainder)).max()
lam = hermitian_eigen(result.remainder, 1e-12).eigenvalues
print("reconstruction error   :", recon / row_sum_scale(a), "(relative)")
print("remainder eigenvalues  :", np.round(lam, 10))
assert lam[0] >= -1e-11 * row_sum_scale(a)

# the split respects the quadratic form: for any coefficients c,
#   c^T A conj(c) = |<c, conj(z)>|^2 + c^T M conj(c)  >=  c^T (z zbar) conj(c)
c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
full = (c @ a @ np.conj(c)).real
rank1 = abs(np.sum(c * result.scalars)) ** 2
print("form at random c:", full, ">=", rank1)
assert full >= rank1 - 1e-10 * row_sum_scale(a)
