#!/usr/bin/env python3
"""Condition numbers of the per-order systems next to their proved bounds.

The block system of each order shares its 2-norm condition number with a
small triangular matrix whose entries are known in closed form, so sharp
numerical values (dense SVD) can be compared against the analytic bounds:
a ratio bound for orders m >= 2 and a logarithmic bound at m = 1.
"""

import numpy as np

from spherehhd import kappa_bound, kappa_numeric, qi_singular_bounds
from spherehhd.conditioning import build_R, inverse_norm_conjecture

print("condition numbers vs bounds")
print(f"{'n':>5} {'m':>4} {'kappa(M)':>12} {'kappa(R)':>12} {'bound':>12}")
for n in (16, 64, 256):
    for m in (1, 2, 4, 8):
        if m > n - 1:
            continue
        rep = kappa_numeric(n, m)
        print(f"{n:5d} {m:4d} {rep.kappa_M:12.4f} {rep.kappa_R:12.4f} {rep.bound:12.4g}")

print()
print("singular-value brackets at m >= 2 (size-n factor)")
print(f"{'n':>5} {'m':>4} {'sigma_max':>11} {'<= upper':>11} {'sigma_min':>11} {'>= lower':>11}")
for n, m in ((32, 2), (32, 5), (64, 3)):
    sv = np.linalg.svd(build_R(n, m), compute_uv=False)
    upper, lower = qi_singular_bounds(n, m)
    print(f"{n:5d} {m:4d} {sv[0]:11.4f} {upper:11.4f} {sv[-1]:11.4f} {lower:11.4f}")

print()
print("m = 1: dense inverse norm vs the conjectured logarithmic estimate")
print(f"{'n':>5} {'dense':>10} {'estimate':>10}")
for n in (8, 32, 128):
    r = build_R(n, 1)
    dense = np.linalg.svd(np.linalg.inv(r), compute_uv=False)[0]
    print(f"{n:5d} {dense:10.4f} {inverse_norm_conjecture(n):10.4f}")

print()
print("the condition number decreases as the order grows toward n (n = 48):")
for m in (2, 4, 8, 16, 32, 47):
    kappa = np.linalg.cond(build_R(48 - m, m))
    print(f"  m = {m:3d}: kappa = {kappa:8.4f}  (bound {kappa_bound(48, m):8.4f})")
