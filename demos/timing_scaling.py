#!/usr/bin/env python3
"""Timing of the decomposition and its inverse: quadratic overall, linear per order.

Every order ``m >= 1`` is one tridiagonal least-squares problem whose plane
rotations the paper gives in closed form; applying them and
back-substituting takes time linear in its size.  Order zero's solution is
in closed form, one division per degree and a rank-one term.  There are n
orders, each O(n), so the whole decomposition costs O(n^2).
``differentiate`` applies each order ``m >= 1``'s tridiagonal blocks and
one chain substitution, also O(n) per order, and scales order zero by
``-sqrt(l (l + 1))``.  Each ``differentiate`` and ``decompose`` call is
timed end to end.
"""

import time

import numpy as np

from spherehhd import decompose, differentiate, random_spectrum, solve_order

sizes = (128, 256, 512, 1024)
times = {"differentiate": [], "decompose": []}
print(f"{'n':>6} {'differentiate s':>16} {'decompose s':>12}")
for n in sizes:
    s = random_spectrum(n - 1, seed=1)
    t = random_spectrum(n - 1, seed=2)
    s[0, 0] = 0.0
    t[0, 0] = 0.0
    t0 = time.perf_counter()
    field = differentiate(s, t)
    t1 = time.perf_counter()
    decompose(field)
    times["differentiate"].append(t1 - t0)
    times["decompose"].append(time.perf_counter() - t1)
    print(f"{n:6d} {times['differentiate'][-1]:16.3f} {times['decompose'][-1]:12.3f}")

for name, seconds in times.items():
    print(f"{name} log-log slope: {np.polyfit(np.log(sizes), np.log(seconds), 1)[0]:.2f}")

print()
print("one order at m = 1: the solve scales linearly in n - m")
rng = np.random.default_rng(0)
print(f"{'n':>6} {'seconds':>10}")
for n in sizes:
    rhs = rng.standard_normal((2 * n, 2))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        solve_order(n, 1, rhs)
        best = min(best, time.perf_counter() - t0)
    print(f"{n:6d} {best:10.4f}")
