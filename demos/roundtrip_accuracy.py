#!/usr/bin/env python3
"""Differentiate random potentials, decompose the field, measure the error.

The spheroidal and toroidal potentials are drawn with standard-normal
coefficients (constant modes zeroed), turned into a tangential field, and
split back.  The relative l2 error of the recovered coefficients stays at
the few-ulp level across truncation degrees because every per-order system
is well conditioned.
"""

import time

from spherehhd import decompose, differentiate, random_spectrum, relative_l2_error

print(f"{'n':>6} {'rel error (s)':>14} {'rel error (t)':>14} {'seconds':>9}")
for n in (16, 32, 64, 128, 256, 512):
    s = random_spectrum(n - 1, seed=1)
    t = random_spectrum(n - 1, seed=2)
    s[0, 0] = 0.0
    t[0, 0] = 0.0

    t0 = time.perf_counter()
    field = differentiate(s, t)
    result = decompose(field)
    elapsed = time.perf_counter() - t0

    err_s = relative_l2_error(result.spheroidal, s)
    err_t = relative_l2_error(result.toroidal, t)
    print(f"{n:6d} {err_s:14.3e} {err_t:14.3e} {elapsed:9.3f}")

print()
print("Least-squares residuals and unrepresentable content are reported per order;")
print("for exact data both vanish:")
n = 32
s = random_spectrum(n - 1, seed=3)
t = random_spectrum(n - 1, seed=4)
s[0, 0] = 0.0
t[0, 0] = 0.0
result = decompose(differentiate(s, t))
print(f"  total residual      = {result.total_residual():.3e}")
print(f"  total out-of-range  = {result.total_out_of_range():.3e}")
