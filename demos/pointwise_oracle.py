#!/usr/bin/env python3
"""Check the spectral pipeline against slow pointwise evaluation.

Two fully independent routes produce the same tangential field samples:

* spectral: differentiate the potentials per order, then sum the
  tangential-basis series;
* pointwise: evaluate grad(s) + e_r x grad(t) directly from Legendre
  derivative formulas at every grid node.

Projecting the pointwise samples back onto the tangential basis by Gauss x
trapezoid quadrature reproduces the spectral coefficients to quadrature
accuracy, which exercises every conversion in the pipeline at once.
"""

import numpy as np

from spherehhd import (
    GridSpec,
    analyze_z,
    differentiate,
    random_potentials,
    synthesize,
    synthesize_from_potentials,
)

n = 12
s, t = random_potentials(n, seed=10)

grid = GridSpec.for_degree(n)
print(f"grid: {grid.n_theta} Gauss colatitudes x {grid.n_phi} uniform longitudes")

field = differentiate(s, t)
vth_spec, vph_spec = synthesize(field, grid)
vth_point, vph_point = synthesize_from_potentials(s, t, grid)

print(f"max |theta route difference| = {np.max(np.abs(vth_spec - vth_point)):.3e}")
print(f"max |phi route difference|   = {np.max(np.abs(vph_spec - vph_point)):.3e}")

recovered = analyze_z(vth_point, vph_point, grid, n)
dev_th = np.max(np.abs(recovered.theta.flat() - field.theta.flat()))
dev_ph = np.max(np.abs(recovered.phi.flat() - field.phi.flat()))
print(f"quadrature analysis vs spectral coefficients: {max(dev_th, dev_ph):.3e}")

# the quadrature analysis is an exact inverse of synthesis for band-limited data
vth2, vph2 = synthesize(recovered, grid)
print(f"synthesis of the recovered coefficients matches to {np.max(np.abs(vth2 - vth_point)):.3e}")
