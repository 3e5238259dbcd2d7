"""Direct Helmholtz-Hodge decomposition of tangential vector fields on the sphere.

The angular components of a tangential field, expanded in an orthonormal
basis adapted to vector components, are split into spheroidal (surface
gradient) and toroidal (surface curl) potentials by solving one small
banded least-squares system per order.  The whole decomposition costs
O(n^2) for truncation degree n, and the per-order systems are provably
well conditioned.

Main entry points: :func:`differentiate` (potentials -> field) and
:func:`decompose` (field -> potentials); see the conditioning module for
the condition-number analysis and the pointwise module for the slow
ground-truth oracles used in the tests.
"""

from .spectra import (
    ScalarSpectrum,
    ZSpectrum,
    TangentField,
    HHDResult,
    new_scalar_spectrum,
    new_z_spectrum,
    random_spectrum,
    random_potentials,
    relative_l2_error,
    read_spectrum,
    write_spectrum,
)
from .operators import build_A, build_B, shuffle_permutation
from .solver import (
    solve_order,
    differentiate,
    decompose,
    z_to_cscy,
    cscy_to_z,
)
from .conditioning import (
    ConditionReport,
    build_R,
    build_CD,
    kappa_numeric,
    kappa_bound,
    qi_singular_bounds,
    inverse_norm_frobenius_bound,
    inverse_norm_conjecture,
)
from .pointwise import (
    GridSpec,
    legendre_norm,
    eval_Y,
    eval_Z,
    eval_gradY,
    synthesize,
    synthesize_from_potentials,
    analyze_z,
)

__version__ = "0.1.0"
