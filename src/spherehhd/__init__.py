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

from .spectra import *
from .operators import *
from .solver import *
from .conditioning import *
from .pointwise import *

__version__ = "0.1.0"
