"""Localized spectral bases on triangle meshes.

Cotangent FEM operators, manifold harmonics and their localized
variants, spectral surface reconstruction, and functional-map
correspondence, with a file-based command line around them.

The package root exports the entry points the README documents and the
two errors they raise; everything else is reached through its submodule
(``lmh.mesh``, ``lmh.fem``, ``lmh.solvers``, ``lmh.localized``,
``lmh.spectral``, ``lmh.fmap``, ``lmh.synth``, ``lmh.io``).
"""

from .localized import (
    Region,
    compute_lmh,
    compute_mh,
    compute_pmh,
    verify_spectral_gap,
    verify_upper_bound,
    weyl_slope,
)
from .mesh import MeshError
from .solvers import NumericalError

__version__ = "0.1.0"

__all__ = [
    "MeshError",
    "NumericalError",
    "Region",
    "compute_lmh",
    "compute_mh",
    "compute_pmh",
    "verify_spectral_gap",
    "verify_upper_bound",
    "weyl_slope",
]
