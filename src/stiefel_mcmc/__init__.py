"""Sampling and Bayesian estimation on the Stiefel manifold.

Exact samplers for the von Mises-Fisher and Bingham families on spheres,
column-wise Gibbs kernels for their matrix-variate versions on the
Stiefel manifold, and two Gibbs-sampled models built on them: a
reduced-rank matrix-mean model and a latent-eigenmodel probit analysis
of symmetric binary networks.
"""
__version__ = "0.1.0"

from .errors import (
    ConstraintError,
    DimensionError,
    InputError,
    ParseError,
    StiefelMcmcError,
)
from .frames import OrthonormalFrame, random_uniform_frame
from .samplers import (
    sample_bingham_matrix_gibbs,
    sample_bingham_vector,
    sample_mf_matrix_gibbs,
    sample_mf_vector,
)

__all__ = [
    "__version__",
    "StiefelMcmcError", "DimensionError", "ConstraintError", "InputError",
    "ParseError",
    "OrthonormalFrame", "random_uniform_frame",
    "sample_mf_vector", "sample_bingham_vector",
    "sample_mf_matrix_gibbs", "sample_bingham_matrix_gibbs",
]
