"""Support reduction algorithms for convex mixture estimation.

The package fits two nonparametric mixture estimators by minimizing a
convex objective over the cone of positive atomic mixtures:

* least squares estimation of a decreasing convex density on the half
  line (triangular kernels), and
* maximum likelihood Gaussian deconvolution of a location mixture
  (normal kernels).

Both can finish with an off-grid refinement of the grid solution, on by
default in ``mixfit fit``.

The solver machinery is generic: any objective implementing the
:class:`~mixfit.core.ConeObjective` contract can be minimized.  The
top level holds the solver entry points; everything else is imported
from its module (``mixfit.pipeline``, ``mixfit.lsconvex``, ...).
"""

from .core import SolverConfig, check_optimality, dir_deriv_measure, solve
from .families import MixingMeasure, SignedMixingMeasure, combine
from .gridless import fine_tune

__all__ = [
    "MixingMeasure",
    "SignedMixingMeasure",
    "SolverConfig",
    "check_optimality",
    "combine",
    "dir_deriv_measure",
    "fine_tune",
    "solve",
]

__version__ = "0.1.0"
