"""Inequality metrics on nonnegative distributions.

Quantile-backed measure carriers, Lorenz and pseudo-Lorenz curves, Gini and
Hoover coefficients computed by independent routes, the Wasserstein-1 metric
with convergence diagnostics, and estimation pipelines from samples.

The package exports each module's ``__all__``, in the order imported below.
"""

from . import lorenz as _lorenz  # the star import below rebinds `lorenz` to the function
from .measures import *  # noqa: F403
from .lorenz import *  # noqa: F403
from .indices import *  # noqa: F403
from .wasserstein import *  # noqa: F403
from .estimators import *  # noqa: F403
from .specs import *  # noqa: F403
from .catalog import *  # noqa: F403
from . import catalog, estimators, indices, measures, specs, wasserstein

__all__ = [
    name
    for module in (measures, _lorenz, indices, wasserstein, estimators, specs, catalog)
    for name in module.__all__
]

__version__ = "0.1.0"
