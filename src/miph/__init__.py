"""Multivariate inhomogeneous phase-type modelling of joint lifetimes.

Joint survival models in which coupled lifetimes (for instance the two
members of an insured couple) share the start state of otherwise independent
Markov jump processes, each observed through a Gompertz-type time transform.
The package covers exact joint density/survival/CDF evaluation, conditioning,
closed-form and quadrature dependence measures, EM estimation from
right-censored data with covariate-driven initial vectors, a kernel
conditional Kaplan-Meier estimator for validation, and CSV/JSON interchange.
"""

from . import dataio, estimation, exceptions, model, phasetype
from .dataio import *  # noqa: F403
from .estimation import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .model import *  # noqa: F403
from .phasetype import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*dataio.__all__, *estimation.__all__, *exceptions.__all__,
           *model.__all__, *phasetype.__all__, "__version__"]
