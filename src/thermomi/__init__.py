"""Thermal states of bipartite quantum systems: quantum mutual information
and its interaction-energy upper bound.

The library builds Gibbs states of finite-dimensional bipartite models,
computes von Neumann and relative entropies, the mutual information
I = S_A + S_B - S_AB, and the bound I <= -beta*E_int + ln(Z_A Z_B / Z_AB),
plus sweeps over temperature and coupling for the two-spin XY model.

Each module's ``__all__`` decides what it makes public; the package
re-exports exactly those names. The CLI module is not imported here.
"""

from . import information, models, operator_core, sweep, thermal
from .operator_core import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .thermal import *  # noqa: F401,F403
from .information import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *operator_core.__all__,
    *models.__all__,
    *thermal.__all__,
    *information.__all__,
    *sweep.__all__,
    "__version__",
]
