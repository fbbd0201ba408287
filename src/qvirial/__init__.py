"""qvirial: exact virial expansions for deformed Bose gas models.

Structure functions combining a q-deformation (interaction) with a quadratic
deformation (particle compositeness) feed a truncated-power-series engine
over exact coefficient rings; virial coefficients come out either from exact
series reversion or from closed forms, with a high-precision decimal backend
for the variants that leave the surd ring.
"""

from . import errors, exact, perturb, series, structfn, thermo
from .errors import *
from .exact import *
from .perturb import *
from .series import *
from .structfn import *
from .thermo import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, exact, structfn, series, thermo, perturb) for name in module.__all__
]
