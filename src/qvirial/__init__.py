"""qvirial: exact virial expansions for deformed Bose gas models.

Structure functions combining a q-deformation (interaction) with a quadratic
deformation (particle compositeness) feed a truncated-power-series engine
over exact coefficient rings; virial coefficients come out either from exact
series reversion or from closed forms, with a high-precision decimal backend
for the variants that leave the surd ring.
"""

from .errors import (
    DescriptorError,
    MixedBackendError,
    NonzeroConstantTermError,
    QVirialError,
    UnboundVariableError,
    UnsupportedBackendError,
    UnsupportedOrderError,
    ZeroLinearCoefficientError,
)
from .exact import (
    DecimalBackend,
    SURD,
    SurdBackend,
    SurdRational,
    TruncPoly,
    TruncPolyBackend,
    half_power,
    radical_normalize,
    to_decimal,
)
from .perturb import (
    HamiltonianSplit,
    NumberPoly,
    TwoParamSplit,
    hamiltonian_split,
    two_param_split,
)
from .series import PowerSeries, compose, euler_inverse, jackson_apply, revert
from .structfn import (
    Interpolated,
    QBasic,
    QBasicOfQuadratic,
    QBasicSeries,
    Quadratic,
    QuadraticOfQBasic,
    UNDEFORMED,
    basic_number,
    eval_eps,
    eval_structure,
    monomial_expansion,
    parse_descriptor,
    quadratic_number,
    stirling_first,
)
from .thermo import (
    GasModel,
    VirialTable,
    closed_form_virial,
    fugacity_of_density,
    log_partition_series,
    particle_series,
    pressure_series,
    second_virial_deviation,
    virial_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QVirialError",
    "MixedBackendError",
    "UnsupportedBackendError",
    "NonzeroConstantTermError",
    "ZeroLinearCoefficientError",
    "UnsupportedOrderError",
    "UnboundVariableError",
    "DescriptorError",
    # exact rings
    "radical_normalize",
    "half_power",
    "SurdRational",
    "TruncPoly",
    "SurdBackend",
    "TruncPolyBackend",
    "DecimalBackend",
    "SURD",
    "to_decimal",
    # structure functions
    "QBasic",
    "Quadratic",
    "QuadraticOfQBasic",
    "QBasicOfQuadratic",
    "Interpolated",
    "QBasicSeries",
    "UNDEFORMED",
    "basic_number",
    "quadratic_number",
    "eval_structure",
    "eval_eps",
    "monomial_expansion",
    "stirling_first",
    "parse_descriptor",
    # series engine
    "PowerSeries",
    "compose",
    "revert",
    "jackson_apply",
    "euler_inverse",
    # gas pipeline
    "GasModel",
    "VirialTable",
    "log_partition_series",
    "particle_series",
    "pressure_series",
    "fugacity_of_density",
    "virial_coefficients",
    "closed_form_virial",
    "second_virial_deviation",
    # perturbative split
    "NumberPoly",
    "HamiltonianSplit",
    "TwoParamSplit",
    "hamiltonian_split",
    "two_param_split",
]
