"""Numerical verification of chain rules for flows of conditional laws.

Simulates common-noise interacting particle systems, evaluates exact
derivative calculus for cylindrical functionals of the empirical law,
and checks the resulting chain-rule identities and the linear-quadratic
mean-field dynamic-programming equation to statistical and
discretization tolerance.
"""

__version__ = "0.1.0"

from .chainrule import (
    BrownianFieldSpec,
    EnsembleSpec,
    FactorFunctional,
    FieldComponent,
    RandomFieldSpec,
    VerificationReport,
    VerifyConfig,
    verify_brownian_corollary,
    verify_factor_model,
    verify_ito,
    verify_ito_wentzell,
)
from .errors import (
    BlowUpError,
    InvalidArgumentError,
    NumericOverflowError,
)
from .measures import (
    CylindricalFunctional,
    EmpiricalMeasure,
    MeasurePair,
    OuterFunction,
    TestFunction,
    empirical,
    fd_check_dm,
    fd_check_dm2,
    integral_identity_gap,
)
from .particle import (
    ParticleEnsemble,
    dirac_initial,
    gaussian_quantile_initial,
    measure_flow_modulus,
    simulate_ensemble,
)
from .paths import (
    Partition,
    RngStream,
    SamplePath,
    SdeCoefficients,
    constant_coefficients,
    make_uniform_partition,
    simulate_brownian,
    simulate_factor,
)
from .quadvar import (
    ConvergenceStudy,
    WeightProcess,
    constant_weight,
    convergence_study,
    lemma_convergence_study,
    sampled_weight,
    weighted_qv_sum,
)
from .registry import get_experiment, list_registry
