"""Exact certification of quasi-locality, truncation, correlation-decay, and
mixing bounds for dissipative quantum spin models on finite metric spaces."""

from .geometry import (
    FiniteMetricSpace,
    GeometryError,
    diameter,
    inflate,
    nu_regularity,
    set_distance,
)
from .decay import (
    FFunction,
    c_epsilon,
    conv_constant,
    exp_tail,
    f_norm,
    pair_sum,
    tail_g,
)
from .qalgebra import (
    ObservableOp,
    ObservationMap,
    apply_map,
    commutator_map,
    devectorize,
    embed,
    from_matrix,
    general_map,
    identity,
    op_norm,
    site_operator,
    vectorize,
)
from .model import (
    DissipativeInteraction,
    LindbladTerm,
    Superoperator,
    generator,
    interaction_f_norm,
    long_range_zz,
    tfim_dissipative,
)
from .dynamics import Dynamics, evolve, propagator
from .bounds import BoundReport, ModelConstants, WindowedValue
from .correlations import (
    FixedPointAnalysis,
    StateFunctional,
    analyze_fixed_point,
    c_ab,
    convergence_envelope,
    correlation,
    covariance,
    mixing_eta,
    periodic_points,
    spectral_gap,
    stationary_state,
)
from .harness import (
    ExperimentConfig,
    RunManifest,
    load_config,
    random_model,
    run_experiment,
)

__version__ = "0.1.0"
