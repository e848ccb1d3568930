"""Exact certification of quasi-locality, truncation, correlation-decay, and
mixing bounds for dissipative quantum spin models on finite metric spaces."""

from .geometry import (
    FiniteMetricSpace,
    GeometryError,
    ball,
    complement,
    diameter,
    inflate,
    nu_regularity,
    nu_surface_regularity,
    set_distance,
    surface_sets,
)
from .decay import (
    FFunction,
    c_epsilon,
    conv_constant,
    exp_tail,
    f_norm,
    g_regular_bound,
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
    finite_range_fnorm_bound,
    generator,
    interaction_f_norm,
    long_range_zz,
    tfim_dissipative,
)
from .dynamics import (
    Dynamics,
    choi_matrix,
    choi_min_eigenvalue,
    evolve,
    propagator,
)
from .bounds import BoundReport, ModelConstants, WindowedValue
from .correlations import (
    FixedPointAnalysis,
    StateFunctional,
    analyze_fixed_point,
    c_ab,
    centred_correlation,
    convergence_envelope,
    correlation,
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
