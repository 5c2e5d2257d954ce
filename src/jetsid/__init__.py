"""jetsid: identify continuous-time tanh recurrent-net models of an
unknown input/output operator by matching output jets against Bernstein
polynomial reconstructions of sampled signals, and evaluate the
closed-form risk and generalization certificates that come with the
scheme."""

__version__ = "0.1.0"

from .bernstein import (
    bernstein_error_bound,
    bernstein_eval,
    bernstein_jet,
    jet_poly_eval,
)
from .bounds import (
    BoundReport,
    ErmRiskBound,
    FixedModelBound,
    empirical_modulus,
    erm_risk_bound,
    fixed_model_risk_bound,
    linear_modulus,
    probe_risk_and_gap,
    rademacher_bound,
    sandwich_error_bound,
    vc_dimension_bound,
)
from .erm import (
    JetDataset,
    TrainConfig,
    TrainResult,
    build_dataset,
    build_teacher_dataset,
    empirical_risk,
    is_feasible,
    project_feasible,
    sample_size_check,
    train,
)
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    JetsidError,
    PreconditionError,
    ShapeError,
)
from .jets import (
    RnnParams,
    output_jet,
)
from .rnn import (
    GROUND_TRUTHS,
    ControlAffineSystem,
    SimConfig,
    bibo_gain_estimate,
    io_lipschitz_bound,
    output_modulus_bound,
    output_sup_bound,
    simulate,
    system_from_config,
    write_trajectory_csv,
)
from .signals import (
    EnsembleConfig,
    InputSpec,
    SampledSignal,
    estimate_modulus,
    eval_input,
    input_jet,
    sample_ensemble,
    sample_on_grid,
    sup_distance,
)
