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
    sample_size_check,
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
    io_lipschitz_bound,
    output_modulus_bound,
    output_sup_bound,
    simulate,
    simulate_runs,
    system_from_config,
)
from .signals import (
    EnsembleConfig,
    InputSpec,
    estimate_modulus,
    sample_ensemble,
    sample_on_grid,
)
