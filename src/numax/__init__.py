"""Lagrangian min-max optimization with PI-controlled multiplier updates."""

from .core import (
    ConfigurationError,
    ConstrainedProblem,
    GradientCheckReport,
    NumericalError,
    evaluate_lagrangian,
    lagrangian_primal_gradient,
    project_theta,
    validate_gradients,
)
from .dual_optimizers import (
    AdamConfig,
    AdamState,
    GAConfig,
    GAState,
    NuPIConfig,
    NuPIState,
    UMConfig,
    UMState,
    Xi0Policy,
    apply_dual_restarts,
    checked_dual_step,
    dual_step,
    make_dual_state,
    map_um_to_nupi,
)
from .loop import (
    LoopConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    StepRecord,
    TerminationReason,
    Trajectory,
    read_trajectory_csv,
    run,
    write_trajectory_csv,
)
from .analysis import (
    CriticalGains,
    DampingRegime,
    FlowResult,
    Mode,
    QPSystem,
    RatioInputs,
    RegimeKind,
    classify_mode,
    classify_regime,
    critical_kp,
    eigen_1d,
    kkt_solve_qp,
    qp_system_matrix,
    relative_update_ratio,
    simulate_flow,
)
from .problems import (
    SvmDataset,
    SvmSolution,
    benchmark2d_constrained_optimum,
    build_2d_benchmark,
    build_qp_problem,
    build_svm_problem,
    iris_csv_path,
    load_dataset_csv,
    svm_dual_oracle,
    svm_train_accuracy,
    train_validation_split,
)

__version__ = "0.1.0"
