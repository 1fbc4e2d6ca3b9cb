"""partkf: partition-based distributed Kalman filtering for interconnected
subsystems.

The package covers the full loop of a partition-based estimation study:

- ``model``: partitioned linear/nonlinear plant models, assembly and
  linearization;
- ``simulate``: ground-truth trajectories under bounded Gaussian noise with
  per-subsystem reproducible noise streams;
- ``dkf``: the one two-phase filter engine with barrier-synchronized,
  order-independent local estimators, and the linear filter ``run_dkf``;
- ``dekf``: the extended filter ``run_dekf``, the same engine fed with
  blocks re-linearized at every instant;
- ``fie``: batch full-information oracles that verify the recursions by
  solving the whole estimation history as one KKT system;
- ``analysis``: error-dynamics decomposition, stability monitors, RMSE and
  Monte Carlo statistics;
- ``harness`` / ``cli``: config-driven experiment runner, benchmark registry
  and file export.
"""

from .analysis import (
    BoundsTable,
    ErrorDecomposition,
    MonteCarloResult,
    StabilityReport,
    check_bounds,
    check_contraction,
    check_weak_coupling,
    contraction_rate,
    error_step,
    lyapunov_values,
    monte_carlo,
    remainder_bounds,
    rmse,
    stability_report,
)
from .benchmarks import Benchmark, available_benchmarks, get_benchmark, register_benchmark
from .dekf import dekf_gain_cov, dekf_predict, dekf_update, run_dekf
from .dkf import (
    CovarianceCollapseError,
    EstimatorDesign,
    EstimatorState,
    ExchangeSnapshot,
    FilterError,
    init_states,
    predict,
    run_dkf,
    update,
)
from .fie import (
    FIEProblem,
    FIESolution,
    OracleError,
    build_local_problem,
    centralized_fie,
    centralized_kf_init,
    centralized_kf_step,
    classical_ekf_init,
    classical_ekf_step,
    local_fie,
    run_dfie,
)
from .harness import (
    ExperimentConfig,
    export,
    import_record,
    load_config,
    run_experiment,
    verify_suite,
)
from .model import (
    GlobalModel,
    LinearizationBlocks,
    LinearizationError,
    LinearSubsystem,
    NonlinearSubsystem,
    StatePartition,
    aggregate_nonlinear,
    assemble_global,
    linear_as_nonlinear,
    linearize,
    make_partition,
)
from .records import RunRecord
from .simulate import NoiseSpec, SimulationError, Trajectory, sample_noise, simulate

__version__ = "0.1.0"
