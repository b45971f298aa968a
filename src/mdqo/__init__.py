"""Exact simulator and analysis toolkit for measurement-driven quantum optimization."""

from .analysis import (
    ClosedFormResult,
    EpsilonSweep,
    MonteCarloResult,
    WalkModel,
    epsilon_sweep,
    expected_steps_run,
    expected_steps_surplus_bound,
    expected_steps_with_reset_closed_form,
    expected_steps_with_reset_exact,
    success_prob_derivative,
    walk_monte_carlo,
)
from .control import (
    Budget,
    CriteriaConfig,
    OuterConfig,
    RunSummary,
    StepRecord,
    Trajectory,
    evaluate_return,
    outer_loop,
    rescaled_threshold,
    run_algorithm1,
    run_algorithm2,
    trajectory_rng,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateCountsError,
    DegenerateSpectrumError,
    StepCapError,
    ZeroBranchError,
)
from .mixers import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    AnsatzParams,
    MixerSpec,
    apply_mixer,
    feasible_initial_state,
    optimize_qaoa1,
    qaoa1_state,
)
from .problems import (
    Bounds,
    DiagonalHamiltonian,
    Graph,
    ProblemInstance,
    Rescaling,
    apply_rescaling,
    brute_force_optimum,
    build_maxcut,
    build_mis,
    cost_hamiltonian,
    count_independent_sets,
    driving_hamiltonian,
    feasible,
    feasible_mask,
    independent_sets,
    parse_edge_list,
    penalize,
    rescaling_from_bounds,
    spectrum_bounds,
    subspace_cost,
)
from .statevector import (
    CostDistribution,
    StateVector,
    apply_controlled_x_rotation,
    apply_diagonal_phase,
    apply_x_rotation_all,
    basis_state,
    bitstring_to_index,
    cost_distribution,
    expectation,
    index_to_bitstring,
    sample_bitstring,
    uniform_superposition,
)
from .weak_measurement import (
    OutcomeCounts,
    amplitude_modulation,
    analytic_state,
    peak_position,
    posterior_state,
    success_probability,
    weak_step,
)

__version__ = "0.1.0"
