"""Exact simulator and certification toolkit for a three-observer
prepare-and-measure dimension-witness protocol with weak measurement.

The package is organized bottom-up:

* `triwitness.qubit`      one- and two-qubit linear algebra
* `triwitness.channel`    the controlled phase-kick interaction
* `triwitness.scenario`   preparations, settings, probability tables
* `triwitness.witness`    the linear and determinant witnesses
* `triwitness.randomness` min-entropies and certified rates
* `triwitness.spheres`    batched minimization over unit vectors
* `triwitness.explore`    settings optimization and the exact w1 window
* `triwitness.cli`        the command-line front end
"""

from .channel import (
    CouplingRangeError,
    bob_state,
    charlie_state,
    controlled_kick,
    evolve_joint,
    phase_kick,
)
from .explore import OptimizeConfig, OptimizeResult, Window, find_violation_window, optimize_settings
from .qubit import InvalidStateError, bloch_to_density, density_to_bloch, partial_trace, projector, tensor
from .randomness import (
    EntropyReport,
    SuperQuantumWitnessError,
    bob_certified,
    charlie_certified,
    entropy_report,
    h_from_w1,
    h_from_w2,
    hmin_global_bound,
    hmin_global_exact,
    hmin_local_bob_exact,
)
from .scenario import (
    InvalidScenarioError,
    ProbTable,
    Scenario,
    build_table,
    build_tables,
    canonical_w1_scenario,
    canonical_w2_scenario,
    p_joint,
)
from .witness import (
    QUANTUM_BOUND_W1,
    QUANTUM_BOUND_W2,
    Violation,
    WitnessValue,
    closed_form,
    violation,
    w1,
    w1_given_z,
    w2,
    w2_given_z,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingRangeError",
    "EntropyReport",
    "InvalidScenarioError",
    "InvalidStateError",
    "OptimizeConfig",
    "OptimizeResult",
    "ProbTable",
    "QUANTUM_BOUND_W1",
    "QUANTUM_BOUND_W2",
    "Scenario",
    "SuperQuantumWitnessError",
    "Violation",
    "Window",
    "WitnessValue",
    "bloch_to_density",
    "bob_certified",
    "bob_state",
    "build_table",
    "build_tables",
    "canonical_w1_scenario",
    "canonical_w2_scenario",
    "charlie_certified",
    "charlie_state",
    "closed_form",
    "controlled_kick",
    "density_to_bloch",
    "entropy_report",
    "evolve_joint",
    "find_violation_window",
    "h_from_w1",
    "h_from_w2",
    "hmin_global_bound",
    "hmin_global_exact",
    "hmin_local_bob_exact",
    "optimize_settings",
    "p_joint",
    "partial_trace",
    "phase_kick",
    "projector",
    "tensor",
    "violation",
    "w1",
    "w1_given_z",
    "w2",
    "w2_given_z",
]
