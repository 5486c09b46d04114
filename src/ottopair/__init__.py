"""Quantum Otto engines and refrigerators built from coupled pairs.

Evaluates four-stroke Otto cycles whose working medium is a pair of
quadratically coupled harmonic oscillators or exchange-coupled spin-1/2
systems, decomposed into independent modes.  Includes per-mode and global
heats/work/figures of merit, sandwich bounds, critical couplings,
small-coupling cross-checks, Wootters concurrence of the spin thermal
states, work-extraction optimization, and a brute-force oracle suite.
"""

from .cycle import (
    CycleColumns,
    Regime,
    classify_regime,
    critical_coupling,
    evaluate_cycle,
    evaluate_cycles,
    mode_heats,
    perturbative_prediction,
    xx_cop_difference,
    xx_efficiency_difference,
)
from .entanglement import (
    concurrence,
    spin_pair_hamiltonian,
    thermal_state,
)
from .errors import (
    ConfigError,
    DegenerateBaths,
    DomainError,
    EmptyDomain,
    InconsistentEnergy,
    NumericalError,
    OttoPairError,
    UnknownModel,
)
from .medium import (
    BathPair,
    CycleSpec,
    MediumKind,
    mode_pairs_for_cycle,
    model_coupling,
    oscillator_normal_modes,
    spin_normal_modes,
    standard_cycle,
)
from .optimize import (
    SampleColumns,
    SearchDomain,
    max_coupled_work,
    max_uncoupled_work,
    oscillator_work_supremum,
    sample_engine_points,
)
from .oracle import (
    exact_spin_spectrum,
    run_verification,
    thermal_energy_check,
    truncated_oscillator_matrix,
)

__version__ = "0.1.0"
