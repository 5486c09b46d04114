"""Quantum Otto engines and refrigerators built from coupled pairs.

Evaluates four-stroke Otto cycles whose working medium is a pair of
quadratically coupled harmonic oscillators or exchange-coupled spin-1/2
systems, decomposed into independent modes.  Includes per-mode and global
heats/work/figures of merit, sandwich bounds, critical couplings,
small-coupling cross-checks, Wootters concurrence of the spin thermal
states, work-extraction optimization, and a brute-force oracle suite.

The public names load lazily (PEP 562): ``import ottopair`` imports no
submodule and not numpy, and each name imports its submodule on first
use.  So ``ottopair.cli`` can set OpenBLAS's thread count before numpy
loads.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "cycle": (
            "CycleColumns", "Regime", "classify_regime", "critical_coupling", "evaluate_cycle",
            "evaluate_cycles", "mode_heats", "perturbative_prediction", "xx_cop_difference",
            "xx_efficiency_difference",
        ),
        "entanglement": ("concurrence", "spin_pair_hamiltonian", "thermal_state"),
        "errors": (
            "ConfigError", "DegenerateBaths", "DomainError", "EmptyDomain", "InconsistentEnergy",
            "NumericalError", "OttoPairError", "UnknownModel",
        ),
        "medium": (
            "BathPair", "CycleSpec", "MediumKind", "mode_pairs_for_cycle", "model_coupling",
            "oscillator_normal_modes", "spin_normal_modes", "standard_cycle",
        ),
        "optimize": (
            "SampleColumns", "SearchDomain", "max_coupled_work", "max_uncoupled_work",
            "oscillator_work_supremum", "sample_engine_points",
        ),
        "oracle": (
            "exact_spin_spectrum", "run_verification", "thermal_energy_check",
            "truncated_oscillator_matrix",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    """Import the submodule that `name` is or comes from, and bind `name`."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
