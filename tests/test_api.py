import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ottopair

# the package's public names, by the submodule that defines them
_PUBLIC = {
    "cycle": {
        "CycleColumns", "Regime", "classify_regime", "critical_coupling", "evaluate_cycle",
        "evaluate_cycles", "mode_heats", "perturbative_prediction", "xx_cop_difference",
        "xx_efficiency_difference",
    },
    "entanglement": {"concurrence", "spin_pair_hamiltonian", "thermal_state"},
    "errors": {
        "ConfigError", "DegenerateBaths", "DomainError", "EmptyDomain", "InconsistentEnergy",
        "NumericalError", "OttoPairError", "UnknownModel",
    },
    "medium": {
        "BathPair", "CycleSpec", "MediumKind", "mode_pairs_for_cycle", "model_coupling",
        "oscillator_normal_modes", "spin_normal_modes", "standard_cycle",
    },
    "optimize": {
        "SampleColumns", "SearchDomain", "max_coupled_work", "max_uncoupled_work",
        "oscillator_work_supremum", "sample_engine_points",
    },
    "oracle": {
        "exact_spin_spectrum", "run_verification", "thermal_energy_check",
        "truncated_oscillator_matrix",
    },
}


def _run_child(code, **env_overrides):
    """Run `code` in a fresh interpreter with this checkout's `src` first on
    PYTHONPATH and OPENBLAS_NUM_THREADS taken out of its environment (this
    process has it set once it imports ottopair.cli); returns its stdout."""
    src = str(Path(ottopair.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_every_exported_name_resolves():
    modules = [ottopair] + [
        importlib.import_module(f"ottopair.{info.name}")
        for info in pkgutil.iter_modules(ottopair.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_star_import_binds_the_public_names_and_submodules():
    namespace = {}
    exec("from ottopair import *", namespace)
    del namespace["__builtins__"]
    expected = set(_PUBLIC).union(*_PUBLIC.values())
    assert len(expected) == 45
    assert set(namespace) == expected
    assert sorted(ottopair.__all__) == sorted(expected)
    assert expected <= set(dir(ottopair))


def test_every_public_name_is_its_submodules_object():
    for module_name, names in _PUBLIC.items():
        module = importlib.import_module(f"ottopair.{module_name}")
        assert getattr(ottopair, module_name) is module
        for name in names:
            assert getattr(ottopair, name) is getattr(module, name), name


def test_version_and_unknown_attribute():
    assert ottopair.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        ottopair.no_such_name


def test_bare_import_loads_no_numpy_and_resolves_submodules_on_use():
    code = (
        "import json, sys\n"
        "import ottopair\n"
        "before = 'numpy' in sys.modules\n"
        "pair = ottopair.medium.BathPair(2.0, 1.0)\n"
        "print(json.dumps([before, 'numpy' in sys.modules, ottopair.medium.__name__,\n"
        "                  pair.t_h, ottopair.oracle.__name__]))\n"
    )
    assert _run_child(code) == [False, True, "ottopair.medium", 2.0, "ottopair.oracle"]


# the lookup bench/run.py uses to read the thread count of numpy's OpenBLAS
_CHILD_BLAS_THREADS = """
import ctypes, glob, json, os
import ottopair.cli
import numpy as np
threads = None
for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = int(fn())
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def test_cli_sets_one_blas_thread_before_numpy_loads():
    setting, threads = _run_child(_CHILD_BLAS_THREADS)
    assert setting == "1"
    if threads is None:
        pytest.skip("numpy's OpenBLAS exports no get_num_threads symbol")
    assert threads == 1


def test_cli_keeps_a_blas_thread_count_the_user_set():
    setting, _ = _run_child(_CHILD_BLAS_THREADS, OPENBLAS_NUM_THREADS="2")
    assert setting == "2"
