"""The package's start-up contract: `import bellcheck` loads its modules on
first use and leaves BLAS threading alone; the CLI runs BLAS on one thread
unless OPENBLAS_NUM_THREADS is set."""

import importlib
import os
import subprocess
import sys

import pytest

import bellcheck

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bellcheck.__file__)))

# The names the package exported when it imported its modules eagerly.
EXPORTS = {
    "clifford": ["BASIS_BLADES", "BASIS_LABELS", "E_X", "E_XY", "E_Y", "E_YZ", "E_Z",
                 "E_ZX", "GRADES", "I_BLADE", "ONE", "Multivector", "batch_product", "dot",
                 "even_subalgebra_iso_check", "geometric_product", "unit_vector",
                 "unit_vectors", "wedge"],
    "models": ["FLIPPED", "NATURAL", "ConstraintAverages", "HiddenState", "MeterModel",
               "UpdateRule", "apply_update", "batch_constraint_check",
               "batch_observable_value", "batch_pair_product", "constraint_check",
               "effective_outcome", "expectation_over_mu", "meter_outcome",
               "observable_value", "pair_product"],
    "quantum": ["batch_singlet_correlation", "batch_spin_op", "chsh_combination",
                "chsh_value", "product_state_correlation", "sequential_probabilities",
                "singlet_correlation", "singlet_state", "spin_op", "tensor"],
    "scenarios": ["McResult", "ScenarioReport", "closed_grid", "run_bell_toy", "run_chsh",
                  "run_constraint_check", "run_epr_scan", "run_sequential",
                  "run_three_particle_search", "search_update_rules"],
}
SUBMODULES = ["clifford", "models", "quantum", "scenarios", "report"]


def run_python(code: str, **env: str) -> str:
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip()


def test_import_loads_no_numpy():
    assert run_python("import sys, bellcheck; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_sets_one_blas_thread_unless_set(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    code = "import os, bellcheck.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, **env) == expected


def test_import_leaves_blas_threads_unset():
    code = "import os, bellcheck; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code) == "None"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_resolve_to_their_module(module):
    home = importlib.import_module(f"bellcheck.{module}")
    for name in EXPORTS[module]:
        assert getattr(bellcheck, name) is getattr(home, name)


def test_submodules_resolve():
    for name in SUBMODULES:
        assert getattr(bellcheck, name) is importlib.import_module(f"bellcheck.{name}")


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from bellcheck import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == {n for names in EXPORTS.values() for n in names} | set(SUBMODULES)
    with pytest.raises(AttributeError):
        bellcheck.no_such_name
