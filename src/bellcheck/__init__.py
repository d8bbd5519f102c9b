"""Cl(3) geometric-algebra audit of hidden-variable spin models.

The names below and the submodules are imported on first use, so
`import bellcheck` loads no numpy and leaves its threading settings alone.
"""

import importlib

_EXPORTS = {
    "clifford": """BASIS_BLADES BASIS_LABELS E_X E_XY E_Y E_YZ E_Z E_ZX GRADES I_BLADE ONE
        Multivector batch_product dot even_subalgebra_iso_check geometric_product
        unit_vector unit_vectors wedge""",
    "models": """FLIPPED NATURAL ConstraintAverages HiddenState MeterModel UpdateRule
        apply_update batch_constraint_check batch_observable_value batch_pair_product
        constraint_check effective_outcome expectation_over_mu meter_outcome
        observable_value pair_product""",
    "quantum": """batch_singlet_correlation batch_spin_op chsh_combination chsh_value
        product_state_correlation sequential_probabilities singlet_correlation
        singlet_state spin_op tensor""",
    "scenarios": """McResult ScenarioReport closed_grid run_bell_toy run_chsh
        run_constraint_check run_epr_scan run_sequential run_three_particle_search
        search_update_rules""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("clifford", "models", "quantum", "scenarios", "report")

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
