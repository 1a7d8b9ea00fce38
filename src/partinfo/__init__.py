"""Partial information decomposition of discrete joint distributions.

Exact-rational probability tables, the antichain/parthood lattice with its
Möbius coefficients, concrete redundancy measures (Williams-Beer minimum
specific information and shared exclusions), and machine-checkable property
verdicts including the impossibility witnesses for combining local
positivity, re-encoding invariance, and chain-rule or identity properties.

Each name below is looked up in its module on first access, which imports
that module and what it imports; so a call that uses only the lattice and
the inversions (:mod:`lattice` and :mod:`engine`) loads neither the
measures, the probability tables nor the property checks.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "engine": (
        "ConsistencyReport",
        "MeasureEvaluationError",
        "PidResult",
        "atoms_from_redundancy",
        "atoms_from_values",
        "c_information",
        "conditional_atoms",
        "consistency_check",
        "redundancy_from_atoms",
        "rsi",
        "rsi_decomposition_check",
    ),
    "gates": ("GateSpec", "gate_ids", "make_gate"),
    "lattice": (
        "Antichain",
        "LatticeSizeError",
        "ParthoodDistribution",
        "RedundancyLattice",
        "antichain_to_parthood",
        "c_order_leq",
        "degree_of_redundancy",
        "enumerate_antichains",
        "enumerate_parthood",
        "lattice_leq",
        "parthood_to_antichain",
        "redundancy_lattice",
    ),
    "measures": (
        "RedundancyMeasure",
        "available_measures",
        "conformance_suite",
        "get_measure",
        "i_min",
        "i_sx",
        "register_measure",
        "specific_information",
    ),
    "prob": (
        "ConditioningError",
        "DistributionError",
        "EncodingError",
        "JointDistribution",
        "Outcome",
        "as_fraction",
    ),
    "properties": (
        "PropertyReport",
        "TheoremWitness",
        "check_corollary1",
        "check_id",
        "check_iid",
        "check_lemma1",
        "check_lemma2",
        "check_lemma3",
        "check_lemma4_equivalents",
        "check_lm",
        "check_lp",
        "check_rei",
        "check_sm",
        "check_tcr",
        "check_theorem1",
        "check_theorem2",
        "property_matrix",
        "run_all_checks",
        "run_property",
        "theorem_witness",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A re-exported name, or one of the modules above, imported on first
    access; a name is then bound here, so later reads skip this call."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
