"""Partial information decomposition of discrete joint distributions.

Exact-rational probability tables, the antichain/parthood lattice with its
Möbius coefficients, concrete redundancy measures (Williams-Beer minimum
specific information and shared exclusions), and machine-checkable property
verdicts including the impossibility witnesses for combining local
positivity, re-encoding invariance, and chain-rule or identity properties.
"""

from .engine import (
    ConsistencyReport,
    MeasureEvaluationError,
    PidResult,
    atoms_from_redundancy,
    atoms_from_values,
    c_information,
    conditional_atoms,
    consistency_check,
    redundancy_from_atoms,
    rsi,
    rsi_decomposition_check,
)
from .gates import GateSpec, gate_ids, make_gate
from .lattice import (
    Antichain,
    LatticeSizeError,
    ParthoodDistribution,
    RedundancyLattice,
    antichain_to_parthood,
    c_order_leq,
    degree_of_redundancy,
    enumerate_antichains,
    enumerate_parthood,
    lattice_leq,
    parthood_to_antichain,
    redundancy_lattice,
)
from .measures import (
    RedundancyMeasure,
    available_measures,
    conformance_suite,
    get_measure,
    i_min,
    i_sx,
    register_measure,
    specific_information,
)
from .prob import (
    ConditioningError,
    DistributionError,
    EncodingError,
    JointDistribution,
    Outcome,
    as_fraction,
)
from .properties import (
    PropertyReport,
    TheoremWitness,
    check_corollary1,
    check_id,
    check_iid,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4_equivalents,
    check_lm,
    check_lp,
    check_rei,
    check_sm,
    check_tcr,
    check_theorem1,
    check_theorem2,
    property_matrix,
    run_all_checks,
    run_property,
    theorem_witness,
)

__version__ = "0.1.0"
