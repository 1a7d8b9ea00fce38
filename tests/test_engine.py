"""Engine behavior: inversion, consistency, aggregates, conditionals, RSI."""

import random
from fractions import Fraction

import pytest

from partinfo import (
    Antichain,
    JointDistribution,
    MeasureEvaluationError,
    Outcome,
    PidResult,
    RedundancyMeasure,
    atoms_from_redundancy,
    antichain_to_parthood,
    atoms_from_values,
    c_information,
    c_order_leq,
    conditional_atoms,
    conditional_c_information,
    consistency_check,
    enumerate_antichains,
    get_measure,
    redundancy_from_atoms,
    redundancy_lattice,
    rsi,
    rsi_decomposition_check,
)

from partinfo.lattice import nonempty_subsets

from conftest import TABLE_CONDITIONS, constant_measure, random_rational_distribution

try:
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st
except ImportError:  # the generated-vector test below is skipped
    st = None

IMIN = get_measure("imin")
ISX = get_measure("isx")
BOTTOM2 = Antichain.of({1}, {2})


def atoms_by_label(result):
    return {a.label: v for a, v in result.atoms.items()}


def test_imin_atoms_on_xor_gate(gate_corpus):
    atoms = atoms_by_label(atoms_from_redundancy(gate_corpus["xor"], IMIN))
    assert abs(atoms["{1}{2}"]) <= 1e-12
    assert abs(atoms["{1}"]) <= 1e-12
    assert abs(atoms["{2}"]) <= 1e-12
    assert abs(atoms["{1,2}"] - 1.0) <= 1e-12


def test_imin_atoms_on_copy_gate(gate_corpus):
    atoms = atoms_by_label(atoms_from_redundancy(gate_corpus["copy2"], IMIN))
    assert abs(atoms["{1}{2}"] - 1.0) <= 1e-12
    assert abs(atoms["{1}"]) <= 1e-12
    assert abs(atoms["{2}"]) <= 1e-12
    assert abs(atoms["{1,2}"] - 1.0) <= 1e-12


def test_constant_measure_leaves_only_bottom_atom(gate_corpus):
    result = atoms_from_redundancy(gate_corpus["xor_source_copy"], constant_measure(0.75))
    bottom = Antichain.of({1}, {2}, {3})
    for antichain, value in result.atoms.items():
        expected = 0.75 if antichain == bottom else 0.0
        assert abs(value - expected) <= 1e-12


def test_measure_failure_names_the_antichain(gate_corpus):
    def broken(d, args):
        if len(args) == 2:
            raise RuntimeError("boom")
        return 0.0

    with pytest.raises(MeasureEvaluationError, match=r"\{1\}\{2\}"):
        atoms_from_redundancy(gate_corpus["xor"], RedundancyMeasure("broken", broken))


def test_consistency_on_xor_source_copy(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    report = consistency_check(atoms_from_redundancy(d, IMIN), d, tol=1e-9)
    assert len(report.entries) == 7
    assert report.passed
    assert report.max_residual <= 1e-9


def test_consistency_flags_all_zero_atoms(gate_corpus):
    d = gate_corpus["xor"]
    zero = atoms_from_redundancy(d, constant_measure(0.0))
    report = consistency_check(zero, d, tol=1e-9)
    assert not report.passed
    flagged = {tuple(sorted(e.subset)) for e in report.violations}
    assert (1, 2) in flagged


def test_redundancy_plus_unique_equals_single_source_information(gate_corpus):
    for gate_id in ("xor", "copy2", "and"):
        d = gate_corpus[gate_id]
        for measure in (IMIN, ISX):
            atoms = atoms_by_label(atoms_from_redundancy(d, measure))
            total = atoms["{1}{2}"] + atoms["{1}"]
            assert abs(total - d.marginal_mi({1})) <= 1e-9


def test_c_information_self_redundancy(gate_corpus):
    for d in gate_corpus.values():
        for measure in (IMIN, ISX):
            result = atoms_from_redundancy(d, measure)
            for i in range(1, d.n_sources + 1):
                value = c_information(result, "red", ({i},))
                assert abs(value - d.marginal_mi({i})) <= 1e-9


def test_c_information_self_synergy_is_conditional_information(gate_corpus):
    for gate_id in ("copy2", "and", "xor"):
        d = gate_corpus[gate_id]
        for measure in (IMIN, ISX):
            result = atoms_from_redundancy(d, measure)
            ws = c_information(result, "ws", ({1},))
            conditional_mi = sum(
                float(p) * d.condition_on(("source", 1), z).marginal_mi({2})
                for z, p in d.variable_marginal(("source", 1)).items()
            )
            assert abs(ws - conditional_mi) <= 1e-9


def test_inclusion_exclusion_on_copy_gate(gate_corpus):
    d = gate_corpus["copy2"]
    result = atoms_from_redundancy(d, IMIN)
    red = c_information(result, "red", BOTTOM2.sorted_members)
    union = c_information(result, "union", BOTTOM2.sorted_members)
    assert abs(red + union - 2.0) <= 1e-9


def test_c_information_red_equals_downward_lattice_sum(gate_corpus):
    for d in gate_corpus.values():
        lattice = redundancy_lattice(d.n_sources)
        result = atoms_from_redundancy(d, ISX)
        sums = redundancy_from_atoms(lattice, result.atoms)
        for antichain in lattice.nodes:
            direct = c_information(result, "red", antichain.sorted_members)
            assert abs(direct - sums[antichain]) <= 1e-12


def test_moebius_round_trip_exact_on_rationals(rng):
    for n in (2, 3):
        lattice = redundancy_lattice(n)
        for _ in range(25):
            values = {
                node: Fraction(rng.randrange(-12, 13), rng.randrange(1, 9))
                for node in lattice.nodes
            }
            atoms = atoms_from_values(lattice, values)
            assert all(isinstance(v, Fraction) for v in atoms.values())
            assert redundancy_from_atoms(lattice, atoms) == values


def down_set_sums(lattice, atoms):
    """Reference down-sum: scan the down-set of every node, in node order."""
    return {above: sum(atoms[below] for below in lattice.down_set(above)) for above in lattice.nodes}


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_round_trip_and_zeta_down_sum_on_generated_vectors():
    fractions = st.builds(Fraction, st.integers(-96, 96), st.integers(1, 12))
    floats = st.floats(min_value=-4, max_value=4, allow_nan=False)

    # no shrink phase: shrinking 166-entry vectors takes minutes
    @settings(derandomize=True, database=None, max_examples=30, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        lattice = redundancy_lattice(data.draw(st.integers(1, 4), label="n"))
        size = len(lattice)
        exact = dict(zip(lattice.nodes, data.draw(
            st.lists(fractions, min_size=size, max_size=size), label="values")))
        atoms = atoms_from_values(lattice, exact)
        assert redundancy_from_atoms(lattice, atoms) == exact
        assert redundancy_from_atoms(lattice, exact) == down_set_sums(lattice, exact)
        approx = dict(zip(lattice.nodes, data.draw(
            st.lists(floats, min_size=size, max_size=size), label="atoms")))
        zeta = redundancy_from_atoms(lattice, approx)
        scan = down_set_sums(lattice, approx)
        assert all(abs(zeta[node] - scan[node]) <= 1e-12 for node in lattice.nodes)

    check()


def test_moebius_round_trip_exact_n5():
    lattice = redundancy_lattice(5, allow_large=True)
    assert len(lattice.zeta_pairs) == 35510     # one addition per cover
    rng = random.Random(5)
    values = {node: Fraction(rng.randrange(-64, 65), rng.randrange(1, 13)) for node in lattice.nodes}
    atoms = atoms_from_values(lattice, values)
    assert all(isinstance(v, Fraction) for v in atoms.values())
    assert redundancy_from_atoms(lattice, atoms) == values


def test_moebius_round_trip_float_path(rng):
    lattice = redundancy_lattice(3)
    for _ in range(25):
        values = {node: rng.uniform(-2, 2) for node in lattice.nodes}
        atoms = atoms_from_values(lattice, values)
        back = redundancy_from_atoms(lattice, atoms)
        assert all(abs(back[node] - values[node]) <= 1e-12 for node in lattice.nodes)


def test_inversion_equals_full_moebius_sum_on_floats():
    # the skipped zero coefficients contribute exact +-0.0, so the atoms are
    # bit-identical to the left-to-right sum over the whole down-set
    lattice = redundancy_lattice(4)
    for seed in range(5):
        rng = random.Random(seed)
        values = {node: rng.uniform(-3, 3) for node in lattice.nodes}
        full = {}
        for above in lattice.nodes:
            total = 0
            for below in lattice.down_set(above):
                total += lattice.moebius(below, above) * values[below]
            full[above] = total
        assert atoms_from_values(lattice, values) == full


def test_conditional_atoms_with_independent_aux(gate_corpus):
    d = gate_corpus["xor"]
    rows = []
    for outcome, p in d.support:
        for z, pz in ((0, Fraction(1, 3)), (1, Fraction(2, 3))):
            rows.append((Outcome(outcome.sources, outcome.target, z), p * pz))
    with_aux = JointDistribution(2, 1, rows)
    conditional = conditional_atoms(with_aux, IMIN, "aux")
    plain = atoms_from_redundancy(d, IMIN)
    for antichain, value in plain.atoms.items():
        assert abs(conditional.atoms[antichain] - value) <= 1e-12


def test_conditional_atoms_on_copy_gate_second_component(gate_corpus):
    conditional = conditional_atoms(gate_corpus["copy2"], IMIN, ("target", 2))
    assert abs(conditional.atoms[BOTTOM2]) <= 1e-12


def test_conditional_atoms_with_constant_conditioner(gate_corpus):
    d = gate_corpus["copy2"]
    rows = [(Outcome(o.sources, o.target, "k"), p) for o, p in d.support]
    with_aux = JointDistribution(2, 2, rows)
    conditional = conditional_atoms(with_aux, IMIN, "aux")
    plain = atoms_from_redundancy(d, IMIN)
    for antichain, value in plain.atoms.items():
        assert abs(conditional.atoms[antichain] - value) <= 1e-12


def test_conditional_self_redundancy_is_conditional_mi(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    for measure in (IMIN, ISX):
        for i in (1, 2):
            value = conditional_c_information(d, measure, "red", ({i},), ("source", 3))
            reference = sum(
                float(p) * d.condition_on(("source", 3), z).marginal_mi({i})
                for z, p in d.variable_marginal(("source", 3)).items()
            )
            assert abs(value - reference) <= 1e-9


def test_conditional_pair_redundancy_vanishes_on_xor_source_copy(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        retargeted = d.retarget_to_sources((i,))
        value = conditional_c_information(
            retargeted, IMIN, "red", ({i}, {j}), ("source", j)
        )
        assert abs(value) <= 1e-9


def test_rsi_values(gate_corpus):
    assert rsi(gate_corpus["xor_source_copy"]) == 1.0
    assert abs(rsi(gate_corpus["copy2"])) <= 1e-12
    assert abs(rsi(gate_corpus["xor"]) + 1.0) <= 1e-12


def test_rsi_decomposition_check(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    report = rsi_decomposition_check(atoms_from_redundancy(d, IMIN), d)
    assert report.passed
    assert abs(report.rsi_value - 1.0) <= 1e-12
    assert abs(report.atom_side - 1.0) <= 1e-9

    copy2 = gate_corpus["copy2"]
    report2 = rsi_decomposition_check(atoms_from_redundancy(copy2, IMIN), copy2)
    assert report2.passed
    assert abs(report2.atom_side) <= 1e-9


def test_rsi_decomposition_holds_for_random_tables(rng):
    for _ in range(8):
        d = random_rational_distribution(rng, n_sources=2, target_arity=1)
        for measure in (IMIN, ISX):
            report = rsi_decomposition_check(atoms_from_redundancy(d, measure), d)
            assert report.passed, (measure.id, report.residual)


def test_condition_order_implies_ordered_aggregates(rng):
    lattice = redundancy_lattice(3)
    antichains = enumerate_antichains(3)
    for _ in range(5):
        atoms = {node: rng.uniform(0, 1) for node in lattice.nodes}
        result = PidResult(3, atoms, "synthetic", "-")
        pairs = [(antichains[k], antichains[m]) for k in range(0, 18, 5) for m in range(0, 18, 3)]
        for condition in ("red", "union", "ws", "vul"):
            for x, y in pairs:
                if c_order_leq(condition, x.sorted_members, y.sorted_members, 3):
                    low = c_information(result, condition, x.sorted_members)
                    high = c_information(result, condition, y.sorted_members)
                    assert low <= high + 1e-12


def test_c_information_sums_the_atoms_a_table_walk_selects(rng):
    lattice = redundancy_lattice(4)
    tables = {node: antichain_to_parthood(node, 4) for node in lattice.nodes}
    for _ in range(2):
        result = PidResult(4, {node: rng.uniform(-1, 1) for node in lattice.nodes}, "synthetic", "-")
        for name, by_table in TABLE_CONDITIONS.items():
            for antichain in lattice.nodes:
                args = antichain.sorted_members
                oracle = sum(value for node, value in result.atoms.items()
                             if by_table(args, tables[node]))
                assert c_information(result, name, args) == oracle, (name, antichain.label)


def test_consistency_residuals_equal_a_table_walk(rng):
    d = random_rational_distribution(rng, n_sources=4)
    lattice = redundancy_lattice(4)
    tables = {node: antichain_to_parthood(node, 4) for node in lattice.nodes}
    result = PidResult(4, {node: rng.uniform(-1, 1) for node in lattice.nodes}, "synthetic", "-")
    report = consistency_check(result, d)
    assert [e.subset for e in report.entries] == list(nonempty_subsets(4))
    for entry in report.entries:
        oracle = sum(value for node, value in result.atoms.items()
                     if tables[node].value(entry.subset))
        assert entry.residual == abs(oracle - d.marginal_mi(entry.subset))


def test_callable_condition_is_rejected(gate_corpus):
    result = atoms_from_redundancy(gate_corpus["xor"], IMIN)
    with pytest.raises(ValueError, match="conditions are named"):
        c_information(result, lambda args, f: True, ({1},))


def test_parthood_questions_reuse_the_decomposition_lattice(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    result = atoms_from_redundancy(d, IMIN)
    cached = redundancy_lattice.cache_info().currsize
    consistency_check(result, d)
    c_information(result, "union", ({1}, {2}))
    c_order_leq("ws", ({1},), ({2},), 3)
    assert redundancy_lattice.cache_info().currsize == cached
