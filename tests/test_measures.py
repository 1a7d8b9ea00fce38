"""Redundancy measures against independent oracles and shared conformance."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from partinfo import (
    Antichain,
    DistributionError,
    GateSpec,
    JointDistribution,
    Outcome,
    RedundancyMeasure,
    atoms_from_redundancy,
    available_measures,
    conformance_suite,
    consistency_check,
    enumerate_antichains,
    get_measure,
    i_min,
    i_sx,
    make_gate,
    redundancy_lattice,
    register_measure,
    run_all_checks,
    specific_information,
)
from partinfo.engine import call_memo
from partinfo.lattice import nonempty_subsets
from partinfo.measures import _Kernel, _View, _kernel, subset_mi

from conftest import (
    draw_aux_table,
    formula_i_min,
    formula_i_sx,
    formula_specific_information,
    oracle_imin,
    oracle_isx,
    oracle_rows,
    random_rational_distribution,
)

try:
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st
except ImportError:  # the generated-table test below is skipped
    st = None

BOTTOM2 = Antichain.of({1}, {2})


def test_specific_information_examples(gate_corpus):
    copy2 = gate_corpus["copy2"]
    table = specific_information(copy2, {1})
    assert set(table) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(abs(v - 1.0) <= 1e-12 for v in table.values())

    xor_table = specific_information(gate_corpus["xor"], {1})
    assert all(abs(v) <= 1e-12 for v in xor_table.values())


def test_specific_information_averages_to_mutual_information(gate_corpus, rng):
    distributions = list(gate_corpus.values()) + [
        random_rational_distribution(rng, n_sources=2, target_arity=1) for _ in range(5)
    ]
    for d in distributions:
        for i in range(1, d.n_sources + 1):
            table = specific_information(d, {i})
            average = sum(float(p) * table[t] for t, p in d.target_marginal().items())
            assert abs(average - d.marginal_mi({i})) <= 1e-12


def test_imin_gate_values(gate_corpus):
    assert abs(i_min(gate_corpus["copy2"], BOTTOM2.sorted_members) - 1.0) <= 1e-12
    assert abs(i_min(gate_corpus["xor"], BOTTOM2.sorted_members)) <= 1e-12
    # frozen from the brute-force oracle over the four-outcome support
    assert abs(i_min(gate_corpus["and"], BOTTOM2.sorted_members) - 0.3112781244591329) <= 1e-12


def test_isx_gate_values(gate_corpus):
    assert abs(i_sx(gate_corpus["xor"], BOTTOM2.sorted_members) - math.log2(2 / 3)) <= 1e-12
    assert abs(i_sx(gate_corpus["copy2"], BOTTOM2.sorted_members) - math.log2(4 / 3)) <= 1e-12


def test_singleton_argument_is_self_redundancy(gate_corpus):
    for d in gate_corpus.values():
        for measure_id in ("imin", "isx"):
            measure = get_measure(measure_id)
            for i in range(1, d.n_sources + 1):
                value = measure.evaluate(d, ({i},))
                assert abs(value - d.marginal_mi({i})) <= 1e-12


def test_isx_regression_for_source_independent_of_target():
    # S1 independent of (S2, T) with T a copy of S2
    rows = [
        (Outcome((s1, s2), (s2,)), Fraction(1, 4))
        for s1 in (0, 1)
        for s2 in (0, 1)
    ]
    d = JointDistribution(2, 1, rows)
    both = i_sx(d, BOTTOM2.sorted_members)
    second_only = i_sx(d, (frozenset({2}),))
    assert abs(both - math.log2(4 / 3)) <= 1e-12
    assert abs(second_only - 1.0) <= 1e-12
    assert abs(both - second_only) > 0.5


def test_measures_match_oracles_on_random_tables(rng):
    argsets = [({1},), ({2},), ({1}, {2}), ({1, 2},), ({1}, {2}, {1, 2})]
    for _ in range(6):
        d = random_rational_distribution(rng, n_sources=2, target_arity=1)
        rows = oracle_rows(d)
        for args in argsets:
            assert abs(i_min(d, [frozenset(a) for a in args]) - oracle_imin(rows, args)) <= 1e-12
            assert abs(i_sx(d, [frozenset(a) for a in args]) - oracle_isx(rows, args)) <= 1e-12


def test_aux_rows_sharing_sources_and_target_are_merged():
    # rows that differ only in aux must act as one (sources, target) point,
    # down to the last bit of every atom
    aux_rows = [
        (Outcome((0, 0), (0,), "a"), Fraction(1, 7)),
        (Outcome((0, 0), (0,), "b"), Fraction(1, 11)),
        (Outcome((0, 1), (1,), "a"), Fraction(2, 9)),
        (Outcome((1, 0), (1,), "b"), Fraction(1, 5)),
        (Outcome((1, 1), (0,), "a"), Fraction(1, 13)),
        (Outcome((1, 1), (0,), "b"), Fraction(1, 9)),
        (Outcome((0, 1), (0,), "b"), 1 - Fraction(1, 7) - Fraction(1, 11) - Fraction(2, 9)
         - Fraction(1, 5) - Fraction(1, 13) - Fraction(1, 9)),
    ]
    merged = {}
    for outcome, p in aux_rows:
        key = (outcome.sources, outcome.target)
        merged[key] = merged.get(key, 0) + p
    with_aux = JointDistribution(2, 1, aux_rows)
    without_aux = JointDistribution(2, 1, [(Outcome(s, t), p) for (s, t), p in merged.items()])
    for measure_id in ("imin", "isx"):
        measure = get_measure(measure_id)
        got = atoms_from_redundancy(with_aux, measure)
        want = atoms_from_redundancy(without_aux, measure)
        assert got.redundancy == want.redundancy
        assert got.atoms == want.atoms


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_measures_match_oracles_on_generated_tables():
    symbols = st.one_of(st.integers(0, 2), st.sampled_from(["a", "b"]))
    masses = st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12)

    # no shrink phase: on a failure, shrinking through the oracles takes minutes
    @settings(derandomize=True, database=None, max_examples=120, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3), label="n")
        arity = data.draw(st.integers(1, 2), label="target arity")
        aux = symbols if data.draw(st.booleans(), label="aux") else st.none()
        cells = data.draw(st.lists(
            st.tuples(st.tuples(*[symbols] * n), st.tuples(*[symbols] * arity), aux),
            min_size=1, max_size=10, unique=True,
        ), label="cells")
        raw = data.draw(st.lists(masses, min_size=len(cells), max_size=len(cells)), label="masses")
        rows = [(Outcome(s, t, z), m / sum(raw)) for (s, t, z), m in zip(cells, raw)]
        # any argument tuple: non-antichains and repeated members included
        args = data.draw(st.lists(
            st.frozensets(st.integers(1, n), min_size=1), min_size=1, max_size=4,
        ), label="args")

        d = JointDistribution(n, arity, rows)
        reference = oracle_rows(d)
        imin, isx = i_min(d, args), i_sx(d, args)
        assert abs(imin - oracle_imin(reference, args)) <= 1e-12
        assert abs(isx - oracle_isx(reference, args)) <= 1e-12

        # an equal table built separately, its caches warmed in another order
        twin = JointDistribution(n, arity, rows[::-1])
        for a in reversed(args):
            i_min(twin, (a,))
            i_sx(twin, (a,))
        assert i_min(twin, args) == imin and i_sx(twin, args) == isx
        assert i_min(d, args) == imin and i_sx(d, args) == isx

    check()


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_kernel_paths_equal_the_direct_formulas_bit_for_bit():
    # specific information read off the kernel's points, and i_sx with its
    # per-(event, target) log memo, give the floats of the direct formulas;
    # aux rows that share (s, t) and explicit zero rows included

    @settings(derandomize=True, database=None, max_examples=120, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        d = draw_aux_table(data)
        n = d.n_sources
        args = data.draw(st.lists(st.frozensets(st.integers(1, n), min_size=1),
                                  min_size=1, max_size=4), label="args")
        for a in nonempty_subsets(n):
            got, want = specific_information(d, a), formula_specific_information(d, a)
            assert list(got.items()) == list(want.items())
        value = i_sx(d, args)
        assert value == formula_i_sx(d, args)
        assert i_sx(d, args) == value              # this call reads every log from the memo
        twin = JointDistribution(n, d.target_arity, d.outcomes[::-1])
        assert twin == d and i_sx(twin, args[::-1]) == formula_i_sx(d, args[::-1])
        assert i_sx(twin, args) == value

    check()


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_kernel_grouped_mutual_information_equals_marginal_mi_bit_for_bit():
    # I(S;T) read off the kernel's grouping by S, cold and after a
    # decomposition filled it, is the float of d.marginal_mi(S)

    symbols = st.one_of(st.integers(-1, 2), st.sampled_from(["a", "b", "10"]))

    @settings(derandomize=True, database=None, max_examples=80, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4), label="n")
        arity = data.draw(st.integers(1, 2), label="target arity")
        points = data.draw(st.lists(st.tuples(st.tuples(*[symbols] * n), st.tuples(*[symbols] * arity)),
                                    min_size=1, max_size=12, unique=True), label="points")
        cells = [(s, t, z) for s, t in points
                 for z in data.draw(st.lists(symbols, min_size=1, max_size=2, unique=True),
                                    label="aux values")]
        weights = data.draw(st.lists(st.integers(0, 5), min_size=len(cells),
                                     max_size=len(cells)).filter(any), label="weights")
        rows = [(Outcome(s, t, z), Fraction(w, sum(weights))) for (s, t, z), w in zip(cells, weights)]
        d = JointDistribution(n, arity, rows)
        for subset in nonempty_subsets(n):
            assert subset_mi(d, subset) == d.marginal_mi(subset)
        measure = data.draw(st.sampled_from([get_measure("imin"), get_measure("isx")]))
        warm = JointDistribution(n, arity, rows[::-1])
        atoms_from_redundancy(warm, measure)
        for subset in nonempty_subsets(n):
            assert subset_mi(warm, subset) == d.marginal_mi(subset)

    check()
    with pytest.raises(DistributionError, match="no target"):
        subset_mi(JointDistribution(1, 0, [(((0,), ()), 1)]), {1})


def _seeded_aux_table(rng: random.Random, n: int, alphabet: int, points: int,
                      max_weight: int) -> JointDistribution:
    """``points`` distinct (sources, target) cells with a binary target, each
    on one to three aux rows that share it, weights 0..max_weight (zero rows
    kept in the table)."""
    grid = [(s, (t,)) for s in itertools.product(range(alphabet), repeat=n) for t in (0, 1)]
    cells = [(s, t, z, rng.randint(0, max_weight))
             for s, t in rng.sample(grid, points) for z in rng.sample("abc", rng.randint(1, 3))]
    total = sum(w for *_, w in cells)
    return JointDistribution(n, 1, [(Outcome(s, t, z), Fraction(w, total)) for s, t, z, w in cells])


def _direct_column(d: JointDistribution, mask: int, field_bits: int) -> int:
    """Per (sources, target) point of ``d``, in support order, the weights of
    the points that agree with it on the sources in ``mask`` and of those that
    also share its target, at bits ``2k * field_bits`` and ``field_bits`` up."""
    points = {}
    for outcome, p in d.support:
        key = outcome.sources, outcome.target
        points[key] = points.get(key, 0) + p
    on = [i for i in range(d.n_sources) if mask >> i & 1]
    column = 0
    for k, (s, t) in enumerate(points):
        agree = [(t2, p2) for (s2, t2), p2 in points.items() if all(s2[i] == s[i] for i in on)]
        w_source = sum(p2 for _, p2 in agree) * d._denominator
        w_joint = sum(p2 for t2, p2 in agree if t2 == t) * d._denominator
        assert w_source.denominator == w_joint.denominator == 1
        column |= (int(w_source) | int(w_joint) << field_bits) << 2 * k * field_bits
    return column


@pytest.mark.parametrize("points, max_weight, field_bits", [
    (16, 3, 8), (64, 6, 16), (64, 10**6, 32), (16, 10**12, None),
], ids=["byte", "narrow", "word", "wide"])
def test_isx_kernel_equals_the_direct_formula_at_n4_and_n5(points, max_weight, field_bits):
    # the inclusion-exclusion kernel against the per-point event sums, by ==,
    # at every field width: pairs of 1, 2 and 4-byte fields are packed and
    # read by struct, wider ones (wide weights) by slicing
    rng = random.Random(f"isx-kernel:{max_weight}")
    d = _seeded_aux_table(rng, 4, 3, points, max_weight)
    kernel = _kernel(d)
    if field_bits is None:
        assert kernel.field_bits > 32 and not kernel._pairs
    else:
        assert kernel.field_bits == field_bits and kernel._pairs
    for mask in range(16):
        assert kernel.column(mask) == _direct_column(d, mask, kernel.field_bits), mask
    nodes = [node.sorted_members for node in redundancy_lattice(4).nodes]
    for args in nodes:
        assert i_sx(d, args) == formula_i_sx(d, args), args
    rows = oracle_rows(d)
    for args in rng.sample(nodes, 6):
        assert abs(i_sx(d, args) - oracle_isx(rows, args)) <= 1e-12, args
    # argument tuples that are not antichains: duplicates, supersets (after
    # and before the member they contain) and reversed order
    for args in rng.sample(nodes, 8):
        grown = args[0] | {rng.randint(1, 4)}
        for variant in (args + args[:1], args + (grown,), (grown,) + args, args[::-1]):
            assert i_sx(d, variant) == formula_i_sx(d, variant), variant

    d5 = _seeded_aux_table(rng, 5, 2, 20, max_weight)
    antichains = enumerate_antichains(5)
    bottom = tuple(frozenset({i}) for i in range(1, 6))
    top = (frozenset(range(1, 6)),)
    for args in [bottom, top] + [a.sorted_members for a in rng.sample(antichains, 40)]:
        assert i_sx(d5, args) == formula_i_sx(d5, args), args


def test_imin_equals_the_direct_formula_at_n4_and_n5():
    # the list-aligned tables against p(t) * min over the per-target formula,
    # by ==; sources with 1, 2, 3 and 5 symbols, ints and strings mixed, aux
    # rows that share a cell and explicit zero rows
    rng = random.Random("imin-formula")
    alphabets = [("a",), (0, "b"), (2, "x", 0), (4, 3, "z", 1, "y")]
    grid = [(s, (t,)) for s in itertools.product(*alphabets) for t in (1, "t", 0)]
    cells = [(s, t, z, rng.randint(0, 6))
             for s, t in rng.sample(grid, 40) for z in rng.sample("abc", rng.randint(1, 3))]
    total = sum(w for *_, w in cells)
    d = JointDistribution(4, 1, [(Outcome(s, t, z), Fraction(w, total)) for s, t, z, w in cells])
    assert any(w == 0 for *_, w in cells)
    nodes = [node.sorted_members for node in redundancy_lattice(4).nodes]
    for args in nodes:
        assert i_min(d, args) == formula_i_min(d, args), args
    # argument tuples that are not antichains: duplicates, supersets (after
    # and before the member they contain) and reversed order
    for args in nodes:
        grown = args[0] | {rng.randint(1, 4)}
        for variant in (args + args[:1], args + (grown,), (grown,) + args, args[::-1]):
            assert i_min(d, variant) == formula_i_min(d, variant), variant

    d5 = _seeded_aux_table(rng, 5, 2, 20, 6)
    bottom = tuple(frozenset({i}) for i in range(1, 6))
    top = (frozenset(range(1, 6)),)
    for args in [bottom, top] + [a.sorted_members for a in rng.sample(enumerate_antichains(5), 40)]:
        assert i_min(d5, args) == formula_i_min(d5, args), args


@pytest.mark.parametrize("measure", [i_min, i_sx], ids=["imin", "isx"])
def test_every_argument_member_is_checked_against_the_table(gate_corpus, measure):
    # a member that contains another adds nothing to either measure, but its
    # indices must still be source indices of the table; no member, no value
    d = gate_corpus["xor"]
    measure(d, [{1}])
    for args in ([{1}, {1, 7}], [{1, 7}, {1}], [{1}, {2}, {2, 3}], [{3}], [{1}, {0, 1}],
                 [{1}, {1, "a"}]):
        with pytest.raises(DistributionError, match="out of range"):
            measure(d, args)
    with pytest.raises(ValueError, match="at least one argument collection"):
        measure(d, [])
    for args in ([set()], [{1}, set()], (frozenset(),), (frozenset({1}), frozenset())):
        with pytest.raises(ValueError, match="nonempty index sets"):
            measure(d, args)


@pytest.mark.parametrize("measure", [i_min, i_sx], ids=["imin", "isx"])
def test_kept_member_masks_serve_only_the_tuple_checked(gate_corpus, measure):
    # an argument tuple's masks are kept after its first call; an equal tuple
    # of other index types is still checked, and an unhashable one each time
    d = gate_corpus["xor"]
    value = measure(d, ((1,), (2,)))
    assert measure(d, ((1,), (2,))) == value
    with pytest.raises(DistributionError, match="out of range"):
        measure(d, ((1.0,), (2,)))
    with pytest.raises(DistributionError, match="out of range"):
        measure(d, (frozenset({1.0}), frozenset({2})))
    assert measure(d, [{1}, {2}]) == measure(d, ({1}, {2})) == value


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_reencoding_keeps_entropies_exactly_and_atoms_within_rounding():
    # relabelling sources and the joint target through bijections permutes
    # the terms of each entropy, and math.fsum rounds their sum the same way
    # in any order; the atoms come from loops that add in support order,
    # which relabelling changes, so they may move in the last bits
    symbols = st.one_of(st.integers(0, 5), st.sampled_from("abcdef"))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3), label="n")
        arity = data.draw(st.integers(1, 2), label="target arity")
        aux = symbols if data.draw(st.booleans(), label="aux") else st.none()
        cells = data.draw(st.lists(
            st.tuples(st.tuples(*[symbols] * n), st.tuples(*[symbols] * arity), aux),
            min_size=1, max_size=10, unique=True,
        ), label="cells")
        weights = data.draw(st.lists(st.integers(0, 6), min_size=len(cells),
                                     max_size=len(cells)).filter(any), label="weights")
        d = JointDistribution(n, arity, [(Outcome(s, t, z), Fraction(w, sum(weights)))
                                         for (s, t, z), w in zip(cells, weights)])

        def images(keys, values, label):
            return dict(zip(keys, data.draw(st.lists(values, min_size=len(keys), max_size=len(keys),
                                                     unique=True), label=label)))

        source_maps = {i: images(d.variable_support(("source", i)), symbols, f"source {i} images")
                       for i in range(1, n + 1)}
        new_arity = data.draw(st.integers(1, 2), label="new target arity")
        targets = d.marginal_support([("target", j) for j in range(1, arity + 1)])
        target_map = images(targets, st.tuples(*[symbols] * new_arity), "target images")
        recoded = d.reencode(source_maps, target_map)

        def selector_sets(table):
            sources = [("source", i) for i in range(1, n + 1)]
            target = [("target", j) for j in range(1, table.target_arity + 1)]
            sets = [[s] for s in sources] + [sources, target, sources + target]
            return sets + [["aux"], sources + ["aux"]] if table.has_aux else sets

        for before, after in zip(selector_sets(d), selector_sets(recoded)):
            assert d.entropy(before) == recoded.entropy(after), before
        for measure_id in ("imin", "isx"):
            measure = get_measure(measure_id)
            want = atoms_from_redundancy(d, measure).atoms
            got = atoms_from_redundancy(recoded, measure).atoms
            for node, value in want.items():
                assert abs(got[node] - value) <= 1e-12, (measure_id, node.label)

    check()


def test_imin_bounded_by_member_informations(gate_corpus):
    for d in gate_corpus.values():
        for antichain in enumerate_antichains(d.n_sources):
            value = i_min(d, antichain.sorted_members)
            bound = min(d.marginal_mi(m) for m in antichain.members)
            assert value <= bound + 1e-12


def test_conformance_suite_passes_for_shipped_measures(gate_corpus):
    for d in gate_corpus.values():
        for measure_id in ("imin", "isx"):
            report = conformance_suite(get_measure(measure_id), d, tol=1e-12)
            assert report.passed, report.violations


def test_conformance_suite_reuses_the_decomposition_lattice():
    # the suite walks the nodes of the lattice the decomposition built, so
    # an n=4 process enumerates the 166 antichains once, not per call form
    d = random_rational_distribution(random.Random(4), n_sources=4)
    measure = get_measure("imin")
    atoms_from_redundancy(d, measure)
    before = enumerate_antichains.cache_info()
    assert conformance_suite(measure, d).passed
    assert enumerate_antichains.cache_info() == before


def test_conformance_flags_asymmetric_fake_measure(gate_corpus):
    fake = RedundancyMeasure("first_arg_mi", lambda d, args: d.marginal_mi(args[0]))
    report = conformance_suite(fake, gate_corpus["xor_source_copy"], tol=1e-12)
    assert not report.passed
    assert {v.kind for v in report.violations} == {"symmetry"}


def test_registry_lookup_and_plugins():
    assert set(available_measures()) >= {"imin", "isx"}
    with pytest.raises(ValueError, match="unknown measure"):
        get_measure("broja")
    plugin = RedundancyMeasure("plugin_zero", lambda d, args: 0.0)
    register_measure(plugin)
    try:
        assert get_measure("plugin_zero") is plugin
        with pytest.raises(ValueError, match="already registered"):
            register_measure(RedundancyMeasure("imin", lambda d, args: 0.0))
    finally:
        from partinfo.measures import _REGISTRY

        _REGISTRY.pop("plugin_zero", None)


def test_measure_argument_validation(gate_corpus):
    measure = get_measure("imin")
    with pytest.raises(ValueError):
        measure.evaluate(gate_corpus["xor"], ())
    with pytest.raises(ValueError):
        measure.evaluate(gate_corpus["xor"], (set(),))


def _fresh(d: JointDistribution) -> JointDistribution:
    """An equal table built again, with no kernel yet."""
    return JointDistribution(d.n_sources, d.target_arity, d.outcomes)


def test_equal_kernel_contents_share_one_kernel_within_a_call_memo(monkeypatch):
    # relabelling source 1 and the target in their canonical order leaves
    # every point where it was, so the kernel's contents are unchanged;
    # swapping source 1's symbols reorders the points, so it is not.  Each
    # relabelling reads the gate's kernel through a view in its own point
    # order; the same tables built again from their rows have no such link
    # and share a kernel by its contents
    gate = make_gate(GateSpec("and", "1/8"))
    kept = [gate.reencode({1: ((0, "a"), (1, "b"))}),
            gate.reencode(None, (((0,), (5,)), ((1,), (6,)))),
            gate.reencode({2: ((0, -3), (1, 4))}, (((0,), ("p",)), ((1,), ("q",))))]
    swapped = gate.reencode({1: ((0, 1), (1, 0))})
    built = []
    init = _Kernel.__init__
    monkeypatch.setattr(_Kernel, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    with call_memo():
        kernel = _kernel(gate)
        views = [_kernel(d) for d in kept]
        assert all(type(view) is _View and view.kernel is kernel for view in views)
        assert all(view.order == tuple(range(len(gate.support))) for view in views)
        assert views[0] is views[1] is views[2]     # one kernel and one order: one view
        assert _kernel(swapped) is not views[0] and _kernel(swapped).kernel is kernel
        assert _kernel(swapped).order != views[0].order
        rebuilt = [_fresh(d) for d in kept]
        assert all(_kernel(d) is kernel for d in rebuilt)
        swapped_kernel = _kernel(_fresh(swapped))
        assert swapped_kernel is not kernel
        assert swapped_kernel.contents != kernel.contents
    # a table that finds its kernel's contents in the memo builds no kernel,
    # and a view builds none
    assert built == [kernel, swapped_kernel]
    # outside a memo every table built from rows builds its own, with equal contents
    tables = [_fresh(d) for d in [gate] + kept]
    kernels = [_kernel(d) for d in tables]
    assert len(set(map(id, kernels))) == len(kernels)
    assert {k.contents for k in kernels} == {kernel.contents}


def test_a_shared_kernel_gives_each_table_its_own_labels_and_the_fresh_values():
    gate = make_gate(GateSpec("xor_source_copy", "1/16"))
    relabelled = gate.reencode({3: ((0, "x"), (1, "y"))},
                               [(t, (f"t{t[0]}",) + t[1:]) for t in gate.marginal_support(
                                   [("target", 1), ("target", 2), ("target", 3)])])
    nodes = [node.sorted_members for node in redundancy_lattice(3).nodes]
    with call_memo():
        imin = [i_min(gate, args) for args in nodes]
        isx = [i_sx(gate, args) for args in nodes]
        assert _kernel(relabelled).kernel is _kernel(gate)
        assert [i_min(relabelled, args) for args in nodes] == imin
        assert [i_sx(relabelled, args) for args in nodes] == isx
        for a in nonempty_subsets(3):
            shared = specific_information(relabelled, a)
            own = specific_information(gate, a)
            assert list(shared) == [(f"t{t[0]}",) + t[1:] for t in own]
            assert list(shared.values()) == list(own.values())
            assert list(shared.items()) == list(specific_information(_fresh(relabelled), a).items())
    fresh = _fresh(relabelled)
    assert [i_min(fresh, args) for args in nodes] == imin
    assert [i_sx(fresh, args) for args in nodes] == isx


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_a_relabelled_table_gives_the_floats_of_a_table_built_from_its_rows():
    # a relabelling, and a relabelling of it, read their parent's kernel
    # through views; every value equals, float.hex for float.hex, the one a
    # table built from the same rows with no link to a parent gives, in a
    # call memo or out of one, and whether the parent is evaluated first or
    # last.  The parents hold aux rows that merge into one point and zero
    # rows; their symbols are ints and strs, or ints with True beside 1
    symbols = st.one_of(st.sampled_from([0, 1, 2, 10, -1]), st.sampled_from(["a", "b", "1"]))
    images = st.one_of(st.integers(-3, 20), st.sampled_from(["a", "b", "1", "x", "10"]))
    measures = [get_measure("imin"), get_measure("isx")]

    def readout(d: JointDistribution) -> str:
        n, floats = d.n_sources, []
        nodes = [node.sorted_members for node in redundancy_lattice(n).nodes]
        floats.append([i_min(d, args).hex() for args in nodes])
        floats.append([i_sx(d, args).hex() for args in nodes])
        for a in nonempty_subsets(n):
            table = specific_information(d, a)
            floats.append((list(table), [v.hex() for v in table.values()]))
            if d.target_arity:
                floats.append(subset_mi(d, a).hex())
        for measure in measures:
            result = atoms_from_redundancy(d, measure)
            floats.append([(node.label, v.hex()) for node, v in result.atoms.items()])
            if d.target_arity:
                floats.append(consistency_check(result, d))
        return repr(floats)         # repr tells True from 1 in the target keys

    @settings(derandomize=True, database=None, max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3), label="n")
        arity = data.draw(st.integers(1, 2), label="target arity")
        with_true = data.draw(st.sampled_from([False] * 3 + [True]), label="True among the symbols")
        cell = st.sampled_from([0, 1, 2, True]) if with_true else symbols
        points = data.draw(st.lists(st.tuples(st.tuples(*[cell] * n), st.tuples(*[cell] * arity)),
                                    min_size=1, max_size=8, unique=True), label="points")
        cells = [(s, t, z) for s, t in points
                 for z in data.draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=2,
                                             unique=True), label="aux values")]
        weights = data.draw(st.lists(st.integers(0, 4), min_size=len(cells),
                                     max_size=len(cells)).filter(any), label="weights")
        rows = [(Outcome(s, t, z), Fraction(w, sum(weights))) for (s, t, z), w in zip(cells, weights)]

        def draw_maps(d: JointDistribution, label: str) -> tuple:
            # each relabelled source permutes its support or maps it onto
            # drawn symbols; the target permutes its tuples or maps them onto
            # tuples of arity 0 to 3 (0 only for a single target tuple)
            source_maps = {}
            for i in data.draw(st.frozensets(st.integers(1, n)), label=f"{label} sources"):
                values = d.variable_support(("source", i))
                injection = st.lists(images, min_size=len(values), max_size=len(values), unique=True)
                drawn = data.draw(st.one_of(st.permutations(values), injection), label=f"{label} {i}")
                source_maps[i] = dict(zip(values, drawn))
            targets = list(d._target_keys())
            new_arity = data.draw(st.integers(len(targets) > 1, 3), label=f"{label} target arity")
            tuples = st.lists(st.tuples(*[images] * new_arity), min_size=len(targets),
                              max_size=len(targets), unique=True)
            if new_arity == d.target_arity:
                tuples = st.one_of(st.permutations(targets), tuples)
            return source_maps, dict(zip(targets, data.draw(tuples, label=f"{label} targets")))

        def chain() -> list:
            parent = JointDistribution(n, arity, rows)
            child = parent.reencode(*first_maps)
            return [parent, child, child.reencode(*second_maps)]

        first_maps = draw_maps(JointDistribution(n, arity, rows), "first")
        second_maps = draw_maps(JointDistribution(n, arity, rows).reencode(*first_maps), "second")
        want = [readout(JointDistribution(d.n_sources, d.target_arity, d.outcomes)) for d in chain()]
        parent, child, grandchild = tables = chain()
        # a chain links to its first table, not to the table in the middle
        assert child._origin[0] is parent and grandchild._origin[0] is parent
        assert _kernel(grandchild).kernel is _kernel(child).kernel is _kernel(parent)
        assert [readout(d) for d in tables[::-1]] == want[::-1]
        with call_memo():
            assert [readout(d) for d in chain()] == want
        with call_memo():
            assert [readout(d) for d in chain()[::-1]] == want[::-1]

    check()


def test_a_check_run_builds_no_kernel_for_a_relabelled_table(monkeypatch):
    # every table the rei scan relabels reads its parent's kernel through a
    # view, so within one run of every check, a kernel is built only for
    # tables that reencode did not build
    from partinfo import measures

    relabelled, evaluating, built_for = [], [], []
    reencode = JointDistribution.reencode
    monkeypatch.setattr(JointDistribution, "reencode",
                        lambda self, *args: relabelled.append(reencode(self, *args)) or relabelled[-1])
    kernel = measures._kernel

    def spy(d):
        evaluating.append(d)
        try:
            return kernel(d)
        finally:
            evaluating.pop()

    monkeypatch.setattr(measures, "_kernel", spy)
    init = _Kernel.__init__
    monkeypatch.setattr(_Kernel, "__init__",
                        lambda self, *args: built_for.append(evaluating[-1]) or init(self, *args))
    run_all_checks(make_gate(GateSpec("xor_source_copy", "1/8")), get_measure("imin"), trials=8, seed=1)
    assert relabelled and built_for
    assert not any(d is table for d in built_for for table in relabelled)
