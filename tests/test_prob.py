"""Probability-core behavior: marginals, conditioning, re-encoding, entropy."""

import json
from fractions import Fraction

import pytest

from partinfo import (
    ConditioningError,
    DistributionError,
    EncodingError,
    JointDistribution,
    Outcome,
    as_fraction,
)

from conftest import (
    oracle_mi,
    oracle_rows,
    random_rational_distribution,
    reference_condition_on,
    reference_entropy,
    reference_marginal,
    reference_mutual_information,
    reference_reencode,
    reference_restrict_target,
    reference_retarget_to_sources,
    reference_support,
)

try:
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st
except ImportError:  # the generated-table test below is skipped
    st = None


def test_marginal_mi_examples(gate_corpus):
    xor = gate_corpus["xor"]
    xsc = gate_corpus["xor_source_copy"]
    assert xor.marginal_mi({1}) == 0.0
    for i in (1, 2, 3):
        assert abs(xsc.marginal_mi({i}) - 1.0) <= 1e-12
    assert abs(xsc.marginal_mi({1, 2, 3}) - 2.0) <= 1e-12
    assert xsc.marginal_mi(set()) == 0.0


def test_marginal_mi_matches_oracle_on_random_tables(rng):
    for _ in range(10):
        d = random_rational_distribution(rng, n_sources=2, target_arity=2)
        rows = oracle_rows(d)
        for a in ({1}, {2}, {1, 2}):
            assert abs(d.marginal_mi(a) - oracle_mi(rows, a)) <= 1e-12


def test_mi_monotone_under_adding_sources(gate_corpus):
    for d in gate_corpus.values():
        subsets = [set()]
        for i in range(1, d.n_sources + 1):
            subsets += [s | {i} for s in subsets]
        for a in subsets:
            for b in subsets:
                if a <= b:
                    assert d.marginal_mi(a) <= d.marginal_mi(b) + 1e-12


def test_condition_on_target_component_of_copy_gate(gate_corpus):
    conditioned = gate_corpus["copy2"].condition_on(("target", 2), 0)
    assert conditioned.target_arity == 1
    support = {(o.sources, o.target) for o, _ in conditioned.support}
    assert support == {((0, 0), (0,)), ((1, 0), (1,))}
    for o, p in conditioned.support:
        assert o.sources[1] == 0
        assert p == Fraction(1, 2)


def test_condition_on_scalar_target_of_xor_gate(gate_corpus):
    conditioned = gate_corpus["xor"].condition_on(("target", 1), 0)
    assert conditioned.target_arity == 0
    assert {o.sources for o, _ in conditioned.support} == {(0, 0), (1, 1)}
    assert all(p == Fraction(1, 2) for _, p in conditioned.support)


def test_condition_on_null_event_raises(gate_corpus):
    with pytest.raises(ConditioningError):
        gate_corpus["xor"].condition_on(("target", 1), 7)


def test_condition_on_source_keeps_arity(gate_corpus):
    conditioned = gate_corpus["xor"].condition_on(("source", 1), 1)
    assert conditioned.n_sources == 2
    assert all(o.sources[0] == 1 for o, _ in conditioned.support)


def test_chain_rule_oracle_on_random_rational_tables(rng):
    for _ in range(12):
        d = random_rational_distribution(rng, n_sources=2, target_arity=2)
        for a in ({1}, {2}, {1, 2}):
            lhs = d.marginal_mi(a)
            rhs = d.restrict_target((1,)).marginal_mi(a)
            for t1, p in d.variable_marginal(("target", 1)).items():
                rhs += float(p) * d.condition_on(("target", 1), t1).marginal_mi(a)
            assert abs(lhs - rhs) <= 1e-12


def test_reencode_identity_and_round_trip(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    identity = {i: {0: 0, 1: 1} for i in (1, 2, 3)}
    assert d.reencode(source_maps=identity) == d
    swap = {1: {0: 1, 1: 0}}
    assert d.reencode(source_maps=swap).reencode(source_maps=swap) == d


def test_reencode_pair_copy_onto_triple_target(gate_corpus):
    # the two-source copy gate re-encodes onto the three-component support
    copy2 = gate_corpus["copy2"]
    table = {(s1, s2): (s1, s2, s1 ^ s2) for s1 in (0, 1) for s2 in (0, 1)}
    recoded = copy2.reencode(target_map=table)
    assert recoded.target_arity == 3
    assert set(recoded.target_marginal()) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_reencode_label_swap_preserves_shannon_quantities(gate_corpus):
    d = gate_corpus["xor"]
    swapped = d.reencode(source_maps={1: {0: 1, 1: 0}})
    for a in ({1}, {2}, {1, 2}):
        assert abs(d.marginal_mi(a) - swapped.marginal_mi(a)) <= 1e-15
    assert d.entropy([("source", 1)]) == swapped.entropy([("source", 1)])


def test_reencode_takes_pair_tuples_as_maps(gate_corpus):
    # the hashable form that memo keys use gives the same table as mappings
    d = gate_corpus["xor_source_copy"]
    targets = d.marginal_support([("target", j) for j in range(1, d.target_arity + 1)])
    target_map = dict(zip(targets, targets[::-1]))
    want = d.reencode({1: {0: "a", 1: "b"}}, target_map)
    assert d.reencode(((1, ((0, "a"), (1, "b"))),), tuple(target_map.items())) == want
    with pytest.raises(EncodingError, match="not invertible"):
        d.reencode(((1, ((0, 0), (1, 0))),))


def test_reencode_rejects_non_injective_tables(gate_corpus):
    with pytest.raises(EncodingError, match="not invertible"):
        gate_corpus["xor"].reencode(source_maps={1: {0: 0, 1: 0}})
    with pytest.raises(EncodingError):
        gate_corpus["copy2"].reencode(target_map={t: (0, 0) for t in gate_corpus["copy2"].target_marginal()})


def test_entropy_examples(gate_corpus):
    copy2 = gate_corpus["copy2"]
    assert abs(copy2.entropy([("source", 1)]) - 1.0) <= 1e-12
    assert abs(copy2.entropy([("source", 1), ("source", 2)]) - 2.0) <= 1e-12
    h12 = copy2.entropy([("source", 1), ("source", 2)])
    h1 = copy2.entropy([("source", 1)])
    h2 = copy2.entropy([("source", 2)])
    assert abs((h12 - h2) + (h12 - h1) - 2.0) <= 1e-12


def test_probabilities_stay_rational_through_transformations(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    for step in (
        d.condition_on(("target", 1), 0),
        d.restrict_target((1, 2)),
        d.retarget_to_sources((1, 3)),
        d.reencode(source_maps={2: {0: 1, 1: 0}}),
    ):
        assert all(isinstance(p, Fraction) for _, p in step.support)
        assert sum(p for _, p in step.support) == 1


def test_zero_probability_rows_are_kept_but_ignored():
    rows = [
        (Outcome((0,), (0,)), Fraction(1, 2)),
        (Outcome((1,), (1,)), Fraction(1, 2)),
        (Outcome((1,), (0,)), Fraction(0)),
    ]
    d = JointDistribution(1, 1, rows)
    assert len(d.outcomes) == 3
    assert len(d.support) == 2
    assert abs(d.marginal_mi({1}) - 1.0) <= 1e-12


def test_validation_errors():
    with pytest.raises(DistributionError, match="sum"):
        JointDistribution(1, 1, [(Outcome((0,), (0,)), Fraction(1, 2))])
    with pytest.raises(DistributionError, match="duplicate"):
        JointDistribution(1, 1, [
            (Outcome((0,), (0,)), Fraction(1, 2)),
            (Outcome((0,), (0,)), Fraction(1, 2)),
        ])
    with pytest.raises(DistributionError):
        JointDistribution(1, 1, [(Outcome((0, 1), (0,)), Fraction(1))])


def test_construction_messages_zero_rows_and_reduced_denominator():
    def table(*rows, n_sources=1):
        return JointDistribution(n_sources, 1, [(Outcome(s, t), as_fraction(p)) for s, t, p in rows])

    twice = "duplicate outcome Outcome(sources=(0,), target=(1,), aux=None)"
    with pytest.raises(DistributionError, match=f"^{twice}$".replace("(", r"\(").replace(")", r"\)")):
        table(((0,), (1,), "1/2"), ((1,), (0,), "0"), ((0,), (1,), "1/2"))
    with pytest.raises(DistributionError, match="^probabilities sum to 3/4, expected exactly 1$"):
        table(((0,), (1,), "1/2"), ((1,), (0,), "1/4"))
    # a table with both faults names the duplicate
    with pytest.raises(DistributionError, match="^duplicate outcome"):
        table(((0,), (1,), "1/8"), ((1,), (0,), "1/4"), ((0,), (1,), "1/8"))

    # explicit zero rows stay in the outcomes, in canonical order, and leave the support
    d = table(((1,), (1,), "0"), ((1,), (0,), "6/8"), ((0,), (0,), "0"), ((0,), (1,), "2/8"))
    assert [(o.sources, o.target, p) for o, p in d.outcomes] == [
        ((0,), (0,), 0), ((0,), (1,), Fraction(1, 4)), ((1,), (0,), Fraction(3, 4)), ((1,), (1,), 0)]
    assert [(o.sources, o.target) for o, _ in d.support] == [((0,), (1,)), ((1,), (0,))]
    assert d._denominator == 4
    assert d == table(((0,), (1,), "1/4"), ((1,), (0,), "3/4"))

    # the conditioned mass, 4 of 8, shares a factor with both kept weights
    d = table(((0, 0), (0,), "1/4"), ((0, 1), (1,), "1/4"), ((1, 0), (0,), "1/8"),
              ((1, 1), (1,), "3/8"), n_sources=2)
    assert d._denominator == 8
    given = d.condition_on(("source", 1), 0)
    assert given._denominator == 2
    assert given._rows == (((0, 0, 0), 1), ((0, 1, 1), 1))
    assert given == table(((0, 0), (0,), "1/2"), ((0, 1), (1,), "1/2"), n_sources=2)


def test_as_fraction_accepts_ratio_decimal_and_float():
    assert as_fraction("1/4") == Fraction(1, 4)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(1) == Fraction(1)
    for bad in ("one quarter", float("nan"), float("inf"), float("-inf"), json.loads("1e400")):
        with pytest.raises(DistributionError, match="cannot parse probability"):
            as_fraction(bad)


@pytest.mark.parametrize("text", [
    "3/8", "03/008", "0/5", "8/8", "9/8", "3/0", "1/000", "0/0", "/8", "3/", "/", "3/8/2",
    " 3/8", "3/8 ", "3 / 8", "+3/8", "-3/8", "3/-8", "3_0/8", "3/8_0", "_3/8",
    "٣/8", "3/٨", "²/8", "3.0/8", "1e2/8", "0x3/8", "3/8e1", "3/8\n",
])
def test_as_fraction_reads_ratio_strings_as_fraction_does(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DistributionError, match="cannot parse probability"):
            as_fraction(text)
    else:
        got = as_fraction(text)
        assert type(got) is Fraction and got == want


def test_as_fraction_digit_limit_holds_for_ratio_strings():
    at_limit = "1" + "0" * 2149 + "/1" + "0" * 2149         # 4300 digits
    assert as_fraction(at_limit) == 1
    for over in ("1" + "0" * 2150 + "/1" + "0" * 2149, "1/" + "1" * 4300, "0" * 4301 + "/1"):
        with pytest.raises(DistributionError, match="more than 4300 digits"):
            as_fraction(over)


def test_json_round_trip_and_digest(tmp_path, gate_corpus):
    d = gate_corpus["xor_source_copy"]
    path = tmp_path / "gate.json"
    d.dump(path)
    loaded = JointDistribution.load(path)
    assert loaded == d
    assert loaded.digest == d.digest

    data = json.loads(path.read_text())
    data["outcomes"][0]["p"] = "0.25"  # decimal strings are exact too
    reparsed = JointDistribution.from_json_dict(data)
    assert reparsed == d

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DistributionError):
        JointDistribution.load(bad)


def test_equal_tables_built_separately_hash_equal(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    rebuilt = JointDistribution(d.n_sources, d.target_arity, d.support[::-1])
    relabelled_back = d.reencode({1: {0: 1, 1: 0}}).reencode({1: {0: 1, 1: 0}})
    for twin in (rebuilt, relabelled_back):
        assert twin is not d and twin == d and hash(twin) == hash(d)
        assert {d: "first"}[twin] == "first"


def test_each_table_hashes_its_rows_once(gate_corpus, monkeypatch):
    calls = []
    real = JointDistribution._identity

    def identity_spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(JointDistribution, "_identity", identity_spy)
    d = gate_corpus["and"]
    first = JointDistribution(d.n_sources, d.target_arity, d.support)
    second = JointDistribution(d.n_sources, d.target_arity, d.support)
    assert {hash(first) for _ in range(3)} == {hash(second) for _ in range(3)}
    assert calls == [first, second]


def test_digest_distinguishes_distributions(gate_corpus):
    digests = {d.digest for d in gate_corpus.values()}
    assert len(digests) == len(gate_corpus)


def test_aux_variable_support_and_conditioning():
    rows = []
    for s in (0, 1):
        for z in ("a", "b"):
            rows.append((Outcome((s,), (s,), z), Fraction(1, 4)))
    d = JointDistribution(1, 1, rows)
    assert d.has_aux
    assert d.variable_support("aux") == ("a", "b")
    conditioned = d.condition_on("aux", "a")
    assert not conditioned.has_aux
    assert sum(p for _, p in conditioned.support) == 1


def test_rows_are_ordered_by_symbol_type_name_then_text():
    # bool before int, "10" before "2"; True and 1 are equal values but
    # different symbols, so the second column does not decide between them
    rows = [((2, "a"), Fraction(1, 4)), ((1, "a"), Fraction(1, 4)),
            ((True, "b"), Fraction(1, 4)), ((10, "a"), Fraction(1, 4))]
    d = JointDistribution(2, 1, [(Outcome(s, (0,)), p) for s, p in rows])
    assert [repr(o.sources) for o, _ in d.support] == [
        "(True, 'b')", "(1, 'a')", "(10, 'a')", "(2, 'a')"]
    # with ints and bools alone too: 1 is read before True, but True comes first
    d = JointDistribution(2, 1, [(Outcome((1, 0), (0,)), Fraction(1, 2)),
                                 (Outcome((True, 1), (0,)), Fraction(1, 2))])
    assert [o.sources for o, _ in d.support] == [(True, 1), (1, 0)]
    assert [type(o.sources[0]) for o, _ in d.support] == [bool, int]
    with pytest.raises(DistributionError, match="duplicate outcome"):
        JointDistribution(2, 1, [(Outcome((True, "a"), (0,)), Fraction(1, 2)),
                                 (Outcome((1, "a"), (0,)), Fraction(1, 2))])


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_integer_core_matches_fraction_reference_on_generated_tables():
    # ints 10 and -1: the (type name, str) order puts "-1" first and "10" before "2"
    symbols = st.one_of(st.sampled_from([0, 1, 2, 10, -1]), st.sampled_from(["a", "b", "1"]))
    # relabelling images: fresh symbols too, and ints in place of strs or strs in place of ints
    images = st.one_of(st.integers(-3, 20), st.sampled_from(["a", "b", "1", "x", "10"]))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None,
              phases=(Phase.explicit, Phase.generate), suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3), label="n")
        arity = data.draw(st.integers(1, 2), label="target arity")
        # an API table may hold True beside 1 in a column: equal values, but
        # different symbols, which JSON cannot carry; with no str among them,
        # only the cells' types tell the table's symbols apart
        with_true = data.draw(st.sampled_from([False] * 3 + [True]), label="True among the symbols")
        cell = st.sampled_from([0, 1, 2, True]) if with_true else symbols
        aux = cell if data.draw(st.booleans(), label="aux") else st.none()
        cells = data.draw(st.lists(
            st.tuples(st.tuples(*[cell] * n), st.tuples(*[cell] * arity), aux),
            min_size=1, max_size=10, unique=True,
        ), label="cells")
        weights = data.draw(st.lists(st.integers(0, 6), min_size=len(cells),
                                     max_size=len(cells)).filter(any), label="weights")
        rows = [(s, t, z, Fraction(w, sum(weights))) for (s, t, z), w in zip(cells, weights)]
        d = JointDistribution(n, arity, [(Outcome(s, t, z), p) for s, t, z, p in rows])
        assert list(d.support) == reference_support(rows)
        # the API boundary: JSON and Outcome rows, zero ones included, give the table back
        if not with_true:
            loaded = JointDistribution.from_json_dict(d.to_json_dict())
            assert loaded == d and loaded.digest == d.digest
        rebuilt = JointDistribution(n, arity, d.outcomes)
        assert rebuilt == d and rebuilt.outcomes == d.outcomes

        def assert_table(child, arity, support):
            # equal to a table built from scratch: the weights are reduced
            assert list(child.support) == support
            twin = JointDistribution(n, arity, support)
            assert child == twin and hash(child) == hash(twin)
            return twin

        target = [("target", j) for j in range(1, arity + 1)]
        selectors = [("source", i) for i in range(1, n + 1)] + target + (["aux"] if d.has_aux else [])
        chosen = st.lists(st.sampled_from(selectors), min_size=1, max_size=3)
        left, right = data.draw(chosen, label="left"), data.draw(chosen, label="right")
        assert list(d.marginal(left).items()) == list(reference_marginal(rows, left).items())
        assert d.entropy(left) == reference_entropy(rows, left)
        assert d.mutual_information(left, right) == reference_mutual_information(rows, left, right)
        sources = data.draw(st.frozensets(st.integers(1, n), min_size=1), label="sources")
        assert d.marginal_mi(sources) == reference_mutual_information(
            rows, [("source", i) for i in sorted(sources)], target)

        selector = left[0]
        value = data.draw(st.sampled_from(sorted(reference_marginal(rows, [selector]), key=repr)))[0]
        assert_table(d.condition_on(selector, value), arity - (selector[0] == "target"),
                     reference_condition_on(rows, selector, value))
        components = data.draw(st.lists(st.integers(1, arity), max_size=3), label="components")
        indices = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=3), label="indices")
        if not with_true:
            # rows that merge keep one of their equal symbols: the table the
            # first in canonical order, the reference the first in input order
            assert_table(d.restrict_target(components), len(components),
                         reference_restrict_target(rows, components))
            assert_table(d.retarget_to_sources(indices), len(indices),
                         reference_retarget_to_sources(rows, indices))

        # each relabelled source permutes its support or maps it one-to-one
        # onto drawn symbols; the target permutes its support or maps it onto
        # tuples of a drawn arity (0 only for a single target tuple)
        source_maps = {}
        for i in data.draw(st.frozensets(st.integers(1, n)), label="relabelled sources"):
            values = d.variable_support(("source", i))
            injection = st.lists(images, min_size=len(values), max_size=len(values), unique=True)
            drawn = data.draw(st.one_of(st.permutations(values), injection), label=f"source {i}")
            source_maps[i] = dict(zip(values, drawn))
        targets = list(reference_marginal(rows, target))
        new_arity = data.draw(st.integers(len(targets) > 1, 3), label="new target arity")
        tuples = st.lists(st.tuples(*[images] * new_arity), min_size=len(targets),
                          max_size=len(targets), unique=True)
        if new_arity == arity:
            tuples = st.one_of(st.permutations(targets), tuples)
        target_map = dict(zip(targets, data.draw(tuples, label="targets")))
        relabelled = d.reencode(source_maps, target_map)
        twin = assert_table(relabelled, new_arity, reference_reencode(rows, source_maps, target_map))
        # no two rows merge, so the twin holds the same symbols: the digest tells True from 1
        assert relabelled._rows == twin._rows and relabelled.digest == twin.digest

    check()
