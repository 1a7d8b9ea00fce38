"""Lattice machinery: enumeration, bijection, order, Möbius coefficients."""

import itertools
import random

import pytest

from partinfo import (
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
from partinfo.lattice import CONDITIONS, condition_test

from conftest import TABLE_CONDITIONS


def brute_force_parthood_tables(n):
    """Oracle: filter every Boolean table by the three defining axioms,
    with an explicit pairwise subset scan for monotonicity."""
    subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(1, n + 1), k)]
    tables = []
    for bits in itertools.product((False, True), repeat=len(subsets)):
        f = dict(zip(subsets, bits))
        if f[frozenset()] or not f[frozenset(range(1, n + 1))]:
            continue
        if any(f[a] and not f[b] for a in subsets for b in subsets if a <= b):
            continue
        tables.append(f)
    return tables


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18)])
def test_enumeration_counts_match_brute_force(n, count):
    enumerated = enumerate_parthood(n)
    oracle = brute_force_parthood_tables(n)
    assert len(enumerated) == count == len(oracle)
    oracle_keys = {
        tuple(sorted((tuple(sorted(s)), v) for s, v in f.items())) for f in oracle
    }
    enumerated_keys = set()
    for f in enumerated:
        pairs = []
        for k in range(2**n):
            subset = frozenset(i + 1 for i in range(n) if (k >> i) & 1)
            pairs.append((tuple(sorted(subset)), f.table[k]))
        enumerated_keys.add(tuple(sorted(pairs)))
    assert enumerated_keys == oracle_keys


def test_enumeration_order_is_deterministic_and_aligned():
    antichains = enumerate_antichains(3)
    parthoods = enumerate_parthood(3)
    assert antichains == enumerate_antichains(3)
    assert [parthood_to_antichain(f) for f in parthoods] == list(antichains)


def test_cap_and_large_n():
    with pytest.raises(LatticeSizeError, match="lattice too large"):
        enumerate_parthood(5)
    with pytest.raises(LatticeSizeError):
        enumerate_antichains(6, allow_large=True)


def test_n5_antichain_generation_behind_flag():
    assert len(enumerate_antichains(5, allow_large=True)) == 7579
    lattice = RedundancyLattice(5, allow_large=True)
    assert len(lattice) == 7579
    assert len(lattice.covers()) == 35510


def test_table_rows_for_two_sources():
    # the four canonical rows: redundancy, unique 1, unique 2, synergy
    def row(values):
        return ParthoodDistribution(2, tuple(values))

    assert parthood_to_antichain(row([0, 1, 1, 1])) == Antichain.of({1}, {2})
    assert parthood_to_antichain(row([0, 1, 0, 1])) == Antichain.of({1})
    assert parthood_to_antichain(row([0, 0, 1, 1])) == Antichain.of({2})
    assert parthood_to_antichain(row([0, 0, 0, 1])) == Antichain.of({1, 2})
    assert antichain_to_parthood(Antichain.of({1}, {2}), 2).table == (False, True, True, True)
    assert antichain_to_parthood(Antichain.of({1, 2}), 2).table == (False, False, False, True)


def test_minimal_sets_of_size_two():
    f = ParthoodDistribution.from_predicate(3, lambda subset: len(subset) >= 2)
    assert parthood_to_antichain(f) == Antichain.of({1, 2}, {1, 3}, {2, 3})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijection_round_trips_exhaustively(n):
    for f in enumerate_parthood(n):
        assert antichain_to_parthood(parthood_to_antichain(f), n) == f
    for antichain in enumerate_antichains(n):
        assert parthood_to_antichain(antichain_to_parthood(antichain, n)) == antichain


def test_parthood_axiom_validation():
    with pytest.raises(ValueError, match="empty set"):
        ParthoodDistribution(2, (True, True, True, True))
    with pytest.raises(ValueError, match="full set"):
        ParthoodDistribution(2, (False, False, False, False))
    # n=3 with f({1}) = 1 but f({1,2}) = 0
    bad = [False] * 8
    bad[0b001] = True
    bad[0b111] = True
    with pytest.raises(ValueError, match="monotone"):
        ParthoodDistribution(3, tuple(bad))
    assert ParthoodDistribution(2, (False, True, False, True)).value({1})


def test_antichain_validation_and_labels():
    with pytest.raises(ValueError, match="comparable"):
        Antichain.of({1}, {1, 2})
    with pytest.raises(ValueError, match="empty"):
        Antichain.of()
    with pytest.raises(ValueError):
        Antichain.of(set())
    a = Antichain.of({2, 3}, {1})
    assert a.label == "{1}{2,3}"
    assert Antichain.from_label("{1}{2,3}") == a
    with pytest.raises(ValueError):
        Antichain.from_label("nonsense")


def test_lattice_leq_examples():
    assert lattice_leq(Antichain.of({1}, {2}, {3}), Antichain.of({1}, {2}))
    assert lattice_leq(Antichain.of({1}, {2, 3}), Antichain.of({1, 2}))
    assert not lattice_leq(Antichain.of({1, 2}), Antichain.of({1}, {2}))
    a = Antichain.of({1}, {2})
    assert lattice_leq(a, a)


def test_c_order_examples():
    assert c_order_leq("red", ({1}, {2}), ({1},), 2)
    assert c_order_leq("union", ({1},), ({1}, {2}), 2)
    for name in ("red", "union", "ws", "vul"):
        assert c_order_leq(name, ({1}, {2}), ({1}, {2}), 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_order_agrees_with_redundancy_condition_order(n):
    for alpha in enumerate_antichains(n):
        for beta in enumerate_antichains(n):
            assert lattice_leq(alpha, beta) == c_order_leq(
                "red", alpha.sorted_members, beta.sorted_members, n
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_condition_masks_match_parthood_tables(n):
    assert set(CONDITIONS) == set(TABLE_CONDITIONS)
    lattice = redundancy_lattice(n)
    nodes = [(lattice.zero_set(node), antichain_to_parthood(node, n)) for node in lattice.nodes]
    for name, by_table in TABLE_CONDITIONS.items():
        for antichain in lattice.nodes:
            args = antichain.sorted_members
            by_mask = condition_test(name, args, n)
            for zeros, f in nodes:
                assert by_mask(zeros) == by_table(args, f), (name, antichain.label, f)


@pytest.mark.parametrize("n", [2, 3])
def test_c_order_leq_matches_a_scan_of_parthood_tables(n):
    antichains = enumerate_antichains(n)
    for name, by_table in TABLE_CONDITIONS.items():
        for x in antichains:
            for y in antichains:
                want = all(by_table(y.sorted_members, f) for f in enumerate_parthood(n)
                           if by_table(x.sorted_members, f))
                assert c_order_leq(name, x.sorted_members, y.sorted_members, n) == want


def test_conditions_are_named_only():
    with pytest.raises(ValueError, match="conditions are named"):
        c_order_leq(lambda args, f: True, ({1},), ({2},), 2)
    with pytest.raises(ValueError, match="conditions are named"):
        condition_test("intersection", ({1},), 2)
    with pytest.raises(ValueError, match="nonempty"):
        condition_test("red", ({1}, set()), 2)
    with pytest.raises(ValueError, match="out of range"):
        condition_test("red", ({3},), 2)


def test_moebius_examples_for_two_sources():
    lattice = redundancy_lattice(2)
    bottom = Antichain.of({1}, {2})
    for node in lattice.nodes:
        assert lattice.moebius(node, node) == 1
    assert lattice.moebius(bottom, Antichain.of({1})) == -1
    assert lattice.moebius(bottom, Antichain.of({1, 2})) == 1
    with pytest.raises(ValueError, match="incomparable"):
        lattice.moebius(Antichain.of({1}), Antichain.of({2}))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moebius_defining_identity_exhaustive(n):
    lattice = redundancy_lattice(n)
    for above in lattice.nodes:
        down = lattice.down_set(above)
        for below in down:
            total = sum(
                lattice.moebius(mid, above)
                for mid in down
                if lattice.leq(below, mid)
            )
            assert total == (1 if below == above else 0)


def test_moebius_defining_identity_sampled_n4():
    lattice = redundancy_lattice(4)
    rng = random.Random(4)
    nodes = lattice.nodes
    checked = 0
    while checked < 200:
        above = nodes[rng.randrange(len(nodes))]
        down = lattice.down_set(above)
        below = down[rng.randrange(len(down))]
        total = sum(
            lattice.moebius(mid, above) for mid in down if lattice.leq(below, mid)
        )
        assert total == (1 if below == above else 0)
        checked += 1


def test_degree_of_redundancy_examples():
    assert degree_of_redundancy(Antichain.of({1}, {2}, {3})) == 3
    assert degree_of_redundancy(Antichain.of({1, 2})) == 0
    assert degree_of_redundancy(Antichain.of({1}, {2, 3})) == 1


def test_three_source_lattice_structure():
    lattice = redundancy_lattice(3)
    assert len(lattice) == 18
    covers = lattice.covers()
    assert len(covers) == 30
    # covers are strict comparabilities with nothing in between
    for lower, upper in covers:
        assert lattice.leq(lower, upper) and lower != upper
        assert not any(
            mid not in (lower, upper) and lattice.leq(lower, mid) and lattice.leq(mid, upper)
            for mid in lattice.nodes
        )
    assert lattice.bottom == Antichain.of({1}, {2}, {3})
    assert lattice.top == Antichain.of({1, 2, 3})


def test_four_source_covers_have_nothing_in_between():
    lattice = redundancy_lattice(4)
    # the order straight from the antichain definition, not the bitmasks
    below = {a: {b for b in lattice.nodes if lattice_leq(b, a)} for a in lattice.nodes}
    assert all(set(lattice.down_set(a)) == below[a] for a in lattice.nodes)
    expected = {
        (lower, upper)
        for upper in lattice.nodes
        for lower in below[upper] - {upper}
        if not any(lower in below[mid] for mid in below[upper] - {lower, upper})
    }
    covers = lattice.covers()
    assert len(covers) == len(expected) == 452
    assert set(covers) == expected


def test_lattice_exports():
    lattice = redundancy_lattice(2)
    dot = lattice.to_dot()
    assert '"{1}{2}" -> "{1}"' in dot
    assert dot.count("->") == 4
    data = lattice.to_json_dict()
    assert data["nodes"] == ["{1}", "{2}", "{1}{2}", "{1,2}"]
    assert len(data["covers"]) == 4
    moebius = {(b, a): mu for b, a, mu in data["moebius"]}
    assert moebius[("{1}{2}", "{1,2}")] == 1
