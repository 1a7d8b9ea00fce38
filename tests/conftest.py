"""Shared fixtures and independent brute-force oracles.

The oracle functions work on plain ``(sources, target, probability)`` row
lists with their own event enumeration, so golden values never depend on
the code paths they are used to check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from partinfo import Antichain, JointDistribution, Outcome, RedundancyMeasure, make_gate


@pytest.fixture
def rng():
    return random.Random(20250810)


@pytest.fixture(scope="session")
def gate_corpus():
    return {gid: make_gate(gid) for gid in ("xor", "copy2", "and", "xor_source_copy")}


# ----------------------------------------------------------------------
# random exact-rational distributions


def random_rational_distribution(
    rng: random.Random,
    n_sources: int = 2,
    target_arity: int = 1,
    source_alphabet: int = 2,
    target_alphabet: int = 2,
    max_weight: int = 6,
) -> JointDistribution:
    grid = list(
        itertools.product(
            itertools.product(range(source_alphabet), repeat=n_sources),
            itertools.product(range(target_alphabet), repeat=target_arity),
        )
    )
    weights = [rng.randrange(0, max_weight + 1) for _ in grid]
    if sum(weights) == 0:
        weights[rng.randrange(len(grid))] = 1
    total = sum(weights)
    rows = [
        (Outcome(s, t), Fraction(w, total))
        for (s, t), w in zip(grid, weights)
        if w > 0
    ]
    return JointDistribution(n_sources, target_arity, rows)


def random_pair_copy(rng: random.Random, source_alphabet: int = 2) -> JointDistribution:
    grid = list(itertools.product(range(source_alphabet), repeat=2))
    weights = [rng.randrange(0, 7) for _ in grid]
    if sum(w for w in weights) == 0:
        weights[0] = 1
    total = sum(weights)
    rows = [
        (Outcome(s, s), Fraction(w, total))
        for s, w in zip(grid, weights)
        if w > 0
    ]
    return JointDistribution(2, 2, rows)


# ----------------------------------------------------------------------
# fake measures for adversarial and synthetic tests


def lookup_measure(values: dict, measure_id: str = "table") -> RedundancyMeasure:
    """Measure backed by a label table; arguments are reduced to their
    minimal antichain so superset invariance holds by construction."""

    def fn(d, args):
        sets = [frozenset(a) for a in args]
        minimal = frozenset(a for a in sets if not any(b < a for b in sets))
        return values[Antichain(minimal).label]

    return RedundancyMeasure(measure_id, fn)


def constant_measure(value: float = 1.0) -> RedundancyMeasure:
    return RedundancyMeasure("const", lambda d, args: value)


# ----------------------------------------------------------------------
# oracles (independent implementations)


#: each named condition by its definition on a parthood table f
TABLE_CONDITIONS = {
    "red": lambda args, f: all(f.value(a) for a in args),
    "union": lambda args, f: any(f.value(a) for a in args),
    "ws": lambda args, f: all(not f.value(a) for a in args),
    "vul": lambda args, f: any(not f.value(a) for a in args),
}


def monotone_parthood_tables(n: int) -> list:
    """Every Boolean table on the subsets of {1..n} (indexed by mask, bit
    ``i-1`` for source ``i``) that is 0 on the empty set, 1 on the full set
    and monotone, found by trying all 2^(2^n - 2) assignments of the
    subsets in between; single-source steps suffice for monotonicity."""
    size = 2**n
    full = size - 1
    free = range(1, full)
    found = []
    for assignment in range(2 ** len(free)):
        values = [False] * size
        values[full] = True
        for bit, mask in enumerate(free):
            values[mask] = bool((assignment >> bit) & 1)
        if all(values[mask | (1 << i)] for mask in range(size) if values[mask] for i in range(n)):
            found.append(tuple(values))
    return found


def oracle_rows(d: JointDistribution):
    """Collapse a distribution to plain (sources, target, Fraction) rows."""
    merged = {}
    for outcome, p in d.support:
        key = (outcome.sources, outcome.target)
        merged[key] = merged.get(key, Fraction(0)) + p
    return [(s, t, p) for (s, t), p in sorted(merged.items(), key=lambda kv: repr(kv[0]))]


def _p(rows, predicate) -> Fraction:
    return sum((p for s, t, p in rows if predicate(s, t)), Fraction(0))


def oracle_mi(rows, indices) -> float:
    """I(selected sources; full target) by direct enumeration."""
    idx = sorted(indices)
    if not idx:
        return 0.0
    seen = set()
    total = 0.0
    for s, t, p in rows:
        key = (tuple(s[i - 1] for i in idx), t)
        if key in seen:
            continue
        seen.add(key)
        sa, tv = key
        p_joint = _p(rows, lambda s2, t2: tuple(s2[i - 1] for i in idx) == sa and t2 == tv)
        p_s = _p(rows, lambda s2, t2: tuple(s2[i - 1] for i in idx) == sa)
        p_t = _p(rows, lambda s2, t2: t2 == tv)
        ratio = p_joint / (p_s * p_t)
        total += float(p_joint) * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
    return total


def oracle_specific_information(rows, indices) -> dict:
    idx = sorted(indices)
    targets = sorted({t for _, t, _ in rows}, key=repr)
    table = {}
    for tv in targets:
        p_t = _p(rows, lambda s2, t2: t2 == tv)
        acc = 0.0
        for sa in sorted({tuple(s[i - 1] for i in idx) for s, _, _ in rows}, key=repr):
            p_joint = _p(rows, lambda s2, t2: tuple(s2[i - 1] for i in idx) == sa and t2 == tv)
            if p_joint == 0:
                continue
            p_s = _p(rows, lambda s2, t2: tuple(s2[i - 1] for i in idx) == sa)
            ratio = (p_joint / p_s) / p_t
            acc += float(p_joint / p_t) * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
        table[tv] = acc
    return table


def oracle_imin(rows, argsets) -> float:
    tables = [oracle_specific_information(rows, a) for a in argsets]
    total = 0.0
    for tv in sorted({t for _, t, _ in rows}, key=repr):
        p_t = _p(rows, lambda s2, t2: t2 == tv)
        total += float(p_t) * min(table[tv] for table in tables)
    return total


def oracle_isx(rows, argsets) -> float:
    """Shared-exclusions redundancy by explicit event enumeration."""
    argsets = [sorted(a) for a in argsets]
    total = 0.0
    for s, t, p in rows:
        observed = [tuple(s[i - 1] for i in a) for a in argsets]

        def in_event(s2, _t2, observed=observed):
            return any(
                tuple(s2[i - 1] for i in a) == obs for a, obs in zip(argsets, observed)
            )

        p_event = _p(rows, in_event)
        p_t_event = _p(rows, lambda s2, t2: t2 == t and in_event(s2, t2))
        p_t = _p(rows, lambda s2, t2: t2 == t)
        ratio = (p_t_event / p_event) / p_t
        total += float(p) * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
    return total


# ----------------------------------------------------------------------
# plain-Fraction reference for the probability core: rows are
# (sources, target, aux, Fraction) tuples, zero rows allowed; selectors are
# ("source", i), ("target", j) or "aux", as in JointDistribution


def _canonical_key(row) -> tuple:
    """Canonical row order: symbols compared as (type name, str)."""
    def key(values):
        return tuple((type(v).__name__, str(v)) for v in values)
    sources, target, aux, _ = row
    return (key(sources), key(target), () if aux is None else key((aux,)))


def reference_support(rows) -> list:
    """Positive rows in canonical order, as (Outcome, Fraction) pairs."""
    return [(Outcome(s, t, z), p) for s, t, z, p in sorted(rows, key=_canonical_key) if p > 0]


def _reference_value(row, selector):
    sources, target, aux, _ = row
    if selector == "aux":
        return aux
    kind, index = selector
    return (sources if kind == "source" else target)[index - 1]


def reference_marginal(rows, selectors) -> dict:
    out = {}
    for row in sorted(rows, key=_canonical_key):
        if row[3] > 0:
            key = tuple(_reference_value(row, s) for s in selectors)
            out[key] = out.get(key, Fraction(0)) + row[3]
    return out


def _reference_log2(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


def reference_entropy(rows, selectors) -> float:
    return -sum(float(p) * _reference_log2(p) for p in reference_marginal(rows, selectors).values())


def reference_mutual_information(rows, left, right) -> float:
    joint = reference_marginal(rows, list(left) + list(right))
    p_left, p_right = reference_marginal(rows, left), reference_marginal(rows, right)
    total = 0.0
    for key, p in joint.items():
        ratio = p / (p_left[key[: len(left)]] * p_right[key[len(left):]])
        total += float(p) * _reference_log2(ratio)
    return total


def _merged_support(rows) -> list:
    merged = {}
    for s, t, z, p in rows:
        if p > 0:
            merged[s, t, z] = merged.get((s, t, z), Fraction(0)) + p
    return reference_support([(s, t, z, p) for (s, t, z), p in merged.items()])


def reference_condition_on(rows, selector, value) -> list:
    kept = [row for row in rows if row[3] > 0 and _reference_value(row, selector) == value]
    mass = sum(row[3] for row in kept)
    out = []
    for s, t, z, p in kept:
        if selector == "aux":
            z = None
        elif selector[0] == "target":
            t = t[: selector[1] - 1] + t[selector[1]:]
        out.append((s, t, z, p / mass))
    return _merged_support(out)


def reference_restrict_target(rows, components) -> list:
    return _merged_support([(s, tuple(t[j - 1] for j in components), z, p) for s, t, z, p in rows])


def reference_retarget_to_sources(rows, indices) -> list:
    return _merged_support([(s, tuple(s[i - 1] for i in indices), z, p) for s, t, z, p in rows])


def reference_reencode(rows, source_maps, target_map) -> list:
    out = []
    for s, t, z, p in rows:
        if p > 0:
            s = tuple(source_maps[i][v] if i in source_maps else v for i, v in enumerate(s, 1))
            out.append((s, target_map[t], z, p))
    return _merged_support(out)
