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
