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
from partinfo.prob import log2_ratio

try:
    from hypothesis import strategies as st
except ImportError:  # the tests that draw tables are skipped
    st = None


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


def draw_aux_table(data) -> JointDistribution:
    """A table drawn through Hypothesis' ``data``: one to three sources and
    a target of one or two components over symbols 0..2, each (sources,
    target) cell on one to three aux rows that share it, weights 0..5 with
    the zero rows kept in the table."""
    symbols = st.integers(0, 2)
    n = data.draw(st.integers(1, 3), label="n")
    arity = data.draw(st.integers(1, 2), label="target arity")
    points = data.draw(st.lists(st.tuples(st.tuples(*[symbols] * n), st.tuples(*[symbols] * arity)),
                                min_size=1, max_size=8, unique=True), label="points")
    cells = [(s, t, z) for s, t in points
             for z in data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                                         unique=True), label="aux values")]
    weights = data.draw(st.lists(st.integers(0, 5), min_size=len(cells),
                                 max_size=len(cells)).filter(any), label="weights")
    rows = [(Outcome(s, t, z), Fraction(w, sum(weights))) for (s, t, z), w in zip(cells, weights)]
    return JointDistribution(n, arity, rows)


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
    marginal = reference_marginal(rows, selectors)
    return -math.fsum(float(p) * _reference_log2(p) for p in marginal.values())


def reference_mutual_information(rows, left, right) -> float:
    joint = reference_marginal(rows, list(left) + list(right))
    p_left, p_right = reference_marginal(rows, left), reference_marginal(rows, right)
    return math.fsum(float(p) * _reference_log2(p / (p_left[key[: len(left)]] * p_right[key[len(left):]]))
                     for key, p in joint.items())


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


# ----------------------------------------------------------------------
# the measures' formulas written out directly on a distribution's integer
# marginals, with no memo: the kernel's cached paths must give the same
# floats bit for bit (compare with ==).  Every sum is a math.fsum, correctly
# rounded, so the reference does not depend on the order of its terms


def formula_specific_information(d: JointDistribution, a) -> dict:
    """Specific information from two ``_marginal_weights`` passes over the
    support, each target's terms added by :func:`math.fsum`."""
    w_target, denominator = d._marginal_weights(_targets(d)), d._denominator
    terms = {t: [] for t in w_target}
    a = sorted(frozenset(a))
    sources = [("source", i) for i in a]
    w_source = d._marginal_weights(sources)
    for key, w in d._marginal_weights(sources + _targets(d)).items():
        t = key[len(a):]
        terms[t].append(w / w_target[t] * log2_ratio(w * denominator, w_source[key[:len(a)]] * w_target[t]))
    return {t: math.fsum(values) for t, values in terms.items()}


def formula_i_min(d: JointDistribution, args) -> float:
    """Minimum specific information: the :func:`math.fsum` over targets of
    p(t) times the least :func:`formula_specific_information` of a member."""
    tables = [formula_specific_information(d, a) for a in args]
    w_target, denominator = d._marginal_weights(_targets(d)), d._denominator
    return math.fsum(w / denominator * min(table[t] for table in tables)
                     for t, w in w_target.items())


def formula_i_sx(d: JointDistribution, args) -> float:
    """Shared-exclusions redundancy, one exact event mass and one log per
    (sources, target) point, the terms added by :func:`math.fsum`."""
    points = d._marginal_weights([("source", i) for i in range(1, d.n_sources + 1)] + _targets(d))
    w_target = d._marginal_weights(_targets(d))
    denominator, n = d._denominator, d.n_sources
    argsets = [sorted(frozenset(a)) for a in args]
    terms = []
    for key, w in points.items():
        s, t = key[:n], key[n:]

        def in_event(other, s=s):
            return any(all(other[i - 1] == s[i - 1] for i in a) for a in argsets)

        event = [(k2, w2) for k2, w2 in points.items() if in_event(k2[:n])]
        w_event = sum(w2 for _, w2 in event)
        w_t_event = sum(w2 for k2, w2 in event if k2[n:] == t)
        terms.append(w / denominator * log2_ratio(w_t_event * denominator, w_event * w_target[t]))
    return math.fsum(terms)


def _targets(d: JointDistribution) -> list:
    return [("target", j) for j in range(1, d.target_arity + 1)]


# ----------------------------------------------------------------------
# the engine's inversion and zeta transform as plain per-step loops


def reference_moebius_atoms(lattice, values) -> dict:
    """Atoms by one ``+=`` or ``-=`` of a value per nonzero Möbius term, in
    node order: the loop whose results (value and type) every input must
    reproduce."""
    v = [values[node] for node in lattice.nodes]
    atoms = {}
    for node, terms in zip(lattice.nodes, lattice.moebius_index_terms):
        total = 0
        for i, mu in terms:
            if mu > 0:
                total += v[i]
            else:
                total -= v[i]
        atoms[node] = total
    return atoms


def reference_zeta_sums(lattice, atoms) -> dict:
    """Down-set sums by one ``g[upper] += g[lower]`` per cover, in the order
    of ``lattice.zeta_pairs``."""
    g = [atoms[node] for node in lattice.nodes]
    for lower, upper in lattice.zeta_pairs:
        g[upper] += g[lower]
    return dict(zip(lattice.nodes, g))


def primes_from(start: int, count: int) -> list:
    """The first ``count`` primes at or above ``start`` (at least 2), by a
    sieve of ever longer segments."""
    width = 1024
    while True:
        sieve = bytearray([1]) * width
        p = 2
        while p * p < start + width:
            for multiple in range(max(p * p, -(-start // p) * p), start + width, p):
                sieve[multiple - start] = 0
            p += 1
        found = [start + k for k, prime in enumerate(sieve) if prime]
        if len(found) >= count:
            return found[:count]
        width *= 2
