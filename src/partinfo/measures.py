"""Concrete redundancy measures behind a common plugin interface.

Two measures ship with the package:

* ``imin`` -- the Williams-Beer minimum of specific information,
  ``sum_t p(t) * min_a I(a;t)``;
* ``isx``  -- the shared-exclusions redundancy, the average pointwise
  information ``log2( P(t | E) / p(t) )`` obtained from conditioning on the
  disjunction E of the observed source-collection events.

Both accept an arbitrary tuple of source-index collections (not only
antichains), which is what the conformance checks for symmetry and
superset invariance exercise.  Additional measures can be registered at
runtime without touching the decomposition engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Callable, Sequence

from .lattice import Antichain, nonempty_subsets, redundancy_lattice
from .prob import DistributionError, JointDistribution, log2_ratio


def normalize_args(args) -> tuple:
    """Normalize a measure argument into a tuple of frozen index sets.

    An :class:`Antichain` becomes its canonically sorted member tuple; any
    other iterable of index collections is preserved in the given order
    (argument order matters for the symmetry conformance check).
    """
    if isinstance(args, Antichain):
        return args.sorted_members
    out = []
    for a in args:
        member = frozenset(a)
        if not member:
            raise ValueError("measure arguments must be nonempty index sets")
        if any(not isinstance(i, int) or i < 1 for i in member):
            raise ValueError(f"bad source indices in {set(member)}")
        out.append(member)
    if not out:
        raise ValueError("measure needs at least one argument collection")
    return tuple(out)


@dataclass(frozen=True)
class RedundancyMeasure:
    """A named redundancy measure: (distribution, argument tuple) -> bits."""

    id: str
    fn: Callable = field(repr=False)

    def evaluate(self, d: JointDistribution, args) -> float:
        return self.fn(d, normalize_args(args))


def specific_information(d: JointDistribution, a) -> dict:
    """Specific information I(a;t) per target outcome, in bits.

    I(a;t) = sum over realizations s_a of p(s_a|t) * log2( p(t|s_a) / p(t) ).
    Terms with p(s_a|t) = 0 contribute nothing; averaging the table against
    p(t) recovers I(a;T).  Masses are integer weights over the kernel's
    common denominator D, summed from the kernel's points and their
    projections on ``a``, so p(t|s_a) / p(t) is the exact rational
    w(s_a, t) * D / (w(s_a) * w(t)).  The (s_a, t) terms are added in the
    order they first appear in the support.
    """
    kernel = d._kernel()
    table = dict.fromkeys(kernel.target_weights, 0.0)
    _, w_source, w_joint = kernel.subset_weights(a)
    for (s_a, t), w in w_joint.items():
        w_t = kernel.target_weights[t]
        table[t] += w / w_t * log2_ratio(w * kernel.denominator, w_source[s_a] * w_t)
    return table


def i_min(d: JointDistribution, args: Sequence) -> float:
    """Minimum specific information, averaged over the target.

    Each subset's specific-information table is computed once per
    distribution and kept in its kernel; equal distributions built
    separately each compute their own, with equal floats.  The average over
    the target is a :func:`math.fsum`, the same float on every interpreter.
    """
    kernel = d._kernel()
    tables = []
    for a in map(frozenset, args):
        table = kernel.si_tables.get(a)
        if table is None:
            table = kernel.si_tables[a] = specific_information(d, a)
        tables.append(table)
    return math.fsum(
        w_t / kernel.denominator * min(table[t] for table in tables)
        for t, w_t in kernel.target_weights.items()
    )


@lru_cache(maxsize=None)
def _union_coefficients(args: tuple) -> tuple:
    """The integer coefficients ``c(b)``, as (b, c(b)) pairs, with
    [agrees on some member of args] = sum_b c(b) * [agrees on b].

    Agreeing on ``a`` and on ``b`` is agreeing on ``a | b``, so each member
    ``m`` turns the coefficients ``c`` of the members before it into
    ``c + [m] - (c shifted by m)``; a member that contains an earlier one
    adds nothing to the event and is skipped, so only minimal members
    count.  Subsets ``b`` are int masks, bit ``i - 1`` for source ``i``, and
    zero coefficients are dropped.  A prefix of ``args`` shares its entry.
    """
    if not args:
        return ()
    before = _union_coefficients(args[:-1])
    m = sum(1 << i - 1 for i in args[-1])
    if any(b & m == b for b, _ in before):
        return before
    coefficients = dict(before)
    for b, c in before:
        coefficients[b | m] = coefficients.get(b | m, 0) - c
    coefficients[m] = coefficients.get(m, 0) + 1
    return tuple((b, c) for b, c in coefficients.items() if c)


def i_sx(d: JointDistribution, args: Sequence) -> float:
    """Shared-exclusions redundancy.

    For each support point, condition on the event that at least one of the
    argument collections took its observed value, and average the pointwise
    information this gives about the observed target value.  By
    inclusion-exclusion over the arguments' minimal members, the event's
    weight, and its weight on the point's target, are integer combinations
    of the kernel's per-subset agreement columns, summed for all points at
    once; only the final log is floating point.  That log depends only on
    the target value and the two weights, so the kernel keeps it for later
    points and calls; the terms are still added per point, in support order.
    """
    kernel = d._kernel()
    args = tuple(map(frozenset, args))
    if not args:
        raise ValueError("measure needs at least one argument collection")
    for member in args:
        for i in member:
            if not isinstance(i, int) or not 1 <= i <= kernel.n_sources:
                raise DistributionError(f"source index {i!r} out of range 1..{kernel.n_sources}")
    denominator, bits = kernel.denominator, kernel.field_bits
    pairs = kernel.combined_pairs(_union_coefficients(args))
    total = 0.0
    for w, t, logs, pair in zip(kernel.weights, kernel.targets, kernel.isx_logs, pairs):
        term = logs.get(pair)
        if term is None:
            event, joint = pair & (1 << bits) - 1, pair >> bits
            term = logs[pair] = log2_ratio(joint * denominator, event * kernel.target_weights[t])
        total += w / denominator * term
    return total


IMIN = RedundancyMeasure("imin", i_min)
ISX = RedundancyMeasure("isx", i_sx)

_REGISTRY = {IMIN.id: IMIN, ISX.id: ISX}

# Table rows reported as "not implemented" rather than inferred.
UNIMPLEMENTED_MEASURES = ("broja", "rmin", "ired", "iunion_blackwell")


def register_measure(measure: RedundancyMeasure, replace: bool = False) -> None:
    if measure.id in _REGISTRY and not replace:
        raise ValueError(f"measure id {measure.id!r} already registered")
    _REGISTRY[measure.id] = measure


def get_measure(measure_id: str) -> RedundancyMeasure:
    try:
        return _REGISTRY[measure_id]
    except KeyError:
        raise ValueError(
            f"unknown measure {measure_id!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_measures() -> tuple:
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# conformance: properties every redundancy measure must satisfy


@dataclass(frozen=True)
class ConformanceViolation:
    kind: str
    args: tuple
    value: float
    reference: float


@dataclass(frozen=True)
class ConformanceReport:
    measure_id: str
    distribution_digest: str
    checked: int
    violations: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.violations


def conformance_suite(
    measure: RedundancyMeasure, d: JointDistribution, tol: float = 1e-12
) -> ConformanceReport:
    """Check symmetry, self-redundancy, and superset invariance by direct
    evaluation over every antichain argument tuple."""
    n = d.n_sources
    violations = []
    checked = 0
    subsets = nonempty_subsets(n)

    for subset in subsets:
        checked += 1
        value = measure.evaluate(d, (subset,))
        reference = d.marginal_mi(subset)
        if abs(value - reference) > tol:
            violations.append(ConformanceViolation("self_redundancy", (subset,), value, reference))

    for antichain in redundancy_lattice(n).nodes:
        members = antichain.sorted_members
        base = measure.evaluate(d, members)
        for perm in permutations(members):
            if perm == members:
                continue
            checked += 1
            value = measure.evaluate(d, perm)
            if abs(value - base) > tol:
                violations.append(ConformanceViolation("symmetry", perm, value, base))
        for extra in subsets:
            if not any(extra >= m for m in members):
                continue  # only supersets (or duplicates) of a member are absorbed
            checked += 1
            value = measure.evaluate(d, members + (extra,))
            if abs(value - base) > tol:
                violations.append(
                    ConformanceViolation("superset_invariance", members + (extra,), value, base)
                )

    return ConformanceReport(measure.id, d.digest, checked, tuple(violations), tol)
