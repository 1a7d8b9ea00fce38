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

from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations
from operator import or_
from typing import Callable, Sequence

from .lattice import Antichain, enumerate_antichains, nonempty_subsets
from .prob import JointDistribution, log2_ratio


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
    common denominator D, so p(t|s_a) / p(t) is the exact rational
    w(s_a, t) * D / (w(s_a) * w(t)).
    """
    kernel = d._kernel()
    table = dict.fromkeys(kernel.target_weights, 0.0)
    a = sorted(frozenset(a))
    if not a:
        return table
    sources = [("source", i) for i in a]
    targets = [("target", j) for j in range(1, d.target_arity + 1)]
    w_source = d._marginal_weights(sources)
    for key, w in d._marginal_weights(sources + targets).items():
        t = key[len(a):]
        w_t = kernel.target_weights[t]
        table[t] += w / w_t * log2_ratio(w * kernel.denominator, w_source[key[: len(a)]] * w_t)
    return table


def i_min(d: JointDistribution, args: Sequence) -> float:
    """Minimum specific information, averaged over the target.

    Each subset's specific-information table is computed once per
    distribution and kept in its kernel.
    """
    kernel = d._kernel()
    tables = []
    for a in map(frozenset, args):
        table = kernel.si_tables.get(a)
        if table is None:
            table = kernel.si_tables[a] = specific_information(d, a)
        tables.append(table)
    return sum(
        w_t / kernel.denominator * min(table[t] for table in tables)
        for t, w_t in kernel.target_weights.items()
    )


def i_sx(d: JointDistribution, args: Sequence) -> float:
    """Shared-exclusions redundancy.

    For each support point, condition on the event that at least one of the
    argument collections took its observed value, and average the pointwise
    information this gives about the observed target value.  The event is
    the union of the point's agree-masks over the arguments, and its mass is
    an exact integer weight; only the final log is floating point.
    """
    kernel = d._kernel()
    denominator = kernel.denominator
    agree = [kernel.agree_masks(frozenset(a)) for a in args]
    total = 0.0
    for w, t, masks in zip(kernel.weights, kernel.targets, zip(*agree)):
        event = reduce(or_, masks)
        total += w / denominator * log2_ratio(kernel.mass(event & kernel.target_masks[t]) * denominator,
                                              kernel.mass(event) * kernel.target_weights[t])
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

    for antichain in enumerate_antichains(n):
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
