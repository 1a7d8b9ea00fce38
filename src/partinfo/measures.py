"""Concrete redundancy measures behind a common plugin interface.

Two measures ship with the package:

* ``imin`` -- the Williams-Beer minimum of specific information,
  ``sum_t p(t) * min_a I(a;t)``;
* ``isx``  -- the shared-exclusions redundancy, the average pointwise
  information ``log2( P(t | E) / p(t) )`` obtained from conditioning on the
  disjunction E of the observed source-collection events.

Both accept an arbitrary tuple of source-index collections (not only
antichains), which is what the conformance checks for symmetry and
superset invariance exercise.  Every member is checked against the table
and encoded as an int mask (:func:`lattice._subset_mask`), once per
hashable argument tuple; the masks key what the measures keep, in a
kernel (:class:`_Kernel`) that holds no labels, only integers, and that a
table reaches through its view (:class:`_View`).  Every value is a
:func:`math.fsum`, which does not depend on the order of its terms, so a
relabelled table reads the kernel of the table it relabels, and within one
:func:`engine.call_memo` call, tables whose kernels come out equal share
one and every value kept in it.  Additional measures can be
registered at runtime without touching the decomposition engine.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from operator import mul, or_
from typing import Callable, Sequence

from .engine import memoized
from .lattice import Antichain, _subset_mask, nonempty_subsets, redundancy_lattice
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


class _Kernel:
    """Per-subset tables over the (sources, target) marginal of a distribution.

    Point ``k`` is the k-th distinct (sources, target) pair in canonical
    support order and has probability ``weights[k] / denominator``, kept as
    the float ``probs[k]``; the points are read in one pass over the
    support, which merges rows differing only in aux.  The kernel holds no
    labels.  Point ``k``'s source values are one int, ``codes[k]``: each
    source owns a fixed bit field, ``fields[i - 1]`` for source ``i``,
    holding the index at which the point's value first appears in that
    source's column.  Its target is ``targets[k]``, the index at which the
    target value first appears; ``target_weights`` lists each target's
    weight in that order, and the floats ``w_t / denominator`` are
    ``target_probs``.  A source subset is an int mask, bit ``i - 1`` for
    source ``i``; a point's values on it are its code with the other
    sources' fields cleared.  Its agreement column is one int holding, for
    each point ``p``, the exact weight of the points that agree with ``p``
    on the subset and, ``field_bits`` higher, the weight of those of them
    that also share ``p``'s target; point ``k``'s pair of fields starts at
    bit ``2k * field_bits``.  So an integer combination of columns is one
    big-int sum whose fields are the combined weights, as long as each
    lands in ``0..denominator``.  A field is 1, 2 or 4 bytes wide when the
    denominator fits, and a pair of fields is packed and read by one
    ``struct``; wider fields by slicing.

    Per-subset groupings, terms, columns and specific-information tables,
    ``i_sx``'s log terms, and the measures' values per tuple of member
    masks (``imin_values``, ``isx_values``) are filled on first request and
    never change afterwards.  Every value is a :func:`math.fsum` of terms
    that are functions of ``contents`` alone (:func:`_kernel_contents`), and
    an ``fsum`` is correctly rounded, so it does not depend on the order of
    its terms.  So tables whose kernels have equal contents can share one
    kernel, and so can tables whose points are the kernel's relabelled and
    reordered.  The kernel keeps no reference to a distribution.
    """

    __slots__ = ("contents", "n_sources", "denominator", "weights", "codes", "fields", "targets",
                 "probs", "target_weights", "target_probs", "isx_logs", "field_bits",
                 "si_tables", "imin_values", "isx_values", "_subsets", "_columns", "_pairs",
                 "_terms")

    def __init__(self, contents: tuple):
        self.contents = contents
        (self.n_sources, self.denominator, self.weights, self.codes, self.fields,
         self.targets) = contents
        self.target_weights = [0] * (max(self.targets) + 1)
        for t, w in zip(self.targets, self.weights):
            self.target_weights[t] += w
        self.probs = [w / self.denominator for w in self.weights]
        self.target_probs = [w / self.denominator for w in self.target_weights]
        logs = [{} for _ in self.target_weights]
        self.isx_logs = [logs[t] for t in self.targets]   # per point: its target's (pair -> log2 term)
        self.si_tables: dict = {}          # subset mask -> specific_information()
        self.imin_values: dict = {}        # member masks -> i_min value
        self.isx_values: dict = {}         # member masks -> i_sx value
        self._subsets: dict = {}           # subset mask -> subset_weights()
        self._columns: dict = {}           # subset mask -> agreement column
        self._terms: dict = {}             # subset mask -> terms()
        # a field holds any weight up to the denominator; a pair of fields
        # that fills 2, 4 or 8 bytes is packed and read by struct, a wider
        # one by slicing
        size = -(-self.denominator.bit_length() // 8)
        size = next((k for k in (1, 2, 4) if k >= size), size)
        self.field_bits = 8 * size
        code = {1: "H", 2: "I", 4: "Q"}.get(size)
        self._pairs = code and struct.Struct(f"<{len(self.weights)}{code}")

    def subset_weights(self, mask: int) -> tuple:
        """Each point's source values on the subset ``mask``, as its code
        with the other fields cleared, and the weights of each value and of
        each (value, target) pair, keyed in the order they first appear in
        the support; grouped once per mask.  The points are grouped by
        (value, target) pair, and each value's weight is summed from its
        pairs' groups."""
        if mask not in self._subsets:
            bits = 0
            for i, field_mask in enumerate(self.fields):
                if mask >> i & 1:
                    bits |= field_mask
            projections = [code & bits for code in self.codes]
            w_joint: dict = {}
            for pair, w in zip(zip(projections, self.targets), self.weights):
                w_joint[pair] = w_joint.get(pair, 0) + w
            w_source: dict = {}
            for (s_a, _), w in w_joint.items():
                w_source[s_a] = w_source.get(s_a, 0) + w
            self._subsets[mask] = projections, w_source, w_joint
        return self._subsets[mask]

    def terms(self, mask: int) -> list:
        """Per (value, target) group of the subset ``mask``: its target, its
        term of the specific information ``w / w_t * log2(w * D / (w_s *
        w_t))`` and its term of the mutual information ``w / D * log2(...)``;
        once per mask."""
        terms = self._terms.get(mask)
        if terms is None:
            _, w_source, w_joint = self.subset_weights(mask)
            denominator, terms = self.denominator, []
            for (s_a, t), w in w_joint.items():
                w_t = self.target_weights[t]
                term = log2_ratio(w * denominator, w_source[s_a] * w_t)
                terms.append((t, w / w_t * term, w / denominator * term))
            self._terms[mask] = terms
        return terms

    def specific_information(self, mask: int) -> list:
        """Per target, in target order, the :func:`math.fsum` of its
        specific-information terms of the subset ``mask``; once per mask."""
        table = self.si_tables.get(mask)
        if table is None:
            per_target = [[] for _ in self.target_weights]
            for t, term, _ in self.terms(mask):
                per_target[t].append(term)
            table = self.si_tables[mask] = list(map(math.fsum, per_target))
        return table

    def mutual_information(self, mask: int) -> float:
        """I(S;T) of the subset ``mask``: the :func:`math.fsum` of its terms."""
        return math.fsum([term for _, _, term in self.terms(mask)])

    def column(self, mask: int) -> int:
        """The agreement column of the subset ``mask``: per point, its
        ``w_source | w_joint << field_bits`` pair, packed in point order."""
        column = self._columns.get(mask)
        if column is None:
            projections, w_source, w_joint = self.subset_weights(mask)
            bits = self.field_bits
            pairs = [w_source[s_b] | w_joint[s_b, t] << bits
                     for s_b, t in zip(projections, self.targets)]
            if self._pairs:
                raw = self._pairs.pack(*pairs)
            else:
                raw = b"".join(pair.to_bytes(bits // 4, "little") for pair in pairs)
            column = self._columns[mask] = int.from_bytes(raw, "little")
        return column

    def combined_pairs(self, coefficients) -> Sequence[int]:
        """Per point, its pair of fields in the columns combined with the
        integer ``coefficients`` ((mask, coefficient) pairs)."""
        total = sum(c * self.column(mask) for mask, c in coefficients)
        pair_bytes = self.field_bits // 4
        raw = total.to_bytes(pair_bytes * len(self.weights), "little")
        if self._pairs:
            return self._pairs.unpack(raw)
        return [int.from_bytes(raw[i : i + pair_bytes], "little")
                for i in range(0, len(raw), pair_bytes)]

    def isx(self, masks: tuple) -> float:
        """:func:`i_sx` of the member masks ``masks``: the :func:`math.fsum`
        of the points' terms.  A log term depends only on the target and
        the pair of weights, so it is kept per target for later points."""
        bits, denominator, target_weights = self.field_bits, self.denominator, self.target_weights
        low, terms = (1 << bits) - 1, []
        pairs = self.combined_pairs(_union_coefficients(masks))
        for p, t, logs, pair in zip(self.probs, self.targets, self.isx_logs, pairs):
            term = logs.get(pair)
            if term is None:
                term = logs[pair] = log2_ratio((pair >> bits) * denominator,
                                               (pair & low) * target_weights[t])
            terms.append(p * term)
        return math.fsum(terms)


class _View:
    """What a table reads of the measures: the kernel it reads its values
    from.  A table built from rows reads a kernel of its own points.  A
    table that :meth:`JointDistribution.reencode` built reads the kernel of
    the first table of its chain of relabellings: relabelling maps the
    points one to one, and points agree on a subset, or on the target, in
    the table exactly when they do in the kernel, so the table's terms are
    the kernel's in another order, and each of its values, an ``fsum``, is
    the kernel's bit for bit.  Only :func:`specific_information`, which
    keys the kernel's table by the table's own target outcomes, reads more
    of the table: its ``_origin``.
    """

    __slots__ = ("kernel",)

    def __init__(self, kernel: _Kernel):
        self.kernel = kernel


def _kernel_contents(d: JointDistribution) -> tuple:
    """The contents of ``d``'s kernel: (n_sources, denominator, weights,
    codes, fields, targets), each sequence a tuple, with the points read
    in one pass over the support (see :class:`_Kernel`)."""
    n = d.n_sources
    end = n + d.target_arity
    points: dict = {}                  # (sources, target) -> weight
    for values, w in d._weights:
        point = values[:end]           # rows differing only in aux merge
        points[point] = points.get(point, 0) + w
    codes = [0] * len(points)
    fields = []
    shift = 0
    for column in list(zip(*points))[:n]:
        index = {v: k << shift for k, v in enumerate(dict.fromkeys(column))}
        codes = list(map(or_, codes, map(index.__getitem__, column)))
        width = (len(index) - 1).bit_length()
        fields.append((1 << width) - 1 << shift)
        shift += width
    first: dict = {}                   # target value -> index of first appearance
    targets = [first.setdefault(point[n:], len(first)) for point in points]
    return (n, d._denominator, tuple(points.values()), tuple(codes), tuple(fields),
            tuple(targets))


def _kernel(d: JointDistribution) -> _View:
    """The :class:`_View` of ``d``, built on first use and kept in the
    table's slot; safe to keep because the distribution never changes.  A
    table that :meth:`JointDistribution.reencode` built reads the kernel of
    the first table of its chain; any other table reads a :class:`_Kernel`
    of its own points.  Within an :func:`engine.call_memo` call there is one
    kernel per contents, read before any kernel is built, so the tables that
    share one share every value kept in it, the same floats bit for bit.
    Outside a call, nothing is shared but a relabelled table's kernel."""
    view = d._measure_kernel
    if view is None:
        if d._origin is None:
            contents = _kernel_contents(d)
            kernel = memoized((_Kernel, contents), lambda: _Kernel(contents))
        else:
            kernel = _kernel(d._origin[0]).kernel
        view = d._measure_kernel = _View(kernel)
    return view


def specific_information(d: JointDistribution, a) -> dict:
    """Specific information I(a;t) per target outcome, in bits.

    I(a;t) = sum over realizations s_a of p(s_a|t) * log2( p(t|s_a) / p(t) ).
    Terms with p(s_a|t) = 0 contribute nothing; averaging the table against
    p(t) recovers I(a;T).  Masses are integer weights over the kernel's
    common denominator D, summed from the kernel's points and their
    projections on ``a``, so p(t|s_a) / p(t) is the exact rational
    w(s_a, t) * D / (w(s_a) * w(t)).  Each target's terms are added by
    :func:`math.fsum`.  The table is keyed by ``d``'s own target outcomes,
    in the order they first appear in its support: for a relabelled table,
    each is the kernel target its first support row falls on.
    """
    kernel = _kernel(d).kernel
    table = kernel.specific_information(_subset_mask(a, kernel.n_sources, DistributionError))
    if d._origin is not None:      # the first table's targets, in the order d's rows reach them
        first, rows = d._origin
        n, end = first.n_sources, first.n_sources + first.target_arity
        index = {t: k for k, t in enumerate(first._target_keys())}
        table = map(table.__getitem__,
                    dict.fromkeys(index[first._weights[r][0][n:end]] for r in rows))
    return dict(zip(d._target_keys(), table))


def subset_mi(d: JointDistribution, a) -> float:
    """I(a;T) in bits from the kernel's grouping by ``a``: ``fsum`` of the
    terms ``d.marginal_mi(a)`` adds, so the same float."""
    if d.target_arity == 0:
        raise DistributionError("distribution has no target")
    kernel = _kernel(d).kernel
    return kernel.mutual_information(_subset_mask(a, kernel.n_sources, DistributionError))


def _checked_masks(args: tuple, n: int) -> tuple:
    """The int mask of each member of ``args``, checked in turn: each must
    be a nonempty set of source indices in 1..n."""
    masks = []
    for a in args:
        mask = _subset_mask(a, n, DistributionError)
        if not mask:
            raise ValueError("measure arguments must be nonempty index sets")
        masks.append(mask)
    if not masks:
        raise ValueError("measure needs at least one argument collection")
    return tuple(masks)


_MASKS: dict = {}       # (args, n) -> (the tuple that was checked, its masks)


def _member_masks(args: tuple, n: int) -> tuple:
    """:func:`_checked_masks`, kept per hashable argument tuple.  A hit needs
    the very tuple that was checked, so an equal tuple of other index types,
    such as ``((1.0,),)`` for ``((1,),)``, is checked again."""
    try:
        checked, masks = _MASKS.get((args, n), (None, None))
    except TypeError:           # unhashable members are checked on every call
        return _checked_masks(args, n)
    if checked is not args:
        masks = _checked_masks(args, n)
        _MASKS[args, n] = args, masks
    return masks


def i_min(d: JointDistribution, args: Sequence) -> float:
    """Minimum specific information, averaged over the target.

    Each subset's specific-information table is computed once per kernel
    (:meth:`_Kernel.specific_information`) and kept in it under the
    subset's mask, as a list aligned with the kernel's ``target_probs``.
    The average over the target is a :func:`math.fsum` of ``p(t) * min``,
    the same float on every interpreter and in any target order, and is
    kept in the kernel per tuple of member masks.
    """
    kernel = _kernel(d).kernel
    masks = _member_masks(tuple(args), kernel.n_sources)
    value = kernel.imin_values.get(masks)
    if value is None:
        tables = list(map(kernel.specific_information, masks))
        least = map(min, *tables) if len(tables) > 1 else tables[0]   # min() of one float fails
        value = kernel.imin_values[masks] = math.fsum(map(mul, kernel.target_probs, least))
    return value


@lru_cache(maxsize=None)
def _union_coefficients(masks: tuple) -> tuple:
    """The integer coefficients ``c(b)``, as (b, c(b)) pairs, with
    [agrees on some subset in masks] = sum_b c(b) * [agrees on b].

    Agreeing on ``a`` and on ``b`` is agreeing on ``a | b``, so each mask
    ``m`` turns the coefficients ``c`` of the masks before it into
    ``c + [m] - (c shifted by m)``; a mask that contains an earlier one
    adds nothing to the event and is skipped, so only minimal members
    count.  Zero coefficients are dropped.  A prefix of ``masks`` shares
    its entry.
    """
    if not masks:
        return ()
    before = _union_coefficients(masks[:-1])
    m = masks[-1]
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
    points and calls.  The terms are added by :func:`math.fsum`
    (:meth:`_Kernel.isx`), and the sum is kept in the kernel per tuple of
    member masks.
    """
    kernel = _kernel(d).kernel
    masks = _member_masks(tuple(args), kernel.n_sources)
    total = kernel.isx_values.get(masks)
    if total is None:
        total = kernel.isx_values[masks] = kernel.isx(masks)
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
