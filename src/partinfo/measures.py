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
hashable argument tuple; the masks key what the measures keep per table,
in a kernel that the distribution holds for them.  The kernel holds no
labels, only integers, so within one :func:`engine.call_memo` call the
tables whose kernels come out equal share one, and with it every table and
value kept in it; the call's memo is :data:`engine._memo`, which lives in
the engine so that it loads without this module.  Additional measures can
be registered at runtime without touching the decomposition engine.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import permutations
from operator import add, mul, or_
from typing import Callable, Sequence

from .engine import _memo
from .lattice import Antichain, _subset_mask, nonempty_subsets, redundancy_lattice
from .prob import DistributionError, JointDistribution, log2_ratio, mi_from_weights


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
    sources' fields cleared.  Each subset's specific information is a list
    aligned with ``target_weights``.  Its agreement column is one int
    holding, for each point ``p``, the exact weight of the points that agree
    with ``p`` on the subset and, ``field_bits`` higher, the weight of those
    of them that also share ``p``'s target; point ``k``'s pair of fields
    starts at bit ``2k * field_bits``.  So an integer combination of columns
    is one big-int sum whose fields are the combined weights, as long as
    each lands in ``0..denominator``.  A field is 1, 2 or 4 bytes wide when
    the denominator fits, and a pair of fields is packed and read by one
    ``struct``; wider fields by slicing.  Per-subset tables, ``i_sx``'s log
    terms and products and the measures' values (per tuple of member masks)
    are filled on first request and never change afterwards.  They are
    functions of ``contents`` alone (:func:`_kernel_contents`), so tables
    whose kernels have equal contents can share one kernel.  The kernel
    keeps no reference to its distribution.
    """

    __slots__ = ("contents", "n_sources", "denominator", "weights", "codes", "fields", "targets",
                 "probs", "target_weights", "target_probs", "si_tables", "isx_logs",
                 "field_bits", "imin_values", "isx_values", "_subsets", "_columns", "_pairs",
                 "_terms", "_groups", "_products")

    def __init__(self, contents: tuple):
        self.contents = contents
        (self.n_sources, self.denominator, self.weights, self.codes, self.fields,
         self.targets) = contents
        self.target_weights = [0] * (max(self.targets) + 1)
        for t, w in zip(self.targets, self.weights):
            self.target_weights[t] += w
        self.probs = [w / self.denominator for w in self.weights]
        self.target_probs = [w / self.denominator for w in self.target_weights]
        self.si_tables: dict = {}          # subset mask -> specific information, per target
        logs = [{} for _ in self.target_weights]
        self.isx_logs = [logs[t] for t in self.targets]   # per point: its target's (pair -> log2 term)
        self.imin_values: dict = {}        # member masks -> i_min
        self.isx_values: dict = {}         # member masks -> i_sx
        self._subsets: dict = {}           # subset mask -> subset_weights()
        self._columns: dict = {}           # subset mask -> agreement column
        self._terms: dict = {}             # subset mask -> terms()
        self._groups: dict = {}            # subset mask -> groups()
        self._products: dict = {}          # member masks -> isx_products()
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

    def specific_information(self, mask: int) -> list:
        """The specific information of the subset ``mask`` per target: each
        (value, target) group's term added in the order the groups first
        appear (:func:`specific_information`)."""
        table = [0.0] * len(self.target_weights)
        _, w_source, w_joint = self.subset_weights(mask)
        for (s_a, t), w in w_joint.items():
            w_t = self.target_weights[t]
            table[t] += w / w_t * log2_ratio(w * self.denominator, w_source[s_a] * w_t)
        return table

    def mutual_information(self, mask: int) -> float:
        """I(mask; T), summed by :func:`prob.mi_from_weights` in group order."""
        _, w_source, w_joint = self.subset_weights(mask)
        return mi_from_weights(w_joint, w_source, self.target_weights, self.denominator)

    def terms(self, mask: int) -> list:
        """Per (value, target) group of the subset ``mask``, in the order of
        :meth:`subset_weights`: its target and the terms that
        :meth:`specific_information` and :meth:`mutual_information` add for
        it, the same floats; once per mask, for the views that re-add them."""
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

    def groups(self, mask: int) -> list:
        """Per point, the index of its group in :meth:`terms`; once per mask."""
        groups = self._groups.get(mask)
        if groups is None:
            projections, _, w_joint = self.subset_weights(mask)
            index = {pair: g for g, pair in enumerate(w_joint)}
            groups = self._groups[mask] = list(map(index.__getitem__, zip(projections, self.targets)))
        return groups

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
        """:func:`i_sx` of the member masks ``masks``: the points' terms
        added in point order.  A log term depends only on the target and
        the pair of weights, so it is kept per target for later points."""
        denominator, bits = self.denominator, self.field_bits
        total = 0.0
        pairs = self.combined_pairs(_union_coefficients(masks))
        for p, t, logs, pair in zip(self.probs, self.targets, self.isx_logs, pairs):
            term = logs.get(pair)
            if term is None:
                event, joint = pair & (1 << bits) - 1, pair >> bits
                term = logs[pair] = log2_ratio(joint * denominator, event * self.target_weights[t])
            total += p * term
        return total

    def isx_products(self, masks: tuple) -> list:
        """Per point, the term :meth:`isx` adds for it, computed once per
        tuple of member masks, with the log terms :meth:`isx` keeps."""
        products = self._products.get(masks)
        if products is None:
            denominator, bits = self.denominator, self.field_bits
            products = self._products[masks] = []
            pairs = self.combined_pairs(_union_coefficients(masks))
            for p, t, logs, pair in zip(self.probs, self.targets, self.isx_logs, pairs):
                term = logs.get(pair)
                if term is None:
                    event, joint = pair & (1 << bits) - 1, pair >> bits
                    term = logs[pair] = log2_ratio(joint * denominator, event * self.target_weights[t])
                products.append(p * term)
        return products


class _View:
    """The kernel of a table that :meth:`JointDistribution.reencode` built,
    read off ``kernel``, the kernel of the first table of its chain of
    relabellings.  Relabelling maps the points one to one, so the table's
    point ``k`` is the kernel's point ``order[k]``, with its weight, and
    points agree on a subset, or on the target, in the table exactly when
    they do in the kernel.  So every log term and product that a value of
    the table adds up is one the kernel keeps (:meth:`_Kernel.terms`,
    :meth:`_Kernel.isx_products`), and only the order of the sums is the
    table's own: the view adds the kernel's terms in the table's order,
    which gives bit for bit the floats of a kernel built from the table.
    Its targets are the kernel's in the order they first appear in
    ``order``; ``target_index`` maps a kernel target to its index here.
    The view keeps its own specific-information tables and values, as the
    kernel does.
    """

    __slots__ = ("kernel", "order", "n_sources", "target_index", "target_probs",
                 "si_tables", "imin_values", "isx_values")

    def __init__(self, kernel: _Kernel, order: tuple):
        self.kernel, self.order, self.n_sources = kernel, order, kernel.n_sources
        targets = dict.fromkeys(map(kernel.targets.__getitem__, order))
        self.target_index = {t: k for k, t in enumerate(targets)}
        self.target_probs = list(map(kernel.target_probs.__getitem__, targets))
        self.si_tables, self.imin_values, self.isx_values = {}, {}, {}

    def _terms(self, mask: int):
        """The kernel's :meth:`_Kernel.terms` of the subset ``mask``, in the
        order their groups first appear among the table's points."""
        first = dict.fromkeys(map(self.kernel.groups(mask).__getitem__, self.order))
        return map(self.kernel.terms(mask).__getitem__, first)

    def specific_information(self, mask: int) -> list:
        table = [0.0] * len(self.target_probs)
        for t, term, _ in self._terms(mask):
            table[self.target_index[t]] += term
        return table

    def mutual_information(self, mask: int) -> float:
        total = 0.0
        for _, _, term in self._terms(mask):
            total += term
        return total

    def isx(self, masks: tuple) -> float:
        return reduce(add, map(self.kernel.isx_products(masks).__getitem__, self.order), 0.0)


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


def _point_order(d: JointDistribution, rows: tuple) -> tuple:
    """The points of ``d``'s kernel that the support rows ``rows`` (their
    indices in ``d``'s support) fall on, in the order they first appear."""
    if not d.has_aux:
        return rows                    # with no aux, support row k is point k
    end = d.n_sources + d.target_arity
    index: dict = {}                   # point -> its index
    points = [index.setdefault(values[:end], len(index)) for values, _ in d._weights]
    return tuple(dict.fromkeys(map(points.__getitem__, rows)))


def _kernel(d: JointDistribution):
    """The kernel of ``d``, built on first use and kept in the table's
    slot; safe to keep because the distribution never changes.  A table
    that :meth:`JointDistribution.reencode` built gets a :class:`_View` of
    the kernel of the first table of its chain; any other table gets a
    :class:`_Kernel` of its own.  Within an :func:`engine.call_memo` call,
    a table whose kernel contents, or whose view's kernel and point order,
    are those of one already built in that call gets that one, so the
    tables share what it keeps, which is the same floats bit for bit; the
    contents are read first, and a kernel is built only when the call has
    none with them.  Outside a call, nothing is shared but a view's kernel."""
    kernel = d._measure_kernel
    if kernel is None:
        if d._origin is None:
            kind, parts = _Kernel, (_kernel_contents(d),)
        else:
            first, rows = d._origin
            parent = _kernel(first)
            kind, parts = _View, (parent, _point_order(first, rows))
        memo, key = _memo.get(), (kind, *parts)
        kernel = None if memo is None else memo.get(key)
        if kernel is None:
            kernel = kind(*parts)
            if memo is not None:
                memo[key] = kernel
        d._measure_kernel = kernel
    return kernel


def specific_information(d: JointDistribution, a) -> dict:
    """Specific information I(a;t) per target outcome, in bits.

    I(a;t) = sum over realizations s_a of p(s_a|t) * log2( p(t|s_a) / p(t) ).
    Terms with p(s_a|t) = 0 contribute nothing; averaging the table against
    p(t) recovers I(a;T).  Masses are integer weights over the kernel's
    common denominator D, summed from the kernel's points and their
    projections on ``a``, so p(t|s_a) / p(t) is the exact rational
    w(s_a, t) * D / (w(s_a) * w(t)).  The (s_a, t) terms are added in the
    order they first appear in the support.  The table is keyed by ``d``'s
    own target outcomes, in the order they first appear in its support,
    which is the order of the kernel's target indices; ``d`` reads that
    order once and keeps it.
    """
    kernel = _kernel(d)
    table = kernel.specific_information(_subset_mask(a, kernel.n_sources, DistributionError))
    return dict(zip(d._target_keys(), table))


def subset_mi(d: JointDistribution, a) -> float:
    """I(a;T) in bits from the kernel's grouping by ``a``, summed as
    ``d.marginal_mi(a)`` sums the same weights: the same float."""
    if d.target_arity == 0:
        raise DistributionError("distribution has no target")
    kernel = _kernel(d)
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
    and kept in it under the subset's mask, as a list aligned with the
    kernel's ``target_probs``; equal distributions built separately each
    compute their own, with equal floats, unless a call memo gave them one
    kernel.  A :class:`_Kernel` computes it by :func:`specific_information`
    and a :class:`_View` re-adds its kernel's terms.  The average over the
    target is a :func:`math.fsum` of ``p(t) * min``, the same float on every
    interpreter, and is kept in the kernel per tuple of member masks.
    """
    kernel = _kernel(d)
    args = tuple(args)
    masks = _member_masks(args, kernel.n_sources)
    value = kernel.imin_values.get(masks)
    if value is None:
        tables = []
        for a, mask in zip(args, masks):
            table = kernel.si_tables.get(mask)
            if table is None:
                table = (kernel.specific_information(mask) if type(kernel) is _View
                         else list(specific_information(d, a).values()))
                kernel.si_tables[mask] = table
            tables.append(table)
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
    points and calls; the terms are still added per point, in support order
    (:meth:`_Kernel.isx`, :meth:`_View.isx`).  The sum is kept in the kernel
    per tuple of member masks.
    """
    kernel = _kernel(d)
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
