"""Decomposition engine: atoms from a redundancy measure, and back.

Given a redundancy measure evaluated on every antichain, the information
atoms are obtained by Möbius inversion over the redundancy lattice; summing
atoms back down the lattice reproduces the measure.  Any aggregate selected
by a named logical condition on parthood distributions (redundant, union,
weak-synergy or vulnerable information) is then a plain sum of atoms, and
the consistency equations tie the atom sums to the mutual-information terms
of the input distribution.  Both read each atom's parthood off its node's
zero set in the lattice.

Within a :func:`call_memo` call, one memo shares five kinds of work:

* decompositions: :func:`decompose` decomposes each (distribution,
  measure) pair once;
* chain-rule splits: :func:`split_on` splits each (distribution, measure,
  variable) triple once, conditioning the table on each value of the
  variable and decomposing the pieces through that memo;
  :func:`conditional_atoms` averages them;
* derived tables: :func:`derived` builds each conditioned, restricted,
  retargeted or re-encoded table once per (table, operation, arguments),
  whatever the measure;
* measure kernels: tables whose measure kernels have identical contents
  (weights, int-coded source values and target indices, points in order)
  share one kernel, and with it every specific-information table, log term
  and measure value kept in it (:func:`measures._kernel`);
* kernel views: a table that :meth:`JointDistribution.reencode` built
  reads the kernel of the first table of its chain of relabellings through
  a view in its own point order, and relabellings with one kernel and one
  point order share one view, and with it every value kept in it.

Equal tables are equal keys.  A relabelled table is a table of its own,
with its own decomposition; it reads another table's work only through a
shared kernel, whose contents are the whole input of every value kept in
it, or through a view, which adds that kernel's terms in the table's own
order, so a shared value is bit for bit the one recomputing gives.  The
memo lives in :data:`_memo`, which :mod:`measures` imports to find it.
Outside a call the memo is absent and every call computes afresh, except
that a relabelled table still reads its first table's kernel through a
view of its own.

This module imports only :mod:`lattice` when it loads, so the lattice and
the inversions run without the measures or the probability tables;
:func:`consistency_check` and :func:`c_information` import what they use
of :mod:`measures` when called.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .lattice import (
    RedundancyLattice,
    _subset_mask,
    condition_test,
    degree_of_redundancy,
    nonempty_subsets,
    redundancy_lattice,
)

if TYPE_CHECKING:
    from .measures import RedundancyMeasure
    from .prob import JointDistribution, Selector


#: the memo of the call_memo() call in progress, if any
_memo: ContextVar = ContextVar("partinfo_engine_memo", default=None)

#: default tolerance of the consistency equations and of every property check
DEFAULT_TOL = 1e-9

# A Fraction from a numerator and a positive denominator already in lowest
# terms, without the gcd that Fraction() takes again (the constructor that
# Fraction arithmetic itself uses; it has this name from Python 3.12 on).
try:
    _reduced_fraction = Fraction._from_coprime_ints
except AttributeError:
    def _reduced_fraction(numerator: int, denominator: int) -> Fraction:
        return Fraction(numerator, denominator, _normalize=False)


# what _in_node_order reads for a node the mapping lacks
_ABSENT = object()


class MeasureEvaluationError(RuntimeError):
    """A measure failed on a specific antichain; the antichain is named."""


@dataclass(frozen=True, eq=False)
class PidResult:
    """A full decomposition: one real-valued atom per antichain.

    ``atoms`` covers exactly the antichains of the lattice for ``n``
    sources; ``distribution`` is the input table, and
    ``distribution_digest`` binds the result to it, hashed from the table
    when first read.  ``redundancy`` holds the measure values the atoms were
    inverted from.
    """

    n: int
    atoms: Mapping
    measure_id: str
    distribution: JointDistribution = field(repr=False)
    redundancy: Mapping | None = None

    @property
    def distribution_digest(self) -> str:
        return self.distribution.digest

    @cached_property
    def zero_sets(self) -> tuple:
        """:meth:`RedundancyLattice.zero_set` of each atom's node, in atom order."""
        return tuple(map(redundancy_lattice(self.n).zero_set, self.atoms))

    def to_json_dict(self) -> dict:
        label_of = redundancy_lattice(self.n).label_of
        return {
            "n": self.n,
            "measure": self.measure_id,
            "distribution_digest": self.distribution_digest,
            "atoms": {label_of[a]: value for a, value in self.atoms.items()},
        }


def _in_node_order(lattice: RedundancyLattice, values: Mapping) -> list:
    """``values[node]`` for each node of ``lattice``, in node order.  Keys
    other than exactly the nodes raise ``ValueError``, naming the first node
    with no value, else the first key that is not a node.  Values are read
    with ``get``, so a mapping's ``__missing__`` (a ``Counter``'s zero, a
    ``defaultdict``'s factory) neither fills in nor adds a node."""
    v = []
    for node in lattice.nodes:
        value = values.get(node, _ABSENT)
        if value is _ABSENT:
            raise ValueError(f"antichain {node.label} of A_{lattice.n} has no value")
        v.append(value)
    if len(values) != len(v):
        for key in values:
            lattice.index(key)
    return v


def _exact_steps(lattice: RedundancyLattice, g: list, inverse: bool) -> dict:
    """The zeta steps ``g[upper] += g[lower]`` along
    :attr:`RedundancyLattice.zeta_pairs` on ``Fraction`` values; with
    ``inverse``, each undone as ``g[upper] -= g[lower]`` in reverse order,
    which is the Möbius inversion.  A value is a reduced (numerator,
    denominator) pair of ints, and a step combines two as ``Fraction`` does:
    over the lcm of the denominators, then cancelling what the total shares
    with their gcd.  A pair stays as small as its exact value allows (a zero
    is 0/1); one ``Fraction`` per node is built at the end."""
    num = [x.numerator for x in g]
    den = [x.denominator for x in g]
    sign = -1 if inverse else 1
    for lower, upper in reversed(lattice.zeta_pairs) if inverse else lattice.zeta_pairs:
        a, b = den[upper], den[lower]
        common = math.gcd(a, b)
        if common == 1:
            num[upper] = num[upper] * b + sign * num[lower] * a
            den[upper] = a * b
        else:
            total = num[upper] * (b // common) + sign * num[lower] * (a // common)
            cancel = math.gcd(total, common)
            num[upper] = total // cancel
            den[upper] = a // common * (b // cancel)
    return dict(zip(lattice.nodes, map(_reduced_fraction, num, den)))


def atoms_from_values(lattice: RedundancyLattice, values: Mapping) -> dict:
    """Möbius-invert per-antichain redundancy values into atoms.

    ``values`` must map exactly the nodes of ``lattice``.  Only the nonzero
    coefficients are summed, in node order; each is +1 or -1, so a term is
    added or subtracted, which gives the same floats bit for bit as adding
    ``mu * value``, and ints or mixed int and ``Fraction`` values give the
    types that ``+=`` gives.

    When every value is exactly a ``Fraction``, the inversion is the zeta
    transform of :func:`redundancy_from_atoms` run backwards on integer
    pairs.  Each denominator is one node's own, never one for the whole
    lattice, so a large one widens only the values whose covers carry it.
    """
    v = _in_node_order(lattice, values)
    if set(map(type, v)) == {Fraction}:
        return _exact_steps(lattice, v, inverse=True)
    atoms = []
    for terms in lattice.moebius_index_terms:
        total = 0
        for i, mu in terms:
            if mu > 0:
                total += v[i]
            else:
                total -= v[i]
        atoms.append(total)
    return dict(zip(lattice.nodes, atoms))


def redundancy_from_atoms(lattice: RedundancyLattice, atoms: Mapping) -> dict:
    """Downward lattice sums of atoms: the redundancy each antichain carries.

    ``atoms`` must map exactly the nodes of ``lattice``.  A zeta transform:
    one addition per cover, along :attr:`RedundancyLattice.zeta_pairs`.
    Float sums follow that cover order, not node order, so they can differ
    from a left-to-right sum over the down-set in the last bits.

    When every atom is exactly a ``Fraction``, the additions run on reduced
    integer pairs, the steps that :func:`atoms_from_values` undoes.
    """
    g = _in_node_order(lattice, atoms)
    if set(map(type, g)) == {Fraction}:
        return _exact_steps(lattice, g, inverse=False)
    for lower, upper in lattice.zeta_pairs:
        g[upper] += g[lower]
    return dict(zip(lattice.nodes, g))


def atoms_from_redundancy(d: JointDistribution, measure: RedundancyMeasure) -> PidResult:
    """Evaluate ``measure`` on every antichain and invert to atoms."""
    lattice = redundancy_lattice(d.n_sources)
    values = {}
    for node in lattice.nodes:
        try:
            values[node] = measure.evaluate(d, node)
        except Exception as exc:
            raise MeasureEvaluationError(
                f"measure {measure.id!r} failed on antichain {node.label}: {exc}"
            ) from exc
    atoms = atoms_from_values(lattice, values)
    return PidResult(d.n_sources, atoms, measure.id, d, values)


@contextmanager
def call_memo():
    """Give the decorated call a memo that is dropped when the call returns."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def memoized(key, compute):
    """``compute()``, once per ``key`` within a :func:`call_memo` call."""
    memo = _memo.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def derived(d: JointDistribution, operation: str, *args) -> JointDistribution:
    """``d.<operation>(*args)``, a table derived from ``d`` by one of its
    transformations (``condition_on``, ``restrict_target``,
    ``retarget_to_sources`` or ``reencode``); once per (d, operation, args)
    within a :func:`call_memo` call, so ``args`` must be hashable.  Outside
    one, each call builds a fresh table."""
    return memoized((operation, d, args), lambda: getattr(d, operation)(*args))


def decompose(d: JointDistribution, measure: RedundancyMeasure) -> PidResult:
    """:func:`atoms_from_redundancy`, once per (distribution, measure) within a
    :func:`call_memo` call."""
    # equal distributions share one canonical support, so a memo hit gives
    # the same atoms, bit for bit, as decomposing again
    return memoized((d, measure), lambda: atoms_from_redundancy(d, measure))


def split_on(d: JointDistribution, measure: RedundancyMeasure, z: Selector) -> tuple:
    """The chain-rule split of ``d`` along the variable ``z``: for each value
    of ``z``, the tuple (value, p(value) as a float, ``d`` given the value,
    its decomposition); once per (d, measure, z) within a :func:`call_memo`
    call."""

    def split():
        pieces = []
        for value, pz in d.variable_marginal(z).items():
            dz = derived(d, "condition_on", z, value)
            pieces.append((value, float(pz), dz, decompose(dz, measure)))
        return tuple(pieces)

    return memoized(("split", d, measure, z), split)


# ----------------------------------------------------------------------
# consistency with the mutual-information terms


@dataclass(frozen=True)
class ConsistencyEntry:
    subset: frozenset
    atom_sum: float
    mutual_information: float

    @property
    def residual(self) -> float:
        return abs(self.atom_sum - self.mutual_information)


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(entry.residual for entry in self.entries)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @property
    def violations(self) -> tuple:
        return tuple(e for e in self.entries if e.residual > self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "residuals": {
                "{" + ",".join(str(i) for i in sorted(e.subset)) + "}": e.residual
                for e in self.entries
            },
        }


def consistency_check(
    result: PidResult, d: JointDistribution, tol: float = DEFAULT_TOL
) -> ConsistencyReport:
    """Check that atoms whose parthood table marks a subset sum to that
    subset's mutual information, for every nonempty subset of sources: atom
    k counts toward S iff S is not in the zero set of node k.

    Each atom sum is ``c_information(result, "red", (S,))``, read as the one
    zero-set bit of S, and each I(S;T) is :func:`measures.subset_mi`."""
    from .measures import subset_mi

    if result.n != d.n_sources:
        raise ValueError("result and distribution have different source counts")
    atoms = list(zip(result.atoms.values(), result.zero_sets))
    entries = []
    for subset in nonempty_subsets(d.n_sources):
        bit = 1 << _subset_mask(subset, d.n_sources)
        atom_sum = math.fsum([a for a, zeros in atoms if not zeros & bit])
        entries.append(ConsistencyEntry(subset, atom_sum, subset_mi(d, subset)))
    return ConsistencyReport(tuple(entries), tol)


# ----------------------------------------------------------------------
# condition-selected aggregates of atoms


def c_information(result: PidResult, condition, args) -> float:
    """Sum the atoms whose parthood distribution satisfies the named
    condition (``red``, ``union``, ``ws`` or ``vul``) on ``args``, with
    :func:`math.fsum`; always a float, ``0.0`` when none is selected."""
    from .measures import normalize_args

    selected = condition_test(condition, normalize_args(args), result.n)
    return math.fsum(value for value, zeros in zip(result.atoms.values(), result.zero_sets)
                     if selected(zeros))


def conditional_atoms(d: JointDistribution, measure: RedundancyMeasure, z: Selector) -> PidResult:
    """Atoms of the conditional decomposition given a variable Z: the atoms
    of each table in :func:`split_on`, averaged with weights p(z)."""
    acc = dict.fromkeys(redundancy_lattice(d.n_sources).nodes, 0.0)
    for _, pz, _, sub in split_on(d, measure, z):
        for node in acc:
            acc[node] += pz * sub.atoms[node]
    return PidResult(d.n_sources, acc, measure.id, d)


# ----------------------------------------------------------------------
# redundancy-synergy index


def rsi(d: JointDistribution) -> float:
    """Sum of single-source informations minus the joint information."""
    single = math.fsum(d.marginal_mi({i}) for i in range(1, d.n_sources + 1))
    return single - d.marginal_mi(range(1, d.n_sources + 1))


@dataclass(frozen=True)
class RsiReport:
    rsi_value: float
    atom_side: float
    tolerance: float

    @property
    def residual(self) -> float:
        return abs(self.rsi_value - self.atom_side)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def rsi_decomposition_check(
    result: PidResult, d: JointDistribution, tol: float = DEFAULT_TOL
) -> RsiReport:
    """The index equals a signed atom sum weighted by degree of redundancy:
    atoms whose degree is r >= 2 count (r - 1) times, degree-0 atoms count
    negatively, and degree-1 atoms cancel."""
    atom_side = 0.0
    for antichain, value in result.atoms.items():
        r = degree_of_redundancy(antichain)
        if r >= 2:
            atom_side += (r - 1) * value
        elif r == 0:
            atom_side -= value
    return RsiReport(rsi(d), atom_side, tol)
