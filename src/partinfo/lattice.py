"""Parthood distributions, antichains, and the redundancy lattice.

A parthood distribution is a monotone Boolean function on subsets of the
source indices with value 0 on the empty set and 1 on the full set; it
records which mutual-information terms one information atom is part of.
Antichains of nonempty source-index sets are the equivalent atom index, and
the redundancy lattice orders them so that redundancy values are downward
sums of atoms.  Möbius coefficients of that order (exact integers) solve
the lattice sums for the atoms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence


class LatticeSizeError(ValueError):
    """Requested lattice lies beyond ``LARGE_N`` sources."""


LARGE_N = 5                  # the largest n the library builds


def _subset_mask(subset: Iterable[int], n: int, error: type = ValueError) -> int:
    """The int mask of a subset of {1..n}, bit ``i - 1`` for source ``i``;
    raises ``error`` for an index that is not an int in 1..n."""
    mask = 0
    for i in subset:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise error(f"source index {i!r} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _mask_subset(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def nonempty_subsets(n: int) -> tuple:
    """All nonempty subsets of {1..n}, ordered by (size, elements)."""
    out = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            out.append(frozenset(combo))
    return tuple(out)


@dataclass(frozen=True)
class ParthoodDistribution:
    """Monotone Boolean table over all subsets of {1..n}.

    ``table[mask]`` is the value on the subset encoded by ``mask`` (bit
    ``i-1`` set iff source ``i`` belongs to the subset).
    """

    n: int
    table: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one source")
        if len(self.table) != 2**self.n:
            raise ValueError(f"table must have {2**self.n} entries, got {len(self.table)}")
        if any(v not in (False, True) for v in self.table):
            raise ValueError("table entries must be booleans")
        if self.table[0]:
            raise ValueError("value on the empty set must be 0")
        if not self.table[-1]:
            raise ValueError("value on the full set must be 1")
        for mask in range(2**self.n):
            if not self.table[mask]:
                continue
            for i in range(self.n):
                if not (mask >> i) & 1 and not self.table[mask | (1 << i)]:
                    raise ValueError("table is not monotone")

    def value(self, subset: Iterable[int]) -> bool:
        return self.table[_subset_mask(subset, self.n)]

    @classmethod
    def from_predicate(cls, n: int, predicate: Callable) -> "ParthoodDistribution":
        table = tuple(bool(predicate(_mask_subset(mask))) for mask in range(2**n))
        return cls(n, table)

    def __repr__(self) -> str:
        bits = "".join("1" if v else "0" for v in self.table)
        return f"ParthoodDistribution(n={self.n}, table={bits})"


def _member_tuples(members) -> tuple:
    return tuple(sorted(tuple(sorted(m)) for m in members))


@dataclass(frozen=True)
class Antichain:
    """Nonempty set of pairwise incomparable, nonempty source-index sets."""

    members: frozenset

    def __post_init__(self):
        members = frozenset(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("antichain cannot be empty")
        for m in members:
            if not m:
                raise ValueError("antichain members must be nonempty")
            if any(not isinstance(i, int) or i < 1 for i in m):
                raise ValueError(f"bad source indices in {set(m)}")
        for a, b in itertools.combinations(members, 2):
            if a <= b or b <= a:
                raise ValueError(f"members {set(a)} and {set(b)} are comparable")
        # the value the generated hash would compute on every call, kept
        object.__setattr__(self, "_hash", hash((members,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, *members) -> "Antichain":
        return cls(frozenset(frozenset(m) for m in members))

    @cached_property
    def sorted_members(self) -> tuple:
        """The members in canonical order; computed once per instance."""
        return tuple(frozenset(m) for m in _member_tuples(self.members))

    @property
    def label(self) -> str:
        return "".join("{" + ",".join(str(i) for i in m) + "}" for m in _member_tuples(self.members))

    @classmethod
    def from_label(cls, text: str) -> "Antichain":
        parts = re.findall(r"\{([^{}]*)\}", text)
        if not parts or "".join("{" + p + "}" for p in parts) != text.replace(" ", ""):
            raise ValueError(f"cannot parse antichain label {text!r}")
        members = []
        for part in parts:
            indices = [int(tok) for tok in part.split(",") if tok.strip()]
            if not indices:
                raise ValueError(f"empty member in label {text!r}")
            members.append(frozenset(indices))
        return cls.of(*members)

    def __repr__(self) -> str:
        return f"Antichain({self.label})"


def antichain_sort_key(antichain: Antichain) -> tuple:
    """Canonical order: (size of member union, lexicographic member tuples)."""
    union = frozenset().union(*antichain.members)
    return (len(union), _member_tuples(antichain.members))


def parthood_to_antichain(f: ParthoodDistribution) -> Antichain:
    """The antichain of minimal subsets on which ``f`` is 1."""
    ones = [_mask_subset(mask) for mask in range(2**f.n) if f.table[mask]]
    minimal = [a for a in ones if not any(b < a for b in ones)]
    return Antichain(frozenset(minimal))


def antichain_to_parthood(antichain: Antichain, n: int) -> ParthoodDistribution:
    """The monotone table assigning 1 to every superset of a member."""
    member_masks = [_subset_mask(m, n) for m in antichain.members]
    table = tuple(
        any(mask & mm == mm for mm in member_masks) for mask in range(2**n)
    )
    return ParthoodDistribution(n, table)


def lattice_leq(alpha: Antichain, beta: Antichain) -> bool:
    """True iff every member of ``beta`` contains some member of ``alpha``."""
    return all(any(a <= b for a in alpha.members) for b in beta.members)


def degree_of_redundancy(antichain: Antichain) -> int:
    """Number of singleton sets among the members."""
    return sum(1 for m in antichain.members if len(m) == 1)


# ----------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def enumerate_antichains(n: int) -> tuple:
    """All antichains over nonempty subsets of {1..n}, canonically ordered."""
    if n < 1:
        raise ValueError("need at least one source")
    if n > LARGE_N:
        raise LatticeSizeError(f"lattice too large: n={n} (at most n={LARGE_N} is supported)")
    subsets = nonempty_subsets(n)
    found = []

    def extend(start: int, chosen: tuple):
        for k in range(start, len(subsets)):
            cand = subsets[k]
            if any(cand <= m or m <= cand for m in chosen):
                continue
            new = chosen + (cand,)
            found.append(Antichain(frozenset(new)))
            extend(k + 1, new)

    extend(0, ())
    return tuple(sorted(found, key=antichain_sort_key))


@lru_cache(maxsize=None)
def enumerate_parthood(n: int) -> tuple:
    """All parthood distributions for ``n`` sources, aligned index by index
    with :func:`enumerate_antichains`."""
    return tuple(antichain_to_parthood(a, n) for a in enumerate_antichains(n))


# ----------------------------------------------------------------------
# the redundancy lattice


class RedundancyLattice:
    """The poset of antichains with the redundancy order, plus its exact
    Möbius coefficients.

    Node ``k`` is held as one int ``Z_k``: bit ``s`` is set iff ``s`` masks a
    proper nonempty source subset on which the node's parthood table is 0.
    Each ``Z_k`` is a down-set of subsets, and the order is inclusion of
    these down-sets, which makes the lattice free distributive.  So:

    * ``alpha <= beta`` iff ``Z_alpha`` is a subset of ``Z_beta``;
    * the lower covers of ``beta`` drop one maximal element of ``Z_beta``;
    * ``mu(alpha, beta)`` is ``(-1)**|Z_beta - Z_alpha|`` when that gap holds
      only maximal elements of ``Z_beta`` (a Boolean interval), else 0.

    Immutable after construction.  The export and the engine work on node
    indices; their tables (labels, covers, Möbius terms) are built on first
    use, so a caller pays only for what it reads.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes = enumerate_antichains(n)
        self._index = {node: k for k, node in enumerate(self.nodes)}
        full = (1 << n) - 1
        # supersets[m] = bits of the proper subsets that contain subset m
        supersets = [sum(1 << s for s in range(1, full) if s & m == m) for m in range(full + 1)]
        self._zeros = []
        self._maximal = []
        for node in self.nodes:
            ones = 0
            for member in node.members:
                ones |= supersets[_subset_mask(member, n)]
            zeros = ((1 << full) - 2) & ~ones      # bits 1..full-1 are the proper subsets
            self._zeros.append(zeros)
            self._maximal.append(
                sum(1 << s for s in range(1, full) if zeros & supersets[s] == 1 << s)
            )
        self._by_zeros = {zeros: k for k, zeros in enumerate(self._zeros)}

    def __len__(self) -> int:
        return len(self.nodes)

    def index(self, node: Antichain) -> int:
        try:
            return self._index[node]
        except KeyError:
            label = node.label if isinstance(node, Antichain) else repr(node)
            raise ValueError(f"antichain {label} is not a node of A_{self.n}") from None

    def zero_set(self, node: Antichain) -> int:
        """``Z`` of ``node``: bit ``s`` is set iff the node's parthood table
        is 0 on the proper nonempty subset that ``s`` masks."""
        return self._zeros[self.index(node)]

    def down_set(self, above: Antichain) -> tuple:
        top = self._zeros[self.index(above)]
        return tuple(node for node, zeros in zip(self.nodes, self._zeros) if zeros | top == top)

    def moebius(self, below: Antichain, above: Antichain) -> int:
        """Möbius coefficient of the lattice order; the arguments must be
        comparable with ``below`` underneath ``above``."""
        i, j = self.index(below), self.index(above)
        gap = self._zeros[i] ^ self._zeros[j]
        if gap & self._zeros[i]:
            raise ValueError(f"incomparable antichains: {below.label} is not below {above.label}")
        return 0 if gap & ~self._maximal[j] else (-1) ** gap.bit_count()

    @cached_property
    def labels(self) -> tuple:
        """``Antichain.label`` of every node, in node order."""
        return tuple(node.label for node in self.nodes)

    @cached_property
    def label_of(self) -> dict:
        """Node -> its entry of :attr:`labels`, so a caller that labels
        nodes in any order builds no label string."""
        return dict(zip(self.nodes, self.labels))

    @cached_property
    def zeta_pairs(self) -> tuple:
        """The covers as ``(lower, upper)`` index pairs in zeta-transform
        order: grouped by the subset ``s`` that ``Z_upper`` has and
        ``Z_lower`` lacks, the groups in (size, mask) order of ``s``.

        Running ``g[upper] += g[lower]`` along them turns atoms into down-set
        sums, one addition per cover.  After the groups up to ``s``, ``g[k]``
        sums the atoms of the nodes that ``Z_k`` reaches by dropping subsets
        up to ``s``.  A subset comes before its supersets, so a node whose
        zeros hold ``s`` but not as a maximal element has no such node
        without ``s`` yet, and needs no step for it.
        """
        by_subset = {}
        for j, (zeros, maximal) in enumerate(zip(self._zeros, self._maximal)):
            for s in range(maximal.bit_length()):
                if maximal >> s & 1:
                    by_subset.setdefault(s, []).append((self._by_zeros[zeros ^ (1 << s)], j))
        return tuple(
            pair
            for s in sorted(by_subset, key=lambda s: (s.bit_count(), s))
            for pair in by_subset[s]
        )

    @cached_property
    def cover_pairs(self) -> tuple:
        """Hasse-diagram edges as sorted ``(lower, upper)`` index pairs."""
        return tuple(sorted(self.zeta_pairs))

    @cached_property
    def moebius_index_terms(self) -> tuple:
        """Per node ``j``: the ``(i, mu)`` pairs with ``mu = moebius(node i,
        node j)`` nonzero, in node order; one per subset of the maximal zeros
        of node ``j``."""
        table = []
        for zeros, maximal in zip(self._zeros, self._maximal):
            terms = []
            gap = maximal
            while True:
                terms.append((self._by_zeros[zeros ^ gap], -1 if gap.bit_count() & 1 else 1))
                if not gap:
                    break
                gap = (gap - 1) & maximal
            terms.sort()
            table.append(tuple(terms))
        return tuple(table)

    def covers(self) -> tuple:
        """Hasse-diagram edges as (lower, upper) pairs."""
        return tuple((self.nodes[i], self.nodes[j]) for i, j in self.cover_pairs)

    def to_dot(self) -> str:
        labels = self.labels
        lines = [
            "digraph redundancy_lattice {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="Helvetica"];',
        ]
        lines.extend(f'  "{label}";' for label in labels)
        lines.extend(f'  "{labels[i]}" -> "{labels[j]}";' for i, j in self.cover_pairs)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        labels = self.labels
        # every comparable pair, upper node major: mu is (-1)**|gap| when the
        # gap holds only maximal zeros of the upper node, else 0
        rows = []
        for top, maximal, above in zip(self._zeros, self._maximal, labels):
            for zeros, below in zip(self._zeros, labels):
                if zeros | top == top:
                    gap = zeros ^ top
                    mu = 0 if gap & ~maximal else -1 if gap.bit_count() & 1 else 1
                    rows.append([below, above, mu])
        return {
            "n": self.n,
            "nodes": list(labels),
            "covers": [[labels[i], labels[j]] for i, j in self.cover_pairs],
            "moebius": rows,
        }


@lru_cache(maxsize=None)
def redundancy_lattice(n: int) -> RedundancyLattice:
    """Shared immutable lattice instance for ``n`` sources."""
    return RedundancyLattice(n)


# ----------------------------------------------------------------------
# logical conditions on parthood distributions
#
# With A the OR of 1 << mask(a) over the arguments a, a node's parthood
# table f is 0 on a exactly when bit mask(a) is in the node's zero set Z, so
# each condition is one integer test of (A, Z).

CONDITIONS = {
    "red": lambda bits, zeros: not bits & zeros,        # f(a) = 1 for every a
    "union": lambda bits, zeros: bool(bits & ~zeros),   # f(a) = 1 for some a
    "ws": lambda bits, zeros: not bits & ~zeros,        # f(a) = 0 for every a
    "vul": lambda bits, zeros: bool(bits & zeros),      # f(a) = 0 for some a
}


def condition_test(condition: str, args: Sequence, n: int) -> Callable[[int], bool]:
    """The named condition on the argument collections, as a test of a
    node's zero set (see :meth:`RedundancyLattice.zero_set`)."""
    if not isinstance(condition, str) or condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; conditions are named: "
                         f"{sorted(CONDITIONS)}")
    bits = 0
    for a in args:
        mask = _subset_mask(a, n)
        if not mask:
            raise ValueError("condition arguments must be nonempty index sets")
        bits |= 1 << mask
    test = CONDITIONS[condition]
    return lambda zeros: test(bits, zeros)


def c_order_leq(condition: str, x_args: Sequence, y_args: Sequence, n: int) -> bool:
    """Order induced by a condition: x before y iff C(x;f) implies C(y;f) for
    every parthood distribution f (checked on every node's zero set)."""
    x = condition_test(condition, x_args, n)
    y = condition_test(condition, y_args, n)
    lattice = redundancy_lattice(n)
    return all(y(z) for z in map(lattice.zero_set, lattice.nodes) if x(z))
