"""Independent reference code for the benchmark's output checks.

Nothing here imports ``partinfo``: antichains, their order and the two
redundancy measures are written out again from their definitions, so a
check compares the package against a second implementation.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import defaultdict


def antichains(n: int) -> list:
    """Every antichain of nonempty subsets of {1..n}, as frozensets of frozensets."""
    subsets = [frozenset(c) for k in range(1, n + 1)
               for c in itertools.combinations(range(1, n + 1), k)]
    found = []
    for size in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, size):
            if all(not (a <= b or b <= a) for a, b in itertools.combinations(combo, 2)):
                found.append(frozenset(combo))
    return found


def below(alpha, beta) -> bool:
    """Redundancy order: every member of ``beta`` contains a member of ``alpha``."""
    return all(any(a <= b for a in alpha) for b in beta)


def parse_label(label: str) -> frozenset:
    """``"{1,2}{3}"`` -> frozenset({frozenset({1, 2}), frozenset({3})})."""
    members = re.findall(r"\{([0-9,]+)\}", label)
    if "".join("{" + m + "}" for m in members) != label:
        raise ValueError(f"bad antichain label {label!r}")
    return frozenset(frozenset(int(i) for i in m.split(",")) for m in members)


def label(antichain) -> str:
    return "".join("{" + ",".join(map(str, m)) + "}"
                   for m in sorted(tuple(sorted(m)) for m in antichain))


class Order:
    """Down-sets of the antichain lattice for ``n`` sources, by brute force."""

    def __init__(self, n: int):
        self.nodes = antichains(n)
        self.down = {beta: [alpha for alpha in self.nodes if below(alpha, beta)]
                     for beta in self.nodes}
        self.comparable_pairs = sum(len(v) for v in self.down.values())

    def down_sum(self, atoms: dict) -> dict:
        """Redundancy of every node as the sum of the atoms below it."""
        return {beta: sum(atoms[alpha] for alpha in self.down[beta]) for beta in self.nodes}


class Table:
    """A distribution given as integer weights on (sources, target) points."""

    def __init__(self, points, weights):
        self.points = [(tuple(s), tuple(t)) for s, t in points]
        self.weights = list(weights)
        self.total = sum(self.weights)
        self.target = defaultdict(int)
        for (_, t), w in zip(self.points, self.weights):
            self.target[t] += w

    def _project(self, member):
        idx = sorted(member)
        return [tuple(s[i - 1] for i in idx) for s, _ in self.points]

    def imin(self, antichain) -> float:
        """Williams-Beer I_min: sum_t p(t) min_a I(a; t)."""
        specific = []
        for member in antichain:
            joint, marg = defaultdict(int), defaultdict(int)
            for sa, (_, t), w in zip(self._project(member), self.points, self.weights):
                joint[sa, t] += w
                marg[sa] += w
            info = defaultdict(float)
            for (sa, t), w in joint.items():
                # p(sa|t) * log2( p(t|sa) / p(t) )
                info[t] += w / self.target[t] * math.log2(
                    w * self.total / (marg[sa] * self.target[t]))
            specific.append(info)
        return sum(wt / self.total * min(info[t] for info in specific)
                   for t, wt in self.target.items())

    def isx(self, antichain) -> float:
        """Shared exclusions: average of log2( p(t | E) / p(t) ), where E is
        the event that some member of the antichain takes its observed value."""
        projections = [self._project(member) for member in antichain]
        total = 0.0
        for k, ((_, t), w) in enumerate(zip(self.points, self.weights)):
            event = target_event = 0
            for m, ((_, t2), w2) in enumerate(zip(self.points, self.weights)):
                if any(p[m] == p[k] for p in projections):
                    event += w2
                    if t2 == t:
                        target_event += w2
            total += w / self.total * math.log2(
                target_event * self.total / (event * self.target[t]))
        return total
