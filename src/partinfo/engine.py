"""Decomposition engine: atoms from a redundancy measure, and back.

Given a redundancy measure evaluated on every antichain, the information
atoms are obtained by Möbius inversion over the redundancy lattice; summing
atoms back down the lattice reproduces the measure.  Any aggregate selected
by a logical condition on parthood distributions (redundant, union,
weak-synergy, vulnerable information, or a user-supplied predicate) is then
a plain sum of atoms, and the consistency equations tie the atom sums to
the mutual-information terms of the input distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .lattice import (
    Antichain,
    RedundancyLattice,
    degree_of_redundancy,
    nonempty_subsets,
    parthood_by_antichain,
    redundancy_lattice,
    resolve_condition,
)
from .measures import RedundancyMeasure, normalize_args
from .prob import JointDistribution, Selector


class MeasureEvaluationError(RuntimeError):
    """A measure failed on a specific antichain; the antichain is named."""


@dataclass(frozen=True, eq=False)
class PidResult:
    """A full decomposition: one real-valued atom per antichain.

    ``atoms`` covers exactly the antichains of the lattice for ``n``
    sources; ``distribution_digest`` binds the result to its input table.
    ``redundancy`` holds the measure values the atoms were inverted from.
    """

    n: int
    atoms: Mapping
    measure_id: str
    distribution_digest: str
    redundancy: Mapping | None = None

    def atom(self, antichain: Antichain) -> float:
        try:
            return self.atoms[antichain]
        except KeyError:
            raise ValueError(f"no atom for antichain {antichain.label}") from None

    @property
    def antichains(self) -> tuple:
        return tuple(self.atoms)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "measure": self.measure_id,
            "distribution_digest": self.distribution_digest,
            "atoms": {a.label: value for a, value in self.atoms.items()},
        }


def atoms_from_values(lattice: RedundancyLattice, values: Mapping) -> dict:
    """Möbius-invert per-antichain redundancy values into atoms.

    Works for exact rationals and floats alike; the coefficients are exact
    integers, so a rational input stays rational.  Only the nonzero
    coefficients are summed, in node order.  Every coefficient is +1 or -1,
    so a term is added or subtracted, which gives the same floats bit for
    bit as adding ``mu * value``.
    """
    v = [values[node] for node in lattice.nodes]
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

    A zeta transform: one addition per cover, along
    :attr:`RedundancyLattice.zeta_pairs`.  Rationals come out exact; float
    sums follow that cover order, not node order, so they can differ from a
    left-to-right sum over the down-set in the last bits.
    """
    g = [atoms[node] for node in lattice.nodes]
    for lower, upper in lattice.zeta_pairs:
        g[upper] += g[lower]
    return dict(zip(lattice.nodes, g))


def atoms_from_redundancy(
    d: JointDistribution,
    measure: RedundancyMeasure,
    lattice: RedundancyLattice | None = None,
) -> PidResult:
    """Evaluate ``measure`` on every antichain and invert to atoms."""
    lattice = lattice if lattice is not None else redundancy_lattice(d.n_sources)
    if lattice.n != d.n_sources:
        raise ValueError(f"lattice is for n={lattice.n}, distribution has n={d.n_sources}")
    values = {}
    for node in lattice.nodes:
        try:
            values[node] = measure.evaluate(d, node)
        except Exception as exc:
            raise MeasureEvaluationError(
                f"measure {measure.id!r} failed on antichain {node.label}: {exc}"
            ) from exc
    atoms = atoms_from_values(lattice, values)
    return PidResult(d.n_sources, atoms, measure.id, d.digest, values)


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
    result: PidResult, d: JointDistribution, tol: float = 1e-9
) -> ConsistencyReport:
    """Check that atoms whose parthood table marks a subset sum to that
    subset's mutual information, for every nonempty subset of sources."""
    if result.n != d.n_sources:
        raise ValueError("result and distribution have different source counts")
    entries = []
    for subset in nonempty_subsets(d.n_sources):
        atom_sum = sum(
            value
            for antichain, value in result.atoms.items()
            if any(m <= subset for m in antichain.members)
        )
        entries.append(ConsistencyEntry(subset, atom_sum, d.marginal_mi(subset)))
    return ConsistencyReport(tuple(entries), tol)


# ----------------------------------------------------------------------
# condition-selected aggregates of atoms


def c_information(result: PidResult, condition, args) -> float:
    """Sum the atoms whose parthood distribution satisfies the condition."""
    cond = resolve_condition(condition)
    selected = normalize_args(args)
    parthood = parthood_by_antichain(result.n)
    return sum(
        value for antichain, value in result.atoms.items() if cond(selected, parthood[antichain])
    )


def conditional_atoms(
    d: JointDistribution,
    measure: RedundancyMeasure,
    z: Selector,
    lattice: RedundancyLattice | None = None,
) -> PidResult:
    """Atoms of the conditional decomposition given a variable Z.

    Each value z of Z conditions the distribution; the same measure is
    inverted on each conditional table and the atom vectors are averaged
    with weights p(z).
    """
    lattice = lattice if lattice is not None else redundancy_lattice(d.n_sources)
    weights = d.variable_marginal(z)
    acc = {node: 0.0 for node in lattice.nodes}
    for value, pz in weights.items():
        sub = atoms_from_redundancy(d.condition_on(z, value), measure, lattice=lattice)
        for node in lattice.nodes:
            acc[node] += float(pz) * sub.atoms[node]
    return PidResult(d.n_sources, acc, measure.id, d.digest)


def conditional_c_information(
    d: JointDistribution,
    measure: RedundancyMeasure,
    condition,
    args,
    z: Selector,
) -> float:
    """Condition-selected aggregate of the conditional atoms."""
    return c_information(conditional_atoms(d, measure, z), condition, args)


# ----------------------------------------------------------------------
# redundancy-synergy index


def rsi(d: JointDistribution) -> float:
    """Sum of single-source informations minus the joint information."""
    single = sum(d.marginal_mi({i}) for i in range(1, d.n_sources + 1))
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
    result: PidResult, d: JointDistribution, tol: float = 1e-9
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
