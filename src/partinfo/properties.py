"""Machine-checkable verdicts for candidate decomposition properties.

Each check is called as ``check(d, measure, tol)`` and returns a
:class:`PropertyReport` carrying a pass/fail verdict, the tolerance used, a
concrete witness on failure, and a note on the search space that was
exhausted or sampled; an unmet precondition raises :class:`PreconditionError`,
which :func:`run_property` alone reports as 'vacuous'.  The
``theorem_witness`` routine traces, step by step, the numerical argument
showing that local positivity, re-encoding invariance, and the target chain
rule (or the identity property) cannot all hold for the xor-source-copy
distribution.

Property ids: lp, rei, tcr, lm, sm, id, iid (single properties) and l1, l2,
c1, l3, l4, t1, t2 (lemma/corollary/impossibility checks).

Decompositions, chain-rule splits, derived tables, rei scans and theorem
witnesses are shared within a single ``run_all_checks`` or
``property_matrix`` call through the engine's call memo, and dropped when
that call returns.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from operator import sub
from typing import Sequence

from .engine import (
    DEFAULT_TOL,
    PidResult,
    c_information,
    call_memo,
    conditional_atoms,
    consistency_check,
    decompose,
    derived,
    kernel_determined,
    memoized,
    rsi,
    rsi_decomposition_check,
    split_on,
)
from .lattice import Antichain, condition_test, nonempty_subsets, redundancy_lattice
from .measures import RedundancyMeasure
from .prob import DistributionError, JointDistribution

#: threshold above which a value counts as strictly positive
STRICT_POSITIVITY = 1e-9
#: default tolerance of rei's atom comparisons, also inside the t1/t2 witness
DEFAULT_REI_TOL = 1e-12


class PreconditionError(DistributionError):
    """The distribution cannot meet the check's precondition; see ``details``."""

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.details = details


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    measure_id: str
    distribution_digest: str
    verdict: str                      # "pass" | "fail" | "vacuous"
    tolerance: float
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_id,
            "measure": self.measure_id,
            "distribution_digest": self.distribution_digest,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "details": self.details,
        }


def _report(property_id, measure_id, digest, passed, tol, witness, details) -> PropertyReport:
    """A pass/fail report that keeps the witness only when the check failed."""
    return PropertyReport(property_id, measure_id, digest, "pass" if passed else "fail",
                          tol, None if passed else witness, details)


# ----------------------------------------------------------------------
# single properties


def check_lp(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Local positivity: every atom of the decomposition is nonnegative."""
    result = decompose(d, measure)
    node, value = min(result.atoms.items(), key=lambda item: item[1])
    return _report(
        "lp", measure.id, d.digest, value >= -tol, tol,
        {"antichain": node.label, "atom": value},
        {"atoms_checked": len(result.atoms), "min_atom": value},
    )


def _target(d: JointDistribution) -> list:
    return [("target", j) for j in range(1, d.target_arity + 1)]


def check_rei(
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> PropertyReport:
    """Re-encoding invariance of the atoms, compared at ``tol`` (``None``:
    ``DEFAULT_REI_TOL``).

    The full decomposition is compared, in this order, against the
    relabellings of :func:`_relabellings` and, for each source pair that
    determines the target one-to-one, the table with that pair as target: a
    re-encoding of the input, so its atoms must agree.  For a
    :func:`engine.kernel_determined` measure a relabelling's atoms are the
    input's own, so each counts as one comparison with delta 0.0, and no
    bijection is drawn and no relabelled table built.  For any other
    measure a map is keyed by the symbol tables in it that move a symbol, so
    within a call memo the maps that move the same symbols share one table
    and decomposition, and a map that moves none compares the input itself.
    Each comparison's atom deltas are taken by position, since every
    decomposition lists its atoms in lattice node order, and their largest
    is computed once per distinct table (0.0 with no subtraction when the
    table's atoms are the input's own object); the first comparison with
    the largest delta is the witness.  With nothing to compare, it raises
    :class:`PreconditionError`.
    """
    base = decompose(d, measure)
    relabellings, maps = _relabellings(d, trials, seed)
    tables = [] if kernel_determined(measure) else [
        (label, _relabelled(d, source_maps, target_map)) for label, source_maps, target_map in maps]
    pairs = []
    for i, j in itertools.combinations(range(1, d.n_sources + 1), 2):
        triples = d.marginal_support([("source", i), ("source", j)] + _target(d))
        forward = {key[:2]: key[2:] for key in triples}
        if len(forward) < len(triples) or len(set(forward.values())) < len(forward):
            continue                  # the pair does not determine the target one-to-one
        pair = derived(d, "retarget_to_sources", (i, j))
        if derived(pair, "reencode", None, tuple(forward.items())) != d:
            raise AssertionError("pair target does not re-encode onto the target")
        pairs.append((f"pair ({i},{j}) target re-encoding", pair))

    if not relabellings and not pairs:
        raise PreconditionError("no re-encoding was compared", trials=trials, seed=seed)
    tol = DEFAULT_REI_TOL if tol is None else tol
    max_delta, witness = 0.0, None
    base_atoms = list(base.atoms.values())
    deltas = {}                       # table -> its largest atom delta
    for label, table in tables + pairs:
        delta = deltas.get(table)
        if delta is None:
            atoms = decompose(table, measure).atoms
            delta = deltas[table] = 0.0 if atoms is base.atoms else max(
                map(abs, map(sub, base_atoms, atoms.values())))
        if delta > max_delta:
            max_delta, witness = delta, {"transformation": label, "max_atom_delta": delta}
    return _report(
        "rei", measure.id, d.digest, max_delta <= tol, tol, witness,
        {"trials": trials, "seed": seed, "comparisons": relabellings + len(pairs),
         "max_atom_delta": max_delta},
    )


def _relabellings(d: JointDistribution, trials: int, seed: int) -> tuple:
    """The relabellings :func:`check_rei` compares, as (count, maps): ``maps``
    yields ``count`` (label, source maps, target map) triples, each symbol
    table as (symbol, image) pairs, in this order: ``trials`` seeded random
    bijections of every source support and of the target support (each
    trial draws the sources in index order, then the target), then every
    permutation of each source support and then of the target support of
    at most four symbols.  It reads each support once; the bijections are
    drawn only as ``maps`` is read."""
    supports = {i: d.variable_support(("source", i)) for i in range(1, d.n_sources + 1)}
    targets = d.marginal_support(_target(d))
    permuted = [(i, values) for i, values in supports.items() if len(values) <= 4]
    if d.target_arity >= 1 and len(targets) <= 4:
        permuted.append((None, targets))

    rng = random.Random(seed)

    def maps():
        for trial in range(trials):
            source_maps = tuple((i, tuple(zip(values, rng.sample(values, len(values)))))
                                for i, values in supports.items())
            yield (f"random bijection #{trial}", source_maps,
                   tuple(zip(targets, rng.sample(targets, len(targets)))))
        for i, values in permuted:
            for perm in itertools.permutations(values):
                if i is None:
                    yield "target permutation", None, tuple(zip(values, perm))
                else:
                    yield f"source {i} permutation {perm}", ((i, tuple(zip(values, perm))),), None

    count = len(range(trials)) + sum(math.factorial(len(values)) for _, values in permuted)
    return count, maps()


def _relabelled(d: JointDistribution, source_maps, target_map) -> JointDistribution:
    """``d`` re-encoded by those of the symbol tables (``source_maps``, as
    (index, pairs) pairs, and ``target_map``, pairs or ``None``) that move a
    symbol; ``d`` itself when none does.  So maps that move the same
    symbols share one key, and with it one table, within a call memo."""
    source_maps = tuple((i, pairs) for i, pairs in source_maps or () if _moves(pairs))
    target_map = target_map if target_map and _moves(target_map) else None
    if not source_maps and target_map is None:
        return d
    return derived(d, "reencode", source_maps or None, target_map)


def _moves(pairs) -> bool:
    """Whether a symbol table, as (symbol, image) pairs, moves a symbol."""
    return any(symbol != image for symbol, image in pairs)


def _memoized_check(key, compute):
    """:func:`memoized` for a check: an unmet precondition is kept in the
    memo too, and each call with ``key`` raises a copy of it."""
    def outcome():
        try:
            return compute()
        except PreconditionError as exc:
            return exc.with_traceback(None)     # keeps none of the failed call's frames

    result = memoized(key, outcome)
    if isinstance(result, PreconditionError):
        # a fresh error each time: re-raising the kept one would tie it to
        # this frame, a cycle only the garbage collector frees
        raise PreconditionError(str(result), **result.details)
    return result


def _shared_rei(d, measure, tol, trials, seed) -> PropertyReport:
    """:func:`check_rei` once per call memo, for the rei check and the t1/t2 witness."""
    return _memoized_check(("rei", d, measure, trials, seed, tol),
                           lambda: check_rei(d, measure, tol, trials=trials, seed=seed))


def check_tcr(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Target chain rule, with the target split into its first component and
    the rest: the measure on the full target must equal the measure on the
    first component plus its conditional value on the remainder, for every
    antichain argument."""
    if d.target_arity < 2:
        raise PreconditionError("TCR needs a target split")
    first = decompose(derived(d, "restrict_target", (1,)), measure)
    rest = split_on(d, measure, ("target", 1))
    entries = []
    for antichain, lhs in decompose(d, measure).redundancy.items():
        first_term = first.redundancy[antichain]
        cond_term = math.fsum(pz * result.redundancy[antichain] for _, pz, _, result in rest)
        entries.append((antichain, lhs, first_term, cond_term, abs(lhs - first_term - cond_term)))
    worst = max(entries, key=lambda e: e[4])
    return _report(
        "tcr", measure.id, d.digest, worst[4] <= tol, tol,
        {
            "antichain": worst[0].label,
            "lhs": worst[1],
            "first_component_term": worst[2],
            "conditional_term": worst[3],
            "residual": worst[4],
        },
        {"antichains_checked": len(entries), "max_residual": worst[4]},
    )


def check_lm(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Monotonicity along the redundancy lattice, over every comparable pair."""
    if d.n_sources < 2:
        raise PreconditionError("lattice monotonicity needs two sources for a comparable pair")
    lattice = redundancy_lattice(d.n_sources)
    values = decompose(d, measure).redundancy
    worst = None
    pairs = 0
    for above in lattice.nodes:
        for below in lattice.down_set(above):
            if below == above:
                continue
            pairs += 1
            drop = values[below] - values[above]
            if worst is None or drop > worst[2]:
                worst = (below, above, drop)
    return _report(
        "lm", measure.id, d.digest, worst[2] <= tol, tol,
        {
            "below": worst[0].label, "above": worst[1].label,
            "value_below": values[worst[0]], "value_above": values[worst[1]],
        },
        {"comparable_pairs": pairs, "max_decrease": worst[2]},
    )


def check_sm(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Monotonicity under adding a source collection to the argument tuple."""
    worst = None
    pairs = 0
    for antichain, base in decompose(d, measure).redundancy.items():
        for extra in nonempty_subsets(d.n_sources):
            pairs += 1
            grown = measure.evaluate(d, antichain.sorted_members + (extra,))
            rise = grown - base
            if worst is None or rise > worst[2]:
                worst = (antichain, extra, rise, grown, base)
    return _report(
        "sm", measure.id, d.digest, worst[2] <= tol, tol,
        {
            "arguments": worst[0].label, "added": "{" + ",".join(map(str, sorted(worst[1]))) + "}",
            "value_before": worst[4], "value_after": worst[3],
        },
        {"pairs_checked": pairs, "max_increase": worst[2]},
    )


def _pair_copy(d: JointDistribution) -> JointDistribution:
    if d.n_sources != 2:
        raise PreconditionError("identity checks need exactly two sources")
    return derived(d, "retarget_to_sources", (1, 2))


def check_id(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Identity property: with the source pair itself as target, redundancy
    must equal the mutual information between the sources."""
    value = decompose(_pair_copy(d), measure).redundancy[Antichain.of({1}, {2})]
    reference = d.mutual_information([("source", 1)], [("source", 2)])
    deviation = abs(value - reference)
    return _report(
        "id", measure.id, d.digest, deviation <= tol, tol,
        {"redundancy": value, "source_mutual_information": reference},
        {"redundancy": value, "source_mutual_information": reference, "deviation": deviation},
    )


def _sources_independent(d: JointDistribution) -> bool:
    singles = [d.variable_marginal(("source", i)) for i in range(1, d.n_sources + 1)]
    return all(p == math.prod(m.get(v, 0) for v, m in zip(values, singles))
               for values, p in d.source_marginal(range(1, d.n_sources + 1)).items())


def check_iid(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Independent identity property: zero pair-copy redundancy whenever the
    two sources are independent (exact rational independence test)."""
    dc = _pair_copy(d)
    if not _sources_independent(d):
        raise PreconditionError("sources are not independent")
    value = decompose(dc, measure).redundancy[Antichain.of({1}, {2})]
    return _report("iid", measure.id, d.digest, abs(value) <= tol, tol,
                   {"redundancy": value}, {"redundancy": value})


# ----------------------------------------------------------------------
# equivalence chains and bounds


def check_lemma4_equivalents(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """With the source pair itself as target, the identity-property
    deviations of the four aggregates (redundant, union, weak-synergy,
    vulnerable information) all coincide; the check asserts the four
    deviations agree regardless of whether the identity property holds."""
    dc = _pair_copy(d)
    result = decompose(dc, measure)
    args = ({1}, {2})
    i_cap = c_information(result, "red", args)
    i_cup = c_information(result, "union", args)
    i_ws = c_information(result, "ws", args)
    i_vul = c_information(result, "vul", args)
    mi12 = dc.mutual_information([("source", 1)], [("source", 2)])
    h1 = dc.entropy([("source", 1)])
    h2 = dc.entropy([("source", 2)])
    h12 = dc.entropy([("source", 1), ("source", 2)])
    deviations = {
        "redundancy_vs_source_mi": i_cap - mi12,
        "union_vs_joint_entropy": h12 - i_cup,
        "weak_synergy_vs_zero": i_ws,
        "vulnerable_vs_conditional_entropies": ((h12 - h2) + (h12 - h1)) - i_vul,
    }
    spread = max(deviations.values()) - min(deviations.values())
    details = {
        "redundant": i_cap, "union": i_cup, "weak_synergy": i_ws, "vulnerable": i_vul,
        "deviations": deviations, "spread": spread,
        "identity_holds": abs(i_cap - mi12) <= tol,
    }
    return _report("l4", measure.id, d.digest, spread <= tol, tol,
                   {"deviations": deviations}, details)


def _assume_lp(d, measure, tol) -> float:
    """The smallest atom of the decomposition, for a check that assumes local
    positivity; raises :class:`PreconditionError` when an atom is negative."""
    min_atom = min(decompose(d, measure).atoms.values())
    if min_atom < -tol:
        raise PreconditionError("local positivity fails", min_atom=min_atom)
    return min_atom


def check_lemma1(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Under local positivity, a positive redundancy-synergy index forces at
    least one strictly positive pairwise redundancy."""
    min_atom = _assume_lp(d, measure, tol)
    index = rsi(d)
    if index <= STRICT_POSITIVITY:
        raise PreconditionError("redundancy-synergy index is not positive", rsi=index)
    values = decompose(d, measure).redundancy
    pairwise = {
        f"({i},{j})": values[Antichain.of({i}, {j})]
        for i, j in itertools.combinations(range(1, d.n_sources + 1), 2)
    }
    return _report("l1", measure.id, d.digest, max(pairwise.values()) > STRICT_POSITIVITY, tol,
                   {"pairwise": pairwise, "rsi": index},
                   {"pairwise": pairwise, "rsi": index, "min_atom": min_atom})


def check_lemma2(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Local positivity implies lattice monotonicity."""
    min_atom = _assume_lp(d, measure, tol)
    inner = check_lm(d, measure, tol)
    return PropertyReport("l2", measure.id, d.digest, inner.verdict, tol,
                          inner.witness, dict(inner.details, min_atom=min_atom))


def check_corollary1(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Under local positivity every pairwise redundancy is bounded by the
    smaller of the two single-source informations."""
    if d.n_sources < 2:
        raise PreconditionError("pairwise bounds need at least two sources")
    _assume_lp(d, measure, tol)
    values = decompose(d, measure).redundancy
    worst = None
    table = {}
    for i, j in itertools.combinations(range(1, d.n_sources + 1), 2):
        value = values[Antichain.of({i}, {j})]
        bound = min(d.marginal_mi({i}), d.marginal_mi({j}))
        table[f"({i},{j})"] = {"pairwise": value, "bound": bound}
        excess = value - bound
        if worst is None or excess > worst[1]:
            worst = ((i, j), excess)
    return _report("c1", measure.id, d.digest, worst[1] <= tol, tol,
                   {"pair": list(worst[0]), **table[f"({worst[0][0]},{worst[0][1]})"]},
                   {"bounds": table, "max_excess": worst[1]})


def check_lemma3(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Chain-rule equivalence across aggregation levels: for any condition,
    the aggregate-level chain-rule residual equals the sum of the atom-level
    residuals the condition selects."""
    if d.target_arity < 2:
        raise PreconditionError("chain-rule equivalence needs a target split")
    on_full = decompose(d, measure)
    on_first = decompose(derived(d, "restrict_target", (1,)), measure)
    on_rest = conditional_atoms(d, measure, ("target", 1)).atoms
    atom_residuals = {
        node: value - on_first.atoms[node] - on_rest[node]
        for node, value in on_full.atoms.items()
    }
    worst_gap = 0.0
    checks = 0
    for name in ("red", "union", "ws", "vul"):
        for antichain in atom_residuals:
            selected = condition_test(name, antichain.sorted_members, d.n_sources)
            picked = [node for node, z in zip(atom_residuals, on_full.zero_sets) if selected(z)]
            aggregate = (
                math.fsum(on_full.atoms[node] for node in picked)
                - math.fsum(on_first.atoms[node] for node in picked)
                - math.fsum(on_rest[node] for node in picked)
            )
            atom_sum = math.fsum(atom_residuals[node] for node in picked)
            worst_gap = max(worst_gap, abs(aggregate - atom_sum))
            checks += 1
    max_atom_residual = max(abs(v) for v in atom_residuals.values())
    return _report(
        "l3", measure.id, d.digest, worst_gap <= tol, tol, {"max_aggregation_gap": worst_gap},
        {"aggregates_checked": checks, "max_aggregation_gap": worst_gap,
         "max_atom_level_residual": max_atom_residual},
    )


# ----------------------------------------------------------------------
# impossibility witnesses


@dataclass(frozen=True)
class TheoremWitness:
    """Numerical trace of the impossibility arguments on a 3-source input."""

    measure_id: str
    distribution_digest: str
    rsi_value: float
    rsi_residual: float
    consistency_max_residual: float
    pairwise: dict                    # pair label -> redundancy on the full target
    pairwise_strictly_positive: bool
    reencoding_max_delta: float
    chains: tuple                     # per-pair chain-rule traces
    id_evidence: tuple                # per-pair identity-property traces
    lp_scan: tuple                    # (role, min atom, antichain) per decomposition
    verdicts: dict                    # property -> "pass" | "fail"
    tolerance: float

    @property
    def lp_witness(self) -> dict | None:
        role, value, label = min(self.lp_scan, key=lambda item: item[1])
        if value >= -self.tolerance:
            return None
        return {"role": role, "antichain": label, "atom": value}

    @property
    def lp_rei_tcr_all_pass(self) -> bool:
        return all(self.verdicts[p] == "pass" for p in ("lp", "rei", "tcr"))

    @property
    def lp_rei_id_all_pass(self) -> bool:
        return all(self.verdicts[p] == "pass" for p in ("lp", "rei", "id"))


def theorem_witness(
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> TheoremWitness:
    """Reproduce the impossibility proof steps on a 3-source distribution.

    Collects the redundancy-synergy index, the pairwise redundancies and
    their strict positivity, the chain-rule split of each pair redundancy
    with the positivity-implied bounds on both split terms, the
    identity-property evidence, and a local-positivity scan over every
    decomposition the argument touches.  The verdicts identify which of
    lp/rei/tcr/id the measure violates here; rei is :func:`check_rei`'s at
    ``tol``.  With ``tol=None`` each comparison takes its default:
    ``DEFAULT_REI_TOL`` for rei, ``DEFAULT_TOL`` for the rest.
    """
    if d.n_sources != 3:
        raise PreconditionError("the impossibility argument uses three sources")
    rei_tol, tol = tol, DEFAULT_TOL if tol is None else tol
    gate_result = decompose(d, measure)
    consistency = consistency_check(gate_result, d, tol)
    rsi_report = rsi_decomposition_check(gate_result, d, tol)

    lp_scan = []

    def scan(role: str, result: PidResult):
        node, value = min(result.atoms.items(), key=lambda item: item[1])
        lp_scan.append((role, value, node.label))

    scan("full target", gate_result)

    pairwise = {}
    chains = []
    id_evidence = []
    for i, j in itertools.combinations(range(1, 4), 2):
        args = Antichain.of({i}, {j})
        pair_label = f"({i},{j})"
        pairwise[pair_label] = gate_result.redundancy[args]

        d_pair = derived(d, "retarget_to_sources", (i, j))
        pair_result = decompose(d_pair, measure)
        scan(f"target (S_{i},S_{j})", pair_result)
        value_pair = pair_result.redundancy[args]

        # chain-rule split of the pair target: first S_j, then S_i given S_j
        d_first = derived(d_pair, "restrict_target", (2,))
        first_result = decompose(d_first, measure)
        scan(f"target S_{j}", first_result)
        first_term = first_result.redundancy[args]
        pieces = split_on(d_pair, measure, ("target", 2))
        for z, _, _, result in pieces:
            scan(f"target S_{i} given S_{j}={z}", result)
        cond_term = math.fsum(pz * result.redundancy[args] for _, pz, _, result in pieces)
        cond_mi_i = math.fsum(pz * dz.marginal_mi({i}) for _, pz, dz, _ in pieces)
        cond_mi_j = math.fsum(pz * dz.marginal_mi({j}) for _, pz, dz, _ in pieces)
        residual = abs(value_pair - first_term - cond_term)
        chains.append({
            "pair": pair_label,
            "pair_redundancy": value_pair,
            "first_term": first_term,
            "conditional_term": cond_term,
            "residual": residual,
            "first_term_positivity_bound": min(d_first.marginal_mi({i}), d_first.marginal_mi({j})),
            "conditional_term_positivity_bound": min(cond_mi_i, cond_mi_j),
        })

        mi_sources = d.mutual_information([("source", i)], [("source", j)])
        id_evidence.append({
            "pair": pair_label,
            "pair_redundancy": value_pair,
            "source_mutual_information": mi_sources,
            "deviation": abs(value_pair - mi_sources),
        })

    rei_report = _shared_rei(d, measure, rei_tol, trials, seed)

    min_atom = min(value for _, value, _ in lp_scan)
    verdicts = {
        "lp": "pass" if min_atom >= -tol else "fail",
        "rei": rei_report.verdict,
        "tcr": "pass" if max(c["residual"] for c in chains) <= tol else "fail",
        "id": "pass" if max(e["deviation"] for e in id_evidence) <= tol else "fail",
    }
    return TheoremWitness(
        measure_id=measure.id,
        distribution_digest=d.digest,
        rsi_value=rsi_report.rsi_value,
        rsi_residual=rsi_report.residual,
        consistency_max_residual=consistency.max_residual,
        pairwise=pairwise,
        pairwise_strictly_positive=max(pairwise.values()) > STRICT_POSITIVITY,
        reencoding_max_delta=rei_report.details["max_atom_delta"],
        chains=tuple(chains),
        id_evidence=tuple(id_evidence),
        lp_scan=tuple(lp_scan),
        verdicts=verdicts,
        tolerance=tol,
    )


def _theorem_check(property_id, third, d, measure, tol, trials, seed) -> PropertyReport:
    """Passes when lp, rei and ``third`` (id or tcr) do not all hold on ``d``."""
    witness = _memoized_check(("witness", d, measure, tol, trials, seed),
                              lambda: theorem_witness(d, measure, tol, trials, seed))
    verdicts = witness.verdicts
    if third == "id":
        all_pass, evidence = witness.lp_rei_id_all_pass, {"pairwise": witness.pairwise}
    else:
        all_pass = witness.lp_rei_tcr_all_pass
        evidence = {"chains": [dict(c) for c in witness.chains]}
    return _report(
        property_id, measure.id, d.digest, not all_pass, witness.tolerance,
        {"verdicts": verdicts}, {"verdicts": verdicts, **evidence},
    )


def check_theorem1(
    d: JointDistribution, measure: RedundancyMeasure,
    tol: float | None = None, trials: int = 32, seed: int = 0,
) -> PropertyReport:
    """Local positivity, re-encoding invariance, and the identity property
    cannot all hold: the check passes when the measure indeed violates at
    least one of them on this input (:func:`theorem_witness` at ``tol``)."""
    return _theorem_check("t1", "id", d, measure, tol, trials, seed)


def check_theorem2(
    d: JointDistribution, measure: RedundancyMeasure,
    tol: float | None = None, trials: int = 32, seed: int = 0,
) -> PropertyReport:
    """Local positivity, re-encoding invariance, and the target chain rule
    cannot all hold: the check passes when at least one of them fails here
    (:func:`theorem_witness` at ``tol``)."""
    return _theorem_check("t2", "tcr", d, measure, tol, trials, seed)


# ----------------------------------------------------------------------
# dispatch and corpus runs

#: property id -> check(d, measure, tol); rei, t1 and t2 also take the rei
#: scan settings (trials, seed) and read ``tol=None`` as their defaults
_CHECKS = {
    "lp": check_lp,
    "rei": _shared_rei,
    "tcr": check_tcr,
    "lm": check_lm,
    "sm": check_sm,
    "id": check_id,
    "iid": check_iid,
    "l1": check_lemma1,
    "l2": check_lemma2,
    "c1": check_corollary1,
    "l3": check_lemma3,
    "l4": check_lemma4_equivalents,
    "t1": check_theorem1,
    "t2": check_theorem2,
}
PROPERTY_IDS = tuple(_CHECKS)
#: the properties that run the rei scan, so take ``trials`` and ``seed``
SCAN_PROPERTIES = ("rei", "t1", "t2")


def run_property(
    property_id: str,
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> PropertyReport:
    """Run one named check; the one place an unmet precondition becomes a
    'vacuous' report, whose details are the reason and the error's details.

    A given ``tol`` applies to every check.  Without one, the checks use
    ``DEFAULT_TOL``, and rei compares atoms (also inside the t1/t2 witness)
    at ``DEFAULT_REI_TOL``.
    """
    if property_id not in _CHECKS:
        raise ValueError(f"unknown property {property_id!r}; known: {PROPERTY_IDS}")
    scan = {"trials": trials, "seed": seed} if property_id in SCAN_PROPERTIES else {}
    if tol is None and not scan:
        tol = DEFAULT_TOL           # the scan checks read None as their own defaults
    try:
        return _CHECKS[property_id](d, measure, tol, **scan)
    except PreconditionError as exc:
        if tol is None:
            tol = DEFAULT_REI_TOL if property_id == "rei" else DEFAULT_TOL
        return PropertyReport(property_id, measure.id, d.digest, "vacuous", tol, None,
                              {"reason": str(exc), **exc.details})


@call_memo()
def run_all_checks(
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> tuple:
    return tuple(
        run_property(pid, d, measure, tol=tol, trials=trials, seed=seed)
        for pid in PROPERTY_IDS
    )


TABLE_PROPERTIES = ("lp", "tcr", "rei", "id")
TABLE_GATES = ("xor", "copy2", "and", "xor_source_copy")


@call_memo()
def property_matrix(
    measures: Sequence[RedundancyMeasure],
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> dict:
    """Verdict matrix over the gate corpus: a property fails for a measure
    if any corpus gate witnesses a violation, and passes when at least one
    gate exercised it without any violation being found."""
    from .gates import make_gate

    corpus = [make_gate(gate_id) for gate_id in TABLE_GATES]
    matrix = {}
    for measure in measures:
        row = {}
        for prop in TABLE_PROPERTIES:
            verdicts = [
                run_property(prop, d, measure, tol=tol, trials=trials, seed=seed).verdict
                for d in corpus
            ]
            if "fail" in verdicts:
                row[prop] = "fail"
            elif "pass" in verdicts:
                row[prop] = "pass"
            else:
                row[prop] = "vacuous"
        matrix[measure.id] = row
    return matrix
