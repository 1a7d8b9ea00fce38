"""Machine-checkable verdicts for candidate decomposition properties.

Each check evaluates one property of a (measure, distribution) pair and
returns a :class:`PropertyReport` carrying a pass/fail/vacuous verdict, the
tolerance used, a concrete witness on failure, and a note on the search
space that was exhausted or sampled.  The ``theorem_witness`` routine
traces, step by step, the numerical argument showing that local positivity,
re-encoding invariance, and the target chain rule (or the identity
property) cannot all hold for the xor-source-copy distribution.

Property ids: lp, rei, tcr, lm, sm, id, iid (single properties) and l1, l2,
c1, l3, l4, t1, t2 (lemma/corollary/impossibility checks).

Decompositions and theorem witnesses are shared within a single
``run_all_checks`` or ``property_matrix`` call, keyed by (distribution,
measure), and dropped when that call returns.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Sequence

from .engine import (
    PidResult,
    atoms_from_redundancy,
    c_information,
    consistency_check,
    rsi,
    rsi_decomposition_check,
)
from .gates import make_gate
from .lattice import Antichain, condition_test, nonempty_subsets, redundancy_lattice
from .measures import RedundancyMeasure
from .prob import DistributionError, JointDistribution

#: threshold above which a value counts as strictly positive
STRICT_POSITIVITY = 1e-9

#: the memo of the run_all_checks or property_matrix call in progress, if any
_memo: ContextVar = ContextVar("partinfo_properties_memo", default=None)


class PreconditionError(DistributionError):
    """The distribution cannot express the requested check."""


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


def _vacuous(property_id, d, measure, tol, reason, **details) -> PropertyReport:
    return PropertyReport(property_id, measure.id, d.digest, "vacuous", tol, None,
                          {"reason": reason, **details})


@contextmanager
def _call_memo():
    """Give the decorated call a memo that is dropped when the call returns."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _memoized(key, compute):
    memo = _memo.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _pid(d, measure) -> PidResult:
    # equal distributions share one canonical support, so a memo hit gives
    # the same atoms, bit for bit, as decomposing again
    return _memoized((d, measure), lambda: atoms_from_redundancy(d, measure))


def _split_target(d, measure, k):
    """The chain-rule split of target component ``k``: the table with ``k`` as
    its only target and its decomposition, and for each value z of ``k`` the
    tuple (z, p(z), the table given z without ``k``, its decomposition)."""
    first = d.restrict_target((k,))
    rest = []
    for z, pz in d.variable_marginal(("target", k)).items():
        dz = d.condition_on(("target", k), z)
        rest.append((z, float(pz), dz, _pid(dz, measure)))
    return first, _pid(first, measure), rest


# ----------------------------------------------------------------------
# single properties


def check_lp(result: PidResult, tol: float = 1e-9) -> PropertyReport:
    """Local positivity: every atom of the decomposition is nonnegative."""
    node, value = min(result.atoms.items(), key=lambda item: item[1])
    return _report(
        "lp", result.measure_id, result.distribution_digest, value >= -tol, tol,
        {"antichain": node.label, "atom": value},
        {"atoms_checked": len(result.atoms), "min_atom": value},
    )


def _target(d: JointDistribution) -> list:
    return [("target", j) for j in range(1, d.target_arity + 1)]


def _random_bijections(d: JointDistribution, rng: random.Random):
    source_maps = {}
    for i in range(1, d.n_sources + 1):
        values = list(d.variable_support(("source", i)))
        shuffled = rng.sample(values, len(values))
        source_maps[i] = dict(zip(values, shuffled))
    targets = list(d.marginal_support(_target(d)))
    shuffled = rng.sample(targets, len(targets))
    target_map = dict(zip(targets, shuffled))
    return source_maps, target_map


def check_rei(
    d: JointDistribution,
    measure: RedundancyMeasure,
    trials: int = 32,
    seed: int = 0,
    tol: float = 1e-12,
) -> PropertyReport:
    """Re-encoding invariance of the atoms.

    Samples seeded random bijections of every source support and of the
    joint target support, recomputing the full decomposition each time.
    Supports of at most four symbols additionally get an exhaustive
    per-variable permutation scan.  Every source pair that determines the
    target one-to-one is also checked: with the pair itself as target, the
    distribution is a re-encoding of the input, so its atoms must agree.
    """
    base = _pid(d, measure)
    rng = random.Random(seed)
    max_delta = 0.0
    witness = None
    checked = 0

    def compare(d2: JointDistribution, label: str):
        nonlocal max_delta, witness, checked
        other = _pid(d2, measure)
        delta = max(abs(value - other.atoms[node]) for node, value in base.atoms.items())
        checked += 1
        if delta > max_delta:
            max_delta = delta
            witness = {"transformation": label, "max_atom_delta": delta}

    for trial in range(trials):
        source_maps, target_map = _random_bijections(d, rng)
        compare(d.reencode(source_maps, target_map), f"random bijection #{trial}")

    for i in range(1, d.n_sources + 1):
        values = d.variable_support(("source", i))
        if len(values) <= 4:
            for perm in itertools.permutations(values):
                compare(d.reencode(source_maps={i: dict(zip(values, perm))}),
                        f"source {i} permutation {perm}")
    targets = d.marginal_support(_target(d))
    if d.target_arity >= 1 and len(targets) <= 4:
        for perm in itertools.permutations(targets):
            compare(d.reencode(target_map=dict(zip(targets, perm))),
                    "target permutation")

    for i, j in itertools.combinations(range(1, d.n_sources + 1), 2):
        triples = d.marginal_support([("source", i), ("source", j)] + _target(d))
        forward = {key[:2]: key[2:] for key in triples}
        if len(forward) < len(triples) or len(set(forward.values())) < len(forward):
            continue                  # the pair does not determine the target one-to-one
        pair = d.retarget_to_sources((i, j))
        if pair.reencode(target_map=forward) != d:
            raise AssertionError("pair target does not re-encode onto the target")
        compare(pair, f"pair ({i},{j}) target re-encoding")

    return _report(
        "rei", measure.id, d.digest, max_delta <= tol, tol, witness,
        {"trials": trials, "seed": seed, "comparisons": checked, "max_atom_delta": max_delta},
    )


def check_tcr(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Target chain rule, with the target split into its first component and
    the rest: the measure on the full target must equal the measure on the
    first component plus its conditional value on the remainder, for every
    antichain argument."""
    if d.target_arity < 2:
        raise PreconditionError("TCR needs a target split")
    _, first, rest = _split_target(d, measure, 1)
    entries = []
    for antichain, lhs in _pid(d, measure).redundancy.items():
        first_term = first.redundancy[antichain]
        cond_term = sum(pz * result.redundancy[antichain] for _, pz, _, result in rest)
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
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Monotonicity along the redundancy lattice, over every comparable pair."""
    lattice = redundancy_lattice(d.n_sources)
    values = _pid(d, measure).redundancy
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
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Monotonicity under adding a source collection to the argument tuple."""
    worst = None
    pairs = 0
    for antichain, base in _pid(d, measure).redundancy.items():
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
    return d.retarget_to_sources((1, 2))


def check_id(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Identity property: with the source pair itself as target, redundancy
    must equal the mutual information between the sources."""
    value = _pid(_pair_copy(d), measure).redundancy[Antichain.of({1}, {2})]
    reference = d.mutual_information([("source", 1)], [("source", 2)])
    deviation = abs(value - reference)
    return _report(
        "id", measure.id, d.digest, deviation <= tol, tol,
        {"redundancy": value, "source_mutual_information": reference},
        {"redundancy": value, "source_mutual_information": reference, "deviation": deviation},
    )


def _sources_independent(d: JointDistribution) -> bool:
    joint = d.source_marginal(range(1, d.n_sources + 1))
    singles = [d.variable_marginal(("source", i)) for i in range(1, d.n_sources + 1)]
    for values, p in joint.items():
        product = 1
        for value, marginal in zip(values, singles):
            product *= marginal.get(value, 0)
        if p != product:
            return False
    return True


def check_iid(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Independent identity property: zero pair-copy redundancy whenever the
    two sources are independent (exact rational independence test)."""
    dc = _pair_copy(d)
    if not _sources_independent(d):
        return _vacuous("iid", d, measure, tol, "sources are not independent")
    value = _pid(dc, measure).redundancy[Antichain.of({1}, {2})]
    return _report("iid", measure.id, d.digest, abs(value) <= tol, tol,
                   {"redundancy": value}, {"redundancy": value})


# ----------------------------------------------------------------------
# equivalence chains and bounds


def check_lemma4_equivalents(
    result: PidResult, d: JointDistribution, tol: float = 1e-9
) -> PropertyReport:
    """With a pair-copy target, the identity-property deviations of the four
    aggregates (redundant, union, weak-synergy, vulnerable information) all
    coincide; the check asserts the four deviations agree regardless of
    whether the identity property itself holds."""
    if d.n_sources != 2:
        raise PreconditionError("equivalence chain needs exactly two sources")
    for outcome, _ in d.support:
        if outcome.target != outcome.sources:
            raise PreconditionError("equivalence chain needs the pair-copy target")
    args = ({1}, {2})
    i_cap = c_information(result, "red", args)
    i_cup = c_information(result, "union", args)
    i_ws = c_information(result, "ws", args)
    i_vul = c_information(result, "vul", args)
    mi12 = d.mutual_information([("source", 1)], [("source", 2)])
    h1 = d.entropy([("source", 1)])
    h2 = d.entropy([("source", 2)])
    h12 = d.entropy([("source", 1), ("source", 2)])
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
    return _report("l4", result.measure_id, d.digest, spread <= tol, tol,
                   {"deviations": deviations}, details)


def _assume_lp(property_id, d, measure, tol):
    """The smallest atom of the decomposition, and the 'vacuous' report that a
    check assuming local positivity returns instead when an atom is negative."""
    min_atom = min(_pid(d, measure).atoms.values())
    if min_atom < -tol:
        return min_atom, _vacuous(property_id, d, measure, tol, "local positivity fails",
                                  min_atom=min_atom)
    return min_atom, None


def check_lemma1(
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float = 1e-9,
    strict: float = STRICT_POSITIVITY,
) -> PropertyReport:
    """Under local positivity, a positive redundancy-synergy index forces at
    least one strictly positive pairwise redundancy."""
    min_atom, vacuous = _assume_lp("l1", d, measure, tol)
    if vacuous:
        return vacuous
    index = rsi(d)
    if index <= strict:
        return _vacuous("l1", d, measure, tol, "redundancy-synergy index is not positive",
                        rsi=index)
    values = _pid(d, measure).redundancy
    pairwise = {
        f"({i},{j})": values[Antichain.of({i}, {j})]
        for i, j in itertools.combinations(range(1, d.n_sources + 1), 2)
    }
    return _report("l1", measure.id, d.digest, max(pairwise.values()) > strict, tol,
                   {"pairwise": pairwise, "rsi": index},
                   {"pairwise": pairwise, "rsi": index, "min_atom": min_atom})


def check_lemma2(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Local positivity implies lattice monotonicity."""
    min_atom, vacuous = _assume_lp("l2", d, measure, tol)
    if vacuous:
        return vacuous
    inner = check_lm(d, measure, tol)
    return PropertyReport("l2", measure.id, d.digest, inner.verdict, tol,
                          inner.witness, dict(inner.details, min_atom=min_atom))


def check_corollary1(
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Under local positivity every pairwise redundancy is bounded by the
    smaller of the two single-source informations."""
    _, vacuous = _assume_lp("c1", d, measure, tol)
    if vacuous:
        return vacuous
    values = _pid(d, measure).redundancy
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
    d: JointDistribution, measure: RedundancyMeasure, tol: float = 1e-9
) -> PropertyReport:
    """Chain-rule equivalence across aggregation levels: for any condition,
    the aggregate-level chain-rule residual equals the sum of the atom-level
    residuals the condition selects."""
    if d.target_arity < 2:
        raise PreconditionError("chain-rule equivalence needs a target split")
    on_full = _pid(d, measure)
    _, on_first, rest = _split_target(d, measure, 1)
    # the conditional decomposition: atoms given component 1, weighted by p(z)
    on_rest = dict.fromkeys(on_full.atoms, 0.0)
    for _, pz, _, result in rest:
        for node in on_rest:
            on_rest[node] += pz * result.atoms[node]
    atom_residuals = {
        node: value - on_first.atoms[node] - on_rest[node]
        for node, value in on_full.atoms.items()
    }
    lattice = redundancy_lattice(d.n_sources)
    zeros = [lattice.zero_set(node) for node in atom_residuals]
    worst_gap = 0.0
    checks = 0
    for name in ("red", "union", "ws", "vul"):
        for antichain in atom_residuals:
            selected = condition_test(name, antichain.sorted_members, d.n_sources)
            picked = [node for node, z in zip(atom_residuals, zeros) if selected(z)]
            aggregate = (
                sum(on_full.atoms[node] for node in picked)
                - sum(on_first.atoms[node] for node in picked)
                - sum(on_rest[node] for node in picked)
            )
            atom_sum = sum(atom_residuals[node] for node in picked)
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

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure_id,
            "distribution_digest": self.distribution_digest,
            "rsi": self.rsi_value,
            "rsi_residual": self.rsi_residual,
            "consistency_max_residual": self.consistency_max_residual,
            "pairwise_redundancies": self.pairwise,
            "pairwise_strictly_positive": self.pairwise_strictly_positive,
            "reencoding_max_delta": self.reencoding_max_delta,
            "chains": list(self.chains),
            "id_evidence": list(self.id_evidence),
            "lp_scan": [list(entry) for entry in self.lp_scan],
            "lp_witness": self.lp_witness,
            "verdicts": self.verdicts,
            "tolerance": self.tolerance,
        }


def theorem_witness(
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float = 1e-9,
    rei_tol: float = 1e-12,
    trials: int = 8,
    seed: int = 0,
) -> TheoremWitness:
    """Reproduce the impossibility proof steps on a 3-source distribution.

    Collects the redundancy-synergy index, the pairwise redundancies and
    their strict positivity, the chain-rule split of each pair redundancy
    with the positivity-implied bounds on both split terms, the
    identity-property evidence, and a local-positivity scan over every
    decomposition the argument touches.  The verdicts identify which of
    lp/rei/tcr/id the measure violates here; rei is :func:`check_rei`'s.
    """
    if d.n_sources != 3:
        raise PreconditionError("the impossibility argument uses three sources")
    gate_result = _pid(d, measure)
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

        d_pair = d.retarget_to_sources((i, j))
        pair_result = _pid(d_pair, measure)
        scan(f"target (S_{i},S_{j})", pair_result)
        value_pair = pair_result.redundancy[args]

        # chain-rule split of the pair target: first S_j, then S_i given S_j
        d_first, first_result, rest = _split_target(d_pair, measure, 2)
        scan(f"target S_{j}", first_result)
        first_term = first_result.redundancy[args]
        cond_term = cond_mi_i = cond_mi_j = 0.0
        for z, pz, dz, result in rest:
            scan(f"target S_{i} given S_{j}={z}", result)
            cond_term += pz * result.redundancy[args]
            cond_mi_i += pz * dz.marginal_mi({i})
            cond_mi_j += pz * dz.marginal_mi({j})
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

    rei_report = check_rei(d, measure, trials=trials, seed=seed, tol=rei_tol)

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
        rsi_value=rsi(d),
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


def _theorem_check(property_id, third, d, measure, tol, rei_tol, trials, seed) -> PropertyReport:
    """Passes when lp, rei and ``third`` (id or tcr) do not all hold on ``d``."""
    witness = _memoized(("witness", d, measure, tol, rei_tol, trials, seed),
                        lambda: theorem_witness(d, measure, tol=tol, rei_tol=rei_tol,
                                                trials=trials, seed=seed))
    verdicts = witness.verdicts
    if third == "id":
        evidence = {"pairwise": witness.pairwise}
    else:
        evidence = {"chains": [dict(c) for c in witness.chains]}
    return _report(
        property_id, measure.id, d.digest,
        not all(verdicts[p] == "pass" for p in ("lp", "rei", third)), tol,
        {"verdicts": verdicts}, {"verdicts": verdicts, **evidence},
    )


def check_theorem1(
    d: JointDistribution, measure: RedundancyMeasure,
    tol: float = 1e-9, trials: int = 8, seed: int = 0, rei_tol: float = 1e-12,
) -> PropertyReport:
    """Local positivity, re-encoding invariance, and the identity property
    cannot all hold: the check passes when the measure indeed violates at
    least one of them on this input."""
    return _theorem_check("t1", "id", d, measure, tol, rei_tol, trials, seed)


def check_theorem2(
    d: JointDistribution, measure: RedundancyMeasure,
    tol: float = 1e-9, trials: int = 8, seed: int = 0, rei_tol: float = 1e-12,
) -> PropertyReport:
    """Local positivity, re-encoding invariance, and the target chain rule
    cannot all hold: the check passes when at least one of them fails here."""
    return _theorem_check("t2", "tcr", d, measure, tol, rei_tol, trials, seed)


# ----------------------------------------------------------------------
# dispatch and corpus runs

#: property id -> check(d, measure, tol, rei_tol, trials, seed); rei_tol is
#: the tolerance of rei's atom comparisons, also inside the t1/t2 witness
_CHECKS = {
    "lp": lambda d, m, tol, *_: check_lp(_pid(d, m), tol),
    "rei": lambda d, m, tol, rei_tol, trials, seed:
        check_rei(d, m, trials=trials, seed=seed, tol=rei_tol),
    "tcr": lambda d, m, tol, *_: check_tcr(d, m, tol),
    "lm": lambda d, m, tol, *_: check_lm(d, m, tol),
    "sm": lambda d, m, tol, *_: check_sm(d, m, tol),
    "id": lambda d, m, tol, *_: check_id(d, m, tol),
    "iid": lambda d, m, tol, *_: check_iid(d, m, tol),
    "l1": lambda d, m, tol, *_: check_lemma1(d, m, tol),
    "l2": lambda d, m, tol, *_: check_lemma2(d, m, tol),
    "c1": lambda d, m, tol, *_: check_corollary1(d, m, tol),
    "l3": lambda d, m, tol, *_: check_lemma3(d, m, tol),
    "l4": lambda d, m, tol, *_: check_lemma4_equivalents(_pid(dc := _pair_copy(d), m), dc, tol),
    "t1": lambda d, m, tol, rei_tol, trials, seed:
        check_theorem1(d, m, tol, trials, seed, rei_tol),
    "t2": lambda d, m, tol, rei_tol, trials, seed:
        check_theorem2(d, m, tol, trials, seed, rei_tol),
}
PROPERTY_IDS = tuple(_CHECKS)


def run_property(
    property_id: str,
    d: JointDistribution,
    measure: RedundancyMeasure,
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> PropertyReport:
    """Run one named check, downgrading unmet preconditions to 'vacuous'.

    A given ``tol`` applies to every check.  Without one, the checks use
    1e-9, and rei compares atoms (also inside the t1/t2 witness) at 1e-12.
    """
    if property_id not in _CHECKS:
        raise ValueError(f"unknown property {property_id!r}; known: {PROPERTY_IDS}")
    rei_tol, tol = (1e-12, 1e-9) if tol is None else (tol, tol)
    try:
        return _CHECKS[property_id](d, measure, tol, rei_tol, trials, seed)
    except PreconditionError as exc:
        return _vacuous(property_id, d, measure, tol, str(exc))


@_call_memo()
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


@_call_memo()
def property_matrix(
    measures: Sequence[RedundancyMeasure],
    gate_ids: Sequence[str] = TABLE_GATES,
    tol: float | None = None,
    trials: int = 32,
    seed: int = 0,
) -> dict:
    """Verdict matrix over the gate corpus: a property fails for a measure
    if any corpus gate witnesses a violation, and passes when at least one
    gate exercised it without any violation being found."""
    matrix = {}
    for measure in measures:
        row = {}
        for prop in TABLE_PROPERTIES:
            verdicts = [
                run_property(prop, make_gate(gate_id), measure,
                             tol=tol, trials=trials, seed=seed).verdict
                for gate_id in gate_ids
            ]
            if "fail" in verdicts:
                row[prop] = "fail"
            elif "pass" in verdicts:
                row[prop] = "pass"
            else:
                row[prop] = "vacuous"
        matrix[measure.id] = row
    return matrix
