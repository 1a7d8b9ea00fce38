"""Property checks, equivalence chains, and the impossibility witnesses."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from partinfo import (
    Antichain,
    GateSpec,
    atoms_from_redundancy,
    check_corollary1,
    check_id,
    check_iid,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4_equivalents,
    check_lm,
    check_lp,
    check_rei,
    check_sm,
    check_tcr,
    check_theorem1,
    check_theorem2,
    get_measure,
    make_gate,
    property_matrix,
    redundancy_from_atoms,
    redundancy_lattice,
    run_all_checks,
    run_property,
    theorem_witness,
)
from partinfo import JointDistribution, Outcome, conformance_suite, engine, properties
from partinfo.measures import RedundancyMeasure
from partinfo.properties import PROPERTY_IDS, PreconditionError

from conftest import lookup_measure, random_pair_copy, random_rational_distribution

IMIN = get_measure("imin")
ISX = get_measure("isx")


# ----------------------------------------------------------------------
# local positivity


def test_lp_pass_for_imin_on_copy_gate(gate_corpus):
    report = check_lp(atoms_from_redundancy(gate_corpus["copy2"], IMIN))
    assert report.verdict == "pass"


def test_lp_fail_for_isx_on_xor_gate(gate_corpus):
    report = check_lp(atoms_from_redundancy(gate_corpus["xor"], ISX))
    assert report.verdict == "fail"
    assert report.witness["antichain"] == "{1}{2}"
    assert abs(report.witness["atom"] - math.log2(2 / 3)) <= 1e-9


def test_lp_pass_when_target_is_constant():
    from fractions import Fraction

    from partinfo import JointDistribution, Outcome

    rows = [(Outcome((s1, s2), (0,)), Fraction(1, 4)) for s1 in (0, 1) for s2 in (0, 1)]
    d = JointDistribution(2, 1, rows)
    report = check_lp(atoms_from_redundancy(d, IMIN))
    assert report.verdict == "pass"
    assert abs(report.details["min_atom"]) <= 1e-12


# ----------------------------------------------------------------------
# re-encoding invariance


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_rei_passes_on_gates(gate_corpus, measure):
    for d in gate_corpus.values():
        report = check_rei(d, measure, trials=8, seed=11)
        assert report.verdict == "pass"
        assert report.details["max_atom_delta"] <= 1e-12


def test_rei_includes_pair_reencodings_for_xor_source_copy(gate_corpus):
    report = check_rei(gate_corpus["xor_source_copy"], IMIN, trials=2, seed=0)
    assert report.verdict == "pass"
    # random trials + per-variable permutation scans + three pair re-encodings
    assert report.details["comparisons"] >= 2 + 3


@pytest.mark.parametrize("gate_id, comparisons", [
    # 2 random trials + per-source permutations + target permutations + pairs
    ("xor", 2 + 2 + 2 + 2),                       # no pair determines xor one-to-one
    ("copy2", 2 + 2 + 2 + 24 + 1),                # the pair (1,2) is the target itself
    ("xor_source_copy", 2 + 6 + 24 + 3),          # every pair determines the target
])
def test_rei_pair_reencodings_cover_every_bijective_pair(gate_corpus, gate_id, comparisons):
    report = check_rei(gate_corpus[gate_id], IMIN, trials=2)
    assert report.verdict == "pass"
    assert report.details["comparisons"] == comparisons


def test_rei_pair_reencodings_do_not_depend_on_source_labels(gate_corpus):
    gate = gate_corpus["xor_source_copy"]
    relabelled = gate.reencode(source_maps={1: {0: "a", 1: "b"}, 3: {0: 1, 1: 0}})
    assert relabelled != gate
    report = check_rei(relabelled, IMIN, trials=2)
    assert report.verdict == "pass"
    assert report.details["comparisons"] == check_rei(gate, IMIN, trials=2).details["comparisons"]


# ----------------------------------------------------------------------
# target chain rule


def test_tcr_fails_for_imin_on_copy_gate(gate_corpus):
    report = check_tcr(gate_corpus["copy2"], IMIN)
    assert report.verdict == "fail"
    witness = report.witness
    assert witness["antichain"] == "{1}{2}"
    assert abs(witness["lhs"] - 1.0) <= 1e-9
    assert abs(witness["first_component_term"]) <= 1e-9
    assert abs(witness["conditional_term"]) <= 1e-9
    assert abs(witness["residual"] - 1.0) <= 1e-9


def test_tcr_passes_for_isx_on_random_rational_tables(rng):
    for _ in range(8):
        d = random_rational_distribution(rng, n_sources=2, target_arity=2)
        report = check_tcr(d, ISX, tol=1e-9)
        assert report.verdict == "pass", report.witness


def test_tcr_passes_for_isx_on_composite_gates(gate_corpus):
    for gate_id in ("copy2", "xor_source_copy"):
        assert check_tcr(gate_corpus[gate_id], ISX).verdict == "pass"


def test_tcr_needs_target_split(gate_corpus):
    with pytest.raises(PreconditionError, match="target split"):
        check_tcr(gate_corpus["xor"], IMIN)
    assert run_property("tcr", gate_corpus["xor"], IMIN).verdict == "vacuous"


def test_tcr_with_constant_second_component_passes(gate_corpus):
    from fractions import Fraction

    from partinfo import JointDistribution, Outcome

    rows = [
        (Outcome(o.sources, (o.target[0], "k")), p)
        for o, p in gate_corpus["xor"].support
    ]
    d = JointDistribution(2, 2, rows)
    for measure in (IMIN, ISX):
        assert check_tcr(d, measure).verdict == "pass"


# ----------------------------------------------------------------------
# monotonicity


def test_lm_and_sm_pass_for_imin_on_gates(gate_corpus):
    for d in gate_corpus.values():
        assert check_lm(d, IMIN).verdict == "pass"
        assert check_sm(d, IMIN).verdict == "pass"


def test_lm_fails_with_witness_for_negative_atom_measure(gate_corpus):
    values = {"{1}{2}": 0.0, "{1}": -0.5, "{2}": 0.5, "{1,2}": 1.0}
    fake = lookup_measure(values, "negative_unique")
    report = check_lm(gate_corpus["copy2"], fake)
    assert report.verdict == "fail"
    assert report.witness == {
        "below": "{1}{2}", "above": "{1}", "value_below": 0.0, "value_above": -0.5,
    }


def test_sm_violations_are_lm_violations(gate_corpus):
    # the added-collection pairs are a subset of the comparable lattice pairs,
    # so for a superset-invariant measure every SM violation shows up in LM
    values = {"{1}{2}": 0.9, "{1}": 0.2, "{2}": 1.0, "{1,2}": 1.0}
    fake = lookup_measure(values, "sm_violator")
    d = gate_corpus["copy2"]
    sm = check_sm(d, fake)
    lm = check_lm(d, fake)
    assert sm.verdict == "fail" and lm.verdict == "fail"
    assert sm.details["max_increase"] <= lm.details["max_decrease"] + 1e-12


# ----------------------------------------------------------------------
# identity properties


def test_id_fails_for_imin_on_independent_coins(gate_corpus):
    report = check_id(gate_corpus["copy2"], IMIN)
    assert report.verdict == "fail"
    assert abs(report.witness["redundancy"] - 1.0) <= 1e-9
    assert abs(report.witness["source_mutual_information"]) <= 1e-9
    assert check_iid(gate_corpus["copy2"], IMIN).verdict == "fail"


def test_id_fails_for_isx_on_independent_coins(gate_corpus):
    report = check_id(gate_corpus["xor"], ISX)
    assert report.verdict == "fail"
    assert abs(report.witness["redundancy"] - math.log2(4 / 3)) <= 1e-9


def test_id_passes_for_imin_on_fully_correlated_pair():
    from fractions import Fraction

    from partinfo import JointDistribution, Outcome

    rows = [(Outcome((s, s), (s,)), Fraction(1, 2)) for s in (0, 1)]
    d = JointDistribution(2, 1, rows)
    assert check_id(d, IMIN).verdict == "pass"
    assert check_iid(d, IMIN).verdict == "vacuous"


def test_id_requires_two_sources(gate_corpus):
    with pytest.raises(PreconditionError):
        check_id(gate_corpus["xor_source_copy"], IMIN)
    assert run_property("id", gate_corpus["xor_source_copy"], IMIN).verdict == "vacuous"


# ----------------------------------------------------------------------
# equivalence chain for the identity property


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_lemma4_deviations_agree_on_random_pairs(rng, measure):
    for _ in range(15):
        d = random_pair_copy(rng)
        result = atoms_from_redundancy(d, measure)
        report = check_lemma4_equivalents(result, d, tol=1e-9)
        assert report.verdict == "pass", report.details


def test_lemma4_values_on_copy_gate(gate_corpus):
    d = gate_corpus["copy2"]
    result = atoms_from_redundancy(d, IMIN)
    report = check_lemma4_equivalents(result, d)
    assert report.verdict == "pass"
    # inclusion-exclusion with redundancy 1 leaves union = H1 + H2 - 1 = 1
    assert abs(report.details["union"] - 1.0) <= 1e-9
    # complementation: redundant + vulnerable = joint information
    total = report.details["redundant"] + report.details["vulnerable"]
    assert abs(total - d.marginal_mi({1, 2})) <= 1e-9
    assert not report.details["identity_holds"]


# ----------------------------------------------------------------------
# lemma/corollary checks


def test_lemma1_on_xor_source_copy(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    for measure in (IMIN, ISX):
        report = check_lemma1(d, measure)
        assert report.verdict == "pass"
        assert max(report.details["pairwise"].values()) > 1e-9
    assert check_lemma1(gate_corpus["copy2"], IMIN).verdict == "vacuous"  # rsi = 0


def test_lemma2_and_corollary1(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    for measure in (IMIN, ISX):
        assert check_lemma2(d, measure).verdict == "pass"
        assert check_corollary1(d, measure).verdict == "pass"
    # a negative atom makes both vacuous rather than failed
    assert check_lemma2(gate_corpus["xor"], ISX).verdict == "vacuous"
    assert check_corollary1(gate_corpus["xor"], ISX).verdict == "vacuous"


def test_lemma2_holds_for_synthetic_nonnegative_atoms(rng, gate_corpus):
    lattice = redundancy_lattice(3)
    d = gate_corpus["xor_source_copy"]
    for _ in range(20):
        atoms = {node: rng.uniform(0, 1) for node in lattice.nodes}
        induced = redundancy_from_atoms(lattice, atoms)
        fake = lookup_measure({node.label: value for node, value in induced.items()})
        assert check_lm(d, fake).verdict == "pass"


def test_corollary1_bounds_for_synthetic_nonnegative_atoms(rng):
    lattice = redundancy_lattice(3)
    for _ in range(20):
        atoms = {node: rng.uniform(0, 1) for node in lattice.nodes}
        induced = redundancy_from_atoms(lattice, atoms)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            pair = induced[Antichain.of({i}, {j})]
            bound = min(induced[Antichain.of({i})], induced[Antichain.of({j})])
            assert pair <= bound + 1e-12


def test_lemma3_aggregation_identity(gate_corpus):
    # the aggregate-level residual equals the selected atom-level residual sum
    # whether or not the chain rule itself holds
    for measure in (IMIN, ISX):
        report = check_lemma3(gate_corpus["copy2"], measure)
        assert report.verdict == "pass"
    isx_report = check_lemma3(gate_corpus["xor_source_copy"], ISX)
    assert isx_report.verdict == "pass"
    assert isx_report.details["max_atom_level_residual"] <= 1e-9
    imin_report = check_lemma3(gate_corpus["copy2"], IMIN)
    assert imin_report.details["max_atom_level_residual"] > 0.5


# ----------------------------------------------------------------------
# impossibility witnesses


def test_theorem_witness_for_imin(gate_corpus):
    witness = theorem_witness(gate_corpus["xor_source_copy"], IMIN, trials=4)
    assert witness.verdicts == {"lp": "pass", "rei": "pass", "tcr": "fail", "id": "fail"}
    assert witness.rsi_value == 1.0
    assert witness.rsi_residual <= 1e-9
    assert witness.consistency_max_residual <= 1e-9
    assert witness.pairwise_strictly_positive
    for value in witness.pairwise.values():
        assert abs(value - 1.0) <= 1e-9
    for chain in witness.chains:
        assert abs(chain["pair_redundancy"] - 1.0) <= 1e-9
        assert abs(chain["first_term"]) <= 1e-9
        assert abs(chain["conditional_term"]) <= 1e-9
        assert abs(chain["first_term_positivity_bound"]) <= 1e-9
        assert abs(chain["conditional_term_positivity_bound"]) <= 1e-9
    assert witness.lp_witness is None


def test_theorem_witness_for_isx(gate_corpus):
    witness = theorem_witness(gate_corpus["xor_source_copy"], ISX, trials=4)
    assert witness.verdicts == {"lp": "fail", "rei": "pass", "tcr": "pass", "id": "fail"}
    assert abs(witness.lp_witness["atom"] - math.log2(2 / 3)) <= 1e-9
    for entry in witness.id_evidence:
        assert abs(entry["pair_redundancy"] - math.log2(4 / 3)) <= 1e-9
        assert entry["source_mutual_information"] == 0.0


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_no_measure_passes_either_impossible_triple(gate_corpus, measure):
    witness = theorem_witness(gate_corpus["xor_source_copy"], measure, trials=4)
    assert not witness.lp_rei_tcr_all_pass
    assert not witness.lp_rei_id_all_pass
    assert check_theorem1(gate_corpus["xor_source_copy"], measure, trials=2).verdict == "pass"
    assert check_theorem2(gate_corpus["xor_source_copy"], measure, trials=2).verdict == "pass"


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
@pytest.mark.parametrize("noise", [Fraction(1, 16), Fraction(1, 8)], ids=str)
def test_theorem_witness_rei_is_check_rei_on_noisy_input(noise, measure):
    # a pair target is not a re-encoding of a noisy target, so comparing
    # against it would report a spurious rei failure
    d = make_gate(GateSpec("xor_source_copy", noise))
    witness = theorem_witness(d, measure, trials=4, seed=5)
    report = check_rei(d, measure, trials=4, seed=5)
    assert witness.verdicts["rei"] == report.verdict == "pass"
    assert witness.reencoding_max_delta == report.details["max_atom_delta"]


def test_theorem_checks_honour_trials(gate_corpus, monkeypatch):
    seen = []
    real = properties.check_rei

    def spy(*args, **kwargs):
        seen.append(kwargs["trials"])
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "check_rei", spy)
    run_property("t1", gate_corpus["xor_source_copy"], IMIN, trials=32)
    assert seen == [32]


def _relabel_sensitive_measure(scale: float) -> RedundancyMeasure:
    # scale * P(S_1 = T_1): relabelling source 1 or the target moves it by up to scale
    def fn(d, args):
        return scale * float(sum(p for o, p in d.support if o.sources[:1] == o.target[:1]))

    return RedundancyMeasure("relabel_sensitive", fn)


@pytest.mark.parametrize("tol, rei", [(None, "fail"), (1e-7, "fail"), (1e-5, "pass")])
def test_given_tol_reaches_rei_and_the_theorem_witness(gate_corpus, tol, rei):
    measure = _relabel_sensitive_measure(1e-6)
    reports = {r.property_id: r for r in run_all_checks(gate_corpus["xor_source_copy"], measure,
                                                        tol=tol, trials=2)}
    assert reports["rei"].verdict == rei
    assert reports["rei"].tolerance == (1e-12 if tol is None else tol)
    assert reports["lp"].tolerance == (1e-9 if tol is None else tol)
    for theorem in ("t1", "t2"):
        assert reports[theorem].details["verdicts"]["rei"] == rei


def test_theorem_checks_are_vacuous_off_three_sources(gate_corpus):
    assert run_property("t1", gate_corpus["copy2"], IMIN).verdict == "vacuous"
    assert run_property("t2", gate_corpus["copy2"], IMIN).verdict == "vacuous"


# ----------------------------------------------------------------------
# dispatch and the corpus matrix


def test_run_all_checks_covers_every_property(gate_corpus):
    reports = run_all_checks(gate_corpus["copy2"], IMIN, trials=4)
    by_id = {r.property_id: r.verdict for r in reports}
    assert set(by_id) == {
        "lp", "rei", "tcr", "lm", "sm", "id", "iid",
        "l1", "l2", "c1", "l3", "l4", "t1", "t2",
    }
    assert by_id["tcr"] == "fail"
    assert by_id["id"] == "fail"
    assert by_id["t1"] == "vacuous"


def test_property_matrix_matches_expected_rows():
    matrix = property_matrix([IMIN, ISX], trials=6, seed=3)
    assert matrix["imin"] == {"lp": "pass", "tcr": "fail", "rei": "pass", "id": "fail"}
    assert matrix["isx"] == {"lp": "fail", "tcr": "pass", "rei": "pass", "id": "fail"}


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
@pytest.mark.parametrize("noise", [Fraction(0), Fraction(1, 8)], ids=str)
@pytest.mark.parametrize("gate_id", ["xor", "and", "copy2", "xor_source_copy"])
def test_run_all_checks_matches_lone_checks(gate_id, noise, measure):
    d = make_gate(GateSpec(gate_id, noise))
    reports = run_all_checks(d, measure, trials=2, seed=5)
    assert [r.property_id for r in reports] == list(PROPERTY_IDS)
    for report in reports:
        lone = run_property(report.property_id, d, measure, trials=2, seed=5)
        assert report.to_json_dict() == lone.to_json_dict()


def test_run_all_checks_decomposes_each_distribution_once(gate_corpus, monkeypatch):
    decomposed = Counter()
    witnesses = []
    real_pid, real_witness = properties.atoms_from_redundancy, properties.theorem_witness

    def pid_spy(d, measure, *args, **kwargs):
        decomposed[d, measure.id] += 1
        return real_pid(d, measure, *args, **kwargs)

    def witness_spy(*args, **kwargs):
        witnesses.append(args[0])
        return real_witness(*args, **kwargs)

    monkeypatch.setattr(properties, "atoms_from_redundancy", pid_spy)
    monkeypatch.setattr(properties, "theorem_witness", witness_spy)
    d = gate_corpus["xor_source_copy"]
    run_all_checks(d, IMIN, trials=4)
    assert max(decomposed.values()) == 1
    assert len(witnesses) == 1
    # the memo lives only for one call: a second call decomposes the input again
    run_all_checks(d, IMIN, trials=4)
    assert decomposed[d, "imin"] == 2


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_run_all_checks_reads_redundancy_off_decompositions(monkeypatch, measure):
    # every antichain value comes from a decomposition, and conditional
    # tables are decomposed through the call memo, not conditional_atoms
    depth = [0]
    outside, conditional = [], []
    real_decompose, real_conditional = engine.atoms_from_redundancy, engine.conditional_atoms
    real_evaluate = RedundancyMeasure.evaluate

    def decompose_spy(*args, **kwargs):
        depth[0] += 1
        try:
            return real_decompose(*args, **kwargs)
        finally:
            depth[0] -= 1

    def conditional_spy(*args, **kwargs):
        conditional.append(args[0])
        return real_conditional(*args, **kwargs)

    def evaluate_spy(self, d, args):
        if isinstance(args, Antichain) and not depth[0]:
            outside.append(args.label)
        return real_evaluate(self, d, args)

    for module in (engine, properties):
        for name, spy in (("atoms_from_redundancy", decompose_spy),
                          ("conditional_atoms", conditional_spy)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(RedundancyMeasure, "evaluate", evaluate_spy)
    run_all_checks(make_gate(GateSpec("xor_source_copy", Fraction(1, 8))), measure, trials=2)
    assert outside == []
    assert conditional == []


# ----------------------------------------------------------------------
# four sources: the exhaustive scans run at every lattice size


def four_source_split_target() -> JointDistribution:
    """All 16 binary source tuples with seeded weights; the target is
    (S1 xor S2, S3 and S4), so the chain-rule checks have a split."""
    rng = random.Random(8)
    sources = list(itertools.product((0, 1), repeat=4))
    weights = [rng.randint(1, 6) for _ in sources]
    rows = [(Outcome(s, (s[0] ^ s[1], s[2] & s[3])), Fraction(w, sum(weights)))
            for s, w in zip(sources, weights)]
    return JointDistribution(4, 2, rows)


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_checks_run_at_four_sources(measure):
    d = four_source_split_target()
    reports = {r.property_id: r for r in run_all_checks(d, measure, trials=2)}
    assert set(reports) == set(PROPERTY_IDS)
    for report in reports.values():
        assert "capped" not in report.details.get("reason", ""), report
    for pid in ("tcr", "lm", "sm", "l3"):
        assert reports[pid].verdict in ("pass", "fail"), reports[pid]
    for pid in ("l1", "l2", "c1", "l3"):
        assert reports[pid].verdict != "fail", reports[pid]
    assert reports["l3"].details["aggregates_checked"] == 4 * 166
    assert conformance_suite(measure, d).passed
