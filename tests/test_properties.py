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
from partinfo.measures import RedundancyMeasure, _kernel, _memo
from partinfo.properties import PROPERTY_IDS, PreconditionError

from conftest import lookup_measure, random_pair_copy, random_rational_distribution

IMIN = get_measure("imin")
ISX = get_measure("isx")


# ----------------------------------------------------------------------
# local positivity


def test_lp_pass_for_imin_on_copy_gate(gate_corpus):
    report = check_lp(gate_corpus["copy2"], IMIN)
    assert report.verdict == "pass"


def test_lp_fail_for_isx_on_xor_gate(gate_corpus):
    report = check_lp(gate_corpus["xor"], ISX)
    assert report.verdict == "fail"
    assert report.witness["antichain"] == "{1}{2}"
    assert abs(report.witness["atom"] - math.log2(2 / 3)) <= 1e-9


def test_lp_pass_when_target_is_constant():
    from fractions import Fraction

    from partinfo import JointDistribution, Outcome

    rows = [(Outcome((s1, s2), (0,)), Fraction(1, 4)) for s1 in (0, 1) for s2 in (0, 1)]
    d = JointDistribution(2, 1, rows)
    report = check_lp(d, IMIN)
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


def _five_symbol_diagonal(n_sources: int) -> JointDistribution:
    """Every source equals i and the target is i or i+1 (mod 5): five-symbol
    supports get no permutation scan, and no source pair determines the target."""
    rows = [(Outcome((i,) * n_sources, ((i + k) % 5,)), Fraction(1, 10))
            for i in range(5) for k in (0, 1)]
    return JointDistribution(n_sources, 1, rows)


def test_rei_is_vacuous_when_nothing_is_compared():
    d = _five_symbol_diagonal(2)
    with pytest.raises(PreconditionError) as exc:
        check_rei(d, IMIN, trials=0)
    assert exc.value.details == {"trials": 0, "seed": 0}
    report = run_property("rei", d, IMIN, trials=0)
    assert (report.verdict, report.tolerance) == ("vacuous", 1e-12)
    assert report.details == {"reason": "no re-encoding was compared", "trials": 0, "seed": 0}
    assert run_property("rei", d, IMIN, trials=1).details["comparisons"] == 1
    # the t1/t2 witness reads rei, so it has no verdict either
    for theorem in ("t1", "t2"):
        report = run_property(theorem, _five_symbol_diagonal(3), IMIN, trials=0)
        assert report.verdict == "vacuous", report


def test_a_vacuous_rei_is_scanned_once_per_run_all_checks(monkeypatch):
    # the unmet precondition stays in the call memo: rei and the t1/t2
    # witness read one scan, and the witness is built once
    d = _five_symbol_diagonal(3)
    scans, witnesses = [], []
    real_rei, real_witness = properties.check_rei, properties.theorem_witness

    def rei_spy(*args, **kwargs):
        scans.append(args[0])
        return real_rei(*args, **kwargs)

    def witness_spy(*args, **kwargs):
        witnesses.append(args[0])
        return real_witness(*args, **kwargs)

    monkeypatch.setattr(properties, "check_rei", rei_spy)
    monkeypatch.setattr(properties, "theorem_witness", witness_spy)
    reports = {r.property_id: r for r in run_all_checks(d, IMIN, trials=0)}
    assert scans == [d] and witnesses == [d]
    for property_id in ("rei", "t1", "t2"):
        lone = run_property(property_id, d, IMIN, trials=0)
        assert reports[property_id].to_json_dict() == lone.to_json_dict()
        assert lone.details == {"reason": "no re-encoding was compared", "trials": 0, "seed": 0}


@pytest.mark.parametrize("gate_id, transformation, delta, comparisons", [
    ("xor_source_copy", "random bijection #2", 1e-06, 37),
    ("and", "source 1 permutation (1, 0)", 5.000000000000001e-07, 10),
])
def test_a_failing_rei_keeps_its_report(gate_id, transformation, delta, comparisons):
    # the first comparison that reaches the largest delta is the witness
    d = make_gate(GateSpec(gate_id, Fraction(0)))
    report = check_rei(d, _relabel_sensitive_measure(1e-6), trials=4, seed=3)
    assert report.verdict == "fail"
    assert report.witness == {"transformation": transformation, "max_atom_delta": delta}
    assert report.details == {"trials": 4, "seed": 3, "comparisons": comparisons,
                              "max_atom_delta": delta}


def test_rei_witness_of_a_table_sensitive_measure():
    # the atoms move with the first support row's probability, which a
    # random bijection reorders; the first largest delta is the witness
    toy = RedundancyMeasure("toy", lambda d, args: float(d.support[0][1]) * len(args))
    with engine.call_memo():
        report = check_rei(make_gate(GateSpec("and", "1/8")), toy, seed=0)
    assert report.verdict == "fail"
    assert report.witness == {"transformation": "random bijection #0", "max_atom_delta": 0.4375}
    assert report.details["comparisons"] == 38


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_decompositions_list_their_values_in_lattice_node_order(gate_corpus, measure):
    # check_rei compares atoms by position, which needs this order
    for d in gate_corpus.values():
        nodes = list(redundancy_lattice(d.n_sources).nodes)
        result = engine.decompose(d, measure)
        assert list(result.atoms) == nodes
        assert list(result.redundancy) == nodes
        assert list(engine.conditional_atoms(d, measure, ("source", 1)).atoms) == nodes


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
@pytest.mark.parametrize("noise", ["0", "1/16", "1/8", "1/4"])
@pytest.mark.parametrize("gate_id", ["xor", "and", "copy2", "xor_source_copy"])
def test_tables_sharing_a_kernel_get_the_atoms_of_a_fresh_one(gate_id, noise, measure):
    # every table the checks decompose within one call memo (the input, the
    # rei scan's re-encodings, the split pieces and the derived targets)
    # against an equal table built again outside the memo, with a kernel of
    # its own: the atoms are equal
    d = make_gate(GateSpec(gate_id, noise))
    with engine.call_memo():
        for pid in PROPERTY_IDS:
            run_property(pid, d, measure, trials=8, seed=1)
        decomposed = [r for r in _memo.get().values() if isinstance(r, engine.PidResult)]
    # each re-encoding reads the kernel of the table it relabels through a
    # view, so fewer kernels are built than tables decomposed
    relabelled = [r.distribution for r in decomposed if r.distribution._origin]
    assert relabelled and all(_kernel(t).kernel is _kernel(t._origin[0]) for t in relabelled)
    kernels = [_kernel(r.distribution) for r in decomposed]
    assert len({id(getattr(k, "kernel", k)) for k in kernels}) < len(decomposed)
    for result in decomposed:
        table = result.distribution
        fresh = JointDistribution(table.n_sources, table.target_arity, table.outcomes)
        assert engine.atoms_from_redundancy(fresh, measure).atoms == result.atoms


def test_rei_reads_each_support_once_whatever_the_trials(monkeypatch):
    d = make_gate(GateSpec("xor_source_copy", Fraction(1, 8)))
    real = JointDistribution.marginal_support
    reads = []

    def spy(self, selectors):
        if self is d:
            reads.append(tuple(selectors))
        return real(self, selectors)

    monkeypatch.setattr(JointDistribution, "marginal_support", spy)
    counts = []
    for trials in (0, 8):
        reads.clear()
        check_rei(d, IMIN, trials=trials)
        counts.append(len(reads))
    # three sources, the target, and the three source pairs with the target
    assert counts == [7, 7]


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
    with pytest.raises(PreconditionError, match="not independent"):
        check_iid(d, IMIN)
    assert run_property("iid", d, IMIN).verdict == "vacuous"


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
        report = check_lemma4_equivalents(d, measure, tol=1e-9)
        assert report.verdict == "pass", report.details


def test_lemma4_values_on_copy_gate(gate_corpus):
    d = gate_corpus["copy2"]
    report = check_lemma4_equivalents(d, IMIN)
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
    with pytest.raises(PreconditionError) as exc:
        check_lemma1(gate_corpus["copy2"], IMIN)
    assert exc.value.details["rsi"] <= 1e-9
    assert run_property("l1", gate_corpus["copy2"], IMIN).verdict == "vacuous"  # rsi = 0


def test_lemma2_and_corollary1(gate_corpus):
    d = gate_corpus["xor_source_copy"]
    for measure in (IMIN, ISX):
        assert check_lemma2(d, measure).verdict == "pass"
        assert check_corollary1(d, measure).verdict == "pass"
    # a negative atom makes both vacuous rather than failed
    for pid, check in (("l2", check_lemma2), ("c1", check_corollary1)):
        with pytest.raises(PreconditionError) as exc:
            check(gate_corpus["xor"], ISX)
        assert exc.value.details["min_atom"] < 0
        assert run_property(pid, gate_corpus["xor"], ISX).verdict == "vacuous"


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
    d, measure = gate_corpus["xor_source_copy"], _relabel_sensitive_measure(1e-6)
    reports = {r.property_id: r for r in run_all_checks(d, measure, tol=tol, trials=2)}
    assert reports["rei"].verdict == rei
    assert reports["rei"].tolerance == (1e-12 if tol is None else tol)
    assert reports["lp"].tolerance == (1e-9 if tol is None else tol)
    for theorem in ("t1", "t2"):
        assert reports[theorem].details["verdicts"]["rei"] == rei
    # called directly, the library takes the same one tol, None for the defaults
    witness = theorem_witness(d, measure, tol=tol, trials=2)
    assert (witness.verdicts["rei"], witness.tolerance) == (rei, 1e-9 if tol is None else tol)
    for theorem, check in (("t1", check_theorem1), ("t2", check_theorem2)):
        assert check(d, measure, tol=tol, trials=2).to_json_dict() == reports[theorem].to_json_dict()
    for call in (theorem_witness, check_theorem1, check_theorem2):
        with pytest.raises(TypeError):
            call(d, measure, trials=2, rei_tol=tol)


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
        # l4 decomposes the pair copy, but reports on the table it was given
        assert report.distribution_digest == d.digest, report.property_id


def test_run_all_checks_decomposes_each_distribution_once(gate_corpus, monkeypatch):
    decomposed = Counter()
    conditioned = Counter()
    witnesses = []
    rei_scans = []
    real_pid, real_witness = engine.atoms_from_redundancy, properties.theorem_witness
    real_rei, real_condition = properties.check_rei, JointDistribution.condition_on

    def pid_spy(d, measure, *args, **kwargs):
        decomposed[d, measure.id] += 1
        return real_pid(d, measure, *args, **kwargs)

    def witness_spy(*args, **kwargs):
        witnesses.append(args[0])
        return real_witness(*args, **kwargs)

    def rei_spy(*args, **kwargs):
        rei_scans.append(args[0])
        return real_rei(*args, **kwargs)

    def condition_spy(self, z, value):
        conditioned[self, z, value] += 1
        return real_condition(self, z, value)

    monkeypatch.setattr(engine, "atoms_from_redundancy", pid_spy)
    monkeypatch.setattr(properties, "theorem_witness", witness_spy)
    monkeypatch.setattr(properties, "check_rei", rei_spy)
    monkeypatch.setattr(JointDistribution, "condition_on", condition_spy)
    d = gate_corpus["xor_source_copy"]
    run_all_checks(d, IMIN, trials=4)
    assert max(decomposed.values()) == 1
    assert len(witnesses) == 1
    # rei and the t1/t2 witness read one scan; tcr, l3 and the witness one
    # split per (table, variable)
    assert rei_scans == [d]
    assert max(conditioned.values()) == 1
    # the memo lives only for one call: a second call decomposes the input again
    run_all_checks(d, IMIN, trials=4)
    assert decomposed[d, "imin"] == 2


def _count_calls(monkeypatch, method: str) -> Counter:
    """Count the calls of a JointDistribution method by (table, *args)."""
    calls = Counter()
    real = getattr(JointDistribution, method)

    def spy(self, *args):
        calls[(self,) + args] += 1
        return real(self, *args)

    monkeypatch.setattr(JointDistribution, method, spy)
    return calls


def test_property_matrix_derives_each_table_once(monkeypatch):
    # conditioned and retargeted tables do not depend on the measure, so both
    # measures share them
    conditioned = _count_calls(monkeypatch, "condition_on")
    retargeted = _count_calls(monkeypatch, "retarget_to_sources")
    property_matrix([IMIN, ISX])
    assert (sum(conditioned.values()), len(conditioned)) == (4, 4)
    assert (sum(retargeted.values()), len(retargeted)) == (6, 6)


@pytest.mark.parametrize("name, tables, comparisons",
                         [("xor_source_copy", 35, 38), ("xor", 7, 38), ("constant", 0, 34)],
                         ids=["xor_source_copy", "xor", "constant"])
def test_rei_builds_one_table_per_distinct_map(monkeypatch, name, tables, comparisons):
    # a map is keyed by the symbol tables that move a symbol: maps that move
    # the same symbols share one table, an identity map compares the input
    # itself, and every map is still compared; xor's 7 tables are the 7
    # nonempty sets of its three binary variables that a map flips
    reencoded = _count_calls(monkeypatch, "reencode")
    if name == "constant":      # one symbol per variable, so every map is an identity
        d = JointDistribution(1, 1, [(Outcome((0,), ("t",)), Fraction(1))])
    else:
        d = make_gate(GateSpec(name, Fraction(1, 8)))
    reports = {r.property_id: r for r in run_all_checks(d, IMIN)}
    assert set(reencoded.values()) <= {1}
    assert len(reencoded) == tables
    assert reports["rei"].details["comparisons"] == comparisons
    assert reports["rei"].details["max_atom_delta"] == 0.0


@pytest.mark.parametrize("measure", [IMIN, ISX], ids=lambda m: m.id)
def test_run_all_checks_reads_redundancy_off_decompositions(monkeypatch, measure):
    # every antichain value comes from a decomposition, conditional tables
    # reach the engine's split, and no (table, measure) pair is decomposed twice
    depth = [0]
    outside, conditional = [], []
    decomposed = Counter()
    real_decompose, real_split = engine.atoms_from_redundancy, engine.split_on
    real_evaluate = RedundancyMeasure.evaluate

    def decompose_spy(d, m, *args, **kwargs):
        decomposed[d, m.id] += 1
        depth[0] += 1
        try:
            return real_decompose(d, m, *args, **kwargs)
        finally:
            depth[0] -= 1

    def split_spy(d, m, z):
        conditional.append(z)
        return real_split(d, m, z)

    def evaluate_spy(self, d, args):
        if isinstance(args, Antichain) and not depth[0]:
            outside.append(args.label)
        return real_evaluate(self, d, args)

    for module in (engine, properties):
        for name, spy in (("atoms_from_redundancy", decompose_spy), ("split_on", split_spy)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(RedundancyMeasure, "evaluate", evaluate_spy)
    run_all_checks(make_gate(GateSpec("xor_source_copy", Fraction(1, 8))), measure, trials=2)
    assert outside == []
    # tcr and l3 split the target on its first component, the witness each
    # pair target on its second
    assert set(conditional) == {("target", 1), ("target", 2)}
    assert max(decomposed.values()) == 1


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
