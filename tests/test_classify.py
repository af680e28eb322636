import json
import math
import multiprocessing
import time
from collections import Counter

import pytest

from knotplumb import cabling, classify, cli, plumbing
from knotplumb.cabling import (
    CableTower,
    SurgerySpec,
    UnsupportedTowerError,
    closed_form_two_iter,
    reduced_plumbing,
)
from knotplumb.classify import (
    SweepRow,
    VerdictKind,
    admissible_tuples,
    classify_one,
    desk_range_tuples,
    family_tuple,
    is_family_member,
    known_witness,
    rows_to_csv,
    sweep,
    theorem_audit,
)
from knotplumb.lattice import find_embedding, render_vector, verify_embedding
from knotplumb.plumbing import form_invariants, gram_matrix

from test_lattice import run_child


def spec_for(p1, a1, p2, a2, n):
    return SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)


def count_exact_passes(monkeypatch):
    """A Counter of exact passes ("kernel"), leaf elimination over a
    builder's lists or the junction rule's fold from its hooks, and of Gram
    matrix builds ("gram"), counted while the monkeypatch lasts."""
    calls = Counter()
    kernel, fold, gram = plumbing._eliminate, cabling._fold, plumbing.gram_matrix

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(plumbing, "_eliminate", counted("kernel", kernel))
    for module in (cabling, classify, cli):  # every module that looks _fold up
        monkeypatch.setattr(module, "_fold", counted("kernel", fold))
    for module in (plumbing, classify):  # every module that looks gram_matrix up
        monkeypatch.setattr(module, "gram_matrix", counted("gram", gram))
    return calls


def indefinite_kernel_code(call, p1, a1, p2, a2, n):
    """A program that makes the junction rule's fold call every form
    indefinite (keeping the true determinant and vertex count, and the
    fold's own |det| = n check), runs call on spec and exits 0 only if it
    raises ValueError for a form that is not negative definite."""
    return (
        "from knotplumb import cabling, classify, lattice\n"
        "from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter\n"
        "fold = cabling._fold\n"
        "def indefinite(spec):\n"
        "    det, _, vertices = fold(spec)\n"
        "    return det, False, vertices\n"
        "cabling._fold = classify._fold = indefinite\n"
        f"spec = SurgerySpec(CableTower((({p1}, {a1}), ({p2}, {a2}))), {n})\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    raise SystemExit(0 if 'not negative definite' in str(exc) else repr(exc))\n"
        "raise SystemExit('indefinite form decided')\n"
    )


class TestClassifyOne:
    @pytest.mark.parametrize(
        "tup,kind",
        [
            ((2, 7, 2, 31, 64), VerdictKind.OBSTRUCTION_PASSES),
            ((2, 3, 2, 17, 36), VerdictKind.OBSTRUCTION_PASSES),
            ((2, 3, 2, 13, 28), VerdictKind.OBSTRUCTION_FAILS),
            ((2, 3, 2, 17, 33), VerdictKind.NO_NEGATIVE_DEFINITE_FORM),
            ((2, 3, 2, 17, 34), VerdictKind.REDUCIBLE_BOUNDARY),
            ((2, 3, 2, 17, 35), VerdictKind.OUT_OF_SCOPE),
        ],
        # VerdictKind.NAME, where the default id would be the str value
        ids=lambda v: f"VerdictKind.{v.name}" if isinstance(v, VerdictKind) else None,
    )
    def test_examples(self, tup, kind):
        verdict = classify_one(spec_for(*tup))
        assert verdict.verdict is kind

    def test_non_algebraic_tower_rejected(self):
        # (2,3;2,11): 11 < 2*2*3, in the congruence families but not algebraic
        with pytest.raises(UnsupportedTowerError, match="is not algebraic"):
            classify_one(spec_for(2, 3, 2, 11, 30))

    def test_low_n_skips_search(self):
        verdict = classify_one(spec_for(2, 3, 2, 17, 33))
        assert verdict.nodes == 0 and verdict.witness is None

    def test_pass_carries_verified_witness(self):
        verdict = classify_one(spec_for(2, 3, 2, 17, 36))
        gram = gram_matrix(closed_form_two_iter(spec_for(2, 3, 2, 17, 36)))
        assert verify_embedding(gram, verdict.witness)

    def test_paths_agree(self):
        # the named regimes plus a deterministic slice of the desk range;
        # classify_one's verdict reads only these from its graph
        sample = [(2, 3, 2, 17, 36), (2, 3, 2, 13, 28), (2, 3, 3, 22, 70)]
        sample += desk_range_tuples()[::67]
        for tup in sample:
            spec = spec_for(*tup)
            closed, calculus = closed_form_two_iter(spec), reduced_plumbing(spec)
            assert len(closed) == len(calculus), tup
            assert form_invariants(closed) == form_invariants(calculus), tup
            if math.isqrt(spec.n) ** 2 == spec.n:
                a, b = (find_embedding(t) for t in (closed, calculus))
                assert (a.status, a.nodes) == (b.status, b.nodes), tup

    def test_rejects_out_of_family(self):
        with pytest.raises(Exception):
            classify_one(SurgerySpec(CableTower(((2, 3), (5, 67))), 340))

    def test_non_square_at_huge_N(self):
        # the tail's N - 1 -2's are one step of the fold, so a non-square
        # n is decided by its determinant at any N
        start = time.perf_counter()
        row = classify_one(spec_for(2, 3, 2, 17, 10**12 + 34))
        assert time.perf_counter() - start < 0.1
        assert (row.verdict, row.proof) == (VerdictKind.OBSTRUCTION_FAILS, "determinant")
        assert (row.n_reduced, row.rank, row.nodes) == (10**12, 10**12 + 6, 0)

    @pytest.mark.parametrize(
        "tup,kind,proof",
        [
            ((2, 3, 2, 17, 36), VerdictKind.OBSTRUCTION_PASSES, "witness"),
            ((2, 3, 2, 15, 36), VerdictKind.OBSTRUCTION_FAILS, "search"),  # square n, 23 nodes
            ((2, 3, 2, 17, 38), VerdictKind.OBSTRUCTION_FAILS, "determinant"),
            ((2, 3, 2, 17, 33), VerdictKind.NO_NEGATIVE_DEFINITE_FORM, None),
            ((2, 3, 2, 17, 34), VerdictKind.REDUCIBLE_BOUNDARY, None),
            ((2, 3, 2, 17, 35), VerdictKind.OUT_OF_SCOPE, None),
        ],
        ids=lambda v: f"VerdictKind.{v.name}" if isinstance(v, VerdictKind) else None,
    )
    def test_proof(self, tup, kind, proof):
        row = classify_one(spec_for(*tup))
        assert (row.verdict, row.proof) == (kind, proof)
        assert (row.nodes > 0) == (proof in ("search", "witness"))

    def test_non_square_n_skips_search(self, monkeypatch):
        # T(2,3;2,53), n = 108: the rank-26 chain that `embed` refutes in 27 nodes
        def no_search(*args, **kwargs):
            raise AssertionError("searched a non-square n")

        monkeypatch.setattr(classify, "find_embedding", no_search)
        row = classify_one(spec_for(2, 3, 2, 53, 108), budget=1)
        assert row.verdict is VerdictKind.OBSTRUCTION_FAILS
        assert (row.rank, row.nodes, row.witness, row.proof) == (26, 0, None, "determinant")

    def test_square_n_budget_still_applies(self):
        row = classify_one(spec_for(2, 3, 2, 17, 36), budget=2)
        assert row.verdict is VerdictKind.INDETERMINATE and row.proof is None

    def test_definiteness_check_survives_optimize(self):
        # the non-square branch checks definiteness with a raise, not an
        # assert, which -O strips; the fold keeps the true determinant, so
        # that its |det| = n check passes
        res = run_child(indefinite_kernel_code("classify.classify_one(spec)", 2, 3, 2, 53, 108), "-O")
        assert res.returncode == 0, res.stdout + res.stderr

    @pytest.mark.parametrize(
        "call", ["classify.classify_one(spec)", "lattice.find_embedding(closed_form_two_iter(spec))"]
    )
    def test_search_definiteness_check_survives_optimize(self, call):
        # a square n is searched, and the search reads the tree's memoised
        # definiteness with a raise, not an assert
        res = run_child(indefinite_kernel_code(call, 2, 3, 2, 15, 36), "-O")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_builder_rows_search_as_the_frozen_tree(self):
        # classify_one searches its builder's rows, find_embedding the
        # frozen closed-form tree: the same status, nodes and witness, the
        # row's sparse vectors as the result's, on every desk square, on
        # families 1 and 2, p1 <= 5, p2 <= 7, and on family 1 at p2 = 101
        squares = [t for t in desk_range_tuples() if math.isqrt(t[4]) ** 2 == t[4]]
        family = {family_tuple("derived", p1, p2) for p1 in range(2, 6) for p2 in range(2, 8)}
        family |= {family_tuple("family2", 0, p2) for p2 in range(2, 8)}
        family.add(family_tuple("derived", 2, 101))
        assert len(squares) == 58 and len(family) == 31
        ranks, empty = set(), 0
        for tup in squares + sorted(family):
            spec = spec_for(*tup)
            row = classify_one(spec)
            res = find_embedding(closed_form_two_iter(spec))
            assert (row.verdict, row.proof) == classify._SEARCH_VERDICT[res.status], tup
            assert (row.nodes, row.witness) == (res.nodes, res.witness), tup
            assert row.vectors == res.vectors, tup
            ranks.add(row.rank)
            empty += row.vectors is None  # a refuted square: no witness either
        assert 206 in ranks and empty > 0

    def test_one_exact_pass_per_built_tree(self, monkeypatch):
        # the fold decides a non-square n with no lists built, and the
        # search of a square n reads the builder's rows and the fold's
        # definiteness: no tree is frozen, a witness is checked against
        # the rows with no Gram matrix, and N < 2 builds nothing
        calls = count_exact_passes(monkeypatch)
        frozen, lists = plumbing._frozen, classify._junction_builder
        monkeypatch.setattr(plumbing, "_frozen", lambda *a: calls.update(["frozen"]) or frozen(*a))
        monkeypatch.setattr(classify, "_junction_builder",
                            lambda *a, **k: calls.update(["lists"]) or lists(*a, **k))
        want = {
            None: Counter(),
            "determinant": Counter(kernel=1),
            "search": Counter(kernel=1, lists=1),
            "witness": Counter(kernel=1, lists=1),
        }
        proofs = Counter()
        low = admissible_tuples((2, 3), (1, 2, 3), (2, 3), 25, range(-1, 2))
        for tup in desk_range_tuples() + low:
            calls.clear()
            row = classify_one(spec_for(*tup))
            proofs[row.proof] += 1
            assert calls == want[row.proof], tup
        assert proofs.keys() == want.keys() and proofs[None] == len(low), proofs


class TestKnownWitness:
    @pytest.mark.parametrize("p1,p2", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_family1(self, p1, p2):
        tup = family_tuple("derived", p1, p2)
        witness = known_witness(spec_for(*tup))
        assert witness is not None
        # derived relations from the solution: N = p2, n = N + p2*a2
        spec = spec_for(*tup)
        assert spec.reduced_framing == p2
        assert spec.n == p2 + p2 * tup[3]

    @pytest.mark.parametrize("p2", [2, 3, 4, 5])
    def test_family2(self, p2):
        tup = family_tuple("family2", 2, p2)
        assert known_witness(spec_for(*tup)) is not None

    def test_rendered_witnesses(self):
        # family 1 on f_1..f_4, h, g_1..g_3; family 2 on e_1..e_3, f_1..f_3, g_1..g_5
        assert [render_vector(v) for v in known_witness(spec_for(2, 3, 2, 17, 36))] == [
            "e3+e4-e5", "e2-e3", "e1-e2", "e3-e4", "e4+e5-e6", "e6-e7", "e7+e8", "e7-e8",
        ]
        assert [render_vector(v) for v in known_witness(spec_for(2, 7, 3, 47, 144))] == [
            "e1-e2", "e2-e3", "-e1-e2+e6", "e5-e6", "e4-e5", "-e4-e5-e7", "e7-e8", "e8-e9",
            "e9+e10+e11", "e9-e10", "e10-e11",
        ]

    def test_off_family_none(self):
        assert known_witness(spec_for(2, 3, 2, 17, 38)) is None
        assert known_witness(spec_for(2, 3, 2, 13, 28)) is None

    def test_non_algebraic_tower_rejected(self):
        with pytest.raises(UnsupportedTowerError, match="is not algebraic"):
            known_witness(spec_for(2, 3, 2, 11, 30))

    def test_engine_rediscovers(self):
        for form, p1, p2 in [("derived", 2, 2), ("derived", 3, 2), ("family2", 2, 3)]:
            tup = family_tuple(form, p1, p2)
            spec = spec_for(*tup)
            assert find_embedding(closed_form_two_iter(spec)).status.value == "found"

    def test_generator_produces_spec_example(self):
        # (3,4;2,31;64): family 1 at p1 = 3, p2 = 2
        assert family_tuple("derived", 3, 2) == (3, 4, 2, 31, 64)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown family form 'guessed'"):
            family_tuple("guessed", 2, 3)

    def test_printed_form_is_never_algebraic(self):
        for p1 in range(2, 8):
            for p2 in range(2, 8):
                p1_, a1, p2_, a2, n = family_tuple("printed", p1, p2)
                assert not CableTower(((p1_, a1), (p2_, a2))).is_algebraic()

    def test_beyond_desk_range(self):
        for form, p1, p2 in [("derived", 4, 2), ("derived", 2, 5), ("family2", 2, 4)]:
            tup = family_tuple(form, p1, p2)
            spec = spec_for(*tup)
            assert classify_one(spec).verdict is VerdictKind.OBSTRUCTION_PASSES
            assert known_witness(spec) is not None
        # perturbing the surgery coefficient off the family must not pass
        base = family_tuple("derived", 2, 5)
        for dn in (1, 5):
            verdict = classify_one(spec_for(*base[:4], base[4] + dn))
            assert verdict.verdict is VerdictKind.OBSTRUCTION_FAILS


def lifted(spec, p):
    """The (p, p*n - 1)-cable of spec's tower at p^2*n."""
    return SurgerySpec(CableTower(spec.knot.pairs + ((p, p * spec.n - 1),)), p * p * spec.n)


class TestLift:
    # the lift of a witness must embed the junction rule's lifted tree, for
    # bases that known_witness does not write: searched ones, deeper towers

    def test_five_lifts_of_a_searched_base(self):
        spec = SurgerySpec(CableTower(((2, 3),)), 9)
        witness = find_embedding(reduced_plumbing(spec)).witness
        for p in (2, 3, 2, 3, 2):
            spec, witness = lifted(spec, p), classify._lift(witness, p)
            assert verify_embedding(gram_matrix(reduced_plumbing(spec)), witness), spec
        assert spec.knot.iterations == 6 and len(witness) == 24

    @pytest.mark.parametrize(
        "base", [(2, 3, 2, 17, 36), (2, 3, 3, 26, 81), (2, 7, 2, 31, 64),
                 (2, 7, 3, 47, 144), (3, 4, 2, 31, 64), (3, 4, 3, 47, 144)]
    )
    def test_desk_passes_lifted(self, base):
        spec = spec_for(*base)
        witness = find_embedding(closed_form_two_iter(spec)).witness
        for p in (2, 3, 5):
            tree = reduced_plumbing(lifted(spec, p))
            assert verify_embedding(gram_matrix(tree), classify._lift(witness, p)), p


class TestSweep:
    def test_empty(self):
        assert sweep([]) == []

    def test_row_fields(self):
        rows = sweep([(2, 3, 2, 17, 36)])
        (row,) = rows
        assert row.verdict == "ObstructionPasses"
        assert row.rank == 8 and row.n_reduced == 2
        assert row.witness is not None and row.nodes > 0

    def test_workers_and_order_invariance(self):
        tuples = admissible_tuples((2,), (1,), (2,), 9, (2, 3))
        seq = sweep(tuples, workers=1)
        par = sweep(list(reversed(tuples)), workers=2)
        strip = lambda rows: [(r.key(), r.verdict, r.nodes, r.rank) for r in rows]
        assert strip(seq) == strip(par)

    def test_worker_count_is_capped(self, monkeypatch):
        # a fake pool: no test starts the processes a huge count asks for
        asked = []

        class RecordingPool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return [fn(job) for job in jobs]

        # sweep imports Pool from multiprocessing only when it forks
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        tuples = admissible_tuples((2,), (1,), (2,), 9, (2,))
        serial = rows_to_csv(sweep(tuples))
        huge = 10**20
        for cpus, pool_size in ((64, len(tuples)), (3, 3), (1, None), (None, None)):
            monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
            asked.clear()
            assert rows_to_csv(sweep(tuples, workers=huge)) == serial
            assert asked == ([] if pool_size is None else [pool_size])

    def test_admissible_range_is_algebraic_and_deduplicated(self):
        tuples = admissible_tuples((2,), (1,), (2, 3), 8, (2,))
        assert len(tuples) == len(set(tuples))
        for p1, a1, p2, a2, n in tuples:
            assert CableTower(((p1, a1), (p2, a2))).is_algebraic()
            assert a1 == 3 and n - p2 * a2 == 2

    def test_unsorted_and_repeated_lists(self):
        # the range and the sweep dedupe in insertion order and sort once:
        # the list sorted(set(...)) of the same tuples gives, whatever the
        # order and repeats of the lists; the sweep's rows keep that order
        p1s, k1s, p2s, k2_max, ns = (3, 2, 3), (2, 1, 2), (3, 2, 3, 2), 14, (4, 2, 4, 3)
        tuples = admissible_tuples(p1s, k1s, p2s, k2_max, ns)
        reference = sorted({
            (p1, k1 * p1 + 1, p2, a2, n_red + p2 * a2)
            for p1 in p1s for k1 in k1s for p2 in p2s
            for k2 in range(p1 * (k1 * p1 + 1), k2_max + 1)
            for a2 in (k2 * p2 + 1, k2 * p2 + p2 - 1) for n_red in ns
        })
        assert tuples == reference == admissible_tuples((2, 3), (1, 2), (2, 3), 14, (2, 3, 4))
        assert len(tuples) == 153
        shuffled = list(reversed(tuples)) + tuples[::3]
        assert [row.key() for row in sweep(shuffled)] == tuples

    def test_desk_range_size(self):
        assert len(desk_range_tuples()) == 1005


class TestCsv:
    def test_header_and_blank_ms(self):
        rows = sweep([(2, 3, 2, 17, 36), (2, 3, 2, 17, 38)])
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "p1,a1,p2,a2,n,N,rank,verdict,witness_file,nodes,ms"
        assert all(line.endswith(",") for line in lines[1:])  # ms empty
        assert "ObstructionPasses" in text and "ObstructionFails" in text

    def test_timing_fills_ms(self):
        rows = sweep([(2, 3, 2, 17, 36)])
        line = rows_to_csv(rows, timing=True).strip().split("\n")[1]
        assert not line.endswith(",")

    def test_witness_file_column(self):
        rows = sweep([(2, 3, 2, 17, 36)])
        text = rows_to_csv(rows, witness_files={rows[0].key(): "w.json"})
        assert ",w.json," in text


class TestAudit:
    def test_mini_range_derived_perfect(self):
        tuples = admissible_tuples((2,), (1,), (2,), 10, range(2, 5))
        rows = sweep(tuples)
        report = theorem_audit(rows, "derived")
        assert report.perfect and report.total == len(tuples)
        passes = [r for r in rows if r.verdict == "ObstructionPasses"]
        assert [r.key() for r in passes] == [(2, 3, 2, 17, 36)]

    def test_mini_range_printed_disagrees(self):
        rows = sweep([(2, 3, 2, 17, 36)])
        report = theorem_audit(rows, "printed")
        assert not report.perfect
        assert report.disagreements == [
            {"tuple": [2, 3, 2, 17, 36], "verdict": "ObstructionPasses", "family_member": False}
        ]

    def test_empty_range_trivially_perfect(self):
        report = theorem_audit([])
        assert report.perfect and report.total == 0

    def test_indeterminate_spoils(self):
        row = SweepRow(2, 3, 2, 17, 36, 2, 8, "Indeterminate", None, 5, 0)
        report = theorem_audit([row])
        assert not report.perfect and report.indeterminate == [[2, 3, 2, 17, 36]]

    def test_report_json_shape(self):
        obj = theorem_audit([]).to_json_obj()
        assert set(obj) == {
            "family1_form", "total", "agreements", "disagreements",
            "indeterminate", "perfect",
        }


class TestFamilyPredicate:
    def test_membership(self):
        assert is_family_member(2, 3, 2, 17, 36)
        assert is_family_member(2, 7, 2, 31, 64)
        assert is_family_member(2, 7, 3, 47, 144)
        assert not is_family_member(2, 3, 2, 13, 28)
        assert not is_family_member(2, 3, 2, 17, 40)

    def test_printed_vs_derived(self):
        assert is_family_member(2, 3, 2, 5, 36, family1_form="printed")
        assert not is_family_member(2, 3, 2, 5, 36, family1_form="derived")


# The exact CSV and audit JSON of admissible_tuples((2,), (1,), (2,), 10,
# range(2, 5)).  A verdict renders as its value (ObstructionFails), never
# as the enum member (VerdictKind.OBSTRUCTION_FAILS).  Only n = 36 is a
# square, so every other row is decided by the determinant with 0 nodes.
MINI_CSV_LINES = [
    "p1,a1,p2,a2,n,N,rank,verdict,witness_file,nodes,ms",
    "2,3,2,13,28,2,6,ObstructionFails,,0,",
    "2,3,2,13,29,3,7,ObstructionFails,,0,",
    "2,3,2,13,30,4,8,ObstructionFails,,0,",
    "2,3,2,15,32,2,7,ObstructionFails,,0,",
    "2,3,2,15,33,3,8,ObstructionFails,,0,",
    "2,3,2,15,34,4,9,ObstructionFails,,0,",
    "2,3,2,17,36,2,8,ObstructionPasses,{},15,",
    "2,3,2,17,37,3,9,ObstructionFails,,0,",
    "2,3,2,17,38,4,10,ObstructionFails,,0,",
    "2,3,2,19,40,2,9,ObstructionFails,,0,",
    "2,3,2,19,41,3,10,ObstructionFails,,0,",
    "2,3,2,19,42,4,11,ObstructionFails,,0,",
    "2,3,2,21,44,2,10,ObstructionFails,,0,",
    "2,3,2,21,45,3,11,ObstructionFails,,0,",
    "2,3,2,21,46,4,12,ObstructionFails,,0,",
]

MINI_AUDIT = {
    "derived": """{
  "family1_form": "derived",
  "total": 15,
  "agreements": 15,
  "disagreements": [],
  "indeterminate": [],
  "perfect": true
}""",
    "printed": """{
  "family1_form": "printed",
  "total": 15,
  "agreements": 14,
  "disagreements": [
    {
      "tuple": [
        2,
        3,
        2,
        17,
        36
      ],
      "verdict": "ObstructionPasses",
      "family_member": false
    }
  ],
  "indeterminate": [],
  "perfect": false
}""",
}


class TestPinnedOutput:
    @pytest.fixture(scope="class")
    def rows(self):
        return sweep(admissible_tuples((2,), (1,), (2,), 10, range(2, 5)))

    @pytest.mark.parametrize("wfile", ["", "out/witness_2_3_2_17_36.json"], ids=["bare", "witness"])
    def test_csv_bytes(self, rows, wfile):
        witness_files = {(2, 3, 2, 17, 36): wfile} if wfile else None
        expected = "\n".join(MINI_CSV_LINES).format(wfile) + "\n"
        assert rows_to_csv(rows, witness_files) == expected

    @pytest.mark.parametrize("form", ["derived", "printed"])
    def test_audit_json_bytes(self, rows, form):
        assert json.dumps(theorem_audit(rows, form).to_json_obj(), indent=2) == MINI_AUDIT[form]
