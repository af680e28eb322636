"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:  pytest tests/test_acceptance.py -s
The heavy criterion (the full desk-scale audit) takes ~half a minute on two
cores; everything else is seconds.
"""

import functools
import itertools
import json
import math
import random
import time
from hashlib import sha256

from knotplumb.cabling import (
    CableTower,
    SurgerySpec,
    closed_form_two_iter,
    corner_weight,
    raw_plumbing,
    reduced_plumbing,
)
from knotplumb.classify import (
    VerdictKind,
    classify_one,
    desk_range_tuples,
    family_tuple,
    known_witness,
    rows_to_csv,
    sweep,
    theorem_audit,
)
from knotplumb.hjcf import dual_point_rule, eval_neg_cf, expand_neg_cf, star_inverse
from knotplumb.lattice import (
    SearchStatus,
    enumerate_embeddings,
    find_embedding,
    render_vector,
    verify_embedding,
)
from knotplumb.plumbing import (
    WeightedTree,
    absorb_zero,
    are_isomorphic,
    blow_down,
    blow_up,
    det_exact,
    flatten_positive_leaf,
    gram_matrix,
    is_negative_definite,
    reduce_tree,
)

from oracles import (
    catalogue_count,
    closed_form_reference,
    enumerate_gram,
    naive_find_embedding,
    random_tree,
    relabel,
    two_iter_parameters,
)
from fractions import Fraction


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.time()
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}", flush=True)
                raise
            print(
                f"\nACCEPTANCE {number} PASS: {description} ({time.time() - start:.1f}s)",
                flush=True,
            )

        return wrapper

    return deco


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


@criterion(1, "continued-fraction round trip, duality and reversal up to 200")
def test_criterion_1_continued_fractions():
    for p, q in coprime_pairs(200):
        s = expand_neg_cf(p, q)
        assert eval_neg_cf(s) == Fraction(p, q)
        d = dual_point_rule(s)
        assert eval_neg_cf(d) == Fraction(p, p - q)
        assert dual_point_rule(d) == s
        assert eval_neg_cf(tuple(reversed(s))) == Fraction(p, star_inverse(q, p))


@criterion(2, "corner weight is 1 for all coprime 2 <= p < a <= 100")
def test_criterion_2_corner_formula():
    for a in range(3, 101):
        for p in range(2, a):
            if math.gcd(p, a) == 1:
                assert corner_weight(p, a) == 1


def _applicable_moves(tree):
    moves = []
    for v in tree.vertices():
        if tree.weight(v) == -1 and tree.valence(v) <= 2 and len(tree) > 1:
            moves.append((blow_down, v))
        if tree.weight(v) == 0 and tree.valence(v) == 2:
            moves.append((absorb_zero, v))
        if (
            tree.valence(v) == 1
            and tree.weight(v) >= 1
            and tree.weight(next(iter(tree.neighbors(v)))) == -1
        ):
            moves.append((flatten_positive_leaf, v))
        moves.append((blow_up, v))
    for e in sorted(tree.edges):
        moves.append((blow_up, e))
    return moves


@criterion(3, "moves preserve |det|; reduce idempotent and order-independent (1000 trees)")
def test_criterion_3_calculus_invariance():
    rng = random.Random(2024)
    for _ in range(1000):
        tree = random_tree(rng, max_vertices=12)
        det = abs(det_exact(gram_matrix(tree)))
        for move, site in rng.sample(
            _applicable_moves(tree), k=min(4, len(_applicable_moves(tree)))
        ):
            moved = move(tree, site)
            assert abs(det_exact(gram_matrix(moved))) == det
        reduced = reduce_tree(tree)
        assert reduce_tree(reduced) == reduced
        assert abs(det_exact(gram_matrix(reduced))) == det
        ids = tree.vertices()
        perm = ids[:]
        rng.shuffle(perm)
        relabeled = relabel(tree, dict(zip(ids, perm)))
        assert are_isomorphic(reduced, reduce_tree(relabeled))


@criterion(4, "reduced graphs negative definite with |det| = n; closed form matches calculus")
def test_criterion_4_construction_oracle():
    for p1, a1, p2, a2, n in desk_range_tuples():
        spec = SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)
        reduced = reduced_plumbing(spec)
        gram = gram_matrix(reduced)
        assert all(w <= -2 for w in reduced.weights.values())
        assert is_negative_definite(gram)
        assert abs(det_exact(gram)) == n
        reference = closed_form_reference(two_iter_parameters(spec)).finish(False)
        assert are_isomorphic(reduced, reference)
        # the junction rule builds what the calculus reaches, ids included
        assert reduced.to_json() == reduce_tree(raw_plumbing(spec)).to_json()


def _chain(k):
    return WeightedTree({i: -2 for i in range(k)}, [(i, i + 1) for i in range(k - 1)])


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[offset + i][offset + j] = b[i][j]
        offset += len(b)
    return out


def _partitions(m, cap=None):
    if m == 0:
        yield ()
        return
    cap = cap or m
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


@criterion(5, "-2-chain embedding classes and the disjoint-union catalogue")
def test_criterion_5_chain_classes():
    for k in range(1, 7):
        up = enumerate_embeddings(_chain(k), rank=k + 1, locally_minimal_only=True)
        assert len(up) == 1
        eq = enumerate_embeddings(_chain(k), rank=k, locally_minimal_only=True)
        assert len(eq) == (1 if k == 3 else 0)
    for total in range(1, 8):
        for lengths in _partitions(total):
            # a disjoint union is no tree: searched on its matrix
            gram = _block_diag([gram_matrix(_chain(k)) for k in lengths])
            got = len(enumerate_gram(gram, rank=total))
            assert got == catalogue_count(lengths, total), lengths


@criterion(6, "search agrees with the naive enumeration oracle at rank <= 4")
def test_criterion_6_engine_completeness():
    shapes = {
        1: [[]],
        2: [[(0, 1)]],
        3: [[(0, 1), (1, 2)]],
        4: [[(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)]],
    }
    checked = 0
    for n, edge_sets in shapes.items():
        for edges in edge_sets:
            for weights in itertools.product(range(-4, 0), repeat=n):
                tree = WeightedTree(dict(enumerate(weights)), edges)
                gram = gram_matrix(tree)
                if not is_negative_definite(gram):
                    continue
                checked += 1
                fast = find_embedding(tree)
                slow = naive_find_embedding(gram, n)
                assert (fast.status is SearchStatus.FOUND) == (slow is not None)
                if slow is not None:
                    assert verify_embedding(gram, slow)
    assert checked > 400


# sha256 of the serial desk sweep's CSV (rows_to_csv, no witness files) and
# of its derived audit as `audit` prints it (json.dumps, indent=2)
DESK_CSV_SHA256 = "68e6cdbd0a608b7beda142de42920cd99edfe97972d76760a6c389a92e811102"
DESK_AUDIT_SHA256 = "40657f331c6e7587736ba1720ddeee568fe98bbb8f033821d0fcfabe52d0904a"

# the first witness of each passing desk-range tuple
DESK_WITNESSES = {
    (2, 3, 2, 17, 36): [
        "-e1-e4+e8", "e1+e2", "-e2+e3", "-e1+e4", "-e4-e5-e8", "e5+e6", "-e6+e7",
        "-e6-e7",
    ],
    (2, 3, 3, 26, 81): [
        "-e1-e4+e10", "e1+e2", "-e2+e3", "-e1+e4", "-e4-e5-e10", "e5+e6", "-e6+e7",
        "-e7-e8-e9", "-e7+e8", "-e8+e9",
    ],
    (2, 7, 2, 31, 64): [
        "e1+e2", "-e2+e3", "-e1+e2-e4", "e4+e5", "-e5+e6", "-e5-e6-e7", "e7+e8",
        "-e8+e9", "-e8-e9",
    ],
    (2, 7, 3, 47, 144): [
        "e1+e2", "-e2+e3", "-e1+e2-e4", "e4+e5", "-e5+e6", "-e5-e6-e7", "e7+e8",
        "-e8+e9", "-e9-e10-e11", "-e9+e10", "-e10+e11",
    ],
    (3, 4, 2, 31, 64): [
        "-e1-e5-e6-e10", "e1+e2", "-e2+e3", "-e3+e4", "-e1+e5", "-e5+e6", "-e6-e7+e10",
        "e7+e8", "-e8+e9", "-e8-e9",
    ],
    (3, 4, 3, 47, 144): [
        "-e1-e5-e6-e12", "e1+e2", "-e2+e3", "-e3+e4", "-e1+e5", "-e5+e6", "-e6-e7+e12",
        "e7+e8", "-e8+e9", "-e9-e10-e11", "-e9+e10", "-e10+e11",
    ],
}


@criterion(7, "desk-scale audit: passes exactly at the family tuples, no indeterminates")
def test_criterion_7_theorem_audit():
    tuples = desk_range_tuples()
    rows = sweep(tuples, workers=2)
    assert len(rows) == len(tuples)
    assert not any(r.verdict == "Indeterminate" for r in rows)

    expected_passes = sorted(
        family_tuple(form, p1, p2)
        for form, p1s in (("derived", (2, 3)), ("family2", (2,)))
        for p1 in p1s
        for p2 in (2, 3)
    )
    got_passes = [r.key() for r in rows if r.verdict == "ObstructionPasses"]
    assert got_passes == expected_passes
    assert (2, 3, 2, 17, 36) in got_passes and (2, 7, 2, 31, 64) in got_passes
    for row in rows:
        if row.verdict not in ("ObstructionPasses", "ObstructionFails"):
            raise AssertionError(f"unexpected verdict {row.verdict} at {row.key()}")

    report = theorem_audit(rows, "derived")
    assert report.perfect, report.to_json_obj()
    assert not theorem_audit(rows, "printed").perfect
    # every byte of the desk sweep's CSV and of its audit JSON
    assert sha256(rows_to_csv(rows).encode()).hexdigest() == DESK_CSV_SHA256
    audit_json = json.dumps(report.to_json_obj(), indent=2)
    assert sha256(audit_json.encode()).hexdigest() == DESK_AUDIT_SHA256

    # a non-square n is decided by the determinant without a search; the
    # search on those graphs is pinned by the test below
    determinant = [r.key() for r in rows if r.proof == "determinant"]
    assert determinant == [r.key() for r in rows if math.isqrt(r.n) ** 2 != r.n]
    assert len(determinant) == 947
    assert all(r.nodes == 0 for r in rows if r.proof == "determinant")
    # node counts do not depend on the machine, so the total and the
    # witnesses pin the search's candidate order at desk scale
    assert sum(r.nodes for r in rows) == 1024
    passing_rows = [r for r in rows if r.verdict == "ObstructionPasses"]
    assert {
        r.key(): [render_vector(v) for v in r.witness] for r in passing_rows
    } == DESK_WITNESSES
    for row in passing_rows:
        spec = SurgerySpec(CableTower(((row.p1, row.a1), (row.p2, row.a2))), row.n)
        tree = closed_form_two_iter(spec)
        assert verify_embedding(gram_matrix(tree), row.witness)
        witness = known_witness(spec)
        assert witness is not None  # construction self-verifies
        rediscovered = find_embedding(tree)
        assert rediscovered.status is SearchStatus.FOUND


def test_search_refutes_every_non_square_desk_graph():
    # the sweep decides these 947 tuples by the determinant; the search must
    # agree on every one, and its node total pins the candidate order there
    nodes = 0
    for p1, a1, p2, a2, n in desk_range_tuples():
        if math.isqrt(n) ** 2 == n:
            continue
        spec = SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)
        result = find_embedding(closed_form_two_iter(spec))
        assert result.status is SearchStatus.NONE, (p1, a1, p2, a2, n)
        nodes += result.nodes
    assert nodes == 16992


@criterion(8, "algebraic-only boundary tuples are obstructed")
def test_criterion_8_boundary_spot_checks():
    # l = -1 tuples: ceil(a2/p2) = p1*a1 + 1
    for pairs, n in [
        (((2, 3), (2, 13)), 28),
        (((2, 3), (3, 19)), 59),
        (((2, 3), (3, 20)), 62),
        (((2, 5), (2, 21)), 44),
        (((3, 4), (2, 25)), 52),
    ]:
        verdict = classify_one(SurgerySpec(CableTower(pairs), n))
        assert verdict.verdict is VerdictKind.OBSTRUCTION_FAILS, (pairs, n, verdict.verdict)


@criterion(9, "N < 0 reports no negative definite form without searching")
def test_criterion_9_negative_n():
    for pairs, n in [
        (((2, 3), (2, 17)), 33),
        (((2, 3), (2, 17)), 1),
        (((2, 7), (2, 31)), 61),
        (((3, 4), (3, 47)), 100),
    ]:
        verdict = classify_one(SurgerySpec(CableTower(pairs), n))
        assert verdict.verdict is VerdictKind.NO_NEGATIVE_DEFINITE_FORM
        assert verdict.nodes == 0 and verdict.witness is None
