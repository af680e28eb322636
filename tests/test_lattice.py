import hashlib
import importlib
import itertools
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import knotplumb
from knotplumb import cabling, classify, lattice
from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter
from knotplumb.classify import DEFAULT_BUDGET, desk_range_tuples
from knotplumb.lattice import (
    SearchStatus,
    _canonical,
    _dense,
    _sparse,
    embedding_from_json_obj,
    enumerate_embeddings,
    find_embedding,
    render_vector,
    verify_embedding,
)
from knotplumb.plumbing import WeightedTree, det_exact, gram_matrix, is_negative_definite

from oracles import (
    canonical_candidates,
    column_classes,
    enumerate_gram,
    gram_rows,
    minors_negative_definite,
    naive_find_embedding,
    plain_verify_embedding,
    random_tree,
    reference_candidates,
    relabel,
    render_vector_densely,
    search_classes,
    search_gram,
    sorted_tuples,
    square_decompositions,
)


def path(weights):
    """The path with these weights, vertices 0, 1, ... in order."""
    return WeightedTree(dict(enumerate(weights)), [(i, i + 1) for i in range(len(weights) - 1)])


def chain(k, weight=-2):
    return path([weight] * k)


def shuffled(tree, rng):
    """tree with its vertices renamed 0..n-1 in a random order, so that the
    search places them in another order."""
    ids = tree.vertices()
    rng.shuffle(ids)
    return relabel(tree, {v: i for i, v in enumerate(ids)})


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[offset + i][offset + j] = b[i][j]
        offset += len(b)
    return out


def run_child(code, *flags):
    """Run code in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(knotplumb.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
    )


class TestVerify:
    def test_single_minus_two(self):
        assert verify_embedding([[-2]], [(1, -1)])
        assert not verify_embedding([[-2]], [(1, 1, 1)])

    def test_three_chain_special(self):
        vectors = ((1, -1, 0), (0, 1, -1), (-1, -1, 0))
        assert verify_embedding(gram_matrix(chain(3)), vectors)

    def test_worked_example_witness(self):
        # coordinates f1..f4, g1..g3, h for the 8-vertex centipede of
        # (2,3;2,17;36): torso1, node1, leg1, torso2 two, torso2 -3,
        # node2, leg2, tail
        f1, f2, f3, f4, g1, g2, g3, h = range(8)

        def vec(*terms):
            v = [0] * 8
            for coeff, idx in terms:
                v[idx] = coeff
            return tuple(v)

        witness = (
            vec((1, f3), (1, f4), (-1, h)),          # torso1: v
            vec((1, f2), (-1, f3)),                  # node1
            vec((1, f1), (-1, f2)),                  # leg1
            vec((1, f3), (-1, f4)),                  # torso2 -2
            vec((1, f4), (1, h), (-1, g1)),          # torso2 -3: w
            vec((1, g1), (-1, g2)),                  # node2
            vec((1, g2), (1, g3)),                   # leg2: u
            vec((1, g2), (-1, g3)),                  # tail
        )
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        assert verify_embedding(gram_matrix(closed_form_two_iter(spec)), witness)

    def test_rejects_non_integer_vector_entries(self):
        # 1.0 and True were read as 1, and a witness of them verified
        assert verify_embedding([[-2]], [(1, -1, 0)])
        for vec in ((1.0, -1, 0), (True, -1, 0), (1, -1, 0.0), ("1", -1, 0)):
            with pytest.raises(TypeError, match="^vector entries must be integers$"):
                verify_embedding([[-2]], [vec])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_embedding([[-2]], [(1, -1), (0, 1)])

    def test_disjoint_supports_with_an_edge_rejected(self):
        # no product is formed for such a pair; its entry must still be 0
        vectors = [(1, -1, 0, 0), (0, 0, 1, -1)]
        assert verify_embedding([[-2, 0], [0, -2]], vectors)
        assert not verify_embedding([[-2, 1], [1, -2]], vectors)

    def test_long_chain_witness_checked_sparsely(self):
        # 300 -2's and a -5 at rank len + 1: checking the witness pair by
        # pair over every coordinate took 0.68 s of find_embedding's 0.69 s
        # (2-core host, CPython 3.11); summed per shared coordinate, 0.01 s
        tree = path([-2] * 300 + [-5])
        t0 = time.process_time()
        res = find_embedding(tree, rank=len(tree) + 1)
        assert res.status is SearchStatus.FOUND
        assert time.process_time() - t0 < 0.25
        gram = gram_matrix(tree)
        assert verify_embedding(gram, res.witness)
        witness = [list(v) for v in res.witness]
        k = next(j for j, x in enumerate(witness[150]) if x)
        witness[150][k] = -witness[150][k]
        assert not verify_embedding(gram, witness)


def sparse(vectors):
    """Dense vectors as the search keeps them: (coordinate, entry) pairs."""
    return [[(k, x) for k, x in enumerate(v) if x] for v in vectors]


class TestSparseCheckAgainstThePlainOne:
    """The witness check (_reproduces, through verify_embedding and on a
    form's rows) against oracles.plain_verify_embedding, on witnesses of
    seeded random trees and on corrupted copies of them."""

    @staticmethod
    def agree(gram, vectors):
        want = plain_verify_embedding(gram, vectors)
        assert verify_embedding(gram, vectors) == want, (gram, vectors)
        assert lattice._reproduces(*gram_rows(gram), sparse(vectors)) == want, (gram, vectors)
        return want

    def test_witnesses_and_corruptions(self):
        rng = random.Random(29)
        witnesses, outcomes = 0, set()
        while witnesses < 80:
            t = random_tree(rng, max_vertices=9, weights=(-4, -1))
            if not is_negative_definite(gram_matrix(t)):
                continue
            res = find_embedding(t, rank=len(t) + rng.randint(0, 2))
            if res.status is not SearchStatus.FOUND:
                continue
            witnesses += 1
            gram, n = gram_matrix(t), len(t)
            w = [list(v) for v in res.witness]
            assert self.agree(gram, w)
            # one flipped entry
            i = rng.randrange(n)
            k = rng.choice([k for k, x in enumerate(w[i]) if x])
            flipped = [list(v) for v in w]
            flipped[i][k] = -flipped[i][k]
            outcomes.add(("flipped", self.agree(gram, flipped)))
            # two rows swapped
            if n >= 2:
                a, b = rng.sample(range(n), 2)
                swapped = [list(v) for v in w]
                swapped[a], swapped[b] = swapped[b], swapped[a]
                outcomes.add(("swapped", self.agree(gram, swapped)))
            # an extra entry of v_i on a coordinate of v_j, i and j not
            # adjacent, with i's norm in the form raised to match: only
            # pairs off the diagonal are wrong, (i, j) among them
            pairs = [(i, j) for i in range(n) for j in range(n)
                     if i != j and not gram[i][j] and any(y and not x for x, y in zip(w[i], w[j]))]
            if pairs:
                i, j = rng.choice(pairs)
                k = rng.choice([k for k in range(len(w[j])) if w[j][k] and not w[i][k]])
                met = [list(v) for v in w]
                met[i][k] = 1
                moved = [list(row) for row in gram]
                moved[i][i] -= 1
                assert not self.agree(moved, met)
                outcomes.add(("met", False))
            # a wrong vertex count, and vectors of mixed lengths
            for vectors in (w[:-1], w + [w[0]], w[:-1] + [w[-1] + [0]]):
                if len(vectors) == n and n == 1:
                    continue
                for check in (verify_embedding, plain_verify_embedding):
                    with pytest.raises(ValueError):
                        check(gram, vectors)
        assert outcomes >= {("flipped", False), ("swapped", False), ("swapped", True), ("met", False)}


class TestSquareDecompositions:
    def test_small_values(self):
        assert square_decompositions(2) == ((1, 1),)
        assert square_decompositions(3) == ((1, 1, 1),)
        assert set(square_decompositions(4)) == {(2,), (1, 1, 1, 1)}

    def test_counts_against_brute_force(self):
        from math import isqrt

        for m in range(1, 30):
            brute = {
                tup
                for size in range(1, m + 1)
                for tup in itertools.combinations_with_replacement(
                    range(isqrt(m), 0, -1), size
                )
                if sum(x * x for x in tup) == m
            }
            assert set(square_decompositions(m)) == brute

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            square_decompositions(0)


class TestChains:
    """Locally minimal -2-chain embeddings: rank k+1 always works and is
    unique; rank k works only at k = 3."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rank_k_plus_one_found(self, k):
        assert find_embedding(chain(k), rank=k + 1).status is SearchStatus.FOUND

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rank_k_only_at_three(self, k):
        res = find_embedding(chain(k), rank=k)
        expected = SearchStatus.FOUND if k == 3 else SearchStatus.NONE
        assert res.status is expected

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6])
    def test_unique_class_into_rank_k_plus_one(self, k):
        classes = enumerate_embeddings(chain(k), rank=k + 1, locally_minimal_only=True)
        assert len(classes) == 1

    def test_three_chain_classes(self):
        assert len(enumerate_embeddings(chain(3), rank=3)) == 1
        # into rank 4, the staircase is the only locally minimal class;
        # dropping local minimality adds the special embedding
        assert len(enumerate_embeddings(chain(3), rank=4, locally_minimal_only=True)) == 1
        assert len(enumerate_embeddings(chain(3), rank=4)) == 2


class TestDisjointUnions:
    # a disjoint union is no tree: searched on its matrix (enumerate_gram)
    def test_two_singletons_rank_two(self):
        classes = enumerate_gram(block_diag([[-2]], [[-2]]), rank=2)
        assert classes == [((1, 1), (1, -1))]

    def test_catalogue_until_rank_seven(self):
        # every embedding of a union of -2-chains at the Donaldson rank is
        # assembled from staircases (k+1 coords), the length-3 special
        # (3 coords) and paired singletons (2 coords for both vertices)
        from oracles import catalogue_count

        for lengths in [(1, 1), (3, 3), (1, 1, 1), (3, 1), (2, 3), (1, 1, 1, 1),
                        (3, 3, 1), (2, 2, 3), (4, 3), (1, 1, 3, 1)]:
            if sum(lengths) > 7:
                continue
            gram = block_diag(*[gram_matrix(chain(k)) for k in lengths])
            got = len(enumerate_gram(gram, rank=sum(lengths)))
            assert got == catalogue_count(lengths, sum(lengths)), lengths


class TestFindEmbedding:
    def test_worked_example_found(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        res = find_embedding(closed_form_two_iter(spec))
        assert res.status is SearchStatus.FOUND
        assert verify_embedding(gram_matrix(closed_form_two_iter(spec)), res.witness)

    def test_non_family_none(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 38)
        res = find_embedding(closed_form_two_iter(spec))
        assert res.status is SearchStatus.NONE

    def test_budget_indeterminate(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 38)
        res = find_embedding(closed_form_two_iter(spec), budget=3)
        assert res.status is SearchStatus.INDETERMINATE
        assert res.nodes > 3 >= res.nodes - 1

    @pytest.mark.parametrize(
        "pairs,n,budget,status",
        [
            # rank-26 chain T(2,3;2,53): refuted after exactly 27 nodes
            (((2, 3), (2, 53)), 108, 26, SearchStatus.INDETERMINATE),
            (((2, 3), (2, 53)), 108, 27, SearchStatus.NONE),
            # (2,3;2,17;36): the first witness completes at node 15
            (((2, 3), (2, 17)), 36, 14, SearchStatus.INDETERMINATE),
            (((2, 3), (2, 17)), 36, 15, SearchStatus.FOUND),
        ],
        # ids without the pinned counts, which move with the search
        ids=["refute-cut-short", "refute", "witness-cut-short", "witness"],
    )
    def test_budget_boundary(self, pairs, n, budget, status):
        tree = closed_form_two_iter(SurgerySpec(CableTower(pairs), n))
        res = find_embedding(tree, budget=budget)
        assert res.status is status
        # a search that runs out stops on the node that exceeds the budget
        assert res.nodes == (budget + 1 if status is SearchStatus.INDETERMINATE else budget)
        assert (res.witness is not None) == (status is SearchStatus.FOUND)

    def test_rejects_indefinite(self):
        for tree in (path([-2, 0]), path([2])):
            with pytest.raises(ValueError, match="not negative definite"):
                find_embedding(tree)
            with pytest.raises(ValueError, match="not negative definite"):
                enumerate_embeddings(tree)

    def test_verdict_invariant_under_relabelling(self):
        # a relabelled tree is placed in a different order, so this also
        # checks that the verdict does not depend on the placement order
        rng = random.Random(5)
        for _ in range(25):
            t = random_tree(rng, max_vertices=6, weights=(-4, -2))
            if not is_negative_definite(gram_matrix(t)):
                continue
            status = find_embedding(t).status
            for _ in range(3):
                moved = shuffled(t, rng)
                assert find_embedding(moved).status is status, moved

    def test_chain_refute_stays_small_under_relabelling(self):
        # rank-26 refute of T(2,3;2,53), n = 108; depth-first placement
        # needs 26-71 nodes under these labellings, input order 114-3865
        spec = SurgerySpec(CableTower(((2, 3), (2, 53))), 108)
        t = closed_form_two_iter(spec)
        rank = len(t)
        assert rank == 26
        for seed in range(20):
            res = find_embedding(shuffled(t, random.Random(seed)), budget=4 * rank)
            assert res.status is SearchStatus.NONE, (seed, res.nodes)

    def test_soundness_check_survives_optimize(self):
        # the witness check against the form's rows must not be an assert,
        # which -O strips
        code = (
            "from knotplumb import lattice\n"
            "from knotplumb.plumbing import WeightedTree\n"
            "lattice._reproduces = lambda diag, off, vectors: False\n"
            "try:\n"
            "    lattice.find_embedding(WeightedTree({0: -1}, []))\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('unverified witness accepted')\n"
        )
        res = run_child(code, "-O")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_enumeration_check_survives_optimize(self):
        # each class enumerate_embeddings returns is checked against the
        # form's rows first, by a raise that -O keeps
        code = (
            "from knotplumb import lattice\n"
            "from knotplumb.plumbing import WeightedTree\n"
            "lattice._reproduces = lambda diag, off, vectors: False\n"
            "try:\n"
            "    lattice.enumerate_embeddings(WeightedTree({0: -1}, []))\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('unverified embedding class returned')\n"
        )
        res = run_child(code, "-O")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            find_embedding(chain(2), rank=0)
        with pytest.raises(ValueError):
            enumerate_embeddings(chain(2), rank=0)

    def test_rejects_non_integer_rank(self):
        # int() searched rank 2 for 2.9, and reported NONE where rank 3
        # finds a witness; True searched rank 1
        g = chain(2)
        assert find_embedding(g, rank=3).status is SearchStatus.FOUND
        for rank in (2.9, 3.0, True, "3"):
            with pytest.raises(TypeError, match="rank must be an integer"):
                find_embedding(g, rank=rank)
            with pytest.raises(TypeError, match="rank must be an integer"):
                enumerate_embeddings(g, rank=rank)

    def test_monotone_in_rank(self):
        rng = random.Random(9)
        for _ in range(20):
            t = random_tree(rng, max_vertices=5, weights=(-4, -2))
            if not is_negative_definite(gram_matrix(t)) or len(t) < 2:
                continue
            n = len(t)
            if find_embedding(t, rank=n).status is SearchStatus.NONE:
                assert find_embedding(t, rank=n - 1).status is SearchStatus.NONE


class TestAgainstNaiveOracle:
    def test_small_trees_sample(self):
        rng = random.Random(21)
        checked = 0
        while checked < 40:
            t = random_tree(rng, max_vertices=4, weights=(-4, -1))
            g = gram_matrix(t)
            if not is_negative_definite(g):
                continue
            checked += 1
            fast = find_embedding(t)
            slow = naive_find_embedding(g, len(g))
            assert (fast.status is SearchStatus.FOUND) == (slow is not None)
            if slow is not None:
                assert verify_embedding(g, slow)

    def test_non_square_determinant_never_embeds_at_rank(self):
        # at rank = vertex count an embedding is a square matrix A with
        # G = -A A^T, so |det G| = det(A)^2 must be a square
        rng = random.Random(33)
        checked = 0
        while checked < 30:
            t = random_tree(rng, max_vertices=4, weights=(-5, -1))
            g = gram_matrix(t)
            det = abs(det_exact(g))
            if not is_negative_definite(g) or math.isqrt(det) ** 2 == det:
                continue
            checked += 1
            assert naive_find_embedding(g, len(g)) is None, (g, det)
            assert find_embedding(t).status is SearchStatus.NONE, (g, det)

    def test_rank_five_sample(self):
        # a slice above the acceptance battery's rank range
        rng = random.Random(99)
        checked = 0
        while checked < 12:
            t = random_tree(rng, max_vertices=5, weights=(-4, -1))
            g = gram_matrix(t)
            if not is_negative_definite(g) or len(g) != 5:
                continue
            checked += 1
            fast = find_embedding(t)
            slow = naive_find_embedding(g, 5)
            assert (fast.status is SearchStatus.FOUND) == (slow is not None)

    def test_oversized_target_rank(self):
        res = find_embedding(chain(4), rank=6)
        assert res.status is SearchStatus.FOUND
        assert len(res.witness[0]) == 6


def dense(vec, rank):
    """A sparse vector of the search, (coordinate, entry) pairs, as a tuple."""
    out = [0] * rank
    for k, x in vec:
        out[k] = x
    return tuple(out)


def node_inputs(searcher, depth):
    """Dense placed vectors, norm and targets of the vertex at this depth,
    read from the form the searcher was given."""
    vertex = searcher.order[depth]
    placed = [dense(p, searcher.rank) for p in searcher.placed]
    targets = [-searcher.off[vertex].get(searcher.order[j], 0) for j in range(depth)]
    return placed, -searcher.diag[vertex], targets


def search_partition(searcher):
    """The searcher's incremental column classes as column_classes lists them."""
    depth = len(searcher.placed)
    out = []
    for cls in search_classes(searcher):
        sig = [0] * depth
        for j, x in cls.sig:
            sig[j] = x
        out.append((tuple(sig), list(range(cls.lo, cls.hi))))
    return out


def check_candidates_against_oracle(monkeypatch, norm_two_cases):
    """Make every _candidates call assert that it returns the oracle's list,
    element for element, on dense placed vectors and targets; returns the
    list of output lengths.  The kinds of norm-2 calls and candidates seen
    are added to norm_two_cases."""
    real = lattice._Searcher._candidates
    calls = []

    def checked(self, depth):
        out = real(self, depth)
        placed, norm, targets = node_inputs(self, depth)
        got = [dense(vec, self.rank) for vec in out]
        want = canonical_candidates(placed, norm, targets, self.rank)
        assert got == want, (placed, norm, targets)
        calls.append(len(got))
        if norm == 2:
            if not placed:
                norm_two_cases.add("depth 0")
            if self.rank == 1:
                norm_two_cases.add("rank 1")
            for vec in got:
                norm_two_cases.add(norm_two_case(placed, vec))
                if sum(1 for t in targets if t) >= 2:
                    norm_two_cases.add("targets with >= 2 nonzero entries")
        return out

    monkeypatch.setattr(lattice._Searcher, "_candidates", checked)
    return calls


def check_partition_against_oracle(monkeypatch):
    """Make every _candidates call, one per node, first assert that the
    incremental column classes equal the from-scratch grouping, and that
    by_sig maps each of their signatures to them and holds nothing else;
    returns the list of class counts."""
    real = lattice._Searcher._candidates
    counts = []

    def checked(self, depth):
        want = column_classes(node_inputs(self, depth)[0], self.rank)
        assert search_partition(self) == want, depth
        assert self.by_sig == {cls.sig: cls for cls in search_classes(self)}, depth
        counts.append(len(want))
        return real(self, depth)

    monkeypatch.setattr(lattice._Searcher, "_candidates", checked)
    return counts


def norm_two_case(placed, vec):
    """Which of the norm-2 lookup's cases produced this candidate."""
    k1, k2 = [k for k, x in enumerate(vec) if x]
    col1 = tuple(p[k1] for p in placed)
    col2 = tuple(p[k2] for p in placed)
    if col1 != col2:
        return "two classes" if any(col1) and any(col2) else "two classes, one untouched"
    if not any(col1):
        return "untouched (1, 1)"
    return f"same class {(vec[k1], vec[k2])}"


def mostly_minus_two_gram(rng):
    """Gram matrix of one or two random trees, at most 8 vertices in all,
    most weights -2 and the rest -3.  Edges carry +-1 or +-2: a tree with
    unit edges is placed with targets 0 and -1 only and no vertex of its
    component unlinked, so it never meets a target of 2 * sig or a second
    component's all-zero targets."""
    two = rng.random() < 0.4
    trees = [random_tree(rng, max_vertices=4 if two else 8, weights=(-2, -2))
             for _ in range(2 if two else 1)]
    g = block_diag(*[gram_matrix(t) for t in trees])
    for i in range(len(g)):
        if rng.random() < 0.2:
            g[i][i] = -3
        for j in range(i):
            if g[i][j]:
                g[i][j] = g[j][i] = rng.choice((1, 1, 1, -1, 2, -2))
    return g


def cyclic_minus_two_gram(rng):
    """mostly_minus_two_gram with one or two more edges of weight +-1, so
    that the support may have a cycle: a vertex placed after two of its
    neighbours then has targets with two nonzero entries, which a tree
    never gives."""
    g = mostly_minus_two_gram(rng)
    for _ in range(rng.choice((1, 2)) if len(g) > 1 else 0):
        i, j = rng.sample(range(len(g)), 2)
        g[i][j] = g[j][i] = rng.choice((1, -1))
    return g


def finish_cases(searcher, budget, gaps, decided, out):
    """Which of FINISH_CASES a _finish call shows: the kind of each
    completion it lists, told by the classes of its entries outside the
    decided classes, and whether a decided class, which it must skip,
    would have met the gaps with budget +-1 entries."""
    cases = set()
    for vec in out:
        rest = [(k, x) for k, x in vec if searcher.owner[k] not in decided]
        if len(rest) == 1:
            cases.add(f"budget 1, {rest[0][1]:+d}")
            continue
        (k1, x1), (k2, x2) = rest
        c1, c2 = searcher.owner[k1], searcher.owner[k2]
        if c1 is c2:
            cases.add(f"same class {(x1, x2)}")
        else:
            cases.add("two classes" if c1.sig and c2.sig else "two classes, one untouched")

    def moves(*terms):  # the sum of s * sig over the terms, sparse
        out = {}
        for s, sig in terms:
            for j, x in sig:
                out[j] = out.get(j, 0) + s * x
        return {j: x for j, x in out.items() if x}

    want = dict(gaps)
    classes = list(searcher.by_sig.values())
    for d_cls in decided:
        for d in (1, -1):
            if budget == 1 and moves((d, d_cls.sig)) == want or budget == 2 and any(
                moves((d, d_cls.sig), (c, c_cls.sig)) == want for c_cls in classes for c in (1, -1)
            ):
                cases.add("decided class skipped")
    return cases


def record_finish_cases(monkeypatch, cases, recording=lambda: True):
    """Make every _finish call add the FINISH_CASES it shows to cases,
    while recording() holds."""
    real = lattice._Searcher._finish

    def recorded(self, stack, budget, gaps, decided):
        out = real(self, stack, budget, gaps, decided)
        if recording():
            cases.update(finish_cases(self, budget, gaps, decided, out))
        return out

    monkeypatch.setattr(lattice._Searcher, "_finish", recorded)


# the kinds of completion _finish lists with gaps open and budget <= 2
# unspent, and the decided classes it must pass over
FINISH_CASES = {
    "budget 1, +1",
    "budget 1, -1",
    "two classes",
    "two classes, one untouched",
    "same class (1, 1)",
    "same class (-1, -1)",
    "decided class skipped",
}
# those the closed-form desk graphs show
DESK_FINISH_CASES = {"two classes", "two classes, one untouched", "decided class skipped"}


NORM_TWO_CASES = {
    "depth 0",
    "rank 1",
    "two classes",
    "two classes, one untouched",
    "untouched (1, 1)",
    "same class (1, 1)",
    "same class (1, -1)",
    "same class (-1, -1)",
    "targets with >= 2 nonzero entries",
}


class TestCandidates:
    def test_pruning_keeps_every_canonical_candidate(self, monkeypatch):
        # the tail bound may skip only partial choices that cannot complete:
        # each candidate list must be the unpruned enumeration, filtered to
        # canonical form, in the search's order.  Every kind of completion
        # the signature lookup lists (_finish) is among them
        cases = set()
        record_finish_cases(monkeypatch, cases)
        calls = check_candidates_against_oracle(monkeypatch, set())
        rng = random.Random(17)
        graphs = 0
        while graphs < 150:
            t = random_tree(rng, max_vertices=6, weights=(-5, -1))
            if not is_negative_definite(gram_matrix(t)):
                continue
            graphs += 1
            enumerate_embeddings(t)
            find_embedding(t, rank=len(t) + 1)
        assert len(calls) > 1000 and sum(calls) > 1000
        assert cases == FINISH_CASES

    def test_norm_two_lookup_matches_the_enumeration(self, monkeypatch):
        # mostly -2 trees, then the same with a cycle, so that most calls
        # are norm 2, and every case must give the enumeration's list: the
        # lookup's (_finish), and a component's first vertex's neutral
        # fills (depth 0, untouched (1, 1), same class (1, -1)), which
        # _filled gives
        cases = set()
        calls = check_candidates_against_oracle(monkeypatch, cases)
        rng = random.Random(29)
        graphs = 0
        while graphs < 100:
            g = (mostly_minus_two_gram if graphs < 60 else cyclic_minus_two_gram)(rng)
            if not minors_negative_definite(g):
                continue
            graphs += 1
            for rank in (len(g), len(g) + 1, len(g) + 2):
                search_gram(g, rank=rank)
        # with the heavy vertices placed last, a norm-2 vertex meets only
        # placed vectors of norm 1 or 2, and targets 2 * sig then ask for
        # one of them again, which a definite form rules out; _Searcher
        # takes any form, so two semi-definite ones still ask for it
        for g in ([[-2, -2], [-2, -2]], [[-2, 2], [2, -2]]):
            assert list(lattice._Searcher(*gram_rows(g), 2).embeddings())
        assert cases == NORM_TWO_CASES
        assert len(calls) > 500

    def test_incremental_partition_matches_the_grouping(self, monkeypatch):
        # at every node, the classes kept by splitting and undoing equal the
        # from-scratch grouping: same classes, same order, same coordinates.
        # Every closed-form desk graph is searched, then random trees (some
        # with a cycle) are enumerated and searched above their rank, so
        # that the search backtracks through many splits
        counts = check_partition_against_oracle(monkeypatch)
        for p1, a1, p2, a2, n in desk_range_tuples():
            spec = SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)
            find_embedding(closed_form_two_iter(spec))
        assert len(counts) == 19015
        rng = random.Random(41)
        graphs = 0
        while graphs < 220:
            if graphs % 2:
                g = cyclic_minus_two_gram(rng)
            else:
                g = gram_matrix(random_tree(rng, max_vertices=8, weights=(-4, -1)))
            if not minors_negative_definite(g):
                continue
            graphs += 1
            enumerate_gram(g)
            for rank in (len(g) + 1, len(g) + 2):
                search_gram(g, rank=rank)
        assert len(counts) - 19015 > 3000 and max(counts) > 20
        # a vector with two negative runs in one class, (-1, -2) on the
        # class (1, 1) splits, before a vertex whose candidates follow
        before = len(counts)
        enumerate_gram([[-2, 3, 0], [3, -5, 0], [0, 0, -6]], rank=4)
        assert len(counts) > before

    def test_every_candidate_list_is_pinned(self, monkeypatch):
        # the gate for any change to the search: the lists _candidates
        # returns, in call order, on the desk range's searched tuples as a
        # sweep classifies them, then on Lisca's chains
        real = lattice._Searcher._candidates
        digest, calls = hashlib.sha256(), 0

        def hashed(self, depth):
            nonlocal calls
            out = real(self, depth)
            calls += 1
            digest.update(repr(out).encode())
            return out

        monkeypatch.setattr(lattice._Searcher, "_candidates", hashed)
        for t in desk_range_tuples():
            if classify.searched(t[4], t[4] - t[2] * t[3]):
                classify._classify_tuple(t, DEFAULT_BUDGET)
        for _, _, chains in lisca_chains():
            for c in chains:
                find_embedding(c)
        assert (calls, digest.hexdigest()) == (
            23416, "57e8dd5fb42e7acd12d61483152c8094e9aa26f500ff5e51266036ce4480549d")

    @pytest.mark.parametrize(
        "k2, n, rank, nodes",
        [(53, 108, 26, 27), (103, 208, 51, 52), (203, 408, 101, 102),
         (403, 808, 201, 202), (803, 1608, 401, 402)],
        ids=["rank-26", "rank-51", "rank-101", "rank-201", "rank-401"],
    )
    def test_chain_refute_node_counts(self, k2, n, rank, nodes):
        # node counts do not depend on the machine; a change to the
        # candidate generator or the placement order that moves them is
        # a change of the search, not of its speed
        spec = SurgerySpec(CableTower(((2, 3), (2, k2))), n)
        t = closed_form_two_iter(spec)
        assert len(t) == rank
        res = find_embedding(t)
        assert res.status is SearchStatus.NONE
        assert res.nodes == nodes

    @pytest.mark.parametrize(
        "spec, rank, status, nodes",
        [((2, 3, 3, 74, 225), 26, SearchStatus.NONE, 26),
         ((2, 7, 3, 47, 144), 11, SearchStatus.FOUND, 12),
         ((3, 4, 3, 64, 196), 19, SearchStatus.NONE, 19),
         ((2, 5, 3, 32, 100), 10, SearchStatus.NONE, 18)],
        ids=["2-3-3-74-225", "2-7-3-47-144", "3-4-3-64-196", "2-5-3-32-100"],
    )
    def test_heavy_vertex_node_counts(self, spec, rank, status, nodes):
        # the desk searches whose norm-3 and norm-4 vertices cost the most
        p1, a1, p2, a2, n = spec
        t = closed_form_two_iter(SurgerySpec(CableTower(((p1, a1), (p2, a2))), n))
        assert len(t) == rank
        res = find_embedding(t)
        assert (res.status, res.nodes) == (status, nodes)
        if status is SearchStatus.FOUND:
            assert [render_vector(v) for v in res.witness] == [
                "e1+e2", "-e2+e3", "-e1+e2-e4", "e4+e5", "-e5+e6", "-e5-e6-e7",
                "e7+e8", "-e8+e9", "-e9-e10-e11", "-e9+e10", "-e10+e11"]

    def test_heavy_vertices_match_the_reference_enumeration(self, monkeypatch):
        # every candidate list of a vertex of norm other than 2 is the
        # class-by-class enumeration's, element for element: on every
        # closed-form desk graph, on heavy vertices hung on -2 chains, and
        # on -2/-3 forms with a cycle, at and above their rank.  Norm-2
        # lists, the lookup's and the first vertex's of a component, are
        # checked too on every 5th desk graph and on the forms with a cycle.
        # The kinds of completion _finish lists in the checked desk lists
        # are recorded
        real = lattice._Searcher._candidates
        calls = []
        desk_cases, checking = set(), False
        record_finish_cases(monkeypatch, desk_cases, lambda: checking and desk)

        def checked(self, depth):
            nonlocal checking
            checking = every or self.norms[depth] != 2
            out = real(self, depth)
            if checking:
                assert out == reference_candidates(self, depth), (self.links[depth], out)
                calls.append((self.norms[depth], len(out)))
            return out

        monkeypatch.setattr(lattice._Searcher, "_candidates", checked)
        desk = True
        for i, (p1, a1, p2, a2, n) in enumerate(desk_range_tuples()):
            every = i % 5 == 0
            spec = SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)
            find_embedding(closed_form_two_iter(spec))
        assert len(calls) == 1611 + 2926
        assert sum(norm == 2 for norm, _ in calls) == 2926
        assert desk_cases == DESK_FINISH_CASES
        desk = False
        rng = random.Random(53)
        every = False
        trees = 0
        while trees < 150:
            t = hung_on_a_chain(rng)
            if not is_negative_definite(gram_matrix(t)):
                continue
            trees += 1
            for rank in (len(t), len(t) + 1):
                find_embedding(t, rank=rank)
        every = True
        graphs = 0
        while graphs < 40:
            g = cyclic_minus_two_gram(rng)
            if not minors_negative_definite(g):
                continue
            graphs += 1
            for rank in (len(g), len(g) + 1, len(g) + 2):
                search_gram(g, rank=rank)
        rest = calls[1611 + 2926:]
        heavy = [(norm, found) for norm, found in rest if norm != 2]
        assert {norm for norm, _ in heavy} == {3, 4, 5, 6}
        assert len(heavy) > 500 and sum(found for _, found in heavy) > 200
        assert len(rest) - len(heavy) > 300


def hung_on_a_chain(rng):
    """A -2 chain of 1 to 30 vertices with one to three vertices of weight
    -3 to -6 hung on it, each on a chain vertex or on an earlier one of
    them, and sometimes a -2 leaf on a heavy vertex."""
    length = rng.randint(1, 30)
    weights = {v: -2 for v in range(length)}
    edges = [(v, v + 1) for v in range(length - 1)]
    for _ in range(rng.randint(1, 3)):
        v = len(weights)
        weights[v] = rng.randint(-6, -3)
        edges.append((rng.randrange(v), v))
        if rng.random() < 0.3:
            weights[v + 1] = -2
            edges.append((v, v + 1))
    return WeightedTree(weights, edges)


def e8():
    """The E8 plumbing: a -2 tree, T-shaped with arms of 1, 2 and 4 vertices."""
    edges = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7)]
    return WeightedTree({v: -2 for v in range(8)}, edges)


class TestRankAboveTrace:
    """An embedding touches at most -trace(G) coordinates, so a larger
    rank only adds zero columns: the search runs at -trace(G) and pads."""

    def test_candidates_are_the_padded_enumeration(self, monkeypatch):
        # each candidate list at width -trace(G), padded with zeros, is the
        # unpruned enumeration's at the requested rank
        real = lattice._Searcher._candidates
        calls = []

        def checked(self, depth):
            out = real(self, depth)
            placed, norm, targets = node_inputs(self, depth)
            pad = (0,) * (rank - self.rank)
            want = canonical_candidates([p + pad for p in placed], norm, targets, rank)
            assert [dense(vec, self.rank) + pad for vec in out] == want, (placed, rank)
            calls.append(len(out))
            return out

        monkeypatch.setattr(lattice._Searcher, "_candidates", checked)
        star = WeightedTree({v: -2 for v in range(4)}, [(0, 1), (0, 2), (0, 3)])
        trees = [path([-2]), path([-3]), path([-4]), chain(2), chain(3), chain(4), star,
                 path([-3, -2])]
        # a disjoint union is no tree: searched on its matrix
        forests = [block_diag([[-2]], [[-3]]), block_diag([[-2]], [[-2]])]
        runs = [(find_embedding, enumerate_embeddings, t, gram_matrix(t)) for t in trees]
        runs += [(search_gram, enumerate_gram, g, g) for g in forests]
        for search, enumerate_, form, g in runs:
            trace = -sum(g[i][i] for i in range(len(g)))
            for rank in (trace + 1, trace + 2):
                search(form, rank=rank)
                enumerate_(form, rank=rank)
        assert len(calls) > 80 and sum(calls) > 100

    def test_e8_at_rank_a_million(self):
        # E8 embeds in no (Z^r, -Id); at rank 10**6 the search costs what
        # it costs at rank 16 = -trace, in nodes and in memory
        g = e8()
        peaks = []
        for rank in (16, 10**6):
            tracemalloc.start()
            try:
                res = find_embedding(g, rank=rank)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.status is SearchStatus.NONE and res.nodes == 6, rank
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks

    def test_witness_is_padded(self):
        res = find_embedding(chain(3), rank=10**5)
        assert res.status is SearchStatus.FOUND and res.nodes == 3
        staircase = ((1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert res.witness == tuple(v + (0,) * (10**5 - 4) for v in staircase)

    def test_result_keeps_the_checked_vectors_sparse(self):
        # a FOUND result holds the sparse vectors it checked and the target
        # rank; witness, their dense form as tuples of ints, is made once,
        # when first read
        res = find_embedding(chain(3), rank=10**5)
        assert res.vectors == (((0, 1), (1, 1)), ((1, -1), (2, 1)), ((2, -1), (3, 1)))
        assert res.rank == 10**5 and "witness" not in vars(res)
        witness = res.witness
        assert res.witness is witness and type(witness) is tuple
        assert all(type(v) is tuple and len(v) == 10**5 for v in witness)
        assert {type(x) for v in witness for x in v} == {int}
        assert [[(k, v[k]) for k in range(len(v)) if v[k]] for v in witness] == [
            list(v) for v in res.vectors]
        for res in (find_embedding(e8()), find_embedding(chain(3), budget=1)):
            assert res.status is not SearchStatus.FOUND
            assert res.vectors is None and res.witness is None

    def test_enumeration_is_padded(self):
        # chain of 2 (-trace 4): the staircase is its one class, sparse,
        # the same at rank 7 as at -trace; it leaves a coordinate of
        # either free, so it is not locally minimal there
        got = enumerate_embeddings(chain(2), rank=7)
        assert got == enumerate_embeddings(chain(2), rank=4) == [(((0, 1), (1, 1)), ((1, -1), (2, 1)))]
        for rank in (4, 7):
            assert enumerate_embeddings(chain(2), rank=rank, locally_minimal_only=True) == []

    def test_enumeration_pads_after_canonicalising(self):
        # the classes are canonicalised sparse at the searched width,
        # where enumerate_gram pads every solution first and canonicalises
        # it dense: zero columns sort last, so the two agree at every rank
        star = WeightedTree({v: -2 for v in range(4)}, [(0, 1), (0, 2), (0, 3)])
        trees = [path([-1]), path([-2]), path([-1, -2]), chain(2), chain(3), star]
        trees += [path([-3, -2]), closed_form_two_iter(SurgerySpec(CableTower(((2, 3), (2, 17))), 36))]
        padded = 0
        for t in trees:
            g = gram_matrix(t)
            for rank in range(len(t), len(t) + 4):
                padded += rank > -sum(t.weights.values())
                for minimal in (False, True):
                    got = enumerate_embeddings(t, rank=rank, locally_minimal_only=minimal)
                    assert [_dense(c, rank) for c in got] == enumerate_gram(
                        g, rank=rank, locally_minimal_only=minimal)
        assert padded >= 8, padded

    def test_enumeration_at_rank_a_million(self):
        # chain(3)'s two classes at rank 10**6, which are its sparse
        # classes at rank 6 = -trace: under 0.001 CPU seconds on a 2-core
        # host, where padding each solution before canonicalising it took
        # 2.4 s, and padding each class after it 0.03 s
        code = (
            "import time\n"
            "from knotplumb.lattice import enumerate_embeddings\n"
            "from knotplumb.plumbing import WeightedTree\n"
            "t = WeightedTree({0: -2, 1: -2, 2: -2}, [(0, 1), (1, 2)])\n"
            "start = time.process_time()\n"
            "wide = enumerate_embeddings(t, rank=10**6)\n"
            "seconds = time.process_time() - start\n"
            "narrow = enumerate_embeddings(t, rank=6)\n"
            "print(len(wide), wide == narrow, seconds)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        count, same, seconds = res.stdout.split()
        assert (count, same) == ("2", "True")
        assert float(seconds) < 1, seconds


class TestRowsInput:
    """find_embedding and enumerate_embeddings also take a form as its rows
    and definiteness, (diag, off, definite), as classify_one passes its
    builder's.  On forms that are no tree's -- forests, supports with a
    cycle, off-diagonal entries other than 1 -- they must give what the
    adapters search_gram and enumerate_gram give on the matrix."""

    def test_rows_of_forms_no_tree_has(self):
        rng = random.Random(67)
        forms = [block_diag([[-2]], [[-3]]), block_diag([[-2]], [[-2]]),
                 block_diag(gram_matrix(chain(3)), gram_matrix(chain(2))),
                 [[-2, 3, 0], [3, -5, 0], [0, 0, -6]]]
        while len(forms) < 64:
            g = (mostly_minus_two_gram if len(forms) % 2 else cyclic_minus_two_gram)(rng)
            if minors_negative_definite(g):
                forms.append(g)
        statuses, cyclic, heavy_entries = set(), 0, 0
        for g in forms:
            rows = (*gram_rows(g), minors_negative_definite(g))
            entries = [g[i][j] for i in range(len(g)) for j in range(i) if g[i][j]]
            cyclic += len(entries) >= len(g)  # more edges than a forest has
            heavy_entries += any(x != 1 for x in entries)
            for rank in (len(g), len(g) + 1):
                got, want = find_embedding(rows, rank=rank), search_gram(g, rank=rank)
                assert (got.status, got.nodes, got.witness) == (want.status, want.nodes, want.witness)
                classes = enumerate_embeddings(rows, rank=rank)
                assert [_dense(c, rank) for c in classes] == enumerate_gram(g, rank=rank)
                statuses.add(got.status)
        assert statuses == {SearchStatus.FOUND, SearchStatus.NONE}
        assert cyclic > 5 and heavy_entries > 20, (cyclic, heavy_entries)


class TestDeepSearches:
    """Long chains must not hit Python's recursion limit: neither the
    placement depth, nor the number of column classes, nor the width of a
    class may cost a Python frame each."""

    def test_placement_depth_uses_no_python_frames(self):
        # the rank-101 chain refute, under a recursion limit below its rank
        code = (
            "import sys\n"
            "from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter\n"
            "from knotplumb.lattice import find_embedding\n"
            "spec = SurgerySpec(CableTower(((2, 3), (2, 203))), 408)\n"
            "t = closed_form_two_iter(spec)\n"
            "sys.setrecursionlimit(60)\n"
            "res = find_embedding(t)\n"
            "print(len(t), res.status.value, res.nodes)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["101", "none", "102"]

    def test_heavy_vertex_after_a_long_chain(self):
        # a norm-5 vertex placed after a -2 chain of 300: its candidates
        # walk every column class, under a recursion limit far below that
        code = (
            "import sys\n"
            "from knotplumb.lattice import find_embedding\n"
            "from knotplumb.plumbing import WeightedTree\n"
            "ws = [-2] * 300 + [-5, -2]\n"
            "t = WeightedTree(dict(enumerate(ws)), [(i, i + 1) for i in range(301)])\n"
            "sys.setrecursionlimit(60)\n"
            "res = find_embedding(t, rank=303)\n"
            "print(res.status.value, res.nodes)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        want = find_embedding(path([-2] * 300 + [-5, -2]), rank=303)
        assert res.stdout.split() == [want.status.value, str(want.nodes)]

    def test_wide_untouched_class(self):
        res = find_embedding(path([-3]), rank=1500)
        assert res.status is SearchStatus.FOUND
        assert res.witness == ((1, 1, 1) + (0,) * 1497,)

    def test_heavy_vertex_on_a_wide_untouched_class(self):
        # {-2, -w}: at rank w + 2 the -w vertex's candidates are every fill
        # of the w-wide untouched class that spends w exactly, which took
        # 0.4 s at w = 120 on a 2-core host, where building every tuple
        # under the budget and keeping the exact ones took 7 s.  At the
        # default rank 2 and w = 10**8 the search refutes in 1 node, and
        # its candidates must not cost time growing with w (0.06 s).  Cold
        # caches, CPU seconds, bounds far above the measured figures
        code = (
            "import time\n"
            "from knotplumb.lattice import find_embedding\n"
            "from knotplumb.plumbing import WeightedTree\n"
            "for w, rank, budget in ((120, 122, None), (10**8, None, 5)):\n"
            "    t = WeightedTree({0: -2, 1: -w}, [(0, 1)])\n"
            "    start = time.process_time()\n"
            "    res = find_embedding(t, rank=rank, budget=budget)\n"
            "    print(res.status.value, res.nodes, time.process_time() - start)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        (found, n1, s1), (cut, n2, s2) = (line.split() for line in res.stdout.splitlines())
        assert (found, n1, cut, n2) == ("found", "2", "none", "1")
        assert float(s1) < 3 and float(s2) < 1.5, (s1, s2)

    def test_rank_1001_chain_refutes(self):
        # T(2,3; 2,2003), n = 4008: 999 -2's and two norm-3 vertices,
        # placed last, and the search goes 1001 deep, under a recursion
        # limit far below that
        code = (
            "import sys\n"
            "from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter\n"
            "from knotplumb.lattice import find_embedding\n"
            "spec = SurgerySpec(CableTower(((2, 3), (2, 2003))), 4008)\n"
            "t = closed_form_two_iter(spec)\n"
            "sys.setrecursionlimit(60)\n"
            "res = find_embedding(t)\n"
            "print(len(t), res.status.value, res.nodes)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1001", "none", "1002"]

    def test_square_at_a_depth_of_40_thousand(self):
        # T(2,3; 2,13) at n = 201**2: 40,379 vertices, almost all -2's, each
        # placed by one signature lookup whose keys are sparse tuples of
        # the few depths a column touches.  1.1 CPU seconds and 121 MB on a
        # 2-core host; keys that grow with the depth took 4.5 s and 1,089 MB
        code = (
            "import resource\n"
            "for kind, limit in ((resource.RLIMIT_AS, 600 * 2**20), (resource.RLIMIT_CPU, 30)):\n"
            "    hard = resource.getrlimit(kind)[1]\n"
            "    resource.setrlimit(kind, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))\n"
            "from knotplumb.cabling import CableTower, SurgerySpec\n"
            "from knotplumb.classify import classify_one\n"
            "row = classify_one(SurgerySpec(CableTower(((2, 3), (2, 13))), 201**2))\n"
            "print(row.rank, row.verdict, row.nodes)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["40379", "ObstructionFails", "40379"]

    def test_class_tuples(self):
        # per sum, the sparse tuples of a touched class are the
        # nonincreasing tuples with sum of squares <= budget, each once, in
        # ascending sum of squares; the untouched fills are the
        # non-negative ones that spend the budget exactly
        def dense(entries, width):
            out = [0] * width
            for o, x in entries:
                out[o] = x
            return tuple(out)

        for width, budget in itertools.product(range(1, 5), range(7)):
            cap = math.isqrt(budget)
            every = [t for t in itertools.product(range(-cap, cap + 1), repeat=width)
                     if list(t) == sorted(t, reverse=True) and sum(x * x for x in t) <= budget]
            for total in range(-width * cap, width * cap + 1):
                got = lattice._touched_tuples(width, budget, total)
                assert sorted(dense(e, width) for e, _ in got) == sorted(
                    t for t in every if sum(t) == total), (width, budget, total)
                qs = [q for _, q in got]
                assert qs == sorted(qs) and all(
                    q == sum(x * x for _, x in e) and len(e) <= budget for e, q in got)
            fills = lattice._untouched_fills(width, budget)
            assert sorted(dense(e, width) for e in fills) == sorted(
                t for t in every if min(t) >= 0 and sum(x * x for x in t) == budget)
        # a class one coordinate wide takes its total or nothing, in closed
        # form: the same list as the general builder's, and empty outside
        # the window total**2 <= budget
        for budget in range(41):
            cap = math.isqrt(budget)
            for total in range(-10, 11):
                got = lattice._one_wide(1, budget, total)
                assert [dense(e, 1) for e, _ in got] == [
                    t for t in itertools.product(range(-cap, cap + 1)) if t[0] == total]
                assert got == lattice._touched_tuples(1, budget, total), (budget, total)
                assert all(q == total * total for _, q in got)

    def test_no_state_outlives_a_search(self):
        # the package's one functools cache is cabling._hook's, and it is
        # bounded; the class tuples are built afresh for each caller
        found = set()
        for info in pkgutil.iter_modules(knotplumb.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"knotplumb.{info.name}")
            for obj in vars(module).values():
                for o in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
                    if callable(getattr(o, "cache_clear", None)):
                        found.add(o)
        assert found == {cabling._hook}
        assert cabling._hook.cache_parameters()["maxsize"] == 1024
        for builder, args in ((lattice._touched_tuples, (2, 2, 0)), (lattice._untouched_fills, (2, 2))):
            assert not hasattr(builder, "cache_clear")
            assert builder(*args) == builder(*args) and builder(*args) is not builder(*args)

    def test_class_tuples_of_a_wide_class(self):
        # a class 2000 wide with budget 2 shares the tuples of width 2; its
        # negative entries sit at the end of the class
        got = [e for e, _ in lattice._touched_tuples(min(2000, 2), 2, 0)]
        assert got == [(), ((0, 1), (-1, -1))]
        assert lattice._untouched_fills(min(2000, 2), 2) == [((0, 1), (1, 1))]

    def test_sorted_tuples_order(self):
        # descending lexicographic, exactly the nonincreasing tuples in range
        for size, budget, lo, hi in itertools.product(range(5), range(7), (-2, -1, 0), (0, 1, 2)):
            want = sorted(
                (t for t in itertools.product(range(lo, hi + 1), repeat=size)
                 if list(t) == sorted(t, reverse=True) and sum(x * x for x in t) <= budget),
                reverse=True,
            )
            got = list(sorted_tuples(size, budget, lo, hi))
            assert [t for t, _, _ in got] == want, (size, budget, lo, hi)
            assert all(s == sum(t) and q == sum(x * x for x in t) for t, s, q in got)

    def test_sorted_tuples_long_zero_run(self):
        # a touched class 2000 wide: zeros before the negative entries
        got = [t for t, _, _ in sorted_tuples(2000, 2, -1, 1)]
        zeros = (0,) * 1998
        assert got == [
            (1, 1) + zeros,
            (1, 0) + zeros,
            (1,) + zeros + (-1,),
            (0, 0) + zeros,
            zeros + (0, -1),
            zeros + (-1, -1),
        ]


def lisca_r(max_m):
    """Lisca's set R ("Lens spaces, rational balls and the ribbon
    conjecture", Geom. Topol. 11 (2007)) for m <= max_m, as
    pairs (m, q): p = m^2 > q >= 1, gcd(p, q) = 1, and q one of
      (1) mk +- 1, with m > k > 0 and gcd(m, k) = 1;
      (2) d(m +- 1), with d > 1 dividing 2m -+ 1;
      (3) d(m +- 1), with d > 1 odd and dividing m +- 1;
    closed under q -> p - q (-L(p, q) = L(p, p - q)) and q -> q^-1 mod p
    (L(p, q') = L(p, q)), under which both chains' verdicts are invariant:
    the chain of p/(p - q) is the dual of that of p/q, and that of p/q'
    its reverse."""
    members = set()
    for m in range(2, max_m + 1):
        p = m * m
        qs = {m * k + s for k in range(1, m) if math.gcd(m, k) == 1 for s in (1, -1)}
        for s in (1, -1):
            qs |= {d * (m + s) for d in range(2, 2 * m - s + 1) if (2 * m - s) % d == 0}
            qs |= {d * (m + s) for d in range(3, m + s + 1, 2) if (m + s) % d == 0}
        for q in qs:
            if 0 < q < p and math.gcd(p, q) == 1:
                members |= {(m, x) for y in (q, p - q) for x in (y, pow(y, -1, p))}
    return members


def lisca_chains():
    """(m, q, the linear chains of p/q and p/(p - q)) for m = 2..16, p =
    m^2, and every q < p coprime to p, ascending."""
    for m in range(2, 17):
        p = m * m
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield m, q, [path([-c for c in knotplumb.expand_neg_cf(p, x)]) for x in (q, p - q)]


class TestLiscaLensSpaces:
    # pairs FOUND on both sides that R as written above leaves out, each
    # L(m^2, mk +- 1) with gcd(m, k) = 2: their chains do embed (the
    # witnesses are checked), and the lattice condition does not rule on
    # whether they bound rational balls
    OUTSIDE_R = {
        (10, 39), (10, 41), (10, 59), (10, 61), (14, 55), (14, 57), (14, 83), (14, 85),
        (14, 111), (14, 113), (14, 139), (14, 141), (16, 95), (16, 97), (16, 159), (16, 161),
    }

    def test_r_is_found_on_both_sides(self):
        # L(p, q) bounds the linear plumbing of p/q and -L(p, q) that of
        # p/(p - q); if L(p, q) bounds a rational ball, both forms embed
        # in the standard lattice of their rank (Donaldson).  Every coprime
        # q < m^2, m <= 16, through the public API: chains up to rank 255,
        # FOUND up to rank 17, where the naive oracle stops at rank 5
        pairs, nodes, one_side, both = 0, 0, set(), set()
        for m, q, chains in lisca_chains():
            pairs += 1
            results = [find_embedding(c) for c in chains]
            nodes += sum(r.nodes for r in results)
            statuses = [r.status for r in results]
            assert SearchStatus.INDETERMINATE not in statuses, (m, q)
            if statuses[0] is SearchStatus.FOUND:
                one_side.add((m, q))
                if statuses[1] is SearchStatus.FOUND:
                    both.add((m, q))
        r = lisca_r(16)
        assert (pairs, nodes, len(one_side), len(both), len(r)) == (862, 21704, 544, 258, 242)
        assert r <= both
        assert both - r == self.OUTSIDE_R


class TestCanonicalForm:
    def test_invariant_under_signed_permutation(self):
        # the sparse canonical form of vectors in Z^6 with two zero
        # columns, under every signed permutation of the 6 coordinates
        rng = random.Random(3)
        vectors = [(1, -1, 0, 2, 0, 0), (0, 1, -1, 0, 0, 0), (1, 1, 1, -1, 0, 0)]
        base = _canonical([_sparse(v) for v in vectors])
        # columns (2, 0, -1), (1, 0, 1), (1, -1, -1), (0, 1, -1), zeros dropped
        assert base == ((((0, 2), (1, 1), (2, 1)), ((2, -1), (3, 1)),
                         ((0, -1), (1, 1), (2, -1), (3, -1))), 4)
        for _ in range(30):
            perm = list(range(6))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(6)]
            moved = [tuple(signs[k] * v[perm[k]] for k in range(6)) for v in vectors]
            assert _canonical([_sparse(v) for v in moved]) == base

    def test_locally_minimal(self):
        # the column count: a solution is locally minimal when it uses
        # every coordinate of the searched width
        assert _canonical([((0, 1), (1, -1)), ((1, 1),)])[1] == 2
        assert _canonical([((0, 1),), ((0, 1),)])[1] == 1
        assert _canonical([(), ()]) == (((), ()), 0)


class TestPresentation:
    def test_render(self):
        assert render_vector((1, -1, 0, 2)) == "e1-e2+2e4"
        assert render_vector((0, 0)) == "0"
        assert render_vector((-1,)) == "-e1"
        rng = random.Random(7)
        for _ in range(300):
            vec = [rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(rng.randint(1, 12))]
            assert render_vector(vec) == render_vector_densely(vec), vec

    def test_render_at_rank_a_million(self):
        # 32 witness vectors padded to rank 10**6, as embed --enumerate
        # prints them at --rank 1000000: 0.09 CPU seconds on a 2-core
        # host, where a Python loop over every coordinate took 0.8 s
        code = (
            "import time\n"
            "from knotplumb.lattice import render_vector\n"
            "narrow = [(1, 1, 1), (0, -1, 1), (-2, 0, 0, 1), (0,) * 7 + (-1,)]\n"
            "wide = [v + (0,) * (10**6 - len(v)) for v in narrow]\n"
            "start = time.process_time()\n"
            "text = [render_vector(v) for v in wide * 8]\n"
            "seconds = time.process_time() - start\n"
            "print(text == [render_vector(v) for v in narrow * 8], seconds)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        same, seconds = res.stdout.split()
        assert same == "True"
        assert float(seconds) < 0.4, seconds

    def test_json_round_trip(self):
        # the witness file's object, as the command line writes it
        vectors = ((1, -1, 0), (0, 1, -1))
        obj = json.loads(json.dumps({"rank": 3, "vectors": [list(v) for v in vectors]}))
        assert embedding_from_json_obj(obj) == vectors

    def test_json_rejects_non_integer_entries(self):
        # int() read [[1.5, -1.2]] as ((1, -1),), which verifies against [[-2]]
        assert verify_embedding([[-2]], ((1, -1),))
        for obj in (
            {"rank": 2, "vectors": [[1.5, -1.2]]},
            {"rank": 2, "vectors": [[1.0, -1]]},
            {"rank": 2, "vectors": [[True, -1]]},
            {"rank": 2, "vectors": [["1", -1]]},
            {"rank": 2, "vectors": ["1-"]},
            {"rank": 2.0, "vectors": [[1, -1]]},
            {"rank": "2", "vectors": [[1, -1]]},
        ):
            with pytest.raises(TypeError, match="must be integers"):
                embedding_from_json_obj(obj)

    def test_json_rejects_rows_not_of_the_declared_rank(self):
        # a row shorter or longer than the declared rank is refused, not padded or cut
        for obj in ({"rank": 3, "vectors": [[1, -1]]}, {"rank": 2, "vectors": [[1, -1], [0, 1, -1]]}):
            with pytest.raises(ValueError, match="vector length disagrees with declared rank"):
                embedding_from_json_obj(obj)


def family_one(p2, n):
    """The reduced tree of (2,3; p2, 9 p2 - 1) at n; family 1 at n = 9 p2^2."""
    return closed_form_two_iter(SurgerySpec(CableTower(((2, 3), (p2, 9 * p2 - 1))), n))


class TestHeavyVerticesLast:
    """Family 1's leg 2 weighs -p2 and has as many untouched fills as p2 - 1
    has partitions into squares.  Placed amid the -2's, every fill was
    tried against the rest of the tree: 884,887 nodes and 15 s at
    p2 = 199, and a MemoryError at p2 = 401 under a 2 GB address space
    (2-core host, CPython 3.11).  Placed last, it meets the few columns
    left."""

    def test_family_one_at_p2_199_found_within_twice_its_rank(self):
        t = family_one(199, 9 * 199**2)
        res = find_embedding(t)
        assert res.status is SearchStatus.FOUND and res.nodes <= 2 * len(t)
        assert verify_embedding(gram_matrix(t), res.witness)

    @pytest.mark.parametrize("m", [598, 599])
    def test_square_neighbours_at_p2_199_refuted_within_8000_nodes(self, m):
        # Indeterminate after 2 * 10**6 nodes (31-35 s each) in plain
        # depth-first order
        assert find_embedding(family_one(199, m * m), budget=8000).status is SearchStatus.NONE


class TestPlacementOrder:
    def test_light_vertices_placed_next_to_placed_ones_heavy_ones_last(self):
        # a vertex of norm at most 2 after the first of its light component
        # (its component once the heavy vertices are removed) has a placed
        # neighbour; the heavy vertices follow in ascending (norm, index)
        rng = random.Random(11)
        for _ in range(60):
            t = shuffled(random_tree(rng, max_vertices=9, weights=(-4, -1)), rng)
            g = gram_matrix(t)
            order = lattice._Searcher(*gram_rows(g), len(t)).order
            assert sorted(order) == list(range(len(g)))
            light = [v for v in order if g[v][v] >= -2]
            heavy = order[len(light):]
            assert all(g[v][v] <= -3 for v in heavy), (g, order)
            assert heavy == sorted(heavy, key=lambda v: (-g[v][v], v)), (g, order)
            for k, v in enumerate(light):
                # v's light component, grown through light vertices
                component, todo = {v}, [v]
                while todo:
                    u = todo.pop()
                    for w in light:
                        if g[u][w] and w not in component:
                            component.add(w)
                            todo.append(w)
                first = not component.intersection(light[:k])
                assert first or any(g[v][w] for w in light[:k]), (g, order)

    def test_depth_first_ascending(self):
        # star with centre 2 (leaves 0, 1, 3), then a path 4-6-5
        g = [[-2 if i == j else 0 for j in range(7)] for i in range(7)]
        for a, b in ((2, 0), (2, 1), (2, 3), (4, 6), (6, 5)):
            g[a][b] = g[b][a] = 1
        assert lattice._Searcher(*gram_rows(g), len(g)).order == [0, 2, 1, 3, 4, 6, 5]
        # the same with a -4 centre and a -3 at 6: the light ones keep
        # their depth-first order, and the heavier of the two comes last
        g[2][2], g[6][6] = -4, -3
        assert lattice._Searcher(*gram_rows(g), len(g)).order == [0, 1, 3, 4, 5, 6, 2]

    def test_closed_form_light_in_construction_order_heavy_last(self):
        # (2,3;2,17;36): the -3 torsos 0 and 4 go after the six -2's
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        t = closed_form_two_iter(spec)
        order = lattice._Searcher(*gram_rows(gram_matrix(t)), len(t)).order
        assert order == [1, 2, 3, 5, 6, 7, 0, 4]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_found_witnesses_always_verify(seed):
    rng = random.Random(seed)
    t = random_tree(rng, max_vertices=6, weights=(-5, -2))
    g = gram_matrix(t)
    if not is_negative_definite(g):
        return
    res = find_embedding(t)
    if res.status is SearchStatus.FOUND:
        assert verify_embedding(g, res.witness)


@st.composite
def negative_definite_trees(draw, max_vertices=6):
    """A random negative-definite tree, weights -5..-1."""
    n = draw(st.integers(1, max_vertices))
    weights = draw(st.lists(st.integers(-5, -1), min_size=n, max_size=n))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    t = WeightedTree(dict(enumerate(weights)), edges)
    assume(is_negative_definite(gram_matrix(t)))
    return t


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verdict_and_class_count_invariant_under_relabelling(data):
    g = data.draw(negative_definite_trees())
    h = relabel(g, dict(enumerate(data.draw(st.permutations(range(len(g)))))))
    assert find_embedding(h).status is find_embedding(g).status
    assert len(enumerate_embeddings(h)) == len(enumerate_embeddings(g))
