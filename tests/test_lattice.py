import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import knotplumb
from knotplumb import lattice
from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter
from knotplumb.classify import desk_range_tuples
from knotplumb.lattice import (
    SearchStatus,
    embedding_from_json_obj,
    embedding_to_json_obj,
    enumerate_embeddings,
    find_embedding,
    is_locally_minimal,
    matrix_canonical_form,
    render_vector,
    verify_embedding,
)
from knotplumb.plumbing import WeightedTree, det_exact, gram_matrix, is_negative_definite

from oracles import (
    canonical_candidates,
    column_classes,
    naive_find_embedding,
    random_tree,
    square_decompositions,
)


def chain_gram(k, weight=-2):
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = weight
        if i + 1 < k:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def relabel(gram, perm):
    """The Gram matrix of the same graph with vertex i renamed perm.index(i)."""
    return [[gram[a][b] for b in perm] for a in perm]


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
        assert verify_embedding(chain_gram(3), vectors)

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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_embedding([[-2]], [(1, -1), (0, 1)])


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
        assert find_embedding(chain_gram(k), rank=k + 1).status is SearchStatus.FOUND

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rank_k_only_at_three(self, k):
        res = find_embedding(chain_gram(k), rank=k)
        expected = SearchStatus.FOUND if k == 3 else SearchStatus.NONE
        assert res.status is expected

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6])
    def test_unique_class_into_rank_k_plus_one(self, k):
        classes = enumerate_embeddings(chain_gram(k), rank=k + 1, locally_minimal_only=True)
        assert len(classes) == 1

    def test_three_chain_classes(self):
        assert len(enumerate_embeddings(chain_gram(3), rank=3)) == 1
        # into rank 4, the staircase is the only locally minimal class;
        # dropping local minimality adds the special embedding
        assert len(enumerate_embeddings(chain_gram(3), rank=4, locally_minimal_only=True)) == 1
        assert len(enumerate_embeddings(chain_gram(3), rank=4)) == 2


class TestDisjointUnions:
    def test_two_singletons_rank_two(self):
        classes = enumerate_embeddings(block_diag([[-2]], [[-2]]), rank=2)
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
            gram = block_diag(*[chain_gram(k) for k in lengths])
            got = len(enumerate_embeddings(gram, rank=sum(lengths)))
            assert got == catalogue_count(lengths, sum(lengths)), lengths


class TestFindEmbedding:
    def test_worked_example_found(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        res = find_embedding(gram_matrix(closed_form_two_iter(spec)))
        assert res.status is SearchStatus.FOUND
        assert verify_embedding(gram_matrix(closed_form_two_iter(spec)), res.witness)

    def test_non_family_none(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 38)
        res = find_embedding(gram_matrix(closed_form_two_iter(spec)))
        assert res.status is SearchStatus.NONE

    def test_budget_indeterminate(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 38)
        res = find_embedding(gram_matrix(closed_form_two_iter(spec)), budget=3)
        assert res.status is SearchStatus.INDETERMINATE
        assert res.nodes > 3 >= res.nodes - 1

    @pytest.mark.parametrize(
        "pairs,n,budget,status",
        [
            # rank-26 chain T(2,3;2,53): refuted after exactly 29 nodes
            (((2, 3), (2, 53)), 108, 28, SearchStatus.INDETERMINATE),
            (((2, 3), (2, 53)), 108, 29, SearchStatus.NONE),
            # (2,3;2,17;36): the first witness completes at node 9
            (((2, 3), (2, 17)), 36, 8, SearchStatus.INDETERMINATE),
            (((2, 3), (2, 17)), 36, 9, SearchStatus.FOUND),
        ],
    )
    def test_budget_boundary(self, pairs, n, budget, status):
        gram = gram_matrix(closed_form_two_iter(SurgerySpec(CableTower(pairs), n)))
        res = find_embedding(gram, budget=budget)
        assert res.status is status
        # a search that runs out stops on the node that exceeds the budget
        assert res.nodes == (budget + 1 if status is SearchStatus.INDETERMINATE else budget)
        assert (res.witness is not None) == (status is SearchStatus.FOUND)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            find_embedding([[-2, 1], [1, 0]])
        with pytest.raises(ValueError):
            find_embedding([[2]])

    def test_rejects_ragged_gram(self):
        for gram in ([[-2, 1], [1]], [[-2], [1, -2]], [[-2, 1, 0], [1, -2]]):
            with pytest.raises(ValueError, match="not square"):
                find_embedding(gram)

    def test_verdict_invariant_under_relabelling(self):
        # a relabelled matrix is placed in a different order, so this also
        # checks that the verdict does not depend on the placement order
        rng = random.Random(5)
        for _ in range(25):
            t = random_tree(rng, max_vertices=6, weights=(-4, -2))
            g = gram_matrix(t)
            if not is_negative_definite(g):
                continue
            status = find_embedding(g).status
            for _ in range(3):
                perm = list(range(len(g)))
                rng.shuffle(perm)
                assert find_embedding(relabel(g, perm)).status is status, perm

    def test_chain_refute_stays_small_under_relabelling(self):
        # rank-26 refute of T(2,3;2,53), n = 108; depth-first placement
        # needs 26-71 nodes under these labellings, input order 114-3865
        spec = SurgerySpec(CableTower(((2, 3), (2, 53))), 108)
        g = gram_matrix(closed_form_two_iter(spec))
        rank = len(g)
        assert rank == 26
        for seed in range(20):
            perm = list(range(rank))
            random.Random(seed).shuffle(perm)
            res = find_embedding(relabel(g, perm), budget=4 * rank)
            assert res.status is SearchStatus.NONE, (seed, res.nodes)

    def test_soundness_check_survives_optimize(self):
        # the witness re-verification must not be an assert, which -O strips
        code = (
            "from knotplumb import lattice\n"
            "lattice.verify_embedding = lambda gram, vectors: False\n"
            "try:\n"
            "    lattice.find_embedding([[-1]])\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('unverified witness accepted')\n"
        )
        res = run_child(code, "-O")
        assert res.returncode == 0, res.stdout + res.stderr

    def test_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            find_embedding(chain_gram(2), rank=0)
        with pytest.raises(ValueError):
            enumerate_embeddings(chain_gram(2), rank=0)

    def test_rejects_non_integer_rank(self):
        # int() searched rank 2 for 2.9, and reported NONE where rank 3
        # finds a witness; True searched rank 1
        g = [[-2, 1], [1, -2]]
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
            g = gram_matrix(t)
            if not is_negative_definite(g) or len(g) < 2:
                continue
            n = len(g)
            if find_embedding(g, rank=n).status is SearchStatus.NONE:
                assert find_embedding(g, rank=n - 1).status is SearchStatus.NONE


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
            fast = find_embedding(g)
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
            assert find_embedding(g).status is SearchStatus.NONE, (g, det)

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
            fast = find_embedding(g)
            slow = naive_find_embedding(g, 5)
            assert (fast.status is SearchStatus.FOUND) == (slow is not None)

    def test_oversized_target_rank(self):
        res = find_embedding(chain_gram(4), rank=6)
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
    read from the Gram matrix."""
    vertex = searcher.order[depth]
    placed = [dense(p, searcher.rank) for p in searcher.placed]
    targets = [-searcher.gram[vertex][searcher.order[j]] for j in range(depth)]
    return placed, -searcher.gram[vertex][vertex], targets


def search_partition(searcher):
    """The searcher's incremental column classes as column_classes lists them."""
    depth = len(searcher.placed)
    out = []
    for cls in searcher._classes():
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
    incremental column classes equal the from-scratch grouping; returns
    the list of class counts."""
    real = lattice._Searcher._candidates
    counts = []

    def checked(self, depth):
        want = column_classes(node_inputs(self, depth)[0], self.rank)
        assert search_partition(self) == want, depth
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
        # canonical form, in the search's order
        calls = check_candidates_against_oracle(monkeypatch, set())
        rng = random.Random(17)
        graphs = 0
        while graphs < 150:
            t = random_tree(rng, max_vertices=6, weights=(-5, -1))
            g = gram_matrix(t)
            if not is_negative_definite(g):
                continue
            graphs += 1
            enumerate_embeddings(g)
            find_embedding(g, rank=len(g) + 1)
        assert len(calls) > 1000 and sum(calls) > 1000

    def test_norm_two_lookup_matches_the_enumeration(self, monkeypatch):
        # mostly -2 trees, then the same with a cycle, so that most calls
        # take the norm-2 lookup, and every case of that lookup must give
        # the enumeration's list
        cases = set()
        calls = check_candidates_against_oracle(monkeypatch, cases)
        rng = random.Random(29)
        graphs = 0
        while graphs < 100:
            g = (mostly_minus_two_gram if graphs < 60 else cyclic_minus_two_gram)(rng)
            if not is_negative_definite(g):
                continue
            graphs += 1
            for rank in (len(g), len(g) + 1, len(g) + 2):
                find_embedding(g, rank=rank)
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
            find_embedding(gram_matrix(closed_form_two_iter(spec)))
        assert len(counts) == 26017
        rng = random.Random(41)
        graphs = 0
        while graphs < 200:
            if graphs % 2:
                g = cyclic_minus_two_gram(rng)
            else:
                g = gram_matrix(random_tree(rng, max_vertices=8, weights=(-4, -1)))
            if not is_negative_definite(g):
                continue
            graphs += 1
            enumerate_embeddings(g)
            for rank in (len(g) + 1, len(g) + 2):
                find_embedding(g, rank=rank)
        assert len(counts) - 26017 > 3000 and max(counts) > 20

    @pytest.mark.parametrize(
        "k2, n, rank, nodes",
        [(53, 108, 26, 29), (103, 208, 51, 54), (203, 408, 101, 104),
         (403, 808, 201, 204), (803, 1608, 401, 404)],
    )
    def test_chain_refute_node_counts(self, k2, n, rank, nodes):
        # node counts do not depend on the machine; a change to the
        # candidate generator or the placement order that moves them is
        # a change of the search, not of its speed
        spec = SurgerySpec(CableTower(((2, 3), (2, k2))), n)
        g = gram_matrix(closed_form_two_iter(spec))
        assert len(g) == rank
        res = find_embedding(g)
        assert res.status is SearchStatus.NONE
        assert res.nodes == nodes


def e8_gram():
    """The E8 plumbing: a -2 tree, T-shaped with arms of 1, 2 and 4 vertices."""
    edges = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7)]
    return gram_matrix(WeightedTree({v: -2 for v in range(8)}, edges))


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
        star = [[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]]
        for g in ([[-2]], [[-3]], [[-4]], chain_gram(2), chain_gram(3), chain_gram(4), star,
                  [[-3, 1], [1, -2]], block_diag([[-2]], [[-3]]), block_diag([[-2]], [[-2]])):
            trace = -sum(g[i][i] for i in range(len(g)))
            for rank in (trace + 1, trace + 2):
                find_embedding(g, rank=rank)
                enumerate_embeddings(g, rank=rank)
        assert len(calls) > 80 and sum(calls) > 100

    def test_e8_at_rank_a_million(self):
        # E8 embeds in no (Z^r, -Id); at rank 10**6 the search costs what
        # it costs at rank 16 = -trace, in nodes and in memory
        g = e8_gram()
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
        res = find_embedding(chain_gram(3), rank=10**5)
        assert res.status is SearchStatus.FOUND and res.nodes == 3
        staircase = ((1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1))
        assert res.witness == tuple(v + (0,) * (10**5 - 4) for v in staircase)

    def test_enumeration_is_padded(self):
        # chain of 2 (-trace 4): the staircase, plus the class that
        # leaves a coordinate free, each with zero columns appended
        got = enumerate_embeddings(chain_gram(2), rank=7)
        assert got == [((1, 1, 0) + (0,) * 4, (0, -1, 1) + (0,) * 4)]
        assert enumerate_embeddings(chain_gram(2), rank=7, locally_minimal_only=True) == []


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
            "from knotplumb.plumbing import gram_matrix\n"
            "spec = SurgerySpec(CableTower(((2, 3), (2, 203))), 408)\n"
            "g = gram_matrix(closed_form_two_iter(spec))\n"
            "sys.setrecursionlimit(60)\n"
            "res = find_embedding(g)\n"
            "print(len(g), res.status.value, res.nodes)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["101", "none", "104"]

    def test_wide_untouched_class(self):
        res = find_embedding([[-3]], rank=1500)
        assert res.status is SearchStatus.FOUND
        assert res.witness == ((1, 1, 1) + (0,) * 1497,)

    def test_rank_1001_chain_refutes(self):
        # T(2,3; 2,2003), n = 4008: its first vertex has norm 3 and meets
        # one 1001-wide untouched class, and the search goes 1001 deep,
        # under a recursion limit far below that
        code = (
            "import sys\n"
            "from knotplumb.cabling import CableTower, SurgerySpec, closed_form_two_iter\n"
            "from knotplumb.lattice import find_embedding\n"
            "from knotplumb.plumbing import gram_matrix\n"
            "spec = SurgerySpec(CableTower(((2, 3), (2, 2003))), 4008)\n"
            "g = gram_matrix(closed_form_two_iter(spec))\n"
            "sys.setrecursionlimit(60)\n"
            "res = find_embedding(g)\n"
            "print(len(g), res.status.value, res.nodes)\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1001", "none", "1004"]

    def test_sorted_tuples_order(self):
        # descending lexicographic, exactly the nonincreasing tuples in range
        for size, budget, lo, hi in itertools.product(range(5), range(7), (-2, -1, 0), (0, 1, 2)):
            want = sorted(
                (t for t in itertools.product(range(lo, hi + 1), repeat=size)
                 if list(t) == sorted(t, reverse=True) and sum(x * x for x in t) <= budget),
                reverse=True,
            )
            got = list(lattice._sorted_tuples(size, budget, lo, hi))
            assert [t for t, _, _ in got] == want, (size, budget, lo, hi)
            assert all(s == sum(t) and q == sum(x * x for x in t) for t, s, q in got)

    def test_sorted_tuples_long_zero_run(self):
        # a touched class 2000 wide: zeros before the negative entries
        got = [t for t, _, _ in lattice._sorted_tuples(2000, 2, -1, 1)]
        zeros = (0,) * 1998
        assert got == [
            (1, 1) + zeros,
            (1, 0) + zeros,
            (1,) + zeros + (-1,),
            (0, 0) + zeros,
            zeros + (0, -1),
            zeros + (-1, -1),
        ]


class TestCanonicalForm:
    def test_invariant_under_signed_permutation(self):
        rng = random.Random(3)
        vectors = [(1, -1, 0, 2), (0, 1, -1, 0), (1, 1, 1, -1)]
        base = matrix_canonical_form(vectors)
        for _ in range(30):
            perm = list(range(4))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(4)]
            moved = [tuple(signs[k] * v[perm[k]] for k in range(4)) for v in vectors]
            assert matrix_canonical_form(moved) == base

    def test_locally_minimal(self):
        assert is_locally_minimal([(1, -1), (0, 1)])
        assert not is_locally_minimal([(1, 0), (1, 0)])


class TestPresentation:
    def test_render(self):
        assert render_vector((1, -1, 0, 2)) == "e1-e2+2e4"
        assert render_vector((0, 0)) == "0"
        assert render_vector((-1,)) == "-e1"

    def test_json_round_trip(self):
        vectors = ((1, -1, 0), (0, 1, -1))
        obj = embedding_to_json_obj(vectors)
        assert obj["rank"] == 3
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


class TestPlacementOrder:
    def test_each_vertex_after_the_first_has_a_placed_neighbour(self):
        rng = random.Random(11)
        for _ in range(30):
            g = gram_matrix(random_tree(rng, max_vertices=9, weights=(-4, -2)))
            perm = list(range(len(g)))
            rng.shuffle(perm)
            g = relabel(g, perm)
            order = lattice._Searcher(g, len(g)).order
            assert sorted(order) == list(range(len(g)))
            assert order[0] == 0
            for k in range(1, len(order)):
                assert any(g[order[k]][w] != 0 for w in order[:k]), (g, order)

    def test_depth_first_ascending(self):
        # star with centre 2 (leaves 0, 1, 3), then a path 4-6-5
        g = [[-2 if i == j else 0 for j in range(7)] for i in range(7)]
        for a, b in ((2, 0), (2, 1), (2, 3), (4, 6), (6, 5)):
            g[a][b] = g[b][a] = 1
        assert lattice._Searcher(g, len(g)).order == [0, 2, 1, 3, 4, 6, 5]

    def test_identity_on_closed_form(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        g = gram_matrix(closed_form_two_iter(spec))
        assert lattice._Searcher(g, len(g)).order == list(range(len(g)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_found_witnesses_always_verify(seed):
    rng = random.Random(seed)
    t = random_tree(rng, max_vertices=6, weights=(-5, -2))
    g = gram_matrix(t)
    if not is_negative_definite(g):
        return
    res = find_embedding(g)
    if res.status is SearchStatus.FOUND:
        assert verify_embedding(g, res.witness)


@st.composite
def negative_definite_grams(draw, max_vertices=6):
    """Gram matrix of a random negative-definite tree, weights -5..-1."""
    n = draw(st.integers(1, max_vertices))
    weights = draw(st.lists(st.integers(-5, -1), min_size=n, max_size=n))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    g = gram_matrix(WeightedTree(dict(enumerate(weights)), edges))
    assume(is_negative_definite(g))
    return g


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verdict_and_class_count_invariant_under_relabelling(data):
    g = data.draw(negative_definite_grams())
    h = relabel(g, data.draw(st.permutations(range(len(g)))))
    assert find_embedding(h).status is find_embedding(g).status
    assert len(enumerate_embeddings(h)) == len(enumerate_embeddings(g))
