import inspect
import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from knotplumb import plumbing
from knotplumb.cabling import CableTower, SurgerySpec, raw_plumbing, reduced_plumbing
from knotplumb.classify import family_tuple
from knotplumb.lattice import verify_embedding
from knotplumb.plumbing import (
    InvalidMoveError,
    WeightedTree,
    absorb_zero,
    are_isomorphic,
    blow_down,
    blow_up,
    canonical_form,
    det_exact,
    flatten_positive_leaf,
    form_invariants,
    gram_matrix,
    is_negative_definite,
    reduce_tree,
)

from oracles import (
    bareiss_det,
    brute_force_isomorphic,
    centroid_isomorphic,
    cofactor_det,
    fraction_forest_elimination,
    fresh_id,
    leading_principal_minors,
    minors_negative_definite,
    random_tree,
    reference_reduce_tree,
    reference_sites,
    relabel,
    signature,
)
import oracles
from test_lattice import run_child


THREE_ITERATION_SPECS = [
    SurgerySpec(CableTower(pairs), n)
    for pairs, n in (
        (((2, 3), (2, 17), (2, 69)), 140),
        (((3, 4), (2, 25), (2, 101)), 205),
        (((2, 3), (3, 19), (2, 115)), 233),
    )
]


def verify_one_vector_per_row(matrix):
    """verify_embedding on the matrix and one zero vector per row: it reads
    the matrix as det_exact does, but reads a cycle in its support where
    det_exact rejects it."""
    return verify_embedding(matrix, [(0,)] * len(matrix))


# every reader of a matrix, which must reject a malformed one alike
MATRIX_CHECKS = [det_exact, is_negative_definite, verify_one_vector_per_row]


def path_tree(weights):
    ids = list(range(len(weights)))
    return WeightedTree(dict(zip(ids, weights)), list(zip(ids, ids[1:])))


def random_tree_of_size(rng, n, weights=(-3, -2)):
    """A random tree on n vertices with ids 0..n-1, each vertex after the
    first joined to an earlier one."""
    return WeightedTree(
        {v: rng.randint(*weights) for v in range(n)}, [(v, rng.randrange(v)) for v in range(1, n)]
    )


def caterpillar(spine, ones):
    """A -2 path 0..spine-1 with one -2 leg at each vertex, except at the
    vertices in ones, which weigh -1 and have valence 2: blow-down sites."""
    weights = {v: -1 if v in ones else -2 for v in range(spine)}
    edges = [(v, v + 1) for v in range(spine - 1)]
    for v in range(spine):
        if v not in ones:
            leg = len(weights)
            weights[leg] = -2
            edges.append((v, leg))
    return WeightedTree(weights, edges)


def spined_sites(a, b, middle):
    """Two blow-down sites joined by a -2 path of middle vertices, with a
    spine of a -3's beyond the first and one of b -3's beyond the second,
    each spine vertex carrying a -2 leg.  Rooted at a site, and again at
    each spine vertex, the -3 child sorts first and the -2 child second,
    so where a != b the sites' encodings first differ where the shorter
    spine ends, inside the first child pair at every level above it."""
    weights = {0: -1, 1: -1}
    edges = []
    prev = 0
    for _ in range(middle):
        weights[len(weights)] = -2
        edges.append((prev, len(weights) - 1))
        prev = len(weights) - 1
    edges.append((prev, 1))
    for site, length in ((0, a), (1, b)):
        prev = site
        for _ in range(length):
            spine, leg = len(weights), len(weights) + 1
            weights[spine], weights[leg] = -3, -2
            edges += [(prev, spine), (spine, leg)]
            prev = spine
    return WeightedTree(weights, edges)


def spider(center, *legs):
    """A center vertex of the given weight (id 0) with one path per leg,
    each leg's weights listed outward from the center."""
    weights, edges = {0: center}, []
    for leg in legs:
        prev = 0
        for w in leg:
            weights[len(weights)] = w
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return WeightedTree(weights, edges)


def run_tree(rng, hubs=5):
    """Hubs of weight -3 to -12 joined into a tree by -2 paths, most with
    a -1 at the end next to a hub, so that each blow-down leaves a -1 one
    vertex further along the path while it raises the hub; some hubs
    carry a -1 leg or a positive leaf."""
    weights = {h: rng.randint(-12, -3) for h in range(hubs)}
    edges = []

    def path(a, b, ws):
        prev = a
        for w in ws:
            weights[len(weights)] = w
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
        if b is not None:
            edges.append((prev, b))

    for h in range(1, hubs):
        ws = [-2] * rng.randint(0, 12)
        ws.insert(rng.choice((0, 0, 0, len(ws) // 2)), -1)
        path(rng.randrange(h), h, ws)
    for _ in range(rng.randint(0, 3)):
        path(rng.randrange(hubs), None, rng.choice(([-1, -2, -2, 3], [-1, -2, -4], [-1] + [-2] * 6)))
    return WeightedTree(weights, edges)


def binary_tree(depth, ones):
    """A complete binary -2 tree of the given depth (vertex i has children
    2i + 1 and 2i + 2), with a -1 dividing the edge above each vertex in
    ones: blow-down sites."""
    n = 2 ** (depth + 1) - 1
    weights = dict.fromkeys(range(n), -2)
    edges = []
    for c in range(1, n):
        parent = (c - 1) // 2
        if c in ones:
            mid = len(weights)
            weights[mid] = -1
            edges += [(parent, mid), (mid, c)]
        else:
            edges.append((parent, c))
    return WeightedTree(weights, edges)


class TestWeightedTree:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedTree({}, [])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            WeightedTree({0: -2, 1: -2, 2: -2}, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            WeightedTree({0: -2, 1: -2, 2: -2}, [(0, 1)])

    def test_rejects_disconnected_with_tree_edge_count(self):
        # a triangle plus an isolated vertex has n - 1 edges and no loop or
        # duplicate, so only the connectivity walk rejects it; the walk
        # starts at the first vertex given, so with the isolated vertex
        # last it closes the triangle, and first it reaches that vertex alone
        for order in ([0, 1, 2, 3], [3, 0, 1, 2]):
            with pytest.raises(ValueError, match="not connected"):
                WeightedTree([(v, -2) for v in order], [(0, 1), (1, 2), (0, 2)])

    def test_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            WeightedTree({0: -2}, [(0, 1)])

    def test_rejects_bool(self):
        # bool is an int subclass: JSON true must not read as 1
        for weights in ({0: True}, {True: -2}):
            with pytest.raises(TypeError):
                WeightedTree(weights, [])
        text = '{"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], '
        with pytest.raises(TypeError):
            WeightedTree.from_json(text + '"edges": [[0, true]]}')

    def test_from_json_rejects_duplicate_id(self):
        # a dict keyed by id would keep one of the two vertices silently
        text = '{"vertices": [{"id": 0, "weight": -2}, {"id": 0, "weight": -3}], "edges": []}'
        with pytest.raises(ValueError, match="duplicate vertex id 0"):
            WeightedTree.from_json(text)

    def test_rejects_duplicate_id_given_as_pairs(self):
        # dict(pairs) would keep {0: -3} and drop the first vertex
        with pytest.raises(ValueError, match="duplicate vertex id 0"):
            WeightedTree([(0, -2), (0, -3)], [])
        with pytest.raises(ValueError, match="duplicate vertex id 1"):
            WeightedTree([(0, -2), (1, -2), (1, -2)], [(0, 1)])
        assert WeightedTree([(0, -2), (1, -3)], [(0, 1)]) == path_tree([-2, -3])

    @pytest.mark.parametrize("end", [True, 1.0])
    def test_rejects_non_integer_edge_ends(self, end):
        # True and 1.0 both find vertex 1 in a dict and were stored as
        # edge ends: to_json then wrote [0, true], which from_json rejects
        with pytest.raises(TypeError, match="edge ends must be integer vertex ids"):
            WeightedTree({0: -2, 1: -2}, [(0, end)])
        text = json.dumps({
            "vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
            "edges": [[0, end]],
        })
        with pytest.raises(TypeError, match="edge ends must be integer vertex ids"):
            WeightedTree.from_json(text)

    def test_json_round_trip(self):
        t = path_tree([-2, -3, -5])
        assert WeightedTree.from_json(t.to_json()) == t
        obj = json.loads(t.to_json())
        assert {"id": 1, "weight": -3} in obj["vertices"]

    def test_dot_contains_labels(self):
        t = path_tree([-2, -1])
        dot = t.to_dot(roles={0: "torso1"})
        assert 'label="-2"' in dot and 'role="torso1"' in dot

    def test_json_is_the_reference_encoding_byte_for_byte(self):
        from knotplumb.cabling import closed_form_two_iter

        trees = [WeightedTree({0: -2}, []), WeightedTree({-7: 10**30}, [])]
        for pairs, n in (
            (((2, 3),), 7), (((3, 7),), 23), (((2, 3), (2, 17)), 36), (((2, 3), (2, 13)), 30),
            (((3, 4), (2, 25)), 53), (((2, 3), (3, 20)), 65), (((5, 6), (2, 61)), 130),
            *((s.knot.pairs, s.n) for s in THREE_ITERATION_SPECS),
        ):
            spec = SurgerySpec(CableTower(pairs), n)
            trees += [raw_plumbing(spec), reduced_plumbing(spec)]
            if len(pairs) == 2:
                trees.append(closed_form_two_iter(spec))
        rng = random.Random(41)
        for _ in range(300):
            t = random_tree(rng, max_vertices=15, weights=(-10**20, 10**20))
            ids = rng.sample(range(-10**15, 10**15), len(t))
            trees.append(relabel(t, dict(zip(t.vertices(), ids))))
        for t in trees:
            text = t.to_json()
            assert text == oracles.reference_tree_json(t)
            assert WeightedTree.from_json(text) == t


class TestGram:
    def test_single_vertex(self):
        assert gram_matrix(WeightedTree({0: -2}, [])) == [[-2]]

    def test_path_of_three(self):
        g = gram_matrix(path_tree([-2, -2, -2]))
        assert g == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]

    def test_centipede_diagonal(self):
        from knotplumb.cabling import closed_form_two_iter

        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        g = gram_matrix(closed_form_two_iter(spec))
        assert [g[i][i] for i in range(8)] == [-3, -2, -2, -2, -3, -2, -2, -2]


class TestDet:
    def test_single(self):
        assert det_exact([[-2]]) == -2

    def test_empty(self):
        assert det_exact([]) == 1

    @pytest.mark.parametrize("k", range(1, 11))
    def test_minus_two_chains(self, k):
        g = gram_matrix(path_tree([-2] * k))
        assert det_exact(g) == cofactor_det(g)
        assert abs(det_exact(g)) == k + 1

    def test_matches_cofactor_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(60):
            g = gram_matrix(random_tree(rng, max_vertices=7))
            assert det_exact(g) == cofactor_det(g)

    def test_reduced_graph_det_is_surgery_coefficient(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        assert abs(det_exact(gram_matrix(reduced_plumbing(spec)))) == 36


def random_tower_spec(rng, iterations):
    """An algebraic tower of multiplicities 2 and 3, each coefficient
    among the few smallest that keep it algebraic, with N in 1..40."""
    pairs = []
    for _ in range(iterations):
        p = rng.choice((2, 3))
        low = pairs[-1][0] * p * pairs[-1][1] + 1 if pairs else p + 1
        a = [x for x in range(low, low + 2 * p) if gcd(x, p) == 1][rng.randrange(2)]
        pairs.append((p, a))
    return SurgerySpec(CableTower(tuple(pairs)), p * a + rng.randint(1, 40))


def relabel_matrix(m, perm):
    return [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at : at + len(b)] = row
        at += len(b)
    return m


def assert_matches_oracles(m):
    assert det_exact(m) == bareiss_det(m)
    assert is_negative_definite(m) == minors_negative_definite(m)
    if len(m) <= 8:
        assert det_exact(m) == cofactor_det(m)


class TestForestElimination:
    """det_exact and is_negative_definite on forest-supported matrices go
    through leaf elimination; the Bareiss and leading-minor oracles pin
    their results, including zero pivots and indefinite forms."""

    def test_random_trees(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(1500):
            g = gram_matrix(random_tree(rng, max_vertices=10))
            assert_matches_oracles(g)
            outcomes.add((det_exact(g) == 0, is_negative_definite(g)))
        # singular, indefinite-but-nonsingular and definite forms all occur
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_off_diagonal_entries_other_than_one(self):
        rng = random.Random(29)
        for _ in range(500):
            g = gram_matrix(random_tree(rng, max_vertices=9))
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    if g[i][j]:
                        g[i][j] = g[j][i] = rng.choice((-3, -2, -1, 2, 3))
            assert_matches_oracles(g)

    def test_relabelled_block_diagonal_forests(self):
        rng = random.Random(31)
        for _ in range(300):
            k = rng.randint(2, 3)
            blocks = [gram_matrix(random_tree(rng, max_vertices=5)) for _ in range(k)]
            m = block_diagonal(*blocks)
            perm = list(range(len(m)))
            rng.shuffle(perm)
            m = relabel_matrix(m, perm)
            assert_matches_oracles(m)

    def test_isolated_zero_vertices(self):
        assert det_exact([[0, 0], [0, -2]]) == 0
        assert not is_negative_definite([[0, 0], [0, -2]])
        m = block_diagonal([[0]], gram_matrix(path_tree([-2, -2])), [[-3]])
        assert det_exact(m) == 0 and not is_negative_definite(m)
        assert_matches_oracles(m)

    def test_zero_pivot_leaf(self):
        # a 0-leaf on a -1: det = -a^2 * det(rest), not definite
        m = gram_matrix(path_tree([0, -1, -2, -2]))
        assert det_exact(m) == -3 == bareiss_det(m)
        assert not is_negative_definite(m)

    def test_cycle_supported_matrices(self):
        # no plumbing has these forms: a cycle in the support is rejected,
        # whether the form is definite, singular or has a zero leaf;
        # verify_embedding reads them, and a witness of one verifies
        triangle = [[-3, 1, 1], [1, -3, 1], [1, 1, -3]]
        singular = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
        tailed = [[0, 1, 0, 0], [1, -3, 1, 1], [0, 1, -3, 1], [0, 1, 1, -3]]
        for m in (triangle, singular, tailed):
            with pytest.raises(ValueError, match="cycle"):
                det_exact(m)
            with pytest.raises(ValueError, match="cycle"):
                is_negative_definite(m)
            assert verify_one_vector_per_row(m) is False
        assert verify_embedding(singular, [(1, -1, 0), (0, 1, -1), (-1, 0, 1)])

    def test_asymmetric_input(self):
        m = [[-2, 1, 0], [0, -2, 1], [0, 1, -2]]
        assert bareiss_det(m) == -6
        for check in MATRIX_CHECKS:
            with pytest.raises(ValueError, match="not symmetric"):
                check(m)

    def test_rejects_non_square(self):
        # unchecked, Bareiss reads [[1, 2]] as det 1 and the second as
        # negative definite
        for m in ([[1, 2]], [[-2, 1, 0], [1, -2]], [[-2], [1]]):
            for check in MATRIX_CHECKS:
                with pytest.raises(ValueError, match="not square"):
                    check(m)

    def test_long_chain_is_linear(self, monkeypatch):
        # integer continuants only: no Fraction is built
        def no_fractions(*args):
            raise AssertionError("leaf elimination built a Fraction")

        monkeypatch.setattr(plumbing, "Fraction", no_fractions, raising=False)
        g = gram_matrix(path_tree([-2] * 1001))
        assert det_exact(g) == -1002
        assert is_negative_definite(g)

    def test_rejects_non_integer_entries(self):
        # int() would truncate these: det [[0.5]] to 0, and
        # det [[-2.7, 1], [1, -2]] (4.4) to 4
        cases = []
        for bad in (0.5, -2.7, 1.0, Fraction(1, 2), Fraction(-3), True):
            cases += [[[bad]], [[bad, 1], [1, -2]], [[-2, bad], [bad, -2]]]
        for m in cases:
            for check in MATRIX_CHECKS:
                with pytest.raises(TypeError):
                    check(m)
        # a zero entry is never read, so a non-int one is no TypeError; on
        # a cycle (which verify_embedding reads), or where it breaks the
        # symmetry, the shape is rejected
        for zero in (0.0, Fraction(0), False):
            cycle = [[-3, 1, 1, zero], [1, -3, 1, 0], [1, 1, -3, 0], [zero, 0, 0, -2]]
            for m, shape in ((cycle, "cycle"), ([[-2, 1], [zero, -2]], "not symmetric")):
                for check in MATRIX_CHECKS:
                    if check is verify_one_vector_per_row and shape == "cycle":
                        assert check(m) is False
                        continue
                    with pytest.raises(ValueError, match=shape):
                        check(m)

    # each error of the matrix checks, with its type and whole message,
    # where two faults meet: not square comes first, then a non-int entry,
    # then an asymmetry, then a cycle, wherever in the matrix each lies;
    # verify_embedding reads the cycle
    @pytest.mark.parametrize("check", MATRIX_CHECKS)
    @pytest.mark.parametrize("matrix, error, message", [
        ([[-2.5, 1, 0], [1, -2, 0], [0, 0]], ValueError, "matrix is not square"),
        ([[-2, 1], [1.0]], ValueError, "matrix is not square"),
        ([[-2, 1, 0], [1, -2, 0, 0], [0.5, 0, -2]], ValueError, "matrix is not square"),
        ([[-2, 1, 0], [0, -2, 1], [0, 1, -2.0]], TypeError, "matrix entries must be integers"),
        ([[-2.0, 1, 0], [1, -2, 1], [0, 0, -2]], TypeError, "matrix entries must be integers"),
        ([[-2, 2, 0], [1, -2, 1], [0, Fraction(1), -2]], TypeError, "matrix entries must be integers"),
        ([[-2, 1], [0, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, 0, 0], [0, -2, 1], [0, 0, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, 0], [1, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, 0, 0], [0, -2, 0], [1, 0, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, 1], [2, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, 1, 0], [1, -2, -1], [0, 1, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, True], [True, -2]], TypeError, "matrix entries must be integers"),
        ([[-2, True], [1, -2]], TypeError, "matrix entries must be integers"),
        ([[-2, 0], [True, -2]], TypeError, "matrix entries must be integers"),
        ([[-3, 1, 1], [1, -3, 1], [1, 1, -3]], ValueError, "matrix support has a cycle"),
        ([[-3, 1, 1], [1, -3, 1], [1, 2, -3]], ValueError, "matrix is not symmetric"),
        ([[-3, 1, 1], [1, -3, 1], [1, 1, -3.0]], TypeError, "matrix entries must be integers"),
        # verify_embedding read only the entries on and above the diagonal,
        # and took each of these, and [[-2, True], [True, -2]], for
        # [[-2, 1], [1, -2]]
        ([[-2, 1], [7, -2]], ValueError, "matrix is not symmetric"),
        ([[-2, 1, 5], [1, -2]], ValueError, "matrix is not square"),
        ([[-2, 1.0], [1, -2]], TypeError, "matrix entries must be integers"),
    ])
    def test_errors_and_their_precedence(self, check, matrix, error, message):
        if check is verify_one_vector_per_row and message == "matrix support has a cycle":
            assert check(matrix) is False
            return
        with pytest.raises(error) as caught:
            check(matrix)
        assert type(caught.value) is error and str(caught.value) == message

    def test_false_off_the_diagonal_reads_as_zero(self):
        for m in ([[-2, False], [False, -2]], [[-2, False], [0, -2]], [[-2, 0], [False, -2]]):
            assert det_exact(m) == 4
            assert is_negative_definite(m)
        m = [[-2, 1, False], [1, -2, 1], [0, 1, -2]]
        assert det_exact(m) == -4 and is_negative_definite(m)

    def test_matches_fraction_reference_on_plumbings(self):
        # raw plumbings are indefinite, reduced ones definite; the raw
        # trees reach rank 659 here
        rng = random.Random(53)
        specs = list(THREE_ITERATION_SPECS)
        specs += [random_tower_spec(rng, k) for k in (2, 3, 4) for _ in range(4)]
        outcomes = set()
        for spec in specs:
            raw = raw_plumbing(spec)
            for tree in (raw, reduce_tree(raw)):
                g = gram_matrix(tree)
                reference = fraction_forest_elimination(g)
                assert (det_exact(g), is_negative_definite(g)) == reference
                outcomes.add(reference[1])
        assert outcomes == {False, True}

    def test_matches_fraction_reference_on_large_forests(self):
        # heavy weights and entries up to 3 make the continuants grow far
        # past machine words (determinants of up to 228 bits), and the
        # weights from -40 to 10 meet a zero pivot in about a fifth of
        # these forests
        rng = random.Random(59)
        outcomes = set()
        for _ in range(1000):
            blocks = []
            size = rng.randint(1, 60)
            while size > 0:
                g = gram_matrix(random_tree(rng, max_vertices=size, weights=(-40, 10)))
                for i in range(len(g)):
                    for j in range(i + 1, len(g)):
                        if g[i][j]:
                            g[i][j] = g[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
                blocks.append(g)
                size -= len(g)
            m = block_diagonal(*blocks)
            perm = list(range(len(m)))
            rng.shuffle(perm)
            m = relabel_matrix(m, perm)
            reference = fraction_forest_elimination(m)
            assert (det_exact(m), is_negative_definite(m)) == reference
            outcomes.add((reference[0] == 0, reference[1]))
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_cyclic_fallback_matches_minors(self):
        # symmetric matrices whose support has a cycle, definite, singular
        # and indefinite ones alike, are rejected: the elimination has no
        # general-matrix fallback
        rng = random.Random(61)
        kinds = Counter()
        for _ in range(400):
            n = rng.randint(3, 7)
            kind = rng.choice(("definite", "singular", "indefinite"))
            if kind == "indefinite":
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = rng.randint(-4, 3)
            else:
                a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                if kind == "singular":
                    i, j = rng.sample(range(n), 2)
                    a[i] = a[j][:]
                m = [[-sum(x * y for x, y in zip(r, s)) for s in a] for r in a]
            if fraction_forest_elimination(m) is not None:
                continue  # a forest
            for f in (det_exact, is_negative_definite):
                with pytest.raises(ValueError, match="cycle"):
                    f(m)
            kinds[bareiss_det(m) == 0, minors_negative_definite(m)] += 1
        assert set(kinds) == {(True, False), (False, False), (False, True)}, kinds
        assert min(kinds.values()) >= 20, kinds

    def test_bareiss_swaps_rows_at_zero_pivots(self):
        # cycle-supported and asymmetric matrices with a vanishing leading
        # minor, where a Bareiss pass would have to swap rows, are rejected
        # as no plumbing's form; the oracles still agree on them
        rng = random.Random(71)
        kinds = Counter()
        for _ in range(4000):
            n = rng.randint(2, 7)
            m = [[0] * n for _ in range(n)]
            symmetric = rng.random() < 0.5
            for i in range(n):
                for j in range(i if symmetric else 0, n):
                    if i == j or rng.random() < 0.5:
                        m[i][j] = rng.randint(-2, 1)
                        if symmetric:
                            m[j][i] = m[i][j]
            minors = leading_principal_minors(m)
            if 0 not in minors or fraction_forest_elimination(m) is not None:
                continue
            det = bareiss_det(m)
            assert det == cofactor_det(m), m
            shape = "cycle" if m == [list(col) for col in zip(*m)] else "not symmetric"
            for f in (det_exact, is_negative_definite):
                with pytest.raises(ValueError, match=shape):
                    f(m)
            kinds[symmetric, min(minors.index(0), 2), det != 0] += 1
        # both kinds, a first zero pivot at k = 0, 1 and >= 2, singular or not
        assert len(kinds) == 12 and min(kinds.values()) >= 10, kinds


class TestFormInvariants:
    """form_invariants eliminates the tree over its own edges; the matrix
    functions on its Gram matrix pin it."""

    def test_matches_matrix_functions(self):
        rng = random.Random(67)
        outcomes = set()
        for i in range(1500):
            t = random_tree(rng, max_vertices=10)
            g = gram_matrix(t)
            expected = (det_exact(g), is_negative_definite(g))
            assert form_invariants(t) == expected
            # ids spread out and negative: the elimination does not index by id
            ids = rng.sample(range(-10**6, 10**6), len(t))
            assert form_invariants(relabel(t, dict(zip(t.vertices(), ids)))) == expected
            outcomes.add((expected[0] == 0, expected[1]))
        assert outcomes == {(True, False), (False, False), (False, True)}
        # a 0-leaf on a -1: a zero pivot
        assert form_invariants(path_tree([0, -1, -2, -2])) == (-3, False)

    def test_caterpillars_match_oracles(self):
        # the spine's continuants grow with its length, and the
        # determinant must still come out exact
        outcomes = set()
        for spine in range(1, 41):
            # no -1, one, every third, or a -1 path (det 0 at spine 2 mod 3)
            for ones in (set(), {spine // 2}, set(range(0, spine, 3)), set(range(spine))):
                t = caterpillar(spine, ones)
                g = gram_matrix(t)
                det, negative = form_invariants(t)
                assert det == bareiss_det(g)
                assert (det, negative) == fraction_forest_elimination(g)
                if spine <= 12:
                    assert negative == minors_negative_definite(g)
                outcomes.add((det == 0, negative))
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_computed_once_per_tree(self, monkeypatch):
        t = path_tree([-2, -3, -2])
        kernel = plumbing._eliminate
        calls = []
        monkeypatch.setattr(plumbing, "_eliminate", lambda *a: calls.append(1) or kernel(*a))
        assert form_invariants(t) == form_invariants(t) == (-8, True)
        assert len(calls) == 1

    def test_new_trees_start_uncomputed(self):
        # a move's result or a parsed copy must not carry a form it was
        # not computed for
        rng = random.Random(71)
        moved = 0
        for _ in range(100):
            t = random_tree(rng, max_vertices=8, weights=(-2, 2))
            form_invariants(t)
            copy = WeightedTree.from_json(t.to_json())
            assert copy._form is None
            for move in (blow_down, blow_up, absorb_zero, flatten_positive_leaf):
                for v in t.vertices():
                    try:
                        out = move(t, v)
                    except InvalidMoveError:
                        continue
                    moved += 1
                    assert out._form is None
                    g = gram_matrix(out)
                    assert form_invariants(out) == (det_exact(g), is_negative_definite(g))
        assert moved > 100


def tree_of(m):
    """The tree whose Gram matrix is m (entries 1 off the diagonal), its
    vertices 0..n-1 added in that order: the walk starts at 0."""
    n = len(m)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]]
    return WeightedTree({i: m[i][i] for i in range(n)}, edges)


def assert_every_walk_matches(m, perms=None):
    """det_exact, is_negative_definite and, for the form of a tree,
    form_invariants agree with the oracles on every relabelling of the
    forest-supported m (or on those in perms), so that the walk starts at
    every vertex and meets every vertex's children in every order."""
    want = fraction_forest_elimination(m)
    assert want[0] == bareiss_det(m) == cofactor_det(m)
    assert want[1] == minors_negative_definite(m)
    entries = [m[i][j] for i in range(len(m)) for j in range(i + 1, len(m)) if m[i][j]]
    tree = entries == [1] * (len(m) - 1)  # a forest with n - 1 edges is a tree
    for perm in perms or permutations(range(len(m))):
        p = relabel_matrix(m, perm)
        assert (det_exact(p), is_negative_definite(p)) == want, perm
        if tree:
            assert form_invariants(tree_of(p)) == want, perm
    return want


class TestReverseWalk:
    """The elimination runs in the reverse of a walk from a root, so a
    vertex goes into its parent while the parent's other children may not
    have gone in yet, and a root is met with nothing left to go into."""

    def test_zero_leaf_before_its_siblings(self):
        # 0 - 1 with children 2 and the 0-leaf 3, and 4 below 2: the walk
        # from 0 eliminates 4, then 3, whose zero expands 1 away while 2 is
        # still in; 2 is then a root, its pivot final
        weights = [-2, -3, -2, 0, -2]
        edges = [(0, 1), (1, 2), (1, 3), (2, 4)]
        m = gram_matrix(WeightedTree(dict(enumerate(weights)), edges))
        assert assert_every_walk_matches(m) == (-(1**2) * -2 * 3, False)  # -a^2 det(rest)
        # 2 - 4 of pivot 0 once 1 is gone: that root's zero makes det 0
        m[2][2] = m[4][4] = -1
        assert assert_every_walk_matches(m) == (0, False)
        # entries other than 1 scale the expansion by -a^2
        m = gram_matrix(WeightedTree(dict(enumerate(weights)), edges))
        m[1][3] = m[3][1] = 3
        m[1][2] = m[2][1] = -2
        assert assert_every_walk_matches(m) == (-(3**2) * -2 * 3, False)

    def test_zero_pivot_at_the_root(self):
        cases = [
            ([[-1, 1], [1, -1]], (0, False)),  # -1 - 1/(-1) = 0
            (gram_matrix(WeightedTree({0: -2, 1: -1, 2: -1}, [(0, 1), (0, 2)])), (0, False)),
            ([[0]], (0, False)),
            ([[0, 2], [2, -3]], (-4, False)),  # a 0-leaf, the root of half the walks
            (block_diagonal([[-2]], [[0]], [[-3]]), (0, False)),
        ]
        for m, want in cases:
            assert assert_every_walk_matches(m) == want, m

    def test_forests_with_entries_other_than_one(self):
        rng = random.Random(83)
        outcomes = Counter()
        for _ in range(400):
            blocks = []
            size = 7  # cofactor_det is exponential in it
            while len(blocks) < 2 or size and len(blocks) < 3:
                g = gram_matrix(random_tree(rng, max_vertices=min(size, 3), weights=(-4, 1)))
                size -= len(g)
                for i in range(len(g)):
                    for j in range(i + 1, len(g)):
                        if g[i][j]:
                            g[i][j] = g[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
                blocks.append(g)
            m = block_diagonal(*blocks)
            perms = [rng.sample(range(len(m)), len(m)) for _ in range(20)]
            det, negative = assert_every_walk_matches(m, perms)
            outcomes[det == 0, negative] += 1
        assert set(outcomes) == {(True, False), (False, False), (False, True)}, outcomes

    def test_long_path_under_a_low_recursion_limit(self):
        # a 100,000-vertex -2 path, walked from an end and from the middle
        code = (
            "import sys\n"
            "from knotplumb.plumbing import WeightedTree, form_invariants\n"
            "n = 100_000\n"
            "edges = [(v, v + 1) for v in range(n - 1)]\n"
            "trees = [WeightedTree(dict.fromkeys(ids, -2), edges)\n"
            "         for ids in (range(n), [n // 2, *range(n)])]\n"
            "sys.setrecursionlimit(60)\n"
            "print([form_invariants(t) == ((-1) ** n * (n + 1), True) for t in trees])\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[True, True]\n"


class TestDefiniteness:
    def test_single_cases(self):
        assert is_negative_definite([[-2]])
        assert not is_negative_definite([[0]])
        assert not is_negative_definite([[1]])

    def test_raw_indefinite_reduced_definite(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        assert not is_negative_definite(gram_matrix(raw_plumbing(spec)))
        assert is_negative_definite(gram_matrix(reduced_plumbing(spec)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_negative_definite([[-1, 2], [0, -1]])

    def test_minors(self):
        g = gram_matrix(path_tree([-2, -2]))
        assert leading_principal_minors(g) == [-2, 3]

    def test_signature_diagonal(self):
        assert signature([[2, 0, 0], [0, 0, 0], [0, 0, -5]]) == (1, 1, 1)

    def test_signature_hyperbolic_block(self):
        assert signature([[0, 1], [1, 0]]) == (1, 0, 1)


class TestBlowDown:
    def test_leaf(self):
        t = blow_down(path_tree([-5, -1]), 1)
        assert t.weights == {0: -4}

    def test_interior(self):
        t = blow_down(path_tree([-2, -1, -2]), 1)
        assert t.weights == {0: -1, 2: -1}
        assert t.edges == frozenset({(0, 2)})

    def test_rejects_wrong_weight(self):
        with pytest.raises(InvalidMoveError):
            blow_down(path_tree([-2, -1]), 0)

    def test_rejects_high_valence(self):
        star = WeightedTree({0: -1, 1: -2, 2: -2, 3: -2}, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InvalidMoveError):
            blow_down(star, 0)


class TestBlowUp:
    def test_edge_blow_up_bookkeeping(self):
        # first step of turning a positive leaf into a chain of -2's
        t = path_tree([-1, 4])
        t2 = blow_up(t, (0, 1))
        assert t2.weights == {0: -2, 1: 3, 2: -1}
        assert t2.edges == frozenset({(0, 2), (1, 2)})

    def test_round_trip_vertex_and_edge(self):
        rng = random.Random(3)
        for _ in range(40):
            t = random_tree(rng, max_vertices=6)
            v = rng.choice(t.vertices())
            up = blow_up(t, v)
            assert blow_down(up, fresh_id(up) - 1) == t
            if len(t) > 1:
                e = sorted(t.edges)[0]
                up = blow_up(t, e)
                assert blow_down(up, fresh_id(up) - 1) == t

    def test_free_rejected(self):
        with pytest.raises(InvalidMoveError):
            blow_up(path_tree([-2]), "free")


class TestAbsorbZero:
    def test_path(self):
        t = absorb_zero(path_tree([-7, 0, 3]), 1)
        assert t.weights == {0: -4}

    def test_det_magnitude_preserved(self):
        t = path_tree([-2, 0, -2])
        before = abs(det_exact(gram_matrix(t)))
        after = abs(det_exact(gram_matrix(absorb_zero(t, 1))))
        assert before == after == 4

    def test_inherits_edges(self):
        t = WeightedTree(
            {0: -3, 1: 0, 2: -4, 3: -2, 4: -2}, [(0, 1), (1, 2), (0, 3), (2, 4)]
        )
        merged = absorb_zero(t, 1)
        assert merged.weights == {0: -7, 3: -2, 4: -2}
        assert merged.edges == frozenset({(0, 3), (0, 4)})

    def test_rejects_bad_sites(self):
        with pytest.raises(InvalidMoveError):
            absorb_zero(path_tree([-2, 0]), 1)  # valence 1
        with pytest.raises(InvalidMoveError):
            absorb_zero(path_tree([-2, -1, -2]), 1)  # weight -1


class TestFlatten:
    def test_two_leaf(self):
        t = flatten_positive_leaf(path_tree([-1, 2]), 1)
        assert sorted(t.weights.values()) == [-2, -2]
        assert len(t.edges) == 1

    def test_one_leaf(self):
        t = flatten_positive_leaf(path_tree([-1, 1]), 1)
        assert t.weights == {0: -2}

    def test_preserves_det_and_drops_positive_index(self):
        t = WeightedTree({0: -3, 1: -1, 2: 4, 3: -2}, [(0, 1), (1, 2), (1, 3)])
        flat = flatten_positive_leaf(t, 2)
        assert abs(det_exact(gram_matrix(flat))) == abs(det_exact(gram_matrix(t)))
        pos_before, _, _ = signature(gram_matrix(t))
        pos_after, _, _ = signature(gram_matrix(flat))
        assert pos_before - pos_after == 1
        assert len(flat) == len(t) + 4 - 2  # leaf weight 4 -> chain of 4

    def test_rejects_nonpositive_or_wrong_neighbour(self):
        with pytest.raises(InvalidMoveError):
            flatten_positive_leaf(path_tree([-1, 0]), 1)
        with pytest.raises(InvalidMoveError):
            flatten_positive_leaf(path_tree([-2, 2]), 1)


class TestMoveSites:
    """Every public move takes int vertex ids only, and says InvalidMoveError
    for a vertex or an edge the tree does not have."""

    MOVES = (blow_down, blow_up, absorb_zero, flatten_positive_leaf)

    @pytest.mark.parametrize("site", [True, 1.0, "1", None])
    def test_non_int_vertex_is_a_type_error(self, site):
        t = path_tree([-1, -1, 0])
        for move in self.MOVES:
            with pytest.raises(TypeError, match="not an integer vertex id"):
                move(t, site)

    @pytest.mark.parametrize("edge", [(True, 1), (0, 1.0), (0.0, 1), [0, True]])
    def test_non_int_edge_end_is_a_type_error(self, edge):
        # a dict lookup finds vertices 0 and 1 for these; unchecked, they
        # would be stored as edge ends
        with pytest.raises(TypeError, match="not an integer vertex id"):
            blow_up(path_tree([-2, -2, -2]), edge)

    def test_missing_vertex_is_invalid(self):
        t = path_tree([-1, -1, 0])
        for move in self.MOVES:
            with pytest.raises(InvalidMoveError, match="no vertex 7"):
                move(t, 7)
        with pytest.raises(InvalidMoveError, match="no vertex 7"):
            blow_up(t, (1, 7))

    def test_missing_edge_is_invalid(self):
        t = path_tree([-2, -2, -2])
        for edge in ((0, 2), (2, 0), (1, 1)):
            with pytest.raises(InvalidMoveError, match="no edge"):
                blow_up(t, edge)

    def test_list_edge_is_an_edge(self):
        t = path_tree([-2, -2, -2])
        assert blow_up(t, [2, 1]) == blow_up(t, (1, 2))


def apply_random_move(rng, tree):
    """Pick one applicable move at random; returns None if nothing applies."""
    moves = []
    for v in tree.vertices():
        if tree.weight(v) == -1 and tree.valence(v) <= 2 and len(tree) > 1:
            moves.append(("down", v))
        if tree.weight(v) == 0 and tree.valence(v) == 2:
            moves.append(("absorb", v))
        if (
            tree.valence(v) == 1
            and tree.weight(v) >= 1
            and tree.weight(next(iter(tree.neighbors(v)))) == -1
        ):
            moves.append(("flatten", v))
        moves.append(("up_vertex", v))
    for e in sorted(tree.edges):
        moves.append(("up_edge", e))
    kind, site = rng.choice(moves)
    if kind == "down":
        return blow_down(tree, site)
    if kind == "absorb":
        return absorb_zero(tree, site)
    if kind == "flatten":
        return flatten_positive_leaf(tree, site)
    if kind == "up_vertex":
        return blow_up(tree, site)
    return blow_up(tree, site)


def test_move_results_match_validated_rebuild():
    # the moves build their results unchecked, from the parent's parts
    rng = random.Random(47)
    applied = {}
    for i in range(150):
        t = random_tree(rng, max_vertices=10, weights=(-2, 2))
        if i % 2:
            # ids 0..n-1: flatten_positive_leaf's fresh ids may reuse the leaf's
            t = relabel(t, {v: k for k, v in enumerate(t.vertices())})
        before = t.to_json()
        moves = (blow_down, blow_up, absorb_zero, flatten_positive_leaf)
        sites = [(move, v) for move in moves for v in t.vertices()]
        sites += [(blow_up, e) for e in sorted(t.edges)]
        for move, site in sites:
            try:
                out = move(t, site)
            except InvalidMoveError:
                continue
            applied[move.__name__] = applied.get(move.__name__, 0) + 1
            edges = out.edges
            copy = WeightedTree(out.weights, edges)
            assert out == copy and hash(out) == hash(copy) and copy.edges == edges
            for v in out.vertices():
                ends = {b if a == v else a for a, b in edges if v in (a, b)}
                assert out.neighbors(v) == ends
        assert t.to_json() == before
    assert len(applied) == 4 and min(applied.values()) > 20, applied


def site_choice_corpus():
    """Trees where reduce_tree's site choice matters: random trees of
    several shapes, family and three-iteration towers, and deep ties."""
    rng = random.Random(37)

    def dense(t, key=lambda w: 0):
        # ids 0..n-1, ordered by key of the weight, ties at random
        ids = t.vertices()
        rng.shuffle(ids)
        ids.sort(key=lambda v: key(t.weight(v)))
        return relabel(t, {v: i for i, v in enumerate(ids)})

    trees = [random_tree(rng) for _ in range(200)]
    # -1's and -2's only: many blow-down sites per step, so the order matters
    trees += [random_tree(rng, max_vertices=30, weights=(-2, -1)) for _ in range(100)]
    # -1's take the top ids, so a blow-down can delete the largest id,
    # which flatten_positive_leaf's fresh max + 1 then hands out again
    trees += [dense(random_tree(rng, weights=(-3, 3)), lambda w: w == -1) for _ in range(300)]
    # rich in 0's and positive leaves: every move kind comes right
    # before some step with several sites
    trees += [dense(random_tree(rng, max_vertices=40, weights=(-2, 2))) for _ in range(100)]
    family = [family_tuple("derived", p1, p2) for p1 in (2, 3) for p2 in (2, 3)]
    family += [family_tuple("family2", 0, p2) for p2 in (2, 3)]
    for p1, a1, p2, a2, n in family:
        trees.append(raw_plumbing(SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)))
    trees += [raw_plumbing(spec) for spec in THREE_ITERATION_SPECS]
    # ties that go deep: sites placed symmetrically are swapped by an
    # automorphism and numbered apart by vertex id alone; one vertex off
    # symmetry, their branches differ only far down, where one runs out
    # of children first
    deep = [caterpillar(30, ones) for ones in ({7, 22}, {7, 21}, {4, 14, 25}, {4, 15, 25})]
    deep += [caterpillar(29, ones) for ones in ({9, 19}, {1, 14, 27}, {1, 14, 26})]
    deep += [binary_tree(4, ones) for ones in ({1, 2}, {15, 30}, {7, 10, 13}, {15, 29})]
    deep += [binary_tree(4, ones) for ones in ({3, 6}, {1, 5, 6}, {3, 4, 6}, {16, 21, 28})]
    trees += deep + [dense(t) for t in deep]
    # blow-downs along -2 paths: blowing down a -1 between a hub of weight
    # <= -3 and a -2 path leaves a -1 one vertex further along, keyed by
    # the hub's risen weight; the second leg's -1 keys (-1, -6), so once
    # the hub has risen from -10 to -6 the two tie and are taken by
    # rank, in a numbering that the second leg's far end changes
    runs = [spider(-10, [-1] + [-2] * 8 + [-3], [-4, -1, -6, end]) for end in (-2, -9)]
    # another site on the hub ties the first blow-down at (-1, -10), or
    # keys below it at (-1, -12) and raises the hub first
    runs += [spider(-10, [-1] + [-2] * 8 + [-3], [-1, -10, -2]), spider(-10, [-1] + [-2] * 6, [-1, -12])]
    # paths ending at a valence-3 vertex, at a -4, before a positive leaf
    # and before a 0
    runs += [spider(-2, [-2] * 4 + [-1, -20], [-2, -3], [-4])]
    runs += [path_tree([-20, -1] + [-2] * 5 + [end]) for end in (-4, 3)]
    runs += [path_tree([-20, -1] + [-2] * 5 + [0, -3])]
    # a hub that rises to -1 and then to 0 mid-path, where the
    # blow-downs stop
    runs += [path_tree([-5, -1] + [-2] * 8 + [-3])]
    # a -1 between two -2 paths, whose blow-down leaves no -1
    runs += [path_tree([-5, -2, -2, -1, -2, -2, -3])]
    runs += [run_tree(rng) for _ in range(60)]
    # a -1 hub with two isomorphic branches 0, +1 and a 0 leaf: an absorb
    # merges the hub into a +1, and the merged vertex must keep the lesser
    # number of the two, not the number of the one whose id it keeps
    weights = {420: 0, 676: 0, 719: 1, 818: -1, 874: 1, 913: 0}
    edges = [(420, 719), (420, 818), (676, 818), (818, 913), (874, 913)]
    runs.append(WeightedTree(weights, edges))
    return trees + runs + [dense(t) for t in runs]


def record_moves(monkeypatch, module, names):
    """Wrap the move functions named, flatten, blow-down and absorb in that
    order, on module; the list of (move class, site) each call appends to."""
    taken = []
    for kind, name in enumerate(names):
        real = getattr(module, name)

        def recorded(*args, real=real, kind=kind):
            taken.append((kind, args[-1]))
            return real(*args)

        monkeypatch.setattr(module, name, recorded)
    return taken


IN_PLACE_MOVES = ("_flatten_at", "_blow_down_at", "_absorb_at")


def live_sites(state):
    """site -> (class, key) of each site _site_class finds among the live
    vertices of a _Reduction, as its next step finds them."""
    found = {v: plumbing._site_class(state.weights, state.adj, v) for v in state.live}
    return {v: k for v, k in found.items() if k is not None}


def least_sites(state):
    """The least (class, key) among a _Reduction's live sites and the sites
    tied at it, in ascending id: what its next step chooses among."""
    sites = live_sites(state)
    least = min(sites.values(), default=None)
    return least, sorted(v for v, k in sites.items() if k == least)


def numbered(tree, ranks):
    """The tree with each vertex renamed by its rank: weights by rank and
    edges as rank pairs, ascending."""
    return (
        sorted((ranks[v], w) for v, w in tree.weights.items()),
        sorted(tuple(sorted((ranks[a], ranks[b]))) for a, b in tree.edges),
    )


def spined_tails(length):
    """spined_sites(20, 20, 3) with a -2 tail of the given length hung on
    the far -3 of each spine, ending in a -3 on one and a -4 on the other:
    the sites' branches differ only at the tails' far ends.  The tails
    take the ids above the base tree's, whatever their length."""
    base = spined_sites(20, 20, 3)
    ends = sorted(v for v, w in base.weights.items() if w == -3 and base.valence(v) == 2)
    weights, edges = base.weights, list(base.edges)
    for prev, end in zip(ends, (-3, -4)):
        for w in [-2] * length + [end]:
            weights[len(weights)] = w
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return WeightedTree(weights, edges)


def path_tie(length):
    """Two adjacent -1's, blow-down sites tied on their key, between -2
    paths of the given length that end in a -3 and in a -4."""
    return path_tree([-3] + [-2] * length + [-1, -1] + [-2] * length + [-4])


def reduction_diff(tree, red):
    """What reducing tree to red did, as JSON lists: the ids removed, the
    [id, weight] of each vertex added or reweighted, and the edges added,
    each ascending."""
    weights = tree.weights
    return [
        sorted(weights.keys() - red.weights.keys()),
        sorted([v, w] for v, w in red.weights.items() if weights.get(v) != w),
        sorted(map(list, red.edges - tree.edges)),
    ]


def reduce_in_child(trees, *helpers):
    """reduction_diff of reduce_tree on each tree of the list the
    expression trees makes from helpers, functions of this module whose
    source the child runs, with the CPU seconds each reduction took: from
    a fresh interpreter under a recursion limit of 60, far below the depth
    of any tree given."""
    code = "\n".join([
        "import json, sys, time",
        "from knotplumb.plumbing import WeightedTree, reduce_tree",
        *map(inspect.getsource, (reduction_diff, *helpers)),
        "sys.setrecursionlimit(60)",
        f"for tree in {trees}:",
        "    start = time.process_time()",
        "    red = reduce_tree(tree)",
        "    seconds = time.process_time() - start",
        "    print(json.dumps([*reduction_diff(tree, red), seconds]))",
    ])
    res = run_child(code)
    assert res.returncode == 0, res.stderr
    return [json.loads(line) for line in res.stdout.splitlines()]


class TestReduce:
    def test_idempotent_on_reduced(self):
        t = path_tree([-2, -3, -2])
        assert reduce_tree(t) == t

    def test_reduces_worked_example_to_closed_form(self):
        from knotplumb.cabling import closed_form_two_iter

        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        red = reduce_tree(raw_plumbing(spec))
        assert are_isomorphic(red, closed_form_two_iter(spec))

    def test_all_moves_preserve_det_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(120):
            t = random_tree(rng, max_vertices=8)
            before = abs(det_exact(gram_matrix(t)))
            after_tree = apply_random_move(rng, t)
            assert abs(det_exact(gram_matrix(after_tree))) == before

    def test_idempotent_on_random_trees(self):
        rng = random.Random(13)
        for _ in range(100):
            t = random_tree(rng)
            r = reduce_tree(t)
            assert reduce_tree(r) == r

    def test_relabelling_invariance(self):
        rng = random.Random(17)
        for _ in range(100):
            t = random_tree(rng)
            ids = t.vertices()
            perm = ids[:]
            rng.shuffle(perm)
            relabeled = relabel(t, dict(zip(ids, perm)))
            assert are_isomorphic(reduce_tree(t), reduce_tree(relabeled))

    def test_site_choice_matches_reference(self):
        for t in site_choice_corpus():
            assert reduce_tree(t).to_json() == reference_reduce_tree(t).to_json()

    def test_move_sequence_matches_reference(self, monkeypatch):
        # every step's move and site, not only the tree the steps end in
        kinds = Counter()
        ranked = 0  # the steps whose sites tie on the key
        for t in site_choice_corpus():
            with monkeypatch.context() as m:
                ours = record_moves(m, plumbing, IN_PLACE_MOVES)
                state = plumbing._Reduction(t)
                while True:
                    ranked += len(least_sites(state)[1]) > 1
                    if not state.step():
                        break
            with monkeypatch.context() as m:
                public = ("flatten_positive_leaf", "blow_down", "absorb_zero")
                theirs = record_moves(m, oracles, public)
                reference_reduce_tree(t)
            assert ours == theirs
            kinds.update(kind for kind, _ in ours)
        assert min(kinds[kind] for kind in range(3)) > 100, kinds
        # the key decides most steps; the rank below it stays covered
        assert ranked > 100, ranked

    def test_key_tie_settled_below_the_key(self, monkeypatch):
        # blow-down sites 0 and 1 on a path, each between the -5 and a -2
        # chain: both key (-1, -5).  The -5 is the centre, and of its two
        # branches, equal in height, site 0's ends in the -3, the lesser
        # leaf, so site 0 is numbered first and blown down first
        ids = [8, 7, 6, 1, 4, 0, 2, 3, 5]
        weights = [-2, -2, -2, -1, -5, -1, -2, -2, -3]
        tree = WeightedTree(dict(zip(ids, weights)), list(zip(ids, ids[1:])))
        state = plumbing._Reduction(tree)
        classify = plumbing._site_class
        assert classify(state.weights, state.adj, 0) == (1, (-1, -5))
        assert classify(state.weights, state.adj, 1) == (1, (-1, -5))
        ranks = plumbing._canonical_ranks(state.weights, state.adj)
        assert ranks == oracles.reference_ranks(tree)
        assert (ranks[4], ranks[0], ranks[1]) == (0, 1, 2)
        with monkeypatch.context() as m:
            ours = record_moves(m, plumbing, IN_PLACE_MOVES)
            reduce_tree(tree)
        with monkeypatch.context() as m:
            public = ("flatten_positive_leaf", "blow_down", "absorb_zero")
            theirs = record_moves(m, oracles, public)
            reference_reduce_tree(tree)
        assert ours == theirs
        assert ours[0] == (1, 0)

    def test_ranks_made_at_most_once_per_reduction(self, monkeypatch):
        # a count, not a time: the tree is numbered at the first tie on the
        # key, and the numbers are carried through every later move
        real = plumbing._canonical_ranks
        made = []

        def counting(weights, adj):
            made[-1] += 1
            return real(weights, adj)

        monkeypatch.setattr(plumbing, "_canonical_ranks", counting)
        for spec in THREE_ITERATION_SPECS:
            made.append(0)
            reduce_tree(raw_plumbing(spec))
        assert made == [1, 1, 1]
        made.append(0)
        reduce_tree(path_tree([-2, -1, -3]))  # one site: no tie, no numbering
        assert made[-1] == 0

    def test_canonical_ranks_number_isomorphic_trees_alike(self):
        # a relabelled copy is the same numbered tree: the vertex id orders
        # only isomorphic branches, which an automorphism swaps
        rng = random.Random(61)
        trees = [random_tree(rng, max_vertices=n) for n in (6, 12, 20) for _ in range(100)]
        trees += [random_tree(rng, max_vertices=30, weights=(-2, -2)) for _ in range(50)]
        # bicentral and unicentral paths, with a mirror image or none
        trees += [path_tree([-2] * n) for n in (1, 2, 7, 8)]
        trees += [path_tree([-3, -2, -2, -3]), path_tree([-3, -2, -2, -4]), path_tree([-2, -3, -2])]
        # spiders with isomorphic legs, and legs that differ far down
        trees += [spider(-2, [-2, -3], [-2, -3], [-2, -3]), spider(-1, [-2] * 5, [-2] * 5)]
        trees += [spider(-2, [-2, -2, -3], [-2, -2, -4], [-2, -2, -3], [-5])]
        trees += [binary_tree(3, set()), binary_tree(3, {1, 2}), caterpillar(12, {3, 8})]
        for t in trees:
            ranks = plumbing._canonical_ranks(t._weights, t._adj)
            assert sorted(ranks.values()) == list(range(len(t)))
            assert ranks == oracles.reference_ranks(t)
            for _ in range(4):
                ids = t.vertices()
                copy = relabel(t, dict(zip(ids, rng.sample(range(10**6), len(ids)))))
                assert numbered(copy, plumbing._canonical_ranks(copy._weights, copy._adj)) == numbered(t, ranks)

    @pytest.mark.parametrize(
        "tree, size, weights",
        [
            # a path: the compared branches are 700 and 699 vertices deep
            (path_tree([-2] * 700 + [-1] + [-2] * 99 + [-1] + [-2] * 699), 1492, {-3: 2, -2: 1490}),
            # the two blow-downs leave their spine neighbours at -1, valence 3
            (caterpillar(1200, {595, 605}), 2396, {-2: 2392, -1: 4}),
        ],
        ids=["path-1500", "caterpillar-1200"],
    )
    def test_deep_trees_use_no_python_frames(self, tmp_path, tree, size, weights):
        # under a recursion limit far below the depth of either tree: the
        # comparison takes no frame a level, whatever the tree's depth;
        # comparing nested encodings raised RecursionError at the default
        path = tmp_path / "tree.json"
        path.write_text(tree.to_json())
        code = (
            "import json, sys\n"
            "from collections import Counter\n"
            "from knotplumb.plumbing import WeightedTree, form_invariants, reduce_tree\n"
            f"tree = WeightedTree.from_json(open({str(path)!r}).read())\n"
            "sys.setrecursionlimit(60)\n"
            "red = reduce_tree(tree)\n"
            "dets = [abs(form_invariants(t)[0]) for t in (tree, red)]\n"
            "print(json.dumps([len(red), Counter(red.weights.values()), dets[0] == dets[1]]))\n"
        )
        res = run_child(code)
        assert res.returncode == 0, res.stderr
        count, histogram, det_kept = json.loads(res.stdout)
        assert count == size
        assert {int(w): k for w, k in histogram.items()} == weights
        assert det_kept

    def test_every_fourth_spine_vertex_a_site(self):
        # a -1 at every fourth spine vertex: up to 300 blow-down sites tied
        # on their key, step after step.  The tree is numbered once, and
        # the caterpillar of spine 1200 reduces in 0.05 s on a 2-core host,
        # where comparing the sites' rooted encodings took 94 s
        small = caterpillar(120, set(range(3, 120, 4)))
        assert reduce_tree(small) == reference_reduce_tree(small)
        tree = caterpillar(1200, set(range(3, 1200, 4)))
        start = time.process_time()
        red = reduce_tree(tree)
        assert time.process_time() - start < 1
        assert Counter(red.weights.values()) == {-2: 1202, -1: 599}
        assert abs(form_invariants(red)[0]) == abs(form_invariants(tree)[0])

    def test_deep_tie_in_the_first_child_pair(self):
        # the two sites' branches differ 120 levels down, far past the
        # recursion limit, inside the first child pair at every level
        tree = spined_sites(120, 121, 3)
        expected = reference_reduce_tree(tree)
        assert reduce_tree(tree) == expected
        ((*diff, _),) = reduce_in_child("[spined_sites(120, 121, 3)]", spined_sites)
        assert diff == reduction_diff(tree, expected)

    def test_deep_path_tie_walks_without_frames(self):
        # path_tie(L): the -1's at L + 1 and L + 2 tie.  At every length
        # the reduction blows down the one on the -4's side and absorbs the
        # 0 it leaves, as the reference does at L = 100; the numbering
        # peels the paths in a loop, so L = 5,000 and 50,000 reduce under
        # a recursion limit of 60, in about linear time
        def diff(length):
            return [[length + 1, length + 2, length + 3], [[length, -3]], [[length, length + 4]]]

        assert reduction_diff(path_tie(100), reference_reduce_tree(path_tie(100))) == diff(100)
        runs = reduce_in_child("[path_tie(5_000), path_tie(50_000)]", path_tree, path_tie)
        assert [run[:3] for run in runs] == [diff(5_000), diff(50_000)]
        # 0.04 and 0.4 s on a 2-core host
        assert runs[1][3] < 4, runs

    def test_spined_tails_reduce_without_frames(self):
        # the sites' branches differ only at the far ends of -2 tails below
        # 20-level spines: at every tail length the reduction removes,
        # reweights and joins the same vertices of the base tree, as the
        # reference does at 100, and tails of 5,000 and 50,000 reduce
        # under a recursion limit of 60
        small = spined_tails(100)
        expected = reduction_diff(small, reference_reduce_tree(small))
        gone, changed, joined = expected
        touched = set(gone) | {v for v, _ in changed} | set(chain(*joined))
        assert max(touched) < len(spined_sites(20, 20, 3))
        runs = reduce_in_child("[spined_tails(5_000), spined_tails(50_000)]", spined_sites, spined_tails)
        assert [run[:3] for run in runs] == [expected, expected]
        # 0.02 and 0.5 s on a 2-core host
        assert runs[1][3] < 4, runs

    def test_moves_per_kind_on_three_iteration_towers(self, monkeypatch):
        # the counts of the loop that rescanned and copied the tree per move
        taken = record_moves(monkeypatch, plumbing, IN_PLACE_MOVES)
        counts = []
        for spec in THREE_ITERATION_SPECS:
            raw = raw_plumbing(spec)
            taken.clear()
            reduce_tree(raw)
            applied = Counter(kind for kind, _ in taken)
            counts.append(tuple(applied[kind] for kind in range(3)))
        assert counts == [(1, 40, 2), (1, 62, 2), (1, 63, 2)]

    def test_live_sites_match_a_full_scan_after_every_step(self):
        rng = random.Random(53)
        trees = [random_tree(rng, max_vertices=30, weights=(-2, 2)) for _ in range(300)]
        trees += [random_tree(rng, max_vertices=40, weights=(-2, -1)) for _ in range(100)]
        trees += [raw_plumbing(spec) for spec in THREE_ITERATION_SPECS]
        # -1's that each blow-down moves one vertex along a -2 path
        trees += [run_tree(rng) for _ in range(40)]
        steps = 0
        for t in trees:
            state = plumbing._Reduction(t)
            while True:
                frozen = plumbing._frozen(dict(state.weights), state.adj)
                copy = WeightedTree(frozen.weights, frozen.edges)
                assert frozen == copy and hash(frozen) == hash(copy) and copy.edges == frozen.edges
                assert state.live == {v for v, wt in state.weights.items() if wt >= -1}
                sites = live_sites(state)
                by_class = tuple(sorted(v for v in sites if sites[v][0] == k) for k in range(3))
                assert by_class == reference_sites(frozen)
                if not state.step():
                    break
                steps += 1
            assert frozen == reduce_tree(t)
        assert steps > 800, steps

    def test_site_keys_match_a_fresh_reduction_after_every_step(self):
        # a move updates the live set only at the vertices it touched; a
        # fresh _Reduction of the working copy builds it from every vertex,
        # and the two must agree on it and on the sites a step chooses among
        rng = random.Random(59)
        trees = [random_tree(rng, max_vertices=30, weights=(-2, 2)) for _ in range(200)]
        trees += [random_tree(rng, max_vertices=40, weights=(-3, 1)) for _ in range(100)]
        trees += [random_tree(rng, max_vertices=40, weights=(-2, -1)) for _ in range(100)]
        trees += [raw_plumbing(spec) for spec in THREE_ITERATION_SPECS]
        trees.append(caterpillar(60, set(range(3, 60, 4))))
        # -1's that each blow-down moves one vertex along a -2 path, while
        # other sites on the hub they start from rise
        trees += [run_tree(rng) for _ in range(40)]
        # absorbing the 0 at 1 moves the hub's other neighbours onto the -1
        # at 0, none of them touched: positive leaves 10-12 become flatten
        # sites, the -1's 20-22 blow-down sites
        weights = {0: -1, 1: 0, 100: 0, 2: -2, 10: 1, 11: 2, 12: 3}
        edges = [(0, 1), (1, 100), (0, 2), (100, 10), (100, 11), (100, 12)]
        for m in (20, 21, 22):
            weights[m], weights[m + 10] = -1, -2
            edges += [(100, m), (m, m + 10)]
        repointed = WeightedTree(weights, edges)
        trees.append(repointed)
        steps = 0
        for t in trees:
            state = plumbing._Reduction(t)
            while state.step():
                steps += 1
                fresh = plumbing._Reduction(plumbing._frozen(dict(state.weights), state.adj))
                assert state.live == fresh.live
                assert least_sites(state) == least_sites(fresh)
        assert steps > 900, steps
        state = plumbing._Reduction(repointed)
        assert live_sites(state) == {1: (2, (0, -1))}
        state.step()
        flatten = {10: (0, (1, -1)), 11: (0, (2, -1)), 12: (0, (3, -1))}
        assert live_sites(state) == flatten | dict.fromkeys((20, 21, 22), (1, (-1, -2)))

    @pytest.mark.parametrize(
        "tree, steps, live",
        [
            (caterpillar(1200, {595, 605}), 2, 4),
            (caterpillar(1200, set(range(3, 60, 4))), 15, 30),
            # each blow-down along the -2 path is a step of its own
            (path_tree([-1200, -1] + [-2] * 1000 + [-3]), 1001, 1),
        ],
        ids=["2-sites", "15-sites", "run"],
    )
    def test_classifies_few_vertices_per_move(self, monkeypatch, tree, steps, live):
        # a count, not a time: no classification at the start, then the
        # live vertices at each step, a bounded number however long the tree
        classify = plumbing._site_class
        calls = []

        def counted(weights, adj, v):
            calls[-1] += 1
            return classify(weights, adj, v)

        monkeypatch.setattr(plumbing, "_site_class", counted)
        calls.append(0)
        state = plumbing._Reduction(tree)
        assert calls == [0]
        sizes = []
        while True:
            sizes.append(len(state.live))
            calls.append(0)
            if not state.step():
                break
        assert calls[1:] == sizes
        assert len(sizes) == steps + 1
        assert max(sizes) <= live

    @pytest.mark.parametrize(
        "move, tree",
        [
            ("_flatten_at", path_tree([-2, -1, 3])),
            ("_blow_down_at", path_tree([-2, -1, -2])),
            ("_absorb_at", path_tree([-2, 0, -2])),
        ],
    )
    def test_a_move_that_changes_nothing_fails_the_measure(self, monkeypatch, move, tree):
        # the termination measure is checked at every step, not assumed
        monkeypatch.setattr(plumbing, move, lambda weights, adj, v: [])
        with pytest.raises(AssertionError, match="reduction measure failed to decrease"):
            reduce_tree(tree)

    def test_created_vertices_count_in_the_measure(self, monkeypatch):
        # a flatten whose new chain came out positive would raise the
        # measure; the check reads the vertices a move creates as well
        real = plumbing._flatten_at

        def positive_chain(weights, adj, leaf):
            new = real(weights, adj, leaf)
            for x in new:
                weights[x] = 3
            return new

        monkeypatch.setattr(plumbing, "_flatten_at", positive_chain)
        # the leaf is not the largest id, so no new vertex reuses its id
        with pytest.raises(AssertionError, match="reduction measure failed to decrease"):
            reduce_tree(path_tree([3, -1, -2]))

    def test_preserves_det_through_full_reduction(self):
        spec = SurgerySpec(CableTower(((2, 7), (2, 31))), 64)
        raw = raw_plumbing(spec)
        red = reduce_tree(raw)
        assert abs(det_exact(gram_matrix(raw))) == abs(det_exact(gram_matrix(red))) == 64


class TestIsomorphism:
    def test_relabeled_iso(self):
        t = WeightedTree({0: -2, 1: -3, 2: -2, 3: -5}, [(0, 1), (1, 2), (1, 3)])
        relabeled = relabel(t, {0: 10, 1: 7, 2: 3, 3: 99})
        assert are_isomorphic(t, relabeled)
        assert canonical_form(t) == canonical_form(relabeled)

    def test_weights_matter(self):
        t1 = path_tree([-2, -3])
        t2 = path_tree([-2, -4])
        assert not are_isomorphic(t1, t2)

    def test_shape_matters(self):
        star = WeightedTree({0: -2, 1: -2, 2: -2, 3: -2}, [(0, 1), (0, 2), (0, 3)])
        path = path_tree([-2, -2, -2, -2])
        assert not are_isomorphic(star, path)

    def test_long_chain_does_not_recurse(self):
        n = 5000
        chain = path_tree([-2] * n)
        rng = random.Random(41)
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(chain, relabel(chain, dict(zip(range(n), perm))))
        bent = path_tree([-2] * (n - 1) + [-3])
        assert not are_isomorphic(chain, relabel(bent, dict(zip(range(n), perm))))
        assert not are_isomorphic(bent, path_tree([-3] + [-2] * (n - 2) + [-3]))

    def test_matches_brute_force_on_small_trees(self):
        rng = random.Random(43)
        verdicts = []
        for _ in range(300):
            t1 = random_tree(rng, max_vertices=6, weights=(-3, -2))
            t2 = random_tree(rng, max_vertices=6, weights=(-3, -2))
            while len(t2) != len(t1):
                t2 = random_tree(rng, max_vertices=6, weights=(-3, -2))
            verdicts.append(are_isomorphic(t1, t2))
            assert verdicts[-1] == brute_force_isomorphic(t1, t2)
        assert 20 < sum(verdicts) < 280

    def test_one_and_two_vertices(self):
        one, two = path_tree([-2]), path_tree([-2, -3])
        assert are_isomorphic(one, relabel(one, {0: 9}))
        assert not are_isomorphic(one, path_tree([-3]))
        assert are_isomorphic(two, relabel(path_tree([-3, -2]), {0: 5, 1: 4}))
        assert not are_isomorphic(two, path_tree([-2, -2]))
        assert not are_isomorphic(one, two)
        assert canonical_form(one) == (((-2, ()),),)
        assert canonical_form(two) == (((-3, ()), (-2, ())),)

    @pytest.mark.parametrize("n", [5, 6])  # one centre, then two
    def test_paths_of_odd_and_even_length(self, n):
        ws = [-2 - i for i in range(n)]
        path = path_tree(ws)
        assert len(canonical_form(path)) == (n + 1) // 2
        assert len(canonical_form(path)[-1]) == 2 - n % 2
        assert are_isomorphic(path, path_tree(ws[::-1]))
        for i in range(n - 1):  # swapping two weights moves a vertex
            moved = ws[:i] + [ws[i + 1], ws[i]] + ws[i + 2 :]
            assert not are_isomorphic(path, path_tree(moved))

    def test_differs_only_at_the_centre(self):
        a = spider(-2, [-2, -3], [-2, -3], [-4])
        b = spider(-5, [-2, -3], [-2, -3], [-4])
        assert canonical_form(a)[:-1] == canonical_form(b)[:-1]
        assert not are_isomorphic(a, b)
        # two centres, one of them different
        assert not are_isomorphic(path_tree([-2, -3, -3, -2]), path_tree([-2, -3, -4, -2]))

    def test_spiders_with_equal_layers_attached_differently(self):
        # both peel -5, -3, -2 and then -3, -2; only which leaf hangs on
        # which differs
        a = spider(-2, [-2, -3], [-3, -2], [-5])
        b = spider(-2, [-2, -2], [-3, -3], [-5])
        for t in (a, b):
            assert sorted(w for w, _ in canonical_form(t)[0]) == [-5, -3, -2]
        assert not are_isomorphic(a, b)
        assert not brute_force_isomorphic(a, b)

    def test_star_is_not_a_path_of_any_centre(self):
        star = spider(-2, [-2], [-2], [-2], [-2])
        assert not are_isomorphic(star, path_tree([-2] * 5))
        assert not are_isomorphic(star, spider(-2, [-2, -2], [-2], [-2]))
        assert canonical_form(star) == (((-2, ()),) * 4, ((-2, (0, 0, 0, 0)),))

    def test_agrees_with_the_centroid_encoding(self):
        # half relabelled copies, every third of those with one weight
        # nudged; half independent random trees of the same size
        rng = random.Random(47)
        counts = Counter()
        for i in range(20_000):
            n = rng.randint(1, 11)
            t1 = random_tree_of_size(rng, n)
            if i % 2:
                t2 = relabel(t1, dict(zip(t1.vertices(), rng.sample(range(10**6), n))))
                assert canonical_form(t2) == canonical_form(t1)
                if i % 3 == 1:
                    weights = t2.weights
                    weights[rng.choice(list(weights))] += rng.choice((-1, 1))
                    t2 = WeightedTree(weights, t2.edges)
            else:
                t2 = random_tree_of_size(rng, n)
            verdict = are_isomorphic(t1, t2)
            assert verdict == centroid_isomorphic(t1, t2), (t1.to_json(), t2.to_json())
            counts[i % 2, verdict] += 1
        # every kind of pair occurs often: the nudged copies are not isomorphic
        assert counts[1, True] == 6666 and counts[1, False] == 3334
        assert min(counts[0, True], counts[0, False]) > 1000, counts

    def test_long_path_in_about_linear_time(self):
        # the centroid encoding copies each suffix of a path: minutes here
        n = 100_000
        path = path_tree([-2] * n)
        perm = random.Random(53).sample(range(n), n)  # the path relabelled
        edges = list(zip(perm, perm[1:]))
        assert are_isomorphic(path, WeightedTree(dict.fromkeys(perm, -2), edges))
        bent = WeightedTree({**dict.fromkeys(perm, -2), perm[-1]: -3}, edges)
        assert not are_isomorphic(path, bent)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_reduce_never_crashes_and_preserves_det(seed):
    rng = random.Random(seed)
    t = random_tree(rng, max_vertices=9)
    before = abs(det_exact(gram_matrix(t)))
    r = reduce_tree(t)
    assert abs(det_exact(gram_matrix(r))) == before
