import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from knotplumb import plumbing
from knotplumb.cabling import CableTower, SurgerySpec, raw_plumbing, reduced_plumbing
from knotplumb.classify import family_tuple
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
    cofactor_det,
    fraction_forest_elimination,
    leading_principal_minors,
    minors_negative_definite,
    random_tree,
    reference_reduce_tree,
    relabel,
    signature,
)


THREE_ITERATION_SPECS = [
    SurgerySpec(CableTower(pairs), n)
    for pairs, n in (
        (((2, 3), (2, 17), (2, 69)), 140),
        (((3, 4), (2, 25), (2, 101)), 205),
        (((2, 3), (3, 19), (2, 115)), 233),
    )
]


def path_tree(weights):
    ids = list(range(len(weights)))
    return WeightedTree(dict(zip(ids, weights)), list(zip(ids, ids[1:])))


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
        # duplicate, so only the connectivity walk rejects it
        with pytest.raises(ValueError, match="not connected"):
            WeightedTree({0: -2, 1: -2, 2: -2, 3: -2}, [(0, 1), (1, 2), (0, 2)])

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
        triangle = [[-3, 1, 1], [1, -3, 1], [1, 1, -3]]
        assert det_exact(triangle) == bareiss_det(triangle) == -16
        assert is_negative_definite(triangle)
        singular = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
        assert det_exact(singular) == 0 and not is_negative_definite(singular)
        # a zero leaf hanging off the cycle
        tailed = [[0, 1, 0, 0], [1, -3, 1, 1], [0, 1, -3, 1], [0, 1, 1, -3]]
        assert_matches_oracles(tailed)

    def test_asymmetric_input(self):
        m = [[-2, 1, 0], [0, -2, 1], [0, 1, -2]]
        assert det_exact(m) == bareiss_det(m) == -6
        with pytest.raises(ValueError):
            is_negative_definite(m)

    def test_rejects_non_square(self):
        # unchecked, Bareiss reads [[1, 2]] as det 1 and the second as
        # negative definite
        for m in ([[1, 2]], [[-2, 1, 0], [1, -2]], [[-2], [1]]):
            with pytest.raises(ValueError, match="not square"):
                det_exact(m)
            with pytest.raises(ValueError, match="not square"):
                is_negative_definite(m)

    def test_long_chain_is_linear(self, monkeypatch):
        # integer numerators and denominators only: no Fraction is built
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
        # a zero entry that leaf elimination skips but Bareiss reads: on a
        # cycle, and where it breaks the symmetry
        for zero in (0.0, Fraction(0), False):
            cases.append([[-3, 1, 1, zero], [1, -3, 1, 0], [1, 1, -3, 0], [zero, 0, 0, -2]])
            cases.append([[-2, 1], [zero, -2]])
        for m in cases:
            with pytest.raises(TypeError):
                det_exact(m)
            with pytest.raises(TypeError):
                is_negative_definite(m)

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
        # heavy weights and entries up to 3 make the numerators and
        # denominators grow far past machine words (determinants of up to
        # 228 bits), and the weights from -40 to 10 fire the zero rule in
        # about a fifth of these forests
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
        # the Bareiss pass behind det_exact decides definiteness too: its
        # pivots are the leading minors until it first swaps rows
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
            if plumbing._forest_elimination(m) is not None:
                continue  # a forest: not the fallback
            det = det_exact(m)
            assert det == bareiss_det(m)
            negdef = is_negative_definite(m)
            assert negdef == minors_negative_definite(m)
            kinds[det == 0, negdef] += 1
        assert set(kinds) == {(True, False), (False, False), (False, True)}, kinds
        assert min(kinds.values()) >= 20, kinds

    def test_bareiss_swaps_rows_at_zero_pivots(self):
        # cycle-supported and asymmetric matrices kept only when a leading
        # minor vanishes, so the pass meets a zero pivot: it must swap in a
        # lower row there, or stop at a zero column
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
            if 0 not in minors or plumbing._forest_elimination(m) is not None:
                continue
            det = det_exact(m)
            assert det == bareiss_det(m) == cofactor_det(m), m
            if m == [list(col) for col in zip(*m)]:
                assert (is_negative_definite(m), minors_negative_definite(m)) == (False, False)
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    is_negative_definite(m)
            kinds[symmetric, min(minors.index(0), 2), det != 0] += 1
        # both kinds, a first zero pivot at k = 0, 1 and >= 2, singular or not
        assert len(kinds) == 12 and min(kinds.values()) >= 10, kinds


class TestFormInvariants:
    """form_invariants eliminates leaves over the tree's own edges; the
    matrix functions on its Gram matrix pin it."""

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
        # a 0-leaf on a -1: the zero rule fires
        assert form_invariants(path_tree([0, -1, -2, -2])) == (-3, False)

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
            assert blow_down(up, up.fresh_id() - 1) == t
            if len(t) > 1:
                e = sorted(t.edges)[0]
                up = blow_up(t, e)
                assert blow_down(up, up.fresh_id() - 1) == t

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
            assert out == WeightedTree(out.weights, out.edges)
            for v in out.vertices():
                ends = {b if a == v else a for a, b in out.edges if v in (a, b)}
                assert out.neighbors(v) == ends
        assert t.to_json() == before
    assert len(applied) == 4 and min(applied.values()) > 20, applied


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
        for t in trees:
            assert reduce_tree(t).to_json() == reference_reduce_tree(t).to_json()

    def test_branch_encodings_are_kept_across_moves(self, monkeypatch):
        # a count, not a time: re-encoding the whole tree at every step
        # built 1901, 3769 and 3597 branch encodings on these towers
        real = plumbing._rooted_encoding
        built = []

        def counting(tree, root, memo):
            size = len(memo)
            encoding = real(tree, root, memo)
            built[-1] += len(memo) - size
            return encoding

        monkeypatch.setattr(plumbing, "_rooted_encoding", counting)
        for spec, rebuilt in zip(THREE_ITERATION_SPECS, (1901, 3769, 3597)):
            built.append(0)
            reduce_tree(raw_plumbing(spec))
            assert 0 < built[-1] <= rebuilt // 2

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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_reduce_never_crashes_and_preserves_det(seed):
    rng = random.Random(seed)
    t = random_tree(rng, max_vertices=9)
    before = abs(det_exact(gram_matrix(t)))
    r = reduce_tree(t)
    assert abs(det_exact(gram_matrix(r))) == before
