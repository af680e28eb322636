import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from knotplumb import cabling, cli, plumbing
from knotplumb.classify import admissible_tuples, classify_one, desk_range_tuples
from knotplumb.cabling import (
    CableTower,
    ReducibleBoundaryError,
    SurgerySpec,
    UnsupportedTowerError,
    _TreeBuilder,
    _fold,
    _junction_builder,
    _require_positive_framing,
    closed_form_two_iter,
    corner_weight,
    raw_plumbing,
    reduced_plumbing,
)
from knotplumb.plumbing import (
    NoNegativeDefiniteFormError,
    WeightedTree,
    are_isomorphic,
    det_exact,
    form_invariants,
    gram_matrix,
    is_negative_definite,
    reduce_tree,
)

from knotplumb.hjcf import expand_neg_cf
from knotplumb.lattice import SearchStatus, find_embedding
from oracles import (
    bareiss_det,
    closed_form_reference,
    contract_junctions,
    depth_first_search,
    fold_mismatches,
    fraction_forest_elimination,
    junction_form,
    minors_negative_definite,
    random_tree,
    signature,
    spec_from_json_obj,
    spec_to_json_obj,
    two_iter_parameters,
)
from test_plumbing import THREE_ITERATION_SPECS, random_tower_spec


class TestCableTower:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            CableTower(((2, 4),))

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            CableTower(((1, 3),))

    def test_algebraicity(self):
        assert CableTower(((2, 3), (2, 13))).is_algebraic()
        assert not CableTower(((2, 3), (2, 11))).is_algebraic()

    def test_rejects_non_integer_parameters(self):
        # int() would read ((2.9, 3), (2, 17.5)) as ((2, 3), (2, 17))
        for pairs in (((2.9, 3), (2, 17.5)), ((2, 3), (2, 17.0)), ((True, 3),), (("2", 3),)):
            with pytest.raises(TypeError, match="must be integers"):
                CableTower(pairs)


class TestCornerWeight:
    def test_worked_examples(self):
        assert corner_weight(2, 3) == 1
        assert corner_weight(2, 7) == 1

    def test_medium_range(self):
        for p in range(2, 41):
            for a in range(p + 1, 41):
                if math.gcd(p, a) == 1:
                    assert corner_weight(p, a) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            corner_weight(3, 2)
        with pytest.raises(ValueError):
            corner_weight(2, 4)


class TestRawPlumbing:
    @pytest.mark.parametrize(
        "pairs,n",
        [
            (((2, 3),), 8),
            (((2, 3),), 7),
            (((3, 4),), 15),
            (((2, 3), (2, 17)), 36),
            (((2, 3), (2, 17)), 40),
            (((2, 7), (2, 31)), 64),
            (((2, 3), (3, 26)), 81),
            (((2, 3), (2, 17), (2, 69)), 140),
        ],
    )
    def test_det_equals_surgery_coefficient(self, pairs, n):
        spec = SurgerySpec(CableTower(pairs), n)
        assert abs(det_exact(gram_matrix(raw_plumbing(spec)))) == n

    def test_single_iteration_reduces_to_standard_star(self):
        # S^3_8(T(2,3)): central -2 with arms (-3), (-2) and the flattened
        # N - 1 = 1 tail vertex
        spec = SurgerySpec(CableTower(((2, 3),)), 8)
        star = WeightedTree({0: -3, 1: -2, 2: -2, 3: -2}, [(0, 1), (1, 2), (1, 3)])
        assert are_isomorphic(reduce_tree(raw_plumbing(spec)), star)

    def test_single_body_raw_has_positive_index_one(self):
        for pairs, n in [(((2, 3),), 8), (((3, 5),), 20), (((2, 7),), 16)]:
            spec = SurgerySpec(CableTower(pairs), n)
            pos, zero, _ = signature(gram_matrix(raw_plumbing(spec)))
            assert (pos, zero) == (1, 0)

    def test_raw_positive_index_counts_bodies(self):
        # each junction contributes one positive eigenvalue on top of the
        # leaf's; contracting the junctions brings the index down to one
        for pairs, n, bodies in [
            (((2, 3), (2, 17)), 36, 2),
            (((2, 3), (2, 17), (2, 69)), 140, 3),
        ]:
            spec = SurgerySpec(CableTower(pairs), n)
            pos, zero, _ = signature(gram_matrix(raw_plumbing(spec)))
            assert (pos, zero) == (bodies, 0)

    def test_contracted_graph_has_positive_index_one(self):
        # the positive index bottoms out at one once the junctions are
        # contracted, before the positive leaf is traded for the tail
        for pairs, n in [(((2, 3), (2, 17)), 36), (((2, 3), (2, 17), (2, 69)), 140)]:
            spec = SurgerySpec(CableTower(pairs), n)
            minimal = contract_junctions(raw_plumbing(spec))
            pos, zero, _ = signature(gram_matrix(minimal))
            assert (pos, zero) == (1, 0)
            leaf_adjacent = [
                minimal.weight(u)
                for v in minimal.vertices()
                if minimal.weight(v) >= 1
                for u in minimal.neighbors(v)
            ]
            assert leaf_adjacent == [-1]

    def test_rejects_non_algebraic(self):
        with pytest.raises(UnsupportedTowerError):
            raw_plumbing(SurgerySpec(CableTower(((2, 3), (2, 11))), 30))

    def test_rejects_reversed_pair(self):
        with pytest.raises(UnsupportedTowerError):
            raw_plumbing(SurgerySpec(CableTower(((3, 2),)), 8))


class TestReducedPlumbing:
    def test_worked_example(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        red = reduced_plumbing(spec)
        assert len(red) == 8
        assert abs(det_exact(gram_matrix(red))) == 36
        assert is_negative_definite(gram_matrix(red))

    def test_prop_4_2_example(self):
        red = reduced_plumbing(SurgerySpec(CableTower(((2, 7), (2, 31))), 64))
        assert is_negative_definite(gram_matrix(red))
        assert abs(det_exact(gram_matrix(red))) == 64

    def test_negative_n_raises(self):
        with pytest.raises(NoNegativeDefiniteFormError):
            reduced_plumbing(SurgerySpec(CableTower(((2, 3), (2, 17))), 33))

    def test_zero_n_raises(self):
        with pytest.raises(ReducibleBoundaryError):
            reduced_plumbing(SurgerySpec(CableTower(((2, 3), (2, 17))), 34))

    def test_matches_the_calculus(self):
        # the junction rule against its oracle, the calculus on the raw
        # tree, byte for byte (ids included): random algebraic towers and
        # the lift towers
        rng = random.Random(21)
        specs = [random_algebraic_spec(rng) for _ in range(200)]
        specs += [lift_tower(k) for k in range(1, 7)]
        for spec in specs:
            calculus = reduce_tree(raw_plumbing(spec))
            assert reduced_plumbing(spec).to_json() == calculus.to_json(), spec

    def test_matches_the_calculus_eight_iterations_deep(self):
        # the 8-iteration lift tower, 49,174 raw vertices: the calculus
        # reduces it in 0.65 CPU seconds on a 2-core host, where comparing
        # the junction sites' rooted encodings at each step took 9.3 s
        spec = lift_tower(8)
        raw = raw_plumbing(spec)
        start = time.process_time()
        calculus = reduce_tree(raw)
        assert time.process_time() - start < 3
        assert calculus.to_json() == reduced_plumbing(spec).to_json()

    def test_builds_in_output_size(self, monkeypatch):
        # only what survives is expanded: no torso's leading -2 run is, so
        # the coefficients expanded for the 12-iteration lift tower (a_12
        # near 10^7) stay within a small multiple of rank plus iterations
        expanded = []

        def counting(x, q=None):
            coeffs = expand_neg_cf(x, q)
            expanded.extend(coeffs)
            return coeffs

        monkeypatch.setattr(cabling, "expand_neg_cf", counting)
        spec = lift_tower(12)
        tree = reduced_plumbing(spec)
        assert len(tree) == 3 * 12 + 2 == 38
        assert abs(form_invariants(tree)[0]) == spec.n
        assert len(expanded) <= 2 * (len(tree) + 12)

    def test_rejects_a_junction_dropping_more_than_twos(self, monkeypatch):
        # (2,3;2,11) is not algebraic: the junction into torso 2 would
        # contract past its -2 run, which the builder refuses to do
        monkeypatch.setattr(cabling, "_require_buildable", lambda spec: None)
        with pytest.raises(AssertionError, match="other than -2"):
            reduced_plumbing(SurgerySpec(CableTower(((2, 3), (2, 11))), 30))

    @pytest.mark.parametrize("argv,n", [
        (["reduced_plumbing"], 36), (["closed_form_two_iter"], 36), (["classify_one"], 36),
        (["classify_one"], 37),
        (["sweep", "--p1", "2", "--k1", "1", "--p2", "2", "--k2-max", "8", "--N", "2"], 36),
        (["embed", "--pairs", "2,3,2,17", "--n", "36"], 36),
    ], ids=lambda x: x[0] if isinstance(x, list) else str(x))
    def test_every_junction_build_checks_its_weights(self, monkeypatch, tmp_path, fresh_hooks,
                                                     argv, n):
        # each hook laid with its leg's end at -1 (a/p's second coefficient
        # 1; every p here is 2, and only a leg expands an x/2): every path
        # onto the junction rule's tree, a non-square n and the sweep's
        # vertex count included, refuses it in the fold, before the fold's
        # |det| check, which would fail instead
        def leg_end_at_one(x, q=None):
            coeffs = expand_neg_cf(x, q)
            return coeffs[:1] + (1,) + coeffs[2:] if q == 2 else coeffs

        monkeypatch.setattr(cabling, "expand_neg_cf", leg_end_at_one)
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: [])
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), n)
        calls = {"reduced_plumbing": reduced_plumbing, "closed_form_two_iter": closed_form_two_iter,
                 "classify_one": classify_one}
        with pytest.raises(AssertionError, match="the junction rule left a weight above -2"):
            if argv[0] in calls:
                calls[argv[0]](spec)
            else:
                cli.main([*argv, "--out", str(tmp_path)])

    def test_a_mutated_weight_fails_the_determinant_check(self, monkeypatch, fresh_hooks):
        # hook 2 of T(2,3; 2,53) laid with its leg's -2 at -3: the fold of
        # a non-square n, decided by |det| alone, refuses the tree
        def leg_at_three(x, q=None):
            coeffs = expand_neg_cf(x, q)
            return (27, 3) if (x, q) == (53, 2) else coeffs

        spec = SurgerySpec(CableTower(((2, 3), (2, 53))), 108)
        assert classify_one(spec).proof == "determinant"
        cabling._hook.cache_clear()
        monkeypatch.setattr(cabling, "expand_neg_cf", leg_at_three)
        with pytest.raises(AssertionError, match="does not match surgery coefficient 108"):
            classify_one(spec)


@pytest.fixture
def fresh_hooks():
    """cabling._hook's cache emptied before and after a test that lays
    hooks from a patched expansion, so that no other test reads them."""
    cabling._hook.cache_clear()
    yield
    cabling._hook.cache_clear()


def random_algebraic_spec(rng):
    """An algebraic tower of 1-4 iterations, p <= 5, N in 1..14, each a_i
    within 3p + 20 of the algebraic bound in a tower of 1-2 iterations and
    within 2p in one of 3-4, where the bound multiplies any slack in a_1
    by up to p^6 (tens of thousands of raw vertices)."""
    pairs = []
    iterations = rng.randint(1, 4)
    for _ in range(iterations):
        p = rng.randint(2, 5)
        low = pairs[-1][0] * p * pairs[-1][1] + 1 if pairs else p + 1
        width = 3 * p + 20 if iterations <= 2 else 2 * p
        coprime = [a for a in range(low, low + width) if math.gcd(a, p) == 1]
        pairs.append((p, rng.choice(coprime)))
    p, a = pairs[-1]
    return SurgerySpec(CableTower(tuple(pairs)), p * a + rng.randint(1, 14))


def construction_parents(tree):
    """A built tree's parents in construction order: ascending ids, each
    vertex's parent its one lesser neighbour (the first's None)."""
    return {v: min((u for u in tree.neighbors(v) if u < v), default=None) for v in tree.vertices()}


def construction_entries(tree):
    """plumbing._eliminate's lists for a built tree in construction order,
    one entry per vertex and no run."""
    parents = construction_parents(tree)
    index = {v: i for i, v in enumerate(parents)}
    return [tree.weight(v) for v in parents], [index.get(p) for p in parents.values()], {}


def walked_form(tree):
    """The kernel's form of a tree eliminated in the order of its walk."""
    order, up = plumbing._walked(tree._adj)
    return plumbing._eliminate([tree.weight(v) for v in order], up, {})


def meets_zero_pivot(tree):
    """Whether eliminating a built tree in the reverse of construction order
    meets a zero pivot."""
    diag = {v: Fraction(w) for v, w in tree.weights.items()}
    for v, p in reversed(construction_parents(tree).items()):
        if diag[v] == 0:
            return True
        if p is not None:
            diag[p] -= 1 / diag[v]
    return False


def lift_tower(k):
    """The T(2,3) lift tower (2,3; 2,17; 2,71; ...) of k iterations, at
    n = 9 * 4^(k-1): each lift is (2, 2m^2 - 1) at (2m)^2, N = 2."""
    pairs, n = [(2, 3)], 9
    for _ in range(k - 1):
        pairs.append((2, 2 * n - 1))
        n *= 4
    return SurgerySpec(CableTower(tuple(pairs)), n)


def reference_tree(spec, with_roles=False):
    """The closed form as the reference builds it from its formulas."""
    return closed_form_reference(two_iter_parameters(spec)).finish(with_roles)


def wide_family_specs(rng, count):
    """Seeded two-iteration specs in the +-1 families: p_i in {2,3,4,5,7},
    k1 <= 4, a2 up to 40 levels past the algebraic bound (the first the
    l = -1 boundary), N in 1..12 or up to 300."""
    specs = []
    for _ in range(count):
        p1, p2 = rng.choice((2, 3, 4, 5, 7)), rng.choice((2, 3, 4, 5, 7))
        a1 = rng.randint(1, 4) * p1 + 1
        k2 = p1 * a1 + rng.choice((0, 0, 1, rng.randint(2, 40)))
        a2 = k2 * p2 + rng.choice((1, p2 - 1))
        n_red = rng.randint(1, 12) if rng.random() < 0.8 else rng.randint(13, 300)
        specs.append(SurgerySpec(CableTower(((p1, a1), (p2, a2))), n_red + p2 * a2))
    return specs


class TestClosedForm:
    def test_matches_calculus_on_worked_example(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        assert are_isomorphic(reference_tree(spec), reduced_plumbing(spec))

    def test_equals_the_reference(self):
        # the junction rule's tree, numbered without gaps, is the closed
        # formulas' tree: ids, weights, roles and memoised form, on the
        # desk range, at N = 1, and on a seeded wide sample with both
        # congruence signs and the l = -1 boundary
        tuples = desk_range_tuples() + admissible_tuples((2, 3, 5), (1, 2, 3), (2, 3, 5), 40, (1,))
        specs = [SurgerySpec(CableTower((t[:2], t[2:4])), t[4]) for t in tuples]
        specs += wide_family_specs(random.Random(43), 400)
        seen = set()
        for spec in specs:
            par = two_iter_parameters(spec)
            tree, roles = closed_form_two_iter(spec, with_roles=True)
            ref, ref_roles = reference_tree(spec, with_roles=True)
            assert tree.to_json() == ref.to_json(), spec
            assert roles == ref_roles and tree._form == ref._form, spec
            seen.add((par["sign"], par["l"] == -1, min(par["N"], 2) if par["N"] <= 12 else 13))
        assert seen == {(s, b, n) for s in (-1, 1) for b in (False, True) for n in (1, 2, 13)}

    def test_family2_shape(self):
        spec = SurgerySpec(CableTower(((2, 7), (2, 31))), 64)
        tree = closed_form_two_iter(spec)
        par = two_iter_parameters(spec)
        assert len(tree) == par["k1"] + par["p1"] + par["l"] + par["p2"] + par["N"]
        assert abs(det_exact(gram_matrix(tree))) == 64

    def test_rank_formula_across_the_range(self):
        # k1 + p1 + l + p2 + N counts vertices in every congruence regime
        from knotplumb.classify import desk_range_tuples

        for p1, a1, p2, a2, n in desk_range_tuples():
            spec = SurgerySpec(CableTower(((p1, a1), (p2, a2))), n)
            par = two_iter_parameters(spec)
            expected = par["k1"] + par["p1"] + par["l"] + par["p2"] + par["N"]
            assert len(closed_form_two_iter(spec)) == expected

    def test_boundary_case_merges_low_vertex_into_node(self):
        # (2,3;2,13;28): algebraic-only, so the -3 sits next to -(p1+1)
        spec = SurgerySpec(CableTower(((2, 3), (2, 13))), 28)
        tree, roles = closed_form_two_iter(spec, with_roles=True)
        (node1,) = [v for v in tree.vertices() if roles[v] == "node1"]
        assert tree.weight(node1) == -3
        torso1_end = [
            v for v in tree.neighbors(node1) if roles[v] == "torso1"
        ]
        assert [tree.weight(v) for v in torso1_end] == [-3]
        assert are_isomorphic(reference_tree(spec), reduced_plumbing(spec))

    def test_plus_one_congruence_shape(self):
        # a2 = +1 (mod p2) with p2 = 3: torso 2 ends in -(p2+1), leg 2 is twos
        spec = SurgerySpec(CableTower(((2, 3), (3, 22))), 70)
        tree, roles = closed_form_two_iter(spec, with_roles=True)
        torso2 = [tree.weight(v) for v in tree.vertices() if roles[v] == "torso2"]
        leg2 = [tree.weight(v) for v in tree.vertices() if roles[v] == "leg2"]
        assert torso2[-1] == -4 and all(w == -2 for w in torso2[:-1])
        assert leg2 == [-2, -2]
        assert are_isomorphic(reference_tree(spec), reduced_plumbing(spec))

    def test_rejects_out_of_family(self):
        with pytest.raises(UnsupportedTowerError):
            closed_form_two_iter(SurgerySpec(CableTower(((2, 3), (5, 67))), 340))
        with pytest.raises(UnsupportedTowerError):
            closed_form_two_iter(SurgerySpec(CableTower(((2, 3),)), 8))

    def test_rejects_negative_n(self):
        with pytest.raises(NoNegativeDefiniteFormError):
            closed_form_two_iter(SurgerySpec(CableTower(((2, 3), (2, 17))), 20))


class TestBuilder:
    def test_built_trees_equal_validated_copies(self):
        # the builder attaches each vertex to an earlier one and freezes the
        # result unchecked; the validating constructor must accept it and
        # agree on weights, edges and adjacency
        rng = random.Random(83)
        specs = [SurgerySpec(CableTower((t[:2], t[2:4])), t[4]) for t in desk_range_tuples()]
        trees = [build(spec) for spec in specs for build in (closed_form_two_iter, raw_plumbing)]
        towers = THREE_ITERATION_SPECS + [random_tower_spec(rng, k) for k in (1, 2, 3, 4) for _ in range(6)]
        trees += [build(spec) for spec in towers for build in (raw_plumbing, reduced_plumbing)]
        for t in trees:
            copy = WeightedTree(t.weights, t.edges)
            assert t == copy and t._adj == copy._adj, t
            assert hash(t) == hash(copy) and copy.edges == t.edges, t
        assert len(trees) == 2 * 1005 + 2 * 27

    def test_vertex_count_before_the_freeze(self):
        # each builder counts its tree's vertices, runs whole and the
        # junction rule's gaps left out, before any run is expanded
        rng = random.Random(44)
        specs = [random_algebraic_spec(rng) for _ in range(40)]
        desk = [SurgerySpec(CableTower((t[:2], t[2:4])), t[4]) for t in desk_range_tuples()[::7]]
        built = [(cabling._raw_builder, raw_plumbing),
                 (lambda spec: cabling._reduced_builder(spec, gaps=False), closed_form_two_iter),
                 (lambda spec: cabling._reduced_builder(spec, gaps=True), reduced_plumbing)]
        for spec in specs + desk:
            for builder, build in built[::1 if spec in desk else 2]:
                assert builder(spec).vertices() == len(build(spec)), spec
            assert cabling._reduced_builder(spec, gaps=False).vertices() == len(reduced_plumbing(spec))
        huge = SurgerySpec(CableTower(((2, 3), (2, 13))), 10**12)
        assert cabling._reduced_builder(huge, gaps=False).vertices() == 10**12 - 22

    def test_one_pass_in_construction_order(self):
        # the builder eliminates in the reverse of construction order, with
        # no walk; the form it memoises must be the walk-order kernel's and
        # the oracles', on raw trees (indefinite, and at N <= 0 with a zero
        # pivot), reduced and closed-form trees of random towers and the
        # desk range
        rng = random.Random(29)
        specs = [random_algebraic_spec(rng) for _ in range(40)]
        desk = [SurgerySpec(CableTower((t[:2], t[2:4])), t[4]) for t in desk_range_tuples()]
        trees = [build(spec) for spec in specs + desk for build in (raw_plumbing, reduced_plumbing)]
        trees += [closed_form_two_iter(spec) for spec in desk]
        low = [
            raw_plumbing(SurgerySpec(spec.knot, spec.n - spec.reduced_framing + n_red))
            for spec in [s for s in specs if s.knot.iterations <= 2] + desk[::10]
            for n_red in (-3, -1, 0)
        ]
        assert sum(map(meets_zero_pivot, low)) >= len(low) // 3
        indefinite = 0
        for i, t in enumerate(trees + low):
            form = plumbing._eliminate(*construction_entries(t))
            assert form == t._form == walked_form(t), t
            if len(t) <= 400 and i % 3 == 0:  # raw, reduced and closed-form trees alike
                assert form == fraction_forest_elimination(gram_matrix(t)), t
            if len(t) <= 12:
                g = gram_matrix(t)
                assert form == (bareiss_det(g), minors_negative_definite(g)), t
            indefinite += not form[1]
        assert indefinite == len(low) + 40 + 1005

    def test_every_tree_carries_its_checked_form(self):
        # each builder holds the form it checked |det| = |n| with, and its
        # tree memoises it: raw trees (at N <= 0 too), reduced and
        # closed-form trees of random towers and the desk range, each
        # against form_invariants of a copy frozen with no form
        rng = random.Random(53)
        specs = [random_algebraic_spec(rng) for _ in range(40)]
        desk = [SurgerySpec(CableTower((t[:2], t[2:4])), t[4]) for t in desk_range_tuples()[::3]]
        trees = [build(spec) for spec in specs + desk for build in (raw_plumbing, reduced_plumbing)]
        trees += [closed_form_two_iter(spec) for spec in desk]
        trees += [raw_plumbing(SurgerySpec(spec.knot, spec.n - spec.reduced_framing + n_red))
                  for spec in desk[::10] for n_red in (-3, 0)]
        trees += [raw_plumbing(spec, with_roles=True)[0] for spec in specs[:5]]
        trees += [closed_form_two_iter(spec, with_roles=True)[0] for spec in desk[:5]]
        for t in trees:
            copy = plumbing._frozen(dict(t._weights), t._adj)
            assert t._form is not None and copy._form is None, t
            assert t._form == form_invariants(copy), t


class TestRunStep:
    """The builder's pass takes a -2 run in one step; against it, the same
    tree expanded and eliminated a vertex at a time, by the kernel in
    construction order and by walk, and the Fraction-pivot oracle."""

    @staticmethod
    def assert_agree(build):
        tree = plumbing._frozen(*build._expanded())
        form = plumbing._eliminate(build.weight, build.parent, build.runs)
        assert form == plumbing._eliminate(*construction_entries(tree))
        assert form == walked_form(tree)
        if len(tree) <= 400:
            assert form == fraction_forest_elimination(gram_matrix(tree))
        return form

    @pytest.mark.parametrize("count", [1, 2, 3, 100, 101])
    def test_entry_values(self, count):
        # leaves of weights w on the run's lowest vertex enter it at
        # -2 - sum(1/w): below -1 (every pivot negative), -1 (all -1), -m/(m+1)
        # in (-1, 0) for w = -1, -(m+1) (a zero pivot at the run's k = m,
        # inside it, just below its top, at its top or past it), 0 and 1
        # (zero and positive from the start); a 0-leaf, a zero pivot below
        # the run, leaves its lowest vertex a den of 0.  The run is a root
        # or hangs off a vertex.
        leaf_sets = [[], [1], [-1], [-1, -1], [-1, -1, -1], [0], [0, -1], [0, 0]]
        leaf_sets += [[-1, -(m + 1)] for m in {1, 2, count - 2, count - 1, count} if m > 0]
        outcomes = set()
        for leaves in leaf_sets:
            for parent_weight in (None, -2, -1, 0, 3):
                build = _TreeBuilder()
                top = None if parent_weight is None else build.add(parent_weight, "parent")
                run = build.add(-2, "run", top, count)
                for w in leaves:
                    build.add(w, "leaf", run)
                det, negative = self.assert_agree(build)
                outcomes.add((det == 0, negative))
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_random_trees(self):
        # runs anywhere: under runs, under vertices of any weight, with
        # children that make their pivots cross zero
        rng = random.Random(31)
        outcomes = Counter()
        for _ in range(400):
            build = _TreeBuilder()
            for _ in range(rng.randint(1, 10)):
                attach = rng.choice(range(len(build.weight))) if build.weight else None
                if rng.random() < 0.4:
                    build.add(-2, "run", attach, rng.choice((2, 3, 5, 100)))
                else:
                    build.add(rng.randint(-4, 3), "vertex", attach)
            det, negative = self.assert_agree(build)
            outcomes[det == 0, negative] += 1
        assert len(outcomes) == 3 and min(outcomes.values()) >= 5, outcomes

    def test_towers(self):
        # the junction rule's runs at N up to 600, with and without its gaps
        rng = random.Random(37)
        for _ in range(40):
            spec = random_tower_spec(rng, rng.randint(1, 4))
            spec = SurgerySpec(spec.knot, spec.n + rng.randint(0, 560))
            for gaps in (True, False):
                build = _junction_builder(spec, gaps, None)
                assert build.runs
                det, negative = self.assert_agree(build)
                assert abs(det) == spec.n and negative

    def test_a_run_of_any_length(self):
        # a -2 chain of c vertices has det (-1)^c (c + 1), in one step
        for c in (2, 3, 10**6, 10**12, 10**12 + 1):
            assert plumbing._eliminate([-2], [None], {0: c}) == ((-1) ** c * (c + 1), True)


class TestBuilderPass:
    """A non-square n is decided by the fold from the hooks, with no list
    built and no tree frozen: its form and rank against the frozen tree's,
    at any N against the vertex-count formula and |det| = n, and against
    plumbing._eliminate and vertices() on the junction builder's lists."""

    def test_matches_the_frozen_tree(self):
        # a seeded two-iteration grid, p_i in {2,3,4,5,7}, both congruence
        # signs, N = 2..40; the form recomputed by walk on a validated copy
        rng = random.Random(4301)
        specs = []
        for p1 in (2, 3, 4, 5, 7):
            for p2 in (2, 3, 4, 5, 7):
                for r in sorted({1, p2 - 1}):
                    a1 = rng.randint(1, 4) * p1 + 1
                    a2 = (p1 * a1 + rng.choice((0, 1, rng.randint(2, 40)))) * p2 + r
                    knot = CableTower(((p1, a1), (p2, a2)))
                    specs += [SurgerySpec(knot, n_red + p2 * a2) for n_red in range(2, 41)]
        decided = 0
        for spec in specs:
            det, negative, vertices = _fold(spec)
            tree = closed_form_two_iter(spec)
            copy = WeightedTree(tree.weights, tree.edges)
            assert (det, negative) == form_invariants(copy), spec
            assert vertices == len(copy), spec
            if math.isqrt(spec.n) ** 2 != spec.n:
                row = classify_one(spec)
                assert (row.rank, row.proof, row.nodes) == (len(copy), "determinant", 0), spec
                decided += 1
        assert len(specs) == 45 * 39 and decided > 1600

    def test_fold_equals_the_lists_elimination(self):
        # signed det, definiteness and vertex count, fold against the
        # builder's lists: every desk tuple, N up to 10^12, and seeded
        # towers of 1-4 iterations (each N also at 10^12)
        desk = desk_range_tuples()
        assert len(desk) == 1005 and fold_mismatches(desk) == []
        far = admissible_tuples((2, 3, 5), (1, 3), (2, 7), 40, (13, 10**6 + 1, 10**9, 10**12))
        assert len(far) > 1000 and fold_mismatches(far) == []
        rng = random.Random(5101)
        for spec in [random_algebraic_spec(rng) for _ in range(300)]:
            far = SurgerySpec(spec.knot, spec.n - spec.reduced_framing + 10**12)
            for s in (spec, far):
                det, negative, vertices = _fold(s)
                assert (det, negative, vertices) == junction_form(s), s
                assert abs(det) == s.n and negative, s

    def test_any_framing(self):
        # non-square n at N up to 10^12: the rank is the vertex count
        # k1 + p1 + l + p2 + N, |det| = n, and the form is the closed
        # formulas' builder's, whose runs lie elsewhere
        rng = random.Random(4302)
        checked = 0
        for knot in [spec.knot for spec in wide_family_specs(rng, 30)]:
            p2, a2 = knot.pairs[1]
            for n_red in (41, 10**3 + 1, 10**6 + 3, 10**9 + 7, 10**12 - 1, 10**12):
                spec = SurgerySpec(knot, n_red + p2 * a2)
                if math.isqrt(spec.n) ** 2 == spec.n:
                    continue
                par = two_iter_parameters(spec)
                rank = par["k1"] + par["p1"] + par["l"] + par["p2"] + par["N"]
                det, negative, vertices = _fold(spec)
                assert abs(det) == spec.n and negative, spec
                assert (det, negative) == closed_form_reference(par).form, spec
                assert vertices == rank == classify_one(spec).rank, spec
                checked += 1
        assert checked >= 170


class TestFramingRule:
    @pytest.mark.parametrize("n", [34, 33, 20])
    def test_builders_reject_alike(self, n):
        # N = 0, -1, -14: one exception class and message from both paths
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), n)
        errors = []
        for build in (closed_form_two_iter, reduced_plumbing):
            with pytest.raises(ValueError) as info:
                build(spec)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        want = ReducibleBoundaryError if n == 34 else NoNegativeDefiniteFormError
        assert errors[0][0] is want

    def test_rejects_a_tail_longer_than_sys_maxsize(self):
        # the closed form's tail and the flattening of the leaf add N - 1
        # vertices of weight -2, which no range of ids can hold past
        # sys.maxsize
        for pairs in (((2, 3),), ((2, 3), (2, 17))):
            p, a = pairs[-1]
            with pytest.raises(UnsupportedTowerError, match=f"at most {sys.maxsize}"):
                _require_positive_framing(SurgerySpec(CableTower(pairs), p * a + sys.maxsize + 2))
            _require_positive_framing(SurgerySpec(CableTower(pairs), p * a + sys.maxsize + 1))
        spec = SurgerySpec(CableTower(((2, 3),)), 6 + 10**30)
        with pytest.raises(UnsupportedTowerError):
            reduced_plumbing(spec)
        # the raw graph keeps N as the weight of one leaf
        raw = raw_plumbing(spec)
        assert (len(raw), max(raw.weights.values())) == (4, 10**30)


class TestTwoIterParameters:
    def test_worked_example(self):
        par = two_iter_parameters(SurgerySpec(CableTower(((2, 3), (2, 17))), 36))
        assert par == {
            "p1": 2, "a1": 3, "k1": 1, "p2": 2, "a2": 17,
            "k2": 8, "sign": -1, "N": 2, "l": 1,
        }

    def test_congruence_rejected(self):
        with pytest.raises(UnsupportedTowerError):
            two_iter_parameters(SurgerySpec(CableTower(((2, 3), (5, 67))), 340))

    def test_json_round_trip(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        assert spec_from_json_obj(spec_to_json_obj(spec)) == spec

    def test_rejects_non_integer_coefficient(self):
        # a float n used to pass here and fail deep inside classify_one
        knot = CableTower(((2, 3), (2, 17)))
        for n in (36.0, True, "36"):
            with pytest.raises(TypeError, match="must be an integer"):
                SurgerySpec(knot, n)
            with pytest.raises(TypeError, match="must be an integer"):
                spec_from_json_obj({"pairs": [[2, 3], [2, 17]], "n": n})


def three_iteration_squares(rng, count):
    """Seeded three-iteration towers (random_tower_spec), each at one of
    the three squares just past p3 * a3, reduced."""
    trees = []
    while len(trees) < count:
        knot = random_tower_spec(rng, 3).knot
        p, a = knot.pairs[-1]
        m = math.isqrt(p * a) + 1 + rng.randrange(3)
        trees.append(reduced_plumbing(SurgerySpec(knot, m * m)))
    return trees


def family_lifts():
    """The cabling lifts (pairs; p, p n - 1; p^2 n) of the one- and
    two-iteration solutions at n, for p in 2, 3, 5: all embed."""
    bases = [(((2, 3),), 9), (((2, 3), (2, 17)), 36), (((2, 7), (2, 31)), 64),
             (((3, 4), (3, 47)), 144), (((2, 3), (3, 26)), 81)]
    return [SurgerySpec(CableTower(pairs + ((p, p * n - 1),)), p * p * n)
            for pairs, n in bases for p in (2, 3, 5)]


class TestPlacementOrderVerdicts:
    """The search places heavy vertices (norm 3 or more) after the light
    ones; with every vertex in plain depth-first order instead
    (oracles.depth_first_search) each verdict must be the same."""

    @staticmethod
    def assert_same_verdicts(trees):
        # find_embedding verifies every witness it returns
        statuses = [find_embedding(tree).status for tree in trees]
        for tree, status in zip(trees, statuses):
            assert depth_first_search(tree).status is status, tree.to_json()
        return Counter(statuses)

    def test_desk_squares(self):
        squares = [t for t in desk_range_tuples() if math.isqrt(t[4]) ** 2 == t[4]]
        trees = [closed_form_two_iter(SurgerySpec(CableTower((t[:2], t[2:4])), t[4]))
                 for t in squares]
        assert len(trees) == 58
        assert self.assert_same_verdicts(trees) == {SearchStatus.NONE: 52, SearchStatus.FOUND: 6}

    def test_three_iteration_squares(self):
        counts = self.assert_same_verdicts(three_iteration_squares(random.Random(7), 36))
        assert sum(counts.values()) == 36 and counts[SearchStatus.NONE] > 30

    def test_lifted_towers(self):
        specs = [lift_tower(k) for k in range(1, 7)] + family_lifts()
        counts = self.assert_same_verdicts([reduced_plumbing(s) for s in specs])
        assert counts == {SearchStatus.FOUND: len(specs)}

    def test_random_trees_with_several_heavy_vertices(self):
        rng = random.Random(3)
        trees = []
        while len(trees) < 100:
            t = random_tree(rng, max_vertices=9, weights=(-5, -1))
            if sum(t.weight(v) <= -3 for v in t.vertices()) >= 2 and is_negative_definite(
                    gram_matrix(t)):
                trees.append(t)
        counts = self.assert_same_verdicts(trees)
        assert counts[SearchStatus.FOUND] > 0 and counts[SearchStatus.NONE] > 0
