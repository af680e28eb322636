import math

import pytest

from knotplumb.cabling import (
    CableTower,
    ReducibleBoundaryError,
    SurgerySpec,
    UnsupportedTowerError,
    closed_form_two_iter,
    corner_weight,
    raw_plumbing,
    reduced_plumbing,
    two_iter_parameters,
)
from knotplumb.plumbing import (
    NoNegativeDefiniteFormError,
    WeightedTree,
    are_isomorphic,
    det_exact,
    gram_matrix,
    is_negative_definite,
    reduce_tree,
)

from oracles import contract_junctions, signature


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


class TestClosedForm:
    def test_matches_calculus_on_worked_example(self):
        spec = SurgerySpec(CableTower(((2, 3), (2, 17))), 36)
        assert are_isomorphic(closed_form_two_iter(spec), reduced_plumbing(spec))

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
        assert are_isomorphic(tree, reduced_plumbing(spec))

    def test_plus_one_congruence_shape(self):
        # a2 = +1 (mod p2) with p2 = 3: torso 2 ends in -(p2+1), leg 2 is twos
        spec = SurgerySpec(CableTower(((2, 3), (3, 22))), 70)
        tree, roles = closed_form_two_iter(spec, with_roles=True)
        torso2 = [tree.weight(v) for v in tree.vertices() if roles[v] == "torso2"]
        leg2 = [tree.weight(v) for v in tree.vertices() if roles[v] == "leg2"]
        assert torso2[-1] == -4 and all(w == -2 for w in torso2[:-1])
        assert leg2 == [-2, -2]
        assert are_isomorphic(tree, reduced_plumbing(spec))

    def test_rejects_out_of_family(self):
        with pytest.raises(UnsupportedTowerError):
            closed_form_two_iter(SurgerySpec(CableTower(((2, 3), (5, 67))), 340))
        with pytest.raises(UnsupportedTowerError):
            closed_form_two_iter(SurgerySpec(CableTower(((2, 3),)), 8))

    def test_rejects_negative_n(self):
        with pytest.raises(NoNegativeDefiniteFormError):
            closed_form_two_iter(SurgerySpec(CableTower(((2, 3), (2, 17))), 20))


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
        assert SurgerySpec.from_json_obj(spec.to_json_obj()) == spec

    def test_rejects_non_integer_coefficient(self):
        # a float n used to pass here and fail deep inside classify_one
        knot = CableTower(((2, 3), (2, 17)))
        for n in (36.0, True, "36"):
            with pytest.raises(TypeError, match="must be an integer"):
                SurgerySpec(knot, n)
            with pytest.raises(TypeError, match="must be an integer"):
                SurgerySpec.from_json_obj({"pairs": [[2, 3], [2, 17]], "n": n})
