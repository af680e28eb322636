import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotplumb.hjcf import (
    NotReducedError,
    _expansion_length,
    dual_point_rule,
    eval_neg_cf,
    expand_neg_cf,
    star_inverse,
)


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


class TestExpand:
    def test_integer(self):
        assert expand_neg_cf(3, 1) == (3,)

    def test_seven_halves(self):
        assert expand_neg_cf(7, 2) == (4, 2)

    def test_seven_thirds(self):
        # alpha/p = [k+1, 2, ..., 2] with k = 2, p = 3
        assert expand_neg_cf(7, 3) == (3, 2, 2)

    def test_rejects_small_values(self):
        for bad in (Fraction(1), Fraction(1, 2), Fraction(1, 1)):
            with pytest.raises(ValueError):
                expand_neg_cf(bad)

    def test_rejects_unreduced(self):
        with pytest.raises(NotReducedError):
            expand_neg_cf(14, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expand_neg_cf(-7, 2)

    def test_every_input_form_agrees(self):
        # an int pair is expanded without a Fraction; the value decides
        for p, q in coprime_pairs(40):
            assert expand_neg_cf(p, q) == expand_neg_cf(Fraction(p, q))
        assert expand_neg_cf(5) == expand_neg_cf(Fraction(5)) == expand_neg_cf(5, 1) == (5,)
        for bad in [(7.0, 2), (7, 2.0), ("7", 2), (Fraction(7), 2)]:
            with pytest.raises(TypeError):
                expand_neg_cf(*bad)
        for bad in (3.5, "7/2", None):
            with pytest.raises(TypeError):
                expand_neg_cf(bad)
        for bad in [(1, 2), (2, 2), (0, 1), (5, 0), (1,)]:
            with pytest.raises(ValueError):
                expand_neg_cf(*bad)


class TestExpansionLength:
    def test_matches_the_expansion(self):
        pairs = list(coprime_pairs(150)) + [(10**6 + 1, 10**6), (10**6 + 1, 1), (2**61 - 1, 2**31 - 1)]
        for p, q in pairs:
            assert _expansion_length(p, q) == len(expand_neg_cf(p, q)), (p, q)
        assert (_expansion_length(Fraction(7, 2)), _expansion_length(7)) == (2, 1)

    def test_logarithmic_on_long_runs(self):
        # [2] * 10^30: Euclid takes two quotients where the expansion takes 10^30 steps
        assert _expansion_length(10**30 + 1, 10**30) == 10**30
        assert _expansion_length(99999999999999999999999, 7) == 4
        assert _expansion_length(99999999999999999999999, 99999999999999999999992) == 14285714285714285714286

    def test_raises_as_the_expansion(self):
        for bad in [(14, 4), (1, 2), (7, 0), (-7, 2)]:
            with pytest.raises(ValueError) as want:
                expand_neg_cf(*bad)
            with pytest.raises(type(want.value), match=str(want.value)):
                _expansion_length(*bad)


class TestEval:
    def test_single(self):
        assert eval_neg_cf([3]) == 3

    def test_all_twos(self):
        # [2,...,2] of length k evaluates to (k+1)/k
        assert eval_neg_cf([2, 2, 2]) == Fraction(4, 3)
        for k in range(1, 12):
            assert eval_neg_cf([2] * k) == Fraction(k + 1, k)

    def test_nine_two(self):
        assert eval_neg_cf([9, 2]) == Fraction(17, 2)

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            eval_neg_cf([3, 1, 2])
        with pytest.raises(ValueError):
            eval_neg_cf([])


class TestDual:
    def test_fixed_point(self):
        assert dual_point_rule([2]) == (2,)

    def test_seven_halves(self):
        assert dual_point_rule([4, 2]) == (2, 2, 3)

    @pytest.mark.parametrize("p", range(2, 11))
    @pytest.mark.parametrize("k", range(2, 11))
    def test_family(self, p, k):
        # [k+1, 2 x (p-1)] <-> [2 x (k-1), p+1]
        assert dual_point_rule([k + 1] + [2] * (p - 1)) == tuple([2] * (k - 1) + [p + 1])


class TestStarInverse:
    def test_one(self):
        for b in range(2, 20):
            assert star_inverse(1, b) == 1

    def test_examples(self):
        assert star_inverse(3, 7) == 5
        assert star_inverse(5, 7) == 3

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            star_inverse(6, 9)


class TestProperties:
    """Round trip, duality, reversal and the length law on a mid-sized range;
    the acceptance suite re-runs them for all coprime pairs up to 200."""

    LIMIT = 60

    def test_round_trip(self):
        for p, q in coprime_pairs(self.LIMIT):
            assert eval_neg_cf(expand_neg_cf(p, q)) == Fraction(p, q)

    def test_duality_involution(self):
        for p, q in coprime_pairs(self.LIMIT):
            s = expand_neg_cf(p, q)
            d = dual_point_rule(s)
            assert eval_neg_cf(d) == Fraction(p, p - q)
            assert dual_point_rule(d) == s

    def test_reversal_lemma(self):
        # [a_l, ..., a_1] evaluates to a / b* when [a_1, ..., a_l] = a/b
        for p, q in coprime_pairs(self.LIMIT):
            s = expand_neg_cf(p, q)
            val = eval_neg_cf(tuple(reversed(s)))
            assert val == Fraction(p, star_inverse(q, p))

    def test_sum_length_law(self):
        # len(s) + len(dual(s)) == sum(s) - len(s) + 1, checked by brute force
        for p, q in coprime_pairs(self.LIMIT):
            s = expand_neg_cf(p, q)
            d = dual_point_rule(s)
            assert len(s) + len(d) == sum(s) - len(s) + 1


@given(st.integers(2, 3000), st.integers(1, 2999))
def test_round_trip_fuzz(p, q):
    q = q % p
    if q == 0 or math.gcd(p, q) != 1:
        return
    s = expand_neg_cf(p, q)
    assert all(a >= 2 for a in s)
    assert eval_neg_cf(s) == Fraction(p, q)
