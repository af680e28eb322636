"""Exact arithmetic for negative (Hirzebruch-Jung) continued fractions.

A negative continued fraction is the descending expansion

    [a_1, ..., a_s]^- = a_1 - 1/(a_2 - 1/(... - 1/a_s)),

which we keep in canonical form: every coefficient an integer >= 2.  In
canonical form the expansion of a rational number > 1 exists and is unique,
and evaluation never hits a zero denominator.  The module also provides the
Riemenschneider point-rule dual (pairing the expansions of a/b and a/(a-b))
and the modular "star" inverse used in corner-weight computations of
plumbing graphs.

Everything here is exact rational arithmetic on arbitrary-precision
integers; no floats anywhere.
"""

from fractions import Fraction
from math import gcd


class NotReducedError(ValueError):
    """A fraction was supplied whose numerator and denominator share a factor."""


def _above_one(x, q=None) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of a rational > 1, given as
    a Fraction, an int, or a (p, q) pair of ints.

    Fractions constructed by callers are reduced by design, but a raw
    (p, q) pair is checked so that an unreduced fraction arriving from a
    buggy caller fails loudly instead of being silently normalised.
    """
    if q is not None:
        p = x
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError("numerator and denominator must be integers")
        if q < 1 or p < 1:
            raise ValueError(f"expected a positive fraction, got {p}/{q}")
        if gcd(p, q) != 1:
            raise NotReducedError(f"{p}/{q} is not in lowest terms")
    elif isinstance(x, (int, Fraction)):
        p, q = x.numerator, x.denominator
    else:
        raise TypeError(f"cannot interpret {x!r} as an exact fraction")
    if p <= q:
        raise ValueError(f"expansion requires a value > 1, got {Fraction(p, q)}")
    return p, q


def expand_neg_cf(x, q=None) -> tuple[int, ...]:
    """Canonical negative continued fraction expansion of a rational > 1.

    Accepts a Fraction, an int, or a (numerator, denominator) pair in
    lowest terms.  Returns the unique tuple (a_1, ..., a_s) with all
    a_i >= 2 whose descending fraction equals the input.  The recursion is
    a_1 = ceil(p/q), then continue on 1/(a_1 - p/q).
    """
    p, den = _above_one(x, q)
    coeffs = []
    while True:
        a = -(-p // den)  # ceil(p/den)
        coeffs.append(a)
        rem = a * den - p  # a - p/den = rem/den with 0 <= rem < den
        if rem == 0:
            return tuple(coeffs)
        p, den = den, rem


def _expansion_length(x, q=None) -> int:
    """len(expand_neg_cf(x, q)) in O(log) steps, raising as it does: with
    [a_0; a_1, ..., a_m] the regular continued fraction (Euclid), the
    expansion is a_0 + 1, a_1 - 1 twos, a_2 + 2, ..., one entry for each
    even index (the last a_m + 1, or a_0 alone) and a_i - 1 for each odd."""
    p, q = _above_one(x, q)
    length, odd = 0, False
    while q:
        length += p // q - 1 if odd else 1
        p, q, odd = q, p % q, not odd
    return length


def eval_neg_cf(coeffs) -> Fraction:
    """Exact value of the descending fraction a_1 - 1/(a_2 - 1/(...))."""
    seq = tuple(coeffs)
    if not seq:
        raise ValueError("empty coefficient sequence")
    if any(not isinstance(a, int) or a < 2 for a in seq):
        raise ValueError(f"non-canonical coefficients {seq}: every entry must be an integer >= 2")
    # integer recurrence from the right; in canonical form the intermediate
    # numerator/denominator pairs are automatically coprime
    num, den = seq[-1], 1
    for a in reversed(seq[:-1]):
        num, den = a * num - den, num
    return Fraction(num, den)


def dual_point_rule(coeffs) -> tuple[int, ...]:
    """Riemenschneider dual: the expansion of a/(a-b) given that of a/b.

    Canonical expansions are unique, so the dual is computed by evaluating
    and re-expanding; this is an involution, and [2] is its fixed point.
    """
    val = eval_neg_cf(coeffs)  # > 1: every coefficient is at least 2
    return expand_neg_cf(val.numerator, val.numerator - val.denominator)


def star_inverse(a: int, b: int) -> int:
    """The unique a* with 0 < a* < b and a*a* == 1 (mod b); requires gcd(a,b)=1, b >= 2."""
    if b < 2:
        raise ValueError(f"modulus must be >= 2, got {b}")
    if gcd(a, b) != 1:
        raise ValueError(f"{a} is not invertible modulo {b}")
    return pow(a % b, -1, b)


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive b."""
    if b <= 0:
        raise ValueError("positive denominator required")
    return -(-a // b)


__all__ = [
    "NotReducedError",
    "expand_neg_cf",
    "eval_neg_cf",
    "dual_point_rule",
    "star_inverse",
    "ceil_div",
]
