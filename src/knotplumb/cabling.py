"""Iterated torus knot descriptors and plumbing graphs for their surgeries.

An iterated torus knot is described by cabling pairs (p_1, a_1), ...,
(p_k, a_k): each stage is the (p_i, a_i)-cable of the previous one,
starting from the unknot.  The tower is *algebraic* (a link of a plane
curve singularity) when a_{i+1} > p_i p_{i+1} a_i for every i, and
*super-algebraic* when the stronger ceil(a_{i+1}/p_{i+1}) - 1 >= p_i a_i
holds, which keeps vertices of weight below -2 from becoming adjacent in
the reduced graph.

For an n-surgery on an algebraic tower, raw_plumbing builds a plumbing
tree bounding the surgered manifold: one L-shaped hook per cabling pair
(a torso chain carrying the expansion of a_i/(a_i - p_i), a corner of
weight -1, and a leg carrying the expansion of a_i/p_i with its leading
coefficient dropped), consecutive hooks joined through a (-p_i a_i)
vertex and a (-1) vertex, and a final leaf of weight N = n - p_k a_k.
Contracting the junctions and flattening the leaf yields the reduced,
negative-definite graph whenever N >= 1; for two-iteration towers in the
a_1 = 1 (mod p_1), a_2 = +-1 (mod p_2) families the same graph is also
emitted directly in closed form, and the two construction paths are kept
as mutual oracles (plumbing.form_invariants checks |det| = n on both).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .hjcf import ceil_div, expand_neg_cf, star_inverse
from .plumbing import (
    NoNegativeDefiniteFormError,
    WeightedTree,
    det_exact,  # unused; perfbench's LAYER_PATCHES wraps cabling.det_exact
    form_invariants,
    reduce_tree,
)


class UnsupportedTowerError(ValueError):
    """The tower is outside what the requested construction supports."""


class ReducibleBoundaryError(ValueError):
    """N = 0: the surgered manifold may split as a connected sum; no single
    negative-definite plumbing tree is produced for it."""


@dataclass(frozen=True)
class CableTower:
    """Cabling parameters ((p_1, a_1), ..., (p_k, a_k)) of an iterated torus knot."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((p, a) for p, a in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("a tower needs at least one cabling pair")
        for p, a in pairs:
            # type(x) is int: int() would truncate 2.9 to 2, and True is no multiplicity
            if type(p) is not int or type(a) is not int:
                raise TypeError(f"cabling pair ({p!r},{a!r}) must be integers")
            if p < 2:
                raise ValueError(f"cabling multiplicity {p} must be >= 2")
            if a < 1:
                raise ValueError(f"cabling coefficient {a} must be >= 1")
            if gcd(p, a) != 1:
                raise ValueError(f"pair ({p},{a}) is not coprime")

    @property
    def iterations(self) -> int:
        return len(self.pairs)

    def is_algebraic(self) -> bool:
        return all(
            a2 > p1 * p2 * a1
            for (p1, a1), (p2, a2) in zip(self.pairs, self.pairs[1:])
        )

@dataclass(frozen=True)
class SurgerySpec:
    """An integral surgery coefficient n on a cable tower; N = n - p_k a_k."""

    knot: CableTower
    n: int

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"surgery coefficient {self.n!r} must be an integer")
        if self.n == 0:
            raise ValueError("surgery coefficient must be nonzero")

    @property
    def reduced_framing(self) -> int:
        p, a = self.knot.pairs[-1]
        return self.n - p * a

    def to_json_obj(self) -> dict:
        return {"pairs": [list(pair) for pair in self.knot.pairs], "n": self.n}

    @classmethod
    def from_json_obj(cls, obj) -> "SurgerySpec":
        return cls(CableTower(tuple(tuple(p) for p in obj["pairs"])), obj["n"])


def corner_weight(p: int, a: int) -> int:
    """Magnitude of the corner weight of a hook; always 1.

    Evaluates 1/(p*a) + (a-p)*/a + (p*ceil(a/p) - a)*/p exactly, where x*
    denotes the inverse of x in the given modulus, and checks that the sum
    is an integer in [1, 2).  Anything else means the surrounding
    construction is broken, so it aborts loudly.
    """
    if not (2 <= p < a):
        raise ValueError(f"need 2 <= p < a, got p={p}, a={a}")
    if gcd(p, a) != 1:
        raise ValueError(f"p={p}, a={a} are not coprime")
    total = (
        Fraction(1, p * a)
        + Fraction(star_inverse(a - p, a), a)
        + Fraction(star_inverse(p * ceil_div(a, p) - a, p), p)
    )
    if total.denominator != 1 or not 1 <= total < 2:
        raise AssertionError(f"corner sum {total} for (p,a)=({p},{a}) is not an integer in [1,2)")
    return int(total)


def _require_buildable(spec: SurgerySpec):
    if not spec.knot.is_algebraic():
        raise UnsupportedTowerError(f"tower {spec.knot.pairs} is not algebraic")
    for p, a in spec.knot.pairs:
        if a <= p:
            raise UnsupportedTowerError(
                f"pair ({p},{a}) has a <= p; write the cable in its a > p form"
            )


def _require_positive_framing(spec: SurgerySpec):
    """N >= 1, the range in which a reduced negative-definite tree exists."""
    n_red = spec.reduced_framing
    if n_red < 0:
        raise NoNegativeDefiniteFormError(
            f"N = {n_red} < 0: no negative-definite plumbing tree exists"
        )
    if n_red == 0:
        raise ReducibleBoundaryError("N = 0: boundary may be a nontrivial connected sum")


class _TreeBuilder:
    """Vertices numbered in the order they are added, each with a role."""

    def __init__(self):
        self.weights, self.edges, self.roles = {}, [], {}

    def add(self, weight, role, attach=None):
        v = len(self.weights)
        self.weights[v] = weight
        self.roles[v] = role
        if attach is not None:
            self.edges.append((attach, v))
        return v

    def finish(self, spec, with_roles):
        """The tree, checked against its oracle |det| = |n|; with its roles if asked."""
        tree = WeightedTree(self.weights, self.edges)
        if abs(form_invariants(tree)[0]) != abs(spec.n):
            raise AssertionError(
                f"plumbing determinant does not match surgery coefficient {spec.n}"
            )
        return (tree, self.roles) if with_roles else tree


def raw_plumbing(spec: SurgerySpec, with_roles: bool = False):
    """Plumbing tree bounding the n-surgery on an algebraic tower, unreduced.

    Hook i contributes the path

        (-c_{i,2}) - ... - (-c_{i,s_i}) - (corner, -1)

    with the leg (-d_{i,t_i}) - ... - (-d_{i,2}) hanging off the corner,
    where [c_{i,2..s_i}] expands a_i/(a_i - p_i) and [d_{i,1..t_i}]
    expands a_i/p_i.  Consecutive corners are joined through a vertex of
    weight -p_i a_i followed by a -1 (the chain the contraction later
    blows down), and the last corner carries the leaf of weight N.

    The shape is pinned by its oracles rather than trusted: |det| of the
    intersection form equals n, and reduction reproduces the closed-form
    graph on the two-iteration congruence families.
    """
    _require_buildable(spec)
    build = _TreeBuilder()
    prev = None  # vertex the next hook's torso attaches to
    for i, (p, a) in enumerate(spec.knot.pairs, start=1):
        torso = expand_neg_cf(Fraction(a, a - p))
        leg = expand_neg_cf(Fraction(a, p))
        for coeff in torso:
            prev = build.add(-coeff, f"torso{i}", prev)
        corner = build.add(-corner_weight(p, a), f"corner{i}", prev)
        hang = corner
        for coeff in reversed(leg[1:]):
            hang = build.add(-coeff, f"leg{i}", hang)
        if i < len(spec.knot.pairs):
            bridge = build.add(-p * a, f"junction{i}", corner)
            prev = build.add(-1, f"junction{i}", bridge)
        else:
            build.add(spec.reduced_framing, "leaf", corner)
    return build.finish(spec, with_roles)


def reduced_plumbing(spec: SurgerySpec) -> WeightedTree:
    """Negative-definite plumbing of the surgery, via the calculus.

    Requires N >= 1 (N >= 2 is the classification regime; N = 1 also
    reduces fine).  N < 0 admits no negative-definite plumbing tree at
    all, and N = 0 may be a connected sum; both raise.
    """
    _require_positive_framing(spec)
    reduced = reduce_tree(raw_plumbing(spec))
    if any(w > -2 for w in reduced.weights.values()):
        raise AssertionError("reduction of a raw surgery graph left a weight above -2")
    return reduced


def two_iter_parameters(spec: SurgerySpec) -> dict:
    """Derived quantities of a two-iteration spec in the +-1 congruence families.

    Returns p1, a1, k1, p2, a2, k2 (= ceil(a2/p2) - 1), the congruence sign
    of a2 modulo p2 (-1 is preferred when p2 = 2, where both hold), the
    reduced framing N, and l = k2 - 1 - p1*a1 (the number of -2's left at
    the head of Torso 2; l = -1 is the algebraic-only boundary case).
    Raises UnsupportedTowerError on any other tower, or one not algebraic.
    """
    if spec.knot.iterations != 2:
        raise UnsupportedTowerError("closed form needs exactly two cabling pairs")
    (p1, a1), (p2, a2) = spec.knot.pairs
    if a1 % p1 != 1 or a1 <= p1:
        raise UnsupportedTowerError(f"a1 = {a1} must be 1 mod p1 = {p1} and exceed it")
    if a2 % p2 == p2 - 1:
        sign = -1
    elif a2 % p2 == 1:
        sign = +1
    else:
        raise UnsupportedTowerError(f"a2 = {a2} must be +-1 mod p2 = {p2}")
    _require_buildable(spec)
    k2 = ceil_div(a2, p2) - 1
    return {
        "p1": p1,
        "a1": a1,
        "k1": (a1 - 1) // p1,
        "p2": p2,
        "a2": a2,
        "k2": k2,
        "sign": sign,
        "N": spec.reduced_framing,
        "l": k2 - 1 - p1 * a1,
    }


def closed_form_two_iter(spec: SurgerySpec, with_roles: bool = False):
    """Reduced centipede graph of a two-iteration surgery, without the calculus.

    Spine, left to right: Torso 1 = (k1-1 twos, -(p1+1)); Node 1; Torso 2;
    Node 2 (-2); Tail (N-1 twos).  Leg 1 = (p1-1 twos) hangs off Node 1 and
    Leg 2 off Node 2.  In the super-algebraic case Node 1 is a -2 and
    Torso 2 carries l twos followed by -3 and (p2-2) twos when a2 = -1
    (mod p2), or l twos followed by -(p2+1) when a2 = +1; Leg 2 is the
    single vertex -p2, respectively (p2-1) twos.  In the boundary case
    l = -1 the low vertex of Torso 2 merges into Node 1.  Cross-validated
    against reduced_plumbing on the whole sweep range.  N <= 0 raises as
    in reduced_plumbing.
    """
    par = two_iter_parameters(spec)
    _require_positive_framing(spec)
    p1, k1, p2, sign, n_red, l = (
        par["p1"],
        par["k1"],
        par["p2"],
        par["sign"],
        par["N"],
        par["l"],
    )
    if sign == -1:
        torso2_weights = [-2] * l + [-3] + [-2] * (p2 - 2) if l >= 0 else [-2] * (p2 - 2)
        node1_weight = -2 if l >= 0 else -3
        leg2_weights = [-p2]
    else:
        torso2_weights = [-2] * l + [-(p2 + 1)] if l >= 0 else []
        node1_weight = -2 if l >= 0 else -(p2 + 1)
        leg2_weights = [-2] * (p2 - 1)

    build = _TreeBuilder()
    prev = None
    for w in [-2] * (k1 - 1) + [-(p1 + 1)]:
        prev = build.add(w, "torso1", prev)
    node1 = build.add(node1_weight, "node1", prev)
    hang = node1
    for _ in range(p1 - 1):
        hang = build.add(-2, "leg1", hang)
    prev = node1
    for w in torso2_weights:
        prev = build.add(w, "torso2", prev)
    node2 = build.add(-2, "node2", prev)
    hang = node2
    for w in leg2_weights:
        hang = build.add(w, "leg2", hang)
    prev = node2
    for _ in range(n_red - 1):
        prev = build.add(-2, "tail", prev)
    return build.finish(spec, with_roles)
