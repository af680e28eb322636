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
negative-definite graph whenever N >= 1; reduced_plumbing builds it
directly by the junction rule, in time linear in its size plus the sum of
log a_i, with that calculus, reduce_tree(raw_plumbing(spec)), as oracle.
Both builders keep the tree as flat per-entry lists, a hook at a time,
each -2 run (a torso's leading -2's, the tail) one entry until a tree is
frozen or the rows emitted, and the form checked |det| = n, which those
memoise or carry.  The reduced tree's one exact pass, _fold, builds no
list: it folds the cached hooks, each leg one continuant pair, into the
spine from the tail to the root (Neumann's plumbing calculus, Trans. AMS
268, 1981) in O(sum of log a_i) integer steps whatever N is, so a
non-square n is decided from its hooks.  For the two-iteration families
a_1 = 1 (mod p_1), a_2 = +-1 (mod p_2), closed_form_two_iter is the same
tree numbered without the junction rule's gaps; the tests hold its shape
to the paper's closed formulas.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import neg

from . import plumbing
from .hjcf import ceil_div, expand_neg_cf, star_inverse
from .plumbing import (
    NoNegativeDefiniteFormError,
    WeightedTree,
    det_exact,  # unused; perfbench's LAYER_PATCHES wraps cabling.det_exact
    reduce_tree,  # unused; perfbench's LAYER_PATCHES wraps cabling.reduce_tree
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
        (p1, a1), *rest = self.pairs
        for p2, a2 in rest:
            if a2 <= p1 * p2 * a1:
                return False
            p1, a1 = p2, a2
        return True

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
    """N >= 1, the range in which a reduced negative-definite tree exists,
    and N - 1 <= sys.maxsize, the most -2's a tail can count."""
    n_red = spec.reduced_framing
    if n_red < 0:
        raise NoNegativeDefiniteFormError(
            f"N = {n_red} < 0: no negative-definite plumbing tree exists"
        )
    if n_red == 0:
        raise ReducibleBoundaryError("N = 0: boundary may be a nontrivial connected sum")
    if n_red - 1 > sys.maxsize:
        raise UnsupportedTowerError(f"N - 1 must be at most {sys.maxsize}, got N = {n_red}")


class _TreeBuilder:
    """A tree as one list per field with an item per entry, a vertex or a
    run of -2's counted once: its weight, its parent entry (None for the
    first, else an earlier one), the last id it covers and its role; runs
    maps an entry of c > 1 -2's to c, their ids ending at its last, the
    first joined to its parent's last id.  So the result is a tree by
    construction, frozen, unvalidated, only when asked for; the search
    takes its rows.  form, (det, negative definite), checked |det| = |n|,
    is _fold's for the junction rule's tree, else _eliminate's over the
    lists.  add gives one entry, hook a hook's, with no call per vertex."""

    def __init__(self, form=None):
        self.weight, self.parent, self.last, self.role = [], [], [], []
        self.runs, self.next, self.form = {}, 0, form  # next: the next entry's first id

    def add(self, weight, role, attach=None, count=1):
        """An entry (a run if count > 1) off entry attach; returns it."""
        e = len(self.weight)
        if count > 1:
            self.runs[e] = count
        self.next += count
        self.weight.append(weight)
        self.parent.append(attach)
        self.last.append(self.next - 1)
        self.role.append(role)
        return e

    def hook(self, i, p, a, attach, skip, corner_role=None):
        """Hook i, (p, a), off entry attach: its torso (the leading -2's
        one run), a -1 corner and its leg, each entry joined to the one
        before it, the torso's first to attach and the leg's first to the
        corner, which it returns; roles torso{i}, node{i} (or corner_role)
        and leg{i}.  With skip > 0 attach is the previous corner, into which
        the torso's first skip entries contract (the junction rule): it
        takes entry skip's weight.  Unchecked: _fold makes the rule's checks."""
        run, laid, k, (torso_role, node, leg_role) = _hook(i, p, a)[:4]
        corner_role = corner_role or node
        if skip:
            self.weight[attach] = -2 if skip <= run else laid[0]
        if run > skip:
            attach = self.add(-2, torso_role, attach, run - skip)
        else:
            laid = laid[skip - run:]
        weight, parent, role = self.weight, self.parent, self.role
        e, m, top = len(weight), len(laid) - k - 1, self.next  # m: the torso's entries
        weight += laid
        parent.append(attach)
        parent += range(e, e + m + k)
        self.next += len(laid)
        self.last.extend(range(top, self.next))
        role += (torso_role,) * m
        role.append(corner_role)
        role += (leg_role,) * k
        return e + m

    def _ids(self, e):
        return range(self.last[e] + 1 - self.runs.get(e, 1), self.last[e] + 1)

    def _expanded(self):
        """Each id's weight and {neighbour: 1}, runs expanded, in id order."""
        weights, adj = {}, {}
        for e, (w, p) in enumerate(zip(self.weight, self.parent)):
            u = None if p is None else self.last[p]
            for v in self._ids(e):
                weights[v], adj[v] = w, {}
                if u is not None:
                    adj[v][u] = adj[u][v] = 1
                u = v
        return weights, adj

    def rows(self):
        """The form's rows as lattice.find_embedding takes them: diagonal,
        {neighbour: 1} per vertex, and form's definiteness; ids 0..n-1 only."""
        weights, adj = self._expanded()
        return list(weights.values()), list(adj.values()), self.form[1]

    def vertices(self):
        """The tree's vertex count, a run counted whole: O(runs)."""
        return len(self.weight) + sum(self.runs.values()) - len(self.runs)

    def finish(self, with_roles):
        """The tree, runs expanded, with form memoised; with its roles if
        asked.  Add nothing after."""
        tree = plumbing._frozen(*self._expanded())
        tree._form = self.form
        if not with_roles:
            return tree
        return tree, {v: role for e, role in enumerate(self.role) for v in self._ids(e)}


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
    return _raw_builder(spec).finish(with_roles)


def _raw_builder(spec) -> _TreeBuilder:
    """raw_plumbing's builder, its tree not yet frozen, its form checked."""
    _require_buildable(spec)
    build = _TreeBuilder()
    prev = None  # entry the next hook's torso attaches to
    for i, (p, a) in enumerate(spec.knot.pairs, start=1):
        corner_weight(p, a)  # raises unless the corner's weight is -1
        corner = build.hook(i, p, a, prev, 0, f"corner{i}")
        if i < len(spec.knot.pairs):
            bridge = build.add(-p * a, f"junction{i}", corner)
            prev = build.add(-1, f"junction{i}", bridge)
        else:
            build.add(spec.reduced_framing, "leaf", corner)
    build.form = _det_checked(plumbing._eliminate(build.weight, build.parent, build.runs), spec)
    return build


def reduced_plumbing(spec: SurgerySpec) -> WeightedTree:
    """Negative-definite plumbing of the surgery, built by the junction rule.

    The tree, ids included, is its oracle reduce_tree(raw_plumbing(spec)).
    At hook i >= 2, with j = p_{i-1} a_{i-1}, the bridge, the -1 and torso
    i's first j entries (-2's but for entry j) contract into the previous
    corner, which takes entry j's weight.  The last corner and the N leaf
    flatten into a -2 and N - 1 tail -2's, from the leaf's id on.  Torso
    i's first ceil(a_i/p_i) - 2 entries are -2's, so only the rest of its
    fraction is expanded: O(output + sum of log a_i) in all.

    Requires N >= 1 (N >= 2 is the classification regime; N = 1 also
    reduces fine).  N < 0 admits no negative-definite plumbing tree at
    all, and N = 0 may be a connected sum; both raise.
    """
    return _reduced_builder(spec, gaps=True).finish(with_roles=False)


def _reduced_builder(spec, gaps) -> _TreeBuilder:
    """reduced_plumbing's checks, then its builder with _fold's form, the
    tree not yet frozen; without gaps its ids are 0..n-1, as they sort."""
    _require_positive_framing(spec)
    _require_buildable(spec)
    return _junction_builder(spec, gaps, _fold(spec)[:2])


def _det_checked(form, spec):
    """form, (det, ...), checked against its oracle |det| = |n|."""
    if abs(form[0]) != abs(spec.n):
        raise AssertionError(f"plumbing determinant does not match surgery coefficient {spec.n}")
    return form


@lru_cache(maxsize=1024)
def _hook(i, p, a):
    """Hook i, (p, a), made once.  As the builders lay it: run, the torso's
    leading -2's; the weights after them, of the rest of the torso (the
    expansion of a/(a - p) after the run), the -1 corner and the leg from
    the corner out (that of a/p less its first); the leg's length; the
    junction rule's role names, whose formatting took a tenth of a build.
    For _fold: those torso weights from the corner in; the leg's continuant
    pair (num, den) at the corner and whether all its pivots are negative;
    the hook's vertex count; its largest torso or leg weight.  Bounded, since
    a sweep meets a new a2 per tuple.  It pays: without it the median
    non-square desk classify_one took 10.0 us, not 4.4 (CPython 3.11)."""
    run = ceil_div(a, p) - 2
    leg = expand_neg_cf(a, p)[:0:-1]
    torso = expand_neg_cf(a - run * p, a - (run + 1) * p)
    laid = tuple(map(neg, (*torso, 1, *leg)))
    num, den, negative = 1, 0, True
    for c in reversed(leg):  # from the leg's end in
        num, den = -c * num - den, num
        negative = negative and (num < 0 < den or den < 0 < num)
    return (run, laid, len(leg), (f"torso{i}", f"node{i}", f"leg{i}"), laid[:len(torso)][::-1],
            (num, den, negative), run + len(laid), -min(torso + leg))


def _fold(spec):
    """(det, negative definite, vertex count) of the junction rule's tree
    (N >= 1), _eliminate's and vertices() on _junction_builder's lists, in
    O(sum of log a_i) steps with no list: the spine's pair (d, q) folded up
    from the tail, a -2 run by plumbing._run_top, a corner w with leg (dl,
    ql) to ((w dl - ql) d - q dl, dl d), any other entry to (w d - q, d).
    AssertionError as the junction rule's checks, and unless |det| = |n|."""
    pairs, w, vertices = spec.knot.pairs, -2, spec.reduced_framing - 1  # w: a corner's weight
    # the tail, N - 1 -2's under the last corner (its top's pivot -N/(N - 1))
    (d, q), negative = plumbing._run_top(-2, 1, vertices) if vertices else ((1, 0), True)
    for i in range(len(pairs), 0, -1):
        run, laid, _, _, torso, (dl, ql, leg_negative), size, top = _hook(i, *pairs[i - 1])
        skip = pairs[i - 2][0] * pairs[i - 2][1] if i > 1 else 0
        if top > -2:
            raise AssertionError("the junction rule left a weight above -2")
        if skip - 1 > run:
            raise AssertionError(f"junction {i - 1} would drop a torso entry other than -2")
        d, q = (w * dl - ql) * d - q * dl, dl * d
        negative = negative and leg_negative and (d < 0 < q or q < 0 < d)
        # the previous corner takes torso entry skip: a -2, or the first after the run
        w, torso = (-2, torso) if skip <= run else (laid[0], torso[:-1])
        for t in torso:
            d, q = t * d - q, d
            negative = negative and (d < 0 < q or q < 0 < d)
        if run > skip:
            (d, q), below = plumbing._run_top(-2 * d - q, d, run - skip)
            negative = negative and below and (d < 0 < q or q < 0 < d)
        vertices += size - skip
    return _det_checked((d, negative, vertices), spec)


def _junction_builder(spec, gaps, form) -> _TreeBuilder:
    """reduced_plumbing's builder (N >= 1), a run for each torso's leading
    -2's and the tail, holding form, that of the _fold that checked it;
    with gaps its ids are the calculus's, else 0..n-1."""
    build = _TreeBuilder(form)
    corner, j = None, 0  # the corner torso i attaches to; the entries it drops
    for i, (p, a) in enumerate(spec.knot.pairs, start=1):
        if gaps and j:
            build.next += 2 + j  # the bridge, the -1 and torso entries 1..j
        # each corner is reset by the next junction or the flatten
        corner, j = build.hook(i, p, a, corner, j), p * a
    build.weight[corner] = -2
    n_red = spec.reduced_framing
    if n_red > 1:
        build.add(-2, "tail", corner, n_red - 1)
    return build


def _require_two_iter(spec: SurgerySpec):
    """Two cabling pairs with a1 = 1 (mod p1), a1 > p1 and a2 = +-1
    (mod p2), algebraic: the +-1 congruence families of the closed form.
    Raises UnsupportedTowerError on any other tower."""
    if spec.knot.iterations != 2:
        raise UnsupportedTowerError("closed form needs exactly two cabling pairs")
    (p1, a1), (p2, a2) = spec.knot.pairs
    if a1 % p1 != 1 or a1 <= p1:
        raise UnsupportedTowerError(f"a1 = {a1} must be 1 mod p1 = {p1} and exceed it")
    if a2 % p2 not in (1, p2 - 1):
        raise UnsupportedTowerError(f"a2 = {a2} must be +-1 mod p2 = {p2}")
    _require_buildable(spec)


def closed_form_two_iter(spec: SurgerySpec, with_roles: bool = False):
    """Reduced centipede graph of a two-iteration surgery in the +-1 families.

    Spine, left to right: Torso 1 = (k1-1 twos, -(p1+1)); Node 1; Torso 2;
    Node 2 (-2); Tail (N-1 twos).  Leg 1 = (p1-1 twos) hangs off Node 1 and
    Leg 2 off Node 2.  In the super-algebraic case Node 1 is a -2 and
    Torso 2 carries l twos followed by -3 and (p2-2) twos when a2 = -1
    (mod p2), or l twos followed by -(p2+1) when a2 = +1; Leg 2 is the
    single vertex -p2, respectively (p2-1) twos.  In the boundary case
    l = -1 the low vertex of Torso 2 merges into Node 1.  This is the
    junction rule's tree, numbered 0..n-1 in construction order, with
    corner i named node i; the tests hold it to these formulas.  N <= 0
    raises as in reduced_plumbing.
    """
    _require_two_iter(spec)
    return _reduced_builder(spec, gaps=False).finish(with_roles)
