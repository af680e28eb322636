"""Weighted plumbing trees, their intersection forms, and calculus moves.

A plumbing tree is a finite tree with an integer weight on each vertex.  Its
intersection form is the symmetric matrix with the weights on the diagonal
and a 1 in entry (i, j) exactly when i and j are adjacent.  The moves
implemented here (blow-down of a (-1)-vertex of valence <= 2, its inverse
blow-ups, absorption of a 0-weighted valence-2 vertex, and the composite
move flattening a positive leaf next to a -1 into a chain of -2's) all
preserve the boundary 3-manifold and hence the absolute value of the
determinant of the intersection form.

Trees are immutable values: every public move returns a new tree, so
instances can be shared freely between worker processes.  A tree stores
its weights and its adjacency only; its edge set is read off the
adjacency when asked for.  Each move is written once, as a rewiring of a
mutable working copy; a public move runs it on a copy of its tree, and
reduce_tree on the one copy it keeps for a whole reduction, finding each
step's sites among the few vertices of weight >= -1 and freezing the copy
into a tree at the end.  Sites are
keyed by their weight and their least neighbour's, and ties on the key
go to a canonical numbering of the tree made once from the leaf peel
(_peel) that canonical_form also reads, so a tree of any depth reduces.
All linear algebra is exact integer arithmetic on integer matrices.

The determinant and the negative-definiteness test (form_invariants, run
once per tree and kept on it) take the tree's own route: one walk from a
root gives each vertex its parent, and the vertices are then eliminated in
the reverse of the walk, each into its parent by the expansion along their
edge once all of its children are in, O(n) steps in all (cabling's
builder, whose entries are listed each after its parent, skips the walk
and hands over its lists, each -2 run one entry and one step).  This is
the continued-fraction bookkeeping of Neumann's plumbing calculus, kept
in integers: each vertex keeps the determinant (the continuant) of the
subtree eliminated into it and that of the subtree less the vertex, whose
quotient is its pivot; there is no division.  det_exact and
is_negative_definite run the same elimination on a matrix, so they are
defined on square, symmetric integer matrices whose support is a forest
(the form of any plumbing, or a disjoint union of them); any other matrix
raises ValueError, and a float, Fraction or bool entry TypeError rather
than being truncated.  One loop, _read_matrix, which
lattice.verify_embedding shares, reads the matrix row by row: its length,
diagonal and non-zero entries, each entry below the diagonal beside its
mirror; the checks rule in a fixed order, not square before TypeError
before not symmetric before a cycle, wherever the faults lie.

A tree's JSON text is formatted directly from its weights and one sorted
walk of its edges, which to_dot and repr read too: ids and weights are
ints, so the text is json.dumps's byte for byte with no object built;
one rule (_from_obj) reads the decoded text, or file, back into a tree.
"""

import json
from itertools import chain, compress, count


class InvalidMoveError(ValueError):
    """A calculus move was requested at a vertex where it does not apply."""


class WeightedTree:
    """Immutable finite tree with integer vertex weights.

    Vertices are arbitrary integer ids, each given once with its weight,
    as a dict or as (id, weight) pairs.  The edge set must form a tree
    (connected and acyclic) on them; the empty tree is disallowed.  This
    constructor is the one check of a tree from outside input.
    """

    __slots__ = ("_weights", "_adj", "_form")

    def __init__(self, weights, edges):
        w = {}
        for v, wt in weights.items() if isinstance(weights, dict) else weights:
            # type(x) is int: a bool (JSON true) must not pass for 1
            if type(v) is not int or type(wt) is not int:
                raise TypeError("vertex ids and weights must be integers")
            if v in w:  # a dict would keep the last weight only
                raise ValueError(f"duplicate vertex id {v}")
            w[v] = wt
        if not w:
            raise ValueError("the empty tree is not a plumbing")
        adj = {v: set() for v in w}
        for a, b in edges:
            # True or 1.0 would find vertex 1 and be stored as an end
            if type(a) is not int or type(b) is not int:
                raise TypeError("edge ends must be integer vertex ids")
            if a not in w or b not in w:
                raise ValueError(f"edge ({a},{b}) references a missing vertex")
            if a == b:
                raise ValueError(f"loop edge at vertex {a}")
            if b in adj[a]:
                raise ValueError(f"duplicate edge {(a, b) if a < b else (b, a)}")
            adj[a].add(b)
            adj[b].add(a)
        if sum(map(len, adj.values())) != 2 * len(w) - 2:
            raise ValueError("edge count does not match a tree")
        # |E| = |V| - 1 plus no cycle <=> connected <=> tree
        if _walked(w, adj) is None:
            raise ValueError("graph is not connected")
        self._weights = w
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._form = None

    # -- basic accessors ---------------------------------------------------

    @property
    def weights(self) -> dict:
        return dict(self._weights)

    @property
    def edges(self) -> frozenset:
        """The edges (a, b), a < b, read off the adjacency on each access."""
        return frozenset((a, b) for a, ns in self._adj.items() for b in ns if a < b)

    def vertices(self) -> list:
        return sorted(self._weights)

    def weight(self, v: int) -> int:
        return self._weights[v]

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def valence(self, v: int) -> int:
        return len(self._adj[v])

    def __len__(self):
        return len(self._weights)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedTree)
            and self._weights == other._weights
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((tuple(sorted(self._weights.items())), self.edges))

    def __repr__(self):
        ws = ", ".join(f"{v}:{w}" for v, w in sorted(self._weights.items()))
        return f"WeightedTree({{{ws}}}, {self._sorted_edges(self.vertices())})"

    def _sorted_edges(self, order) -> list:
        """The edges (a, b), a < b, in ascending order, given the ids sorted:
        each vertex's neighbours above it, sorted, in the order of the ids."""
        adj = self._adj
        return [(a, b) for a in order for b in sorted(adj[a]) if b > a]

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        """The text of {"vertices": [{"id": v, "weight": w}, ...], "edges":
        [[a, b], ...]}, vertices by id and edges (a < b) in ascending order,
        as json.dumps writes it: formatted directly, as ids and weights are
        ints only."""
        w = self._weights
        order = self.vertices()
        vs = ", ".join([f'{{"id": {v}, "weight": {w[v]}}}' for v in order])
        es = ", ".join([f"[{a}, {b}]" for a, b in self._sorted_edges(order)])
        return f'{{"vertices": [{vs}], "edges": [{es}]}}'

    @classmethod
    def from_json(cls, text: str) -> "WeightedTree":
        return cls._from_obj(json.loads(text))

    @classmethod
    def _from_obj(cls, obj) -> "WeightedTree":  # to_json's text, decoded
        return cls([(v["id"], v["weight"]) for v in obj["vertices"]], obj["edges"])

    def to_dot(self, roles=None) -> str:
        """GraphViz rendering with weights as labels.

        roles, if given, maps vertex ids to segment names, attached as a
        node attribute: torso{i}, leg{i}, corner{i}, junction{i} and leaf
        for raw_plumbing's hook i, torso{i}, node{i}, leg{i} and tail for
        closed_form_two_iter's.
        """
        lines = ["graph plumbing {", "  node [shape=circle];"]
        order = self.vertices()
        for v in order:
            attrs = [f'label="{self._weights[v]}"']
            if roles and v in roles:
                attrs.append(f'role="{roles[v]}"')
            lines.append(f"  {v} [{', '.join(attrs)}];")
        for a, b in self._sorted_edges(order):
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines)


# -- intersection form and exact linear algebra ----------------------------


def gram_matrix(tree: WeightedTree) -> list:
    """Intersection form of the plumbing, rows/columns in ascending vertex id."""
    order = tree.vertices()
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(order):
        row = m[i]
        row[i] = tree._weights[v]
        for u in tree._adj[v]:
            row[index[u]] = 1
    return m


def form_invariants(tree: WeightedTree) -> tuple:
    """(det, negative definite) of the tree's intersection form, by
    _eliminate on its weights and adjacency as _walked lists them; computed
    once and kept on the tree."""
    if tree._form is None:
        tree._form = _eliminate(*_walked(tree._weights, tree._adj))
    return tree._form


def _read_matrix(matrix):
    """(diag, off) of a square, symmetric integer matrix, dicts by row:
    its diagonal entry, and {j: entry} for each non-zero entry off it.
    ValueError unless square and symmetric, TypeError unless every entry
    read is an int (type(x) is int, so no bool, float or Fraction).

    The one loop keeps each entry below the diagonal beside its mirror,
    read from the rows before: the matrix is symmetric exactly when every
    entry below matches its mirror and there are as many entries below
    the diagonal as above it.  The int check runs on the entries kept
    before any of them is compared."""
    n = len(matrix)
    cols = range(n)
    num, adj = {}, {}
    lower, mirror = [], []  # each non-zero entry below the diagonal, and the one above it
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        num[i] = row[i]
        adj[i] = nbrs = {}
        for j in compress(cols, row):
            if j != i:
                nbrs[j] = a = row[j]
                if j < i:
                    lower.append(a)
                    mirror.append(adj[j].get(i))
    if not {int}.issuperset(map(type, chain(num.values(), *map(dict.values, adj.values())))):
        raise TypeError("matrix entries must be integers")
    if lower != mirror or 2 * len(lower) != sum(map(len, adj.values())):
        raise ValueError("matrix is not symmetric")
    return num, adj


def _forest_elimination(matrix):
    """_eliminate on a matrix read by _read_matrix; ValueError on a cycle."""
    walked = _walked(*_read_matrix(matrix))
    if walked is None:
        raise ValueError("matrix support has a cycle")
    return _eliminate(*walked)


def _walked(num, adj):
    """_eliminate's lists for the symmetric matrix of diagonal num[v] and
    non-zero entries adj[v] off it, a dict {u: a} or, every entry 1 (a
    plumbing's form), a set of the u: each component walked breadth first
    from a root, each vertex listed after its parent, the lists made as the
    walk goes; None if a vertex is reached twice, closing a cycle."""
    weighted = type(next(iter(adj.values()), None)) is dict
    index, up, squares = {}, [], [] if weighted else None
    for root in num:
        if root in index:
            continue
        index[root] = start = len(up)
        up.append(None)
        if weighted:
            squares.append(0)
        component = [root]
        for i, v in enumerate(component, start):  # i: v's place in up
            p = up[i]
            for c in adj[v]:
                j = index.get(c)
                if j is None:
                    index[c] = len(up)
                    up.append(i)
                    component.append(c)
                    if weighted:
                        squares.append(adj[v][c] ** 2)
                elif j != p:
                    return None
    return list(map(num.__getitem__, index)), up, {}, squares


def _eliminate(num, up, runs, squares=None):
    """(det, negative definite) of the symmetric matrix on the forest of
    entries 0..m-1, given as lists: num[e], e's diagonal entry; up[e], the
    entry e is joined to (None at a root), one listed before e; squares[e],
    the square of the entry joining them (1 if squares is None).  Changes
    none of its arguments; O(m) integer steps and no recursion.

    The entries are eliminated in the reverse of their order, each into
    its parent after all of its children.  An entry keeps two continuants
    of the plumbing calculus: num[e], the determinant of the subtree
    eliminated into it, and den[e], that of the subtree less e, the
    product of its children's num (at first its entry and 1).  Joined to
    its parent p by the entry a, it goes into p by the expansion along that
    edge, num[p] <- num[p] num[e] - a^2 den[e] den[p] and den[p] <- den[p]
    num[e]; a root's num is its component's determinant.  So no division
    and no gcd is taken, and no entry outgrows the minors it stands for.
    num[e]/den[e] is e's pivot (den[e] is 0 only above a zero pivot), and
    the matrix is negative definite exactly when every pivot is negative.

    runs maps an entry e to a count c > 1 (cabling's builder has them): e
    then stands for a path of c vertices of diagonal -2 and entries 1,
    joined to e's children at its bottom and to up[e] at its top, and goes
    up the path in one step (_run_top).  cabling._fold takes the junction
    rule's tree in these steps, a hook at a time, with no lists.
    """
    num, den = num[:], [1] * len(num)
    det, negative = 1, True
    for e in range(len(num) - 1, -1, -1):
        d, q = num[e], den[e]
        if e in runs:
            (d, q), below = _run_top(d, q, runs[e])
            negative = negative and below
        negative = negative and (d < 0 < q or q < 0 < d)
        p = up[e]
        if p is None:
            det *= d
        else:
            num[p] = num[p] * d - (q if squares is None else squares[e] * q) * den[p]
            den[p] *= d
    return det, negative


def _run_top(d, q, c):
    """((num, den) at the top, every pivot below it negative) of a path of
    c >= 1 -2's whose bottom has num d and den q, in O(1): the k-th vertex
    up has num (-1)^k e_k and den (-1)^(k-1) e_(k-1), for e_k = d + k(d + q)
    linear in k, so the pivots below the top are all negative exactly when
    e_(-1) = -q and e_(c-2) are nonzero and of one sign."""
    below = d + (c - 2) * (d + q)  # e_(c-2)
    top = (below + d + q, -below) if c % 2 else (-below - d - q, below)
    return top, below < 0 < q or q < 0 < below


def det_exact(matrix) -> int:
    """Exact determinant of a square, symmetric integer matrix whose
    off-diagonal support is a forest -- the intersection form of any
    plumbing, or a disjoint union of them -- by integer leaf elimination
    (_forest_elimination) in O(n) steps.  Raises ValueError for any other
    matrix, and TypeError if an entry read is not an int (a bool, float or
    Fraction), rather than truncating it.
    """
    return _forest_elimination(matrix)[0]


def is_negative_definite(matrix) -> bool:
    """Whether a square, symmetric, forest-supported integer matrix is
    negative definite, by det_exact's leaf elimination: definite exactly
    when every pivot is negative.  Raises ValueError and TypeError as
    det_exact does.
    """
    return _forest_elimination(matrix)[1]


# -- calculus moves ---------------------------------------------------------
#
# Each _*_at move rewires a working copy of a tree in place (weights a dict,
# adj a dict of sets) at a site where it applies, and returns the vertices
# it created.


def _blow_down_at(weights, adj, v):
    ns = adj.pop(v)
    del weights[v]
    for u in ns:
        adj[u].remove(v)
        weights[u] += 1
    if len(ns) == 2:
        a, b = ns
        adj[a].add(b)
        adj[b].add(a)
    return []


def _blow_up_at(weights, adj, ends):
    """ends: the vertex (v,) or the edge (a, b) to blow up."""
    new = max(weights) + 1
    for x in ends:
        weights[x] -= 1
    weights[new] = -1
    if len(ends) == 2:
        a, b = ends
        adj[a].remove(b)
        adj[b].remove(a)
    for x in ends:
        adj[x].add(new)
    adj[new] = set(ends)
    return [new]


def _absorb_at(weights, adj, v):
    a, b = sorted(adj.pop(v))
    merged = weights[a] + weights[b]
    del weights[v], weights[b]
    weights[a] = merged
    moved = adj.pop(b)
    moved.remove(v)
    adj[a].remove(v)
    for x in moved:
        adj[x].remove(b)
        adj[x].add(a)
    adj[a] |= moved
    return []


def _flatten_at(weights, adj, leaf):
    n = weights.pop(leaf)
    (nb,) = adj.pop(leaf)
    adj[nb].remove(leaf)
    weights[nb] = -2
    fresh = max(weights) + 1
    new = list(range(fresh, fresh + n - 1))
    prev = nb
    for x in new:
        weights[x] = -2
        adj[prev].add(x)
        adj[x] = {prev}
        prev = x
    return new


def _frozen(weights, adj):
    """The tree of a working copy, checked not at all: a move on a tree,
    like cabling's builder attaching each vertex to an earlier one, yields
    a tree.  Takes weights over, which no caller may mutate after; copies
    adj."""
    tree = object.__new__(WeightedTree)
    tree._weights = weights
    tree._adj = {v: frozenset(ns) for v, ns in adj.items()}
    tree._form = None
    return tree


def _moved(tree, move, site):
    """The tree that move makes of a copy of tree at site."""
    weights = dict(tree._weights)
    adj = {v: set(ns) for v, ns in tree._adj.items()}
    move(weights, adj, site)
    return _frozen(weights, adj)


def _vertex(tree, v):
    """v, a vertex of tree: TypeError unless an int (type(v) is int, so
    not a bool or 1.0), InvalidMoveError if tree has no such vertex."""
    if type(v) is not int:
        raise TypeError(f"move site {v!r} is not an integer vertex id")
    if v not in tree._weights:
        raise InvalidMoveError(f"no vertex {v}")
    return v


def blow_down(tree: WeightedTree, v: int) -> WeightedTree:
    """Remove a (-1)-vertex of valence <= 2, raising its neighbours by one.

    If the vertex had two neighbours they become adjacent.  Preserves the
    boundary and |det| of the intersection form.
    """
    if tree.weight(_vertex(tree, v)) != -1:
        raise InvalidMoveError(f"vertex {v} has weight {tree.weight(v)}, not -1")
    if tree.valence(v) > 2:
        raise InvalidMoveError(f"vertex {v} has valence {tree.valence(v)} > 2")
    if len(tree) == 1:
        raise InvalidMoveError("cannot blow down the last vertex")
    return _moved(tree, _blow_down_at, v)


def blow_up(tree: WeightedTree, site) -> WeightedTree:
    """Inverse of blow_down at a vertex or an edge.

    Vertex site v: attach a fresh (-1)-leaf to v and lower v's weight by 1.
    Edge site (a, b): replace the edge by a fresh (-1)-vertex adjacent to
    both ends, lowering each end's weight by 1.  A free blow-up would
    disconnect the tree and is rejected.
    """
    if site == "free":
        raise InvalidMoveError("free blow-ups are rejected: trees must stay connected")
    if isinstance(site, (tuple, list)):
        a, b = site
        ends = (_vertex(tree, a), _vertex(tree, b))
        if b not in tree.neighbors(a):
            raise InvalidMoveError(f"no edge {site}")
    else:
        ends = (_vertex(tree, site),)
    return _moved(tree, _blow_up_at, ends)


def absorb_zero(tree: WeightedTree, v: int) -> WeightedTree:
    """Merge the two neighbours of a 0-weighted valence-2 vertex.

    The neighbours a, b are replaced by a single vertex (keeping the
    smaller id) of weight weight(a) + weight(b) inheriting all their other
    edges.  Drops one positive and one negative eigenvalue of the form.
    """
    if tree.weight(_vertex(tree, v)) != 0:
        raise InvalidMoveError(f"vertex {v} has weight {tree.weight(v)}, not 0")
    if tree.valence(v) != 2:
        raise InvalidMoveError(f"vertex {v} has valence {tree.valence(v)}, need 2")
    return _moved(tree, _absorb_at, v)


def flatten_positive_leaf(tree: WeightedTree, leaf: int) -> WeightedTree:
    """Trade a positive leaf next to a -1 for a chain of -2's.

    The configuration is a leaf of weight N >= 1 whose unique neighbour has
    weight -1.  The net effect of the blow-up/blow-down sequence is that
    the two vertices become a chain of N vertices of weight -2 hanging
    where the -1 was; the positive index of the form drops by exactly one
    and |det| is preserved.
    """
    if tree.valence(_vertex(tree, leaf)) != 1 or tree.weight(leaf) < 1:
        raise InvalidMoveError(f"vertex {leaf} is not a positive leaf")
    (nb,) = tree.neighbors(leaf)
    if tree.weight(nb) != -1:
        raise InvalidMoveError(f"neighbour of leaf {leaf} has weight {tree.weight(nb)}, not -1")
    return _moved(tree, _flatten_at, leaf)


class NoNegativeDefiniteFormError(ValueError):
    """Reduction cannot reach a negative-definite normal form (the N < 0 regime)."""


def _site_class(weights, adj, v):
    """(class, key) of the reduce_tree move class with a site at v, None if
    v is no site: 0 flattens a positive leaf next to a -1, 1 blows down a
    -1 of valence 2 between negative weights, 2 absorbs a 0 of valence 2
    (v's weight tells them apart), so a site has weight >= -1.  The key
    is v's weight and its least neighbour's."""
    wt = weights[v]
    ns = adj[v]
    if wt >= 1:
        if len(ns) == 1 and weights[next(iter(ns))] == -1:
            return 0, (wt, -1)
    elif (wt == -1 or wt == 0) and len(ns) == 2:
        x, y = ns
        a, b = weights[x], weights[y]
        if b < a:
            a, b = b, a
        if wt == 0:
            return 2, (0, a)
        if b <= -1:
            return 1, (-1, a)
    return None


class _Reduction:
    """reduce_tree's working state: one mutable copy of the tree (weights a
    dict, adj a dict of sets), its live set, the vertices of weight >= -1,
    which hold every site (_site_class), kept up to date move by move, and
    from the first tie on the key, ranks, the copy's canonical numbering,
    and fresh, the numbers after it.  A step scans the live set, so a tree
    with many vertices of weight >= -1 that are no sites, say hundreds of
    -1 leaves, pays that scan at every step; no test or product tree does."""

    __slots__ = ("weights", "adj", "live", "ranks", "fresh")

    def __init__(self, tree):
        self.weights = weights = dict(tree._weights)
        self.adj = {v: set(ns) for v, ns in tree._adj.items()}
        self.live = {v for v, wt in weights.items() if wt >= -1}
        self.ranks = None

    def step(self) -> bool:
        """Make one move at the live site of least (class, key), ties taken
        by least rank; False if there is no site.

        The first tie numbers the copy; then a created vertex takes the
        next number and an absorb's merged vertex the lesser of the two it
        merges.  A move changes weights and valences only at its site, the
        site's neighbours and the vertices it creates (an absorb moves
        edges, not valences), so the measure's change is read off those and
        the vertex count, and only they can join or leave the live set.
        """
        weights, adj, live, ranks = self.weights, self.adj, self.live, self.ranks
        tied = []
        for x in live:
            if (found := _site_class(weights, adj, x)) is None:
                continue
            if not tied or found < least:
                least, tied = found, [x]
            elif found == least:
                tied.append(x)
        if not tied:
            return False
        if len(tied) > 1 and ranks is None:
            self.ranks = ranks = _canonical_ranks(weights, adj)
            self.fresh = count(len(ranks))
        v = tied[0] if len(tied) == 1 else min(tied, key=ranks.__getitem__)
        move = (_flatten_at, _blow_down_at, _absorb_at)[least[0]]
        touched = [v, *adj[v]]
        if ranks is not None and move is _absorb_at:
            a, b = touched[1:]
            ranks[a] = ranks[b] = min(ranks[a], ranks[b])
        before = len(weights) + sum(weights[x] for x in touched if weights[x] > 0)
        created = move(weights, adj, v)
        if ranks is not None:
            ranks.update(zip(created, self.fresh))
        touched += created
        after = len(weights) + sum(weights[x] for x in touched if weights.get(x, 0) > 0)
        if after >= before:
            raise AssertionError("reduction measure failed to decrease")
        live.difference_update(touched)
        live.update(x for x in touched if weights.get(x, -2) >= -1)
        return True


def reduce_tree(tree: WeightedTree) -> WeightedTree:
    """Apply calculus moves until none applies, deterministically.

    Strategy, repeated to a fixed point: flatten a positive leaf whose
    neighbour is a -1; else blow down a (-1)-vertex of valence exactly 2
    both of whose neighbours have negative weight; else absorb a
    0-weighted valence-2 vertex.  Within a move class the site is the one
    of least key, its weight and its least neighbour's, which decides most
    steps; sites tied on the key are taken in a canonical numbering of the
    tree (_canonical_ranks), made at the first tie and carried through the
    moves.  Isomorphic trees get the same numbered tree, so the choice,
    and the fixed point, depend on the isomorphism class alone, not on the
    vertex labelling.  On identical input the run is deterministic byte
    for byte.

    The moves run in place on one working copy of the tree (_Reduction),
    which also keeps its live set, the vertices of weight >= -1: every
    site is one, and after a step only the vertices it touched can join or
    leave it.  So a step costs a scan of the live set and work in the
    vertices it touches, not a scan and a copy of the tree, and one step
    numbers the tree, O(n log n).  (A flatten finds its fresh ids by
    max(weights) + 1, O(n); a raw surgery tree has one positive vertex,
    the N leaf, so that is one flatten per reduction.)  The copy is frozen
    into the result once, at the end.

    Termination: the measure (vertex count plus total positive weight)
    strictly decreases at every step.  Flattening a leaf of weight N adds
    N - 2 vertices but removes N of positive weight; a loop blow-down
    removes a vertex without pushing any weight above 0 (that is what the
    negative-neighbour condition buys); an absorption removes two vertices
    and positive weight is subadditive under the merge.  The measure is
    checked at every step, not just documented.

    Blow-downs at valence 0/1 and at -1's with a non-negative neighbour
    are legal moves (see blow_down) but are left out of the loop: the
    surgery pipeline never needs them, and applying them eagerly can push
    weights positive and break the termination measure.

    Idempotent by construction.  The output for a raw surgery graph with
    N >= 1 has every weight <= -2; callers interpret other terminal shapes
    (see cabling.reduced_plumbing for the N <= 0 regimes).
    """
    state = _Reduction(tree)
    if not state.step():
        return tree  # already reduced: the input, its memoised form kept
    while state.step():
        pass
    return _frozen(state.weights, state.adj)


# -- canonical forms and isomorphism ----------------------------------------


def _peel(weights, adj):
    """The leaf peel of the tree given as a weights dict and an adjacency
    dict (Aho, Hopcroft and Ullman): layer by layer down to the one or two
    centre vertices, yields (layer, keys, the keys sorted as a tuple, ids),
    the centre last.  A vertex's key is its weight and the sorted ids of
    the vertices peeled into it; after a layer is yielded its distinct keys
    get the next ids in sorted order, so an id names a rooted subtree up
    to isomorphism, and ids holds those of every earlier layer.  O(n log
    n), with no recursion."""
    degree = {v: len(ns) for v, ns in adj.items()}
    below = {v: [] for v in adj}  # the ids of the vertices peeled into v
    layer = [v for v, d in degree.items() if d <= 1]
    left = len(degree)
    ids = {}
    while True:
        keys = [(weights[v], tuple(sorted(below[v]))) for v in layer]
        ordered = tuple(sorted(keys))
        yield layer, keys, ordered, ids
        left -= len(layer)
        if not left:  # the layer was the centre: one vertex, or an edge
            return
        for k in ordered:
            ids.setdefault(k, len(ids))
        # more than two vertices were left, so each peeled vertex has one
        # neighbour still in the tree, and none is peeled with it
        peeled, layer = layer, []
        for v, k in zip(peeled, keys):
            degree[v] = 0
            for u in adj[v]:
                if degree[u]:
                    below[u].append(ids[k])
                    degree[u] -= 1
                    if degree[u] == 1:
                        layer.append(u)
                    break


def _canonical_ranks(weights, adj):
    """A numbering 0..n-1 of the tree given as a weights dict and an
    adjacency dict, under which isomorphic trees are one numbered tree.

    Each vertex's layer and key come from _peel, so key ids order rooted
    subtrees by height, weight and children.  The one or two centres are
    numbered first, by (key, vertex id), and the rest breadth first, the
    children of each, its neighbours peeled in earlier layers, in (id of
    their key, vertex id) order: the vertex id orders only isomorphic
    branches, which an automorphism swaps.  O(n log n), with no
    recursion."""
    depth, key = {}, {}
    for d, (layer, keys, _, ids) in enumerate(_peel(weights, adj)):
        depth.update(dict.fromkeys(layer, d))
        key.update(zip(layer, keys))
    order = [v for _, v in sorted(zip(keys, layer))]
    for v in order:  # breadth first: order grows as it is read
        d = depth[v]
        order += [u for _, u in sorted([(ids[key[u]], u) for u in adj[v] if depth[u] < d])]
    return {v: r for r, v in enumerate(order)}


def canonical_form(tree: WeightedTree):
    """Label-independent encoding: equal iff trees are weight-isomorphic.

    The form is the tuple of each _peel layer's sorted keys, the centres'
    last: a tuple of tuples of (weight, tuple of ids).  O(n log n), with no
    recursion.
    """
    return tuple(ordered for _, _, ordered, _ in _peel(tree._weights, tree._adj))


def are_isomorphic(t1: WeightedTree, t2: WeightedTree) -> bool:
    """Weight-preserving tree isomorphism."""
    if len(t1) != len(t2):
        return False
    return canonical_form(t1) == canonical_form(t2)
